//! Baseline comparison: activation-range supervision ("caging", paper
//! §II-D / reference [28]) vs the paper's qualified redundant execution.
//!
//! The experiment quantifies the trade the paper describes in prose:
//! range supervision costs almost nothing but only masks *large*
//! corruption; small in-range corruption passes silently. Qualified DMR
//! detects any single-replica corruption regardless of magnitude.

use relcnn::faults::{bits, FaultSite, ScriptedFault, ScriptedInjector};
use relcnn::nn::alexnet;
use relcnn::nn::ranger::{ActivationRange, RangeSupervisor};
use relcnn::relexec::conv::{reliable_conv2d, ReliableConvConfig};
use relcnn::relexec::{BucketConfig, DmrAlu, PlainAlu, RetryPolicy};
use relcnn::tensor::conv::{conv2d, ConvGeometry};
use relcnn::tensor::init::{Init, Rand};
use relcnn::tensor::{Shape, Tensor};

struct Setup {
    input: Tensor,
    weights: Tensor,
    geom: ConvGeometry,
    golden: Tensor,
    range: ActivationRange,
}

fn setup() -> Setup {
    let mut rng = Rand::seeded(21);
    let input = rng.tensor(Shape::d3(2, 8, 8), Init::Uniform { lo: 0.0, hi: 1.0 });
    let weights = rng.tensor(Shape::d4(3, 2, 3, 3), Init::HeNormal { fan_in: 18 });
    let geom = ConvGeometry::new(8, 8, 3, 3, 1, 0).expect("geometry");
    let golden = conv2d(&input, &weights, None, &geom).expect("golden");
    // Calibrated bounds of the clean output, with margin — exactly how a
    // Ranger-style deployment would fit them.
    let range = ActivationRange::of(&golden).with_margin(0.1);
    Setup {
        input,
        weights,
        geom,
        golden,
        range,
    }
}

/// Runs a plain (unprotected) convolution with one scripted fault, then
/// applies range supervision. Returns (caught_by_range, residual_error).
fn plain_with_ranger(s: &Setup, fault: ScriptedFault) -> (bool, f32) {
    let mut inj = ScriptedInjector::new([fault]);
    let mut alu = PlainAlu::new(&mut inj);
    let config = ReliableConvConfig {
        bucket: BucketConfig::new(1, u32::MAX),
        retry: RetryPolicy::none(),
        pe_count: 4,
    };
    let out = reliable_conv2d(&s.input, &s.weights, None, &s.geom, &mut alu, &config)
        .expect("plain run completes");
    let mut caught = false;
    let mut residual = 0.0f32;
    for (o, g) in out.output.iter().zip(s.golden.iter()) {
        let (clamped, hit) = s.range.clamp_value(*o);
        caught |= hit;
        residual = residual.max((clamped - g).abs());
    }
    (caught, residual)
}

#[test]
fn ranger_masks_exponent_upsets() {
    let s = setup();
    // Exponent MSB flip on a multiplier output: value explodes far out of
    // range — the case range supervision exists for.
    let fault = ScriptedFault::transient_flip(10, 30).at_site(FaultSite::Multiplier);
    let (caught, residual) = plain_with_ranger(&s, fault);
    assert!(caught, "huge corruption must violate the fitted range");
    // Masked: the residual is bounded by the range width, not by the
    // corrupted magnitude.
    let width = s.range.max - s.range.min;
    assert!(
        residual <= width * 1.5,
        "residual {residual} not bounded by range width {width}"
    );
}

#[test]
fn ranger_blind_to_mantissa_upsets_dmr_is_not() {
    let s = setup();
    // Mantissa mid-bit flip: small, in-range corruption.
    let fault = ScriptedFault::transient_flip(10, 12).at_site(FaultSite::Multiplier);
    let (caught, residual) = plain_with_ranger(&s, fault);
    assert!(
        !caught,
        "in-range corruption passes range supervision silently"
    );
    // It is real corruption nonetheless (just small).
    assert!(residual >= 0.0);

    // The same fault pinned to one replica under qualified DMR: detected
    // and rolled back, output golden.
    let fault = ScriptedFault::transient_flip(10, 12)
        .on_replica(1)
        .at_site(FaultSite::Multiplier);
    let mut inj = ScriptedInjector::new([fault]);
    let mut alu = DmrAlu::new(&mut inj);
    let out = reliable_conv2d(
        &s.input,
        &s.weights,
        None,
        &s.geom,
        &mut alu,
        &ReliableConvConfig::default(),
    )
    .expect("recovered");
    assert_eq!(out.stats.recovered, 1, "DMR caught what the cage missed");
    for (o, g) in out.output.iter().zip(s.golden.iter()) {
        assert!((o - g).abs() < 1e-4);
    }
}

#[test]
fn ranger_calibration_on_real_network() {
    // End-to-end: fit a supervisor on a CNN over calibration images and
    // verify a corrupted intermediate activation is caught at the layer
    // where it exceeds the envelope.
    let mut rng = Rand::seeded(33);
    let net = alexnet::tiny_cnn(4, 16, &mut rng).unwrap();
    let calibration: Vec<Tensor> = (0..5)
        .map(|_| rng.tensor(Shape::d3(3, 16, 16), Init::Uniform { lo: 0.0, hi: 1.0 }))
        .collect();
    let sup = RangeSupervisor::fit(&net, &calibration, 0.1).unwrap();

    let probe = rng.tensor(Shape::d3(3, 16, 16), Init::Uniform { lo: 0.0, hi: 1.0 });
    let mut conv_out = net.forward_trace(&probe).unwrap().remove(0);
    // Inject an exponent upset into the conv output.
    let v = conv_out.as_slice()[7];
    conv_out.as_mut_slice()[7] = bits::flip_bit(if v == 0.0 { 0.1 } else { v }, 30);
    let supervised = sup.supervise(0, &conv_out).unwrap();
    assert!(supervised.violations >= 1, "envelope violation detected");
}
