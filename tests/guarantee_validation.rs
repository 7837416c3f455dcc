//! Validates the analytic reliability guarantee against measured
//! fault-injection campaigns — the title's "guarantee" made falsifiable.
//!
//! For each redundancy mode and BER, a campaign of seeded trials runs a
//! small reliable convolution under random multiplier/accumulator SEUs;
//! the measured silent-corruption rate must not exceed the analytic bound
//! (plus sampling error), and DMR/TMR detection coverage of
//! single-replica faults must be total.

use relcnn::core::guarantee::{conv_layer_guarantee, silent_layer_bound, silent_op_probability};
use relcnn::faults::campaign::{TrialOutcome, TrialResult};
use relcnn::faults::{BerInjector, FaultInjector, FaultSite};
use relcnn::relexec::conv::{reliable_partition, ConvOutput, ConvPlan, ReliableConvConfig};
use relcnn::relexec::{BucketConfig, ExecError, RedundancyMode, RetryPolicy};
use relcnn::runtime::{run_campaign, EarlyStop, Engine, RunPlan};
use relcnn::tensor::conv::{conv2d, ConvGeometry};
use relcnn::tensor::init::{Init, Rand};
use relcnn::tensor::{Shape, Tensor};

struct Problem {
    input: Tensor,
    weights: Tensor,
    geom: ConvGeometry,
    golden: Tensor,
    ops: u64,
}

fn problem() -> Problem {
    let mut rng = Rand::seeded(11);
    let input = rng.tensor(Shape::d3(2, 8, 8), Init::Uniform { lo: -1.0, hi: 1.0 });
    let weights = rng.tensor(Shape::d4(3, 2, 3, 3), Init::HeNormal { fan_in: 18 });
    let geom = ConvGeometry::new(8, 8, 3, 3, 1, 0).expect("geometry");
    let golden = conv2d(&input, &weights, None, &geom).expect("golden");
    let ops = ConvPlan::new(&geom, 2, 3, false, false).qualified_ops();
    Problem {
        input,
        weights,
        geom,
        golden,
        ops,
    }
}

fn lenient_config() -> ReliableConvConfig {
    ReliableConvConfig {
        bucket: BucketConfig::new(1, u32::MAX),
        retry: RetryPolicy::with_retries(4),
        pe_count: 4,
    }
}

fn classify_outcome(result: Result<ConvOutput, ExecError>, golden: &Tensor) -> TrialOutcome {
    match result {
        Err(_) => TrialOutcome::DetectedAborted,
        Ok(out) => {
            let silent = out
                .output
                .iter()
                .zip(golden.iter())
                .any(|(a, b)| (a - b).abs() > 1e-4);
            if silent {
                TrialOutcome::SilentCorruption
            } else if out.stats.retries > 0 {
                TrialOutcome::DetectedRecovered
            } else {
                TrialOutcome::Correct
            }
        }
    }
}

fn campaign_for(
    mode: RedundancyMode,
    ber: f64,
    trials: u64,
) -> relcnn::faults::campaign::CampaignReport {
    let p = problem();
    let config = lenient_config();
    let plan = RunPlan::new(trials, 0xBEEF);
    run_campaign(&Engine::default(), &plan, EarlyStop::never(), |seed| {
        let mut injector = BerInjector::new(seed, ber)
            .with_sites(vec![FaultSite::Multiplier, FaultSite::Accumulator]);
        let result = reliable_partition(
            mode,
            &p.input,
            &p.weights,
            None,
            &p.geom,
            false, // no ReLU stage
            &mut injector,
            &config,
        );
        TrialResult {
            outcome: classify_outcome(result, &p.golden),
            injector: injector.stats(),
        }
    })
    .summary
}

#[test]
fn dmr_campaign_has_no_silent_corruption_at_realistic_ber() {
    let report = campaign_for(RedundancyMode::Dmr, 1e-4, 150);
    assert_eq!(
        report.silent, 0,
        "DMR silent corruptions at ber 1e-4 (bound predicts ~1e-7 per layer)"
    );
    assert!(report.injected > 0, "faults actually fired");
    assert_eq!(report.detection_coverage(), Some(1.0));
}

#[test]
fn tmr_campaign_corrects_everything_without_aborts() {
    let report = campaign_for(RedundancyMode::Tmr, 1e-4, 150);
    assert_eq!(report.silent, 0);
    assert_eq!(
        report.detected_aborted, 0,
        "TMR corrects single faults in place; no retries needed"
    );
    assert!(report.injected > 0);
}

#[test]
fn plain_campaign_matches_analytic_rate() {
    let p = problem();
    let ber = 1e-4;
    let trials = 300u64;
    let report = campaign_for(RedundancyMode::Plain, ber, trials);
    let silent_rate = report.silent as f64 / report.trials as f64;
    let bound = silent_layer_bound(RedundancyMode::Plain, ber, p.ops);
    // Three-sigma sampling slack on top of the bound (the bound is an
    // upper bound: masked corruption keeps the measured rate below it).
    let sigma = (bound.min(1.0) * (1.0 - bound.min(1.0)) / trials as f64).sqrt();
    assert!(
        silent_rate <= bound + 3.0 * sigma + 0.02,
        "plain silent rate {silent_rate} exceeds bound {bound}"
    );
    assert!(
        silent_rate > 0.0,
        "plain execution at ber {ber} over {} ops must corrupt sometimes",
        p.ops
    );
}

#[test]
fn mode_ordering_plain_worse_than_dmr_worse_equal_tmr() {
    // BER low enough that the plain layer bound stays unclamped (< 1.0),
    // so the quadratic-suppression ratio is visible.
    let ber = 1e-6;
    for ops in [1_000u64, 100_000] {
        let plain = silent_layer_bound(RedundancyMode::Plain, ber, ops);
        let dmr = silent_layer_bound(RedundancyMode::Dmr, ber, ops);
        let tmr = silent_layer_bound(RedundancyMode::Tmr, ber, ops);
        assert!(plain < 1.0, "test precondition: unclamped bound");
        assert!(plain > dmr * 1e3, "quadratic suppression: {plain} vs {dmr}");
        assert!(tmr >= dmr, "TMR pairs 3 ways: {tmr} vs {dmr}");
        assert!(tmr < plain);
    }
}

#[test]
fn alexnet_conv1_static_guarantee_is_publishable() {
    // The end-to-end statement a safety case would cite: AlexNet conv-1
    // under DMR at a Jetson-class BER.
    let geom = ConvGeometry::new(227, 227, 11, 11, 4, 0).expect("geometry");
    let plan = ConvPlan::new(&geom, 3, 96, true, false);
    let g = conv_layer_guarantee(&plan, RedundancyMode::Dmr, 1e-9, RetryPolicy::paper());
    assert!(g.silent_bound < 1e-10, "bound {:.3e}", g.silent_bound);
    assert!(g.expected_detections < 1.0);
    assert!(g.wcet_cycles > g.bcet_cycles);
    // And the per-op statement that grounds it.
    assert!(silent_op_probability(RedundancyMode::Dmr, 1e-9) < 1e-19);
}
