//! The traced pass's layer probes: staged calls into each layer's public
//! functions on the images the whole `classify` call just saw, each under a
//! span, and the layer metrics they give.

use crate::metrics::Outcome;
use crate::pace::Pace;
use crate::setup::{Budget, Kit, Oracle, Verdict};
use crate::spans::Spans;
use crate::stats::{median, percentile};
use relcnn_core::{HybridCnn, QualifiedClassification};
use relcnn_faults::NoFaults;
use relcnn_nn::{Conv2d, InferScratch};
use relcnn_relexec::conv::{reliable_conv2d, ConvOutput, ReliableConvConfig};
use relcnn_relexec::cost::{conv_bcet, overhead_ratio, OpCost};
use relcnn_relexec::{DmrAlu, PlainAlu, QualifiedAlu, RedundancyMode, TmrAlu};
use relcnn_runtime::{BatchClassify, Engine};
use relcnn_tensor::conv::ConvGeometry;
use relcnn_tensor::ops::argmax_slice;
use relcnn_tensor::Tensor;
use relcnn_vision::radial::radial_signature;
use relcnn_vision::{rgb_to_gray, sobel, threshold};
use std::time::{Duration, Instant};

/// Plain and TMR run once per this many DMR rounds: they feed medians only,
/// and at 96 px a round of all three costs over 0.6 s.
const MODE_EVERY: usize = 4;

#[derive(Default)]
struct Samples {
    classify: Vec<f64>,
    classify_plain: Vec<f64>,
    classify_tmr: Vec<f64>,
    conv1_dmr: Vec<f64>,
    conv1_plain: Vec<f64>,
    conv1_tmr: Vec<f64>,
    tail: Vec<f64>,
    staged_total: Vec<f64>,
    qualifier: Vec<f64>,
    qualifier_edge: Vec<f64>,
    edge: Vec<f64>,
    radial: Vec<f64>,
    assess_signature: Vec<f64>,
    model_clone: Vec<f64>,
}

/// One fault-free `reliable_conv2d` on conv-1's borrowed filters and bias.
fn conv1_on<A: QualifiedAlu>(
    mut alu: A,
    image: &Tensor,
    conv: &Conv2d,
    geom: &ConvGeometry,
    config: &ReliableConvConfig,
) -> ConvOutput {
    reliable_conv2d(
        image,
        conv.filters(),
        Some(conv.bias()),
        geom,
        &mut alu,
        config,
    )
    .expect("fault-free reliable conv-1")
}

fn verdict_of(result: Result<QualifiedClassification, impl std::fmt::Debug>) -> Verdict {
    Verdict::from(&result.expect("fault-free classification"))
}

/// Runs probe rounds over the pool for `seconds` — and at least once over
/// every pool image, so the exact counts are counts over the whole pool —
/// and records the `relexec`, `nn`, `core`, `vision`, `sax` and `bench`
/// layer metrics, every time at reference speed. Returns the serial DMR
/// classify p50 in µs.
pub fn layers(
    kit: &mut Kit,
    spans: &mut Spans,
    pace: &mut Pace,
    oracle: &mut Oracle,
    outcome: &mut Outcome,
    budget: &Budget,
    seconds: f64,
) -> f64 {
    let mut net = kit.dmr.network_ref().clone();
    let mut arena = InferScratch::new();
    let config = kit.dmr.config().clone();
    let qualifier = kit.dmr.qualifier().clone();
    let (geom, in_c, out_c) = {
        let conv = net.conv2d_at(0).expect("conv-1");
        let side = config.image_size;
        let k = conv.kernel_size();
        let geom = ConvGeometry::new(side, side, k, k, conv.stride(), conv.padding())
            .expect("conv-1 geometry");
        (geom, conv.in_channels(), conv.out_channels())
    };
    let conv1 = |net: &relcnn_nn::Network, image: &Tensor, mode: RedundancyMode| -> ConvOutput {
        let conv = net.conv2d_at(0).expect("conv-1");
        let clean = NoFaults::new();
        match mode {
            RedundancyMode::Plain => {
                conv1_on(PlainAlu::new(clean), image, conv, &geom, &config.conv)
            }
            RedundancyMode::Dmr => conv1_on(DmrAlu::new(clean), image, conv, &geom, &config.conv),
            RedundancyMode::Tmr => conv1_on(TmrAlu::new(clean), image, conv, &geom, &config.conv),
        }
    };

    let mut s = Samples::default();
    let mut cycles_equal_bcet = true;
    let mut warm_grow_events = 0;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut round = 0;
    while Instant::now() < deadline || round < kit.pool.len() {
        budget.check("layer probes");
        let i = round % kit.pool.len();
        let image = &kit.pool[i];
        // One reference run paces the whole round: the host's speed moves
        // every few seconds, a round takes at most a third of one.
        let pace = pace.factor();

        // The whole call, then the same call staged layer by layer.
        let (whole, us, op) = spans.op("core.classify", || kit.dmr.classify(image));
        s.classify.push(us * pace);
        oracle.check(i, verdict_of(whole), outcome);

        let (conv, conv_us) = spans.stage("relexec.conv1", op, || {
            conv1(&net, image, RedundancyMode::Dmr)
        });
        s.conv1_dmr.push(conv_us * pace);
        cycles_equal_bcet &= conv.stats.cycles
            == conv_bcet(&geom, in_c, out_c, RedundancyMode::Dmr, &OpCost::default());
        let ((class, confidence), tail_us) = spans.stage("nn.tail", op, || {
            net.forward_from_scratch(&conv.output, 1, &mut arena)
                .expect("CNN tail");
            let probs = arena.softmax_front();
            let class = argmax_slice(probs).expect("class scores");
            (class, probs[class])
        });
        s.tail.push(tail_us * pace);
        let critical = config.safety_critical[class];
        let (verdict, qualifier_us) = match config.class_shapes[class].filter(|_| critical) {
            Some(shape) => {
                let (v, us) = spans.stage("core.qualifier", op, || {
                    qualifier.assess_image(&rgb_to_gray(image).expect("gray"), shape)
                });
                (Some(v.expect("qualifier")), us)
            }
            None => (None, 0.0),
        };
        s.staged_total
            .push((conv_us + tail_us + qualifier_us) * pace);
        let staged = Verdict {
            class,
            confidence_bits: confidence.to_bits(),
            qualified: !critical || verdict.as_ref().is_some_and(|v| v.accepted),
            qualifier_ran: verdict.is_some(),
            ops: conv.stats.mul_ops + conv.stats.acc_ops,
        };
        oracle.check(i, staged, outcome);
        if round == 0 {
            warm_grow_events = arena.grow_events();
        }

        // The qualifier's parts, on every image whether or not its class
        // asks for them, against the shape its label expects.
        let expected = kit.labels[i].shape();
        let (_, us) = spans.stage("core.qualifier.probe", op, || {
            qualifier.assess_image(&rgb_to_gray(image).expect("gray"), expected)
        });
        s.qualifier.push(us * pace);
        let (edges, us) = spans.stage("vision.edge", op, || {
            sobel::gradient_magnitude(&rgb_to_gray(image).expect("gray")).expect("edges")
        });
        s.edge.push(us * pace);
        let (signature, us) = spans.stage("vision.radial", op, || {
            let mask = threshold::binarize(&edges, threshold::otsu_threshold(&edges));
            radial_signature(&mask, qualifier.config().angles)
        });
        if let Ok(signature) = signature {
            s.radial.push(us * pace);
            let (_, us) = spans.stage("sax.assess_signature", op, || {
                qualifier.assess_signature(&signature, expected)
            });
            s.assess_signature.push(us * pace);
        }
        // Figure 2's source: the magnitude of conv-1's two Sobel maps.
        let plane = geom.positions();
        let out = conv.output.as_slice();
        let magnitude: Vec<f32> = (0..plane)
            .map(|p| (out[p] * out[p] + out[plane + p] * out[plane + p]).sqrt())
            .collect();
        let sobel_map = Tensor::from_vec(
            relcnn_tensor::Shape::d2(geom.out_h(), geom.out_w()),
            magnitude,
        )
        .expect("edge map");
        let (_, us) = spans.stage("core.qualifier_edge", op, || {
            qualifier.assess_edge_map(&sobel_map, expected)
        });
        s.qualifier_edge.push(us * pace);
        let (_, us) = spans.stage("runtime.model_clone", op, || kit.dmr.clone());
        s.model_clone.push(us * pace);

        if round % MODE_EVERY == 0 {
            for (name, model, mode, whole_us, conv_us) in [
                (
                    "plain",
                    &mut kit.plain,
                    RedundancyMode::Plain,
                    &mut s.classify_plain,
                    &mut s.conv1_plain,
                ),
                (
                    "tmr",
                    &mut kit.tmr,
                    RedundancyMode::Tmr,
                    &mut s.classify_tmr,
                    &mut s.conv1_tmr,
                ),
            ] {
                let (whole, us, op) =
                    spans.op(&format!("core.classify.{name}"), || model.classify(image));
                whole_us.push(us * pace);
                oracle.check_mode(i, verdict_of(whole), outcome);
                let (_, us) = spans.stage(&format!("relexec.conv1.{name}"), op, || {
                    conv1(&net, image, mode)
                });
                conv_us.push(us * pace);
            }
        }
        round += 1;
    }

    let classify_p50 = median(&s.classify);
    let (dmr, plain, tmr) = (
        median(&s.conv1_dmr),
        median(&s.conv1_plain),
        median(&s.conv1_tmr),
    );
    // Multiplies executed, which padding makes fewer than the geometry's.
    let macs = oracle.get(0).map_or(1.0, |v| v.ops as f64 / 2.0);
    let images = kit.pool.len();
    let count = |f: fn(&Verdict) -> bool| {
        (0..images)
            .filter(|&i| oracle.get(i).is_some_and(|v| f(&v)))
            .count()
    };
    let m = &mut outcome.metrics;
    m.set("core.classify_p50_us", classify_p50);
    m.set(
        "core.classify_p90_us",
        percentile(&s.classify, 90.0).unwrap_or(0.0),
    );
    m.set("core.classify_plain_p50_us", median(&s.classify_plain));
    m.set("core.classify_tmr_p50_us", median(&s.classify_tmr));
    m.set("relexec.conv1_dmr_p50_us", dmr);
    m.set("relexec.conv1_plain_p50_us", plain);
    m.set("relexec.conv1_tmr_p50_us", tmr);
    m.set("relexec.conv1_share", dmr / classify_p50);
    m.set(
        "relexec.qualified_ops",
        oracle.get(0).map_or(0.0, |v| v.ops as f64),
    );
    m.set("relexec.ns_per_mac_dmr", dmr * 1_000.0 / macs);
    m.set("relexec.ns_per_mac_plain", plain * 1_000.0 / macs);
    m.set("relexec.overhead_dmr_measured", dmr / plain);
    m.set("relexec.overhead_tmr_measured", tmr / plain);
    m.set(
        "relexec.overhead_dmr_model",
        overhead_ratio(RedundancyMode::Dmr, &OpCost::default()),
    );
    m.set(
        "relexec.overhead_tmr_model",
        overhead_ratio(RedundancyMode::Tmr, &OpCost::default()),
    );
    m.set(
        "relexec.cycles_equal_bcet",
        f64::from(u8::from(cycles_equal_bcet)),
    );
    m.set("nn.tail_p50_us", median(&s.tail));
    m.set("nn.tail_share", median(&s.tail) / classify_p50);
    m.set(
        "nn.arena_grow_events_steady",
        (arena.grow_events() - warm_grow_events) as f64,
    );
    m.set("nn.train_s", kit.train_s);
    m.set("core.qualifier_p50_us", median(&s.qualifier));
    m.set("core.qualifier_edge_p50_us", median(&s.qualifier_edge));
    m.set("vision.edge_p50_us", median(&s.edge));
    m.set("vision.radial_p50_us", median(&s.radial));
    m.set("sax.assess_signature_p50_us", median(&s.assess_signature));
    m.set(
        "core.qualifier_run_share",
        count(|v| v.qualifier_ran) as f64 / images as f64,
    );
    m.set(
        "core.qualified_share",
        count(|v| v.qualified) as f64 / images as f64,
    );
    m.set(
        "core.unattributed_share",
        (classify_p50 - median(&s.staged_total)) / classify_p50,
    );
    m.set("runtime.model_clone_us", median(&s.model_clone));
    m.set("gtsrb.dataset_gen_s", kit.dataset_gen_s);
    m.set("bench.span_cost_ns", spans.span_cost_ns());
    eprintln!(
        "layer probes: {} rounds over {images} images ({} plain/tmr)",
        s.classify.len(),
        s.classify_plain.len()
    );
    classify_p50
}

/// The `runtime` batch probe: `classify_many` at fills 1, 4 and 8.
pub struct Fills<'a> {
    pub model: &'a HybridCnn,
    pub pool: &'a [Tensor],
    pub engine: &'a Engine,
    /// Serial DMR classify p50, µs at reference speed.
    pub classify_p50: f64,
}

impl Fills<'_> {
    /// Times the three fills interleaved batch by batch for `seconds`, checks
    /// every verdict against the serial ones in order, and records the
    /// `runtime` batch metrics. Dispatch overhead is what a batch costs
    /// beyond its share of serial classifications:
    /// p50 − ⌈fill ÷ workers⌉ × `classify_p50`.
    pub fn run(
        &self,
        spans: &mut Spans,
        pace: &mut Pace,
        oracle: &mut Oracle,
        outcome: &mut Outcome,
        budget: &Budget,
        seconds: f64,
    ) {
        /// Fill, and the names of its batch p50 and dispatch overhead.
        const FILLS: [(usize, &str, &str); 3] = [
            (
                1,
                "runtime.batch_p50_us_fill1",
                "runtime.dispatch_overhead_us_fill1",
            ),
            (
                4,
                "runtime.batch_p50_us_fill4",
                "runtime.dispatch_overhead_us_fill4",
            ),
            (
                8,
                "runtime.batch_p50_us_fill8",
                "runtime.dispatch_overhead_us_fill8",
            ),
        ];
        let mut samples: [Vec<f64>; 3] = Default::default();
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut start = 0;
        while Instant::now() < deadline || samples[0].len() < 20 {
            budget.check("batch fills");
            let pace = pace.factor();
            for ((fill, ..), us_of_fill) in FILLS.into_iter().zip(&mut samples) {
                let at = start % (self.pool.len() - fill + 1);
                let batch = &self.pool[at..at + fill];
                let (verdicts, us, _) = spans.op(&format!("runtime.batch.fill{fill}"), || {
                    self.model.classify_many(self.engine, batch)
                });
                us_of_fill.push(us * pace);
                for (k, v) in verdicts.expect("batched classification").iter().enumerate() {
                    oracle.check(at + k, Verdict::from(v), outcome);
                }
            }
            start += 8;
        }
        let workers = self.engine.configured_workers();
        for ((fill, batch, overhead), us_of_fill) in FILLS.into_iter().zip(&samples) {
            let p50 = median(us_of_fill);
            outcome.metrics.set(batch, p50);
            outcome.metrics.set(
                overhead,
                p50 - fill.div_ceil(workers) as f64 * self.classify_p50,
            );
        }
        eprintln!(
            "batch fills: {} batches per fill on {workers} workers",
            samples[0].len()
        );
    }
}
