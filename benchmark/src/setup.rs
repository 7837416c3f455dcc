//! Set-up shared by the workloads: dataset, trained model in the three
//! redundancy modes, image pool, and the verdict oracle.

use crate::metrics::Outcome;
use crate::pace::Pace;
use crate::stats::{median, Digest};
use relcnn_core::{HybridCnn, HybridConfig, QualifiedClassification};
use relcnn_gtsrb::{DatasetConfig, SignClass, SyntheticGtsrb};
use relcnn_nn::train::TrainConfig;
use relcnn_nn::SgdConfig;
use relcnn_relexec::RedundancyMode;
use relcnn_tensor::Tensor;
use std::time::{Duration, Instant};

/// Model-initialisation and training seeds are constants: `--seed` varies the
/// inputs, not the program under test.
const MODEL_SEED: u64 = 0x5EED_CAFE;
const TRAIN_SEED: u64 = 0x7EA1;

/// Runs `f` and returns its result with the elapsed time in µs.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as f64 / 1_000.0)
}

/// Hard wall-clock budget of one run: a hung workload exits non-zero instead
/// of stalling whoever waits for the result line.
pub struct Budget {
    start: Instant,
    limit: Duration,
}

impl Budget {
    pub fn new(seconds: u64) -> Self {
        // The contract allows 180 s per run; measuring takes `seconds` and
        // set-up a few more.
        let limit = Duration::from_secs((seconds * 4 + 60).min(170));
        Budget {
            start: Instant::now(),
            limit,
        }
    }

    pub fn check(&self, at: &str) {
        if self.start.elapsed() > self.limit {
            eprintln!(
                "benchmark: wall-clock budget of {:?} exceeded in {at}",
                self.limit
            );
            std::process::exit(3);
        }
    }

    /// What is left, in µs, for a `WallClock::with_budget`.
    pub fn remaining_us(&self) -> u64 {
        self.limit
            .saturating_sub(self.start.elapsed())
            .as_micros()
            .max(1) as u64
    }
}

/// What a workload's model is built from.
pub struct KitSpec {
    pub config: fn(u64) -> HybridConfig,
    pub dataset: fn(u64) -> DatasetConfig,
    /// Training epochs; 0 leaves the model untrained (the served model).
    pub epochs: usize,
    /// `None` = the constant [`MODEL_SEED`]; `Some(d)` = `seed + d`, which is
    /// how `CnnBackend::tiny` derives its model and must be mirrored exactly.
    pub model_seed_offset: Option<u64>,
}

/// Paper-scale: 96 px, scaled AlexNet, Figure-1 qualifier; 12 train and 4
/// test images per class, 3 epochs.
pub const FRAME_96: KitSpec = KitSpec {
    config: HybridConfig::standard,
    dataset: |seed| DatasetConfig {
        train_per_class: 12,
        test_per_class: 4,
        ..DatasetConfig::standard(seed)
    },
    epochs: 3,
    model_seed_offset: None,
};

/// 48 px tiny CNN; 10 train and 8 test images per class, 4 epochs.
pub const TINY_48: KitSpec = KitSpec {
    config: HybridConfig::tiny,
    dataset: |seed| DatasetConfig {
        train_per_class: 10,
        test_per_class: 8,
        ..DatasetConfig::tiny(seed)
    },
    epochs: 4,
    model_seed_offset: None,
};

/// The model and images `CnnBackend::tiny(seed)` serves, rebuilt from the
/// same public constructors so served verdicts can be checked.
pub const SERVED_48: KitSpec = KitSpec {
    config: HybridConfig::tiny,
    dataset: DatasetConfig::tiny,
    epochs: 0,
    model_seed_offset: Some(1),
};

/// One trained model in the three redundancy modes (same weights), and the
/// test images it is measured on.
pub struct Kit {
    pub dmr: HybridCnn,
    pub plain: HybridCnn,
    pub tmr: HybridCnn,
    pub pool: Vec<Tensor>,
    pub labels: Vec<SignClass>,
    pub dataset_gen_s: f64,
    pub train_s: f64,
}

impl Kit {
    /// Dataset generation, model construction, training, the two
    /// weight-sharing mode variants, and one warm-up classification per mode
    /// (which sizes each model's inference arena).
    pub fn build(spec: &KitSpec, seed: u64) -> Kit {
        let (data, gen_us) =
            timed(|| SyntheticGtsrb::generate(&(spec.dataset)(seed)).expect("dataset generation"));
        let model_seed = spec
            .model_seed_offset
            .map_or(MODEL_SEED, |d| seed.wrapping_add(d));
        let config = (spec.config)(model_seed);
        let (dmr, train_us) = timed(|| {
            let mut model = HybridCnn::untrained(&config).expect("model construction");
            if spec.epochs > 0 {
                let train = TrainConfig {
                    epochs: spec.epochs,
                    batch_size: 16,
                    sgd: SgdConfig::alexnet(0.01),
                    seed: TRAIN_SEED,
                };
                model.train_on(&data, &train).expect("training");
            }
            model
        });
        let variant = |redundancy| {
            let config = HybridConfig {
                redundancy,
                ..config.clone()
            };
            HybridCnn::from_network(dmr.network_ref().clone(), config).expect("mode variant")
        };
        let mut kit = Kit {
            plain: variant(RedundancyMode::Plain),
            tmr: variant(RedundancyMode::Tmr),
            dmr,
            pool: data.test().iter().map(|s| s.image.clone()).collect(),
            labels: data.test().iter().map(|s| s.label).collect(),
            dataset_gen_s: gen_us / 1e6,
            train_s: train_us / 1e6,
        };
        for model in [&mut kit.dmr, &mut kit.plain, &mut kit.tmr] {
            model
                .classify(&kit.pool[0])
                .expect("warm-up classification");
        }
        kit
    }
}

/// Sets up `times` times and returns the last product with the median
/// set-up time in seconds at reference speed — one set-up is too short to
/// repeat within the bound.
pub fn repeated<T>(times: usize, pace: &mut Pace, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut seconds = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        let (product, us) = pace.timed(&mut setup);
        seconds.push(us / 1e6);
        last = Some(product);
    }
    (last.expect("at least one set-up"), median(&seconds))
}

/// What is compared when two classifications of one image must agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    pub class: usize,
    pub confidence_bits: u32,
    pub qualified: bool,
    pub qualifier_ran: bool,
    pub ops: u64,
}

impl From<&QualifiedClassification> for Verdict {
    fn from(q: &QualifiedClassification) -> Self {
        Verdict {
            class: q.class(),
            confidence_bits: q.confidence().to_bits(),
            qualified: q.is_qualified(),
            qualifier_ran: q.qualifier().is_some(),
            ops: q.guarantee().ops,
        }
    }
}

/// Per-image DMR verdicts. The first fault-free classification of an image
/// fills its entry; every later one — serial, batched, staged, any mode —
/// is checked against it, so the timed calls are themselves the check.
pub struct Oracle(Vec<Option<Verdict>>);

impl Oracle {
    pub fn new(images: usize) -> Self {
        Oracle(vec![None; images])
    }

    /// Checks a DMR verdict bit for bit.
    pub fn check(&mut self, image: usize, verdict: Verdict, outcome: &mut Outcome) {
        let expected = *self.0[image].get_or_insert(verdict);
        outcome.check(expected == verdict);
    }

    /// Plain and TMR compute the same arithmetic fault-free: same class and
    /// confidence bits as DMR.
    pub fn check_mode(&mut self, image: usize, verdict: Verdict, outcome: &mut Outcome) {
        let agrees = self.0[image].is_some_and(|dmr| {
            (dmr.class, dmr.confidence_bits) == (verdict.class, verdict.confidence_bits)
        });
        outcome.check(agrees);
    }

    pub fn get(&self, image: usize) -> Option<Verdict> {
        self.0[image]
    }

    /// Digest of the filled entries in image order.
    pub fn digest(&self) -> u64 {
        let mut digest = Digest::new();
        for (i, v) in self.0.iter().enumerate() {
            if let Some(v) = v {
                digest.push(i as u64);
                digest.push(v.class as u64);
                digest.push(u64::from(v.confidence_bits));
                digest.push(u64::from(v.qualified) | u64::from(v.qualifier_ran) << 1);
                digest.push(v.ops);
            }
        }
        digest.value()
    }
}
