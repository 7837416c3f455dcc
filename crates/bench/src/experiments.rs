//! The paper's §III-B experiments on the hybrid CNN: Figure 3's SAX
//! series, Figure 4's per-filter Sobel sweep, the confusion comparison
//! (X1) and the frozen-filter pre-training (X2), with the dataset and
//! training setup they share.
//!
//! `paper` runs them at paper scale, the tests at smoke scale. Every
//! workflow is a pure function of its seeded inputs.
//!
//! "We naively replace the first of the filters with a Sobel-x, Sobel-y,
//! Sobel-x filter. … Replacing all the 96 filters one at a time with the
//! Sobel filters results in the plot of class confidence values shown in
//! Figure 4."

use relcnn_core::HybridError;
use relcnn_gtsrb::{DatasetConfig, RenderParams, Sample, SignClass, SignRenderer, SyntheticGtsrb};
use relcnn_nn::freeze::{FilterDrift, FilterPin, FreezePolicy};
use relcnn_nn::metrics::ConfusionMatrix;
use relcnn_nn::train::{evaluate, mean_class_confidence, train, TrainConfig};
use relcnn_nn::{alexnet, Network, SgdConfig};
use relcnn_runtime::{CollectSink, Engine, RunOutcome, RunPlan, Trial, TrialCtx};
use relcnn_sax::{SaxConfig, SaxEncoder};
use relcnn_tensor::init::Rand;
use relcnn_tensor::Tensor;
use relcnn_vision::radial::radial_signature;
use relcnn_vision::sobel::sobel_bank;
use relcnn_vision::{rgb_to_gray, sobel, threshold};
use serde::{Deserialize, Serialize};

/// The dataset and training setup of the trained experiments (`fig4`,
/// `confusion`, `pretrain_drift`), each at its own seeds: the standard
/// synthetic GTSRB at six epochs of AlexNet SGD, or with `quick` 8
/// training and 3 test images per class and one epoch.
pub fn trained_setup(quick: bool, data_seed: u64, train_seed: u64) -> (DatasetConfig, TrainConfig) {
    let mut data = DatasetConfig::standard(data_seed);
    let mut train = TrainConfig {
        epochs: 6,
        batch_size: 16,
        sgd: SgdConfig::alexnet(0.01),
        seed: train_seed,
    };
    if quick {
        (data.train_per_class, data.test_per_class, train.epochs) = (8, 3, 1);
    }
    (data, train)
}

/// Each sample's image with its label index: what `train` and
/// `evaluate` take.
fn labelled(samples: &[Sample]) -> Vec<(Tensor, usize)> {
    samples
        .iter()
        .map(|s| (s.image.clone(), s.label.index()))
        .collect()
}

/// Trains an AlexNet-GTSRB model on a synthetic dataset and returns it
/// with its test confusion matrix.
///
/// # Errors
///
/// Propagates dataset/training errors.
pub fn train_gtsrb_model(
    data: &SyntheticGtsrb,
    train_config: &TrainConfig,
    init_seed: u64,
) -> Result<(Network, ConfusionMatrix), HybridError> {
    let classes = data.config().classes.len();
    let mut rng = Rand::seeded(init_seed);
    let mut net = alexnet::alexnet_gtsrb(classes, data.config().image_size, &mut rng)?;
    train(&mut net, &labelled(data.train()), train_config, &[])?;
    let matrix = evaluate(&net, &labelled(data.test()), classes)?;
    Ok((net, matrix))
}

/// Replaces conv-1 filter `filter` with the paper's Sobel bank (x, y, x
/// channel pattern), runs `measure` on the modified network and restores
/// the original filter, also when `measure` fails.
fn with_sobel_filter<T>(
    net: &mut Network,
    filter: usize,
    measure: impl FnOnce(&Network) -> Result<T, HybridError>,
) -> Result<T, HybridError> {
    let conv = net.conv2d_at_mut(0).ok_or_else(|| HybridError::BadConfig {
        reason: "layer 0 is not a Conv2d".into(),
    })?;
    let original = conv.filter(filter)?;
    conv.set_filter(filter, &sobel_bank(conv.in_channels(), conv.kernel_size())?)?;
    let measured = measure(net);
    let conv = net.conv2d_at_mut(0).expect("layer 0 was a Conv2d above");
    conv.set_filter(filter, &original)?;
    measured
}

/// One point of the Figure-4 sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Index of the conv-1 filter replaced by the Sobel bank.
    pub filter: usize,
    /// Mean stop-class confidence over the stop-class test images after
    /// replacement (the y-axis of Figure 4).
    pub stop_confidence: f64,
}

/// The unmodified model's Figure-4 values: the red dotted line.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepBaseline {
    /// Mean stop-class confidence over the stop-class test images.
    pub stop_confidence: f64,
    /// Overall test accuracy.
    pub accuracy: f64,
}

/// What a Figure-4 sweep starts from: the stop-class test images, the
/// unmodified model's baseline and the number of conv-1 filters.
fn sweep_start<'a>(
    net: &Network,
    data: &'a SyntheticGtsrb,
    stop_class: SignClass,
) -> Result<(Vec<&'a Tensor>, SweepBaseline, usize), HybridError> {
    let stop_images: Vec<&Tensor> = (data.test().iter())
        .filter(|s| s.label == stop_class)
        .map(|s| &s.image)
        .collect();
    let classes = data.config().classes.len();
    let baseline = SweepBaseline {
        stop_confidence: mean_class_confidence(net, &stop_images, stop_class.index())?,
        accuracy: evaluate(net, &labelled(data.test()), classes)?.accuracy(),
    };
    let filters = (net.conv2d_at(0))
        .ok_or_else(|| HybridError::BadConfig {
            reason: "no conv-1 to sweep".into(),
        })?
        .out_channels();
    Ok((stop_images, baseline, filters))
}

/// One point of the Figure-4 sweep: the stop-class confidence with conv-1
/// filter `filter` replaced by the Sobel bank.
fn sweep_point(
    net: &mut Network,
    stop_images: &[&Tensor],
    stop_class: SignClass,
    filter: usize,
) -> Result<SweepPoint, HybridError> {
    let stop_confidence = with_sobel_filter(net, filter, |net| {
        Ok(mean_class_confidence(net, stop_images, stop_class.index())?)
    })?;
    Ok(SweepPoint {
        filter,
        stop_confidence,
    })
}

/// Each sweep worker owns a clone of the model, because the filter
/// replacement mutates it.
struct SweepTrial<'a> {
    net: &'a Network,
    stop_images: &'a [&'a Tensor],
    stop_class: SignClass,
}

impl Trial for SweepTrial<'_> {
    type State = Network;
    type Output = Result<SweepPoint, HybridError>;

    fn init(&self, _worker_index: usize) -> Network {
        self.net.clone()
    }

    fn run(&self, state: &mut Network, ctx: &mut TrialCtx) -> Self::Output {
        sweep_point(state, self.stop_images, self.stop_class, ctx.index as usize)
    }
}

/// Figure 4: replaces each conv-1 filter with the Sobel bank one at a
/// time, measuring the stop-class confidence (what Figure 4 plots), one
/// trial per filter across the engine's worker pool; `net` is left
/// untouched. Returns the per-filter points, the baseline (unmodified)
/// confidence and accuracy — the red dotted line — and the engine
/// counters.
///
/// # Errors
///
/// Propagates evaluation errors (first failing filter in index order).
pub fn fig4_filter_sweep(
    engine: &Engine,
    net: &Network,
    data: &SyntheticGtsrb,
    stop_class: SignClass,
) -> Result<RunOutcome<(Vec<SweepPoint>, SweepBaseline)>, HybridError> {
    let (stop_images, baseline, filters) = sweep_start(net, data, stop_class)?;
    // One filter per shard and per chunk: sweep evaluation cost varies by
    // filter, so stolen single-trial chunks keep the tail short.
    let outcome = engine.run(
        &RunPlan::new(filters as u64, 0)
            .with_shards(filters)
            .with_chunk(1),
        &SweepTrial {
            net,
            stop_images: &stop_images,
            stop_class,
        },
        CollectSink::new(),
    );
    let points: Result<Vec<SweepPoint>, HybridError> = outcome.summary.into_iter().collect();
    Ok(RunOutcome {
        summary: (points?, baseline),
        stats: outcome.stats,
    })
}

/// Result of the in-text §III-B confusion-matrix comparison (X1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfusionComparison {
    /// Confusion matrix of the unmodified model.
    pub original: ConfusionMatrix,
    /// Confusion matrix with conv-1 filter 0 replaced by the Sobel bank.
    pub replaced: ConfusionMatrix,
    /// Accuracy delta (replaced − original).
    pub accuracy_delta: f64,
    /// Total element-wise matrix difference.
    pub matrix_distance: u64,
}

/// X1: compares confusion matrices before/after replacing the *first*
/// conv-1 filter with the Sobel bank ("we compare both the confusion
/// matrices … and note no substantial difference").
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn confusion_compare(
    net: &mut Network,
    data: &SyntheticGtsrb,
) -> Result<ConfusionComparison, HybridError> {
    let test = labelled(data.test());
    let classes = data.config().classes.len();
    let original = evaluate(net, &test, classes)?;
    let replaced = with_sobel_filter(net, 0, |net| Ok(evaluate(net, &test, classes)?))?;
    Ok(ConfusionComparison {
        accuracy_delta: replaced.accuracy() - original.accuracy(),
        matrix_distance: original.abs_diff(&replaced)?,
        original,
        replaced,
    })
}

/// Result of the §III-B pre-initialisation (frozen-filter) experiment (X2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PretrainReport {
    /// Freeze policy trained under.
    pub policy: FreezePolicy,
    /// Final test accuracy.
    pub accuracy: f64,
    /// Drift of the pinned filter from its Sobel initialisation.
    pub drift: FilterDrift,
}

/// X2: trains a model with conv-1 filter 0 pre-initialised to the Sobel
/// bank under the given freeze policy, reporting the final accuracy and
/// the filter drift in the paper's three domains.
///
/// # Errors
///
/// Propagates training errors.
pub fn pretrain_drift(
    data: &SyntheticGtsrb,
    policy: FreezePolicy,
    train_config: &TrainConfig,
    init_seed: u64,
) -> Result<PretrainReport, HybridError> {
    let classes = data.config().classes.len();
    let mut rng = Rand::seeded(init_seed);
    let mut net = alexnet::alexnet_gtsrb(classes, data.config().image_size, &mut rng)?;
    let conv = net.conv2d_at(0).expect("alexnet starts with conv");
    let bank = sobel_bank(conv.in_channels(), conv.kernel_size())?;
    let pin = FilterPin::install(&mut net, 0, 0, bank, policy)?;
    let pins = if policy == FreezePolicy::None {
        vec![]
    } else {
        vec![pin.clone()]
    };
    train(&mut net, &labelled(data.train()), train_config, &pins)?;
    let matrix = evaluate(&net, &labelled(data.test()), classes)?;
    Ok(PretrainReport {
        policy,
        accuracy: matrix.accuracy(),
        drift: pin.drift(&net)?,
    })
}

/// The Figure-3 artefact: radial time series and SAX word of a rendered,
/// slightly angled stop sign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig3Series {
    /// The centroid-to-edge distance series.
    pub series: Vec<f32>,
    /// Its SAX word (the string printed above Figure 3's plot).
    pub word: String,
    /// Radial max/min ratio of the series.
    pub radial_ratio: f32,
    /// Detected corner count (8 for a clean octagon).
    pub corners: usize,
}

/// Generates the Figure-3 series from a synthetic angled stop sign.
///
/// # Errors
///
/// Propagates vision/SAX errors (cannot occur for the built-in
/// parameters).
pub fn fig3_series(
    image_size: usize,
    tilt_radians: f32,
    angles: usize,
    sax: SaxConfig,
    seed: u64,
) -> Result<Fig3Series, HybridError> {
    let mut params = RenderParams::nominal();
    params.rotation = tilt_radians;
    let image =
        SignRenderer::new(image_size).render(SignClass::Stop, &params, &mut Rand::seeded(seed));
    let gray = rgb_to_gray(&image)?;
    let edges = sobel::gradient_magnitude(&gray)?;
    let mask = threshold::binarize(&edges, threshold::otsu_threshold(&edges));
    let sig = radial_signature(&mask, angles)?;
    let word = SaxEncoder::new(sax).encode(sig.samples())?;
    Ok(Fig3Series {
        radial_ratio: sig.radial_ratio(),
        corners: sig.corner_count(),
        word: word.to_string(),
        series: sig.into_samples(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use relcnn_nn::alexnet::tiny_cnn;

    fn smoke_data(seed: u64) -> SyntheticGtsrb {
        SyntheticGtsrb::generate(&DatasetConfig {
            image_size: 64,
            train_per_class: 4,
            test_per_class: 2,
            seed,
            classes: SignClass::ALL.to_vec(),
        })
        .unwrap()
    }

    fn smoke_train(seed: u64) -> TrainConfig {
        TrainConfig {
            epochs: 1,
            batch_size: 8,
            // AlexNet-style decay: required for the GradMask drift effect
            // the pretrain experiment measures.
            sgd: SgdConfig::alexnet(0.02),
            seed,
        }
    }

    /// The serial sweep, filter after filter on one network: the oracle
    /// of [`fig4_filter_sweep`].
    fn fig4_filter_sweep_serial(
        net: &mut Network,
        data: &SyntheticGtsrb,
        stop_class: SignClass,
    ) -> Result<(Vec<SweepPoint>, SweepBaseline), HybridError> {
        let (stop_images, baseline, filters) = sweep_start(net, data, stop_class)?;
        let points = (0..filters)
            .map(|k| sweep_point(net, &stop_images, stop_class, k))
            .collect::<Result<_, _>>()?;
        Ok((points, baseline))
    }

    #[test]
    fn train_model_smoke() {
        let data = smoke_data(1);
        let (net, matrix) = train_gtsrb_model(&data, &smoke_train(2), 3).unwrap();
        assert_eq!(matrix.total(), 16);
        // Model is runnable.
        let c = net.classify(&data.test()[0].image).unwrap();
        assert!(c < 8);
    }

    #[test]
    fn sobel_filter_is_installed_then_restored_exactly() {
        let mut net = tiny_cnn(4, 16, &mut Rand::seeded(1)).unwrap();
        let before = net.conv2d_at(0).unwrap().filter(2).unwrap();
        let during = with_sobel_filter(&mut net, 2, |net| {
            Ok(net.conv2d_at(0).unwrap().filter(2).unwrap())
        })
        .unwrap();
        assert_ne!(before, during, "filter actually replaced");
        // Channels 0 and 2 (Sobel-x) identical; channel 1 (Sobel-y) not.
        let c0 = during.index_axis0(0).unwrap();
        assert_eq!(c0, during.index_axis0(2).unwrap());
        assert_ne!(c0, during.index_axis0(1).unwrap());
        let after = net.conv2d_at(0).unwrap().filter(2).unwrap();
        assert_eq!(before, after, "restore is exact");
    }

    #[test]
    fn sobel_filter_restores_after_a_failed_measurement() {
        let mut net = tiny_cnn(4, 16, &mut Rand::seeded(2)).unwrap();
        let before = net.conv2d_at(0).unwrap().filters().clone();
        let failed: Result<(), _> = with_sobel_filter(&mut net, 0, |_| {
            Err(HybridError::BadConfig {
                reason: "measurement failed".into(),
            })
        });
        assert!(failed.is_err());
        assert_eq!(&before, net.conv2d_at(0).unwrap().filters());
    }

    #[test]
    fn invalid_filter_is_an_error() {
        let mut net = tiny_cnn(4, 16, &mut Rand::seeded(4)).unwrap();
        assert!(with_sobel_filter(&mut net, 99, |_| Ok(())).is_err());
    }

    #[test]
    fn parallel_sweep_matches_serial_sweep_and_restores_filters() {
        let data = smoke_data(31);
        let (mut net, _) = train_gtsrb_model(&data, &smoke_train(32), 33).unwrap();
        let before = net.conv2d_at(0).unwrap().filters().clone();
        let (serial_points, serial_baseline) =
            fig4_filter_sweep_serial(&mut net, &data, SignClass::Stop).unwrap();
        assert_eq!(serial_points.len(), 96);
        assert!(serial_baseline.stop_confidence > 0.0);
        assert!((0.0..=1.0).contains(&serial_baseline.accuracy));
        assert_eq!(&before, net.conv2d_at(0).unwrap().filters());

        for workers in [1, 4] {
            let outcome =
                fig4_filter_sweep(&Engine::with_workers(workers), &net, &data, SignClass::Stop)
                    .unwrap();
            let (points, baseline) = &outcome.summary;
            assert_eq!(points.len(), serial_points.len());
            assert_eq!(baseline, &serial_baseline);
            for (a, b) in serial_points.iter().zip(points) {
                assert_eq!(a.filter, b.filter);
                assert_eq!(
                    a.stop_confidence.to_bits(),
                    b.stop_confidence.to_bits(),
                    "filter {} diverges at workers={workers}",
                    a.filter
                );
            }
        }
    }

    #[test]
    fn confusion_compare_smoke() {
        let data = smoke_data(7);
        let (mut net, _) = train_gtsrb_model(&data, &smoke_train(8), 9).unwrap();
        let before = net.conv2d_at(0).unwrap().filters().clone();
        let cmp = confusion_compare(&mut net, &data).unwrap();
        assert_eq!(cmp.original.total(), cmp.replaced.total());
        assert!(cmp.accuracy_delta.abs() <= 1.0);
        assert_eq!(&before, net.conv2d_at(0).unwrap().filters());
    }

    #[test]
    fn pretrain_drift_policies_differ() {
        let data = smoke_data(10);
        let tc = smoke_train(11);
        let pinned = pretrain_drift(&data, FreezePolicy::PinEachBatch, &tc, 12).unwrap();
        assert_eq!(
            pinned.drift.l2, 0.0,
            "hard pinning holds the filter bit-exact"
        );
        let masked = pretrain_drift(&data, FreezePolicy::GradMask, &tc, 12).unwrap();
        assert!(
            masked.drift.l2 > 0.0,
            "gradient masking alone drifts under weight decay"
        );
        let free = pretrain_drift(&data, FreezePolicy::None, &tc, 12).unwrap();
        assert!(
            free.drift.l2 >= masked.drift.l2,
            "unfrozen filter drifts at least as much"
        );
    }

    #[test]
    fn fig3_series_shows_octagon() {
        let out = fig3_series(128, 0.12, 256, SaxConfig::default(), 13).unwrap();
        assert_eq!(out.series.len(), 256);
        assert_eq!(out.word.len(), 16);
        assert!(
            out.radial_ratio < 1.25,
            "octagon flatness {}",
            out.radial_ratio
        );
        assert!(
            (6..=10).contains(&out.corners),
            "eight corners visible, got {}",
            out.corners
        );
    }
}
