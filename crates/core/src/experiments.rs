//! Reusable experiment workflows.
//!
//! The `relcnn-bench` binaries and the integration test-suite both drive
//! these functions; binaries at paper scale, tests at smoke scale. Every
//! workflow is a pure function of its (seeded) inputs.

use crate::error::HybridError;
use crate::filter_swap::FilterSwap;
use relcnn_gtsrb::{RenderParams, SignClass, SignRenderer, SyntheticGtsrb};
use relcnn_nn::freeze::{FilterDrift, FilterPin, FreezePolicy};
use relcnn_nn::metrics::ConfusionMatrix;
use relcnn_nn::train::{evaluate, mean_class_confidence, train, TrainConfig};
use relcnn_nn::{alexnet, Network, SgdConfig};
use relcnn_sax::{SaxConfig, SaxEncoder};
use relcnn_tensor::init::Rand;
use relcnn_tensor::Tensor;
use relcnn_vision::radial::radial_signature;
use relcnn_vision::{rgb_to_gray, sobel, threshold};
use serde::{Deserialize, Serialize};

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
    let mut rng = Rand::seeded(init_seed);
    let mut net = alexnet::alexnet_gtsrb(
        data.config().classes.len(),
        data.config().image_size,
        &mut rng,
    )?;
    let samples: Vec<(Tensor, usize)> = data
        .train()
        .iter()
        .map(|s| (s.image.clone(), s.label.index()))
        .collect();
    train(&mut net, &samples, train_config, &[])?;
    let test: Vec<(Tensor, usize)> = data
        .test()
        .iter()
        .map(|s| (s.image.clone(), s.label.index()))
        .collect();
    let matrix = evaluate(&net, &test, data.config().classes.len())?;
    Ok((net, matrix))
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

/// Figure 4: replaces each conv-1 filter with the Sobel bank one at a
/// time, measuring the stop-class confidence (what Figure 4 plots); every
/// filter is restored afterwards. Returns the per-filter points plus the
/// baseline (unmodified) confidence and accuracy — the red dotted line.
///
/// # Errors
///
/// Propagates evaluation errors; the network is restored even on the
/// successful path (errors leave the last filter restored too).
pub fn fig4_filter_sweep(
    net: &mut Network,
    data: &SyntheticGtsrb,
    stop_class: SignClass,
) -> Result<(Vec<SweepPoint>, SweepBaseline), HybridError> {
    let test: Vec<(Tensor, usize)> = data
        .test()
        .iter()
        .map(|s| (s.image.clone(), s.label.index()))
        .collect();
    let stop_images: Vec<&Tensor> = data
        .test()
        .iter()
        .filter(|s| s.label == stop_class)
        .map(|s| &s.image)
        .collect();
    let classes = data.config().classes.len();

    let baseline = SweepBaseline {
        stop_confidence: mean_class_confidence(net, &stop_images, stop_class.index())?,
        accuracy: evaluate(net, &test, classes)?.accuracy(),
    };

    let filters = net
        .conv2d_at(0)
        .ok_or_else(|| HybridError::BadConfig {
            reason: "no conv-1 to sweep".into(),
        })?
        .out_channels();

    let mut points = Vec::with_capacity(filters);
    for k in 0..filters {
        points.push(sweep_filter_point(net, &stop_images, stop_class, k)?);
    }
    Ok((points, baseline))
}

/// Measures one point of the Figure-4 sweep: replaces conv-1 filter
/// `filter` with the Sobel bank, measures the stop-class confidence,
/// restores. The shared building block of the serial sweep above and the
/// parallel sweep in `relcnn-runtime`.
///
/// # Errors
///
/// Propagates evaluation errors; the filter is restored on the success
/// path.
pub fn sweep_filter_point(
    net: &mut Network,
    stop_images: &[&Tensor],
    stop_class: SignClass,
    filter: usize,
) -> Result<SweepPoint, HybridError> {
    let swap = FilterSwap::replace_with_sobel(net, 0, filter)?;
    let stop_confidence = mean_class_confidence(net, stop_images, stop_class.index())?;
    swap.restore(net)?;
    Ok(SweepPoint {
        filter,
        stop_confidence,
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
    let test: Vec<(Tensor, usize)> = data
        .test()
        .iter()
        .map(|s| (s.image.clone(), s.label.index()))
        .collect();
    let classes = data.config().classes.len();
    let original = evaluate(net, &test, classes)?;
    let swap = FilterSwap::replace_with_sobel(net, 0, 0)?;
    let replaced = evaluate(net, &test, classes)?;
    swap.restore(net)?;
    let accuracy_delta = replaced.accuracy() - original.accuracy();
    let matrix_distance = original.abs_diff(&replaced)?;
    Ok(ConfusionComparison {
        original,
        replaced,
        accuracy_delta,
        matrix_distance,
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
    let mut rng = Rand::seeded(init_seed);
    let mut net = alexnet::alexnet_gtsrb(
        data.config().classes.len(),
        data.config().image_size,
        &mut rng,
    )?;
    let conv = net.conv2d_at(0).expect("alexnet starts with conv");
    let bank = relcnn_vision::sobel::sobel_bank(conv.in_channels(), conv.kernel_size())?;
    let pin = FilterPin::install(&mut net, 0, 0, bank, policy)?;

    let samples: Vec<(Tensor, usize)> = data
        .train()
        .iter()
        .map(|s| (s.image.clone(), s.label.index()))
        .collect();
    let pins = if policy == FreezePolicy::None {
        vec![]
    } else {
        vec![pin.clone()]
    };
    train(&mut net, &samples, train_config, &pins)?;

    let test: Vec<(Tensor, usize)> = data
        .test()
        .iter()
        .map(|s| (s.image.clone(), s.label.index()))
        .collect();
    let matrix = evaluate(&net, &test, data.config().classes.len())?;
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
    let encoder = SaxEncoder::new(sax);
    let word = encoder.encode(sig.samples())?;
    Ok(Fig3Series {
        radial_ratio: sig.radial_ratio(),
        corners: sig.corner_count(),
        word: word.to_string(),
        series: sig.into_samples(),
    })
}

/// Quick training configuration used by experiment binaries.
pub fn paper_train_config(seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: 6,
        batch_size: 16,
        sgd: SgdConfig::alexnet(0.01),
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relcnn_gtsrb::DatasetConfig;

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
    fn fig4_sweep_smoke_restores_filters() {
        let data = smoke_data(4);
        let (mut net, _) = train_gtsrb_model(&data, &smoke_train(5), 6).unwrap();
        let before = net.conv2d_at(0).unwrap().filters().clone();
        let (points, baseline) = fig4_filter_sweep(&mut net, &data, SignClass::Stop).unwrap();
        assert_eq!(points.len(), 96);
        assert!(baseline.stop_confidence > 0.0);
        assert!((0.0..=1.0).contains(&baseline.accuracy));
        for p in &points {
            assert!(p.stop_confidence.is_finite());
        }
        let after = net.conv2d_at(0).unwrap().filters().clone();
        assert_eq!(before, after, "sweep must leave the model untouched");
    }

    #[test]
    fn confusion_compare_smoke() {
        let data = smoke_data(7);
        let (mut net, _) = train_gtsrb_model(&data, &smoke_train(8), 9).unwrap();
        let cmp = confusion_compare(&mut net, &data).unwrap();
        assert_eq!(cmp.original.total(), cmp.replaced.total());
        assert!(cmp.accuracy_delta.abs() <= 1.0);
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
