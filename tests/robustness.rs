//! Robustness tests: malformed inputs must produce errors, never panics
//! or silent misbehaviour — the API contract a safety-critical caller
//! relies on.

use relcnn::core::{HybridCnn, HybridConfig};
use relcnn::gtsrb::{DatasetConfig, SignClass, SyntheticGtsrb};
use relcnn::nn::train::TrainConfig;
use relcnn::nn::SgdConfig;
use relcnn::runtime::Engine;
use relcnn::tensor::{Shape, Tensor};
use relcnn_bench::experiments::{fig4_filter_sweep, train_gtsrb_model};

#[test]
fn wrong_image_sizes_error_gracefully() {
    let mut hybrid = HybridCnn::untrained(&HybridConfig::tiny(1)).expect("hybrid");
    // Too small for the 11x11 stride-4 conv of the tiny CNN's geometry:
    // must be a structured error, not a panic.
    for dims in [
        Shape::d3(3, 8, 8),
        Shape::d3(3, 32, 48), // mismatched tail flatten size
        Shape::d3(1, 48, 48), // wrong channel count
        Shape::d2(48, 48),    // wrong rank
    ] {
        let img = Tensor::zeros(dims.clone());
        assert!(
            hybrid.classify(&img).is_err(),
            "dims {dims} must be rejected"
        );
    }
    // And the hybrid still works after rejected inputs.
    let good = Tensor::full(Shape::d3(3, 48, 48), 0.5);
    assert!(hybrid.classify(&good).is_ok());
}

#[test]
fn extreme_pixel_values_do_not_poison_the_pipeline() {
    let mut hybrid = HybridCnn::untrained(&HybridConfig::tiny(2)).expect("hybrid");
    // All-black, all-white and out-of-gamut images all classify without
    // panicking, with finite confidences.
    for value in [0.0f32, 1.0, 10.0, -3.0] {
        let img = Tensor::full(Shape::d3(3, 48, 48), value);
        let v = hybrid.classify(&img).expect("classify");
        assert!(v.confidence().is_finite());
        assert!(v.confidence() > 0.0);
    }
}

#[test]
fn confidence_only_sweep_skips_accuracy() {
    let data = SyntheticGtsrb::generate(&DatasetConfig {
        image_size: 64,
        train_per_class: 3,
        test_per_class: 2,
        seed: 3,
        classes: SignClass::ALL.to_vec(),
    })
    .expect("dataset");
    let tc = TrainConfig {
        epochs: 1,
        batch_size: 8,
        sgd: SgdConfig::plain(0.02),
        seed: 4,
    };
    let (net, _) = train_gtsrb_model(&data, &tc, 5).expect("training");
    let outcome =
        fig4_filter_sweep(&Engine::with_workers(2), &net, &data, SignClass::Stop).expect("sweep");
    let (points, baseline) = outcome.summary;
    assert_eq!(points.len(), 96);
    assert!(baseline.accuracy.is_finite(), "baseline always evaluated");
    for p in &points {
        assert!(p.stop_confidence.is_finite());
    }
}

#[test]
fn zero_epoch_training_is_a_noop() {
    let data = SyntheticGtsrb::generate(&DatasetConfig::tiny(6)).expect("dataset");
    let mut hybrid = HybridCnn::untrained(&HybridConfig::tiny(7)).expect("hybrid");
    let before = hybrid.network_mut().state();
    let tc = TrainConfig {
        epochs: 0,
        batch_size: 8,
        sgd: SgdConfig::plain(0.02),
        seed: 8,
    };
    hybrid.train_on(&data, &tc).expect("evaluation still runs");
    assert_eq!(hybrid.network_mut().state(), before, "no weight changed");
}
