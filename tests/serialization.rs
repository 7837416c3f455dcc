//! Cross-crate serialisation tests: model checkpoints through the hybrid
//! wrapper, JSON round-trips of the public result/report types, and the
//! experiment artefact types.

use relcnn::core::{HybridCnn, HybridConfig};
use relcnn::gtsrb::{DatasetConfig, RenderParams, SignClass, SyntheticGtsrb};
use relcnn::nn::serial;
use relcnn::nn::train::TrainConfig;
use relcnn::nn::SgdConfig;
use relcnn::sax::SaxConfig;
use relcnn::tensor::init::Rand;
use relcnn_bench::experiments::{fig3_series, SweepPoint};

#[test]
fn hybrid_checkpoint_roundtrip_preserves_verdicts() {
    let data = SyntheticGtsrb::generate(&DatasetConfig::tiny(5)).expect("dataset");
    let mut hybrid = HybridCnn::untrained(&HybridConfig::tiny(6)).expect("hybrid");
    let tc = TrainConfig {
        epochs: 1,
        batch_size: 8,
        sgd: SgdConfig::plain(0.02),
        seed: 7,
    };
    hybrid.train_on(&data, &tc).expect("training");

    let dir = std::env::temp_dir().join("relcnn_integration");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("hybrid.ckpt");
    serial::save(hybrid.network_mut(), &path).expect("save");

    let mut restored = HybridCnn::untrained(&HybridConfig::tiny(999)).expect("hybrid");
    serial::load(restored.network_mut(), &path).expect("load");

    for sample in data.test().iter().take(4) {
        let a = hybrid.classify(&sample.image).expect("a");
        let b = restored.classify(&sample.image).expect("b");
        assert_eq!(a.class(), b.class());
        assert_eq!(a.confidence().to_bits(), b.confidence().to_bits());
        assert_eq!(a.is_qualified(), b.is_qualified());
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn verdict_serialises_to_json_and_back() {
    let mut hybrid = HybridCnn::untrained(&HybridConfig::tiny(8)).expect("hybrid");
    let image = relcnn::gtsrb::SignRenderer::new(48).render(
        SignClass::Stop,
        &RenderParams::nominal(),
        &mut Rand::seeded(9),
    );
    let verdict = hybrid.classify(&image).expect("classification");
    let json = serde_json::to_string(&verdict).expect("serialize");
    let back: relcnn::core::QualifiedClassification =
        serde_json::from_str(&json).expect("deserialize");
    assert_eq!(verdict, back);
    assert!(json.contains("confidence"));
}

#[test]
fn experiment_artefacts_serialise() {
    let fig3 = fig3_series(96, 0.1, 128, SaxConfig::default(), 10).expect("fig3");
    let json = serde_json::to_string(&fig3).expect("serialize");
    assert!(json.contains("word"));

    let point = SweepPoint {
        filter: 3,
        stop_confidence: 0.82,
    };
    let json = serde_json::to_string(&point).expect("serialize");
    let back: SweepPoint = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(point, back);
}

#[test]
fn dataset_config_roundtrip() {
    let config = DatasetConfig::standard(42);
    let json = serde_json::to_string(&config).expect("serialize");
    let back: DatasetConfig = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(config, back);
    // Same config, same dataset.
    let a = SyntheticGtsrb::generate(&DatasetConfig::tiny(3)).expect("a");
    let b = SyntheticGtsrb::generate(&DatasetConfig::tiny(3)).expect("b");
    assert_eq!(a.train()[0].image, b.train()[0].image);
}
