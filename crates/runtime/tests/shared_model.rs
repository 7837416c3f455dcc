//! Inference is a pure function of an immutable model: any number of
//! threads classify through one `&HybridCnn`, each owning nothing but an
//! `InferScratch`, and every verdict equals the serial loop's bit for
//! bit. This is what lets the engine stop copying weights per run.

use relcnn_core::{HybridCnn, HybridConfig, QualifiedClassification};
use relcnn_faults::NoFaults;
use relcnn_gtsrb::{DatasetConfig, SyntheticGtsrb};
use relcnn_nn::InferScratch;
use relcnn_runtime::{BatchClassify, Engine};
use relcnn_tensor::Tensor;
use std::sync::Barrier;

// Sharing by reference across threads is a compile-time property.
const _: fn() = || {
    fn s<T: Sync>() {}
    s::<HybridCnn>()
};

fn tiny_pool() -> (HybridCnn, Vec<Tensor>) {
    let data = SyntheticGtsrb::generate(&DatasetConfig::tiny(41)).expect("dataset");
    let hybrid = HybridCnn::untrained(&HybridConfig::tiny(42)).expect("hybrid");
    let images = data.test().iter().map(|s| s.image.clone()).collect();
    (hybrid, images)
}

fn serial(hybrid: &HybridCnn, images: &[Tensor]) -> Vec<QualifiedClassification> {
    let mut own = hybrid.clone();
    images
        .iter()
        .map(|im| own.classify(im).expect("serial verdict"))
        .collect()
}

fn assert_bit_equal(got: &[QualifiedClassification], want: &[QualifiedClassification], who: &str) {
    assert_eq!(got.len(), want.len(), "{who}: verdict count");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a, b, "{who}: image {i}");
        assert_eq!(
            a.confidence().to_bits(),
            b.confidence().to_bits(),
            "{who}: image {i} confidence bits"
        );
    }
}

#[test]
fn eight_threads_share_one_model_and_match_the_serial_loop() {
    let (hybrid, images) = tiny_pool();
    let want = serial(&hybrid, &images);
    let (hybrid, images) = (&hybrid, &images);
    // The barrier releases all eight into the shared model at once.
    let start = Barrier::new(8);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8usize)
            .map(|t| {
                let start = &start;
                scope.spawn(move || {
                    let mut scratch = InferScratch::new();
                    start.wait();
                    // Each thread walks the pool from its own offset, so
                    // different images are in flight at the same time.
                    let mut got = vec![None; images.len()];
                    for step in 0..images.len() {
                        let i = (step + t) % images.len();
                        got[i] = Some(
                            hybrid
                                .classify_with(&images[i], &mut NoFaults::new(), &mut scratch)
                                .expect("shared verdict"),
                        );
                    }
                    got.into_iter().map(Option::unwrap).collect::<Vec<_>>()
                })
            })
            .collect();
        for (t, handle) in handles.into_iter().enumerate() {
            let got = handle.join().expect("worker thread");
            assert_bit_equal(&got, &want, &format!("thread {t}"));
        }
    });
}

#[test]
fn classify_many_matches_serial_at_every_worker_count() {
    let (hybrid, images) = tiny_pool();
    let want = serial(&hybrid, &images);
    for workers in [1, 2, 8] {
        let got = hybrid
            .classify_many(&Engine::with_workers(workers), &images)
            .expect("batched verdicts");
        assert_bit_equal(&got, &want, &format!("workers={workers}"));
    }
}
