//! Cross-crate contract between the runtime and the metrics plane:
//! `LatencyHistogram` uses `relcnn-obs`'s log-linear bucket layout, so
//! histograms export natively. If the `merge_dense` bridge or either
//! side's quantile arithmetic drifts, these tests fail before any
//! dashboard lies.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use relcnn_runtime::{
    CollectSink, Engine, FnTrial, LatencyHistogram, RunPlan, TrialCtx, NUM_BUCKETS,
};

/// The two crates must agree on the bucket count.
#[test]
fn bucket_counts_agree() {
    assert_eq!(NUM_BUCKETS, relcnn_obs::NUM_BUCKETS);
}

/// For a large spread of sample values, recording into a
/// `LatencyHistogram` and bridging via `dense_counts` must equal
/// recording the same values directly into an obs histogram — bucket by
/// bucket, which is exactly what `Histogram::merge_dense` assumes.
#[test]
fn dense_export_equals_direct_recording() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0B5_CA7);
    let mut lh = LatencyHistogram::new();
    let direct = relcnn_obs::Histogram::new();
    for _ in 0..5_000 {
        // Log-uniform spread: exercise unit buckets through high octaves.
        let magnitude = rng.random_range(0..40u32);
        let v = rng.random_range(0..=u64::MAX) >> magnitude.saturating_add(20);
        lh.record(v);
        direct.record(v);
    }
    let bridged = relcnn_obs::Histogram::new();
    bridged.merge_dense(lh.dense_counts(), lh.sum_saturating(), lh.max());
    assert_eq!(bridged.snapshot(), direct.snapshot());
    let snap = bridged.snapshot();
    assert_eq!(snap.count(), lh.count());
    assert_eq!(snap.max(), lh.max());
    // Quantiles computed from the snapshot agree with the histogram's
    // own (same buckets, same midpoint convention, same edge cases).
    for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
        assert_eq!(snap.quantile(q), lh.quantile(q), "q={q}");
    }
}

/// An engine run's trial histogram, exported through a registry, renders
/// as structurally valid Prometheus text whose `_count` matches the
/// run's trial count.
#[test]
fn run_trial_hist_exports_as_valid_prometheus_text() {
    let reg = relcnn_obs::Registry::new();
    let engine = Engine::with_workers(4).observed(&reg);
    let outcome = engine.run(
        &RunPlan::new(400, 23).with_shards(8),
        &FnTrial::new(|ctx: &mut TrialCtx| ctx.index),
        CollectSink::new(),
    );
    assert_eq!(outcome.stats.trials, 400);
    let page = reg.render();
    let parsed = relcnn_obs::parse::validate(&page).expect("valid exposition");
    assert_eq!(
        parsed.value("relcnn_engine_trial_duration_nanoseconds_count", &[]),
        Some(400.0),
        "{page}"
    );
    assert_eq!(
        parsed.value("relcnn_engine_trials_released_total", &[]),
        Some(400.0)
    );
    assert_eq!(
        parsed.value("relcnn_engine_shards_completed_total", &[]),
        Some(8.0)
    );
    assert_eq!(parsed.value("relcnn_engine_workers_live", &[]), Some(0.0));
}

/// Metrics publication must not perturb the deterministic result path:
/// the same plan, observed and unobserved, yields identical summaries
/// and identical deterministic stats.
#[test]
fn observed_and_unobserved_runs_agree_exactly() {
    let plan = RunPlan::new(256, 77).with_shards(16);
    let trial = FnTrial::new(|ctx: &mut TrialCtx| ctx.rng.random::<u64>());
    let plain = Engine::with_workers(4).run(&plan, &trial, CollectSink::new());
    let reg = relcnn_obs::Registry::new();
    let observed = Engine::with_workers(4)
        .observed(&reg)
        .run(&plan, &trial, CollectSink::new());
    assert_eq!(plain.summary, observed.summary);
    assert_eq!(plain.stats.trials, observed.stats.trials);
    assert_eq!(plain.stats.shards, observed.stats.shards);
    assert_eq!(plain.stats.aborted, observed.stats.aborted);
}
