//! Contract between the runtime and the metrics plane: an observed
//! engine's run exports as valid Prometheus text whose counters match the
//! run, and observing never perturbs the deterministic result path.

use rand::Rng;
use relcnn_runtime::{CollectSink, Engine, FnTrial, RunPlan, TrialCtx};

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
