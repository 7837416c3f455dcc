//! Live engine metrics: shared registry handles, readable mid-run.
//!
//! Every [`Engine`](crate::Engine) owns an [`EngineMetrics`] — a bundle
//! of `relcnn-obs` handles the workers and the aggregator update *as
//! they run*, and the one place a run in flight is read from
//! ([`Engine::metrics`](crate::Engine::metrics)). By default the bundle
//! is unregistered (private atomics, still fully readable); attaching an
//! engine to a [`Registry`] with [`Engine::observed`](crate::Engine)
//! swaps in registered handles so a scrape sees the same values. Two
//! engines attached to the same registry share series (registration is
//! idempotent), which is exactly what the serving layer wants: one
//! `relcnn_engine_*` family covering every dispatch.
//!
//! Publication is strictly read-only off the deterministic path: every
//! update is a relaxed atomic add/store on the side of existing control
//! flow, never an input to it. The CI determinism matrix byte-diffs
//! campaign artefacts with metrics enabled against disabled to hold
//! that line.

use relcnn_obs::{Counter, Gauge, Histogram, Registry};

/// The engine's shared metric handles. Field names mirror the exported
/// metric names minus the `relcnn_engine_` prefix.
#[derive(Debug, Default)]
pub struct EngineMetrics {
    /// Runs begun (`relcnn_engine_runs_started_total`).
    pub runs_started: Counter,
    /// Runs finished (`relcnn_engine_runs_completed_total`).
    pub runs_completed: Counter,
    /// Runs stopped early by a sink checkpoint
    /// (`relcnn_engine_runs_aborted_total`).
    pub runs_aborted: Counter,
    /// Worker threads currently inside a run
    /// (`relcnn_engine_workers_live`).
    pub workers_live: Gauge,
    /// Trials executed by workers (`relcnn_engine_trials_executed_total`).
    pub trials_executed: Counter,
    /// Trials released to the sink in watermark order
    /// (`relcnn_engine_trials_released_total`).
    pub trials_released: Counter,
    /// Chunks executed (`relcnn_engine_chunks_executed_total`).
    pub chunks_executed: Counter,
    /// Shards whose results completed release
    /// (`relcnn_engine_shards_completed_total`).
    pub shards_completed: Counter,
    /// Successful steal operations (`relcnn_engine_steals_total`).
    pub steals: Counter,
    /// Chunks moved between deques by steals
    /// (`relcnn_engine_chunks_stolen_total`).
    pub chunks_stolen: Counter,
    /// Time blocked on the bounded result channel, µs
    /// (`relcnn_engine_send_block_microseconds_total`).
    pub send_block_us: Counter,
    /// Reorder-buffer residency in trials, sampled at aggregator steady
    /// state (`relcnn_engine_reorder_resident_trials`).
    pub reorder_resident: Gauge,
    /// High-water mark of the residency gauge
    /// (`relcnn_engine_reorder_peak_trials`).
    pub reorder_peak: Gauge,
    /// Per-trial execution time histogram, ns
    /// (`relcnn_engine_trial_duration_nanoseconds`).
    pub trial_ns: Histogram,
}

impl EngineMetrics {
    /// A bundle whose handles are registered on `registry` under the
    /// `relcnn_engine_*` names. Idempotent: a second engine attaching to
    /// the same registry receives the *same* series.
    pub fn registered(registry: &Registry) -> Self {
        let c = |name, help| registry.counter(name, help, &[]);
        let g = |name, help| registry.gauge(name, help, &[]);
        EngineMetrics {
            runs_started: c("relcnn_engine_runs_started_total", "Engine runs begun"),
            runs_completed: c("relcnn_engine_runs_completed_total", "Engine runs finished"),
            runs_aborted: c(
                "relcnn_engine_runs_aborted_total",
                "Runs stopped early by a sink checkpoint",
            ),
            workers_live: g(
                "relcnn_engine_workers_live",
                "Worker threads currently inside a run",
            ),
            trials_executed: c(
                "relcnn_engine_trials_executed_total",
                "Trials executed by workers (includes trials later discarded by an abort)",
            ),
            trials_released: c(
                "relcnn_engine_trials_released_total",
                "Trials released to the sink in watermark order",
            ),
            chunks_executed: c("relcnn_engine_chunks_executed_total", "Chunks executed"),
            shards_completed: c(
                "relcnn_engine_shards_completed_total",
                "Shards fully released to the sink",
            ),
            steals: c("relcnn_engine_steals_total", "Successful steal operations"),
            chunks_stolen: c(
                "relcnn_engine_chunks_stolen_total",
                "Chunks moved between worker deques by steals",
            ),
            send_block_us: c(
                "relcnn_engine_send_block_microseconds_total",
                "Time blocked sending on the bounded result channel, microseconds",
            ),
            reorder_resident: g(
                "relcnn_engine_reorder_resident_trials",
                "Reorder-buffer residency in trials, sampled at aggregator steady state",
            ),
            reorder_peak: g(
                "relcnn_engine_reorder_peak_trials",
                "High-water mark of reorder-buffer residency, in trials",
            ),
            trial_ns: registry.histogram(
                "relcnn_engine_trial_duration_nanoseconds",
                "Per-trial execution time, nanoseconds",
                &[],
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registered_metrics_are_shared_across_bundles() {
        let reg = Registry::new();
        let a = EngineMetrics::registered(&reg);
        let b = EngineMetrics::registered(&reg);
        a.steals.add(3);
        assert_eq!(b.steals.get(), 3, "same registry → same series");
        assert!(reg.render().contains("relcnn_engine_steals_total 3"));
    }
}
