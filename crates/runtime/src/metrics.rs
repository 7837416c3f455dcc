//! Live engine metrics: shared registry handles + in-flight snapshots.
//!
//! Every [`Engine`](crate::Engine) owns an [`EngineMetrics`] — a bundle
//! of `relcnn-obs` handles the workers and the aggregator update *as
//! they run*. By default the bundle is unregistered (private atomics,
//! still fully functional for [`Engine::stats_snapshot`](crate::Engine::stats_snapshot)); attaching an
//! engine to a [`Registry`] with [`Engine::observed`](crate::Engine)
//! swaps in registered handles so a scrape or interval dump sees the
//! same values. Two engines attached to the same registry share series
//! (registration is idempotent), which is exactly what the serving
//! layer wants: one `relcnn_engine_*` family covering every dispatch.
//!
//! Publication is strictly read-only off the deterministic path: every
//! update is a relaxed atomic add/store on the side of existing control
//! flow, never an input to it. The CI determinism matrix byte-diffs
//! campaign artefacts with metrics enabled against disabled to hold
//! that line.

use crate::hist::LatencyHistogram;
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

    /// Folds an already-aggregated latency histogram into the live
    /// per-trial histogram (native log-linear export — no re-record).
    pub fn merge_trial_hist(&self, hist: &LatencyHistogram) {
        self.trial_ns
            .merge_dense(hist.dense_counts(), hist.sum_saturating(), hist.max());
    }

    /// Reads every handle into a plain [`EngineSnapshot`].
    pub fn snapshot(&self) -> EngineSnapshot {
        let hist = self.trial_ns.snapshot();
        EngineSnapshot {
            runs_started: self.runs_started.get(),
            runs_completed: self.runs_completed.get(),
            runs_aborted: self.runs_aborted.get(),
            workers_live: self.workers_live.get(),
            trials_executed: self.trials_executed.get(),
            trials_released: self.trials_released.get(),
            chunks_executed: self.chunks_executed.get(),
            shards_completed: self.shards_completed.get(),
            steals: self.steals.get(),
            chunks_stolen: self.chunks_stolen.get(),
            send_block_us: self.send_block_us.get(),
            reorder_resident_trials: self.reorder_resident.get(),
            reorder_peak_trials: self.reorder_peak.get(),
            trials_recorded: hist.count(),
            trial_p50_ns: hist.quantile(0.50),
            trial_p95_ns: hist.quantile(0.95),
            trial_p99_ns: hist.quantile(0.99),
        }
    }
}

/// A point-in-time copy of the engine's live counters — what
/// [`Engine::stats_snapshot`](crate::Engine::stats_snapshot) returns, so
/// binaries can introspect a run *in flight* without waiting for its
/// [`RunOutcome`](crate::RunOutcome).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineSnapshot {
    /// Runs begun.
    pub runs_started: u64,
    /// Runs finished.
    pub runs_completed: u64,
    /// Runs stopped early by a sink checkpoint.
    pub runs_aborted: u64,
    /// Worker threads currently inside a run.
    pub workers_live: i64,
    /// Trials executed by workers so far.
    pub trials_executed: u64,
    /// Trials released to the sink so far.
    pub trials_released: u64,
    /// Chunks executed so far.
    pub chunks_executed: u64,
    /// Shards fully released so far.
    pub shards_completed: u64,
    /// Successful steal operations.
    pub steals: u64,
    /// Chunks moved between deques by steals.
    pub chunks_stolen: u64,
    /// Time blocked on the result channel, µs.
    pub send_block_us: u64,
    /// Current reorder-buffer residency, in trials.
    pub reorder_resident_trials: i64,
    /// Residency high-water mark, in trials.
    pub reorder_peak_trials: i64,
    /// Samples in the per-trial latency histogram.
    pub trials_recorded: u64,
    /// p50 per-trial execution time, ns.
    pub trial_p50_ns: u64,
    /// p95 per-trial execution time, ns.
    pub trial_p95_ns: u64,
    /// p99 per-trial execution time, ns.
    pub trial_p99_ns: u64,
}

impl EngineSnapshot {
    /// Whether any run is currently in flight.
    pub fn in_flight(&self) -> bool {
        self.runs_started > self.runs_completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unregistered_metrics_still_snapshot() {
        let m = EngineMetrics::default();
        m.runs_started.inc();
        m.trials_executed.add(10);
        m.trial_ns.record(1_500);
        let snap = m.snapshot();
        assert!(snap.in_flight());
        assert_eq!(snap.trials_executed, 10);
        assert_eq!(snap.trials_recorded, 1);
        m.runs_completed.inc();
        assert!(!m.snapshot().in_flight());
    }

    #[test]
    fn registered_metrics_are_shared_across_bundles() {
        let reg = Registry::new();
        let a = EngineMetrics::registered(&reg);
        let b = EngineMetrics::registered(&reg);
        a.steals.add(3);
        assert_eq!(b.steals.get(), 3, "same registry → same series");
        assert!(reg.render().contains("relcnn_engine_steals_total 3"));
    }

    #[test]
    fn merge_trial_hist_bridges_the_dense_layout() {
        let mut lh = LatencyHistogram::new();
        for v in [100u64, 2_000, 2_000, 1_000_000] {
            lh.record(v);
        }
        let m = EngineMetrics::default();
        m.merge_trial_hist(&lh);
        let snap = m.trial_ns.snapshot();
        assert_eq!(snap.count(), lh.count());
        assert_eq!(snap.sum(), lh.sum_saturating());
        assert_eq!(snap.max(), lh.max());
        assert_eq!(snap.quantile(0.5), lh.quantile(0.5));
        assert_eq!(snap.quantile(1.0), lh.quantile(1.0));
    }
}
