//! Live cluster metrics: the `relcnn_cluster_*` families.
//!
//! Mirrors the engine's bundle idiom: unregistered by default (private
//! atomics), [`ClusterMetrics::registered`] swaps in registry-backed
//! handles so a scrape sees the head's loss/requeue/degraded counters
//! while a campaign is still running. Strictly write-only from the
//! deterministic path's perspective — the merged aggregate never depends
//! on a metric read.

use relcnn_obs::{Counter, Gauge, Registry};

/// The head's shared metric handles. Field names mirror the exported
/// metric names minus the `relcnn_cluster_` prefix; the default bundle
/// is unregistered.
#[derive(Debug, Default)]
pub struct ClusterMetrics {
    /// Worker processes spawned (`relcnn_cluster_workers_spawned_total`).
    pub workers_spawned: Counter,
    /// Workers declared lost (`relcnn_cluster_workers_lost_total`).
    pub workers_lost: Counter,
    /// Worker processes currently live (`relcnn_cluster_workers_live`).
    pub workers_live: Gauge,
    /// Tasks completed (`relcnn_cluster_tasks_completed_total`).
    pub tasks_completed: Counter,
    /// Tasks requeued after a worker loss
    /// (`relcnn_cluster_tasks_requeued_total`).
    pub tasks_requeued: Counter,
    /// Assignment retries after backoff
    /// (`relcnn_cluster_task_retries_total`).
    pub task_retries: Counter,
    /// Frames written to workers (`relcnn_cluster_frames_sent_total`).
    pub frames_sent: Counter,
    /// Frames read from workers (`relcnn_cluster_frames_received_total`).
    pub frames_received: Counter,
    /// Frames rejected by the codec checksum or parser
    /// (`relcnn_cluster_corrupt_frames_total`).
    pub corrupt_frames: Counter,
    /// Per-task deadline expiries (`relcnn_cluster_task_timeouts_total`).
    pub task_timeouts: Counter,
    /// Heartbeat liveness expiries
    /// (`relcnn_cluster_heartbeat_timeouts_total`).
    pub heartbeat_timeouts: Counter,
    /// Tasks the head computed in-process after retries were exhausted
    /// or no survivors remained
    /// (`relcnn_cluster_local_fallbacks_total`).
    pub local_fallbacks: Counter,
    /// 1 while the current run has lost at least one worker
    /// (`relcnn_cluster_degraded`).
    pub degraded: Gauge,
}

impl ClusterMetrics {
    /// A bundle registered on `registry` under the `relcnn_cluster_*`
    /// names. Idempotent: two heads on one registry share series.
    pub fn registered(registry: &Registry) -> Self {
        let c = |name, help| registry.counter(name, help, &[]);
        let g = |name, help| registry.gauge(name, help, &[]);
        ClusterMetrics {
            workers_spawned: c(
                "relcnn_cluster_workers_spawned_total",
                "Worker processes spawned",
            ),
            workers_lost: c(
                "relcnn_cluster_workers_lost_total",
                "Workers declared lost (crash, hang or corrupt frame)",
            ),
            workers_live: g(
                "relcnn_cluster_workers_live",
                "Worker processes currently live",
            ),
            tasks_completed: c("relcnn_cluster_tasks_completed_total", "Tasks completed"),
            tasks_requeued: c(
                "relcnn_cluster_tasks_requeued_total",
                "Tasks requeued after a worker loss",
            ),
            task_retries: c(
                "relcnn_cluster_task_retries_total",
                "Task assignments retried after backoff",
            ),
            frames_sent: c(
                "relcnn_cluster_frames_sent_total",
                "Frames written to workers",
            ),
            frames_received: c(
                "relcnn_cluster_frames_received_total",
                "Frames read from workers",
            ),
            corrupt_frames: c(
                "relcnn_cluster_corrupt_frames_total",
                "Frames rejected by the codec checksum or parser",
            ),
            task_timeouts: c(
                "relcnn_cluster_task_timeouts_total",
                "Per-task deadline expiries (hung workers)",
            ),
            heartbeat_timeouts: c(
                "relcnn_cluster_heartbeat_timeouts_total",
                "Heartbeat liveness expiries",
            ),
            local_fallbacks: c(
                "relcnn_cluster_local_fallbacks_total",
                "Tasks computed in-process by the head",
            ),
            degraded: g(
                "relcnn_cluster_degraded",
                "1 while the current run has lost at least one worker",
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registered_bundles_share_series_and_render() {
        let reg = Registry::new();
        let a = ClusterMetrics::registered(&reg);
        let b = ClusterMetrics::registered(&reg);
        a.workers_lost.inc();
        a.degraded.set(1);
        assert_eq!(b.workers_lost.get(), 1);
        let text = reg.render();
        assert!(text.contains("relcnn_cluster_workers_lost_total 1"));
        assert!(text.contains("relcnn_cluster_degraded 1"));
    }
}
