//! Live serving metrics: per-class queue depth, shed/expired/dispatched
//! counters and latency histograms, plus the AIMD controller's live cap,
//! published while the serving loop runs.
//!
//! [`ServeMetrics`] mirrors the engine-side `EngineMetrics` pattern: a
//! bundle of `relcnn-obs` handles that is unregistered (private atomics)
//! by default and registry-backed after
//! [`ServeMetrics::registered`]. Clones share the handles, so the
//! admission queue holds a clone of the run's bundle rather than copies
//! of its fields. Per-request families carry a
//! **`class` label** — one series per [`RequestClass`] — so a scrape
//! shows shedding and latency per priority lane; cross-class totals come
//! from summing the family (`relcnn_obs::parse::Parsed::sum`). The
//! admission queue updates its lane's counters under its own mutex (an
//! extra relaxed add — never a read the replay's control flow could
//! see), and the serving loop publishes dispatch aggregates and
//! controller decisions at each batch boundary, so a scrape during a
//! long run watches queue depth, shedding, the admission cap and batch
//! fill move live. Attaching metrics never changes a replay's
//! deterministic [`ServeReport`](crate::ServeReport) (pinned by a test).

use crate::request::RequestClass;
use relcnn_obs::{Counter, Gauge, Histogram, Registry};

/// One priority lane's metric handles (one `class`-labeled series of
/// each per-request family).
#[derive(Debug, Clone, Default)]
pub struct ClassMetrics {
    /// Requests currently queued in this lane
    /// (`relcnn_serve_queue_depth`).
    pub queue_depth: Gauge,
    /// Requests offered to admission
    /// (`relcnn_serve_requests_offered_total`).
    pub offered: Counter,
    /// Requests shed at admission (`relcnn_serve_requests_shed_total`).
    pub shed: Counter,
    /// Requests expired past deadline
    /// (`relcnn_serve_requests_expired_total`).
    pub expired: Counter,
    /// Requests handed to batches
    /// (`relcnn_serve_requests_dispatched_total`).
    pub dispatched: Counter,
    /// Requests served to completion
    /// (`relcnn_serve_requests_completed_total`).
    pub completed: Counter,
    /// Completions past their deadline
    /// (`relcnn_serve_requests_late_total`).
    pub late: Counter,
    /// End-to-end latency of completed requests, µs on the run's clock
    /// (`relcnn_serve_latency_microseconds`).
    pub latency_us: Histogram,
}

/// Serving-side metric handles. Per-request families live in
/// [`ClassMetrics`], one per priority lane; the rest are run-global.
/// The default bundle is unregistered.
#[derive(Debug, Clone, Default)]
pub struct ServeMetrics {
    /// Configured queue capacity (`relcnn_serve_queue_capacity`).
    pub queue_capacity: Gauge,
    /// Live AIMD admission cap (`relcnn_serve_admission_cap`).
    pub admit_cap: Gauge,
    /// Batches dispatched (`relcnn_serve_batches_total`).
    pub batches: Counter,
    /// Requests per dispatched batch
    /// (`relcnn_serve_batch_fill_requests`).
    pub batch_fill: Histogram,
    /// Batch windows the controller closed early
    /// (`relcnn_serve_window_early_close_total`).
    pub early_closes: Counter,
    /// Dispatch boundaries that multiplicatively clamped the cap
    /// (`relcnn_serve_aimd_clamp_total`).
    pub aimd_clamps: Counter,
    /// Per-lane handles, indexed by [`RequestClass::lane`].
    pub classes: [ClassMetrics; RequestClass::COUNT],
}

impl ServeMetrics {
    /// One lane's handles.
    pub fn class(&self, class: RequestClass) -> &ClassMetrics {
        &self.classes[class.lane()]
    }

    /// A bundle registered on `registry` under the `relcnn_serve_*`
    /// names, per-request families labeled by `class`. Idempotent:
    /// repeated attachment shares series.
    pub fn registered(registry: &Registry) -> Self {
        let class = |class: RequestClass| {
            let l = [("class", class.label())];
            ClassMetrics {
                queue_depth: registry.gauge(
                    "relcnn_serve_queue_depth",
                    "Requests currently in the admission queue",
                    &l,
                ),
                offered: registry.counter(
                    "relcnn_serve_requests_offered_total",
                    "Requests presented to admission",
                    &l,
                ),
                shed: registry.counter(
                    "relcnn_serve_requests_shed_total",
                    "Requests rejected at admission (capacity or AIMD cap)",
                    &l,
                ),
                expired: registry.counter(
                    "relcnn_serve_requests_expired_total",
                    "Requests dropped past their deadline before dispatch",
                    &l,
                ),
                dispatched: registry.counter(
                    "relcnn_serve_requests_dispatched_total",
                    "Requests handed to a batch",
                    &l,
                ),
                completed: registry.counter(
                    "relcnn_serve_requests_completed_total",
                    "Requests served to completion (late ones included)",
                    &l,
                ),
                late: registry.counter(
                    "relcnn_serve_requests_late_total",
                    "Completed requests whose batch finished past their deadline",
                    &l,
                ),
                latency_us: registry.histogram(
                    "relcnn_serve_latency_microseconds",
                    "End-to-end latency of completed requests, microseconds on the run's clock",
                    &l,
                ),
            }
        };
        ServeMetrics {
            queue_capacity: registry.gauge(
                "relcnn_serve_queue_capacity",
                "Configured admission-queue capacity",
                &[],
            ),
            admit_cap: registry.gauge(
                "relcnn_serve_admission_cap",
                "Live AIMD admission cap (non-critical classes shed above it)",
                &[],
            ),
            batches: registry.counter("relcnn_serve_batches_total", "Batches dispatched", &[]),
            batch_fill: registry.histogram(
                "relcnn_serve_batch_fill_requests",
                "Requests per dispatched batch",
                &[],
            ),
            early_closes: registry.counter(
                "relcnn_serve_window_early_close_total",
                "Batch windows the overload controller closed early",
                &[],
            ),
            aimd_clamps: registry.counter(
                "relcnn_serve_aimd_clamp_total",
                "Dispatch boundaries that multiplicatively clamped the admission cap",
                &[],
            ),
            classes: [
                class(RequestClass::Critical),
                class(RequestClass::Interactive),
                class(RequestClass::Bulk),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registered_bundles_share_series_and_render_class_labels() {
        let reg = Registry::new();
        let a = ServeMetrics::registered(&reg);
        let b = ServeMetrics::registered(&reg);
        a.class(RequestClass::Interactive).offered.add(5);
        a.class(RequestClass::Critical).queue_depth.set(3);
        a.admit_cap.set(12);
        assert_eq!(b.class(RequestClass::Interactive).offered.get(), 5);
        let page = reg.render();
        assert!(
            page.contains("relcnn_serve_requests_offered_total{class=\"interactive\"} 5"),
            "{page}"
        );
        assert!(
            page.contains("relcnn_serve_queue_depth{class=\"critical\"} 3"),
            "{page}"
        );
        assert!(page.contains("relcnn_serve_admission_cap 12"), "{page}");
        relcnn_obs::parse::validate(&page).expect("valid exposition");
        // Family sums aggregate across class series.
        a.class(RequestClass::Bulk).offered.add(7);
        let parsed = relcnn_obs::parse::validate(&reg.render()).expect("parse");
        assert_eq!(parsed.sum("relcnn_serve_requests_offered_total"), 12.0);
        // Registration creates all three class series up front (zeros
        // included) — a scrape always shows the full label space.
        assert_eq!(
            parsed.label_values("relcnn_serve_requests_offered_total", "class"),
            vec!["bulk", "critical", "interactive"]
        );
    }

    #[test]
    fn every_class_gets_its_own_series() {
        let reg = Registry::new();
        let m = ServeMetrics::registered(&reg);
        for class in RequestClass::ALL {
            m.class(class).shed.inc();
        }
        let page = reg.render();
        for class in RequestClass::ALL {
            assert!(
                page.contains(&format!(
                    "relcnn_serve_requests_shed_total{{class=\"{}\"}} 1",
                    class.label()
                )),
                "{page}"
            );
        }
    }
}
