//! The metric registry: names + labels → shared atomic handles.
//!
//! The registry mutex is held only while *registering* a series or
//! *snapshotting* values — never while a metric is updated. Writers hold
//! plain `Arc` handles ([`Counter`], [`Gauge`], [`Histogram`]) and touch
//! atomics directly, which is what makes publication safe on the
//! engine's deterministic hot path. A scrape copies every value under
//! the lock into a plain [`Snapshot`] and encodes it unlocked.
//!
//! Registration is idempotent: asking for a series that already exists
//! (same name, kind, and label set) returns a clone of the existing
//! handle, so two engines attached to the same registry share counters
//! instead of colliding.

use crate::encode;
use crate::metric::{Counter, Gauge, Histogram, LatencyHistogram};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Metric kind, as declared by `# TYPE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter.
    Counter,
    /// Free-moving gauge.
    Gauge,
    /// Log-linear histogram.
    Histogram,
}

impl MetricKind {
    /// The `# TYPE` keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Family {
    help: String,
    kind: MetricKind,
    /// Keyed by the sorted label vector for deterministic exposition
    /// order and O(log n) idempotent re-registration.
    series: BTreeMap<Vec<(String, String)>, Handle>,
}

#[derive(Debug, Default)]
struct Inner {
    families: BTreeMap<String, Family>,
}

/// A shared, cheaply clonable metric registry.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<Inner>>,
}

/// One metric value frozen at scrape time.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueSnapshot {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Full histogram snapshot.
    Histogram(LatencyHistogram),
}

/// One labelled series frozen at scrape time.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSnapshot {
    /// Sorted `(label, value)` pairs.
    pub labels: Vec<(String, String)>,
    /// The frozen value.
    pub value: ValueSnapshot,
}

/// One metric family frozen at scrape time.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySnapshot {
    /// Metric name.
    pub name: String,
    /// `# HELP` text.
    pub help: String,
    /// `# TYPE` kind.
    pub kind: MetricKind,
    /// Series in sorted label order.
    pub series: Vec<SeriesSnapshot>,
}

/// Everything a registry held at one instant, in sorted family order.
pub type Snapshot = Vec<FamilySnapshot>;

fn valid_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .next()
            .is_some_and(|b| b.is_ascii_alphabetic() || b == b'_' || b == b':')
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b':')
}

fn valid_label_name(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .next()
            .is_some_and(|b| b.is_ascii_alphabetic() || b == b'_')
        && s.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers (or re-finds) a counter series and returns its handle.
    ///
    /// # Panics
    /// On an invalid metric/label name, a kind clash with an existing
    /// family, or the reserved label name `le`.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, MetricKind::Counter, labels, || {
            Handle::Counter(Counter::new())
        }) {
            Handle::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Registers (or re-finds) a gauge series and returns its handle.
    ///
    /// # Panics
    /// See [`counter`](Registry::counter).
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, help, MetricKind::Gauge, labels, || {
            Handle::Gauge(Gauge::new())
        }) {
            Handle::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Registers (or re-finds) a histogram series and returns its handle.
    ///
    /// # Panics
    /// See [`counter`](Registry::counter).
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.register(name, help, MetricKind::Histogram, labels, || {
            Handle::Histogram(Histogram::new())
        }) {
            Handle::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        let mut key: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| {
                assert!(valid_label_name(k), "invalid label name {k:?} on {name}");
                assert!(
                    k != "le",
                    "label name \"le\" is reserved for histogram buckets"
                );
                (k.to_string(), v.to_string())
            })
            .collect();
        key.sort();
        assert!(
            key.windows(2).all(|w| w[0].0 != w[1].0),
            "duplicate label name on {name}"
        );

        let mut inner = self.inner.lock().expect("metric registry poisoned");
        let family = inner
            .families
            .entry(name.to_string())
            .or_insert_with(|| Family {
                help: help.to_string(),
                kind,
                series: BTreeMap::new(),
            });
        assert_eq!(
            family.kind,
            kind,
            "metric {name} already registered as {}",
            family.kind.as_str()
        );
        family.series.entry(key).or_insert_with(make).clone()
    }

    /// Freezes every registered value into a [`Snapshot`]. The lock is
    /// held only for the copy; histograms copy their bucket arrays, so
    /// later encoding never races writers.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().expect("metric registry poisoned");
        inner
            .families
            .iter()
            .map(|(name, family)| FamilySnapshot {
                name: name.clone(),
                help: family.help.clone(),
                kind: family.kind,
                series: family
                    .series
                    .iter()
                    .map(|(labels, handle)| SeriesSnapshot {
                        labels: labels.clone(),
                        value: match handle {
                            Handle::Counter(c) => ValueSnapshot::Counter(c.get()),
                            Handle::Gauge(g) => ValueSnapshot::Gauge(g.get()),
                            Handle::Histogram(h) => ValueSnapshot::Histogram(h.snapshot()),
                        },
                    })
                    .collect(),
            })
            .collect()
    }

    /// Snapshot + encode in one call: the full Prometheus text page.
    pub fn render(&self) -> String {
        encode::encode(&self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reregistration_returns_the_same_handle() {
        let reg = Registry::new();
        let a = reg.counter("relcnn_test_total", "help", &[("worker", "0")]);
        let b = reg.counter(
            "relcnn_test_total",
            "other help ignored",
            &[("worker", "0")],
        );
        assert!(a.same_as(&b));
        a.add(5);
        assert_eq!(b.get(), 5);
        // Different labels → a distinct series in the same family.
        let c = reg.counter("relcnn_test_total", "help", &[("worker", "1")]);
        assert!(!a.same_as(&c));
        assert_eq!(reg.snapshot().len(), 1);
    }

    #[test]
    fn label_order_does_not_split_series() {
        let reg = Registry::new();
        let a = reg.gauge("g", "h", &[("a", "1"), ("b", "2")]);
        let b = reg.gauge("g", "h", &[("b", "2"), ("a", "1")]);
        assert!(a.same_as(&b));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_clash_panics() {
        let reg = Registry::new();
        reg.counter("m", "h", &[]);
        reg.gauge("m", "h", &[]);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn le_label_is_reserved() {
        let reg = Registry::new();
        reg.histogram("h", "h", &[("le", "5")]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_names_are_rejected() {
        let reg = Registry::new();
        reg.counter("9starts_with_digit", "h", &[]);
    }
}
