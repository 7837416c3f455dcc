//! Atomic metric handles.
//!
//! A handle is a cheaply clonable `Arc` around one or more atomics; the
//! writer side (engine workers, the aggregator, the admission queue)
//! performs relaxed atomic adds and nothing else, so publication can sit
//! directly on hot paths without perturbing them. The reader side takes
//! a [`snapshot`](Histogram::snapshot) — a plain copy of the atomics —
//! and all derived quantities (cumulative buckets, quantiles) are
//! computed from that frozen copy, so a scrape can never observe a
//! structurally inconsistent histogram: `_count` is *defined* as the top
//! cumulative bucket of the snapshot rather than read separately.
//!
//! The histogram's log-linear bucket layout (8 exact unit buckets below
//! 8, then 8 sub-buckets per power of two, 496 buckets total) is defined
//! here and imported by `relcnn_runtime::LatencyHistogram`, so dense
//! bucket counts can be transplanted between the two with
//! [`Histogram::merge_dense`] — the native-export bridge the Prometheus
//! encoder rides. A cross-crate test in `relcnn-runtime` pins the bridge
//! and quantile agreement.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Total bucket count: 8 unit buckets + 8 sub-buckets for each power of
/// two from 2^3 through 2^63.
pub const NUM_BUCKETS: usize = 8 + 61 * 8;

/// Bucket index of a sample: exact below 8, log-linear above (the top
/// three bits below the most significant bit select the sub-bucket).
pub fn bucket_index(v: u64) -> usize {
    if v < 8 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize;
    let sub = ((v >> (msb - 3)) & 0b111) as usize;
    8 + 8 * (msb - 3) + sub
}

/// Inclusive lower bound of a bucket.
pub fn bucket_lo(index: usize) -> u64 {
    if index < 8 {
        return index as u64;
    }
    let octave = 3 + (index - 8) / 8;
    let sub = ((index - 8) % 8) as u64;
    (8 + sub) << (octave - 3)
}

/// Width of a bucket in sample units.
pub fn bucket_width(index: usize) -> u64 {
    if index < 8 {
        1
    } else {
        1 << ((index - 8) / 8)
    }
}

/// Inclusive upper bound of a bucket — the Prometheus `le` value for
/// integer samples (`lo + width - 1`, saturating at `u64::MAX`).
pub fn bucket_le(index: usize) -> u64 {
    bucket_lo(index).saturating_add(bucket_width(index) - 1)
}

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh, unregistered counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }

    /// Whether two handles share the same underlying atomic.
    pub fn same_as(&self, other: &Counter) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// A gauge: a signed value that can move both ways.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A fresh, unregistered gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Relaxed);
    }

    /// Raises the value to `v` if it is currently lower.
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Relaxed);
    }

    /// Adds `n` (may be negative via [`sub`](Gauge::sub)).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Relaxed)
    }

    /// Whether two handles share the same underlying atomic.
    pub fn same_as(&self, other: &Gauge) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

#[derive(Debug)]
struct HistInner {
    buckets: Vec<AtomicU64>, // NUM_BUCKETS long
    sum: AtomicU64,
    max: AtomicU64,
}

/// A fixed-layout log-linear histogram of `u64` samples, recordable from
/// any number of threads concurrently.
///
/// The sample count is not stored separately: a snapshot derives it as
/// the sum of the bucket counts it read, so the Prometheus invariant
/// `_count == le="+Inf" bucket` holds *by construction* even when a
/// scrape races writers.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistInner {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// A fresh, unregistered histogram with no samples.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.0.buckets[bucket_index(v)].fetch_add(1, Relaxed);
        self.0.sum.fetch_add(v, Relaxed);
        self.0.max.fetch_max(v, Relaxed);
    }

    /// Folds a dense per-bucket count vector (the
    /// `LatencyHistogram::dense_counts` layout) plus its sample sum and
    /// max into this histogram — the native-export bridge for
    /// already-aggregated histograms.
    ///
    /// # Panics
    /// If `counts` is longer than the fixed bucket layout.
    pub fn merge_dense(&self, counts: &[u64], sum: u64, max: u64) {
        assert!(
            counts.len() <= NUM_BUCKETS,
            "dense histogram has {} buckets, layout holds {NUM_BUCKETS}",
            counts.len()
        );
        for (idx, &n) in counts.iter().enumerate() {
            if n != 0 {
                self.0.buckets[idx].fetch_add(n, Relaxed);
            }
        }
        self.0.sum.fetch_add(sum, Relaxed);
        self.0.max.fetch_max(max, Relaxed);
    }

    /// Copies the atomics into a plain [`HistogramSnapshot`].
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self.0.buckets.iter().map(|b| b.load(Relaxed)).collect();
        HistogramSnapshot {
            counts,
            sum: self.0.sum.load(Relaxed),
            max: self.0.max.load(Relaxed),
        }
    }

    /// Whether two handles share the same underlying buckets.
    pub fn same_as(&self, other: &Histogram) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// A frozen copy of one histogram, taken at scrape time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    sum: u64,
    max: u64,
}

impl HistogramSnapshot {
    /// Total samples — by definition the sum of the bucket counts, so it
    /// always equals the `+Inf` cumulative bucket.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of all recorded sample values (wraps at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Cumulative `(le, count)` pairs for every *occupied* bucket, in
    /// increasing `le` order; the implicit final `+Inf` bucket is
    /// [`count`](HistogramSnapshot::count). Emitting only occupied
    /// buckets keeps the exposition compact (496 fixed buckets would
    /// dominate every scrape) while staying valid Prometheus: any `le`
    /// subset is permitted as long as the series is cumulative and
    /// `+Inf` is present.
    pub fn cumulative(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (idx, &n) in self.counts.iter().enumerate() {
            if n != 0 {
                cum += n;
                out.push((bucket_le(idx), cum));
            }
        }
        out
    }

    /// The `q`-quantile as the midpoint of the bucket holding the
    /// rank-`ceil(q·n)` sample; same convention as
    /// `LatencyHistogram::quantile`, including the edge cases (empty → 0
    /// for every `q`, `q <= 0` → first occupied bucket, `q >= 1` → the
    /// exact max).
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = if q <= 0.0 {
            1
        } else {
            ((q * total as f64).ceil() as u64).clamp(1, total)
        };
        let mut seen = 0u64;
        for (idx, &n) in self.counts.iter().enumerate() {
            seen += n;
            if n != 0 && seen >= rank {
                let lo = bucket_lo(idx);
                return (lo + bucket_width(idx) / 2).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let c2 = c.clone();
        c2.inc();
        assert_eq!(c.get(), 43, "clones share the atomic");

        let g = Gauge::new();
        g.add(10);
        g.sub(3);
        assert_eq!(g.get(), 7);
        g.set(-5);
        assert_eq!(g.get(), -5);
        g.set_max(2);
        g.set_max(-100);
        assert_eq!(g.get(), 2);
    }

    #[test]
    fn histogram_cumulative_is_monotone_and_count_matches() {
        let h = Histogram::new();
        for v in [0u64, 1, 7, 8, 9, 100, 100, 5_000, u64::MAX] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 9);
        assert_eq!(snap.max(), u64::MAX);
        let cum = snap.cumulative();
        assert!(!cum.is_empty());
        let mut prev_le = None;
        let mut prev_cum = 0;
        for &(le, c) in &cum {
            if let Some(p) = prev_le {
                assert!(le > p, "le must strictly increase");
            }
            assert!(c >= prev_cum, "cumulative counts must be non-decreasing");
            prev_le = Some(le);
            prev_cum = c;
        }
        assert_eq!(cum.last().unwrap().1, snap.count());
    }

    #[test]
    fn bucket_le_contains_every_sample_of_its_bucket() {
        for v in [0u64, 5, 8, 12, 999, 123_456_789] {
            let idx = bucket_index(v);
            assert!(v <= bucket_le(idx), "{v} > le of its own bucket");
            assert!(v >= bucket_lo(idx));
        }
        assert_eq!(bucket_le(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn merge_dense_equals_recording() {
        let samples = [3u64, 17, 17, 4_096, 70_000];
        let direct = Histogram::new();
        let mut dense = vec![0u64; NUM_BUCKETS];
        let mut sum = 0u64;
        let mut max = 0u64;
        for &s in &samples {
            direct.record(s);
            dense[bucket_index(s)] += 1;
            sum += s;
            max = max.max(s);
        }
        let bridged = Histogram::new();
        bridged.merge_dense(&dense, sum, max);
        assert_eq!(direct.snapshot(), bridged.snapshot());
    }

    #[test]
    fn snapshot_quantile_edges() {
        let empty = Histogram::new().snapshot();
        assert_eq!(empty.quantile(0.0), 0);
        assert_eq!(empty.quantile(0.5), 0);
        assert_eq!(empty.quantile(1.0), 0);

        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.quantile(1.0), 100, "q=1.0 is the exact max");
        assert!(snap.quantile(0.0) <= snap.quantile(0.5));
        assert!(snap.quantile(0.5) <= snap.quantile(1.0));
    }
}
