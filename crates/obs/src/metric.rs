//! Atomic metric handles and the workspace's one latency histogram.
//!
//! A handle is a cheaply clonable `Arc` around one or more atomics; the
//! writer side (engine workers, the aggregator, the admission queue)
//! performs relaxed atomic adds and nothing else, so publication can sit
//! directly on hot paths without perturbing them. The reader side takes
//! a [`snapshot`](Histogram::snapshot) — a plain copy of the atomics —
//! and all derived quantities (cumulative buckets, quantiles) are
//! computed from that frozen copy, so a scrape can never observe a
//! structurally inconsistent histogram: `_count` is *defined* as the sum
//! of the buckets the snapshot read rather than read separately.
//!
//! The log-linear bucket layout (8 exact unit buckets below 8, then 8
//! sub-buckets per power of two, 496 buckets total) is defined here once.
//! [`LatencyHistogram`] is the plain, mergeable histogram over that
//! layout: the engine folds per-trial times into one per worker, the
//! serving layer records request latencies into it, and a live
//! [`Histogram`]'s snapshot *is* one — so a run's own percentiles and a
//! scrape's come from the same type and the same `quantile`.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Total bucket count: 8 unit buckets + 8 sub-buckets for each power of
/// two from 2^3 through 2^63.
pub const NUM_BUCKETS: usize = 8 + 61 * 8;

/// Bucket index of a sample: exact below 8, log-linear above (the top
/// three bits below the most significant bit select the sub-bucket).
fn bucket_index(v: u64) -> usize {
    if v < 8 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize;
    let sub = ((v >> (msb - 3)) & 0b111) as usize;
    8 + 8 * (msb - 3) + sub
}

/// Inclusive lower bound of a bucket.
fn bucket_lo(index: usize) -> u64 {
    if index < 8 {
        return index as u64;
    }
    let octave = 3 + (index - 8) / 8;
    let sub = ((index - 8) % 8) as u64;
    (8 + sub) << (octave - 3)
}

/// Width of a bucket in sample units.
fn bucket_width(index: usize) -> u64 {
    if index < 8 {
        1
    } else {
        1 << ((index - 8) / 8)
    }
}

/// Inclusive upper bound of a bucket — the Prometheus `le` value for
/// integer samples (`lo + width - 1`, saturating at `u64::MAX`).
fn bucket_le(index: usize) -> u64 {
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

    /// Copies the atomics into a plain [`LatencyHistogram`]. Trailing
    /// empty buckets are trimmed, so the copy equals a `LatencyHistogram`
    /// that recorded the same samples.
    pub fn snapshot(&self) -> LatencyHistogram {
        let mut counts: Vec<u64> = self.0.buckets.iter().map(|b| b.load(Relaxed)).collect();
        let used = counts.iter().rposition(|&n| n != 0).map_or(0, |i| i + 1);
        counts.truncate(used);
        LatencyHistogram {
            total: counts.iter().sum(),
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

/// A mergeable log-linear histogram of `u64` samples (unit-agnostic: the
/// engine records nanoseconds, the serving layer microseconds).
///
/// Worst-case quantile error is one part in eight (±12.5 %) at any
/// magnitude up to `u64::MAX`. Merging and quantile extraction are pure
/// integer arithmetic, so two histograms built from the same multiset of
/// samples are equal regardless of recording or merge order — which is
/// what lets per-worker histograms from a work-stealing schedule produce
/// schedule-independent percentiles.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LatencyHistogram {
    /// Bucket counts up to the highest occupied bucket (never a trailing
    /// zero).
    counts: Vec<u64>,
    total: u64,
    /// Sample sum, wrapping at `u64::MAX` like the live histogram's.
    sum: u64,
    max: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let idx = bucket_index(v);
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.total += 1;
        self.sum = self.sum.wrapping_add(v);
        self.max = self.max.max(v);
    }

    /// Merges `other` into `self` (integer adds: order-insensitive).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (acc, n) in self.counts.iter_mut().zip(&other.counts) {
            *acc += n;
        }
        self.total += other.total;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples — the sum of the bucket counts, so it
    /// always equals the `+Inf` cumulative bucket.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all recorded sample values (wraps at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded samples (exact unless the sum wrapped).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Cumulative `(le, count)` pairs for every *occupied* bucket, in
    /// increasing `le` order; the implicit final `+Inf` bucket is
    /// [`count`](LatencyHistogram::count). Emitting only occupied
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
    /// rank-`ceil(q·n)` sample. Bucket midpoints bound the error at
    /// ±1/16 of the sample's magnitude.
    ///
    /// Boundary behaviour is explicit: an **empty** histogram returns 0
    /// for every `q`; **`q <= 0.0`** is the minimum sample's bucket
    /// (rank 1); **`q >= 1.0`** is the *exact* recorded maximum, not a
    /// bucket midpoint. `q` values outside `[0, 1]` clamp to the nearest
    /// boundary (a NaN `q` behaves as `q = 0`).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = if q > 0.0 {
            ((q * self.total as f64).ceil() as u64).clamp(1, self.total)
        } else {
            1
        };
        let mut seen = 0u64;
        for (idx, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let lo = bucket_lo(idx);
                return (lo + bucket_width(idx) / 2).min(self.max);
            }
        }
        self.max
    }

    /// p50 / p95 / p99 in one call (the triple every report surfaces).
    pub fn percentiles(&self) -> (u64, u64, u64) {
        (
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
        )
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
    fn buckets_are_exact_below_eight_and_cover_u64() {
        for v in 0..8u64 {
            let idx = bucket_index(v);
            assert_eq!(bucket_lo(idx), v);
            assert_eq!(bucket_width(idx), 1);
        }
        // Every sample lands in a bucket whose [lo, le] contains it.
        for v in [8u64, 9, 12, 15, 16, 17, 999, 1000, 123_456_789, u64::MAX] {
            let idx = bucket_index(v);
            assert!(idx < NUM_BUCKETS, "index {idx} for {v}");
            assert!(bucket_lo(idx) <= v, "lo {} > v {v}", bucket_lo(idx));
            assert!(v <= bucket_le(idx), "{v} > le of its own bucket");
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_le(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn snapshot_equals_recording_the_same_samples() {
        // Log-uniform spread: unit buckets through the top octave, sums
        // that wrap included.
        let mut x = 0x0B5_CA7u64;
        let live = Histogram::new();
        let mut plain = LatencyHistogram::new();
        for i in 0..5_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = x >> (i % 64);
            live.record(v);
            plain.record(v);
        }
        assert_eq!(live.snapshot(), plain);
        assert_eq!(Histogram::new().snapshot(), LatencyHistogram::new());
    }

    #[test]
    fn quantiles_of_a_uniform_ramp() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000);
        let (p50, p95, p99) = h.percentiles();
        // Log-linear buckets: ±1/8 relative error.
        assert!((437..=563).contains(&p50), "p50 {p50}");
        assert!((831..=1000).contains(&p95), "p95 {p95}");
        assert!((866..=1000).contains(&p99), "p99 {p99}");
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let samples: Vec<u64> = (0..500).map(|i| (i * i * 7 + 13) % 100_000).collect();
        let mut whole = LatencyHistogram::new();
        for &s in &samples {
            whole.record(s);
        }
        // Any split point, merged in either order, gives the same
        // histogram — the schedule-independence the engine relies on.
        for split in [0, 1, 250, 499, 500] {
            let (a, b) = samples.split_at(split);
            let mut left = LatencyHistogram::new();
            let mut right = LatencyHistogram::new();
            for &s in a {
                left.record(s);
            }
            for &s in b {
                right.record(s);
            }
            let mut fwd = left.clone();
            fwd.merge(&right);
            let mut rev = right.clone();
            rev.merge(&left);
            assert_eq!(fwd, whole, "split {split}");
            assert_eq!(rev, whole, "split {split} reversed");
        }
    }

    #[test]
    fn empty_histogram_degenerates_gracefully() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.cumulative().is_empty());
        let mut a = LatencyHistogram::new();
        a.merge(&h);
        assert_eq!(a, h);
    }

    #[test]
    fn quantile_boundaries_are_pinned() {
        // Empty histogram: every q — boundaries and out-of-range
        // included — degenerates to 0.
        let empty = LatencyHistogram::new();
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0, f64::NAN] {
            assert_eq!(empty.quantile(q), 0, "empty at q={q}");
        }

        let mut h = LatencyHistogram::new();
        for v in [10u64, 20, 30, 40, 1_000] {
            h.record(v);
        }
        // q <= 0.0 is the minimum's bucket (10 sits in a unit-width
        // log-linear bucket, so the midpoint is exact).
        assert_eq!(h.quantile(0.0), 10);
        assert_eq!(h.quantile(-3.0), 10);
        // q >= 1.0 is the *exact* max — not the 992 midpoint of 1000's
        // [960, 1024) bucket.
        assert_eq!(h.quantile(1.0), 1_000);
        assert_eq!(h.quantile(7.5), 1_000);
        // Interior quantiles stay monotone against both boundaries.
        let mid = h.quantile(0.5);
        assert!(h.quantile(0.0) <= mid && mid <= h.quantile(1.0));
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut h = LatencyHistogram::new();
        h.record(42);
        assert_eq!(h.quantile(0.0), h.quantile(1.0));
        // Midpoint is clamped to the recorded max.
        assert!(h.quantile(0.5) <= 42 + 2);
    }
}
