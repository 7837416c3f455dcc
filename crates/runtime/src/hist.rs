//! Log-linear latency histogram.
//!
//! [`LatencyHistogram`] is the workspace's shared percentile machinery:
//! the engine folds per-trial execution times into one per worker and
//! merges them into [`RunStats`](crate::RunStats), and the serving layer
//! (`relcnn-serve`) records virtual request latencies through the same
//! type. It is an HDR-style *log-linear* histogram: 8 exact unit buckets
//! below 8, then 8 sub-buckets per power of two, giving a worst-case
//! quantile error of one part in eight (±12.5%) at any magnitude up to
//! `u64::MAX`, with a fixed 496-bucket footprint.
//!
//! The histogram is unit-agnostic (the engine records nanoseconds, the
//! serving layer microseconds) and purely integer-based, so merging and
//! quantile extraction are deterministic: two histograms built from the
//! same multiset of samples are equal regardless of recording or merge
//! order — which is what lets per-worker histograms from a work-stealing
//! schedule produce schedule-independent percentiles.

// The bucket layout is `relcnn-obs`'s own, so dense counts transplant
// into a Prometheus histogram bucket for bucket (`Histogram::merge_dense`).
pub use relcnn_obs::metric::NUM_BUCKETS;
use relcnn_obs::metric::{bucket_index, bucket_lo, bucket_width};

/// A mergeable log-linear histogram of `u64` samples (unit-agnostic).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LatencyHistogram {
    /// Bucket counts, grown lazily up to [`NUM_BUCKETS`].
    counts: Vec<u64>,
    total: u64,
    sum: u128,
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
        self.sum += u128::from(v);
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
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest recorded sample (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded samples (exact, from the running sum).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
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

    /// Dense per-bucket counts in the shared log-linear layout (lazily
    /// grown, so the slice may be shorter than [`NUM_BUCKETS`]). This is
    /// the native-export bridge: `relcnn-obs` folds it straight into a
    /// Prometheus histogram with `Histogram::merge_dense`.
    pub fn dense_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Sum of all recorded samples, saturated to `u64` for exposition.
    pub fn sum_saturating(&self) -> u64 {
        self.sum.min(u128::from(u64::MAX)) as u64
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
    fn buckets_are_exact_below_eight_and_cover_u64() {
        for v in 0..8u64 {
            let idx = bucket_index(v);
            assert_eq!(bucket_lo(idx), v);
            assert_eq!(bucket_width(idx), 1);
        }
        // Every sample lands in a bucket whose [lo, lo+width) contains it.
        for v in [8u64, 9, 15, 16, 17, 1000, 123_456_789, u64::MAX] {
            let idx = bucket_index(v);
            assert!(idx < NUM_BUCKETS, "index {idx} for {v}");
            let lo = bucket_lo(idx);
            let width = bucket_width(idx);
            assert!(lo <= v, "lo {lo} > v {v}");
            assert!(v - lo < width, "v {v} outside [{lo}, {lo}+{width})");
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
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
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
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
    fn dense_counts_round_trip_count_and_sum() {
        let mut h = LatencyHistogram::new();
        let samples = [1u64, 9, 9, 4_000, 250_000];
        for &v in &samples {
            h.record(v);
        }
        assert!(h.dense_counts().len() <= NUM_BUCKETS);
        assert_eq!(h.dense_counts().iter().sum::<u64>(), h.count());
        assert_eq!(h.sum_saturating(), samples.iter().sum::<u64>());
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
