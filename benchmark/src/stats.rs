//! Exact order statistics, the quartile spread the driver computes, and the
//! verdict digest.

/// Samples a nearest-rank percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (`p` in 0..=100), exact: the value at
/// rank `ceil(p/100 · n)`. Refuses — `None` — when fewer than
/// [`MIN_BEYOND`] samples lie beyond that rank, because such a percentile is
/// a few outliers, not a property of the program.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median: mean of the two middle values for an even count. 0 when empty, so
/// an idle layer reads 0.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The value a quarter of the way up `values` (nearest rank).
///
/// A run is cut into consecutive slices and reports the *quietest quarter*
/// of its per-slice latency percentiles. The host's interference comes in
/// episodes of seconds, only ever adds time to the thread that is timed, and
/// at its worst covers more than half of a run; three quarters of a run it
/// has not been seen to cover. A change to the program moves every slice, so
/// it moves the quietest quarter as it moves the rest. (Rates measured on
/// worker threads take the median over slices instead: a worker can also
/// land on a quieter core than the thread that paces it.)
pub fn quiet_low(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len().div_ceil(4).max(1) - 1]
}

/// Exact percentile `p` of each of up to ten consecutive slices of at least
/// a hundred samples, and the quietest quarter of those. Refuses when a
/// slice is too short for its percentile.
pub fn sliced_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let slices = (samples.len() / 100).clamp(1, 10);
    let per_slice: Option<Vec<f64>> = samples
        .chunks_exact(samples.len() / slices)
        .map(|slice| percentile(slice, p))
        .collect();
    per_slice.map(|v| quiet_low(&v))
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them — the driver's spread is their distance
/// over the median.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median.
pub fn iqr_share(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    Some((q3 - q1) / median(samples))
}

/// FNV-1a over 64-bit words: one comparable number for a workload's
/// verdicts, printed so two commits can be compared by eye.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank_and_refuses_thin_tails() {
        // 100 samples: p90 is the 90th value with exactly ten beyond it.
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        assert_eq!(percentile(&ramp(100), 50.0), Some(50.0));
        // 99 samples leave nine beyond the 90th: refused.
        assert_eq!(percentile(&ramp(99), 90.0), None);
        assert_eq!(percentile(&ramp(100), 91.0), None);
        assert_eq!(percentile(&[], 50.0), None);
        // Order of arrival does not matter.
        let mut shuffled = ramp(100);
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 90.0), Some(90.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quiet_quarter_ignores_the_disturbed_three_quarters() {
        assert_eq!(quiet_low(&[9.0, 1.0, 8.0, 7.0]), 1.0);
        assert_eq!(quiet_low(&[5.0, 4.0, 3.0, 2.0, 1.0, 6.0, 7.0, 8.0]), 2.0);
        assert_eq!(quiet_low(&[3.0]), 3.0);
    }

    #[test]
    fn sliced_percentile_takes_the_quiet_slices() {
        // A thousand samples are ten slices of a hundred; six of them are
        // disturbed, and the quietest quarter does not see it.
        let mut samples: Vec<f64> = (0..1000).map(|i| (i % 100 + 1) as f64).collect();
        for v in &mut samples[200..800] {
            *v += 500.0;
        }
        assert_eq!(sliced_percentile(&samples, 90.0), Some(90.0));
        assert_eq!(sliced_percentile(&samples, 50.0), Some(50.0));
        // A hundred samples are one slice: the plain percentile.
        assert_eq!(sliced_percentile(&ramp(100), 90.0), Some(90.0));
        // Ninety-nine are one slice too short for a p90.
        assert_eq!(sliced_percentile(&ramp(99), 90.0), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        assert_eq!(iqr_share(&ramp(10)), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn digest_depends_on_order_and_content() {
        let digest = |words: &[u64]| {
            let mut d = Digest::new();
            words.iter().for_each(|w| d.push(*w));
            d.value()
        };
        assert_eq!(digest(&[1, 2, 3]), digest(&[1, 2, 3]));
        assert_ne!(digest(&[1, 2, 3]), digest(&[3, 2, 1]));
        assert_ne!(digest(&[1, 2, 3]), digest(&[1, 2, 4]));
    }
}
