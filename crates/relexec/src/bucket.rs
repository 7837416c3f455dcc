use serde::{Deserialize, Serialize};

/// Parameters of the leaky-bucket error counter (Algorithm 3, lines 2/12/18–19).
///
/// On every failed operation the counter rises by `factor` and is checked
/// against `ceiling`; on every correct operation it drains by one, floored
/// at zero. With the defaults (`factor = 2`, `ceiling = 3`) the bucket
/// realises the paper's stated behaviour: "a stream of correctly executed
/// operations will cancel one, but not two successive errors".
///
/// * one error: level 2 < 3 — tolerated, drains away;
/// * two errors with at most one success between them: 2 − 1 + 2 = 3 ≥ 3 —
///   reported as persistent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BucketConfig {
    /// Amount added to the counter per failed operation.
    pub factor: u32,
    /// Level at which the failure is declared persistent.
    pub ceiling: u32,
}

impl BucketConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `factor == 0` or `ceiling == 0` — a zero factor would
    /// never report and a zero ceiling would report before any error.
    pub fn new(factor: u32, ceiling: u32) -> Self {
        assert!(factor > 0, "leaky-bucket factor must be positive");
        assert!(ceiling > 0, "leaky-bucket ceiling must be positive");
        BucketConfig { factor, ceiling }
    }
}

impl Default for BucketConfig {
    fn default() -> Self {
        BucketConfig {
            factor: 2,
            ceiling: 3,
        }
    }
}

/// The bucket's verdict after recording an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BucketState {
    /// Error budget not exhausted; continue (possibly after a retry).
    Tolerable,
    /// Ceiling reached: the failure pattern is persistent and must be
    /// "explicitly reported" (paper §I.B) — the computation aborts.
    Persistent,
}

/// The leaky-bucket error counter of Algorithm 3.
///
/// # Example
///
/// ```rust
/// use relcnn_relexec::{BucketConfig, BucketState, LeakyBucket};
///
/// let mut bucket = LeakyBucket::new(BucketConfig::default());
/// assert_eq!(bucket.record_error(), BucketState::Tolerable);   // level 2
/// bucket.record_success();                                     // level 1
/// assert_eq!(bucket.record_error(), BucketState::Persistent);  // level 3
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeakyBucket {
    config: BucketConfig,
    level: u32,
    peak: u32,
    errors: u64,
    successes: u64,
}

impl LeakyBucket {
    /// Creates an empty bucket.
    pub fn new(config: BucketConfig) -> Self {
        LeakyBucket {
            config,
            level: 0,
            peak: 0,
            errors: 0,
            successes: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> BucketConfig {
        self.config
    }

    /// Current fill level.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Highest level ever reached.
    pub fn peak(&self) -> u32 {
        self.peak
    }

    /// Total errors recorded.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Total successes recorded.
    pub fn successes(&self) -> u64 {
        self.successes
    }

    /// Records a failed operation: level rises by `factor` (saturating) and
    /// is checked against the ceiling.
    ///
    /// `#[inline]`, like [`record_success`](Self::record_success): an
    /// out-of-line call from the reliable kernels would take the address of
    /// the Algorithm-3 regime that owns the bucket and so force the regime's
    /// ALU pointer and counters through memory on every operation.
    #[inline]
    pub fn record_error(&mut self) -> BucketState {
        self.errors += 1;
        self.level = self.level.saturating_add(self.config.factor);
        self.peak = self.peak.max(self.level);
        if self.level >= self.config.ceiling {
            BucketState::Persistent
        } else {
            BucketState::Tolerable
        }
    }

    /// Records a correct operation: level drains by one, floored at zero
    /// (Algorithm 3 lines 18–19).
    #[inline]
    pub fn record_success(&mut self) {
        self.successes += 1;
        self.level = self.level.saturating_sub(1);
    }

    /// Whether the bucket has ever crossed the ceiling.
    pub fn has_overflowed(&self) -> bool {
        self.peak >= self.config.ceiling
    }

    /// Empties the bucket (level and peak), keeping lifetime counters —
    /// used when a rollback boundary also resets the error budget.
    pub fn drain(&mut self) {
        self.level = 0;
        self.peak = 0;
    }
}

impl Default for LeakyBucket {
    fn default() -> Self {
        LeakyBucket::new(BucketConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_error_is_tolerable_and_drains() {
        let mut b = LeakyBucket::default();
        assert_eq!(b.record_error(), BucketState::Tolerable);
        assert_eq!(b.level(), 2);
        b.record_success();
        b.record_success();
        assert_eq!(b.level(), 0);
        assert!(!b.has_overflowed());
    }

    #[test]
    fn two_successive_errors_are_persistent() {
        let mut b = LeakyBucket::default();
        assert_eq!(b.record_error(), BucketState::Tolerable);
        assert_eq!(b.record_error(), BucketState::Persistent);
        assert!(b.has_overflowed());
    }

    /// The paper's exact phrasing: correct operations cancel one, but not
    /// two successive errors.
    #[test]
    fn stream_cancels_one_but_not_two_successive_errors() {
        // One error, then a stream of successes, then another error: the
        // stream fully drains the bucket, so the second error is tolerable.
        let mut b = LeakyBucket::default();
        b.record_error();
        for _ in 0..10 {
            b.record_success();
        }
        assert_eq!(b.record_error(), BucketState::Tolerable);

        // Two errors with only ONE success between them: not cancelled.
        let mut b = LeakyBucket::default();
        b.record_error();
        b.record_success(); // level 1
        assert_eq!(b.record_error(), BucketState::Persistent); // level 3
    }

    #[test]
    fn level_never_negative() {
        let mut b = LeakyBucket::default();
        for _ in 0..100 {
            b.record_success();
        }
        assert_eq!(b.level(), 0);
        assert_eq!(b.successes(), 100);
    }

    #[test]
    fn peak_tracks_maximum() {
        let mut b = LeakyBucket::new(BucketConfig::new(1, 10));
        for _ in 0..4 {
            b.record_error();
        }
        for _ in 0..4 {
            b.record_success();
        }
        assert_eq!(b.level(), 0);
        assert_eq!(b.peak(), 4);
        assert_eq!(b.errors(), 4);
    }

    #[test]
    fn custom_factor_ceiling() {
        // factor 1, ceiling 5: tolerates bursts of 4.
        let mut b = LeakyBucket::new(BucketConfig::new(1, 5));
        for _ in 0..4 {
            assert_eq!(b.record_error(), BucketState::Tolerable);
        }
        assert_eq!(b.record_error(), BucketState::Persistent);
    }

    #[test]
    fn drain_resets_level_not_counters() {
        let mut b = LeakyBucket::default();
        b.record_error();
        b.drain();
        assert_eq!(b.level(), 0);
        assert_eq!(b.peak(), 0);
        assert_eq!(b.errors(), 1);
    }

    #[test]
    fn saturating_never_panics() {
        let mut b = LeakyBucket::new(BucketConfig::new(u32::MAX, u32::MAX));
        assert_eq!(b.record_error(), BucketState::Persistent);
        assert_eq!(b.record_error(), BucketState::Persistent);
        assert_eq!(b.level(), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "factor must be positive")]
    fn zero_factor_rejected() {
        BucketConfig::new(0, 3);
    }

    #[test]
    #[should_panic(expected = "ceiling must be positive")]
    fn zero_ceiling_rejected() {
        BucketConfig::new(2, 0);
    }
}
