//! Skewed per-trial cost models.
//!
//! Fault-injection campaigns have highly non-uniform trial costs: a clean
//! trial runs the qualified kernel once, while an escalation path (leaky
//! bucket climbing toward a persistent-failure abort) re-evaluates the
//! model many times for rollback and re-execution. [`SkewedCost`] is the
//! shared, deterministic description of that skew, used by the runtime's
//! work-stealing benchmarks and tests to generate reproducible
//! pathological schedules: it maps a trial index to the number of model
//! evaluations the trial will perform.
//!
//! The model is intentionally index-based rather than random: clustering
//! the heavy trials at a known place in the index space is what creates
//! the worst case for contiguous-block scheduling (one shard owns all the
//! escalations), which is exactly the case work stealing must win.

use serde::{Deserialize, Serialize};

/// Deterministic skewed trial-cost model: `heavy_every > 0` marks every
/// n-th trial as an escalation, and all trials at index `heavy_from` or
/// above are escalations (a heavy tail clustered in the last shards).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SkewedCost {
    /// Model evaluations a clean trial performs.
    pub clean_evals: u64,
    /// Model evaluations an escalated trial performs.
    pub escalated_evals: u64,
    /// Mark every n-th trial (by index) as escalated; 0 disables.
    pub heavy_every: u64,
    /// Mark every trial at this index or above as escalated;
    /// `u64::MAX` disables.
    pub heavy_from: u64,
}

impl SkewedCost {
    /// A uniform workload: every trial costs `evals`.
    pub fn uniform(evals: u64) -> Self {
        SkewedCost {
            clean_evals: evals,
            escalated_evals: evals,
            heavy_every: 0,
            heavy_from: u64::MAX,
        }
    }

    /// A heavy tail: trials at `heavy_from` and above cost
    /// `escalated_evals`, everything before costs `clean_evals`. This is
    /// the adversarial case for contiguous-block claiming — the entire
    /// escalation cost lands in the final shards.
    pub fn tail(clean_evals: u64, escalated_evals: u64, heavy_from: u64) -> Self {
        SkewedCost {
            clean_evals,
            escalated_evals,
            heavy_every: 0,
            heavy_from,
        }
    }

    /// Periodic escalations: every `heavy_every`-th trial costs
    /// `escalated_evals` (index 0 included).
    pub fn periodic(clean_evals: u64, escalated_evals: u64, heavy_every: u64) -> Self {
        SkewedCost {
            clean_evals,
            escalated_evals,
            heavy_every,
            heavy_from: u64::MAX,
        }
    }

    /// Whether the trial at `index` takes the escalation path.
    pub fn is_escalated(&self, index: u64) -> bool {
        (self.heavy_every > 0 && index.is_multiple_of(self.heavy_every)) || index >= self.heavy_from
    }

    /// Model evaluations the trial at `index` performs.
    pub fn evals(&self, index: u64) -> u64 {
        if self.is_escalated(index) {
            self.escalated_evals
        } else {
            self.clean_evals
        }
    }

    /// Total evaluations over trials `0..trials` (the work a scheduler
    /// must balance).
    fn total_evals(&self, trials: u64) -> u64 {
        (0..trials).map(|i| self.evals(i)).sum()
    }

    /// Skew factor: heaviest single trial over the mean trial cost
    /// (1.0 = uniform). Returns 1.0 for an empty workload.
    pub fn skew_factor(&self, trials: u64) -> f64 {
        if trials == 0 {
            return 1.0;
        }
        let total = self.total_evals(trials);
        if total == 0 {
            return 1.0;
        }
        let max = (0..trials).map(|i| self.evals(i)).max().unwrap_or(0);
        max as f64 * trials as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_has_no_skew() {
        let cost = SkewedCost::uniform(7);
        assert!(!cost.is_escalated(0));
        assert_eq!(cost.evals(123), 7);
        assert_eq!(cost.total_evals(10), 70);
        assert!((cost.skew_factor(10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_clusters_heavy_trials() {
        let cost = SkewedCost::tail(1, 100, 8);
        assert!(!cost.is_escalated(7));
        assert!(cost.is_escalated(8));
        assert!(cost.is_escalated(9));
        assert_eq!(cost.total_evals(10), 8 + 200);
        assert!(cost.skew_factor(10) > 1.0);
    }

    #[test]
    fn periodic_marks_every_nth() {
        let cost = SkewedCost::periodic(2, 10, 4);
        let marked: Vec<u64> = (0..9).filter(|&i| cost.is_escalated(i)).collect();
        assert_eq!(marked, vec![0, 4, 8]);
        assert_eq!(cost.total_evals(9), 6 * 2 + 3 * 10);
    }

    #[test]
    fn empty_workload_degenerates_gracefully() {
        let cost = SkewedCost::tail(0, 0, 0);
        assert_eq!(cost.total_evals(5), 0);
        assert_eq!(cost.skew_factor(5), 1.0);
        assert_eq!(SkewedCost::uniform(1).skew_factor(0), 1.0);
    }

    #[test]
    fn serde_round_trip() {
        let cost = SkewedCost::tail(3, 50, 96);
        let json = serde_json::to_string(&cost).expect("serialise");
        let back: SkewedCost = serde_json::from_str(&json).expect("parse");
        assert_eq!(cost, back);
    }
}
