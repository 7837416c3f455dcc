//! Campaign vocabulary and streaming aggregation.
//!
//! A *campaign* runs many independent trials — each with its own derived
//! seed — and aggregates how often injected faults were detected,
//! recovered, escalated or silently corrupted data. This is the measurement
//! machinery behind experiments X3/X4 (detection coverage vs bit error
//! rate; leaky-bucket availability).
//!
//! This module defines the *data* side of that story: trial outcomes and
//! the [`CampaignReport`] aggregate with its streaming
//! [`record`](CampaignReport::record)/[`merge`](CampaignReport::merge)
//! operations. *Execution* — the sharded, multi-threaded worker pool that
//! actually runs trials and feeds this aggregation — lives in the
//! `relcnn-runtime` crate: a campaign is described by a
//! `relcnn_runtime::RunPlan` (trials, base seed, shards, scheduling knobs)
//! and started on a `relcnn_runtime::Engine`, which owns the worker count;
//! `relcnn_runtime::run_campaign(&engine, &plan, policy, trial_fn)` is the
//! closure-and-`CampaignSink` shorthand. Trial `i` sees seed
//! `plan.seed + i`, so reports can cite exact reproduction commands.

use crate::injector::InjectorStats;
use serde::{Deserialize, Serialize};

/// The end state of one fault-injection trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum TrialOutcome {
    /// Output equalled the golden (fault-free) result, and no fault needed
    /// recovery — either nothing was injected or injection was masked.
    Correct,
    /// At least one fault was detected and recovered (e.g. by rollback);
    /// final output equalled the golden result.
    DetectedRecovered,
    /// Faults were detected but recovery gave up (persistent-failure abort
    /// via the leaky bucket); no wrong data was emitted.
    DetectedAborted,
    /// Output differed from the golden result with no error signalled —
    /// silent data corruption, the outcome a safety case must bound.
    SilentCorruption,
}

/// Result of a single campaign trial.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrialResult {
    /// How the trial ended.
    pub outcome: TrialOutcome,
    /// Injector counters for the trial.
    pub injector: InjectorStats,
}

/// Aggregated campaign results.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Trials executed.
    pub trials: u64,
    /// Trials per [`TrialOutcome`]: correct, recovered, aborted, silent.
    pub correct: u64,
    /// Trials that detected and recovered.
    pub detected_recovered: u64,
    /// Trials that detected and aborted.
    pub detected_aborted: u64,
    /// Trials that silently corrupted output.
    pub silent: u64,
    /// Sum of injector exposures over all trials.
    pub exposures: u64,
    /// Sum of fired faults over all trials.
    pub injected: u64,
    /// Sum of masked-at-source faults.
    pub masked: u64,
}

impl Default for CampaignReport {
    /// The monoid identity: [`CampaignReport::empty`]. Lets the runtime's
    /// worker threads construct chunk-local partial aggregates without a
    /// handle to the campaign sink.
    fn default() -> Self {
        CampaignReport::empty()
    }
}

impl CampaignReport {
    /// An all-zero report, ready for streaming accumulation.
    pub fn empty() -> Self {
        CampaignReport {
            trials: 0,
            correct: 0,
            detected_recovered: 0,
            detected_aborted: 0,
            silent: 0,
            exposures: 0,
            injected: 0,
            masked: 0,
        }
    }

    /// Folds one trial result into the aggregate.
    pub fn record(&mut self, result: &TrialResult) {
        self.trials += 1;
        match result.outcome {
            TrialOutcome::Correct => self.correct += 1,
            TrialOutcome::DetectedRecovered => self.detected_recovered += 1,
            TrialOutcome::DetectedAborted => self.detected_aborted += 1,
            TrialOutcome::SilentCorruption => self.silent += 1,
        }
        self.exposures += result.injector.exposures;
        self.injected += result.injector.injected;
        self.masked += result.injector.masked;
    }

    /// Merges another aggregate into this one (shard combination).
    pub fn merge(&mut self, other: &CampaignReport) {
        self.trials += other.trials;
        self.correct += other.correct;
        self.detected_recovered += other.detected_recovered;
        self.detected_aborted += other.detected_aborted;
        self.silent += other.silent;
        self.exposures += other.exposures;
        self.injected += other.injected;
        self.masked += other.masked;
    }

    /// Fraction of trials that ended safely.
    pub fn safety_rate(&self) -> f64 {
        if self.trials == 0 {
            return 1.0;
        }
        1.0 - self.silent as f64 / self.trials as f64
    }

    /// Detection coverage among trials where an *effective* (non-masked)
    /// fault fired: detected / (detected + silent).
    ///
    /// Returns `None` when no effective fault fired in any trial.
    pub fn detection_coverage(&self) -> Option<f64> {
        let detected = self.detected_recovered + self.detected_aborted;
        let denom = detected + self.silent;
        if denom == 0 {
            None
        } else {
            Some(detected as f64 / denom as f64)
        }
    }

    /// Availability: fraction of trials that produced a (correct) output
    /// rather than aborting.
    pub fn availability(&self) -> f64 {
        if self.trials == 0 {
            return 1.0;
        }
        (self.correct + self.detected_recovered) as f64 / self.trials as f64
    }

    /// Wilson 95% confidence interval on the silent-corruption rate.
    pub fn silent_rate_ci95(&self) -> (f64, f64) {
        wilson_interval(self.silent, self.trials, 1.96)
    }
}

/// Wilson score interval for a binomial proportion.
///
/// Returns `(lo, hi)`; `(0, 1)` when `n == 0`.
pub fn wilson_interval(successes: u64, n: u64, z: f64) -> (f64, f64) {
    if n == 0 {
        return (0.0, 1.0);
    }
    let n_f = n as f64;
    let p = successes as f64 / n_f;
    let z2 = z * z;
    let denom = 1.0 + z2 / n_f;
    let centre = p + z2 / (2.0 * n_f);
    let margin = z * (p * (1.0 - p) / n_f + z2 / (4.0 * n_f * n_f)).sqrt();
    (
        ((centre - margin) / denom).max(0.0),
        ((centre + margin) / denom).min(1.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_trial(outcome: TrialOutcome) -> TrialResult {
        TrialResult {
            outcome,
            injector: InjectorStats {
                exposures: 10,
                injected: 1,
                masked: 0,
            },
        }
    }

    #[test]
    fn record_aggregates_counts() {
        let mut report = CampaignReport::empty();
        for i in 0..100u64 {
            report.record(&fake_trial(if i % 4 == 0 {
                TrialOutcome::SilentCorruption
            } else {
                TrialOutcome::Correct
            }));
        }
        assert_eq!(report.trials, 100);
        assert_eq!(report.silent, 25);
        assert_eq!(report.correct, 75);
        assert_eq!(report.exposures, 1000);
        assert!((report.safety_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn merge_is_order_independent() {
        let mut left = CampaignReport::empty();
        let mut right = CampaignReport::empty();
        let outcomes = [
            TrialOutcome::Correct,
            TrialOutcome::DetectedRecovered,
            TrialOutcome::DetectedAborted,
            TrialOutcome::SilentCorruption,
        ];
        for (i, outcome) in outcomes.iter().cycle().take(40).enumerate() {
            if i % 3 == 0 {
                left.record(&fake_trial(*outcome));
            } else {
                right.record(&fake_trial(*outcome));
            }
        }
        let mut ab = CampaignReport::empty();
        ab.merge(&left);
        ab.merge(&right);
        let mut ba = CampaignReport::empty();
        ba.merge(&right);
        ba.merge(&left);
        assert_eq!(ab, ba);
        assert_eq!(ab.trials, 40);
        assert_eq!(
            ab.correct + ab.detected_recovered + ab.detected_aborted + ab.silent,
            40
        );
    }

    #[test]
    fn coverage_and_availability() {
        let report = CampaignReport {
            trials: 10,
            correct: 5,
            detected_recovered: 3,
            detected_aborted: 1,
            silent: 1,
            exposures: 0,
            injected: 0,
            masked: 0,
        };
        assert_eq!(report.detection_coverage(), Some(0.8));
        assert!((report.availability() - 0.8).abs() < 1e-12);
        let clean = CampaignReport {
            trials: 5,
            correct: 5,
            detected_recovered: 0,
            detected_aborted: 0,
            silent: 0,
            exposures: 0,
            injected: 0,
            masked: 0,
        };
        assert_eq!(clean.detection_coverage(), None);
        assert_eq!(clean.safety_rate(), 1.0);
    }

    #[test]
    fn wilson_interval_sane() {
        let (lo, hi) = wilson_interval(0, 0, 1.96);
        assert_eq!((lo, hi), (0.0, 1.0));
        let (lo, hi) = wilson_interval(50, 100, 1.96);
        assert!(lo < 0.5 && hi > 0.5);
        assert!(lo > 0.39 && hi < 0.61);
        let (lo, hi) = wilson_interval(0, 1000, 1.96);
        assert_eq!(lo, 0.0);
        assert!(hi < 0.005);
        let (lo, hi) = wilson_interval(1000, 1000, 1.96);
        assert!(lo > 0.995);
        assert_eq!(hi, 1.0);
    }

    #[test]
    fn default_is_the_merge_identity() {
        // The runtime folds chunk partials starting from `Default`; the
        // identity law is what makes per-worker partial aggregation exact.
        let mut report = CampaignReport::empty();
        for i in 0..9u64 {
            report.record(&fake_trial(if i % 2 == 0 {
                TrialOutcome::Correct
            } else {
                TrialOutcome::DetectedAborted
            }));
        }
        let mut merged = CampaignReport::default();
        merged.merge(&report);
        assert_eq!(merged, report);
        let mut reversed = report;
        reversed.merge(&CampaignReport::default());
        assert_eq!(reversed, report);
    }

    #[test]
    fn zero_trials_report() {
        let report = CampaignReport::empty();
        assert_eq!(report.trials, 0);
        assert_eq!(report.safety_rate(), 1.0);
        assert_eq!(report.availability(), 1.0);
    }
}
