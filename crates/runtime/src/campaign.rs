//! Fault-injection campaigns on the engine.
//!
//! The data types ([`TrialResult`], [`CampaignReport`], …) live in
//! `relcnn_faults::campaign`; this module supplies their *execution*: the
//! [`CampaignSink`] aggregate and [`EarlyStop`] policy an
//! [`Engine`] run feeds. A campaign is described by a [`RunPlan`] and
//! started on an [`Engine`] — the aggregate is bit-identical for any
//! worker count.

use crate::agg::PartialAggregate;
use crate::engine::{Engine, RunOutcome, RunPlan, RunStats};
use crate::sink::{Control, Sink};
use crate::trial::{FnTrial, TrialCtx};
pub use relcnn_faults::campaign::{wilson_interval, CampaignReport, TrialOutcome, TrialResult};

/// Statistical early-stop policy, evaluated at shard boundaries.
///
/// Stopping decisions only ever see the contiguous prefix of completed
/// shards, so for a fixed `(plan, policy)` the campaign stops after the
/// same shard regardless of worker count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarlyStop {
    /// Stop once the Wilson 95% CI on the silent-corruption rate is
    /// narrower than this (absolute width).
    pub max_silent_ci_width: Option<f64>,
    /// Stop once this many trials escalated to a persistent-failure abort
    /// (the leaky bucket reported an irrecoverable pattern).
    pub max_escalations: Option<u64>,
    /// Never stop before this many trials have been aggregated.
    pub min_trials: u64,
}

impl EarlyStop {
    /// No early stopping at all.
    pub fn never() -> Self {
        EarlyStop {
            max_silent_ci_width: None,
            max_escalations: None,
            min_trials: 0,
        }
    }

    /// Stop when the silent-corruption CI width drops below `width`.
    pub fn on_ci_width(width: f64, min_trials: u64) -> Self {
        EarlyStop {
            max_silent_ci_width: Some(width),
            max_escalations: None,
            min_trials,
        }
    }

    /// Stop once `n` trials ended in a persistent-failure abort.
    pub fn on_escalations(n: u64) -> Self {
        EarlyStop {
            max_silent_ci_width: None,
            max_escalations: Some(n),
            min_trials: 0,
        }
    }

    fn should_stop(&self, report: &CampaignReport) -> bool {
        if report.trials < self.min_trials {
            return false;
        }
        if let Some(width) = self.max_silent_ci_width {
            let (lo, hi) = report.silent_rate_ci95();
            if hi - lo < width {
                return true;
            }
        }
        if let Some(n) = self.max_escalations {
            if report.detected_aborted >= n {
                return true;
            }
        }
        false
    }
}

/// Streaming campaign aggregator with early-abort hooks.
#[derive(Debug)]
pub struct CampaignSink {
    report: CampaignReport,
    policy: EarlyStop,
}

impl CampaignSink {
    /// An empty aggregate under the given stop policy.
    pub fn new(policy: EarlyStop) -> Self {
        CampaignSink {
            report: CampaignReport::empty(),
            policy,
        }
    }
}

/// The campaign's chunk-local partial is the report itself:
/// [`CampaignReport`] is an exact integer-counter monoid
/// ([`record`](CampaignReport::record) = fold,
/// [`merge`](CampaignReport::merge) = combine, `empty` = identity), so a
/// per-worker fold merged in watermark order is bit-identical to
/// recording trial by trial — including every Wilson-CI and escalation
/// checkpoint decision, which only ever see completed-shard prefixes of
/// the merge.
impl PartialAggregate<TrialResult> for CampaignReport {
    fn fold(&mut self, _index: u64, item: TrialResult) {
        self.record(&item);
    }

    fn merge(&mut self, other: Self) {
        CampaignReport::merge(self, &other);
    }
}

impl Sink<TrialResult> for CampaignSink {
    type Summary = CampaignReport;
    // Workers fold trial results into chunk-local reports, so the
    // channel carries eight counters per envelope, never a trial.
    type Partial = CampaignReport;

    fn absorb(&mut self, partial: &mut CampaignReport) {
        self.report.merge(partial);
    }

    fn checkpoint(&mut self, _shard: usize) -> Control {
        if self.policy.should_stop(&self.report) {
            Control::Stop
        } else {
            Control::Continue
        }
    }

    fn finish(self, _stats: &RunStats) -> CampaignReport {
        self.report
    }
}

/// Runs `plan.trials` independent trials of `trial_fn` (called with the
/// trial's derived seed `plan.seed + i`) on `engine`, aggregating the
/// outcomes under the early-stop `policy` — [`FnTrial`] and
/// [`CampaignSink`] composed for the common case. A campaign that tees to
/// JSONL, pulls from a [`TrialSource`](crate::TrialSource) or runs one
/// shard window calls [`Engine::run`] / [`Engine::run_source`] itself.
///
/// `trial_fn` must be deterministic in its seed argument; the aggregate is
/// then bit-identical for every engine worker count.
pub fn run_campaign<F>(
    engine: &Engine,
    plan: &RunPlan,
    policy: EarlyStop,
    trial_fn: F,
) -> RunOutcome<CampaignReport>
where
    F: Fn(u64) -> TrialResult + Sync,
{
    engine.run(
        plan,
        &FnTrial::new(move |ctx: &mut TrialCtx| trial_fn(ctx.seed)),
        CampaignSink::new(policy),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use relcnn_faults::{BerInjector, FaultInjector, FaultSite, InjectorStats, OpContext};

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
    fn aggregates_counts() {
        let report = run_campaign(
            &Engine::with_workers(4),
            &RunPlan::new(100, 0),
            EarlyStop::never(),
            |seed| {
                fake_trial(if seed % 4 == 0 {
                    TrialOutcome::SilentCorruption
                } else {
                    TrialOutcome::Correct
                })
            },
        )
        .summary;
        assert_eq!(report.trials, 100);
        assert_eq!(report.silent, 25);
        assert_eq!(report.correct, 75);
        assert_eq!(report.exposures, 1000);
        assert!((report.safety_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // Outcome depends only on seed, so aggregation must not depend on
        // scheduling.
        let run = |workers| {
            run_campaign(
                &Engine::with_workers(workers),
                &RunPlan::new(64, 7),
                EarlyStop::never(),
                |seed| {
                    let mut inj = BerInjector::new(seed, 0.5);
                    let v = inj.perturb(OpContext::new(FaultSite::Multiplier, 0), 1.0);
                    fake_trial(if v == 1.0 {
                        TrialOutcome::Correct
                    } else {
                        TrialOutcome::DetectedRecovered
                    })
                },
            )
            .summary
        };
        let a = run(1);
        let b = run(8);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_trials_report() {
        let report = run_campaign(
            &Engine::with_workers(2),
            &RunPlan::new(0, 0),
            EarlyStop::never(),
            |_| fake_trial(TrialOutcome::Correct),
        )
        .summary;
        assert_eq!(report.trials, 0);
        assert_eq!(report.safety_rate(), 1.0);
    }

    #[test]
    fn ci_early_stop_is_thread_count_invariant() {
        // All-correct trials tighten the silent-rate CI rapidly; the stop
        // point (a shard boundary) must not depend on the worker count.
        let run = |workers| {
            run_campaign(
                &Engine::with_workers(workers),
                &RunPlan::new(10_000, 3).with_shards(50),
                EarlyStop::on_ci_width(0.02, 100),
                |_| fake_trial(TrialOutcome::Correct),
            )
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.summary, b.summary);
        assert!(a.stats.aborted, "CI width should stop the run early");
        assert!(
            a.summary.trials < 10_000,
            "stopped run must not execute everything"
        );
        assert_eq!(a.summary.trials % 200, 0, "stop lands on a shard boundary");
    }

    #[test]
    fn escalation_early_stop_fires() {
        let outcome = run_campaign(
            &Engine::default(),
            &RunPlan::new(5_000, 11).with_shards(25),
            EarlyStop::on_escalations(5),
            |seed| {
                fake_trial(if seed % 100 == 0 {
                    TrialOutcome::DetectedAborted
                } else {
                    TrialOutcome::Correct
                })
            },
        );
        assert!(outcome.stats.aborted);
        assert!(outcome.summary.detected_aborted >= 5);
        assert!(outcome.summary.trials < 5_000);
    }

    #[test]
    fn windowed_campaigns_merge_into_the_full_report() {
        // Distribution contract: disjoint shard windows, each run with a
        // different worker count, merged in shard order must equal the
        // single-process campaign exactly.
        let plan = RunPlan::new(240, 0xD17E).with_shards(12);
        let trial = |seed: u64| {
            let mut inj = BerInjector::new(seed, 0.5);
            let v = inj.perturb(OpContext::new(FaultSite::Multiplier, 0), 1.0);
            fake_trial(if v == 1.0 {
                TrialOutcome::Correct
            } else {
                TrialOutcome::SilentCorruption
            })
        };
        let full = run_campaign(&Engine::default(), &plan, EarlyStop::never(), trial).summary;
        let parts: Vec<CampaignReport> = [(0usize, 5usize, 1), (5, 8, 2), (8, 12, 4)]
            .iter()
            .map(|&(lo, hi, workers)| {
                run_campaign(
                    &Engine::with_workers(workers),
                    &plan.with_shard_window(lo, hi),
                    EarlyStop::never(),
                    trial,
                )
                .summary
            })
            .collect();
        let merged = crate::agg::merge_in_order::<TrialResult, _>(parts);
        assert_eq!(merged, full);
    }

    #[test]
    fn throughput_counters_populated() {
        let outcome = run_campaign(
            &Engine::with_workers(2),
            &RunPlan::new(500, 1),
            EarlyStop::never(),
            |seed| {
                fake_trial(if seed % 2 == 0 {
                    TrialOutcome::Correct
                } else {
                    TrialOutcome::DetectedRecovered
                })
            },
        );
        assert_eq!(outcome.stats.trials, 500);
        assert!(outcome.stats.throughput > 0.0);
        assert!(outcome.stats.wall > std::time::Duration::ZERO);
    }
}
