//! The runtime's headline contract, property-tested: campaign aggregates
//! are bit-identical across worker counts for a fixed seed.

use proptest::prelude::*;
use relcnn_faults::{BerInjector, FaultInjector, FaultSite, OpContext};
use relcnn_runtime::{
    run_campaign, Block, CampaignReport, CampaignSink, Control, EarlyStop, Engine, FnSource,
    FnSourcedTrial, FnTrial, JsonlSink, RunOutcome, RunPlan, RunStats, Sink, SliceSource, TrialCtx,
    TrialOutcome, TrialResult,
};

/// A seeded trial whose outcome mixes every `TrialOutcome` variant.
fn trial(seed: u64) -> TrialResult {
    let mut inj = BerInjector::new(seed, 0.3).with_sites(vec![FaultSite::Multiplier]);
    let mut flips = 0u32;
    for op in 0..16u64 {
        if inj.perturb(OpContext::new(FaultSite::Multiplier, op), 1.0) != 1.0 {
            flips += 1;
        }
    }
    let outcome = match flips {
        0 => TrialOutcome::Correct,
        1..=3 => TrialOutcome::DetectedRecovered,
        4..=6 => TrialOutcome::DetectedAborted,
        _ => TrialOutcome::SilentCorruption,
    };
    TrialResult {
        outcome,
        injector: inj.stats(),
    }
}

/// The per-trial reference for the worker-folded `CampaignSink`: takes
/// every `TrialResult` in a `Block` and records it into the same
/// campaign sink one trial at a time. The fold on the workers must match
/// it bit for bit (the aggregates are pure integer counters, so `==` is
/// byte-identity).
struct ReplaySink(CampaignSink);

impl ReplaySink {
    fn new(policy: EarlyStop) -> Self {
        ReplaySink(CampaignSink::new(policy))
    }
}

impl Sink<TrialResult> for ReplaySink {
    type Summary = CampaignReport;
    type Partial = Block<TrialResult>;

    fn absorb(&mut self, block: &mut Block<TrialResult>) {
        for (_, item) in block.drain() {
            let mut one = CampaignReport::empty();
            one.record(&item);
            self.0.absorb(&mut one);
        }
    }

    fn checkpoint(&mut self, shard: usize) -> Control {
        self.0.checkpoint(shard)
    }

    fn finish(self, stats: &RunStats) -> CampaignReport {
        self.0.finish(stats)
    }
}

/// Runs one campaign twice — folded on the workers vs recorded trial by
/// trial — and asserts the aggregate, abort flag and stop shard agree.
fn assert_partial_matches_replay(workers: usize, plan: &RunPlan, policy: EarlyStop) {
    let engine = Engine::with_workers(workers);
    let by_seed = FnTrial::new(|ctx: &mut TrialCtx| trial(ctx.seed));
    let partial: RunOutcome<CampaignReport> = engine.run(plan, &by_seed, CampaignSink::new(policy));
    let replay: RunOutcome<CampaignReport> = engine.run(plan, &by_seed, ReplaySink::new(policy));
    assert_eq!(
        partial.summary, replay.summary,
        "partial merge diverged from per-trial replay: workers={workers} {plan:?}"
    );
    assert_eq!(partial.stats.aborted, replay.stats.aborted, "{plan:?}");
    assert_eq!(partial.stats.shards, replay.stats.shards, "{plan:?}");
    assert_eq!(partial.stats.trials, replay.stats.trials, "{plan:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The contract of per-worker folding: folding chunks on the workers
    /// and merging partials in watermark order is byte-identical to
    /// recording every trial into the sink one at a time — at workers
    /// {1, 2, 8} × chunk sizes {1, auto, whole-shard}, with and without
    /// an early abort firing mid-run.
    #[test]
    fn partial_merge_identical_to_per_trial_replay(
        trials in 1u64..250,
        base_seed in any::<u64>(),
        shards in 1usize..32,
    ) {
        for workers in [1usize, 2, 8] {
            for chunk in [1u64, 0, trials] {
                let plan = RunPlan::new(trials, base_seed)
                    .with_shards(shards)
                    .with_chunk(chunk);
                assert_partial_matches_replay(workers, &plan, EarlyStop::never());
                assert_partial_matches_replay(workers, &plan, EarlyStop::on_escalations(3));
            }
        }
    }

    /// The oversharded (shards > trials) regression case, for both sinks:
    /// the clamp plus the offset watermark must never stall, and the
    /// sinks must agree.
    #[test]
    fn partial_merge_matches_replay_when_oversharded(
        trials in 1u64..12,
        base_seed in any::<u64>(),
        shards in 16usize..96,
        chunk in 0u64..24,
    ) {
        for workers in [1usize, 2, 8] {
            let plan = RunPlan::new(trials, base_seed)
                .with_shards(shards)
                .with_chunk(chunk);
            assert_partial_matches_replay(workers, &plan, EarlyStop::never());
        }
    }

    /// The acceptance test of the runtime subsystem: identical
    /// `TrialOutcome` aggregates at 1, 2 and 8 worker threads, for any
    /// trial count, seed, shard layout and work-stealing chunk size
    /// (0 = auto, 1 = finest, large = whole-shard claiming).
    #[test]
    fn campaign_aggregates_identical_at_1_2_8_threads(
        trials in 1u64..300,
        base_seed in any::<u64>(),
        shards in 1usize..40,
        chunk in 0u64..12,
    ) {
        let report_at = |workers: usize, chunk: u64| {
            let plan = RunPlan::new(trials, base_seed)
                .with_shards(shards)
                .with_chunk(chunk);
            run_campaign(&Engine::with_workers(workers), &plan, EarlyStop::never(), trial).summary
        };
        let one = report_at(1, chunk);
        let two = report_at(2, chunk);
        let eight = report_at(8, chunk);
        prop_assert_eq!(one, two);
        prop_assert_eq!(one, eight);
        prop_assert_eq!(one.trials, trials);
        // Chunking is pure scheduling: any chunk size aggregates
        // identically to single-trial chunks and whole-shard chunks.
        prop_assert_eq!(one, report_at(8, 1));
        prop_assert_eq!(one, report_at(8, trials));
    }

    /// Early-stopped campaigns make the same (shard-aligned) stopping
    /// decision at every worker count and chunk granularity.
    #[test]
    fn early_stopped_aggregates_identical_across_threads(
        trials in 50u64..400,
        base_seed in any::<u64>(),
        chunk in 0u64..8,
    ) {
        let outcome_at = |workers: usize, chunk: u64| {
            let plan = RunPlan::new(trials, base_seed)
                .with_shards(20)
                .with_chunk(chunk);
            run_campaign(
                &Engine::with_workers(workers),
                &plan,
                EarlyStop::on_escalations(3),
                trial,
            )
        };
        let one = outcome_at(1, chunk);
        let eight = outcome_at(8, chunk);
        let eight_fine = outcome_at(8, 1);
        prop_assert_eq!(one.summary, eight.summary);
        prop_assert_eq!(one.stats.aborted, eight.stats.aborted);
        prop_assert_eq!(one.stats.shards, eight.stats.shards);
        prop_assert_eq!(one.summary, eight_fine.summary);
        prop_assert_eq!(one.stats.shards, eight_fine.stats.shards);
    }

    /// Campaigns whose trials *over-run* their shard (forcing the
    /// shards>trials clamp) still complete and aggregate identically.
    #[test]
    fn oversharded_plans_never_stall(
        trials in 1u64..16,
        base_seed in any::<u64>(),
        shards in 16usize..128,
        chunk in 0u64..32,
    ) {
        let plan = RunPlan::new(trials, base_seed)
            .with_shards(shards)
            .with_chunk(chunk);
        let report_at = |workers: usize| {
            run_campaign(&Engine::with_workers(workers), &plan, EarlyStop::never(), trial).summary
        };
        let report = report_at(8);
        prop_assert_eq!(report.trials, trials);
        prop_assert_eq!(report, report_at(1));
    }
}

/// A steal-heavy schedule racing the early-abort checkpoint: the heavy
/// escalating trials cluster at the front, so workers that drain their
/// light chunks steal from the loaded deque *while* the aggregator is
/// deciding to stop. The stop decision and aggregate must not notice.
/// Also a stalled head: one `SkewedCost` spike on trial 0 holds the
/// released watermark while every other worker runs ahead into the
/// reorder buffer; the aggregate must match the serial run.
#[test]
fn steal_racing_early_abort_is_deterministic() {
    use relcnn_faults::SkewedCost;
    use std::time::Duration;

    let cost = SkewedCost::tail(0, 2, 0); // every trial sleeps a little
    let heavy = SkewedCost::tail(1, 6, 48); // tail trials sleep more
    let outcome_at = |workers: usize, chunk: u64| {
        let plan = RunPlan::new(64, 77).with_shards(8).with_chunk(chunk);
        run_campaign(
            &Engine::with_workers(workers),
            &plan,
            EarlyStop::on_escalations(4),
            move |seed| {
                let index = seed - 77;
                std::thread::sleep(Duration::from_millis(
                    cost.evals(index) + heavy.evals(index),
                ));
                TrialResult {
                    outcome: if index % 5 == 0 {
                        TrialOutcome::DetectedAborted
                    } else {
                        TrialOutcome::Correct
                    },
                    injector: Default::default(),
                }
            },
        )
    };
    let reference = outcome_at(1, 1);
    assert!(reference.stats.aborted, "escalation stop must fire");
    for (threads, chunk) in [(2, 1), (8, 1), (8, 2), (8, 64)] {
        let outcome = outcome_at(threads, chunk);
        assert_eq!(
            outcome.summary, reference.summary,
            "threads={threads} chunk={chunk}"
        );
        assert_eq!(outcome.stats.aborted, reference.stats.aborted);
        assert_eq!(outcome.stats.shards, reference.stats.shards);
    }

    // ~15 ms on trial 0 (the only multiple of the period in the run),
    // ~100 us on every other trial.
    let spike = SkewedCost::periodic(0, 15, 1_000_000);
    let stalled_at = |workers: usize| {
        let plan = RunPlan::new(72, 0xF00).with_shards(12).with_chunk(2);
        run_campaign(
            &Engine::with_workers(workers),
            &plan,
            EarlyStop::never(),
            move |seed| {
                let index = seed - 0xF00;
                std::thread::sleep(Duration::from_micros(100 + spike.evals(index) * 1000));
                trial(seed)
            },
        )
        .summary
    };
    let stalled_reference = stalled_at(1);
    for workers in [2, 8] {
        assert_eq!(
            stalled_at(workers),
            stalled_reference,
            "stalled head, workers={workers}"
        );
    }
}

/// Pins the engine's worker pool (not just libtest's thread count) to 1,
/// 2 and 8 workers and checks the full and early-stopped aggregates, at
/// fine and whole-shard chunking, against the serial reference.
#[test]
fn matrix_worker_count_agrees_with_serial() {
    for chunk in [1u64, 3, 1_000] {
        let plan = RunPlan::new(300, 0xA11).with_shards(24).with_chunk(chunk);
        let full = |workers: usize| {
            run_campaign(
                &Engine::with_workers(workers),
                &plan,
                EarlyStop::never(),
                trial,
            )
            .summary
        };
        let stopped = |workers| {
            run_campaign(
                &Engine::with_workers(workers),
                &plan,
                EarlyStop::on_escalations(2),
                trial,
            )
        };
        let (full_serial, stopped_serial) = (full(1), stopped(1));
        for workers in [1, 2, 8] {
            assert_eq!(
                full(workers),
                full_serial,
                "full campaign, workers={workers} chunk={chunk}"
            );
            let ours = stopped(workers);
            assert_eq!(
                ours.summary, stopped_serial.summary,
                "stopped campaign, workers={workers} chunk={chunk}"
            );
            assert_eq!(ours.stats.shards, stopped_serial.stats.shards);
        }
    }
}

/// Streaming ingestion equivalence: the same campaign driven by the
/// classic index path, an eager materialised dataset (`SliceSource`) and
/// a lazily generated one (`FnSource`) must produce byte-identical JSONL
/// artefacts — the in-process version of the CI matrix's streaming leg.
#[test]
fn streaming_and_eager_sources_are_byte_identical_to_the_plan_path() {
    const TRIALS: u64 = 90;
    const SEED: u64 = 0x5EED;
    // The "dataset": a per-trial workload descriptor derived from the
    // index (here: how many extra injector exposures the trial runs).
    let descriptor = |i: u64| (i % 7) * 3;
    let run_of = |seed: u64, extra: u64| {
        let mut inj = BerInjector::new(seed, 0.3).with_sites(vec![FaultSite::Multiplier]);
        let mut flips = 0u32;
        for op in 0..(16 + extra) {
            if inj.perturb(OpContext::new(FaultSite::Multiplier, op), 1.0) != 1.0 && op < 16 {
                flips += 1;
            }
        }
        let outcome = match flips {
            0 => TrialOutcome::Correct,
            1..=3 => TrialOutcome::DetectedRecovered,
            4..=6 => TrialOutcome::DetectedAborted,
            _ => TrialOutcome::SilentCorruption,
        };
        TrialResult {
            outcome,
            injector: inj.stats(),
        }
    };
    let plan = RunPlan::new(TRIALS, SEED).with_shards(9);

    let plan_path = |workers: usize| {
        let mut buf: Vec<u8> = Vec::new();
        {
            let sink =
                JsonlSink::new(&mut buf, CampaignSink::new(EarlyStop::never())).without_footer();
            Engine::with_workers(workers).run(
                &plan,
                &FnTrial::new(|ctx: &mut TrialCtx| run_of(ctx.seed, descriptor(ctx.seed - SEED))),
                sink,
            );
        }
        buf
    };
    let streaming = |workers: usize| {
        let mut buf: Vec<u8> = Vec::new();
        {
            let sink =
                JsonlSink::new(&mut buf, CampaignSink::new(EarlyStop::never())).without_footer();
            Engine::with_workers(workers).run_source(
                &plan,
                &FnSource::new(TRIALS, descriptor),
                &FnSourcedTrial::new(|extra, ctx: &mut TrialCtx| run_of(ctx.seed, extra)),
                sink,
            );
        }
        buf
    };
    let eager = |workers: usize| {
        let dataset: Vec<u64> = (0..TRIALS).map(descriptor).collect();
        let mut buf: Vec<u8> = Vec::new();
        {
            let sink =
                JsonlSink::new(&mut buf, CampaignSink::new(EarlyStop::never())).without_footer();
            Engine::with_workers(workers).run_source(
                &plan,
                &SliceSource::new(&dataset),
                &FnSourcedTrial::new(|extra: &u64, ctx: &mut TrialCtx| run_of(ctx.seed, *extra)),
                sink,
            );
        }
        buf
    };

    let reference = plan_path(1);
    assert!(!reference.is_empty());
    for threads in [1, 2, 8] {
        assert_eq!(
            plan_path(threads),
            reference,
            "plan path, threads={threads}"
        );
        assert_eq!(
            streaming(threads),
            reference,
            "streaming, threads={threads}"
        );
        assert_eq!(eager(threads), reference, "eager, threads={threads}");
    }
}

#[test]
fn documented_seed_contract_holds() {
    // The campaign docs promise trial `i` sees seed `base_seed + i`.
    let seen = std::sync::Mutex::new(Vec::new());
    run_campaign(
        &Engine::with_workers(3),
        &RunPlan::new(20, 1000),
        EarlyStop::never(),
        |seed| {
            seen.lock().unwrap().push(seed);
            TrialResult {
                outcome: TrialOutcome::Correct,
                injector: Default::default(),
            }
        },
    );
    let mut seen = seen.into_inner().unwrap();
    seen.sort_unstable();
    assert_eq!(seen, (1000..1020).collect::<Vec<_>>());
}
