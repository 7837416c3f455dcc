//! Work stealing vs contiguous-block claiming on a skewed campaign.
//!
//! The adversarial workload for PR 1's whole-shard claiming: every trial
//! is latency-bound (modelling device/IO-bound inference), and the
//! escalation-heavy trials — far more model evaluations per trial — all
//! cluster in the *last* shard ([`SkewedCost::tail`]). Under whole-shard
//! claiming one worker eats the entire escalation cost while the other
//! seven idle; with single-trial chunks the dry workers steal the heavy
//! shard's chunks and the tail flattens.
//!
//! All modes run on the same engine — "block" mode is simply
//! `chunk = shard length`, which reproduces PR 1's claiming granularity
//! exactly (one indivisible unit per shard) — so the comparison isolates
//! the scheduling policy. A third mode runs the same plan with no
//! `with_chunk` at all: what a caller who never thinks about chunking
//! gets from the default rule. Aggregates are asserted bit-identical
//! across the modes: chunking and stealing are pure scheduling.
//!
//! Writes `results/skewed_steal.json` with the three wall-clocks and the
//! steal and default speedups over block mode; the CI bench gate compares
//! it against `results/baseline/skewed_steal.json`.

use relcnn_faults::SkewedCost;
use relcnn_runtime::{
    run_campaign, EarlyStop, Engine, RunOutcome, RunPlan, TrialOutcome, TrialResult,
};
use std::time::Duration;

const WORKERS: usize = 8;
const TRIALS: u64 = 64;
const SHARDS: usize = 8;
const BASE_SEED: u64 = 0x5EED;
/// Sleep per model evaluation: latency-bound, so the pool overlaps waits
/// even on a single-core host.
const EVAL_SLEEP_US: u64 = 100;

/// Clean trials run 5 evaluations (0.5 ms); the escalated tail — the last
/// shard of the campaign — runs 80 (8 ms).
fn skew() -> SkewedCost {
    SkewedCost::tail(5, 80, TRIALS - TRIALS / SHARDS as u64)
}

fn skewed_trial(seed: u64) -> TrialResult {
    let index = seed - BASE_SEED;
    let cost = skew();
    std::thread::sleep(Duration::from_micros(cost.evals(index) * EVAL_SLEEP_US));
    TrialResult {
        outcome: if cost.is_escalated(index) {
            TrialOutcome::DetectedRecovered
        } else {
            TrialOutcome::Correct
        },
        injector: Default::default(),
    }
}

/// Whole-shard chunks: PR 1's claiming granularity.
const BLOCK: Option<u64> = Some(TRIALS / SHARDS as u64);
/// Single-trial chunks: the finest stealing granularity.
const STEAL: Option<u64> = Some(1);
/// No `with_chunk` at all: the plan's default chunk rule.
const DEFAULT: Option<u64> = None;

/// One run of the skewed campaign; every mode goes through the identical
/// code path and differs only in the plan's chunk size.
fn run_mode(chunk: Option<u64>) -> RunOutcome<relcnn_runtime::CampaignReport> {
    let plan = RunPlan::new(TRIALS, BASE_SEED).with_shards(SHARDS);
    let plan = chunk.map_or(plan, |chunk| plan.with_chunk(chunk));
    run_campaign(
        &Engine::with_workers(WORKERS),
        &plan,
        EarlyStop::never(),
        skewed_trial,
    )
}

/// Wall-clock and steal counters of the median-wall run out of `samples`
/// runs — one coherent run's statistics, not a mix across runs.
fn median_run(chunk: Option<u64>, samples: usize) -> (Duration, u64, u64) {
    let mut runs = Vec::with_capacity(samples);
    for _ in 0..samples {
        let outcome = run_mode(chunk);
        assert_eq!(outcome.summary.trials, TRIALS);
        runs.push((
            outcome.stats.wall,
            outcome.stats.steals,
            outcome.stats.chunks_stolen,
        ));
    }
    runs.sort();
    runs[runs.len() / 2]
}

fn main() {
    // Scheduling must not change the science: every mode aggregates
    // bit-identically.
    let block = run_mode(BLOCK);
    for mode in [STEAL, DEFAULT] {
        assert_eq!(
            block.summary,
            run_mode(mode).summary,
            "chunking/stealing changed the campaign aggregate ({mode:?})"
        );
    }

    let (block_wall, _, _) = median_run(BLOCK, 3);
    let (steal_wall, steals, stolen) = median_run(STEAL, 3);
    let (default_wall, _, _) = median_run(DEFAULT, 3);
    let over_block = |wall: Duration| block_wall.as_secs_f64() / wall.as_secs_f64().max(1e-9);
    let speedup = over_block(steal_wall);
    let default_speedup = over_block(default_wall);
    let cost = skew();
    let json = format!(
        "{{\n  \"bench\": \"skewed_steal\",\n  \"workers\": {WORKERS},\n  \
         \"trials\": {TRIALS},\n  \"shards\": {SHARDS},\n  \
         \"skew_factor\": {:.3},\n  \"block_wall_us\": {},\n  \
         \"steal_wall_us\": {},\n  \"steal_speedup\": {:.3},\n  \
         \"steals\": {},\n  \"chunks_stolen\": {},\n  \
         \"default_wall_us\": {},\n  \"default_speedup\": {:.3}\n}}\n",
        cost.skew_factor(TRIALS),
        block_wall.as_micros(),
        steal_wall.as_micros(),
        speedup,
        steals,
        stolen,
        default_wall.as_micros(),
        default_speedup
    );
    let path = relcnn_bench::results_dir().join("skewed_steal.json");
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!(
        "\nskewed workload (skew factor {:.1}): whole-shard claiming {block_wall:?}, \
         work stealing {steal_wall:?} => {speedup:.2}x ({steals} steals, {stolen} chunks moved), \
         default chunking {default_wall:?} => {default_speedup:.2}x",
        cost.skew_factor(TRIALS)
    );
    println!("wrote {}", path.display());
    // No perf asserts here: the bench *reports*, `bench_gate` owns the
    // ≥2x / steals>0 floors — so a regressed run still publishes its
    // artefact for the gate (and a human) to diagnose.
}
