//! Bounds the engine's heap allocations per trial: a run's allocation
//! count may grow only by a small constant from 4 096 to 65 536 trials,
//! so nothing on the result path allocates per trial (recycled envelope
//! payloads, coalesced sends, the sink's own doubling growth).
//!
//! A counting `#[global_allocator]` wraps the system allocator and each
//! leg counts the allocation events of one `Engine::run`. Thread spawns,
//! `RunStats` and the first few envelope payloads cost a fixed number of
//! allocations per run; what is left must not scale with the trial
//! count. This file deliberately contains a single test: the harness runs
//! tests in one process, and a sibling test allocating on another thread
//! would poison the counter.

use relcnn_runtime::{
    CampaignSink, CollectSink, CountSink, EarlyStop, Engine, FnTrial, JsonlSink, RunPlan, Sink,
    TrialCtx, TrialOutcome, TrialResult,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// System allocator with an allocation-event counter (`realloc` counts as
/// an event, `dealloc` does not — see `nn/tests/zero_alloc.rs`).
struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const SMALL: u64 = 4_096;
const LARGE: u64 = 65_536;
/// Whole-run bound at one worker, where the schedule barely varies: the
/// most any sink cost before every sink took partials was 103.
const ONE_WORKER_RUN: u64 = 128;

/// Allocation events of one run of `trials` trials into `sink`.
fn allocs_of_run<O, S>(workers: usize, chunk: u64, trials: u64, f: fn(u64) -> O, sink: S) -> u64
where
    O: Send,
    S: Sink<O>,
{
    let plan = RunPlan::new(trials, 7).with_chunk(chunk);
    let trial = FnTrial::new(move |ctx: &mut TrialCtx| f(ctx.index));
    let engine = Engine::with_workers(workers);
    let before = ALLOCS.load(Ordering::Relaxed);
    let outcome = engine.run(&plan, &trial, sink);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(outcome.stats.trials, trials);
    drop(outcome);
    allocs
}

fn campaign_trial(index: u64) -> TrialResult {
    TrialResult {
        outcome: if index.is_multiple_of(5) {
            TrialOutcome::DetectedRecovered
        } else {
            TrialOutcome::Correct
        },
        injector: Default::default(),
    }
}

#[test]
fn run_allocations_do_not_grow_with_the_trial_count() {
    // Growth bounds, set with headroom over what the engine measured
    // before every sink took partials (release and debug, 2 vCPUs, 4
    // runs; allocations at 4 096 → 65 536 trials): count/campaign 24–56
    // → 25–58, growth ≤ 10; collect at 1 worker 46–53 → 47–103, growth
    // ≤ 51; collect at 2 workers 135–335 → 127–428, growth ≤ 202. The
    // collect sink's own `Vec` doubles four more times on the larger run,
    // and how many envelope payloads are in flight at once (each grown
    // once, then recycled) depends on the schedule. A payload that is not
    // recycled costs ~10 reallocations per 1 024-trial envelope (~3 per
    // envelope at the default chunk, which the one-worker whole-run bound
    // catches); an allocation per trial costs 61 440.
    let mut failures = Vec::new();
    for workers in [1usize, 2] {
        for chunk in [0u64, 1] {
            let collect_bound = if workers == 1 { 128 } else { 1_024 };
            let legs: [(&str, u64, u64, u64); 3] = [
                (
                    "collect",
                    allocs_of_run(workers, chunk, SMALL, |i| i, CollectSink::new()),
                    allocs_of_run(workers, chunk, LARGE, |i| i, CollectSink::new()),
                    collect_bound,
                ),
                (
                    "count",
                    allocs_of_run(workers, chunk, SMALL, |i| i, CountSink::new()),
                    allocs_of_run(workers, chunk, LARGE, |i| i, CountSink::new()),
                    64,
                ),
                (
                    "campaign",
                    allocs_of_run(
                        workers,
                        chunk,
                        SMALL,
                        campaign_trial,
                        CampaignSink::new(EarlyStop::never()),
                    ),
                    allocs_of_run(
                        workers,
                        chunk,
                        LARGE,
                        campaign_trial,
                        CampaignSink::new(EarlyStop::never()),
                    ),
                    64,
                ),
            ];
            for (name, small, large, bound) in legs {
                let growth = large.saturating_sub(small);
                println!(
                    "{name:>8} workers={workers} chunk={chunk}: {small} allocs at {SMALL} \
                     trials, {large} at {LARGE} (growth {growth}, bound {bound})"
                );
                if growth > bound {
                    failures.push(format!(
                        "{name} workers={workers} chunk={chunk}: growth {growth} > {bound}"
                    ));
                }
                if workers == 1 && small.max(large) > ONE_WORKER_RUN {
                    failures.push(format!(
                        "{name} workers=1 chunk={chunk}: {} allocs > {ONE_WORKER_RUN}",
                        small.max(large)
                    ));
                }
            }
            // Reported, not gated: the vendored `serde_json::to_string`
            // allocates per line (it builds a `Value` tree first).
            let jsonl = allocs_of_run(
                workers,
                chunk,
                SMALL,
                campaign_trial,
                JsonlSink::new(std::io::sink(), CampaignSink::new(EarlyStop::never())),
            );
            println!("   jsonl workers={workers} chunk={chunk}: {jsonl} allocs at {SMALL} trials");
        }
    }
    assert!(
        failures.is_empty(),
        "allocations grew with the trial count:\n{}",
        failures.join("\n")
    );
}
