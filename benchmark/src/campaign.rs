//! `campaign_faults_48`: the trained 48 px model classifying under a
//! bit-error injector, as engine campaigns.
//!
//! This uses `relexec` differently from the clean workloads — retries,
//! rollbacks and the leaky bucket are live — and `faults` at all: the
//! injector draws on every multiply and accumulate.

use crate::metrics::Outcome;
use crate::pace::Pace;
use crate::probe;
use crate::setup::{repeated, Budget, Kit, Oracle, TINY_48};
use crate::stats::{median, sliced_percentile, Digest};
use crate::Run;
use relcnn_core::{HybridCnn, HybridError};
use relcnn_faults::{BerInjector, FaultInjector, FaultSite};
use relcnn_runtime::{
    CampaignReport, CampaignSink, EarlyStop, Engine, RunPlan, RunStats, Trial, TrialCtx,
    TrialOutcome, TrialResult,
};
use relcnn_tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const BER: f64 = 1e-5;
/// Trials per engine run: long enough that the run's thread spawn and model
/// clone are amortised, short enough for a dozen segments in a run.
const SEGMENT: u64 = 250;
/// Serial faulty classifications timed between two segments.
const SERIAL: usize = 60;
/// Segments a run measures whatever `--seconds` says; the first
/// `DIGESTED` of them feed the digest.
const MIN_SEGMENTS: usize = 8;
const DIGESTED: usize = 4;

fn injector(seed: u64) -> BerInjector {
    BerInjector::new(seed, BER).with_sites(vec![FaultSite::Multiplier, FaultSite::Accumulator])
}

/// One trial: classify `pool[index mod len]` under an injector seeded by the
/// trial, and name what happened against the clean class.
struct FaultTrial<'a> {
    model: &'a HybridCnn,
    pool: &'a [Tensor],
    clean: &'a [usize],
    /// Trials that ended in an error other than the designed abort.
    errors: AtomicU64,
    /// Detected and recovered faults over the trials that completed; the
    /// campaign report does not carry them.
    detected: AtomicU64,
    recovered: AtomicU64,
}

impl Trial for FaultTrial<'_> {
    type State = HybridCnn;
    type Output = TrialResult;

    fn init(&self, _worker: usize) -> HybridCnn {
        self.model.clone()
    }

    fn run(&self, model: &mut HybridCnn, ctx: &mut TrialCtx) -> TrialResult {
        let image = ctx.index as usize % self.pool.len();
        let mut injector = injector(ctx.seed);
        let outcome = match model.classify_under_faults(&self.pool[image], &mut injector) {
            Ok(v) => {
                self.detected
                    .fetch_add(v.guarantee().detected, Ordering::Relaxed);
                self.recovered
                    .fetch_add(v.guarantee().recovered, Ordering::Relaxed);
                if v.class() != self.clean[image] {
                    TrialOutcome::SilentCorruption
                } else if v.guarantee().recovered > 0 {
                    TrialOutcome::DetectedRecovered
                } else {
                    TrialOutcome::Correct
                }
            }
            Err(HybridError::ReliablePathFailed(_)) => TrialOutcome::DetectedAborted,
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                TrialOutcome::DetectedAborted
            }
        };
        TrialResult {
            outcome,
            injector: injector.stats(),
        }
    }
}

/// Runs segment `index` of the campaign on `engine`. Trial seeds are
/// `seed + index · SEGMENT + trial`, so segments never share a seed.
fn segment(
    engine: &Engine,
    trial: &FaultTrial,
    seed: u64,
    index: usize,
) -> (CampaignReport, RunStats) {
    let plan = RunPlan::new(SEGMENT, seed.wrapping_add(index as u64 * SEGMENT));
    let run = engine.run(&plan, trial, CampaignSink::new(EarlyStop::never()));
    (run.summary, run.stats)
}

fn sum(reports: &[CampaignReport]) -> CampaignReport {
    let mut total = CampaignReport::empty();
    reports.iter().for_each(|r| total.merge(r));
    total
}

/// Segments of 250 trials at a bit-error rate of 1e-5 on multiplier and
/// accumulator, each one `Engine::run` into a `CampaignSink` on `nproc`
/// workers, with sixty serial faulty classifications between segments.
///
/// * `latency_p50_us`, `latency_p90_us`: one `classify_under_faults`, serial.
/// * `throughput_per_s`: trials per second, the median over the segments of
///   250 ÷ segment wall time.
pub fn campaign_faults_48(run: &Run, budget: &Budget) -> Outcome {
    let workers = crate::available_workers();
    let mut pace = Pace::new();
    let ((mut kit, clean, engine), setup_s) = repeated(11, &mut pace, || {
        let mut kit = Kit::build(&TINY_48, run.seed);
        let clean: Vec<usize> = kit
            .pool
            .iter()
            .map(|image| {
                kit.dmr
                    .classify(image)
                    .expect("clean classification")
                    .class()
            })
            .collect();
        (kit, clean, Engine::with_workers(workers))
    });
    let mut outcome = Outcome::default();
    let mut spans = run.spans();
    let mut clean_p50 = 0.0;
    if let Some(spans) = &mut spans {
        let mut oracle = Oracle::new(kit.pool.len());
        let seconds = run.seconds * 0.15;
        clean_p50 = probe::layers(
            &mut kit,
            spans,
            &mut pace,
            &mut oracle,
            &mut outcome,
            budget,
            seconds,
        );
        let probe = probe::Fills {
            model: &kit.dmr,
            pool: &kit.pool,
            engine: &engine,
            classify_p50: clean_p50,
        };
        probe.run(
            spans,
            &mut pace,
            &mut oracle,
            &mut outcome,
            budget,
            run.seconds * 0.1,
        );
    }
    let traced_engine = spans.as_ref().map(|s| engine.clone().traced(&s.recorder));

    let trial = FaultTrial {
        model: &kit.dmr,
        pool: &kit.pool,
        clean: &clean,
        errors: AtomicU64::new(0),
        detected: AtomicU64::new(0),
        recovered: AtomicU64::new(0),
    };
    let mut serial_model = kit.dmr.clone();
    let (mut reports, mut stats, mut per_s, mut traced_per_s, mut serial_us) = (
        Vec::new(),
        Vec::<RunStats>::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let share = if spans.is_some() { 0.75 } else { 1.0 };
    let deadline = Instant::now() + Duration::from_secs_f64(run.seconds * share);
    while Instant::now() < deadline || reports.len() < MIN_SEGMENTS {
        budget.check("campaign_faults_48");
        let index = reports.len();
        let ((report, run_stats), us) = pace.timed(|| segment(&engine, &trial, run.seed, index));
        per_s.push(SEGMENT as f64 * 1e6 / us);
        // Every trial reached the sink; those that ended in an error other
        // than the designed abort are added below.
        outcome.attempted += SEGMENT;
        outcome.failed += SEGMENT - report.trials.min(SEGMENT);
        // The traced pass repeats the segment with the engine's recorder on:
        // same trials, so the same counts, and the cost of observing.
        if let (Some(traced), Some(spans)) = (&traced_engine, &mut spans) {
            let (((again, _), us, _), factor) = pace.around(|| {
                spans.op("runtime.campaign_segment", || {
                    segment(traced, &trial, run.seed, index)
                })
            });
            traced_per_s.push(SEGMENT as f64 * 1e6 / (us * factor));
            outcome.check(again == report);
        }
        reports.push(report);
        stats.push(run_stats);
        for k in 0..SERIAL {
            let i = (index * SERIAL + k) % kit.pool.len();
            let mut injector = injector(
                run.seed
                    .wrapping_add(1 << 40)
                    .wrapping_add((index * SERIAL + k) as u64),
            );
            let (v, us) =
                pace.timed(|| serial_model.classify_under_faults(&kit.pool[i], &mut injector));
            serial_us.push(us);
            outcome.check(matches!(v, Ok(_) | Err(HybridError::ReliablePathFailed(_))));
        }
    }
    outcome.failed += trial.errors.load(Ordering::Relaxed);
    let detected = trial.detected.load(Ordering::Relaxed) as f64;
    let recovered = trial.recovered.load(Ordering::Relaxed) as f64;

    // Workers and chunking must not change a count: segment 0 again, on one
    // worker.
    let (alone, _) = segment(&Engine::with_workers(1), &trial, run.seed, 0);
    outcome.check(alone == reports[0]);

    let mut digest = Digest::new();
    for r in &reports[..DIGESTED] {
        for count in [
            r.correct,
            r.detected_recovered,
            r.detected_aborted,
            r.silent,
            r.exposures,
            r.injected,
        ] {
            digest.push(count);
        }
    }
    outcome.verdict_digest = digest.value();
    let faulty_p50 = median(&serial_us);
    eprintln!(
        "campaign_faults_48: {} segments of {SEGMENT} trials on {workers} workers, {} serial; \
         faulty classify p50 {faulty_p50:.0} us",
        reports.len(),
        serial_us.len()
    );

    let Some(spans) = spans else {
        let m = &mut outcome.metrics;
        m.set(
            "latency_p50_us",
            sliced_percentile(&serial_us, 50.0).expect("serial samples"),
        );
        m.set(
            "latency_p90_us",
            sliced_percentile(&serial_us, 90.0).expect("serial samples"),
        );
        m.set("throughput_per_s", median(&per_s));
        m.set("setup_s", setup_s);
        return outcome;
    };

    // Exact counts come from the digested segments, which every run executes.
    let total = sum(&reports[..DIGESTED]);
    let all = sum(&reports);
    let completed = (all.trials - all.detected_aborted).max(1) as f64;
    // Each segment ran twice, untraced and traced, and the trial's counters
    // saw both.
    let detected_per_trial = detected / 2.0 / completed;
    let exposures_per_trial = total.exposures as f64 / total.trials as f64;
    let wall: f64 = stats.iter().map(|s| s.wall.as_secs_f64()).sum();
    let busy: f64 = stats.iter().map(|s| s.busy.as_secs_f64()).sum();
    let over_bound: Vec<f64> = stats
        .iter()
        .map(|s| {
            // The lower bound on a segment's makespan: all work spread evenly,
            // or its longest trial.
            let longest = s.trial_hist.max() as f64 / 1e9;
            s.wall.as_secs_f64() / (s.busy.as_secs_f64() / s.workers as f64).max(longest)
        })
        .collect();
    let per_segment = |f: fn(&RunStats) -> f64| median(&stats.iter().map(f).collect::<Vec<_>>());
    let m = &mut outcome.metrics;
    m.set("relexec.retries_per_trial", detected_per_trial);
    m.set("relexec.recovered_share", recovered / detected.max(1.0));
    m.set(
        "relexec.abort_share",
        total.detected_aborted as f64 / total.trials as f64,
    );
    m.set(
        "relexec.silent_share",
        total.silent as f64 / total.trials as f64,
    );
    m.set("faults.exposures_per_trial", exposures_per_trial);
    m.set(
        "faults.flips_per_trial",
        total.injected as f64 / total.trials as f64,
    );
    m.set(
        "faults.ns_per_exposure",
        (faulty_p50 - clean_p50) * 1_000.0 / exposures_per_trial,
    );
    m.set("faults.injected_over_clean", faulty_p50 / clean_p50);
    m.set("runtime.busy_share", busy / (wall * workers as f64));
    m.set(
        "runtime.idle_us",
        per_segment(|s| s.idle.as_micros() as f64),
    );
    m.set("runtime.steals", per_segment(|s| s.steals as f64));
    m.set("runtime.splits", per_segment(|s| s.splits as f64));
    m.set(
        "runtime.send_block_us",
        per_segment(|s| s.send_block.as_micros() as f64),
    );
    m.set("runtime.makespan_over_bound", median(&over_bound));
    let (off, on) = (median(&per_s), median(&traced_per_s));
    m.set("obs.observer_overhead_share", (off - on) / off);
    run.finish_traced(outcome, &spans)
}
