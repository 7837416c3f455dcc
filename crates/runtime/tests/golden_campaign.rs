//! Golden digests of a campaign's footerless JSONL stream and its
//! [`CampaignReport`], recorded at the commit *before* the campaign
//! config struct and its seven wrapper entry points were retired (PR 16),
//! against those entry points. The calls below were then rewritten onto
//! `Engine::run` / `Engine::run_source`; the constants were not.
//!
//! Never refresh a constant to make a refactor pass: a changed digest
//! means a trial's seed, the release order or the stop shard moved.

use relcnn_faults::{BerInjector, FaultInjector, FaultSite, OpContext};
use relcnn_runtime::{
    merge_in_order, CampaignReport, CampaignSink, EarlyStop, Engine, FnSource, FnSourcedTrial,
    FnTrial, JsonlSink, RunPlan, SliceSource, TrialCtx, TrialOutcome, TrialResult,
};

const STOPPED_STREAM: u64 = 0xe571_113d_bee5_57c1;
const STOPPED_REPORT: u64 = 0x3111_b548_08e3_f7ef;
const WINDOWED_STREAM: u64 = 0xbb43_0913_49ac_4586;
const WINDOWED_REPORT: u64 = 0x1393_0fa6_bbfe_79f0;

const TRIALS: u64 = 360;
const SEED: u64 = 0x601D;
const SHARDS: usize = 12;

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Digest of every counter of the report, in declaration order.
fn report_digest(r: &CampaignReport) -> u64 {
    let fields = [
        r.trials,
        r.correct,
        r.detected_recovered,
        r.detected_aborted,
        r.silent,
        r.exposures,
        r.injected,
        r.masked,
    ];
    fnv1a(fields.into_iter().flat_map(u64::to_le_bytes))
}

/// The "dataset": extra injector exposures trial `i` runs.
fn descriptor(i: u64) -> u64 {
    (i % 7) * 3
}

/// A seeded trial whose outcome mixes every `TrialOutcome` variant.
fn trial(seed: u64, extra: u64) -> TrialResult {
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
}

fn plan() -> RunPlan {
    RunPlan::new(TRIALS, SEED).with_shards(SHARDS)
}

/// The index-driven trial: the descriptor is derived from the seed.
fn by_seed(ctx: &mut TrialCtx) -> TrialResult {
    trial(ctx.seed, descriptor(ctx.seed - SEED))
}

fn policy() -> EarlyStop {
    EarlyStop::on_escalations(40)
}

fn assert_stopped(label: &str, stream: &[u8], report: &CampaignReport) {
    assert!(
        report.trials > 0 && report.trials < TRIALS,
        "{label}: the escalation stop must fire mid-run: {report:?}"
    );
    let (s, r) = (fnv1a(stream.iter().copied()), report_digest(report));
    assert_eq!(s, STOPPED_STREAM, "{label}: stream {s:#018x}");
    assert_eq!(r, STOPPED_REPORT, "{label}: report {r:#018x}");
}

#[test]
fn index_driven_campaign_with_escalation_stop() {
    for workers in [1, 8] {
        let mut buf: Vec<u8> = Vec::new();
        let sink = JsonlSink::new(&mut buf, CampaignSink::new(policy())).without_footer();
        let report = Engine::with_workers(workers)
            .run(&plan(), &FnTrial::new(by_seed), sink)
            .summary;
        assert_stopped(&format!("index, workers={workers}"), &buf, &report);
    }
}

#[test]
fn same_campaign_through_slice_and_fn_sources() {
    let dataset: Vec<u64> = (0..TRIALS).map(descriptor).collect();
    for workers in [1, 8] {
        let mut buf: Vec<u8> = Vec::new();
        let sink = JsonlSink::new(&mut buf, CampaignSink::new(policy())).without_footer();
        let report = Engine::with_workers(workers)
            .run_source(
                &plan(),
                &SliceSource::new(&dataset),
                &FnSourcedTrial::new(|extra: &u64, ctx: &mut TrialCtx| trial(ctx.seed, *extra)),
                sink,
            )
            .summary;
        assert_stopped(&format!("SliceSource, workers={workers}"), &buf, &report);

        let mut buf: Vec<u8> = Vec::new();
        let sink = JsonlSink::new(&mut buf, CampaignSink::new(policy())).without_footer();
        let report = Engine::with_workers(workers)
            .run_source(
                &plan(),
                &FnSource::new(TRIALS, descriptor),
                &FnSourcedTrial::new(|extra, ctx: &mut TrialCtx| trial(ctx.seed, extra)),
                sink,
            )
            .summary;
        assert_stopped(&format!("FnSource, workers={workers}"), &buf, &report);
    }
}

#[test]
fn three_windows_stitched_in_shard_order() {
    let mut stream: Vec<u8> = Vec::new();
    let mut parts = Vec::new();
    for (lo, hi, workers) in [(0usize, 5usize, 1usize), (5, 8, 2), (8, SHARDS, 8)] {
        let mut buf: Vec<u8> = Vec::new();
        let sink = JsonlSink::new(&mut buf, CampaignSink::new(EarlyStop::never())).without_footer();
        parts.push(
            Engine::with_workers(workers)
                .run(
                    &plan().with_shard_window(lo, hi),
                    &FnTrial::new(by_seed),
                    sink,
                )
                .summary,
        );
        stream.extend_from_slice(&buf);
    }
    let report = merge_in_order::<TrialResult, _>(parts);
    assert_eq!(report.trials, TRIALS);
    let (s, r) = (fnv1a(stream), report_digest(&report));
    assert_eq!(s, WINDOWED_STREAM, "stream {s:#018x}");
    assert_eq!(r, WINDOWED_REPORT, "report {r:#018x}");
}
