//! Emits the determinism-matrix JSONL artefact.
//!
//! Runs a fixed, skewed, early-aborting fault-injection campaign at a
//! chosen worker count / chunk size and writes the engine's footerless
//! JSONL result stream to a file. The stream is a pure function of the
//! campaign identity `(trials, seed, shards)` — *not* of the worker
//! count, the chunk size, the steal schedule or the ingestion path — so
//! CI runs this subcommand at workers 1/2/8 (and different chunkings and
//! sources) and diffs the artefacts byte for byte.
//!
//! ```text
//! artifact determinism --workers 8 --chunk 1 --out /tmp/w8.jsonl
//! artifact determinism --workers 8 --profile cpu --out /tmp/w8_cpu.jsonl
//! artifact determinism --workers 8 --source streaming --out /tmp/w8_s.jsonl
//! ```
//!
//! Two workload profiles cover the engine's two scheduling regimes:
//!
//! * `latency` (default) — trials sleep per `SkewedCost`, so
//!   multi-worker runs overlap waits and steal even on a 1-core host;
//! * `cpu` — trials spin through a skewed number of injector exposures
//!   with no sleeps, driving the engine's result path the way a
//!   compute-bound campaign does (send-blocking and coalescing under full
//!   CPU contention).
//!
//! Three ingestion paths cover the engine's trial-input plumbing: `plan`
//! (the classic index-driven path), `eager` (the same per-trial workload
//! descriptors materialised up front and pulled through a
//! `SliceSource`), and `streaming` (descriptors generated lazily, one
//! chunk at a time, through an `FnSource`). All three must produce
//! byte-identical artefacts — the streaming leg of the CI matrix.
//!
//! `--metrics` runs the same campaign on a registry-observed engine
//! (live `relcnn-obs` publication on). The artefact must still be
//! byte-identical to the metrics-off reference — the CI matrix leg that
//! proves metrics publication is write-only side traffic off the
//! deterministic path.
//!
//! `--trace` runs the same campaign on a flight-recorded engine (ring
//! buffers on, spans recorded for every chunk, steal and release).
//! The exported Chrome-trace JSON is validated in-process and the
//! artefact must again be byte-identical to the trace-off reference —
//! the matrix leg that proves tracing is equally off the deterministic
//! path.
//!
//! Each artefact ends with a `{"partial_aggregate":...}` line produced by
//! a second run of the same campaign into the bare `CampaignSink`, whose
//! partial is a `CampaignReport` folded on the workers (no trial crosses
//! the channel), asserted in-process to match the aggregate of the teed
//! run, whose partial is a `Block` of trials — so the CI byte-diff covers
//! both sinks, not just the one that feeds the JSONL lines.

use relcnn_bench::workload::{Profile, BASE_SEED, SHARDS, TRIALS};
use relcnn_bench::Args;
use relcnn_runtime::{
    CampaignSink, EarlyStop, Engine, FnSource, FnSourcedTrial, FnTrial, JsonlSink, RunOutcome,
    RunPlan, Sink, SliceSource, TrialCtx, TrialResult,
};

/// Which route delivers the workload descriptors to the workers.
#[derive(Clone, Copy, PartialEq)]
enum Source {
    /// Classic index-driven path: the trial derives its own descriptor.
    Plan,
    /// Dataset materialised up front, pulled through a `SliceSource`.
    Eager,
    /// Dataset generated lazily per chunk through an `FnSource`.
    Streaming,
}

/// Runs the campaign once through the chosen ingestion path on `engine`
/// (plain or metrics-observed — the artefact bytes must not care).
fn run_one<S: Sink<TrialResult>>(
    engine: &Engine,
    plan: &RunPlan,
    profile: Profile,
    source: Source,
    sink: S,
) -> RunOutcome<S::Summary> {
    match source {
        Source::Plan => engine.run(
            plan,
            &FnTrial::new(move |ctx: &mut TrialCtx| profile.trial(ctx.seed)),
            sink,
        ),
        Source::Eager => {
            let dataset: Vec<u64> = (0..TRIALS).map(|i| profile.item(i)).collect();
            engine.run_source(
                plan,
                &SliceSource::new(&dataset),
                &FnSourcedTrial::new(move |item: &u64, ctx: &mut TrialCtx| {
                    profile.run(*item, ctx.seed)
                }),
                sink,
            )
        }
        Source::Streaming => engine.run_source(
            plan,
            &FnSource::new(TRIALS, move |i| profile.item(i)),
            &FnSourcedTrial::new(move |item, ctx: &mut TrialCtx| profile.run(item, ctx.seed)),
            sink,
        ),
    }
}

/// The `--source` spellings.
const SOURCES: [(&str, Source); 3] = [
    ("plan", Source::Plan),
    ("eager", Source::Eager),
    ("streaming", Source::Streaming),
];

pub fn run(args: &Args) {
    let workers = args.value("--workers").unwrap_or(1usize);
    let chunk = args.value("--chunk").unwrap_or(0u64);
    let out: String = args
        .value("--out")
        .unwrap_or_else(|| args.fail("--out is required"));
    let early_stop = !args.switch("--no-abort");
    let metrics = args.switch("--metrics");
    let trace = args.switch("--trace");
    let profile = (args.value_with("--profile", Profile::parse)).unwrap_or(Profile::Latency);
    let (source_name, source) = args
        .value_with("--source", |v| {
            SOURCES.into_iter().find(|(name, _)| *name == v)
        })
        .unwrap_or(SOURCES[0]);

    let plan = RunPlan::new(TRIALS, BASE_SEED)
        .with_shards(SHARDS)
        .with_chunk(chunk);
    let policy = if early_stop {
        // Fires deep into the shard prefix on this workload — past the
        // skewed tail's onset — so the artefact witnesses both heavy
        // stolen chunks and the stop decision.
        EarlyStop::on_escalations(48)
    } else {
        EarlyStop::never()
    };

    // With `--metrics` the same campaign runs on a registry-observed
    // engine — live publication on, artefact bytes required identical
    // (the CI matrix leg byte-diffs metrics-on vs metrics-off).
    let registry = relcnn_obs::Registry::new();
    // With `--trace` the same campaign runs on a flight-recorded engine —
    // rings on, spans recorded; the artefact bytes must again be
    // identical (the CI matrix leg byte-diffs trace-on vs trace-off).
    let recorder = if trace {
        // The process name the exported timeline shows.
        relcnn_obs::TraceRecorder::new("determinism_artifact")
    } else {
        relcnn_obs::TraceRecorder::off()
    };
    let mut engine = Engine::with_workers(workers);
    if metrics {
        engine = engine.observed(&registry);
    }
    if trace {
        engine = engine.traced(&recorder);
    }

    // `JsonlSink` buffers internally, so the raw file handle is enough.
    // Its partial is a `Block`: every trial crosses the channel, is
    // written as a line and is re-folded for the inner `CampaignSink`.
    let file = std::fs::File::create(&out).unwrap_or_else(|e| panic!("create {out}: {e}"));
    let sink = JsonlSink::new(file, CampaignSink::new(policy)).without_footer();
    let outcome = run_one(&engine, &plan, profile, source, sink);

    // Second run on the bare `CampaignSink`: workers fold chunk-local
    // `CampaignReport`s and no trial ever crosses the channel. Its
    // aggregate is appended to the artefact, so the CI byte-diff across
    // worker counts covers *both* sinks — and the two must agree with
    // each other here and now.
    let partial = run_one(&engine, &plan, profile, source, CampaignSink::new(policy));
    assert_eq!(
        partial.summary, outcome.summary,
        "bare CampaignSink diverged from the JSONL-teed CampaignSink"
    );
    assert_eq!(partial.stats.shards, outcome.stats.shards);
    {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&out)
            .unwrap_or_else(|e| panic!("append {out}: {e}"));
        let report = serde_json::to_string(&partial.summary)
            .unwrap_or_else(|e| panic!("serialize partial aggregate: {e}"));
        writeln!(file, "{{\"partial_aggregate\":{report}}}")
            .unwrap_or_else(|e| panic!("append partial aggregate to {out}: {e}"));
    }

    // When observed, the registry must have collected both runs and
    // render as structurally valid exposition text (stderr only — the
    // artefact file never sees a metric).
    if metrics {
        let page = registry.render();
        let parsed = relcnn_obs::parse::validate(&page)
            .unwrap_or_else(|e| panic!("observed run rendered invalid exposition: {e}"));
        // Early abort lets workers execute past the released prefix
        // (schedule-dependent overshoot), so executed is a lower-bounded
        // check, not an equality.
        let released = (outcome.summary.trials + partial.summary.trials) as f64;
        let executed = parsed
            .value("relcnn_engine_trials_executed_total", &[])
            .expect("registry missing relcnn_engine_trials_executed_total");
        assert!(
            executed >= released,
            "registry saw {executed} executed trials < {released} released"
        );
        assert_eq!(
            parsed.value("relcnn_engine_runs_completed_total", &[]),
            Some(2.0),
            "registry should have observed both runs"
        );
        eprintln!(
            "{out}: metrics on — registry valid, {} families, {executed} trials executed \
             across both runs ({released} released)",
            page.lines().filter(|l| l.starts_with("# TYPE")).count(),
        );
    }

    // When traced, the recorder must hold both runs' timelines and the
    // Chrome-trace export must be validator-clean (stderr only — the
    // artefact file never sees a trace event).
    if trace {
        let snapshot = recorder.drain();
        let recorded = snapshot.recorded_events();
        let dropped = snapshot.dropped_events();
        let chrome = relcnn_obs::trace::export_chrome(&[snapshot]);
        let parsed = relcnn_obs::trace::validate(&chrome)
            .unwrap_or_else(|e| panic!("traced run exported an invalid timeline: {e}"));
        assert_eq!(
            parsed.count('B', "run"),
            2,
            "recorder should hold a run span per campaign run"
        );
        assert!(
            parsed.count('B', "chunk") > 0,
            "traced campaign recorded no chunk spans"
        );
        assert!(
            parsed.count('i', "release") > 0,
            "traced campaign recorded no aggregator releases"
        );
        eprintln!(
            "{out}: trace on — {} events exported ({recorded} recorded, {dropped} dropped), \
             validator clean",
            parsed.event_count(),
        );
    }

    let profile_name = profile.name();
    eprintln!(
        "{out}: profile={profile_name} source={source_name} workers={workers} chunk={chunk} \
         trials={} shards={}/{} aborted={} steals={} max_reorder_depth={} safety={:.4}",
        outcome.summary.trials,
        outcome.stats.shards,
        outcome.stats.planned_shards,
        outcome.stats.aborted,
        outcome.stats.steals,
        outcome.stats.max_reorder_depth,
        outcome.summary.safety_rate()
    );
}
