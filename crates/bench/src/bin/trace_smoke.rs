//! Flight-recorder smoke: the CI leg that proves tracing is *loadable*
//! and *off the deterministic path* in every instrumented subsystem.
//!
//! Three legs, each run twice — flight recorder off (reference) and on —
//! with the deterministic artefact required byte-identical both ways,
//! and every exported Chrome-trace JSON revalidated with the in-tree
//! validator before it lands in `results/`:
//!
//! 1. **Campaign** — the canonical skewed fault-injection campaign on a
//!    traced engine; the JSONL result stream must not move a byte, and
//!    the timeline must narrate chunks, releases and shard completions.
//! 2. **Serving replay** — the virtual-clock serving artefact trace on a
//!    traced server + traced engine; outcomes, report and controller
//!    decision log must not move a byte.
//! 3. **Chaos cluster** — a 3-worker cluster run with a seeded
//!    deterministic kill; the stitched aggregate must byte-match the
//!    trace-off run, and the merged multi-process timeline must show the
//!    whole recovery story: ≥ 3 pid tracks with `kill`, `requeue` and
//!    `degraded_completion` events.
//!
//! Per-leg event counts land in `results/trace_smoke.json` for
//! `bench_gate`'s trace counters line (which hard-asserts the requeue
//! events survived). Exits non-zero on any violation.

use relcnn_bench::workload::{
    artifact_load, artifact_server, cluster_job, cluster_task, cnn_backend, merge_cluster_outputs,
    Profile, BASE_SEED, SHARDS, TRIALS,
};
use relcnn_cluster::{run_cluster, run_worker_if_spawned, ChaosPlan, ClusterConfig, ClusterHooks};
use relcnn_obs::trace::{export_chrome, validate, ParsedTrace, TraceRecorder, TraceSnapshot};
use relcnn_runtime::{CampaignSink, EarlyStop, Engine, FnTrial, JsonlSink, RunPlan, TrialCtx};
use relcnn_serve::{LoadGen, Server};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Validates an exported timeline, writes it under `results/`, and
/// returns the parsed view for event assertions.
fn export_and_validate(name: &str, snapshots: &[TraceSnapshot]) -> ParsedTrace {
    let chrome = export_chrome(snapshots);
    let parsed =
        validate(&chrome).unwrap_or_else(|e| panic!("{name}: exported trace invalid: {e}"));
    let path = relcnn_bench::results_dir().join(name);
    std::fs::write(&path, &chrome).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!(
        "{}: {} events, {} pid tracks, validator clean",
        path.display(),
        parsed.event_count(),
        parsed.pids().len()
    );
    parsed
}

fn assert_identical(leg: &str, traced: &str, reference: &str) {
    assert!(
        traced == reference,
        "{leg}: trace-on artefact diverged from trace-off ({} vs {} bytes)",
        traced.len(),
        reference.len()
    );
}

/// Campaign leg: the determinism artefact's byte surface on a traced
/// engine. Returns the artefact string.
fn campaign_artifact(recorder: &TraceRecorder) -> String {
    let profile = Profile::Latency;
    let plan = RunPlan::new(TRIALS, BASE_SEED)
        .with_shards(SHARDS)
        .with_chunk(2);
    let engine = Engine::with_workers(4).traced(recorder);
    let mut buf = Vec::new();
    let sink =
        JsonlSink::new(&mut buf, CampaignSink::new(EarlyStop::on_escalations(48))).without_footer();
    engine.run(
        &plan,
        &FnTrial::new(move |ctx: &mut TrialCtx| profile.trial(ctx.seed)),
        sink,
    );
    String::from_utf8(buf).expect("JSONL artefact is UTF-8")
}

/// Serving leg: the virtual-clock replay's byte surface on a traced
/// server and engine.
fn serving_artifact(recorder: &TraceRecorder) -> String {
    let load = artifact_load(201, "poisson").expect("poisson is an arrival process");
    let trace = LoadGen::new(load).generate();
    let backend = cnn_backend();
    let engine = Engine::with_workers(2).traced(recorder);
    let run = Server::new(artifact_server())
        .backend(&backend)
        .engine(&engine)
        .traced(recorder)
        .run(&trace);
    let mut artefact = format!("{:?}\n{}\n", run.outcomes, run.report.to_json());
    for record in &run.control {
        artefact.push_str(&record.to_json());
        artefact.push('\n');
    }
    artefact
}

/// Chaos-kill cluster leg. Returns the stitched artefact plus the
/// merged (head + shipped worker) snapshots.
fn cluster_artifact(recorder: &TraceRecorder) -> (String, Vec<TraceSnapshot>) {
    let job = cluster_job(Profile::Latency, 2);
    let config = ClusterConfig::new(3)
        .with_task_shards(2)
        .with_chaos(ChaosPlan::kill_one(job.seed, 3));
    let hooks = if recorder.is_on() {
        ClusterHooks::none().with_trace(recorder)
    } else {
        ClusterHooks::none()
    };
    let outcome = run_cluster(&config, &job, cluster_task, &hooks)
        .unwrap_or_else(|e| panic!("chaos cluster run: {e}"));
    assert!(
        outcome.stats.degraded && outcome.stats.tasks_requeued >= 1,
        "chaos kill leg must degrade and requeue: {}",
        outcome.stats.to_json()
    );
    let (merged, payload) = merge_cluster_outputs(&outcome.outputs);
    let report = serde_json::to_string(&merged).expect("serialize merged aggregate");
    let mut snapshots = vec![recorder.drain()];
    snapshots.extend(outcome.traces);
    (
        format!("{payload}{{\"partial_aggregate\":{report}}}\n"),
        snapshots,
    )
}

fn main() {
    // Must run before anything else: a forked worker re-enters this
    // binary and must never fall through into head code.
    run_worker_if_spawned(cluster_task);

    let budget = relcnn_bench::wall_budget_us();
    let done = Arc::new(AtomicBool::new(false));
    {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_micros(budget));
            if !done.load(Ordering::SeqCst) {
                eprintln!("trace_smoke: exceeded the {budget} us wall budget");
                std::process::exit(3);
            }
        });
    }

    // --- 1. campaign ------------------------------------------------
    let reference = campaign_artifact(&TraceRecorder::off());
    let recorder = TraceRecorder::new("campaign");
    let traced = campaign_artifact(&recorder);
    assert_identical("campaign", &traced, &reference);
    let snapshot = recorder.drain();
    let (campaign_recorded, campaign_dropped) =
        (snapshot.recorded_events(), snapshot.dropped_events());
    let campaign = export_and_validate("trace_campaign.json", &[snapshot]);
    assert!(campaign.count('B', "run") >= 1, "campaign: no run span");
    assert!(
        campaign.count('B', "chunk") >= 1,
        "campaign: no chunk spans"
    );
    assert!(
        campaign.count('i', "release") >= 1,
        "campaign: no aggregator releases"
    );
    println!("campaign: byte-identical with tracing on");

    // --- 2. serving replay ------------------------------------------
    let reference = serving_artifact(&TraceRecorder::off());
    let recorder = TraceRecorder::new("serving");
    let traced = serving_artifact(&recorder);
    assert_identical("serving", &traced, &reference);
    let snapshot = recorder.drain();
    let (serving_recorded, serving_dropped) =
        (snapshot.recorded_events(), snapshot.dropped_events());
    let serving = export_and_validate("trace_serving.json", &[snapshot]);
    assert!(serving.count('B', "batch") >= 1, "serving: no batch spans");
    assert!(
        serving.count('i', "admit") >= 1,
        "serving: no admit instants"
    );
    assert!(
        serving.count('i', "complete") >= 1,
        "serving: no completions"
    );
    println!("serving: byte-identical with tracing on");

    // --- 3. chaos cluster -------------------------------------------
    let (reference, _) = cluster_artifact(&TraceRecorder::off());
    let recorder = TraceRecorder::new("cluster-head");
    let (traced, snapshots) = cluster_artifact(&recorder);
    assert_identical("cluster chaos kill", &traced, &reference);
    let cluster_recorded: u64 = snapshots.iter().map(|s| s.recorded_events()).sum();
    let cluster_dropped: u64 = snapshots.iter().map(|s| s.dropped_events()).sum();
    let cluster = export_and_validate("trace_cluster_chaos.json", &snapshots);
    let pid_tracks = cluster.pids().len();
    let kill_events = cluster.count('i', "kill");
    let requeue_events = cluster.count('i', "requeue");
    let degraded_events = cluster.count('i', "degraded_completion");
    assert!(
        pid_tracks >= 3,
        "merged chaos timeline has {pid_tracks} pid tracks, need >= 3"
    );
    assert!(
        kill_events >= 1 && requeue_events >= 1 && degraded_events >= 1,
        "merged chaos timeline must show kill ({kill_events}), requeue ({requeue_events}) \
         and degraded completion ({degraded_events})"
    );
    println!(
        "cluster chaos: byte-identical with tracing on; merged timeline shows \
         kill -> requeue -> degraded completion across {pid_tracks} pid tracks"
    );

    // --- results for the gate ---------------------------------------
    let json = format!(
        "{{\"campaign_events\":{campaign_recorded},\"campaign_dropped\":{campaign_dropped},\
         \"serving_events\":{serving_recorded},\"serving_dropped\":{serving_dropped},\
         \"cluster_events\":{cluster_recorded},\"cluster_dropped\":{cluster_dropped},\
         \"cluster_pid_tracks\":{pid_tracks},\"kill_events\":{kill_events},\
         \"requeue_events\":{requeue_events},\"degraded_completion_events\":{degraded_events},\
         \"byte_identical_legs\":3}}"
    );
    let path = relcnn_bench::results_dir().join("trace_smoke.json");
    std::fs::write(&path, format!("{json}\n"))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));

    done.store(true, Ordering::SeqCst);
    println!(
        "trace_smoke: OK — tracing is provably off the deterministic path \
         ({} -> gate)",
        path.display()
    );
}
