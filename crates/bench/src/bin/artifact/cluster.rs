//! Emits the multi-process determinism artefact.
//!
//! Runs the canonical campaign (`relcnn_bench::workload`) over the
//! cluster fabric — head process, N forked workers, shard-range tasks on
//! checksummed pipes — and writes the stitched JSONL stream plus the
//! merged `{"partial_aggregate":...}` footer. The output is required
//! byte-identical to `artifact determinism --no-abort` at the same
//! profile and to every other `--procs/--threads` topology, including
//! `--procs 0` (head computes everything in-process, no forks): the
//! process count joins the worker count, chunk size and steal schedule
//! on the list of things the artefact must not depend on.
//!
//! ```text
//! artifact cluster --procs 4 --threads 2 --out /tmp/p4t2.jsonl
//! artifact cluster --procs 1 --threads 8 --profile cpu --out /tmp/p1t8c.jsonl
//! artifact cluster --procs 3 --threads 2 --chaos kill --out /tmp/chaos.jsonl
//! ```
//!
//! The subcommand asserts its run's outcome in-process after writing the
//! artefact:
//!
//! * without `--chaos`, the run finishes clean: not degraded, no worker
//!   lost, no task requeued;
//! * `--chaos kill|corrupt|hang` injects the named deterministic fault
//!   (victim derived from the campaign seed); the run must then finish
//!   *degraded* — nonzero loss/requeue counters — with the same bytes,
//!   and the fault's detector must have fired (`corrupt_frames` for
//!   corrupt, `task_timeouts` for hang);
//! * with `--trace` and a chaos plan, the merged timeline must carry at
//!   least `--procs` pid tracks and `requeue` and `degraded_completion`
//!   instants (plus a `kill` instant under `--chaos kill`).

use relcnn_bench::workload::{cluster_job, cluster_task, merge_cluster_outputs, Profile, SHARDS};
use relcnn_bench::Args;
use relcnn_cluster::{run_cluster, ChaosPlan, ClusterConfig};
use relcnn_obs::trace::{export_chrome, validate, TraceRecorder};

/// Runs in the head: `main` has already diverted forked workers into
/// `run_worker_if_spawned`.
pub fn run(args: &Args) {
    let procs = args.value("--procs").unwrap_or(1usize);
    let threads = args.value("--threads").unwrap_or(2usize);
    let task_timeout_ms: Option<u64> = args.value("--task-timeout-ms");
    let profile = (args.value_with("--profile", Profile::parse)).unwrap_or(Profile::Latency);
    let chaos_name = (args.value("--chaos")).unwrap_or_else(|| "none".to_string());
    let out: String = args
        .value("--out")
        .unwrap_or_else(|| args.fail("--out is required"));
    let trace_out: Option<String> = args.value("--trace");

    let job = cluster_job(profile, threads);
    let chaos = match chaos_name.as_str() {
        "none" => ChaosPlan::none(),
        "kill" => ChaosPlan::kill_one(job.seed, procs),
        "corrupt" => ChaosPlan::corrupt_one(job.seed, procs),
        "hang" => ChaosPlan::hang_one(job.seed, procs),
        _ => args.fail(&format!("unknown chaos plan `{chaos_name}`")),
    };
    if !chaos.is_none() && procs == 0 {
        args.fail("--chaos needs worker processes to injure (--procs >= 1)");
    }

    let mut config = ClusterConfig::new(procs).with_chaos(chaos);
    if let Some(ms) = task_timeout_ms {
        config = config.with_task_timeout_ms(ms);
    }

    let recorder = if trace_out.is_some() {
        TraceRecorder::new("cluster-head")
    } else {
        TraceRecorder::off()
    };
    let outcome = run_cluster(&config, &job, cluster_task, &recorder)
        .unwrap_or_else(|e| panic!("cluster run failed: {e}"));
    let (merged, payload) = merge_cluster_outputs(&outcome.outputs);

    let report = serde_json::to_string(&merged)
        .unwrap_or_else(|e| panic!("serialize merged aggregate: {e}"));
    let artefact = format!("{payload}{{\"partial_aggregate\":{report}}}\n");
    std::fs::write(&out, artefact).unwrap_or_else(|e| panic!("write {out}: {e}"));

    // Merged multi-process timeline: head drain first (pid 1), then
    // every worker snapshot that made it home, in worker order.
    let timeline = trace_out.map(|trace_path| {
        let mut snapshots = vec![recorder.drain()];
        snapshots.extend(outcome.traces.iter().cloned());
        let chrome = export_chrome(&snapshots);
        let parsed =
            validate(&chrome).unwrap_or_else(|e| panic!("exported trace failed validation: {e}"));
        std::fs::write(&trace_path, &chrome).unwrap_or_else(|e| panic!("write {trace_path}: {e}"));
        eprintln!(
            "{trace_path}: {} events across {} pid tracks ({} recorded, {} dropped)",
            parsed.event_count(),
            parsed.pids().len(),
            snapshots.iter().map(|s| s.recorded_events()).sum::<u64>(),
            snapshots.iter().map(|s| s.dropped_events()).sum::<u64>(),
        );
        parsed
    });

    let s = &outcome.stats;
    let stats = serde_json::to_string(s).unwrap_or_else(|e| panic!("serialize stats: {e}"));
    eprintln!(
        "{out}: profile={} procs={procs} threads={threads} shards={SHARDS} \
         chaos={chaos_name} degraded={} stats={stats}",
        profile.name(),
        s.degraded,
    );
    if chaos.is_none() {
        assert!(
            !s.degraded && s.workers_lost == 0 && s.tasks_requeued == 0,
            "a chaos-free run must finish clean: {stats}"
        );
        return;
    }
    // A chaos run finishes degraded, and the fault's own detector fired
    // (a kill is detected as pipe EOF, which has no dedicated counter).
    let detected = match chaos_name.as_str() {
        "corrupt" => s.corrupt_frames >= 1,
        "hang" => s.task_timeouts >= 1,
        _ => true,
    };
    assert!(
        s.degraded && s.workers_lost > 0 && s.tasks_requeued > 0 && detected,
        "chaos {chaos_name} must finish degraded with loss/requeue counters and its \
         detector fired: {stats}"
    );
    // The recovery story reaches the merged timeline: every process that
    // shipped a ring home has a pid track, and the head narrates the
    // loss, the requeue and the degraded completion.
    if let Some(t) = timeline {
        let (pids, kills, requeues, degraded) = (
            t.pids().len(),
            t.count('i', "kill"),
            t.count('i', "requeue"),
            t.count('i', "degraded_completion"),
        );
        assert!(
            pids >= procs && requeues >= 1 && degraded >= 1 && (kills >= 1 || chaos_name != "kill"),
            "chaos {chaos_name} timeline: {pids} pid tracks (need >= {procs}), \
             {kills} kill, {requeues} requeue, {degraded} degraded_completion instants"
        );
    }
}
