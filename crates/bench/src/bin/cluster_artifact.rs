//! Emits the multi-process determinism artefact.
//!
//! Runs the canonical campaign (`relcnn_bench::workload`) over the
//! cluster fabric — head process, N forked workers, shard-range tasks on
//! checksummed pipes — and writes the stitched JSONL stream plus the
//! merged `{"partial_aggregate":...}` footer. The output is required
//! byte-identical to `determinism_artifact --no-abort` at the same
//! profile and to every other `--procs/--threads` topology, including
//! `--procs 0` (head computes everything in-process, no forks): the
//! process count joins the worker count, chunk size and steal schedule
//! on the list of things the artefact must not depend on.
//!
//! ```text
//! cluster_artifact --procs 4 --threads 2 --out /tmp/p4t2.jsonl
//! cluster_artifact --procs 1 --threads 8 --profile cpu --out /tmp/p1t8c.jsonl
//! cluster_artifact --procs 3 --threads 2 --chaos kill --out /tmp/chaos.jsonl
//! ```
//!
//! The binary asserts its run's outcome in-process after writing the
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
use relcnn_cluster::ClusterHooks;
use relcnn_cluster::{run_cluster, run_worker_if_spawned, ChaosPlan, ClusterConfig};
use relcnn_obs::trace::{export_chrome, validate, TraceRecorder};

fn usage() -> ! {
    eprintln!(
        "usage: cluster_artifact --procs N --out PATH [--threads T] [--profile latency|cpu] \
         [--task-shards W] [--chaos none|kill|corrupt|hang] [--task-timeout-ms MS] \
         [--trace PATH]\n\
         Writes the stitched JSONL artefact of the canonical campaign run over the\n\
         multi-process cluster fabric. --procs 0 computes every task in the head\n\
         process (the no-fork reference topology). --trace flight-records the head\n\
         and every worker and writes the merged Chrome-trace timeline to PATH;\n\
         the artefact stays byte-identical either way."
    );
    std::process::exit(2)
}

fn main() {
    // Must run before argument parsing: a forked worker re-enters this
    // same binary and must never fall through into head code.
    run_worker_if_spawned(cluster_task);

    let mut procs = 1usize;
    let mut threads = 2usize;
    let mut task_shards = 2usize;
    let mut task_timeout_ms: Option<u64> = None;
    let mut profile = Profile::Latency;
    let mut chaos_name = String::from("none");
    let mut out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--procs" => {
                procs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--task-shards" => {
                task_shards = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--task-timeout-ms" => {
                task_timeout_ms = args.next().and_then(|v| v.parse().ok());
                if task_timeout_ms.is_none() {
                    usage()
                }
            }
            "--profile" => {
                profile = args
                    .next()
                    .as_deref()
                    .and_then(Profile::parse)
                    .unwrap_or_else(|| usage())
            }
            "--chaos" => chaos_name = args.next().unwrap_or_else(|| usage()),
            "--out" => out = Some(args.next().unwrap_or_else(|| usage())),
            "--trace" => trace_out = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    let Some(out) = out else { usage() };

    let job = cluster_job(profile, threads);
    let chaos = match chaos_name.as_str() {
        "none" => ChaosPlan::none(),
        "kill" => ChaosPlan::kill_one(job.seed, procs),
        "corrupt" => ChaosPlan::corrupt_one(job.seed, procs),
        "hang" => ChaosPlan::hang_one(job.seed, procs),
        _ => usage(),
    };
    if !chaos.is_none() && procs == 0 {
        eprintln!("--chaos needs worker processes to injure (--procs >= 1)");
        std::process::exit(2);
    }

    let mut config = ClusterConfig::new(procs)
        .with_task_shards(task_shards)
        .with_chaos(chaos);
    if let Some(ms) = task_timeout_ms {
        config = config.with_task_timeout_ms(ms);
    }

    let recorder = if trace_out.is_some() {
        TraceRecorder::new("cluster-head")
    } else {
        TraceRecorder::off()
    };
    let mut hooks = ClusterHooks::none();
    if trace_out.is_some() {
        hooks = hooks.with_trace(&recorder);
    }

    let outcome = run_cluster(&config, &job, cluster_task, &hooks)
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
    eprintln!(
        "{out}: profile={} procs={procs} threads={threads} task_shards={task_shards}/{SHARDS} \
         chaos={chaos_name} degraded={} stats={}",
        profile.name(),
        s.degraded,
        s.to_json(),
    );
    if chaos.is_none() {
        assert!(
            !s.degraded && s.workers_lost == 0 && s.tasks_requeued == 0,
            "a chaos-free run must finish clean: {}",
            s.to_json()
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
         detector fired: {}",
        s.to_json()
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
