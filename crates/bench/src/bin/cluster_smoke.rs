//! Cluster smoke: the CI leg that proves multi-process campaigns are
//! topology-invariant *and* fault-tolerant without losing a byte.
//!
//! Three stages, one canonical campaign (`relcnn_bench::workload`), all
//! under a hard wall budget (`RELCNN_WALL_BUDGET_US` microseconds, 60 s
//! default — a hung fabric trips the watchdog instead of timing out the
//! CI job):
//!
//! 1. **Topology matrix** — for both workload profiles, the stitched
//!    artefact of 1 proc × 8 threads, 2 × 4 and 4 × 2 must byte-match
//!    the no-fork reference (`procs = 0`, head computes every task
//!    in-process), with zero losses.
//! 2. **Chaos legs** — seeded kill / corrupt-frame / hang plans against
//!    a 3-worker cluster: each run must finish **degraded** (worker
//!    lost, task requeued, the mode-specific detector fired) with the
//!    *same bytes* as the clean reference.
//! 3. **Results** — per-leg stats land in `results/cluster_smoke.json`
//!    for `bench_gate`'s cluster counters line.
//!
//! Exits non-zero (panics or watchdog exit 3) on any violation.
//! `--quick` drops the cpu-profile topology legs.

use relcnn_bench::workload::{cluster_job, cluster_task, merge_cluster_outputs, Profile};
use relcnn_cluster::{
    run_cluster, run_worker_if_spawned, ChaosPlan, ClusterConfig, ClusterHooks, ClusterStats,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Per-task deadline for the hang leg: long enough for a genuine
/// 2-shard latency task (tens of milliseconds of sleeps), short enough
/// that the smoke stays fast when the deterministic hang fires.
const HANG_TASK_TIMEOUT_MS: u64 = 2_000;

/// Runs one cluster leg and returns the artefact bytes plus stats.
fn leg(
    profile: Profile,
    procs: usize,
    threads: usize,
    config: ClusterConfig,
) -> (String, ClusterStats) {
    let job = cluster_job(profile, threads);
    let outcome = run_cluster(&config, &job, cluster_task, &ClusterHooks::none())
        .unwrap_or_else(|e| panic!("cluster run ({} p{procs} t{threads}): {e}", profile.name()));
    let (merged, payload) = merge_cluster_outputs(&outcome.outputs);
    let report = serde_json::to_string(&merged).expect("serialize merged aggregate");
    (
        format!("{payload}{{\"partial_aggregate\":{report}}}\n"),
        outcome.stats,
    )
}

/// Points at the first differing line of two artefacts (assert_eq! on
/// multi-thousand-line strings is unreadable in CI logs).
fn assert_same_bytes(what: &str, got: &str, reference: &str) {
    if got == reference {
        return;
    }
    let line = got
        .lines()
        .zip(reference.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| got.lines().count().min(reference.lines().count()));
    panic!(
        "{what}: artefact diverged from the reference at line {line} \
         ({} vs {} bytes)",
        got.len(),
        reference.len()
    );
}

fn main() {
    // Must run before anything else: a forked worker re-enters this
    // binary and must never fall through into head code.
    run_worker_if_spawned(cluster_task);

    let budget = relcnn_bench::wall_budget_us();
    let done = Arc::new(AtomicBool::new(false));
    {
        // Watchdog: requeue/backoff bugs tend to present as hangs, and a
        // hung smoke must fail the leg, not stall the CI job.
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_micros(budget));
            if !done.load(Ordering::SeqCst) {
                eprintln!("cluster_smoke: exceeded the {budget} us wall budget");
                std::process::exit(3);
            }
        });
    }

    let profiles: &[Profile] = if relcnn_bench::quick_mode() {
        &[Profile::Latency]
    } else {
        &[Profile::Latency, Profile::Cpu]
    };

    // --- 1. topology matrix ----------------------------------------
    let mut latency_reference = String::new();
    let mut spawned = 0u64;
    for &profile in profiles {
        let (reference, ref_stats) = leg(profile, 0, 8, ClusterConfig::new(0).with_task_shards(2));
        assert!(
            !ref_stats.degraded && ref_stats.workers_lost == 0,
            "no-fork reference cannot degrade: {}",
            ref_stats.to_json()
        );
        for (procs, threads) in [(1usize, 8usize), (2, 4), (4, 2)] {
            let config = ClusterConfig::new(procs).with_task_shards(2);
            let (artefact, stats) = leg(profile, procs, threads, config);
            assert_same_bytes(
                &format!("{} {procs}x{threads}", profile.name()),
                &artefact,
                &reference,
            );
            assert!(
                !stats.degraded && stats.workers_lost == 0 && stats.tasks_requeued == 0,
                "clean topology run degraded: {}",
                stats.to_json()
            );
            spawned += stats.workers_spawned;
            println!(
                "topology {} {procs} procs x {threads} threads: byte-identical \
                 ({} tasks, {} frames in)",
                profile.name(),
                stats.tasks_completed,
                stats.frames_received
            );
        }
        if profile == Profile::Latency {
            latency_reference = reference;
        }
    }

    // --- 2. chaos legs against the latency reference ---------------
    let seed = cluster_job(Profile::Latency, 2).seed;
    let chaos_legs: [(&str, ChaosPlan, ClusterConfig); 3] = [
        (
            "kill",
            ChaosPlan::kill_one(seed, 3),
            ClusterConfig::new(3).with_task_shards(2),
        ),
        (
            "corrupt",
            ChaosPlan::corrupt_one(seed, 3),
            ClusterConfig::new(3).with_task_shards(2),
        ),
        (
            "hang",
            ChaosPlan::hang_one(seed, 3),
            ClusterConfig::new(3)
                .with_task_shards(2)
                .with_task_timeout_ms(HANG_TASK_TIMEOUT_MS),
        ),
    ];
    let mut chaos_stats: Vec<(String, ClusterStats)> = Vec::new();
    for (name, chaos, config) in chaos_legs {
        let (artefact, stats) = leg(Profile::Latency, 3, 2, config.with_chaos(chaos));
        assert_same_bytes(&format!("chaos {name}"), &artefact, &latency_reference);
        assert!(
            stats.degraded && stats.workers_lost >= 1 && stats.tasks_requeued >= 1,
            "chaos {name} must degrade and requeue: {}",
            stats.to_json()
        );
        let detector_fired = match name {
            "corrupt" => stats.corrupt_frames >= 1,
            "hang" => stats.task_timeouts >= 1,
            _ => true, // kill is detected as pipe EOF; no dedicated counter
        };
        assert!(
            detector_fired,
            "chaos {name}: expected detector did not fire: {}",
            stats.to_json()
        );
        spawned += stats.workers_spawned;
        println!(
            "chaos {name}: degraded completion, byte-identical aggregate \
             (lost {}, requeued {}, retries {}, local fallbacks {})",
            stats.workers_lost, stats.tasks_requeued, stats.task_retries, stats.local_fallbacks
        );
        chaos_stats.push((name.to_string(), stats));
    }

    // --- 3. results for the gate ------------------------------------
    let totals =
        |f: &dyn Fn(&ClusterStats) -> u64| -> u64 { chaos_stats.iter().map(|(_, s)| f(s)).sum() };
    let json = format!(
        "{{\"topology_legs\":{},\"chaos_legs\":{},\"workers_spawned\":{},\"workers_lost\":{},\
         \"tasks_requeued\":{},\"task_retries\":{},\"corrupt_frames\":{},\"task_timeouts\":{},\
         \"local_fallbacks\":{},\"degraded_runs\":{}}}",
        profiles.len() * 3,
        chaos_stats.len(),
        spawned,
        totals(&|s| s.workers_lost),
        totals(&|s| s.tasks_requeued),
        totals(&|s| s.task_retries),
        totals(&|s| s.corrupt_frames),
        totals(&|s| s.task_timeouts),
        totals(&|s| s.local_fallbacks),
        chaos_stats.iter().filter(|(_, s)| s.degraded).count(),
    );
    let path = relcnn_bench::results_dir().join("cluster_smoke.json");
    std::fs::write(&path, format!("{json}\n"))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));

    done.store(true, Ordering::SeqCst);
    println!(
        "cluster_smoke: OK — topology identity and degraded-mode identity hold \
         ({} -> gate)",
        path.display()
    );
}
