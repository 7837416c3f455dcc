//! CI bench-regression gate.
//!
//! Compares the freshly generated `results/runtime_scaling.json` and
//! `results/skewed_steal.json` (run `cargo bench -p relcnn-bench --bench
//! runtime_scaling --bench skewed_steal` first) against the committed
//! baselines in `results/baseline/`, and fails (exit 1) when:
//!
//! * latency-bound campaign throughput regresses more than the tolerance
//!   (default 10%, `RELCNN_GATE_TOLERANCE` overrides, e.g. `0.15`) at any
//!   worker count — this series is sleep-dominated, so its absolute
//!   trials/s are comparable across machines;
//! * the cpu-bound *scaling shape* (each worker count's throughput
//!   normalised to the same run's 1-worker throughput) falls more than
//!   the tolerance below the baseline's shape — absolute cpu-bound
//!   trials/s are raw hardware speed and would false-alarm on any runner
//!   slower than the baseline machine, so only the ratios are gated;
//! * the cpu-bound 8x/1x speedup drops below a *parallelism-aware* floor:
//!   `0.375 × cores` capped at 3x, so the full 3x contract binds only on
//!   ≥ 8-core hosts — CPU-bound scaling is physically bounded by the
//!   core count, and a fixed 3x demand would make the gate unsatisfiable
//!   on the 1-core containers this repo is developed in (where the
//!   honest ceiling is ~1x) and flaky on small SMT-limited CI runners;
//! * the latency-bound 8x/1x speedup drops below the hard 3x floor the
//!   ROADMAP pins;
//! * the skewed-workload steal speedup drops below 2x, or more than the
//!   tolerance below its baseline;
//! * the same skewed plan left on the *default* chunk rule (no
//!   `with_chunk`) is less than 2x faster than whole-shard claiming — a
//!   caller who never tunes chunking must still get the stealing win;
//! * the skewed steal schedule stops stealing entirely;
//! * the serving replay's deterministic metrics (from
//!   `results/serving_latency.json`, run `cargo run --release -p
//!   relcnn-bench --bin serve_bench` first) regress against
//!   `results/baseline/serving_latency.json`: virtual p99 latency more
//!   than the tolerance above baseline, shed rate more than the
//!   tolerance (relative, plus one percentage point of slack) above
//!   baseline, goodput rate more than the tolerance below baseline, or
//!   the conservation identity `offered == completed + shed + expired`
//!   broken — **in aggregate and per priority class** (`critical` /
//!   `interactive` / `bulk` each carry their own baseline slice, so a
//!   regression in one lane can't hide inside a healthy total). These
//!   metrics are virtual-clock deterministic — identical on every
//!   machine for an unchanged policy — so a deviation is a
//!   *behavioural* change to admission/batching/expiry/AIMD control,
//!   not noise, and an intended one must ship a refreshed baseline.
//!
//! The scheduler's frontier counters (`frontier_parks`,
//! `frontier_stall_us`, `max_reorder_depth`) are carried through the
//! scaling entries and **printed as informational fields** — the
//! scaling benches run with an unbounded reorder budget, so the numbers
//! describe observed reorder pressure, not a gated contract.
//!
//! The cluster smoke's loss/requeue counters (`results/cluster_smoke.json`,
//! run `cargo run --release -p relcnn-bench --bin cluster_smoke` first)
//! are printed in the same counters-line shape and held to hard
//! robustness invariants — every seeded chaos leg must have finished
//! degraded with a lost worker and a requeued task. A missing file is an
//! informational skip, not a failure, so the other gates stay usable on
//! their own.
//!
//! The flight-recorder smoke's event counters (`results/trace_smoke.json`,
//! run `cargo run --release -p relcnn-bench --bin trace_smoke` first) are
//! printed the same way — recorded/dropped events per subsystem are
//! informational — with one hard invariant: the chaos leg's merged
//! timeline must contain at least one `requeue` event. Also an
//! informational skip when missing.
//!
//! The gate reads artefacts rather than timing anything itself, so it is
//! cheap to re-run while iterating on a regression.

use serde::Deserialize;
use std::path::PathBuf;
use std::process::ExitCode;

/// Hard floor on the latency-bound 8-worker speedup (ROADMAP contract).
const MIN_LATENCY_SPEEDUP: f64 = 3.0;
/// Hard floor on the skewed-workload speedup over whole-shard claiming,
/// for single-trial chunks and for the default chunk rule alike.
const MIN_STEAL_SPEEDUP: f64 = 2.0;
/// CPU-bound 8x/1x speedup contract on hosts with enough cores to show
/// it (the partial-aggregation result path's headline number).
const MIN_CPU_SPEEDUP: f64 = 3.0;
/// Extra absolute slack on the shed-rate check: one percentage point, so
/// a near-zero baseline shed rate doesn't turn a single shed request
/// into a relative-tolerance failure.
const SHED_RATE_SLACK: f64 = 0.01;

/// The cpu-bound scaling floor this host can honestly be held to:
/// `0.375 × cores`, capped at [`MIN_CPU_SPEEDUP`] — i.e. the full 3x
/// contract binds only at ≥ 8 cores, and below that the gate demands
/// 37.5% of the never-reached linear ideal (a 4-vCPU CI runner, which is
/// usually 2 physical cores plus SMT, must clear 1.5x; a 1-core host
/// caps at 0.375, i.e. "8 workers must not collapse under 1-worker
/// throughput"). Deliberately loose: the shape check against the
/// committed baseline is the tight regression guard; this floor is the
/// absolute sanity backstop, and it must never go red on unregressed
/// code just because the runner has fewer cores than the contract
/// assumes.
fn cpu_speedup_floor() -> f64 {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    MIN_CPU_SPEEDUP.min(0.375 * cores as f64)
}

#[derive(Debug, Deserialize)]
struct ScalingEntry {
    workers: u64,
    trials_per_s: f64,
    mean_trial_ns: u64,
    steals: u64,
    send_block_us: u64,
    frontier_parks: u64,
    frontier_stall_us: u64,
    max_reorder_depth: u64,
}

#[derive(Debug, Deserialize)]
struct Scaling {
    bench: String,
    worker_counts: Vec<u64>,
    cpu_bound: Vec<ScalingEntry>,
    latency_bound: Vec<ScalingEntry>,
    cpu_bound_speedup_8x_over_1x: f64,
    speedup_8x_over_1x: f64,
}

/// One priority class's slice of the serving artefact. Gated class by
/// class: per-class SLOs are only meaningful if a regression in one lane
/// can't hide inside a healthy aggregate.
#[derive(Debug, Deserialize)]
struct ClassEntry {
    offered: u64,
    completed: u64,
    shed: u64,
    expired: u64,
    late: u64,
    shed_rate: f64,
    goodput_rate: f64,
    p99_us: u64,
}

#[derive(Debug, Deserialize)]
struct ServingClasses {
    critical: ClassEntry,
    interactive: ClassEntry,
    bulk: ClassEntry,
}

#[derive(Debug, Deserialize)]
struct Serving {
    bench: String,
    offered: u64,
    completed: u64,
    shed: u64,
    expired: u64,
    late: u64,
    batches: u64,
    shed_rate: f64,
    goodput_rate: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    aimd_clamps: u64,
    min_admit_cap: u64,
    classes: ServingClasses,
    throughput_rps: f64,
}

#[derive(Debug, Deserialize)]
struct Skewed {
    bench: String,
    workers: u64,
    trials: u64,
    shards: u64,
    skew_factor: f64,
    block_wall_us: u64,
    steal_wall_us: u64,
    steal_speedup: f64,
    steals: u64,
    chunks_stolen: u64,
    default_wall_us: u64,
    default_speedup: f64,
}

/// Regeneration hint for the scaling/steal artefacts.
const BENCH_HINT: &str = "cargo bench -p relcnn-bench --bench runtime_scaling --bench skewed_steal";
/// Regeneration hint for the serving artefact.
const SERVE_HINT: &str = "cargo run --release -p relcnn-bench --bin serve_bench";

/// A fresh artefact paired with its committed baseline — the one shape
/// every check in this gate compares.
struct Baselined<T> {
    fresh: T,
    base: T,
}

/// Loads `results/<file>` and `results/baseline/<file>` together. Every
/// gated artefact goes through here, so a missing or unparseable file on
/// either side fails with the same regeneration hint.
fn load_pair<T: Deserialize>(file: &str, regen_hint: &str) -> Result<Baselined<T>, String> {
    let results = relcnn_bench::results_dir();
    let one = |path: PathBuf| -> Result<T, String> {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("{}: {e} (generate it with `{regen_hint}`)", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: parse error: {e}", path.display()))
    };
    Ok(Baselined {
        fresh: one(results.join(file))?,
        base: one(results.join("baseline").join(file))?,
    })
}

fn tolerance() -> f64 {
    std::env::var("RELCNN_GATE_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.10)
}

/// Named threshold: `metric` must not fall more than the tolerance below
/// its baseline (throughputs, speedups, goodput — anything where lower
/// is worse).
fn gate_not_below(failures: &mut Vec<String>, metric: &str, fresh: f64, baseline: f64, tol: f64) {
    if fresh < baseline * (1.0 - tol) {
        failures.push(format!(
            "{metric}: regressed {baseline:.3} -> {fresh:.3} (tolerance {:.0}%)",
            tol * 100.0
        ));
    }
}

/// Named threshold: `metric` must not rise more than the tolerance (plus
/// an absolute `slack`) above its baseline (latencies, shed rates —
/// anything where higher is worse).
fn gate_not_above(
    failures: &mut Vec<String>,
    metric: &str,
    fresh: f64,
    baseline: f64,
    tol: f64,
    slack: f64,
) {
    if fresh > baseline * (1.0 + tol) + slack {
        failures.push(format!(
            "{metric}: regressed {baseline:.3} -> {fresh:.3} (tolerance {:.0}%{})",
            tol * 100.0,
            if slack > 0.0 {
                format!(" + {slack} absolute slack")
            } else {
                String::new()
            }
        ));
    }
}

/// Named threshold: `metric` must clear an absolute floor regardless of
/// what the baseline says (the ROADMAP's hard contracts).
fn gate_floor(failures: &mut Vec<String>, metric: &str, value: f64, floor: f64) {
    if value < floor {
        failures.push(format!(
            "{metric}: {value:.2}x dropped below the {floor:.2}x floor"
        ));
    }
}

/// Pairs each baseline series entry with the fresh entry at the same
/// worker count, reporting missing counts as failures.
fn paired_by_workers<'a>(
    label: &str,
    fresh: &'a [ScalingEntry],
    base: &'a [ScalingEntry],
    failures: &mut Vec<String>,
) -> Vec<(&'a ScalingEntry, &'a ScalingEntry)> {
    let mut pairs = Vec::new();
    for b in base {
        match fresh.iter().find(|e| e.workers == b.workers) {
            Some(now) => pairs.push((now, b)),
            None => failures.push(format!(
                "{label}: baseline has workers={} but the fresh run does not",
                b.workers
            )),
        }
    }
    pairs
}

/// Informational print of one scaling entry's scheduler counters
/// (steals, backpressure and the frontier/reorder fields —
/// printed, not gated: the scaling benches run unbounded). Shares its
/// formatting with the serving conservation line via
/// [`relcnn_bench::counters_line`].
fn entry_detail(e: &ScalingEntry) -> String {
    relcnn_bench::counters_line(&[
        ("steals", e.steals),
        ("send_block_us", e.send_block_us),
        ("frontier_parks", e.frontier_parks),
        ("frontier_stall_us", e.frontier_stall_us),
        ("max_reorder_depth", e.max_reorder_depth),
        ("mean_trial_ns", e.mean_trial_ns),
    ])
}

/// Checks a scaling series' *shape*: each worker count's throughput
/// normalised to the same run's 1-worker throughput, so the comparison is
/// independent of the host's raw speed. Used for the cpu-bound series,
/// whose absolute trials/s are pure hardware measurement.
fn check_series_shape(
    label: &str,
    fresh: &[ScalingEntry],
    base: &[ScalingEntry],
    tol: f64,
    failures: &mut Vec<String>,
) {
    let one_worker = |series: &[ScalingEntry]| {
        series
            .iter()
            .find(|e| e.workers == 1)
            .map(|e| e.trials_per_s)
            .filter(|&t| t > 0.0)
    };
    let (Some(fresh_1), Some(base_1)) = (one_worker(fresh), one_worker(base)) else {
        failures.push(format!("{label}: missing or zero 1-worker entry"));
        return;
    };
    for (now, base) in paired_by_workers(label, fresh, base, failures) {
        if now.workers == 1 {
            continue;
        }
        let base_ratio = base.trials_per_s / base_1;
        let now_ratio = now.trials_per_s / fresh_1;
        println!(
            "  {label:>13} workers={:<2} {:>8.3}x of 1-worker (baseline {:>8.3}x, {})",
            now.workers,
            now_ratio,
            base_ratio,
            entry_detail(now)
        );
        gate_not_below(
            failures,
            &format!("{label}: scaling shape at workers={}", now.workers),
            now_ratio,
            base_ratio,
            tol,
        );
    }
}

/// Checks one scaling series for per-worker-count absolute throughput
/// regressions (only meaningful for machine-independent, sleep-dominated
/// series).
fn check_series(
    label: &str,
    fresh: &[ScalingEntry],
    base: &[ScalingEntry],
    tol: f64,
    failures: &mut Vec<String>,
) {
    for (now, base) in paired_by_workers(label, fresh, base, failures) {
        let delta = (now.trials_per_s / base.trials_per_s - 1.0) * 100.0;
        println!(
            "  {label:>13} workers={:<2} {:>12.1} trials/s (baseline {:>12.1}, {delta:+.1}%, {})",
            now.workers,
            now.trials_per_s,
            base.trials_per_s,
            entry_detail(now)
        );
        gate_not_below(
            failures,
            &format!("{label}: throughput at workers={}", now.workers),
            now.trials_per_s,
            base.trials_per_s,
            tol,
        );
    }
}

fn check_scaling(pair: &Baselined<Scaling>, tol: f64, failures: &mut Vec<String>) {
    let (fresh, base) = (&pair.fresh, &pair.base);
    assert_eq!(fresh.bench, "runtime_scaling");
    println!(
        "runtime_scaling: worker counts {:?}, latency 8x/1x {:.2}x \
         (baseline {:.2}x), cpu 8x/1x {:.2}x",
        fresh.worker_counts,
        fresh.speedup_8x_over_1x,
        base.speedup_8x_over_1x,
        fresh.cpu_bound_speedup_8x_over_1x
    );
    check_series_shape(
        "cpu_bound",
        &fresh.cpu_bound,
        &base.cpu_bound,
        tol,
        failures,
    );
    check_series(
        "latency_bound",
        &fresh.latency_bound,
        &base.latency_bound,
        tol,
        failures,
    );
    gate_floor(
        failures,
        "runtime_scaling: latency-bound 8x/1x speedup",
        fresh.speedup_8x_over_1x,
        MIN_LATENCY_SPEEDUP,
    );
    let cpu_floor = cpu_speedup_floor();
    println!(
        "cpu-bound scaling floor on this host: {cpu_floor:.2}x ({} core(s) available)",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    gate_floor(
        failures,
        "runtime_scaling: cpu-bound 8x/1x speedup (host parallelism-aware floor)",
        fresh.cpu_bound_speedup_8x_over_1x,
        cpu_floor,
    );
}

fn check_skewed(pair: &Baselined<Skewed>, tol: f64, failures: &mut Vec<String>) {
    let (fresh, base) = (&pair.fresh, &pair.base);
    assert_eq!(fresh.bench, "skewed_steal");
    println!(
        "skewed_steal: {} trials / {} shards / {} workers, skew {:.1}: \
         block {} us vs steal {} us => {:.2}x (baseline {:.2}x), \
         {} steals / {} chunks moved; default chunking {} us => {:.2}x",
        fresh.trials,
        fresh.shards,
        fresh.workers,
        fresh.skew_factor,
        fresh.block_wall_us,
        fresh.steal_wall_us,
        fresh.steal_speedup,
        base.steal_speedup,
        fresh.steals,
        fresh.chunks_stolen,
        fresh.default_wall_us,
        fresh.default_speedup
    );
    gate_floor(
        failures,
        "skewed_steal: steal speedup",
        fresh.steal_speedup,
        MIN_STEAL_SPEEDUP,
    );
    gate_floor(
        failures,
        "skewed_steal: default-chunk speedup",
        fresh.default_speedup,
        MIN_STEAL_SPEEDUP,
    );
    gate_not_below(
        failures,
        "skewed_steal: steal speedup vs baseline",
        fresh.steal_speedup,
        base.steal_speedup,
        tol,
    );
    if fresh.steals == 0 {
        failures.push("skewed_steal: no steals on the skewed schedule".into());
    }
}

/// Gates one priority class's slice against its own baseline: the
/// conservation identity, virtual p99, shed rate and goodput, with the
/// same tolerances as the aggregate.
fn check_serving_class(
    label: &str,
    fresh: &ClassEntry,
    base: &ClassEntry,
    tol: f64,
    failures: &mut Vec<String>,
) {
    println!(
        "  class {:<12} {}",
        label,
        relcnn_bench::counters_line(&[
            ("offered", fresh.offered),
            ("completed", fresh.completed),
            ("late", fresh.late),
            ("shed", fresh.shed),
            ("expired", fresh.expired),
            ("p99_us", fresh.p99_us),
        ])
    );
    if fresh.completed + fresh.shed + fresh.expired != fresh.offered {
        failures.push(format!(
            "serving_latency[{label}]: conservation broke: {} completed + {} shed + \
             {} expired != {} offered",
            fresh.completed, fresh.shed, fresh.expired, fresh.offered
        ));
    }
    gate_not_above(
        failures,
        &format!("serving_latency[{label}]: virtual p99 (deterministic)"),
        fresh.p99_us as f64,
        base.p99_us as f64,
        tol,
        0.0,
    );
    gate_not_above(
        failures,
        &format!("serving_latency[{label}]: shed rate"),
        fresh.shed_rate,
        base.shed_rate,
        tol,
        SHED_RATE_SLACK,
    );
    gate_not_below(
        failures,
        &format!("serving_latency[{label}]: goodput rate"),
        fresh.goodput_rate,
        base.goodput_rate,
        tol,
    );
}

fn check_serving(pair: &Baselined<Serving>, tol: f64, failures: &mut Vec<String>) {
    let (fresh, base) = (&pair.fresh, &pair.base);
    assert_eq!(fresh.bench, "serving_latency");
    println!(
        "serving_latency: {} offered -> {} completed ({} late) / {} shed / \
         {} expired in {} batches; virtual p50/p95/p99 {}/{}/{} us \
         (baseline p99 {} us), shed rate {:.1}% (baseline {:.1}%), \
         goodput {:.1}% (baseline {:.1}%), {} AIMD clamps (min cap {}), \
         wall throughput {:.0} req/s",
        fresh.offered,
        fresh.completed,
        fresh.late,
        fresh.shed,
        fresh.expired,
        fresh.batches,
        fresh.p50_us,
        fresh.p95_us,
        fresh.p99_us,
        base.p99_us,
        fresh.shed_rate * 100.0,
        base.shed_rate * 100.0,
        fresh.goodput_rate * 100.0,
        base.goodput_rate * 100.0,
        fresh.aimd_clamps,
        fresh.min_admit_cap,
        fresh.throughput_rps,
    );
    // The serve-side conservation counters, in the same shape as the
    // scheduler's frontier detail lines above.
    println!(
        "  conservation: {}",
        relcnn_bench::counters_line(&[
            ("offered", fresh.offered),
            ("completed", fresh.completed),
            ("late", fresh.late),
            ("shed", fresh.shed),
            ("expired", fresh.expired),
            ("batches", fresh.batches),
        ])
    );
    if fresh.completed + fresh.shed + fresh.expired != fresh.offered {
        failures.push(format!(
            "serving_latency: conservation broke: {} completed + {} shed + \
             {} expired != {} offered",
            fresh.completed, fresh.shed, fresh.expired, fresh.offered
        ));
    }
    // Deterministic virtual-clock metrics: a regression here is a
    // behavioural batching/admission change, never machine noise.
    gate_not_above(
        failures,
        "serving_latency: virtual p99 (deterministic — behavioural change)",
        fresh.p99_us as f64,
        base.p99_us as f64,
        tol,
        0.0,
    );
    gate_not_above(
        failures,
        "serving_latency: shed rate",
        fresh.shed_rate,
        base.shed_rate,
        tol,
        SHED_RATE_SLACK,
    );
    gate_not_below(
        failures,
        "serving_latency: goodput rate",
        fresh.goodput_rate,
        base.goodput_rate,
        tol,
    );
    // Per-class gates: each lane held to its own baseline slice.
    for (label, fresh_class, base_class) in [
        ("critical", &fresh.classes.critical, &base.classes.critical),
        (
            "interactive",
            &fresh.classes.interactive,
            &base.classes.interactive,
        ),
        ("bulk", &fresh.classes.bulk, &base.classes.bulk),
    ] {
        check_serving_class(label, fresh_class, base_class, tol, failures);
    }
}

/// The cluster smoke's counter summary (`results/cluster_smoke.json`).
#[derive(Deserialize)]
struct ClusterSmoke {
    topology_legs: u64,
    chaos_legs: u64,
    workers_spawned: u64,
    workers_lost: u64,
    tasks_requeued: u64,
    task_retries: u64,
    corrupt_frames: u64,
    task_timeouts: u64,
    local_fallbacks: u64,
    degraded_runs: u64,
}

/// Prints the cluster fabric's loss/requeue counters and holds the
/// robustness invariants. No baseline pair: the counters are
/// deterministic products of the seeded chaos plans, not measurements —
/// every chaos leg must have degraded, lost a worker and requeued its
/// task. Skipped (informationally) when the smoke has not run, so the
/// gate stays cheap to re-run while iterating on a scaling regression.
fn check_cluster(failures: &mut Vec<String>) {
    let path = relcnn_bench::results_dir().join("cluster_smoke.json");
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(_) => {
            println!(
                "cluster: no {} — skipped (generate it with \
                 `cargo run --release -p relcnn-bench --bin cluster_smoke`)",
                path.display()
            );
            return;
        }
    };
    let c: ClusterSmoke = match serde_json::from_str(&text) {
        Ok(c) => c,
        Err(e) => {
            failures.push(format!("{}: parse error: {e}", path.display()));
            return;
        }
    };
    println!(
        "cluster: {} topology legs byte-identical, {} chaos legs degraded-but-identical",
        c.topology_legs, c.chaos_legs
    );
    println!(
        "  counters: {}",
        relcnn_bench::counters_line(&[
            ("workers_spawned", c.workers_spawned),
            ("workers_lost", c.workers_lost),
            ("tasks_requeued", c.tasks_requeued),
            ("task_retries", c.task_retries),
            ("corrupt_frames", c.corrupt_frames),
            ("task_timeouts", c.task_timeouts),
            ("local_fallbacks", c.local_fallbacks),
        ])
    );
    if c.degraded_runs != c.chaos_legs {
        failures.push(format!(
            "cluster: {} of {} chaos legs finished degraded (all must)",
            c.degraded_runs, c.chaos_legs
        ));
    }
    if c.workers_lost < c.chaos_legs || c.tasks_requeued < c.chaos_legs {
        failures.push(format!(
            "cluster: {} chaos legs but only {} workers lost / {} tasks requeued",
            c.chaos_legs, c.workers_lost, c.tasks_requeued
        ));
    }
}

/// The trace smoke's event summary (`results/trace_smoke.json`).
#[derive(Deserialize)]
struct TraceSmoke {
    campaign_events: u64,
    campaign_dropped: u64,
    serving_events: u64,
    serving_dropped: u64,
    cluster_events: u64,
    cluster_dropped: u64,
    cluster_pid_tracks: u64,
    kill_events: u64,
    requeue_events: u64,
    degraded_completion_events: u64,
    byte_identical_legs: u64,
}

/// Prints the flight recorder's per-subsystem recorded/dropped event
/// counters (informational — ring sizing varies with the workload) and
/// holds one hard invariant: the chaos leg's merged timeline must
/// contain at least one `requeue` event, or the recovery story the
/// recorder exists to tell has gone missing. Skipped (informationally)
/// when the smoke has not run.
fn check_trace(failures: &mut Vec<String>) {
    let path = relcnn_bench::results_dir().join("trace_smoke.json");
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(_) => {
            println!(
                "trace: no {} — skipped (generate it with \
                 `cargo run --release -p relcnn-bench --bin trace_smoke`)",
                path.display()
            );
            return;
        }
    };
    let t: TraceSmoke = match serde_json::from_str(&text) {
        Ok(t) => t,
        Err(e) => {
            failures.push(format!("{}: parse error: {e}", path.display()));
            return;
        }
    };
    println!(
        "trace: {} legs byte-identical trace-on vs trace-off; chaos timeline \
         spans {} pid tracks",
        t.byte_identical_legs, t.cluster_pid_tracks
    );
    println!(
        "  events: {}",
        relcnn_bench::counters_line(&[
            ("campaign_recorded", t.campaign_events),
            ("campaign_dropped", t.campaign_dropped),
            ("serving_recorded", t.serving_events),
            ("serving_dropped", t.serving_dropped),
            ("cluster_recorded", t.cluster_events),
            ("cluster_dropped", t.cluster_dropped),
            ("kill_events", t.kill_events),
            ("requeue_events", t.requeue_events),
            ("degraded_completions", t.degraded_completion_events),
        ])
    );
    if t.requeue_events < 1 {
        failures.push(
            "trace: chaos timeline recorded no requeue events (the kill->requeue \
             recovery story is missing)"
                .into(),
        );
    }
}

fn main() -> ExitCode {
    let tol = tolerance();
    let mut failures: Vec<String> = Vec::new();

    println!("bench gate (tolerance {:.0}%)", tol * 100.0);

    match load_pair::<Scaling>("runtime_scaling.json", BENCH_HINT) {
        Ok(pair) => check_scaling(&pair, tol, &mut failures),
        Err(e) => failures.push(e),
    }
    match load_pair::<Skewed>("skewed_steal.json", BENCH_HINT) {
        Ok(pair) => check_skewed(&pair, tol, &mut failures),
        Err(e) => failures.push(e),
    }
    match load_pair::<Serving>("serving_latency.json", SERVE_HINT) {
        Ok(pair) => check_serving(&pair, tol, &mut failures),
        Err(e) => failures.push(e),
    }
    check_cluster(&mut failures);
    check_trace(&mut failures);

    if failures.is_empty() {
        println!("bench gate: OK");
        ExitCode::SUCCESS
    } else {
        eprintln!("bench gate: {} failure(s):", failures.len());
        for f in &failures {
            eprintln!("  FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}
