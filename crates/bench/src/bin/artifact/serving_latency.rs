//! Serving-latency benchmark: emits `results/serving_latency.json`.
//!
//! Replays a fixed overloaded open-loop trace (three-class Poisson
//! arrivals with per-class deadline budgets and a heavy-tail service
//! profile) through the full serving stack — admission with a critical
//! reservation, deadline-aware micro-batching under the AIMD overload
//! controller, hybrid-CNN inference via `classify_many` on the engine —
//! and records two kinds of numbers:
//!
//! * **deterministic serving metrics** (virtual-clock p50/p95/p99
//!   latency, shed rate, goodput and expiry counts — aggregate *and per
//!   class* — plus AIMD clamp counts and the minimum admission cap):
//!   pure functions of the trace and policy, identical on every
//!   machine — these are what `bench_gate` holds to the committed
//!   baseline, class by class;
//! * **wall-clock execution metrics** (engine dispatch time, per-image
//!   inference percentiles, end-to-end replay throughput): hardware
//!   measurement, reported for trajectory but not gated.
//!
//! `--quick` runs a quarter-size trace for smoke coverage.

use relcnn_bench::workload::{bench_load, bench_server, cnn_backend, BENCH_REQUESTS};
use relcnn_runtime::Engine;
use relcnn_serve::{LoadGen, RequestClass, Server};
use std::time::Instant;

const WORKERS: usize = 8;

pub fn run(quick: bool) {
    let requests = if quick {
        BENCH_REQUESTS / 4
    } else {
        BENCH_REQUESTS
    };
    let trace = LoadGen::new(bench_load(requests)).generate();
    let backend = cnn_backend();
    let engine = Engine::with_workers(WORKERS);

    let t0 = Instant::now();
    let run = Server::new(bench_server())
        .backend(&backend)
        .engine(&engine)
        .run(&trace);
    let wall = t0.elapsed();

    let report = &run.report;
    let (p50, p95, p99) = report.latency.percentiles();
    let (inf_p50, inf_p95, inf_p99) = run.dispatch.inference_ns.percentiles();
    let throughput_rps = if wall.as_secs_f64() > 0.0 {
        report.completed as f64 / wall.as_secs_f64()
    } else {
        0.0
    };

    let classes: Vec<String> = RequestClass::ALL
        .iter()
        .map(|c| {
            let s = report.class(*c);
            let (cp50, cp95, cp99) = s.latency.percentiles();
            format!(
                "    \"{}\": {{\n      \"offered\": {},\n      \"completed\": {},\n      \
                 \"shed\": {},\n      \"expired\": {},\n      \"late\": {},\n      \
                 \"shed_rate\": {:.6},\n      \"goodput_rate\": {:.6},\n      \
                 \"p50_us\": {cp50},\n      \"p95_us\": {cp95},\n      \"p99_us\": {cp99}\n    }}",
                c.label(),
                s.offered,
                s.completed,
                s.shed,
                s.expired,
                s.late,
                s.shed_rate(),
                s.goodput_rate(),
            )
        })
        .collect();

    let json = format!(
        "{{\n  \"bench\": \"serving_latency\",\n  \"requests\": {requests},\n  \
         \"workers\": {},\n  \"offered\": {},\n  \"completed\": {},\n  \"shed\": {},\n  \
         \"expired\": {},\n  \"late\": {},\n  \"batches\": {},\n  \
         \"mean_batch_fill\": {:.3},\n  \"shed_rate\": {:.6},\n  \
         \"goodput_rate\": {:.6},\n  \"p50_us\": {p50},\n  \
         \"p95_us\": {p95},\n  \"p99_us\": {p99},\n  \
         \"makespan_us\": {},\n  \"early_closes\": {},\n  \"aimd_clamps\": {},\n  \
         \"min_admit_cap\": {},\n  \"final_admit_cap\": {},\n  \"classes\": {{\n{}\n  }},\n  \
         \"wall_us\": {},\n  \
         \"throughput_rps\": {throughput_rps:.3},\n  \"engine_busy_us\": {},\n  \
         \"inference_p50_ns\": {inf_p50},\n  \"inference_p95_ns\": {inf_p95},\n  \
         \"inference_p99_ns\": {inf_p99},\n  \"engine_steals\": {}\n}}\n",
        engine.configured_workers(),
        report.offered,
        report.completed,
        report.shed,
        report.expired(),
        report.late,
        report.batches,
        report.mean_batch_fill(),
        report.shed_rate(),
        report.goodput_rate(),
        report.makespan_us,
        report.early_closes,
        report.aimd_clamps,
        report.min_admit_cap,
        report.final_admit_cap,
        classes.join(",\n"),
        wall.as_micros(),
        run.dispatch.engine_busy.as_micros(),
        run.dispatch.steals,
    );

    let path = relcnn_bench::results_dir().join("serving_latency.json");
    // The quick smoke run must not clobber the gated full-scale artefact.
    if quick {
        println!("quick mode: skipping write of {}", path.display());
    } else {
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }
    println!(
        "serving: {} offered -> {} completed ({} late), {} shed ({:.1}%), {} expired, \
         {} batches (fill {:.2}), {} clamps (min cap {}); virtual p50/p95/p99 \
         {p50}/{p95}/{p99} us; wall {:.1} ms ({throughput_rps:.0} req/s)",
        report.offered,
        report.completed,
        report.late,
        report.shed,
        report.shed_rate() * 100.0,
        report.expired(),
        report.batches,
        report.mean_batch_fill(),
        report.aimd_clamps,
        report.min_admit_cap,
        wall.as_secs_f64() * 1e3,
    );
    for class in RequestClass::ALL {
        let s = report.class(class);
        let (_, _, cp99) = s.latency.percentiles();
        println!(
            "  {:<12} offered {:>4} completed {:>4} shed {:>4} expired {:>3} late {:>3} \
             goodput {:>5.1}% p99 {cp99} us",
            class.label(),
            s.offered,
            s.completed,
            s.shed,
            s.expired,
            s.late,
            s.goodput_rate() * 100.0,
        );
    }
    assert!(report.conserved(), "serving conservation broke: {report:?}");
}
