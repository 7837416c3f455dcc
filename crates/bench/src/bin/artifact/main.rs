//! The artefact writers, one subcommand each: the byte-diffed
//! `determinism`, `serving` and `cluster` artefacts, which CI compares
//! across schedules, topologies and chaos, and the gated
//! `serving-latency` artefact `bench_gate` reads.
//!
//! ```text
//! artifact determinism --workers 8 --chunk 1 --out /tmp/w8.jsonl
//! artifact serving --workers 8 --seed 201 --out /tmp/serve.jsonl
//! artifact cluster --procs 4 --threads 2 --out /tmp/p4t2.jsonl
//! artifact serving-latency
//! ```

mod cluster;
mod determinism;
mod serving;
mod serving_latency;

use relcnn_bench::workload::cluster_task;
use relcnn_bench::Args;
use relcnn_cluster::run_worker_if_spawned;

const ABOUT: &str =
    "determinism: the footerless JSONL stream of a fixed skewed campaign, the same\n\
    bytes with --metrics (registry-observed engine) or --trace (flight-recorded engine).\n\
    serving: the deterministic JSONL serving replay of a fixed trace.\n\
    cluster: the same campaign stitched over the multi-process fabric; --procs 0 computes\n\
    in the head, --trace PATH writes the merged Chrome-trace timeline to PATH.\n\
    serving-latency: writes results/serving_latency.json (--quick: quarter scale, not written).";

fn main() {
    // Must run before argument parsing: a forked cluster worker re-enters
    // this same binary and must never fall through into head code.
    run_worker_if_spawned(cluster_task);

    let args = Args::from_env(
        ABOUT,
        &[
            "determinism --workers N --out PATH --chunk C --no-abort --profile latency|cpu \
             --source plan|eager|streaming --metrics --trace",
            "serving --workers N --seed S --out PATH --arrival poisson|burst",
            "cluster --procs N --out PATH --threads T --profile latency|cpu \
             --chaos none|kill|corrupt|hang --task-timeout-ms MS --trace PATH",
            "serving-latency --quick",
        ],
    );
    match args.command() {
        "determinism" => determinism::run(&args),
        "serving" => serving::run(&args),
        "cluster" => cluster::run(&args),
        "serving-latency" => serving_latency::run(args.switch("--quick")),
        _ => unreachable!("Args only returns listed subcommands"),
    }
}
