//! Emits the serving-determinism JSONL artefact.
//!
//! Replays a fixed open-loop serving trace — seeded three-class arrivals
//! with per-class deadline budgets, admission with a critical
//! reservation, deadline-aware micro-batching under the AIMD overload
//! controller, real hybrid-CNN inference through `classify_many` on the
//! engine — and writes one JSON line per request, a deterministic report
//! line, and one line per controller decision. The serving history runs
//! on a *virtual* clock with a deterministic service model, so the
//! artefact is a pure function of `(arrival seed, arrival process)`:
//! CI runs this binary at workers {1, 2, 8} × two arrival seeds and
//! diffs the outputs byte for byte. The worker count only changes *how
//! fast* the batches classify, never what any line says.
//!
//! ```text
//! serving_artifact --workers 8 --seed 201 --out /tmp/serve.jsonl
//! serving_artifact --workers 2 --seed 202 --arrival burst --out /tmp/b.jsonl
//! ```

use relcnn_bench::workload::{artifact_load, artifact_server, cnn_backend};
use relcnn_runtime::Engine;
use relcnn_serve::{LoadGen, Outcome, Server};
use std::io::Write;

fn usage() -> ! {
    eprintln!(
        "usage: serving_artifact --workers N --seed S --out PATH [--arrival poisson|burst]\n\
         Writes the deterministic JSONL serving replay of a fixed trace."
    );
    std::process::exit(2)
}

fn main() {
    let mut workers = 1usize;
    let mut seed = 201u64;
    let mut arrival = "poisson".to_string();
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => {
                workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--arrival" => arrival = args.next().unwrap_or_else(|| usage()),
            "--out" => out = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    let Some(out) = out else { usage() };

    let Some(load) = artifact_load(seed, &arrival) else {
        eprintln!("unknown arrival process `{arrival}`");
        usage()
    };
    let trace = LoadGen::new(load).generate();
    let backend = cnn_backend();
    let engine = Engine::with_workers(workers);
    let run = Server::new(artifact_server())
        .backend(&backend)
        .engine(&engine)
        .run(&trace);

    let file = std::fs::File::create(&out).unwrap_or_else(|e| panic!("create {out}: {e}"));
    let mut w = std::io::BufWriter::new(file);
    for (req, outcome) in trace.iter().zip(&run.outcomes) {
        // `lane` is the request's priority class; `class` on completed
        // lines stays the CNN verdict's class index.
        let line = match outcome {
            Outcome::Completed {
                batch,
                latency_us,
                late,
                verdict,
            } => format!(
                "{{\"req\":{},\"arrival_us\":{},\"lane\":\"{}\",\"outcome\":\"completed\",\
                 \"batch\":{batch},\"latency_us\":{latency_us},\"late\":{late},\"class\":{},\
                 \"qualified\":{},\"confidence_bits\":{}}}",
                req.id,
                req.arrival_us,
                req.class.label(),
                verdict.class,
                verdict.qualified,
                verdict.confidence_bits
            ),
            Outcome::Shed => format!(
                "{{\"req\":{},\"arrival_us\":{},\"lane\":\"{}\",\"outcome\":\"shed\"}}",
                req.id,
                req.arrival_us,
                req.class.label()
            ),
            Outcome::Expired => format!(
                "{{\"req\":{},\"arrival_us\":{},\"lane\":\"{}\",\"outcome\":\"expired\"}}",
                req.id,
                req.arrival_us,
                req.class.label()
            ),
        };
        writeln!(w, "{line}").unwrap_or_else(|e| panic!("write {out}: {e}"));
    }
    writeln!(w, "{{\"report\":{}}}", run.report.to_json())
        .unwrap_or_else(|e| panic!("write report to {out}: {e}"));
    // The controller's decision log is part of the byte-diff surface:
    // a nondeterministic cap or early-close decision shows up here.
    for record in &run.control {
        writeln!(w, "{{\"control\":{}}}", record.to_json())
            .unwrap_or_else(|e| panic!("write control to {out}: {e}"));
    }
    w.flush().unwrap_or_else(|e| panic!("flush {out}: {e}"));

    eprintln!(
        "{out}: arrival={arrival} seed={seed} workers={workers} completed={} shed={} \
         expired={} late={} batches={} clamps={} early_closes={} min_cap={} \
         (engine: {} images in {} dispatches, {} steals)",
        run.report.completed,
        run.report.shed,
        run.report.expired(),
        run.report.late,
        run.report.batches,
        run.report.aimd_clamps,
        run.report.early_closes,
        run.report.min_admit_cap,
        run.dispatch.images,
        run.dispatch.engine_batches,
        run.dispatch.steals,
    );
}
