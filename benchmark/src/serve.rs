//! `serve_open_48`: the served request, open loop on the wall clock.
//!
//! Open loop means latency is timed from the trace's arrival stamp
//! (`Outcome::Completed.latency_us`), so a stall taxes the requests behind
//! it; how late the generator itself ran is `serve.loadgen_lag_p99_us`.
//! The `ServiceModel` is zero-cost: the wall numbers are the program's, not
//! the model's.

use crate::metrics::Outcome;
use crate::pace::Pace;
use crate::probe;
use crate::setup::{repeated, Budget, Kit, Oracle, SERVED_48};
use crate::spans::RING_CAPACITY;
use crate::stats::{median, percentile, quiet_low, Digest};
use crate::Run;
use relcnn_faults::SkewedCost;
use relcnn_obs::trace::{ArgValue, TraceArg, TraceRecord, TraceRecorder, TraceSnapshot};
use relcnn_runtime::Engine;
use relcnn_serve::{
    BatchPolicy, CnnBackend, CnnVerdict, LoadGen, LoadGenConfig, Outcome as Served, Request,
    ServeRun, Server, ServerConfig, ServiceModel, WallClock,
};

const MAX_BATCH: usize = 8;
const STEADY_RPS: u64 = 300;
const HIGH_RPS: u64 = 600;
/// The latency limit: a request completed later than this missed it.
const LIMIT_US: f64 = 50_000.0;
/// The server-side deadline is far beyond the limit, so that a host stall
/// shows as latency and as `serve.late`, not as a failed operation.
const DEADLINE_US: u64 = 1_000_000;
const QUEUE: usize = 256;
/// "No deadline" for the drain phase.
const NEVER_US: u64 = 3_600_000_000;
/// Requests a drain queues per second of its share of the run, about what
/// the server completes in that time.
const DRAIN_PER_S: f64 = 800.0;
/// A run alternates this many steady and drain slices and reports the
/// quietest quarter (latency) or the median (rate) over the slices: the
/// host's speed moves in phases of seconds, and a metric taken in one window
/// of the run would report the phase.
const SLICES: usize = 10;

fn trace(requests: u64, seed: u64, mean_gap_us: u64, deadline_us: u64) -> Vec<Request> {
    LoadGen::new(
        LoadGenConfig::poisson(requests, seed, mean_gap_us, deadline_us).with_class_mix([1, 3, 2]),
    )
    .generate()
}

/// Poisson arrivals at `rps` for `seconds`, never fewer than `floor`.
fn poisson(seconds: f64, rps: u64, seed: u64, floor: u64) -> Vec<Request> {
    let requests = ((seconds * rps as f64) as u64).max(floor);
    trace(requests, seed, 1_000_000 / rps, DEADLINE_US)
}

/// Every request arriving at t = 0 with no deadline, into a queue that
/// holds them all.
fn backlog(seconds: f64, seed: u64) -> Vec<Request> {
    let batches = (seconds * DRAIN_PER_S / MAX_BATCH as f64).ceil().max(40.0);
    trace(batches as u64 * MAX_BATCH as u64, seed, 0, NEVER_US)
}

struct Stage<'a> {
    backend: &'a CnnBackend,
    engine: &'a Engine,
    /// The verdict each image must get, from the rebuilt model.
    table: &'a [CnnVerdict],
    budget: &'a Budget,
}

impl Stage<'_> {
    /// Serves `trace` and checks it: conservation, and every request
    /// completed within its deadline with the table's verdict.
    fn serve(
        &self,
        trace: &[Request],
        queue: usize,
        recorder: &TraceRecorder,
        outcome: &mut Outcome,
    ) -> ServeRun<CnnVerdict> {
        let config = ServerConfig::new(
            queue,
            BatchPolicy::new(MAX_BATCH, 1_000).with_critical_delay(400),
            ServiceModel {
                batch_overhead_us: 0,
                cost: SkewedCost::uniform(0),
            },
        )
        .with_critical_reserve(4);
        let engine = self.engine.clone().traced(recorder);
        let run = Server::new(config)
            .backend(self.backend)
            .engine(&engine)
            .traced(recorder)
            .clock(WallClock::with_budget(self.budget.remaining_us()))
            .run(trace);
        outcome.check(run.report.conserved());
        for (request, served) in trace.iter().zip(&run.outcomes) {
            let image = (request.payload_seed % self.table.len() as u64) as usize;
            match served {
                Served::Completed { verdict, late, .. } => {
                    outcome.check(*verdict == self.table[image] && !*late);
                }
                Served::Shed | Served::Expired => outcome.check(false),
            }
        }
        run
    }
}

/// Latencies of the completed requests in arrival order, µs.
fn latencies(run: &ServeRun<CnnVerdict>) -> Vec<f64> {
    run.outcomes
        .iter()
        .filter_map(|o| match o {
            Served::Completed { latency_us, .. } => Some(*latency_us as f64),
            _ => None,
        })
        .collect()
}

/// Requests per second while draining a backlog: a full batch over the
/// median time between two batch completions.
fn drain_rps(trace: &[Request], run: &ServeRun<CnnVerdict>) -> f64 {
    let mut done_at = vec![0u64; run.report.batches as usize];
    for (request, served) in trace.iter().zip(&run.outcomes) {
        if let Served::Completed {
            batch, latency_us, ..
        } = served
        {
            done_at[*batch as usize] = request.arrival_us + latency_us;
        }
    }
    let gaps: Vec<f64> = done_at
        .windows(2)
        .map(|w| w[1].saturating_sub(w[0]) as f64)
        .collect();
    MAX_BATCH as f64 * 1e6 / median(&gaps)
}

fn arg(args: &[TraceArg], key: &str) -> Option<u64> {
    args.iter()
        .find(|a| a.key == key)
        .and_then(|a| match a.value {
            ArgValue::U64(v) => Some(v),
            _ => None,
        })
}

/// The `serve` layer metrics of one traced phase, from the server's own
/// `admit` / `batch` records and the run's outcomes.
fn serve_layer(
    trace: &[Request],
    run: &ServeRun<CnnVerdict>,
    snapshot: &TraceSnapshot,
    outcome: &mut Outcome,
) {
    let mut dispatch_at = vec![0u64; run.report.batches as usize];
    let (mut service_us, mut lag_us) = (Vec::new(), Vec::new());
    for record in snapshot.threads.iter().flat_map(|t| &t.records) {
        match record {
            TraceRecord::Span {
                name,
                begin_us,
                end_us,
                args,
                ..
            } if name == "batch" => {
                if let Some(slot) = arg(args, "batch").and_then(|b| dispatch_at.get_mut(b as usize))
                {
                    *slot = *begin_us;
                    service_us.push((end_us - begin_us) as f64);
                }
            }
            TraceRecord::Instant {
                name, ts_us, args, ..
            } if name == "admit" => {
                if let Some(request) = arg(args, "id").and_then(|id| trace.get(id as usize)) {
                    lag_us.push(ts_us.saturating_sub(request.arrival_us) as f64);
                }
            }
            _ => {}
        }
    }
    let wait_us: Vec<f64> = trace
        .iter()
        .zip(&run.outcomes)
        .filter_map(|(request, served)| match served {
            Served::Completed { batch, .. } => {
                Some(dispatch_at[*batch as usize].saturating_sub(request.arrival_us) as f64)
            }
            _ => None,
        })
        .collect();
    let latency = latencies(run);
    let report = &run.report;
    let m = &mut outcome.metrics;
    m.set("serve.queue_wait_p50_us", median(&wait_us));
    m.set("serve.batch_service_p50_us", median(&service_us));
    m.set("serve.batch_fill_mean", report.mean_batch_fill());
    m.set("serve.batches", report.batches as f64);
    m.set("serve.shed", report.shed as f64);
    m.set("serve.expired", report.expired() as f64);
    m.set(
        "serve.late",
        latency.iter().filter(|us| **us > LIMIT_US).count() as f64,
    );
    m.set(
        "serve.latency_p99_us",
        percentile(&latency, 99.0).unwrap_or(0.0),
    );
    m.set(
        "serve.loadgen_lag_p99_us",
        percentile(&lag_us, 99.0).unwrap_or(0.0),
    );
    let batches = run.dispatch.engine_batches.max(1) as f64;
    m.set(
        "runtime.engine_wall_us_per_batch",
        run.dispatch.engine_wall.as_micros() as f64 / batches,
    );
}

/// One backend and one engine of `max(1, nproc − 1)` workers (the load
/// generator has a thread of its own), in alternating slices:
///
/// * `steady`, Poisson at 300 requests/s, gives `latency_p50_us` and
///   `latency_p90_us`: the quietest quarter over the slices of the exact
///   per-slice percentile of completed-request latency. Mean batch fill is about 1.3,
///   so a request pays a batch-window wait and almost a whole engine
///   dispatch.
/// * `drain`, a backlog arriving at t = 0 with no deadline, gives
///   `throughput_per_s`: full batches of 8, where only service time
///   matters; the median over the slices.
/// * `rate600`, Poisson at 600 requests/s, runs in the traced pass only.
pub fn serve_open_48(run: &Run, budget: &Budget) -> Outcome {
    let workers = crate::available_workers().saturating_sub(1).max(1);
    let mut pace = Pace::new();
    let ((backend, mut kit, table, engine), setup_s) = repeated(11, &mut pace, || {
        let backend = CnnBackend::tiny(run.seed).expect("serving backend");
        let mut kit = Kit::build(&SERVED_48, run.seed);
        let table: Vec<CnnVerdict> = kit
            .pool
            .iter()
            .map(|image| {
                let q = kit.dmr.classify(image).expect("oracle classification");
                CnnVerdict {
                    class: q.class(),
                    qualified: q.is_qualified(),
                    confidence_bits: q.confidence().to_bits(),
                }
            })
            .collect();
        (backend, kit, table, Engine::with_workers(workers))
    });
    assert_eq!(
        backend.image_count(),
        table.len(),
        "rebuilt pool differs from the backend's"
    );
    let mut outcome = Outcome::default();
    let mut digest = Digest::new();
    for v in &table {
        digest.push(v.class as u64);
        digest.push(u64::from(v.confidence_bits) << 1 | u64::from(v.qualified));
    }
    outcome.verdict_digest = digest.value();
    let stage = Stage {
        backend: &backend,
        engine: &engine,
        table: &table,
        budget,
    };
    let off = TraceRecorder::off();

    if let Some(mut spans) = run.spans() {
        let mut oracle = Oracle::new(kit.pool.len());
        let seconds = run.seconds * 0.1;
        let p50 = probe::layers(
            &mut kit,
            &mut spans,
            &mut pace,
            &mut oracle,
            &mut outcome,
            budget,
            seconds,
        );
        let probe = probe::Fills {
            model: &kit.dmr,
            pool: &kit.pool,
            engine: &engine,
            classify_p50: p50,
        };
        probe.run(
            &mut spans,
            &mut pace,
            &mut oracle,
            &mut outcome,
            budget,
            run.seconds * 0.05,
        );

        // The same steady trace untraced, then with the server's and the
        // engine's recorder taps on: the difference is what observing costs.
        let steady = poisson(run.seconds * 0.25, STEADY_RPS, run.seed, 100);
        let untraced = latencies(&stage.serve(&steady, QUEUE, &off, &mut outcome));
        let recorder = TraceRecorder::with_capacity("serve-steady", RING_CAPACITY);
        let traced = stage.serve(&steady, QUEUE, &recorder, &mut outcome);
        let snapshot = recorder.drain();
        serve_layer(&steady, &traced, &snapshot, &mut outcome);
        spans.adopt(snapshot);
        let (off_p50, on_p50) = (median(&untraced), median(&latencies(&traced)));
        outcome
            .metrics
            .set("obs.observer_overhead_share", (on_p50 - off_p50) / off_p50);

        let high = poisson(run.seconds * 0.15, HIGH_RPS, run.seed ^ 0x600, 100);
        let recorder = TraceRecorder::with_capacity("serve-rate600", RING_CAPACITY);
        let served = stage.serve(&high, QUEUE, &recorder, &mut outcome);
        spans.adopt(recorder.drain());
        let latency = latencies(&served);
        let missed = high.len() - latency.iter().filter(|us| **us <= LIMIT_US).count();
        outcome
            .metrics
            .set("serve.rate600_p50_us", median(&latency));
        outcome.metrics.set(
            "serve.rate600_p90_us",
            percentile(&latency, 90.0).unwrap_or(0.0),
        );
        outcome.metrics.set(
            "serve.rate600_miss_share",
            missed as f64 / high.len() as f64,
        );

        let queued = backlog(run.seconds * 0.1, run.seed ^ 0xD4A1);
        let recorder = TraceRecorder::with_capacity("serve-drain", RING_CAPACITY);
        let drained = stage.serve(&queued, queued.len() + 96, &recorder, &mut outcome);
        spans.adopt(recorder.drain());
        outcome
            .metrics
            .set("serve.drain_fill_mean", drained.report.mean_batch_fill());
        return run.finish_traced(outcome, &spans);
    }

    let (mut p50, mut p90, mut rps) = (Vec::new(), Vec::new(), Vec::new());
    let (mut fill, mut limit_misses) = (Vec::new(), 0);
    for slice in 0..SLICES as u64 {
        budget.check("serve_open_48");
        // 100 requests are what a slice's p90 needs to have ten beyond it.
        let steady = poisson(
            run.seconds * 0.7 / SLICES as f64,
            STEADY_RPS,
            run.seed + slice,
            100,
        );
        let served = stage.serve(&steady, QUEUE, &off, &mut outcome);
        let latency = latencies(&served);
        p50.push(percentile(&latency, 50.0).expect("steady slice completed too few requests"));
        p90.push(percentile(&latency, 90.0).expect("steady slice completed too few requests"));
        fill.push(served.report.mean_batch_fill());
        limit_misses += latency.iter().filter(|us| **us > LIMIT_US).count();
        let queued = backlog(
            run.seconds * 0.3 / SLICES as f64,
            (run.seed + slice) ^ 0xD4A1,
        );
        // A drain is compute-bound, so it is paced; steady latency is half
        // batch-window timer, so it is not.
        let (drained, factor) =
            pace.around(|| stage.serve(&queued, queued.len() + 96, &off, &mut outcome));
        rps.push(drain_rps(&queued, &drained) / factor);
    }
    let m = &mut outcome.metrics;
    m.set("latency_p50_us", quiet_low(&p50));
    m.set("latency_p90_us", quiet_low(&p90));
    m.set("throughput_per_s", median(&rps));
    m.set("setup_s", setup_s);
    eprintln!(
        "serve_open_48: {SLICES} slices on {workers} engine workers; steady fill {:.2}, \
         {limit_misses} over the 50 ms limit; slice p50 {p50:.0?} us; drain {rps:.0?} /s",
        median(&fill),
    );
    outcome
}
