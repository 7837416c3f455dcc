//! The threaded wall-clock serving front-end.
//!
//! Same admission queue, same per-class lanes, same controller — but
//! arrivals come from a **real-time load generator thread** that sleeps
//! to each trace timestamp and offers against the live queue, while the
//! batcher thread forms and dispatches batches under physical time.
//! Overload here is produced by physics (the generator genuinely
//! outruns the server) instead of a service model, which is exactly
//! what the virtual replay cannot exercise: lock contention, condvar
//! wakeups, arrivals landing *during* a dispatch.
//!
//! What stays checkable without determinism:
//!
//! * **conservation** — per class and aggregate, the same invariant the
//!   virtual loop and the hammer test pin: every offered request ends
//!   shed, expired or completed;
//! * **controller purity** — AIMD decisions are a pure function of the
//!   observed `(queued, shed_total)` history, so the recorded decision
//!   log must replay bit-identically through a fresh controller
//!   ([`OverloadController::replay`](crate::OverloadController::replay));
//! * **the virtual oracle** — the same trace replayed on a
//!   [`VirtualClock`](crate::VirtualClock) is byte-identical across
//!   engine worker counts; the wall run must agree with it on the
//!   *structural* story (trace identity, class populations).
//!
//! The batcher dispatches the real backend, then sleeps out the
//! remainder of the [`ServiceModel`](crate::ServiceModel) cost for the
//! batch — so the modeled accelerator's saturation point holds on the
//! wall axis too, and tiny test backends still produce overload.
//!
//! A [`WallClock`](crate::WallClock) budget bounds the whole run: the
//! loop panics past it rather than hang a CI job.

use crate::admission::Admission;
use crate::backend::Backend;
use crate::batcher::{admission_queue, Dispatcher, ServerConfig};
use crate::clock::Clock;
use crate::metrics::ServeMetrics;
use crate::report::ServeRun;
use crate::request::Request;
use relcnn_obs::trace::{Arg, TraceRecorder};
use relcnn_runtime::Engine;
use std::time::Duration;

/// Idle re-check interval when the batcher has nothing queued.
const IDLE_WAIT: Duration = Duration::from_millis(2);

fn check_budget(clock: &dyn Clock, now_us: u64) {
    let budget = clock.budget_us();
    assert!(
        budget == 0 || now_us <= budget,
        "wall-clock serving run exceeded its hard budget ({now_us} µs > {budget} µs)"
    );
}

/// Runs `trace` through the wall-clock front-end (see the module docs).
/// Reached through [`Server::run`](crate::Server::run) with a
/// non-virtual [`Clock`].
pub(crate) fn run_wall<B: Backend>(
    trace: &[Request],
    config: &ServerConfig,
    backend: &B,
    engine: &Engine,
    metrics: &ServeMetrics,
    clock: &dyn Clock,
    flight: &TraceRecorder,
) -> ServeRun<B::Verdict> {
    // The load generator owns its own flight-recorder track, timestamped
    // on the wall clock like the batcher's.
    let loadgen_ring = flight.ring("loadgen");

    let queue = admission_queue(config, metrics);
    let mut d = Dispatcher::new(trace, config, &queue, backend, engine, metrics, flight);

    let shed_requests = std::thread::scope(|scope| {
        // Load-generator thread: sleep to each arrival, offer, collect
        // what admission rejects (it cannot touch the report — that
        // stays single-threaded on the batcher side).
        let producer = scope.spawn(|| {
            let mut shed = Vec::new();
            for r in trace {
                clock.wait_until(r.arrival_us);
                let rejected = queue.offer(*r) == Admission::Shed;
                loadgen_ring.instant(
                    if rejected { "shed" } else { "admit" },
                    "serve",
                    clock.now_us(),
                    &[Arg::U("id", r.id), Arg::S("class", r.class.label())],
                );
                if rejected {
                    shed.push(*r);
                }
            }
            queue.close();
            shed
        });

        // Batcher: the calling thread.
        loop {
            let window = queue.window();
            let now = clock.now_us();
            check_budget(clock, now);
            if window.len == 0 {
                if window.closed {
                    break;
                }
                queue.wait_for_activity(IDLE_WAIT);
                continue;
            }
            // Same close rule as the virtual loop, on measured time.
            let close_at = d.close_at(&window, now);
            if close_at > now {
                // Park until the window closes — or an arrival lands and
                // the batch may now be full; recompute either way.
                queue.wait_for_activity(Duration::from_micros(close_at - now));
                continue;
            }
            // The modeled accelerator cost is a *floor* on the batch's
            // service time: real inference ran inside the dispatch; sleep
            // out the rest.
            d.dispatch(clock.now_us(), |modelled| clock.wait_until(modelled));
        }

        producer.join().expect("load-generator thread panicked")
    });

    // Merge the producer's shed verdicts into the single-threaded record.
    for r in &shed_requests {
        d.record_shed(r);
    }
    d.finish(trace, clock.now_us())
}
