//! Deadline-aware micro-batching on a virtual clock.
//!
//! The server is modelled as one logical accelerator fed by the
//! admission queue: a batch *closes* either when [`BatchPolicy::max_batch`]
//! requests are waiting with the server free (size close), or when some
//! lane's oldest admitted request has waited out that lane's window
//! (deadline-window close: [`BatchPolicy::max_delay_us`], tightened to
//! [`BatchPolicy::critical_delay_us`] for the safety-critical lane) —
//! the classic size-or-timeout micro-batching rule with per-class
//! windows. The overload controller, when configured, can also close a
//! congested window *early* and clamp the admission cap at every
//! dispatch boundary ([`OverloadController`]). Before every dispatch the
//! queue is swept twice for stale requests: once *at the previous
//! batch's completion boundary* (they were already dead when the server
//! freed) and once *at dispatch time* (they died while the batch was
//! forming). Mid-batch work is never aborted.
//!
//! Time here is **virtual**: arrivals carry trace timestamps, and a
//! batch's service time comes from a deterministic [`ServiceModel`]
//! (overhead + per-request cost from a [`SkewedCost`] heavy-tail
//! profile) rather than the wall clock. That makes the entire serving
//! history — batch composition, shedding, expiry, controller decisions,
//! latencies — a pure function of `(trace, server config)`, independent
//! of the engine's worker count, which is what the CI byte-diff of
//! `serving_artifact` across worker schedules pins, and what makes the
//! virtual run the wall-clock front-end's correctness oracle. The
//! *real* inference still happens: every closed batch is dispatched
//! through the backend on the shared engine, and the engine's
//! wall-clock counters are reported separately in
//! [`DispatchStats`](crate::report::DispatchStats).
//!
//! Entry point: the [`Server`](crate::Server) builder (a virtual-clock
//! run is the default).

use crate::admission::{Admission, AdmissionQueue, QueueWindow};
use crate::backend::Backend;
use crate::controller::OverloadController;
use crate::metrics::ServeMetrics;
use crate::report::{DispatchStats, ServeReport, ServeRun};
use crate::request::{Outcome, Request, RequestClass};
use relcnn_faults::SkewedCost;
use relcnn_obs::trace::{Arg, TraceRecorder, TraceRing};
use relcnn_runtime::Engine;

/// When a forming batch closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Size close: dispatch as soon as this many requests wait and the
    /// server is free.
    pub max_batch: usize,
    /// Deadline-window close: dispatch a partial batch once the oldest
    /// admitted interactive/bulk request has waited this long.
    pub max_delay_us: u64,
    /// Window budget for the safety-critical lane: a waiting critical
    /// request closes the window after this long instead. Equal to
    /// `max_delay_us` by default ([`BatchPolicy::new`]); production
    /// configs set it to a small fraction of it.
    pub critical_delay_us: u64,
}

impl BatchPolicy {
    /// A size-or-timeout policy with a uniform window for all classes.
    pub fn new(max_batch: usize, max_delay_us: u64) -> Self {
        BatchPolicy {
            max_batch,
            max_delay_us,
            critical_delay_us: max_delay_us,
        }
    }

    /// Tightens the safety-critical lane's batch window.
    pub fn with_critical_delay(mut self, critical_delay_us: u64) -> Self {
        self.critical_delay_us = critical_delay_us;
        self
    }

    /// The window budget of one lane.
    pub fn delay_us(&self, class: RequestClass) -> u64 {
        match class {
            RequestClass::Critical => self.critical_delay_us,
            _ => self.max_delay_us,
        }
    }

    /// The earliest lane-window close over the queued heads, if any lane
    /// has a waiter.
    pub(crate) fn window_close_us(
        &self,
        heads: &[Option<u64>; RequestClass::COUNT],
    ) -> Option<u64> {
        RequestClass::ALL
            .iter()
            .filter_map(|&c| heads[c.lane()].map(|h| h.saturating_add(self.delay_us(c))))
            .min()
    }
}

/// Deterministic virtual service-time model of the accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceModel {
    /// Fixed per-batch cost (kernel launch, weights residency) — the
    /// term batching amortises.
    pub batch_overhead_us: u64,
    /// Per-request cost profile by request id ([`SkewedCost`] models the
    /// heavy tail: qualification escalation paths cost many re-runs).
    pub cost: SkewedCost,
}

impl ServiceModel {
    /// Virtual service cost of one request.
    pub fn request_cost_us(&self, req: &Request) -> u64 {
        self.cost.evals(req.id)
    }

    /// Virtual service cost of one batch.
    pub fn batch_cost_us(&self, batch: &[Request]) -> u64 {
        self.batch_overhead_us + batch.iter().map(|r| self.request_cost_us(r)).sum::<u64>()
    }
}

/// Full serving configuration (everything but the trace itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Admission-queue capacity.
    pub queue_capacity: usize,
    /// Batch-close policy.
    pub policy: BatchPolicy,
    /// Virtual service-time model (also sets the wall-clock front-end's
    /// synthetic service sleep for backends without real cost).
    pub service: ServiceModel,
    /// Queue slots reserved for the safety-critical lane — the floor no
    /// AIMD clamp can take away.
    pub critical_reserve: usize,
    /// Overload controller; `false` (the default) disables AIMD backoff
    /// and early window closes, reproducing the uncontrolled server.
    pub control: bool,
}

impl ServerConfig {
    /// An uncontrolled single-class-equivalent configuration (no
    /// reservation, no AIMD).
    pub fn new(queue_capacity: usize, policy: BatchPolicy, service: ServiceModel) -> Self {
        ServerConfig {
            queue_capacity,
            policy,
            service,
            critical_reserve: 0,
            control: false,
        }
    }

    /// Reserves queue slots for the safety-critical lane.
    pub fn with_critical_reserve(mut self, slots: usize) -> Self {
        self.critical_reserve = slots;
        self
    }

    /// Enables the AIMD overload controller.
    pub fn with_control(mut self) -> Self {
        self.control = true;
        self
    }
}

/// The run's admission queue, sized and reserved per `config` and
/// publishing on `metrics`. Lives outside the [`Dispatcher`] so the
/// wall-clock load generator can offer against it from its own thread.
pub(crate) fn admission_queue(config: &ServerConfig, metrics: &ServeMetrics) -> AdmissionQueue {
    AdmissionQueue::with_reserve(config.queue_capacity, config.critical_reserve).observed(metrics)
}

/// What a serving run owns besides its clock loop: the overload
/// controller, the single-threaded record of the run and the one
/// dispatch step. The virtual replay and the wall-clock front-end both
/// drive this; they differ only in how time passes — who offers arrivals
/// (the loop itself, or a load-generator thread) and how a batch's
/// completion time is obtained.
pub(crate) struct Dispatcher<'a, B: Backend> {
    config: &'a ServerConfig,
    queue: &'a AdmissionQueue,
    backend: &'a B,
    engine: &'a Engine,
    metrics: &'a ServeMetrics,
    /// Flight-recorder track of the batcher, timestamped on the clock
    /// the run lives on. Write-only side traffic: never read by the run.
    ring: TraceRing,
    controller: Option<OverloadController>,
    outcomes: Vec<Option<Outcome<B::Verdict>>>,
    report: ServeReport,
    dispatch: DispatchStats,
    /// When the server finishes its current batch.
    free_at: u64,
    /// Expiry at `free_at` already done?
    boundary_swept: bool,
    /// Controller: close the next window as soon as the server frees.
    early_close: bool,
}

impl<'a, B: Backend> Dispatcher<'a, B> {
    /// An idle server about to serve `trace` from `queue`.
    ///
    /// # Panics
    ///
    /// Panics if the trace's ids are not exactly `0..trace.len()`.
    pub(crate) fn new(
        trace: &[Request],
        config: &'a ServerConfig,
        queue: &'a AdmissionQueue,
        backend: &'a B,
        engine: &'a Engine,
        metrics: &'a ServeMetrics,
        flight: &TraceRecorder,
    ) -> Self {
        for (i, r) in trace.iter().enumerate() {
            assert_eq!(
                r.id, i as u64,
                "trace ids must be 0..len in order (request at position {i} has id {})",
                r.id
            );
        }
        Dispatcher {
            config,
            queue,
            backend,
            engine,
            metrics,
            ring: flight.ring("serve"),
            controller: config
                .control
                .then(|| OverloadController::new(queue.capacity(), queue.critical_reserve())),
            outcomes: vec![None; trace.len()],
            report: ServeReport::new(),
            dispatch: DispatchStats::default(),
            free_at: 0,
            boundary_swept: true,
            early_close: false,
        }
    }

    /// The size-close threshold. Like the admission queue's capacity, a
    /// zero close size would make the loops spin on empty batches
    /// forever; clamp it to 1.
    pub(crate) fn max_batch(&self) -> usize {
        self.config.policy.max_batch.max(1)
    }

    /// When the forming batch closes, seen from `now`: a size close (or a
    /// controller early close) needs only a free server; a window close
    /// waits for the tightest lane window among the queued heads, and
    /// never before the server frees either.
    pub(crate) fn close_at(&self, window: &QueueWindow, now: u64) -> u64 {
        let free = now.max(self.free_at);
        if window.len >= self.max_batch() || self.early_close {
            return free;
        }
        let head_close = self
            .config
            .policy
            .window_close_us(&window.head_arrival_us)
            .expect("non-empty queue has a head");
        free.max(head_close)
    }

    /// Records a request admission rejected.
    pub(crate) fn record_shed(&mut self, req: &Request) {
        self.report.shed += 1;
        self.report.classes[req.class.lane()].shed += 1;
        self.outcomes[req.id as usize] = Some(Outcome::Shed);
    }

    /// Offers one request to the queue at `now` on the batcher's own
    /// thread (the virtual replay; the wall front-end's load generator
    /// offers from its thread and reports sheds back afterwards).
    pub(crate) fn admit(&mut self, req: &Request, now: u64) {
        let shed = self.queue.offer(*req) == Admission::Shed;
        if shed {
            self.record_shed(req);
        }
        self.ring.instant(
            if shed { "shed" } else { "admit" },
            "serve",
            now,
            &[Arg::U("id", req.id), Arg::S("class", req.class.label())],
        );
    }

    /// Sweeps requests already past their deadline at `at_us` out of the
    /// queue — at the previous batch's completion `boundary`, or at
    /// dispatch time.
    fn expire(&mut self, at_us: u64, boundary: bool) {
        for r in self.queue.expire(at_us) {
            if boundary {
                self.report.expired_boundary += 1;
            } else {
                self.report.expired_pre_dispatch += 1;
            }
            self.report.classes[r.class.lane()].expired += 1;
            self.outcomes[r.id as usize] = Some(Outcome::Expired);
            self.ring.instant(
                "expire",
                "serve",
                at_us,
                &[Arg::U("id", r.id), Arg::U("boundary", u64::from(boundary))],
            );
        }
    }

    /// Closes and serves one batch at `dispatch_at` (which is at or past
    /// the boundary `free_at`): boundary sweep, pre-dispatch sweep, take,
    /// classify on the engine, record every completion, feed the
    /// controller. `done_at` turns the batch's modelled completion time
    /// (`dispatch_at` + its [`ServiceModel`] cost) into the observed one —
    /// the only thing the clock supplies. A window whose requests all
    /// expired dispatches nothing; the caller re-evaluates.
    pub(crate) fn dispatch(&mut self, dispatch_at: u64, done_at: impl FnOnce(u64) -> u64) {
        // Boundary sweep: requests already dead when the server last
        // freed. Only meaningful once per boundary.
        if !self.boundary_swept {
            self.expire(self.free_at, true);
            self.boundary_swept = true;
        }
        // Pre-dispatch sweep: requests that died while the batch was
        // forming.
        self.expire(dispatch_at, false);
        let batch = self.queue.take_batch(self.max_batch());
        if batch.is_empty() {
            return;
        }
        let service_us = self.config.service.batch_cost_us(&batch);
        let reply = self.backend.classify_batch(self.engine, &batch);
        assert_eq!(
            reply.verdicts.len(),
            batch.len(),
            "backend returned {} verdicts for a batch of {}",
            reply.verdicts.len(),
            batch.len()
        );
        let done_at = done_at(dispatch_at + service_us);
        self.ring.span(
            "batch",
            "serve",
            dispatch_at,
            done_at,
            &[
                Arg::U("batch", self.report.batches),
                Arg::U("fill", batch.len() as u64),
                Arg::U("service_us", service_us),
            ],
        );
        for (r, verdict) in batch.iter().zip(reply.verdicts) {
            let latency_us = done_at.saturating_sub(r.arrival_us);
            let late = done_at > r.deadline_us;
            self.report.completed += 1;
            self.report.late += u64::from(late);
            self.report.latency.record(latency_us);
            let rc = &mut self.report.classes[r.class.lane()];
            rc.completed += 1;
            rc.late += u64::from(late);
            rc.latency.record(latency_us);
            let cm = self.metrics.class(r.class);
            cm.completed.inc();
            if late {
                cm.late.inc();
            }
            cm.latency_us.record(latency_us);
            self.outcomes[r.id as usize] = Some(Outcome::Completed {
                batch: self.report.batches,
                latency_us,
                late,
                verdict,
            });
            self.ring.instant(
                "complete",
                "serve",
                done_at,
                &[
                    Arg::U("id", r.id),
                    Arg::U("latency_us", latency_us),
                    Arg::U("late", u64::from(late)),
                ],
            );
        }
        self.report.batches += 1;
        self.report.batched_requests += batch.len() as u64;
        self.metrics.batches.inc();
        self.metrics.batch_fill.record(batch.len() as u64);
        if let Some(stats) = reply.stats {
            self.dispatch.fold(&stats);
        }
        self.free_at = done_at;
        self.boundary_swept = false;
        self.early_close = self.control_boundary(done_at);
    }

    /// Feeds one dispatch boundary to the controller (when configured),
    /// applying the cap to the queue and publishing decision metrics.
    /// Returns whether the next window closes early.
    fn control_boundary(&mut self, ts_us: u64) -> bool {
        let Some(ctl) = self.controller.as_mut() else {
            return false;
        };
        let clamps_before = ctl.clamps();
        let decision = ctl.observe(self.queue.len() as u64, self.queue.counters().shed);
        self.queue.set_admit_cap(decision.cap as usize);
        if ctl.clamps() > clamps_before {
            self.metrics.aimd_clamps.inc();
        }
        if decision.early_close {
            self.metrics.early_closes.inc();
        }
        self.ring.instant(
            "control",
            "serve",
            ts_us,
            &[
                Arg::U("cap", decision.cap),
                Arg::U("early_close", u64::from(decision.early_close)),
            ],
        );
        decision.early_close
    }

    /// End-of-run bookkeeping at `now`: makespan, per-class offered
    /// counts from the trace, controller summary, conservation checks,
    /// outcome unwrapping.
    pub(crate) fn finish(self, trace: &[Request], now: u64) -> ServeRun<B::Verdict> {
        let Dispatcher {
            queue,
            controller,
            mut report,
            outcomes,
            dispatch,
            free_at,
            ..
        } = self;
        report.makespan_us = free_at.max(now);
        report.offered = trace.len() as u64;
        for r in trace {
            report.classes[r.class.lane()].offered += 1;
        }
        let control = match controller {
            Some(ctl) => {
                report.early_closes = ctl.early_closes();
                report.aimd_clamps = ctl.clamps();
                report.min_admit_cap = ctl.min_cap_seen();
                report.final_admit_cap = ctl.cap();
                ctl.log().to_vec()
            }
            None => {
                report.min_admit_cap = queue.capacity() as u64;
                report.final_admit_cap = queue.capacity() as u64;
                Vec::new()
            }
        };
        let counters = queue.counters();
        assert_eq!(counters.offered, report.offered);
        assert_eq!(counters.shed, report.shed);
        assert_eq!(counters.expired, report.expired());
        for class in RequestClass::ALL {
            let qc = queue.class_counters(class);
            let rc = report.class(class);
            assert_eq!(qc.offered, rc.offered, "{} offered", class.label());
            assert_eq!(qc.shed, rc.shed, "{} shed", class.label());
            assert_eq!(qc.expired, rc.expired, "{} expired", class.label());
            assert_eq!(qc.dispatched, rc.completed, "{} dispatched", class.label());
        }
        assert!(report.conserved(), "report conservation: {report:?}");
        let outcomes: Vec<Outcome<B::Verdict>> = outcomes
            .into_iter()
            .enumerate()
            .map(|(id, o)| o.unwrap_or_else(|| panic!("request {id} has no terminal outcome")))
            .collect();
        ServeRun {
            report,
            outcomes,
            dispatch,
            control,
        }
    }
}

/// The virtual-clock serving loop (see the module docs). Reached through
/// [`Server::run`](crate::Server::run) with a virtual [`Clock`](crate::Clock).
pub(crate) fn run_virtual<B: Backend>(
    trace: &[Request],
    config: &ServerConfig,
    backend: &B,
    engine: &Engine,
    metrics: &ServeMetrics,
    flight: &TraceRecorder,
) -> ServeRun<B::Verdict> {
    let queue = admission_queue(config, metrics);
    // Trace timestamps below are the *virtual* clock's — the recorded
    // timeline shares the time axis of the serving history it narrates.
    let mut d = Dispatcher::new(trace, config, &queue, backend, engine, metrics, flight);
    let mut next = 0usize; // next trace index to arrive
    let mut now = 0u64; // virtual clock

    loop {
        let next_arrival = trace.get(next).map(|r| r.arrival_us);
        if queue.is_empty() {
            // Nothing admitted: the only possible event is an arrival.
            let Some(t) = next_arrival else { break };
            now = now.max(t);
            d.admit(&trace[next], now);
            next += 1;
            continue;
        }
        let window = queue.window();
        let close_at = d.close_at(&window, now);
        match next_arrival {
            // Arrivals strictly before the close join the queue first; an
            // arrival exactly at the close joins too unless the batch is
            // already full (fixed tie-break, part of the replay contract).
            Some(t) if t < close_at || (t == close_at && window.len < d.max_batch()) => {
                now = now.max(t);
                d.admit(&trace[next], now);
                next += 1;
            }
            _ => {
                now = close_at;
                // Waiting is free: the batch completes exactly when the
                // service model says it does.
                d.dispatch(now, |modelled| modelled);
            }
        }
    }
    d.finish(trace, now)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::EchoBackend;
    use crate::loadgen::{LoadGen, LoadGenConfig};

    fn uniform_service(per_req: u64, overhead: u64) -> ServiceModel {
        ServiceModel {
            batch_overhead_us: overhead,
            cost: SkewedCost::uniform(per_req),
        }
    }

    fn cfg(capacity: usize, max_batch: usize, max_delay: u64, svc: ServiceModel) -> ServerConfig {
        ServerConfig::new(capacity, BatchPolicy::new(max_batch, max_delay), svc)
    }

    fn drive<B: Backend>(
        trace: &[Request],
        config: &ServerConfig,
        backend: &B,
        engine: &Engine,
    ) -> ServeRun<B::Verdict> {
        run_virtual(
            trace,
            config,
            backend,
            engine,
            &ServeMetrics::default(),
            &TraceRecorder::off(),
        )
    }

    fn req(id: u64, arrival: u64, deadline: u64) -> Request {
        Request {
            id,
            arrival_us: arrival,
            deadline_us: deadline,
            payload_seed: id * 31,
            class: RequestClass::Interactive,
        }
    }

    #[test]
    fn size_close_fills_batches() {
        // 8 requests arriving back to back, max_batch 4, generous
        // deadlines: exactly two full batches.
        let trace: Vec<Request> = (0..8).map(|i| req(i, i, 1_000_000)).collect();
        let run = drive(
            &trace,
            &cfg(16, 4, 10_000, uniform_service(10, 5)),
            &EchoBackend,
            &Engine::with_workers(1),
        );
        assert_eq!(run.report.batches, 2);
        assert_eq!(run.report.completed, 8);
        assert_eq!(run.report.shed + run.report.expired(), 0);
        assert!((run.report.mean_batch_fill() - 4.0).abs() < 1e-9);
        // Single-class trace: the whole story sits in the interactive slice.
        let slice = run.report.class(RequestClass::Interactive);
        assert_eq!((slice.offered, slice.completed), (8, 8));
        assert!(run.report.conserved());
    }

    #[test]
    fn window_close_dispatches_partial_batches() {
        // One lone request: nothing else arrives, so only the max_delay
        // window can close the batch.
        let trace = vec![req(0, 100, 1_000_000)];
        let run = drive(
            &trace,
            &cfg(16, 8, 500, uniform_service(40, 10)),
            &EchoBackend,
            &Engine::with_workers(1),
        );
        assert_eq!(run.report.batches, 1);
        match &run.outcomes[0] {
            Outcome::Completed {
                latency_us, late, ..
            } => {
                // Dispatched at arrival+500, service 50: latency 550.
                assert_eq!(*latency_us, 550);
                assert!(!late);
            }
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn critical_delay_tightens_the_window_for_critical_heads() {
        // Same lone-request shape, but the request rides the critical
        // lane and the policy gives that lane a 50 µs window: dispatch at
        // arrival+50 instead of arrival+500.
        let trace = vec![Request {
            class: RequestClass::Critical,
            ..req(0, 100, 1_000_000)
        }];
        let policy = BatchPolicy::new(8, 500).with_critical_delay(50);
        let config = ServerConfig::new(16, policy, uniform_service(40, 10));
        let run = drive(&trace, &config, &EchoBackend, &Engine::with_workers(1));
        match &run.outcomes[0] {
            Outcome::Completed { latency_us, .. } => assert_eq!(*latency_us, 100),
            other => panic!("expected completion, got {other:?}"),
        }
        // A waiting critical head also pulls a mixed batch forward: bulk
        // at t=0 would wait to 500, critical arriving at t=10 closes the
        // window at 60 and both dispatch together.
        let mixed = vec![
            Request {
                class: RequestClass::Bulk,
                ..req(0, 0, 1_000_000)
            },
            Request {
                class: RequestClass::Critical,
                ..req(1, 10, 1_000_000)
            },
        ];
        let run = drive(&mixed, &config, &EchoBackend, &Engine::with_workers(1));
        assert_eq!(run.report.batches, 1);
        match &run.outcomes[1] {
            Outcome::Completed { latency_us, .. } => {
                // Closed at 10+50=60, service 2*40+10=90: done 150.
                assert_eq!(*latency_us, 140);
            }
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn capacity_sheds_bursts() {
        // 10 simultaneous arrivals, max_batch 2, capacity 4: the first
        // pair dispatches instantly, four more queue up behind the busy
        // server, and the remaining four hit a full queue and shed.
        let trace: Vec<Request> = (0..10).map(|i| req(i, 0, 1_000_000)).collect();
        let run = drive(
            &trace,
            &cfg(4, 2, 1_000, uniform_service(100, 0)),
            &EchoBackend,
            &Engine::with_workers(1),
        );
        assert_eq!(run.report.shed, 4);
        assert_eq!(run.report.completed, 6);
        assert_eq!(run.report.batches, 3);
        assert!(matches!(run.outcomes[6], Outcome::Shed));
        assert!(matches!(run.outcomes[9], Outcome::Shed));
    }

    #[test]
    fn expiry_fires_before_dispatch_and_at_boundaries() {
        // Request 0 drags the server busy until t=10_000. Requests 1..4
        // arrive at t=100 with deadline t=2_000: all dead long before the
        // server frees — expired, not served late.
        let mut trace = vec![req(0, 0, 1_000_000)];
        for i in 1..5 {
            trace.push(req(i, 100, 2_000));
        }
        let run = drive(
            &trace,
            &cfg(16, 1, 10, uniform_service(10_000, 0)),
            &EchoBackend,
            &Engine::with_workers(1),
        );
        assert_eq!(run.report.completed, 1);
        assert_eq!(run.report.expired(), 4);
        assert!(
            run.report.expired_boundary > 0,
            "boundary sweep should catch requests dead at server-free time: {:?}",
            run.report
        );
        for o in &run.outcomes[1..] {
            assert!(matches!(o, Outcome::Expired));
        }
    }

    #[test]
    fn pre_dispatch_sweep_drops_requests_that_die_while_the_batch_forms() {
        // Mixed deadline budgets: the head (long budget) holds the close
        // window open to t=3000 while request 1 (short budget, dead at
        // t=600) expires *inside the forming batch* — caught by the
        // pre-dispatch sweep, not the boundary sweep (the server was
        // never busy, so the boundary is t=0).
        let trace = vec![
            req(0, 0, 100_000),
            Request {
                id: 1,
                arrival_us: 100,
                deadline_us: 600,
                payload_seed: 1,
                class: RequestClass::Interactive,
            },
            req(2, 200, 100_000),
        ];
        let run = drive(
            &trace,
            &cfg(8, 4, 3_000, uniform_service(500, 0)),
            &EchoBackend,
            &Engine::with_workers(1),
        );
        assert_eq!(run.report.expired_pre_dispatch, 1, "{:?}", run.report);
        assert_eq!(run.report.expired_boundary, 0);
        assert_eq!(run.report.completed, 2);
        assert!(matches!(run.outcomes[1], Outcome::Expired));
    }

    #[test]
    fn late_completion_is_served_not_aborted() {
        // A request dispatched in time whose batch finishes past the
        // deadline: served, flagged late, never expired (no mid-batch
        // abort).
        let trace = vec![req(0, 0, 50)];
        let run = drive(
            &trace,
            &cfg(4, 1, 0, uniform_service(500, 0)),
            &EchoBackend,
            &Engine::with_workers(1),
        );
        assert_eq!(run.report.completed, 1);
        assert_eq!(run.report.late, 1);
        assert_eq!(run.report.expired(), 0);
    }

    #[test]
    fn controller_clamps_under_overload_and_recovers_after() {
        // A packed burst front-loads shedding, then a sparse tail lets
        // the cap recover. The controlled run records clamps and a
        // sub-capacity minimum cap; decisions replay bit-identically.
        let mut trace: Vec<Request> = (0..40).map(|i| req(i, 0, 1_000_000)).collect();
        for i in 40..60 {
            trace.push(req(i, 100_000 + (i - 40) * 5_000, 10_000_000));
        }
        let config = cfg(8, 2, 1_000, uniform_service(200, 0)).with_control();
        let run = drive(&trace, &config, &EchoBackend, &Engine::with_workers(1));
        assert!(run.report.aimd_clamps > 0, "{:?}", run.report);
        assert!(run.report.min_admit_cap < 8, "{:?}", run.report);
        assert_eq!(
            run.report.final_admit_cap, 8,
            "sparse tail should recover the cap fully: {:?}",
            run.report
        );
        assert!(!run.control.is_empty());
        assert_eq!(run.control.len() as u64, run.report.batches);
        let replayed = OverloadController::replay(
            config.queue_capacity,
            config.critical_reserve,
            &run.control,
        );
        assert_eq!(replayed, run.control, "controller purity");
        assert!(run.report.conserved());
    }

    #[test]
    fn controlled_overload_sheds_more_but_never_leaks_requests() {
        // Same trace with and without the controller: AIMD converts
        // queueing (expiry/lateness) into admission-time sheds; both
        // conserve exactly.
        let trace = LoadGen::new(LoadGenConfig::burst(300, 0xC1, 30, 5, 20_000, 4_000)).generate();
        let base = cfg(16, 4, 800, uniform_service(300, 50));
        let uncontrolled = drive(&trace, &base, &EchoBackend, &Engine::with_workers(1));
        let controlled = drive(
            &trace,
            &base.with_control(),
            &EchoBackend,
            &Engine::with_workers(1),
        );
        assert!(uncontrolled.report.conserved());
        assert!(controlled.report.conserved());
        assert!(
            controlled.report.shed >= uncontrolled.report.shed,
            "AIMD rejects at admission: {} vs {}",
            controlled.report.shed,
            uncontrolled.report.shed
        );
        assert!(controlled.report.aimd_clamps > 0);
    }

    #[test]
    fn replay_is_deterministic_and_worker_count_independent() {
        let trace = LoadGen::new(
            LoadGenConfig::poisson(400, 0xAB, 120, 8_000)
                .with_class_mix([1, 2, 1])
                .with_class_deadlines([2_000, 0, 30_000]),
        )
        .generate();
        let config = cfg(
            24,
            8,
            1_000,
            ServiceModel {
                batch_overhead_us: 80,
                cost: SkewedCost::periodic(100, 1_500, 17),
            },
        )
        .with_critical_reserve(4)
        .with_control();
        let reference = drive(&trace, &config, &EchoBackend, &Engine::with_workers(1));
        assert!(reference.report.completed > 0);
        assert!(
            reference.report.shed > 0 || reference.report.expired() > 0,
            "config should create some overload: {:?}",
            reference.report
        );
        for workers in [2, 8] {
            let r = drive(
                &trace,
                &config,
                &EchoBackend,
                &Engine::with_workers(workers),
            );
            assert_eq!(r.report, reference.report, "workers={workers}");
            assert_eq!(r.outcomes, reference.outcomes, "workers={workers}");
            assert_eq!(r.control, reference.control, "workers={workers}");
        }
        // And across reruns.
        let again = drive(&trace, &config, &EchoBackend, &Engine::with_workers(1));
        assert_eq!(again.outcomes, reference.outcomes);
    }

    #[test]
    fn builder_matches_the_direct_virtual_path() {
        let trace = LoadGen::new(LoadGenConfig::poisson(120, 0x51A, 150, 6_000)).generate();
        let config = cfg(16, 6, 800, uniform_service(90, 20));
        let engine = Engine::with_workers(1);
        let built = crate::Server::new(config)
            .backend(&EchoBackend)
            .engine(&engine)
            .run(&trace);
        let direct = drive(&trace, &config, &EchoBackend, &engine);
        assert_eq!(built.report, direct.report);
        assert_eq!(built.outcomes, direct.outcomes);
    }

    #[test]
    fn observed_replay_matches_unobserved_and_exposes_conservation() {
        let trace =
            LoadGen::new(LoadGenConfig::poisson(300, 0x0B5, 150, 6_000).with_class_mix([1, 3, 2]))
                .generate();
        let config = cfg(
            16,
            6,
            800,
            ServiceModel {
                batch_overhead_us: 60,
                cost: SkewedCost::periodic(90, 1_200, 13),
            },
        )
        .with_critical_reserve(2)
        .with_control();
        let plain = drive(&trace, &config, &EchoBackend, &Engine::with_workers(2));
        let reg = relcnn_obs::Registry::new();
        let metrics = ServeMetrics::registered(&reg);
        let observed = run_virtual(
            &trace,
            &config,
            &EchoBackend,
            &Engine::with_workers(2),
            &metrics,
            &TraceRecorder::off(),
        );
        // Metrics publication never perturbs the deterministic replay.
        assert_eq!(observed.report, plain.report);
        assert_eq!(observed.outcomes, plain.outcomes);
        assert_eq!(observed.control, plain.control);
        // The scraped page tells the same conservation story as the
        // report — per class and in aggregate (family sums).
        let page = reg.render();
        let parsed = relcnn_obs::parse::validate(&page).expect("valid exposition");
        assert_eq!(parsed.sum("relcnn_serve_requests_offered_total"), 300.0);
        assert_eq!(
            parsed.sum("relcnn_serve_requests_offered_total"),
            parsed.sum("relcnn_serve_requests_shed_total")
                + parsed.sum("relcnn_serve_requests_expired_total")
                + parsed.sum("relcnn_serve_requests_dispatched_total"),
            "{page}"
        );
        for class in RequestClass::ALL {
            let slice = plain.report.class(class);
            let l = [("class", class.label())];
            assert_eq!(
                parsed.value("relcnn_serve_requests_completed_total", &l),
                Some(slice.completed as f64),
                "{} completed",
                class.label()
            );
            assert_eq!(
                parsed.value("relcnn_serve_requests_shed_total", &l),
                Some(slice.shed as f64),
                "{} shed",
                class.label()
            );
        }
        assert_eq!(
            parsed.value("relcnn_serve_batches_total", &[]),
            Some(plain.report.batches as f64)
        );
        assert_eq!(
            parsed.value("relcnn_serve_batch_fill_requests_count", &[]),
            Some(plain.report.batches as f64)
        );
        assert_eq!(
            parsed.sum("relcnn_serve_latency_microseconds_count"),
            plain.report.completed as f64
        );
        assert_eq!(parsed.sum("relcnn_serve_queue_depth"), 0.0);
        assert_eq!(parsed.value("relcnn_serve_queue_capacity", &[]), Some(16.0));
        assert_eq!(
            parsed.value("relcnn_serve_admission_cap", &[]),
            Some(plain.report.final_admit_cap as f64)
        );
    }

    #[test]
    fn traced_replay_matches_untraced_and_narrates_every_outcome() {
        // A trace with sheds, expiries and completions: the flight
        // recorder must narrate each terminal outcome exactly once, on
        // the virtual time axis, without perturbing the replay.
        let trace = LoadGen::new(LoadGenConfig::burst(200, 0x71, 25, 5, 15_000, 3_000)).generate();
        let config = cfg(12, 4, 800, uniform_service(300, 50)).with_control();
        let plain = drive(&trace, &config, &EchoBackend, &Engine::with_workers(1));
        let recorder = TraceRecorder::new("serve-test");
        let traced = run_virtual(
            &trace,
            &config,
            &EchoBackend,
            &Engine::with_workers(1),
            &ServeMetrics::default(),
            &recorder,
        );
        assert_eq!(
            traced.report, plain.report,
            "tracing must not perturb the replay"
        );
        assert_eq!(traced.outcomes, plain.outcomes);

        let json = relcnn_obs::trace::export_chrome(&[recorder.drain()]);
        let parsed = relcnn_obs::trace::validate(&json).expect("serve trace must validate");
        assert_eq!(
            parsed.count('i', "admit") as u64,
            plain.report.offered - plain.report.shed
        );
        assert_eq!(parsed.count('i', "shed") as u64, plain.report.shed);
        assert_eq!(parsed.count('i', "expire") as u64, plain.report.expired());
        assert_eq!(parsed.count('i', "complete") as u64, plain.report.completed);
        assert_eq!(parsed.count('B', "batch") as u64, plain.report.batches);
        assert_eq!(parsed.count('i', "control") as u64, plain.report.batches);
    }

    #[test]
    fn zero_max_batch_clamps_to_one_instead_of_spinning() {
        // Regression: max_batch 0 made the size-close condition always
        // true with an always-empty take, freezing the virtual clock in
        // a busy loop. It now behaves as batch size 1.
        let trace: Vec<Request> = (0..4).map(|i| req(i, i * 10, 1_000_000)).collect();
        let run = drive(
            &trace,
            &cfg(8, 0, 500, uniform_service(20, 5)),
            &EchoBackend,
            &Engine::with_workers(1),
        );
        assert_eq!(run.report.completed, 4);
        assert_eq!(run.report.batches, 4);
    }

    #[test]
    #[should_panic(expected = "trace ids must be 0..len in order")]
    fn non_contiguous_trace_ids_are_rejected() {
        let trace = vec![req(5, 0, 1_000)];
        drive(
            &trace,
            &cfg(4, 2, 100, uniform_service(10, 0)),
            &EchoBackend,
            &Engine::with_workers(1),
        );
    }

    #[test]
    fn empty_trace_is_a_noop() {
        let run = drive(
            &[],
            &cfg(4, 4, 100, uniform_service(10, 1)),
            &EchoBackend,
            &Engine::with_workers(2),
        );
        assert_eq!(run.report.offered, 0);
        assert_eq!(run.report.batches, 0);
        assert!(run.outcomes.is_empty());
    }
}
