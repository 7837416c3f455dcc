//! The `Server` builder — one front door for both serving physics.
//!
//! ```rust
//! use relcnn_serve::{
//!     BatchPolicy, EchoBackend, LoadGen, LoadGenConfig, Server, ServerConfig, ServiceModel,
//! };
//! use relcnn_faults::SkewedCost;
//!
//! let trace = LoadGen::new(LoadGenConfig::poisson(50, 7, 300, 10_000)).generate();
//! let config = ServerConfig::new(
//!     16,
//!     BatchPolicy::new(8, 1_000),
//!     ServiceModel { batch_overhead_us: 100, cost: SkewedCost::uniform(150) },
//! );
//! let run = Server::new(config).backend(&EchoBackend).run(&trace);
//! assert!(run.report.conserved());
//! ```
//!
//! The builder replaced the old `run_server` / `run_server_observed`
//! free functions (now removed): configuration that used to be
//! positional arguments — backend, engine, metrics registry — is
//! named, and the **clock** joins it as a first-class choice.
//! [`Server::clock`] with a [`VirtualClock`] (the default) runs the
//! deterministic replay loop; a [`WallClock`] runs the threaded
//! real-time front-end.
//!
//! The server publishes on the registry it is [`observed`](Server::observed)
//! on and binds no port: a caller that wants the page over HTTP serves
//! that registry itself with `relcnn_obs::ScrapeServer::bind`, for as
//! long as it likes.

use crate::backend::Backend;
use crate::batcher::{run_virtual, ServerConfig};
use crate::clock::{Clock, VirtualClock};
use crate::metrics::ServeMetrics;
use crate::report::ServeRun;
use crate::request::Request;
use crate::wall::run_wall;
use relcnn_obs::trace::TraceRecorder;
use relcnn_obs::Registry;
use relcnn_runtime::Engine;

/// Entry point: [`Server::new`] yields this; naming a [`Backend`] via
/// [`ServerBuilder::backend`] yields the runnable [`Server`].
#[derive(Debug)]
pub struct ServerBuilder {
    config: ServerConfig,
}

impl ServerBuilder {
    /// Attaches the inference backend (borrowed: backends carry model
    /// state and are shared freely).
    pub fn backend<B: Backend>(self, backend: &B) -> Server<'_, B> {
        Server {
            config: self.config,
            backend,
            engine: None,
            clock: Box::new(VirtualClock::new()),
            metrics: ServeMetrics::default(),
            trace_rec: TraceRecorder::off(),
        }
    }
}

/// A configured serving front-end. See the module docs for the builder
/// story; [`Server::run`] executes a trace under the configured clock.
pub struct Server<'a, B> {
    config: ServerConfig,
    backend: &'a B,
    engine: Option<&'a Engine>,
    clock: Box<dyn Clock>,
    metrics: ServeMetrics,
    trace_rec: TraceRecorder,
}

impl Server<'static, ()> {
    /// Starts a builder for `config`.
    /// The entry point deliberately returns the builder, not `Self` —
    /// a `Server` only exists once a backend is attached.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(config: ServerConfig) -> ServerBuilder {
        ServerBuilder { config }
    }
}

impl<'a, B: Backend> Server<'a, B> {
    /// Dispatches batches on this engine instead of a private
    /// single-worker one.
    pub fn engine(mut self, engine: &'a Engine) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Publishes live [`ServeMetrics`] on `registry`.
    pub fn observed(mut self, registry: &Registry) -> Self {
        self.metrics = ServeMetrics::registered(registry);
        self
    }

    /// Attaches a flight recorder: the run records its serving
    /// timeline (admit/shed/expire/complete instants, batch spans,
    /// controller decisions) into `recorder`'s rings, on whichever
    /// clock the run uses. Off by default; never read by the run.
    pub fn traced(mut self, recorder: &TraceRecorder) -> Self {
        self.trace_rec = recorder.clone();
        self
    }

    /// Selects the time axis: a [`VirtualClock`] (the default) replays
    /// deterministically; a [`WallClock`](crate::WallClock) runs the
    /// threaded real-time front-end.
    pub fn clock<C: Clock + 'static>(mut self, clock: C) -> Self {
        self.clock = Box::new(clock);
        self
    }

    /// Serves `trace` to completion and returns every request's terminal
    /// outcome plus the aggregate report. Blocks for the duration (real
    /// time under a wall clock).
    ///
    /// # Panics
    ///
    /// Panics if the trace's ids are not exactly `0..trace.len()` in
    /// order, if the backend returns a wrong-sized verdict vector, if a
    /// wall run exceeds its clock's hard budget, or if a conservation
    /// invariant breaks.
    pub fn run(&self, trace: &[Request]) -> ServeRun<B::Verdict> {
        let default_engine;
        let engine = match self.engine {
            Some(e) => e,
            None => {
                default_engine = Engine::with_workers(1);
                &default_engine
            }
        };
        if self.clock.is_virtual() {
            run_virtual(
                trace,
                &self.config,
                self.backend,
                engine,
                &self.metrics,
                &self.trace_rec,
            )
        } else {
            run_wall(
                trace,
                &self.config,
                self.backend,
                engine,
                &self.metrics,
                self.clock.as_ref(),
                &self.trace_rec,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::EchoBackend;
    use crate::batcher::BatchPolicy;
    use crate::batcher::ServiceModel;
    use crate::clock::WallClock;
    use crate::loadgen::{LoadGen, LoadGenConfig};
    use relcnn_faults::SkewedCost;

    fn config() -> ServerConfig {
        ServerConfig::new(
            16,
            BatchPolicy::new(6, 800),
            ServiceModel {
                batch_overhead_us: 60,
                cost: SkewedCost::uniform(90),
            },
        )
    }

    #[test]
    fn builder_default_clock_is_the_deterministic_replay() {
        let trace = LoadGen::new(LoadGenConfig::poisson(200, 0xB11D, 150, 6_000)).generate();
        let a = Server::new(config()).backend(&EchoBackend).run(&trace);
        let b = Server::new(config())
            .backend(&EchoBackend)
            .clock(VirtualClock::new())
            .run(&trace);
        assert_eq!(a.report, b.report);
        assert_eq!(a.outcomes, b.outcomes);
        assert!(a.report.conserved());
    }

    #[test]
    fn builder_engine_and_observed_do_not_perturb_the_replay() {
        let trace = LoadGen::new(LoadGenConfig::poisson(150, 0x0B5E, 200, 8_000)).generate();
        let plain = Server::new(config()).backend(&EchoBackend).run(&trace);
        let reg = Registry::new();
        let engine = Engine::with_workers(2);
        let observed = Server::new(config())
            .backend(&EchoBackend)
            .engine(&engine)
            .observed(&reg)
            .run(&trace);
        assert_eq!(plain.report, observed.report);
        assert!(reg.render().contains("relcnn_serve_queue_capacity 16"));
    }

    #[test]
    fn wall_clock_run_conserves_and_measures_real_latency() {
        // Tiny real-time run: 30 requests, 2 ms apart, served in well
        // under the 10 s budget. Latencies are physics, so only the
        // structure is asserted.
        let trace = LoadGen::new(LoadGenConfig::poisson(30, 3, 2_000, 500_000)).generate();
        let run = Server::new(config())
            .backend(&EchoBackend)
            .clock(WallClock::with_budget(10_000_000))
            .run(&trace);
        assert!(run.report.conserved(), "{:?}", run.report);
        assert_eq!(
            run.report.completed + run.report.shed + run.report.expired(),
            30
        );
        assert!(run.report.completed > 0);
        assert!(run.report.makespan_us > 0);
    }
}
