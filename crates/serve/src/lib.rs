//! # relcnn-serve — deadline-aware micro-batching inference serving
//!
//! The serving layer on top of the [`relcnn_runtime`] engine: it models
//! the workload class the campaign and sweep binaries cannot — an
//! **open-loop request stream** that keeps arriving whether or not the
//! server keeps up — and turns it into engine-sized micro-batches under
//! explicit deadline, priority-class and capacity policies, on either
//! of two interchangeable time axes.
//!
//! ## Architecture: one pipeline, two clocks
//!
//! ```text
//!                  ┌────────────────────────────────────────────────┐
//!   LoadGen (seed) │  AdmissionQueue: capacity C, AIMD cap a ≤ C    │
//!   ChaCha8 trace ─┼▶ critical ──▶│▒▒│ reserved slots               │
//!   class mix +    │  interactive ▶│▒▒▒▒│      priority drain ──▶ batcher
//!   per-class SLOs │  bulk ───────▶│▒▒▒▒▒▒│   (crit > int > bulk)   │ close on size
//!                  │  shed at cap/capacity, expire at deadline      │ OR lane window
//!                  └────────────────▲───────────────────────────────┘ OR early close
//!                                   │ set_admit_cap / early_close        │ batch
//!                        OverloadController (AIMD)  ◀── observe ─────────┤
//!                                                      (queued, sheds)   ▼
//!                                                       Backend::classify_batch
//!                                                       on a shared Engine
//!
//!   Clock axis (µs):   VirtualClock ─ jumps, free waits, deterministic replay
//!                      WallClock ──── Instant-anchored, real sleeps, threads
//! ```
//!
//! * **Virtual clock** (the default): waiting is free, service time
//!   comes from the deterministic [`ServiceModel`], and the entire
//!   serving history — batch composition, shedding, controller
//!   decisions, latencies — is a pure function of `(trace, config)`,
//!   independent of engine worker count. The CI determinism matrix
//!   byte-diffs `serving_artifact` across worker counts {1, 2, 8} on
//!   exactly this property.
//! * **Wall clock**: a load-generator thread sleeps to each trace
//!   arrival and offers against the live queue while the batcher thread
//!   forms and dispatches batches in real time; overload is physics.
//!   The virtual run is the wall run's correctness oracle: identical
//!   admission/batching code, and the wall run must still conserve per
//!   class and replay its controller decisions bit-identically
//!   ([`OverloadController::replay`]).
//!
//! Production shaping on both axes:
//!
//! * **Priority lanes** ([`RequestClass`]) — safety-critical before
//!   interactive before bulk, FIFO within a lane, with reserved
//!   admission slots ([`ServerConfig::with_critical_reserve`]) and a
//!   tighter batch window ([`BatchPolicy::with_critical_delay`]) for
//!   the critical lane.
//! * **Per-class SLOs** ([`LoadGenConfig::with_class_mix`] /
//!   [`with_class_deadlines`](LoadGenConfig::with_class_deadlines)) —
//!   each class draws its own deadline budget.
//! * **AIMD overload control** ([`OverloadController`]) — the admission
//!   cap halves on shed bursts (never below the critical reservation),
//!   recovers one slot per clean dispatch boundary, and congested batch
//!   windows close early. Decisions are integer-pure functions of the
//!   observed queue history.
//! * **Conservation** — `offered == shed + expired + completed`, per
//!   class *and* aggregate, asserted after every queue operation and
//!   reconciled against the report at the end of every run, in every
//!   build, and hammered by a three-class race test.
//! * **Live metrics** ([`Server::observed`] + [`ServeMetrics`]) —
//!   per-request families carry a `class` label and update while a run
//!   executes. The library binds no port: to scrape a run, serve its
//!   registry yourself (`relcnn_obs::ScrapeServer`).
//!
//! ## Quickstart: the `Server` builder
//!
//! ```rust
//! use relcnn_serve::{
//!     BatchPolicy, EchoBackend, LoadGen, LoadGenConfig, Server,
//!     ServerConfig, ServiceModel, RequestClass,
//! };
//! use relcnn_faults::SkewedCost;
//! use relcnn_runtime::Engine;
//!
//! // A mixed-class trace: 1:3:2 critical/interactive/bulk, critical on
//! // a 2 ms budget, bulk on 30 ms.
//! let trace = LoadGen::new(
//!     LoadGenConfig::poisson(200, 0xC0FFEE, 300, 10_000)
//!         .with_class_mix([1, 3, 2])
//!         .with_class_deadlines([2_000, 0, 30_000]),
//! )
//! .generate();
//!
//! let config = ServerConfig::new(
//!     16,
//!     BatchPolicy::new(8, 1_000).with_critical_delay(200),
//!     ServiceModel { batch_overhead_us: 100, cost: SkewedCost::periodic(150, 2_000, 13) },
//! )
//! .with_critical_reserve(2)
//! .with_control();
//!
//! let engine = Engine::with_workers(2);
//! let run = Server::new(config)
//!     .backend(&EchoBackend)
//!     .engine(&engine)
//!     .run(&trace); // default clock: deterministic virtual replay
//!
//! assert!(run.report.conserved());
//! let crit = run.report.class(RequestClass::Critical);
//! println!(
//!     "critical: {}/{} on time, shed {:.1}%; cap min {}",
//!     crit.completed - crit.late, crit.offered,
//!     crit.shed_rate() * 100.0, run.report.min_admit_cap,
//! );
//! ```
//!
//! Swap [`Server::clock`] to a [`WallClock`] and the same builder runs
//! the threaded real-time front-end (bounded by the clock's hard
//! budget).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod backend;
mod batcher;
mod clock;
mod controller;
mod loadgen;
pub mod metrics;
mod report;
mod request;
mod server;
mod wall;

pub use admission::{Admission, AdmissionCounters, AdmissionQueue, QueueWindow};
pub use backend::{Backend, BatchReply, CnnBackend, CnnVerdict, EchoBackend};
pub use batcher::{BatchPolicy, ServerConfig, ServiceModel};
pub use clock::{Clock, VirtualClock, WallClock};
pub use controller::{ControlRecord, Decision, OverloadController};
pub use loadgen::{Arrival, LoadGen, LoadGenConfig};
pub use metrics::{ClassMetrics, ServeMetrics};
pub use report::{ClassReport, DispatchStats, ServeReport, ServeRun};
pub use request::{Outcome, Request, RequestClass};
pub use server::{Server, ServerBuilder};
