//! # relcnn-cluster — multi-process campaign fabric
//!
//! Distributes a deterministic campaign over N worker *processes* with
//! the same contract the runtime engine gives worker *threads*: the
//! merged aggregate is byte-identical at every topology — 1 process × 8
//! threads, 2 × 4, 4 × 2 — and stays byte-identical when workers die
//! mid-run.
//!
//! ## Topology
//!
//! ```text
//!            ┌────────────────────── head process ─────────────────────┐
//!            │ task queue (fixed-width shard ranges)   merge in        │
//!            │ requeue on loss · backoff · deadlines   task order      │
//!            └──┬───────────────┬───────────────┬──────────▲───────────┘
//!     Setup/    │ stdin pipe    │               │          │ Done{partial,
//!     Assign ▼  │ frames        │               │          │ payload}
//!            ┌──▼─────┐     ┌───▼────┐      ┌───▼────┐     │ Heartbeat
//!            │worker 0│     │worker 1│   …   │worker N│ ────┘ (stdout pipe)
//!            │ engine │     │ engine │      │ engine │
//!            │ T thr  │     │ T thr  │      │ T thr  │  ← same binary,
//!            └────────┘     └────────┘      └────────┘    WORKER_ENV set
//! ```
//!
//! The head re-invokes the **current binary** with
//! [`WORKER_ENV`] set; the binary's `main` calls
//! [`run_worker_if_spawned`] first, so the same executable is both head
//! and worker. Messages are serde-JSON inside length-prefixed,
//! CRC-checksummed [`frame`]s on the child pipes — a corrupt frame is
//! *detected*, never parsed.
//!
//! ## Why byte-identity survives topology and faults
//!
//! The unit of distribution is a fixed-width contiguous **shard range**
//! of the full [`RunPlan`](../relcnn_runtime)'s shard axis (a
//! [`JobSpec`] names the plan; tasks are cut independently of the
//! process count). The runtime's shard-window support guarantees each
//! task's result stream is the exact slice of the single-process run,
//! so *who* computes a task — original assignee, a survivor after a
//! requeue, or the head itself as a last resort — cannot change a byte;
//! the head merely merges partials and concatenates payloads in task
//! order.
//!
//! ## Failure semantics
//!
//! | failure        | worker symptom                   | head detection          | recovery |
//! |----------------|----------------------------------|-------------------------|----------|
//! | crash          | process exits                    | pipe EOF                | kill + requeue |
//! | hang           | heartbeats, but no result        | per-task deadline       | kill + requeue |
//! | corrupt frame  | checksum mismatch on the pipe    | codec `FrameError`      | kill + requeue |
//!
//! Requeues use bounded exponential backoff; a task that exhausts its
//! two retries — or outlives the last worker — is computed in-process by
//! the head. Any loss marks the run **degraded**
//! ([`ClusterStats::degraded`], `relcnn_cluster_degraded`), with the
//! same byte-identical aggregate. The [`ChaosPlan`] layer injects all
//! three failures deterministically from the campaign seed, so CI can
//! assert exactly that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod frame;
pub mod head;
pub mod metrics;
pub mod proto;
pub mod worker;

pub use chaos::ChaosPlan;
pub use frame::{
    crc32, encode_frame, read_frame, write_frame, FrameError, FRAME_MAGIC, MAX_FRAME_LEN,
};
pub use head::{
    run_cluster, ClusterConfig, ClusterHooks, ClusterOutcome, ClusterStats, TaskOutput,
};
pub use metrics::ClusterMetrics;
pub use proto::{FromWorker, JobSpec, ToWorker};
pub use worker::{run_worker_if_spawned, CHAOS_CORRUPT_EXIT, CHAOS_KILL_EXIT, WORKER_ENV};
