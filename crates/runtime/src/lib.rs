//! # relcnn-runtime — sharded campaign & batched-inference engine
//!
//! The single execution substrate for everything in the `relcnn`
//! workspace that runs *many independent units of work*: fault-injection
//! campaigns, batched hybrid-CNN classification, serving batches, and
//! the paper's parallel experiment sweeps (`relcnn-bench`).
//!
//! ## Architecture
//!
//! ```text
//!   RunPlan { trials, seed, shards, chunk, shard_window }
//!        │  (what runs: the result's identity)       Engine::with_workers(N + 1)
//!        │             ┌────────────────┐ pop front  ┌─────────┐ pull chunk items
//!        ├─ shards ────│ deque worker 0 │───────────▶│ worker 0│◀── TrialSource
//!        │  × chunks   │ deque ...      │ steal back │ ...     │ fold chunk into
//!        │             │ deque worker N │◀──half────▶│ worker N│ the sink's
//!        │             └────────────────┘            └────┬────┘ PartialAggregate
//!        │                                                │ (counters, or a
//!        │              Envelope, coalesced (bounded      │  Block of results)
//!        │              channel, backpressure)            ▼
//!        │     (shard, offset)-watermark release  ┌──────────────────────┐
//!        └───────────────────────────────────────▶│ aggregator  ──▶ Sink │
//!               shard-boundary checkpoint/abort   │ (reorder buffer:     │
//!                                                 │  depth measured)     │
//!                   recycled partials ◀───────────└──────────────────────┘
//! ```
//!
//! * **Deterministic sharding** — trials are split into fixed contiguous
//!   shards, and shards into fixed-size scheduling *chunks*; each shard's
//!   RNG stream is derived from `(campaign_seed, shard_index)` via
//!   ChaCha8, and a chunk *seeks* that stream to its own offset
//!   ([`chunk_rng`]), so a trial's inputs never depend on which worker
//!   ran its chunk. Thread count, chunk size, steal schedule and envelope
//!   coalescing are pure execution detail: aggregates are
//!   **bit-identical** at 1, 2 or 64 workers, chunked coarse or fine,
//!   stolen or not.
//! * **Work stealing over a static chunk schedule** — the chunk size is
//!   one rule (`⌈shard ÷ `[`DEFAULT_CHUNKS_PER_SHARD`]`⌉` unless
//!   [`RunPlan::with_chunk`] pins it), fixed before the run starts;
//!   workers drain their own chunk deque and steal the back half of a
//!   victim's when dry, so one pathologically expensive shard (an
//!   escalation-heavy fault-injection run) no longer pins its whole cost
//!   on a single worker while the rest idle. A worker that finds every
//!   deque empty retires.
//! * **Partial aggregation** — workers fold each chunk's results into the
//!   sink's chunk-local [`PartialAggregate`] in place, and the sink
//!   [`absorb`](Sink::absorb)s partials in trial order. A campaign's
//!   partial is its report, so the serial consumer merges a few integers
//!   per envelope and the channel never carries a trial; a sink that
//!   keeps the results takes a [`Block`] of them. Absorbed partials are
//!   cleared and recycled to the workers, storage intact.
//! * **Streaming ingestion** — per-trial inputs come from a pull-based
//!   [`TrialSource`]: workers materialise a generated or streamed
//!   dataset one chunk at a time ([`FnSource`]), with the in-memory case
//!   as the eager [`SliceSource`] impl. Campaigns
//!   ([`Engine::run_source`]) and batched inference
//!   ([`BatchClassify::classify_source`]) ride the same seam, so the
//!   serving layer dispatches batches without cloning an image.
//! * **Streaming aggregation** — a [`Sink`] sees results in trial order
//!   (the aggregator re-orders envelopes on a per-shard in-shard-offset
//!   watermark) and may stop the run at any shard boundary
//!   ([`Sink::checkpoint`]), e.g. once a confidence interval is tight
//!   enough ([`EarlyStop::on_ci_width`]) or the leaky bucket escalated
//!   ([`EarlyStop::on_escalations`]). Abort decisions only ever see the
//!   completed shard *prefix*, so they are scheduling-independent too.
//! * **Observability** — every run yields [`RunStats`] (throughput,
//!   busy/idle time, steal counts, per-worker send-block time on
//!   the bounded channel via [`WorkerStats`], tail shard latency, the
//!   reorder buffer's peak depth) and
//!   results can be teed to a JSONL artefact with [`JsonlSink`]. Runs
//!   also publish *live*: workers and the aggregator update shared
//!   `relcnn-obs` handles as they execute, so [`Engine::metrics`] reads a
//!   run in flight from any clone of the engine, and an engine attached
//!   to a registry (`Engine::observed`) is scrapeable over
//!   `GET /metrics` mid-campaign. Publication is write-only side
//!   traffic — the deterministic result path never reads a metric, and
//!   the CI determinism matrix byte-diffs artefacts with metrics on vs
//!   off.
//!
//! ## Quickstart: a campaign
//!
//! One description of a run ([`RunPlan`]), one way to start it (an
//! [`Engine`], which owns the worker count). [`run_campaign`] is
//! [`Engine::run`] with a seed closure and a [`CampaignSink`]; a campaign
//! that tees to JSONL, pulls from a [`TrialSource`] or runs one
//! [shard window](RunPlan::with_shard_window) calls the engine directly.
//!
//! ```rust
//! use relcnn_runtime::{run_campaign, EarlyStop, Engine, RunPlan, TrialOutcome, TrialResult};
//!
//! let plan = RunPlan::new(1_000, 0xC0FFEE);
//! let outcome = run_campaign(&Engine::with_workers(4), &plan, EarlyStop::never(), |seed| {
//!     TrialResult {
//!         outcome: if seed % 97 == 0 {
//!             TrialOutcome::DetectedRecovered
//!         } else {
//!             TrialOutcome::Correct
//!         },
//!         injector: Default::default(),
//!     }
//! });
//! assert_eq!(outcome.summary.trials, 1_000);
//! // Identical for any `with_workers(..)` value.
//! ```
//!
//! ## Quickstart: batched inference
//!
//! ```rust,no_run
//! use relcnn_runtime::{BatchClassify, Engine};
//! # use relcnn_core::{HybridCnn, HybridConfig};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let hybrid = HybridCnn::untrained(&HybridConfig::tiny(1))?;
//! let images: Vec<relcnn_tensor::Tensor> = vec![];
//! let verdicts = hybrid.classify_many(&Engine::default(), &images)?;
//! # Ok(()) }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agg;
mod batch;
pub mod campaign;
mod engine;
pub mod metrics;
mod sched;
mod sink;
mod source;
mod trial;

pub use agg::{merge_in_order, Block, PartialAggregate, TrialCount};
pub use batch::BatchClassify;
pub use campaign::{
    run_campaign, CampaignReport, CampaignSink, EarlyStop, TrialOutcome, TrialResult,
};
pub use engine::{
    chunk_rng, shard_rng, Engine, RunOutcome, RunPlan, RunStats, WorkerStats,
    CHANNEL_DEPTH_PER_WORKER, DEFAULT_CHUNKS_PER_SHARD, DEFAULT_SHARDS,
};
pub use metrics::EngineMetrics;
pub use relcnn_obs::LatencyHistogram;
pub use sink::{CollectSink, Control, CountSink, JsonlSink, Sink};
pub use source::{FnSource, SliceSource, TrialSource};
pub use trial::{FnSourcedTrial, FnTrial, SourcedTrial, Trial, TrialCtx};
