//! The work-stealing worker-pool execution engine.
//!
//! # Determinism model
//!
//! A run partitions `trials` into a fixed number of *shards* — contiguous
//! index blocks whose count depends only on the [`RunPlan`], never on the
//! worker count — and each shard into fixed-size *chunks*, the unit of
//! scheduling. Each shard owns a ChaCha8 stream derived from
//! `(plan.seed, shard_index)`; a chunk starting at in-shard offset `t`
//! *seeks* that stream to word `2t` ([`chunk_rng`]), so the words a trial
//! draws are identical whether its chunk ran in place, ran first, or was
//! stolen — and identical to a fully sequential execution.
//!
//! Workers drain a local chunk deque and steal the back half of a victim's
//! deque when dry (see [`sched`](crate::sched) internals). Each worker
//! pulls its chunk's *inputs* from the run's
//! [`TrialSource`](crate::TrialSource) right before executing it — the
//! streaming-ingestion seam: a generated dataset is resident one chunk
//! per worker, never whole — then folds the chunk's results into a
//! chunk-local [`PartialAggregate`](crate::PartialAggregate) in place and
//! ships an *envelope* — the folded partial, whatever the sink chose it
//! to be: a few counters, or the results themselves in a
//! [`Block`](crate::Block) — through a **bounded** channel; contiguous
//! same-shard envelopes are coalesced before sending, so fine chunkings
//! no longer pay one message per chunk. The aggregator releases envelopes
//! to the [`Sink`] strictly in `(shard, in-shard offset)` order — the
//! *completed-offset watermark* — and returns each partial to the
//! workers through a recycle pool once the sink has absorbed it.
//! Aggregation therefore sees exactly
//! the same stream of results whether the pool has 1 worker or 64,
//! whether any chunk was stolen, and however chunks were sized or
//! coalesced. The sink's [`checkpoint`](Sink::checkpoint) early-abort
//! decision is evaluated once per shard, when the watermark crosses a
//! shard boundary, on the contiguous prefix of completed shards — so a
//! stopped run always aggregates shards `0..k` for a
//! scheduling-independent `k`.
//!
//! Workers never wait on the watermark: envelopes that arrive ahead of
//! it wait in the aggregator's reorder buffer, whose steady-state
//! residency is measured ([`RunStats::max_reorder_depth`] and the
//! `relcnn_engine_reorder_*` gauges), not capped.
//!
//! The chunk schedule is static: it is fixed before the first worker
//! starts ([`RunPlan::chunk`]), chunks only move between deques by
//! stealing, and a worker that finds every deque empty retires — whatever
//! remains is already executing elsewhere.

use crate::agg::{PartialAggregate, ReorderBuffer};
use crate::metrics::EngineMetrics;
pub use crate::sched::WorkerStats;
use crate::sched::{Chunk, Claim, StealQueue};
use crate::sink::{Control, Sink};
use crate::source::{IndexSource, TrialSource};
use crate::trial::{Indexed, SourcedTrial, Trial, TrialCtx};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use relcnn_obs::trace::{Arg, TraceRecorder};
use relcnn_obs::LatencyHistogram;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Default shard count when the plan does not pin one.
pub const DEFAULT_SHARDS: usize = 64;

/// Default chunks per shard when the plan does not pin a chunk size:
/// enough granularity for stealing to spread a skewed shard, coarse enough
/// that scheduling stays off the profile (contiguous chunks coalesce into
/// one envelope, so a finer chunk costs a deque pop, not a message).
pub const DEFAULT_CHUNKS_PER_SHARD: u64 = 4;

/// Result-channel capacity per worker: deep enough that a worker never
/// waits on a briefly busy aggregator, shallow enough that a slow sink
/// (e.g. JSONL to disk) exerts backpressure. The channel gates the
/// *send* rate to the aggregator's drain rate — which is gated by sink
/// absorption whenever the watermark is advancing. It does not bound the
/// aggregator's out-of-order buffer: envelopes received while the
/// watermark frontier waits on one slow in-flight trial accumulate in
/// the reorder map, bounded by how much the other workers execute during
/// that trial, not by the channel. (Refusing to drain instead would
/// deadlock: the frontier envelope may be queued behind the very sends
/// being refused.) Send-block time is reported per worker in
/// [`WorkerStats::send_block`].
pub const CHANNEL_DEPTH_PER_WORKER: usize = 4;

/// Coalescing cap: a worker keeps folding contiguous same-shard chunks
/// into the envelope in hand until it covers this many trials, then
/// flushes. Bounds both the aggregator's release latency and the memory
/// one envelope's partial can pin (a [`Block`](crate::Block) holds at
/// most this many results, plus the last chunk folded in).
const COALESCE_TRIALS: u64 = 1024;

/// What to execute: the deterministic identity of a run.
///
/// Two runs with equal plans produce bit-identical sink streams,
/// regardless of the engine's worker count. The chunk size is *not* part
/// of the result's identity: chunking only changes scheduling granularity,
/// never a trial's inputs, so any `chunk` value yields the same stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunPlan {
    /// Number of trials.
    pub trials: u64,
    /// Campaign seed: the root of every derived RNG stream.
    pub seed: u64,
    /// Shard count (0 = `min(DEFAULT_SHARDS, trials)`).
    pub shards: usize,
    /// Trials per scheduling chunk. 0 = the one auto rule,
    /// `⌈shard length ÷ `[`DEFAULT_CHUNKS_PER_SHARD`]`⌉`; any other value
    /// is used as given ([`with_chunk`](RunPlan::with_chunk)). The
    /// schedule is static — chunks are never resized once a run starts.
    pub chunk: u64,
    /// Restricts execution to the shards in `[lo, hi)` of the *full*
    /// plan (`None` = every shard). The shard partition, per-shard RNG
    /// streams and global trial indices are those of the unwindowed
    /// plan, so a windowed run's result stream is bit-identical to the
    /// corresponding contiguous slice of the full run — the unit of
    /// distribution for multi-process campaigns: each cluster worker
    /// runs one window and the head stitches the slices back together.
    pub shard_window: Option<(usize, usize)>,
}

impl RunPlan {
    /// A plan with the default shard count and chunk size.
    pub fn new(trials: u64, seed: u64) -> Self {
        RunPlan {
            trials,
            seed,
            shards: 0,
            chunk: 0,
            shard_window: None,
        }
    }

    /// Overrides the shard count (clamped to `1..=trials` at run time, so
    /// `shards > trials` can never produce empty shards that would stall
    /// the completed-chunk watermark).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Overrides the chunk size (clamped to at least 1 at run time;
    /// values larger than a shard mean one chunk per shard, i.e. PR 1's
    /// whole-shard claiming granularity).
    pub fn with_chunk(mut self, chunk: u64) -> Self {
        self.chunk = chunk;
        self
    }

    /// Restricts execution to the shards in `[lo, hi)` of the full plan
    /// (clamped to the effective shard count at run time). Trial
    /// identity — shard partition, RNG streams, global indices, seeds —
    /// is untouched, so the windowed result stream is exactly the
    /// full run's slice for those shards. See [`RunPlan::shard_window`].
    pub fn with_shard_window(mut self, lo: usize, hi: usize) -> Self {
        self.shard_window = Some((lo, hi));
        self
    }

    fn effective_shards(&self) -> usize {
        let requested = if self.shards > 0 {
            self.shards
        } else {
            DEFAULT_SHARDS
        };
        requested.min(self.trials.max(1) as usize)
    }

    /// Chunk size actually used: an explicit [`chunk`](RunPlan::chunk),
    /// else `⌈shard length ÷ DEFAULT_CHUNKS_PER_SHARD⌉`.
    fn effective_chunk(&self, shards: usize) -> u64 {
        if self.chunk > 0 {
            return self.chunk;
        }
        let shard_len = (self.trials / shards.max(1) as u64).max(1);
        shard_len.div_ceil(DEFAULT_CHUNKS_PER_SHARD)
    }

    /// The effective shard window `[lo, hi)`: the whole plan unless
    /// [`with_shard_window`](RunPlan::with_shard_window) narrowed it,
    /// clamped so `lo <= hi <= shards`.
    fn window(&self, shards: usize) -> (usize, usize) {
        match self.shard_window {
            Some((lo, hi)) => {
                let lo = lo.min(shards);
                (lo, hi.min(shards).max(lo))
            }
            None => (0, shards),
        }
    }

    /// Trial-index range of one shard (balanced contiguous blocks).
    fn shard_range(&self, shard: usize, shards: usize) -> std::ops::Range<u64> {
        let shards_u = shards as u64;
        let base = self.trials / shards_u;
        let rem = self.trials % shards_u;
        let s = shard as u64;
        let start = s * base + s.min(rem);
        let len = base + u64::from(s < rem);
        start..start + len
    }

    /// The chunk schedule of the plan's shard window in
    /// `(shard, offset)` order — the full plan unless a window narrows
    /// it. The aggregator's watermark runs on in-shard *offsets* (see
    /// [`Engine::run`]), so the schedule is purely the workers' initial
    /// deal.
    fn chunk_schedule(&self, shards: usize, chunk_size: u64, window: (usize, usize)) -> Vec<Chunk> {
        let mut chunks = Vec::new();
        for shard in window.0..window.1 {
            let range = self.shard_range(shard, shards);
            let len = range.end - range.start;
            let mut offset = 0u64;
            while offset < len {
                let take = chunk_size.min(len - offset);
                chunks.push(Chunk {
                    shard,
                    start: range.start + offset,
                    shard_offset: offset,
                    len: take,
                });
                offset += take;
            }
        }
        chunks
    }
}

/// Derives the RNG stream owned by one shard of a plan.
///
/// ChaCha key material comes from the campaign seed; the shard index
/// selects the cipher's stream words, giving `2^64` independent
/// keystreams per seed.
pub fn shard_rng(campaign_seed: u64, shard_index: u64) -> ChaCha8Rng {
    let mut rng = ChaCha8Rng::seed_from_u64(campaign_seed);
    rng.set_stream(shard_index);
    rng
}

/// The shard stream of `(campaign_seed, shard_index)`, seeked to the
/// word position owned by the trial at in-shard offset `shard_offset`.
///
/// The engine draws one `u64` (two stream words) per trial to seed the
/// trial's private RNG, so the trial at in-shard offset `t` owns words
/// `2t, 2t + 1`. Seeking instead of replaying the prefix is what lets a
/// stolen chunk start mid-shard and still draw exactly the words a
/// sequential execution would have handed it.
pub fn chunk_rng(campaign_seed: u64, shard_index: u64, shard_offset: u64) -> ChaCha8Rng {
    let mut rng = shard_rng(campaign_seed, shard_index);
    rng.set_word_pos(2 * shard_offset as u128);
    rng
}

/// Observability counters for one engine run.
///
/// Timing and scheduling fields (wall, busy, idle, steals, per-worker
/// detail) describe the *execution* and are not part of the deterministic
/// result; everything the sink aggregated is.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Trials whose results reached the sink.
    pub trials: u64,
    /// Shards whose results reached the sink.
    pub shards: usize,
    /// Shards the plan would have run without an early abort.
    pub planned_shards: usize,
    /// Result envelopes (coalesced chunk batches) whose contents reached
    /// the sink. Coalescing makes this at most the number of schedule
    /// chunks aggregated.
    pub chunks: u64,
    /// Chunks the plan would have run without an early abort.
    pub planned_chunks: u64,
    /// Worker threads used.
    pub workers: usize,
    /// Whether a sink checkpoint stopped the run early.
    pub aborted: bool,
    /// Successful steal operations across all workers.
    pub steals: u64,
    /// Chunks that moved between worker deques via stealing.
    pub chunks_stolen: u64,
    /// Always 0: the chunk schedule is static, so no chunk is ever split
    /// mid-run. Kept only because the frozen `benchmark/` package reads
    /// it; retired together with its `runtime.splits` metric.
    pub splits: u64,
    /// Sum over workers of time blocked sending on the bounded result
    /// channel (aggregator backpressure).
    pub send_block: Duration,
    /// Maximum steady-state residency of the aggregator's out-of-order
    /// buffer, in trials: what envelopes ahead of the watermark cost
    /// while it waits on a slow in-flight chunk. 0 at one worker.
    pub max_reorder_depth: u64,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
    /// Sum of per-chunk execution time over *aggregated* chunks (busy
    /// time the sink's results cost).
    pub busy: Duration,
    /// Sum over workers of lifetime not spent executing trials
    /// (claim/steal scans, sends, tail starvation).
    pub idle: Duration,
    /// Aggregated trials per wall-clock second.
    pub throughput: f64,
    /// Mean per-trial execution time (busy time / trials).
    pub mean_trial: Duration,
    /// Longest single-shard execution time: the sum of a shard's chunk
    /// times, i.e. what the shard would have cost unsplit (tail latency
    /// proxy).
    pub max_shard: Duration,
    /// Per-worker scheduling counters, indexed by worker. Worker `busy`
    /// here counts *executed* chunks, including any discarded past an
    /// early abort, so it can exceed the run-level `busy`.
    pub worker_stats: Vec<WorkerStats>,
    /// Histogram of per-trial execution times in **nanoseconds**, over
    /// every *executed* trial (like worker `busy`, this includes trials
    /// discarded past an early abort). Quantiles are schedule-independent
    /// up to timing noise: the histogram merge is integer-exact, only the
    /// measured durations themselves vary run to run.
    pub trial_hist: LatencyHistogram,
}

impl RunStats {
    fn new(workers: usize, planned_shards: usize, planned_chunks: u64) -> Self {
        RunStats {
            trials: 0,
            shards: 0,
            planned_shards,
            chunks: 0,
            planned_chunks,
            workers,
            aborted: false,
            steals: 0,
            chunks_stolen: 0,
            splits: 0,
            send_block: Duration::ZERO,
            max_reorder_depth: 0,
            wall: Duration::ZERO,
            busy: Duration::ZERO,
            idle: Duration::ZERO,
            throughput: 0.0,
            mean_trial: Duration::ZERO,
            max_shard: Duration::ZERO,
            worker_stats: Vec::new(),
            trial_hist: LatencyHistogram::new(),
        }
    }

    /// Renders the counters as a JSON object (for JSONL run logs).
    pub fn to_json(&self) -> String {
        let workers_detail = self
            .worker_stats
            .iter()
            .map(|w| {
                format!(
                    "{{\"worker\":{},\"chunks_run\":{},\"steals\":{},\"chunks_stolen\":{},\
                     \"busy_us\":{},\"idle_us\":{},\"send_block_us\":{}}}",
                    w.worker,
                    w.chunks_run,
                    w.steals,
                    w.chunks_stolen,
                    w.busy.as_micros(),
                    w.idle.as_micros(),
                    w.send_block.as_micros()
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let (p50, p95, p99) = self.trial_hist.percentiles();
        format!(
            "{{\"trials\":{},\"shards\":{},\"planned_shards\":{},\"chunks\":{},\
             \"planned_chunks\":{},\"workers\":{},\"aborted\":{},\"steals\":{},\
             \"chunks_stolen\":{},\"wall_us\":{},\"busy_us\":{},\"idle_us\":{},\
             \"send_block_us\":{},\"max_reorder_depth\":{},\"throughput_per_s\":{:.3},\"mean_trial_ns\":{},\
             \"trial_p50_ns\":{p50},\"trial_p95_ns\":{p95},\"trial_p99_ns\":{p99},\
             \"max_shard_us\":{},\"workers_detail\":[{}]}}",
            self.trials,
            self.shards,
            self.planned_shards,
            self.chunks,
            self.planned_chunks,
            self.workers,
            self.aborted,
            self.steals,
            self.chunks_stolen,
            self.wall.as_micros(),
            self.busy.as_micros(),
            self.idle.as_micros(),
            self.send_block.as_micros(),
            self.max_reorder_depth,
            self.throughput,
            self.mean_trial.as_nanos(),
            self.max_shard.as_micros(),
            workers_detail
        )
    }
}

/// Result of [`Engine::run`]: the sink's summary plus run counters.
#[derive(Debug, Clone)]
pub struct RunOutcome<S> {
    /// What the sink distilled from the result stream.
    pub summary: S,
    /// Execution counters.
    pub stats: RunStats,
}

/// One worker→aggregator message: a contiguous run of one shard's trials,
/// folded into the sink's partial. Contiguous same-shard chunks coalesce
/// into a single envelope before sending.
struct Envelope<P> {
    shard: usize,
    /// In-shard offset of the first trial (the watermark key).
    shard_offset: u64,
    /// Number of trials covered.
    len: u64,
    /// Execution time of the covered trials.
    elapsed: Duration,
    /// The chunk-local fold of every covered result, taken from and
    /// returned to the run's recycle pool.
    partial: P,
}

/// Sends an envelope; only when the channel is full does the blocking
/// fallback run and its wait get charged to the worker's `send_block`
/// counter — an unblocked `try_send` costs the metric nothing, so
/// `send_block` reads as pure aggregator backpressure.
fn send_timed<E>(tx: &mpsc::SyncSender<E>, envelope: E, ws: &mut WorkerStats) -> bool {
    match tx.try_send(envelope) {
        Ok(()) => true,
        Err(mpsc::TrySendError::Full(envelope)) => {
            let t0 = Instant::now();
            let ok = tx.send(envelope).is_ok();
            ws.send_block += t0.elapsed();
            ok
        }
        Err(mpsc::TrySendError::Disconnected(_)) => false,
    }
}

/// The worker-pool engine. Cheap to construct; holds no threads between
/// runs. Clones share the live-metrics handles (the worker count is
/// copied), so a cloned engine publishes into — and reads through
/// [`metrics`](Engine::metrics) — the same counters.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    /// Worker threads (0 = available parallelism).
    workers: usize,
    /// Live publication handles, updated by workers and the aggregator
    /// as a run executes. Unregistered by default (private atomics);
    /// [`observed`](Engine::observed) swaps in registry-backed handles.
    /// Strictly write-only from the deterministic path's perspective:
    /// no control flow ever reads these.
    metrics: Arc<EngineMetrics>,
    /// Flight-recorder handle, off by default. Like the metrics, every
    /// record call is write-only side traffic: the deterministic path
    /// never reads the rings (the CI matrix byte-diffs trace-on vs
    /// trace-off artefacts to prove it).
    trace: TraceRecorder,
}

impl Engine {
    /// An engine with a fixed worker count (0 = available parallelism).
    pub fn with_workers(workers: usize) -> Self {
        Engine {
            workers,
            ..Engine::default()
        }
    }

    /// Attaches this engine's live metrics to `registry`: subsequent
    /// runs publish the `relcnn_engine_*` series as they execute, and a
    /// scrape ([`relcnn_obs::ScrapeServer`]) or [`Engine::metrics`] sees
    /// them mid-run. Registration is idempotent, so every engine attached to
    /// one registry shares the same series.
    pub fn observed(mut self, registry: &relcnn_obs::Registry) -> Self {
        self.metrics = Arc::new(EngineMetrics::registered(registry));
        self
    }

    /// Attaches a flight recorder: subsequent runs record span/instant
    /// events (run lifecycle, chunk execution, steals, envelope flushes,
    /// aggregator releases) into `recorder`'s
    /// per-worker rings. Off by default; recording is bounded-memory and
    /// never read by the run itself.
    pub fn traced(mut self, recorder: &TraceRecorder) -> Self {
        self.trace = recorder.clone();
        self
    }

    /// The engine's live metric handles (registered or not): the
    /// mid-run read. Any thread holding a clone of this engine sees a run
    /// progress through them without waiting for [`RunOutcome`].
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// The worker count this engine will request of a run, with the
    /// `0 = available parallelism` default resolved. (Per-run clamping to
    /// the plan's chunk/trial count still applies.) The engine holds no
    /// threads between runs, so a handle like this is cheap to share —
    /// the serving layer keeps one engine and dispatches every
    /// micro-batch through it.
    pub fn configured_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// Worker threads actually spawned: a static schedule can never feed
    /// more workers than it has chunks, so the pool clamps to the chunk
    /// count.
    fn effective_workers(&self, chunks: usize) -> usize {
        self.configured_workers().clamp(1, chunks.max(1))
    }

    /// Runs `plan.trials` index-driven trials through the worker pool,
    /// streaming results into `sink` in deterministic order.
    ///
    /// # Panics
    ///
    /// Propagates panics from trial code (the pool is fail-fast: a
    /// panicking worker aborts the run).
    pub fn run<T, S>(&self, plan: &RunPlan, trial: &T, sink: S) -> RunOutcome<S::Summary>
    where
        T: Trial,
        S: Sink<T::Output>,
    {
        self.run_source(plan, &IndexSource::new(plan.trials), &Indexed(trial), sink)
    }

    /// Runs one trial per item of `source` through the worker pool,
    /// streaming results into `sink` in deterministic order. Items are
    /// pulled lazily, one chunk at a time, on the worker that executes
    /// the chunk — a generated or streamed dataset is never materialised
    /// whole. [`run`](Engine::run) is this with the degenerate
    /// index-only source.
    ///
    /// # Panics
    ///
    /// Panics when `plan.trials` disagrees with `source.len()` (the plan
    /// is the run's identity; a silently truncated or padded dataset
    /// must not masquerade as it), and propagates panics from trial
    /// code.
    pub fn run_source<Src, T, S>(
        &self,
        plan: &RunPlan,
        source: &Src,
        trial: &T,
        mut sink: S,
    ) -> RunOutcome<S::Summary>
    where
        Src: TrialSource,
        T: SourcedTrial<Src::Item>,
        S: Sink<T::Output>,
    {
        assert_eq!(
            plan.trials,
            source.len(),
            "plan.trials must equal the trial source's length"
        );
        let shards = plan.effective_shards();
        let chunk_size = plan.effective_chunk(shards);
        let (win_lo, win_hi) = plan.window(shards);
        let chunks = if plan.trials > 0 {
            plan.chunk_schedule(shards, chunk_size, (win_lo, win_hi))
        } else {
            Vec::new()
        };
        let workers = self.effective_workers(chunks.len());
        let mut stats = RunStats::new(workers, win_hi - win_lo, chunks.len() as u64);
        let started = Instant::now();
        // Live publication handles. Every update below is a relaxed
        // atomic add/store on the side of existing control flow — the
        // deterministic path never reads them (the CI determinism matrix
        // byte-diffs artefacts with metrics on vs off to prove it).
        let em: &EngineMetrics = &self.metrics;
        em.runs_started.inc();
        // Flight-recorder handles: same write-only contract as the
        // metrics above. Ring labels are stable keys, so repeated runs
        // (one per serving batch, say) reuse their tracks.
        let tr = &self.trace;
        let agg_ring = tr.ring("aggregate");
        let run_begin = tr.now_us();

        if !chunks.is_empty() {
            let shard_lens: Vec<u64> = (0..shards)
                .map(|s| {
                    let range = plan.shard_range(s, shards);
                    range.end - range.start
                })
                .collect();
            let queue = StealQueue::deal(chunks, workers);
            let cancel = AtomicBool::new(false);
            // Bounded: a slow sink gates the aggregator's drain rate,
            // which gates the workers' send rate (see
            // CHANNEL_DEPTH_PER_WORKER for what is — and is not —
            // bounded). Deadlock-free because the aggregator drains
            // unconditionally until every sender hangs up.
            let (tx, rx) =
                mpsc::sync_channel::<Envelope<S::Partial>>(workers * CHANNEL_DEPTH_PER_WORKER);
            // Absorbed partials cycle back to the workers here, cleared
            // but keeping their storage, so steady state allocates
            // nothing. It never holds more partials than were live at
            // once.
            let recycled: Mutex<Vec<S::Partial>> = Mutex::new(Vec::new());
            let pool = || recycled.lock().expect("recycle pool poisoned");

            em.workers_live.add(workers as i64);
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(workers);
                for worker_index in 0..workers {
                    let tx = tx.clone();
                    let queue = &queue;
                    let cancel = &cancel;
                    let wring = tr.ring(&format!("worker-{worker_index}"));
                    handles.push(scope.spawn(move || {
                        let born = Instant::now();
                        let mut ws = WorkerStats {
                            worker: worker_index,
                            ..WorkerStats::default()
                        };
                        let mut hist = LatencyHistogram::new();
                        let mut state = trial.init(worker_index);
                        let mut held: Option<Envelope<S::Partial>> = None;
                        // Send-block time already published (the counter
                        // takes deltas at chunk granularity).
                        let mut sb_published = Duration::ZERO;
                        // Per-chunk item buffer: the source fills it
                        // right before the chunk executes, so steady
                        // state allocates nothing and a streamed dataset
                        // is resident one chunk per worker at most.
                        let mut items: Vec<Src::Item> = Vec::new();
                        // Sends the envelope in hand, if any; `false`
                        // means the aggregator hung up and the worker
                        // should stop.
                        let flush = |held: &mut Option<Envelope<S::Partial>>,
                                     ws: &mut WorkerStats| {
                            let Some(full) = held.take() else {
                                return true;
                            };
                            let len = full.len;
                            let open = send_timed(&tx, full, ws);
                            if open {
                                wring.instant(
                                    "flush",
                                    "engine",
                                    tr.now_us(),
                                    &[Arg::U("len", len)],
                                );
                            }
                            open
                        };
                        while !cancel.load(Ordering::Relaxed) {
                            // Every deque dry: steals move chunks
                            // atomically, so whatever remains is already
                            // executing on another worker — retire.
                            let Some(claim) = queue.claim(worker_index) else {
                                break;
                            };
                            if let Claim::Stolen { taken, .. } = claim {
                                ws.steals += 1;
                                ws.chunks_stolen += taken as u64;
                                em.steals.inc();
                                em.chunks_stolen.add(taken as u64);
                                wring.instant(
                                    "steal",
                                    "engine",
                                    tr.now_us(),
                                    &[Arg::U("taken", taken as u64)],
                                );
                            }
                            let chunk = claim.chunk();
                            // Coalesce contiguous same-shard work into the
                            // envelope in hand; flush when it cannot extend.
                            let extends = held.as_ref().is_some_and(|e| {
                                e.shard == chunk.shard
                                    && e.shard_offset + e.len == chunk.shard_offset
                                    && e.len < COALESCE_TRIALS
                            });
                            if !extends && !flush(&mut held, &mut ws) {
                                break;
                            }
                            let t0 = Instant::now();
                            let chunk_begin = tr.now_us();
                            // Pull the chunk's inputs (chunk-granular
                            // streaming ingestion: the only part of the
                            // dataset this worker ever materialises).
                            items.clear();
                            source.fill(chunk.start, chunk.len, &mut items);
                            assert_eq!(
                                items.len() as u64,
                                chunk.len,
                                "trial source under- or over-filled chunk at trial {}",
                                chunk.start
                            );
                            let mut rng =
                                chunk_rng(plan.seed, chunk.shard as u64, chunk.shard_offset);
                            let envelope = held.get_or_insert_with(|| Envelope {
                                shard: chunk.shard,
                                shard_offset: chunk.shard_offset,
                                len: 0,
                                elapsed: Duration::ZERO,
                                partial: pool().pop().unwrap_or_default(),
                            });
                            envelope.partial.reserve(chunk.len as usize);
                            for (offset, item) in items.drain(..).enumerate() {
                                let index = chunk.start + offset as u64;
                                let mut ctx = TrialCtx {
                                    index,
                                    shard: chunk.shard,
                                    seed: plan.seed.wrapping_add(index),
                                    rng: ChaCha8Rng::seed_from_u64(rng.random::<u64>()),
                                };
                                let t_trial = Instant::now();
                                let out = trial.run(&mut state, item, &mut ctx);
                                let trial_ns =
                                    u64::try_from(t_trial.elapsed().as_nanos()).unwrap_or(u64::MAX);
                                hist.record(trial_ns);
                                em.trial_ns.record(trial_ns);
                                envelope.partial.fold(index, out);
                            }
                            let elapsed = t0.elapsed();
                            envelope.len += chunk.len;
                            envelope.elapsed += elapsed;
                            ws.busy += elapsed;
                            ws.chunks_run += 1;
                            em.trials_executed.add(chunk.len);
                            em.chunks_executed.inc();
                            wring.span(
                                "chunk",
                                "engine",
                                chunk_begin,
                                tr.now_us(),
                                &[
                                    Arg::U("shard", chunk.shard as u64),
                                    Arg::U("start", chunk.start),
                                    Arg::U("len", chunk.len),
                                ],
                            );
                            // Publish send-block time accumulated since
                            // the last chunk boundary as a delta.
                            if ws.send_block > sb_published {
                                em.send_block_us
                                    .add((ws.send_block - sb_published).as_micros() as u64);
                                sb_published = ws.send_block;
                            }
                        }
                        if !cancel.load(Ordering::Relaxed) {
                            flush(&mut held, &mut ws);
                        }
                        if ws.send_block > sb_published {
                            em.send_block_us
                                .add((ws.send_block - sb_published).as_micros() as u64);
                        }
                        ws.idle = born.elapsed().saturating_sub(ws.busy);
                        (ws, hist)
                    }));
                }
                drop(tx);

                // The calling thread is the aggregator: it releases
                // envelopes to the sink in (shard, in-shard offset) order
                // and evaluates the early-abort checkpoint whenever the
                // watermark crosses a shard boundary.
                let mut pending: ReorderBuffer<Envelope<S::Partial>> = ReorderBuffer::new();
                let mut frontier_shard = win_lo;
                let mut frontier_offset = 0u64;
                let mut shard_elapsed = Duration::ZERO;
                // Defensive: step over shards the plan gave no trials
                // (impossible after the shards<=trials clamp, but an empty
                // shard must never stall the watermark).
                while frontier_shard < win_hi && shard_lens[frontier_shard] == 0 {
                    frontier_shard += 1;
                }
                stats.shards = frontier_shard - win_lo;
                while let Ok(envelope) = rx.recv() {
                    if stats.aborted {
                        continue; // drain: results beyond the abort point are discarded
                    }
                    pending.insert(
                        envelope.shard,
                        envelope.shard_offset,
                        envelope.len,
                        envelope,
                    );
                    'release: while let Some(mut envelope) =
                        pending.pop(frontier_shard, frontier_offset)
                    {
                        stats.trials += envelope.len;
                        stats.chunks += 1;
                        stats.busy += envelope.elapsed;
                        shard_elapsed += envelope.elapsed;
                        em.trials_released.add(envelope.len);
                        sink.absorb(&mut envelope.partial);
                        envelope.partial.clear();
                        pool().push(envelope.partial);
                        frontier_offset += envelope.len;
                        agg_ring.instant(
                            "release",
                            "engine",
                            tr.now_us(),
                            &[
                                Arg::U("shard", envelope.shard as u64),
                                Arg::U("offset", envelope.shard_offset),
                                Arg::U("len", envelope.len),
                            ],
                        );
                        while frontier_shard < win_hi
                            && frontier_offset == shard_lens[frontier_shard]
                        {
                            stats.max_shard = stats.max_shard.max(shard_elapsed);
                            shard_elapsed = Duration::ZERO;
                            let completed = frontier_shard;
                            em.shards_completed.inc();
                            agg_ring.instant(
                                "shard_complete",
                                "engine",
                                tr.now_us(),
                                &[Arg::U("shard", completed as u64)],
                            );
                            frontier_shard += 1;
                            frontier_offset = 0;
                            while frontier_shard < win_hi && shard_lens[frontier_shard] == 0 {
                                frontier_shard += 1;
                            }
                            stats.shards = frontier_shard - win_lo;
                            if matches!(sink.checkpoint(completed), Control::Stop)
                                && frontier_shard < win_hi
                            {
                                stats.aborted = true;
                                em.runs_aborted.inc();
                                agg_ring.instant(
                                    "abort",
                                    "engine",
                                    tr.now_us(),
                                    &[Arg::U("shard", completed as u64)],
                                );
                                cancel.store(true, Ordering::Relaxed);
                                pending.clear();
                                break 'release;
                            }
                        }
                    }
                    // Sample residency at steady state (after the drain),
                    // so the recorded depth is what actually waits on a
                    // stalled frontier.
                    pending.observe();
                    let resident = pending.resident() as i64;
                    em.reorder_resident.set(resident);
                    em.reorder_peak.set_max(resident);
                }
                stats.max_reorder_depth = pending.max_resident();
                em.reorder_resident.set(0);

                for handle in handles {
                    match handle.join() {
                        Ok((ws, hist)) => {
                            stats.trial_hist.merge(&hist);
                            stats.steals += ws.steals;
                            stats.chunks_stolen += ws.chunks_stolen;
                            stats.send_block += ws.send_block;
                            stats.idle += ws.idle;
                            stats.worker_stats.push(ws);
                        }
                        Err(payload) => std::panic::resume_unwind(payload),
                    }
                }
            });
            em.workers_live.sub(workers as i64);
        }

        stats.wall = started.elapsed();
        if stats.trials > 0 {
            let secs = stats.wall.as_secs_f64();
            if secs > 0.0 {
                stats.throughput = stats.trials as f64 / secs;
            }
            stats.mean_trial = stats.busy / (stats.trials as u32).max(1);
        }
        em.runs_completed.inc();
        agg_ring.span(
            "run",
            "engine",
            run_begin,
            tr.now_us(),
            &[
                Arg::U("trials", stats.trials),
                Arg::U("shards", stats.shards as u64),
                Arg::U("aborted", u64::from(stats.aborted)),
            ],
        );
        RunOutcome {
            summary: sink.finish(&stats),
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CollectSink;
    use crate::trial::FnTrial;

    #[test]
    fn shard_ranges_partition_the_trials() {
        let plan = RunPlan::new(103, 0).with_shards(8);
        let mut covered = Vec::new();
        for s in 0..8 {
            covered.extend(plan.shard_range(s, 8));
        }
        assert_eq!(covered, (0..103).collect::<Vec<_>>());
    }

    #[test]
    fn chunk_schedule_partitions_every_shard() {
        let plan = RunPlan::new(103, 0).with_shards(8).with_chunk(5);
        let chunks = plan.chunk_schedule(8, 5, (0, 8));
        let mut covered = Vec::new();
        for c in &chunks {
            assert!(c.len <= 5 && c.len > 0);
            covered.extend(c.start..c.start + c.len);
        }
        assert_eq!(covered, (0..103).collect::<Vec<_>>());
    }

    #[test]
    fn results_arrive_in_index_order_any_worker_count() {
        let plan = RunPlan::new(200, 42).with_shards(16);
        for workers in [1, 2, 8] {
            let outcome = Engine::with_workers(workers).run(
                &plan,
                &FnTrial::new(|ctx: &mut TrialCtx| ctx.index * 3),
                CollectSink::new(),
            );
            let expected: Vec<u64> = (0..200).map(|i| i * 3).collect();
            assert_eq!(outcome.summary, expected, "workers={workers}");
            assert_eq!(outcome.stats.trials, 200);
            assert!(!outcome.stats.aborted);
        }
    }

    #[test]
    fn traced_run_records_a_validator_clean_timeline_without_changing_results() {
        let plan = RunPlan::new(96, 42).with_shards(8).with_chunk(4);
        let trial = FnTrial::new(|ctx: &mut TrialCtx| ctx.index * 3);
        let bare = Engine::with_workers(4).run(&plan, &trial, CollectSink::new());
        let recorder = TraceRecorder::new("test-engine");
        let traced =
            Engine::with_workers(4)
                .traced(&recorder)
                .run(&plan, &trial, CollectSink::new());
        assert_eq!(
            traced.summary, bare.summary,
            "tracing must not perturb results"
        );

        let snap = recorder.drain();
        assert!(snap.recorded_events() > 0);
        let json = relcnn_obs::trace::export_chrome(&[snap]);
        let parsed = relcnn_obs::trace::validate(&json).expect("engine trace must validate");
        assert_eq!(parsed.count('B', "run"), 1, "one run span");
        assert!(parsed.count('B', "chunk") > 0, "chunk spans recorded");
        assert!(
            parsed.count('i', "release") > 0,
            "aggregator releases recorded"
        );
        assert_eq!(
            parsed.count('i', "shard_complete"),
            8,
            "every shard completion"
        );
    }

    #[test]
    fn shard_rng_streams_are_deterministic_and_distinct() {
        let mut a = shard_rng(7, 3);
        let mut b = shard_rng(7, 3);
        let mut c = shard_rng(7, 4);
        let xs: Vec<u64> = (0..4).map(|_| a.random::<u64>()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.random::<u64>()).collect();
        let zs: Vec<u64> = (0..4).map(|_| c.random::<u64>()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn chunk_rng_is_the_seeked_shard_stream() {
        // Drawing trials 0..n sequentially from the shard stream must
        // equal drawing each trial from a chunk_rng seeked to it.
        let mut seq = shard_rng(11, 2);
        let sequential: Vec<u64> = (0..20).map(|_| seq.random::<u64>()).collect();
        for (t, expected) in sequential.iter().enumerate() {
            let mut rng = chunk_rng(11, 2, t as u64);
            assert_eq!(rng.random::<u64>(), *expected, "trial offset {t}");
        }
    }

    #[test]
    fn trial_rng_independent_of_worker_count() {
        let plan = RunPlan::new(64, 9).with_shards(8);
        let run = |workers| {
            Engine::with_workers(workers)
                .run(
                    &plan,
                    &FnTrial::new(|ctx: &mut TrialCtx| ctx.rng.random::<u64>()),
                    CollectSink::new(),
                )
                .summary
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn trial_rng_independent_of_chunk_size() {
        // The satellite contract: chunk size 1, whole-shard chunks and the
        // auto default all produce identical aggregates — even for trials
        // that consume ctx.rng.
        let summaries: Vec<Vec<u64>> = [0u64, 1, 3, 64]
            .iter()
            .map(|&chunk| {
                let plan = RunPlan::new(96, 13).with_shards(6).with_chunk(chunk);
                Engine::with_workers(4)
                    .run(
                        &plan,
                        &FnTrial::new(|ctx: &mut TrialCtx| ctx.rng.random::<u64>()),
                        CollectSink::new(),
                    )
                    .summary
            })
            .collect();
        for s in &summaries[1..] {
            assert_eq!(s, &summaries[0]);
        }
    }

    #[test]
    fn shards_exceeding_trials_never_stall() {
        // Regression: shards > trials (with any chunk size) must clamp to
        // non-empty shards instead of stalling the watermark.
        for (trials, shards, chunk) in [(3u64, 10usize, 7u64), (1, 64, 1), (5, 5, 100)] {
            let plan = RunPlan::new(trials, 1)
                .with_shards(shards)
                .with_chunk(chunk);
            let outcome = Engine::with_workers(8).run(
                &plan,
                &FnTrial::new(|ctx: &mut TrialCtx| ctx.index),
                CollectSink::new(),
            );
            assert_eq!(
                outcome.summary,
                (0..trials).collect::<Vec<_>>(),
                "trials={trials} shards={shards} chunk={chunk}"
            );
            assert_eq!(outcome.stats.shards, outcome.stats.planned_shards);
            assert!(!outcome.stats.aborted);
        }
    }

    #[test]
    fn skewed_workload_steals_and_stays_deterministic() {
        // One pathologically slow shard: the other workers go dry and must
        // steal its chunks. The aggregate still matches the 1-worker run,
        // and whatever ran ahead of the stalled head waited in the
        // reorder buffer (empty at one worker, never past the run).
        let plan = RunPlan::new(32, 5).with_shards(4).with_chunk(1);
        let slow_trial = FnTrial::new(|ctx: &mut TrialCtx| {
            if ctx.index < 8 {
                std::thread::sleep(Duration::from_millis(4));
            }
            ctx.rng.random::<u64>()
        });
        let serial = Engine::with_workers(1).run(&plan, &slow_trial, CollectSink::new());
        assert_eq!(serial.stats.max_reorder_depth, 0);
        for workers in [4, 8] {
            let outcome = Engine::with_workers(workers).run(&plan, &slow_trial, CollectSink::new());
            assert_eq!(outcome.summary, serial.summary, "workers={workers}");
            assert!(
                outcome.stats.steals > 0,
                "expected steals on a skewed workload: {:?}",
                outcome.stats
            );
            assert_eq!(outcome.stats.chunks_stolen as usize, {
                outcome
                    .stats
                    .worker_stats
                    .iter()
                    .map(|w| w.chunks_stolen as usize)
                    .sum::<usize>()
            });
            assert_eq!(outcome.stats.worker_stats.len(), workers);
            assert!(outcome.stats.max_reorder_depth <= plan.trials);
        }
    }

    #[test]
    fn auto_chunk_is_a_quarter_shard_and_explicit_chunks_are_kept() {
        for (trials, shards, chunk) in [
            (250u64, 64usize, 1u64),
            (240, 12, 5),
            (64, 8, 2),
            (256, 32, 2),
            (100_000, 64, 391),
            (8, 8, 1),
        ] {
            let plan = RunPlan::new(trials, 0).with_shards(shards);
            assert_eq!(
                plan.effective_chunk(shards),
                chunk,
                "trials={trials} shards={shards}"
            );
            for explicit in [1u64, 7, 1_000] {
                assert_eq!(plan.with_chunk(explicit).effective_chunk(shards), explicit);
            }
        }
    }

    #[test]
    fn a_two_shard_window_feeds_eight_workers() {
        // The cluster's in-task parallelism: one task is a two-shard
        // window, and the auto chunk must cut it finely enough to occupy
        // every thread of the worker process.
        let plan = RunPlan::new(240, 31)
            .with_shards(12)
            .with_shard_window(0, 2);
        let trial = FnTrial::new(|ctx: &mut TrialCtx| ctx.rng.random::<u64>());
        let serial = Engine::with_workers(1).run(&plan, &trial, CollectSink::new());
        let outcome = Engine::with_workers(8).run(&plan, &trial, CollectSink::new());
        assert_eq!(outcome.stats.planned_chunks, 8);
        assert_eq!(outcome.stats.workers, 8);
        assert_eq!(outcome.summary, serial.summary);
    }

    #[test]
    fn sourced_run_matches_index_run() {
        // A streamed dataset (FnSource) and the same dataset materialised
        // (SliceSource) must aggregate identically to each other — and to
        // an index-driven run computing the same function.
        use crate::source::{FnSource, SliceSource};
        use crate::trial::FnSourcedTrial;

        let plan = RunPlan::new(150, 21).with_shards(8).with_chunk(3);
        let by_index = Engine::with_workers(4)
            .run(
                &plan,
                &FnTrial::new(|ctx: &mut TrialCtx| ctx.index * 7 + 1),
                CollectSink::new(),
            )
            .summary;
        let streamed = Engine::with_workers(4)
            .run_source(
                &plan,
                &FnSource::new(150, |i| i * 7),
                &FnSourcedTrial::new(|item: u64, _ctx: &mut TrialCtx| item + 1),
                CollectSink::new(),
            )
            .summary;
        let dataset: Vec<u64> = (0..150u64).map(|i| i * 7).collect();
        let eager = Engine::with_workers(4)
            .run_source(
                &plan,
                &SliceSource::new(&dataset),
                &FnSourcedTrial::new(|item: &u64, _ctx: &mut TrialCtx| *item + 1),
                CollectSink::new(),
            )
            .summary;
        assert_eq!(by_index, streamed);
        assert_eq!(by_index, eager);
    }

    #[test]
    fn sourced_run_items_line_up_with_ctx_index() {
        // Steal schedules pull chunks out of order and on any worker;
        // the item handed to a trial must always be the one for
        // ctx.index.
        use crate::source::FnSource;
        use crate::trial::FnSourcedTrial;
        let plan = RunPlan::new(128, 3).with_shards(2).with_chunk(4);
        let outcome = Engine::with_workers(8).run_source(
            &plan,
            &FnSource::new(128, |i| i),
            &FnSourcedTrial::new(|item: u64, ctx: &mut TrialCtx| {
                std::thread::sleep(Duration::from_micros(100));
                assert_eq!(item, ctx.index, "item/index mismatch");
                item
            }),
            CollectSink::new(),
        );
        assert_eq!(outcome.summary, (0..128).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "plan.trials must equal the trial source's length")]
    fn sourced_run_rejects_length_mismatch() {
        use crate::source::FnSource;
        use crate::trial::FnSourcedTrial;
        let plan = RunPlan::new(10, 0);
        Engine::with_workers(1).run_source(
            &plan,
            &FnSource::new(9, |i| i),
            &FnSourcedTrial::new(|item: u64, _ctx: &mut TrialCtx| item),
            CollectSink::new(),
        );
    }

    #[test]
    fn shard_windows_stitch_back_into_the_full_run() {
        // The cluster contract: windowed runs are exact slices of the
        // full plan — same indices, seeds and RNG draws — so running
        // the windows separately (at other worker counts, mid-plan
        // windows included) and concatenating reproduces the full stream
        // bit for bit.
        let plan = RunPlan::new(103, 77).with_shards(8).with_chunk(4);
        let trial =
            FnTrial::new(|ctx: &mut TrialCtx| (ctx.index, ctx.seed, ctx.rng.random::<u64>()));
        let full = Engine::with_workers(4)
            .run(&plan, &trial, CollectSink::new())
            .summary;
        for workers in [2, 8] {
            let mut stitched = Vec::new();
            for (lo, hi) in [(0usize, 3usize), (3, 4), (4, 8)] {
                let part = Engine::with_workers(workers).run(
                    &plan.with_shard_window(lo, hi),
                    &trial,
                    CollectSink::new(),
                );
                assert_eq!(part.stats.planned_shards, hi - lo);
                assert_eq!(part.stats.shards, hi - lo);
                assert!(!part.stats.aborted);
                stitched.extend(part.summary);
            }
            assert_eq!(stitched, full, "workers={workers}");
        }
    }

    #[test]
    fn empty_and_clamped_shard_windows_are_safe() {
        let trial = FnTrial::new(|ctx: &mut TrialCtx| ctx.index);
        let plan = RunPlan::new(40, 1).with_shards(4);
        let empty =
            Engine::with_workers(2).run(&plan.with_shard_window(2, 2), &trial, CollectSink::new());
        assert!(empty.summary.is_empty());
        assert_eq!(empty.stats.trials, 0);
        // A window reaching past the shard count clamps instead of
        // panicking on the shard-length table.
        let clamped =
            Engine::with_workers(2).run(&plan.with_shard_window(3, 99), &trial, CollectSink::new());
        assert_eq!(clamped.summary, (30..40).collect::<Vec<_>>());
        assert_eq!(clamped.stats.planned_shards, 1);
    }

    #[test]
    fn zero_trials_is_a_noop() {
        let outcome = Engine::with_workers(4).run(
            &RunPlan::new(0, 1),
            &FnTrial::new(|_ctx: &mut TrialCtx| 1u32),
            CollectSink::new(),
        );
        assert!(outcome.summary.is_empty());
        assert_eq!(outcome.stats.trials, 0);
    }

    #[test]
    fn stats_json_is_wellformed() {
        let outcome = Engine::with_workers(2).run(
            &RunPlan::new(10, 5),
            &FnTrial::new(|ctx: &mut TrialCtx| ctx.seed),
            CollectSink::new(),
        );
        let json = outcome.stats.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"trials\":10"));
        assert!(json.contains("throughput_per_s"));
        assert!(json.contains("\"steals\":"));
        assert!(json.contains("\"send_block_us\":"));
        assert!(json.contains("\"max_reorder_depth\":"));
        assert!(json.contains("\"trial_p50_ns\":"));
        assert!(json.contains("\"trial_p95_ns\":"));
        assert!(json.contains("\"trial_p99_ns\":"));
        assert!(json.contains("workers_detail"));
        assert_eq!(outcome.stats.trial_hist.count(), 10);
    }

    #[test]
    fn live_metrics_match_run_outcome_after_the_run() {
        let engine = Engine::with_workers(4);
        let outcome = engine.run(
            &RunPlan::new(300, 11).with_shards(8),
            &FnTrial::new(|ctx: &mut TrialCtx| ctx.index),
            CollectSink::new(),
        );
        let m = engine.metrics();
        assert_eq!(m.runs_started.get(), 1);
        assert_eq!(m.runs_completed.get(), 1);
        assert_eq!(m.trials_executed.get(), outcome.stats.trials);
        assert_eq!(m.trials_released.get(), outcome.stats.trials);
        assert_eq!(m.shards_completed.get(), outcome.stats.shards as u64);
        assert_eq!(m.steals.get(), outcome.stats.steals);
        assert_eq!(
            m.trial_ns.snapshot().count(),
            outcome.stats.trial_hist.count()
        );
        assert_eq!(m.workers_live.get(), 0);
        assert_eq!(m.reorder_resident.get(), 0);
    }

    #[test]
    fn live_metrics_observe_a_run_in_flight() {
        // A cloned engine shares the metric handles, so a monitor thread
        // can watch the run progress without waiting for RunOutcome.
        let registry = relcnn_obs::Registry::new();
        let engine = Engine::with_workers(2).observed(&registry);
        let monitor = engine.clone();
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let watcher = scope.spawn(|| {
                let m = monitor.metrics();
                let mut saw_in_flight = false;
                let mut last_executed = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let executed = m.trials_executed.get();
                    let in_flight = m.runs_started.get() > m.runs_completed.get();
                    if in_flight && executed > 0 && !saw_in_flight {
                        // The observed registry's page is valid mid-run
                        // and already carries the engine families.
                        let page = registry.render();
                        let parsed = relcnn_obs::parse::validate(&page)
                            .unwrap_or_else(|e| panic!("mid-run page invalid: {e}\n{page}"));
                        for family in [
                            "relcnn_engine_trials_executed_total",
                            "relcnn_engine_workers_live",
                            "relcnn_engine_reorder_resident_trials",
                            "relcnn_engine_trial_duration_nanoseconds_count",
                        ] {
                            assert!(parsed.has(family), "mid-run page missing {family}:\n{page}");
                        }
                        saw_in_flight = true;
                    }
                    assert!(
                        executed >= last_executed,
                        "executed-trials counter must be monotone"
                    );
                    last_executed = executed;
                    std::thread::sleep(Duration::from_micros(200));
                }
                saw_in_flight
            });
            let outcome = engine.run(
                &RunPlan::new(64, 7).with_shards(8).with_chunk(2),
                &FnTrial::new(|ctx: &mut TrialCtx| {
                    std::thread::sleep(Duration::from_micros(300));
                    ctx.index
                }),
                CollectSink::new(),
            );
            done.store(true, Ordering::Relaxed);
            assert_eq!(outcome.stats.trials, 64);
            assert!(
                watcher.join().expect("watcher"),
                "watcher should observe the run in flight with trials executed"
            );
        });
    }

    #[test]
    fn trial_hist_covers_every_executed_trial() {
        for workers in [1, 4] {
            let outcome = Engine::with_workers(workers).run(
                &RunPlan::new(200, 3).with_shards(8),
                &FnTrial::new(|ctx: &mut TrialCtx| ctx.index),
                CollectSink::new(),
            );
            assert_eq!(outcome.stats.trial_hist.count(), 200, "workers={workers}");
            let (p50, p95, p99) = outcome.stats.trial_hist.percentiles();
            assert!(p50 <= p95 && p95 <= p99);
        }
    }
}
