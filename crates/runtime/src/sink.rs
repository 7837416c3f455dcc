//! Streaming result consumers.
//!
//! A [`Sink`] receives trial results in deterministic order (ascending
//! trial index — see the engine's determinism model) and distils them
//! into a summary. After each completed shard the engine polls
//! [`Sink::checkpoint`], the early-abort hook: returning
//! [`Control::Stop`] cancels the remaining shards.
//!
//! Every sink takes its results the same way: workers fold each chunk
//! into the sink's [`Partial`](Sink::Partial) in place, only the folded
//! partial crosses the worker channel, and the aggregator hands partials
//! to [`absorb`](Sink::absorb) in ascending trial order. A sink that
//! counts ([`CountSink`], [`CampaignSink`](crate::CampaignSink)) merges a
//! handful of integers per envelope; a sink that keeps every result
//! ([`CollectSink`], [`JsonlSink`]) uses a [`Block`] — the results
//! themselves, in order — and drains it.

use crate::agg::{Block, PartialAggregate, TrialCount};
use crate::engine::RunStats;
use serde::Serialize;
use std::io::{BufWriter, Write};

/// Checkpoint verdict: keep executing or stop the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep going.
    Continue,
    /// Cancel all shards after the current prefix.
    Stop,
}

/// A streaming consumer of trial results.
pub trait Sink<T> {
    /// What the sink reduces the stream to.
    type Summary;

    /// Chunk-local partial the engine's workers fold results into.
    type Partial: PartialAggregate<T>;

    /// Consumes one partial: the fold of the next contiguous run of
    /// trials, in ascending index order. When this returns, the engine
    /// [`clear`](PartialAggregate::clear)s the partial and recycles it,
    /// so a sink may drain it or just read it.
    fn absorb(&mut self, partial: &mut Self::Partial);

    /// Early-abort hook, polled after shard `shard` (0-based) completes.
    fn checkpoint(&mut self, _shard: usize) -> Control {
        Control::Continue
    }

    /// Finalises the summary once the run ends.
    fn finish(self, stats: &RunStats) -> Self::Summary;
}

/// Collects every result into a `Vec`, in trial order.
#[derive(Debug, Default)]
pub struct CollectSink<T> {
    items: Vec<T>,
}

impl<T> CollectSink<T> {
    /// An empty collector.
    pub fn new() -> Self {
        CollectSink { items: Vec::new() }
    }
}

impl<T: Send> Sink<T> for CollectSink<T> {
    type Summary = Vec<T>;
    type Partial = Block<T>;

    fn absorb(&mut self, block: &mut Block<T>) {
        self.items.extend(block.drain().map(|(_, item)| item));
    }

    fn finish(self, _stats: &RunStats) -> Vec<T> {
        self.items
    }
}

/// Writes every result as one JSON line (`{"trial":i,"result":...}`),
/// then folds it into a partial of an inner sink and hands that partial
/// to the inner sink, one per block.
///
/// Writes go through an internal [`BufWriter`]: the sink sits on the
/// engine's serial aggregation path, and an unbuffered line per trial
/// would tax exactly the consumer that per-worker folding keeps
/// unclogged. The buffer is flushed in [`finish`](Sink::finish), so a
/// completed run's artefact is always fully written.
///
/// By default the trailing line of the stream is a run footer with the
/// engine's throughput/latency counters, so a JSONL artefact is
/// self-describing. The result lines are deterministic (bit-identical at
/// any worker count / chunk size / steal schedule); the footer records
/// the *execution* and is not. Disable it with
/// [`without_footer`](JsonlSink::without_footer) to get a byte-for-byte
/// reproducible artefact — the determinism CI matrix diffs exactly that.
///
/// # Panics
///
/// I/O failures panic: an experiment artefact that silently truncates is
/// worse than an aborted run (matching `relcnn-bench`'s loud-failure
/// convention).
pub struct JsonlSink<W: Write, S> {
    writer: BufWriter<W>,
    inner: S,
    footer: bool,
}

impl<W: Write, S> JsonlSink<W, S> {
    /// Wraps `writer` (buffering it internally), forwarding results to
    /// `inner`.
    pub fn new(writer: W, inner: S) -> Self {
        JsonlSink {
            writer: BufWriter::new(writer),
            inner,
            footer: true,
        }
    }

    /// Suppresses the run footer: the artefact then contains only the
    /// deterministic result lines and is byte-identical across worker
    /// counts, chunk sizes and steal schedules.
    pub fn without_footer(mut self) -> Self {
        self.footer = false;
        self
    }
}

impl<T: Serialize + Send, W: Write, S: Sink<T>> Sink<T> for JsonlSink<W, S> {
    type Summary = S::Summary;
    // The artefact needs every result. The inner sink gets the block
    // re-folded into its own partial: a block never spans a shard
    // boundary, so its checkpoints see exactly what the bare sink sees.
    type Partial = Block<T>;

    fn absorb(&mut self, block: &mut Block<T>) {
        let mut partial = S::Partial::default();
        for (index, item) in block.drain() {
            let json = serde_json::to_string(&item).unwrap_or_else(|e| format!("\"<error: {e}>\""));
            writeln!(self.writer, "{{\"trial\":{index},\"result\":{json}}}")
                .unwrap_or_else(|e| panic!("JSONL sink: write of trial {index} failed: {e}"));
            partial.fold(index, item);
        }
        self.inner.absorb(&mut partial);
    }

    fn checkpoint(&mut self, shard: usize) -> Control {
        self.inner.checkpoint(shard)
    }

    fn finish(mut self, stats: &RunStats) -> S::Summary {
        if self.footer {
            writeln!(self.writer, "{{\"run\":{}}}", stats.to_json())
                .unwrap_or_else(|e| panic!("JSONL sink: write of run footer failed: {e}"));
        }
        self.writer
            .flush()
            .unwrap_or_else(|e| panic!("JSONL sink: flush failed: {e}"));
        self.inner.finish(stats)
    }
}

/// Counts results without retaining them (smoke/throughput runs).
#[derive(Debug, Default)]
pub struct CountSink {
    count: u64,
}

impl CountSink {
    /// A zeroed counter.
    pub fn new() -> Self {
        CountSink::default()
    }
}

impl<T> Sink<T> for CountSink {
    type Summary = u64;
    // Workers fold chunk counts locally and the channel carries one
    // integer per envelope.
    type Partial = TrialCount;

    fn absorb(&mut self, partial: &mut TrialCount) {
        self.count += partial.0;
    }

    fn finish(self, _stats: &RunStats) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, RunPlan};
    use crate::trial::{FnTrial, TrialCtx};
    use rand::Rng;

    #[test]
    fn jsonl_sink_writes_lines_and_footer() {
        let mut buf: Vec<u8> = Vec::new();
        {
            let sink = JsonlSink::new(&mut buf, CountSink::new());
            let outcome = Engine::with_workers(2).run(
                &RunPlan::new(6, 3).with_shards(3),
                &FnTrial::new(|ctx: &mut TrialCtx| ctx.index as u32),
                sink,
            );
            assert_eq!(outcome.summary, 6);
        }
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 7, "6 results + run footer:\n{text}");
        assert!(lines[0].starts_with("{\"trial\":0,"));
        assert!(lines[6].starts_with("{\"run\":{"));
        assert!(lines[6].contains("\"trials\":6"));
    }

    #[test]
    fn footerless_jsonl_is_byte_identical_across_schedules() {
        let artefact = |workers: usize, chunk: u64| {
            let mut buf: Vec<u8> = Vec::new();
            let sink = JsonlSink::new(&mut buf, CountSink::new()).without_footer();
            let outcome = Engine::with_workers(workers).run(
                &RunPlan::new(60, 9).with_shards(6).with_chunk(chunk),
                &FnTrial::new(|ctx: &mut TrialCtx| ctx.rng.random::<u32>()),
                sink,
            );
            assert_eq!(outcome.summary, 60);
            buf
        };
        let reference = artefact(1, 0);
        assert!(!reference.is_empty());
        for (workers, chunk) in [(2, 0), (8, 1), (8, 3), (4, 100)] {
            assert_eq!(
                artefact(workers, chunk),
                reference,
                "workers={workers} chunk={chunk}"
            );
        }
    }

    #[test]
    fn early_abort_stops_at_a_shard_boundary() {
        struct StopAfter {
            shards: usize,
            seen: u64,
        }
        impl Sink<u64> for StopAfter {
            type Summary = u64;
            type Partial = TrialCount;
            fn absorb(&mut self, partial: &mut TrialCount) {
                self.seen += partial.0;
            }
            fn checkpoint(&mut self, shard: usize) -> Control {
                if shard + 1 >= self.shards {
                    Control::Stop
                } else {
                    Control::Continue
                }
            }
            fn finish(self, _stats: &RunStats) -> u64 {
                self.seen
            }
        }

        // 100 trials over 10 shards, stop after 3 shards => exactly 30
        // trials aggregated, independent of worker count.
        for workers in [1, 2, 8] {
            let outcome = Engine::with_workers(workers).run(
                &RunPlan::new(100, 1).with_shards(10),
                &FnTrial::new(|ctx: &mut TrialCtx| ctx.index),
                StopAfter { shards: 3, seen: 0 },
            );
            assert_eq!(outcome.summary, 30, "workers={workers}");
            assert!(outcome.stats.aborted);
            assert_eq!(outcome.stats.shards, 3);
        }
    }
}
