//! The benchmark's own spans: one per call into a layer's public function,
//! kept in memory by the `obs` flight recorder and written at exit as a
//! Chrome trace.
//!
//! Whole operations (`classify`, a batch, a campaign segment) go on the
//! `bench-ops` track and the staged layer calls on `bench-stages`; a stage
//! names the operation that caused it in its `op` argument. Two tracks,
//! because a span is recorded when it ends and the exporter keeps recording
//! order: a parent written after its children on one track would not nest.

use relcnn_obs::trace::{
    export_chrome, validate, Arg, ThreadSnapshot, TraceRecorder, TraceRing, TraceSnapshot,
};
use std::time::Instant;

/// Per-ring capacity: a serve phase records a few events per request.
pub const RING_CAPACITY: usize = 1 << 17;

/// Records per validated slice. The vendored JSON parser re-validates the
/// rest of the document at every string character, so `obs::trace::validate`
/// costs the square of the document's size: 40 000 events take two minutes
/// whole and a second in slices. Every span is exported as an adjacent B/E
/// pair, so a slice of a valid track is a valid track.
const VALIDATED_SLICE: usize = 512;

pub struct Spans {
    pub recorder: TraceRecorder,
    ops: TraceRing,
    stages: TraceRing,
    next_op: u64,
    /// Drained recorders of phases that ran on a clock of their own (each
    /// wall-clock serve phase starts at 0): one process track each.
    adopted: Vec<TraceSnapshot>,
}

impl Spans {
    pub fn new() -> Self {
        let recorder = TraceRecorder::with_capacity("relcnn-benchmark", RING_CAPACITY);
        Spans {
            ops: recorder.ring("bench-ops"),
            stages: recorder.ring("bench-stages"),
            recorder,
            next_op: 0,
            adopted: Vec::new(),
        }
    }

    /// Adds a drained recorder to the export as a process track of its own.
    pub fn adopt(&mut self, snapshot: TraceSnapshot) {
        self.adopted.push(snapshot);
    }

    /// Times `f` as a whole operation and returns its result, the elapsed
    /// µs, and the operation's id for its stages to name.
    pub fn op<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64, u64) {
        let id = self.next_op;
        self.next_op += 1;
        let (out, us) = record(&self.recorder, &self.ops, name, id, f);
        (out, us, id)
    }

    /// Times `f` as one layer's share of operation `op`.
    pub fn stage<T>(&self, name: &str, op: u64, f: impl FnOnce() -> T) -> (T, f64) {
        record(&self.recorder, &self.stages, name, op, f)
    }

    /// Cost of one empty span in ns: what every traced number above carries.
    pub fn span_cost_ns(&self) -> f64 {
        const SPANS: u32 = 2_000;
        // A recorder of its own, so the export does not carry the empties.
        let recorder = TraceRecorder::with_capacity("span-cost", SPANS as usize);
        let ring = recorder.ring("empty");
        let t0 = Instant::now();
        for i in 0..SPANS {
            record(&recorder, &ring, "empty", u64::from(i), || ());
        }
        t0.elapsed().as_nanos() as f64 / f64::from(SPANS)
    }

    /// Exports everything recorded — these spans and whatever the engine and
    /// server taps wrote into the same recorder — as Chrome-trace JSON to
    /// `path`, and checks it with the `obs` validator, slice by slice.
    /// Returns (events exported, events dropped by full rings).
    pub fn export(&self, path: &std::path::Path) -> Result<(u64, u64), String> {
        let mut snapshots = vec![self.recorder.drain()];
        snapshots.extend(self.adopted.iter().cloned());
        let dropped = snapshots.iter().map(TraceSnapshot::dropped_events).sum();
        std::fs::write(path, export_chrome(&snapshots))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        let mut events = 0;
        for snapshot in &snapshots {
            for thread in &snapshot.threads {
                for records in thread.records.chunks(VALIDATED_SLICE) {
                    let slice = TraceSnapshot {
                        process: snapshot.process.clone(),
                        threads: vec![ThreadSnapshot {
                            tid: thread.tid,
                            label: thread.label.clone(),
                            recorded_events: thread.recorded_events,
                            dropped_events: 0,
                            records: records.to_vec(),
                        }],
                    };
                    events += validate(&export_chrome(&[slice]))?.event_count() as u64;
                }
            }
        }
        Ok((events, dropped))
    }
}

fn record<T>(
    recorder: &TraceRecorder,
    ring: &TraceRing,
    name: &str,
    op: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let begin_us = recorder.now_us();
    let t0 = Instant::now();
    let out = f();
    let ns = t0.elapsed().as_nanos() as u64;
    ring.span(
        name,
        "bench",
        begin_us,
        begin_us + ns / 1_000,
        &[Arg::U("op", op)],
    );
    (out, ns as f64 / 1_000.0)
}
