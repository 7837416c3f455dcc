//! Head↔worker wire protocol: serde-JSON messages inside
//! [`frame`](crate::frame) frames.
//!
//! The fabric is deliberately workload-agnostic: a [`JobSpec`] names the
//! campaign (an opaque `workload` string plus the deterministic plan
//! parameters), tasks are contiguous shard ranges of the *full* plan,
//! and a task's result is whatever the caller's task function produced —
//! a JSON partial aggregate plus an opaque artefact payload the head
//! concatenates in task order.

use crate::chaos::ChaosPlan;
use relcnn_obs::trace::TraceSnapshot;
use serde::{Deserialize, Serialize};

/// The campaign one cluster run executes, broadcast to every worker in
/// its `Setup` frame. Carries the full plan's identity; each task then
/// names a shard window of it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Caller-defined workload descriptor (e.g. a profile name); the
    /// fabric never interprets it.
    pub workload: String,
    /// Total trials of the full plan.
    pub trials: u64,
    /// Campaign seed of the full plan.
    pub seed: u64,
    /// Shard count of the full plan (the axis tasks are cut along).
    pub shards: usize,
    /// Scheduling chunk size (0 = auto), forwarded to the worker's plan.
    pub chunk: u64,
    /// Engine worker threads per process.
    pub threads: usize,
}

/// Head → worker messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ToWorker {
    /// First frame on the pipe: identity, job and chaos schedule.
    Setup {
        /// This worker's index (also in `RELCNN_CLUSTER_WORKER`).
        worker: usize,
        /// The campaign to run windows of.
        job: JobSpec,
        /// Deterministic fault schedule (often [`ChaosPlan::none`]).
        chaos: ChaosPlan,
        /// Whether the worker should flight-record its task timeline
        /// and ship it back as a [`FromWorker::Trace`] frame.
        trace: bool,
    },
    /// Compute shards `[shard_lo, shard_hi)` of the job.
    Assign {
        /// Task id (the head's requeue/merge key).
        task: usize,
        /// First shard of the window.
        shard_lo: usize,
        /// One past the last shard of the window.
        shard_hi: usize,
    },
    /// Drain and exit cleanly.
    Shutdown,
}

/// Worker → head messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FromWorker {
    /// First frame back: the worker is up and parsed its `Setup`.
    Hello {
        /// Sender's worker index.
        worker: usize,
    },
    /// Liveness beacon, one per heartbeat period — also sent while a
    /// long task computes, so only the per-task deadline (not the
    /// liveness deadline) can declare a *hung* worker dead.
    Heartbeat {
        /// Sender's worker index.
        worker: usize,
    },
    /// A completed task: the partial aggregate as JSON plus the opaque
    /// artefact bytes (UTF-8 JSONL) for byte-identical stitching.
    Done {
        /// Sender's worker index.
        worker: usize,
        /// Task id being acknowledged.
        task: usize,
        /// Caller-defined partial aggregate, JSON-encoded.
        partial: String,
        /// Caller-defined artefact slice (concatenated in task order).
        payload: String,
    },
    /// The worker's drained flight-recorder ring, shipped when tracing
    /// is on: before a clean shutdown, and best-effort right before a
    /// chaos kill or corrupt exit — so even a murdered worker leaves a
    /// timeline for the head to merge as its own pid track.
    Trace {
        /// Sender's worker index.
        worker: usize,
        /// The drained recorder.
        snapshot: TraceSnapshot,
    },
}

/// Encodes a message for the wire.
pub fn encode<T: Serialize>(msg: &T) -> Vec<u8> {
    serde_json::to_string(msg)
        .expect("protocol message serialization cannot fail")
        .into_bytes()
}

/// Decodes a message off the wire.
pub fn decode<T: Deserialize>(bytes: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> JobSpec {
        JobSpec {
            workload: "latency".into(),
            trials: 240,
            seed: 0xD17E,
            shards: 12,
            chunk: 0,
            threads: 2,
        }
    }

    #[test]
    fn messages_roundtrip() {
        let msgs = vec![
            ToWorker::Setup {
                worker: 2,
                job: job(),
                chaos: ChaosPlan::kill_one(9, 4),
                trace: true,
            },
            ToWorker::Assign {
                task: 3,
                shard_lo: 6,
                shard_hi: 8,
            },
            ToWorker::Shutdown,
        ];
        for msg in msgs {
            let back: ToWorker = decode(&encode(&msg)).unwrap();
            assert_eq!(back, msg);
        }
        let done = FromWorker::Done {
            worker: 1,
            task: 3,
            partial: "{\"trials\":40}".into(),
            payload: "{\"trial\":0,\"result\":{}}\n".into(),
        };
        let back: FromWorker = decode(&encode(&done)).unwrap();
        assert_eq!(back, done);
        // A trace frame nests a full snapshot through the same codec.
        let rec = relcnn_obs::TraceRecorder::new("worker-1");
        let ring = rec.ring("tasks");
        ring.span(
            "task",
            "cluster",
            10,
            20,
            &[relcnn_obs::trace::Arg::U("task", 3)],
        );
        let trace = FromWorker::Trace {
            worker: 1,
            snapshot: rec.drain(),
        };
        let back: FromWorker = decode(&encode(&trace)).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn garbage_decodes_to_a_typed_error() {
        assert!(decode::<FromWorker>(b"not json").is_err());
        assert!(decode::<FromWorker>(&[0xFF, 0xFE]).is_err());
    }
}
