//! The canonical deterministic workloads the artefact binaries share.
//!
//! `determinism_artifact` (single process, worker/chunk/source matrix)
//! and `cluster_artifact` (multi-process topology and chaos matrix) must
//! byte-diff against each other, so the campaign identity — trial count,
//! seed, shard count and the per-trial work itself — lives here exactly
//! once. Drift between the binaries would silently turn every
//! cross-artefact diff into a guaranteed mismatch.
//!
//! The two serving workloads live here for the same reason: the
//! *artefact* workload ([`artifact_server`] + [`artifact_load`]) is what
//! `serving_artifact` byte-diffs, and the *bench* workload
//! ([`bench_server`] + [`bench_load`]) is what `serve_bench` gates.
//! Every serving binary classifies with [`cnn_backend`].

use relcnn_cluster::{JobSpec, TaskOutput};
use relcnn_faults::{BerInjector, FaultInjector, FaultSite, OpContext, SkewedCost};
use relcnn_runtime::{
    merge_in_order, CampaignReport, CampaignSink, EarlyStop, Engine, FnTrial, JsonlSink, RunPlan,
    TrialCtx, TrialOutcome, TrialResult,
};
use relcnn_serve::{BatchPolicy, CnnBackend, LoadGenConfig, ServerConfig, ServiceModel};
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Trials in the canonical campaign.
pub const TRIALS: u64 = 240;
/// Campaign seed (trial `i` runs at seed `BASE_SEED + i`).
pub const BASE_SEED: u64 = 0xD17E;
/// Shard count — the axis cluster tasks are cut along.
pub const SHARDS: usize = 12;

/// Maps the fault pattern of a trial's first 16 injector exposures to an
/// outcome. Both profiles share it (and the `(seed, 0.3)` injector), so
/// they make the same early-stop decision at the same shard — only the
/// exposure counts in the artefact differ.
pub fn outcome_of(inj: &mut BerInjector, extra_ops: u64) -> TrialOutcome {
    let mut flips = 0u32;
    let mut acc = 0.0f32;
    for op in 0..(16 + extra_ops) {
        let v = inj.perturb(OpContext::new(FaultSite::Multiplier, op), 1.0);
        if op < 16 && v != 1.0 {
            flips += 1;
        }
        acc += v;
    }
    std::hint::black_box(acc);
    match flips {
        0 => TrialOutcome::Correct,
        1..=3 => TrialOutcome::DetectedRecovered,
        4..=6 => TrialOutcome::DetectedAborted,
        _ => TrialOutcome::SilentCorruption,
    }
}

/// The campaign workload, split into the *dataset* half (a per-trial
/// cost descriptor derived from the trial index — what the ingestion
/// paths deliver by different routes) and the *execution* half (what a
/// trial does with its descriptor and seed).
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Sleeps per descriptor milliseconds (steals even on one core).
    Latency,
    /// Spins through descriptor extra injector exposures (pure compute).
    Cpu,
}

impl Profile {
    /// Parses the CLI / wire spelling (`latency` | `cpu`).
    pub fn parse(name: &str) -> Option<Profile> {
        match name {
            "latency" => Some(Profile::Latency),
            "cpu" => Some(Profile::Cpu),
            _ => None,
        }
    }

    /// The CLI / wire spelling — `parse` ∘ `name` is the identity.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Latency => "latency",
            Profile::Cpu => "cpu",
        }
    }

    /// The per-trial workload descriptor — the "dataset item" for trial
    /// `index`. A pure function of the index, as every `TrialSource`
    /// must be.
    pub fn item(self, index: u64) -> u64 {
        match self {
            Profile::Latency => SkewedCost::tail(0, 2, TRIALS / 3).evals(index),
            Profile::Cpu => SkewedCost::tail(512, 8192, TRIALS / 3).evals(index),
        }
    }

    /// Executes one trial on its pulled descriptor.
    pub fn run(self, item: u64, seed: u64) -> TrialResult {
        let mut inj = BerInjector::new(seed, 0.3).with_sites(vec![FaultSite::Multiplier]);
        let outcome = match self {
            Profile::Latency => {
                std::thread::sleep(Duration::from_millis(item));
                outcome_of(&mut inj, 0)
            }
            Profile::Cpu => outcome_of(&mut inj, item),
        };
        TrialResult {
            outcome,
            injector: inj.stats(),
        }
    }

    /// The classic index-driven trial: derives the descriptor from the
    /// seed itself (trial `i` runs at seed `BASE_SEED + i`).
    pub fn trial(self, seed: u64) -> TrialResult {
        self.run(self.item(seed - BASE_SEED), seed)
    }
}

/// Builds the [`JobSpec`] naming the canonical campaign at `threads`
/// engine threads per worker process.
pub fn cluster_job(profile: Profile, threads: usize) -> JobSpec {
    JobSpec {
        workload: profile.name().to_string(),
        trials: TRIALS,
        seed: BASE_SEED,
        shards: SHARDS,
        chunk: 0,
        threads,
    }
}

/// The cluster task function both cluster binaries pass to
/// [`run_worker_if_spawned`](relcnn_cluster::run_worker_if_spawned) and
/// [`run_cluster`](relcnn_cluster::run_cluster): computes shards
/// `[shard_lo, shard_hi)` of the job's campaign and returns the
/// `(partial aggregate JSON, footerless JSONL slice)` pair. A pure
/// function of its arguments — the byte-identity contract of the fabric.
pub fn cluster_task(job: &JobSpec, shard_lo: usize, shard_hi: usize) -> (String, String) {
    let profile = Profile::parse(&job.workload)
        .unwrap_or_else(|| panic!("unknown workload {:?}", job.workload));
    // The plan is the *full* campaign's, so the window's result stream is
    // the corresponding slice of a single-process run.
    let plan = RunPlan::new(job.trials, job.seed)
        .with_shards(job.shards)
        .with_chunk(job.chunk)
        .with_shard_window(shard_lo, shard_hi);
    let buf = Arc::new(Mutex::new(Vec::new()));
    // No early stop: distributed tasks see only their window, so a stop
    // decision could not match the full run's (mirrors `--no-abort`).
    let sink = JsonlSink::new(
        SharedBuf(Arc::clone(&buf)),
        CampaignSink::new(EarlyStop::never()),
    )
    .without_footer();
    let outcome = Engine::with_workers(job.threads).run(
        &plan,
        &FnTrial::new(move |ctx: &mut TrialCtx| profile.trial(ctx.seed)),
        sink,
    );
    let payload = String::from_utf8(std::mem::take(&mut *buf.lock().expect("buffer poisoned")))
        .expect("JSONL artefact is UTF-8");
    let partial = serde_json::to_string(&outcome.summary).expect("partial aggregate serialization");
    (partial, payload)
}

/// Merges completed cluster tasks (already in task = shard order) back
/// into the full campaign: the concatenated JSONL stream plus the merged
/// aggregate, which must equal the single-process run byte for byte.
pub fn merge_cluster_outputs(outputs: &[TaskOutput]) -> (CampaignReport, String) {
    let mut payload = String::new();
    let parts: Vec<CampaignReport> = outputs
        .iter()
        .map(|o| {
            payload.push_str(&o.payload);
            serde_json::from_str(&o.partial)
                .unwrap_or_else(|e| panic!("task {}: parse partial aggregate: {e}", o.task))
        })
        .collect();
    (merge_in_order::<TrialResult, _>(parts), payload)
}

/// Seed of the untrained tiny hybrid CNN every serving binary serves.
const BACKEND_SEED: u64 = 0xC1A55;

/// The serving binaries' CNN backend: `CnnBackend::tiny(BACKEND_SEED)`.
pub fn cnn_backend() -> CnnBackend {
    CnnBackend::tiny(BACKEND_SEED).unwrap_or_else(|e| panic!("backend: {e}"))
}

/// Requests in one serving-artefact trace.
const ARTIFACT_REQUESTS: u64 = 240;
/// Base deadline budget of the serving-artefact trace, µs.
const ARTIFACT_DEADLINE_US: u64 = 5_500;

/// The serving artefact's server: enough overload (heavy-tail service
/// vs. arrival rate, a 16-slot queue) that completions, shedding,
/// boundary/pre-dispatch expiry, late service, AIMD clamps and
/// early-closed windows all appear in the artefact.
pub fn artifact_server() -> ServerConfig {
    ServerConfig::new(
        16,
        BatchPolicy::new(6, 2_000).with_critical_delay(500),
        ServiceModel {
            batch_overhead_us: 150,
            // Every 13th request takes an escalation-grade service hit.
            cost: SkewedCost::periodic(180, 3_000, 13),
        },
    )
    .with_critical_reserve(3)
    .with_control()
}

/// The serving artefact's three-class trace at `seed` for the
/// `poisson` or `burst` arrival process; `None` for any other name.
pub fn artifact_load(seed: u64, arrival: &str) -> Option<LoadGenConfig> {
    // Jittered deadline budgets (0.7–5.5 ms) make the *pre-dispatch*
    // expiry sweep reachable, not just the batch-boundary one — with
    // uniform budgets the FIFO head always dies first and the boundary
    // sweep shadows it. The class mix gives critical a tight budget and
    // bulk a loose one, so priority dispatch and the reservation both
    // leave visible marks on the artefact.
    let base = match arrival {
        "poisson" => LoadGenConfig::poisson(ARTIFACT_REQUESTS, seed, 300, ARTIFACT_DEADLINE_US),
        "burst" => {
            LoadGenConfig::burst(ARTIFACT_REQUESTS, seed, 24, 20, 9_000, ARTIFACT_DEADLINE_US)
        }
        _ => return None,
    };
    Some(
        base.with_deadline_jitter(4_800)
            .with_class_mix([1, 3, 2])
            .with_class_deadlines([2_500, 0, 30_000]),
    )
}

/// Requests in the full-scale serving-bench trace.
pub const BENCH_REQUESTS: u64 = 480;

/// The serving bench's server: a 24-slot queue with a four-slot
/// critical reservation under AIMD control.
pub fn bench_server() -> ServerConfig {
    ServerConfig::new(
        24,
        BatchPolicy::new(8, 1_000).with_critical_delay(400),
        ServiceModel {
            batch_overhead_us: 150,
            cost: SkewedCost::periodic(200, 2_800, 13),
        },
    )
    .with_critical_reserve(4)
    .with_control()
}

/// The serving bench's overloaded three-class Poisson trace, cut to
/// `requests` arrivals.
pub fn bench_load(requests: u64) -> LoadGenConfig {
    LoadGenConfig::poisson(requests, 0x5E12F, 320, 15_000)
        .with_deadline_jitter(9_000)
        .with_class_mix([1, 3, 2])
        .with_class_deadlines([4_000, 0, 45_000])
}

/// `Write` handle into a shared buffer — lets the task function keep the
/// JSONL bytes after the sink consumed the writer.
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("buffer poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_names_roundtrip() {
        for p in [Profile::Latency, Profile::Cpu] {
            assert!(Profile::parse(p.name()) == Some(p));
        }
        assert!(Profile::parse("turbo").is_none());
    }

    #[test]
    fn cluster_tasks_stitch_back_into_the_full_campaign() {
        let job = cluster_job(Profile::Latency, 2);
        let (full_partial, full_payload) = cluster_task(&job, 0, SHARDS);
        let outputs: Vec<TaskOutput> = [(0usize, 0usize, 5usize), (1, 5, 8), (2, 8, 12)]
            .iter()
            .map(|&(task, shard_lo, shard_hi)| {
                let (partial, payload) = cluster_task(&job, shard_lo, shard_hi);
                TaskOutput {
                    task,
                    shard_lo,
                    shard_hi,
                    partial,
                    payload,
                }
            })
            .collect();
        let (merged, payload) = merge_cluster_outputs(&outputs);
        assert_eq!(payload, full_payload);
        assert_eq!(serde_json::to_string(&merged).unwrap(), full_partial);
    }

    #[test]
    fn trials_are_pure_functions_of_their_seed() {
        for profile in [Profile::Latency, Profile::Cpu] {
            let a = profile.trial(BASE_SEED + 7);
            let b = profile.trial(BASE_SEED + 7);
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.injector.exposures, b.injector.exposures);
        }
    }
}
