//! Head-process orchestration: spawn, assign, detect loss, requeue.
//!
//! The head cuts the job's shard axis into fixed-width contiguous
//! *tasks* — the unit of distribution, sized independently of the
//! process count, so every topology computes the same task set and a
//! requeued task recomputes byte-identical results on any survivor.
//! Workers are the current binary re-invoked with
//! [`WORKER_ENV`] set; frames travel over the
//! children's stdin/stdout pipes, one reader thread per worker funnelling
//! into a single event channel.
//!
//! Failure detection has three disjoint paths, one per failure mode:
//! a **crash** surfaces as pipe EOF (fast); a **corrupt frame** surfaces
//! as a codec checksum (or parse) error; a **hang** — the worker still
//! heartbeats but a result never comes — surfaces when the per-task
//! deadline expires. All three converge on the same recovery: kill the
//! worker, requeue its unacknowledged task with bounded exponential
//! backoff, and mark the run *degraded*. A task that exhausts its
//! retries — or outlives the last worker — is computed in-process by the
//! head, so the run always terminates with the complete, byte-identical
//! aggregate.

use crate::chaos::ChaosPlan;
use crate::frame::{read_frame, write_frame, FrameError};
use crate::metrics::ClusterMetrics;
use crate::proto::{decode, encode, FromWorker, JobSpec, ToWorker};
use crate::worker::{HEARTBEAT_MS, WORKER_ENV};
use relcnn_obs::trace::{Arg, TraceRecorder, TraceSnapshot};
use relcnn_obs::Registry;
use std::io;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Head-side fabric configuration (the job itself lives in [`JobSpec`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Worker processes to spawn. `0` runs every task in-process — the
    /// degenerate local topology, useful as a cluster-free reference.
    pub workers: usize,
    /// A task unacknowledged this long after assignment means the worker
    /// is hung (it may well still be heartbeating).
    pub task_timeout_ms: u64,
    /// Deterministic fault schedule shipped to every worker.
    pub chaos: ChaosPlan,
}

/// Shards per task: the fixed distribution width. Must not depend on
/// the worker count, or topologies would compute different task sets.
const TASK_SHARDS: usize = 2;
/// Heartbeat silence after which an *idle* worker is presumed dead:
/// twenty heartbeat periods.
const LIVENESS_TIMEOUT: Duration = Duration::from_millis(20 * HEARTBEAT_MS);
/// Requeue attempts per task before the head computes it locally.
const MAX_RETRIES: u32 = 2;
/// Base of the requeue backoff: retry `n` waits `BACKOFF_BASE_MS << (n-1)`,
/// capped at [`BACKOFF_CAP_MS`].
const BACKOFF_BASE_MS: u64 = 10;
/// Cap on the exponential requeue backoff.
const BACKOFF_CAP_MS: u64 = 500;

fn backoff(retries: u32) -> Duration {
    let exp = retries.saturating_sub(1).min(16);
    Duration::from_millis((BACKOFF_BASE_MS << exp).min(BACKOFF_CAP_MS))
}

impl ClusterConfig {
    /// Defaults tuned for campaign-scale tasks: two shards per task, a
    /// 30 s task deadline, no chaos. Workers heartbeat every 50 ms, an
    /// idle worker silent for 1 s is lost, and a task is retried twice
    /// (10 ms → 500 ms backoff) before the head computes it.
    pub fn new(workers: usize) -> Self {
        ClusterConfig {
            workers,
            task_timeout_ms: 30_000,
            chaos: ChaosPlan::none(),
        }
    }

    /// Sets the per-task deadline.
    pub fn with_task_timeout_ms(mut self, ms: u64) -> Self {
        self.task_timeout_ms = ms;
        self
    }

    /// Installs a chaos schedule.
    pub fn with_chaos(mut self, chaos: ChaosPlan) -> Self {
        self.chaos = chaos;
        self
    }
}

/// One completed task: the shard window it covered plus the caller's
/// `(partial, payload)` result pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskOutput {
    /// Task id (position in shard order).
    pub task: usize,
    /// First shard of the window.
    pub shard_lo: usize,
    /// One past the last shard of the window.
    pub shard_hi: usize,
    /// Caller-defined partial aggregate, JSON-encoded.
    pub partial: String,
    /// Caller-defined artefact slice.
    pub payload: String,
}

/// Fabric counters for one cluster run — the distribution-level analog
/// of the engine's `RunStats`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClusterStats {
    /// Worker processes spawned.
    pub workers_spawned: u64,
    /// Workers declared lost (crash, hang or corrupt frame).
    pub workers_lost: u64,
    /// Tasks in the job.
    pub tasks: u64,
    /// Tasks completed by workers.
    pub tasks_completed: u64,
    /// Tasks requeued after a worker loss.
    pub tasks_requeued: u64,
    /// Assignments that were retries of a previously failed task.
    pub task_retries: u64,
    /// Frames written to workers.
    pub frames_sent: u64,
    /// Frames received from workers (including rejected ones).
    pub frames_received: u64,
    /// Frames rejected by the codec checksum or message parser.
    pub corrupt_frames: u64,
    /// Per-task deadline expiries (hung workers).
    pub task_timeouts: u64,
    /// Heartbeat liveness expiries (silent idle workers).
    pub heartbeat_timeouts: u64,
    /// Tasks the head computed in-process (retries exhausted, no
    /// survivors, or the zero-worker topology).
    pub local_fallbacks: u64,
    /// Whether any worker was lost: the run finished on the recovery
    /// path. The aggregate is byte-identical either way.
    pub degraded: bool,
    /// Wall-clock time of the whole cluster run, µs.
    pub wall_us: u64,
}

impl ClusterStats {
    /// Renders the counters as a JSON object (for JSONL run logs).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workers_spawned\":{},\"workers_lost\":{},\"tasks\":{},\
             \"tasks_completed\":{},\"tasks_requeued\":{},\"task_retries\":{},\
             \"frames_sent\":{},\"frames_received\":{},\"corrupt_frames\":{},\
             \"task_timeouts\":{},\"heartbeat_timeouts\":{},\"local_fallbacks\":{},\
             \"degraded\":{},\"wall_us\":{}}}",
            self.workers_spawned,
            self.workers_lost,
            self.tasks,
            self.tasks_completed,
            self.tasks_requeued,
            self.task_retries,
            self.frames_sent,
            self.frames_received,
            self.corrupt_frames,
            self.task_timeouts,
            self.heartbeat_timeouts,
            self.local_fallbacks,
            self.degraded,
            self.wall_us
        )
    }
}

/// Result of [`run_cluster`]: every task's output in task (= shard)
/// order, plus the fabric counters.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// Per-task outputs, indexed by task id. Concatenating `payload`s in
    /// this order reproduces the single-process artefact byte for byte;
    /// merging `partial`s in this order reproduces the full aggregate.
    pub outputs: Vec<TaskOutput>,
    /// Fabric counters.
    pub stats: ClusterStats,
    /// Flight-recorder snapshots shipped by traced workers, sorted by
    /// worker index. Empty when tracing is off (no hooks recorder) — and
    /// best-effort when on: a worker that died before shipping simply
    /// contributes no track. Merge with the head's own drained recorder
    /// via [`relcnn_obs::trace::export_chrome`] for one multi-process
    /// timeline.
    pub traces: Vec<TraceSnapshot>,
}

/// Optional observability side-channels for a cluster run. All of them
/// are write-only taps: hooking a run cannot change a byte of its
/// aggregate (CI byte-diffs hooked vs bare runs at every topology).
#[derive(Default)]
pub struct ClusterHooks<'a> {
    /// Publish live `relcnn_cluster_*` metrics here. The head binds no
    /// port: serve this registry with `relcnn_obs::ScrapeServer` to
    /// scrape it mid-run.
    pub registry: Option<&'a Registry>,
    /// Flight-record the head's orchestration timeline on this recorder
    /// (ring `"head"`), and tell every worker to record too — their
    /// shipped rings land in [`ClusterOutcome::traces`].
    pub trace: Option<&'a TraceRecorder>,
}

impl<'a> ClusterHooks<'a> {
    /// No hooks: bare run.
    pub fn none() -> Self {
        Self::default()
    }

    /// Sets the metrics registry.
    pub fn with_registry(mut self, registry: &'a Registry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Sets the flight recorder.
    pub fn with_trace(mut self, recorder: &'a TraceRecorder) -> Self {
        self.trace = Some(recorder);
        self
    }
}

#[derive(Clone, Copy, PartialEq)]
enum TaskState {
    Pending,
    Running,
    Done,
}

struct Task {
    lo: usize,
    hi: usize,
    retries: u32,
    not_before: Instant,
    state: TaskState,
}

enum Event {
    Msg(FromWorker),
    Corrupt(String),
    Eof,
}

struct Seat {
    child: Child,
    stdin: ChildStdin,
    alive: bool,
    last_seen: Instant,
    running: Option<(usize, Instant)>,
}

/// The event loop's state: what every loss, requeue and frame write
/// reads or updates, plus the head's own flight-recorder handles.
struct Head<'a> {
    tasks: Vec<Task>,
    stats: ClusterStats,
    cm: &'a ClusterMetrics,
    rec: TraceRecorder,
    ring: relcnn_obs::TraceRing,
}

impl Head<'_> {
    fn send(&mut self, seat: &mut Seat, msg: &ToWorker) -> bool {
        let ok = write_frame(&mut seat.stdin, &encode(msg)).is_ok();
        if ok {
            self.stats.frames_sent += 1;
            self.cm.frames_sent.inc();
        }
        ok
    }

    /// Declares worker `w` lost: kill it, requeue its unacknowledged
    /// task with backoff, mark the run degraded. Idempotent per seat.
    fn lose(&mut self, w: usize, seat: &mut Seat, reason: &str) {
        if !seat.alive {
            return;
        }
        seat.alive = false;
        self.stats.workers_lost += 1;
        self.stats.degraded = true;
        self.cm.workers_lost.inc();
        self.cm.workers_live.sub(1);
        self.cm.degraded.set(1);
        self.ring.instant(
            "kill",
            "cluster",
            self.rec.now_us(),
            &[Arg::U("worker", w as u64), Arg::S("reason", reason)],
        );
        let _ = seat.child.kill();
        let _ = seat.child.wait();
        if let Some((t, _)) = seat.running.take() {
            let task = &mut self.tasks[t];
            if task.state == TaskState::Running {
                task.state = TaskState::Pending;
                task.retries += 1;
                task.not_before = Instant::now() + backoff(task.retries);
                self.stats.tasks_requeued += 1;
                self.cm.tasks_requeued.inc();
                self.ring.instant(
                    "requeue",
                    "cluster",
                    self.rec.now_us(),
                    &[
                        Arg::U("task", t as u64),
                        Arg::U("retry", u64::from(task.retries)),
                    ],
                );
                eprintln!(
                    "[cluster] worker {w} lost ({reason}); task {t} requeued (retry {})",
                    task.retries
                );
                return;
            }
        }
        eprintln!("[cluster] worker {w} lost ({reason}); nothing in flight");
    }
}

/// Runs `job` over `config.workers` worker processes. `hooks` carries
/// the optional observability side-channels — live metrics and
/// flight-recorder tracing across the head and every worker; a bare run
/// passes [`ClusterHooks::none`].
///
/// `task_fn` is used twice: shipped implicitly (the workers are this
/// binary, whose `main` passes the same function to
/// [`run_worker_if_spawned`](crate::run_worker_if_spawned)), and called
/// directly by the head for local fallback. It must be a pure function
/// of `(job, shard_lo, shard_hi)`.
pub fn run_cluster<F>(
    config: &ClusterConfig,
    job: &JobSpec,
    task_fn: F,
    hooks: &ClusterHooks<'_>,
) -> io::Result<ClusterOutcome>
where
    F: Fn(&JobSpec, usize, usize) -> (String, String),
{
    let cm = &match hooks.registry {
        Some(registry) => ClusterMetrics::registered(registry),
        None => ClusterMetrics::default(),
    };
    let started = Instant::now();
    cm.degraded.set(0);

    // Head-side flight recorder (off = every record call is a no-op).
    let rec = hooks.trace.cloned().unwrap_or_default();
    let ring = rec.ring("head");
    let run_begin = rec.now_us();

    let now = Instant::now();
    let tasks: Vec<Task> = (0..job.shards)
        .step_by(TASK_SHARDS)
        .map(|lo| Task {
            lo,
            hi: (lo + TASK_SHARDS).min(job.shards),
            retries: 0,
            not_before: now,
            state: TaskState::Pending,
        })
        .collect();
    let mut outputs: Vec<Option<TaskOutput>> = tasks.iter().map(|_| None).collect();
    let mut head = Head {
        stats: ClusterStats {
            tasks: tasks.len() as u64,
            ..ClusterStats::default()
        },
        tasks,
        cm,
        rec: rec.clone(),
        ring: ring.clone(),
    };
    let run_local = |i: usize, head: &mut Head<'_>, outputs: &mut Vec<Option<TaskOutput>>| {
        let (tasks, stats) = (&mut head.tasks, &mut head.stats);
        let fallback_begin = rec.now_us();
        let (partial, payload) = task_fn(job, tasks[i].lo, tasks[i].hi);
        ring.span(
            "local_fallback",
            "cluster",
            fallback_begin,
            rec.now_us(),
            &[
                Arg::U("task", i as u64),
                Arg::U("shard_lo", tasks[i].lo as u64),
                Arg::U("shard_hi", tasks[i].hi as u64),
            ],
        );
        outputs[i] = Some(TaskOutput {
            task: i,
            shard_lo: tasks[i].lo,
            shard_hi: tasks[i].hi,
            partial,
            payload,
        });
        tasks[i].state = TaskState::Done;
        stats.local_fallbacks += 1;
        cm.local_fallbacks.inc();
    };
    let finish_trace = |stats: &ClusterStats| {
        if stats.degraded {
            ring.instant(
                "degraded_completion",
                "cluster",
                rec.now_us(),
                &[
                    Arg::U("workers_lost", stats.workers_lost),
                    Arg::U("tasks_requeued", stats.tasks_requeued),
                    Arg::U("local_fallbacks", stats.local_fallbacks),
                ],
            );
        }
        ring.span(
            "cluster_run",
            "cluster",
            run_begin,
            rec.now_us(),
            &[
                Arg::U("workers", config.workers as u64),
                Arg::U("tasks", stats.tasks),
                Arg::U("degraded", u64::from(stats.degraded)),
            ],
        );
    };

    if config.workers == 0 {
        // Degenerate local topology: no processes, no pipes, no chaos.
        for i in 0..head.tasks.len() {
            run_local(i, &mut head, &mut outputs);
        }
        head.stats.wall_us = started.elapsed().as_micros() as u64;
        finish_trace(&head.stats);
        return Ok(ClusterOutcome {
            outputs: outputs
                .into_iter()
                .map(|o| o.expect("local task"))
                .collect(),
            stats: head.stats,
            traces: Vec::new(),
        });
    }

    let exe = std::env::current_exe()?;
    let (tx, rx) = mpsc::channel::<(usize, Event)>();
    let mut seats: Vec<Seat> = Vec::with_capacity(config.workers);
    let mut readers = Vec::with_capacity(config.workers);
    for w in 0..config.workers {
        let mut child = Command::new(&exe)
            .env(WORKER_ENV, w.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        head.stats.workers_spawned += 1;
        cm.workers_spawned.inc();
        cm.workers_live.add(1);
        ring.instant(
            "spawn",
            "cluster",
            rec.now_us(),
            &[Arg::U("worker", w as u64)],
        );
        let stdin = child.stdin.take().expect("piped child stdin");
        let mut stdout = child.stdout.take().expect("piped child stdout");
        let tx = tx.clone();
        readers.push(std::thread::spawn(move || loop {
            match read_frame(&mut stdout) {
                Ok(bytes) => match decode::<FromWorker>(&bytes) {
                    Ok(msg) => {
                        if tx.send((w, Event::Msg(msg))).is_err() {
                            return;
                        }
                    }
                    Err(e) => {
                        let _ = tx.send((w, Event::Corrupt(format!("message parse: {e}"))));
                        return;
                    }
                },
                Err(FrameError::Closed) => {
                    let _ = tx.send((w, Event::Eof));
                    return;
                }
                Err(e) => {
                    // After a framing error the stream has no recoverable
                    // sync point; stop reading and let the head kill us.
                    let _ = tx.send((w, Event::Corrupt(e.to_string())));
                    return;
                }
            }
        }));
        let mut seat = Seat {
            child,
            stdin,
            alive: true,
            last_seen: Instant::now(),
            running: None,
        };
        let setup = ToWorker::Setup {
            worker: w,
            job: job.clone(),
            chaos: config.chaos,
            trace: rec.is_on(),
        };
        if !head.send(&mut seat, &setup) {
            head.lose(w, &mut seat, "setup write failed");
        }
        seats.push(seat);
    }
    drop(tx);

    // Traced workers ship their drained rings home; collected here and
    // sorted by worker index into the outcome's merged timeline.
    let mut worker_traces: Vec<(usize, TraceSnapshot)> = Vec::new();

    let tick = Duration::from_millis(HEARTBEAT_MS);
    let mut remaining = head.tasks.len();
    while remaining > 0 {
        // Retry budget exhausted → the head computes the task itself:
        // guaranteed forward progress no matter what the fleet does.
        for i in 0..head.tasks.len() {
            if head.tasks[i].state == TaskState::Pending && head.tasks[i].retries > MAX_RETRIES {
                eprintln!("[cluster] task {i} exhausted retries; computing locally");
                run_local(i, &mut head, &mut outputs);
                remaining -= 1;
            }
        }
        if remaining == 0 {
            break;
        }
        // No survivors → everything still pending runs locally.
        if seats.iter().all(|s| !s.alive) {
            for i in 0..head.tasks.len() {
                if head.tasks[i].state != TaskState::Done {
                    run_local(i, &mut head, &mut outputs);
                }
            }
            break;
        }
        // Assign ready tasks to idle survivors.
        let now = Instant::now();
        for (w, seat) in seats.iter_mut().enumerate() {
            if !seat.alive || seat.running.is_some() {
                continue;
            }
            let Some(i) = head
                .tasks
                .iter()
                .position(|t| t.state == TaskState::Pending && t.not_before <= now)
            else {
                break;
            };
            let assign = ToWorker::Assign {
                task: i,
                shard_lo: head.tasks[i].lo,
                shard_hi: head.tasks[i].hi,
            };
            if head.send(seat, &assign) {
                head.tasks[i].state = TaskState::Running;
                seat.running = Some((i, now));
                if head.tasks[i].retries > 0 {
                    head.stats.task_retries += 1;
                    cm.task_retries.inc();
                }
                ring.instant(
                    "assign",
                    "cluster",
                    rec.now_us(),
                    &[
                        Arg::U("worker", w as u64),
                        Arg::U("task", i as u64),
                        Arg::U("shard_lo", head.tasks[i].lo as u64),
                        Arg::U("shard_hi", head.tasks[i].hi as u64),
                        Arg::U("retry", u64::from(head.tasks[i].retries)),
                    ],
                );
            } else {
                head.lose(w, seat, "assign write failed");
            }
        }
        // Drain events (or wait one tick).
        match rx.recv_timeout(tick) {
            Ok((w, event)) => {
                // Trace frames are observability side traffic: collected
                // even from seats already marked dead (a chaos-killed
                // worker ships its ring right before exiting), and kept
                // out of the fabric counters so `ClusterStats` stays
                // identical between trace-on and trace-off runs.
                let event = match event {
                    Event::Msg(FromWorker::Trace { worker, snapshot }) => {
                        worker_traces.push((worker, snapshot));
                        continue;
                    }
                    other => other,
                };
                if seats[w].alive {
                    match event {
                        Event::Msg(msg) => {
                            head.stats.frames_received += 1;
                            cm.frames_received.inc();
                            seats[w].last_seen = Instant::now();
                            if let FromWorker::Done {
                                task,
                                partial,
                                payload,
                                ..
                            } = msg
                            {
                                if task >= head.tasks.len() {
                                    head.stats.corrupt_frames += 1;
                                    cm.corrupt_frames.inc();
                                    head.lose(w, &mut seats[w], "task id out of range");
                                    continue;
                                }
                                seats[w].running = None;
                                if outputs[task].is_none() {
                                    outputs[task] = Some(TaskOutput {
                                        task,
                                        shard_lo: head.tasks[task].lo,
                                        shard_hi: head.tasks[task].hi,
                                        partial,
                                        payload,
                                    });
                                    head.tasks[task].state = TaskState::Done;
                                    remaining -= 1;
                                    head.stats.tasks_completed += 1;
                                    cm.tasks_completed.inc();
                                    ring.instant(
                                        "task_done",
                                        "cluster",
                                        rec.now_us(),
                                        &[Arg::U("worker", w as u64), Arg::U("task", task as u64)],
                                    );
                                }
                            }
                        }
                        Event::Corrupt(detail) => {
                            head.stats.frames_received += 1;
                            head.stats.corrupt_frames += 1;
                            cm.frames_received.inc();
                            cm.corrupt_frames.inc();
                            ring.instant(
                                "corrupt_frame",
                                "cluster",
                                rec.now_us(),
                                &[Arg::U("worker", w as u64)],
                            );
                            head.lose(w, &mut seats[w], &format!("corrupt frame: {detail}"));
                        }
                        Event::Eof => {
                            head.lose(w, &mut seats[w], "pipe closed (crash)");
                        }
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // Every reader exited and every event was drained; any
                // seat still marked alive is unreachable.
                for (w, seat) in seats.iter_mut().enumerate() {
                    head.lose(w, seat, "event channel drained");
                }
            }
        }
        // Deadlines: a running task past its deadline means a hung
        // worker (heartbeats notwithstanding); an idle worker silent
        // past the liveness window is dead.
        let now = Instant::now();
        for (w, seat) in seats.iter_mut().enumerate() {
            if !seat.alive {
                continue;
            }
            if let Some((t, at)) = seat.running {
                if now.duration_since(at) > Duration::from_millis(config.task_timeout_ms) {
                    head.stats.task_timeouts += 1;
                    cm.task_timeouts.inc();
                    ring.instant(
                        "task_timeout",
                        "cluster",
                        rec.now_us(),
                        &[Arg::U("worker", w as u64), Arg::U("task", t as u64)],
                    );
                    head.lose(w, seat, &format!("task {t} deadline"));
                }
            } else if now.duration_since(seat.last_seen) > LIVENESS_TIMEOUT {
                head.stats.heartbeat_timeouts += 1;
                cm.heartbeat_timeouts.inc();
                ring.instant(
                    "heartbeat_timeout",
                    "cluster",
                    rec.now_us(),
                    &[Arg::U("worker", w as u64)],
                );
                head.lose(w, seat, "heartbeat silence");
            }
        }
    }

    // Clean shutdown: command, close the pipe, reap.
    for seat in seats.iter_mut() {
        if seat.alive {
            let _ = head.send(seat, &ToWorker::Shutdown);
            cm.workers_live.sub(1);
        }
    }
    for mut seat in seats {
        drop(seat.stdin);
        let _ = seat.child.wait();
    }
    for reader in readers {
        let _ = reader.join();
    }
    // Cleanly shut-down workers ship their rings in response to
    // `Shutdown` — after the event loop stopped listening. Every reader
    // has exited, so the channel holds whatever arrived last.
    for (_, event) in rx.try_iter() {
        if let Event::Msg(FromWorker::Trace { worker, snapshot }) = event {
            worker_traces.push((worker, snapshot));
        }
    }
    worker_traces.sort_by_key(|(w, _)| *w);

    head.stats.wall_us = started.elapsed().as_micros() as u64;
    finish_trace(&head.stats);
    Ok(ClusterOutcome {
        outputs: outputs
            .into_iter()
            .map(|o| o.expect("every task completed or fell back locally"))
            .collect(),
        stats: head.stats,
        traces: worker_traces.into_iter().map(|(_, s)| s).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use relcnn_obs::trace::export_chrome;
    use std::sync::Mutex;

    fn tiny_job() -> JobSpec {
        JobSpec {
            workload: "test".into(),
            trials: 8,
            seed: 7,
            shards: 4,
            chunk: 0,
            threads: 1,
        }
    }

    /// The no-fork topology exercises every hook without spawning
    /// processes (the test binary's `main` is not worker-aware): the
    /// registry must be live *during* the run — proven by scraping it
    /// over TCP from inside the task function — and the head's flight
    /// recorder must narrate a validator-clean timeline without changing
    /// the outputs.
    #[test]
    fn hooked_local_run_scrapes_live_and_traces() {
        let registry = Registry::new();
        let recorder = TraceRecorder::new("cluster-head");
        let scrape = relcnn_obs::ScrapeServer::bind("127.0.0.1:0", registry.clone()).expect("bind");
        let scraped: Mutex<Option<String>> = Mutex::new(None);

        let config = ClusterConfig::new(0);
        let job = tiny_job();
        let task_fn = |job: &JobSpec, lo: usize, hi: usize| {
            let mut page = scraped.lock().expect("scrape cell");
            if page.is_none() {
                let (status, body) =
                    relcnn_obs::scrape_once(scrape.addr(), "/metrics").expect("live scrape");
                assert!(status.contains("200"), "{status}");
                *page = Some(body);
            }
            (
                format!("{{\"trials\":{}}}", job.trials),
                format!("{lo}..{hi}\n"),
            )
        };
        let hooks = ClusterHooks::none()
            .with_registry(&registry)
            .with_trace(&recorder);
        let outcome = run_cluster(&config, &job, task_fn, &hooks).expect("local run");
        scrape.shutdown();

        assert_eq!(outcome.outputs.len(), 2);
        assert_eq!(outcome.outputs[1].payload, "2..4\n");
        assert_eq!(outcome.stats.local_fallbacks, 2);
        assert!(outcome.traces.is_empty(), "no workers, no shipped rings");
        let page = scraped.lock().expect("scrape cell");
        let page = page.as_deref().expect("task scraped the live endpoint");
        assert!(
            page.contains("relcnn_cluster_local_fallbacks_total"),
            "{page}"
        );

        let chrome = export_chrome(&[recorder.drain()]);
        let parsed = relcnn_obs::trace::validate(&chrome).expect("validator-clean export");
        assert_eq!(parsed.count('B', "cluster_run"), 1);
        assert_eq!(parsed.count('B', "local_fallback"), 2);
        assert_eq!(parsed.count('i', "degraded_completion"), 0);
    }

    /// Bare runs keep tracing fully off: the outcome carries no
    /// snapshots and an off recorder records nothing.
    #[test]
    fn unhooked_local_run_records_nothing() {
        let config = ClusterConfig::new(0);
        let outcome = run_cluster(
            &config,
            &tiny_job(),
            |_, lo, hi| (String::from("{}"), format!("{lo}..{hi}\n")),
            &ClusterHooks::none(),
        )
        .expect("local run");
        assert_eq!(outcome.outputs.len(), 2);
        assert!(outcome.traces.is_empty());
        assert!(!outcome.stats.degraded);
    }
}
