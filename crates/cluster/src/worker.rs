//! Worker-process side of the fabric.
//!
//! A worker is the *same binary* as the head, re-invoked with
//! [`WORKER_ENV`] set to its index: the binary's `main` calls
//! [`run_worker_if_spawned`] before anything else (argument parsing
//! included), so a worker process never falls through into head code.
//! Frames arrive on stdin and leave on stdout; stderr stays inherited
//! for diagnostics.
//!
//! The first frame must be `Setup` (job, chaos plan, tracing switch).
//! After `Hello`, the worker loops `Assign` → compute → `Done` until
//! `Shutdown` or a clean pipe close. A heartbeat thread beats through
//! the same mutex-guarded stdout for the whole lifetime — including
//! while a task computes, which is why the head can tell a *slow* worker
//! (beating, within its task deadline) from a *hung* one (beating past
//! it) from a *dead* one (EOF).

use crate::frame::{encode_frame, read_frame, write_frame, FrameError};
use crate::proto::{decode, encode, FromWorker, JobSpec, ToWorker};
use relcnn_obs::trace::{Arg, TraceRecorder};
use std::io::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Environment variable marking a process as a cluster worker; the value
/// is the worker's index.
pub const WORKER_ENV: &str = "RELCNN_CLUSTER_WORKER";

/// Heartbeat period every worker holds; the head's liveness deadline is
/// a multiple of it.
pub(crate) const HEARTBEAT_MS: u64 = 50;

/// Exit code of a chaos-plan kill (distinguishable from a real crash in
/// worker stderr traces).
pub const CHAOS_KILL_EXIT: i32 = 17;

/// Exit code after a chaos-plan corrupt frame was sent.
pub const CHAOS_CORRUPT_EXIT: i32 = 18;

/// If [`WORKER_ENV`] is set, runs the worker protocol loop with
/// `task_fn` computing each assigned shard window, then exits the
/// process — the call never returns in a worker. In a head (or plain
/// CLI) process it returns immediately.
///
/// `task_fn(job, shard_lo, shard_hi)` returns the task's
/// `(partial aggregate JSON, artefact payload)` pair; it must be a pure
/// function of its arguments for the cluster's byte-identity guarantee
/// to hold.
pub fn run_worker_if_spawned<F>(task_fn: F)
where
    F: Fn(&JobSpec, usize, usize) -> (String, String),
{
    let Ok(value) = std::env::var(WORKER_ENV) else {
        return;
    };
    let me: usize = value
        .parse()
        .unwrap_or_else(|_| panic!("{WORKER_ENV} must hold a worker index, got {value:?}"));
    worker_loop(me, task_fn);
    std::process::exit(0);
}

fn worker_loop<F>(me: usize, task_fn: F)
where
    F: Fn(&JobSpec, usize, usize) -> (String, String),
{
    let stdin = std::io::stdin();
    let mut input = stdin.lock();
    let output = Arc::new(Mutex::new(std::io::stdout()));

    let first = read_frame(&mut input).unwrap_or_else(|e| panic!("worker {me}: setup frame: {e}"));
    let setup: ToWorker =
        decode(&first).unwrap_or_else(|e| panic!("worker {me}: setup decode: {e}"));
    let ToWorker::Setup {
        worker,
        job,
        chaos,
        trace,
    } = setup
    else {
        panic!("worker {me}: first frame must be Setup, got {setup:?}");
    };
    assert_eq!(worker, me, "setup frame addressed to the wrong worker");

    // Flight recorder: a traced worker records its task timeline and
    // ships the drained ring home as a `Trace` frame — on clean
    // shutdown, and best-effort right before a chaos kill/corrupt exit,
    // so even a murdered worker leaves a pid track in the merged view.
    let rec = if trace {
        TraceRecorder::new(format!("worker-{me}"))
    } else {
        TraceRecorder::off()
    };
    let ring = rec.ring("tasks");

    {
        let output = Arc::clone(&output);
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_millis(HEARTBEAT_MS));
            let mut out = output.lock().expect("worker stdout poisoned");
            if write_frame(&mut *out, &encode(&FromWorker::Heartbeat { worker: me })).is_err() {
                return; // head is gone; the main loop will see the close
            }
        });
    }

    {
        let mut out = output.lock().expect("worker stdout poisoned");
        if write_frame(&mut *out, &encode(&FromWorker::Hello { worker: me })).is_err() {
            std::process::exit(0);
        }
    }

    let mut completed = 0u64;
    loop {
        let bytes = match read_frame(&mut input) {
            Ok(bytes) => bytes,
            Err(FrameError::Closed) => break,
            Err(e) => panic!("worker {me}: command stream: {e}"),
        };
        match decode::<ToWorker>(&bytes) {
            Ok(ToWorker::Assign {
                task,
                shard_lo,
                shard_hi,
            }) => {
                let task_begin = rec.now_us();
                let (partial, payload) = task_fn(&job, shard_lo, shard_hi);
                ring.span(
                    "task",
                    "cluster",
                    task_begin,
                    rec.now_us(),
                    &[
                        Arg::U("task", task as u64),
                        Arg::U("shard_lo", shard_lo as u64),
                        Arg::U("shard_hi", shard_hi as u64),
                    ],
                );
                // Chaos triggers sit between compute and send: the work
                // is genuinely done (and paid for) when the fault fires,
                // which is what makes the requeue path interesting.
                if chaos.kill_worker == Some(me) && completed == chaos.kill_after_tasks {
                    eprintln!("[worker {me}] chaos kill before sending task {task}");
                    ring.instant(
                        "chaos_kill",
                        "cluster",
                        rec.now_us(),
                        &[Arg::U("task", task as u64)],
                    );
                    ship_trace(&output, me, &rec);
                    std::process::exit(CHAOS_KILL_EXIT);
                }
                if chaos.hang_worker == Some(me) && completed == chaos.hang_result {
                    eprintln!("[worker {me}] chaos hang withholding task {task}");
                    ring.instant(
                        "chaos_hang",
                        "cluster",
                        rec.now_us(),
                        &[Arg::U("task", task as u64)],
                    );
                    ship_trace(&output, me, &rec);
                    // Heartbeats continue; only the per-task deadline
                    // can end this.
                    loop {
                        std::thread::sleep(Duration::from_secs(3600));
                    }
                }
                let msg = encode(&FromWorker::Done {
                    worker: me,
                    task,
                    partial,
                    payload,
                });
                let corrupting =
                    chaos.corrupt_worker == Some(me) && completed == chaos.corrupt_result;
                if corrupting {
                    // The trace must leave *before* the corrupted frame:
                    // the head stops reading this pipe at the checksum
                    // failure.
                    ring.instant(
                        "chaos_corrupt",
                        "cluster",
                        rec.now_us(),
                        &[Arg::U("task", task as u64)],
                    );
                    ship_trace(&output, me, &rec);
                }
                let mut out = output.lock().expect("worker stdout poisoned");
                if corrupting {
                    eprintln!("[worker {me}] chaos corrupting result frame of task {task}");
                    let mut frame = encode_frame(&msg);
                    // Flip one payload bit *after* the checksum was
                    // computed — the codec must reject the frame.
                    let last = frame.len() - 1;
                    frame[last] ^= 0x01;
                    let _ = out.write_all(&frame);
                    let _ = out.flush();
                    std::process::exit(CHAOS_CORRUPT_EXIT);
                }
                if write_frame(&mut *out, &msg).is_err() {
                    std::process::exit(0);
                }
                completed += 1;
            }
            Ok(ToWorker::Shutdown) => break,
            Ok(other) => panic!("worker {me}: unexpected command {other:?}"),
            Err(e) => panic!("worker {me}: command decode: {e}"),
        }
    }
    ship_trace(&output, me, &rec);
}

/// Drains the worker's recorder and writes it home as a `Trace` frame
/// (no-op when tracing is off; send errors are ignored — the head may
/// already be gone).
fn ship_trace(output: &Mutex<std::io::Stdout>, me: usize, rec: &TraceRecorder) {
    if !rec.is_on() {
        return;
    }
    let msg = encode(&FromWorker::Trace {
        worker: me,
        snapshot: rec.drain(),
    });
    let mut out = output.lock().expect("worker stdout poisoned");
    let _ = write_frame(&mut *out, &msg);
}
