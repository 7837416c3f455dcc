//! Work-stealing chunk scheduler.
//!
//! The engine cuts every shard into fixed-size trial *chunks* and deals
//! them across per-worker deques in `(shard, chunk)` order. A worker
//! drains its own deque from the front; when it runs dry it scans the
//! other workers round-robin and steals the *back* half of the first
//! non-empty victim deque. Because every chunk derives its RNG words from
//! an absolute offset into its shard's ChaCha8 stream (see
//! [`chunk_rng`](crate::engine::chunk_rng)), *which* worker executes a
//! chunk — and in what order — has no effect on any trial's inputs; the
//! aggregator re-establishes `(shard, chunk)` order before the sink sees
//! a single result.
//!
//! The implementation is deliberately lock-based (`Mutex<VecDeque>`): the
//! runtime forbids `unsafe` and chunks are coarse (hundreds of trials per
//! lock acquisition). A steal holds the thief's and victim's locks
//! *together*, always acquired in global index order so concurrent steals
//! cannot deadlock — and because the transfer is atomic, a chunk is in
//! exactly one deque or being executed at every instant. That is what
//! makes worker retirement safe: a worker that scans every deque and
//! finds them all empty knows the remaining chunks are already being
//! executed and can exit without stranding work.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Duration;

/// A contiguous slice of one shard's trials: the unit of scheduling and
/// of stealing. Identified purely by its trial range — the aggregator's
/// watermark runs on `(shard, shard_offset)`, so any chunk size partitions
/// a shard without renumbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Chunk {
    /// Shard this chunk belongs to.
    pub shard: usize,
    /// Global index of the chunk's first trial.
    pub start: u64,
    /// Offset of the chunk's first trial within the shard.
    pub shard_offset: u64,
    /// Number of trials in the chunk.
    pub len: u64,
}

/// How a worker obtained a chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Claim {
    /// Popped from the worker's own deque.
    Local(Chunk),
    /// First of `taken` chunks stolen from `victim`'s deque (the
    /// remaining `taken - 1` now sit in the thief's own deque).
    Stolen {
        /// The chunk to execute now.
        chunk: Chunk,
        /// Deque the chunks were taken from.
        victim: usize,
        /// How many chunks the steal transferred in total.
        taken: usize,
    },
}

impl Claim {
    /// The chunk to execute.
    pub fn chunk(&self) -> Chunk {
        match *self {
            Claim::Local(c) => c,
            Claim::Stolen { chunk, .. } => chunk,
        }
    }
}

/// Per-worker deques with round-robin half-stealing. The chunk set is
/// fixed at [`deal`](StealQueue::deal): chunks only ever move between
/// deques (under both locks) or leave one to be executed, so the deques
/// hold no state beyond the chunks themselves.
#[derive(Debug)]
pub(crate) struct StealQueue {
    queues: Vec<Mutex<VecDeque<Chunk>>>,
}

impl StealQueue {
    /// Deals `chunks` (already in `(shard, chunk)` order) into `workers`
    /// deques as balanced contiguous runs, preserving the PR 1 property
    /// that a worker's *initial* assignment is a contiguous block of the
    /// trial space.
    pub fn deal(chunks: Vec<Chunk>, workers: usize) -> Self {
        let workers = workers.max(1);
        let mut queues: Vec<VecDeque<Chunk>> = (0..workers).map(|_| VecDeque::new()).collect();
        let total = chunks.len();
        let base = total / workers;
        let rem = total % workers;
        let mut it = chunks.into_iter();
        for (w, queue) in queues.iter_mut().enumerate() {
            let take = base + usize::from(w < rem);
            queue.extend(it.by_ref().take(take));
        }
        StealQueue {
            queues: queues.into_iter().map(Mutex::new).collect(),
        }
    }

    /// Claims the next chunk for `worker`: its own deque first, then a
    /// steal. `None` means every deque was empty at the moment it was
    /// scanned; steals move chunks between deques atomically (both locks
    /// held), so an all-empty scan proves every remaining chunk is being
    /// executed right now and the worker can retire.
    pub fn claim(&self, worker: usize) -> Option<Claim> {
        match self.pop_local(worker) {
            Some(chunk) => Some(Claim::Local(chunk)),
            None => self.steal(worker),
        }
    }

    fn pop_local(&self, worker: usize) -> Option<Chunk> {
        self.queues[worker]
            .lock()
            .expect("scheduler deque poisoned")
            .pop_front()
    }

    /// Steals the back half (`ceil(len / 2)`) of the first non-empty
    /// victim deque, scanning round-robin from `worker + 1`. The first
    /// stolen chunk is returned for immediate execution; the rest land in
    /// `worker`'s own deque. Both locks are held for the transfer —
    /// acquired in global index order so two concurrent steals cannot
    /// deadlock — which keeps every chunk in exactly one deque (or in
    /// execution) at all times; a concurrent scanner can therefore never
    /// observe queued work as missing and retire early.
    fn steal(&self, worker: usize) -> Option<Claim> {
        let n = self.queues.len();
        for step in 1..n {
            let victim = (worker + step) % n;
            let lo = self.queues[worker.min(victim)]
                .lock()
                .expect("scheduler deque poisoned");
            let hi = self.queues[worker.max(victim)]
                .lock()
                .expect("scheduler deque poisoned");
            let (mut own, mut dq) = if worker < victim { (lo, hi) } else { (hi, lo) };
            let len = dq.len();
            if len == 0 {
                continue; // empty victim: scan on
            }
            let take = len.div_ceil(2);
            let mut loot = dq.split_off(len - take);
            let taken = loot.len();
            let first = loot.pop_front().expect("stole a non-empty batch");
            debug_assert!(own.is_empty(), "steal only runs on a dry local deque");
            own.extend(loot);
            return Some(Claim::Stolen {
                chunk: first,
                victim,
                taken,
            });
        }
        None
    }
}

/// Per-worker scheduling counters, reported through
/// [`RunStats`](crate::RunStats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerStats {
    /// Worker index in `0..workers`.
    pub worker: usize,
    /// Chunks this worker executed (local and stolen).
    pub chunks_run: u64,
    /// Successful steal operations this worker performed.
    pub steals: u64,
    /// Chunks this worker transferred from victims' deques.
    pub chunks_stolen: u64,
    /// Time spent executing trials.
    pub busy: Duration,
    /// Lifetime of the worker minus `busy`: claim/steal scans and
    /// result-channel sends.
    pub idle: Duration,
    /// Time spent blocked sending result batches on the bounded
    /// aggregator channel (a subset of `idle`): the direct measure of
    /// aggregator backpressure.
    pub send_block: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(shard: usize, chunk_ix: usize) -> Chunk {
        Chunk {
            shard,
            start: (shard * 100 + chunk_ix * 10) as u64,
            shard_offset: (chunk_ix * 10) as u64,
            len: 10,
        }
    }

    fn ladder(n: usize) -> Vec<Chunk> {
        (0..n).map(|i| chunk(i / 4, i % 4)).collect()
    }

    #[test]
    fn deal_is_contiguous_and_balanced() {
        let q = StealQueue::deal(ladder(10), 4);
        let sizes: Vec<usize> = q.queues.iter().map(|m| m.lock().unwrap().len()).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
        // Worker 0 holds the first three chunks, in order.
        let own: Vec<Chunk> = q.queues[0].lock().unwrap().iter().copied().collect();
        assert_eq!(own, ladder(10)[..3].to_vec());
    }

    #[test]
    fn local_pops_drain_in_order_then_steal() {
        let q = StealQueue::deal(ladder(4), 2);
        // Worker 0 owns chunks 0,1; worker 1 owns 2,3.
        assert_eq!(q.claim(0), Some(Claim::Local(ladder(4)[0])));
        assert_eq!(q.claim(0), Some(Claim::Local(ladder(4)[1])));
        // Dry: steal from worker 1's back half (1 of 2 chunks).
        match q.claim(0) {
            Some(Claim::Stolen {
                chunk,
                victim,
                taken,
            }) => {
                assert_eq!(victim, 1);
                assert_eq!(taken, 1);
                assert_eq!(chunk, ladder(4)[3]);
            }
            other => panic!("expected a steal, got {other:?}"),
        }
        // Victim keeps its front chunk.
        assert_eq!(q.claim(1), Some(Claim::Local(ladder(4)[2])));
        assert_eq!(q.claim(1), None);
        assert_eq!(q.claim(0), None);
    }

    #[test]
    fn steal_takes_ceil_half_from_the_back() {
        let q = StealQueue::deal(ladder(5), 2);
        // Worker 0: chunks 0,1,2; worker 1: chunks 3,4.
        match q.claim(1) {
            Some(Claim::Local(_)) => {}
            other => panic!("worker 1 should pop locally first, got {other:?}"),
        }
        q.claim(1); // drain worker 1
        match q.claim(1) {
            Some(Claim::Stolen { chunk, taken, .. }) => {
                // ceil(3/2) = 2 chunks from the back: chunk index 1 first.
                assert_eq!(taken, 2);
                assert_eq!(chunk, ladder(5)[1]);
            }
            other => panic!("expected a steal, got {other:?}"),
        }
        // The second stolen chunk sits in worker 1's own deque now.
        assert_eq!(q.claim(1), Some(Claim::Local(ladder(5)[2])));
        // Victim retains only its front chunk.
        assert_eq!(q.claim(0), Some(Claim::Local(ladder(5)[0])));
        assert_eq!(q.claim(0), None);
    }

    #[test]
    fn empty_victim_deques_are_skipped() {
        let q = StealQueue::deal(ladder(1), 4);
        // Only worker 0 has work; workers 2 and 3 scan past worker 1's
        // empty deque and steal from worker 0 (or find nothing).
        match q.claim(2) {
            Some(Claim::Stolen { victim, taken, .. }) => {
                assert_eq!(victim, 0);
                assert_eq!(taken, 1);
            }
            other => panic!("expected a steal from worker 0, got {other:?}"),
        }
        assert_eq!(q.claim(3), None, "all deques empty");
        assert_eq!(q.claim(0), None);
    }

    #[test]
    fn all_chunks_claimed_exactly_once_under_contention() {
        let total = 256;
        let q = StealQueue::deal(ladder(total), 8);
        let claimed = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for w in 0..8 {
                let q = &q;
                let claimed = &claimed;
                scope.spawn(move || {
                    while let Some(claim) = q.claim(w) {
                        claimed.lock().unwrap().push(claim.chunk());
                    }
                });
            }
        });
        let mut claimed = claimed.into_inner().unwrap();
        claimed.sort_by_key(|c| c.start);
        let mut expected = ladder(total);
        expected.sort_by_key(|c| c.start);
        assert_eq!(claimed, expected);
    }
}
