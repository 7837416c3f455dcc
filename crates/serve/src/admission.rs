//! Capacity-bounded admission with priority lanes, deadline expiry and
//! an AIMD-adjustable admission cap.
//!
//! The queue is the serving system's only shared mutable state: the
//! load-generator side [`offer`](AdmissionQueue::offer)s requests, the
//! batcher side [`take_batch`](AdmissionQueue::take_batch)es them and
//! [`expire`](AdmissionQueue::expire)s stale ones at batch boundaries.
//! Requests ride one FIFO **lane per [`RequestClass`]**; lanes drain in
//! priority order (safety-critical first). All operations run under one
//! mutex and maintain the **conservation invariant** — per class *and*
//! in aggregate —
//!
//! ```text
//! offered == shed + expired + dispatched + len()
//! ```
//!
//! asserted after every mutation, in every build, and hammered by
//! `tests/hammer.rs` racing three classes of admission against expiry,
//! dispatch and live cap changes at `--test-threads 8`.
//!
//! Two capacities govern shedding:
//!
//! * the **physical capacity** `C` — nothing is ever queued past it;
//! * the **admission cap** `a ≤ C` — the AIMD controller's live knob
//!   ([`set_admit_cap`](AdmissionQueue::set_admit_cap)). Non-critical
//!   requests are shed once the ordinary slots (`a` minus the critical
//!   reservation) fill; safety-critical requests ignore the cap and are
//!   shed only at physical capacity, so the reserved slots survive
//!   exactly the overload that sheds everything else.
//!
//! The deterministic virtual-time replay drives the same queue
//! single-threaded; the wall-clock front-end drives it from real
//! threads, with [`wait_for_activity`](AdmissionQueue::wait_for_activity)
//! parking the batcher between arrivals.

use crate::metrics::ServeMetrics;
use crate::request::{Request, RequestClass};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Monotonic counters of everything that ever happened to one lane (or,
/// summed, to the queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionCounters {
    /// Requests presented to [`AdmissionQueue::offer`].
    pub offered: u64,
    /// Requests rejected at admission (cap or capacity).
    pub shed: u64,
    /// Requests dropped past their deadline before dispatch.
    pub expired: u64,
    /// Requests handed to a batch.
    pub dispatched: u64,
}

impl AdmissionCounters {
    fn add(&mut self, other: &AdmissionCounters) {
        self.offered += other.offered;
        self.shed += other.shed;
        self.expired += other.expired;
        self.dispatched += other.dispatched;
    }
}

/// What the batcher needs to decide the next window close, read in one
/// lock acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueWindow {
    /// Requests queued across all lanes.
    pub len: usize,
    /// Arrival time of each lane's oldest waiter (lane order).
    pub head_arrival_us: [Option<u64>; RequestClass::COUNT],
    /// Whether the producer side has closed the queue (wall-clock
    /// front-end: the load generator finished its trace).
    pub closed: bool,
}

#[derive(Debug)]
struct Inner {
    lanes: [VecDeque<Request>; RequestClass::COUNT],
    by_class: [AdmissionCounters; RequestClass::COUNT],
    admit_cap: usize,
    closed: bool,
}

impl Inner {
    fn len(&self) -> usize {
        self.lanes.iter().map(|l| l.len()).sum()
    }

    /// The per-class conservation audit: three integer identities under
    /// the lock the caller already holds, so it runs in every build.
    fn check(&self) {
        for (lane, c) in self.by_class.iter().enumerate() {
            assert_eq!(
                c.offered,
                c.shed + c.expired + c.dispatched + self.lanes[lane].len() as u64,
                "admission-queue conservation violated for class {}: {c:?} with {} queued",
                RequestClass::from_lane(lane).label(),
                self.lanes[lane].len()
            );
        }
    }
}

/// Verdict of one [`offer`](AdmissionQueue::offer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Enqueued.
    Admitted,
    /// Rejected: admission cap (non-critical) or physical capacity hit.
    Shed,
}

/// The capacity-bounded, class-laned FIFO between load generation and
/// batching.
#[derive(Debug)]
pub struct AdmissionQueue {
    inner: Mutex<Inner>,
    activity: Condvar,
    capacity: usize,
    critical_reserve: usize,
    /// The run's live handles, updated under the queue mutex right after
    /// each mutation: relaxed atomic stores the replay's control flow
    /// never reads, so observed and unobserved replays stay
    /// byte-identical. Unregistered until [`observed`](Self::observed).
    metrics: ServeMetrics,
}

impl AdmissionQueue {
    /// An empty queue holding at most `capacity` requests (min 1), no
    /// critical reservation, cap fully open.
    pub fn new(capacity: usize) -> Self {
        AdmissionQueue::with_reserve(capacity, 0)
    }

    /// An empty queue with `critical_reserve` of its `capacity` slots
    /// reserved for the safety-critical lane (reserve is clamped into
    /// the capacity).
    pub fn with_reserve(capacity: usize, critical_reserve: usize) -> Self {
        let capacity = capacity.max(1);
        AdmissionQueue {
            inner: Mutex::new(Inner {
                lanes: Default::default(),
                by_class: Default::default(),
                admit_cap: capacity,
                closed: false,
            }),
            activity: Condvar::new(),
            capacity,
            critical_reserve: critical_reserve.min(capacity),
            metrics: ServeMetrics::default(),
        }
    }

    /// Publishes into `metrics` (a clone sharing its handles): the
    /// capacity, then depth and admission counters per class plus the
    /// live admission cap, updated on every mutation.
    pub fn observed(mut self, metrics: &ServeMetrics) -> Self {
        self.metrics = metrics.clone();
        self.metrics.queue_capacity.set(self.capacity as i64);
        self.metrics.admit_cap.set(self.admit_cap() as i64);
        self
    }

    /// The configured physical capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The safety-critical lane's reserved slots.
    pub fn critical_reserve(&self) -> usize {
        self.critical_reserve
    }

    /// The live admission cap (≤ capacity).
    pub fn admit_cap(&self) -> usize {
        self.inner
            .lock()
            .expect("admission queue poisoned")
            .admit_cap
    }

    /// Applies a controller decision: the cap is clamped into
    /// `[max(critical_reserve, 1), capacity]`, so AIMD backoff can never
    /// clamp away the safety-critical reservation.
    pub fn set_admit_cap(&self, cap: usize) {
        let cap = cap.clamp(self.critical_reserve.max(1), self.capacity);
        let mut inner = self.inner.lock().expect("admission queue poisoned");
        inner.admit_cap = cap;
        self.metrics.admit_cap.set(cap as i64);
    }

    /// Offers a request: sheds it when its lane's budget is full,
    /// enqueues it otherwise. Shedding is *admission-time only* — a
    /// request admitted before a burst is never displaced by one
    /// arriving after. Safety-critical requests ignore the AIMD cap
    /// (they shed only at physical capacity); other classes shed once
    /// the unreserved portion of the cap fills.
    pub fn offer(&self, req: Request) -> Admission {
        let mut inner = self.inner.lock().expect("admission queue poisoned");
        let lane = req.class.lane();
        inner.by_class[lane].offered += 1;
        let total = inner.len();
        let admitted = if req.class == RequestClass::Critical {
            total < self.capacity
        } else {
            let non_critical = total - inner.lanes[RequestClass::Critical.lane()].len();
            total < self.capacity
                && non_critical < inner.admit_cap.saturating_sub(self.critical_reserve)
        };
        let verdict = if admitted {
            inner.lanes[lane].push_back(req);
            Admission::Admitted
        } else {
            inner.by_class[lane].shed += 1;
            Admission::Shed
        };
        inner.check();
        let m = self.metrics.class(req.class);
        m.offered.inc();
        match verdict {
            Admission::Shed => m.shed.inc(),
            Admission::Admitted => m.queue_depth.set(inner.lanes[lane].len() as i64),
        }
        drop(inner);
        if verdict == Admission::Admitted {
            self.activity.notify_all();
        }
        verdict
    }

    /// Drops every queued request whose deadline has passed at `now_us`,
    /// returning them (lane order, oldest first within a lane) so the
    /// caller can record their terminal outcome. Called at batch
    /// boundaries and immediately before dispatch.
    pub fn expire(&self, now_us: u64) -> Vec<Request> {
        let mut inner = self.inner.lock().expect("admission queue poisoned");
        let mut dead = Vec::new();
        for lane in 0..RequestClass::COUNT {
            let before = dead.len();
            // FIFO arrival order ≠ deadline order in general (deadline
            // budgets vary per request), so scan the lane, not the head.
            inner.lanes[lane].retain(|r| {
                if r.expired_at(now_us) {
                    dead.push(*r);
                    false
                } else {
                    true
                }
            });
            inner.by_class[lane].expired += (dead.len() - before) as u64;
            let m = &self.metrics.classes[lane];
            m.expired.add((dead.len() - before) as u64);
            m.queue_depth.set(inner.lanes[lane].len() as i64);
        }
        inner.check();
        dead
    }

    /// Takes up to `max` requests for one batch, draining lanes in
    /// priority order (all queued safety-critical requests before any
    /// interactive, before any bulk; FIFO within a lane). The caller is
    /// responsible for expiring first ([`expire`](AdmissionQueue::expire))
    /// — dispatching never re-checks deadlines, mirroring "no mid-batch
    /// aborts".
    pub fn take_batch(&self, max: usize) -> Vec<Request> {
        let mut inner = self.inner.lock().expect("admission queue poisoned");
        let mut batch = Vec::new();
        for lane in 0..RequestClass::COUNT {
            let take = (max - batch.len()).min(inner.lanes[lane].len());
            if take == 0 {
                continue;
            }
            batch.extend(inner.lanes[lane].drain(..take));
            inner.by_class[lane].dispatched += take as u64;
            let m = &self.metrics.classes[lane];
            m.dispatched.add(take as u64);
            m.queue_depth.set(inner.lanes[lane].len() as i64);
        }
        inner.check();
        batch
    }

    /// Requests currently queued across all lanes.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("admission queue poisoned").len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Arrival time of the oldest queued request across all lanes, if
    /// any (drives the batcher's deadline-window close).
    pub fn head_arrival_us(&self) -> Option<u64> {
        self.window()
            .head_arrival_us
            .iter()
            .flatten()
            .copied()
            .min()
    }

    /// One-lock snapshot of everything the batcher's window decision
    /// needs.
    pub fn window(&self) -> QueueWindow {
        let inner = self.inner.lock().expect("admission queue poisoned");
        let mut heads = [None; RequestClass::COUNT];
        for (lane, head) in heads.iter_mut().enumerate() {
            *head = inner.lanes[lane].front().map(|r| r.arrival_us);
        }
        QueueWindow {
            len: inner.len(),
            head_arrival_us: heads,
            closed: inner.closed,
        }
    }

    /// Marks the producer side finished (wall-clock front-end: the load
    /// generator ran out of trace) and wakes any parked batcher.
    pub fn close(&self) {
        self.inner.lock().expect("admission queue poisoned").closed = true;
        self.activity.notify_all();
    }

    /// Parks the calling thread until an admission or
    /// [`close`](AdmissionQueue::close) lands, or `timeout` passes —
    /// the wall-clock batcher's idle wait between arrivals.
    pub fn wait_for_activity(&self, timeout: Duration) {
        let inner = self.inner.lock().expect("admission queue poisoned");
        let _unused = self
            .activity
            .wait_timeout(inner, timeout)
            .expect("admission queue poisoned");
    }

    /// A snapshot of the monotonic counters, summed over classes.
    pub fn counters(&self) -> AdmissionCounters {
        let inner = self.inner.lock().expect("admission queue poisoned");
        let mut sum = AdmissionCounters::default();
        for c in &inner.by_class {
            sum.add(c);
        }
        sum
    }

    /// A snapshot of one class's monotonic counters.
    pub fn class_counters(&self, class: RequestClass) -> AdmissionCounters {
        self.inner
            .lock()
            .expect("admission queue poisoned")
            .by_class[class.lane()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, arrival: u64, deadline: u64) -> Request {
        classed(id, arrival, deadline, RequestClass::Bulk)
    }

    fn classed(id: u64, arrival: u64, deadline: u64, class: RequestClass) -> Request {
        Request {
            id,
            arrival_us: arrival,
            deadline_us: deadline,
            payload_seed: id,
            class,
        }
    }

    #[test]
    fn sheds_at_capacity_admits_below() {
        let q = AdmissionQueue::new(2);
        assert_eq!(q.offer(req(0, 0, 100)), Admission::Admitted);
        assert_eq!(q.offer(req(1, 1, 100)), Admission::Admitted);
        assert_eq!(q.offer(req(2, 2, 100)), Admission::Shed);
        assert_eq!(q.len(), 2);
        let c = q.counters();
        assert_eq!((c.offered, c.shed), (3, 1));
        // Draining makes room again.
        assert_eq!(q.take_batch(1).len(), 1);
        assert_eq!(q.offer(req(3, 3, 100)), Admission::Admitted);
    }

    #[test]
    fn expire_drops_exactly_the_stale_requests() {
        let q = AdmissionQueue::new(8);
        q.offer(req(0, 0, 50));
        q.offer(req(1, 0, 500)); // longer budget than its neighbours
        q.offer(req(2, 0, 60));
        let dead = q.expire(60);
        assert_eq!(dead.iter().map(|r| r.id).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.counters().expired, 2);
        // Deadline exactly `now` counts as expired (can't be served in
        // zero time), strictly later survives.
        assert!(q.expire(499).is_empty());
        assert_eq!(q.expire(500).len(), 1);
    }

    #[test]
    fn take_batch_is_fifo_and_bounded() {
        let q = AdmissionQueue::new(8);
        for i in 0..5 {
            q.offer(req(i, i, 1_000));
        }
        let batch = q.take_batch(3);
        assert_eq!(
            batch.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(q.take_batch(10).len(), 2);
        assert!(q.take_batch(1).is_empty());
        let c = q.counters();
        assert_eq!(c.dispatched, 5);
        assert_eq!(c.offered, c.shed + c.expired + c.dispatched);
    }

    #[test]
    fn lanes_drain_in_priority_order() {
        let q = AdmissionQueue::new(16);
        q.offer(classed(0, 0, 1_000, RequestClass::Bulk));
        q.offer(classed(1, 1, 1_000, RequestClass::Interactive));
        q.offer(classed(2, 2, 1_000, RequestClass::Critical));
        q.offer(classed(3, 3, 1_000, RequestClass::Bulk));
        q.offer(classed(4, 4, 1_000, RequestClass::Critical));
        // Critical (FIFO 2,4), then interactive (1), then bulk (0,3).
        let batch = q.take_batch(4);
        assert_eq!(
            batch.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![2, 4, 1, 0]
        );
        assert_eq!(
            q.take_batch(4).iter().map(|r| r.id).collect::<Vec<_>>(),
            [3]
        );
    }

    #[test]
    fn critical_reservation_survives_a_bulk_flood() {
        // Capacity 6, 2 reserved: bulk fills at most admit_cap - reserve
        // = 4 slots; the last two slots only critical traffic can take.
        let q = AdmissionQueue::with_reserve(6, 2);
        for i in 0..6 {
            let v = q.offer(classed(i, i, 1_000, RequestClass::Bulk));
            assert_eq!(
                v,
                if i < 4 {
                    Admission::Admitted
                } else {
                    Admission::Shed
                },
                "bulk offer {i}"
            );
        }
        assert_eq!(q.len(), 4);
        // Critical rides the reservation…
        assert_eq!(
            q.offer(classed(10, 10, 1_000, RequestClass::Critical)),
            Admission::Admitted
        );
        assert_eq!(
            q.offer(classed(11, 11, 1_000, RequestClass::Critical)),
            Admission::Admitted
        );
        // …and sheds only at physical capacity.
        assert_eq!(
            q.offer(classed(12, 12, 1_000, RequestClass::Critical)),
            Admission::Shed
        );
        assert_eq!(q.class_counters(RequestClass::Critical).shed, 1);
        assert_eq!(q.class_counters(RequestClass::Bulk).shed, 2);
    }

    #[test]
    fn admit_cap_clamps_non_critical_only_and_respects_the_floor() {
        let q = AdmissionQueue::with_reserve(8, 2);
        assert_eq!(q.admit_cap(), 8);
        q.set_admit_cap(3);
        // Non-critical budget is cap - reserve = 1.
        assert_eq!(q.offer(req(0, 0, 100)), Admission::Admitted);
        assert_eq!(q.offer(req(1, 1, 100)), Admission::Shed);
        // Critical ignores the cap entirely.
        for i in 0..7 {
            assert_eq!(
                q.offer(classed(10 + i, 2, 1_000, RequestClass::Critical)),
                Admission::Admitted,
                "critical {i} with 1 bulk queued"
            );
        }
        // Clamping below the reservation is refused: floor = reserve.
        q.set_admit_cap(0);
        assert_eq!(q.admit_cap(), 2);
        // And above capacity is clamped down.
        q.set_admit_cap(usize::MAX);
        assert_eq!(q.admit_cap(), 8);
    }

    #[test]
    fn observed_queue_publishes_counters_and_depth_live() {
        let metrics = ServeMetrics::default();
        let q = AdmissionQueue::new(2).observed(&metrics);
        q.offer(req(0, 0, 50));
        q.offer(req(1, 0, 500));
        q.offer(req(2, 0, 500)); // shed at capacity
        let bulk = metrics.class(RequestClass::Bulk);
        assert_eq!(bulk.offered.get(), 3);
        assert_eq!(bulk.shed.get(), 1);
        assert_eq!(bulk.queue_depth.get(), 2);
        q.expire(60);
        assert_eq!(bulk.expired.get(), 1);
        assert_eq!(bulk.queue_depth.get(), 1);
        q.take_batch(4);
        assert_eq!(bulk.dispatched.get(), 1);
        assert_eq!(bulk.queue_depth.get(), 0);
        q.set_admit_cap(1);
        assert_eq!(metrics.admit_cap.get(), 1);
        // Published values mirror the queue's own counters exactly.
        let c = q.class_counters(RequestClass::Bulk);
        assert_eq!(
            (c.offered, c.shed, c.expired, c.dispatched),
            (
                bulk.offered.get(),
                bulk.shed.get(),
                bulk.expired.get(),
                bulk.dispatched.get()
            )
        );
    }

    #[test]
    fn head_arrival_tracks_the_oldest_waiter_across_lanes() {
        let q = AdmissionQueue::new(4);
        assert_eq!(q.head_arrival_us(), None);
        q.offer(classed(0, 17, 1_000, RequestClass::Bulk));
        q.offer(classed(1, 23, 1_000, RequestClass::Critical));
        // Bulk head (17) is older than the critical head (23).
        assert_eq!(q.head_arrival_us(), Some(17));
        let w = q.window();
        assert_eq!(w.len, 2);
        assert_eq!(w.head_arrival_us[RequestClass::Critical.lane()], Some(23));
        assert_eq!(w.head_arrival_us[RequestClass::Bulk.lane()], Some(17));
        assert!(!w.closed);
        // Priority drain takes the critical one first; the bulk head
        // then owns the window again.
        q.take_batch(1);
        assert_eq!(q.head_arrival_us(), Some(17));
    }

    #[test]
    #[should_panic(expected = "admission-queue conservation violated for class bulk")]
    fn check_panics_when_counters_do_not_add_up() {
        let mut inner = Inner {
            lanes: Default::default(),
            by_class: Default::default(),
            admit_cap: 4,
            closed: false,
        };
        // One offer that was never shed, expired, dispatched or queued.
        inner.by_class[RequestClass::Bulk.lane()].offered = 1;
        inner.check();
    }

    #[test]
    fn close_wakes_a_parked_waiter() {
        let q = std::sync::Arc::new(AdmissionQueue::new(4));
        let waiter = {
            let q = std::sync::Arc::clone(&q);
            std::thread::spawn(move || {
                while !q.window().closed {
                    q.wait_for_activity(Duration::from_millis(50));
                }
            })
        };
        std::thread::sleep(Duration::from_millis(5));
        q.close();
        waiter.join().expect("waiter");
        assert!(q.window().closed);
    }
}
