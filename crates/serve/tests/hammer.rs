//! Race-hunt hammer for the admission queue.
//!
//! The PR 3 queued-counter underflow was found by stress-looping the
//! determinism binary at `--test-threads 8`; this test applies the same
//! methodology to the serving layer's shared state. Deadline expiry
//! races batch dispatch races admission from multiple threads — across
//! all three priority lanes, with the AIMD admission cap twitching live
//! underneath — with the conservation invariant (`offered == shed +
//! expired + dispatched + queued`) asserted **per class and in
//! aggregate** inside every queue operation: a lost or double-counted
//! request trips it immediately.
//!
//! Reproduce the hunt with:
//!
//! ```text
//! for i in $(seq 50); do
//!   cargo test -p relcnn-serve --test hammer -- --test-threads 8 || break
//! done
//! ```

use relcnn_serve::{AdmissionQueue, Request, RequestClass};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn req(id: u64, arrival: u64, deadline: u64) -> Request {
    classed(id, arrival, deadline, RequestClass::Interactive)
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

/// Deadline expiry racing batch dispatch racing admission, across
/// producer/batcher/reaper threads sharing a monotonic virtual clock.
/// The final conservation check proves no request was lost or counted
/// twice, whatever interleaving the scheduler produced.
#[test]
fn expiry_races_dispatch_without_losing_requests() {
    const PRODUCERS: usize = 3;
    const CONSUMERS: usize = 3;
    const PER_PRODUCER: u64 = 4_000;

    let queue = Arc::new(AdmissionQueue::new(32));
    let clock = Arc::new(AtomicU64::new(0));

    let mut taken_total = 0u64;
    let mut expired_total = 0u64;
    std::thread::scope(|scope| {
        let mut consumers = Vec::new();
        for c in 0..CONSUMERS {
            let queue = Arc::clone(&queue);
            let clock = Arc::clone(&clock);
            consumers.push(scope.spawn(move || {
                let mut taken = 0u64;
                let mut expired = 0u64;
                // Drain until the producers are done AND the queue is
                // empty; alternate expiry sweeps (the "batch boundary")
                // with dispatches so both paths contend.
                loop {
                    let now = clock.fetch_add(3, Ordering::Relaxed);
                    expired += queue.expire(now).len() as u64;
                    // A producer may enqueue an already-dead request
                    // between our sweep and this take — that is the
                    // "expiry racing dispatch" window itself, and it is
                    // *allowed* to hand a stale request to a batch (the
                    // real batcher serves it late rather than aborting
                    // mid-batch); what must never happen is a request
                    // being lost or double-counted, which the
                    // conservation invariant checks on every operation.
                    let batch = queue.take_batch(1 + c % 4);
                    taken += batch.len() as u64;
                    let c = queue.counters();
                    if c.offered == (PRODUCERS as u64) * PER_PRODUCER && queue.is_empty() {
                        break;
                    }
                    if batch.is_empty() {
                        std::thread::yield_now();
                    }
                }
                (taken, expired)
            }));
        }
        for p in 0..PRODUCERS {
            let queue = Arc::clone(&queue);
            let clock = Arc::clone(&clock);
            scope.spawn(move || {
                for i in 0..PER_PRODUCER {
                    let id = (p as u64) * PER_PRODUCER + i;
                    let now = clock.fetch_add(1, Ordering::Relaxed);
                    // A mix of already-dead, short-lived and immortal
                    // requests keeps every code path hot.
                    let deadline = match id % 3 {
                        0 => now, // dead on arrival: next sweep reaps it
                        1 => now + 7,
                        _ => u64::MAX,
                    };
                    queue.offer(req(id, now, deadline));
                    if id.is_multiple_of(64) {
                        std::thread::yield_now();
                    }
                }
            });
        }
        for handle in consumers {
            let (taken, expired) = handle.join().expect("consumer panicked");
            taken_total += taken;
            expired_total += expired;
        }
    });

    let c = queue.counters();
    assert_eq!(c.offered, (PRODUCERS as u64) * PER_PRODUCER);
    assert_eq!(
        c.offered,
        c.shed + c.expired + c.dispatched,
        "conservation broke under contention: {c:?}"
    );
    assert_eq!(c.dispatched, taken_total);
    assert_eq!(c.expired, expired_total);
    assert!(queue.is_empty());
    // The schedule must actually have exercised all three exits.
    assert!(c.dispatched > 0, "nothing dispatched: {c:?}");
    assert!(c.expired > 0, "nothing expired: {c:?}");
}

/// Same race with shedding forced (tiny capacity): admission pressure
/// contends with the dispatch/expiry side while the queue is pinned at
/// capacity.
#[test]
fn shedding_stays_conserved_at_capacity() {
    const TOTAL: u64 = 20_000;
    let queue = Arc::new(AdmissionQueue::new(2));
    let clock = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        let q = Arc::clone(&queue);
        let consumer = {
            let clock = Arc::clone(&clock);
            scope.spawn(move || loop {
                let now = clock.load(Ordering::Relaxed);
                q.expire(now);
                q.take_batch(2);
                let c = q.counters();
                if c.offered == TOTAL && q.is_empty() {
                    break;
                }
            })
        };
        let q = Arc::clone(&queue);
        scope.spawn(move || {
            for id in 0..TOTAL {
                let now = clock.fetch_add(1, Ordering::Relaxed);
                q.offer(req(id, now, if id % 2 == 0 { now + 2 } else { u64::MAX }));
            }
        });
        consumer.join().expect("consumer panicked");
    });

    let c = queue.counters();
    assert_eq!(c.offered, TOTAL);
    assert_eq!(c.offered, c.shed + c.expired + c.dispatched);
    assert!(
        c.shed > 0,
        "capacity 2 under a hot producer must shed: {c:?}"
    );
}

/// Three priority classes race admission against expiry, dispatch and a
/// live-twitching AIMD cap. Conservation must hold *per class* (the
/// per-class assertion inside every queue operation) and the
/// critical reservation must do its job: with bulk/interactive pressure
/// clamped to the floor, critical traffic still gets through.
#[test]
fn three_classes_race_with_a_twitching_admission_cap() {
    const PER_CLASS: u64 = 6_000;
    const CAPACITY: usize = 24;
    const RESERVE: usize = 4;

    let queue = Arc::new(AdmissionQueue::with_reserve(CAPACITY, RESERVE));
    let clock = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        // One producer per class.
        for class in RequestClass::ALL {
            let queue = Arc::clone(&queue);
            let clock = Arc::clone(&clock);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                let base = class.lane() as u64 * PER_CLASS;
                for i in 0..PER_CLASS {
                    let now = clock.fetch_add(1, Ordering::Relaxed);
                    let deadline = match i % 4 {
                        0 => now, // dead on arrival
                        1 => now + 11,
                        _ => u64::MAX,
                    };
                    queue.offer(classed(base + i, now, deadline, class));
                    if i.is_multiple_of(128) {
                        std::thread::yield_now();
                    }
                }
                done.fetch_add(1, Ordering::Release);
            });
        }
        // A controller stand-in twitching the cap between the floor and
        // fully open — including attempts below the reservation, which
        // the queue must clamp.
        {
            let queue = Arc::clone(&queue);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                let mut cap = CAPACITY;
                while done.load(Ordering::Acquire) < 3 {
                    cap = if cap <= 1 { CAPACITY } else { cap / 2 };
                    queue.set_admit_cap(cap.saturating_sub(RESERVE)); // sometimes < reserve
                    let got = queue.admit_cap();
                    assert!(
                        (RESERVE..=CAPACITY).contains(&got),
                        "cap escaped its clamp: {got}"
                    );
                    std::thread::yield_now();
                }
                queue.set_admit_cap(CAPACITY);
            });
        }
        // Two consumers: boundary sweeps + priority dispatch.
        for _ in 0..2 {
            let queue = Arc::clone(&queue);
            let clock = Arc::clone(&clock);
            scope.spawn(move || loop {
                let now = clock.fetch_add(2, Ordering::Relaxed);
                queue.expire(now);
                let batch = queue.take_batch(5);
                // Priority drain: a batch never carries a lower lane
                // before a higher one.
                for pair in batch.windows(2) {
                    assert!(
                        pair[0].class.lane() <= pair[1].class.lane(),
                        "priority inversion inside a batch: {:?}",
                        batch.iter().map(|r| r.class).collect::<Vec<_>>()
                    );
                }
                if queue.counters().offered == 3 * PER_CLASS && queue.is_empty() {
                    break;
                }
                if batch.is_empty() {
                    std::thread::yield_now();
                }
            });
        }
    });

    // Per-class and aggregate conservation, on top of the per-operation
    // assertions that ran throughout.
    let mut offered_sum = 0;
    for class in RequestClass::ALL {
        let c = queue.class_counters(class);
        assert_eq!(c.offered, PER_CLASS, "{class:?}");
        assert_eq!(
            c.offered,
            c.shed + c.expired + c.dispatched,
            "per-class conservation broke for {class:?}: {c:?}"
        );
        offered_sum += c.offered;
    }
    let total = queue.counters();
    assert_eq!(total.offered, offered_sum);
    assert_eq!(total.offered, total.shed + total.expired + total.dispatched);
    // The reservation must do its job: critical traffic dispatches even
    // while the twitcher pins the non-critical budget at zero (which can
    // legitimately shed an entire non-critical lane on a busy box).
    //
    // No shed-count comparison between lanes is asserted: critical and
    // bulk offers land at different instants against different queue
    // states, so no queue rule orders the two totals — such a comparison
    // measures the scheduler. The rule itself (critical sheds only at
    // physical capacity, bulk sheds first) is pinned single-threaded by
    // `admission::tests::critical_reservation_survives_a_bulk_flood`.
    let crit = queue.class_counters(RequestClass::Critical);
    assert!(crit.dispatched > 0, "critical starved: {crit:?}");
}
