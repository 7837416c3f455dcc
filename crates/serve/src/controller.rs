//! AIMD overload control + batch-window feedback.
//!
//! The controller closes the admission/batching trade-off loop: it
//! watches the queue at every dispatch boundary and produces two
//! decisions —
//!
//! * an **admission cap** for the [`AdmissionQueue`](crate::AdmissionQueue):
//!   multiplicatively clamped on a shed burst (shedding means arrivals
//!   outran service; keeping the queue short converts hopeless queueing
//!   delay into cheap admission-time rejections), additively recovered
//!   while no shedding is observed — classic AIMD, the online analogue
//!   of the min-max resource-allocation framing in PAPERS.md (allocate
//!   queue slack across classes so the worst per-class SLO violation
//!   shrinks). The cap never drops below the safety-critical lane's
//!   reservation;
//! * an **early-close** flag for the batcher: once the queue holds more
//!   than 75 % of the current cap, waiting out the batch
//!   window only grows latency for everyone behind it, so the next
//!   window closes as soon as the server frees (never on an empty
//!   queue — a window always carries at least one request).
//!
//! Decisions are a **pure function of the observed queue history**: the
//! controller sees only `(queued, shed_total)` pairs and integer
//! arithmetic produces the decisions, so the same observation sequence —
//! whether it came from the deterministic virtual replay or a live
//! wall-clock run — reproduces the same decision log bit for bit.
//! [`OverloadController::replay`] re-derives a log from its recorded
//! observations and is the oracle check the wall-clock tests run
//! (`tests/wall.rs`).
//!
//! Kept on measurement. `serve_bench`'s trace (480 three-class Poisson
//! requests) replayed with `.with_control()` removed — virtual-clock,
//! so the numbers reproduce exactly on any machine: critical-lane
//! goodput falls 30.2 % → 2.1 % and aggregate virtual p99 rises
//! 19 456 → 21 504 µs, while aggregate goodput rises 17.7 % → 65.6 %.
//! The controller gives up total goodput to protect the critical lane:
//! the min-max-across-classes trade, not a throughput optimisation.

/// Additive recovery: admission-cap slots regained per shed-free
/// dispatch boundary.
const ADDITIVE_STEP: u64 = 1;
/// Multiplicative clamp: on a boundary that observed sheds, the cap
/// becomes `cap * DECREASE_PERCENT / 100` (floored at the
/// safety-critical reservation).
const DECREASE_PERCENT: u64 = 50;
/// Early-close threshold: the batch window closes early while
/// `queued * 100 >= cap * CONGEST_PERCENT`.
const CONGEST_PERCENT: u64 = 75;

/// One controller decision with the observation that produced it — the
/// unit of the replay-determinism oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlRecord {
    /// Observation index (dispatch-boundary sequence number).
    pub seq: u64,
    /// Requests queued (all lanes) at the boundary.
    pub queued: u64,
    /// Sheds observed since the previous boundary.
    pub shed_delta: u64,
    /// Admission cap after this decision.
    pub cap: u64,
    /// Whether the next batch window closes early.
    pub early_close: bool,
}

impl ControlRecord {
    /// One deterministic JSON line (artefact / purity-check shape).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\":{},\"queued\":{},\"shed_delta\":{},\"cap\":{},\"early_close\":{}}}",
            self.seq, self.queued, self.shed_delta, self.cap, self.early_close
        )
    }
}

/// What the serving loop applies after each observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// New admission cap (apply via `AdmissionQueue::set_admit_cap`).
    pub cap: u64,
    /// Close the next batch window as soon as the server frees.
    pub early_close: bool,
}

/// The AIMD admission/window controller. See the module docs.
#[derive(Debug, Clone)]
pub struct OverloadController {
    /// Physical queue capacity: the cap's ceiling.
    max_cap: u64,
    /// Safety-critical reservation: the cap's floor (min 1).
    floor: u64,
    cap: u64,
    last_shed_total: u64,
    seq: u64,
    min_cap_seen: u64,
    clamps: u64,
    early_closes: u64,
    log: Vec<ControlRecord>,
}

impl OverloadController {
    /// A controller for a queue of `capacity` slots with
    /// `critical_reserve` of them reserved for the safety-critical lane.
    /// The cap starts fully open at `capacity`.
    pub fn new(capacity: usize, critical_reserve: usize) -> Self {
        let max_cap = (capacity as u64).max(1);
        let floor = (critical_reserve as u64).clamp(1, max_cap);
        OverloadController {
            max_cap,
            floor,
            cap: max_cap,
            last_shed_total: 0,
            seq: 0,
            min_cap_seen: max_cap,
            clamps: 0,
            early_closes: 0,
            log: Vec::new(),
        }
    }

    /// Feeds one dispatch-boundary observation and returns the decision.
    /// `shed_total` is the queue's monotone shed counter (the controller
    /// differences it itself, so callers never track deltas).
    pub fn observe(&mut self, queued: u64, shed_total: u64) -> Decision {
        let shed_delta = shed_total.saturating_sub(self.last_shed_total);
        self.last_shed_total = shed_total;
        if shed_delta > 0 {
            // Multiplicative clamp on the burst; never below the
            // safety-critical reservation.
            self.cap = (self.cap * DECREASE_PERCENT / 100).max(self.floor);
            self.clamps += 1;
        } else {
            // Additive recovery while shedding is quiet.
            self.cap = (self.cap + ADDITIVE_STEP).min(self.max_cap);
        }
        self.min_cap_seen = self.min_cap_seen.min(self.cap);
        // Early close needs a congested queue AND at least one waiter —
        // a window never closes below one request.
        let early_close = queued > 0 && queued * 100 >= self.cap * CONGEST_PERCENT;
        self.early_closes += u64::from(early_close);
        let record = ControlRecord {
            seq: self.seq,
            queued,
            shed_delta,
            cap: self.cap,
            early_close,
        };
        self.seq += 1;
        self.log.push(record);
        Decision {
            cap: self.cap,
            early_close,
        }
    }

    /// Current admission cap.
    pub fn cap(&self) -> u64 {
        self.cap
    }

    /// The cap floor (safety-critical reservation, min 1).
    pub fn floor(&self) -> u64 {
        self.floor
    }

    /// Lowest cap any decision produced.
    pub fn min_cap_seen(&self) -> u64 {
        self.min_cap_seen
    }

    /// Boundaries that clamped (observed sheds).
    pub fn clamps(&self) -> u64 {
        self.clamps
    }

    /// Decisions that closed the window early.
    pub fn early_closes(&self) -> u64 {
        self.early_closes
    }

    /// The full decision log, in observation order.
    pub fn log(&self) -> &[ControlRecord] {
        &self.log
    }

    /// Re-derives a decision log from the *observations* recorded in
    /// `log` through a fresh controller — the purity oracle: if the
    /// controller is a pure function of the observed queue history, the
    /// replayed log equals the original bit for bit, whichever clock
    /// produced the observations.
    pub fn replay(
        capacity: usize,
        critical_reserve: usize,
        log: &[ControlRecord],
    ) -> Vec<ControlRecord> {
        let mut fresh = OverloadController::new(capacity, critical_reserve);
        let mut shed_total = 0u64;
        for r in log {
            shed_total += r.shed_delta;
            fresh.observe(r.queued, shed_total);
        }
        fresh.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_never_closes_below_one_request() {
        let mut c = OverloadController::new(16, 0);
        // Congestion arithmetic would scream "close" at queued=0 only if
        // the guard were missing: 0 * 100 >= cap * 75 is false anyway,
        // but pin the explicit guard with a cap clamped to the floor.
        for shed in 1..50u64 {
            let d = c.observe(0, shed);
            assert!(!d.early_close, "empty queue must never close a window");
        }
        assert_eq!(c.cap(), c.floor());
        // One waiter against a still-clamped cap: now it may close.
        let d = c.observe(1, 50);
        assert_eq!(c.cap(), c.floor(), "the shed burst keeps the cap pinned");
        assert!(d.early_close, "cap {} queued 1", c.cap());
    }

    #[test]
    fn cap_never_clamps_below_the_critical_reservation() {
        let mut c = OverloadController::new(32, 6);
        assert_eq!(c.floor(), 6);
        let mut shed_total = 0;
        for _ in 0..100 {
            shed_total += 7; // a shed burst at every boundary
            c.observe(10, shed_total);
            assert!(c.cap() >= 6, "cap {} fell below the reservation", c.cap());
        }
        assert_eq!(c.cap(), 6, "sustained overload should pin the floor");
        assert_eq!(c.min_cap_seen(), 6);
        // A zero reservation still floors at one slot.
        let mut z = OverloadController::new(32, 0);
        for i in 1..200 {
            z.observe(4, i);
        }
        assert_eq!(z.cap(), 1);
    }

    #[test]
    fn recovery_is_monotone_and_additive_after_sheds_stop() {
        let mut c = OverloadController::new(40, 4);
        for i in 1..=5 {
            c.observe(30, i * 3);
        }
        let clamped = c.cap();
        assert!(clamped < 40, "five shed bursts must have clamped");
        // Shedding stops: every boundary regains exactly one slot, never
        // dips, and saturates at the physical capacity.
        let mut prev = clamped;
        let shed_total = 15;
        for step in 1..=60u64 {
            c.observe(2, shed_total);
            let now = c.cap();
            assert!(now >= prev, "recovery regressed {prev} -> {now}");
            assert_eq!(now, (clamped + step).min(40), "recovery must be additive");
            prev = now;
        }
        assert_eq!(c.cap(), 40);
        assert_eq!(c.clamps(), 5);
    }

    #[test]
    fn multiplicative_clamp_halves_on_a_burst() {
        let mut c = OverloadController::new(32, 2);
        let d = c.observe(20, 9);
        assert_eq!(d.cap, 16, "50% of 32");
        let d = c.observe(20, 12);
        assert_eq!(d.cap, 8);
        // Congested at 20 queued vs cap 8: windows close early.
        assert!(d.early_close);
    }

    #[test]
    fn decisions_are_a_pure_function_of_observed_history() {
        let mut c = OverloadController::new(24, 3);
        // An arbitrary, bursty observation schedule.
        let mut shed_total = 0;
        for i in 0u64..400 {
            if i % 7 == 0 {
                shed_total += i % 5;
            }
            c.observe((i * 13) % 30, shed_total);
        }
        let replayed = OverloadController::replay(24, 3, c.log());
        assert_eq!(replayed.len(), c.log().len());
        assert_eq!(replayed, c.log(), "controller decisions must replay");
        // And the serialized shape is stable too.
        let a: Vec<String> = c.log().iter().map(|r| r.to_json()).collect();
        let b: Vec<String> = replayed.iter().map(|r| r.to_json()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn record_json_is_line_shaped() {
        let r = ControlRecord {
            seq: 3,
            queued: 7,
            shed_delta: 2,
            cap: 12,
            early_close: true,
        };
        assert_eq!(
            r.to_json(),
            "{\"seq\":3,\"queued\":7,\"shed_delta\":2,\"cap\":12,\"early_close\":true}"
        );
    }
}
