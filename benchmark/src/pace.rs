//! Host-speed pacing: every reported time is taken at reference speed.
//!
//! The host this benchmark was written on (a 2-vCPU shared VM) switches,
//! every few tens of seconds, between two speeds 1.3× apart — for all
//! single-threaded code at once, whatever the process. Ten runs of a
//! compute-bound workload then read as two clusters, and the distance
//! between their quartiles is the host's, not the program's. So a frozen
//! reference kernel — scalar multiply-accumulate with the instruction mix of
//! a qualified operation, and none of the repository's code in it — runs
//! right before and after what is timed, and the time is scaled to the speed
//! at which the kernel takes [`NOMINAL_US`]. On the writing host that leaves
//! 4 % of the 28 % swing. A change to the repository cannot move the kernel,
//! so it moves every paced number exactly as it moves the raw one.

use crate::stats::median;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

const ITERATIONS: usize = 200_000;
/// What the kernel takes at reference speed, µs: between the writing host's
/// two speeds (490 and 650), so paced times read close to raw ones.
const NOMINAL_US: f64 = 500.0;
/// The reference is measured again once the last measurement is this old:
/// short operations share one, a long one gets its own before and after.
const FRESH: Duration = Duration::from_millis(5);
/// The reference time in use is the median of this many measurements, so one
/// disturbed kernel run does not put its noise into every time it paces.
const SMOOTHED_OVER: usize = 5;

/// Duplicated multiply-accumulate over a small buffer, compared after every
/// step: scalar loads, f32 multiplies and adds on a dependency chain,
/// compares and a never-taken branch.
fn kernel() -> f32 {
    let x: [f32; 64] = std::array::from_fn(|i| 0.5 + i as f32 / 128.0);
    let (mut acc, mut disagreements) = (0.0f32, 0u32);
    for i in 0..black_box(ITERATIONS) {
        let (a, w) = (black_box(x[i & 63]), black_box(x[(i * 7 + 3) & 63]));
        let (m1, m2) = (a * w, black_box(a) * w);
        disagreements += u32::from(m1 != m2);
        let (s1, s2) = (acc + m1, black_box(acc) + m1);
        disagreements += u32::from(s1 != s2);
        acc = if s1 > 1e6 { 0.0 } else { s1 };
    }
    acc + disagreements as f32
}

pub struct Pace {
    measured_at: Instant,
    recent_us: VecDeque<f64>,
}

impl Pace {
    pub fn new() -> Self {
        let mut pace = Pace {
            measured_at: Instant::now(),
            recent_us: VecDeque::new(),
        };
        for _ in 0..SMOOTHED_OVER {
            pace.measure();
        }
        pace
    }

    fn measure(&mut self) {
        let t0 = Instant::now();
        black_box(kernel());
        if self.recent_us.len() == SMOOTHED_OVER {
            self.recent_us.pop_front();
        }
        self.recent_us
            .push_back(t0.elapsed().as_nanos() as f64 / 1_000.0);
        self.measured_at = Instant::now();
    }

    fn reference_us(&mut self) -> f64 {
        if self.measured_at.elapsed() >= FRESH {
            self.measure();
        }
        median(self.recent_us.make_contiguous())
    }

    /// The factor that scales a time measured now to reference speed.
    pub fn factor(&mut self) -> f64 {
        NOMINAL_US / self.reference_us()
    }

    /// Runs `f` between two reference readings and returns its result with
    /// the factor that scales times measured inside it to reference speed.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.reference_us();
        let out = f();
        let after = self.reference_us();
        (out, NOMINAL_US / ((before + after) / 2.0))
    }

    /// Times `f` and returns its result with the elapsed µs at reference
    /// speed.
    pub fn timed<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let ((out, us), factor) = self.around(|| crate::setup::timed(f));
        (out, us * factor)
    }
}
