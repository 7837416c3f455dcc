//! Seeded open-loop load generation.
//!
//! Serving traffic is *open-loop*: requests arrive on their own clock,
//! whether or not the server keeps up — which is what makes overload,
//! shedding and deadline expiry reachable states at all (a closed loop
//! self-throttles). [`LoadGen`] materialises an arrival trace as a pure
//! function of `(seed, config)`: inter-arrival gaps, class draws and
//! deadline jitter all come off one ChaCha8 stream, so a trace replays
//! bit-identically for the same seed — the determinism CI byte-diffs
//! serving artefacts across worker counts and reruns on exactly this
//! property.
//!
//! Traffic can be a **class mix**: each request draws a
//! [`RequestClass`] from configured weights, and each class carries its
//! own deadline budget (safety-critical traffic runs on far tighter
//! SLOs than bulk). A single-class mix — the default — skips the class
//! draw entirely, so single-class streams are unperturbed by the mix
//! machinery.

use crate::request::{Request, RequestClass};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Arrival process shape. All times are virtual microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Poisson process: independent exponential inter-arrival gaps with
    /// the given mean (inverse-CDF sampling off the ChaCha8 stream).
    Poisson {
        /// Mean inter-arrival gap in virtual microseconds.
        mean_gap_us: u64,
    },
    /// Bursty process: groups of `burst` requests spaced `spacing_us`
    /// apart, with an exponential gap of mean `mean_gap_us` between
    /// groups — the adversarial case for a capacity-bounded admission
    /// queue (a whole burst lands before the server drains a batch).
    Burst {
        /// Requests per burst.
        burst: u64,
        /// Gap between consecutive requests inside a burst.
        spacing_us: u64,
        /// Mean exponential gap between bursts.
        mean_gap_us: u64,
    },
}

/// Load-generator configuration: the deterministic identity of a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadGenConfig {
    /// Number of requests to generate.
    pub requests: u64,
    /// Root seed of the arrival ChaCha8 stream.
    pub seed: u64,
    /// Arrival process.
    pub arrival: Arrival,
    /// Relative deadline budget: a request arriving at `t` expires at
    /// `t + deadline_us` (minus any drawn jitter). Classes with a
    /// nonzero entry in `class_deadline_us` override this budget.
    pub deadline_us: u64,
    /// Per-request deadline jitter: each request's budget is shortened
    /// by a uniform draw from `0..=deadline_jitter_us`. With uniform
    /// budgets the FIFO head always owns the earliest deadline and the
    /// batcher's *pre-dispatch* sweep can never fire (the head's close
    /// window is shorter than its budget); jittered budgets are what
    /// make that path reachable under generated load.
    pub deadline_jitter_us: u64,
    /// Class-draw weights in lane order (critical, interactive, bulk).
    /// A request's class is drawn proportionally; a mix with a single
    /// nonzero weight skips the draw, leaving the stream untouched.
    pub class_weights: [u64; RequestClass::COUNT],
    /// Per-class deadline budgets in lane order; `0` falls back to
    /// `deadline_us`. This is where per-class SLOs enter the trace:
    /// safety-critical budgets are typically a small fraction of bulk's.
    pub class_deadline_us: [u64; RequestClass::COUNT],
}

/// Default mix: everything rides the interactive lane.
const INTERACTIVE_ONLY: [u64; RequestClass::COUNT] = [0, 1, 0];

impl LoadGenConfig {
    /// A Poisson trace.
    pub fn poisson(requests: u64, seed: u64, mean_gap_us: u64, deadline_us: u64) -> Self {
        LoadGenConfig {
            requests,
            seed,
            arrival: Arrival::Poisson { mean_gap_us },
            deadline_us,
            deadline_jitter_us: 0,
            class_weights: INTERACTIVE_ONLY,
            class_deadline_us: [0; RequestClass::COUNT],
        }
    }

    /// A bursty trace.
    pub fn burst(
        requests: u64,
        seed: u64,
        burst: u64,
        spacing_us: u64,
        mean_gap_us: u64,
        deadline_us: u64,
    ) -> Self {
        LoadGenConfig {
            requests,
            seed,
            arrival: Arrival::Burst {
                burst,
                spacing_us,
                mean_gap_us,
            },
            deadline_us,
            deadline_jitter_us: 0,
            class_weights: INTERACTIVE_ONLY,
            class_deadline_us: [0; RequestClass::COUNT],
        }
    }

    /// Shortens each request's deadline budget by a uniform draw from
    /// `0..=jitter_us` (clamped so no budget goes below 1 µs).
    pub fn with_deadline_jitter(mut self, jitter_us: u64) -> Self {
        self.deadline_jitter_us = jitter_us;
        self
    }

    /// Draws each request's class proportionally to `weights` (lane
    /// order: critical, interactive, bulk). At least one weight must be
    /// nonzero.
    pub fn with_class_mix(mut self, weights: [u64; RequestClass::COUNT]) -> Self {
        assert!(
            weights.iter().any(|&w| w > 0),
            "class mix needs a nonzero weight"
        );
        self.class_weights = weights;
        self
    }

    /// Per-class deadline budgets (lane order); `0` keeps the trace's
    /// base `deadline_us` for that class.
    pub fn with_class_deadlines(mut self, budgets_us: [u64; RequestClass::COUNT]) -> Self {
        self.class_deadline_us = budgets_us;
        self
    }

    /// The deadline budget class `class` runs on.
    fn class_budget_us(&self, class: RequestClass) -> u64 {
        match self.class_deadline_us[class.lane()] {
            0 => self.deadline_us,
            b => b,
        }
    }
}

/// Draws an exponential gap with the given mean via inverse-CDF
/// transform. `u` is uniform in `[0, 1)`, so `1 - u` is in `(0, 1]` and
/// the logarithm is finite; the result is rounded to whole microseconds.
/// (Float transcendentals are deterministic for a fixed build, which is
/// the scope the replay artefact is diffed under.)
fn exp_gap_us(rng: &mut ChaCha8Rng, mean_us: u64) -> u64 {
    let u: f64 = rng.random();
    (-(1.0 - u).ln() * mean_us as f64).round() as u64
}

/// The seeded arrival-trace generator.
#[derive(Debug, Clone)]
pub struct LoadGen {
    config: LoadGenConfig,
}

impl LoadGen {
    /// A generator for the given trace identity.
    pub fn new(config: LoadGenConfig) -> Self {
        LoadGen { config }
    }

    /// Materialises the trace: requests in arrival order, `id == index`,
    /// arrival times non-decreasing. Each request also draws a payload
    /// seed from the same stream (the backend maps it to an input image).
    pub fn generate(&self) -> Vec<Request> {
        let cfg = &self.config;
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let single_class = if cfg.class_weights.iter().filter(|&&w| w > 0).count() == 1 {
            let lane = cfg.class_weights.iter().position(|&w| w > 0).unwrap();
            Some(RequestClass::from_lane(lane))
        } else {
            None
        };
        let total_weight: u64 = cfg.class_weights.iter().sum();
        let mut out = Vec::with_capacity(cfg.requests as usize);
        let mut now = 0u64;
        for id in 0..cfg.requests {
            let gap = match cfg.arrival {
                Arrival::Poisson { mean_gap_us } => exp_gap_us(&mut rng, mean_gap_us),
                Arrival::Burst {
                    burst,
                    spacing_us,
                    mean_gap_us,
                } => {
                    if burst > 0 && id.is_multiple_of(burst) && id > 0 {
                        exp_gap_us(&mut rng, mean_gap_us)
                    } else if id == 0 {
                        0
                    } else {
                        spacing_us
                    }
                }
            };
            now += gap;
            let class = single_class.unwrap_or_else(|| {
                let mut draw = rng.random::<u64>() % total_weight;
                let mut chosen = RequestClass::Bulk;
                for c in RequestClass::ALL {
                    let w = cfg.class_weights[c.lane()];
                    if draw < w {
                        chosen = c;
                        break;
                    }
                    draw -= w;
                }
                chosen
            });
            let jitter = if cfg.deadline_jitter_us > 0 {
                rng.random::<u64>() % (cfg.deadline_jitter_us + 1)
            } else {
                0
            };
            let budget = cfg.class_budget_us(class).saturating_sub(jitter).max(1);
            out.push(Request {
                id,
                arrival_us: now,
                deadline_us: now.saturating_add(budget),
                payload_seed: rng.random::<u64>(),
                class,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_replay_bit_identically() {
        let cfg = LoadGenConfig::poisson(200, 0xFEED, 400, 20_000);
        let a = LoadGen::new(cfg).generate();
        let b = LoadGen::new(cfg).generate();
        assert_eq!(a, b);
        assert_eq!(a.len(), 200);
    }

    #[test]
    fn different_seeds_differ() {
        let a = LoadGen::new(LoadGenConfig::poisson(64, 1, 400, 20_000)).generate();
        let b = LoadGen::new(LoadGenConfig::poisson(64, 2, 400, 20_000)).generate();
        assert_ne!(a, b);
    }

    #[test]
    fn arrivals_are_monotone_with_deadlines_attached() {
        for cfg in [
            LoadGenConfig::poisson(300, 7, 250, 5_000),
            LoadGenConfig::burst(300, 7, 16, 10, 4_000, 5_000),
        ] {
            let trace = LoadGen::new(cfg).generate();
            for (i, r) in trace.iter().enumerate() {
                assert_eq!(r.id, i as u64);
                assert_eq!(r.deadline_us, r.arrival_us + 5_000);
                assert_eq!(r.class, RequestClass::Interactive, "default mix");
                if i > 0 {
                    assert!(r.arrival_us >= trace[i - 1].arrival_us);
                }
            }
        }
    }

    #[test]
    fn deadline_jitter_shortens_budgets_deterministically() {
        let cfg = LoadGenConfig::poisson(300, 5, 200, 10_000).with_deadline_jitter(8_000);
        let a = LoadGen::new(cfg).generate();
        let b = LoadGen::new(cfg).generate();
        assert_eq!(a, b);
        let mut varied = false;
        for r in &a {
            let budget = r.deadline_us - r.arrival_us;
            assert!((2_000..=10_000).contains(&budget), "budget {budget}");
            if budget != 10_000 {
                varied = true;
            }
        }
        assert!(varied, "jitter drew nothing across 300 requests");
    }

    #[test]
    fn poisson_mean_gap_is_roughly_right() {
        let trace = LoadGen::new(LoadGenConfig::poisson(4_000, 3, 500, 1)).generate();
        let span = trace.last().unwrap().arrival_us - trace[0].arrival_us;
        let mean = span as f64 / (trace.len() - 1) as f64;
        assert!(
            (350.0..650.0).contains(&mean),
            "poisson mean gap {mean} far from 500"
        );
    }

    #[test]
    fn bursts_are_tightly_spaced_groups() {
        let trace = LoadGen::new(LoadGenConfig::burst(64, 9, 8, 5, 10_000, 1_000)).generate();
        // Inside a burst: exact spacing. Between bursts: a drawn gap.
        for pair in trace.windows(2) {
            let gap = pair[1].arrival_us - pair[0].arrival_us;
            if pair[1].id % 8 == 0 {
                // First of a new burst: exponential gap (almost surely
                // different from the fixed spacing in aggregate).
                continue;
            }
            assert_eq!(gap, 5, "intra-burst spacing at id {}", pair[1].id);
        }
    }

    #[test]
    fn class_mix_draws_every_class_with_per_class_budgets() {
        let cfg = LoadGenConfig::poisson(600, 11, 300, 20_000)
            .with_class_mix([1, 3, 4])
            .with_class_deadlines([2_000, 0, 50_000]);
        let a = LoadGen::new(cfg).generate();
        assert_eq!(a, LoadGen::new(cfg).generate(), "mixed traces replay");
        let mut counts = [0u64; RequestClass::COUNT];
        for r in &a {
            counts[r.class.lane()] += 1;
            let budget = r.deadline_us - r.arrival_us;
            let want = match r.class {
                RequestClass::Critical => 2_000,
                RequestClass::Interactive => 20_000, // 0 falls back
                RequestClass::Bulk => 50_000,
            };
            assert_eq!(budget, want, "class {:?}", r.class);
        }
        assert!(
            counts.iter().all(|&c| c > 0),
            "every weighted class appears: {counts:?}"
        );
        // Rough proportionality: bulk (weight 4) outnumbers critical
        // (weight 1) decisively over 600 draws.
        assert!(counts[2] > counts[0] * 2, "{counts:?}");
    }

    #[test]
    fn single_class_mix_leaves_the_stream_untouched() {
        // An explicit one-class mix must skip the class draw entirely:
        // same gaps, jitter and payload seeds as the default trace.
        let base = LoadGenConfig::poisson(256, 21, 250, 8_000).with_deadline_jitter(3_000);
        let default_trace = LoadGen::new(base).generate();
        let explicit = LoadGen::new(base.with_class_mix([0, 7, 0])).generate();
        assert_eq!(default_trace, explicit);
        let critical = LoadGen::new(base.with_class_mix([5, 0, 0])).generate();
        for (d, c) in default_trace.iter().zip(&critical) {
            assert_eq!(c.class, RequestClass::Critical);
            assert_eq!(
                (d.arrival_us, d.payload_seed, d.deadline_us),
                (c.arrival_us, c.payload_seed, c.deadline_us),
                "only the class may differ"
            );
        }
    }
}
