//! Deterministic fault injection for the cluster fabric itself.
//!
//! The paper injects faults into the *model* and asks whether the
//! verdict survives; a [`ChaosPlan`] applies the same discipline to the
//! fabric that runs the campaigns. A plan is derived from the campaign
//! seed — same seed, same victim, same trigger point — so a chaos run is
//! exactly as reproducible as the campaign it perturbs, and CI's chaos
//! legs can assert the *byte-identical* aggregate after the fault.
//!
//! Three failure modes, matching the head's three detection paths:
//!
//! | plan            | worker behaviour                           | head detects via        |
//! |-----------------|--------------------------------------------|-------------------------|
//! | `kill_one`      | exits before sending a task result         | pipe EOF                |
//! | `corrupt_one`   | bit-flips a result frame after checksumming| CRC mismatch            |
//! | `hang_one`      | withholds a result but keeps heartbeating  | per-task deadline       |

use serde::{Deserialize, Serialize};

/// A deterministic schedule of fabric faults, shipped to every worker in
/// its `Setup` frame. The default plan injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ChaosPlan {
    /// Worker that exits (code 17) instead of sending a task result;
    /// `None` = no kill.
    pub kill_worker: Option<usize>,
    /// The kill fires when the victim has already completed this many
    /// tasks — the result of task number `kill_after_tasks` (0-based per
    /// worker) is computed but never sent.
    pub kill_after_tasks: u64,
    /// Worker that sends one bit-flipped result frame (flipped *after*
    /// the CRC is computed, so the codec must catch it), then exits.
    pub corrupt_worker: Option<usize>,
    /// Per-worker result ordinal (0-based) of the corrupted frame.
    pub corrupt_result: u64,
    /// Worker that silently withholds one task result while continuing
    /// to heartbeat — a compute hang, detectable only by the per-task
    /// deadline.
    pub hang_worker: Option<usize>,
    /// Per-worker result ordinal (0-based) the hang swallows.
    pub hang_result: u64,
}

/// SplitMix64: a tiny, well-mixed pure function of the seed — enough to
/// pick a victim without dragging an RNG dependency into the fabric.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl ChaosPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        ChaosPlan::default()
    }

    /// Whether this plan injects nothing.
    pub fn is_none(&self) -> bool {
        self.kill_worker.is_none() && self.corrupt_worker.is_none() && self.hang_worker.is_none()
    }

    fn victim(seed: u64, salt: u64, workers: usize) -> usize {
        (splitmix64(seed ^ salt) % workers.max(1) as u64) as usize
    }

    /// Kills one of `workers` (chosen by the campaign seed) on its first
    /// task: the result is computed, then the process exits instead of
    /// sending it. Ordinal 0 guarantees the fault fires whenever every
    /// worker receives at least one task (tasks ≥ workers) — later
    /// ordinals would depend on the dynamic assignment racing the
    /// victim's way.
    pub fn kill_one(campaign_seed: u64, workers: usize) -> Self {
        ChaosPlan {
            kill_worker: Some(Self::victim(campaign_seed, 0x4B49_4C4C, workers)),
            kill_after_tasks: 0,
            ..ChaosPlan::default()
        }
    }

    /// Makes one of `workers` (chosen by the campaign seed) corrupt its
    /// first result frame (same ordinal-0 guarantee as [`kill_one`](Self::kill_one)).
    pub fn corrupt_one(campaign_seed: u64, workers: usize) -> Self {
        ChaosPlan {
            corrupt_worker: Some(Self::victim(campaign_seed, 0x4652_414D, workers)),
            corrupt_result: 0,
            ..ChaosPlan::default()
        }
    }

    /// Makes one of `workers` (chosen by the campaign seed) hang on its
    /// first task while still heartbeating (same ordinal-0 guarantee as
    /// [`kill_one`](Self::kill_one)).
    pub fn hang_one(campaign_seed: u64, workers: usize) -> Self {
        ChaosPlan {
            hang_worker: Some(Self::victim(campaign_seed, 0x4841_4E47, workers)),
            hang_result: 0,
            ..ChaosPlan::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_in_the_seed() {
        assert_eq!(ChaosPlan::kill_one(7, 4), ChaosPlan::kill_one(7, 4));
        assert_eq!(ChaosPlan::corrupt_one(7, 4), ChaosPlan::corrupt_one(7, 4));
        let victims: Vec<usize> = (0..32u64)
            .map(|s| ChaosPlan::kill_one(s, 4).kill_worker.unwrap())
            .collect();
        assert!(victims.iter().any(|&v| v != victims[0]), "seed must matter");
        assert!(victims.iter().all(|&v| v < 4));
    }

    #[test]
    fn plan_roundtrips_through_json() {
        let plan = ChaosPlan::kill_one(0xD17E, 3);
        let json = serde_json::to_string(&plan).unwrap();
        let back: ChaosPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        assert!(!plan.is_none());
        assert!(ChaosPlan::none().is_none());
    }
}
