//! Deterministic cycle-cost model for qualified operations.
//!
//! The paper argues (§IV) that for hardware operators "the best-case
//! execution and worst-case execution time are, given constant-time adders
//! and multipliers, determinable and, in hardware, constant". This module
//! makes that claim executable: every ALU charges a fixed cycle price per
//! elementary action. The BCET and WCET of a whole reliable partition come
//! from [`ConvPlan`], which counts the operations the kernel executes and
//! prices them here; a fault-free run consumes exactly its BCET.

use crate::conv::ConvPlan;
use crate::policy::{RedundancyMode, RetryPolicy};
use relcnn_tensor::conv::ConvGeometry;
use serde::{Deserialize, Serialize};

/// Cycle prices of elementary actions, loosely modelled on an FPGA DSP
/// slice (pipelined multiplier, single-cycle adder/comparator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OpCost {
    /// Fetch of one operand (weight or activation).
    pub load: u64,
    /// One multiplication.
    pub mul: u64,
    /// One addition/accumulation.
    pub add: u64,
    /// One equality comparison (DMR checkpoint).
    pub cmp: u64,
    /// One 2-of-3 majority vote (TMR).
    pub vote: u64,
    /// One rollback: restoring the operation checkpoint before re-execution.
    pub rollback: u64,
}

impl Default for OpCost {
    fn default() -> Self {
        OpCost {
            load: 1,
            mul: 4,
            add: 1,
            cmp: 1,
            vote: 2,
            rollback: 2,
        }
    }
}

impl OpCost {
    /// Cycles for one qualified multiplication under `mode` (no retry).
    pub fn mul_op(&self, mode: RedundancyMode) -> u64 {
        match mode {
            RedundancyMode::Plain => self.mul,
            RedundancyMode::Dmr => 2 * self.mul + self.cmp,
            RedundancyMode::Tmr => 3 * self.mul + self.vote,
        }
    }

    /// Cycles for one qualified accumulation under `mode` (no retry).
    pub fn acc_op(&self, mode: RedundancyMode) -> u64 {
        match mode {
            RedundancyMode::Plain => self.add,
            RedundancyMode::Dmr => 2 * self.add + self.cmp,
            RedundancyMode::Tmr => 3 * self.add + self.vote,
        }
    }

    /// Best-case cycles for one full MAC (two loads, qualified multiply,
    /// qualified accumulate, no retries).
    pub fn mac_best(&self, mode: RedundancyMode) -> u64 {
        2 * self.load + self.mul_op(mode) + self.acc_op(mode)
    }

    /// Worst-case cycles for one full MAC: every attempt of both qualified
    /// operations fails until the retry budget is exhausted, each retry
    /// paying the rollback penalty.
    pub fn mac_worst(&self, mode: RedundancyMode, retry: RetryPolicy) -> u64 {
        let attempts = 1 + retry.max_retries as u64;
        2 * self.load
            + attempts * self.mul_op(mode)
            + attempts * self.acc_op(mode)
            + 2 * retry.max_retries as u64 * self.rollback
    }
}

/// Best-case cycles of a reliable convolution with a bias and no ReLU
/// stage: `ConvPlan::new(geom, in_c, out_c, true, false).bcet(mode, cost)`.
pub fn conv_bcet(
    geom: &ConvGeometry,
    in_c: usize,
    out_c: usize,
    mode: RedundancyMode,
    cost: &OpCost,
) -> u64 {
    ConvPlan::new(geom, in_c, out_c, true, false).bcet(mode, cost)
}

/// The redundancy overhead ratio the paper's Table 1 exhibits: expected
/// cycles of a fault-free DMR convolution over a fault-free plain one.
pub fn overhead_ratio(mode: RedundancyMode, cost: &OpCost) -> f64 {
    cost.mac_best(mode) as f64 / cost.mac_best(RedundancyMode::Plain) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_costs_ordered() {
        let c = OpCost::default();
        assert!(c.mul > c.add);
        assert!(c.mul_op(RedundancyMode::Plain) < c.mul_op(RedundancyMode::Dmr));
        assert!(c.mul_op(RedundancyMode::Dmr) < c.mul_op(RedundancyMode::Tmr));
    }

    #[test]
    fn dmr_roughly_doubles_plain() {
        let c = OpCost::default();
        let ratio = overhead_ratio(RedundancyMode::Dmr, &c);
        // The paper's Table 1 measures 648.87/301.91 ≈ 2.15 in Python;
        // the hardware cost model lands in the same band.
        assert!(
            (1.8..2.5).contains(&ratio),
            "DMR/plain overhead {ratio} outside Table-1 band"
        );
    }

    #[test]
    fn best_case_below_worst_case() {
        let c = OpCost::default();
        for mode in RedundancyMode::ALL {
            assert!(c.mac_best(mode) <= c.mac_worst(mode, RetryPolicy::paper()));
            // Without retries, worst == best (qualifiers cannot stall).
            assert_eq!(c.mac_best(mode), c.mac_worst(mode, RetryPolicy::none()));
        }
    }

    #[test]
    fn worst_mac_pays_two_rollbacks_per_retry() {
        // Per attempt: 2 loads, then the multiply and the accumulate; the
        // paper's one retry re-runs both after a 2-cycle rollback each.
        let c = OpCost::default();
        let worst = RedundancyMode::ALL.map(|mode| c.mac_worst(mode, RetryPolicy::paper()));
        assert_eq!(worst, [16, 30, 44]);
    }

    #[test]
    fn conv_costs_scale_with_macs() {
        let small = ConvGeometry::new(8, 8, 3, 3, 1, 0).unwrap();
        let big = ConvGeometry::new(16, 16, 3, 3, 1, 0).unwrap();
        let c = OpCost::default();
        let s = conv_bcet(&small, 3, 4, RedundancyMode::Dmr, &c);
        let b = conv_bcet(&big, 3, 4, RedundancyMode::Dmr, &c);
        assert!(b > 4 * s, "quadratic position growth dominates");
        let plan = ConvPlan::new(&big, 3, 4, true, false);
        assert!(plan.wcet(RedundancyMode::Dmr, &c, RetryPolicy::paper()) > b);
    }

    #[test]
    fn alexnet_conv1_wcet_finite_and_constant() {
        // The determinism claim: same inputs -> same WCET, twice.
        let g = ConvGeometry::new(227, 227, 11, 11, 4, 0).unwrap();
        let c = OpCost::default();
        let wcet = || {
            ConvPlan::new(&g, 3, 96, true, false).wcet(
                RedundancyMode::Dmr,
                &c,
                RetryPolicy::paper(),
            )
        };
        let w1 = wcet();
        assert_eq!(w1, wcet());
        // 290 400 outputs of 363 worst-case MACs and one bias load each.
        assert_eq!(w1, 290_400 * (363 * 30 + 1));
    }
}
