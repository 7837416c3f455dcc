//! The analytic reliability guarantee.
//!
//! The paper's title promises a *guarantee*; this module states it as
//! checkable mathematics. The fault model is the SEU model of
//! `relcnn-faults`: each exposure of an elementary operation result is
//! corrupted independently with probability `ber` (a uniformly random bit
//! of the 32-bit word flips).
//!
//! Per-operation silent-escape probabilities (derivations in comments):
//!
//! * **Plain (Algorithm 1)** — every corruption is silent:
//!   `p_silent = ber` (qualifier constantly true).
//! * **DMR (Algorithm 2)** — a silent escape requires *both* replicas
//!   corrupted into bit-identical wrong values: both flip, and the second
//!   flips the same bit as the first:
//!   `p_silent = ber² / 32`.
//! * **TMR** — a silent escape requires two replicas to agree on the same
//!   wrong value and outvote the third: choose the corrupted pair (3
//!   ways), both flip the same bit:
//!   `p_silent = 3 · ber² / 32` (the healthy replica is outvoted).
//!   (Third-order terms are negligible for `ber ≪ 1` and ignored; the
//!   bound below adds them back conservatively.)
//!
//! Layer-level: with `n` qualified operations,
//! `P(any silent) = 1 − (1 − p_silent)ⁿ ≤ n · p_silent`.
//!
//! **Scope.** The guarantee covers processing-element faults (multiplier /
//! accumulator sites). Common-mode operand corruption (weight/activation
//! loads) feeds all replicas identically and is *out of scope for any
//! comparison scheme* — the paper's §II-C points at memory ECC for that
//! class, and `relcnn-faults` lets you measure the distinction.

use relcnn_relexec::conv::{ConvPlan, ExecStats};
use relcnn_relexec::cost::OpCost;
use relcnn_relexec::{RedundancyMode, RetryPolicy};
use serde::{Deserialize, Serialize};

/// Number of bit positions in the modelled word (see `relcnn-faults`).
const WORD_BITS: f64 = 32.0;

/// Probability that one qualified operation silently emits a corrupted
/// value under the given redundancy mode and per-exposure bit error rate.
pub fn silent_op_probability(mode: RedundancyMode, ber: f64) -> f64 {
    let ber = ber.clamp(0.0, 1.0);
    match mode {
        RedundancyMode::Plain => ber,
        // Both replicas corrupted (ber²), same bit (1/32).
        RedundancyMode::Dmr => ber * ber / WORD_BITS,
        // Any of the 3 replica pairs corrupted identically; add the
        // all-three term conservatively.
        RedundancyMode::Tmr => 3.0 * ber * ber / WORD_BITS + ber * ber * ber,
    }
    .min(1.0)
}

/// Probability that one qualified operation *detects* a fault (raising a
/// retry) — used to size the expected rollback overhead.
pub fn detect_op_probability(mode: RedundancyMode, ber: f64) -> f64 {
    let ber = ber.clamp(0.0, 1.0);
    match mode {
        RedundancyMode::Plain => 0.0,
        // At least one replica corrupted, minus the silent coincidence.
        RedundancyMode::Dmr => {
            let any = 1.0 - (1.0 - ber) * (1.0 - ber);
            (any - silent_op_probability(mode, ber)).max(0.0)
        }
        // TMR detects only three-way disagreement; single faults are
        // corrected in place (no retry), so "detect" here means the
        // qualifier fails: two+ corrupted with distinct values.
        RedundancyMode::Tmr => {
            let two_plus = 3.0 * ber * ber * (1.0 - ber) + ber * ber * ber;
            (two_plus - silent_op_probability(mode, ber)).max(0.0)
        }
    }
}

/// Upper bound on the probability that a layer of `ops` qualified
/// operations silently emits any corrupted value.
pub fn silent_layer_bound(mode: RedundancyMode, ber: f64, ops: u64) -> f64 {
    (ops as f64 * silent_op_probability(mode, ber)).min(1.0)
}

/// Exact (independent-ops) layer silent probability,
/// `1 − (1 − p)^ops` — the quantity campaigns estimate.
pub fn silent_layer_probability(mode: RedundancyMode, ber: f64, ops: u64) -> f64 {
    1.0 - (1.0 - silent_op_probability(mode, ber)).powi(ops.min(i32::MAX as u64) as i32)
}

/// The static guarantee statement for one reliable convolution layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerGuarantee {
    /// Redundancy mode of the qualified operations.
    pub mode: RedundancyMode,
    /// Assumed per-exposure bit error rate.
    pub ber: f64,
    /// Qualified operations in the partition: 2 per executed MAC, and 1
    /// per output of the ReLU stage when it runs.
    pub ops: u64,
    /// Upper bound on silent corruption probability for the whole layer.
    pub silent_bound: f64,
    /// Expected number of detected faults (≈ expected retries).
    pub expected_detections: f64,
    /// Best-case execution cycles (fault-free).
    pub bcet_cycles: u64,
    /// Worst-case execution cycles (every op retried to budget).
    pub wcet_cycles: u64,
}

/// Computes the guarantee for the reliable partition `plan` describes: its
/// qualified operations, and their best- and worst-case cycles.
pub fn conv_layer_guarantee(
    plan: &ConvPlan,
    mode: RedundancyMode,
    ber: f64,
    retry: RetryPolicy,
) -> LayerGuarantee {
    let ops = plan.qualified_ops();
    let cost = OpCost::default();
    LayerGuarantee {
        mode,
        ber,
        ops,
        silent_bound: silent_layer_bound(mode, ber, ops),
        expected_detections: ops as f64 * detect_op_probability(mode, ber),
        bcet_cycles: plan.bcet(mode, &cost),
        wcet_cycles: plan.wcet(mode, &cost, retry),
    }
}

/// The runtime reliability report attached to every hybrid classification:
/// what actually happened, against the static guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GuaranteeReport {
    /// Redundancy mode the reliable partition ran under.
    pub mode: RedundancyMode,
    /// Qualified operations executed.
    pub ops: u64,
    /// Faults detected (qualifier failures observed).
    pub detected: u64,
    /// Detected faults recovered by single-operation rollback.
    pub recovered: u64,
    /// Cost-model cycles consumed.
    pub cycles: u64,
    /// Peak leaky-bucket level (0 = clean run).
    pub bucket_peak: u32,
}

impl GuaranteeReport {
    /// Builds the report from execution statistics.
    pub fn from_stats(mode: RedundancyMode, stats: &ExecStats) -> GuaranteeReport {
        GuaranteeReport {
            mode,
            ops: stats.mul_ops + stats.acc_ops,
            detected: stats.failed_ops,
            recovered: stats.recovered,
            cycles: stats.cycles,
            bucket_peak: stats.bucket_peak,
        }
    }

    /// Whether the run completed without any detected fault.
    pub fn is_clean(&self) -> bool {
        self.detected == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relcnn_faults::NoFaults;
    use relcnn_relexec::conv::{reliable_partition, ReliableConvConfig};
    use relcnn_tensor::conv::ConvGeometry;
    use relcnn_tensor::init::{Init, Rand};
    use relcnn_tensor::Shape;

    #[test]
    fn plain_has_no_protection() {
        assert_eq!(silent_op_probability(RedundancyMode::Plain, 1e-3), 1e-3);
        assert_eq!(detect_op_probability(RedundancyMode::Plain, 1e-3), 0.0);
    }

    #[test]
    fn dmr_quadratic_suppression() {
        let ber = 1e-3;
        let p = silent_op_probability(RedundancyMode::Dmr, ber);
        assert!((p - ber * ber / 32.0).abs() < 1e-15);
        // 5 orders of magnitude below plain at this BER.
        assert!(p < 1e-7);
        // Detection catches essentially everything else.
        let d = detect_op_probability(RedundancyMode::Dmr, ber);
        assert!((d - 2e-3).abs() < 1e-5, "≈ 2·ber, got {d}");
    }

    #[test]
    fn tmr_triples_the_pairing_term() {
        let ber = 1e-3;
        let dmr = silent_op_probability(RedundancyMode::Dmr, ber);
        let tmr = silent_op_probability(RedundancyMode::Tmr, ber);
        assert!(tmr > 2.9 * dmr && tmr < 3.2 * dmr, "{tmr} vs 3x{dmr}");
        // TMR *corrects* single faults: detection (= stall) probability is
        // second order, far below DMR's first-order retry rate.
        assert!(
            detect_op_probability(RedundancyMode::Tmr, ber)
                < detect_op_probability(RedundancyMode::Dmr, ber) / 100.0
        );
    }

    #[test]
    fn probabilities_clamped_and_monotone() {
        for mode in RedundancyMode::ALL {
            assert_eq!(silent_op_probability(mode, 0.0), 0.0);
            assert!(silent_op_probability(mode, 1.0) <= 1.0);
            assert!(silent_op_probability(mode, 2.0) <= 1.0, "clamped input");
            let lo = silent_op_probability(mode, 1e-5);
            let hi = silent_op_probability(mode, 1e-3);
            assert!(lo <= hi, "{mode}: monotone in ber");
        }
    }

    #[test]
    fn layer_bound_dominates_exact() {
        let ber = 1e-4;
        for mode in RedundancyMode::ALL {
            for ops in [10u64, 1000, 1_000_000] {
                let bound = silent_layer_bound(mode, ber, ops);
                let exact = silent_layer_probability(mode, ber, ops);
                assert!(
                    bound >= exact - 1e-12,
                    "{mode} ops={ops}: bound {bound} < exact {exact}"
                );
            }
        }
    }

    #[test]
    fn tmr_detection_is_two_plus_faults_less_the_silent_pairs() {
        // Two or more replicas faulted (3·ber²·(1 − ber) + ber³), less the
        // outcomes the vote passes silently (3·ber²/32 + ber³).
        let ber = 1e-3;
        let closed = 3.0 * ber * ber * (1.0 - ber) - 3.0 * ber * ber / 32.0;
        let d = detect_op_probability(RedundancyMode::Tmr, ber);
        assert!((d - closed).abs() < 1e-12 * closed, "{d} vs {closed}");
        assert!((d - 2.903_25e-6).abs() < 1e-15, "{d}");
    }

    #[test]
    fn alexnet_conv1_guarantee_numbers() {
        let geom = ConvGeometry::new(227, 227, 11, 11, 4, 0).unwrap();
        let plan = ConvPlan::new(&geom, 3, 96, true, false);
        let g = conv_layer_guarantee(&plan, RedundancyMode::Dmr, 1e-7, RetryPolicy::paper());
        assert_eq!(g.ops, 2 * 3025 * 363 * 96);
        // ~2.1e8 ops at ber 1e-7: expected detections ≈ ops·2·ber ≈ 42.
        assert!(g.expected_detections > 10.0 && g.expected_detections < 100.0);
        // Silent bound: ops · ber²/32 ≈ 6.6e-8 — the guarantee.
        assert!(g.silent_bound < 1e-6);
        assert!(g.bcet_cycles < g.wcet_cycles);
    }

    #[test]
    fn plain_guarantee_is_vacuous_by_comparison() {
        let geom = ConvGeometry::new(32, 32, 3, 3, 1, 0).unwrap();
        let plan = ConvPlan::new(&geom, 3, 8, true, false);
        let plain = conv_layer_guarantee(&plan, RedundancyMode::Plain, 1e-6, RetryPolicy::none());
        let dmr = conv_layer_guarantee(&plan, RedundancyMode::Dmr, 1e-6, RetryPolicy::paper());
        assert!(plain.silent_bound > 1e4 * dmr.silent_bound);
    }

    #[test]
    fn static_guarantee_counts_what_a_clean_run_reports() {
        let mut rng = Rand::seeded(5);
        let uniform = Init::Uniform { lo: -1.0, hi: 1.0 };
        let input = rng.tensor(Shape::d3(3, 7, 6), uniform);
        let filters = rng.tensor(Shape::d4(4, 3, 3, 3), uniform);
        let bias = rng.tensor(Shape::d1(4), uniform);
        for pad in [0, 2] {
            let geom = ConvGeometry::new(7, 6, 3, 3, 2, pad).unwrap();
            for (with_bias, relu) in [(false, false), (true, false), (true, true)] {
                let plan = ConvPlan::new(&geom, 3, 4, with_bias, relu);
                for mode in RedundancyMode::ALL {
                    let g = conv_layer_guarantee(&plan, mode, 1e-6, RetryPolicy::paper());
                    let run = reliable_partition(
                        mode,
                        &input,
                        &filters,
                        with_bias.then_some(&bias),
                        &geom,
                        relu,
                        &mut NoFaults::new(),
                        &ReliableConvConfig::default(),
                    )
                    .unwrap();
                    let report = GuaranteeReport::from_stats(mode, &run.stats);
                    let case = format!("pad {pad}, bias {with_bias}, relu {relu}, {mode}");
                    assert_eq!(g.ops, report.ops, "{case}");
                    assert_eq!(g.bcet_cycles, report.cycles, "{case}");
                }
            }
        }
    }

    #[test]
    fn report_from_stats() {
        let stats = ExecStats {
            mul_ops: 100,
            acc_ops: 100,
            failed_ops: 3,
            retries: 3,
            recovered: 3,
            bucket_peak: 2,
            bucket_final: 0,
            bucket_errors: 3,
            cycles: 12345,
        };
        let r = GuaranteeReport::from_stats(RedundancyMode::Dmr, &stats);
        assert_eq!(r.ops, 200);
        assert_eq!(r.detected, 3);
        assert!(!r.is_clean());
        let clean = GuaranteeReport::from_stats(RedundancyMode::Dmr, &ExecStats::default());
        assert!(clean.is_clean());
    }
}
