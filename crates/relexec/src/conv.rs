//! Algorithm 3: the reliable convolution kernel.
//!
//! "The algorithm … calculates one convolution operation. It assumes that
//! every operation fails unless explicitly asserted otherwise. … If an
//! error occurs during the execution of an operation then, following the
//! leaky bucket pattern, an error counter is incremented by a value and
//! checked against a ceiling. For every correct operation this error
//! counter is decremented by one, floor zero. … To increase availability,
//! should one incorrect operation occur then that operation shall be
//! repeated." (paper §IV)
//!
//! The rollback distance is a single operation: a failed multiply or
//! accumulate rolls the ALU back one checkpoint and re-executes just that
//! operation.

use crate::alu::{Alu, QualifiedAlu};
use crate::bucket::{BucketConfig, BucketState, LeakyBucket};
use crate::error::ExecError;
use crate::policy::{RedundancyMode, RetryPolicy};
use crate::qualified::Qualified;
use relcnn_faults::FaultInjector;
use relcnn_tensor::conv::{validate_conv_shapes, ConvGeometry};
use relcnn_tensor::{Shape, Tensor};
use serde::{Deserialize, Serialize};

/// Configuration of a reliable convolution run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReliableConvConfig {
    /// Leaky-bucket parameters (Algorithm 3 lines 2/12/18–19).
    pub bucket: BucketConfig,
    /// Per-operation retry budget (the paper repeats once).
    pub retry: RetryPolicy,
    /// Number of processing elements the output channels are distributed
    /// over (Jetson-class edge accelerators have ~128; paper §II).
    pub pe_count: u32,
}

impl Default for ReliableConvConfig {
    fn default() -> Self {
        ReliableConvConfig {
            bucket: BucketConfig::default(),
            retry: RetryPolicy::paper(),
            pe_count: 128,
        }
    }
}

/// Execution statistics of one reliable convolution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecStats {
    /// Qualified multiply operations issued (excluding retries).
    pub mul_ops: u64,
    /// Qualified accumulate operations issued (excluding retries).
    pub acc_ops: u64,
    /// Qualifier failures observed (first attempts and retries).
    pub failed_ops: u64,
    /// Rollback + re-execution events.
    pub retries: u64,
    /// Retries whose re-execution then qualified.
    pub recovered: u64,
    /// Highest leaky-bucket level reached.
    pub bucket_peak: u32,
    /// Leaky-bucket level at completion.
    pub bucket_final: u32,
    /// Errors the bucket recorded.
    pub bucket_errors: u64,
    /// ALU cost-model cycles consumed.
    pub cycles: u64,
}

/// Result of a successful reliable convolution.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvOutput {
    /// The CHW feature maps.
    pub output: Tensor,
    /// Execution statistics.
    pub stats: ExecStats,
}

/// Algorithm 3's regime around one ALU: every operation is assumed failed
/// unless its qualifier asserts otherwise, a failed one is rolled back and
/// re-executed within the retry budget, and the leaky bucket escalates a
/// persistent error pattern into an abort.
struct Regime<'a, A> {
    alu: &'a mut A,
    bucket: LeakyBucket,
    retry: RetryPolicy,
    stats: ExecStats,
}

impl<'a, A: QualifiedAlu> Regime<'a, A> {
    fn new(alu: &'a mut A, config: &ReliableConvConfig) -> Self {
        Regime {
            alu,
            bucket: LeakyBucket::new(config.bucket),
            retry: config.retry,
            stats: ExecStats::default(),
        }
    }

    fn mul(&mut self, a: f32, b: f32) -> Result<f32, ExecError> {
        self.stats.mul_ops += 1;
        self.qualified(|alu| alu.mul(a, b))
    }

    fn acc(&mut self, acc: f32, addend: f32) -> Result<f32, ExecError> {
        self.stats.acc_ops += 1;
        self.qualified(|alu| alu.acc(acc, addend))
    }

    /// ReLU counts as an "acc-class" op in the statistics: it runs on the
    /// comparator datapath with adder-like cost.
    fn max_zero(&mut self, a: f32) -> Result<f32, ExecError> {
        self.stats.acc_ops += 1;
        self.qualified(|alu| alu.max_zero(a))
    }

    /// Runs one qualified operation to a qualified value or an abort.
    fn qualified(&mut self, op: impl Fn(&mut A) -> Qualified<f32>) -> Result<f32, ExecError> {
        let mut q = op(self.alu);
        if q.is_ok() {
            self.bucket.record_success();
            return Ok(q.value());
        }
        let mut attempts: u32 = 0;
        loop {
            self.stats.failed_ops += 1;
            if self.bucket.record_error() == BucketState::Persistent {
                return Err(ExecError::PersistentFailure {
                    op_index: self.alu.op_count().saturating_sub(1),
                    bucket_level: self.bucket.level(),
                    errors: self.bucket.errors(),
                });
            }
            if attempts >= self.retry.max_retries {
                return Err(ExecError::UnrecoverableOperation {
                    op_index: self.alu.op_count().saturating_sub(1),
                    retries: attempts,
                });
            }
            attempts += 1;
            self.stats.retries += 1;
            // Checkpoint/rollback: re-execute the same logical operation.
            self.alu.rollback_op();
            q = op(self.alu);
            if q.is_ok() {
                self.stats.recovered += 1;
                self.bucket.record_success();
                return Ok(q.value());
            }
        }
    }

    /// The run's statistics, closed with the bucket's and the ALU's totals.
    fn finish(self) -> ExecStats {
        ExecStats {
            bucket_peak: self.bucket.peak(),
            bucket_final: self.bucket.level(),
            bucket_errors: self.bucket.errors(),
            cycles: self.alu.cycles(),
            ..self.stats
        }
    }
}

/// Algorithm 3: one full convolution layer executed reliably.
///
/// Every multiply and every accumulate is a qualified operation on `alu`;
/// a failed qualifier triggers a single-operation rollback and retry, and
/// the leaky bucket escalates persistent error patterns into an abort.
///
/// # Errors
///
/// * [`ExecError::PersistentFailure`] when the bucket crosses its ceiling;
/// * [`ExecError::UnrecoverableOperation`] when one operation exhausts its
///   retry budget with bucket head-room remaining;
/// * [`ExecError::Tensor`] for shape/geometry mismatches.
pub fn reliable_conv2d<A: QualifiedAlu>(
    input: &Tensor,
    filters: &Tensor,
    bias: Option<&Tensor>,
    geom: &ConvGeometry,
    alu: &mut A,
    config: &ReliableConvConfig,
) -> Result<ConvOutput, ExecError> {
    let (in_c, out_c) = validate_conv_shapes(input, filters, bias, geom)?;
    let (out_h, out_w) = (geom.out_h(), geom.out_w());
    let (k_h, k_w) = (geom.k_h(), geom.k_w());
    let (in_h, in_w) = (geom.in_h(), geom.in_w());
    let stride = geom.stride();
    let pad = geom.padding() as isize;
    let pe_count = config.pe_count.max(1);

    let x = input.as_slice();
    let f = filters.as_slice();
    let mut ops = Regime::new(alu, config);
    let mut out = vec![0.0f32; out_c * out_h * out_w];

    for oc in 0..out_c {
        ops.alu.set_pe(oc as u32 % pe_count);
        let f_base = oc * in_c * k_h * k_w;
        let bias_v = bias.map(|b| b.as_slice()[oc]).unwrap_or(0.0);
        for oy in 0..out_h {
            for ox in 0..out_w {
                // The bias enters through the (common-mode) weight path.
                let mut acc = if bias.is_some() {
                    ops.alu.load_weight(bias_v)
                } else {
                    0.0
                };
                let iy0 = (oy * stride) as isize - pad;
                let ix0 = (ox * stride) as isize - pad;
                for ic in 0..in_c {
                    let x_base = ic * in_h * in_w;
                    let f_chan = f_base + ic * k_h * k_w;
                    for ky in 0..k_h {
                        let iy = iy0 + ky as isize;
                        if iy < 0 || iy >= in_h as isize {
                            continue;
                        }
                        let x_row = x_base + iy as usize * in_w;
                        let f_row = f_chan + ky * k_w;
                        for kx in 0..k_w {
                            let ix = ix0 + kx as isize;
                            if ix < 0 || ix >= in_w as isize {
                                continue;
                            }
                            let w = ops.alu.load_weight(f[f_row + kx]);
                            let a = ops.alu.load_activation(x[x_row + ix as usize]);
                            let m = ops.mul(w, a)?;
                            acc = ops.acc(acc, m)?;
                        }
                    }
                }
                out[oc * out_h * out_w + oy * out_w + ox] = acc;
            }
        }
    }

    Ok(ConvOutput {
        output: Tensor::from_vec(Shape::d3(out_c, out_h, out_w), out)?,
        stats: ops.finish(),
    })
}

/// Reliable elementwise ReLU under the Algorithm-3 regime — the building
/// block for extending the DCNN partition past conv-1 ("we believe it is
/// worthwhile investigating under what conditions subsequent layers of
/// the CNN can be harnessed", paper §V-A).
///
/// Every rectification is a qualified comparator operation with the same
/// retry/rollback/bucket semantics as the convolution's MACs.
///
/// # Errors
///
/// Same failure exits as [`reliable_conv2d`].
pub fn reliable_relu<A: QualifiedAlu>(
    input: &Tensor,
    alu: &mut A,
    config: &ReliableConvConfig,
) -> Result<ConvOutput, ExecError> {
    let mut ops = Regime::new(alu, config);
    let mut out = Vec::with_capacity(input.len());
    for &v in input.iter() {
        out.push(ops.max_zero(v)?);
    }
    Ok(ConvOutput {
        output: Tensor::from_vec(input.shape().clone(), out)?,
        stats: ops.finish(),
    })
}

/// The reliable partition under a runtime-chosen redundancy mode: one
/// [`reliable_conv2d`] and, when `relu` extends the partition, a
/// [`reliable_relu`] over its output — each stage on a fresh ALU (operation
/// index and cycles from 0) built around a borrow of `injector`, whose
/// fault stream and counters therefore run on from stage to stage and stand
/// where execution stopped, also on an abort. The returned statistics are
/// the convolution's with the ReLU stage's operations, failures, retries,
/// recoveries and cycles added and the higher of the two bucket peaks.
///
/// This is the workspace's one `RedundancyMode` → ALU type dispatch;
/// callers that know their mode statically build a
/// [`PlainAlu`](crate::PlainAlu), [`DmrAlu`](crate::DmrAlu) or
/// [`TmrAlu`](crate::TmrAlu) and call the kernels directly.
///
/// # Errors
///
/// Same failure exits as [`reliable_conv2d`].
#[allow(clippy::too_many_arguments)]
pub fn reliable_partition<I: FaultInjector>(
    mode: RedundancyMode,
    input: &Tensor,
    filters: &Tensor,
    bias: Option<&Tensor>,
    geom: &ConvGeometry,
    relu: bool,
    injector: &mut I,
    config: &ReliableConvConfig,
) -> Result<ConvOutput, ExecError> {
    match mode {
        RedundancyMode::Plain => {
            partition_on::<I, 1>(input, filters, bias, geom, relu, injector, config)
        }
        RedundancyMode::Dmr => {
            partition_on::<I, 2>(input, filters, bias, geom, relu, injector, config)
        }
        RedundancyMode::Tmr => {
            partition_on::<I, 3>(input, filters, bias, geom, relu, injector, config)
        }
    }
}

/// [`reliable_partition`] on `N`-replica ALUs.
fn partition_on<I: FaultInjector, const N: usize>(
    input: &Tensor,
    filters: &Tensor,
    bias: Option<&Tensor>,
    geom: &ConvGeometry,
    relu: bool,
    injector: &mut I,
    config: &ReliableConvConfig,
) -> Result<ConvOutput, ExecError> {
    let mut alu = Alu::<_, N>::new(&mut *injector);
    let conv = reliable_conv2d(input, filters, bias, geom, &mut alu, config)?;
    if !relu {
        return Ok(conv);
    }
    // Qualified comparator ops share the bucket semantics.
    let mut alu = Alu::<_, N>::new(injector);
    let rect = reliable_relu(&conv.output, &mut alu, config)?;
    let mut stats = conv.stats;
    stats.acc_ops += rect.stats.acc_ops;
    stats.failed_ops += rect.stats.failed_ops;
    stats.retries += rect.stats.retries;
    stats.recovered += rect.stats.recovered;
    stats.cycles += rect.stats.cycles;
    stats.bucket_peak = stats.bucket_peak.max(rect.stats.bucket_peak);
    Ok(ConvOutput {
        output: rect.output,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alu::{DmrAlu, PlainAlu, TmrAlu};
    use relcnn_faults::{bits, BerInjector, FaultSite, NoFaults, ScriptedFault, ScriptedInjector};
    use relcnn_tensor::conv::conv2d;

    fn small_problem() -> (Tensor, Tensor, Tensor, ConvGeometry) {
        let input = Tensor::from_fn(Shape::d3(2, 5, 5), |i| {
            ((i[0] * 31 + i[1] * 7 + i[2] * 3) % 11) as f32 - 5.0
        });
        let filters = Tensor::from_fn(Shape::d4(3, 2, 3, 3), |i| {
            ((i[0] * 5 + i[1] * 3 + i[2] * 2 + i[3]) % 7) as f32 - 3.0
        });
        let bias = Tensor::from_vec(Shape::d1(3), vec![0.5, -0.5, 1.0]).unwrap();
        let geom = ConvGeometry::new(5, 5, 3, 3, 1, 0).unwrap();
        (input, filters, bias, geom)
    }

    #[test]
    fn fault_free_matches_native_conv_all_modes() {
        let (input, filters, bias, geom) = small_problem();
        let golden = conv2d(&input, &filters, Some(&bias), &geom).unwrap();
        let config = ReliableConvConfig::default();

        let mut plain = PlainAlu::new(NoFaults::new());
        let mut dmr = DmrAlu::new(NoFaults::new());
        let mut tmr = TmrAlu::new(NoFaults::new());

        for out in [
            reliable_conv2d(&input, &filters, Some(&bias), &geom, &mut plain, &config).unwrap(),
            reliable_conv2d(&input, &filters, Some(&bias), &geom, &mut dmr, &config).unwrap(),
            reliable_conv2d(&input, &filters, Some(&bias), &geom, &mut tmr, &config).unwrap(),
        ] {
            assert_eq!(out.output.shape(), golden.shape());
            for (a, b) in out.output.iter().zip(golden.iter()) {
                assert!((a - b).abs() < 1e-4, "{a} vs {b}");
            }
            assert_eq!(out.stats.failed_ops, 0);
            assert_eq!(out.stats.retries, 0);
            assert_eq!(out.stats.bucket_errors, 0);
        }
    }

    #[test]
    fn op_counts_match_mac_count() {
        let (input, filters, bias, geom) = small_problem();
        let mut alu = DmrAlu::new(NoFaults::new());
        let out = reliable_conv2d(
            &input,
            &filters,
            Some(&bias),
            &geom,
            &mut alu,
            &ReliableConvConfig::default(),
        )
        .unwrap();
        let macs = geom.mac_count(2, 3);
        assert_eq!(out.stats.mul_ops, macs);
        assert_eq!(out.stats.acc_ops, macs);
        assert_eq!(alu.op_count(), 2 * macs);
    }

    #[test]
    fn single_transient_fault_recovered_by_one_rollback() {
        let (input, filters, bias, geom) = small_problem();
        let golden = conv2d(&input, &filters, Some(&bias), &geom).unwrap();
        // Fault in replica 1 of multiply op #100.
        let inj = ScriptedInjector::new([ScriptedFault::transient_flip(100, bits::SIGN_BIT)
            .on_replica(1)
            .at_site(FaultSite::Multiplier)]);
        let mut alu = DmrAlu::new(inj);
        let out = reliable_conv2d(
            &input,
            &filters,
            Some(&bias),
            &geom,
            &mut alu,
            &ReliableConvConfig::default(),
        )
        .unwrap();
        assert_eq!(out.stats.failed_ops, 1);
        assert_eq!(out.stats.retries, 1);
        assert_eq!(out.stats.recovered, 1);
        assert_eq!(out.stats.bucket_final, 0, "success stream drains bucket");
        for (a, b) in out.output.iter().zip(golden.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn plain_alu_silently_corrupts() {
        let (input, filters, bias, geom) = small_problem();
        let golden = conv2d(&input, &filters, Some(&bias), &geom).unwrap();
        let inj = ScriptedInjector::new([
            ScriptedFault::transient_flip(100, bits::SIGN_BIT).at_site(FaultSite::Multiplier)
        ]);
        let mut alu = PlainAlu::new(inj);
        let out = reliable_conv2d(
            &input,
            &filters,
            Some(&bias),
            &geom,
            &mut alu,
            &ReliableConvConfig::default(),
        )
        .unwrap();
        assert_eq!(out.stats.failed_ops, 0, "Algorithm 1 sees nothing");
        let diffs = out
            .output
            .iter()
            .zip(golden.iter())
            .filter(|(a, b)| (**a - **b).abs() > 1e-6)
            .count();
        assert!(diffs > 0, "corruption reached the output silently");
    }

    #[test]
    fn permanent_fault_aborts_as_persistent() {
        let (input, filters, bias, geom) = small_problem();
        let inj = ScriptedInjector::new([ScriptedFault::transient_flip(10, bits::SIGN_BIT)
            .on_replica(1)
            .at_site(FaultSite::Multiplier)
            .permanent()]);
        let mut alu = DmrAlu::new(inj);
        let err = reliable_conv2d(
            &input,
            &filters,
            Some(&bias),
            &geom,
            &mut alu,
            &ReliableConvConfig::default(),
        )
        .unwrap_err();
        match err {
            ExecError::PersistentFailure { op_index, .. } => {
                assert_eq!(op_index, 10);
            }
            other => panic!("expected persistent failure, got {other}"),
        }
    }

    #[test]
    fn tmr_corrects_without_retry() {
        let (input, filters, bias, geom) = small_problem();
        let golden = conv2d(&input, &filters, Some(&bias), &geom).unwrap();
        let inj = ScriptedInjector::new([ScriptedFault::transient_flip(50, bits::SIGN_BIT)
            .on_replica(2)
            .at_site(FaultSite::Multiplier)]);
        let mut alu = TmrAlu::new(inj);
        let out = reliable_conv2d(
            &input,
            &filters,
            Some(&bias),
            &geom,
            &mut alu,
            &ReliableConvConfig::default(),
        )
        .unwrap();
        assert_eq!(out.stats.failed_ops, 0, "vote corrected in place");
        assert_eq!(out.stats.retries, 0);
        for (a, b) in out.output.iter().zip(golden.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn two_isolated_faults_tolerated_two_adjacent_abort() {
        let (input, filters, bias, geom) = small_problem();
        // Isolated: ops 100 and 500 — plenty of successes between.
        let inj = ScriptedInjector::new([
            ScriptedFault::transient_flip(100, bits::SIGN_BIT)
                .on_replica(1)
                .at_site(FaultSite::Multiplier),
            ScriptedFault::transient_flip(500, bits::SIGN_BIT)
                .on_replica(1)
                .at_site(FaultSite::Multiplier),
        ]);
        let mut alu = DmrAlu::new(inj);
        let out = reliable_conv2d(
            &input,
            &filters,
            Some(&bias),
            &geom,
            &mut alu,
            &ReliableConvConfig::default(),
        )
        .unwrap();
        assert_eq!(out.stats.recovered, 2);

        // Adjacent: ops 100 and 101 — the success between (acc of op 100's
        // MAC partner) cannot cancel the first error's +2.
        let inj = ScriptedInjector::new([
            ScriptedFault::transient_flip(100, bits::SIGN_BIT)
                .on_replica(1)
                .at_site(FaultSite::Multiplier),
            ScriptedFault::transient_flip(101, bits::SIGN_BIT)
                .on_replica(1)
                .at_site(FaultSite::Accumulator),
        ]);
        let mut alu = DmrAlu::new(inj);
        let err = reliable_conv2d(
            &input,
            &filters,
            Some(&bias),
            &geom,
            &mut alu,
            &ReliableConvConfig::default(),
        );
        assert!(
            matches!(err, Err(ExecError::PersistentFailure { .. })),
            "two successive errors must be reported: {err:?}"
        );
    }

    #[test]
    fn no_retry_policy_fails_fast() {
        let (input, filters, bias, geom) = small_problem();
        let inj = ScriptedInjector::new([ScriptedFault::transient_flip(10, bits::SIGN_BIT)
            .on_replica(0)
            .at_site(FaultSite::Multiplier)]);
        let mut alu = DmrAlu::new(inj);
        let config = ReliableConvConfig {
            bucket: BucketConfig::new(1, 100),
            retry: RetryPolicy::none(),
            pe_count: 8,
        };
        let err = reliable_conv2d(&input, &filters, Some(&bias), &geom, &mut alu, &config);
        assert!(matches!(
            err,
            Err(ExecError::UnrecoverableOperation { op_index: 10, .. })
        ));
    }

    #[test]
    fn shape_validation_errors() {
        let (input, filters, bias, geom) = small_problem();
        let config = ReliableConvConfig::default();
        let mut alu = PlainAlu::new(NoFaults::new());
        // Wrong input rank.
        let flat = input.reshape(vec![2 * 5 * 5]).unwrap();
        assert!(matches!(
            reliable_conv2d(&flat, &filters, Some(&bias), &geom, &mut alu, &config),
            Err(ExecError::Tensor(_))
        ));
        // Wrong filter channel count.
        let bad_filters = Tensor::zeros(Shape::d4(3, 1, 3, 3));
        assert!(
            reliable_conv2d(&input, &bad_filters, Some(&bias), &geom, &mut alu, &config).is_err()
        );
        // Wrong bias length.
        let bad_bias = Tensor::zeros(Shape::d1(2));
        assert!(
            reliable_conv2d(&input, &filters, Some(&bad_bias), &geom, &mut alu, &config).is_err()
        );
        // Wrong geometry.
        let bad_geom = ConvGeometry::new(6, 6, 3, 3, 1, 0).unwrap();
        assert!(
            reliable_conv2d(&input, &filters, Some(&bias), &bad_geom, &mut alu, &config).is_err()
        );
    }

    #[test]
    fn reliable_relu_matches_and_recovers() {
        let input =
            Tensor::from_vec(Shape::d3(1, 2, 3), vec![-1.5, 2.0, 0.0, -0.25, 3.5, -7.0]).unwrap();
        // Fault-free: exact ReLU.
        let mut alu = DmrAlu::new(NoFaults::new());
        let out = reliable_relu(&input, &mut alu, &ReliableConvConfig::default()).unwrap();
        assert_eq!(out.output.as_slice(), &[0.0, 2.0, 0.0, 0.0, 3.5, 0.0]);
        assert_eq!(out.stats.acc_ops, 6);
        assert_eq!(out.stats.failed_ops, 0);

        // Transient comparator fault in one replica: detected + recovered.
        let inj = ScriptedInjector::new([ScriptedFault::transient_flip(1, bits::SIGN_BIT)
            .on_replica(1)
            .at_site(FaultSite::Comparator)]);
        let mut alu = DmrAlu::new(inj);
        let out = reliable_relu(&input, &mut alu, &ReliableConvConfig::default()).unwrap();
        assert_eq!(out.stats.recovered, 1);
        assert_eq!(out.output.as_slice(), &[0.0, 2.0, 0.0, 0.0, 3.5, 0.0]);

        // Permanent comparator fault: escalated.
        let inj = ScriptedInjector::new([ScriptedFault::transient_flip(1, bits::SIGN_BIT)
            .on_replica(1)
            .at_site(FaultSite::Comparator)
            .permanent()]);
        let mut alu = DmrAlu::new(inj);
        let err = reliable_relu(&input, &mut alu, &ReliableConvConfig::default());
        assert!(matches!(err, Err(ExecError::PersistentFailure { .. })));
    }

    #[test]
    fn reliable_relu_plain_is_silent_under_faults() {
        let input = Tensor::from_vec(Shape::d1(4), vec![1.0, -1.0, 2.0, -2.0]).unwrap();
        let inj = ScriptedInjector::new([
            ScriptedFault::transient_flip(0, bits::SIGN_BIT).at_site(FaultSite::Comparator)
        ]);
        let mut alu = PlainAlu::new(inj);
        let out = reliable_relu(&input, &mut alu, &ReliableConvConfig::default()).unwrap();
        assert_eq!(out.stats.failed_ops, 0, "Algorithm 1 qualifier blind");
        assert_eq!(out.output.as_slice()[0], -1.0, "corruption passed through");
    }

    #[test]
    fn ber_injected_dmr_conv_recovers_sparse_faults() {
        // Sparse random faults: DMR + rollback should converge to golden.
        let (input, filters, bias, geom) = small_problem();
        let golden = conv2d(&input, &filters, Some(&bias), &geom).unwrap();
        let inj = BerInjector::new(33, 2e-4).with_sites(vec![FaultSite::Multiplier]);
        let mut alu = DmrAlu::new(inj);
        let out = reliable_conv2d(
            &input,
            &filters,
            Some(&bias),
            &geom,
            &mut alu,
            &ReliableConvConfig::default(),
        )
        .unwrap();
        for (a, b) in out.output.iter().zip(golden.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
        assert_eq!(out.stats.recovered, out.stats.retries);
    }
}
