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
use crate::cost::OpCost;
use crate::error::ExecError;
use crate::policy::{RedundancyMode, RetryPolicy};
use crate::qualified::Qualified;
use relcnn_faults::FaultInjector;
use relcnn_tensor::conv::{validate_conv_shapes, ConvGeometry};
use relcnn_tensor::{Shape, Tensor};
use serde::{Deserialize, Serialize};
use std::ops::Range;

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
    /// The convolution's output before the ReLU stage, when
    /// [`reliable_partition`] ran one; `None` otherwise. Handed on, not
    /// copied: consumers of the unrectified maps (the Figure-2 qualifier)
    /// read these qualified results.
    pub pre_relu: Option<Tensor>,
}

/// Algorithm 3's regime around one ALU: every operation is assumed failed
/// unless its qualifier asserts otherwise, a failed one is rolled back and
/// re-executed within the retry budget, and the leaky bucket escalates a
/// persistent error pattern into an abort.
///
/// The retry loop stays inline in [`qualified`](Self::qualified), although
/// it is cold. Outlined as a `#[cold] #[inline(never)]` method on
/// `&mut self`, it takes the regime's address, so the bucket, the counters
/// and the ALU pointer go through memory around every replica's
/// `black_box`: on a 3×96×96 input under 96 11×11 stride-4 filters (2-vCPU
/// Xeon) DMR went from 45 to 200 ms and TMR from 52 to 199 ms per call;
/// Plain, which never retries, did not move.
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

/// The valid kernel taps of one output row (or column): the kernel indices
/// whose input index lies inside the image, and the input index of the
/// first of them. Empty when the window lies wholly in padding.
#[derive(Debug)]
struct Taps {
    k: Range<usize>,
    first: usize,
}

impl Taps {
    /// Output index `o`'s window: input indices `o·stride − pad + (0..k)`
    /// over an input of `len`.
    fn new(o: usize, stride: usize, pad: usize, k: usize, len: usize) -> Taps {
        let start = o * stride;
        let k0 = pad.saturating_sub(start);
        let k1 = (len + pad).saturating_sub(start).min(k);
        if k0 >= k1 {
            return Taps { k: 0..0, first: 0 };
        }
        Taps {
            k: k0..k1,
            first: start + k0 - pad,
        }
    }

    /// `#[inline]`, like [`is_empty`](Self::is_empty): the kernel is
    /// generic, so it is compiled in the caller's crate, where a non-generic
    /// function is an out-of-line call. A call inside the kernel's loop nest
    /// clobbers every vector register, the accumulator is then kept in
    /// memory, and each MAC's dependency chain pays a store and a reload.
    /// On the input measured in [`Regime`]'s note, DMR took 75 ms per call
    /// without `#[inline]` here and 42 ms with it.
    #[inline]
    fn len(&self) -> usize {
        self.k.len()
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.k.is_empty()
    }
}

/// What the reliable partition executes for one convolution: each output
/// row's and column's valid taps, whether a bias enters every output pixel,
/// and whether the ReLU stage rectifies every output. The one count of
/// Algorithm 3's qualified operations: the kernel walks its taps as slices,
/// with no border test and no bounds-checked load per tap, and the cost
/// model and the guarantee read their operation counts and cycles from it.
///
/// Per output pixel, the bias (when there is one) enters as one weight
/// load; each MAC is a weight load, an activation load, a qualified
/// multiply and a qualified accumulate over a tap that is not padding; the
/// ReLU stage (when it runs) adds one qualified rectification per output.
///
/// ```rust
/// use relcnn_relexec::conv::ConvPlan;
/// use relcnn_relexec::cost::OpCost;
/// use relcnn_relexec::RedundancyMode;
/// use relcnn_tensor::conv::ConvGeometry;
///
/// // 3 -> 4 channels, 3x3 kernel, stride 1, padding 1, on a 5x5 input:
/// // the border pixels skip the taps that fall in padding.
/// let geom = ConvGeometry::new(5, 5, 3, 3, 1, 1).unwrap();
/// let plan = ConvPlan::new(&geom, 3, 4, true, false);
/// assert_eq!(plan.executed_macs(), 2028);
/// assert_eq!(plan.qualified_ops(), 2 * 2028);
/// assert_eq!(plan.bcet(RedundancyMode::Plain, &OpCost::default()), 14_296);
/// ```
#[derive(Debug)]
pub struct ConvPlan {
    rows: Vec<Taps>,
    cols: Vec<Taps>,
    geom: ConvGeometry,
    in_c: usize,
    out_c: usize,
    bias: bool,
    relu: bool,
}

impl ConvPlan {
    /// The plan of a convolution of `in_c` input channels under `out_c`
    /// filters over `geom`, with a bias per filter when `bias`, followed
    /// by the reliable ReLU stage when `relu`.
    pub fn new(geom: &ConvGeometry, in_c: usize, out_c: usize, bias: bool, relu: bool) -> Self {
        let (stride, pad) = (geom.stride(), geom.padding());
        ConvPlan {
            rows: (0..geom.out_h())
                .map(|oy| Taps::new(oy, stride, pad, geom.k_h(), geom.in_h()))
                .collect(),
            cols: (0..geom.out_w())
                .map(|ox| Taps::new(ox, stride, pad, geom.k_w(), geom.in_w()))
                .collect(),
            geom: *geom,
            in_c,
            out_c,
            bias,
            relu,
        }
    }

    /// MACs executed: the taps that are not padding, over every input and
    /// output channel, `in_c · out_c · Σ row taps · Σ column taps`.
    pub fn executed_macs(&self) -> u64 {
        let taps = |axis: &[Taps]| axis.iter().map(|t| t.len() as u64).sum::<u64>();
        (self.in_c * self.out_c) as u64 * taps(&self.rows) * taps(&self.cols)
    }

    /// Output elements: one per filter and window position.
    fn outputs(&self) -> u64 {
        (self.out_c * self.geom.positions()) as u64
    }

    /// Rectifications the ReLU stage executes: one per output, or none.
    fn relu_ops(&self) -> u64 {
        u64::from(self.relu) * self.outputs()
    }

    /// Bias loads: one per output pixel when there is a bias.
    fn bias_loads(&self) -> u64 {
        u64::from(self.bias) * self.outputs()
    }

    /// Qualified operations issued (retries re-use their operation's
    /// index): a multiply and an accumulate per MAC, and a rectification
    /// per output of the ReLU stage.
    pub fn qualified_ops(&self) -> u64 {
        2 * self.executed_macs() + self.relu_ops()
    }

    /// Best-case cycles of the partition under `mode`: every operation
    /// qualifies at its first attempt. A fault-free run consumes exactly
    /// this many.
    pub fn bcet(&self, mode: RedundancyMode, cost: &OpCost) -> u64 {
        self.executed_macs() * cost.mac_best(mode)
            + self.bias_loads() * cost.load
            + self.relu_ops() * cost.acc_op(mode)
    }

    /// Worst-case cycles of the partition under `mode` and `retry`: every
    /// attempt of every qualified operation fails until the retry budget is
    /// exhausted, each retry paying the rollback penalty. The leaky bucket
    /// is not modelled, so this bounds every completed run from above.
    pub fn wcet(&self, mode: RedundancyMode, cost: &OpCost, retry: RetryPolicy) -> u64 {
        let retries = u64::from(retry.max_retries);
        let relu_worst = (1 + retries) * cost.acc_op(mode) + retries * cost.rollback;
        self.executed_macs() * cost.mac_worst(mode, retry)
            + self.bias_loads() * cost.load
            + self.relu_ops() * relu_worst
    }
}

/// Algorithm 3: one full convolution layer executed reliably.
///
/// Every multiply and every accumulate is a qualified operation on `alu`;
/// a failed qualifier triggers a single-operation rollback and retry, and
/// the leaky bucket escalates persistent error patterns into an abort.
/// Operations run per output pixel in ascending `ic, ky, kx` order over
/// the taps that are not padding, each MAC as weight load, activation
/// load, multiply, accumulate; a bias enters first as one weight load.
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
    let pe_count = config.pe_count.max(1);
    let plan = ConvPlan::new(geom, in_c, out_c, bias.is_some(), false);

    let x = input.as_slice();
    let f = filters.as_slice();
    let mut ops = Regime::new(alu, config);
    let mut out = vec![0.0f32; out_c * out_h * out_w];

    for oc in 0..out_c {
        ops.alu.set_pe(oc as u32 % pe_count);
        let f_base = oc * in_c * k_h * k_w;
        let bias_v = bias.map(|b| b.as_slice()[oc]).unwrap_or(0.0);
        for (oy, row) in plan.rows.iter().enumerate() {
            for (ox, col) in plan.cols.iter().enumerate() {
                // The bias enters through the (common-mode) weight path.
                let mut acc = if bias.is_some() {
                    ops.alu.load_weight(bias_v)
                } else {
                    0.0
                };
                // A window wholly in padding executes no MAC; skipping it
                // here keeps its empty ranges out of the slicing below.
                if !row.is_empty() && !col.is_empty() {
                    for ic in 0..in_c {
                        let x_chan = &x[ic * in_h * in_w..][..in_h * in_w];
                        let f_chan = &f[f_base + ic * k_h * k_w..][..k_h * k_w];
                        for (ky, iy) in row.k.clone().zip(row.first..) {
                            let f_row = &f_chan[ky * k_w + col.k.start..][..col.len()];
                            let x_row = &x_chan[iy * in_w + col.first..][..col.len()];
                            for (&fw, &xa) in f_row.iter().zip(x_row) {
                                let w = ops.alu.load_weight(fw);
                                let a = ops.alu.load_activation(xa);
                                let m = ops.mul(w, a)?;
                                acc = ops.acc(acc, m)?;
                            }
                        }
                    }
                }
                out[oc * out_h * out_w + oy * out_w + ox] = acc;
            }
        }
    }

    // Retries re-use their operation's index and are not counted again.
    debug_assert_eq!(ops.stats.mul_ops, plan.executed_macs());
    Ok(ConvOutput {
        output: Tensor::from_vec(Shape::d3(out_c, out_h, out_w), out)?,
        stats: ops.finish(),
        pre_relu: None,
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
        pre_relu: None,
    })
}

/// The reliable partition under a runtime-chosen redundancy mode: one
/// [`reliable_conv2d`] and, when `relu` extends the partition, a
/// [`reliable_relu`] over its output — each stage on a fresh ALU (operation
/// index and cycles from 0) built around a borrow of `injector`, whose
/// fault stream and counters therefore run on from stage to stage and stand
/// where execution stopped, also on an abort. The returned statistics are
/// the convolution's with the ReLU stage's operations, failures, retries,
/// recoveries and cycles added and the higher of the two bucket peaks; the
/// convolution's own output is then [`ConvOutput::pre_relu`]. A fault-free
/// run's counters are [`ConvPlan`]'s.
///
/// This is the workspace's one `RedundancyMode` → ALU type dispatch, and
/// the way in for every caller that runs or times the kernel, also when its
/// mode is known statically: each stage's ALU is a local here, so the
/// kernel is the instantiation `classify` runs. Only the kernels' own tests
/// build a [`PlainAlu`](crate::PlainAlu), [`DmrAlu`](crate::DmrAlu) or
/// [`TmrAlu`](crate::TmrAlu) around `&mut injector` and call
/// [`reliable_conv2d`] or [`reliable_relu`] directly.
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
    let mut alu = Alu::<_, N>::new(&mut *injector);
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
        pre_relu: Some(conv.output),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alu::{DmrAlu, PlainAlu, TmrAlu};
    use crate::cost::OpCost;
    use proptest::prelude::*;
    use relcnn_faults::{
        bits, BerInjector, FaultSite, InjectorStats, NoFaults, ScriptedFault, ScriptedInjector,
    };
    use relcnn_tensor::conv::conv2d;
    use relcnn_tensor::init::{Init, Rand};

    /// The kernel as it was before it walked a [`ConvPlan`], kept verbatim:
    /// a border test per tap row and per tap, and indexed loads. The oracle
    /// the plan kernel must match bit for bit and counter for counter.
    fn reference_conv2d<A: QualifiedAlu>(
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
            pre_relu: None,
        })
    }

    /// One run's every observable: the output bits and `ExecStats` (or the
    /// abort), then the injector's counters, the ALU's operation count and
    /// its cycles.
    type Observed = (
        Result<(Vec<u32>, ExecStats), ExecError>,
        InjectorStats,
        u64,
        u64,
    );

    struct Case {
        input: Tensor,
        filters: Tensor,
        bias: Option<Tensor>,
        geom: ConvGeometry,
    }

    fn observe<I: FaultInjector, const N: usize>(
        reference: bool,
        mut injector: I,
        case: &Case,
        config: &ReliableConvConfig,
    ) -> Observed {
        let mut alu = Alu::<&mut I, N>::new(&mut injector);
        let kernel = if reference {
            reference_conv2d::<Alu<&mut I, N>>
        } else {
            reliable_conv2d::<Alu<&mut I, N>>
        };
        let result = kernel(
            &case.input,
            &case.filters,
            case.bias.as_ref(),
            &case.geom,
            &mut alu,
            config,
        )
        .map(|out| (out.output.iter().map(|v| v.to_bits()).collect(), out.stats));
        (result, alu.injector_stats(), alu.op_count(), alu.cycles())
    }

    /// The plan kernel equals the reference under a fresh `injector()` on
    /// every mode.
    fn matches_reference<I: FaultInjector>(
        injector: impl Fn() -> I,
        case: &Case,
        config: &ReliableConvConfig,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(
            observe::<I, 1>(false, injector(), case, config),
            observe::<I, 1>(true, injector(), case, config)
        );
        prop_assert_eq!(
            observe::<I, 2>(false, injector(), case, config),
            observe::<I, 2>(true, injector(), case, config)
        );
        prop_assert_eq!(
            observe::<I, 3>(false, injector(), case, config),
            observe::<I, 3>(true, injector(), case, config)
        );
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn random_case(
        in_h: usize,
        in_w: usize,
        k_h: usize,
        k_w: usize,
        stride: usize,
        pad: usize,
        in_c: usize,
        out_c: usize,
        with_bias: bool,
        seed: u64,
    ) -> Case {
        let mut rng = Rand::seeded(seed);
        let uniform = Init::Uniform { lo: -2.0, hi: 2.0 };
        Case {
            input: rng.tensor(Shape::d3(in_c, in_h, in_w), uniform),
            filters: rng.tensor(Shape::d4(out_c, in_c, k_h, k_w), uniform),
            bias: with_bias.then(|| rng.tensor(Shape::d1(out_c), uniform)),
            geom: ConvGeometry::new(in_h, in_w, k_h, k_w, stride, pad).unwrap(),
        }
    }

    /// The MACs the reference loop nest executes: its taps that are not
    /// padding, counted one by one.
    fn brute_force_macs(geom: &ConvGeometry, in_c: usize, out_c: usize) -> u64 {
        let pad = geom.padding() as isize;
        let inside = |o: usize, k: usize, len: usize| {
            let i = (o * geom.stride()) as isize - pad + k as isize;
            (0..len as isize).contains(&i)
        };
        let mut macs = 0;
        for oy in 0..geom.out_h() {
            for ox in 0..geom.out_w() {
                for ky in 0..geom.k_h() {
                    for kx in 0..geom.k_w() {
                        if inside(oy, ky, geom.in_h()) && inside(ox, kx, geom.in_w()) {
                            macs += (in_c * out_c) as u64;
                        }
                    }
                }
            }
        }
        macs
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The plan kernel is the reference kernel: equal output bits,
        /// `ExecStats`, injector counters, operation count and cycles, or
        /// an equal abort, per mode, under no faults, one scripted fault
        /// (transient or permanent, at a random executed operation,
        /// replica and site) and a 1e-3 BER stream under three regimes:
        /// the paper's, a lenient bucket with two retries (recoveries), and
        /// `BucketConfig::new(2, 3)` without retries (every detected fault
        /// aborts) — over geometries whose padding reaches past the kernel.
        #[test]
        fn plan_kernel_is_the_reference_kernel(
            in_h in 1usize..=9,
            in_w in 1usize..=9,
            k_h in 1usize..=5,
            k_w in 1usize..=5,
            stride in 1usize..=4,
            pad in 0usize..=4,
            in_c in 1usize..=3,
            out_c in 1usize..=3,
            pe_count in 1u32..=4,
            with_bias in any::<bool>(),
            seed in any::<u64>(),
            fault_at in 0.0f64..1.0,
            fault_replica in 0u8..3,
            fault_site in 0usize..4,
            permanent in any::<bool>(),
        ) {
            prop_assume!(in_h + 2 * pad >= k_h && in_w + 2 * pad >= k_w);
            let case = random_case(
                in_h, in_w, k_h, k_w, stride, pad, in_c, out_c, with_bias, seed,
            );
            let paper = ReliableConvConfig {
                pe_count,
                ..ReliableConvConfig::default()
            };
            let lenient = ReliableConvConfig {
                bucket: BucketConfig::new(1, 64),
                retry: RetryPolicy::with_retries(2),
                pe_count,
            };
            let strict = ReliableConvConfig {
                bucket: BucketConfig::new(2, 3),
                retry: RetryPolicy::none(),
                pe_count,
            };
            matches_reference(NoFaults::new, &case, &paper)?;
            let ops = ConvPlan::new(&case.geom, in_c, out_c, with_bias, false).qualified_ops();
            let site = FaultSite::ALL[fault_site];
            let scripted = || {
                let fault = ScriptedFault::transient_flip((fault_at * ops as f64) as u64, bits::SIGN_BIT)
                    .on_replica(fault_replica)
                    .at_site(site);
                ScriptedInjector::new([if permanent { fault.permanent() } else { fault }])
            };
            matches_reference(scripted, &case, &paper)?;
            for config in [paper, lenient, strict] {
                matches_reference(|| BerInjector::new(seed, 1e-3), &case, &config)?;
            }
        }

        /// Under no faults every counter of `reliable_partition` is a
        /// closed form of the plan, with and without a bias and the ReLU
        /// stage, in every mode.
        #[test]
        fn fault_free_counters_are_closed_forms_of_the_plan(
            in_h in 1usize..=9,
            in_w in 1usize..=9,
            k_h in 1usize..=5,
            k_w in 1usize..=5,
            stride in 1usize..=4,
            pad in 0usize..=4,
            in_c in 1usize..=3,
            out_c in 1usize..=3,
            with_bias in any::<bool>(),
            relu in any::<bool>(),
            seed in any::<u64>(),
        ) {
            prop_assume!(in_h + 2 * pad >= k_h && in_w + 2 * pad >= k_w);
            let case = random_case(
                in_h, in_w, k_h, k_w, stride, pad, in_c, out_c, with_bias, seed,
            );
            for mode in RedundancyMode::ALL {
                run_clean(&case, relu, mode)?;
            }
        }
    }

    /// Runs `case` fault-free through [`reliable_partition`] and checks
    /// every counter against the plan's closed forms: one multiply per
    /// executed MAC, an accumulate per MAC and per rectification, one
    /// exposure per bias load, per operand load and per replica of each
    /// qualified operation, and the plan's best-case cycles. Returns the
    /// cycles.
    fn run_clean(case: &Case, relu: bool, mode: RedundancyMode) -> Result<u64, TestCaseError> {
        let (in_c, out_c) = (case.input.shape().dim(0), case.filters.shape().dim(0));
        let with_bias = case.bias.is_some();
        let plan = ConvPlan::new(&case.geom, in_c, out_c, with_bias, relu);
        let mut injector = NoFaults::new();
        let out = reliable_partition(
            mode,
            &case.input,
            &case.filters,
            case.bias.as_ref(),
            &case.geom,
            relu,
            &mut injector,
            &ReliableConvConfig::default(),
        )
        .expect("no faults, no abort");
        let (macs, ops) = (plan.executed_macs(), plan.qualified_ops());
        let outputs = (out_c * case.geom.positions()) as u64;
        let loads = 2 * macs + if with_bias { outputs } else { 0 };
        prop_assert_eq!(out.stats.mul_ops, macs);
        prop_assert_eq!(out.stats.mul_ops + out.stats.acc_ops, ops);
        prop_assert_eq!(out.stats.cycles, plan.bcet(mode, &OpCost::default()));
        prop_assert_eq!(
            injector.stats().exposures,
            loads + mode.replicas() as u64 * ops
        );
        prop_assert_eq!(out.pre_relu.is_some(), relu);
        Ok(out.stats.cycles)
    }

    /// 3 -> 4 channels, a 3x3 kernel and stride 1 on a 5x5 input.
    fn probe_case(pad: usize, with_bias: bool) -> Case {
        random_case(5, 5, 3, 3, 1, pad, 3, 4, with_bias, 7)
    }

    #[test]
    fn padded_conv_costs_its_executed_taps() {
        // 2 028 of the 2 700 window taps lie inside the image.
        let case = probe_case(1, true);
        assert_eq!(
            ConvPlan::new(&case.geom, 3, 4, true, false).executed_macs(),
            2028
        );
        assert_eq!(
            run_clean(&case, false, RedundancyMode::Plain).unwrap(),
            14_296
        );
    }

    #[test]
    fn conv_without_bias_loads_none() {
        let case = probe_case(0, false);
        assert_eq!(
            run_clean(&case, false, RedundancyMode::Plain).unwrap(),
            6_804
        );
    }

    #[test]
    fn relu_stage_costs_one_rectification_per_output() {
        let case = probe_case(0, true);
        assert_eq!(
            run_clean(&case, true, RedundancyMode::Plain).unwrap(),
            6_876
        );
    }

    #[test]
    fn production_conv1_costs_what_the_plan_says() {
        // Conv-1 of the 96 px model: 96 filters of 11x11x3 at stride 4.
        let case = random_case(96, 96, 11, 11, 4, 0, 3, 96, true, 1);
        let cycles = RedundancyMode::ALL.map(|mode| run_clean(&case, false, mode).unwrap());
        // 46 464 outputs of 363 MACs each, plus one bias load per output.
        assert_eq!(cycles[0], 46_464 * (363 * 7 + 1));
    }

    #[test]
    fn executed_macs_count_the_loop_nest() {
        for (geom, in_c, out_c) in [
            (ConvGeometry::new(12, 12, 5, 5, 2, 2).unwrap(), 3, 4),
            (ConvGeometry::new(7, 5, 3, 4, 3, 4).unwrap(), 2, 3),
            (ConvGeometry::new(2, 2, 1, 1, 1, 3).unwrap(), 1, 2),
            (ConvGeometry::new(1, 1, 1, 1, 3, 2).unwrap(), 2, 2),
        ] {
            let plan = ConvPlan::new(&geom, in_c, out_c, true, false);
            assert_eq!(
                plan.executed_macs(),
                brute_force_macs(&geom, in_c, out_c),
                "{geom:?}"
            );
        }
    }

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

        let mut plain_inj = NoFaults::new();
        let mut plain = PlainAlu::new(&mut plain_inj);
        let mut dmr_inj = NoFaults::new();
        let mut dmr = DmrAlu::new(&mut dmr_inj);
        let mut tmr_inj = NoFaults::new();
        let mut tmr = TmrAlu::new(&mut tmr_inj);

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
    fn single_transient_fault_recovered_by_one_rollback() {
        let (input, filters, bias, geom) = small_problem();
        let golden = conv2d(&input, &filters, Some(&bias), &geom).unwrap();
        // Fault in replica 1 of multiply op #100.
        let mut inj = ScriptedInjector::new([ScriptedFault::transient_flip(100, bits::SIGN_BIT)
            .on_replica(1)
            .at_site(FaultSite::Multiplier)]);
        let mut alu = DmrAlu::new(&mut inj);
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
        let mut inj = ScriptedInjector::new([
            ScriptedFault::transient_flip(100, bits::SIGN_BIT).at_site(FaultSite::Multiplier)
        ]);
        let mut alu = PlainAlu::new(&mut inj);
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
        let mut inj = ScriptedInjector::new([ScriptedFault::transient_flip(10, bits::SIGN_BIT)
            .on_replica(1)
            .at_site(FaultSite::Multiplier)
            .permanent()]);
        let mut alu = DmrAlu::new(&mut inj);
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
        let mut inj = ScriptedInjector::new([ScriptedFault::transient_flip(50, bits::SIGN_BIT)
            .on_replica(2)
            .at_site(FaultSite::Multiplier)]);
        let mut alu = TmrAlu::new(&mut inj);
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
        let mut inj = ScriptedInjector::new([
            ScriptedFault::transient_flip(100, bits::SIGN_BIT)
                .on_replica(1)
                .at_site(FaultSite::Multiplier),
            ScriptedFault::transient_flip(500, bits::SIGN_BIT)
                .on_replica(1)
                .at_site(FaultSite::Multiplier),
        ]);
        let mut alu = DmrAlu::new(&mut inj);
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
        let mut inj = ScriptedInjector::new([
            ScriptedFault::transient_flip(100, bits::SIGN_BIT)
                .on_replica(1)
                .at_site(FaultSite::Multiplier),
            ScriptedFault::transient_flip(101, bits::SIGN_BIT)
                .on_replica(1)
                .at_site(FaultSite::Accumulator),
        ]);
        let mut alu = DmrAlu::new(&mut inj);
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
        let mut inj = ScriptedInjector::new([ScriptedFault::transient_flip(10, bits::SIGN_BIT)
            .on_replica(0)
            .at_site(FaultSite::Multiplier)]);
        let mut alu = DmrAlu::new(&mut inj);
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
        let mut inj = NoFaults::new();
        let mut alu = PlainAlu::new(&mut inj);
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
        let mut inj = NoFaults::new();
        let mut alu = DmrAlu::new(&mut inj);
        let out = reliable_relu(&input, &mut alu, &ReliableConvConfig::default()).unwrap();
        assert_eq!(out.output.as_slice(), &[0.0, 2.0, 0.0, 0.0, 3.5, 0.0]);
        assert_eq!(out.stats.acc_ops, 6);
        assert_eq!(out.stats.failed_ops, 0);

        // Transient comparator fault in one replica: detected + recovered.
        let mut inj = ScriptedInjector::new([ScriptedFault::transient_flip(1, bits::SIGN_BIT)
            .on_replica(1)
            .at_site(FaultSite::Comparator)]);
        let mut alu = DmrAlu::new(&mut inj);
        let out = reliable_relu(&input, &mut alu, &ReliableConvConfig::default()).unwrap();
        assert_eq!(out.stats.recovered, 1);
        assert_eq!(out.output.as_slice(), &[0.0, 2.0, 0.0, 0.0, 3.5, 0.0]);

        // Permanent comparator fault: escalated.
        let mut inj = ScriptedInjector::new([ScriptedFault::transient_flip(1, bits::SIGN_BIT)
            .on_replica(1)
            .at_site(FaultSite::Comparator)
            .permanent()]);
        let mut alu = DmrAlu::new(&mut inj);
        let err = reliable_relu(&input, &mut alu, &ReliableConvConfig::default());
        assert!(matches!(err, Err(ExecError::PersistentFailure { .. })));
    }

    #[test]
    fn partition_bucket_peak_includes_the_relu_stage() {
        let (input, filters, bias, geom) = small_problem();
        // The ReLU stage's ALU counts from operation 0 again, and only it
        // drives the comparator.
        let mut inj = ScriptedInjector::new([ScriptedFault::transient_flip(5, bits::SIGN_BIT)
            .on_replica(1)
            .at_site(FaultSite::Comparator)]);
        let config = ReliableConvConfig::default();
        let run = |relu, inj: &mut ScriptedInjector| {
            reliable_partition(
                RedundancyMode::Dmr,
                &input,
                &filters,
                Some(&bias),
                &geom,
                relu,
                inj,
                &config,
            )
            .unwrap()
        };
        let conv = run(false, &mut ScriptedInjector::new([]));
        let out = run(true, &mut inj);
        assert_eq!(conv.stats.bucket_peak, 0, "the convolution ran clean");
        assert_eq!(out.stats.recovered, 1);
        // One error raised the ReLU stage's bucket by its factor.
        assert_eq!(out.stats.bucket_peak, config.bucket.factor);
    }

    #[test]
    fn load_faults_are_one_exposure_on_replica_0() {
        let (input, filters, bias, geom) = small_problem();
        let golden = conv2d(&input, &filters, Some(&bias), &geom).unwrap();
        let run = |replica| {
            let mut inj =
                ScriptedInjector::new([ScriptedFault::transient_flip(100, bits::SIGN_BIT)
                    .on_replica(replica)
                    .at_site(FaultSite::WeightLoad)]);
            let out = reliable_partition(
                RedundancyMode::Dmr,
                &input,
                &filters,
                Some(&bias),
                &geom,
                false,
                &mut inj,
                &ReliableConvConfig::default(),
            )
            .unwrap();
            (out, inj.stats().injected)
        };
        // Both replicas multiply the corrupted weight: no comparison sees it.
        let (out, injected) = run(0);
        assert_eq!(injected, 1);
        assert_eq!(out.stats.failed_ops, 0, "common-mode corruption is silent");
        assert!(out
            .output
            .iter()
            .zip(golden.iter())
            .any(|(a, b)| (a - b).abs() > 1e-4));
        // A load is never exposed as replica 1.
        let (out, injected) = run(1);
        assert_eq!(injected, 0);
        for (a, b) in out.output.iter().zip(golden.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn reliable_relu_plain_is_silent_under_faults() {
        let input = Tensor::from_vec(Shape::d1(4), vec![1.0, -1.0, 2.0, -2.0]).unwrap();
        let mut inj = ScriptedInjector::new([
            ScriptedFault::transient_flip(0, bits::SIGN_BIT).at_site(FaultSite::Comparator)
        ]);
        let mut alu = PlainAlu::new(&mut inj);
        let out = reliable_relu(&input, &mut alu, &ReliableConvConfig::default()).unwrap();
        assert_eq!(out.stats.failed_ops, 0, "Algorithm 1 qualifier blind");
        assert_eq!(out.output.as_slice()[0], -1.0, "corruption passed through");
    }

    #[test]
    fn ber_injected_dmr_conv_recovers_sparse_faults() {
        // Sparse random faults: DMR + rollback should converge to golden.
        let (input, filters, bias, geom) = small_problem();
        let golden = conv2d(&input, &filters, Some(&bias), &geom).unwrap();
        let mut inj = BerInjector::new(33, 2e-4).with_sites(vec![FaultSite::Multiplier]);
        let mut alu = DmrAlu::new(&mut inj);
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
