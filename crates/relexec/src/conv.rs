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

/// What the reliable kernel executes for one geometry: each output row's
/// and column's valid taps, and how many MACs each output pixel executes.
/// Built once per call; the kernel then walks each window's valid taps as
/// slices, with no border test and no bounds-checked load per tap.
#[derive(Debug)]
struct ConvPlan {
    rows: Vec<Taps>,
    cols: Vec<Taps>,
    out_c: usize,
    /// Executed MACs of the pixels before each pixel of one output channel
    /// (row-major), with the channel's total as the last entry.
    macs_before: Vec<u64>,
}

impl ConvPlan {
    fn new(geom: &ConvGeometry, in_c: usize, out_c: usize) -> ConvPlan {
        let (stride, pad) = (geom.stride(), geom.padding());
        let rows: Vec<Taps> = (0..geom.out_h())
            .map(|oy| Taps::new(oy, stride, pad, geom.k_h(), geom.in_h()))
            .collect();
        let cols: Vec<Taps> = (0..geom.out_w())
            .map(|ox| Taps::new(ox, stride, pad, geom.k_w(), geom.in_w()))
            .collect();
        let mut macs_before = Vec::with_capacity(rows.len() * cols.len() + 1);
        let mut total = 0u64;
        macs_before.push(total);
        for row in &rows {
            for col in &cols {
                total += (in_c * row.len() * col.len()) as u64;
                macs_before.push(total);
            }
        }
        ConvPlan {
            rows,
            cols,
            out_c,
            macs_before,
        }
    }

    /// MACs one output channel executes.
    fn plane_macs(&self) -> u64 {
        self.macs_before[self.macs_before.len() - 1]
    }

    /// MACs one call executes: the taps that are not padding, over every
    /// input and output channel.
    fn executed_macs(&self) -> u64 {
        self.out_c as u64 * self.plane_macs()
    }

    /// The flat output index (`oc`, `oy`, `ox`, row-major) of the pixel
    /// whose MAC runs qualified operation `op_index` (each MAC runs a
    /// multiply, then an accumulate), or `None` past the last operation.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn pixel_of_op(&self, op_index: u64) -> Option<usize> {
        let mac = op_index / 2;
        if mac >= self.executed_macs() {
            return None;
        }
        let (oc, mac) = (mac / self.plane_macs(), mac % self.plane_macs());
        let pixel = self.macs_before.partition_point(|&before| before <= mac) - 1;
        Some(oc as usize * (self.macs_before.len() - 1) + pixel)
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
    let plan = ConvPlan::new(geom, in_c, out_c);

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

    /// Every executed tap of the reference loop nest, in execution order, as
    /// the flat output index of its pixel.
    fn brute_force_taps(geom: &ConvGeometry, in_c: usize, out_c: usize) -> Vec<usize> {
        let pad = geom.padding() as isize;
        let mut taps = Vec::new();
        for oc in 0..out_c {
            for oy in 0..geom.out_h() {
                for ox in 0..geom.out_w() {
                    let iy0 = (oy * geom.stride()) as isize - pad;
                    let ix0 = (ox * geom.stride()) as isize - pad;
                    for _ic in 0..in_c {
                        for ky in 0..geom.k_h() {
                            let iy = iy0 + ky as isize;
                            if iy < 0 || iy >= geom.in_h() as isize {
                                continue;
                            }
                            for kx in 0..geom.k_w() {
                                let ix = ix0 + kx as isize;
                                if ix < 0 || ix >= geom.in_w() as isize {
                                    continue;
                                }
                                taps.push((oc * geom.out_h() + oy) * geom.out_w() + ox);
                            }
                        }
                    }
                }
            }
        }
        taps
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
            let ops = 2 * ConvPlan::new(&case.geom, in_c, out_c).executed_macs();
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

        /// Under no faults every counter is a closed form of the plan: one
        /// multiply and one accumulate per executed MAC, the best-case
        /// cycles plus one load per bias, and one exposure per bias load,
        /// per operand load and per replica of each qualified operation.
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
            seed in any::<u64>(),
        ) {
            prop_assume!(in_h + 2 * pad >= k_h && in_w + 2 * pad >= k_w);
            let case = random_case(
                in_h, in_w, k_h, k_w, stride, pad, in_c, out_c, true, seed,
            );
            let plan = ConvPlan::new(&case.geom, in_c, out_c);
            let macs = plan.executed_macs();
            let pixels = (out_c * case.geom.positions()) as u64;
            let cost = OpCost::default();
            let config = ReliableConvConfig::default();
            let observed = [
                observe::<_, 1>(false, NoFaults::new(), &case, &config),
                observe::<_, 2>(false, NoFaults::new(), &case, &config),
                observe::<_, 3>(false, NoFaults::new(), &case, &config),
            ];
            for (mode, (result, injector, op_count, cycles)) in
                RedundancyMode::ALL.into_iter().zip(observed)
            {
                let replicas = mode.replicas() as u64;
                let (_, stats) = result.expect("no faults, no abort");
                prop_assert_eq!(stats.mul_ops, macs);
                prop_assert_eq!(stats.acc_ops, macs);
                prop_assert_eq!(op_count, 2 * macs);
                prop_assert_eq!(cycles, macs * cost.mac_best(mode) + pixels * cost.load);
                prop_assert_eq!(stats.cycles, cycles);
                prop_assert_eq!(injector.exposures, pixels + macs * (2 + 2 * replicas));
            }
        }
    }

    #[test]
    fn op_to_pixel_lookup_is_the_loop_nest() {
        for (geom, in_c, out_c) in [
            (ConvGeometry::new(12, 12, 5, 5, 2, 2).unwrap(), 3, 4),
            (ConvGeometry::new(7, 5, 3, 4, 3, 4).unwrap(), 2, 3),
            (ConvGeometry::new(2, 2, 1, 1, 1, 3).unwrap(), 1, 2),
            (ConvGeometry::new(1, 1, 1, 1, 3, 2).unwrap(), 2, 2),
        ] {
            let plan = ConvPlan::new(&geom, in_c, out_c);
            let taps = brute_force_taps(&geom, in_c, out_c);
            assert_eq!(plan.executed_macs(), taps.len() as u64, "{geom:?}");
            for (op, &pixel) in taps.iter().flat_map(|p| [p, p]).enumerate() {
                assert_eq!(plan.pixel_of_op(op as u64), Some(pixel), "{geom:?} op {op}");
            }
            assert_eq!(plan.pixel_of_op(2 * taps.len() as u64), None, "{geom:?}");
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
    fn op_counts_match_mac_count() {
        let (input, filters, bias, geom) = small_problem();
        let mut inj = NoFaults::new();
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
