//! Elementwise kernels, reductions and matrix multiplication.
//!
//! These are the *unprotected* numeric kernels: they execute once, carry no
//! qualifier, and serve as the "native execution" baseline the paper
//! compares its reliable operators against.

use crate::{Shape, Tensor, TensorError};

/// Row-block edge of the cache-blocked GEMM kernel.
///
/// A block of output rows whose A-panel (`BLOCK_I × k` floats) stays
/// register/L1-friendly while the B-panel is reused across the whole block.
const GEMM_BLOCK_I: usize = 64;

/// Column-block edge of the cache-blocked GEMM kernel.
///
/// The B-panel actually reused across an entire row block is
/// `k × BLOCK_J` floats; 128 columns keeps it L2-resident for every layer
/// geometry the AlexNet variants produce.
const GEMM_BLOCK_J: usize = 128;

/// Register accumulator tile: a `4 × 16` output patch lives in local
/// accumulators across the *entire* k loop and is stored once, instead
/// of re-loading and re-storing output on every k iteration — the
/// classic register-blocked GEMM micro-kernel. The row dimension is the
/// one that beats the memory wall: every 16-wide B load is consumed by
/// four A rows, so the B panel is swept once per *row group* instead of
/// once per row (4× less B traffic — the single-row variant measured
/// L2-bandwidth-bound, not ALU-bound, on the AlexNet layer shapes).
/// 4×16 keeps the accumulators plus a B chunk inside the 16 vector
/// registers. Per output element the accumulation order is untouched
/// (k ascending into one scalar slot, rows skip their own `a_ik == 0.0`
/// independently), so the tile is invisible to the bit-exactness
/// contract.
const GEMM_ROW_TILE: usize = 4;
const GEMM_COL_TILE: usize = 16;

/// Cache-blocked matrix multiply into a caller-owned buffer:
/// `out[m×n] = a[m×k] · b[k×n]`, allocation-free.
///
/// **Bit-exactness contract:** only the *i/j* (row/column) loops are tiled;
/// for every output element the k-accumulation runs in ascending order with
/// the same `a_ik == 0.0` skip as [`Tensor::matmul`], so each element's
/// floating-point operation sequence — and therefore its bit pattern —
/// is identical to the naive kernel. (The single caveat is the payload
/// of a NaN produced from *two* NaN operands, which is codegen-defined
/// on x86 and not pinned by either kernel; single-NaN propagation,
/// signed zeros and infinities are bit-exact.) Campaign verdict bits
/// (`confidence_bits`) and every byte-diffed artefact depend on this;
/// it is pinned by proptests.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when a slice length disagrees
/// with the given dimensions.
pub fn gemm_into(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) -> Result<(), TensorError> {
    gemm_kernel(m, k, n, a, b, None, out, GEMM_BLOCK_I, GEMM_BLOCK_J)
}

/// [`gemm_into`] with a fused per-row constant: computes
/// `out[i][j] = (a · b)[i][j] + bias[i]` in one pass, adding the bias at
/// store time — *after* each element's k-accumulation completes, exactly
/// where the separate "matmul, then add bias per row" sequence performs
/// the add. Bit-identical to the two-pass form, without re-reading the
/// whole output matrix. This is the convolution inference fast path.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when a slice length (including
/// `bias.len() != m`) disagrees with the given dimensions.
pub fn gemm_bias_into(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    out: &mut [f32],
) -> Result<(), TensorError> {
    if bias.len() != m {
        return Err(TensorError::LengthMismatch {
            expected: m,
            actual: bias.len(),
        });
    }
    gemm_kernel(m, k, n, a, b, Some(bias), out, GEMM_BLOCK_I, GEMM_BLOCK_J)
}

/// Shared body of the blocked GEMM entry points, with the block edges as
/// arguments so the tests can force non-tile-multiple and degenerate
/// blockings. `bias` is `None` for
/// the plain product; `Some(per-row constants)` adds `bias[i]` to every
/// element of row `i` at store time (after the element's accumulation
/// is complete — never folded into the k loop, the two-pass op order is
/// preserved). A `bias[i]` add happens exactly once per element and
/// only when `bias` is present: `x + 0.0` is *not* an f32 identity
/// (`-0.0 + 0.0 == +0.0`), so absence of bias must skip the add
/// entirely rather than add zero.
#[allow(clippy::too_many_arguments)]
fn gemm_kernel(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    block_i: usize,
    block_j: usize,
) -> Result<(), TensorError> {
    if a.len() != m * k {
        return Err(TensorError::LengthMismatch {
            expected: m * k,
            actual: a.len(),
        });
    }
    if b.len() != k * n {
        return Err(TensorError::LengthMismatch {
            expected: k * n,
            actual: b.len(),
        });
    }
    if out.len() != m * n {
        return Err(TensorError::LengthMismatch {
            expected: m * n,
            actual: out.len(),
        });
    }
    let block_i = block_i.max(1);
    let block_j = block_j.max(1);
    out.fill(0.0);
    if n == 1 {
        return gemv_unrolled(m, k, a, b, bias, out);
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the only obligation of calling this `#[target_feature]`
        // function is that the CPU supports AVX2, which the runtime
        // detection guard just established.
        #[allow(unsafe_code)]
        unsafe {
            simd::gemm_blocked_avx2(m, k, n, a, b, bias, out, block_i, block_j);
        }
        return Ok(());
    }
    gemm_blocked_body(m, k, n, a, b, bias, out, block_i, block_j);
    Ok(())
}

/// ISA-specialised recompilations of [`gemm_blocked_body`].
///
/// The portable build targets the x86-64 baseline (SSE2, 4-lane
/// vectors); every deployment CPU this workspace has seen carries AVX2
/// (8-lane). Recompiling the *identical* Rust body with the `avx2`
/// feature enabled lets LLVM pick wider registers without changing a
/// single operation: vectorisation here only runs *across* independent
/// output accumulators (the register tile), never across the k loop, so
/// each element's sequential "k ascending, skip `a_ik == 0.0`"
/// accumulation — the bit-exactness contract — is untouched. The `fma`
/// feature is deliberately NOT enabled: fused multiply-add skips the
/// intermediate rounding and would change output bits. The test
/// `portable_gemm_body_matches_the_dispatched_kernel` runs the portable
/// body against the dispatched kernel, so on an AVX2 host it checks this.
///
/// This module is the crate's single `unsafe` exception (see the crate
/// root's `deny(unsafe_code)` note): the one unsafe operation is calling
/// the `#[target_feature]` function, discharged by the runtime
/// `is_x86_feature_detected!` guard at the call site.
///
/// Kept on measurement. The rule: delete it unless, with dispatch forced
/// off, some end-to-end metric of the repo benchmark moves by more than
/// a third of its bound. Five alternating pairs on a 2-vCPU x86-64 host
/// read `frame_96` `setup_s` 1.86 → 2.05 s without it (+10.2 %, 4/5
/// pairs, IQR 1.8 %): training runs these kernels. The same runs read
/// `campaign_faults_48` `throughput_per_s` +10.8 % *better* without it
/// (IQR 2.2 / 4.1 %), so code layout moves that path both ways.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use super::gemm_blocked_body;

    /// [`gemm_blocked_body`] compiled with AVX2 enabled. Safe to call
    /// on any CPU that supports AVX2.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_blocked_avx2(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        bias: Option<&[f32]>,
        out: &mut [f32],
        block_i: usize,
        block_j: usize,
    ) {
        gemm_blocked_body(m, k, n, a, b, bias, out, block_i, block_j);
    }
}

/// The blocked/register-tiled GEMM loop nest, shared verbatim by the
/// portable path and the AVX2 recompilation. Dimension checks, output
/// zeroing and the n == 1 dispatch happen in [`gemm_kernel`]; this body
/// assumes consistent slice lengths.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn gemm_blocked_body(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    block_i: usize,
    block_j: usize,
) {
    for i0 in (0..m).step_by(block_i) {
        let i1 = (i0 + block_i).min(m);
        // Column blocks inside the row block: the `k × block_j` B-panel
        // stays cache-resident while every row of the block consumes it.
        for j0 in (0..n).step_by(block_j) {
            let j1 = (j0 + block_j).min(n);
            let width = j1 - j0;
            // Register-tiled body. The micro-kernel holds a
            // `GEMM_ROW_TILE × GEMM_COL_TILE` output patch in local
            // accumulators for the whole k loop and stores each chunk
            // exactly once; sharing every B load across the row group is
            // what beats the memory wall — a single-row tile re-reads
            // the full B panel once per output row. Per element the op
            // sequence is still "k ascending with the a_ik == 0.0 skip"
            // — identical to the naive kernel, only the memory traffic
            // changes.
            let mut i = i0;
            while i + GEMM_ROW_TILE <= i1 {
                let rows: [&[f32]; GEMM_ROW_TILE] =
                    core::array::from_fn(|t| &a[(i + t) * k..(i + t + 1) * k]);
                // When no row of the group contains a zero, the
                // `a_ik == 0.0` skip can never fire, so the branch-free
                // loop below performs the *same* op sequence with four
                // fewer compare-and-branches per k step. Real conv/dense
                // weights are never exactly 0.0, so inference always
                // takes this path; the checking loop remains for
                // sparse/synthetic operands.
                let zero_free = rows.iter().all(|r| r.iter().all(|&v| v != 0.0));
                let mut jc = 0;
                while jc + GEMM_COL_TILE <= width {
                    let col = j0 + jc;
                    let mut acc = [[0.0f32; GEMM_COL_TILE]; GEMM_ROW_TILE];
                    if zero_free {
                        // Manually unrolled over the four rows: named
                        // accumulators promote to vector registers,
                        // where an array indexed by the row loop
                        // variable spills to the stack.
                        let [r0, r1, r2, r3] = rows;
                        let [mut c0, mut c1, mut c2, mut c3] =
                            [[0.0f32; GEMM_COL_TILE]; GEMM_ROW_TILE];
                        for (kk, b_row) in b.chunks_exact(n).enumerate() {
                            let b_chunk = &b_row[col..col + GEMM_COL_TILE];
                            let (a0, a1, a2, a3) = (r0[kk], r1[kk], r2[kk], r3[kk]);
                            for ((((&b_kj, o0), o1), o2), o3) in b_chunk
                                .iter()
                                .zip(c0.iter_mut())
                                .zip(c1.iter_mut())
                                .zip(c2.iter_mut())
                                .zip(c3.iter_mut())
                            {
                                *o0 += a0 * b_kj;
                                *o1 += a1 * b_kj;
                                *o2 += a2 * b_kj;
                                *o3 += a3 * b_kj;
                            }
                        }
                        acc = [c0, c1, c2, c3];
                    } else {
                        for kk in 0..k {
                            let b_chunk = &b[kk * n + col..kk * n + col + GEMM_COL_TILE];
                            for (t, row) in rows.iter().enumerate() {
                                let a_ik = row[kk];
                                if a_ik == 0.0 {
                                    continue;
                                }
                                for (o, &b_kj) in acc[t].iter_mut().zip(b_chunk) {
                                    *o += a_ik * b_kj;
                                }
                            }
                        }
                    }
                    for (t, chunk) in acc.iter_mut().enumerate() {
                        if let Some(bs) = bias {
                            let bv = bs[i + t];
                            for o in chunk.iter_mut() {
                                *o += bv;
                            }
                        }
                        out[(i + t) * n + col..(i + t) * n + col + GEMM_COL_TILE]
                            .copy_from_slice(chunk);
                    }
                    jc += GEMM_COL_TILE;
                }
                if jc < width {
                    // Ragged right edge of the row group: one column at
                    // a time, but still sharing each B element across
                    // the four rows and accumulating in registers — the
                    // per-row in-place fallback re-sweeps the whole k
                    // range per row and measured ~2× slower here.
                    for j in (j0 + jc)..j1 {
                        let mut accr = [0.0f32; GEMM_ROW_TILE];
                        for kk in 0..k {
                            let b_kj = b[kk * n + j];
                            for (t, row) in rows.iter().enumerate() {
                                let a_ik = row[kk];
                                if a_ik != 0.0 {
                                    accr[t] += a_ik * b_kj;
                                }
                            }
                        }
                        for (t, &v) in accr.iter().enumerate() {
                            let mut v = v;
                            if let Some(bs) = bias {
                                v += bs[i + t];
                            }
                            out[(i + t) * n + j] = v;
                        }
                    }
                }
                i += GEMM_ROW_TILE;
            }
            // Leftover rows (fewer than a full row group): single-row
            // tiles, same per-element order.
            for i in i..i1 {
                let a_row = &a[i * k..(i + 1) * k];
                let bias_i = bias.map(|bs| bs[i]);
                let mut jc = 0;
                while jc + GEMM_COL_TILE <= width {
                    let col = j0 + jc;
                    let mut acc = [0.0f32; GEMM_COL_TILE];
                    for (kk, &a_ik) in a_row.iter().enumerate() {
                        if a_ik == 0.0 {
                            continue;
                        }
                        let b_chunk = &b[kk * n + col..kk * n + col + GEMM_COL_TILE];
                        for (o, &b_kj) in acc.iter_mut().zip(b_chunk) {
                            *o += a_ik * b_kj;
                        }
                    }
                    if let Some(bv) = bias_i {
                        for o in &mut acc {
                            *o += bv;
                        }
                    }
                    out[i * n + col..i * n + col + GEMM_COL_TILE].copy_from_slice(&acc);
                    jc += GEMM_COL_TILE;
                }
                if jc < width {
                    gemm_remainder_cols(n, a_row, b, out, i, j0 + jc, j1);
                    if let Some(bv) = bias_i {
                        for o in &mut out[i * n + j0 + jc..i * n + j1] {
                            *o += bv;
                        }
                    }
                }
            }
        }
    }
}

/// Remainder columns of one output row (a column block narrower than
/// the register tile, or its ragged right edge): the original in-place
/// accumulation over `out[i, j0..j1)`.
#[inline(always)]
fn gemm_remainder_cols(
    n: usize,
    a_row: &[f32],
    b: &[f32],
    out: &mut [f32],
    i: usize,
    j0: usize,
    j1: usize,
) {
    let o_row = &mut out[i * n + j0..i * n + j1];
    for (kk, &a_ik) in a_row.iter().enumerate() {
        if a_ik == 0.0 {
            continue;
        }
        let b_row = &b[kk * n + j0..kk * n + j1];
        for (o, &b_kj) in o_row.iter_mut().zip(b_row.iter()) {
            *o += a_ik * b_kj;
        }
    }
}

/// Number of output rows whose dot products run interleaved in the
/// matrix-vector fast path. Each row's accumulation is a *serial* FP add
/// chain (the bit-exactness contract forbids splitting it), so a single
/// row is latency-bound at one add per ~4 cycles; eight independent row
/// chains in flight hide that latency completely.
const GEMV_ROWS: usize = 8;

/// `n == 1` fast path of [`gemm_kernel`]: `out[m] = a[m×k] · b[k]`.
///
/// The general kernel degenerates badly here — its inner column loop has
/// length 1, so per-k slicing and loop overhead swamp the two useful
/// flops. Instead each output element keeps its own scalar accumulator
/// (k ascending, same `a_ik == 0.0` skip — the element's operation
/// sequence is exactly the naive kernel's) and [`GEMV_ROWS`] rows are
/// processed per pass so the independent add chains overlap.
fn gemv_unrolled(
    m: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
) -> Result<(), TensorError> {
    let mut i = 0;
    while i + GEMV_ROWS <= m {
        let rows: [&[f32]; GEMV_ROWS] = core::array::from_fn(|t| &a[(i + t) * k..(i + t + 1) * k]);
        let mut acc = [0.0f32; GEMV_ROWS];
        for (kk, &b_k) in b.iter().enumerate() {
            for t in 0..GEMV_ROWS {
                let a_ik = rows[t][kk];
                if a_ik != 0.0 {
                    acc[t] += a_ik * b_k;
                }
            }
        }
        if let Some(bs) = bias {
            for (o, &bv) in acc.iter_mut().zip(&bs[i..i + GEMV_ROWS]) {
                *o += bv;
            }
        }
        out[i..i + GEMV_ROWS].copy_from_slice(&acc);
        i += GEMV_ROWS;
    }
    for i in i..m {
        let a_row = &a[i * k..(i + 1) * k];
        let mut acc = 0.0f32;
        for (&a_ik, &b_k) in a_row.iter().zip(b.iter()) {
            if a_ik != 0.0 {
                acc += a_ik * b_k;
            }
        }
        if let Some(bs) = bias {
            acc += bs[i];
        }
        out[i] = acc;
    }
    Ok(())
}

/// Flat index of the largest element of a slice (`None` when empty), with
/// first-occurrence tie-breaking — the slice-level twin of
/// [`Tensor::argmax`], for the zero-allocation inference path.
pub fn argmax_slice(xs: &[f32]) -> Option<usize> {
    let mut best: Option<(usize, f32)> = None;
    for (i, &v) in xs.iter().enumerate() {
        match best {
            Some((_, bv)) if v <= bv => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

impl Tensor {
    /// Elementwise sum of two equal-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Elementwise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(rhs, "mul", |a, b| a * b)
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor::from_vec(self.shape().clone(), self.iter().map(|&v| f(v)).collect())
            .expect("map preserves length")
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.iter_mut() {
            *v = f(*v);
        }
    }

    /// Multiplies every element by `k`.
    pub fn scale(&self, k: f32) -> Tensor {
        self.map(|v| v * k)
    }

    /// Adds `k` to every element.
    pub fn shift(&self, k: f32) -> Tensor {
        self.map(|v| v + k)
    }

    /// In-place AXPY update: `self += alpha * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, rhs: &Tensor) -> Result<(), TensorError> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                expected: self.shape().dims().to_vec(),
                actual: rhs.shape().dims().to_vec(),
                op: "axpy",
            });
        }
        for (a, b) in self.iter_mut().zip(rhs.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.iter().sum()
    }

    /// Arithmetic mean of all elements (0.0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Population variance of all elements (0.0 for empty tensors).
    pub fn variance(&self) -> f32 {
        if self.is_empty() {
            return 0.0;
        }
        let m = self.mean();
        self.iter().map(|&v| (v - m) * (v - m)).sum::<f32>() / self.len() as f32
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f32 {
        self.variance().sqrt()
    }

    /// Largest element (`-inf` for empty tensors).
    pub fn max(&self) -> f32 {
        self.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Smallest element (`+inf` for empty tensors).
    pub fn min(&self) -> f32 {
        self.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Flat index of the largest element (`None` for empty tensors).
    ///
    /// Ties resolve to the first occurrence, matching the deterministic
    /// classification semantics the qualifier block requires.
    pub fn argmax(&self) -> Option<usize> {
        let mut best: Option<(usize, f32)> = None;
        for (i, &v) in self.iter().enumerate() {
            match best {
                Some((_, bv)) if v <= bv => {}
                _ => best = Some((i, v)),
            }
        }
        best.map(|(i, _)| i)
    }

    /// Sum of squared elements (squared L2 norm).
    pub fn norm_sq(&self) -> f32 {
        self.iter().map(|&v| v * v).sum()
    }

    /// Euclidean (L2) norm.
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Dot product of two equal-shaped tensors viewed as flat vectors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn dot(&self, rhs: &Tensor) -> Result<f32, TensorError> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                expected: self.shape().dims().to_vec(),
                actual: rhs.shape().dims().to_vec(),
                op: "dot",
            });
        }
        Ok(self.iter().zip(rhs.iter()).map(|(a, b)| a * b).sum())
    }

    /// Matrix multiplication of two rank-2 tensors.
    ///
    /// Uses a cache-friendly i-k-j loop order; this is the throughput kernel
    /// behind the "native execution" baseline and `im2col` convolution.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if either operand is not a
    /// matrix, or [`TensorError::ShapeMismatch`] if the inner dimensions
    /// disagree.
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        if self.shape().rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.shape().rank(),
                op: "matmul",
            });
        }
        if rhs.shape().rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: rhs.shape().rank(),
                op: "matmul",
            });
        }
        let (m, k) = (self.shape().dim(0), self.shape().dim(1));
        let (k2, n) = (rhs.shape().dim(0), rhs.shape().dim(1));
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                expected: vec![k, n],
                actual: vec![k2, n],
                op: "matmul",
            });
        }
        let a = self.as_slice();
        let b = rhs.as_slice();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let o_row = &mut out[i * n..(i + 1) * n];
            for (kk, &a_ik) in a_row.iter().enumerate() {
                if a_ik == 0.0 {
                    continue;
                }
                let b_row = &b[kk * n..(kk + 1) * n];
                for (o, &b_kj) in o_row.iter_mut().zip(b_row.iter()) {
                    *o += a_ik * b_kj;
                }
            }
        }
        Tensor::from_vec(Shape::d2(m, n), out)
    }

    /// Applies `f` pairwise, validating shape equality.
    fn zip_with(
        &self,
        rhs: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor, TensorError> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                expected: self.shape().dims().to_vec(),
                actual: rhs.shape().dims().to_vec(),
                op,
            });
        }
        Ok(Tensor::from_vec(
            self.shape().clone(),
            self.iter()
                .zip(rhs.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        )
        .expect("zip preserves length"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Rand;
    use proptest::prelude::*;

    fn t(v: Vec<f32>) -> Tensor {
        let n = v.len();
        Tensor::from_vec(Shape::d1(n), v).unwrap()
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = t(vec![1., 2., 3.]);
        let b = t(vec![4., 5., 6.]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5., 7., 9.]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3., 3., 3.]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[4., 10., 18.]);
        let c = Tensor::zeros(Shape::d1(2));
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn map_scale_shift() {
        let a = t(vec![1., -2., 3.]);
        assert_eq!(a.map(f32::abs).as_slice(), &[1., 2., 3.]);
        assert_eq!(a.scale(2.0).as_slice(), &[2., -4., 6.]);
        assert_eq!(a.shift(1.0).as_slice(), &[2., -1., 4.]);
        let mut b = a.clone();
        b.map_inplace(|v| v * v);
        assert_eq!(b.as_slice(), &[1., 4., 9.]);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut a = t(vec![1., 1.]);
        let g = t(vec![2., 4.]);
        a.axpy(-0.5, &g).unwrap();
        assert_eq!(a.as_slice(), &[0., -1.]);
        assert!(a.axpy(1.0, &Tensor::zeros(Shape::d1(3))).is_err());
    }

    #[test]
    fn reductions() {
        let a = t(vec![1., 2., 3., 4.]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.max(), 4.0);
        assert_eq!(a.min(), 1.0);
        assert_eq!(a.argmax(), Some(3));
        assert!((a.variance() - 1.25).abs() < 1e-6);
        assert!((a.std_dev() - 1.25f32.sqrt()).abs() < 1e-6);
        assert_eq!(a.norm_sq(), 30.0);
    }

    #[test]
    fn argmax_ties_first_and_empty() {
        let a = t(vec![3., 1., 3.]);
        assert_eq!(a.argmax(), Some(0));
        let e = Tensor::from_vec(Shape::new(vec![0]), vec![]).unwrap();
        assert_eq!(e.argmax(), None);
        assert_eq!(e.mean(), 0.0);
    }

    #[test]
    fn dot_product() {
        let a = t(vec![1., 2.]);
        let b = t(vec![3., 4.]);
        assert_eq!(a.dot(&b).unwrap(), 11.0);
        assert!(a.dot(&t(vec![1.])).is_err());
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(Shape::d2(2, 2), vec![1., 2., 3., 4.]).unwrap();
        let i = Tensor::from_fn(Shape::d2(2, 2), |x| if x[0] == x[1] { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_result() {
        let a = Tensor::from_vec(Shape::d2(2, 3), vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec(Shape::d2(3, 2), vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(Shape::d2(2, 3));
        let b = Tensor::zeros(Shape::d2(2, 2));
        assert!(a.matmul(&b).is_err());
        assert!(Tensor::zeros(Shape::d1(3)).matmul(&b).is_err());
        assert!(b.matmul(&Tensor::zeros(Shape::d1(3))).is_err());
    }

    #[test]
    fn gemm_into_bit_identical_to_matmul() {
        let a = Tensor::from_fn(Shape::d2(9, 13), |i| {
            ((i[0] * 31 + i[1] * 17) % 23) as f32 / 7.0 - 1.5
        });
        let b = Tensor::from_fn(Shape::d2(13, 11), |i| {
            ((i[0] * 19 + i[1] * 29) % 21) as f32 / 5.0 - 2.0
        });
        let reference = a.matmul(&b).unwrap();
        // Garbage-prefilled output: the kernel must fully overwrite it.
        let mut out = vec![f32::NAN; 9 * 11];
        gemm_into(9, 13, 11, a.as_slice(), b.as_slice(), &mut out).unwrap();
        for (x, y) in out.iter().zip(reference.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn gemm_into_handles_nan_and_inf_payloads() {
        // The a_ik == 0.0 skip means 0·inf never produces a NaN — blocked
        // and naive kernels must agree on these exact semantics.
        let a = Tensor::from_vec(
            Shape::d2(2, 3),
            vec![0.0, f32::INFINITY, 1.0, f32::NAN, 0.0, -2.0],
        )
        .unwrap();
        let b = Tensor::from_vec(
            Shape::d2(3, 2),
            vec![f32::INFINITY, 1.0, 2.0, f32::NEG_INFINITY, 0.5, f32::NAN],
        )
        .unwrap();
        let reference = a.matmul(&b).unwrap();
        let mut out = vec![0.0f32; 4];
        gemm_into(2, 3, 2, a.as_slice(), b.as_slice(), &mut out).unwrap();
        for (x, y) in out.iter().zip(reference.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn gemm_blocked_edges_and_degenerate_shapes() {
        // Empty, 1-row, 1-col and non-tile-multiple shapes, across block
        // sizes including 1 (maximal tiling) and larger-than-matrix.
        for &(m, k, n) in &[
            (0usize, 3usize, 4usize),
            (3, 0, 4),
            (3, 4, 0),
            (1, 5, 1),
            (1, 1, 7),
            (5, 3, 1),
            (7, 5, 9),
        ] {
            let a = Tensor::from_fn(Shape::d2(m, k), |i| (i[0] * 7 + i[1] * 3) as f32 - 4.0);
            let b = Tensor::from_fn(Shape::d2(k, n), |i| (i[0] * 5 + i[1]) as f32 - 3.0);
            let reference = a.matmul(&b).unwrap();
            for &(bi, bj) in &[(1usize, 1usize), (2, 3), (64, 128), (1000, 1000)] {
                let mut out = vec![f32::NAN; m * n];
                gemm_kernel(m, k, n, a.as_slice(), b.as_slice(), None, &mut out, bi, bj).unwrap();
                for (x, y) in out.iter().zip(reference.iter()) {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "m={m} k={k} n={n} bi={bi} bj={bj}"
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_into_validates_lengths() {
        let a = vec![0.0f32; 6];
        let b = vec![0.0f32; 6];
        let bias = vec![0.0f32; 2];
        let mut out = vec![0.0f32; 4];
        assert!(gemm_into(2, 3, 2, &a, &b, &mut out).is_ok());
        assert!(gemm_into(2, 3, 2, &a[..5], &b, &mut out).is_err());
        assert!(gemm_into(2, 3, 2, &a, &b[..5], &mut out).is_err());
        assert!(gemm_into(2, 3, 2, &a, &b, &mut out[..3]).is_err());
        assert!(gemm_bias_into(2, 3, 2, &a, &b, &bias, &mut out).is_ok());
        assert!(gemm_bias_into(2, 3, 2, &a[..5], &b, &bias, &mut out).is_err());
        assert!(gemm_bias_into(2, 3, 2, &a, &b[..5], &bias, &mut out).is_err());
        assert!(gemm_bias_into(2, 3, 2, &a, &b, &bias, &mut out[..3]).is_err());
        assert!(gemm_bias_into(2, 3, 2, &a, &b, &bias[..1], &mut out).is_err());
    }

    #[test]
    fn argmax_slice_matches_tensor_argmax() {
        for data in [
            vec![],
            vec![1.0f32],
            vec![3.0, 1.0, 3.0],
            vec![f32::NAN, 1.0, 2.0],
            vec![f32::NEG_INFINITY, f32::INFINITY],
        ] {
            let n = data.len();
            let t = Tensor::from_vec(Shape::d1(n), data.clone()).unwrap();
            assert_eq!(argmax_slice(&data), t.argmax());
        }
    }

    #[test]
    fn matmul_agrees_with_naive() {
        // Pseudo-random fill without an RNG dependency in tests.
        let a = Tensor::from_fn(Shape::d2(5, 7), |i| {
            ((i[0] * 31 + i[1] * 17) % 13) as f32 - 6.0
        });
        let b = Tensor::from_fn(Shape::d2(7, 4), |i| {
            ((i[0] * 19 + i[1] * 29) % 11) as f32 - 5.0
        });
        let fast = a.matmul(&b).unwrap();
        for i in 0..5 {
            for j in 0..4 {
                let mut acc = 0.0;
                for k in 0..7 {
                    acc += a.get(&[i, k]) * b.get(&[k, j]);
                }
                assert!((fast.get(&[i, j]) - acc).abs() < 1e-4);
            }
        }
    }

    /// Fills a buffer with entries including the payloads that expose
    /// accumulation-order drift: zeros (the skip path), NaN and both
    /// infinities, alongside ordinary finite values.
    fn gemm_entries(rng: &mut Rand, len: usize) -> Vec<f32> {
        (0..len)
            .map(|_| match rng.raw_u64() % 16 {
                0 | 1 => 0.0,
                2 => f32::NAN,
                3 => f32::INFINITY,
                4 => f32::NEG_INFINITY,
                _ => ((rng.raw_u64() % 2001) as f32 - 1000.0) / 17.0,
            })
            .collect()
    }

    /// Bit equality modulo NaN payload: any NaN matches any NaN.
    ///
    /// Per-element accumulation order pins every finite, zero-signed and
    /// infinite result bit-for-bit, and a NaN result is NaN in both
    /// kernels. The NaN *payload* is the one non-portable bit: when *both*
    /// operands of an add/mul are NaN, x86 returns the first source
    /// operand's payload, and LLVM is free to commute the (value-wise
    /// commutative) operands differently per codegen unit — so
    /// `NaN(a) + NaN(b)` may surface either payload depending on
    /// optimisation level. Single-NaN propagation is unaffected.
    fn bits_match(x: f32, y: f32) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The blocked GEMM is bit-identical to the naive `matmul` oracle
        /// across shapes (empty / 1-row / 1-col edges included), block
        /// sizes that do not divide the dimensions, and zero/inf/NaN
        /// operands (NaN results compared as a class — see [`bits_match`]).
        #[test]
        fn blocked_gemm_bit_identical_to_naive(
            m in 0usize..9, k in 0usize..9, n in 0usize..9,
            block_i in 1usize..7, block_j in 1usize..7,
            seed in 0u64..10_000,
        ) {
            let mut rng = Rand::seeded(seed);
            let a = Tensor::from_vec(Shape::d2(m, k), gemm_entries(&mut rng, m * k)).unwrap();
            let b = Tensor::from_vec(Shape::d2(k, n), gemm_entries(&mut rng, k * n)).unwrap();
            let oracle = a.matmul(&b).unwrap();
            // Default blocking through the public entry point.
            let mut out = vec![f32::NAN; m * n];
            gemm_into(m, k, n, a.as_slice(), b.as_slice(), &mut out).unwrap();
            for (x, y) in out.iter().zip(oracle.iter()) {
                prop_assert!(bits_match(*x, *y), "{:#010x} vs {:#010x}", x.to_bits(), y.to_bits());
            }
            // Arbitrary (non-dividing) blockings through the kernel.
            let mut out = vec![f32::NAN; m * n];
            gemm_kernel(m, k, n, a.as_slice(), b.as_slice(), None, &mut out, block_i, block_j)
                .unwrap();
            for (x, y) in out.iter().zip(oracle.iter()) {
                prop_assert!(bits_match(*x, *y), "{:#010x} vs {:#010x}", x.to_bits(), y.to_bits());
            }
        }

        /// The portable body, the code a CPU without AVX2 runs, gives the
        /// dispatched kernel's bits. On an AVX2 host `gemm_kernel` runs the
        /// AVX2 recompilation, so this is the check that recompiling
        /// without `fma` moves no bit: shapes past and short of the 4 × 16
        /// register tile, blockings that do not divide them, a bias or
        /// none, and zero/NaN/±Inf entries (NaN results compared as a
        /// class, see [`bits_match`]). `n ≥ 2`, because `n == 1` dispatches
        /// to the GEMV instead of the body.
        #[test]
        fn portable_gemm_body_matches_the_dispatched_kernel(
            m in 1usize..19, k in 0usize..9, n in 2usize..37,
            block_i in 1usize..9, block_j in 1usize..41,
            with_bias in any::<bool>(),
            seed in 0u64..10_000,
        ) {
            let mut rng = Rand::seeded(seed);
            let a = gemm_entries(&mut rng, m * k);
            let b = gemm_entries(&mut rng, k * n);
            let bias = gemm_entries(&mut rng, m);
            let bias = with_bias.then_some(bias.as_slice());
            let mut dispatched = vec![f32::NAN; m * n];
            gemm_kernel(m, k, n, &a, &b, bias, &mut dispatched, block_i, block_j).unwrap();
            // The remainder columns accumulate in place, into the zeroed
            // output `gemm_kernel` hands the body.
            let mut portable = vec![0.0f32; m * n];
            gemm_blocked_body(m, k, n, &a, &b, bias, &mut portable, block_i, block_j);
            for (x, y) in portable.iter().zip(&dispatched) {
                prop_assert!(bits_match(*x, *y), "{:#010x} vs {:#010x}", x.to_bits(), y.to_bits());
            }
        }
    }
}
