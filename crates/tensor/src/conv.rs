//! Unprotected 2-D convolution and pooling kernels.
//!
//! Two lowerings are provided:
//!
//! * [`conv2d`] — direct nested-loop convolution, the reference semantics;
//! * [`im2col_into`] followed by [`gemm_bias_into`](crate::ops::gemm_bias_into)
//!   — the fast "native execution" path inference runs, corresponding to
//!   the paper's TensorFlow reference time.
//!
//! Both operate on CHW tensors (channels, height, width) with OIHW filter
//! banks (out-channels, in-channels, kernel-h, kernel-w), the layout AlexNet
//! uses. The reliable convolution of Algorithm 3 (crate `relcnn-relexec`)
//! reuses [`ConvGeometry`] so that geometry handling is shared and the
//! comparison is apples-to-apples.

use crate::{Shape, Tensor, TensorError};
use serde::{Deserialize, Serialize};

/// The spatial geometry of a 2-D convolution or pooling window.
///
/// # Example
///
/// ```rust
/// use relcnn_tensor::conv::ConvGeometry;
///
/// // AlexNet conv-1: 227x227 input, 11x11 kernel, stride 4, no padding.
/// let g = ConvGeometry::new(227, 227, 11, 11, 4, 0).unwrap();
/// assert_eq!((g.out_h(), g.out_w()), (55, 55));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvGeometry {
    in_h: usize,
    in_w: usize,
    k_h: usize,
    k_w: usize,
    stride: usize,
    padding: usize,
}

impl ConvGeometry {
    /// Creates a convolution geometry.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if the stride is zero, a
    /// kernel dimension is zero, or the (padded) input is smaller than the
    /// kernel.
    pub fn new(
        in_h: usize,
        in_w: usize,
        k_h: usize,
        k_w: usize,
        stride: usize,
        padding: usize,
    ) -> Result<Self, TensorError> {
        if stride == 0 {
            return Err(TensorError::InvalidGeometry {
                reason: "stride must be non-zero".into(),
            });
        }
        if k_h == 0 || k_w == 0 {
            return Err(TensorError::InvalidGeometry {
                reason: "kernel dimensions must be non-zero".into(),
            });
        }
        if in_h + 2 * padding < k_h || in_w + 2 * padding < k_w {
            return Err(TensorError::InvalidGeometry {
                reason: format!(
                    "kernel {k_h}x{k_w} larger than padded input {}x{}",
                    in_h + 2 * padding,
                    in_w + 2 * padding
                ),
            });
        }
        Ok(ConvGeometry {
            in_h,
            in_w,
            k_h,
            k_w,
            stride,
            padding,
        })
    }

    /// Input height.
    pub fn in_h(&self) -> usize {
        self.in_h
    }
    /// Input width.
    pub fn in_w(&self) -> usize {
        self.in_w
    }
    /// Kernel height.
    pub fn k_h(&self) -> usize {
        self.k_h
    }
    /// Kernel width.
    pub fn k_w(&self) -> usize {
        self.k_w
    }
    /// Stride (identical in both axes).
    pub fn stride(&self) -> usize {
        self.stride
    }
    /// Zero padding (identical on all four edges).
    pub fn padding(&self) -> usize {
        self.padding
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.padding - self.k_h) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.padding - self.k_w) / self.stride + 1
    }

    /// Number of sliding-window positions.
    pub fn positions(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Number of multiply-accumulate operations for a full convolution with
    /// `in_c` input channels and `out_c` filters — the quantity the paper's
    /// cost model (Table 1) scales with.
    pub fn mac_count(&self, in_c: usize, out_c: usize) -> u64 {
        self.positions() as u64 * (self.k_h * self.k_w * in_c) as u64 * out_c as u64
    }
}

/// Validates a convolution's operands against `geom` — `input` CHW,
/// `filters` OIHW with matching channels, `bias` (when given) one value
/// per filter — and returns `(in_c, out_c)`. Every convolution kernel in
/// the workspace, the reliable one in `relcnn-relexec` included, admits
/// its operands through this one check.
///
/// # Errors
///
/// Returns a rank, shape or length error naming the offending operand.
pub fn validate_conv_shapes(
    input: &Tensor,
    filters: &Tensor,
    bias: Option<&Tensor>,
    geom: &ConvGeometry,
) -> Result<(usize, usize), TensorError> {
    if input.shape().rank() != 3 {
        return Err(TensorError::RankMismatch {
            expected: 3,
            actual: input.shape().rank(),
            op: "conv2d(input)",
        });
    }
    if filters.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: filters.shape().rank(),
            op: "conv2d(filters)",
        });
    }
    let (in_c, h, w) = (
        input.shape().dim(0),
        input.shape().dim(1),
        input.shape().dim(2),
    );
    if h != geom.in_h() || w != geom.in_w() {
        return Err(TensorError::ShapeMismatch {
            expected: vec![in_c, geom.in_h(), geom.in_w()],
            actual: input.shape().dims().to_vec(),
            op: "conv2d(geometry)",
        });
    }
    let (out_c, f_c, f_h, f_w) = (
        filters.shape().dim(0),
        filters.shape().dim(1),
        filters.shape().dim(2),
        filters.shape().dim(3),
    );
    if f_c != in_c || f_h != geom.k_h() || f_w != geom.k_w() {
        return Err(TensorError::ShapeMismatch {
            expected: vec![out_c, in_c, geom.k_h(), geom.k_w()],
            actual: filters.shape().dims().to_vec(),
            op: "conv2d(filters)",
        });
    }
    if let Some(b) = bias {
        if b.len() != out_c {
            return Err(TensorError::LengthMismatch {
                expected: out_c,
                actual: b.len(),
            });
        }
    }
    Ok((in_c, out_c))
}

/// Direct (nested-loop) 2-D convolution. CHW input, OIHW filters, optional
/// per-filter bias, producing a CHW output of shape
/// `[out_c, geom.out_h(), geom.out_w()]`.
///
/// This is the semantic reference: the `im2col` + GEMM lowering and the
/// reliable convolution in `relcnn-relexec` are both tested against it.
///
/// # Errors
///
/// Returns a shape/rank error if the operands disagree with `geom`, or if
/// `bias` is given and its length is not `out_c`.
pub fn conv2d(
    input: &Tensor,
    filters: &Tensor,
    bias: Option<&Tensor>,
    geom: &ConvGeometry,
) -> Result<Tensor, TensorError> {
    let (in_c, out_c) = validate_conv_shapes(input, filters, bias, geom)?;
    let (out_h, out_w) = (geom.out_h(), geom.out_w());
    let (k_h, k_w) = (geom.k_h(), geom.k_w());
    let (in_h, in_w) = (geom.in_h(), geom.in_w());
    let stride = geom.stride();
    let pad = geom.padding() as isize;

    let x = input.as_slice();
    let f = filters.as_slice();
    let mut out = vec![0.0f32; out_c * out_h * out_w];

    for oc in 0..out_c {
        let f_base = oc * in_c * k_h * k_w;
        let b = bias.map(|b| b.as_slice()[oc]).unwrap_or(0.0);
        for oy in 0..out_h {
            for ox in 0..out_w {
                let mut acc = b;
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
                            acc += x[x_row + ix as usize] * f[f_row + kx];
                        }
                    }
                }
                out[oc * out_h * out_w + oy * out_w + ox] = acc;
            }
        }
    }
    Tensor::from_vec(Shape::d3(out_c, out_h, out_w), out)
}

/// Lowers a CHW input into the `im2col` patch matrix of shape
/// `[in_c * k_h * k_w, out_h * out_w]`.
///
/// Column `p` holds the receptive field of sliding-window position `p`
/// (row-major over output positions); padding contributes zeros.
///
/// # Errors
///
/// Returns a rank/shape error if `input` is not CHW matching `geom`.
pub fn im2col(input: &Tensor, geom: &ConvGeometry) -> Result<Tensor, TensorError> {
    if input.shape().rank() != 3 {
        return Err(TensorError::RankMismatch {
            expected: 3,
            actual: input.shape().rank(),
            op: "im2col",
        });
    }
    let in_c = input.shape().dim(0);
    if input.shape().dim(1) != geom.in_h() || input.shape().dim(2) != geom.in_w() {
        return Err(TensorError::ShapeMismatch {
            expected: vec![in_c, geom.in_h(), geom.in_w()],
            actual: input.shape().dims().to_vec(),
            op: "im2col",
        });
    }
    let (k_h, k_w) = (geom.k_h(), geom.k_w());
    let (in_h, in_w) = (geom.in_h(), geom.in_w());
    let (out_h, out_w) = (geom.out_h(), geom.out_w());
    let positions = out_h * out_w;
    let rows = in_c * k_h * k_w;
    let stride = geom.stride();
    let pad = geom.padding() as isize;

    let x = input.as_slice();
    let mut out = vec![0.0f32; rows * positions];
    for ic in 0..in_c {
        for ky in 0..k_h {
            for kx in 0..k_w {
                let row = (ic * k_h + ky) * k_w + kx;
                let row_base = row * positions;
                for oy in 0..out_h {
                    let iy = (oy * stride) as isize + ky as isize - pad;
                    if iy < 0 || iy >= in_h as isize {
                        continue;
                    }
                    let x_row = ic * in_h * in_w + iy as usize * in_w;
                    let o_row = row_base + oy * out_w;
                    for ox in 0..out_w {
                        let ix = (ox * stride) as isize + kx as isize - pad;
                        if ix < 0 || ix >= in_w as isize {
                            continue;
                        }
                        out[o_row + ox] = x[x_row + ix as usize];
                    }
                }
            }
        }
    }
    Tensor::from_vec(Shape::d2(rows, positions), out)
}

/// Allocation-free [`im2col`]: lowers a CHW input slice into a caller-owned
/// patch buffer of length `in_c * k_h * k_w * positions` — byte-for-byte
/// identical to the tensor returned by [`im2col`], which stays the oracle.
///
/// When the geometry has no padding every cell of `out` is written, so the
/// (possibly stale) scratch contents are never zero-filled — the pass the
/// allocating kernel pays via `vec![0.0; …]` simply disappears. Padded
/// geometries zero the buffer first because padding cells are never
/// visited by the gather loop.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when `x` or `out` disagrees
/// with the geometry for `in_c` channels.
pub fn im2col_into(
    x: &[f32],
    in_c: usize,
    geom: &ConvGeometry,
    out: &mut [f32],
) -> Result<(), TensorError> {
    let (k_h, k_w) = (geom.k_h(), geom.k_w());
    let (in_h, in_w) = (geom.in_h(), geom.in_w());
    let (out_h, out_w) = (geom.out_h(), geom.out_w());
    let positions = out_h * out_w;
    let rows = in_c * k_h * k_w;
    if x.len() != in_c * in_h * in_w {
        return Err(TensorError::LengthMismatch {
            expected: in_c * in_h * in_w,
            actual: x.len(),
        });
    }
    if out.len() != rows * positions {
        return Err(TensorError::LengthMismatch {
            expected: rows * positions,
            actual: out.len(),
        });
    }
    let stride = geom.stride();
    let pad = geom.padding() as isize;
    if geom.padding() > 0 {
        out.fill(0.0);
    }
    for ic in 0..in_c {
        for ky in 0..k_h {
            for kx in 0..k_w {
                let row = (ic * k_h + ky) * k_w + kx;
                let row_base = row * positions;
                // Hoist the valid-ox window out of the copy loop: ox is
                // in bounds iff `0 <= ox*stride + kx - pad < in_w`, so the
                // interior is a branch-free strided gather (a straight
                // memcpy when stride == 1) instead of a per-element
                // bounds-and-padding check. Same elements land in the
                // same slots as the allocating `im2col` — this is pure
                // data movement, pinned byte-for-byte by proptests.
                let lo = if kx as isize >= pad {
                    0
                } else {
                    ((pad - kx as isize) as usize).div_ceil(stride)
                };
                let hi_num = in_w as isize - 1 - kx as isize + pad;
                if hi_num < 0 {
                    continue;
                }
                let hi = (hi_num as usize / stride + 1).min(out_w);
                if lo >= hi {
                    continue;
                }
                for oy in 0..out_h {
                    let iy = (oy * stride) as isize + ky as isize - pad;
                    if iy < 0 || iy >= in_h as isize {
                        continue;
                    }
                    let x_row = ic * in_h * in_w + iy as usize * in_w;
                    let o_row = row_base + oy * out_w;
                    let x_start = x_row + (lo * stride + kx) - pad as usize;
                    let width = hi - lo;
                    if stride == 1 {
                        out[o_row + lo..o_row + hi].copy_from_slice(&x[x_start..x_start + width]);
                    } else {
                        let src = x[x_start..].iter().step_by(stride);
                        for (o, &v) in out[o_row + lo..o_row + hi].iter_mut().zip(src) {
                            *o = v;
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Inverse of [`im2col`]: scatter-adds a patch matrix of shape
/// `[in_c * k_h * k_w, out_h * out_w]` back into a CHW tensor of shape
/// `[in_c, in_h, in_w]`. Overlapping window positions accumulate — exactly
/// the adjoint of the `im2col` gather, which is what convolution
/// backpropagation requires.
///
/// # Errors
///
/// Returns a rank/shape error if `cols` does not match `geom` for the
/// given channel count.
pub fn col2im(cols: &Tensor, in_c: usize, geom: &ConvGeometry) -> Result<Tensor, TensorError> {
    let (k_h, k_w) = (geom.k_h(), geom.k_w());
    let (in_h, in_w) = (geom.in_h(), geom.in_w());
    let (out_h, out_w) = (geom.out_h(), geom.out_w());
    let positions = out_h * out_w;
    let rows = in_c * k_h * k_w;
    if cols.shape().rank() != 2 || cols.shape().dim(0) != rows || cols.shape().dim(1) != positions {
        return Err(TensorError::ShapeMismatch {
            expected: vec![rows, positions],
            actual: cols.shape().dims().to_vec(),
            op: "col2im",
        });
    }
    let stride = geom.stride();
    let pad = geom.padding() as isize;
    let c = cols.as_slice();
    let mut out = vec![0.0f32; in_c * in_h * in_w];
    for ic in 0..in_c {
        for ky in 0..k_h {
            for kx in 0..k_w {
                let row = (ic * k_h + ky) * k_w + kx;
                let row_base = row * positions;
                for oy in 0..out_h {
                    let iy = (oy * stride) as isize + ky as isize - pad;
                    if iy < 0 || iy >= in_h as isize {
                        continue;
                    }
                    let x_row = ic * in_h * in_w + iy as usize * in_w;
                    let c_row = row_base + oy * out_w;
                    for ox in 0..out_w {
                        let ix = (ox * stride) as isize + kx as isize - pad;
                        if ix < 0 || ix >= in_w as isize {
                            continue;
                        }
                        out[x_row + ix as usize] += c[c_row + ox];
                    }
                }
            }
        }
    }
    Tensor::from_vec(Shape::d3(in_c, in_h, in_w), out)
}

/// 2-D max pooling over a CHW tensor. Returns the pooled tensor and the flat
/// argmax offsets (into the input) used by backpropagation.
///
/// # Errors
///
/// Returns a rank/shape error if `input` is not CHW matching `geom`, or an
/// [`TensorError::InvalidGeometry`] if `geom` has padding (pooling here is
/// padding-free, as in AlexNet).
pub fn max_pool2d(
    input: &Tensor,
    geom: &ConvGeometry,
) -> Result<(Tensor, Vec<usize>), TensorError> {
    if geom.padding() != 0 {
        return Err(TensorError::InvalidGeometry {
            reason: "max_pool2d does not support padding".into(),
        });
    }
    if input.shape().rank() != 3 {
        return Err(TensorError::RankMismatch {
            expected: 3,
            actual: input.shape().rank(),
            op: "max_pool2d",
        });
    }
    let in_c = input.shape().dim(0);
    if input.shape().dim(1) != geom.in_h() || input.shape().dim(2) != geom.in_w() {
        return Err(TensorError::ShapeMismatch {
            expected: vec![in_c, geom.in_h(), geom.in_w()],
            actual: input.shape().dims().to_vec(),
            op: "max_pool2d",
        });
    }
    let (out_h, out_w) = (geom.out_h(), geom.out_w());
    let (k_h, k_w) = (geom.k_h(), geom.k_w());
    let (in_h, in_w) = (geom.in_h(), geom.in_w());
    let stride = geom.stride();
    let x = input.as_slice();
    let mut out = vec![f32::NEG_INFINITY; in_c * out_h * out_w];
    let mut arg = vec![0usize; in_c * out_h * out_w];
    for c in 0..in_c {
        for oy in 0..out_h {
            for ox in 0..out_w {
                let mut best = f32::NEG_INFINITY;
                let mut best_off = 0usize;
                for ky in 0..k_h {
                    let iy = oy * stride + ky;
                    if iy >= in_h {
                        continue;
                    }
                    for kx in 0..k_w {
                        let ix = ox * stride + kx;
                        if ix >= in_w {
                            continue;
                        }
                        let off = c * in_h * in_w + iy * in_w + ix;
                        if x[off] > best {
                            best = x[off];
                            best_off = off;
                        }
                    }
                }
                let o = c * out_h * out_w + oy * out_w + ox;
                out[o] = best;
                arg[o] = best_off;
            }
        }
    }
    Ok((Tensor::from_vec(Shape::d3(in_c, out_h, out_w), out)?, arg))
}

/// Allocation-free forward-only max pooling: writes the pooled CHW slab
/// into a caller-owned buffer of length `in_c * out_h * out_w`, skipping
/// the argmax bookkeeping (inference needs no backward routing). The
/// pooled values are bit-identical to [`max_pool2d`]'s first component.
///
/// # Errors
///
/// Returns [`TensorError::InvalidGeometry`] for padded geometries and
/// [`TensorError::LengthMismatch`] when a slice length disagrees with the
/// geometry for `in_c` channels.
pub fn max_pool2d_into(
    x: &[f32],
    in_c: usize,
    geom: &ConvGeometry,
    out: &mut [f32],
) -> Result<(), TensorError> {
    if geom.padding() != 0 {
        return Err(TensorError::InvalidGeometry {
            reason: "max_pool2d does not support padding".into(),
        });
    }
    let (out_h, out_w) = (geom.out_h(), geom.out_w());
    let (k_h, k_w) = (geom.k_h(), geom.k_w());
    let (in_h, in_w) = (geom.in_h(), geom.in_w());
    if x.len() != in_c * in_h * in_w {
        return Err(TensorError::LengthMismatch {
            expected: in_c * in_h * in_w,
            actual: x.len(),
        });
    }
    if out.len() != in_c * out_h * out_w {
        return Err(TensorError::LengthMismatch {
            expected: in_c * out_h * out_w,
            actual: out.len(),
        });
    }
    let stride = geom.stride();
    // Every AlexNet pooling geometry has fully interior windows (the
    // floor-mode output size never lets a window overhang), so the hot
    // path scans each window through row slices with the clip checks
    // and per-element index arithmetic hoisted out. The window scan
    // order (ky then kx, ascending) is the same as the general loop —
    // it determines which signed zero survives a `v > best` tie, so it
    // is part of the bit-exactness contract.
    let interior = out_h > 0
        && out_w > 0
        && (out_h - 1) * stride + k_h <= in_h
        && (out_w - 1) * stride + k_w <= in_w;
    if interior {
        for c in 0..in_c {
            let plane = &x[c * in_h * in_w..(c + 1) * in_h * in_w];
            let o_plane = &mut out[c * out_h * out_w..(c + 1) * out_h * out_w];
            for oy in 0..out_h {
                let o_row = &mut o_plane[oy * out_w..(oy + 1) * out_w];
                for (ox, o) in o_row.iter_mut().enumerate() {
                    let x0 = ox * stride;
                    let mut best = f32::NEG_INFINITY;
                    for ky in 0..k_h {
                        let row = (oy * stride + ky) * in_w;
                        for &v in &plane[row + x0..row + x0 + k_w] {
                            if v > best {
                                best = v;
                            }
                        }
                    }
                    *o = best;
                }
            }
        }
        return Ok(());
    }
    for c in 0..in_c {
        for oy in 0..out_h {
            for ox in 0..out_w {
                let mut best = f32::NEG_INFINITY;
                for ky in 0..k_h {
                    let iy = oy * stride + ky;
                    if iy >= in_h {
                        continue;
                    }
                    for kx in 0..k_w {
                        let ix = ox * stride + kx;
                        if ix >= in_w {
                            continue;
                        }
                        let v = x[c * in_h * in_w + iy * in_w + ix];
                        if v > best {
                            best = v;
                        }
                    }
                }
                out[c * out_h * out_w + oy * out_w + ox] = best;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chw(c: usize, h: usize, w: usize, f: impl FnMut(&[usize]) -> f32) -> Tensor {
        Tensor::from_fn(Shape::d3(c, h, w), f)
    }

    /// The inference lowering: `im2col_into`, then the GEMM with the
    /// bias fused at store time.
    fn lowered(input: &Tensor, filt: &Tensor, bias: &Tensor, g: &ConvGeometry) -> Vec<f32> {
        let (in_c, out_c) = (input.shape().dim(0), filt.shape().dim(0));
        let rows = in_c * g.k_h() * g.k_w();
        let mut cols = vec![0.0; rows * g.positions()];
        im2col_into(input.as_slice(), in_c, g, &mut cols).unwrap();
        let mut out = vec![0.0; out_c * g.positions()];
        let (w, b) = (filt.as_slice(), bias.as_slice());
        crate::ops::gemm_bias_into(out_c, rows, g.positions(), w, &cols, b, &mut out).unwrap();
        out
    }

    #[test]
    fn geometry_alexnet_conv1() {
        let g = ConvGeometry::new(227, 227, 11, 11, 4, 0).unwrap();
        assert_eq!(g.out_h(), 55);
        assert_eq!(g.out_w(), 55);
        assert_eq!(g.positions(), 3025);
        assert_eq!(g.mac_count(3, 96), 3025 * 363 * 96);
    }

    #[test]
    fn geometry_rejects_invalid() {
        assert!(ConvGeometry::new(5, 5, 3, 3, 0, 0).is_err());
        assert!(ConvGeometry::new(2, 2, 3, 3, 1, 0).is_err());
        assert!(ConvGeometry::new(5, 5, 0, 3, 1, 0).is_err());
        // Padding can rescue a small input.
        assert!(ConvGeometry::new(2, 2, 3, 3, 1, 1).is_ok());
    }

    #[test]
    fn conv2d_identity_kernel() {
        let input = chw(1, 4, 4, |i| (i[1] * 4 + i[2]) as f32);
        // 1x1 kernel of value 1 reproduces the input.
        let filt = Tensor::ones(Shape::d4(1, 1, 1, 1));
        let g = ConvGeometry::new(4, 4, 1, 1, 1, 0).unwrap();
        let out = conv2d(&input, &filt, None, &g).unwrap();
        assert_eq!(out.as_slice(), input.as_slice());
    }

    #[test]
    fn conv2d_known_sum_kernel() {
        // 2x2 all-ones kernel sums each window.
        let input = chw(1, 3, 3, |i| (i[1] * 3 + i[2]) as f32);
        let filt = Tensor::ones(Shape::d4(1, 1, 2, 2));
        let g = ConvGeometry::new(3, 3, 2, 2, 1, 0).unwrap();
        let out = conv2d(&input, &filt, None, &g).unwrap();
        // windows: (0+1+3+4)=8, (1+2+4+5)=12, (3+4+6+7)=20, (4+5+7+8)=24
        assert_eq!(out.as_slice(), &[8., 12., 20., 24.]);
    }

    #[test]
    fn conv2d_bias_and_multichannel() {
        let input = chw(2, 2, 2, |_| 1.0);
        let filt = Tensor::ones(Shape::d4(3, 2, 2, 2));
        let bias = Tensor::from_vec(Shape::d1(3), vec![0.0, 1.0, -1.0]).unwrap();
        let g = ConvGeometry::new(2, 2, 2, 2, 1, 0).unwrap();
        let out = conv2d(&input, &filt, Some(&bias), &g).unwrap();
        assert_eq!(out.as_slice(), &[8.0, 9.0, 7.0]);
        let bad_bias = Tensor::zeros(Shape::d1(2));
        assert!(conv2d(&input, &filt, Some(&bad_bias), &g).is_err());
    }

    #[test]
    fn conv2d_padding_matches_manual() {
        let input = chw(1, 2, 2, |i| (i[1] * 2 + i[2]) as f32 + 1.0); // 1 2 / 3 4
        let filt = Tensor::ones(Shape::d4(1, 1, 3, 3));
        let g = ConvGeometry::new(2, 2, 3, 3, 1, 1).unwrap();
        let out = conv2d(&input, &filt, None, &g).unwrap();
        assert_eq!(out.shape().dims(), &[1, 2, 2]);
        // Each output = sum of in-bounds neighbours = total sum = 10 at every
        // position because the 3x3 window centred at each pixel covers all 4.
        assert_eq!(out.as_slice(), &[10., 10., 10., 10.]);
    }

    #[test]
    fn im2col_matches_direct_conv() {
        let input = chw(3, 9, 9, |i| {
            ((i[0] * 37 + i[1] * 11 + i[2] * 5) % 17) as f32 - 8.0
        });
        let filt = Tensor::from_fn(Shape::d4(4, 3, 3, 3), |i| {
            ((i[0] * 7 + i[1] * 13 + i[2] * 3 + i[3]) % 9) as f32 - 4.0
        });
        for (stride, pad) in [(1usize, 0usize), (2, 0), (1, 1), (3, 2)] {
            let g = ConvGeometry::new(9, 9, 3, 3, stride, pad).unwrap();
            let direct = conv2d(&input, &filt, None, &g).unwrap();
            let fast = lowered(&input, &filt, &Tensor::zeros(Shape::d1(4)), &g);
            assert_eq!(direct.len(), fast.len());
            for (a, b) in direct.iter().zip(fast.iter()) {
                assert!(
                    (a - b).abs() < 1e-3,
                    "stride={stride} pad={pad}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn im2col_bias_matches_direct() {
        let input = chw(2, 5, 5, |i| (i[0] + i[1] + i[2]) as f32);
        let filt = Tensor::ones(Shape::d4(2, 2, 2, 2));
        let bias = Tensor::from_vec(Shape::d1(2), vec![0.5, -0.5]).unwrap();
        let g = ConvGeometry::new(5, 5, 2, 2, 1, 0).unwrap();
        let a = conv2d(&input, &filt, Some(&bias), &g).unwrap();
        let b = lowered(&input, &filt, &bias, &g);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn conv_rejects_mismatched_shapes() {
        let g = ConvGeometry::new(4, 4, 2, 2, 1, 0).unwrap();
        let input = chw(1, 4, 4, |_| 0.0);
        let wrong_chan = Tensor::zeros(Shape::d4(1, 2, 2, 2));
        assert!(conv2d(&input, &wrong_chan, None, &g).is_err());
        let wrong_rank = Tensor::zeros(Shape::d3(1, 2, 2));
        assert!(conv2d(&input, &wrong_rank, None, &g).is_err());
        let wrong_input = chw(1, 5, 5, |_| 0.0);
        let filt = Tensor::zeros(Shape::d4(1, 1, 2, 2));
        assert!(conv2d(&wrong_input, &filt, None, &g).is_err());
        assert!(im2col(&wrong_input, &g).is_err());
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for arbitrary x, y — the
        // defining property of the adjoint, which is exactly what makes
        // conv backward correct.
        let g = ConvGeometry::new(6, 6, 3, 3, 2, 1).unwrap();
        let x = chw(2, 6, 6, |i| {
            ((i[0] * 13 + i[1] * 5 + i[2]) % 7) as f32 - 3.0
        });
        let cols_shape = Shape::d2(2 * 9, g.positions());
        let y = Tensor::from_fn(cols_shape, |i| ((i[0] * 3 + i[1] * 11) % 5) as f32 - 2.0);
        let ax = im2col(&x, &g).unwrap();
        let aty = col2im(&y, 2, &g).unwrap();
        let lhs = ax.dot(&y).unwrap();
        let rhs = x.dot(&aty).unwrap();
        assert!((lhs - rhs).abs() < 1e-2, "{lhs} vs {rhs}");
    }

    #[test]
    fn col2im_rejects_bad_shapes() {
        let g = ConvGeometry::new(4, 4, 2, 2, 1, 0).unwrap();
        let bad = Tensor::zeros(Shape::d2(3, 9));
        assert!(col2im(&bad, 1, &g).is_err());
        let bad_rank = Tensor::zeros(Shape::d1(4));
        assert!(col2im(&bad_rank, 1, &g).is_err());
    }

    #[test]
    fn max_pool_basic() {
        let input = chw(1, 4, 4, |i| (i[1] * 4 + i[2]) as f32);
        let g = ConvGeometry::new(4, 4, 2, 2, 2, 0).unwrap();
        let (out, arg) = max_pool2d(&input, &g).unwrap();
        assert_eq!(out.as_slice(), &[5., 7., 13., 15.]);
        assert_eq!(arg, vec![5, 7, 13, 15]);
    }

    #[test]
    fn max_pool_overlapping_alexnet_style() {
        // AlexNet uses 3x3 windows with stride 2 (overlapping pooling).
        let input = chw(1, 5, 5, |i| (i[1] * 5 + i[2]) as f32);
        let g = ConvGeometry::new(5, 5, 3, 3, 2, 0).unwrap();
        let (out, _) = max_pool2d(&input, &g).unwrap();
        assert_eq!(out.shape().dims(), &[1, 2, 2]);
        assert_eq!(out.as_slice(), &[12., 14., 22., 24.]);
    }

    #[test]
    fn max_pool_rejects_padding() {
        let input = chw(1, 4, 4, |_| 0.0);
        let g = ConvGeometry::new(4, 4, 2, 2, 2, 1).unwrap();
        assert!(max_pool2d(&input, &g).is_err());
    }

    #[test]
    fn im2col_into_matches_im2col_byte_for_byte() {
        let input = chw(2, 7, 7, |i| {
            ((i[0] * 37 + i[1] * 11 + i[2] * 5) % 17) as f32 / 3.0 - 2.5
        });
        for (stride, pad) in [(1usize, 0usize), (2, 0), (1, 1), (3, 2)] {
            let g = ConvGeometry::new(7, 7, 3, 3, stride, pad).unwrap();
            let oracle = im2col(&input, &g).unwrap();
            // Garbage-prefill: pad==0 geometries must still overwrite every
            // cell; padded ones must zero the stale contents.
            let mut out = vec![f32::NAN; oracle.len()];
            im2col_into(input.as_slice(), 2, &g, &mut out).unwrap();
            for (a, b) in out.iter().zip(oracle.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "stride={stride} pad={pad}");
            }
        }
    }

    #[test]
    fn im2col_into_validates_lengths() {
        let g = ConvGeometry::new(4, 4, 2, 2, 1, 0).unwrap();
        let x = vec![0.0f32; 16];
        let mut out = vec![0.0f32; 4 * 9];
        assert!(im2col_into(&x, 1, &g, &mut out).is_ok());
        assert!(im2col_into(&x[..15], 1, &g, &mut out).is_err());
        assert!(im2col_into(&x, 1, &g, &mut out[..35]).is_err());
    }

    #[test]
    fn max_pool2d_into_matches_max_pool2d() {
        let input = chw(2, 5, 5, |i| {
            ((i[0] * 13 + i[1] * 7 + i[2] * 3) % 11) as f32 - 5.0
        });
        for (k, stride) in [(2usize, 2usize), (3, 2), (3, 1)] {
            let g = ConvGeometry::new(5, 5, k, k, stride, 0).unwrap();
            let (oracle, _) = max_pool2d(&input, &g).unwrap();
            let mut out = vec![f32::NAN; oracle.len()];
            max_pool2d_into(input.as_slice(), 2, &g, &mut out).unwrap();
            for (a, b) in out.iter().zip(oracle.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "k={k} stride={stride}");
            }
        }
    }

    #[test]
    fn max_pool2d_into_validates() {
        let g = ConvGeometry::new(4, 4, 2, 2, 2, 0).unwrap();
        let x = vec![0.0f32; 16];
        let mut out = vec![0.0f32; 4];
        assert!(max_pool2d_into(&x, 1, &g, &mut out).is_ok());
        assert!(max_pool2d_into(&x[..15], 1, &g, &mut out).is_err());
        assert!(max_pool2d_into(&x, 1, &g, &mut out[..3]).is_err());
        let padded = ConvGeometry::new(4, 4, 2, 2, 2, 1).unwrap();
        assert!(max_pool2d_into(&x, 1, &padded, &mut out).is_err());
    }
}
