//! Sobel edge detection.
//!
//! The paper replaces learnt AlexNet filters with "a Sobel-x, Sobel-y,
//! Sobel-x filter" bank (§III-B) and uses Sobel edges as the front end of
//! the shape qualifier. This module provides the classic 3×3 kernels, the
//! binomially *extended* Sobel of arbitrary odd size (needed to substitute
//! an 11×11 AlexNet filter), gradient computation and the Sobel filter
//! bank in OIHW layout.

use crate::VisionError;
use relcnn_tensor::{Shape, Tensor};

/// The classic 3×3 Sobel-x kernel (detects vertical edges).
pub const SOBEL_X_3X3: [[f32; 3]; 3] = [[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]];

/// The classic 3×3 Sobel-y kernel (detects horizontal edges).
pub const SOBEL_Y_3X3: [[f32; 3]; 3] = [[-1.0, -2.0, -1.0], [0.0, 0.0, 0.0], [1.0, 2.0, 1.0]];

/// Axis of a Sobel derivative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SobelAxis {
    /// Derivative along x (responds to vertical edges).
    X,
    /// Derivative along y (responds to horizontal edges).
    Y,
}

/// Row `n` of Pascal's triangle (binomial smoothing coefficients).
fn pascal_row(n: usize) -> Vec<f32> {
    let mut row = vec![1.0f32];
    for k in 1..=n {
        let prev = row[k - 1] as f64;
        row.push((prev * (n - k + 1) as f64 / k as f64) as f32);
    }
    row
}

/// First-difference of Pascal's triangle: the derivative kernel of the
/// extended Sobel construction (`diff(n)[k] = C(n-1,k-1) - C(n-1,k)` with
/// out-of-range binomials zero). For `n = 2` this is `[1, 0, -1]`.
fn pascal_diff_row(n: usize) -> Vec<f32> {
    let base = pascal_row(n.saturating_sub(1));
    let at = |i: isize| -> f32 {
        if i < 0 || i as usize >= base.len() {
            0.0
        } else {
            base[i as usize]
        }
    };
    (0..=n as isize).map(|k| at(k - 1) - at(k)).collect()
}

/// The extended Sobel kernel of odd size `size` along `axis`, built as the
/// outer product of a binomial smoothing vector and a binomial-difference
/// derivative vector (the standard generalisation that reduces to the
/// classic kernels at `size = 3`).
///
/// Returned in sign convention matching [`SOBEL_X_3X3`]/[`SOBEL_Y_3X3`]:
/// response is positive for dark→bright transitions along +x / +y.
///
/// # Errors
///
/// Returns [`VisionError::BadParameter`] unless `size` is odd and `>= 3`.
pub fn extended_sobel(size: usize, axis: SobelAxis) -> Result<Tensor, VisionError> {
    if size < 3 || size.is_multiple_of(2) {
        return Err(VisionError::BadParameter {
            reason: format!("sobel size must be odd and >= 3, got {size}"),
        });
    }
    let smooth = pascal_row(size - 1);
    // pascal_diff already yields the classic [-1, 0, 1] orientation at
    // size 3 (positive response for dark->bright transitions).
    let deriv = pascal_diff_row(size - 1);
    let mut out = Tensor::zeros(Shape::d2(size, size));
    for y in 0..size {
        for x in 0..size {
            let v = match axis {
                SobelAxis::X => smooth[y] * deriv[x],
                SobelAxis::Y => deriv[y] * smooth[x],
            };
            out.set(&[y, x], v);
        }
    }
    Ok(out)
}

/// Convolves a grayscale image with one Sobel kernel. Same-size output
/// with *replicate* (clamp-to-edge) border handling — zero padding would
/// manufacture a strong phantom edge along the image frame, which the
/// qualifier's largest-component step could then mistake for the sign.
///
/// # Errors
///
/// Returns [`VisionError::NotGrayscale`] for non-rank-2 input.
fn sobel_response(image: &Tensor, axis: SobelAxis) -> Result<Tensor, VisionError> {
    if image.shape().rank() != 2 {
        return Err(VisionError::NotGrayscale {
            rank: image.shape().rank(),
        });
    }
    let (h, w) = (image.shape().dim(0), image.shape().dim(1));
    let kernel = extended_sobel(3, axis)?;
    let k = kernel.as_slice();
    let x = image.as_slice();
    let mut out = vec![0.0f32; h * w];
    for y in 0..h {
        for xx in 0..w {
            let mut acc = 0.0f32;
            for ky in 0..3usize {
                let iy = (y as isize + ky as isize - 1).clamp(0, h as isize - 1) as usize;
                for kx in 0..3usize {
                    let ix = (xx as isize + kx as isize - 1).clamp(0, w as isize - 1) as usize;
                    acc += x[iy * w + ix] * k[ky * 3 + kx];
                }
            }
            out[y * w + xx] = acc;
        }
    }
    Ok(Tensor::from_vec(image.shape().clone(), out)?)
}

/// Gradient magnitude `sqrt(gx² + gy²)` of a grayscale image — the edge
/// map feeding the qualifier's radial scan.
///
/// # Errors
///
/// Returns [`VisionError::NotGrayscale`] for non-rank-2 input.
pub fn gradient_magnitude(image: &Tensor) -> Result<Tensor, VisionError> {
    let gx = sobel_response(image, SobelAxis::X)?;
    let gy = sobel_response(image, SobelAxis::Y)?;
    let data = gx
        .iter()
        .zip(gy.iter())
        .map(|(&x, &y)| (x * x + y * y).sqrt())
        .collect();
    Ok(Tensor::from_vec(image.shape().clone(), data)?)
}

/// The paper's replacement bank for one `in_c`-channel conv filter: channel
/// 0 gets Sobel-x, channel 1 Sobel-y, channel 2 Sobel-x again ("we naively
/// replace the first of the filters with a Sobel-x, Sobel-y, Sobel-x
/// filter"), continuing to alternate x/y for any further channels. Shape
/// `[in_c, k, k]`, scaled so each channel has unit L2 norm (keeping the
/// replaced filter's response in the numeric range of its learnt peers).
///
/// # Errors
///
/// Returns [`VisionError::BadParameter`] for even or tiny kernel sizes, or
/// zero channels.
pub fn sobel_bank(in_c: usize, k: usize) -> Result<Tensor, VisionError> {
    if in_c == 0 {
        return Err(VisionError::BadParameter {
            reason: "filter bank needs at least one channel".into(),
        });
    }
    let sx = extended_sobel(k, SobelAxis::X)?;
    let sy = extended_sobel(k, SobelAxis::Y)?;
    let normalise = |t: &Tensor| {
        let n = t.norm();
        if n > 0.0 {
            t.scale(1.0 / n)
        } else {
            t.clone()
        }
    };
    let sx = normalise(&sx);
    let sy = normalise(&sy);
    let mut out = Tensor::zeros(Shape::d3(in_c, k, k));
    for c in 0..in_c {
        // x, y, x, y, … starting with x (paper: Sobel-x, Sobel-y, Sobel-x).
        let src = if c % 2 == 0 { &sx } else { &sy };
        for y in 0..k {
            for x in 0..k {
                out.set(&[c, y, x], src.get(&[y, x]));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::draw;

    #[test]
    fn extended_sobel_3_matches_classic() {
        let sx = extended_sobel(3, SobelAxis::X).unwrap();
        let sy = extended_sobel(3, SobelAxis::Y).unwrap();
        for y in 0..3 {
            for x in 0..3 {
                assert_eq!(sx.get(&[y, x]), SOBEL_X_3X3[y][x], "x kernel at {y},{x}");
                assert_eq!(sy.get(&[y, x]), SOBEL_Y_3X3[y][x], "y kernel at {y},{x}");
            }
        }
    }

    #[test]
    fn extended_sobel_properties() {
        for size in [5usize, 7, 11] {
            let sx = extended_sobel(size, SobelAxis::X).unwrap();
            // Rows sum to zero (derivative along x).
            for y in 0..size {
                let row_sum: f32 = (0..size).map(|x| sx.get(&[y, x])).sum();
                assert!(row_sum.abs() < 1e-3, "size {size} row {y} sums {row_sum}");
            }
            // Antisymmetric in x.
            for y in 0..size {
                for x in 0..size {
                    let a = sx.get(&[y, x]);
                    let b = sx.get(&[y, size - 1 - x]);
                    assert!((a + b).abs() < 1e-3);
                }
            }
            // Transpose relation between the two axes.
            let sy = extended_sobel(size, SobelAxis::Y).unwrap();
            for y in 0..size {
                for x in 0..size {
                    assert_eq!(sx.get(&[y, x]), sy.get(&[x, y]));
                }
            }
        }
    }

    #[test]
    fn rejects_even_or_tiny_sizes() {
        assert!(extended_sobel(2, SobelAxis::X).is_err());
        assert!(extended_sobel(4, SobelAxis::X).is_err());
        assert!(extended_sobel(1, SobelAxis::Y).is_err());
    }

    #[test]
    fn responds_to_step_edges_with_correct_sign() {
        // Vertical step: dark left, bright right -> positive gx at the edge.
        let img = Tensor::from_fn(Shape::d2(8, 8), |i| if i[1] >= 4 { 1.0 } else { 0.0 });
        let gx = sobel_response(&img, SobelAxis::X).unwrap();
        assert!(gx.get(&[4, 4]) > 0.0);
        let gy = sobel_response(&img, SobelAxis::Y).unwrap();
        // No horizontal edge in the interior.
        assert!(gy.get(&[4, 4]).abs() < 1e-5);
    }

    #[test]
    fn gradient_magnitude_peaks_on_shape_boundary() {
        let mut img = Tensor::zeros(Shape::d2(64, 64));
        draw::fill_circle(&mut img, (32.0, 32.0), 20.0, 1.0);
        let mag = gradient_magnitude(&img).unwrap();
        // Interior and far exterior are flat.
        assert!(mag.get(&[32, 32]).abs() < 1e-5);
        assert!(mag.get(&[2, 2]).abs() < 1e-5);
        // Boundary pixels respond.
        assert!(mag.get(&[32, 12]) > 1.0);
    }

    #[test]
    fn gradient_magnitude_constant_image_is_zero_everywhere() {
        // Replicate border handling: a constant image has no gradient,
        // including at the frame (no zero-padding phantom edge).
        let img = Tensor::full(Shape::d2(16, 16), 0.7);
        let mag = gradient_magnitude(&img).unwrap();
        assert!(mag.max() < 1e-5);
    }

    #[test]
    fn rejects_non_grayscale() {
        let rgb = Tensor::zeros(Shape::d3(3, 8, 8));
        assert!(sobel_response(&rgb, SobelAxis::X).is_err());
        assert!(gradient_magnitude(&rgb).is_err());
    }

    #[test]
    fn sobel_bank_layout_and_norms() {
        let bank = sobel_bank(3, 11).unwrap();
        assert_eq!(bank.shape().dims(), &[3, 11, 11]);
        // Channels 0 and 2 identical (x), channel 1 differs (y).
        let c0 = bank.index_axis0(0).unwrap();
        let c1 = bank.index_axis0(1).unwrap();
        let c2 = bank.index_axis0(2).unwrap();
        assert_eq!(c0, c2);
        assert_ne!(c0, c1);
        for c in [c0, c1, c2] {
            assert!((c.norm() - 1.0).abs() < 1e-4, "unit-norm channels");
        }
        assert!(sobel_bank(0, 3).is_err());
        assert!(sobel_bank(3, 4).is_err());
    }
}
