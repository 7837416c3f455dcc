//! Radial shape signatures — the time series of Figure 3.
//!
//! "The time-series of a shape is generated by the distance from the
//! centroid of the shape to the edge of the shape" (§III-B). For each of
//! `n` equally spaced ray angles the signature records the distance from
//! the centroid to the outermost foreground pixel along that ray. A
//! regular `k`-gon produces a `k`-periodic sawtooth; a circle produces a
//! constant; rotation of the shape circularly shifts the series — which
//! z-normalised SAX tolerates up to symbol granularity.

use crate::blob::largest_component;
use crate::VisionError;
use relcnn_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A centroid-to-edge radial signature.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RadialSignature {
    samples: Vec<f32>,
    centroid: (f32, f32),
}

impl RadialSignature {
    /// Builds a signature from raw samples (used by callers that
    /// post-process the series, e.g. smoothing, and want the feature
    /// accessors back).
    pub fn from_samples(samples: Vec<f32>, centroid: (f32, f32)) -> Self {
        RadialSignature { samples, centroid }
    }

    /// The distance samples, one per ray angle (angle `i` is
    /// `i * 2π / len`).
    pub fn samples(&self) -> &[f32] {
        &self.samples
    }

    /// The centroid `(cy, cx)` the rays were cast from.
    pub fn centroid(&self) -> (f32, f32) {
        self.centroid
    }

    /// Mean radius.
    pub fn mean_radius(&self) -> f32 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f32>() / self.samples.len() as f32
    }

    /// Peak-to-trough ratio `max/min` — 1.0 for a perfect circle, larger
    /// for angular shapes (≈ 1/cos(π/k) for a regular k-gon).
    ///
    /// Returns `f32::INFINITY` when the minimum radius is zero.
    pub fn radial_ratio(&self) -> f32 {
        let max = self
            .samples
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max);
        let min = self.samples.iter().copied().fold(f32::INFINITY, f32::min);
        if min <= 0.0 {
            f32::INFINITY
        } else {
            max / min
        }
    }

    /// Number of "corners" in the cyclic series: maximal runs above the
    /// mid-level of a lightly smoothed copy — 8 for an octagon, 4 for a
    /// square, 3 for a triangle. Robust to ±half-pixel rasterisation
    /// noise; meaningless for near-circular signatures (whose amplitude is
    /// noise — gate on [`radial_ratio`](Self::radial_ratio) first).
    pub fn corner_count(&self) -> usize {
        let n = self.samples.len();
        if n < 8 {
            return 0;
        }
        // Circular moving average, window ~ n/64 (>= 3).
        let w = (n / 64).max(3) | 1;
        let half = w / 2;
        let mut smooth = Vec::with_capacity(n);
        for i in 0..n {
            let mut acc = 0.0f32;
            for d in 0..w {
                acc += self.samples[(i + n + d - half) % n];
            }
            smooth.push(acc / w as f32);
        }
        let max = smooth.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let min = smooth.iter().copied().fold(f32::INFINITY, f32::min);
        let mid = 0.5 * (max + min);
        // Count rising crossings of the mid-level in the cyclic series.
        let mut corners = 0;
        for i in 0..n {
            let prev = smooth[(i + n - 1) % n];
            if prev <= mid && smooth[i] > mid {
                corners += 1;
            }
        }
        corners
    }

    /// Consumes the signature, returning the samples.
    pub fn into_samples(self) -> Vec<f32> {
        self.samples
    }
}

/// Casts `n_angles` rays from `centroid` and records, for each, the
/// distance to the outermost foreground (`> 0.5`) pixel of `mask`.
///
/// Rays that never hit foreground record 0.0 (the centroid sits outside
/// the shape in that direction — typical of heavily occluded masks).
///
/// # Errors
///
/// * [`VisionError::NotGrayscale`] for non-rank-2 masks;
/// * [`VisionError::BadParameter`] when `n_angles == 0`.
fn radial_signature_from(
    mask: &Tensor,
    centroid: (f32, f32),
    n_angles: usize,
) -> Result<RadialSignature, VisionError> {
    if mask.shape().rank() != 2 {
        return Err(VisionError::NotGrayscale {
            rank: mask.shape().rank(),
        });
    }
    if n_angles == 0 {
        return Err(VisionError::BadParameter {
            reason: "radial signature needs at least one angle".into(),
        });
    }
    let (h, w) = (mask.shape().dim(0), mask.shape().dim(1));
    let data = mask.as_slice();
    let (cy, cx) = centroid;
    let r_max = ((h * h + w * w) as f32).sqrt();
    let mut samples = Vec::with_capacity(n_angles);
    // Half-pixel stepping finds the outermost set pixel robustly.
    const STEP: f32 = 0.5;
    for i in 0..n_angles {
        let theta = std::f32::consts::TAU * i as f32 / n_angles as f32;
        let (dy, dx) = (theta.sin(), theta.cos());
        let mut last_hit = 0.0f32;
        let mut r = 0.0f32;
        while r <= r_max {
            let y = cy + r * dy;
            let x = cx + r * dx;
            if y < 0.0 || x < 0.0 || y >= h as f32 || x >= w as f32 {
                break;
            }
            if data[y as usize * w + x as usize] > 0.5 {
                last_hit = r;
            }
            r += STEP;
        }
        samples.push(last_hit);
    }
    Ok(RadialSignature { samples, centroid })
}

/// Full Figure-3 front end: finds the largest component of `mask`, casts
/// rays from its centroid.
///
/// # Errors
///
/// * [`VisionError::EmptyMask`] when the mask has no foreground;
/// * [`VisionError::NotGrayscale`] for non-rank-2 masks;
/// * [`VisionError::BadParameter`] when `n_angles == 0`.
pub fn radial_signature(mask: &Tensor, n_angles: usize) -> Result<RadialSignature, VisionError> {
    let blob = largest_component(mask)?;
    let centroid = blob.centroid();
    let (h, w) = (mask.shape().dim(0), mask.shape().dim(1));
    radial_signature_from(&blob.to_mask(h, w), centroid, n_angles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::draw;
    use relcnn_tensor::Shape;

    fn octagon_mask(rotation: f32) -> Tensor {
        let mut mask = Tensor::zeros(Shape::d2(128, 128));
        draw::fill_regular_polygon(&mut mask, 8, (64.0, 64.0), 45.0, rotation, 1.0);
        mask
    }

    #[test]
    fn circle_signature_is_flat() {
        let mut mask = Tensor::zeros(Shape::d2(128, 128));
        draw::fill_circle(&mut mask, (64.0, 64.0), 40.0, 1.0);
        let sig = radial_signature(&mask, 256).unwrap();
        // Half-pixel rasterisation bounds the flatness achievable.
        assert!(sig.radial_ratio() < 1.08, "ratio {}", sig.radial_ratio());
        assert!((sig.mean_radius() - 40.0).abs() < 1.5);
    }

    #[test]
    fn octagon_signature_has_eight_corners() {
        let sig = radial_signature(&octagon_mask(0.1), 256).unwrap();
        // Regular octagon: R/r = 1/cos(π/8) ≈ 1.082.
        let expected_ratio = 1.0 / (std::f32::consts::PI / 8.0).cos();
        assert!(
            (sig.radial_ratio() - expected_ratio).abs() < 0.05,
            "ratio {} vs {}",
            sig.radial_ratio(),
            expected_ratio
        );
        let corners = sig.corner_count();
        assert!(
            (7..=9).contains(&corners),
            "octagon corner count {corners} (rasterisation tolerance)"
        );
    }

    #[test]
    fn square_vs_octagon_ratio_differs() {
        let mut sq = Tensor::zeros(Shape::d2(128, 128));
        draw::fill_regular_polygon(&mut sq, 4, (64.0, 64.0), 45.0, 0.2, 1.0);
        let sq_sig = radial_signature(&sq, 256).unwrap();
        let oct_sig = radial_signature(&octagon_mask(0.2), 256).unwrap();
        // Square R/r = sqrt(2) ≈ 1.414 ≫ octagon ≈ 1.082.
        assert!(sq_sig.radial_ratio() > 1.3);
        assert!(oct_sig.radial_ratio() < 1.15);
    }

    #[test]
    fn rotation_circularly_shifts_signature() {
        let n = 256usize;
        let base = radial_signature(&octagon_mask(0.0), n).unwrap();
        // 2π/8 rotation maps the octagon onto itself: signature ≈ equal.
        let eighth = radial_signature(&octagon_mask(std::f32::consts::TAU / 8.0), n).unwrap();
        let mut max_err = 0.0f32;
        for (a, b) in base.samples().iter().zip(eighth.samples().iter()) {
            max_err = max_err.max((a - b).abs());
        }
        assert!(max_err < 2.5, "self-similar rotation, err {max_err}");

        // Arbitrary rotation = circular shift: compare against the best
        // shift of the original.
        let rot = 0.3f32;
        let rotated = radial_signature(&octagon_mask(rot), n).unwrap();
        let shift = (rot / std::f32::consts::TAU * n as f32).round() as usize;
        let mut err = 0.0f32;
        for i in 0..n {
            err = err.max((rotated.samples()[i] - base.samples()[(i + n - shift) % n]).abs());
        }
        assert!(err < 3.0, "shift-equivariance err {err}");
    }

    #[test]
    fn edge_ring_gives_same_signature_as_filled() {
        let filled = octagon_mask(0.15);
        let edges = crate::sobel::gradient_magnitude(&filled).unwrap();
        let ring = crate::threshold::binarize(&edges, crate::threshold::otsu_threshold(&edges));
        let sig_filled = radial_signature(&filled, 128).unwrap();
        let sig_ring = radial_signature(&ring, 128).unwrap();
        for (a, b) in sig_filled.samples().iter().zip(sig_ring.samples().iter()) {
            assert!((a - b).abs() < 3.0, "{a} vs {b}");
        }
    }

    #[test]
    fn rays_missing_the_shape_record_zero() {
        // Place the centroid manually outside the blob: some rays miss.
        let mut mask = Tensor::zeros(Shape::d2(64, 64));
        draw::fill_circle(&mut mask, (16.0, 16.0), 8.0, 1.0);
        let sig = radial_signature_from(&mask, (48.0, 48.0), 64).unwrap();
        assert!(sig.samples().contains(&0.0));
        assert!(sig.samples().iter().any(|&r| r > 0.0));
    }

    #[test]
    fn parameter_validation() {
        let mask = Tensor::zeros(Shape::d2(8, 8));
        assert!(matches!(
            radial_signature(&mask, 16),
            Err(VisionError::EmptyMask)
        ));
        let mut mask = mask;
        mask.set(&[4, 4], 1.0);
        assert!(matches!(
            radial_signature(&mask, 0),
            Err(VisionError::BadParameter { .. })
        ));
        let rgb = Tensor::zeros(Shape::d3(3, 8, 8));
        assert!(radial_signature_from(&rgb, (1.0, 1.0), 8).is_err());
    }

    #[test]
    fn signature_accessors() {
        let mut mask = Tensor::zeros(Shape::d2(64, 64));
        draw::fill_circle(&mut mask, (32.0, 32.0), 10.0, 1.0);
        let sig = radial_signature(&mask, 32).unwrap();
        assert_eq!(sig.samples().len(), 32);
        let (cy, cx) = sig.centroid();
        assert!((cy - 31.5).abs() < 1.0 && (cx - 31.5).abs() < 1.0);
        let samples = sig.clone().into_samples();
        assert_eq!(samples.len(), 32);
    }
}
