//! Activation-range supervision — the "caging" baseline (paper §II-D,
//! reference \[28\]: Geissler et al., *Towards a Safety Case for Hardware
//! Fault Tolerance in CNNs Using Activation Range Supervision*).
//!
//! "Another caging variant checks the outputs of operations and if they
//! are larger or smaller than some preset and operation specific
//! saturation limit, the output saturates to that value. Whilst this
//! approach preserves computing power vis a vis redundant execution, the
//! required memory bandwidth is substantially increased."
//!
//! This module implements that comparator so the repository can measure
//! the trade the paper describes: range supervision is nearly free
//! computationally but only *masks* out-of-range corruption — in-range
//! corruption passes silently, whereas the paper's qualified operations
//! detect any single-replica corruption regardless of magnitude.

use crate::error::NnError;
use crate::network::Network;
use relcnn_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Per-tensor saturation bounds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActivationRange {
    /// Lower saturation limit.
    pub min: f32,
    /// Upper saturation limit.
    pub max: f32,
}

impl ActivationRange {
    /// Fits the range of one tensor.
    pub fn of(tensor: &Tensor) -> ActivationRange {
        ActivationRange {
            min: tensor.min(),
            max: tensor.max(),
        }
    }

    /// Widens to cover another tensor.
    pub fn absorb(&mut self, tensor: &Tensor) {
        self.min = self.min.min(tensor.min());
        self.max = self.max.max(tensor.max());
    }

    /// Expands both bounds by a relative safety margin (e.g. `0.1` for
    /// ±10% of the range width), so calibration-set extremes do not
    /// saturate legitimate inference activations.
    pub fn with_margin(mut self, fraction: f32) -> ActivationRange {
        let width = (self.max - self.min).max(f32::MIN_POSITIVE);
        self.min -= width * fraction;
        self.max += width * fraction;
        self
    }

    /// Saturates one value into the range, reporting whether it was out
    /// of bounds.
    pub fn clamp_value(&self, v: f32) -> (f32, bool) {
        if v < self.min {
            (self.min, true)
        } else if v > self.max {
            (self.max, true)
        } else if v.is_nan() {
            // NaN from an exponent-field upset: saturate to the midpoint.
            (0.5 * (self.min + self.max), true)
        } else {
            (v, false)
        }
    }
}

/// Result of supervising one tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisedTensor {
    /// The saturated tensor.
    pub tensor: Tensor,
    /// Number of out-of-range (clamped) elements.
    pub violations: usize,
}

/// A fitted range supervisor for the output of one network layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RangeSupervisor {
    ranges: Vec<ActivationRange>,
}

impl RangeSupervisor {
    /// Calibrates per-layer output ranges over a calibration set —
    /// the "additional workflow step to determine the output bounding
    /// set" the paper notes both caging and its own approach require.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadTraining`] for an empty calibration set and
    /// propagates forward-pass errors.
    pub fn fit(
        net: &Network,
        calibration: &[Tensor],
        margin: f32,
    ) -> Result<RangeSupervisor, NnError> {
        let first = calibration.first().ok_or(NnError::BadTraining {
            reason: "empty calibration set".into(),
        })?;
        let mut ranges: Vec<ActivationRange> = net
            .forward_trace(first)?
            .iter()
            .map(ActivationRange::of)
            .collect();
        for sample in &calibration[1..] {
            for (range, out) in ranges.iter_mut().zip(net.forward_trace(sample)?.iter()) {
                range.absorb(out);
            }
        }
        for r in &mut ranges {
            *r = r.with_margin(margin);
        }
        Ok(RangeSupervisor { ranges })
    }

    /// The fitted per-layer ranges.
    pub fn ranges(&self) -> &[ActivationRange] {
        &self.ranges
    }

    /// Saturates a layer output against its fitted range.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] for an out-of-range layer index.
    pub fn supervise(&self, layer: usize, output: &Tensor) -> Result<SupervisedTensor, NnError> {
        let range = self.ranges.get(layer).ok_or(NnError::BadInput {
            layer: "range_supervisor",
            reason: format!("layer {layer} beyond fitted {} layers", self.ranges.len()),
        })?;
        let mut violations = 0usize;
        let data = output
            .iter()
            .map(|&v| {
                let (c, hit) = range.clamp_value(v);
                if hit {
                    violations += 1;
                }
                c
            })
            .collect();
        Ok(SupervisedTensor {
            tensor: Tensor::from_vec(output.shape().clone(), data)?,
            violations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alexnet::tiny_cnn;
    use relcnn_tensor::init::{Init, Rand};
    use relcnn_tensor::Shape;

    fn calibration(rng: &mut Rand, n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|_| rng.tensor(Shape::d3(3, 16, 16), Init::Uniform { lo: 0.0, hi: 1.0 }))
            .collect()
    }

    #[test]
    fn range_fitting_and_margin() {
        let t = Tensor::from_vec(Shape::d1(4), vec![-1.0, 0.0, 2.0, 1.0]).unwrap();
        let mut r = ActivationRange::of(&t);
        assert_eq!((r.min, r.max), (-1.0, 2.0));
        let t2 = Tensor::from_vec(Shape::d1(2), vec![-3.0, 0.5]).unwrap();
        r.absorb(&t2);
        assert_eq!((r.min, r.max), (-3.0, 2.0));
        let wide = r.with_margin(0.1);
        assert!(wide.min < -3.0 && wide.max > 2.0);
    }

    #[test]
    fn clamp_value_semantics() {
        let r = ActivationRange {
            min: -1.0,
            max: 1.0,
        };
        assert_eq!(r.clamp_value(0.5), (0.5, false));
        assert_eq!(r.clamp_value(3.0), (1.0, true));
        assert_eq!(r.clamp_value(-9.0), (-1.0, true));
        let (v, hit) = r.clamp_value(f32::NAN);
        assert!(hit);
        assert_eq!(v, 0.0, "NaN saturates to midpoint");
    }

    #[test]
    fn fit_covers_calibration_set() {
        let mut rng = Rand::seeded(1);
        let net = tiny_cnn(4, 16, &mut rng).unwrap();
        let cal = calibration(&mut rng, 6);
        let sup = RangeSupervisor::fit(&net, &cal, 0.0).unwrap();
        assert_eq!(sup.ranges().len(), net.len());
        // Every calibration activation is in range: zero violations.
        for sample in &cal {
            let outs = net.forward_trace(sample).unwrap();
            for (i, out) in outs.iter().enumerate() {
                let s = sup.supervise(i, out).unwrap();
                assert_eq!(s.violations, 0, "layer {i}");
                assert_eq!(&s.tensor, out);
            }
        }
        assert!(RangeSupervisor::fit(&net, &[], 0.1).is_err());
    }

    #[test]
    fn catches_large_corruption_misses_small() {
        let mut rng = Rand::seeded(2);
        let net = tiny_cnn(4, 16, &mut rng).unwrap();
        let cal = calibration(&mut rng, 4);
        let sup = RangeSupervisor::fit(&net, &cal, 0.05).unwrap();

        let out = net.forward_trace(&cal[0]).unwrap().remove(0);
        // Exponent-bit corruption: huge value — caught and masked.
        let mut big = out.clone();
        big.as_mut_slice()[3] = 1e20;
        let s = sup.supervise(0, &big).unwrap();
        assert_eq!(s.violations, 1);
        assert!(s.tensor.as_slice()[3].abs() < 1e6);

        // Mantissa-LSB corruption: tiny in-range perturbation — the
        // fundamental blind spot the paper's qualified operations close.
        let mut small = out.clone();
        small.as_mut_slice()[3] += 1e-4;
        let s = sup.supervise(0, &small).unwrap();
        assert_eq!(s.violations, 0, "in-range corruption passes silently");
    }

    #[test]
    fn supervise_validates_layer_index() {
        let mut rng = Rand::seeded(3);
        let net = tiny_cnn(4, 16, &mut rng).unwrap();
        let cal = calibration(&mut rng, 2);
        let sup = RangeSupervisor::fit(&net, &cal, 0.1).unwrap();
        let t = Tensor::zeros(Shape::d1(4));
        assert!(sup.supervise(99, &t).is_err());
    }

    #[test]
    fn serialises() {
        let mut rng = Rand::seeded(4);
        let net = tiny_cnn(3, 16, &mut rng).unwrap();
        let cal = calibration(&mut rng, 2);
        let sup = RangeSupervisor::fit(&net, &cal, 0.1).unwrap();
        let json = serde_json::to_string(&sup).unwrap();
        let back: RangeSupervisor = serde_json::from_str(&json).unwrap();
        assert_eq!(sup, back);
    }
}
