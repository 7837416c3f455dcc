//! Softmax cross-entropy loss with logits.

use crate::error::NnError;
use relcnn_tensor::Tensor;

/// Numerically stable softmax of a logit vector: [`softmax_in_place`]
/// on a copy.
pub fn softmax(logits: &Tensor) -> Tensor {
    let mut probs = logits.clone();
    softmax_in_place(probs.as_mut_slice());
    probs
}

/// In-place softmax over a mutable slice — the one softmax arithmetic:
/// max-fold over the inputs, `(v - max).exp()`, a left-to-right sum of
/// the exponentials, then one divide by `sum.max(f32::MIN_POSITIVE)`.
pub fn softmax_in_place(xs: &mut [f32]) {
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for v in xs.iter_mut() {
        *v = (*v - max).exp();
    }
    let sum: f32 = xs.iter().sum();
    let denom = sum.max(f32::MIN_POSITIVE);
    for v in xs.iter_mut() {
        *v /= denom;
    }
}

/// Softmax + cross-entropy against an integer class label.
///
/// Fusing the two keeps the backward pass the textbook `p - onehot`,
/// avoiding the numerically delicate softmax Jacobian.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrossEntropyLoss;

impl CrossEntropyLoss {
    /// Creates the loss.
    pub fn new() -> Self {
        CrossEntropyLoss
    }

    /// Computes `(loss, probabilities)` for one sample.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] when `target` is out of range or the
    /// logits are empty.
    pub fn forward(&self, logits: &Tensor, target: usize) -> Result<(f32, Tensor), NnError> {
        if logits.is_empty() {
            return Err(NnError::BadInput {
                layer: "cross_entropy",
                reason: "empty logits".into(),
            });
        }
        if target >= logits.len() {
            return Err(NnError::BadInput {
                layer: "cross_entropy",
                reason: format!("target {target} >= {} classes", logits.len()),
            });
        }
        let probs = softmax(logits);
        let p = probs.as_slice()[target].max(1e-12);
        Ok((-p.ln(), probs))
    }

    /// Gradient of the loss with respect to the logits: `p - onehot`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] when `target` is out of range.
    pub fn backward(&self, probs: &Tensor, target: usize) -> Result<Tensor, NnError> {
        if target >= probs.len() {
            return Err(NnError::BadInput {
                layer: "cross_entropy",
                reason: format!("target {target} >= {} classes", probs.len()),
            });
        }
        let mut grad = probs.clone();
        grad.as_mut_slice()[target] -= 1.0;
        Ok(grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relcnn_tensor::Shape;

    fn logits(v: Vec<f32>) -> Tensor {
        let n = v.len();
        Tensor::from_vec(Shape::d1(n), v).unwrap()
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax(&logits(vec![1.0, 3.0, 2.0]));
        assert!((p.sum() - 1.0).abs() < 1e-6);
        assert_eq!(p.argmax(), Some(1));
        assert!(p.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a = softmax(&logits(vec![1.0, 2.0, 3.0]));
        let b = softmax(&logits(vec![1001.0, 1002.0, 1003.0]));
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-6);
        }
        let huge = softmax(&logits(vec![1e30, -1e30]));
        assert!(huge.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn softmax_in_place_bit_identical_to_softmax() {
        for raw in [
            vec![1.0, 3.0, 2.0],
            vec![-5.5, 0.0, 5.5, 17.25],
            vec![1e30, -1e30],
            vec![f32::NEG_INFINITY, 0.0, 1.0],
            vec![42.0],
        ] {
            let oracle = softmax(&logits(raw.clone()));
            let mut buf = raw;
            softmax_in_place(&mut buf);
            for (a, b) in buf.iter().zip(oracle.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn loss_zero_for_confident_correct() {
        let loss = CrossEntropyLoss::new();
        let (l, _) = loss.forward(&logits(vec![100.0, 0.0, 0.0]), 0).unwrap();
        assert!(l < 1e-3);
        let (l_bad, _) = loss.forward(&logits(vec![100.0, 0.0, 0.0]), 1).unwrap();
        assert!(l_bad > 10.0);
    }

    #[test]
    fn uniform_logits_give_log_n() {
        let loss = CrossEntropyLoss::new();
        let (l, _) = loss.forward(&logits(vec![0.0; 8]), 3).unwrap();
        assert!((l - (8.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn backward_is_p_minus_onehot() {
        let loss = CrossEntropyLoss::new();
        let (_, p) = loss.forward(&logits(vec![1.0, 2.0, 0.5]), 1).unwrap();
        let g = loss.backward(&p, 1).unwrap();
        assert!((g.sum()).abs() < 1e-6, "gradient sums to zero");
        assert!(g.as_slice()[1] < 0.0);
        assert!(g.as_slice()[0] > 0.0 && g.as_slice()[2] > 0.0);
    }

    #[test]
    fn gradient_matches_numeric() {
        let loss = CrossEntropyLoss::new();
        let base = vec![0.3f32, -0.7, 1.2, 0.1];
        let target = 2;
        let (_, p) = loss.forward(&logits(base.clone()), target).unwrap();
        let analytic = loss.backward(&p, target).unwrap();
        let eps = 1e-3f32;
        for i in 0..base.len() {
            let mut plus = base.clone();
            plus[i] += eps;
            let mut minus = base.clone();
            minus[i] -= eps;
            let (lp, _) = loss.forward(&logits(plus), target).unwrap();
            let (lm, _) = loss.forward(&logits(minus), target).unwrap();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - analytic.as_slice()[i]).abs() < 1e-3,
                "logit {i}: numeric {numeric} vs analytic {}",
                analytic.as_slice()[i]
            );
        }
    }

    #[test]
    fn validation_errors() {
        let loss = CrossEntropyLoss::new();
        assert!(loss.forward(&logits(vec![1.0]), 1).is_err());
        assert!(loss
            .forward(&Tensor::from_vec(Shape::new(vec![0]), vec![]).unwrap(), 0)
            .is_err());
        let (_, p) = loss.forward(&logits(vec![0.0, 0.0]), 0).unwrap();
        assert!(loss.backward(&p, 5).is_err());
    }
}
