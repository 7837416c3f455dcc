//! Stochastic gradient descent with momentum and weight decay.

use crate::error::NnError;
use crate::layers::Param;
use relcnn_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// SGD hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SgdConfig {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    /// L2 weight decay coefficient (0 disables decay).
    ///
    /// Note for experiment X2: weight decay applies to *all* parameters,
    /// including gradient-masked ("frozen") filters — this is exactly the
    /// mechanism by which the paper's frozen Sobel filters still drift
    /// "after every epoch or batch" under TensorFlow.
    pub weight_decay: f32,
}

impl SgdConfig {
    /// Plain SGD with the given learning rate.
    pub fn plain(lr: f32) -> Self {
        SgdConfig {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
        }
    }

    /// AlexNet-style configuration: momentum 0.9, weight decay 5e-4.
    pub fn alexnet(lr: f32) -> Self {
        SgdConfig {
            lr,
            momentum: 0.9,
            weight_decay: 5e-4,
        }
    }
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig::alexnet(0.01)
    }
}

/// The SGD optimiser. Holds one velocity buffer per parameter tensor.
#[derive(Debug)]
pub struct Sgd {
    config: SgdConfig,
    velocities: Vec<Tensor>,
}

impl Sgd {
    /// Creates an optimiser.
    pub fn new(config: SgdConfig) -> Self {
        Sgd {
            config,
            velocities: Vec::new(),
        }
    }

    /// Applies one update step to `params`, dividing accumulated gradients
    /// by `batch_size`.
    ///
    /// The parameter list must be stable across calls (same order, same
    /// shapes) — it always is when obtained from the same
    /// [`Network`](crate::Network).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadTraining`] for `batch_size == 0` or if the
    /// parameter list changed shape since the previous step.
    pub fn step(&mut self, params: &mut [Param<'_>], batch_size: usize) -> Result<(), NnError> {
        if batch_size == 0 {
            return Err(NnError::BadTraining {
                reason: "batch size must be positive".into(),
            });
        }
        if self.velocities.is_empty() {
            self.velocities = params
                .iter()
                .map(|p| Tensor::zeros(p.value.shape().clone()))
                .collect();
        }
        if self.velocities.len() != params.len() {
            return Err(NnError::BadTraining {
                reason: format!(
                    "parameter count changed: {} vs {}",
                    params.len(),
                    self.velocities.len()
                ),
            });
        }
        let scale = 1.0 / batch_size as f32;
        for (p, v) in params.iter_mut().zip(self.velocities.iter_mut()) {
            if p.value.shape() != v.shape() {
                return Err(NnError::BadTraining {
                    reason: format!("parameter {} changed shape", p.name),
                });
            }
            let vs = v.as_mut_slice();
            let ws = p.value.as_mut_slice();
            let gs = p.grad.as_slice();
            for i in 0..ws.len() {
                let g = gs[i] * scale + self.config.weight_decay * ws[i];
                vs[i] = self.config.momentum * vs[i] - self.config.lr * g;
                ws[i] += vs[i];
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relcnn_tensor::Shape;

    fn param_pair(value: Vec<f32>, grad: Vec<f32>) -> (Tensor, Tensor) {
        let n = value.len();
        (
            Tensor::from_vec(Shape::d1(n), value).unwrap(),
            Tensor::from_vec(Shape::d1(n), grad).unwrap(),
        )
    }

    #[test]
    fn plain_sgd_moves_against_gradient() {
        let (mut w, mut g) = param_pair(vec![1.0, -1.0], vec![2.0, -4.0]);
        let mut sgd = Sgd::new(SgdConfig::plain(0.5));
        let mut params = vec![Param {
            name: "w",
            value: &mut w,
            grad: &mut g,
        }];
        sgd.step(&mut params, 1).unwrap();
        assert_eq!(w.as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn batch_size_scales_gradient() {
        let (mut w, mut g) = param_pair(vec![0.0], vec![8.0]);
        let mut sgd = Sgd::new(SgdConfig::plain(1.0));
        sgd.step(
            &mut [Param {
                name: "w",
                value: &mut w,
                grad: &mut g,
            }],
            4,
        )
        .unwrap();
        assert_eq!(w.as_slice(), &[-2.0]);
    }

    #[test]
    fn momentum_accumulates() {
        let (mut w, mut g) = param_pair(vec![0.0], vec![1.0]);
        let mut sgd = Sgd::new(SgdConfig {
            lr: 1.0,
            momentum: 0.5,
            weight_decay: 0.0,
        });
        for _ in 0..2 {
            let mut params = vec![Param {
                name: "w",
                value: &mut w,
                grad: &mut g,
            }];
            sgd.step(&mut params, 1).unwrap();
        }
        // Step 1: v=-1, w=-1. Step 2: v=-0.5-1=-1.5, w=-2.5.
        assert_eq!(w.as_slice(), &[-2.5]);
    }

    #[test]
    fn weight_decay_shrinks_even_without_gradient() {
        // The drift mechanism of experiment X2: zero gradient (masked
        // "frozen" filter) but nonzero decay.
        let (mut w, mut g) = param_pair(vec![1.0], vec![0.0]);
        let mut sgd = Sgd::new(SgdConfig {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.5,
        });
        sgd.step(
            &mut [Param {
                name: "w",
                value: &mut w,
                grad: &mut g,
            }],
            1,
        )
        .unwrap();
        assert!((w.as_slice()[0] - 0.95).abs() < 1e-6);
    }

    #[test]
    fn rejects_zero_batch_and_changed_params() {
        let (mut w, mut g) = param_pair(vec![1.0], vec![1.0]);
        let mut sgd = Sgd::new(SgdConfig::plain(0.1));
        assert!(sgd
            .step(
                &mut [Param {
                    name: "w",
                    value: &mut w,
                    grad: &mut g
                }],
                0
            )
            .is_err());
        sgd.step(
            &mut [Param {
                name: "w",
                value: &mut w,
                grad: &mut g,
            }],
            1,
        )
        .unwrap();
        // Different parameter count on the next step.
        let (mut w2, mut g2) = param_pair(vec![1.0, 2.0], vec![0.0, 0.0]);
        let err = sgd.step(
            &mut [
                Param {
                    name: "w",
                    value: &mut w,
                    grad: &mut g,
                },
                Param {
                    name: "w2",
                    value: &mut w2,
                    grad: &mut g2,
                },
            ],
            1,
        );
        assert!(err.is_err());
    }
}
