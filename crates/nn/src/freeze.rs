//! Filter freezing, pinning and drift measurement (paper §III-B).
//!
//! "We then begin pre-initializing one of the three-dimensional AlexNet
//! filters to Sobel filters and train the network keeping this
//! initialisation constant. In theory the training tool … offers the
//! ability to freeze a filter during training. In practice, after every
//! epoch or batch, the filter values are minimally changed … It can be
//! shown the (learnt) filter undergoes subtle changes in the intensity,
//! statistical and spatial frequency domains."
//!
//! Three regimes are reproduced:
//!
//! * [`FreezePolicy::GradMask`] — gradient masking only (TensorFlow-style
//!   "freeze"); weight decay still drifts the values, reproducing the
//!   paper's observation;
//! * [`FreezePolicy::PinEachBatch`] / [`FreezePolicy::PinEachEpoch`] —
//!   hard re-pinning after each batch/epoch ("re-set after every epoch or
//!   batch");
//! * [`FreezePolicy::None`] — the filter trains freely.
//!
//! [`FilterDrift`] quantifies the drift in the three domains the paper
//! names: intensity (mean), statistics (standard deviation) and spatial
//! frequency (gradient-energy ratio).

use crate::error::NnError;
use crate::network::Network;
use relcnn_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// When (if ever) a pinned filter is forcibly restored to its target
/// values during training.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum FreezePolicy {
    /// No freezing: the filter trains like any other.
    None,
    /// Gradient masking only — the optimiser's weight decay still applies
    /// (the drift the paper observed in TensorFlow).
    GradMask,
    /// Gradient masking + restore the exact values after every batch.
    PinEachBatch,
    /// Gradient masking + restore the exact values after every epoch.
    PinEachEpoch,
}

/// A filter pinned to fixed values in one convolution layer.
#[derive(Debug, Clone)]
pub struct FilterPin {
    /// Index of the convolution layer within the network.
    pub layer: usize,
    /// Filter (output-channel) index within the layer.
    pub filter: usize,
    /// The `[in_c, k, k]` values the filter is pinned to.
    pub values: Tensor,
    /// The pinning regime.
    pub policy: FreezePolicy,
}

impl FilterPin {
    /// Creates a pin and applies the initial values + gradient mask to the
    /// network.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] if `layer` is not a convolution layer
    /// or the filter index/shape is invalid.
    pub fn install(
        net: &mut Network,
        layer: usize,
        filter: usize,
        values: Tensor,
        policy: FreezePolicy,
    ) -> Result<FilterPin, NnError> {
        let conv = net.conv2d_at_mut(layer).ok_or(NnError::BadInput {
            layer: "filter_pin",
            reason: format!("layer {layer} is not a Conv2d"),
        })?;
        conv.set_filter(filter, &values)?;
        if policy != FreezePolicy::None {
            conv.set_frozen(filter, true)?;
        }
        Ok(FilterPin {
            layer,
            filter,
            values,
            policy,
        })
    }

    /// Re-applies the pinned values (no-op unless the policy requires it
    /// at this boundary).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] if the network changed shape.
    pub fn after_batch(&self, net: &mut Network) -> Result<(), NnError> {
        if self.policy == FreezePolicy::PinEachBatch {
            self.restore(net)?;
        }
        Ok(())
    }

    /// Re-applies the pinned values at an epoch boundary.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] if the network changed shape.
    pub fn after_epoch(&self, net: &mut Network) -> Result<(), NnError> {
        if self.policy == FreezePolicy::PinEachEpoch || self.policy == FreezePolicy::PinEachBatch {
            self.restore(net)?;
        }
        Ok(())
    }

    /// Unconditionally restores the pinned values.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] if the network changed shape.
    pub fn restore(&self, net: &mut Network) -> Result<(), NnError> {
        let conv = net.conv2d_at_mut(self.layer).ok_or(NnError::BadInput {
            layer: "filter_pin",
            reason: format!("layer {} is not a Conv2d", self.layer),
        })?;
        conv.set_filter(self.filter, &self.values)
    }

    /// Measures how far the filter has drifted from its pinned values.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] if the network changed shape.
    pub fn drift(&self, net: &Network) -> Result<FilterDrift, NnError> {
        let conv = net.conv2d_at(self.layer).ok_or(NnError::BadInput {
            layer: "filter_pin",
            reason: format!("layer {} is not a Conv2d", self.layer),
        })?;
        let current = conv.filter(self.filter)?;
        Ok(FilterDrift::between(&self.values, &current))
    }
}

/// Drift of a filter in the three domains the paper names.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FilterDrift {
    /// Euclidean distance between the tensors.
    pub l2: f32,
    /// Intensity-domain drift: |Δ mean|.
    pub mean_shift: f32,
    /// Statistical-domain drift: |Δ standard deviation|.
    pub std_shift: f32,
    /// Spatial-frequency drift: |Δ gradient-energy fraction| where
    /// gradient energy is the squared first-difference sum along both
    /// spatial axes, normalised by total energy.
    pub highfreq_shift: f32,
}

impl FilterDrift {
    /// Measures drift between a reference filter and its current values
    /// (both `[c, k, k]`).
    pub fn between(reference: &Tensor, current: &Tensor) -> FilterDrift {
        let l2 = reference
            .iter()
            .zip(current.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();
        FilterDrift {
            l2,
            mean_shift: (reference.mean() - current.mean()).abs(),
            std_shift: (reference.std_dev() - current.std_dev()).abs(),
            highfreq_shift: (gradient_energy_fraction(reference)
                - gradient_energy_fraction(current))
            .abs(),
        }
    }
}

/// Fraction of a `[c, k, k]` filter's energy in first differences — a
/// cheap spatial-frequency probe (high for edge-like filters, low for
/// blobs).
fn gradient_energy_fraction(filter: &Tensor) -> f32 {
    if filter.shape().rank() != 3 {
        return 0.0;
    }
    let (c, h, w) = (
        filter.shape().dim(0),
        filter.shape().dim(1),
        filter.shape().dim(2),
    );
    let x = filter.as_slice();
    let mut grad_energy = 0.0f32;
    for ch in 0..c {
        let base = ch * h * w;
        for y in 0..h {
            for xx in 0..w {
                let v = x[base + y * w + xx];
                if xx + 1 < w {
                    let d = x[base + y * w + xx + 1] - v;
                    grad_energy += d * d;
                }
                if y + 1 < h {
                    let d = x[base + (y + 1) * w + xx] - v;
                    grad_energy += d * d;
                }
            }
        }
    }
    let total: f32 = filter.norm_sq();
    if total <= f32::MIN_POSITIVE {
        0.0
    } else {
        grad_energy / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Mode};
    use relcnn_tensor::init::Rand;
    use relcnn_tensor::Shape;

    fn net_with_conv(rng: &mut Rand) -> Network {
        let mut net = Network::new();
        net.push(Conv2d::new(3, 4, 3, 1, 1, rng));
        net
    }

    fn sobel_values() -> Tensor {
        Tensor::from_fn(Shape::d3(3, 3, 3), |i| {
            [[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]][i[1]][i[2]]
        })
    }

    #[test]
    fn install_sets_values_and_mask() {
        let mut rng = Rand::seeded(1);
        let mut net = net_with_conv(&mut rng);
        let pin =
            FilterPin::install(&mut net, 0, 2, sobel_values(), FreezePolicy::GradMask).unwrap();
        let conv = net.conv2d_at(0).unwrap();
        assert_eq!(conv.filter(2).unwrap(), sobel_values());
        assert!(conv.is_frozen(2));
        assert!(!conv.is_frozen(0));
        assert_eq!(pin.filter, 2);
    }

    #[test]
    fn policy_none_does_not_mask() {
        let mut rng = Rand::seeded(2);
        let mut net = net_with_conv(&mut rng);
        FilterPin::install(&mut net, 0, 1, sobel_values(), FreezePolicy::None).unwrap();
        assert!(!net.conv2d_at(0).unwrap().is_frozen(1));
    }

    #[test]
    fn install_validates() {
        let mut rng = Rand::seeded(3);
        let mut net = net_with_conv(&mut rng);
        assert!(
            FilterPin::install(&mut net, 5, 0, sobel_values(), FreezePolicy::GradMask).is_err()
        );
        assert!(
            FilterPin::install(&mut net, 0, 9, sobel_values(), FreezePolicy::GradMask).is_err()
        );
        let bad_shape = Tensor::zeros(Shape::d3(3, 2, 2));
        assert!(FilterPin::install(&mut net, 0, 0, bad_shape, FreezePolicy::GradMask).is_err());
    }

    #[test]
    fn pin_each_batch_restores_after_perturbation() {
        let mut rng = Rand::seeded(4);
        let mut net = net_with_conv(&mut rng);
        let pin =
            FilterPin::install(&mut net, 0, 0, sobel_values(), FreezePolicy::PinEachBatch).unwrap();
        // Simulate optimiser drift.
        let noisy = sobel_values().shift(0.01);
        net.conv2d_at_mut(0).unwrap().set_filter(0, &noisy).unwrap();
        assert!(pin.drift(&net).unwrap().l2 > 0.0);
        pin.after_batch(&mut net).unwrap();
        assert_eq!(pin.drift(&net).unwrap().l2, 0.0);
        // Epoch boundary also restores for batch policy.
        net.conv2d_at_mut(0).unwrap().set_filter(0, &noisy).unwrap();
        pin.after_epoch(&mut net).unwrap();
        assert_eq!(pin.drift(&net).unwrap().l2, 0.0);
    }

    #[test]
    fn pin_each_epoch_ignores_batch_boundary() {
        let mut rng = Rand::seeded(5);
        let mut net = net_with_conv(&mut rng);
        let pin =
            FilterPin::install(&mut net, 0, 0, sobel_values(), FreezePolicy::PinEachEpoch).unwrap();
        let noisy = sobel_values().shift(0.02);
        net.conv2d_at_mut(0).unwrap().set_filter(0, &noisy).unwrap();
        pin.after_batch(&mut net).unwrap();
        assert!(pin.drift(&net).unwrap().l2 > 0.0, "batch does not restore");
        pin.after_epoch(&mut net).unwrap();
        assert_eq!(pin.drift(&net).unwrap().l2, 0.0);
    }

    #[test]
    fn grad_mask_never_restores() {
        let mut rng = Rand::seeded(6);
        let mut net = net_with_conv(&mut rng);
        let pin =
            FilterPin::install(&mut net, 0, 0, sobel_values(), FreezePolicy::GradMask).unwrap();
        let noisy = sobel_values().scale(0.99);
        net.conv2d_at_mut(0).unwrap().set_filter(0, &noisy).unwrap();
        pin.after_batch(&mut net).unwrap();
        pin.after_epoch(&mut net).unwrap();
        assert!(
            pin.drift(&net).unwrap().l2 > 0.0,
            "grad-mask drift persists (the paper's TensorFlow observation)"
        );
    }

    #[test]
    fn drift_domains_behave() {
        let reference = sobel_values();
        // Intensity shift only.
        let shifted = reference.shift(0.5);
        let d = FilterDrift::between(&reference, &shifted);
        assert!(d.mean_shift > 0.49);
        assert!(d.std_shift < 1e-5, "shift does not change std");
        // Scale changes std but not the frequency fraction.
        let scaled = reference.scale(2.0);
        let d = FilterDrift::between(&reference, &scaled);
        assert!(d.std_shift > 0.0);
        assert!(d.highfreq_shift < 1e-5, "scaling is frequency-neutral");
        // Smoothing (constant filter) kills high frequency content.
        let flat = Tensor::full(Shape::d3(3, 3, 3), 0.5);
        let d = FilterDrift::between(&reference, &flat);
        assert!(d.highfreq_shift > 0.1);
        // Identity.
        let d = FilterDrift::between(&reference, &reference);
        assert_eq!(d.l2, 0.0);
    }

    #[test]
    fn frozen_filter_survives_training_step_exactly_under_pin() {
        use crate::loss::CrossEntropyLoss;
        use crate::optim::{Sgd, SgdConfig};
        let mut rng = Rand::seeded(7);
        let mut net = Network::new();
        net.push(Conv2d::new(3, 4, 3, 2, 1, &mut rng));
        net.push(crate::layers::ReLU::new());
        net.push(crate::layers::Flatten::new());
        net.push(crate::layers::Dense::new(4 * 8 * 8, 3, &mut rng));
        let pin =
            FilterPin::install(&mut net, 0, 1, sobel_values(), FreezePolicy::PinEachBatch).unwrap();

        let x = rng.tensor(
            Shape::d3(3, 16, 16),
            relcnn_tensor::init::Init::Uniform { lo: 0.0, hi: 1.0 },
        );
        let loss = CrossEntropyLoss::new();
        // Weight decay ON: without pinning this would drift the filter.
        let mut sgd = Sgd::new(SgdConfig {
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-2,
        });
        for _ in 0..3 {
            net.zero_grads();
            let logits = net.forward(&x, Mode::Train).unwrap();
            let (_, probs) = loss.forward(&logits, 0).unwrap();
            let g = loss.backward(&probs, 0).unwrap();
            net.backward(&g).unwrap();
            sgd.step(&mut net.params(), 1).unwrap();
            pin.after_batch(&mut net).unwrap();
        }
        assert_eq!(
            pin.drift(&net).unwrap().l2,
            0.0,
            "hard pinning keeps the filter bit-exact"
        );

        // Same setup under GradMask only: weight decay drifts it.
        let mut net2 = Network::new();
        net2.push(Conv2d::new(3, 4, 3, 2, 1, &mut rng));
        net2.push(crate::layers::ReLU::new());
        net2.push(crate::layers::Flatten::new());
        net2.push(crate::layers::Dense::new(4 * 8 * 8, 3, &mut rng));
        let pin2 =
            FilterPin::install(&mut net2, 0, 1, sobel_values(), FreezePolicy::GradMask).unwrap();
        let mut sgd2 = Sgd::new(SgdConfig {
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-2,
        });
        for _ in 0..3 {
            net2.zero_grads();
            let logits = net2.forward(&x, Mode::Train).unwrap();
            let (_, probs) = loss.forward(&logits, 0).unwrap();
            let g = loss.backward(&probs, 0).unwrap();
            net2.backward(&g).unwrap();
            sgd2.step(&mut net2.params(), 1).unwrap();
            pin2.after_batch(&mut net2).unwrap();
        }
        let drift = pin2.drift(&net2).unwrap();
        assert!(
            drift.l2 > 0.0,
            "gradient-masked filter still drifts under weight decay (paper §III-B)"
        );
    }
}
