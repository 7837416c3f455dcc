//! The training loop.

use crate::error::NnError;
use crate::freeze::FilterPin;
use crate::layers::Mode;
use crate::loss::CrossEntropyLoss;
use crate::metrics::ConfusionMatrix;
use crate::network::Network;
use crate::optim::{Sgd, SgdConfig};
use relcnn_tensor::init::Rand;
use relcnn_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// One labelled training sample (borrowed image + class index).
#[derive(Debug, Clone, Copy)]
pub struct LabelledRef<'a> {
    /// Input tensor (CHW image).
    pub input: &'a Tensor,
    /// Target class index.
    pub target: usize,
}

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size (gradient accumulation granularity).
    pub batch_size: usize,
    /// Optimiser configuration.
    pub sgd: SgdConfig,
    /// Shuffle seed (shuffling is per-epoch, deterministic).
    pub seed: u64,
}

impl TrainConfig {
    /// A quick configuration for experiments: 5 epochs, batch 16.
    pub fn quick(seed: u64) -> Self {
        TrainConfig {
            epochs: 5,
            batch_size: 16,
            sgd: SgdConfig::alexnet(0.01),
            seed,
        }
    }
}

/// Per-epoch training record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch number (0-based).
    pub epoch: usize,
    /// Mean cross-entropy loss over the epoch.
    pub mean_loss: f64,
    /// Training accuracy over the epoch.
    pub accuracy: f64,
}

/// Trains `net` on `samples`, honouring any [`FilterPin`]s, and returns
/// per-epoch statistics.
///
/// # Errors
///
/// Returns [`NnError::BadTraining`] for an empty dataset or zero batch
/// size, and propagates layer errors.
pub fn train(
    net: &mut Network,
    samples: &[(Tensor, usize)],
    config: &TrainConfig,
    pins: &[FilterPin],
) -> Result<Vec<EpochStats>, NnError> {
    if samples.is_empty() {
        return Err(NnError::BadTraining {
            reason: "empty training set".into(),
        });
    }
    if config.batch_size == 0 {
        return Err(NnError::BadTraining {
            reason: "batch size must be positive".into(),
        });
    }
    let loss = CrossEntropyLoss::new();
    let mut sgd = Sgd::new(config.sgd);
    let mut shuffle_rng = Rand::seeded(config.seed);
    let mut order: Vec<usize> = (0..samples.len()).collect();
    let mut stats = Vec::with_capacity(config.epochs);

    for epoch in 0..config.epochs {
        shuffle_rng.shuffle(&mut order);
        let mut epoch_loss = 0.0f64;
        let mut correct = 0usize;

        for batch in order.chunks(config.batch_size) {
            net.zero_grads();
            for &i in batch {
                let (image, target) = &samples[i];
                let logits = net.forward(image, Mode::Train)?;
                let (l, probs) = loss.forward(&logits, *target)?;
                epoch_loss += l as f64;
                if probs.argmax() == Some(*target) {
                    correct += 1;
                }
                let grad = loss.backward(&probs, *target)?;
                net.backward(&grad)?;
            }
            sgd.step(&mut net.params(), batch.len())?;
            for pin in pins {
                pin.after_batch(net)?;
            }
        }
        for pin in pins {
            pin.after_epoch(net)?;
        }
        stats.push(EpochStats {
            epoch,
            mean_loss: epoch_loss / samples.len() as f64,
            accuracy: correct as f64 / samples.len() as f64,
        });
    }
    Ok(stats)
}

/// Evaluates `net` on labelled samples, producing a confusion matrix.
///
/// # Errors
///
/// Returns [`NnError::BadTraining`] for an empty evaluation set and
/// propagates layer errors.
pub fn evaluate(
    net: &Network,
    samples: &[(Tensor, usize)],
    num_classes: usize,
) -> Result<ConfusionMatrix, NnError> {
    if samples.is_empty() {
        return Err(NnError::BadTraining {
            reason: "empty evaluation set".into(),
        });
    }
    let mut matrix = ConfusionMatrix::new(num_classes);
    for (image, target) in samples {
        let predicted = net.classify(image)?;
        matrix.record(*target, predicted)?;
    }
    Ok(matrix)
}

/// Mean softmax probability assigned to `class` over the given samples —
/// the "confidence value" metric plotted in Figure 4.
///
/// # Errors
///
/// Returns [`NnError::BadTraining`] for an empty sample set and
/// propagates layer errors.
pub fn mean_class_confidence(
    net: &Network,
    samples: &[&Tensor],
    class: usize,
) -> Result<f64, NnError> {
    if samples.is_empty() {
        return Err(NnError::BadTraining {
            reason: "empty confidence sample set".into(),
        });
    }
    let mut acc = 0.0f64;
    for image in samples {
        let probs = net.predict(image)?;
        let p = probs
            .as_slice()
            .get(class)
            .copied()
            .ok_or(NnError::BadInput {
                layer: "confidence",
                reason: format!("class {class} out of range"),
            })?;
        acc += p as f64;
    }
    Ok(acc / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alexnet::tiny_cnn;
    use relcnn_tensor::init::Rand;
    use relcnn_tensor::{Shape, Tensor};

    /// A linearly separable toy problem: class = brightest channel.
    fn toy_dataset(n_per_class: usize, seed: u64) -> Vec<(Tensor, usize)> {
        let mut rng = Rand::seeded(seed);
        let mut data = Vec::new();
        for class in 0..3usize {
            for _ in 0..n_per_class {
                let mut img = Tensor::zeros(Shape::d3(3, 16, 16));
                for c in 0..3 {
                    let base = if c == class { 0.8 } else { 0.2 };
                    for v in img.as_mut_slice().iter_mut().skip(c * 256).take(256) {
                        *v = base + rng.uniform(-0.1, 0.1);
                    }
                }
                data.push((img, class));
            }
        }
        data
    }

    #[test]
    fn training_converges_on_separable_toy() {
        let mut rng = Rand::seeded(1);
        let mut net = tiny_cnn(3, 16, &mut rng).unwrap();
        let data = toy_dataset(12, 2);
        let config = TrainConfig {
            epochs: 8,
            batch_size: 6,
            sgd: SgdConfig::plain(0.05),
            seed: 3,
        };
        let stats = train(&mut net, &data, &config, &[]).unwrap();
        assert_eq!(stats.len(), 8);
        let first = stats.first().unwrap();
        let last = stats.last().unwrap();
        assert!(
            last.mean_loss < first.mean_loss,
            "loss must fall: {} -> {}",
            first.mean_loss,
            last.mean_loss
        );
        assert!(last.accuracy > 0.9, "final accuracy {}", last.accuracy);

        // Held-out evaluation.
        let test = toy_dataset(5, 99);
        let matrix = evaluate(&net, &test, 3).unwrap();
        assert!(
            matrix.accuracy() > 0.8,
            "test accuracy {}",
            matrix.accuracy()
        );
    }

    #[test]
    fn confidence_tracks_training() {
        let mut rng = Rand::seeded(4);
        let mut net = tiny_cnn(3, 16, &mut rng).unwrap();
        let data = toy_dataset(10, 5);
        let class0: Vec<&Tensor> = data
            .iter()
            .filter(|(_, t)| *t == 0)
            .map(|(i, _)| i)
            .collect();
        let before = mean_class_confidence(&net, &class0, 0).unwrap();
        let config = TrainConfig {
            epochs: 6,
            batch_size: 5,
            sgd: SgdConfig::plain(0.05),
            seed: 6,
        };
        train(&mut net, &data, &config, &[]).unwrap();
        let after = mean_class_confidence(&net, &class0, 0).unwrap();
        assert!(after > before, "confidence {before} -> {after}");
        assert!(after > 0.6);
    }

    #[test]
    fn validation_errors() {
        let mut rng = Rand::seeded(7);
        let mut net = tiny_cnn(3, 16, &mut rng).unwrap();
        let config = TrainConfig::quick(0);
        assert!(train(&mut net, &[], &config, &[]).is_err());
        let data = toy_dataset(1, 0);
        let mut bad = TrainConfig::quick(0);
        bad.batch_size = 0;
        assert!(train(&mut net, &data, &bad, &[]).is_err());
        assert!(evaluate(&net, &[], 3).is_err());
        assert!(mean_class_confidence(&net, &[], 0).is_err());
        let img = Tensor::zeros(Shape::d3(3, 16, 16));
        assert!(mean_class_confidence(&net, &[&img], 9).is_err());
    }

    #[test]
    fn training_is_deterministic() {
        let data = toy_dataset(6, 8);
        let run = || {
            let mut rng = Rand::seeded(10);
            let mut net = tiny_cnn(3, 16, &mut rng).unwrap();
            let config = TrainConfig {
                epochs: 2,
                batch_size: 4,
                sgd: SgdConfig::plain(0.05),
                seed: 11,
            };
            let stats = train(&mut net, &data, &config, &[]).unwrap();
            (stats, net.state())
        };
        let (s1, w1) = run();
        let (s2, w2) = run();
        assert_eq!(s1, s2);
        assert_eq!(w1, w2);
    }

    #[test]
    fn pinned_filter_held_during_training() {
        use crate::freeze::{FilterPin, FreezePolicy};
        let mut rng = Rand::seeded(12);
        let mut net = tiny_cnn(3, 16, &mut rng).unwrap();
        let sobel = Tensor::from_fn(Shape::d3(3, 3, 3), |i| {
            [[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]][i[1]][i[2]]
        });
        let pin = FilterPin::install(&mut net, 0, 0, sobel, FreezePolicy::PinEachBatch).unwrap();
        let data = toy_dataset(6, 13);
        let config = TrainConfig {
            epochs: 3,
            batch_size: 4,
            sgd: SgdConfig::alexnet(0.05),
            seed: 14,
        };
        train(&mut net, &data, &config, std::slice::from_ref(&pin)).unwrap();
        assert_eq!(pin.drift(&net).unwrap().l2, 0.0);
    }
}
