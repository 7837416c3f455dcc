use crate::error::NnError;
use crate::layers::{Conv2d, Layer, Mode, Param};
use crate::scratch::InferScratch;
use relcnn_tensor::ops::argmax_slice;
use relcnn_tensor::{Shape, Tensor};

/// A sequential network: layers applied in order, single-sample tensors.
#[derive(Debug)]
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
}

impl Clone for Network {
    fn clone(&self) -> Self {
        Network {
            layers: self.layers.iter().map(|l| l.clone_box()).collect(),
        }
    }
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Network { layers: Vec::new() }
    }

    /// Appends a layer (builder style).
    pub fn push(&mut self, layer: impl Layer + 'static) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Runs the forward pass.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, mode)?;
        }
        Ok(x)
    }

    /// Runs the backward pass from an output gradient, accumulating
    /// parameter gradients; returns the input gradient.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`] if no training-mode forward
    /// preceded this call.
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    /// Runs the zero-allocation inference forward pass through a
    /// reusable scratch arena. After the call, `scratch.front()` holds
    /// the network output — the same bits `forward(input, Mode::Eval)`
    /// returns, because both run each layer's one `infer` body. After a
    /// warmup pass sized the arena, repeated calls perform zero heap
    /// allocations. The network is only read, so any number of threads
    /// may run this concurrently, each with its own arena.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn forward_scratch(
        &self,
        input: &Tensor,
        scratch: &mut InferScratch,
    ) -> Result<(), NnError> {
        self.forward_from_scratch(input, 0, scratch)
    }

    /// [`Network::forward_scratch`] starting at layer `start` — used by
    /// the hybrid network, which executes the layers before `start`
    /// through the *reliable* path and hands the feature maps back to the
    /// unprotected remainder (Figure 2's bifurcation point).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] when `start > len()`; propagates
    /// layer shape errors.
    pub fn forward_from_scratch(
        &self,
        input: &Tensor,
        start: usize,
        scratch: &mut InferScratch,
    ) -> Result<(), NnError> {
        if start > self.layers.len() {
            return Err(NnError::BadInput {
                layer: "network",
                reason: format!("start layer {start} > {} layers", self.layers.len()),
            });
        }
        scratch.load_input(input)?;
        for layer in &self.layers[start..] {
            let (front, back, cols) = scratch.frames();
            layer.infer(front, back, cols)?;
            scratch.swap();
        }
        Ok(())
    }

    /// Runs the inference forward pass, returning every layer's output
    /// (the input to layer `i+1`) — used by activation-range calibration
    /// and by debugging tools.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn forward_trace(&self, input: &Tensor) -> Result<Vec<Tensor>, NnError> {
        let mut scratch = InferScratch::new();
        scratch.load_input(input)?;
        let mut outs = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let (front, back, cols) = scratch.frames();
            layer.infer(front, back, cols)?;
            scratch.swap();
            let out = scratch.front();
            let shape = Shape::new(out.dims().to_vec());
            outs.push(Tensor::from_vec(shape, out.as_slice().to_vec())?);
        }
        Ok(outs)
    }

    /// Softmax class probabilities for one input (inference mode).
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn predict(&self, input: &Tensor) -> Result<Tensor, NnError> {
        let mut scratch = InferScratch::new();
        self.forward_scratch(input, &mut scratch)?;
        let shape = Shape::new(scratch.front().dims().to_vec());
        Ok(Tensor::from_vec(shape, scratch.softmax_front().to_vec())?)
    }

    /// The predicted class index for one input.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors; errors on empty outputs.
    pub fn classify(&self, input: &Tensor) -> Result<usize, NnError> {
        let mut scratch = InferScratch::new();
        self.forward_scratch(input, &mut scratch)?;
        argmax_slice(scratch.front().as_slice()).ok_or(NnError::BadInput {
            layer: "network",
            reason: "empty output layer".into(),
        })
    }

    /// All learnable parameters across layers.
    pub fn params(&mut self) -> Vec<Param<'_>> {
        self.layers.iter_mut().flat_map(|l| l.params()).collect()
    }

    /// Total learnable scalar count.
    pub fn param_count(&mut self) -> usize {
        self.params().iter().map(|p| p.value.len()).sum()
    }

    /// Clears all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Layer names in order (for summaries and checkpoints).
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Borrows the `idx`-th layer as a [`Conv2d`], if it is one — the hook
    /// the filter-replacement workflow uses to reach conv-1.
    pub fn conv2d_at(&self, idx: usize) -> Option<&Conv2d> {
        self.layers.get(idx).and_then(|l| l.as_conv2d())
    }

    /// Mutable variant of [`Network::conv2d_at`].
    pub fn conv2d_at_mut(&mut self, idx: usize) -> Option<&mut Conv2d> {
        self.layers.get_mut(idx).and_then(|l| l.as_conv2d_mut())
    }

    /// Index of the first convolution layer, if any.
    pub fn first_conv_index(&self) -> Option<usize> {
        self.layers.iter().position(|l| l.as_conv2d().is_some())
    }

    /// Copies all parameter tensors out (checkpoint state).
    pub fn state(&mut self) -> Vec<Tensor> {
        self.params().iter().map(|p| p.value.clone()).collect()
    }

    /// Loads parameter tensors produced by [`Network::state`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Checkpoint`] on count or shape mismatch.
    pub fn load_state(&mut self, state: &[Tensor]) -> Result<(), NnError> {
        let mut params = self.params();
        if params.len() != state.len() {
            return Err(NnError::Checkpoint {
                reason: format!(
                    "state has {} tensors, network has {} parameters",
                    state.len(),
                    params.len()
                ),
            });
        }
        for (p, s) in params.iter_mut().zip(state.iter()) {
            if p.value.shape() != s.shape() {
                return Err(NnError::Checkpoint {
                    reason: format!(
                        "shape mismatch for {}: {} vs {}",
                        p.name,
                        p.value.shape(),
                        s.shape()
                    ),
                });
            }
            *p.value = s.clone();
        }
        Ok(())
    }
}

impl Default for Network {
    fn default() -> Self {
        Network::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Flatten, ReLU};
    use crate::loss::CrossEntropyLoss;
    use relcnn_tensor::init::{Init, Rand};
    use relcnn_tensor::Shape;

    fn tiny_net(rng: &mut Rand) -> Network {
        let mut net = Network::new();
        net.push(Flatten::new());
        net.push(Dense::new(8, 6, rng));
        net.push(ReLU::new());
        net.push(Dense::new(6, 3, rng));
        net
    }

    #[test]
    fn forward_shapes_compose() {
        let mut rng = Rand::seeded(1);
        let mut net = tiny_net(&mut rng);
        let x = rng.tensor(Shape::d3(2, 2, 2), Init::Uniform { lo: -1.0, hi: 1.0 });
        let y = net.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.shape().dims(), &[3]);
        assert_eq!(net.len(), 4);
        assert!(!net.is_empty());
        assert_eq!(net.layer_names(), vec!["flatten", "dense", "relu", "dense"]);
    }

    #[test]
    fn forward_from_scratch_matches_split_execution() {
        let mut rng = Rand::seeded(21);
        let mut net = tiny_net(&mut rng);
        let x = rng.tensor(Shape::d3(2, 2, 2), Init::Uniform { lo: -1.0, hi: 1.0 });
        let full = net.forward(&x, Mode::Eval).unwrap();
        let mut arena = InferScratch::new();
        net.forward_from_scratch(&x, 0, &mut arena).unwrap();
        assert_eq!(arena.front().as_slice(), full.as_slice());
        // Execute layer 0 manually, then resume from layer 1.
        let after_flatten = x.reshape(vec![8]).unwrap();
        net.forward_from_scratch(&after_flatten, 1, &mut arena)
            .unwrap();
        assert_eq!(arena.front().as_slice(), full.as_slice());
        assert!(net.forward_from_scratch(&x, 9, &mut arena).is_err());
        // start == len is identity.
        net.forward_from_scratch(&x, 4, &mut arena).unwrap();
        assert_eq!(arena.front().dims(), x.shape().dims());
        assert_eq!(arena.front().as_slice(), x.as_slice());
    }

    #[test]
    fn predict_gives_probabilities() {
        let mut rng = Rand::seeded(2);
        let net = tiny_net(&mut rng);
        let x = rng.tensor(Shape::d3(2, 2, 2), Init::Uniform { lo: -1.0, hi: 1.0 });
        let p = net.predict(&x).unwrap();
        assert!((p.sum() - 1.0).abs() < 1e-5);
        let c = net.classify(&x).unwrap();
        assert_eq!(Some(c), p.argmax());
    }

    #[test]
    fn param_count_and_state_roundtrip() {
        let mut rng = Rand::seeded(3);
        let mut net = tiny_net(&mut rng);
        // dense(8->6): 48+6, dense(6->3): 18+3 = 75.
        assert_eq!(net.param_count(), 75);
        let state = net.state();
        let mut net2 = tiny_net(&mut Rand::seeded(99));
        net2.load_state(&state).unwrap();
        let x = rng.tensor(Shape::d3(2, 2, 2), Init::Uniform { lo: -1.0, hi: 1.0 });
        let y1 = net.forward(&x, Mode::Eval).unwrap();
        let y2 = net2.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y1, y2);
    }

    #[test]
    fn load_state_validates() {
        let mut rng = Rand::seeded(4);
        let mut net = tiny_net(&mut rng);
        assert!(net.load_state(&[]).is_err());
        let mut bad = net.state();
        bad[0] = Tensor::zeros(Shape::d1(5));
        assert!(net.load_state(&bad).is_err());
    }

    #[test]
    fn one_sgd_like_step_reduces_loss() {
        // End-to-end sanity: manual gradient step on one sample.
        let mut rng = Rand::seeded(5);
        let mut net = tiny_net(&mut rng);
        let x = rng.tensor(Shape::d3(2, 2, 2), Init::Uniform { lo: -1.0, hi: 1.0 });
        let target = 1usize;
        let loss = CrossEntropyLoss::new();

        let logits = net.forward(&x, Mode::Train).unwrap();
        let (l0, probs) = loss.forward(&logits, target).unwrap();
        net.zero_grads();
        let g = loss.backward(&probs, target).unwrap();
        net.backward(&g).unwrap();
        for p in net.params() {
            for (v, gr) in p.value.iter_mut().zip(p.grad.iter()) {
                *v -= 0.1 * gr;
            }
        }
        let logits = net.forward(&x, Mode::Eval).unwrap();
        let (l1, _) = loss.forward(&logits, target).unwrap();
        assert!(l1 < l0, "loss must drop: {l0} -> {l1}");
    }

    #[test]
    fn conv_lookup_helpers() {
        let mut rng = Rand::seeded(6);
        let mut net = Network::new();
        net.push(crate::layers::Conv2d::new(3, 4, 3, 1, 1, &mut rng));
        net.push(ReLU::new());
        assert_eq!(net.first_conv_index(), Some(0));
        assert!(net.conv2d_at(0).is_some());
        assert!(net.conv2d_at(1).is_none());
        assert!(net.conv2d_at_mut(0).is_some());
        let mut no_conv = tiny_net(&mut rng);
        assert_eq!(no_conv.first_conv_index(), None);
        let _ = no_conv.params();
    }
}
