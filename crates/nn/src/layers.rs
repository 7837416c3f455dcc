use crate::error::NnError;
use crate::scratch::ScratchBuf;
use relcnn_tensor::conv::{col2im, im2col_into, max_pool2d, max_pool2d_into, ConvGeometry};
use relcnn_tensor::init::{Init, Rand};
use relcnn_tensor::ops::{gemm_bias_into, gemm_into};
use relcnn_tensor::{Shape, Tensor};
use std::fmt;

/// Whether a forward pass is part of training (caches activations, applies
/// dropout) or inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training: stochastic layers active, activations cached for backprop.
    Train,
    /// Inference: deterministic, no caching requirements.
    Eval,
}

/// A mutable view of one learnable parameter tensor and its gradient.
pub struct Param<'a> {
    /// Parameter name (for logging and checkpoints), e.g. `conv2d.weight`.
    pub name: &'static str,
    /// The parameter values.
    pub value: &'a mut Tensor,
    /// The accumulated gradient (same shape as `value`).
    pub grad: &'a mut Tensor,
}

impl fmt::Debug for Param<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Param({}, {})", self.name, self.value.shape())
    }
}

/// What one training-mode forward just computed, handed to
/// [`Layer::remember`].
pub struct Forwarded<'a> {
    /// The layer input.
    pub input: &'a Tensor,
    /// The output [`Layer::infer`] wrote; `remember` may rewrite it.
    pub out: &'a mut ScratchBuf,
    /// The lowering scratch `infer` filled (a convolution's im2col
    /// matrix), by value so a layer can keep it without a copy.
    pub cols: ScratchBuf,
}

/// A differentiable network layer operating on single-sample tensors.
///
/// Each layer writes its forward arithmetic once, in [`Layer::infer`] —
/// a pure function of the immutable layer. [`Layer::forward`] is that
/// same body run on temporaries; in [`Mode::Train`] it additionally calls
/// [`Layer::remember`] to cache whatever `backward` needs. `backward`
/// consumes the cache, **accumulates** parameter gradients and returns
/// the gradient with respect to the layer input. Gradients accumulate
/// across samples of a batch; the optimiser divides by the batch size.
pub trait Layer: fmt::Debug + Send + Sync {
    /// Short layer name for diagnostics.
    fn name(&self) -> &'static str;

    /// The layer's forward arithmetic: reads `input`, writes the layer
    /// output into `out`, optionally using `cols` as lowering scratch.
    /// Allocation-free once the buffers are warm, and free of side
    /// effects on the layer, so one model serves any number of threads.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] for shape mismatches.
    fn infer(
        &self,
        input: &ScratchBuf,
        out: &mut ScratchBuf,
        cols: &mut ScratchBuf,
    ) -> Result<(), NnError>;

    /// Training-time capture, called by [`Layer::forward`] after
    /// [`Layer::infer`] with the buffers that call filled: caches what
    /// `backward` needs, and may rewrite the output (dropout applies its
    /// mask here). Stateless layers keep the default no-op.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] for shape mismatches.
    fn remember(&mut self, _pass: Forwarded<'_>) -> Result<(), NnError> {
        Ok(())
    }

    /// Computes the layer output as an owned tensor: [`Layer::infer`] on
    /// temporaries, plus [`Layer::remember`] in [`Mode::Train`].
    ///
    /// # Errors
    ///
    /// As for [`Layer::infer`].
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError> {
        let mut x = ScratchBuf::new();
        x.copy_from_tensor(input)?;
        let (mut out, mut cols) = (ScratchBuf::new(), ScratchBuf::new());
        self.infer(&x, &mut out, &mut cols)?;
        if mode == Mode::Train {
            let out = &mut out;
            self.remember(Forwarded { input, out, cols })?;
        }
        out.into_tensor()
    }

    /// Backpropagates `grad_output`, returning the input gradient.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`] when called without a prior
    /// training-mode forward.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError>;

    /// Learnable parameters (empty for stateless layers).
    fn params(&mut self) -> Vec<Param<'_>> {
        Vec::new()
    }

    /// Clears accumulated gradients.
    fn zero_grads(&mut self) {}

    /// Downcast hook for the filter-replacement workflow.
    fn as_conv2d(&self) -> Option<&Conv2d> {
        None
    }

    /// Mutable downcast hook for the filter-replacement workflow.
    fn as_conv2d_mut(&mut self) -> Option<&mut Conv2d> {
        None
    }

    /// Clones the layer behind the trait object — the hook that lets the
    /// runtime hand each worker its own copy of a network.
    fn clone_box(&self) -> Box<dyn Layer>;
}

// ---------------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------------

/// 2-D convolution layer (CHW in, CHW out, OIHW filters).
///
/// Supports per-filter gradient masking — the mechanism behind the paper's
/// §III-B "frozen" Sobel filter experiments.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Tensor,
    bias: Tensor,
    w_grad: Tensor,
    b_grad: Tensor,
    in_c: usize,
    out_c: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    /// Filters whose gradients are masked to zero ("frozen").
    frozen: Vec<bool>,
    cache: Option<ConvCache>,
}

#[derive(Debug, Clone)]
struct ConvCache {
    cols: Tensor,
    geom: ConvGeometry,
}

impl Conv2d {
    /// Creates a convolution layer with He-normal weights and zero bias.
    pub fn new(
        in_c: usize,
        out_c: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut Rand,
    ) -> Self {
        let fan_in = in_c * kernel * kernel;
        let weight = rng.tensor(
            Shape::d4(out_c, in_c, kernel, kernel),
            Init::HeNormal { fan_in },
        );
        Conv2d {
            w_grad: Tensor::zeros(weight.shape().clone()),
            weight,
            bias: Tensor::zeros(Shape::d1(out_c)),
            b_grad: Tensor::zeros(Shape::d1(out_c)),
            in_c,
            out_c,
            kernel,
            stride,
            padding,
            frozen: vec![false; out_c],
            cache: None,
        }
    }

    /// Number of output channels (filters).
    pub fn out_channels(&self) -> usize {
        self.out_c
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_c
    }

    /// Kernel side length.
    pub fn kernel_size(&self) -> usize {
        self.kernel
    }

    /// Stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Zero padding.
    pub fn padding(&self) -> usize {
        self.padding
    }

    /// The full OIHW filter bank.
    pub fn filters(&self) -> &Tensor {
        &self.weight
    }

    /// The bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// One filter as an `[in_c, k, k]` tensor.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] when `index >= out_channels()`.
    pub fn filter(&self, index: usize) -> Result<Tensor, NnError> {
        if index >= self.out_c {
            return Err(NnError::BadInput {
                layer: "conv2d",
                reason: format!("filter index {index} >= {}", self.out_c),
            });
        }
        Ok(self.weight.index_axis0(index)?)
    }

    /// Overwrites one filter with an `[in_c, k, k]` tensor — the paper's
    /// filter-replacement primitive.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] for a bad index or shape.
    pub fn set_filter(&mut self, index: usize, values: &Tensor) -> Result<(), NnError> {
        if index >= self.out_c {
            return Err(NnError::BadInput {
                layer: "conv2d",
                reason: format!("filter index {index} >= {}", self.out_c),
            });
        }
        let expected = [self.in_c, self.kernel, self.kernel];
        if values.shape().dims() != expected {
            return Err(NnError::BadInput {
                layer: "conv2d",
                reason: format!(
                    "filter shape {:?} != expected {:?}",
                    values.shape().dims(),
                    expected
                ),
            });
        }
        let per_filter = self.in_c * self.kernel * self.kernel;
        let dst = &mut self.weight.as_mut_slice()[index * per_filter..(index + 1) * per_filter];
        dst.copy_from_slice(values.as_slice());
        Ok(())
    }

    /// Marks a filter's gradient as masked (frozen) or not.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] for a bad index.
    pub fn set_frozen(&mut self, index: usize, frozen: bool) -> Result<(), NnError> {
        if index >= self.out_c {
            return Err(NnError::BadInput {
                layer: "conv2d",
                reason: format!("filter index {index} >= {}", self.out_c),
            });
        }
        self.frozen[index] = frozen;
        Ok(())
    }

    /// Whether a filter's gradient is masked.
    pub fn is_frozen(&self, index: usize) -> bool {
        self.frozen.get(index).copied().unwrap_or(false)
    }

    fn geometry_for(&self, dims: &[usize]) -> Result<ConvGeometry, NnError> {
        if dims.len() != 3 || dims[0] != self.in_c {
            return Err(NnError::BadInput {
                layer: "conv2d",
                reason: format!("expected [{}, h, w], got {dims:?}", self.in_c),
            });
        }
        ConvGeometry::new(
            dims[1],
            dims[2],
            self.kernel,
            self.kernel,
            self.stride,
            self.padding,
        )
        .map_err(NnError::from)
    }
}

impl Layer for Conv2d {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn remember(&mut self, pass: Forwarded<'_>) -> Result<(), NnError> {
        self.cache = Some(ConvCache {
            cols: pass.cols.into_tensor()?,
            geom: self.geometry_for(pass.input.shape().dims())?,
        });
        Ok(())
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let cache = self
            .cache
            .take()
            .ok_or(NnError::NoForwardCache { layer: "conv2d" })?;
        let positions = cache.geom.positions();
        let dy = grad_output.reshape(vec![self.out_c, positions])?;

        // dW += dY · colsᵀ
        let dw = dy.matmul(&cache.cols.transpose()?)?;
        let per_filter = self.in_c * self.kernel * self.kernel;
        {
            let wg = self.w_grad.as_mut_slice();
            let dw_s = dw.as_slice();
            for oc in 0..self.out_c {
                if self.frozen[oc] {
                    continue; // gradient masked: the "frozen" filter
                }
                for i in 0..per_filter {
                    wg[oc * per_filter + i] += dw_s[oc * per_filter + i];
                }
            }
        }
        // db += row sums of dY
        {
            let bg = self.b_grad.as_mut_slice();
            let dy_s = dy.as_slice();
            for oc in 0..self.out_c {
                if self.frozen[oc] {
                    continue;
                }
                bg[oc] += dy_s[oc * positions..(oc + 1) * positions]
                    .iter()
                    .sum::<f32>();
            }
        }
        // dX = col2im(Wᵀ · dY)
        let w = self.weight.reshape(vec![self.out_c, per_filter])?;
        let dcols = w.transpose()?.matmul(&dy)?;
        let dx = col2im(&dcols, self.in_c, &cache.geom)?;
        Ok(dx)
    }

    fn infer(
        &self,
        input: &ScratchBuf,
        out: &mut ScratchBuf,
        cols: &mut ScratchBuf,
    ) -> Result<(), NnError> {
        let geom = self.geometry_for(input.dims())?;
        let rows = self.in_c * self.kernel * self.kernel;
        let positions = geom.positions();
        cols.set_dims(&[rows, positions])?;
        im2col_into(input.as_slice(), self.in_c, &geom, cols.as_mut_slice())?;
        out.set_dims(&[self.out_c, geom.out_h(), geom.out_w()])?;
        // The OIHW filter bank *is* the row-major `[out_c, in_c·k·k]`
        // GEMM operand. Fused bias: added per element at GEMM store
        // time, after that element's k-accumulation completes — the same
        // op order as a separate "matmul, then add bias per row" pass, so
        // the fusion is bit-invisible (pinned by the scratch-parity
        // tests against the naive tensor oracles).
        gemm_bias_into(
            self.out_c,
            rows,
            positions,
            self.weight.as_slice(),
            cols.as_slice(),
            self.bias.as_slice(),
            out.as_mut_slice(),
        )?;
        Ok(())
    }

    fn params(&mut self) -> Vec<Param<'_>> {
        vec![
            Param {
                name: "conv2d.weight",
                value: &mut self.weight,
                grad: &mut self.w_grad,
            },
            Param {
                name: "conv2d.bias",
                value: &mut self.bias,
                grad: &mut self.b_grad,
            },
        ]
    }

    fn zero_grads(&mut self) {
        self.w_grad.map_inplace(|_| 0.0);
        self.b_grad.map_inplace(|_| 0.0);
    }

    fn as_conv2d(&self) -> Option<&Conv2d> {
        Some(self)
    }

    fn as_conv2d_mut(&mut self) -> Option<&mut Conv2d> {
        Some(self)
    }
}

// ---------------------------------------------------------------------------
// ReLU
// ---------------------------------------------------------------------------

/// Rectified linear unit.
#[derive(Debug, Clone, Default)]
pub struct ReLU {
    mask: Option<Vec<bool>>,
}

impl ReLU {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        ReLU::default()
    }
}

impl Layer for ReLU {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "relu"
    }

    fn remember(&mut self, pass: Forwarded<'_>) -> Result<(), NnError> {
        self.mask = Some(pass.input.iter().map(|&v| v > 0.0).collect());
        Ok(())
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let mask = self
            .mask
            .take()
            .ok_or(NnError::NoForwardCache { layer: "relu" })?;
        if mask.len() != grad_output.len() {
            return Err(NnError::BadInput {
                layer: "relu",
                reason: format!("grad length {} != cached {}", grad_output.len(), mask.len()),
            });
        }
        let data = grad_output
            .iter()
            .zip(mask.iter())
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Ok(Tensor::from_vec(grad_output.shape().clone(), data)?)
    }

    fn infer(
        &self,
        input: &ScratchBuf,
        out: &mut ScratchBuf,
        _cols: &mut ScratchBuf,
    ) -> Result<(), NnError> {
        out.set_dims(input.dims())?;
        for (o, &v) in out.as_mut_slice().iter_mut().zip(input.as_slice()) {
            *o = v.max(0.0);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// MaxPool2d
// ---------------------------------------------------------------------------

/// 2-D max pooling (padding-free, AlexNet-style overlapping windows
/// supported).
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    cache: Option<PoolCache>,
}

#[derive(Debug, Clone)]
struct PoolCache {
    argmax: Vec<usize>,
    input_shape: Shape,
}

impl MaxPool2d {
    /// Creates a pooling layer with square windows.
    pub fn new(kernel: usize, stride: usize) -> Self {
        MaxPool2d {
            kernel,
            stride,
            cache: None,
        }
    }

    fn geometry_for(&self, dims: &[usize]) -> Result<ConvGeometry, NnError> {
        if dims.len() != 3 {
            return Err(NnError::BadInput {
                layer: "max_pool2d",
                reason: format!("expected CHW, got {dims:?}"),
            });
        }
        ConvGeometry::new(dims[1], dims[2], self.kernel, self.kernel, self.stride, 0)
            .map_err(NnError::from)
    }
}

impl Layer for MaxPool2d {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "max_pool2d"
    }

    fn remember(&mut self, pass: Forwarded<'_>) -> Result<(), NnError> {
        // The blocked kernel does not track winners; the naive oracle's
        // argmax (same window order, same tie-break) routes the gradient.
        let geom = self.geometry_for(pass.input.shape().dims())?;
        let (_, argmax) = max_pool2d(pass.input, &geom)?;
        self.cache = Some(PoolCache {
            argmax,
            input_shape: pass.input.shape().clone(),
        });
        Ok(())
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let cache = self.cache.take().ok_or(NnError::NoForwardCache {
            layer: "max_pool2d",
        })?;
        if cache.argmax.len() != grad_output.len() {
            return Err(NnError::BadInput {
                layer: "max_pool2d",
                reason: "grad shape does not match cached pooling".into(),
            });
        }
        let mut dx = Tensor::zeros(cache.input_shape);
        let dxs = dx.as_mut_slice();
        for (&src, &g) in cache.argmax.iter().zip(grad_output.iter()) {
            dxs[src] += g;
        }
        Ok(dx)
    }

    fn infer(
        &self,
        input: &ScratchBuf,
        out: &mut ScratchBuf,
        _cols: &mut ScratchBuf,
    ) -> Result<(), NnError> {
        let dims = input.dims();
        let geom = self.geometry_for(dims)?;
        out.set_dims(&[dims[0], geom.out_h(), geom.out_w()])?;
        max_pool2d_into(input.as_slice(), dims[0], &geom, out.as_mut_slice())?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Flatten
// ---------------------------------------------------------------------------

/// Flattens any tensor to rank 1.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    input_shape: Option<Shape>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten::default()
    }
}

impl Layer for Flatten {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "flatten"
    }

    fn remember(&mut self, pass: Forwarded<'_>) -> Result<(), NnError> {
        self.input_shape = Some(pass.input.shape().clone());
        Ok(())
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let shape = self
            .input_shape
            .take()
            .ok_or(NnError::NoForwardCache { layer: "flatten" })?;
        Ok(grad_output.reshape(shape.dims().to_vec())?)
    }

    fn infer(
        &self,
        input: &ScratchBuf,
        out: &mut ScratchBuf,
        _cols: &mut ScratchBuf,
    ) -> Result<(), NnError> {
        out.set_dims(&[input.volume()])?;
        out.as_mut_slice().copy_from_slice(input.as_slice());
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Dense
// ---------------------------------------------------------------------------

/// Fully connected layer: `y = W·x + b`.
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Tensor, // [out, in]
    bias: Tensor,   // [out]
    w_grad: Tensor,
    b_grad: Tensor,
    in_dim: usize,
    out_dim: usize,
    cache: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with Xavier-uniform weights and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut Rand) -> Self {
        let weight = rng.tensor(
            Shape::d2(out_dim, in_dim),
            Init::XavierUniform {
                fan_in: in_dim,
                fan_out: out_dim,
            },
        );
        Dense {
            w_grad: Tensor::zeros(weight.shape().clone()),
            weight,
            bias: Tensor::zeros(Shape::d1(out_dim)),
            b_grad: Tensor::zeros(Shape::d1(out_dim)),
            in_dim,
            out_dim,
            cache: None,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The `[out, in]` weight matrix.
    pub fn weights(&self) -> &Tensor {
        &self.weight
    }
}

impl Layer for Dense {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "dense"
    }

    fn remember(&mut self, pass: Forwarded<'_>) -> Result<(), NnError> {
        self.cache = Some(pass.input.reshape(vec![pass.input.len()])?);
        Ok(())
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let x = self
            .cache
            .take()
            .ok_or(NnError::NoForwardCache { layer: "dense" })?;
        if grad_output.len() != self.out_dim {
            return Err(NnError::BadInput {
                layer: "dense",
                reason: format!("expected {} grads, got {}", self.out_dim, grad_output.len()),
            });
        }
        // dW += dy ⊗ x
        {
            let wg = self.w_grad.as_mut_slice();
            let xs = x.as_slice();
            for (o, &g) in grad_output.iter().enumerate() {
                if g == 0.0 {
                    continue;
                }
                let row = &mut wg[o * self.in_dim..(o + 1) * self.in_dim];
                for (w, &xv) in row.iter_mut().zip(xs.iter()) {
                    *w += g * xv;
                }
            }
        }
        // db += dy
        for (b, &g) in self.b_grad.iter_mut().zip(grad_output.iter()) {
            *b += g;
        }
        // dx = Wᵀ · dy
        let mut dx = vec![0.0f32; self.in_dim];
        let ws = self.weight.as_slice();
        for (o, &g) in grad_output.iter().enumerate() {
            if g == 0.0 {
                continue;
            }
            let row = &ws[o * self.in_dim..(o + 1) * self.in_dim];
            for (d, &w) in dx.iter_mut().zip(row.iter()) {
                *d += g * w;
            }
        }
        Ok(Tensor::from_vec(Shape::d1(self.in_dim), dx)?)
    }

    fn infer(
        &self,
        input: &ScratchBuf,
        out: &mut ScratchBuf,
        _cols: &mut ScratchBuf,
    ) -> Result<(), NnError> {
        if input.volume() != self.in_dim {
            return Err(NnError::BadInput {
                layer: "dense",
                reason: format!("expected {} inputs, got {}", self.in_dim, input.volume()),
            });
        }
        out.set_dims(&[self.out_dim])?;
        // n = 1 GEMV through the blocked kernel; bit-identical to the
        // naive `Tensor::matmul` because the per-element k order is the
        // naive order.
        gemm_into(
            self.out_dim,
            self.in_dim,
            1,
            self.weight.as_slice(),
            input.as_slice(),
            out.as_mut_slice(),
        )?;
        for (v, b) in out.as_mut_slice().iter_mut().zip(self.bias.iter()) {
            *v += b;
        }
        Ok(())
    }

    fn params(&mut self) -> Vec<Param<'_>> {
        vec![
            Param {
                name: "dense.weight",
                value: &mut self.weight,
                grad: &mut self.w_grad,
            },
            Param {
                name: "dense.bias",
                value: &mut self.bias,
                grad: &mut self.b_grad,
            },
        ]
    }

    fn zero_grads(&mut self) {
        self.w_grad.map_inplace(|_| 0.0);
        self.b_grad.map_inplace(|_| 0.0);
    }
}

// ---------------------------------------------------------------------------
// Dropout
// ---------------------------------------------------------------------------

/// Inverted dropout: active only in training mode.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    rng: Rand,
    mask: Option<Vec<f32>>,
}

impl Dropout {
    /// Creates a dropout layer dropping activations with probability `p`
    /// (clamped to `[0, 0.95]`).
    pub fn new(p: f32, rng: &mut Rand) -> Self {
        Dropout {
            p: p.clamp(0.0, 0.95),
            rng: rng.fork(0xD80),
            mask: None,
        }
    }
}

impl Layer for Dropout {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "dropout"
    }

    fn remember(&mut self, pass: Forwarded<'_>) -> Result<(), NnError> {
        if self.p == 0.0 {
            self.mask = None;
            return Ok(());
        }
        // `infer` copied the input through; training scales it by a
        // fresh inverted-dropout mask.
        let keep = 1.0 - self.p;
        let mask: Vec<f32> = (0..pass.input.len())
            .map(|_| {
                if self.rng.chance(keep as f64) {
                    1.0 / keep
                } else {
                    0.0
                }
            })
            .collect();
        for (v, &m) in pass.out.as_mut_slice().iter_mut().zip(mask.iter()) {
            *v *= m;
        }
        self.mask = Some(mask);
        Ok(())
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let mask = self
            .mask
            .take()
            .ok_or(NnError::NoForwardCache { layer: "dropout" })?;
        let data = grad_output
            .iter()
            .zip(mask.iter())
            .map(|(&g, &m)| g * m)
            .collect();
        Ok(Tensor::from_vec(grad_output.shape().clone(), data)?)
    }

    fn infer(
        &self,
        input: &ScratchBuf,
        out: &mut ScratchBuf,
        _cols: &mut ScratchBuf,
    ) -> Result<(), NnError> {
        // Inference-mode dropout is the identity.
        out.set_dims(input.dims())?;
        out.as_mut_slice().copy_from_slice(input.as_slice());
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// LocalResponseNorm
// ---------------------------------------------------------------------------

/// AlexNet's local response normalisation across channels:
/// `y_i = x_i / (k + α/n · Σ_{j∈window} x_j²)^β`.
#[derive(Debug, Clone)]
pub struct LocalResponseNorm {
    n: usize,
    k: f32,
    alpha: f32,
    beta: f32,
    /// The training-mode input; `backward` re-derives the denominators.
    cache: Option<Tensor>,
}

impl LocalResponseNorm {
    /// Creates an LRN layer with AlexNet's published constants
    /// (`n = 5, k = 2, α = 1e-4, β = 0.75`).
    pub fn alexnet() -> Self {
        LocalResponseNorm {
            n: 5,
            k: 2.0,
            alpha: 1e-4,
            beta: 0.75,
            cache: None,
        }
    }

    /// Creates an LRN layer with explicit constants.
    pub fn new(n: usize, k: f32, alpha: f32, beta: f32) -> Self {
        LocalResponseNorm {
            n: n.max(1),
            k,
            alpha,
            beta,
            cache: None,
        }
    }

    /// `k + α/n · Σ_{j∈window(i)} x_j²` at plane position `p` of a
    /// `[c, plane]` activation — the one expression `infer` and
    /// `backward` both evaluate.
    fn denominator(&self, x: &[f32], c: usize, plane: usize, i: usize, p: usize) -> f32 {
        let half = self.n / 2;
        let lo = i.saturating_sub(half);
        let hi = (i + half).min(c - 1);
        let mut acc = 0.0f32;
        for j in lo..=hi {
            let v = x[j * plane + p];
            acc += v * v;
        }
        self.k + self.alpha / self.n as f32 * acc
    }
}

impl Layer for LocalResponseNorm {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "lrn"
    }

    fn remember(&mut self, pass: Forwarded<'_>) -> Result<(), NnError> {
        self.cache = Some(pass.input.clone());
        Ok(())
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let input = self
            .cache
            .take()
            .ok_or(NnError::NoForwardCache { layer: "lrn" })?;
        let (c, h, w) = (
            input.shape().dim(0),
            input.shape().dim(1),
            input.shape().dim(2),
        );
        let plane = h * w;
        let half = self.n / 2;
        let x = input.as_slice();
        let dy = grad_output.as_slice();
        let d: Vec<f32> = (0..c * plane)
            .map(|idx| self.denominator(x, c, plane, idx / plane, idx % plane))
            .collect();
        // dx_j = dy_j d_j^{-β} − (2αβ/n) x_j Σ_{i ∋ j} dy_i x_i d_i^{-β-1}
        let coeff = 2.0 * self.alpha * self.beta / self.n as f32;
        let mut dx = vec![0.0f32; c * plane];
        for p in 0..plane {
            for j in 0..c {
                let jd = j * plane + p;
                let mut acc = 0.0f32;
                let lo = j.saturating_sub(half);
                let hi = (j + half).min(c - 1);
                for i in lo..=hi {
                    let id = i * plane + p;
                    acc += dy[id] * x[id] * d[id].powf(-self.beta - 1.0);
                }
                dx[jd] = dy[jd] * d[jd].powf(-self.beta) - coeff * x[jd] * acc;
            }
        }
        Ok(Tensor::from_vec(input.shape().clone(), dx)?)
    }

    fn infer(
        &self,
        input: &ScratchBuf,
        out: &mut ScratchBuf,
        _cols: &mut ScratchBuf,
    ) -> Result<(), NnError> {
        let dims = input.dims();
        if dims.len() != 3 {
            return Err(NnError::BadInput {
                layer: "lrn",
                reason: format!("expected CHW, got {dims:?}"),
            });
        }
        out.set_dims(dims)?;
        let (c, plane) = (dims[0], dims[1] * dims[2]);
        let x = input.as_slice();
        let o = out.as_mut_slice();
        for i in 0..c {
            for p in 0..plane {
                let d = self.denominator(x, c, plane, i, p);
                o[i * plane + p] = x[i * plane + p] * d.powf(-self.beta);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rand {
        Rand::seeded(42)
    }

    /// Central-difference gradient check for a layer with respect to its
    /// input.
    fn grad_check_input(layer: &mut dyn Layer, input: &Tensor, tol: f32) {
        let out = layer.forward(input, Mode::Train).unwrap();
        // Loss = sum of outputs -> dL/dy = ones.
        let dy = Tensor::ones(out.shape().clone());
        let dx = layer.backward(&dy).unwrap();
        let eps = 1e-2f32;
        // Probe a handful of positions.
        let probes = [0usize, input.len() / 3, input.len() / 2, input.len() - 1];
        for &i in &probes {
            let mut plus = input.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = input.clone();
            minus.as_mut_slice()[i] -= eps;
            let f_plus = layer.forward(&plus, Mode::Eval).unwrap().sum();
            let f_minus = layer.forward(&minus, Mode::Eval).unwrap().sum();
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let analytic = dx.as_slice()[i];
            assert!(
                (numeric - analytic).abs() < tol * (1.0 + numeric.abs()),
                "index {i}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn conv2d_forward_matches_direct() {
        let mut r = rng();
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut r);
        let input = r.tensor(Shape::d3(2, 6, 6), Init::Uniform { lo: -1.0, hi: 1.0 });
        let out = conv.forward(&input, Mode::Eval).unwrap();
        let geom = ConvGeometry::new(6, 6, 3, 3, 1, 1).unwrap();
        let golden =
            relcnn_tensor::conv::conv2d(&input, conv.filters(), Some(conv.bias()), &geom).unwrap();
        assert_eq!(out.shape(), golden.shape());
        for (a, b) in out.iter().zip(golden.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn conv2d_input_gradient_checks() {
        let mut r = rng();
        let mut conv = Conv2d::new(2, 2, 3, 2, 1, &mut r);
        let input = r.tensor(Shape::d3(2, 7, 7), Init::Uniform { lo: -1.0, hi: 1.0 });
        grad_check_input(&mut conv, &input, 2e-2);
    }

    #[test]
    fn conv2d_weight_gradient_checks() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 2, 3, 1, 0, &mut r);
        let input = r.tensor(Shape::d3(1, 5, 5), Init::Uniform { lo: -1.0, hi: 1.0 });
        let out = conv.forward(&input, Mode::Train).unwrap();
        let dy = Tensor::ones(out.shape().clone());
        conv.backward(&dy).unwrap();
        let analytic = conv.w_grad.clone();
        let eps = 1e-2f32;
        for &i in &[0usize, 5, 11, 17] {
            let orig = conv.weight.as_slice()[i];
            conv.weight.as_mut_slice()[i] = orig + eps;
            let f_plus = conv.forward(&input, Mode::Eval).unwrap().sum();
            conv.weight.as_mut_slice()[i] = orig - eps;
            let f_minus = conv.forward(&input, Mode::Eval).unwrap().sum();
            conv.weight.as_mut_slice()[i] = orig;
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let a = analytic.as_slice()[i];
            assert!(
                (numeric - a).abs() < 2e-2 * (1.0 + numeric.abs()),
                "weight {i}: numeric {numeric} vs analytic {a}"
            );
        }
    }

    #[test]
    fn conv2d_filter_accessors() {
        let mut r = rng();
        let mut conv = Conv2d::new(3, 4, 3, 1, 0, &mut r);
        let sobel = Tensor::from_fn(Shape::d3(3, 3, 3), |i| (i[0] + i[1] + i[2]) as f32);
        conv.set_filter(2, &sobel).unwrap();
        assert_eq!(conv.filter(2).unwrap(), sobel);
        assert!(conv.filter(4).is_err());
        assert!(conv.set_filter(4, &sobel).is_err());
        let wrong = Tensor::zeros(Shape::d3(3, 2, 2));
        assert!(conv.set_filter(0, &wrong).is_err());
    }

    #[test]
    fn frozen_filter_gets_no_gradient() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 2, 2, 1, 0, &mut r);
        conv.set_frozen(0, true).unwrap();
        assert!(conv.is_frozen(0));
        assert!(!conv.is_frozen(1));
        let input = r.tensor(Shape::d3(1, 4, 4), Init::Uniform { lo: 0.1, hi: 1.0 });
        let out = conv.forward(&input, Mode::Train).unwrap();
        conv.backward(&Tensor::ones(out.shape().clone())).unwrap();
        let per_filter = 4;
        let wg = conv.w_grad.as_slice();
        assert!(wg[..per_filter].iter().all(|&g| g == 0.0), "frozen filter");
        assert!(wg[per_filter..].iter().any(|&g| g != 0.0), "live filter");
        assert_eq!(conv.b_grad.as_slice()[0], 0.0);
        assert_ne!(conv.b_grad.as_slice()[1], 0.0);
    }

    #[test]
    fn conv2d_backward_without_forward_errors() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, &mut r);
        let dy = Tensor::zeros(Shape::d3(1, 3, 3));
        assert!(matches!(
            conv.backward(&dy),
            Err(NnError::NoForwardCache { .. })
        ));
    }

    #[test]
    fn relu_forward_backward() {
        let mut relu = ReLU::new();
        let input = Tensor::from_vec(Shape::d1(4), vec![-1.0, 2.0, -3.0, 4.0]).unwrap();
        let out = relu.forward(&input, Mode::Train).unwrap();
        assert_eq!(out.as_slice(), &[0.0, 2.0, 0.0, 4.0]);
        let dy = Tensor::from_vec(Shape::d1(4), vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        let dx = relu.backward(&dy).unwrap();
        assert_eq!(dx.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
        assert!(relu.backward(&dy).is_err(), "cache consumed");
    }

    #[test]
    fn maxpool_forward_backward_routing() {
        let mut pool = MaxPool2d::new(2, 2);
        let input = Tensor::from_fn(Shape::d3(1, 4, 4), |i| (i[1] * 4 + i[2]) as f32);
        let out = pool.forward(&input, Mode::Train).unwrap();
        assert_eq!(out.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
        let dy = Tensor::from_vec(Shape::d3(1, 2, 2), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let dx = pool.backward(&dy).unwrap();
        assert_eq!(dx.get(&[0, 1, 1]), 1.0);
        assert_eq!(dx.get(&[0, 1, 3]), 2.0);
        assert_eq!(dx.get(&[0, 3, 1]), 3.0);
        assert_eq!(dx.get(&[0, 3, 3]), 4.0);
        assert_eq!(dx.sum(), 10.0, "all other positions zero");
    }

    #[test]
    fn flatten_roundtrip() {
        let mut flat = Flatten::new();
        let input = Tensor::from_fn(Shape::d3(2, 3, 4), |i| i[2] as f32);
        let out = flat.forward(&input, Mode::Train).unwrap();
        assert_eq!(out.shape().dims(), &[24]);
        let dx = flat.backward(&out).unwrap();
        assert_eq!(dx.shape().dims(), &[2, 3, 4]);
    }

    #[test]
    fn dense_forward_backward_gradcheck() {
        let mut r = rng();
        let mut dense = Dense::new(6, 3, &mut r);
        let input = r.tensor(Shape::d1(6), Init::Uniform { lo: -1.0, hi: 1.0 });
        grad_check_input(&mut dense, &input, 1e-2);
        assert_eq!(dense.in_dim(), 6);
        assert_eq!(dense.out_dim(), 3);
        assert!(dense
            .forward(&Tensor::zeros(Shape::d1(5)), Mode::Eval)
            .is_err());
    }

    #[test]
    fn dense_weight_gradient_is_outer_product() {
        let mut r = rng();
        let mut dense = Dense::new(2, 2, &mut r);
        let input = Tensor::from_vec(Shape::d1(2), vec![3.0, 5.0]).unwrap();
        dense.forward(&input, Mode::Train).unwrap();
        let dy = Tensor::from_vec(Shape::d1(2), vec![1.0, 2.0]).unwrap();
        dense.backward(&dy).unwrap();
        assert_eq!(dense.w_grad.as_slice(), &[3.0, 5.0, 6.0, 10.0]);
        assert_eq!(dense.b_grad.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn dropout_eval_is_identity_train_scales() {
        let mut r = rng();
        let mut drop = Dropout::new(0.5, &mut r);
        let input = Tensor::ones(Shape::d1(1000));
        let eval = drop.forward(&input, Mode::Eval).unwrap();
        assert_eq!(eval, input);
        let train = drop.forward(&input, Mode::Train).unwrap();
        let zeros = train.iter().filter(|&&v| v == 0.0).count();
        assert!((300..700).contains(&zeros), "{zeros} dropped of 1000");
        // Surviving activations scaled by 1/keep.
        assert!(train.iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
        // Expectation preserved.
        assert!((train.mean() - 1.0).abs() < 0.15);
        // Backward routes through the same mask.
        let dx = drop.backward(&Tensor::ones(Shape::d1(1000))).unwrap();
        for (t, d) in train.iter().zip(dx.iter()) {
            assert_eq!(*t == 0.0, *d == 0.0);
        }
    }

    #[test]
    fn dropout_p_zero_is_identity_even_in_train() {
        let mut r = rng();
        let mut drop = Dropout::new(0.0, &mut r);
        let input = Tensor::ones(Shape::d1(64));
        assert_eq!(drop.forward(&input, Mode::Train).unwrap(), input);
    }

    #[test]
    fn lrn_forward_shrinks_towards_zero_and_preserves_sign() {
        let mut lrn = LocalResponseNorm::alexnet();
        let input = Tensor::from_fn(Shape::d3(8, 2, 2), |i| i[0] as f32 - 3.5);
        let out = lrn.forward(&input, Mode::Eval).unwrap();
        for (x, y) in input.iter().zip(out.iter()) {
            assert!(y.abs() <= x.abs() + 1e-6, "LRN never amplifies");
            assert!(x * y >= 0.0, "sign preserved");
        }
    }

    #[test]
    fn lrn_gradient_checks() {
        // Use large alpha so the normalisation actually matters.
        let mut lrn = LocalResponseNorm::new(3, 2.0, 0.5, 0.75);
        let mut r = rng();
        let input = r.tensor(Shape::d3(4, 3, 3), Init::Uniform { lo: -1.0, hi: 1.0 });
        grad_check_input(&mut lrn, &input, 2e-2);
    }

    #[test]
    fn lrn_rejects_non_chw() {
        let mut lrn = LocalResponseNorm::alexnet();
        assert!(lrn
            .forward(&Tensor::zeros(Shape::d1(4)), Mode::Eval)
            .is_err());
    }

    #[test]
    fn params_expose_weight_and_bias() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, &mut r);
        assert_eq!(conv.params().len(), 2);
        let mut dense = Dense::new(2, 2, &mut r);
        assert_eq!(dense.params().len(), 2);
        let mut relu = ReLU::new();
        assert!(relu.params().is_empty());
    }

    #[test]
    fn zero_grads_clears() {
        let mut r = rng();
        let mut dense = Dense::new(3, 2, &mut r);
        let input = Tensor::ones(Shape::d1(3));
        dense.forward(&input, Mode::Train).unwrap();
        dense.backward(&Tensor::ones(Shape::d1(2))).unwrap();
        assert!(dense.w_grad.iter().any(|&g| g != 0.0));
        dense.zero_grads();
        assert!(dense.w_grad.iter().all(|&g| g == 0.0));
        assert!(dense.b_grad.iter().all(|&g| g == 0.0));
    }
}
