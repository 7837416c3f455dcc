//! Pins each layer's one forward body (`Layer::infer`, the blocked
//! zero-allocation kernels) to a reference assembled here from the naive
//! tensor oracles — `im2col` + `Tensor::matmul` + a bias pass,
//! `max_pool2d`, scalar LRN/ReLU loops — **bit for bit**, and asserts
//! that `forward(.., Eval)`, `forward(.., Train)` and `infer` agree with
//! each other. Every byte-diffed artefact and every `confidence_bits`
//! verdict in the workspace depends on these bits.

use relcnn_nn::scratch::{InferScratch, ScratchBuf};
use relcnn_nn::{
    alexnet, Conv2d, Dense, Dropout, Flatten, Layer, LocalResponseNorm, MaxPool2d, Mode, Network,
    NnError, ReLU,
};
use relcnn_tensor::conv::{im2col, max_pool2d, ConvGeometry};
use relcnn_tensor::init::{Init, Rand};
use relcnn_tensor::{Shape, Tensor};

fn uniform(seed: u64, shape: Shape, bound: f32) -> Tensor {
    Rand::seeded(seed).tensor(
        shape,
        Init::Uniform {
            lo: -bound,
            hi: bound,
        },
    )
}

fn assert_same_bits(what: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{what}: length drift");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {i}: {a} vs {b}");
    }
}

/// Runs `infer` through an arena and checks it, `forward(.., Eval)` and
/// (unless the layer is stochastic in training) `forward(.., Train)`
/// against `reference`.
fn assert_layer_matches(layer: &mut dyn Layer, input: &Tensor, reference: &Tensor, train: bool) {
    let mut arena = InferScratch::new();
    arena.load_input(input).unwrap();
    let (front, back, cols) = arena.frames();
    layer.infer(front, back, cols).unwrap();
    arena.swap();
    assert_eq!(arena.front().dims(), reference.shape().dims(), "infer dims");
    assert_same_bits("infer", arena.front().as_slice(), reference.as_slice());
    let eval = layer.forward(input, Mode::Eval).unwrap();
    assert_eq!(eval.shape(), reference.shape(), "Eval shape");
    assert_same_bits("forward(Eval)", eval.as_slice(), reference.as_slice());
    if train {
        let trained = layer.forward(input, Mode::Train).unwrap();
        assert_eq!(trained.shape(), reference.shape(), "Train shape");
        assert_same_bits("forward(Train)", trained.as_slice(), reference.as_slice());
    }
}

/// The naive convolution: lower, multiply, then add the bias per row.
fn conv_reference(conv: &Conv2d, input: &Tensor) -> Tensor {
    let geom = ConvGeometry::new(
        input.shape().dim(1),
        input.shape().dim(2),
        conv.kernel_size(),
        conv.kernel_size(),
        conv.stride(),
        conv.padding(),
    )
    .unwrap();
    let cols = im2col(input, &geom).unwrap();
    let rows = conv.in_channels() * conv.kernel_size() * conv.kernel_size();
    let w = conv
        .filters()
        .reshape(vec![conv.out_channels(), rows])
        .unwrap();
    let mut out = w.matmul(&cols).unwrap();
    let positions = geom.positions();
    for (oc, &b) in conv.bias().iter().enumerate() {
        for v in &mut out.as_mut_slice()[oc * positions..(oc + 1) * positions] {
            *v += b;
        }
    }
    out.into_reshaped(vec![conv.out_channels(), geom.out_h(), geom.out_w()])
        .unwrap()
}

#[test]
fn conv2d_matches_im2col_matmul_bias_oracle() {
    let mut rng = Rand::seeded(42);
    // (in_c, out_c, k, stride, pad, side): padded + strided (zero-filled
    // cols), pad-free, and conv-1's 11×11 stride-4 geometry.
    for (case, &(in_c, out_c, k, stride, pad, side)) in
        [(3, 4, 3, 2, 1, 9), (2, 3, 3, 1, 0, 6), (3, 8, 11, 4, 0, 48)]
            .iter()
            .enumerate()
    {
        let mut conv = Conv2d::new(in_c, out_c, k, stride, pad, &mut rng);
        // A non-zero bias, so the fused bias add is actually exercised.
        for p in conv.params() {
            if p.name == "conv2d.bias" {
                for (i, v) in p.value.iter_mut().enumerate() {
                    *v = 0.125 * i as f32 - 0.3;
                }
            }
        }
        let input = uniform(case as u64, Shape::d3(in_c, side, side), 1.0);
        let reference = conv_reference(&conv, &input);
        assert_layer_matches(&mut conv, &input, &reference, true);
    }
}

#[test]
fn weight_updates_are_visible_to_the_next_infer() {
    // There is no cached copy of the weights to invalidate: `infer` reads
    // the filter bank itself, so a `set_filter` or an optimiser-style
    // write through `params()` shows up in the very next call.
    let mut rng = Rand::seeded(43);
    let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
    let input = uniform(1, Shape::d3(2, 6, 6), 1.0);
    let before = conv_reference(&conv, &input);
    assert_layer_matches(&mut conv, &input, &before, true);

    let new_filter = Tensor::from_fn(Shape::d3(2, 3, 3), |i| i[1] as f32 - 1.0);
    conv.set_filter(0, &new_filter).unwrap();
    let after = conv_reference(&conv, &input);
    assert!(
        after.iter().zip(before.iter()).any(|(a, b)| a != b),
        "new filter changed the output"
    );
    assert_layer_matches(&mut conv, &input, &after, true);

    for p in conv.params() {
        if p.name == "conv2d.weight" {
            for v in p.value.iter_mut() {
                *v += 0.25;
            }
        }
    }
    let shifted = conv_reference(&conv, &input);
    assert!(
        shifted.iter().zip(after.iter()).any(|(a, b)| a != b),
        "params() write changed the output"
    );
    assert_layer_matches(&mut conv, &input, &shifted, true);
}

#[test]
fn dense_matches_matmul_bias_oracle() {
    let mut rng = Rand::seeded(44);
    let mut dense = Dense::new(37, 11, &mut rng);
    let mut bias = Vec::new();
    for p in dense.params() {
        if p.name == "dense.bias" {
            for (i, v) in p.value.iter_mut().enumerate() {
                *v = 0.5 - 0.0625 * i as f32;
            }
            bias = p.value.as_slice().to_vec();
        }
    }
    let input = uniform(2, Shape::d1(37), 2.0);
    let x = input.reshape(vec![37, 1]).unwrap();
    let mut reference = dense
        .weights()
        .matmul(&x)
        .unwrap()
        .into_reshaped(vec![11])
        .unwrap();
    for (v, b) in reference.iter_mut().zip(&bias) {
        *v += b;
    }
    assert_layer_matches(&mut dense, &input, &reference, true);
}

#[test]
fn max_pool_matches_naive_oracle() {
    // Overlapping AlexNet windows and the disjoint 2×2 case.
    for (kernel, stride, side) in [(3, 2, 9), (2, 2, 8)] {
        let input = uniform(3, Shape::d3(5, side, side), 3.0);
        let geom = ConvGeometry::new(side, side, kernel, kernel, stride, 0).unwrap();
        let (reference, _) = max_pool2d(&input, &geom).unwrap();
        let mut pool = MaxPool2d::new(kernel, stride);
        assert_layer_matches(&mut pool, &input, &reference, true);
    }
}

#[test]
fn relu_flatten_and_eval_dropout_match_scalar_loops() {
    let input = uniform(4, Shape::d3(3, 5, 4), 2.0);
    let rectified = input.map(|v| v.max(0.0));
    assert_layer_matches(&mut ReLU::new(), &input, &rectified, true);
    let flat = input.reshape(vec![input.len()]).unwrap();
    assert_layer_matches(&mut Flatten::new(), &input, &flat, true);
    // Dropout is the identity outside training; in training it either
    // zeroes an activation or scales it by 1/keep.
    let mut drop = Dropout::new(0.4, &mut Rand::seeded(5));
    assert_layer_matches(&mut drop, &input, &input, false);
    let trained = drop.forward(&input, Mode::Train).unwrap();
    let scale = 1.0 / (1.0f32 - 0.4);
    let mut dropped = 0;
    for (&t, &v) in trained.iter().zip(input.iter()) {
        if t == 0.0 {
            dropped += 1;
        } else {
            assert_eq!(t.to_bits(), (v * scale).to_bits());
        }
    }
    assert!((10..40).contains(&dropped), "{dropped} of 60 dropped");
}

#[test]
fn lrn_matches_scalar_loop() {
    let (n, k, alpha, beta) = (5usize, 2.0f32, 1e-4f32, 0.75f32);
    let input = uniform(6, Shape::d3(8, 3, 3), 4.0);
    let (c, plane) = (8usize, 9usize);
    let x = input.as_slice();
    let mut reference = input.clone();
    for i in 0..c {
        let lo = i.saturating_sub(n / 2);
        let hi = (i + n / 2).min(c - 1);
        for p in 0..plane {
            let mut acc = 0.0f32;
            for j in lo..=hi {
                acc += x[j * plane + p] * x[j * plane + p];
            }
            let d = k + alpha / n as f32 * acc;
            reference.as_mut_slice()[i * plane + p] = x[i * plane + p] * d.powf(-beta);
        }
    }
    let mut lrn = LocalResponseNorm::alexnet();
    assert_layer_matches(&mut lrn, &input, &reference, true);
    assert!(lrn
        .forward(&Tensor::zeros(Shape::d1(4)), Mode::Eval)
        .is_err());
}

fn assert_net_paths_agree(net: &mut Network, input: &Tensor, arena: &mut InferScratch) {
    let eval = net.forward(input, Mode::Eval).expect("Eval forward");
    net.forward_scratch(input, arena).expect("scratch forward");
    assert_eq!(arena.front().dims(), eval.shape().dims(), "output shape");
    assert_same_bits("network", arena.front().as_slice(), eval.as_slice());
}

#[test]
fn tiny_cnn_scratch_matches_eval_forward() {
    let mut rng = Rand::seeded(101);
    let mut net = alexnet::tiny_cnn(4, 32, &mut rng).unwrap();
    let mut arena = InferScratch::new();
    for seed in 0..6u64 {
        let img = uniform(seed, Shape::d3(3, 32, 32), 1.0);
        assert_net_paths_agree(&mut net, &img, &mut arena);
    }
}

#[test]
fn alexnet_gtsrb_scratch_matches_eval_forward() {
    let mut rng = Rand::seeded(202);
    let mut net = alexnet::alexnet_gtsrb(8, 96, &mut rng).unwrap();
    let mut arena = InferScratch::new();
    for seed in 0..3u64 {
        let img = uniform(seed, Shape::d3(3, 96, 96), 1.0);
        assert_net_paths_agree(&mut net, &img, &mut arena);
    }
}

#[test]
fn all_layer_kinds_scratch_match_including_lrn_and_padding() {
    // A network that touches every `infer` impl: padded and strided
    // convolutions, LRN, overlapping pooling, dropout, dense.
    let mut rng = Rand::seeded(303);
    let mut net = Network::new();
    net.push(Conv2d::new(3, 6, 5, 2, 2, &mut rng)); // padded, strided
    net.push(ReLU::new());
    net.push(LocalResponseNorm::alexnet());
    net.push(MaxPool2d::new(3, 2)); // overlapping windows
    net.push(Conv2d::new(6, 4, 3, 1, 0, &mut rng)); // pad-free
    net.push(ReLU::new());
    net.push(Flatten::new());
    net.push(Dropout::new(0.4, &mut rng));
    // 17×17 → conv(5,s2,p2) 9×9 → pool(3,s2) 4×4 → conv(3,s1) 2×2.
    net.push(Dense::new(4 * 2 * 2, 5, &mut rng));
    let mut arena = InferScratch::new();
    for seed in 10..15u64 {
        let img = uniform(seed, Shape::d3(3, 17, 17), 2.0);
        assert_net_paths_agree(&mut net, &img, &mut arena);
    }
}

#[test]
fn arena_reuse_across_geometries_stays_bit_exact() {
    // One arena serving two different networks/geometries back and forth:
    // buffers shrink and regrow logically without corrupting results.
    let mut rng = Rand::seeded(505);
    let mut small = alexnet::tiny_cnn(4, 32, &mut rng).unwrap();
    let mut big = alexnet::alexnet_gtsrb(8, 96, &mut rng).unwrap();
    let mut arena = InferScratch::new();
    let small_img = uniform(1, Shape::d3(3, 32, 32), 1.0);
    let big_img = uniform(2, Shape::d3(3, 96, 96), 1.0);
    for _ in 0..2 {
        assert_net_paths_agree(&mut big, &big_img, &mut arena);
        assert_net_paths_agree(&mut small, &small_img, &mut arena);
    }
    let warmed = arena.grow_events();
    assert_net_paths_agree(&mut big, &big_img, &mut arena);
    assert_eq!(arena.grow_events(), warmed, "arena warmed up: no regrowth");
}

#[test]
fn forward_from_scratch_matches_split_execution() {
    let mut rng = Rand::seeded(404);
    let mut net = alexnet::tiny_cnn(4, 32, &mut rng).unwrap();
    let img = uniform(7, Shape::d3(3, 32, 32), 1.0);
    let full = net.forward(&img, Mode::Eval).unwrap();
    // Execute conv-1 on its own, then resume the tail — the hybrid
    // network's exact access pattern.
    let conv_out = conv_reference(net.conv2d_at(0).unwrap(), &img);
    let mut arena = InferScratch::new();
    net.forward_from_scratch(&conv_out, 1, &mut arena).unwrap();
    assert_same_bits("tail", arena.front().as_slice(), full.as_slice());
    // Bounds checking.
    assert!(net.forward_from_scratch(&img, 99, &mut arena).is_err());
    // start == len leaves the input untouched in the front buffer.
    net.forward_from_scratch(&conv_out, net.len(), &mut arena)
        .unwrap();
    assert_same_bits("identity", arena.front().as_slice(), conv_out.as_slice());
}

#[test]
fn custom_layer_writes_infer_once_and_gets_forward() {
    /// A layer outside this crate: `infer` is the only forward it writes.
    #[derive(Debug, Clone)]
    struct Scale(f32);

    impl Layer for Scale {
        fn name(&self) -> &'static str {
            "scale"
        }
        fn infer(
            &self,
            input: &ScratchBuf,
            out: &mut ScratchBuf,
            _cols: &mut ScratchBuf,
        ) -> Result<(), NnError> {
            out.set_dims(input.dims())?;
            for (o, &v) in out.as_mut_slice().iter_mut().zip(input.as_slice()) {
                *o = v * self.0;
            }
            Ok(())
        }
        fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
            Ok(grad_output.map(|v| v * self.0))
        }
        fn clone_box(&self) -> Box<dyn Layer> {
            Box::new(self.clone())
        }
    }

    let img = uniform(11, Shape::d3(2, 4, 4), 1.0);
    let reference = img.map(|v| (v * 2.5).max(0.0));
    let mut net = Network::new();
    net.push(Scale(2.5));
    net.push(ReLU::new());
    for mode in [Mode::Eval, Mode::Train] {
        let out = net.forward(&img, mode).unwrap();
        assert_same_bits("forward", out.as_slice(), reference.as_slice());
    }
    let mut arena = InferScratch::new();
    assert_net_paths_agree(&mut net, &img, &mut arena);
}

#[test]
fn scratch_buf_is_reexported() {
    // The arena building block is public API for custom layer authors.
    let mut buf = ScratchBuf::new();
    buf.set_dims(&[3]).unwrap();
    assert_eq!(buf.as_slice(), &[0.0, 0.0, 0.0]);
}
