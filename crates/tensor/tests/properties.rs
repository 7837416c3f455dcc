//! Property-based tests for the tensor substrate.

use proptest::prelude::*;
use relcnn_tensor::conv::{
    col2im, conv2d, im2col, im2col_into, max_pool2d, max_pool2d_into, ConvGeometry,
};
use relcnn_tensor::init::Rand;
use relcnn_tensor::ops::{gemm_bias_into, gemm_into};
use relcnn_tensor::serial::{from_bytes, to_bytes};
use relcnn_tensor::{Shape, Tensor};

fn small_tensor(max_len: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-100.0f32..100.0, 1..max_len).prop_map(|v| {
        let n = v.len();
        Tensor::from_vec(Shape::d1(n), v).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Shape offset/unravel are inverse bijections over the whole volume.
    #[test]
    fn shape_offset_unravel_bijection(
        dims in proptest::collection::vec(1usize..5, 1..4),
    ) {
        let shape = Shape::new(dims);
        let mut seen = std::collections::HashSet::new();
        for flat in 0..shape.volume() {
            let idx = shape.unravel(flat).unwrap();
            prop_assert_eq!(shape.offset(&idx).unwrap(), flat);
            prop_assert!(seen.insert(idx));
        }
    }

    /// Elementwise add/sub are inverse; mul by ones is identity.
    #[test]
    fn elementwise_algebra(t in small_tensor(64)) {
        let ones = Tensor::ones(t.shape().clone());
        prop_assert_eq!(t.mul(&ones).unwrap(), t.clone());
        let back = t.add(&t).unwrap().sub(&t).unwrap();
        for (a, b) in back.iter().zip(t.iter()) {
            prop_assert!((a - b).abs() <= 1e-3_f32.max(b.abs() * 1e-5));
        }
    }

    /// Transpose is an involution and matmul agrees with the transpose
    /// identity (A·B)ᵀ = Bᵀ·Aᵀ.
    #[test]
    fn matmul_transpose_identity(
        m in 1usize..5, k in 1usize..5, n in 1usize..5, seed in 0u64..1000,
    ) {
        let mut rng = Rand::seeded(seed);
        let a = rng.tensor(Shape::d2(m, k), relcnn_tensor::init::Init::Uniform { lo: -2.0, hi: 2.0 });
        let b = rng.tensor(Shape::d2(k, n), relcnn_tensor::init::Init::Uniform { lo: -2.0, hi: 2.0 });
        prop_assert_eq!(a.transpose().unwrap().transpose().unwrap(), a.clone());
        let ab_t = a.matmul(&b).unwrap().transpose().unwrap();
        let bt_at = b.transpose().unwrap().matmul(&a.transpose().unwrap()).unwrap();
        for (x, y) in ab_t.iter().zip(bt_at.iter()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// `im2col_into` reproduces the allocating `im2col` byte for byte even
    /// into a garbage-prefilled scratch buffer, and `max_pool2d_into`
    /// matches `max_pool2d` the same way.
    #[test]
    fn scratch_lowering_matches_allocating_oracles(
        in_c in 1usize..3, size in 3usize..9, k in 1usize..4,
        stride in 1usize..3, pad in 0usize..2, seed in 0u64..1000,
    ) {
        prop_assume!(size + 2 * pad >= k);
        let geom = ConvGeometry::new(size, size, k, k, stride, pad).unwrap();
        let mut rng = Rand::seeded(seed);
        let input = rng.tensor(
            Shape::d3(in_c, size, size),
            relcnn_tensor::init::Init::Uniform { lo: -1.0, hi: 1.0 },
        );
        let oracle = im2col(&input, &geom).unwrap();
        let mut out = vec![f32::NAN; oracle.len()];
        im2col_into(input.as_slice(), in_c, &geom, &mut out).unwrap();
        for (a, b) in out.iter().zip(oracle.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        if pad == 0 && size >= k {
            let pool_geom = ConvGeometry::new(size, size, k, k, stride, 0).unwrap();
            let (pooled, _) = max_pool2d(&input, &pool_geom).unwrap();
            let mut out = vec![f32::NAN; pooled.len()];
            max_pool2d_into(input.as_slice(), in_c, &pool_geom, &mut out).unwrap();
            for (a, b) in out.iter().zip(pooled.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// The inference lowering (`im2col_into`, then `gemm_into`, or
    /// `gemm_bias_into` with a bias — what `Conv2d::infer` runs) equals
    /// direct convolution for random geometry, with and without bias.
    #[test]
    fn conv_implementations_agree(
        in_c in 1usize..3, out_c in 1usize..3,
        size in 3usize..9, k in 1usize..4,
        stride in 1usize..3, pad in 0usize..2,
        seed in 0u64..1000,
    ) {
        prop_assume!(size + 2 * pad >= k);
        let geom = ConvGeometry::new(size, size, k, k, stride, pad).unwrap();
        let mut rng = Rand::seeded(seed);
        let input = rng.tensor(Shape::d3(in_c, size, size), relcnn_tensor::init::Init::Uniform { lo: -1.0, hi: 1.0 });
        let filt = rng.tensor(Shape::d4(out_c, in_c, k, k), relcnn_tensor::init::Init::Uniform { lo: -1.0, hi: 1.0 });
        let bias = rng.tensor(Shape::d1(out_c), relcnn_tensor::init::Init::Uniform { lo: -1.0, hi: 1.0 });
        let (rows, positions) = (in_c * k * k, geom.positions());
        let mut cols = vec![f32::NAN; rows * positions];
        im2col_into(input.as_slice(), in_c, &geom, &mut cols).unwrap();
        for bias in [None, Some(&bias)] {
            let direct = conv2d(&input, &filt, bias, &geom).unwrap();
            let mut fast = vec![f32::NAN; out_c * positions];
            let w = filt.as_slice();
            match bias {
                None => gemm_into(out_c, rows, positions, w, &cols, &mut fast),
                Some(b) => gemm_bias_into(out_c, rows, positions, w, &cols, b.as_slice(), &mut fast),
            }
            .unwrap();
            prop_assert_eq!(direct.len(), fast.len());
            for (a, b) in direct.iter().zip(fast.iter()) {
                prop_assert!((a - b).abs() < 1e-3);
            }
        }
    }

    /// col2im is the adjoint of im2col: <Ax, y> == <x, Aᵀy>.
    #[test]
    fn im2col_adjoint(
        in_c in 1usize..3, size in 3usize..8, k in 1usize..4,
        stride in 1usize..3, pad in 0usize..2, seed in 0u64..1000,
    ) {
        prop_assume!(size + 2 * pad >= k);
        let geom = ConvGeometry::new(size, size, k, k, stride, pad).unwrap();
        let mut rng = Rand::seeded(seed);
        let x = rng.tensor(Shape::d3(in_c, size, size), relcnn_tensor::init::Init::Uniform { lo: -1.0, hi: 1.0 });
        let rows = in_c * k * k;
        let y = rng.tensor(Shape::d2(rows, geom.positions()), relcnn_tensor::init::Init::Uniform { lo: -1.0, hi: 1.0 });
        let ax = im2col(&x, &geom).unwrap();
        let aty = col2im(&y, in_c, &geom).unwrap();
        let lhs = ax.dot(&y).unwrap() as f64;
        let rhs = x.dot(&aty).unwrap() as f64;
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "{} vs {}", lhs, rhs);
    }

    /// Binary serialisation round-trips bit-exactly.
    #[test]
    fn serial_roundtrip(t in small_tensor(128)) {
        let bytes = to_bytes(&t);
        let mut buf = bytes.clone();
        let back = from_bytes(&mut buf).unwrap();
        prop_assert_eq!(back.shape(), t.shape());
        for (a, b) in back.iter().zip(t.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Seeded RNG streams are reproducible and shift/scale statistics of
    /// initialisers are sane.
    #[test]
    fn rng_reproducible(seed in 0u64..10_000) {
        let mut a = Rand::seeded(seed);
        let mut b = Rand::seeded(seed);
        for _ in 0..8 {
            prop_assert_eq!(a.raw_u64(), b.raw_u64());
        }
    }
}
