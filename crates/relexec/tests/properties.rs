//! Property-based tests for the reliable-execution core.
//!
//! The central guarantees:
//!  * DMR detects *every* fault confined to a single replica of a single
//!    operation (the paper's per-operation checkpoint);
//!  * TMR corrects every such fault in place;
//!  * the leaky bucket never goes negative, tolerates isolated errors and
//!    always reports two adjacent errors under the paper configuration;
//!  * fault-free reliable convolution is exactly direct convolution.

use proptest::prelude::*;
use relcnn_faults::{
    BerInjector, FaultInjector, FaultSite, InjectorStats, NoFaults, ScriptedFault, ScriptedInjector,
};
use relcnn_relexec::conv::{reliable_conv2d, reliable_partition, ConvOutput, ReliableConvConfig};
use relcnn_relexec::{
    BucketConfig, BucketState, DmrAlu, ExecError, LeakyBucket, PlainAlu, QualifiedAlu,
    RedundancyMode, TmrAlu,
};
use relcnn_tensor::conv::{conv2d, ConvGeometry};
use relcnn_tensor::{Shape, Tensor};

fn arb_operands() -> impl Strategy<Value = (f32, f32)> {
    (
        prop::num::f32::NORMAL.prop_filter("finite", |v| v.is_finite() && v.abs() < 1e15),
        prop::num::f32::NORMAL.prop_filter("finite", |v| v.is_finite() && v.abs() < 1e15),
    )
}

/// A bias-free `reliable_conv2d` on a directly typed ALU, with what the
/// ALU said of its injector before giving it up.
fn conv_on<A: QualifiedAlu>(
    mut alu: A,
    input: &Tensor,
    filters: &Tensor,
    geom: &ConvGeometry,
) -> (Result<ConvOutput, ExecError>, InjectorStats) {
    let config = ReliableConvConfig::default();
    let result = reliable_conv2d(input, filters, None, geom, &mut alu, &config);
    (result, alu.injector_stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The mode-taking entry point is the directly typed call: same output
    /// bits, same `ExecStats` (or the same abort) and the same injector
    /// counters, per mode, over random geometries and seeded BER streams —
    /// and an ALU built on `&mut injector` leaves the injector with exactly
    /// the counters the ALU reported.
    #[test]
    fn mode_entry_point_is_the_typed_alu_on_a_borrowed_injector(
        in_c in 1usize..3,
        out_c in 1usize..4,
        size in 3usize..8,
        k in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        seed in 0u64..1000,
    ) {
        prop_assume!(k <= size);
        let geom = ConvGeometry::new(size, size, k, k, stride, pad).unwrap();
        let mut rng = relcnn_tensor::init::Rand::seeded(seed);
        let uniform = relcnn_tensor::init::Init::Uniform { lo: -2.0, hi: 2.0 };
        let input = rng.tensor(Shape::d3(in_c, size, size), uniform);
        let filters = rng.tensor(Shape::d4(out_c, in_c, k, k), uniform);
        let injector = || {
            BerInjector::new(seed, 1e-3)
                .with_sites(vec![FaultSite::Multiplier, FaultSite::Accumulator])
        };
        for mode in RedundancyMode::ALL {
            let mut typed_inj = injector();
            let (typed, reported) = match mode {
                RedundancyMode::Plain => {
                    conv_on(PlainAlu::new(&mut typed_inj), &input, &filters, &geom)
                }
                RedundancyMode::Dmr => conv_on(DmrAlu::new(&mut typed_inj), &input, &filters, &geom),
                RedundancyMode::Tmr => conv_on(TmrAlu::new(&mut typed_inj), &input, &filters, &geom),
            };
            prop_assert_eq!(typed_inj.stats(), reported);

            let mut inj = injector();
            let config = ReliableConvConfig::default();
            // `false`: no ReLU stage after the convolution.
            let by_mode =
                reliable_partition(mode, &input, &filters, None, &geom, false, &mut inj, &config);
            prop_assert_eq!(inj.stats(), reported);
            match (by_mode, typed) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.stats, b.stats);
                    for (x, y) in a.output.iter().zip(b.output.iter()) {
                        prop_assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
                (a, b) => prop_assert_eq!(a, b),
            }
        }
    }

    /// Any single-bit corruption of one replica's multiply is detected by
    /// DMR — the per-operation guarantee everything else builds on.
    #[test]
    fn dmr_detects_every_single_replica_bit_flip(
        (a, b) in arb_operands(),
        bit in 0u32..32,
        replica in 0u8..2,
    ) {
        let product = a * b;
        prop_assume!(product.is_finite());
        // A flip that lands on identical bits produces a different value
        // except… never: XOR with a set bit always changes the word.
        let inj = ScriptedInjector::new([
            ScriptedFault::transient_flip(0, bit)
                .on_replica(replica)
                .at_site(FaultSite::Multiplier),
        ]);
        let mut alu = DmrAlu::new(inj);
        let q = alu.mul(a, b);
        prop_assert!(!q.is_ok(), "flip of bit {} in replica {} undetected", bit, replica);
    }

    /// TMR corrects the same fault class in place: qualifier true AND the
    /// voted value equals the healthy product.
    #[test]
    fn tmr_corrects_every_single_replica_bit_flip(
        (a, b) in arb_operands(),
        bit in 0u32..32,
        replica in 0u8..3,
    ) {
        let product = a * b;
        prop_assume!(product.is_finite());
        let inj = ScriptedInjector::new([
            ScriptedFault::transient_flip(0, bit)
                .on_replica(replica)
                .at_site(FaultSite::Multiplier),
        ]);
        let mut alu = TmrAlu::new(inj);
        let q = alu.mul(a, b);
        prop_assert!(q.is_ok());
        prop_assert_eq!(q.value().to_bits(), product.to_bits());
    }

    /// Plain execution never raises the qualifier, whatever happens.
    #[test]
    fn plain_qualifier_constant_true(
        (a, b) in arb_operands(),
        bit in 0u32..32,
    ) {
        let inj = ScriptedInjector::new([
            ScriptedFault::transient_flip(0, bit).at_site(FaultSite::Multiplier),
        ]);
        let mut alu = PlainAlu::new(inj);
        prop_assert!(alu.mul(a, b).is_ok());
    }

    /// Accumulate-site faults behave identically to multiplier faults.
    #[test]
    fn dmr_detects_accumulator_faults(
        (a, b) in arb_operands(),
        bit in 0u32..32,
        replica in 0u8..2,
    ) {
        prop_assume!((a + b).is_finite());
        let inj = ScriptedInjector::new([
            ScriptedFault::transient_flip(0, bit)
                .on_replica(replica)
                .at_site(FaultSite::Accumulator),
        ]);
        let mut alu = DmrAlu::new(inj);
        prop_assert!(!alu.acc(a, b).is_ok());
    }

    /// Bucket safety: the level is never "negative" (floor zero), never
    /// exceeds peak, and drains to zero after enough successes.
    #[test]
    fn bucket_invariants(events in proptest::collection::vec(any::<bool>(), 0..200)) {
        let mut bucket = LeakyBucket::new(BucketConfig::default());
        for &is_error in &events {
            if is_error {
                bucket.record_error();
            } else {
                bucket.record_success();
            }
            prop_assert!(bucket.level() <= bucket.peak());
        }
        let level_before = bucket.level();
        for _ in 0..=level_before {
            bucket.record_success();
        }
        prop_assert_eq!(bucket.level(), 0);
    }

    /// Under the paper bucket, any two errors separated by at most one
    /// success trip the ceiling; any two separated by >= 2 successes with
    /// an initially empty bucket do not.
    #[test]
    fn bucket_adjacency_rule(gap in 0usize..6) {
        let mut bucket = LeakyBucket::new(BucketConfig::default());
        assert_eq!(bucket.record_error(), BucketState::Tolerable);
        for _ in 0..gap {
            bucket.record_success();
        }
        let second = bucket.record_error();
        if gap >= 2 {
            prop_assert_eq!(second, BucketState::Tolerable);
        } else {
            prop_assert_eq!(second, BucketState::Persistent);
        }
    }

    /// Fault-free reliable convolution equals direct convolution for
    /// arbitrary small geometries, all modes.
    #[test]
    fn reliable_conv_matches_direct(
        in_c in 1usize..3,
        out_c in 1usize..4,
        size in 3usize..8,
        k in 1usize..4,
        stride in 1usize..3,
        seed in 0u64..1000,
    ) {
        prop_assume!(k <= size);
        let geom = ConvGeometry::new(size, size, k, k, stride, 0).unwrap();
        let mut rng = relcnn_tensor::init::Rand::seeded(seed);
        let input = rng.tensor(
            Shape::d3(in_c, size, size),
            relcnn_tensor::init::Init::Uniform { lo: -2.0, hi: 2.0 },
        );
        let filters = rng.tensor(
            Shape::d4(out_c, in_c, k, k),
            relcnn_tensor::init::Init::Uniform { lo: -1.0, hi: 1.0 },
        );
        let golden = conv2d(&input, &filters, None, &geom).unwrap();
        let config = ReliableConvConfig::default();

        let mut dmr = DmrAlu::new(NoFaults::new());
        let out = reliable_conv2d(&input, &filters, None, &geom, &mut dmr, &config).unwrap();
        for (x, y) in out.output.iter().zip(golden.iter()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
        prop_assert_eq!(out.stats.failed_ops, 0);

        let mut tmr = TmrAlu::new(NoFaults::new());
        let out = reliable_conv2d(&input, &filters, None, &geom, &mut tmr, &config).unwrap();
        for (x, y) in out.output.iter().zip(golden.iter()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// A single transient replica fault anywhere in a DMR convolution is
    /// always recovered by exactly one rollback, and the output is golden.
    #[test]
    fn single_transient_anywhere_recovered(
        op_index in 0u64..128,
        replica in 0u8..2,
        bit in 0u32..32,
    ) {
        let geom = ConvGeometry::new(4, 4, 2, 2, 1, 0).unwrap();
        let input = Tensor::from_fn(Shape::d3(1, 4, 4), |i| (i[1] * 4 + i[2]) as f32 + 1.0);
        let filters = Tensor::from_fn(Shape::d4(2, 1, 2, 2), |i| {
            (i[0] * 4 + i[2] * 2 + i[3]) as f32 - 3.0
        });
        // 9 positions * 4 kernel elements * 2 channels = 72 MACs = 144 ops.
        prop_assume!(op_index < 144);
        let site = if op_index % 2 == 0 { FaultSite::Multiplier } else { FaultSite::Accumulator };
        let golden = conv2d(&input, &filters, None, &geom).unwrap();
        let inj = ScriptedInjector::new([
            ScriptedFault::transient_flip(op_index, bit)
                .on_replica(replica)
                .at_site(site),
        ]);
        let mut alu = DmrAlu::new(inj);
        let out = reliable_conv2d(
            &input, &filters, None, &geom, &mut alu, &ReliableConvConfig::default(),
        ).unwrap();
        prop_assert_eq!(out.stats.failed_ops, 1);
        prop_assert_eq!(out.stats.recovered, 1);
        for (x, y) in out.output.iter().zip(golden.iter()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Saturation edge: with factors near `u32::MAX` the level saturates
    /// instead of wrapping, the verdict is immediately persistent, and
    /// further errors keep the level pinned at the ceiling of the type.
    #[test]
    fn bucket_saturates_at_type_ceiling(
        factor in (u32::MAX - 8)..=u32::MAX,
        extra_errors in 1usize..5,
    ) {
        let mut bucket = LeakyBucket::new(BucketConfig::new(factor, u32::MAX));
        let mut last = bucket.record_error();
        for _ in 0..extra_errors {
            prop_assert!(bucket.level() >= factor);
            last = bucket.record_error();
        }
        if factor == u32::MAX {
            prop_assert_eq!(last, BucketState::Persistent);
            prop_assert_eq!(bucket.level(), u32::MAX);
        }
        prop_assert_eq!(bucket.peak(), bucket.level());
        prop_assert_eq!(bucket.errors(), extra_errors as u64 + 1);
    }

    /// Decrement edge: successes drain exactly one unit down to the zero
    /// floor, never below, and never touch peak or the lifetime counters.
    #[test]
    fn bucket_decrement_floors_at_zero(
        errors in 0u32..6,
        factor in 1u32..5,
        successes in 0u32..40,
    ) {
        let mut bucket = LeakyBucket::new(BucketConfig::new(factor, u32::MAX));
        for _ in 0..errors {
            bucket.record_error();
        }
        let filled = bucket.level();
        prop_assert_eq!(filled, errors.saturating_mul(factor));
        let peak = bucket.peak();
        for i in 0..successes {
            bucket.record_success();
            let expected = filled.saturating_sub(i + 1);
            prop_assert_eq!(bucket.level(), expected);
        }
        prop_assert_eq!(bucket.peak(), peak, "drain must not rewrite the peak");
        prop_assert_eq!(bucket.errors(), errors as u64);
        prop_assert_eq!(bucket.successes(), successes as u64);
    }

    /// `drain` is idempotent, zeroes level and peak, and preserves the
    /// lifetime counters regardless of prior history.
    #[test]
    fn bucket_drain_idempotent(events in proptest::collection::vec(any::<bool>(), 0..60)) {
        let mut bucket = LeakyBucket::default();
        let mut errors = 0u64;
        for &is_error in &events {
            if is_error {
                bucket.record_error();
                errors += 1;
            } else {
                bucket.record_success();
            }
        }
        bucket.drain();
        let snapshot = bucket;
        bucket.drain();
        prop_assert_eq!(bucket, snapshot);
        prop_assert_eq!(bucket.level(), 0);
        prop_assert_eq!(bucket.peak(), 0);
        prop_assert_eq!(bucket.errors(), errors);
        prop_assert!(!bucket.has_overflowed(), "drained bucket reports clean");
    }
}
