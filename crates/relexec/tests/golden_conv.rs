//! Golden digests of `reliable_conv2d`, recorded at the commit *before*
//! the three ALU structs became one `Alu<I, N>` and the Algorithm-3
//! regime became one object (PR 21). Each digest covers the output bits,
//! every `ExecStats` field and the injector's counters — so a moved
//! operation index, a reordered injector draw or a changed retry shows up
//! here as a changed constant. These are also ROADMAP item 1 rung 1's
//! pins for the conv-1 fast path.
//!
//! Never refresh a constant to make a refactor pass: a changed digest
//! means the arithmetic, the operation order or the fault stream changed.

use relcnn_faults::{
    bits, BerInjector, FaultInjector, FaultSite, NoFaults, ScriptedFault, ScriptedInjector,
};
use relcnn_relexec::conv::{reliable_conv2d, ReliableConvConfig};
use relcnn_relexec::{
    BucketConfig, DmrAlu, PlainAlu, QualifiedAlu, RedundancyMode, RetryPolicy, TmrAlu,
};
use relcnn_tensor::conv::ConvGeometry;
use relcnn_tensor::init::{Init, Rand};
use relcnn_tensor::{Shape, Tensor};

/// Rows: geometry × injector; columns: Plain, DMR, TMR.
const GOLDEN: [[u64; 3]; 6] = [
    [
        0x3ef2_66da_e227_0f33,
        0xdd50_a0c1_cf44_8cbf,
        0x7d33_9c06_972d_9562,
    ],
    [
        0x3ef2_66da_e227_0f33,
        0x0d6a_5b2a_5797_908a,
        0x4fc5_11b6_d9b7_b52f,
    ],
    [
        0x73f6_5ddb_32f8_4125,
        0xad50_60b6_1df7_c178,
        0xc1c7_71f1_bf4a_6d3b,
    ],
    [
        0x0219_96d8_9df4_61bb,
        0x574f_ecdb_b116_b78a,
        0x1872_8625_1616_dd75,
    ],
    [
        0x0219_96d8_9df4_61bb,
        0xb3b8_eaa9_0147_9923,
        0x9445_1232_1d4c_d014,
    ],
    [
        0x4e55_9c2b_ce61_6759,
        0x0b3a_f9ef_e91c_be6e,
        0x0c38_a916_7a8d_5389,
    ],
];

/// FNV-1a over little-endian bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

struct Problem {
    input: Tensor,
    filters: Tensor,
    bias: Tensor,
    geom: ConvGeometry,
    config: ReliableConvConfig,
}

/// Stride 2 with padding 2 under a 5×5 kernel: border pixels skip taps,
/// three PEs wrap over four output channels, a non-default bucket.
fn padded() -> Problem {
    let mut rng = Rand::seeded(21);
    Problem {
        input: rng.tensor(Shape::d3(3, 12, 12), Init::Uniform { lo: -1.0, hi: 1.0 }),
        filters: rng.tensor(Shape::d4(4, 3, 5, 5), Init::HeNormal { fan_in: 75 }),
        bias: rng.tensor(Shape::d1(4), Init::Uniform { lo: -0.5, hi: 0.5 }),
        geom: ConvGeometry::new(12, 12, 5, 5, 2, 2).unwrap(),
        config: ReliableConvConfig {
            bucket: BucketConfig::new(2, 5),
            retry: RetryPolicy::with_retries(2),
            pe_count: 3,
        },
    }
}

/// Stride 1, no padding, the paper's default regime.
fn unpadded() -> Problem {
    let mut rng = Rand::seeded(22);
    Problem {
        input: rng.tensor(Shape::d3(2, 11, 11), Init::Uniform { lo: -2.0, hi: 2.0 }),
        filters: rng.tensor(Shape::d4(5, 2, 3, 3), Init::HeNormal { fan_in: 18 }),
        bias: rng.tensor(Shape::d1(5), Init::Uniform { lo: -0.5, hi: 0.5 }),
        geom: ConvGeometry::new(11, 11, 3, 3, 1, 0).unwrap(),
        config: ReliableConvConfig::default(),
    }
}

/// One run on a directly typed ALU, digested: output bits, then every
/// `ExecStats` field (or the error's rendering), then the injector's
/// counters and the ALU's own.
fn digest_on<A: QualifiedAlu>(mut alu: A, p: &Problem) -> u64 {
    let result = reliable_conv2d(
        &p.input,
        &p.filters,
        Some(&p.bias),
        &p.geom,
        &mut alu,
        &p.config,
    );
    let mut h = Fnv::new();
    match result {
        Ok(out) => {
            for v in out.output.iter() {
                h.bytes(&v.to_bits().to_le_bytes());
            }
            let s = out.stats;
            for field in [
                s.mul_ops,
                s.acc_ops,
                s.failed_ops,
                s.retries,
                s.recovered,
                u64::from(s.bucket_peak),
                u64::from(s.bucket_final),
                s.bucket_errors,
                s.cycles,
            ] {
                h.u64(field);
            }
        }
        Err(err) => h.bytes(format!("{err:?}").as_bytes()),
    }
    let inj = alu.injector_stats();
    for field in [
        inj.exposures,
        inj.injected,
        inj.masked,
        alu.op_count(),
        alu.cycles(),
    ] {
        h.u64(field);
    }
    h.0
}

fn digest<I: FaultInjector>(mode: RedundancyMode, injector: I, p: &Problem) -> u64 {
    match mode {
        RedundancyMode::Plain => digest_on(PlainAlu::new(injector), p),
        RedundancyMode::Dmr => digest_on(DmrAlu::new(injector), p),
        RedundancyMode::Tmr => digest_on(TmrAlu::new(injector), p),
    }
}

#[test]
fn reliable_conv2d_matches_the_parent_commits_digests() {
    let mut measured = Vec::new();
    for p in [padded(), unpadded()] {
        let clean = RedundancyMode::ALL.map(|mode| digest(mode, NoFaults::new(), &p));
        // Replica 1 does not exist under Plain: the fault never fires
        // there, which is itself pinned.
        let scripted = RedundancyMode::ALL.map(|mode| {
            let fault = ScriptedFault::transient_flip(200, bits::SIGN_BIT)
                .on_replica(1)
                .at_site(FaultSite::Multiplier);
            digest(mode, ScriptedInjector::new([fault]), &p)
        });
        let ber = RedundancyMode::ALL.map(|mode| {
            let injector = BerInjector::new(0x5EED, 1e-4)
                .with_sites(vec![FaultSite::Multiplier, FaultSite::Accumulator]);
            digest(mode, injector, &p)
        });
        measured.extend([clean, scripted, ber]);
    }
    assert_eq!(measured, GOLDEN, "measured: {measured:#018x?}");
}

/// Rows: geometry × injector (`NoFaults`, then `BerInjector(0x5EED, 1e-4)`
/// on every site); columns: Plain, DMR, TMR. Recorded at the commit before
/// the kernel walked each window's valid taps as slices.
const GOLDEN_EDGES: [[u64; 3]; 4] = [
    [
        0xe1fa_6b34_483d_9b87,
        0xac8e_a7b8_7286_654f,
        0x8bdd_bb06_a354_0af7,
    ],
    [
        0xae03_7733_a345_16c6,
        0xd88b_3762_6cb0_e8ce,
        0x6536_8381_fb75_69b6,
    ],
    [
        0xa901_c8e2_9d62_9d51,
        0xc8d0_d550_85f5_ce84,
        0xbf93_fec9_9d0f_b08f,
    ],
    [
        0xca41_0184_22e7_3f95,
        0xd79e_9322_024e_d063,
        0x2c0e_a068_9a58_aa3c,
    ],
];

/// A 2×2 input under a 1×1 kernel with padding 3: 60 of the 64 windows lie
/// wholly in padding, so only their bias loads execute.
fn all_padding() -> Problem {
    let mut rng = Rand::seeded(23);
    Problem {
        input: rng.tensor(Shape::d3(1, 2, 2), Init::Uniform { lo: -1.0, hi: 1.0 }),
        filters: rng.tensor(Shape::d4(1, 1, 1, 1), Init::Uniform { lo: -1.0, hi: 1.0 }),
        bias: rng.tensor(Shape::d1(1), Init::Uniform { lo: -0.5, hi: 0.5 }),
        geom: ConvGeometry::new(2, 2, 1, 1, 1, 3).unwrap(),
        config: ReliableConvConfig::default(),
    }
}

/// The paper's conv-1 kernel shape (11×11, stride 4) on a 3×27×27 input
/// with 8 filters.
fn conv1_shape() -> Problem {
    let mut rng = Rand::seeded(24);
    Problem {
        input: rng.tensor(Shape::d3(3, 27, 27), Init::Uniform { lo: 0.0, hi: 1.0 }),
        filters: rng.tensor(Shape::d4(8, 3, 11, 11), Init::HeNormal { fan_in: 363 }),
        bias: rng.tensor(Shape::d1(8), Init::Uniform { lo: -0.5, hi: 0.5 }),
        geom: ConvGeometry::new(27, 27, 11, 11, 4, 0).unwrap(),
        config: ReliableConvConfig::default(),
    }
}

#[test]
fn padding_only_windows_and_the_conv1_shape_match_the_parent_commits_digests() {
    let mut measured = Vec::new();
    for p in [all_padding(), conv1_shape()] {
        let clean = RedundancyMode::ALL.map(|mode| digest(mode, NoFaults::new(), &p));
        let ber = RedundancyMode::ALL.map(|mode| digest(mode, BerInjector::new(0x5EED, 1e-4), &p));
        measured.extend([clean, ber]);
    }
    assert_eq!(measured, GOLDEN_EDGES, "measured: {measured:#018x?}");
}
