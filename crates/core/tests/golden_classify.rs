//! Golden digests of `HybridCnn::classify_under_faults` with the reliable
//! partition extended through the ReLU, recorded at the commit *before*
//! the ALUs were built around a borrow of the caller's injector (PR 21).
//! Two consecutive classifications share one seeded `BerInjector`; each
//! digest covers class, confidence bits, the `GuaranteeReport` and the
//! caller's `InjectorStats` afterwards — which is what holds the
//! two-stage ALU restart (operation index and cycles from 0 for the ReLU
//! stage) and the injector's stream carrying over from stage to stage and
//! call to call.
//!
//! Never refresh a constant to make a refactor pass.

use relcnn_core::{HybridCnn, HybridConfig};
use relcnn_faults::{BerInjector, FaultInjector};
use relcnn_gtsrb::{RenderParams, SignClass, SignRenderer};
use relcnn_relexec::RedundancyMode;
use relcnn_tensor::init::Rand;

/// Plain, DMR, TMR.
const GOLDEN: [u64; 3] = [
    0xb9b9_bbd8_178b_1640,
    0x59a3_3165_e311_e831,
    0x44df_a185_2666_0478,
];

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn digest(mode: RedundancyMode) -> u64 {
    let mut config = HybridConfig::tiny(21);
    config.redundancy = mode;
    config.reliable_relu = true;
    let mut hybrid = HybridCnn::untrained(&config).unwrap();
    let mut injector = BerInjector::new(0xFEED, 1e-5);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (class, seed) in [(SignClass::Stop, 3), (SignClass::Yield, 4)] {
        let image =
            SignRenderer::new(48).render(class, &RenderParams::nominal(), &mut Rand::seeded(seed));
        match hybrid.classify_under_faults(&image, &mut injector) {
            Ok(v) => {
                let g = v.guarantee();
                assert_eq!(g.mode, mode);
                for field in [
                    v.class() as u64,
                    u64::from(v.confidence().to_bits()),
                    g.ops,
                    g.detected,
                    g.recovered,
                    g.cycles,
                    u64::from(g.bucket_peak),
                ] {
                    fnv1a(&mut hash, &field.to_le_bytes());
                }
            }
            Err(err) => fnv1a(&mut hash, format!("{err:?}").as_bytes()),
        }
        let stats = injector.stats();
        for field in [stats.exposures, stats.injected, stats.masked] {
            fnv1a(&mut hash, &field.to_le_bytes());
        }
    }
    hash
}

#[test]
fn faulty_classify_matches_the_parent_commits_digests() {
    let measured = RedundancyMode::ALL.map(digest);
    assert_eq!(measured, GOLDEN, "measured: {measured:#018x?}");
}
