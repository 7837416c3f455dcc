//! Golden digest of the tiny hybrid's parameters after one training
//! epoch, recorded at the commit before the training forward moved onto
//! the blocked inference kernels (PR 12). A changed constant means the
//! trained model — and with it every downstream verdict — changed.

use relcnn_core::{HybridCnn, HybridConfig};
use relcnn_gtsrb::{DatasetConfig, SyntheticGtsrb};
use relcnn_nn::train::TrainConfig;
use relcnn_nn::SgdConfig;

const TINY_HYBRID_TRAINED_PARAMS: u64 = 0x4c8d_5529_e710_15b7;

#[test]
fn tiny_hybrid_trains_to_the_parent_commits_parameters() {
    let data = SyntheticGtsrb::generate(&DatasetConfig::tiny(7)).unwrap();
    let mut hybrid = HybridCnn::untrained(&HybridConfig::tiny(7)).unwrap();
    let config = TrainConfig {
        epochs: 1,
        batch_size: 8,
        sgd: SgdConfig::alexnet(0.01),
        seed: 7,
    };
    hybrid.train_on(&data, &config).unwrap();
    // FNV-1a over the little-endian bytes of every parameter's bits.
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for tensor in hybrid.network_mut().state() {
        for v in tensor.iter() {
            for byte in v.to_bits().to_le_bytes() {
                digest ^= u64::from(byte);
                digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    assert_eq!(digest, TINY_HYBRID_TRAINED_PARAMS, "{digest:#018x}");
}
