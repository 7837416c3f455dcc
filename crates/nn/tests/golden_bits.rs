//! Golden bit digests recorded at the commit *before* the allocating
//! `Mode::Eval` forward was retired (PR 12). Every byte-diffed artefact
//! hangs off these bits, and since PR 12 the training forward runs the
//! same blocked kernels as inference — so a drift in either shows up here
//! as a changed constant, not as a silently different model.
//!
//! Never refresh a constant to make a refactor pass: a changed digest
//! means the arithmetic changed.

use relcnn_nn::train::{train, TrainConfig};
use relcnn_nn::{
    alexnet, Conv2d, Dense, Dropout, Flatten, InferScratch, LocalResponseNorm, MaxPool2d, Mode,
    Network, ReLU, SgdConfig,
};
use relcnn_tensor::init::{Init, Rand};
use relcnn_tensor::{Shape, Tensor};

const TINY_CNN_LOGITS: u64 = 0x4913_4c2f_f44c_e512;
const ALEXNET_GTSRB_LOGITS: u64 = 0xd3c8_ee86_18dd_5a11;
const ALL_LAYERS_TRAINED_PARAMS: u64 = 0x0f06_0bb0_180e_9da9;

/// FNV-1a over the little-endian bytes of each value's bit pattern.
fn fnv1a(values: impl IntoIterator<Item = f32>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Digest of the logits on three seeded inputs, taken through the
/// allocating `forward(.., Eval)` and the scratch path (which must agree).
fn logits_digest(net: &mut Network, size: usize) -> u64 {
    let mut arena = InferScratch::new();
    let mut eval = Vec::new();
    let mut scratch = Vec::new();
    for seed in [1u64, 2, 3] {
        let img = Rand::seeded(seed).tensor(
            Shape::d3(3, size, size),
            Init::Uniform { lo: -1.0, hi: 1.0 },
        );
        eval.extend(net.forward(&img, Mode::Eval).unwrap().iter().copied());
        net.forward_scratch(&img, &mut arena).unwrap();
        scratch.extend_from_slice(arena.front().as_slice());
    }
    let digest = fnv1a(eval);
    assert_eq!(
        digest,
        fnv1a(scratch),
        "Eval forward and scratch path disagree"
    );
    digest
}

#[test]
fn tiny_cnn_logits_match_parent_commit() {
    let mut net = alexnet::tiny_cnn(8, 48, &mut Rand::seeded(11)).unwrap();
    let digest = logits_digest(&mut net, 48);
    assert_eq!(digest, TINY_CNN_LOGITS, "{digest:#018x}");
}

#[test]
fn alexnet_gtsrb_logits_match_parent_commit() {
    let mut net = alexnet::alexnet_gtsrb(8, 96, &mut Rand::seeded(11)).unwrap();
    let digest = logits_digest(&mut net, 96);
    assert_eq!(digest, ALEXNET_GTSRB_LOGITS, "{digest:#018x}");
}

#[test]
fn every_layer_kind_trains_to_the_parent_commits_parameters() {
    // Padded/strided conv, LRN, overlapping pool, dropout and two dense
    // layers through two epochs of SGD: pins the Train forward (including
    // the dropout draw order), every backward and the optimiser step.
    let mut rng = Rand::seeded(11);
    let mut net = Network::new();
    net.push(Conv2d::new(3, 6, 5, 2, 2, &mut rng));
    net.push(ReLU::new());
    net.push(LocalResponseNorm::alexnet());
    net.push(MaxPool2d::new(3, 2));
    net.push(Conv2d::new(6, 4, 3, 1, 0, &mut rng));
    net.push(ReLU::new());
    net.push(Flatten::new());
    net.push(Dense::new(4 * 2 * 2, 12, &mut rng));
    net.push(ReLU::new());
    net.push(Dropout::new(0.4, &mut rng));
    net.push(Dense::new(12, 3, &mut rng));
    let samples: Vec<(Tensor, usize)> = (0..12usize)
        .map(|i| {
            let img = Rand::seeded(100 + i as u64)
                .tensor(Shape::d3(3, 17, 17), Init::Uniform { lo: -1.0, hi: 1.0 });
            (img, i % 3)
        })
        .collect();
    let config = TrainConfig {
        epochs: 2,
        batch_size: 4,
        sgd: SgdConfig::alexnet(0.01),
        seed: 5,
    };
    train(&mut net, &samples, &config, &[]).unwrap();
    let digest = fnv1a(
        net.state()
            .iter()
            .flat_map(|t| t.iter().copied())
            .collect::<Vec<f32>>(),
    );
    assert_eq!(digest, ALL_LAYERS_TRAINED_PARAMS, "{digest:#018x}");
}
