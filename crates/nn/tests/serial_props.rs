//! Property tests of the two checkpoint decoders against hostile bytes:
//! `relcnn_tensor::serial::from_bytes` (one `RCNT` tensor record) and
//! `relcnn_nn::serial::load_checkpoint_bytes` (a JSON manifest and its
//! records).
//!
//! A checkpoint file is untrusted input. For arbitrary bytes, and for
//! every strict prefix and every single-byte mutation of a valid image,
//! both decoders must return `Ok` or `Err` and never panic; a decoded
//! tensor's data length must equal its shape's volume; a checkpoint with
//! any bytes after its last record must be an `Err`; and no call may
//! request a heap block larger than its input justifies. Generated
//! tensors and checkpoints must round-trip bit for bit.

use proptest::prelude::*;
use relcnn_nn::alexnet::tiny_cnn;
use relcnn_nn::serial::{load_checkpoint_bytes, to_checkpoint_bytes};
use relcnn_nn::{Dense, Network, NnError, ReLU};
use relcnn_tensor::init::Rand;
use relcnn_tensor::serial::{from_bytes, to_bytes};
use relcnn_tensor::{Shape, Tensor, TensorError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// The largest block this thread requested since the last reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: allocations during the thread's teardown go unrecorded.
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

/// System allocator that records each thread's largest request.
struct LargestRequest;

// SAFETY: defers entirely to `System`; the record is a thread-local cell
// without a destructor.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: LargestRequest = LargestRequest;

/// Runs `decode` on `bytes` and fails when it requested a block larger
/// than a small multiple of the input: the decoded values, the parsed
/// manifest and an error message are all bounded by it.
fn within_budget<T>(bytes: &[u8], decode: impl FnOnce(&[u8]) -> T) -> Result<T, TestCaseError> {
    LARGEST.with(|c| c.set(0));
    let out = decode(bytes);
    let largest = LARGEST.with(|c| c.replace(0));
    let budget = 16 * bytes.len() + 4096;
    prop_assert!(
        largest <= budget,
        "{}-byte input requested a {largest}-byte block",
        bytes.len()
    );
    Ok(out)
}

/// Decodes one tensor record, checking the allocation budget and that an
/// `Ok` tensor's data matches its shape.
fn decode_tensor(bytes: &[u8]) -> Result<Result<Tensor, TensorError>, TestCaseError> {
    let decoded = within_budget(bytes, |b| from_bytes(&mut &b[..]))?;
    if let Ok(t) = &decoded {
        prop_assert_eq!(
            Some(t.len()),
            t.shape()
                .dims()
                .iter()
                .try_fold(1usize, |v, &d| v.checked_mul(d))
        );
    }
    Ok(decoded)
}

/// Loads a checkpoint into `net`, checking the allocation budget.
fn decode_checkpoint(
    net: &mut Network,
    bytes: &[u8],
) -> Result<Result<(), NnError>, TestCaseError> {
    within_budget(bytes, |b| load_checkpoint_bytes(net, b))
}

/// A dense network: `inputs` → `hidden` → ReLU → `outputs`.
fn small_net(inputs: usize, hidden: usize, outputs: usize, seed: u64) -> Network {
    let mut rng = Rand::seeded(seed);
    let mut net = Network::new();
    net.push(Dense::new(inputs, hidden, &mut rng));
    net.push(ReLU::new());
    net.push(Dense::new(hidden, outputs, &mut rng));
    net
}

fn bits(state: &[Tensor]) -> Vec<(Vec<usize>, Vec<u32>)> {
    (state.iter())
        .map(|t| {
            (
                t.shape().dims().to_vec(),
                t.iter().map(|v| v.to_bits()).collect(),
            )
        })
        .collect()
}

/// Up to rank 4, dimensions up to 4, and any bit pattern as a value
/// (NaNs, infinities and subnormals included).
fn tensors() -> impl Strategy<Value = Tensor> {
    (
        collection::vec(0usize..5, 0..5),
        collection::vec(any::<u32>(), 256),
    )
        .prop_map(|(dims, raw)| {
            let shape = Shape::new(dims);
            let data = (0..shape.volume())
                .map(|i| f32::from_bits(raw[i]))
                .collect();
            Tensor::from_vec(shape, data).expect("volume-sized data")
        })
}

/// Layer widths and an initialisation seed of a [`small_net`].
fn nets() -> impl Strategy<Value = (usize, usize, usize, u64)> {
    (1usize..5, 1usize..5, 1usize..5, any::<u64>())
}

/// A record header: the `RCNT` magic and format version 1.
const HEADER: [u8; 6] = [0x54, 0x4E, 0x43, 0x52, 1, 0];

/// The replacement bytes tried at every position: the extremes and high
/// bit of a length or dimension byte, and one per decision of the JSON
/// manifest parser. The properties add a drawn byte and a high-bit flip.
const MUTANTS: &[u8] = b"\x00\x01\x7f\x80\xff{}[]:,\"\\09-e ";

fn record(dims: &[u64], payload: &[u8]) -> Vec<u8> {
    let mut bytes = HEADER.to_vec();
    bytes.extend_from_slice(&(dims.len() as u16).to_le_bytes());
    for d in dims {
        bytes.extend_from_slice(&d.to_le_bytes());
    }
    bytes.extend_from_slice(payload);
    bytes
}

#[test]
fn dimensions_whose_volume_wraps_to_zero_are_corrupt() {
    // 2^32 × 2^32 = 2^64 wraps to 0 in an unchecked product: the shape
    // would claim 2^64 elements over an empty buffer.
    let bytes = record(&[1 << 32, 1 << 32], &[]);
    assert_eq!(bytes.len(), 24);
    let decoded = decode_tensor(&bytes).expect("within budget");
    assert!(
        matches!(decoded, Err(TensorError::Corrupt { .. })),
        "{decoded:?}"
    );
}

#[test]
fn dimensions_whose_byte_count_overflows_are_corrupt() {
    // 2^62 × 2 = 2^63 elements fit a usize, their 2^65 bytes do not.
    let bytes = record(&[1 << 62, 2], &[0; 16]);
    let decoded = decode_tensor(&bytes).expect("within budget");
    assert!(
        matches!(decoded, Err(TensorError::Corrupt { .. })),
        "{decoded:?}"
    );
}

#[test]
fn a_tensor_count_the_bytes_cannot_hold_is_an_error() {
    let mut net = small_net(2, 3, 2, 1);
    let manifest = format!(
        r#"{{"format":"relcnn-checkpoint-v1","layer_names":{:?},"tensor_count":{}}}"#,
        net.layer_names(),
        1u64 << 60
    );
    let mut bytes = (manifest.len() as u64).to_le_bytes().to_vec();
    bytes.extend_from_slice(manifest.as_bytes());
    bytes.resize(bytes.len() + 12, 0);
    let loaded = decode_checkpoint(&mut net, &bytes).expect("within budget");
    assert!(
        matches!(loaded, Err(NnError::Checkpoint { .. })),
        "{loaded:?}"
    );
}

#[test]
fn a_checkpoint_with_trailing_text_is_an_error() {
    let mut net = tiny_cnn(4, 16, &mut Rand::seeded(1)).expect("tiny_cnn");
    let mut bytes = to_checkpoint_bytes(&mut net);
    let text = b"# appended by a careless copy";
    assert_eq!(text.len(), 29);
    bytes.extend_from_slice(text);
    let loaded = decode_checkpoint(&mut net, &bytes).expect("within budget");
    assert!(
        matches!(loaded, Err(NnError::Checkpoint { .. })),
        "{loaded:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_tensors_roundtrip(t in tensors()) {
        let bytes = to_bytes(&t);
        let back = decode_tensor(&bytes)?.map_err(TestCaseError::fail)?;
        prop_assert_eq!(bits(&[back]), bits(&[t]));
    }

    #[test]
    fn generated_checkpoints_roundtrip((i, h, o, seed) in nets()) {
        let mut net = small_net(i, h, o, seed);
        let bytes = to_checkpoint_bytes(&mut net);
        let mut other = small_net(i, h, o, seed ^ 1);
        decode_checkpoint(&mut other, &bytes)?.map_err(TestCaseError::fail)?;
        prop_assert_eq!(bits(&other.state()), bits(&net.state()));
    }

    #[test]
    fn arbitrary_bytes_never_panic(
        raw in collection::vec(any::<u8>(), 0..600),
        dims in collection::vec(any::<u64>(), 0..4),
    ) {
        // Returning at all is the property: the results are irrelevant.
        let mut net = small_net(2, 3, 2, 1);
        let mut manifest = to_checkpoint_bytes(&mut net);
        manifest.truncate(8 + u64::from_le_bytes(manifest[..8].try_into().unwrap()) as usize);
        for bytes in [raw.clone(), record(&dims, &raw), [&manifest[..], &raw].concat()] {
            let _ = decode_tensor(&bytes)?;
            let _ = decode_checkpoint(&mut net, &bytes)?;
        }
    }

    #[test]
    fn any_non_empty_suffix_is_rejected(
        (i, h, o, seed) in nets(),
        suffix in collection::vec(any::<u8>(), 1..64),
    ) {
        let mut net = small_net(i, h, o, seed);
        let bytes = [to_checkpoint_bytes(&mut net), suffix].concat();
        let mut other = small_net(i, h, o, seed ^ 1);
        let before = bits(&other.state());
        prop_assert!(decode_checkpoint(&mut other, &bytes)?.is_err());
        prop_assert_eq!(bits(&other.state()), before, "a rejected checkpoint loaded");
    }

    #[test]
    fn every_strict_prefix_is_an_error(t in tensors(), (i, h, o, seed) in nets()) {
        let tensor = to_bytes(&t);
        for keep in 0..tensor.len() {
            prop_assert!(decode_tensor(&tensor[..keep])?.is_err(), "{keep}-byte prefix decoded");
        }
        let mut net = small_net(i, h, o, seed);
        let checkpoint = to_checkpoint_bytes(&mut net);
        for keep in 0..checkpoint.len() {
            prop_assert!(
                decode_checkpoint(&mut net, &checkpoint[..keep])?.is_err(),
                "{keep}-byte checkpoint prefix loaded"
            );
        }
    }
}

proptest! {
    // Each case decodes two images at every position × 20 replacements.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_single_byte_mutation_never_panics(
        t in tensors(),
        (i, h, o, seed) in nets(),
        extra in any::<u8>(),
    ) {
        let tensor = to_bytes(&t);
        let mut net = small_net(i, h, o, seed);
        let checkpoint = to_checkpoint_bytes(&mut net);
        for (image, is_tensor) in [(&tensor[..], true), (&checkpoint[..], false)] {
            for pos in 0..image.len() {
                for b in MUTANTS.iter().copied().chain([extra, image[pos] ^ 0x80]) {
                    let mut bad = image.to_vec();
                    bad[pos] = b;
                    if is_tensor {
                        let _ = decode_tensor(&bad)?;
                    } else {
                        let _ = decode_checkpoint(&mut net, &bad)?;
                    }
                }
            }
        }
    }
}
