//! Model checkpointing: save/load a network's parameter state to disk.
//!
//! A checkpoint persists a trained network and restores it into a
//! structurally matching one. (No experiment reads one: each trained
//! experiment retrains from its seeds.) Format: a JSON manifest line
//! (layer names, tensor count) followed by the raw `RCNT` tensor records
//! of `relcnn-tensor::serial`. The loader takes untrusted bytes: every
//! malformed checkpoint is an [`NnError::Checkpoint`], and it reserves no
//! more than the checkpoint's own bytes justify.

use crate::error::NnError;
use crate::network::Network;
use bytes::{Buf, BufMut, BytesMut};
use relcnn_tensor::serial::{from_bytes, to_bytes};
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::Path;

#[derive(Debug, Serialize, Deserialize)]
struct Manifest {
    format: String,
    layer_names: Vec<String>,
    tensor_count: usize,
}

const FORMAT: &str = "relcnn-checkpoint-v1";

/// Serialises the network's parameters into a byte buffer.
pub fn to_checkpoint_bytes(net: &mut Network) -> Vec<u8> {
    let state = net.state();
    let manifest = Manifest {
        format: FORMAT.to_string(),
        layer_names: net.layer_names().iter().map(|s| s.to_string()).collect(),
        tensor_count: state.len(),
    };
    let manifest_json = serde_json::to_vec(&manifest).expect("manifest serialises");
    let mut buf = BytesMut::new();
    buf.put_u64_le(manifest_json.len() as u64);
    buf.put_slice(&manifest_json);
    for t in &state {
        buf.put_slice(&to_bytes(t));
    }
    buf.to_vec()
}

/// Restores parameters from a checkpoint buffer into a structurally
/// matching network.
///
/// # Errors
///
/// Returns [`NnError::Checkpoint`] for every malformed buffer (a
/// truncated or unparsable manifest, a tensor count the bytes cannot
/// hold, a corrupt tensor record, overflowing dimensions included, bytes
/// after the last record) and for structural mismatches (different layers
/// or tensor shapes).
pub fn load_checkpoint_bytes(net: &mut Network, bytes: &[u8]) -> Result<(), NnError> {
    let mut buf = bytes;
    if buf.remaining() < 8 {
        return Err(NnError::Checkpoint {
            reason: "truncated manifest header".into(),
        });
    }
    let manifest_len = buf.get_u64_le() as usize;
    if buf.remaining() < manifest_len {
        return Err(NnError::Checkpoint {
            reason: "truncated manifest".into(),
        });
    }
    let manifest: Manifest =
        serde_json::from_slice(&buf[..manifest_len]).map_err(|e| NnError::Checkpoint {
            reason: format!("manifest parse: {e}"),
        })?;
    buf.advance(manifest_len);
    if manifest.format != FORMAT {
        return Err(NnError::Checkpoint {
            reason: format!("unknown format {:?}", manifest.format),
        });
    }
    let names: Vec<String> = net.layer_names().iter().map(|s| s.to_string()).collect();
    if manifest.layer_names != names {
        return Err(NnError::Checkpoint {
            reason: format!(
                "layer mismatch: checkpoint {:?} vs network {:?}",
                manifest.layer_names, names
            ),
        });
    }
    // The count is the file's claim: reserve no more records than the
    // remaining bytes can hold (a record is at least an 8-byte header).
    let mut state = Vec::with_capacity(manifest.tensor_count.min(buf.remaining() / 8));
    for i in 0..manifest.tensor_count {
        let t = from_bytes(&mut buf).map_err(|e| NnError::Checkpoint {
            reason: format!("tensor {i}: {e}"),
        })?;
        state.push(t);
    }
    if buf.has_remaining() {
        return Err(NnError::Checkpoint {
            reason: format!("{} bytes after the last tensor record", buf.remaining()),
        });
    }
    net.load_state(&state)
}

/// Saves a checkpoint to a file.
///
/// # Errors
///
/// Returns [`NnError::Checkpoint`] on I/O failure.
pub fn save(net: &mut Network, path: impl AsRef<Path>) -> Result<(), NnError> {
    fs::write(path.as_ref(), to_checkpoint_bytes(net)).map_err(|e| NnError::Checkpoint {
        reason: format!("write {}: {e}", path.as_ref().display()),
    })
}

/// Loads a checkpoint from a file into a structurally matching network.
///
/// # Errors
///
/// Returns [`NnError::Checkpoint`] on I/O failure, on every malformed
/// checkpoint (as [`load_checkpoint_bytes`]) and on structural mismatch.
pub fn load(net: &mut Network, path: impl AsRef<Path>) -> Result<(), NnError> {
    let bytes = fs::read(path.as_ref()).map_err(|e| NnError::Checkpoint {
        reason: format!("read {}: {e}", path.as_ref().display()),
    })?;
    load_checkpoint_bytes(net, &bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alexnet::tiny_cnn;
    use crate::layers::Mode;
    use relcnn_tensor::init::Rand;
    use relcnn_tensor::{Shape, Tensor};

    #[test]
    fn roundtrip_preserves_behaviour() {
        let mut rng = Rand::seeded(1);
        let mut net = tiny_cnn(4, 16, &mut rng).unwrap();
        let bytes = to_checkpoint_bytes(&mut net);

        let mut other = tiny_cnn(4, 16, &mut Rand::seeded(999)).unwrap();
        load_checkpoint_bytes(&mut other, &bytes).unwrap();

        let x = rng.tensor(
            Shape::d3(3, 16, 16),
            relcnn_tensor::init::Init::Uniform { lo: 0.0, hi: 1.0 },
        );
        let y1 = net.forward(&x, Mode::Eval).unwrap();
        let y2 = other.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y1, y2);
    }

    #[test]
    fn rejects_structural_mismatch() {
        let mut rng = Rand::seeded(2);
        let mut net = tiny_cnn(4, 16, &mut rng).unwrap();
        let bytes = to_checkpoint_bytes(&mut net);
        let mut different = tiny_cnn(5, 16, &mut rng).unwrap();
        assert!(matches!(
            load_checkpoint_bytes(&mut different, &bytes),
            Err(NnError::Checkpoint { .. })
        ));
    }

    #[test]
    fn rejects_corruption() {
        let mut rng = Rand::seeded(3);
        let mut net = tiny_cnn(4, 16, &mut rng).unwrap();
        let bytes = to_checkpoint_bytes(&mut net);
        // Truncations at various points.
        for cut in [0usize, 4, 12, bytes.len() / 2] {
            assert!(load_checkpoint_bytes(&mut net, &bytes[..cut]).is_err());
        }
        // Corrupted manifest.
        let mut bad = bytes.clone();
        bad[9] = b'X';
        assert!(load_checkpoint_bytes(&mut net, &bad).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("relcnn_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.ckpt");
        let mut rng = Rand::seeded(4);
        let mut net = tiny_cnn(3, 16, &mut rng).unwrap();
        save(&mut net, &path).unwrap();
        let mut other = tiny_cnn(3, 16, &mut Rand::seeded(5)).unwrap();
        load(&mut other, &path).unwrap();
        let x = Tensor::zeros(Shape::d3(3, 16, 16));
        assert_eq!(
            net.forward(&x, Mode::Eval).unwrap(),
            other.forward(&x, Mode::Eval).unwrap()
        );
        std::fs::remove_file(&path).ok();
        assert!(load(&mut other, dir.join("missing.ckpt")).is_err());
    }
}
