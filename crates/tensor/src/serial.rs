//! Compact binary (de)serialisation of tensors.
//!
//! Format (little-endian):
//!
//! ```text
//! magic   u32   0x52_43_4E_54  ("RCNT")
//! version u16   1
//! rank    u16
//! dims    u64 * rank
//! data    f32 * volume
//! ```
//!
//! The records of a model checkpoint (`relcnn_nn::serial`). The decoder
//! takes untrusted bytes: every malformed record is an error value, and
//! it allocates no more than the record's own bytes justify.

use crate::{Shape, Tensor, TensorError};
use bytes::{Buf, BufMut, Bytes, BytesMut};

const MAGIC: u32 = 0x5243_4E54;
const VERSION: u16 = 1;

/// Serialises a tensor into the `RCNT` binary format.
pub fn to_bytes(tensor: &Tensor) -> Bytes {
    let mut buf = BytesMut::with_capacity(8 + tensor.shape().rank() * 8 + tensor.len() * 4);
    buf.put_u32_le(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u16_le(tensor.shape().rank() as u16);
    for &d in tensor.shape().dims() {
        buf.put_u64_le(d as u64);
    }
    for &v in tensor.iter() {
        buf.put_f32_le(v);
    }
    buf.freeze()
}

/// Deserialises a tensor from the `RCNT` binary format, consuming exactly
/// one record from the front of `buf`.
///
/// # Errors
///
/// Returns [`TensorError::Corrupt`] for every malformed record: bad magic,
/// unsupported version, a truncated stream, or dimensions whose element
/// or byte count overflows `usize`. An `Ok` tensor's data length always
/// equals its shape's volume.
pub fn from_bytes(buf: &mut impl Buf) -> Result<Tensor, TensorError> {
    if buf.remaining() < 8 {
        return Err(TensorError::Corrupt {
            reason: "truncated header".into(),
        });
    }
    let magic = buf.get_u32_le();
    if magic != MAGIC {
        return Err(TensorError::Corrupt {
            reason: format!("bad magic 0x{magic:08x}"),
        });
    }
    let version = buf.get_u16_le();
    if version != VERSION {
        return Err(TensorError::Corrupt {
            reason: format!("unsupported version {version}"),
        });
    }
    let rank = buf.get_u16_le() as usize;
    if buf.remaining() < rank * 8 {
        return Err(TensorError::Corrupt {
            reason: "truncated dimension list".into(),
        });
    }
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        let d = buf.get_u64_le();
        dims.push(usize::try_from(d).map_err(|_| TensorError::Corrupt {
            reason: format!("dimension {d} exceeds platform usize"),
        })?);
    }
    // The payload's byte count, 4 × volume, checked: a prefix of the
    // dimensions overflows here whenever it overflows in `Shape::volume`.
    let need = (dims.iter())
        .try_fold(4usize, |n, &d| n.checked_mul(d))
        .ok_or_else(|| TensorError::Corrupt {
            reason: format!("{rank} dimensions overflow the payload size"),
        })?;
    if buf.remaining() < need {
        return Err(TensorError::Corrupt {
            reason: format!(
                "payload truncated: need {need} bytes, have {}",
                buf.remaining()
            ),
        });
    }
    let data = (0..need / 4).map(|_| buf.get_f32_le()).collect();
    Tensor::from_vec(Shape::new(dims), data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various_shapes() {
        for t in [
            Tensor::scalar(3.25),
            Tensor::from_fn(Shape::d1(7), |i| i[0] as f32 - 3.0),
            Tensor::from_fn(Shape::d3(2, 3, 4), |i| {
                (i[0] + 10 * i[1] + 100 * i[2]) as f32
            }),
            Tensor::zeros(Shape::new(vec![0])),
        ] {
            let bytes = to_bytes(&t);
            let mut cursor = bytes.clone();
            let back = from_bytes(&mut cursor).unwrap();
            assert_eq!(back, t);
            assert_eq!(cursor.remaining(), 0, "record fully consumed");
        }
    }

    #[test]
    fn roundtrip_preserves_special_values() {
        let t =
            Tensor::from_vec(Shape::d1(4), vec![f32::MAX, f32::MIN_POSITIVE, -0.0, 1e-38]).unwrap();
        let mut b = to_bytes(&t);
        let back = from_bytes(&mut b).unwrap();
        for (a, x) in t.iter().zip(back.iter()) {
            assert_eq!(a.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn multiple_records_in_one_stream() {
        let a = Tensor::ones(Shape::d2(2, 2));
        let b = Tensor::full(Shape::d1(3), 9.0);
        let mut stream = BytesMut::new();
        stream.extend_from_slice(&to_bytes(&a));
        stream.extend_from_slice(&to_bytes(&b));
        let mut buf = stream.freeze();
        assert_eq!(from_bytes(&mut buf).unwrap(), a);
        assert_eq!(from_bytes(&mut buf).unwrap(), b);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = BytesMut::from(&to_bytes(&Tensor::scalar(1.0))[..]);
        bytes[0] ^= 0xFF;
        let mut buf = bytes.freeze();
        assert!(matches!(
            from_bytes(&mut buf),
            Err(TensorError::Corrupt { .. })
        ));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let full = to_bytes(&Tensor::ones(Shape::d2(3, 3)));
        for cut in [0, 4, 7, 9, 20, full.len() - 1] {
            let mut buf = full.slice(0..cut);
            assert!(
                from_bytes(&mut buf).is_err(),
                "cut at {cut} should be detected"
            );
        }
    }

    #[test]
    fn rejects_wrong_version() {
        let mut bytes = BytesMut::from(&to_bytes(&Tensor::scalar(1.0))[..]);
        bytes[4] = 0xFF;
        let mut buf = bytes.freeze();
        assert!(matches!(
            from_bytes(&mut buf),
            Err(TensorError::Corrupt { .. })
        ));
    }
}
