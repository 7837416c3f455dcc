//! Reusable per-worker scratch arenas for the zero-allocation inference
//! path.
//!
//! The training path allocates freely — every `forward` runs the layer's
//! `infer` on temporaries and returns a fresh [`Tensor`] — but
//! steady-state inference runs the same geometry over and
//! over, so all of its buffers can be sized once and recycled. A
//! [`ScratchBuf`] is a growable flat `f32` buffer with explicit dims; an
//! [`InferScratch`] bundles the three buffers one forward pass needs:
//!
//! * **ping/pong** — activation buffers. Each layer reads the *front*
//!   buffer and writes the *back* buffer; the arena swaps them between
//!   layers, so the whole network runs in two buffers regardless of depth.
//! * **cols** — the im2col lowering buffer shared by every convolution.
//!
//! Buffers only ever grow (`grow_events` counts how often), so after a
//! warmup pass through the largest geometry, inference performs **zero
//! heap allocations per image** — pinned by the `zero_alloc` integration
//! test with a counting global allocator.
//!
//! The model itself is immutable during inference, so workers share one
//! network by reference and each owns only an arena. Cloning an
//! [`InferScratch`] yields a *fresh, empty* arena (a cloned model handle
//! must not copy another handle's buffers); it re-warms on its first
//! image.

use crate::error::NnError;
use relcnn_tensor::{Shape, Tensor};

/// Maximum tensor rank a scratch buffer can describe.
pub const MAX_SCRATCH_RANK: usize = 4;

/// A growable flat buffer with explicit dimensions — a [`Tensor`] without
/// the allocation-per-op lifecycle.
#[derive(Debug, Default)]
pub struct ScratchBuf {
    data: Vec<f32>,
    dims: [usize; MAX_SCRATCH_RANK],
    rank: usize,
    grows: u64,
}

impl ScratchBuf {
    /// Creates an empty buffer (rank 0, no backing storage).
    pub fn new() -> Self {
        ScratchBuf::default()
    }

    /// Sets the logical dims, growing the backing storage if (and only
    /// if) the new volume exceeds what has ever been requested. Shrinking
    /// dims never releases memory — that is the whole point.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] for rank 0 or rank >
    /// [`MAX_SCRATCH_RANK`].
    pub fn set_dims(&mut self, dims: &[usize]) -> Result<(), NnError> {
        if dims.is_empty() || dims.len() > MAX_SCRATCH_RANK {
            return Err(NnError::BadInput {
                layer: "scratch",
                reason: format!("unsupported scratch rank {}", dims.len()),
            });
        }
        let volume: usize = dims.iter().product();
        if volume > self.data.len() {
            self.data.resize(volume, 0.0);
            self.grows += 1;
        }
        self.dims[..dims.len()].copy_from_slice(dims);
        self.rank = dims.len();
        Ok(())
    }

    /// The current logical dims.
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank]
    }

    /// Product of the current dims (0 for a never-sized buffer).
    pub fn volume(&self) -> usize {
        if self.rank == 0 {
            0
        } else {
            self.dims().iter().product()
        }
    }

    /// The live elements (the first `volume()` of the backing storage).
    pub fn as_slice(&self) -> &[f32] {
        &self.data[..self.volume()]
    }

    /// Mutable view of the live elements.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        let volume = self.volume();
        &mut self.data[..volume]
    }

    /// How many times the backing storage has grown — stable after
    /// warmup, which is what the zero-allocation test asserts.
    pub fn grow_events(&self) -> u64 {
        self.grows
    }

    /// Copies a tensor's shape and contents in.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] for unsupported ranks.
    pub fn copy_from_tensor(&mut self, t: &Tensor) -> Result<(), NnError> {
        self.set_dims(t.shape().dims())?;
        self.as_mut_slice().copy_from_slice(t.as_slice());
        Ok(())
    }

    /// Converts the live contents into an owned [`Tensor`], reusing the
    /// backing storage — how [`Layer::forward`] hands its temporaries
    /// back to tensor-land.
    ///
    /// [`Layer::forward`]: crate::Layer::forward
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] if the buffer was never sized.
    pub fn into_tensor(mut self) -> Result<Tensor, NnError> {
        if self.rank == 0 {
            return Err(NnError::BadInput {
                layer: "scratch",
                reason: "scratch buffer has no dims".into(),
            });
        }
        self.data.truncate(self.volume());
        Ok(Tensor::from_vec(
            Shape::new(self.dims().to_vec()),
            self.data,
        )?)
    }
}

/// The per-worker inference arena: two activation buffers run the whole
/// network ping-pong style, plus one im2col buffer shared by every
/// convolution layer.
#[derive(Debug, Default)]
pub struct InferScratch {
    ping: ScratchBuf,
    pong: ScratchBuf,
    cols: ScratchBuf,
    front_is_ping: bool,
}

impl Clone for InferScratch {
    /// A cloned arena starts fresh: scratch memory is per-owner by
    /// construction, so the clone re-warms on its first image instead of
    /// copying another owner's buffers.
    fn clone(&self) -> Self {
        InferScratch::default()
    }
}

impl InferScratch {
    /// Creates an empty arena.
    pub fn new() -> Self {
        InferScratch::default()
    }

    /// Loads the network input into the front buffer, resetting the
    /// ping-pong orientation.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] for unsupported input ranks.
    pub fn load_input(&mut self, input: &Tensor) -> Result<(), NnError> {
        self.front_is_ping = true;
        self.ping.copy_from_tensor(input)
    }

    /// Splits the arena into `(front, back, cols)` for one layer step:
    /// the layer reads `front`, writes `back`, and may use `cols` as
    /// lowering scratch.
    pub fn frames(&mut self) -> (&ScratchBuf, &mut ScratchBuf, &mut ScratchBuf) {
        if self.front_is_ping {
            (&self.ping, &mut self.pong, &mut self.cols)
        } else {
            (&self.pong, &mut self.ping, &mut self.cols)
        }
    }

    /// Makes the buffer just written the new front.
    pub fn swap(&mut self) {
        self.front_is_ping = !self.front_is_ping;
    }

    /// The front buffer — after a full forward pass, the network output.
    pub fn front(&self) -> &ScratchBuf {
        if self.front_is_ping {
            &self.ping
        } else {
            &self.pong
        }
    }

    /// Applies softmax to the front buffer in place and returns the
    /// resulting probabilities — bit-identical to
    /// [`softmax`](crate::loss::softmax) of the same logits.
    pub fn softmax_front(&mut self) -> &[f32] {
        let front = if self.front_is_ping {
            &mut self.ping
        } else {
            &mut self.pong
        };
        crate::loss::softmax_in_place(front.as_mut_slice());
        front.as_slice()
    }

    /// Total grow events across all buffers — stable once warmed up.
    pub fn grow_events(&self) -> u64 {
        self.ping.grow_events() + self.pong.grow_events() + self.cols.grow_events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_buf_grows_monotonically() {
        let mut buf = ScratchBuf::new();
        assert_eq!(buf.volume(), 0);
        buf.set_dims(&[2, 3]).unwrap();
        assert_eq!(buf.grow_events(), 1);
        assert_eq!(buf.dims(), &[2, 3]);
        assert_eq!(buf.as_slice().len(), 6);
        // Shrinking keeps the storage; regrowing within it is free.
        buf.set_dims(&[4]).unwrap();
        assert_eq!(buf.grow_events(), 1);
        assert_eq!(buf.volume(), 4);
        buf.set_dims(&[2, 3]).unwrap();
        assert_eq!(buf.grow_events(), 1);
        // Growing past the high-water mark counts.
        buf.set_dims(&[2, 3, 4]).unwrap();
        assert_eq!(buf.grow_events(), 2);
    }

    #[test]
    fn scratch_buf_rejects_bad_ranks() {
        let mut buf = ScratchBuf::new();
        assert!(buf.set_dims(&[]).is_err());
        assert!(buf.set_dims(&[1, 1, 1, 1, 1]).is_err());
        assert!(buf.into_tensor().is_err());
    }

    #[test]
    fn tensor_roundtrip_preserves_bits() {
        let t = Tensor::from_vec(
            Shape::d2(2, 2),
            vec![1.5, f32::NAN, f32::NEG_INFINITY, -0.0],
        )
        .unwrap();
        let mut buf = ScratchBuf::new();
        buf.copy_from_tensor(&t).unwrap();
        let back = buf.into_tensor().unwrap();
        assert_eq!(back.shape(), t.shape());
        for (a, b) in back.iter().zip(t.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn ping_pong_swaps_and_clone_is_fresh() {
        let mut arena = InferScratch::new();
        let t = Tensor::from_vec(Shape::d1(3), vec![1.0, 2.0, 3.0]).unwrap();
        arena.load_input(&t).unwrap();
        assert_eq!(arena.front().as_slice(), &[1.0, 2.0, 3.0]);
        {
            let (front, back, _cols) = arena.frames();
            back.set_dims(front.dims()).unwrap();
            for (o, &v) in back.as_mut_slice().iter_mut().zip(front.as_slice()) {
                *o = v * 2.0;
            }
        }
        arena.swap();
        assert_eq!(arena.front().as_slice(), &[2.0, 4.0, 6.0]);
        assert!(arena.grow_events() > 0);
        let fresh = arena.clone();
        assert_eq!(fresh.grow_events(), 0, "clone starts empty");
        assert_eq!(fresh.front().volume(), 0);
    }

    #[test]
    fn softmax_front_matches_loss_softmax() {
        let logits = Tensor::from_vec(Shape::d1(4), vec![0.5, -1.25, 3.0, 0.5]).unwrap();
        let oracle = crate::loss::softmax(&logits);
        let mut arena = InferScratch::new();
        arena.load_input(&logits).unwrap();
        let probs = arena.softmax_front();
        for (a, b) in probs.iter().zip(oracle.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
