//! From-scratch CNN framework: the trainable substrate of the hybrid CNN.
//!
//! The paper uses TensorFlow + AlexNet; this crate is the documented
//! substitution (README, *Workspace layout*): a small, dependency-free
//! deep-learning framework with exactly the pieces the experiments need —
//!
//! * layers: [`Conv2d`], [`ReLU`], [`MaxPool2d`], [`LocalResponseNorm`],
//!   [`Flatten`], [`Dense`], [`Dropout`] (all with exact backprop);
//! * [`Network`] — sequential composition with parameter visitation;
//! * [`alexnet::alexnet_227`] — the full AlexNet-227 architecture of the
//!   paper (96 11×11×3 stride-4 first-layer filters) and
//!   [`alexnet::alexnet_gtsrb`] — the scaled, CPU-trainable variant that
//!   keeps conv-1 *identical* (96 filters, 11×11×3, stride 4), because
//!   conv-1 is what every experiment manipulates;
//! * [`SgdConfig`]-driven training with momentum and weight decay;
//! * filter freezing/pinning (`freeze`) — the paper's §III-B
//!   pre-initialisation workflow, including measuring the drift that
//!   "freezing" still permits;
//! * metrics: accuracy and confusion matrices (compared in-text in §III-B).
//!
//! # Example
//!
//! ```rust
//! use relcnn_nn::{alexnet, Mode, Network};
//! use relcnn_tensor::{init::Rand, Shape, Tensor};
//!
//! # fn main() -> Result<(), relcnn_nn::NnError> {
//! let mut rng = Rand::seeded(0);
//! let mut net = alexnet::tiny_cnn(4, 32, &mut rng)?;
//! let image = Tensor::zeros(Shape::d3(3, 32, 32));
//! let logits = net.forward(&image, Mode::Eval)?;
//! assert_eq!(logits.len(), 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alexnet;
pub mod freeze;
pub mod metrics;
pub mod ranger;
pub mod serial;
pub mod train;

mod error;
mod layers;
pub mod loss;
mod network;
mod optim;
pub mod scratch;

pub use error::NnError;
pub use layers::{
    Conv2d, Dense, Dropout, Flatten, Forwarded, Layer, LocalResponseNorm, MaxPool2d, Mode, Param,
    ReLU,
};
pub use loss::{softmax, softmax_in_place, CrossEntropyLoss};
pub use network::Network;
pub use optim::{Sgd, SgdConfig};
pub use scratch::{InferScratch, ScratchBuf};

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, NnError>;
