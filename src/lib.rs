//! # relcnn — Hybrid Convolutional Neural Networks with Reliability Guarantee
//!
//! Umbrella crate for the `relcnn` workspace, a full-system reproduction of
//! *"Hybrid Convolutional Neural Networks with Reliability Guarantee"*
//! (Doran & Veljanovska, DSN-W 2024, arXiv:2405.05146).
//!
//! The workspace implements the paper's contribution — a hybrid CNN in
//! which only the safety-relevant portion executes reliably — together with
//! every substrate it depends on:
//!
//! * [`tensor`] — dense `f32` tensors, matmul, im2col/direct convolution;
//! * [`nn`] — CNN layers, SGD training, AlexNet builders, metrics;
//! * [`faults`] — single-event-upset fault injection and campaigns;
//! * [`relexec`] — qualified operations (Algorithms 1–2), leaky-bucket error
//!   counter and the reliable convolution with per-operation
//!   checkpoint/rollback (Algorithm 3);
//! * [`sax`] — Symbolic Aggregate approXimation for time-series words;
//! * [`vision`] — Sobel edges, centroid and radial shape signatures;
//! * [`gtsrb`] — synthetic GTSRB-like traffic-sign dataset;
//! * [`core`] — the hybrid CNN itself: partitioning, shape qualifier,
//!   result fusion and the end-to-end reliability-guarantee analysis;
//! * [`runtime`] — the sharded, multi-threaded campaign & batched-inference
//!   engine every experiment binary executes on;
//! * [`serve`] — deadline-aware micro-batching inference serving on the
//!   runtime engine: seeded open-loop load generation, admission with
//!   capacity shedding, and deterministic virtual-time replay;
//! * [`obs`] — live metrics plane: lock-light Prometheus registry,
//!   text-exposition encoder and a vendored `GET /metrics` endpoint for
//!   in-flight campaign and serving introspection.
//!
//! # Quickstart
//!
//! ```rust
//! use relcnn::core::{HybridCnn, HybridConfig};
//! use relcnn::gtsrb::{DatasetConfig, SignClass, SyntheticGtsrb};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Tiny synthetic dataset and an untrained hybrid network: the point of
//! // this example is the *qualified* classification plumbing.
//! let data = SyntheticGtsrb::generate(&DatasetConfig::tiny(77))?;
//! let mut hybrid = HybridCnn::untrained(&HybridConfig::tiny(42))?;
//! let sample = &data.train()[0];
//! let verdict = hybrid.classify(&sample.image)?;
//! // Safety-critical classes are only *reliable* when the shape qualifier
//! // agrees; others pass through unqualified.
//! println!("class={:?} qualified={}", verdict.class(), verdict.is_qualified());
//! # Ok(())
//! # }
//! ```
//!
//! See the README's *Workspace layout* for the full system inventory and
//! its *Paper ↔ repo map* for where every table and figure is reproduced.

#![forbid(unsafe_code)]

pub use relcnn_core as core;
pub use relcnn_faults as faults;
pub use relcnn_gtsrb as gtsrb;
pub use relcnn_nn as nn;
pub use relcnn_obs as obs;
pub use relcnn_relexec as relexec;
pub use relcnn_runtime as runtime;
pub use relcnn_sax as sax;
pub use relcnn_serve as serve;
pub use relcnn_tensor as tensor;
pub use relcnn_vision as vision;

// README's `rust` blocks build (and the runnable ones run) as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
