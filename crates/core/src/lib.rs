//! The hybrid CNN with reliability guarantee — the paper's contribution.
//!
//! This crate composes every substrate into the architecture of Figures 1
//! and 2:
//!
//! * a CNN (`relcnn-nn`) whose first convolution layer carries pinned
//!   Sobel filters (§III-B's pre-initialisation workflow);
//! * reliable execution of the DCNN partition via qualified operations
//!   with per-operation rollback (`relcnn-relexec`, Algorithms 1–3);
//! * a deterministic [`ShapeQualifier`] (Sobel edges → centroid-to-edge
//!   radial signature → SAX word, `relcnn-vision` + `relcnn-sax`);
//! * result fusion: safety-critical classifications are only *reliable*
//!   when the qualifier confirms the expected shape; non-critical classes
//!   (the paper's "parking prohibition") pass through unqualified;
//! * an analytic [`guarantee`] model bounding the probability that a
//!   corrupted value silently escapes each redundancy mode, validated
//!   against fault-injection campaigns.
//!
//! The paper's §III-B experiments that run on this network (Figure 3's
//! SAX series, Figure 4's per-filter Sobel sweep, the confusion
//! comparison and the frozen-filter pre-training) live in
//! `relcnn_bench::experiments`, not here.
//!
//! # Example
//!
//! ```rust
//! use relcnn_core::{HybridCnn, HybridConfig};
//! use relcnn_gtsrb::{DatasetConfig, SyntheticGtsrb};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data = SyntheticGtsrb::generate(&DatasetConfig::tiny(7))?;
//! let mut hybrid = HybridCnn::untrained(&HybridConfig::tiny(42))?;
//! let verdict = hybrid.classify(&data.train()[0].image)?;
//! println!(
//!     "class {} confidence {:.2} qualified={}",
//!     verdict.class(),
//!     verdict.confidence(),
//!     verdict.is_qualified()
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod guarantee;
pub mod manifest;

mod error;
mod hybrid;
mod qualifier;

pub use error::HybridError;
pub use hybrid::{HybridCnn, HybridConfig, QualificationMode, QualifiedClassification};
pub use qualifier::{QualifierConfig, QualifierVerdict, ShapeQualifier};

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, HybridError>;
