//! Synthetic GTSRB-like traffic-sign dataset.
//!
//! The paper trains AlexNet on the German Traffic Sign Recognition
//! Benchmark (GTSRB, \[50\]) and uses a slightly angled stop sign from it
//! for Figure 3. Real GTSRB photographs are not redistributable here, so
//! this crate provides the documented substitution (README, *Workspace
//! layout*): a **procedural renderer** that draws the geometry the experiments
//! actually depend on — signs whose *shape* (octagon, circle, triangle,
//! diamond, square) is recoverable by deterministic edge analysis —
//! under seeded pose, lighting, clutter and noise variation.
//!
//! Eight classes stand in for GTSRB's 43; class 0 is the stop sign
//! (octagon) whose recognition the hybrid CNN must qualify, and the class
//! catalogue records which classes are safety-critical (a parking sign is
//! not — the paper's own example of an unqualified class).
//!
//! # Example
//!
//! ```rust
//! use relcnn_gtsrb::{DatasetConfig, SignClass, SyntheticGtsrb};
//!
//! # fn main() -> Result<(), relcnn_gtsrb::GtsrbError> {
//! let data = SyntheticGtsrb::generate(&DatasetConfig::tiny(7))?;
//! assert!(!data.train().is_empty());
//! let stop_samples = data.train().iter()
//!     .filter(|s| s.label == SignClass::Stop)
//!     .count();
//! assert!(stop_samples > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod render;

mod classes;
mod dataset;
mod error;

pub use classes::{ShapeKind, SignClass};
pub use dataset::{DatasetConfig, Sample, SyntheticGtsrb};
pub use error::GtsrbError;
pub use render::{RenderParams, SignRenderer};

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, GtsrbError>;
