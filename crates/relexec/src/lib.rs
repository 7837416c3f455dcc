//! Reliable execution: the paper's core mechanics.
//!
//! This crate implements §IV of *"Hybrid Convolutional Neural Networks with
//! Reliability Guarantee"* — the qualified operators and the reliable
//! convolution kernel:
//!
//! * [`Qualified`] — every basic operation "returns a value … \[and\] a
//!   qualifier indicating whether the operation was carried out correctly";
//! * [`Alu<I, N>`](Alu) — the one qualified ALU: every operation executes
//!   on `N` replicas and `N` picks the qualifier rule, under three aliases:
//!   * [`PlainAlu`] (`N = 1`) — **Algorithm 1**: non-redundant execution,
//!     qualifier constantly `true` (baseline);
//!   * [`DmrAlu`] (`N = 2`) — **Algorithm 2**: the operation executes twice
//!     and the qualifier asserts both results are equal;
//!   * [`TmrAlu`] (`N = 3`) — triple modular redundancy with majority vote
//!     (mentioned in §IV as the agreed-upon-by-voting variant);
//! * [`LeakyBucket`] — the error counter of **Algorithm 3**: increment by
//!   `factor` on error, check against a ceiling, decrement by one (floor
//!   zero) on every correct operation;
//! * [`reliable_conv2d`](conv::reliable_conv2d) — **Algorithm 3** itself:
//!   a convolution that assumes every operation failed unless asserted
//!   otherwise, retries failed operations once (checkpoint/rollback with a
//!   rollback distance of a single operation) and aborts on persistent
//!   failure;
//! * [`reliable_partition`](conv::reliable_partition) — the same kernel
//!   (and optionally the ReLU after it) for a [`RedundancyMode`] known only
//!   at run time: the one place a mode becomes an ALU type;
//! * [`ConvPlan`](conv::ConvPlan) — what the partition executes: the one
//!   count of its qualified operations, and their best- and worst-case
//!   cycles under the [`cost`] model's prices.
//!
//! Faults enter through the caller's [`relcnn_faults::FaultInjector`],
//! which an ALU borrows (`Alu::new(&mut injector)`): the injector's fault
//! stream and counters advance in place and stand where execution stopped,
//! also on an abort. With [`relcnn_faults::NoFaults`] the operators run
//! fault-free, which is how Table 1 is measured, through
//! `reliable_partition` like every classification.
//!
//! # Example
//!
//! ```rust
//! use relcnn_relexec::{DmrAlu, QualifiedAlu};
//! use relcnn_faults::{FaultInjector, NoFaults};
//!
//! let mut injector = NoFaults::new();
//! let mut alu = DmrAlu::new(&mut injector);
//! let q = alu.mul(3.0, 4.0);
//! assert!(q.is_ok());
//! assert_eq!(q.value(), 12.0);
//! // One exposure per replica, counted on the caller's injector.
//! assert_eq!(injector.stats().exposures, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conv;
pub mod cost;

mod alu;
mod bucket;
mod error;
mod policy;
mod qualified;

pub use alu::{Alu, DmrAlu, PlainAlu, QualifiedAlu, TmrAlu};
pub use bucket::{BucketConfig, BucketState, LeakyBucket};
pub use error::ExecError;
pub use policy::{RedundancyMode, RetryPolicy};
pub use qualified::Qualified;

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, ExecError>;
