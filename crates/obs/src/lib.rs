//! Live metrics plane: lock-light registry, Prometheus text exposition,
//! and a vendored scrape endpoint.
//!
//! The crate is pure std (per the workspace's no-crates.io vendor
//! policy) and deliberately one-directional: *writers* hold cheap
//! `Arc`-backed handles ([`Counter`] / [`Gauge`] / [`Histogram`]) and
//! perform relaxed atomic adds — nothing else — so publication can sit
//! on the engine's deterministic hot path without perturbing it;
//! *readers* snapshot the registry and encode the frozen copy. The
//! result-path/observability split is proven end to end by the CI
//! determinism matrix, which byte-diffs campaign artefacts with metrics
//! enabled against disabled.
//!
//! ```text
//!  writers (hot path)                reader (scrape path)
//!  ──────────────────                ────────────────────
//!  Counter::add ──┐
//!  Gauge::set   ──┼─ relaxed atomics ──► Registry::snapshot ─► encode
//!  Histogram::record ┘                     (brief lock, copy)   (no lock)
//!                                              │
//!                              ScrapeServer GET /metrics
//!                              Registry::render → text page
//! ```
//!
//! Histograms share `relcnn-runtime`'s log-linear bucket layout, so
//! `LatencyHistogram`s export natively as cumulative Prometheus
//! `_bucket`/`_sum`/`_count` series via [`Histogram::merge_dense`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encode;
pub mod http;
pub mod metric;
pub mod parse;
pub mod registry;
pub mod trace;

pub use http::{scrape_once, ScrapeServer};
pub use metric::{Counter, Gauge, Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use registry::{FamilySnapshot, MetricKind, Registry, SeriesSnapshot, Snapshot, ValueSnapshot};
pub use trace::{TraceRecorder, TraceRing, TraceSnapshot};
