//! Shared plumbing for the `relcnn` benchmark harness.
//!
//! The binaries in `src/bin/` regenerate every table and figure of the
//! paper (see the README's *Paper ↔ repo map* for the experiment index),
//! write the byte-diffed determinism artefacts, run the CI smokes, and
//! gate the committed baselines (`bench_gate`). The two benches in
//! `benches/` (`runtime_scaling`, `skewed_steal`) are plain `main`s that
//! write the scaling artefacts `bench_gate` reads. Per-image and per-layer
//! timing lives in the standalone `benchmark/` package. This library
//! holds the shared output plumbing and the canonical [`workload`]s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod workload;

use std::fs;
use std::path::PathBuf;

/// Directory where experiment binaries drop their CSV/JSON artefacts.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results");
    fs::create_dir_all(&dir).ok();
    dir.canonicalize().unwrap_or(dir)
}

/// Writes a CSV file under [`results_dir`], returning its path.
///
/// # Panics
///
/// Panics on I/O failure — experiment binaries want loud failures.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let path = results_dir().join(name);
    let mut body = String::with_capacity(rows.len() * 32 + header.len() + 1);
    body.push_str(header);
    body.push('\n');
    for r in rows {
        body.push_str(r);
        body.push('\n');
    }
    fs::write(&path, body).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    path
}

/// Renders a crude ASCII plot of a series (for Figure-3-style terminal
/// output).
pub fn ascii_plot(series: &[f32], width: usize, height: usize) -> String {
    if series.is_empty() || height == 0 || width == 0 {
        return String::new();
    }
    let min = series.iter().cloned().fold(f32::INFINITY, f32::min);
    let max = series.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let span = (max - min).max(1e-6);
    let mut grid = vec![vec![' '; width]; height];
    for (i, &v) in series.iter().enumerate() {
        let x = i * width / series.len();
        let y = ((v - min) / span * (height as f32 - 1.0)).round() as usize;
        let row = height - 1 - y.min(height - 1);
        grid[row][x.min(width - 1)] = '*';
    }
    let mut out = String::new();
    for row in grid {
        out.push_str(&row.into_iter().collect::<String>());
        out.push('\n');
    }
    out
}

/// Formats a set of named monotonic counters as one comma-separated
/// line (`"steals 3, parks 12, ..."`). The single formatting shape for
/// every counter summary the harness prints — the gate's scheduler
/// frontier detail and its serve-side conservation line both go through
/// here, so the two read identically in CI logs.
pub fn counters_line(pairs: &[(&str, u64)]) -> String {
    pairs
        .iter()
        .map(|(name, value)| format!("{name} {value}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Default hard wall budget for the smoke binaries, in microseconds.
pub const DEFAULT_WALL_BUDGET_US: u64 = 60_000_000;

/// Hard wall budget for smoke binaries: `RELCNN_WALL_BUDGET_US`
/// (microseconds) when set, else [`DEFAULT_WALL_BUDGET_US`]. The CI
/// knob for slow or instrumented runners — a hung run trips the budget
/// panic instead of timing out the job.
///
/// # Panics
///
/// Panics when the variable is set but not a number — a silently
/// ignored budget override would defeat the point of setting one.
pub fn wall_budget_us() -> u64 {
    match std::env::var("RELCNN_WALL_BUDGET_US") {
        Ok(v) => v.parse().unwrap_or_else(|_| {
            panic!("RELCNN_WALL_BUDGET_US must be a microsecond count, got {v:?}")
        }),
        Err(_) => DEFAULT_WALL_BUDGET_US,
    }
}

/// Returns true when the binary should run at smoke scale
/// (`RELCNN_QUICK=1` or `--quick` argument).
pub fn quick_mode() -> bool {
    std::env::var("RELCNN_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
        || std::env::args().any(|a| a == "--quick")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_plot_shape() {
        let series: Vec<f32> = (0..64).map(|i| (i as f32 / 5.0).sin()).collect();
        let plot = ascii_plot(&series, 32, 8);
        assert_eq!(plot.lines().count(), 8);
        assert!(plot.contains('*'));
        assert!(ascii_plot(&[], 10, 5).is_empty());
    }

    #[test]
    fn results_dir_exists() {
        assert!(results_dir().is_dir());
    }

    #[test]
    fn counters_line_formats_name_value_pairs() {
        assert_eq!(
            counters_line(&[("steals", 3), ("splits", 0), ("parks", 12)]),
            "steals 3, splits 0, parks 12"
        );
        assert_eq!(counters_line(&[]), "");
    }
}
