//! Shared plumbing for the `relcnn` benchmark harness.
//!
//! The binaries in `src/bin/` serve three purposes: they regenerate
//! every table and figure of the paper (see the README's *Paper ↔ repo
//! map* for the experiment index), write the byte-diffed determinism
//! artefacts (`*_artifact`, each asserting its own invariants
//! in-process), and gate the committed baselines (`bench_gate`). The
//! two benches in `benches/` (`runtime_scaling`, `skewed_steal`) are
//! plain `main`s that write the scaling artefacts `bench_gate` reads.
//! Per-image and per-layer timing lives in the standalone `benchmark/`
//! package. This library holds the shared output plumbing and the
//! canonical [`workload`]s.

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
/// line (`"steals 3, send_block_us 12, ..."`). Its one caller is
/// `bench_gate`'s informational counter lines (`print_counters`).
pub fn counters_line(pairs: &[(&str, u64)]) -> String {
    pairs
        .iter()
        .map(|(name, value)| format!("{name} {value}"))
        .collect::<Vec<_>>()
        .join(", ")
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
    use relcnn_cluster::ClusterMetrics;
    use relcnn_obs::Registry;
    use relcnn_runtime::EngineMetrics;
    use relcnn_serve::ServeMetrics;
    use std::collections::BTreeSet;

    /// Expands README's `{a,b}` shorthand: `x_{a,b}_y` → `x_a_y`, `x_b_y`.
    fn expand(name: &str) -> Vec<String> {
        match (name.find('{'), name.find('}')) {
            (Some(open), Some(close)) => name[open + 1..close]
                .split(',')
                .flat_map(|alt| expand(&format!("{}{alt}{}", &name[..open], &name[close + 1..])))
                .collect(),
            _ => vec![name.to_string()],
        }
    }

    /// Adding or removing a metric family without a README row fails
    /// here: the *Metric families* table's first column, expanded, must
    /// name exactly what the three bundles register.
    #[test]
    fn readme_metric_family_table_matches_the_registered_families() {
        let registry = Registry::new();
        EngineMetrics::registered(&registry);
        ServeMetrics::registered(&registry);
        ClusterMetrics::registered(&registry);
        let registered: BTreeSet<String> =
            registry.snapshot().into_iter().map(|f| f.name).collect();

        let readme = include_str!("../../../README.md");
        let (_, table) = readme
            .split_once("Metric families (all prefixed `relcnn_`):")
            .expect("README has the metric-family table");
        let rows = table
            .lines()
            .skip_while(|l| !l.starts_with('|'))
            .take_while(|l| l.starts_with('|'))
            .skip(2); // header + separator
        let mut documented = BTreeSet::new();
        for row in rows {
            let first = row.split('|').nth(1).expect("first column");
            // Drop label notes such as "(per `class`)".
            let mut depth = 0;
            let names: String = first
                .chars()
                .filter(|&c| {
                    match c {
                        '(' => depth += 1,
                        ')' => depth -= 1,
                        _ => return depth == 0,
                    }
                    false
                })
                .collect();
            for name in names.split('`').skip(1).step_by(2) {
                documented.extend(expand(name).into_iter().map(|n| format!("relcnn_{n}")));
            }
        }
        assert_eq!(documented, registered);
    }

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
            counters_line(&[
                ("steals", 3),
                ("send_block_us", 0),
                ("max_reorder_depth", 12)
            ]),
            "steals 3, send_block_us 0, max_reorder_depth 12"
        );
        assert_eq!(counters_line(&[]), "");
    }
}
