//! Shared plumbing for the `relcnn` benchmark harness.
//!
//! The crate builds three binaries. `paper <experiment> [--quick]`
//! regenerates every table and figure of the paper (see the README's
//! *Paper ↔ repo map* for the experiment index). `artifact <kind> …`
//! writes the byte-diffed determinism artefacts (`determinism`,
//! `serving`, `cluster`, each asserting its own invariants in-process)
//! and the gated `serving-latency` artefact. `bench_gate` gates the
//! committed baselines. The two benches in `benches/` (`runtime_scaling`,
//! `skewed_steal`) are plain `main`s that write the scaling artefacts
//! `bench_gate` reads. Per-image and per-layer timing lives in the
//! standalone `benchmark/` package. This library holds the paper's
//! §III-B [`experiments`] (Figures 3 and 4, X1, X2) with their shared
//! dataset and training setup, the shared output plumbing, the
//! command-line parser ([`Args`]) and the canonical [`workload`]s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod workload;

use std::fs;
use std::path::PathBuf;
use std::str::FromStr;

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

/// A bench binary's command line: one subcommand and the flags it takes.
///
/// Each entry of `commands` is a subcommand's synopsis: its name, then
/// its flags, each `--flag` followed by a placeholder when it takes a
/// value (`"serving --workers N --arrival poisson|burst"`). Flags come
/// in any order and may repeat (the last value wins). No subcommand, one
/// not in the list, a flag the subcommand does not take, or a missing or
/// unparsable value prints the error, the synopses and `about`, and exits
/// with status 2.
#[derive(Debug)]
pub struct Args {
    usage: String,
    command: &'static str,
    given: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Parses the process's arguments after the program name.
    pub fn from_env(about: &str, commands: &[&'static str]) -> Args {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_default();
        let program = program.rsplit('/').next().unwrap_or_default();
        let mut usage = String::from("usage:");
        for synopsis in commands {
            usage += &format!("\n  {program} {synopsis}");
        }
        usage += &format!("\n{about}");
        match Args::parse(commands, args) {
            Ok(parsed) => Args { usage, ..parsed },
            Err(e) => exit_with_usage(&usage, &e),
        }
    }

    fn parse(
        commands: &[&'static str],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Args, String> {
        let mut args = args.into_iter();
        let name = args.next().ok_or("no subcommand")?;
        let words: Vec<&'static str> = (commands.iter())
            .map(|c| c.split_whitespace().collect())
            .find(|words: &Vec<_>| words[0] == name)
            .ok_or_else(|| format!("unknown subcommand `{name}`"))?;
        let mut given = Vec::new();
        while let Some(arg) = args.next() {
            let at = (words.iter().position(|w| w.starts_with("--") && *w == arg))
                .ok_or_else(|| format!("`{name}` takes no `{arg}`"))?;
            let value = match words.get(at + 1) {
                Some(next) if !next.starts_with("--") => {
                    Some(args.next().ok_or_else(|| format!("{arg} needs a value"))?)
                }
                _ => None,
            };
            given.push((words[at], value));
        }
        Ok(Args {
            usage: String::new(),
            command: words[0],
            given,
        })
    }

    /// The subcommand, one of the names [`Args::from_env`] was given.
    pub fn command(&self) -> &'static str {
        self.command
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.given.iter().any(|(f, _)| *f == flag)
    }

    /// The last value given for `flag`, parsed; `None` when it is absent.
    pub fn value<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.value_with(flag, |v| v.parse().ok())
    }

    /// [`Args::value`] with `parse` in place of [`FromStr`]; a value it
    /// maps to `None` is unparsable.
    pub fn value_with<T>(&self, flag: &str, parse: impl FnOnce(&str) -> Option<T>) -> Option<T> {
        self.try_value(flag, parse)
            .unwrap_or_else(|e| self.fail(&e))
    }

    fn try_value<T>(
        &self,
        flag: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let last = self.given.iter().rev().find(|(f, _)| *f == flag);
        let Some(value) = last.and_then(|(_, v)| v.as_deref()) else {
            return Ok(None);
        };
        parse(value)
            .map(Some)
            .ok_or_else(|| format!("{flag}: cannot parse `{value}`"))
    }

    /// Prints `message` and the usage text, then exits with status 2.
    pub fn fail(&self, message: &str) -> ! {
        exit_with_usage(&self.usage, message)
    }
}

fn exit_with_usage(usage: &str, message: &str) -> ! {
    eprintln!("{message}\n{usage}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;
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
    /// name exactly what the two bundles register.
    #[test]
    fn readme_metric_family_table_matches_the_registered_families() {
        let registry = Registry::new();
        EngineMetrics::registered(&registry);
        ServeMetrics::registered(&registry);
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

    const COMMANDS: [&str; 2] = ["fig4 --quick", "determinism --workers N --out PATH --trace"];

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(&COMMANDS, args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn args_take_their_flags_in_any_order_and_the_last_value_wins() {
        let args = parse(&["determinism", "--trace", "--workers", "1", "--workers", "8"]).unwrap();
        assert_eq!(args.command(), "determinism");
        assert!(args.switch("--trace"));
        assert_eq!(
            args.try_value("--workers", |v| v.parse().ok()),
            Ok(Some(8usize))
        );
        assert_eq!(args.try_value("--out", |v| Some(v.to_string())), Ok(None));
    }

    #[test]
    fn a_repeated_switch_is_accepted() {
        let args = parse(&["fig4", "--quick", "--quick"]).unwrap();
        assert!(args.switch("--quick"));
        assert!(!parse(&["fig4"]).unwrap().switch("--quick"));
    }

    #[test]
    fn an_unknown_flag_is_an_error() {
        for args in [
            &["fig4", "--quik"][..],
            &["fig4", "--help"],
            &["fig4", "quick"],
        ] {
            assert!(parse(args).is_err(), "{args:?}");
        }
        // A flag of another subcommand is unknown too.
        assert!(parse(&["fig4", "--trace"]).is_err());
    }

    #[test]
    fn a_missing_value_is_an_error() {
        assert_eq!(
            parse(&["determinism", "--out", "a", "--workers"]).unwrap_err(),
            "--workers needs a value"
        );
    }

    #[test]
    fn a_bad_number_is_an_error() {
        let args = parse(&["determinism", "--workers", "eight"]).unwrap();
        assert!(args
            .try_value("--workers", |v| v.parse::<usize>().ok())
            .is_err());
    }

    #[test]
    fn a_subcommand_missing_from_the_list_is_an_error() {
        assert!(parse(&["fig5", "--quick"]).is_err());
        assert!(parse(&["--quick"]).is_err());
        assert!(parse(&[]).is_err());
    }
}
