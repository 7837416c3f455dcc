//! The repo benchmark. See `README.md` beside `Cargo.toml` for the workloads,
//! the metrics and what each layer metric is predicted to move.
//!
//! ```text
//! relcnn-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! relcnn-benchmark --workload NAME --repeat 10      # spread of ten seeds
//! ```
//!
//! Every layer is measured from outside, by timing calls into public
//! functions. The last line of standard output is the result object; all
//! commentary goes to standard error.

mod campaign;
mod classify;
mod metrics;
mod pace;
mod probe;
mod serve;
mod setup;
mod spans;
mod stats;

use metrics::{result_line, Outcome, END_TO_END, PER_LAYER};
use setup::Budget;
use spans::Spans;
use std::process::ExitCode;

pub const WORKLOADS: [&str; 4] = [
    "frame_96",
    "batch_48",
    "serve_open_48",
    "campaign_faults_48",
];

const DEFAULT_SEED: u64 = 0xC1A55;
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 15.0;

/// Workers for the engine: every core the host gives this process.
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One run of one workload.
pub struct Run {
    workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    trace: bool,
}

impl Run {
    /// The traced pass's span recorder; `None` with tracing off.
    pub fn spans(&self) -> Option<Spans> {
        self.trace.then(Spans::new)
    }

    /// Ends a traced pass: exports the Chrome trace next to the executable
    /// (inside the build directory, so inside the checkout) and records what
    /// the export held.
    pub fn finish_traced(&self, mut outcome: Outcome, spans: &Spans) -> Outcome {
        let path = std::env::current_exe()
            .ok()
            .and_then(|exe| {
                exe.parent()
                    .map(|dir| dir.join(format!("trace_{}.json", self.workload)))
            })
            .expect("the executable has a directory");
        match spans.export(&path) {
            Ok((events, dropped)) => {
                outcome.metrics.set("obs.trace_events", events as f64);
                outcome.metrics.set("obs.trace_dropped", dropped as f64);
                eprintln!(
                    "trace: {events} events ({dropped} dropped) in {}",
                    path.display()
                );
            }
            Err(e) => {
                eprintln!("trace export failed: {e}");
                outcome.check(false);
            }
        }
        outcome
    }

    fn execute(&self) -> Outcome {
        let budget = Budget::new(self.seconds.ceil() as u64);
        let mut outcome = match self.workload {
            "frame_96" => classify::frame_96(self, &budget),
            "batch_48" => classify::batch_48(self, &budget),
            "serve_open_48" => serve::serve_open_48(self, &budget),
            _ => campaign::campaign_faults_48(self, &budget),
        };
        if self.trace {
            let share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
            outcome.metrics.set("fail_share", share);
        }
        outcome
    }

    /// Runs the workload and prints commentary to standard error and the
    /// result object as one line on standard output.
    fn report(&self) -> Outcome {
        let outcome = self.execute();
        let specs = if self.trace { PER_LAYER } else { END_TO_END };
        eprintln!(
            "{} seed {:#x} {} s trace {}: attempted {} failed {} verdict_digest {:016x} ({} cores)",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace),
            outcome.attempted,
            outcome.failed,
            outcome.verdict_digest,
            available_workers(),
        );
        for s in specs {
            if let Some(value) = outcome.metrics.get(s.name) {
                eprintln!(
                    "  {:<40} {value:>16.4} {:<6} {} is better",
                    s.name, s.unit, s.better
                );
            }
        }
        println!("{}", result_line(&outcome, specs));
        outcome
    }
}

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: WORKLOADS.to_vec(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            parsed.seconds = DEFAULT_SECONDS / 10.0;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let known = WORKLOADS.iter().find(|w| *w == value);
                parsed.workloads =
                    vec![known.ok_or_else(|| format!("unknown workload {value:?}"))?];
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.clamp(1, 60) as f64,
            "--trace" => parsed.trace = number()? != 0,
            "--repeat" => parsed.repeat = number()? as usize,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(parsed)
}

/// `--repeat N`: runs each workload on N seeds and prints, per end-to-end
/// metric, min / median / max and the spread the driver computes — the
/// distance between the quartiles over the median — against the bound.
fn spread(args: &Args) -> bool {
    let mut steady = true;
    for workload in &args.workloads {
        let runs: Vec<Outcome> = (0..args.repeat as u64)
            .map(|k| {
                let run = Run {
                    workload,
                    seed: args.seed.wrapping_add(k),
                    seconds: args.seconds,
                    trace: false,
                };
                run.report()
            })
            .collect();
        steady &= runs.iter().all(|o| o.failed == 0);
        for spec in END_TO_END {
            let (name, bound) = (
                spec.name,
                spec.bound.expect("end-to-end metrics are bounded"),
            );
            let values: Vec<f64> = runs.iter().filter_map(|o| o.metrics.get(name)).collect();
            let (min, max) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            let share = stats::iqr_share(&values).unwrap_or(0.0);
            steady &= share <= bound;
            eprintln!(
                "spread {workload:<20} {name:<18} n {} min {min:.2} median {:.2} max {max:.2} \
                 iqr/median {share:.4} bound {bound}",
                values.len(),
                stats::median(&values),
            );
        }
    }
    steady
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("relcnn-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = if args.repeat > 0 {
        spread(&args)
    } else {
        // Every workload runs, whether or not an earlier one failed a check.
        let clean: Vec<bool> = args
            .workloads
            .iter()
            .map(|workload| {
                let run = Run {
                    workload,
                    seed: args.seed,
                    seconds: args.seconds,
                    trace: args.trace,
                };
                run.report().failed == 0
            })
            .collect();
        clean.iter().all(|ok| *ok)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let args = parse(&argv(&[
            "--workload",
            "batch_48",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(args.workloads, ["batch_48"]);
        assert_eq!(
            (args.seed, args.seconds, args.trace, args.repeat),
            (7, 3.0, true, 0)
        );
        let all = parse(&[]).expect("defaults");
        assert_eq!(all.workloads, WORKLOADS);
        assert!(!all.trace);
        assert!(parse(&argv(&["--quick"])).expect("quick").seconds < 2.0);
    }

    #[test]
    fn rejects_what_it_does_not_know() {
        assert!(parse(&argv(&["--workload", "frame_227"])).is_err());
        assert!(parse(&argv(&["--seed"])).is_err());
        assert!(parse(&argv(&["--seed", "x"])).is_err());
        assert!(parse(&argv(&["--frobnicate", "1"])).is_err());
    }
}
