//! The paper's experiments: every table, figure and in-text claim the
//! README's *Paper ↔ repo map* lists, one subcommand each. Each writes
//! its CSV (and `coverage_sweep` its JSONL) under `results/`.
//!
//! ```text
//! paper table1 --quick
//! paper fig4
//! ```
//!
//! `--quick` runs at smoke scale; `fig3` and `bucket_dynamics` are small
//! already and accept it without change.

mod bucket_dynamics;
mod confusion;
mod coverage_sweep;
mod fig3;
mod fig4;
mod pretrain_drift;
mod table1;

use relcnn_bench::Args;

const ABOUT: &str =
    "Table 1, Fig. 3 and Fig. 4 of the paper, and its in-text claims X1 (confusion),\n\
    X2 (pretrain_drift), X3 (bucket_dynamics) and X4 (coverage_sweep). --quick runs at\n\
    smoke scale.";

fn main() {
    let args = Args::from_env(
        ABOUT,
        &[
            "table1 --quick",
            "fig3 --quick",
            "fig4 --quick",
            "confusion --quick",
            "pretrain_drift --quick",
            "bucket_dynamics --quick",
            "coverage_sweep --quick",
        ],
    );
    let quick = args.switch("--quick");
    match args.command() {
        "table1" => table1::run(quick),
        "fig3" => fig3::run(),
        "fig4" => fig4::run(quick),
        "confusion" => confusion::run(quick),
        "pretrain_drift" => pretrain_drift::run(quick),
        "bucket_dynamics" => bucket_dynamics::run(),
        "coverage_sweep" => coverage_sweep::run(quick),
        _ => unreachable!("Args only returns listed subcommands"),
    }
}
