//! **X4** — the reliability guarantee, measured.
//!
//! Sweeps the bit error rate and, for each redundancy mode, runs seeded
//! fault-injection campaigns over a reliable convolution, comparing the
//! measured silent-corruption rate against the analytic bound of
//! `relcnn_core::guarantee` (plain: `n·ber`; DMR: `n·ber²/32`;
//! TMR: `3n·ber²/32`).
//!
//! Campaigns execute on the `relcnn-runtime` worker pool: trials are
//! sharded deterministically, every `(ber, mode)` point streams its trial
//! outcomes into `results/coverage_sweep_trials.jsonl`, and a Wilson-CI
//! early-stop cuts a point short once the silent-corruption rate is
//! pinned down tightly enough.
//!
//! JSONL format: each point opens with a `{"point":{"ber":..,"mode":..}}`
//! header, followed by its `{"trial":..}` lines (indices restart at 0 per
//! point) and a `{"run":..}` footer with the engine counters.

use relcnn_bench::{results_dir, write_csv};
use relcnn_core::guarantee::{silent_layer_bound, silent_layer_probability};
use relcnn_faults::{BerInjector, FaultInjector, FaultSite};
use relcnn_relexec::conv::{reliable_partition, ConvPlan, ReliableConvConfig};
use relcnn_relexec::{BucketConfig, RedundancyMode, RetryPolicy};
use relcnn_runtime::{
    CampaignSink, EarlyStop, Engine, FnTrial, JsonlSink, RunPlan, TrialCtx, TrialOutcome,
    TrialResult,
};
use relcnn_tensor::conv::{conv2d, ConvGeometry};
use relcnn_tensor::init::{Init, Rand};
use relcnn_tensor::Shape;
use std::fs::File;
use std::io::{BufWriter, Write};

pub fn run(quick: bool) {
    let trials: u64 = if quick { 100 } else { 400 };
    println!("== X4: detection coverage & silent-corruption rate vs BER ==");

    // Small conv so each trial is cheap: no bias and no ReLU stage.
    let mut rng = Rand::seeded(4);
    let input = rng.tensor(Shape::d3(2, 10, 10), Init::Uniform { lo: -1.0, hi: 1.0 });
    let weights = rng.tensor(Shape::d4(4, 2, 3, 3), Init::HeNormal { fan_in: 18 });
    let geom = ConvGeometry::new(10, 10, 3, 3, 1, 0).expect("geometry");
    let golden = conv2d(&input, &weights, None, &geom).expect("golden");
    let ops = ConvPlan::new(&geom, 2, 4, false, false).qualified_ops();
    println!(
        "layer: {} qualified ops per trial, up to {} trials per point\n",
        ops, trials
    );

    // Generous bucket so random transients don't abort: we measure
    // silent-vs-detected, not availability (X3 covers that).
    let config = ReliableConvConfig {
        bucket: BucketConfig::new(1, u32::MAX),
        retry: RetryPolicy::with_retries(4),
        pe_count: 8,
    };

    let jsonl_path = results_dir().join("coverage_sweep_trials.jsonl");
    let mut jsonl = BufWriter::new(File::create(&jsonl_path).expect("jsonl artefact"));

    println!(
        "{:>8} {:>7} {:>8} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "ber", "mode", "trials", "silent rate", "exact model", "bound", "coverage", "trials/s"
    );
    let mut rows = Vec::new();
    for ber in [1e-5f64, 1e-4, 1e-3] {
        for mode in RedundancyMode::ALL {
            let plan = RunPlan::new(trials, 0xC0FFEE ^ (ber.to_bits()));
            // Point header: the trial/footer lines that follow (until the
            // next header) belong to this (ber, mode) campaign. Trial
            // indices restart at 0 per point.
            writeln!(
                jsonl,
                "{{\"point\":{{\"ber\":{ber:?},\"mode\":\"{mode}\"}}}}"
            )
            .expect("jsonl point header");
            // The guarantee experiment pins a *rate*; once the Wilson CI
            // on the silent rate is tighter than ±1%, more trials buy
            // nothing. The stop point is a deterministic shard boundary.
            let policy = EarlyStop::on_ci_width(0.02, trials / 4);
            let sink = JsonlSink::new(&mut jsonl, CampaignSink::new(policy));
            let trial = FnTrial::new(|ctx: &mut TrialCtx| {
                let mut injector = BerInjector::new(ctx.seed, ber)
                    .with_sites(vec![FaultSite::Multiplier, FaultSite::Accumulator]);
                let outcome = match reliable_partition(
                    mode,
                    &input,
                    &weights,
                    None,
                    &geom,
                    false, // no ReLU stage
                    &mut injector,
                    &config,
                ) {
                    Err(_) => TrialOutcome::DetectedAborted,
                    Ok(out) => {
                        let silent = out
                            .output
                            .iter()
                            .zip(golden.iter())
                            .any(|(a, b)| (a - b).abs() > 1e-4);
                        if silent {
                            TrialOutcome::SilentCorruption
                        } else if out.stats.retries > 0 {
                            TrialOutcome::DetectedRecovered
                        } else {
                            TrialOutcome::Correct
                        }
                    }
                };
                TrialResult {
                    outcome,
                    injector: injector.stats(),
                }
            });
            let outcome = Engine::default().run(&plan, &trial, sink);
            let report = outcome.summary;

            let silent_rate = report.silent as f64 / report.trials as f64;
            let exact = silent_layer_probability(mode, ber, ops);
            let bound = silent_layer_bound(mode, ber, ops);
            let coverage = report
                .detection_coverage()
                .map(|c| format!("{c:.4}"))
                .unwrap_or_else(|| "n/a".into());
            println!(
                "{:>8.0e} {:>7} {:>8} {:>12.5} {:>12.5} {:>12.5} {:>10} {:>10.0}",
                ber,
                mode.to_string(),
                report.trials,
                silent_rate,
                exact,
                bound,
                coverage,
                outcome.stats.throughput
            );
            let (_, ci_hi) = report.silent_rate_ci95();
            rows.push(format!(
                "{ber},{mode},{},{silent_rate},{exact},{bound},{ci_hi}",
                report.trials
            ));

            // The guarantee: measured silent rate must sit within the
            // 95% CI of the analytic model (and under the bound).
            assert!(
                silent_rate
                    <= bound + 3.0 * (bound * (1.0 - bound) / report.trials as f64).sqrt() + 0.05,
                "{mode} at ber {ber}: measured {silent_rate} violates bound {bound}"
            );
        }
    }
    println!(
        "\nshape check: plain degrades linearly with BER; DMR/TMR stay at\n\
         ~zero silent corruptions (quadratic suppression) while detecting\n\
         and recovering the injected faults."
    );
    let path = write_csv(
        "coverage_sweep.csv",
        "ber,mode,trials,silent_rate,exact_model,bound,ci95_hi",
        &rows,
    );
    println!("wrote {}", path.display());
    println!("wrote {}", jsonl_path.display());
}
