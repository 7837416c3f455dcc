//! The `relcnn-runtime` engine in one tour: a deterministic sharded
//! campaign with CI-based early stopping, a JSONL artefact, and batched
//! hybrid-CNN inference across the worker pool.
//!
//! ```text
//! cargo run --release --example campaign_engine
//! ```

use relcnn::core::{HybridCnn, HybridConfig};
use relcnn::faults::{BerInjector, FaultInjector, FaultSite, OpContext};
use relcnn::gtsrb::{DatasetConfig, SyntheticGtsrb};
use relcnn::runtime::{
    run_campaign, BatchClassify, CampaignSink, EarlyStop, Engine, FnTrial, JsonlSink, RunPlan,
    SliceSource, TrialCtx, TrialOutcome, TrialResult,
};

fn seu_trial(seed: u64) -> TrialResult {
    // A synthetic qualified-operation stream under a 0.1% bit error rate.
    let mut inj = BerInjector::new(seed, 1e-3).with_sites(vec![FaultSite::Multiplier]);
    let mut flips = 0u32;
    for op in 0..512u64 {
        if inj.perturb(OpContext::new(FaultSite::Multiplier, op), 1.0) != 1.0 {
            flips += 1;
        }
    }
    TrialResult {
        outcome: match flips {
            0 => TrialOutcome::Correct,
            1 => TrialOutcome::DetectedRecovered,
            _ => TrialOutcome::DetectedAborted,
        },
        injector: inj.stats(),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Deterministic campaign: worker count is execution detail. --
    let plan = RunPlan::new(5_000, 0xD5EED).with_shards(50);
    let report_at = |workers| {
        run_campaign(
            &Engine::with_workers(workers),
            &plan,
            EarlyStop::never(),
            seu_trial,
        )
        .summary
    };
    let (serial, pooled) = (report_at(1), report_at(8));
    assert_eq!(serial, pooled, "aggregates are bit-identical per seed");
    println!(
        "campaign: {} trials — correct {}, recovered {}, aborted {} (1 and 8 workers agree)",
        serial.trials, serial.correct, serial.detected_recovered, serial.detected_aborted
    );

    // --- 2. Early abort: stop once the CI on the silent rate is tight. -
    let mut jsonl: Vec<u8> = Vec::new();
    let outcome = Engine::default().run(
        &plan,
        &FnTrial::new(|ctx: &mut TrialCtx| seu_trial(ctx.seed)),
        JsonlSink::new(
            &mut jsonl,
            CampaignSink::new(EarlyStop::on_ci_width(0.01, 500)),
        ),
    );
    println!(
        "early stop: aggregated {} of {} planned trials across {} shards \
         ({:.0} trials/s), JSONL artefact {} lines",
        outcome.summary.trials,
        plan.trials,
        outcome.stats.shards,
        outcome.stats.throughput,
        jsonl.iter().filter(|&&b| b == b'\n').count()
    );

    // --- 3. Batched inference through the same engine. -----------------
    let data = SyntheticGtsrb::generate(&DatasetConfig::tiny(7))?;
    let hybrid = HybridCnn::untrained(&HybridConfig::tiny(8))?;
    let images: Vec<_> = data.test().iter().map(|s| s.image.clone()).collect();
    let outcome = hybrid.classify_source(&Engine::default(), &SliceSource::new(&images));
    let verdicts = outcome.summary?;
    println!(
        "batch inference: {} images in {:?} ({:.1} images/s, mean latency {:?})",
        verdicts.len(),
        outcome.stats.wall,
        outcome.stats.throughput,
        outcome.stats.mean_trial
    );
    Ok(())
}
