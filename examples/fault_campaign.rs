//! Fault-injection campaign against the hybrid classifier: SEUs strike the
//! reliable partition's multipliers at increasing bit error rates, and the
//! architecture's responses — detection, one-operation rollback, and the
//! leaky bucket's persistent-failure abort — are tallied.
//!
//! ```text
//! cargo run --release --example fault_campaign
//! ```

use relcnn::core::{HybridCnn, HybridConfig, HybridError};
use relcnn::faults::{BerInjector, FaultInjector, FaultSite, StuckBitInjector};
use relcnn::gtsrb::{RenderParams, SignClass, SignRenderer};
use relcnn::nn::InferScratch;
use relcnn::runtime::{
    CampaignSink, EarlyStop, Engine, RunPlan, Trial, TrialCtx, TrialOutcome, TrialResult,
};
use relcnn::tensor::init::Rand;
use relcnn::tensor::Tensor;

/// One campaign trial: classify `image` under a seeded BER injector.
///
/// Every worker classifies through the same `&HybridCnn`; the only
/// per-worker state (`Trial::init`) is an inference arena.
struct SeuTrial<'a> {
    hybrid: &'a HybridCnn,
    image: &'a Tensor,
    clean_class: usize,
    ber: f64,
}

impl Trial for SeuTrial<'_> {
    type State = InferScratch;
    type Output = TrialResult;

    fn init(&self, _worker_index: usize) -> InferScratch {
        InferScratch::new()
    }

    fn run(&self, scratch: &mut InferScratch, ctx: &mut TrialCtx) -> TrialResult {
        let mut injector = BerInjector::new(ctx.seed, self.ber)
            .with_sites(vec![FaultSite::Multiplier, FaultSite::Accumulator]);
        let verdict = self
            .hybrid
            .classify_with(self.image, &mut injector, scratch);
        let outcome = match verdict {
            Ok(v) if v.class() != self.clean_class => TrialOutcome::SilentCorruption,
            Ok(v) if v.guarantee().recovered > 0 => TrialOutcome::DetectedRecovered,
            Ok(_) => TrialOutcome::Correct,
            Err(HybridError::ReliablePathFailed(_)) => TrialOutcome::DetectedAborted,
            Err(e) => panic!("unexpected classification error: {e}"),
        };
        TrialResult {
            outcome,
            injector: injector.stats(),
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = HybridConfig::tiny(5);
    let mut hybrid = HybridCnn::untrained(&config)?;
    let image = SignRenderer::new(config.image_size).render(
        SignClass::Stop,
        &RenderParams::nominal(),
        &mut Rand::seeded(1),
    );
    let clean = hybrid.classify(&image)?;
    println!(
        "clean run: class {} ({} qualified ops, DMR)\n",
        clean.class(),
        clean.guarantee().ops
    );

    // Campaigns run on the relcnn-runtime worker pool: seeded trials,
    // deterministic aggregates for any thread count. "completed" counts
    // trials that produced an output (right or wrong); "wrong output" is
    // the silent subset of those.
    println!("-- transient SEUs at increasing BER (20 seeded trials each) --");
    println!(
        "{:>9}{:>10}{:>11}{:>9}{:>14}",
        "ber", "completed", "recovered", "aborts", "wrong output"
    );
    for ber in [1e-7f64, 1e-6, 1e-5, 1e-4] {
        let trial = SeuTrial {
            hybrid: &hybrid,
            image: &image,
            clean_class: clean.class(),
            ber,
        };
        let report = Engine::default()
            .run(
                &RunPlan::new(20, 1000),
                &trial,
                CampaignSink::new(EarlyStop::never()),
            )
            .summary;
        println!(
            "{:>9.0e}{:>10}{:>11}{:>9}{:>14}",
            ber,
            report.trials - report.detected_aborted,
            report.detected_recovered,
            report.detected_aborted,
            report.silent
        );
    }

    // --- Permanent faults: temporal vs spatial redundancy (§II-B). ------
    //
    // Our DMR executes both replicas on the SAME processing element
    // (temporal redundancy). A stuck bit in that PE corrupts both replicas
    // identically — the comparison passes and corruption is SILENT. This
    // is precisely the paper's caveat: "in the case of temporal redundancy
    // and given a permanent error, the platform becomes unusable".
    println!("\n-- permanent stuck bit, temporal redundancy (same PE) --");
    let mut stuck = StuckBitInjector::new(0, FaultSite::Multiplier, 30, true);
    match hybrid.classify_under_faults(&image, &mut stuck) {
        Ok(v) => {
            println!(
                "completed with class {} (clean run gave {}) and {} detections:",
                v.class(),
                clean.class(),
                v.guarantee().detected
            );
            println!(
                "the defect is common-mode across temporal replicas — DMR is\n\
                 BLIND to it. Only the independent shape qualifier still stands\n\
                 between this corruption and the application (qualified = {}).",
                v.is_qualified()
            );
        }
        Err(HybridError::ReliablePathFailed(e)) => println!("escalated: {e}"),
        Err(e) => return Err(e.into()),
    }

    // Spatial redundancy (replica-pinned fault, i.e. distinct hardware per
    // replica): the same permanent defect now hits only replica 0, every
    // comparison fails, and the leaky bucket escalates.
    println!("\n-- same defect, spatial redundancy (replica-pinned) --");
    use relcnn::faults::{FaultDuration, FaultKind, ScriptedFault};
    let mut spatial =
        relcnn::faults::ScriptedInjector::new((0..500_000u64).map(|op| ScriptedFault {
            op_index: op,
            replica: Some(0),
            site: Some(FaultSite::Multiplier),
            kind: FaultKind::StuckBit {
                bit: 30,
                high: true,
            },
            duration: FaultDuration::Permanent,
        }));
    match hybrid.classify_under_faults(&image, &mut spatial) {
        Err(HybridError::ReliablePathFailed(e)) => {
            println!("explicitly reported, as the paper requires: {e}");
        }
        Ok(_) => println!("unexpected completion"),
        Err(e) => return Err(e.into()),
    }
    println!(
        "\nsummary: transient SEUs are detected and rolled back at one-\n\
         operation distance; permanent defects are escalated when replicas\n\
         are spatially independent, and require the architecture's second\n\
         diverse channel (the deterministic qualifier) when they are not."
    );
    Ok(())
}
