//! Batched hybrid-CNN inference on the engine.
//!
//! Serving traffic means classifying many images at once.
//! [`BatchClassify`] fans a batch out across the worker pool and returns
//! verdicts in input order. Classification is a pure function of the
//! immutable model ([`HybridCnn::classify_with`]), so every worker
//! classifies through the *same* `&HybridCnn` — no weights are copied per
//! run — and is deterministic per image, so the batch output is
//! independent of the worker count by construction *and* by the engine's
//! ordered result stream.
//!
//! The only per-worker state ([`SourcedTrial::init`]) is an
//! `InferScratch` arena: every worker warms its own on its first image
//! and recycles it for the rest of the run — scratch memory is never
//! shared across workers, and steady-state classification performs no
//! per-image heap allocation in the CNN tail.
//!
//! Images arrive through a [`TrialSource`]: an in-memory batch is the
//! eager [`SliceSource`] case ([`classify_many`]), while
//! [`classify_source`] accepts any source — e.g. an [`FnSource`] that
//! maps request ids to a shared image pool, or synthesises inputs on
//! demand — so the serving layer dispatches whole batches without
//! cloning or materialising a single image.
//!
//! [`classify_many`]: BatchClassify::classify_many
//! [`classify_source`]: BatchClassify::classify_source
//! [`FnSource`]: crate::FnSource

use crate::engine::{Engine, RunOutcome, RunPlan};
use crate::sink::CollectSink;
use crate::source::{SliceSource, TrialSource};
use crate::trial::{SourcedTrial, TrialCtx};
use relcnn_core::{HybridCnn, HybridError, QualifiedClassification};
use relcnn_faults::NoFaults;
use relcnn_nn::InferScratch;
use relcnn_tensor::Tensor;
use std::borrow::Borrow;

struct ClassifyTrial<'a> {
    hybrid: &'a HybridCnn,
}

impl<I: Borrow<Tensor> + Send> SourcedTrial<I> for ClassifyTrial<'_> {
    type State = InferScratch;
    type Output = Result<QualifiedClassification, HybridError>;

    fn init(&self, _worker_index: usize) -> InferScratch {
        InferScratch::new()
    }

    fn run(&self, scratch: &mut InferScratch, item: I, _ctx: &mut TrialCtx) -> Self::Output {
        self.hybrid
            .classify_with(item.borrow(), &mut NoFaults::new(), scratch)
    }
}

/// Batched classification through the runtime engine.
pub trait BatchClassify {
    /// Classifies `images` across `engine`'s worker pool, preserving
    /// input order.
    ///
    /// # Errors
    ///
    /// Returns the first per-image error in input order, as the serial
    /// loop would.
    fn classify_many(
        &self,
        engine: &Engine,
        images: &[Tensor],
    ) -> Result<Vec<QualifiedClassification>, HybridError>;

    /// Classifies one image per item of `source` across the worker pool,
    /// preserving source order: the streaming ingestion entry point.
    /// Items are pulled chunk by chunk on the executing worker, so the
    /// batch is never materialised as a tensor vector — a source may
    /// yield borrowed tensors from a shared pool or synthesise images on
    /// demand. Error contract matches
    /// [`classify_many`](BatchClassify::classify_many).
    fn classify_source<Src>(
        &self,
        engine: &Engine,
        source: &Src,
    ) -> RunOutcome<Result<Vec<QualifiedClassification>, HybridError>>
    where
        Src: TrialSource,
        Src::Item: Borrow<Tensor>;
}

impl BatchClassify for HybridCnn {
    fn classify_many(
        &self,
        engine: &Engine,
        images: &[Tensor],
    ) -> Result<Vec<QualifiedClassification>, HybridError> {
        self.classify_source(engine, &SliceSource::new(images))
            .summary
    }

    fn classify_source<Src>(
        &self,
        engine: &Engine,
        source: &Src,
    ) -> RunOutcome<Result<Vec<QualifiedClassification>, HybridError>>
    where
        Src: TrialSource,
        Src::Item: Borrow<Tensor>,
    {
        // One image per trial; seeds are irrelevant (fault-free path).
        // Chunk size 1: per-image latency varies (early-abort
        // qualification paths) and trials inside an executing chunk are
        // not stealable, so single-image chunks keep worst-case tail
        // latency at one image. The envelope coalescing on the result
        // channel makes the fine granularity cheap — contiguous verdicts
        // merge into one message — and chunking never changes them.
        let plan = RunPlan::new(source.len(), 0).with_chunk(1);
        let outcome = engine.run_source(
            &plan,
            source,
            &ClassifyTrial { hybrid: self },
            CollectSink::new(),
        );
        RunOutcome {
            summary: outcome.summary.into_iter().collect(),
            stats: outcome.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relcnn_core::HybridConfig;
    use relcnn_gtsrb::{DatasetConfig, SyntheticGtsrb};

    #[test]
    fn batch_matches_serial_and_is_ordered() {
        let data = SyntheticGtsrb::generate(&DatasetConfig::tiny(21)).expect("dataset");
        let mut hybrid = HybridCnn::untrained(&HybridConfig::tiny(22)).expect("hybrid");
        let images: Vec<_> = data
            .test()
            .iter()
            .take(6)
            .map(|s| s.image.clone())
            .collect();

        let serial: Vec<_> = images
            .iter()
            .map(|im| hybrid.classify(im).expect("serial verdict"))
            .collect();

        for workers in [1, 3] {
            let batched = hybrid
                .classify_many(&Engine::with_workers(workers), &images)
                .expect("batched verdicts");
            assert_eq!(batched.len(), serial.len());
            for (a, b) in serial.iter().zip(&batched) {
                assert_eq!(a.class(), b.class());
                assert_eq!(a.confidence().to_bits(), b.confidence().to_bits());
                assert_eq!(a.is_qualified(), b.is_qualified());
            }
        }
    }

    #[test]
    fn bad_image_surfaces_first_error() {
        let hybrid = HybridCnn::untrained(&HybridConfig::tiny(5)).expect("hybrid");
        let bad = Tensor::zeros(relcnn_tensor::Shape::d2(4, 4));
        let err = hybrid.classify_many(&Engine::with_workers(2), &[bad]);
        assert!(err.is_err());
    }

    #[test]
    fn first_error_in_input_order_even_when_it_lands_mid_batch() {
        // The "first error in input order" contract, off the happy path:
        // two *different* bad images deep in the batch, run at several
        // worker counts (chunk=1 deals the trailing chunks to the last
        // workers and makes them prime steal targets). Whatever worker
        // executed the erroring image's chunk — locally or stolen — the
        // returned error must be the one the serial loop would hit first.
        let data = SyntheticGtsrb::generate(&DatasetConfig::tiny(31)).expect("dataset");
        let mut hybrid = HybridCnn::untrained(&HybridConfig::tiny(32)).expect("hybrid");
        let good: Vec<_> = data.test().iter().map(|s| s.image.clone()).collect();
        let mut images: Vec<Tensor> = (0..24).map(|i| good[i % good.len()].clone()).collect();
        // Distinguishable failures: a 2-D tensor of the wrong shape at
        // index 13, and a differently-shaped one at index 19.
        images[13] = Tensor::zeros(relcnn_tensor::Shape::d2(3, 3));
        images[19] = Tensor::zeros(relcnn_tensor::Shape::d2(9, 9));

        let serial_err = images
            .iter()
            .map(|im| hybrid.classify(im))
            .find_map(|r| r.err())
            .expect("serial loop hits an error");
        for workers in [1, 2, 8] {
            let err = hybrid
                .classify_many(&Engine::with_workers(workers), &images)
                .expect_err("batched run must surface an error");
            assert_eq!(
                format!("{err}"),
                format!("{serial_err}"),
                "workers={workers}: expected the *first* bad image's error"
            );
        }
    }

    #[test]
    fn first_error_contract_survives_steals() {
        // Engine-level pin of the mechanism classify_many relies on
        // (ordered CollectSink stream + first-Err collect), with the
        // schedule forced adversarial: single-trial chunks with the
        // first half of the run 8x slower, so the workers dealt the
        // fast half run dry and steal the back halves of the slow
        // deques — where the first erroring trial sits. The error
        // returned must still be the lowest-index one.
        use crate::sink::CollectSink;
        use crate::trial::FnTrial;
        use std::time::Duration;

        let trial = FnTrial::new(|ctx: &mut TrialCtx| -> Result<u64, String> {
            std::thread::sleep(Duration::from_micros(if ctx.index < 64 { 400 } else { 50 }));
            match ctx.index {
                40 => Err(format!("bad trial {}", ctx.index)),
                100 => Err(format!("bad trial {}", ctx.index)),
                i => Ok(i),
            }
        });
        let plan = RunPlan::new(128, 9).with_shards(2).with_chunk(1);
        let outcome = Engine::with_workers(8).run(&plan, &trial, CollectSink::new());
        assert!(
            outcome.stats.steals > 0,
            "schedule was not adversarial: {:?}",
            outcome.stats
        );
        let collected: Result<Vec<u64>, String> = outcome.summary.into_iter().collect();
        assert_eq!(collected.unwrap_err(), "bad trial 40");
    }

    #[test]
    fn empty_batch_is_empty() {
        let hybrid = HybridCnn::untrained(&HybridConfig::tiny(6)).expect("hybrid");
        let out = hybrid
            .classify_many(&Engine::with_workers(2), &[])
            .expect("empty");
        assert!(out.is_empty());
    }
}
