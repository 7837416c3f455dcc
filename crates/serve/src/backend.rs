//! Inference backends: what a dispatched batch runs on.
//!
//! The batcher is generic over a [`Backend`] so the deterministic
//! simulator can be unit-tested against a trivial stub while the
//! binaries dispatch real hybrid-CNN inference through
//! [`BatchClassify::classify_many`] on a shared [`Engine`].

use crate::request::Request;
use relcnn_core::{HybridCnn, HybridConfig, HybridError};
use relcnn_gtsrb::{DatasetConfig, SyntheticGtsrb};
use relcnn_runtime::{BatchClassify, Engine, FnSource, RunStats};
use relcnn_tensor::Tensor;

/// One batch's reply: per-request verdicts in batch order, plus the
/// engine's run counters when the backend dispatched through it.
#[derive(Debug, Clone)]
pub struct BatchReply<V> {
    /// Verdicts, one per request, in the batch's request order.
    pub verdicts: Vec<V>,
    /// Engine counters of the dispatch (None for stub backends).
    pub stats: Option<RunStats>,
}

/// A classifier the micro-batcher can dispatch to.
pub trait Backend: Sync {
    /// Per-request verdict type.
    type Verdict: Clone + Send;

    /// Classifies one batch. Must be deterministic in the requests'
    /// payload seeds (never in time or worker count) — the serving
    /// artefact's byte-identity across schedules depends on it.
    fn classify_batch(&self, engine: &Engine, batch: &[Request]) -> BatchReply<Self::Verdict>;
}

/// The qualified-classification verdict the CNN backend records per
/// request. Confidence is carried as raw bits so artefact lines are
/// byte-stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CnnVerdict {
    /// Predicted class index.
    pub class: usize,
    /// Whether the shape qualifier agreed (reliable classification).
    pub qualified: bool,
    /// `f32::to_bits` of the confidence.
    pub confidence_bits: u32,
}

/// Real inference: a [`HybridCnn`] over a fixed synthetic image set,
/// dispatched through the engine's batched-classification path. The
/// request's payload seed selects the image, so a trace replays the
/// exact same inputs.
///
/// Every batch dispatches through `BatchClassify` against this one
/// model by reference — no weights are copied per batch. Each engine
/// worker brings only its own `InferScratch` arena; the borrowed-pool
/// image source plus that arena keep the serving inner loop free of
/// per-image allocation in the CNN tail once the arena is warm.
pub struct CnnBackend {
    hybrid: HybridCnn,
    images: Vec<Tensor>,
}

impl CnnBackend {
    /// A tiny backend (untrained tiny hybrid, tiny synthetic image set)
    /// for deterministic replay and smoke benchmarks.
    pub fn tiny(seed: u64) -> Result<Self, HybridError> {
        let data =
            SyntheticGtsrb::generate(&DatasetConfig::tiny(seed)).map_err(HybridError::Gtsrb)?;
        let hybrid = HybridCnn::untrained(&HybridConfig::tiny(seed.wrapping_add(1)))?;
        let images: Vec<Tensor> = data.test().iter().map(|s| s.image.clone()).collect();
        assert!(!images.is_empty(), "synthetic dataset has no test images");
        Ok(CnnBackend { hybrid, images })
    }

    /// Number of distinct images requests map onto.
    pub fn image_count(&self) -> usize {
        self.images.len()
    }
}

impl Backend for CnnBackend {
    type Verdict = CnnVerdict;

    fn classify_batch(&self, engine: &Engine, batch: &[Request]) -> BatchReply<CnnVerdict> {
        // Streaming ingestion: the source maps each request to a
        // *borrowed* image from the fixed pool, pulled chunk by chunk on
        // the executing worker — the old path cloned every tensor into a
        // batch vector before dispatch.
        let source = FnSource::new(batch.len() as u64, |i| {
            let request = &batch[i as usize];
            &self.images[(request.payload_seed % self.images.len() as u64) as usize]
        });
        let outcome = self.hybrid.classify_source(engine, &source);
        let verdicts = outcome
            .summary
            .unwrap_or_else(|e| panic!("serving batch failed to classify: {e}"))
            .into_iter()
            .map(|q| CnnVerdict {
                class: q.class(),
                qualified: q.is_qualified(),
                confidence_bits: q.confidence().to_bits(),
            })
            .collect();
        BatchReply {
            verdicts,
            stats: Some(outcome.stats),
        }
    }
}

/// Stub backend for simulator unit tests: echoes a pure function of the
/// payload seed without touching the engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct EchoBackend;

impl Backend for EchoBackend {
    type Verdict = u64;

    fn classify_batch(&self, _engine: &Engine, batch: &[Request]) -> BatchReply<u64> {
        BatchReply {
            verdicts: batch
                .iter()
                .map(|r| r.payload_seed.rotate_left(7))
                .collect(),
            stats: None,
        }
    }
}
