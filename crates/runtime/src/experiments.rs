//! Parallel experiment drivers.
//!
//! `relcnn_core::experiments` holds the pure, single-threaded experiment
//! workflows; this module fans the embarrassingly parallel ones out over
//! the engine. Each sweep worker owns a clone of the model, because the
//! filter swap mutates it; read-only evaluation borrows the original.

use crate::engine::{Engine, RunOutcome, RunPlan};
use crate::sink::CollectSink;
use crate::trial::{Trial, TrialCtx};
use relcnn_core::experiments::{sweep_filter_point, SweepBaseline, SweepPoint};
use relcnn_core::HybridError;
use relcnn_gtsrb::{SignClass, SyntheticGtsrb};
use relcnn_nn::train::{evaluate, mean_class_confidence};
use relcnn_nn::Network;
use relcnn_tensor::Tensor;

struct SweepTrial<'a> {
    net: &'a Network,
    stop_images: &'a [&'a Tensor],
    stop_class: SignClass,
}

impl Trial for SweepTrial<'_> {
    type State = Network;
    type Output = Result<SweepPoint, HybridError>;

    fn init(&self, _worker_index: usize) -> Network {
        self.net.clone()
    }

    fn run(&self, state: &mut Network, ctx: &mut TrialCtx) -> Self::Output {
        sweep_filter_point(state, self.stop_images, self.stop_class, ctx.index as usize)
    }
}

/// Figure 4, parallel: sweeps every conv-1 filter across the worker pool
/// (one trial per filter), leaving `net` untouched. Returns the
/// per-filter points, the baseline, and the engine counters.
///
/// # Errors
///
/// Propagates evaluation errors (first failing filter in index order).
pub fn fig4_filter_sweep_parallel(
    engine: &Engine,
    net: &Network,
    data: &SyntheticGtsrb,
    stop_class: SignClass,
) -> Result<RunOutcome<(Vec<SweepPoint>, SweepBaseline)>, HybridError> {
    let test: Vec<(Tensor, usize)> = data
        .test()
        .iter()
        .map(|s| (s.image.clone(), s.label.index()))
        .collect();
    let stop_images: Vec<&Tensor> = data
        .test()
        .iter()
        .filter(|s| s.label == stop_class)
        .map(|s| &s.image)
        .collect();
    let classes = data.config().classes.len();

    let baseline = SweepBaseline {
        stop_confidence: mean_class_confidence(net, &stop_images, stop_class.index())?,
        accuracy: evaluate(net, &test, classes)?.accuracy(),
    };

    let filters = net
        .conv2d_at(0)
        .ok_or_else(|| HybridError::BadConfig {
            reason: "no conv-1 to sweep".into(),
        })?
        .out_channels();

    // One filter per shard and per chunk: sweep evaluation cost varies by
    // filter, so stolen single-trial chunks keep the tail short.
    let outcome = engine.run(
        &RunPlan::new(filters as u64, 0)
            .with_shards(filters)
            .with_chunk(1),
        &SweepTrial {
            net,
            stop_images: &stop_images,
            stop_class,
        },
        CollectSink::new(),
    );
    let points: Result<Vec<SweepPoint>, HybridError> = outcome.summary.into_iter().collect();
    Ok(RunOutcome {
        summary: (points?, baseline),
        stats: outcome.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use relcnn_core::experiments::{fig4_filter_sweep, train_gtsrb_model};
    use relcnn_gtsrb::DatasetConfig;
    use relcnn_nn::train::TrainConfig;
    use relcnn_nn::SgdConfig;

    #[test]
    fn parallel_sweep_matches_serial_sweep() {
        let data = SyntheticGtsrb::generate(&DatasetConfig {
            image_size: 64,
            train_per_class: 2,
            test_per_class: 2,
            seed: 31,
            classes: SignClass::ALL.to_vec(),
        })
        .expect("dataset");
        let tc = TrainConfig {
            epochs: 1,
            batch_size: 8,
            sgd: SgdConfig::plain(0.02),
            seed: 32,
        };
        let (mut net, _) = train_gtsrb_model(&data, &tc, 33).expect("training");

        let (serial_points, serial_baseline) =
            fig4_filter_sweep(&mut net, &data, SignClass::Stop).expect("serial sweep");

        for workers in [1, 4] {
            let outcome = fig4_filter_sweep_parallel(
                &Engine::with_workers(workers),
                &net,
                &data,
                SignClass::Stop,
            )
            .expect("parallel sweep");
            let (points, baseline) = &outcome.summary;
            assert_eq!(points.len(), serial_points.len());
            assert_eq!(
                baseline.stop_confidence.to_bits(),
                serial_baseline.stop_confidence.to_bits()
            );
            for (a, b) in serial_points.iter().zip(points) {
                assert_eq!(a.filter, b.filter);
                assert_eq!(
                    a.stop_confidence.to_bits(),
                    b.stop_confidence.to_bits(),
                    "filter {} diverges at workers={workers}",
                    a.filter
                );
            }
        }
    }
}
