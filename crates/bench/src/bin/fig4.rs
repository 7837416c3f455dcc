//! **Figure 4** — "Confidence values for the 'Stop' sign class after
//! replacement of each one of the learnt, first convolution layer AlexNet
//! filters with a Sobel filter." The red dotted line is the unmodified
//! model's value.
//!
//! Reproduction: train the scaled AlexNet (conv-1 identical to the paper's:
//! 96 filters, 11×11×3, stride 4) on synthetic GTSRB, then replace each of
//! the 96 filters with the Sobel bank one at a time and measure the mean
//! stop-class confidence. Expected shape: most filters barely matter, a
//! few depress the confidence substantially — "the accuracy varies
//! substantially depending on which filter has been replaced".

use relcnn_bench::{ascii_plot, quick_mode, write_csv};
use relcnn_core::experiments::{paper_train_config, train_gtsrb_model};
use relcnn_gtsrb::{DatasetConfig, SignClass, SyntheticGtsrb};
use relcnn_nn::serial;
use relcnn_runtime::{experiments::fig4_filter_sweep_parallel, Engine};

fn main() {
    let quick = quick_mode();
    let mut dataset_config = DatasetConfig::standard(101);
    let mut train_config = paper_train_config(202);
    if quick {
        dataset_config = DatasetConfig {
            image_size: 96,
            train_per_class: 8,
            test_per_class: 3,
            seed: 101,
            classes: SignClass::ALL.to_vec(),
        };
        train_config.epochs = 1;
    }

    println!("== Figure 4: per-filter Sobel replacement sweep ==");
    println!(
        "dataset: {} train / {} test per class at {}px{}",
        dataset_config.train_per_class,
        dataset_config.test_per_class,
        dataset_config.image_size,
        if quick { " (--quick)" } else { "" }
    );

    let data = SyntheticGtsrb::generate(&dataset_config).expect("dataset");

    // Reuse a cached trained model when present (the sweep is the point).
    let ckpt = relcnn_bench::results_dir().join(if quick {
        "fig4_model_quick.ckpt"
    } else {
        "fig4_model.ckpt"
    });
    let (mut net, matrix) = train_gtsrb_model(
        &data,
        &if ckpt.exists() {
            // Minimal retrain pass replaced by checkpoint load below.
            let mut tc = train_config;
            tc.epochs = 0;
            tc
        } else {
            train_config
        },
        303,
    )
    .expect("training");
    if ckpt.exists() {
        serial::load(&mut net, &ckpt).expect("checkpoint load");
        println!("loaded cached model {}", ckpt.display());
    } else {
        serial::save(&mut net, &ckpt).expect("checkpoint save");
        println!(
            "trained model (test accuracy {:.3}), cached at {}",
            matrix.accuracy(),
            ckpt.display()
        );
    }

    // The 96 per-filter evaluations are independent: fan them out over
    // the runtime's worker pool (one filter per shard, deterministic
    // result order).
    let outcome = fig4_filter_sweep_parallel(&Engine::default(), &net, &data, SignClass::Stop)
        .expect("sweep");
    let (points, baseline) = outcome.summary;
    println!(
        "sweep: {} filters in {:?} ({:.2} filters/s across {} workers)",
        points.len(),
        outcome.stats.wall,
        outcome.stats.throughput,
        outcome.stats.workers
    );

    println!(
        "\nbaseline stop confidence {:.4}, accuracy {:.4} (the red dotted line)",
        baseline.stop_confidence, baseline.accuracy
    );
    let series: Vec<f32> = points.iter().map(|p| p.stop_confidence as f32).collect();
    println!("{}", ascii_plot(&series, 96, 12));

    let min = points
        .iter()
        .min_by(|a, b| a.stop_confidence.total_cmp(&b.stop_confidence))
        .expect("nonempty");
    let max = points
        .iter()
        .max_by(|a, b| a.stop_confidence.total_cmp(&b.stop_confidence))
        .expect("nonempty");
    println!(
        "confidence range across filters: [{:.4} @ filter {}, {:.4} @ filter {}]",
        min.stop_confidence, min.filter, max.stop_confidence, max.filter
    );
    let spread = max.stop_confidence - min.stop_confidence;
    println!("spread {spread:.4} — paper: 'varies substantially depending on which filter'");

    let rows: Vec<String> = points
        .iter()
        .map(|p| format!("{},{}", p.filter, p.stop_confidence))
        .chain(std::iter::once(format!(
            "baseline,{}",
            baseline.stop_confidence
        )))
        .collect();
    let path = write_csv("fig4_confidence.csv", "filter,stop_confidence", &rows);
    println!("wrote {}", path.display());
}
