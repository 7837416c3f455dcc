//! **X2 (in-text §III-B)** — pre-initialising one conv-1 filter to the
//! Sobel bank and keeping it constant during training.
//!
//! "In theory the training tool offers the ability to freeze a filter
//! during training. In practice, after every epoch or batch, the filter
//! values are minimally changed… It can be shown the filter undergoes
//! subtle changes in the intensity, statistical and spatial frequency
//! domains. The accuracy of the model is not affected whether the kernels
//! are replaced after training is completed or set before training has
//! begun and re-set after every epoch or batch."
//!
//! Reproduction: train under four freeze policies and report the final
//! accuracy plus the filter drift in the three domains the paper names.

use relcnn_bench::experiments::{pretrain_drift, trained_setup};
use relcnn_bench::write_csv;
use relcnn_gtsrb::SyntheticGtsrb;
use relcnn_nn::freeze::FreezePolicy;

pub fn run(quick: bool) {
    let (dataset_config, train_config) = trained_setup(quick, 121, 232);

    println!("== X2: pre-initialised Sobel filter, freeze-policy comparison ==");
    let data = SyntheticGtsrb::generate(&dataset_config).expect("dataset");

    let policies = [
        FreezePolicy::None,
        FreezePolicy::GradMask,
        FreezePolicy::PinEachEpoch,
        FreezePolicy::PinEachBatch,
    ];
    println!(
        "\n{:<16}{:>10}{:>12}{:>12}{:>12}{:>14}",
        "policy", "accuracy", "drift L2", "Δmean", "Δstd", "Δhigh-freq"
    );
    let mut rows = Vec::new();
    for policy in policies {
        let report =
            pretrain_drift(&data, policy, &train_config, 343).expect("pretrain experiment");
        println!(
            "{:<16}{:>10.4}{:>12.6}{:>12.6}{:>12.6}{:>14.6}",
            format!("{policy:?}"),
            report.accuracy,
            report.drift.l2,
            report.drift.mean_shift,
            report.drift.std_shift,
            report.drift.highfreq_shift
        );
        rows.push(format!(
            "{:?},{},{},{},{},{}",
            policy,
            report.accuracy,
            report.drift.l2,
            report.drift.mean_shift,
            report.drift.std_shift,
            report.drift.highfreq_shift
        ));
    }
    println!(
        "\npaper's observations reproduced when:\n\
         * GradMask drifts (the TensorFlow 'freeze' that is not a freeze);\n\
         * PinEachBatch/Epoch hold the filter bit-exact;\n\
         * accuracies agree to within noise ('accuracy … not affected')."
    );
    let path = write_csv(
        "pretrain_drift.csv",
        "policy,accuracy,l2,mean_shift,std_shift,highfreq_shift",
        &rows,
    );
    println!("wrote {}", path.display());
}
