//! **X1 (in-text §III-B)** — "We compare both the confusion matrices of
//! the original and replaced filters and the accuracy and note no
//! substantial difference in classification accuracy."
//!
//! Trains the scaled AlexNet, replaces conv-1 filter 0 with the Sobel
//! bank, and prints both confusion matrices plus the accuracy delta.

use relcnn_bench::experiments::{confusion_compare, train_gtsrb_model, trained_setup};
use relcnn_bench::write_csv;
use relcnn_gtsrb::SyntheticGtsrb;

pub fn run(quick: bool) {
    let (dataset_config, train_config) = trained_setup(quick, 111, 222);

    println!("== X1: confusion matrices, original vs Sobel-replaced filter 0 ==");
    let data = SyntheticGtsrb::generate(&dataset_config).expect("dataset");
    let (mut net, _) = train_gtsrb_model(&data, &train_config, 333).expect("training");
    let cmp = confusion_compare(&mut net, &data).expect("comparison");

    println!("\n-- original --\n{}", cmp.original);
    println!("\n-- filter 0 replaced by Sobel bank --\n{}", cmp.replaced);
    println!(
        "\naccuracy delta: {:+.4} (paper: 'no substantial difference')",
        cmp.accuracy_delta
    );
    println!(
        "matrix distance (element-wise |diff| sum): {}",
        cmp.matrix_distance
    );

    let rows = vec![
        format!("original,{}", cmp.original.accuracy()),
        format!("replaced,{}", cmp.replaced.accuracy()),
        format!("delta,{}", cmp.accuracy_delta),
        format!("matrix_distance,{}", cmp.matrix_distance),
    ];
    let path = write_csv("confusion_compare.csv", "metric,value", &rows);
    println!("wrote {}", path.display());
}
