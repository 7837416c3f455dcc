//! **X3** — leaky-bucket dynamics (Algorithm 3's error counter).
//!
//! The paper: "a stream of correctly executed operations will cancel one,
//! but not two successive errors" and "we can subsequently adjust the
//! number of errors required to report an error condition serious enough
//! to consider the application irrecoverable."
//!
//! This experiment measures availability (fraction of convolution runs that
//! complete) under scripted fault patterns across bucket configurations,
//! making the factor/ceiling trade-off the paper alludes to concrete. The
//! `pattern × bucket` grid is embarrassingly parallel, so the cells run as
//! one `relcnn-runtime` engine batch (results stay in deterministic grid
//! order regardless of worker count).

use relcnn_bench::write_csv;
use relcnn_faults::{bits, FaultSite, ScriptedFault, ScriptedInjector};
use relcnn_relexec::conv::{reliable_partition, ReliableConvConfig};
use relcnn_relexec::{BucketConfig, RedundancyMode, RetryPolicy};
use relcnn_runtime::{CollectSink, Engine, FnTrial, RunPlan, TrialCtx};
use relcnn_tensor::conv::ConvGeometry;
use relcnn_tensor::init::{Init, Rand};
use relcnn_tensor::Shape;

/// Fault patterns exercised against each bucket configuration.
fn patterns() -> Vec<(&'static str, Vec<ScriptedFault>)> {
    let flip = |op: u64| {
        ScriptedFault::transient_flip(op, bits::SIGN_BIT)
            .on_replica(1)
            .at_site(FaultSite::Multiplier)
    };
    vec![
        ("clean", vec![]),
        ("single transient", vec![flip(100)]),
        ("two isolated", vec![flip(100), flip(500)]),
        (
            "burst of 2 (adjacent ops)",
            vec![
                flip(100),
                ScriptedFault::transient_flip(101, bits::SIGN_BIT)
                    .on_replica(1)
                    .at_site(FaultSite::Accumulator),
            ],
        ),
        (
            "burst of 3",
            vec![
                flip(100),
                ScriptedFault::transient_flip(101, bits::SIGN_BIT)
                    .on_replica(1)
                    .at_site(FaultSite::Accumulator),
                flip(102),
            ],
        ),
        ("permanent", vec![flip(100).permanent()]),
    ]
}

pub fn run() {
    println!("== X3: leaky-bucket dynamics and availability ==");
    let mut rng = Rand::seeded(3);
    let input = rng.tensor(Shape::d3(2, 12, 12), Init::Uniform { lo: -1.0, hi: 1.0 });
    let weights = rng.tensor(Shape::d4(4, 2, 3, 3), Init::HeNormal { fan_in: 18 });
    let geom = ConvGeometry::new(12, 12, 3, 3, 1, 0).expect("geometry");

    let bucket_configs = [
        ("paper (f=2,c=3)", BucketConfig::new(2, 3)),
        ("lenient (f=1,c=4)", BucketConfig::new(1, 4)),
        ("strict (f=3,c=3)", BucketConfig::new(3, 3)),
        ("tolerant (f=1,c=16)", BucketConfig::new(1, 16)),
    ];
    let patterns = patterns();
    let cells = patterns.len() * bucket_configs.len();

    // One engine trial per grid cell; one shard per cell keeps the
    // schedule maximally parallel while the collected output stays in
    // grid order.
    let outcome = Engine::default().run(
        &RunPlan::new(cells as u64, 0).with_shards(cells),
        &FnTrial::new(|ctx: &mut TrialCtx| {
            let cell = ctx.index as usize;
            let (_, faults) = &patterns[cell / bucket_configs.len()];
            let (_, bucket) = bucket_configs[cell % bucket_configs.len()];
            let config = ReliableConvConfig {
                bucket,
                retry: RetryPolicy::paper(),
                pe_count: 8,
            };
            // `false`: the convolution alone, no ReLU stage.
            let result = reliable_partition(
                RedundancyMode::Dmr,
                &input,
                &weights,
                None,
                &geom,
                false,
                &mut ScriptedInjector::new(faults.clone()),
                &config,
            );
            match &result {
                Ok(out) => (true, out.stats.retries, out.stats.recovered),
                Err(_) => (false, 0, 0),
            }
        }),
        CollectSink::new(),
    );

    println!(
        "\n{:<28}{:<22}{:>10}{:>10}{:>10}",
        "fault pattern", "bucket", "completed", "retries", "recovered"
    );
    let mut rows = Vec::new();
    for (cell, (completed, retries, recovered)) in outcome.summary.into_iter().enumerate() {
        let (pattern_name, _) = &patterns[cell / bucket_configs.len()];
        let (bucket_name, _) = bucket_configs[cell % bucket_configs.len()];
        println!(
            "{:<28}{:<22}{:>10}{:>10}{:>10}",
            pattern_name,
            bucket_name,
            if completed { "yes" } else { "ABORT" },
            retries,
            recovered
        );
        rows.push(format!(
            "{pattern_name},{bucket_name},{completed},{retries},{recovered}"
        ));
    }
    println!(
        "\nexpectations (paper bucket f=2,c=3):\n\
         * single transients and isolated pairs recovered by one-op rollback;\n\
         * adjacent bursts and permanent faults reported as persistent;\n\
         * tolerant buckets trade detection latency for availability.\n\
         grid of {cells} cells in {:?} ({:.0} cells/s across {} workers)",
        outcome.stats.wall, outcome.stats.throughput, outcome.stats.workers
    );
    let path = write_csv(
        "bucket_dynamics.csv",
        "pattern,bucket,completed,retries,recovered",
        &rows,
    );
    println!("wrote {}", path.display());
}
