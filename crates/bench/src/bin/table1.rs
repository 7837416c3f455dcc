//! **Table 1** — execution time of the reliable convolution (Algorithm 3)
//! over AlexNet conv-1 (96 filters, 11×11×3, 227×227×3 input), with
//! Algorithm-1 (plain) vs Algorithm-2 (redundant) multiplication, plus the
//! in-text reference points: native execution and the naïve SAX shape
//! determination.
//!
//! Paper numbers (Python, i9-9900): plain 301.91 s, redundant 648.87 s,
//! native TensorFlow 0.05 s, SAX 1.942 s. Absolute values differ in Rust;
//! the reproduction targets are the *ratios*: redundant/plain ≈ 2.15,
//! both ≫ native, SAX ≪ reliable conv.
//!
//! The three reliable rows run `reliable_partition`, the instantiation
//! `HybridCnn::classify` runs, in five interleaved Plain/DMR/TMR rounds;
//! each row is its mode's median round and each wall ratio the median of
//! the per-round ratios. Every configuration executes as a single-shard
//! `relcnn-runtime` run, so the measurement carries the engine's latency
//! counters; the per-run stats are appended to `results/table1_runs.jsonl`
//! for the perf trajectory.

use relcnn_bench::{quick_mode, results_dir, write_csv};
use relcnn_faults::NoFaults;
use relcnn_relexec::conv::{reliable_partition, ReliableConvConfig};
use relcnn_relexec::RedundancyMode;
use relcnn_runtime::{CollectSink, Engine, FnTrial, RunPlan, RunStats, TrialCtx};
use relcnn_sax::{SaxConfig, SaxEncoder};
use relcnn_tensor::conv::{im2col_into, ConvGeometry};
use relcnn_tensor::init::{Init, Rand};
use relcnn_tensor::ops::gemm_bias_into;
use relcnn_tensor::{Shape, Tensor};
use relcnn_vision::{radial, sobel, threshold};
use std::time::Duration;

/// Runs `f` once through the engine (one trial, one shard, one worker)
/// and returns its output with the run's latency counters.
fn timed<T: Send>(name: &str, f: impl Fn() -> T + Sync) -> (T, Duration, RunStats) {
    let outcome = Engine::with_workers(1).run(
        &RunPlan::new(1, 0).with_shards(1),
        &FnTrial::new(|_ctx: &mut TrialCtx| f()),
        CollectSink::new(),
    );
    let mut results = outcome.summary;
    let value = results.pop().unwrap_or_else(|| panic!("{name}: no result"));
    (value, outcome.stats.mean_trial, outcome.stats)
}

/// The median of an odd number of samples.
fn median<T: PartialOrd + Copy, const N: usize>(mut samples: [T; N]) -> T {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("comparable samples"));
    samples[N / 2]
}

fn main() {
    let quick = quick_mode();
    let (size, filters) = if quick { (64, 16) } else { (227, 96) };
    println!("== Table 1: reliable convolution of AlexNet conv-1 ==");
    println!(
        "input {size}x{size}x3, {filters} filters 11x11x3 stride 4{}",
        if quick { " (--quick scale)" } else { "" }
    );

    let mut rng = Rand::seeded(1);
    let input = rng.tensor(Shape::d3(3, size, size), Init::Uniform { lo: 0.0, hi: 1.0 });
    let weights = rng.tensor(
        Shape::d4(filters, 3, 11, 11),
        Init::HeNormal { fan_in: 363 },
    );
    let bias = Tensor::zeros(Shape::d1(filters));
    let geom = ConvGeometry::new(size, size, 11, 11, 4, 0).expect("valid geometry");
    let config = ReliableConvConfig::default();
    let macs = geom.mac_count(3, filters);
    println!("MAC count: {macs}");

    let mut run_log: Vec<String> = Vec::new();

    // Native (unprotected im2col + GEMM, the lowering inference runs) —
    // the paper's "0.05 s TensorFlow" line.
    let (native_out, native, stats) = timed("native", || {
        let (rows, positions) = (3 * 11 * 11, geom.positions());
        let mut cols = vec![0.0; rows * positions];
        im2col_into(input.as_slice(), 3, &geom, &mut cols).expect("native im2col");
        let mut out = vec![0.0; filters * positions];
        let (w, b) = (weights.as_slice(), bias.as_slice());
        gemm_bias_into(filters, rows, positions, w, &cols, b, &mut out).expect("native gemm");
        out
    });
    run_log.push(format!(
        "{{\"config\":\"native\",\"run\":{}}}",
        stats.to_json()
    ));

    // Algorithm 3 under each redundancy mode, as `classify` runs it:
    // `reliable_partition` without the ReLU stage, on a borrowed injector.
    // Plain is Algorithm 1, DMR Algorithm 2, and TMR the voting variant §IV
    // mentions, beyond Table 1's two columns. The modes run interleaved for
    // `ROUNDS` rounds, so host drift hits all three alike, and each row is
    // the mode's median round.
    const ROUNDS: usize = 5;
    let mut walls = [[Duration::ZERO; 3]; ROUNDS];
    let mut cycles = [0u64; 3];
    for (round, round_walls) in walls.iter_mut().enumerate() {
        for (m, mode) in RedundancyMode::ALL.into_iter().enumerate() {
            let name = format!("alg3_{mode}");
            let (out, wall, stats) = timed(&name, || {
                reliable_partition(
                    mode,
                    &input,
                    &weights,
                    Some(&bias),
                    &geom,
                    false,
                    &mut NoFaults::new(),
                    &config,
                )
                .unwrap_or_else(|e| panic!("{mode} reliable conv: {e}"))
            });
            // Sanity: every mode's output agrees with native.
            for (a, b) in native_out.iter().zip(out.output.iter()) {
                assert!((a - b).abs() < 1e-2, "{mode} deviates from native");
            }
            (round_walls[m], cycles[m]) = (wall, out.stats.cycles);
            run_log.push(format!(
                "{{\"config\":\"{name}\",\"round\":{round},\"run\":{}}}",
                stats.to_json()
            ));
        }
    }
    let [plain, dmr, tmr]: [Duration; 3] =
        std::array::from_fn(|m| median(walls.map(|round| round[m])));
    // The median over rounds of each round's mode/Plain wall ratio.
    let [_, ratio, tmr_ratio]: [f64; 3] = std::array::from_fn(|m| {
        median(walls.map(|round| round[m].as_secs_f64() / round[0].as_secs_f64()))
    });

    // The SAX qualifier reference (paper: naïve SAX completes in 1.942 s).
    let mut img = Tensor::zeros(Shape::d2(size, size));
    relcnn_vision::draw::fill_regular_polygon(
        &mut img,
        8,
        (size as f32 / 2.0, size as f32 / 2.0),
        size as f32 * 0.35,
        0.1,
        1.0,
    );
    let (word, sax_time, stats) = timed("sax", || {
        let edges = sobel::gradient_magnitude(&img).expect("edges");
        let mask = threshold::binarize(&edges, threshold::otsu_threshold(&edges));
        let sig = radial::radial_signature(&mask, 256).expect("signature");
        SaxEncoder::new(SaxConfig::default())
            .encode(sig.samples())
            .expect("sax word")
    });
    run_log.push(format!(
        "{{\"config\":\"sax\",\"run\":{}}}",
        stats.to_json()
    ));

    let rows = [
        ("native (unprotected im2col)", native, "0.05 s"),
        ("Algorithm 3 + Algorithm 1 (plain)", plain, "301.91 s"),
        ("Algorithm 3 + Algorithm 2 (DMR)", dmr, "648.87 s"),
        ("Algorithm 3 + TMR (voting)", tmr, "(not reported)"),
        ("SAX shape determination", sax_time, "1.942 s"),
    ];
    println!(
        "\n{:<38}{:>14}{:>18}",
        "configuration", "measured", "paper (Python)"
    );
    for (name, t, paper) in rows {
        println!("{:<38}{:>12.4?}{:>18}", name, t, paper);
    }
    // Hardware-model ratio from the ALUs' cycle accounting — the quantity
    // the paper's FPGA target exhibits ("in hardware, constant").
    let cycle_ratio = cycles[1] as f64 / cycles[0] as f64;
    let paper_ratio = 648.87 / 301.91;
    println!("\nredundant/plain ratio: wall-clock {ratio:.3}, cycle-model {cycle_ratio:.3}, paper {paper_ratio:.3}");
    println!(
        "TMR/plain ratio:       wall-clock {tmr_ratio:.3} (wall ratios: median of {ROUNDS} rounds)"
    );
    let ns_per_mac = |t: Duration| t.as_secs_f64() * 1e9 / macs as f64;
    println!(
        "ns per MAC: native {:.2}, plain {:.2}, DMR {:.2}, TMR {:.2}",
        ns_per_mac(native),
        ns_per_mac(plain),
        ns_per_mac(dmr),
        ns_per_mac(tmr)
    );
    println!(
        "  (the Rust wall-clock ratio is not the paper's: a plain qualified MAC\n\
         takes {:.2} ns against {:.2} ns native, and DMR adds {:.2} ns. In every\n\
         mode each accumulate waits on the previous one through a black_box\n\
         round trip, and the extra replicas run beside that chain. The\n\
         paper's Python pays ~1us per overloaded call, one after another, so\n\
         its ratio isolates the 2 muls + compare of Algorithm 2. The cycle\n\
         model prices the hardware operators the paper targets and lands in\n\
         the paper's band.)",
        ns_per_mac(plain),
        ns_per_mac(native),
        ns_per_mac(dmr) - ns_per_mac(plain)
    );
    println!(
        "plain/native ratio:    measured {:.1}x",
        plain.as_secs_f64() / native.as_secs_f64()
    );
    println!("SAX word: {word}");

    let csv_rows: Vec<String> = vec![
        format!("native,{}", native.as_secs_f64()),
        format!("alg3_plain,{}", plain.as_secs_f64()),
        format!("alg3_dmr,{}", dmr.as_secs_f64()),
        format!("alg3_tmr,{}", tmr.as_secs_f64()),
        format!("sax,{}", sax_time.as_secs_f64()),
        format!("dmr_over_plain_wall,{ratio}"),
        format!("dmr_over_plain_cycles,{cycle_ratio}"),
    ];
    let path = write_csv("table1.csv", "configuration,seconds", &csv_rows);
    println!("\nwrote {}", path.display());

    let jsonl_path = results_dir().join("table1_runs.jsonl");
    std::fs::write(&jsonl_path, run_log.join("\n") + "\n")
        .unwrap_or_else(|e| panic!("write {}: {e}", jsonl_path.display()));
    println!("wrote {}", jsonl_path.display());

    for (mode, r) in [("DMR", ratio), ("TMR", tmr_ratio)] {
        assert!(
            r > 1.1,
            "{mode} must cost measurably more than plain (median wall ratio {r})"
        );
    }
    assert!(
        (1.8..2.5).contains(&cycle_ratio),
        "cycle-model redundant/plain ratio {cycle_ratio} outside the Table-1 band"
    );
}
