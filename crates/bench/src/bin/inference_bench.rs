//! Per-image inference-latency benchmark: emits
//! `results/inference_latency.json`.
//!
//! Runs the scaled AlexNet (the serving model: 8 classes, 96×96 RGB)
//! over a fixed pool of synthetic images in a dedicated steady-state
//! loop and times every single `forward_scratch` pass through one warmed
//! `InferScratch` arena, reporting exact sorted percentiles.
//!
//! The pre-arena allocating kernels this path replaced no longer exist
//! as live code — `forward(.., Mode::Eval)` runs the same `infer` bodies
//! — so their numbers are **historical**: `alloc_p50/p95/p99_us` and the
//! two `speedup_*` ratios are copied through from
//! `results/baseline/inference_latency.json` (measured once, on the
//! commit that introduced the arena) under a `"historical"` object, not
//! re-measured.
//!
//! Measurement discipline: each recorded sample is the best of
//! [`TRIES`] back-to-back passes — scheduler preemptions on a shared
//! core are filtered out while systematic per-image costs survive the
//! min. `bench_gate` holds `scratch_p99_us` to the committed baseline
//! and the arena to warm-up-only growth.
//!
//! `--quick` (or `RELCNN_QUICK=1`) runs a quarter of the rounds for
//! smoke coverage and skips the artefact write so the gated file is
//! never clobbered by a smoke run.

use relcnn_nn::{alexnet, InferScratch, Network};
use relcnn_tensor::init::{Init, Rand};
use relcnn_tensor::{Shape, Tensor};
use serde::Deserialize;
use std::time::Instant;

const CLASSES: usize = 8;
const IMAGE_PX: usize = 96;
const IMAGES: usize = 12;
const ROUNDS: usize = 24;
const TRIES: usize = 3;
const NET_SEED: u64 = 0x1FE7;
const IMAGE_SEED: u64 = 9_000;

/// Exact percentile over a sorted sample: nearest-rank on the
/// (n-1)-scaled index, no interpolation — small sample sets stay honest.
fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    assert!(!sorted_ns.is_empty(), "empty sample set");
    let idx = ((p / 100.0) * (sorted_ns.len() - 1) as f64).round() as usize;
    sorted_ns[idx] as f64 / 1_000.0
}

fn images(count: usize) -> Vec<Tensor> {
    (0..count)
        .map(|i| {
            let mut r = Rand::seeded(IMAGE_SEED + i as u64);
            r.tensor(
                Shape::d3(3, IMAGE_PX, IMAGE_PX),
                Init::Uniform { lo: -1.0, hi: 1.0 },
            )
        })
        .collect()
}

/// The frozen allocating-leg numbers, as the committed baseline carries
/// them: flat in the original artefact, nested once a fresh artefact has
/// been promoted to baseline.
#[derive(Deserialize)]
struct Historical {
    alloc_p50_us: f64,
    alloc_p95_us: f64,
    alloc_p99_us: f64,
    speedup_p50: f64,
    speedup_p99: f64,
}

#[derive(Deserialize)]
struct Promoted {
    historical: Historical,
}

fn historical() -> Historical {
    let path = relcnn_bench::results_dir()
        .join("baseline")
        .join("inference_latency.json");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    serde_json::from_str::<Promoted>(&text)
        .map(|p| p.historical)
        .or_else(|_| serde_json::from_str(&text))
        .unwrap_or_else(|e| panic!("{}: no historical alloc numbers: {e}", path.display()))
}

/// One timed sample: best of [`TRIES`] passes through the warmed arena.
fn scratch_sample(net: &Network, img: &Tensor, arena: &mut InferScratch) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..TRIES {
        let t0 = Instant::now();
        net.forward_scratch(img, arena)
            .unwrap_or_else(|e| panic!("scratch forward: {e}"));
        best = best.min(t0.elapsed().as_nanos() as u64);
    }
    best
}

fn main() {
    let rounds = if relcnn_bench::quick_mode() {
        (ROUNDS / 4).max(1)
    } else {
        ROUNDS
    };
    let pool = images(IMAGES);

    let mut rng = Rand::seeded(NET_SEED);
    let net = alexnet::alexnet_gtsrb(CLASSES, IMAGE_PX, &mut rng)
        .unwrap_or_else(|e| panic!("network: {e}"));

    // Warmup: size the arena and fault in the working set.
    let mut arena = InferScratch::new();
    for img in &pool {
        net.forward_scratch(img, &mut arena)
            .unwrap_or_else(|e| panic!("warmup scratch: {e}"));
    }
    let grow_events = arena.grow_events();

    let mut scratch_ns = Vec::with_capacity(rounds * pool.len());
    for _ in 0..rounds {
        for img in &pool {
            scratch_ns.push(scratch_sample(&net, img, &mut arena));
        }
    }
    assert_eq!(
        arena.grow_events(),
        grow_events,
        "arena regrew after warmup"
    );
    scratch_ns.sort_unstable();

    let (s50, s95, s99) = (
        percentile_us(&scratch_ns, 50.0),
        percentile_us(&scratch_ns, 95.0),
        percentile_us(&scratch_ns, 99.0),
    );
    let samples = scratch_ns.len();
    let Historical {
        alloc_p50_us: a50,
        alloc_p95_us: a95,
        alloc_p99_us: a99,
        speedup_p50,
        speedup_p99,
    } = historical();

    let json = format!(
        "{{\n  \"bench\": \"inference_latency\",\n  \"classes\": {CLASSES},\n  \
         \"image_px\": {IMAGE_PX},\n  \"images\": {IMAGES},\n  \"rounds\": {rounds},\n  \
         \"tries_per_sample\": {TRIES},\n  \"samples\": {samples},\n  \
         \"scratch_p50_us\": {s50:.3},\n  \"scratch_p95_us\": {s95:.3},\n  \
         \"scratch_p99_us\": {s99:.3},\n  \"arena_grow_events\": {grow_events},\n  \
         \"historical\": {{\n    \"alloc_p50_us\": {a50:.3},\n    \
         \"alloc_p95_us\": {a95:.3},\n    \"alloc_p99_us\": {a99:.3},\n    \
         \"speedup_p50\": {speedup_p50:.3},\n    \"speedup_p99\": {speedup_p99:.3}\n  }}\n}}\n"
    );

    let path = relcnn_bench::results_dir().join("inference_latency.json");
    // The quick smoke run must not clobber the gated full-scale artefact.
    if relcnn_bench::quick_mode() {
        println!("quick mode: skipping write of {}", path.display());
    } else {
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }
    println!(
        "inference: {samples} samples over {IMAGES} images x {rounds} rounds \
         (best of {TRIES} passes each); \
         scratch p50/p95/p99 {s50:.0}/{s95:.0}/{s99:.0} us; \
         {grow_events} arena grow events (warmup only); \
         historical alloc p50/p99 {a50:.0}/{a99:.0} us \
         (speedup p50 {speedup_p50:.2}x p99 {speedup_p99:.2}x when measured)"
    );
}
