//! Proves the arena claim mechanically: after a warmup image has sized
//! the scratch buffers, steady-state
//! inference through `Network::forward_scratch` performs **zero heap
//! allocations per image**.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the test
//! runs ≥3 batches through one worker's arena and asserts the allocation
//! counter does not move. This file deliberately contains a single test:
//! the harness runs tests in one process, and a sibling test allocating
//! on another thread would poison the counter.

use relcnn_nn::scratch::InferScratch;
use relcnn_nn::{alexnet, Mode};
use relcnn_tensor::init::{Init, Rand};
use relcnn_tensor::{Shape, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// System allocator with an allocation-event counter. `dealloc` is not
/// counted: the invariant under test is "no new memory is requested",
/// and frees of warmup memory would only ever happen alongside a
/// matching (counted) allocation.
struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_inference_allocates_nothing() {
    // The serving model: the scaled AlexNet over 96×96 RGB images.
    let mut rng = Rand::seeded(42);
    let mut net = alexnet::alexnet_gtsrb(8, 96, &mut rng).expect("network");
    let images: Vec<Tensor> = (0..4)
        .map(|i| {
            let mut r = Rand::seeded(1000 + i);
            r.tensor(Shape::d3(3, 96, 96), Init::Uniform { lo: -1.0, hi: 1.0 })
        })
        .collect();

    // Reference logits through the allocating path (before warmup so its
    // allocations stay outside the measured window).
    let oracles: Vec<Tensor> = images
        .iter()
        .map(|img| net.forward(img, Mode::Eval).expect("oracle forward"))
        .collect();

    // Warmup: one batch sizes the arena.
    let mut arena = InferScratch::new();
    for img in &images {
        net.forward_scratch(img, &mut arena).expect("warmup");
    }
    let warmed_grows = arena.grow_events();
    assert!(warmed_grows > 0, "warmup sized the arena");

    // Steady state: ≥3 batches through the same worker's scratch.
    let before = ALLOCS.load(Ordering::Relaxed);
    for batch in 0..3 {
        for (img, oracle) in images.iter().zip(&oracles) {
            net.forward_scratch(img, &mut arena).expect("steady state");
            // Output checked against the oracle bits — allocation-free
            // AND still correct, batch after batch.
            let out = arena.front().as_slice();
            assert_eq!(out.len(), oracle.len(), "batch {batch}");
            for (a, b) in out.iter().zip(oracle.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "batch {batch}");
            }
        }
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        delta, 0,
        "steady-state inference performed {delta} heap allocations over 3 batches"
    );
    assert_eq!(
        arena.grow_events(),
        warmed_grows,
        "arena never regrew after warmup"
    );
}
