//! End-to-end serving determinism on the real inference backend.
//!
//! The CI determinism matrix byte-diffs the `serving_artifact` binary
//! across worker counts and seeds; this test pins the same property
//! in-process at a smaller scale: a replay's outcomes — including the
//! CNN verdicts dispatched through `classify_many` — are bit-identical
//! across engine worker counts and reruns, with class mixes and the
//! AIMD controller in play.

use relcnn_faults::SkewedCost;
use relcnn_runtime::Engine;
use relcnn_serve::{
    BatchPolicy, CnnBackend, LoadGen, LoadGenConfig, Outcome, OverloadController, Server,
    ServerConfig, ServiceModel,
};

fn config() -> ServerConfig {
    ServerConfig::new(
        12,
        BatchPolicy::new(4, 800),
        ServiceModel {
            batch_overhead_us: 120,
            cost: SkewedCost::periodic(200, 2_400, 11),
        },
    )
}

#[test]
fn cnn_serving_replay_is_identical_across_worker_counts() {
    let trace = LoadGen::new(LoadGenConfig::poisson(48, 0x5EED, 250, 9_000)).generate();
    let backend = CnnBackend::tiny(33).expect("tiny backend");
    let engine = Engine::with_workers(1);
    let reference = Server::new(config())
        .backend(&backend)
        .engine(&engine)
        .run(&trace);
    assert!(reference.report.conserved());
    assert!(reference.report.completed > 0);
    // The engine really ran the batches.
    assert_eq!(reference.dispatch.images, reference.report.completed);
    assert_eq!(reference.dispatch.engine_batches, reference.report.batches);
    assert_eq!(
        reference.dispatch.inference_ns.count(),
        reference.report.completed
    );

    for workers in [2, 8] {
        let engine = Engine::with_workers(workers);
        let run = Server::new(config())
            .backend(&backend)
            .engine(&engine)
            .run(&trace);
        assert_eq!(run.report, reference.report, "workers={workers}");
        assert_eq!(run.outcomes.len(), reference.outcomes.len());
        for (a, b) in run.outcomes.iter().zip(&reference.outcomes) {
            match (a, b) {
                (
                    Outcome::Completed {
                        batch: ba,
                        latency_us: la,
                        late: za,
                        verdict: va,
                    },
                    Outcome::Completed {
                        batch: bb,
                        latency_us: lb,
                        late: zb,
                        verdict: vb,
                    },
                ) => {
                    assert_eq!((ba, la, za), (bb, lb, zb), "workers={workers}");
                    // Verdict equality includes raw confidence bits.
                    assert_eq!(va, vb, "workers={workers}");
                }
                (x, y) => assert_eq!(x, y, "workers={workers}"),
            }
        }
    }
}

#[test]
fn burst_arrivals_shed_and_expire_deterministically() {
    let trace = LoadGen::new(LoadGenConfig::burst(60, 0xB0B, 20, 5, 30_000, 4_000)).generate();
    let backend = CnnBackend::tiny(34).expect("tiny backend");
    let a = Server::new(config()).backend(&backend).run(&trace);
    let engine = Engine::with_workers(4);
    let b = Server::new(config())
        .backend(&backend)
        .engine(&engine)
        .run(&trace);
    assert_eq!(a.report, b.report);
    assert!(
        a.report.shed > 0,
        "a 20-deep burst into a 12-slot queue must shed: {:?}",
        a.report
    );
}

#[test]
fn classed_controlled_replay_is_identical_across_worker_counts() {
    // The full production shape: three-class mix with per-class SLOs, a
    // critical reservation, tightened critical window and the AIMD
    // controller — still a pure function of (trace, config).
    let trace = LoadGen::new(
        LoadGenConfig::burst(96, 0xC1A5, 16, 10, 12_000, 9_000)
            .with_class_mix([1, 2, 2])
            .with_class_deadlines([2_500, 0, 40_000]),
    )
    .generate();
    let backend = CnnBackend::tiny(35).expect("tiny backend");
    let config = config().with_critical_reserve(3).with_control();
    let engine = Engine::with_workers(1);
    let reference = Server::new(config)
        .backend(&backend)
        .engine(&engine)
        .run(&trace);
    assert!(reference.report.conserved());
    assert!(
        reference.report.shed > 0,
        "burst pressure should shed: {:?}",
        reference.report
    );
    assert!(!reference.control.is_empty());
    // Controller purity: the recorded decisions replay bit-identically.
    let replayed = OverloadController::replay(
        config.queue_capacity,
        config.critical_reserve,
        &reference.control,
    );
    assert_eq!(replayed, reference.control);

    for workers in [2, 8] {
        let engine = Engine::with_workers(workers);
        let run = Server::new(config)
            .backend(&backend)
            .engine(&engine)
            .run(&trace);
        assert_eq!(run.report, reference.report, "workers={workers}");
        assert_eq!(run.outcomes, reference.outcomes, "workers={workers}");
        assert_eq!(run.control, reference.control, "workers={workers}");
        // The JSON rendering (the CI byte-diff surface) agrees too.
        assert_eq!(run.report.to_json(), reference.report.to_json());
    }
}
