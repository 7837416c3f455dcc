//! Wall-clock serving smoke: the CI leg that proves the real-time
//! front-end is production-shaped *and* oracle-checked.
//!
//! Two halves, one fixed three-class trace:
//!
//! 1. **Wall run** — the `Server` builder with a [`WallClock`] under a
//!    hard budget replays the trace in real time (producer thread paces
//!    arrivals on `Instant`, batcher waits out adaptive windows, AIMD
//!    controller clamps admission live). Wall timing is physics, so the
//!    checks are the invariants physics can't excuse: per-class and
//!    aggregate conservation, the critical reservation surviving every
//!    clamp, and **controller purity** — the decision log recorded
//!    against wall observations must replay bit-identically through a
//!    fresh [`OverloadController`].
//! 2. **Virtual oracle** — the same trace and config on the virtual
//!    clock at engine workers {1, 2, 8}: reports, outcomes and control
//!    logs must be byte-identical across worker counts, and the wall
//!    run's per-class offered populations must match the oracle's (the
//!    trace structure is clock-independent).
//!
//! Exits non-zero (panics) on any violation. `--quick` shrinks the
//! trace. The wall budget (60 s by default, `RELCNN_WALL_BUDGET_US`
//! microseconds when set) bounds CI wall time: a hung front-end trips
//! the budget panic instead of timing out the job.

use relcnn_faults::SkewedCost;
use relcnn_runtime::Engine;
use relcnn_serve::{
    BatchPolicy, ControllerConfig, LoadGen, LoadGenConfig, OverloadController, RequestClass,
    Server, ServerConfig, ServiceModel, WallClock,
};

const SEED: u64 = 0x3A11;

fn server_config() -> ServerConfig {
    ServerConfig::new(
        16,
        BatchPolicy::new(6, 1_500).with_critical_delay(300),
        ServiceModel {
            batch_overhead_us: 150,
            // Heavy-tail service against a ~300 µs arrival gap: the wall
            // run genuinely overloads, so shedding, AIMD clamps and
            // early-closed windows all appear.
            cost: SkewedCost::periodic(250, 2_500, 11),
        },
    )
    .with_critical_reserve(3)
    .with_control(ControllerConfig::default())
}

fn trace(requests: u64) -> Vec<relcnn_serve::Request> {
    LoadGen::new(
        LoadGenConfig::burst(requests, SEED, 20, 16, 6_000, 18_000)
            .with_class_mix([1, 2, 2])
            .with_class_deadlines([3_000, 0, 45_000]),
    )
    .generate()
}

fn main() {
    let requests = if relcnn_bench::quick_mode() { 120 } else { 360 };
    let trace = trace(requests);
    let config = server_config();
    let backend = relcnn_bench::workload::cnn_backend();

    // --- 1. wall run under a hard budget ----------------------------
    let wall = Server::new(config)
        .backend(&backend)
        .clock(WallClock::with_budget(relcnn_bench::wall_budget_us()))
        .run(&trace);
    let report = &wall.report;
    println!(
        "wall run: {} offered -> {} completed ({} late), {} shed, {} expired, \
         {} batches, {} clamps (min cap {}), {} early closes, makespan {:.1} ms",
        report.offered,
        report.completed,
        report.late,
        report.shed,
        report.expired(),
        report.batches,
        report.aimd_clamps,
        report.min_admit_cap,
        report.early_closes,
        report.makespan_us as f64 / 1e3,
    );
    assert!(report.conserved(), "wall conservation broke: {report:?}");
    assert_eq!(report.offered, requests);
    for class in RequestClass::ALL {
        let c = report.class(class);
        assert_eq!(
            c.offered,
            c.completed + c.shed + c.expired,
            "wall class {} leaked: {c:?}",
            class.label()
        );
        println!(
            "  class {:<12} offered {:>4} completed {:>4} shed {:>4} expired {:>3} late {:>3}",
            class.label(),
            c.offered,
            c.completed,
            c.shed,
            c.expired,
            c.late,
        );
    }
    // The AIMD floor: however hard physics pushed, the cap never dropped
    // below the critical reservation.
    assert!(
        report.min_admit_cap >= config.critical_reserve as u64,
        "cap {} fell below the reservation {}",
        report.min_admit_cap,
        config.critical_reserve
    );
    // Controller purity: wall-observed decisions replay bit-identically.
    let replayed = OverloadController::replay(
        ControllerConfig::default(),
        config.queue_capacity,
        config.critical_reserve,
        &wall.control,
    );
    assert_eq!(
        replayed, wall.control,
        "wall controller decisions are not a pure function of observations"
    );
    assert_eq!(wall.control.len() as u64, report.batches);
    println!(
        "wall controller: {} decisions replayed bit-identically",
        wall.control.len()
    );

    // --- 2. virtual oracle across worker counts ---------------------
    let engine = Engine::with_workers(1);
    let reference = Server::new(config)
        .backend(&backend)
        .engine(&engine)
        .run(&trace);
    assert!(reference.report.conserved());
    assert!(
        reference.report.shed > 0,
        "the oracle trace should overload: {:?}",
        reference.report
    );
    for workers in [2, 8] {
        let engine = Engine::with_workers(workers);
        let run = Server::new(config)
            .backend(&backend)
            .engine(&engine)
            .run(&trace);
        assert_eq!(
            run.report.to_json(),
            reference.report.to_json(),
            "virtual replay diverged at workers={workers}"
        );
        assert_eq!(run.outcomes, reference.outcomes, "workers={workers}");
        assert_eq!(run.control, reference.control, "workers={workers}");
    }
    println!(
        "virtual oracle: byte-identical at workers {{1, 2, 8}} \
         ({} completed, {} shed, {} control decisions)",
        reference.report.completed,
        reference.report.shed,
        reference.control.len()
    );
    // The trace structure is clock-independent: wall and virtual agree
    // exactly on how many requests of each class were offered.
    for class in RequestClass::ALL {
        assert_eq!(
            report.class(class).offered,
            reference.report.class(class).offered,
            "class {} population differs between clocks",
            class.label()
        );
    }
    println!("wall_smoke: OK — conservation, purity and oracle identity all hold");
}
