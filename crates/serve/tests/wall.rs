//! In-process checks of the threaded wall-clock front-end.
//!
//! Wall timing is physics, so these tests assert the properties that
//! survive nondeterminism: per-class conservation, controller-decision
//! purity, agreement with the virtual oracle on trace structure, a live
//! scrape of the run's registry over TCP, and the hard wall budget.

use relcnn_faults::SkewedCost;
use relcnn_obs::{scrape_once, Registry, ScrapeServer};
use relcnn_runtime::Engine;
use relcnn_serve::{
    BatchPolicy, EchoBackend, LoadGen, LoadGenConfig, OverloadController, RequestClass, Server,
    ServerConfig, ServiceModel, WallClock,
};
use std::time::{Duration, Instant};

/// ~120 ms of three-class traffic that decisively outruns the modeled
/// accelerator (≈800 µs per request vs ≈300 µs between arrivals).
fn overload_trace() -> Vec<relcnn_serve::Request> {
    LoadGen::new(
        LoadGenConfig::burst(400, 0x3A11, 24, 20, 8_000, 20_000)
            .with_class_mix([1, 2, 2])
            .with_class_deadlines([4_000, 0, 60_000]),
    )
    .generate()
}

fn overload_config() -> ServerConfig {
    ServerConfig::new(
        16,
        BatchPolicy::new(4, 1_500).with_critical_delay(300),
        ServiceModel {
            batch_overhead_us: 200,
            cost: SkewedCost::uniform(800),
        },
    )
    .with_critical_reserve(3)
    .with_control()
}

#[test]
fn wall_overload_conserves_per_class_and_replays_controller_decisions() {
    let trace = overload_trace();
    let config = overload_config();
    let run = Server::new(config)
        .backend(&EchoBackend)
        .clock(WallClock::with_budget(30_000_000))
        .run(&trace);
    // Conservation, per class and aggregate — physics cannot excuse a
    // lost request.
    assert!(run.report.conserved(), "{:?}", run.report);
    assert_eq!(run.report.offered, 400);
    for class in RequestClass::ALL {
        let c = run.report.class(class);
        assert!(c.offered > 0, "{class:?} never drawn");
        assert_eq!(
            c.offered,
            c.completed + c.shed + c.expired,
            "{class:?} leaked: {c:?}"
        );
    }
    // This arrival rate genuinely overloads the modeled accelerator.
    assert!(run.report.shed > 0, "{:?}", run.report);
    assert!(run.report.aimd_clamps > 0, "{:?}", run.report);
    assert!(run.report.min_admit_cap < 16, "{:?}", run.report);
    // AIMD never clamped away the critical reservation.
    assert!(run.report.min_admit_cap >= 3, "{:?}", run.report);
    // Controller purity: wall-observed decisions replay bit-identically
    // through a fresh controller — the wall run's determinism oracle.
    let replayed =
        OverloadController::replay(config.queue_capacity, config.critical_reserve, &run.control);
    assert_eq!(replayed, run.control, "controller decisions must be pure");
    assert_eq!(run.control.len() as u64, run.report.batches);
}

#[test]
fn wall_run_agrees_with_the_virtual_oracle_on_structure() {
    let trace = overload_trace();
    let config = overload_config();
    // The virtual oracle: same trace, same config, byte-identical
    // across engine worker counts.
    let engine1 = Engine::with_workers(1);
    let virtual_ref = Server::new(config)
        .backend(&EchoBackend)
        .engine(&engine1)
        .run(&trace);
    let engine2 = Engine::with_workers(2);
    let virtual_again = Server::new(config)
        .backend(&EchoBackend)
        .engine(&engine2)
        .run(&trace);
    assert_eq!(virtual_ref.report.to_json(), virtual_again.report.to_json());
    assert_eq!(virtual_ref.outcomes, virtual_again.outcomes);

    let wall = Server::new(config)
        .backend(&EchoBackend)
        .clock(WallClock::with_budget(30_000_000))
        .run(&trace);
    // Same trace structure on both axes: per-class offered populations
    // are a trace property and must agree exactly.
    assert_eq!(wall.report.offered, virtual_ref.report.offered);
    for class in RequestClass::ALL {
        assert_eq!(
            wall.report.class(class).offered,
            virtual_ref.report.class(class).offered,
            "{class:?} population differs between axes"
        );
    }
    // Both conserve; both see overload at this arrival rate.
    assert!(wall.report.conserved());
    assert!(virtual_ref.report.conserved());
    assert!(virtual_ref.report.shed > 0);
}

#[test]
fn observed_wall_run_is_scraped_live_over_tcp() {
    let trace =
        LoadGen::new(LoadGenConfig::poisson(600, 9, 500, 100_000).with_class_mix([1, 4, 3]))
            .generate();
    let config = ServerConfig::new(
        32,
        BatchPolicy::new(8, 2_000),
        ServiceModel {
            batch_overhead_us: 100,
            cost: SkewedCost::uniform(300),
        },
    );
    // The caller owns the endpoint: serve the registry the run publishes
    // on over an ephemeral port.
    let registry = Registry::new();
    let scrape = ScrapeServer::bind("127.0.0.1:0", registry.clone()).expect("bind scrape port");
    let server_registry = registry.clone();
    let handle = std::thread::spawn(move || {
        Server::new(config)
            .backend(&EchoBackend)
            .observed(&server_registry)
            .clock(WallClock::with_budget(30_000_000))
            .run(&trace)
    });
    // Scrape until the page shows traffic: the run is live.
    let deadline = Instant::now() + Duration::from_secs(10);
    let parsed = loop {
        let (status, page) = scrape_once(scrape.addr(), "/metrics").expect("mid-run scrape");
        assert!(status.contains("200"), "{status}");
        let parsed = relcnn_obs::parse::validate(&page).expect("valid exposition");
        if parsed.sum("relcnn_serve_requests_offered_total") > 0.0 {
            break parsed;
        }
        assert!(Instant::now() < deadline, "no traffic on the page:\n{page}");
        std::thread::sleep(Duration::from_millis(1));
    };
    assert!(parsed.has("relcnn_serve_queue_capacity"));
    assert_eq!(
        parsed.label_values("relcnn_serve_requests_offered_total", "class"),
        vec!["bulk", "critical", "interactive"],
        "per-class series exported live"
    );
    let run = handle.join().expect("wall run");
    assert!(run.report.conserved());
    // The final page, off the wire, tells the same conservation story.
    let (_, page) = scrape_once(scrape.addr(), "/metrics").expect("final scrape");
    scrape.shutdown();
    let parsed = relcnn_obs::parse::validate(&page).expect("final page");
    assert_eq!(
        parsed.sum("relcnn_serve_requests_offered_total"),
        run.report.offered as f64
    );
    assert_eq!(
        parsed.sum("relcnn_serve_requests_shed_total")
            + parsed.sum("relcnn_serve_requests_expired_total")
            + parsed.sum("relcnn_serve_requests_completed_total"),
        run.report.offered as f64,
        "off-the-wire conservation"
    );
}

#[test]
#[should_panic(expected = "exceeded its hard budget")]
fn wall_budget_guards_against_hung_runs() {
    // One request arriving at t = 200 ms against a 50 ms budget: the
    // batcher's idle loop must trip the guard instead of waiting.
    let trace = LoadGen::new(LoadGenConfig::poisson(1, 1, 200_000, 10_000)).generate();
    Server::new(ServerConfig::new(
        4,
        BatchPolicy::new(2, 1_000),
        ServiceModel {
            batch_overhead_us: 10,
            cost: SkewedCost::uniform(10),
        },
    ))
    .backend(&EchoBackend)
    .clock(WallClock::with_budget(50_000))
    .run(&trace);
}
