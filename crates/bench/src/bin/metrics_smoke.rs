//! Live metrics-plane smoke: scrapes `/metrics` off runs *in flight*.
//!
//! The CI-facing proof that the observability acceptance criteria hold
//! end to end, with no mocks anywhere:
//!
//! 1. binds the vendored [`ScrapeServer`] on an ephemeral loopback port,
//!    backed by one shared registry;
//! 2. runs an observed **campaign** on a background thread, polls
//!    [`Engine::stats_snapshot`] until the run is provably in flight,
//!    and scrapes mid-run — the page must be valid Prometheus text and
//!    must already carry engine worker/trial/reorder series;
//! 3. runs an observed **serving replay** (three-class mix, real
//!    hybrid-CNN inference on the same observed engine, via the `Server`
//!    builder) on a background thread and scrapes once admission traffic
//!    is visible — the page must carry one `class`-labeled series per
//!    priority lane;
//! 4. after both runs complete, scrapes a final page and asserts the
//!    admission conservation identity (`offered == shed + expired +
//!    dispatched`, summed across class series) and the
//!    dispatch/completion agreement straight off the exposition text,
//!    using the same parser CI uses;
//! 5. runs a **wall-clock front-end** (`WallClock` + `observed`): the
//!    front-end binds its own scrape endpoint by default, announces it
//!    through `scrape_notify`, and this smoke scrapes it live mid-run,
//!    then checks off-the-wire conservation when the run drains.
//!
//! Exits non-zero (panics) on any violation. `--quick` shrinks the
//! workloads.

use relcnn_bench::workload::{bench_load, bench_server, cnn_backend, BENCH_REQUESTS};
use relcnn_faults::SkewedCost;
use relcnn_obs::{scrape_once, Registry, ScrapeServer};
use relcnn_runtime::{CollectSink, Engine, FnTrial, RunPlan, TrialCtx};
use relcnn_serve::{
    BatchPolicy, ControllerConfig, LoadGen, LoadGenConfig, RequestClass, ServeMetrics, Server,
    ServerConfig, ServiceModel, WallClock,
};
use std::net::SocketAddr;
use std::time::Duration;

/// Scrapes `/metrics` and validates the page, returning the parse.
fn scrape_valid(addr: SocketAddr, what: &str) -> (String, relcnn_obs::parse::Parsed) {
    let (status, body) = scrape_once(addr, "/metrics").unwrap_or_else(|e| panic!("{what}: {e}"));
    assert!(status.contains("200"), "{what}: {status}");
    let parsed = relcnn_obs::parse::validate(&body)
        .unwrap_or_else(|e| panic!("{what}: invalid exposition: {e}\n{body}"));
    (body, parsed)
}

fn main() {
    let quick = relcnn_bench::quick_mode();
    let registry = Registry::new();
    let server = ScrapeServer::bind("127.0.0.1:0", registry.clone()).expect("bind scrape server");
    let addr = server.addr();
    println!("metrics_smoke: scrape endpoint on http://{addr}/metrics");

    // --- 1. campaign, scraped in flight -----------------------------
    let engine = Engine::with_workers(4).observed(&registry);
    let watcher = engine.clone(); // shares the metrics handles
    let trials = if quick { 160 } else { 480 };
    let campaign = std::thread::spawn(move || {
        engine.run(
            &RunPlan::new(trials, 0x0B5E7).with_shards(12),
            &FnTrial::new(|ctx: &mut TrialCtx| {
                // ~1 ms per trial keeps the run in flight long enough
                // for a mid-run scrape at any scheduling.
                std::thread::sleep(Duration::from_millis(1));
                ctx.index
            }),
            CollectSink::new(),
        )
    });
    let mut mid_flight = None;
    for _ in 0..5_000 {
        let snap = watcher.stats_snapshot();
        if snap.in_flight() && snap.trials_executed > 0 {
            mid_flight = Some(scrape_valid(addr, "mid-campaign scrape"));
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let outcome = campaign.join().expect("campaign thread");
    let (page, parsed) = mid_flight.expect("campaign finished before a scrape landed");
    for family in [
        "relcnn_engine_trials_executed_total",
        "relcnn_engine_workers_live",
        "relcnn_engine_reorder_resident_trials",
        "relcnn_engine_trial_duration_nanoseconds_count",
    ] {
        assert!(
            parsed.has(family),
            "mid-campaign page missing {family}:\n{page}"
        );
    }
    let seen = parsed
        .value("relcnn_engine_trials_executed_total", &[])
        .expect("trials_executed sample");
    assert!(
        seen > 0.0 && seen <= trials as f64,
        "mid-flight scrape saw {seen} of {trials} trials"
    );
    if seen < trials as f64 {
        assert_eq!(
            parsed.value("relcnn_engine_workers_live", &[]),
            Some(4.0),
            "scrape landed in flight, workers must be live:\n{page}"
        );
    } else {
        // A stalled runner can let the run finish between the snapshot
        // poll and the scrape; the page is still the in-flight contract.
        println!("note: scrape landed at run end; live-worker check skipped");
    }
    println!(
        "mid-campaign scrape: {seen:.0}/{trials} trials visible, page valid \
         ({} bytes)",
        page.len()
    );
    assert_eq!(outcome.stats.trials, trials);

    // --- 2. serving replay, scraped live ----------------------------
    let offered_probe = ServeMetrics::registered(&registry);
    let requests = if quick { 120 } else { BENCH_REQUESTS };
    let serve = std::thread::spawn({
        let engine = watcher.clone();
        let registry = registry.clone();
        move || {
            let trace = LoadGen::new(bench_load(requests)).generate();
            let backend = cnn_backend();
            Server::new(bench_server())
                .backend(&backend)
                .engine(&engine)
                .observed(&registry)
                .run(&trace)
        }
    });
    let offered_so_far = |m: &ServeMetrics| -> u64 {
        RequestClass::ALL
            .iter()
            .map(|c| m.class(*c).offered.get())
            .sum()
    };
    for _ in 0..5_000 {
        if offered_so_far(&offered_probe) > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let (serve_page, serve_parsed) = scrape_valid(addr, "serve scrape");
    assert!(
        serve_parsed.has("relcnn_serve_requests_offered_total"),
        "serve page missing admission counters:\n{serve_page}"
    );
    assert_eq!(
        serve_parsed.label_values("relcnn_serve_requests_offered_total", "class"),
        vec!["bulk", "critical", "interactive"],
        "per-class admission series missing:\n{serve_page}"
    );
    println!(
        "serve scrape: {} requests offered so far across {} class series, page valid",
        serve_parsed.sum("relcnn_serve_requests_offered_total"),
        RequestClass::COUNT,
    );
    let run = serve.join().expect("serve thread");

    // --- 3. final page: conservation straight off the wire ----------
    // Per-request families are class-labeled, so cross-class totals come
    // from summing each family across its series.
    let (final_page, fin) = scrape_valid(addr, "final scrape");
    let get = |name: &str| {
        assert!(fin.has(name), "final page missing {name}:\n{final_page}");
        fin.sum(name)
    };
    assert_eq!(
        get("relcnn_serve_requests_offered_total"),
        get("relcnn_serve_requests_shed_total")
            + get("relcnn_serve_requests_expired_total")
            + get("relcnn_serve_requests_dispatched_total"),
        "admission conservation broke on the scraped page:\n{final_page}"
    );
    assert_eq!(get("relcnn_serve_requests_offered_total"), requests as f64);
    assert_eq!(
        get("relcnn_serve_requests_completed_total"),
        run.report.completed as f64
    );
    assert_eq!(
        get("relcnn_serve_requests_dispatched_total"),
        get("relcnn_serve_requests_completed_total"),
        "every dispatched request must complete (no mid-batch aborts)"
    );
    assert_eq!(get("relcnn_serve_queue_depth"), 0.0);
    // Per-class conservation, each lane read off its own series.
    for class in RequestClass::ALL {
        let labels = [("class", class.label())];
        let of = |name: &str| fin.value(name, &labels).unwrap_or(0.0);
        assert_eq!(
            of("relcnn_serve_requests_offered_total"),
            of("relcnn_serve_requests_shed_total")
                + of("relcnn_serve_requests_expired_total")
                + of("relcnn_serve_requests_dispatched_total"),
            "class {} conservation broke on the wire:\n{final_page}",
            class.label()
        );
    }
    // The serving replay dispatched real inference on the observed
    // engine, so engine trial counters moved past the campaign's.
    assert!(
        get("relcnn_engine_trials_executed_total") > trials as f64,
        "serve dispatch should have executed engine trials:\n{final_page}"
    );
    server.shutdown();

    // --- 4. wall-clock front-end with its own live endpoint ---------
    let wall_requests = if quick { 120 } else { 300 };
    let wall_registry = Registry::new();
    let (tx, rx) = std::sync::mpsc::channel();
    let wall_run = std::thread::spawn({
        let wall_registry = wall_registry.clone();
        move || {
            let trace = LoadGen::new(
                LoadGenConfig::poisson(wall_requests, 0x7A11, 700, 30_000)
                    .with_class_mix([1, 3, 2])
                    .with_class_deadlines([6_000, 0, 60_000]),
            )
            .generate();
            let backend = cnn_backend();
            Server::new(
                ServerConfig::new(
                    24,
                    BatchPolicy::new(8, 1_500),
                    ServiceModel {
                        batch_overhead_us: 100,
                        cost: SkewedCost::uniform(250),
                    },
                )
                .with_critical_reserve(3)
                .with_control(ControllerConfig::default()),
            )
            .backend(&backend)
            .observed(&wall_registry)
            .clock(WallClock::with_budget(60_000_000))
            .scrape_notify(tx)
            .run(&trace)
        }
    });
    // The wall front-end binds its own scrape endpoint by default and
    // announces it; scrape it while the run is live.
    let wall_addr = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("wall front-end scrape address");
    let (wall_page, wall_parsed) = scrape_valid(wall_addr, "wall mid-run scrape");
    assert!(
        wall_parsed.has("relcnn_serve_queue_capacity"),
        "wall page missing serving families:\n{wall_page}"
    );
    assert_eq!(
        wall_parsed.label_values("relcnn_serve_requests_offered_total", "class"),
        vec!["bulk", "critical", "interactive"],
        "wall endpoint must export per-class series:\n{wall_page}"
    );
    println!(
        "wall scrape on http://{wall_addr}/metrics: {} offered live, page valid",
        wall_parsed.sum("relcnn_serve_requests_offered_total"),
    );
    let wall = wall_run.join().expect("wall thread");
    assert!(wall.report.conserved(), "wall report: {:?}", wall.report);
    let wall_fin = relcnn_obs::parse::validate(&wall_registry.render()).expect("wall final page");
    assert_eq!(
        wall_fin.sum("relcnn_serve_requests_offered_total"),
        wall_requests as f64
    );
    assert_eq!(
        wall_fin.sum("relcnn_serve_requests_shed_total")
            + wall_fin.sum("relcnn_serve_requests_expired_total")
            + wall_fin.sum("relcnn_serve_requests_completed_total"),
        wall_requests as f64,
        "wall conservation broke off the wire"
    );

    println!(
        "metrics_smoke: OK — {} families on the final page, campaign {trials} trials, \
         serving {} completed / {} shed / {} expired of {requests}, wall front-end \
         {} completed / {} shed / {} expired of {wall_requests}",
        final_page
            .lines()
            .filter(|l| l.starts_with("# TYPE"))
            .count(),
        run.report.completed,
        run.report.shed,
        run.report.expired(),
        wall.report.completed,
        wall.report.shed,
        wall.report.expired(),
    );
}
