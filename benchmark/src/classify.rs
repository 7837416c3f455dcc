//! `frame_96` and `batch_48`: closed-loop classification on one thread, and
//! the same model's batches on the engine.

use crate::metrics::Outcome;
use crate::pace::Pace;
use crate::probe;
use crate::setup::{repeated, Budget, Kit, Oracle, Verdict, FRAME_96, TINY_48};
use crate::stats::{median, sliced_percentile};
use crate::Run;
use relcnn_runtime::{BatchClassify, Engine};
use std::time::{Duration, Instant};

/// DMR samples a run takes whatever `--seconds` says: p90 needs a hundred to
/// have ten beyond it.
const MIN_SAMPLES: usize = 100;

fn latency_metrics(outcome: &mut Outcome, dmr_us: &[f64], throughput_per_s: f64, setup_s: f64) {
    let m = &mut outcome.metrics;
    m.set(
        "latency_p50_us",
        sliced_percentile(dmr_us, 50.0).expect("at least MIN_SAMPLES"),
    );
    m.set(
        "latency_p90_us",
        sliced_percentile(dmr_us, 90.0).expect("at least MIN_SAMPLES"),
    );
    m.set("throughput_per_s", throughput_per_s);
    m.set("setup_s", setup_s);
}

/// Paper-scale per-frame latency: every frame under DMR, and every fourth
/// also under Plain and TMR on the same image, back to back.
///
/// * `latency_p50_us`, `latency_p90_us`: one `HybridCnn::classify`, DMR.
/// * `throughput_per_s`: frames per second over a sweep of the three modes,
///   3 ÷ (DMR p50 + Plain p50 + TMR p50) — the Table-1 experiment as one
///   number, so a change that slows only Plain or TMR shows.
pub fn frame_96(run: &Run, budget: &Budget) -> Outcome {
    let mut pace = Pace::new();
    let (mut kit, setup_s) = repeated(3, &mut pace, || Kit::build(&FRAME_96, run.seed));
    let mut outcome = Outcome::default();
    let mut oracle = Oracle::new(kit.pool.len());
    if let Some(mut spans) = run.spans() {
        probe::layers(
            &mut kit,
            &mut spans,
            &mut pace,
            &mut oracle,
            &mut outcome,
            budget,
            run.seconds,
        );
        outcome.verdict_digest = oracle.digest();
        return run.finish_traced(outcome, &spans);
    }

    const SWEEP_EVERY: usize = 4;
    let (mut dmr_us, mut plain_us, mut tmr_us) = (Vec::new(), Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(run.seconds);
    while Instant::now() < deadline || dmr_us.len() < MIN_SAMPLES {
        budget.check("frame_96");
        let i = dmr_us.len() % kit.pool.len();
        let image = &kit.pool[i];
        let (v, us) = pace.timed(|| kit.dmr.classify(image));
        dmr_us.push(us);
        oracle.check(
            i,
            Verdict::from(&v.expect("DMR classification")),
            &mut outcome,
        );
        if dmr_us.len() % SWEEP_EVERY == 0 {
            let (v, us) = pace.timed(|| kit.plain.classify(image));
            plain_us.push(us);
            oracle.check_mode(
                i,
                Verdict::from(&v.expect("Plain classification")),
                &mut outcome,
            );
            let (v, us) = pace.timed(|| kit.tmr.classify(image));
            tmr_us.push(us);
            oracle.check_mode(
                i,
                Verdict::from(&v.expect("TMR classification")),
                &mut outcome,
            );
        }
    }
    let sweep_us = median(&dmr_us) + median(&plain_us) + median(&tmr_us);
    latency_metrics(&mut outcome, &dmr_us, 3e6 / sweep_us, setup_s);
    eprintln!(
        "frame_96: n = {} DMR, {} Plain, {} TMR; p50 {:.0} / {:.0} / {:.0} us",
        dmr_us.len(),
        plain_us.len(),
        tmr_us.len(),
        median(&dmr_us),
        median(&plain_us),
        median(&tmr_us)
    );
    outcome.verdict_digest = oracle.digest();
    outcome
}

/// The 48 px model: four serial DMR classifications, then the same four
/// images as one `classify_many` batch on the engine, quad by quad.
///
/// * `latency_p50_us`, `latency_p90_us`: one `HybridCnn::classify`, DMR. The
///   qualifier runs on under half of the images, so it lives in p90.
/// * `throughput_per_s`: images per second through fill-4 batches on a
///   one-worker engine, 4 ÷ batch wall time — thread spawn, model clone and
///   cold arena per `Engine::run` included.
///
/// One worker, because the gated number has to repeat: whether this host's
/// second vCPU is a core of its own changes from minute to minute, and a
/// two-worker fill-4 batch reads 2.4 ms or 4.4 ms accordingly. The traced
/// pass times fills 1, 4 and 8 on all cores.
pub fn batch_48(run: &Run, budget: &Budget) -> Outcome {
    const FILL: usize = 4;
    let mut pace = Pace::new();
    let ((mut kit, engine), setup_s) = repeated(11, &mut pace, || {
        (Kit::build(&TINY_48, run.seed), Engine::with_workers(1))
    });
    let mut outcome = Outcome::default();
    let mut oracle = Oracle::new(kit.pool.len());
    if let Some(mut spans) = run.spans() {
        let engine = Engine::with_workers(crate::available_workers()).traced(&spans.recorder);
        let seconds = run.seconds * 0.6;
        let p50 = probe::layers(
            &mut kit,
            &mut spans,
            &mut pace,
            &mut oracle,
            &mut outcome,
            budget,
            seconds,
        );
        let probe = probe::Fills {
            model: &kit.dmr,
            pool: &kit.pool,
            engine: &engine,
            classify_p50: p50,
        };
        probe.run(
            &mut spans,
            &mut pace,
            &mut oracle,
            &mut outcome,
            budget,
            run.seconds * 0.4,
        );
        outcome.verdict_digest = oracle.digest();
        return run.finish_traced(outcome, &spans);
    }

    let (mut dmr_us, mut batch_us) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(run.seconds);
    let quads = kit.pool.len() / FILL;
    while Instant::now() < deadline || batch_us.len() < MIN_SAMPLES {
        budget.check("batch_48");
        let at = (batch_us.len() % quads) * FILL;
        for i in at..at + FILL {
            let (v, us) = pace.timed(|| kit.dmr.classify(&kit.pool[i]));
            dmr_us.push(us);
            oracle.check(
                i,
                Verdict::from(&v.expect("DMR classification")),
                &mut outcome,
            );
        }
        let (verdicts, us) =
            pace.timed(|| kit.dmr.classify_many(&engine, &kit.pool[at..at + FILL]));
        batch_us.push(us);
        for (k, v) in verdicts.expect("batched classification").iter().enumerate() {
            oracle.check(at + k, Verdict::from(v), &mut outcome);
        }
    }
    let batch_p50 = sliced_percentile(&batch_us, 50.0).expect("at least MIN_SAMPLES");
    latency_metrics(
        &mut outcome,
        &dmr_us,
        FILL as f64 * 1e6 / batch_p50,
        setup_s,
    );
    eprintln!(
        "batch_48: n = {} serial, {} fill-{FILL} batches on one worker; batch p50 {batch_p50:.0} us",
        dmr_us.len(),
        batch_us.len(),
    );
    outcome.verdict_digest = oracle.digest();
    outcome
}
