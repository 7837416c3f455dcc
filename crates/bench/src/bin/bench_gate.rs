//! CI bench-regression gate: one rule table over the artefacts the
//! scaling benches and `serve_bench` write.
//!
//! Every check is a row of [`RULES`]: a file under `results/`, a path
//! into its JSON and a [`Rule`]. A path is dot-separated keys; a
//! `[workers=N]` suffix picks the array entry whose `workers` field is
//! `N` (`latency_bound[workers=8].trials_per_s`). The gate reads every
//! artefact as an untyped [`Value`], so the binary that writes a file is
//! the only owner of its schema. Rules that compare against a baseline
//! read the same path in `results/baseline/<file>`.
//!
//! Artefacts and how to regenerate them (each has a committed baseline;
//! a missing or unparsable one is a failure):
//!
//! * `runtime_scaling.json`, `skewed_steal.json` — `cargo bench -p
//!   relcnn-bench --bench runtime_scaling --bench skewed_steal`;
//! * `serving_latency.json` — `cargo run --release -p relcnn-bench --bin
//!   serve_bench`.
//!
//! [`TOLERANCE`] (10 %) is the relative tolerance of every baseline
//! comparison. Counter lines ([`COUNTERS`]) are printed,
//! never gated. The gate times nothing itself, so it is cheap to re-run
//! while iterating on a regression. Exit status 1 on any failure.

use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Relative tolerance of every baseline comparison.
const TOLERANCE: f64 = 0.10;
/// Hard floor on the latency-bound 8-worker speedup (ROADMAP contract).
const MIN_LATENCY_SPEEDUP: f64 = 3.0;
/// Hard floor on the skewed-workload speedup over whole-shard claiming,
/// for single-trial chunks and for the default chunk rule alike.
const MIN_STEAL_SPEEDUP: f64 = 2.0;
/// CPU-bound 8x/1x speedup contract on hosts with enough cores to show
/// it (the partial-aggregation result path's headline number).
const MIN_CPU_SPEEDUP: f64 = 3.0;
/// Extra absolute slack on the shed-rate checks: one percentage point, so
/// a near-zero baseline shed rate doesn't turn a single shed request
/// into a relative-tolerance failure.
const SHED_RATE_SLACK: f64 = 0.01;

const SCALING: &str = "runtime_scaling.json";
const SKEWED: &str = "skewed_steal.json";
const SERVING: &str = "serving_latency.json";

const BENCH_HINT: &str = "cargo bench -p relcnn-bench --bench runtime_scaling --bench skewed_steal";
const SERVE_HINT: &str = "cargo run --release -p relcnn-bench --bin serve_bench";

/// Every artefact the gate reads, with its regeneration command.
const ARTEFACTS: [(&str, &str); 3] = [
    (SCALING, BENCH_HINT),
    (SKEWED, BENCH_HINT),
    (SERVING, SERVE_HINT),
];

/// What a row demands of the fresh value at its path.
#[derive(Debug, Clone, Copy)]
enum Rule {
    /// At least this absolute floor, whatever the baseline says.
    Floor(f64),
    /// At least the host's parallelism-aware floor ([`cpu_floor`]).
    CpuFloor,
    /// Not more than the tolerance below the baseline.
    NotBelow,
    /// Not more than the tolerance, plus this absolute slack, above the
    /// baseline.
    NotAbove(f64),
    /// As a ratio to the same series' `[workers=1]` entry, not more than
    /// the tolerance below the baseline's ratio: the scaling *shape*,
    /// independent of the host's raw speed.
    Shape,
    /// Equal to the sum of these sibling keys: a conservation identity.
    SumOf(&'static [&'static str]),
}

use Rule::*;

/// One gated check.
#[derive(Debug)]
struct Row {
    file: &'static str,
    path: &'static str,
    rule: Rule,
}

const fn row(file: &'static str, path: &'static str, rule: Rule) -> Row {
    Row { file, path, rule }
}

const CONSERVED: Rule = SumOf(&["completed", "shed", "expired"]);
const P99: Rule = NotAbove(0.0);
const SHED: Rule = NotAbove(SHED_RATE_SLACK);

/// The gate. Serving rows are virtual-clock deterministic, identical on
/// every machine for an unchanged policy: a failure there is a
/// behavioural change to admission, batching, expiry or AIMD control, and
/// an intended one ships a refreshed baseline. Each priority class holds
/// its own baseline block, so a regression in one lane can't hide inside
/// a healthy aggregate.
const RULES: [Row; 29] = [
    // cpu-bound trials/s are raw hardware speed and would false-alarm on
    // any runner slower than the baseline machine, so only the shape is
    // held to the baseline.
    row(SCALING, "cpu_bound[workers=2].trials_per_s", Shape),
    row(SCALING, "cpu_bound[workers=4].trials_per_s", Shape),
    row(SCALING, "cpu_bound[workers=8].trials_per_s", Shape),
    // The latency-bound series is sleep-dominated, so its absolute
    // trials/s are comparable across machines.
    row(SCALING, "latency_bound[workers=1].trials_per_s", NotBelow),
    row(SCALING, "latency_bound[workers=2].trials_per_s", NotBelow),
    row(SCALING, "latency_bound[workers=4].trials_per_s", NotBelow),
    row(SCALING, "latency_bound[workers=8].trials_per_s", NotBelow),
    row(SCALING, "speedup_8x_over_1x", Floor(MIN_LATENCY_SPEEDUP)),
    row(SCALING, "cpu_bound_speedup_8x_over_1x", CpuFloor),
    row(SKEWED, "steal_speedup", Floor(MIN_STEAL_SPEEDUP)),
    // A caller who never tunes chunking must still get the stealing win.
    row(SKEWED, "default_speedup", Floor(MIN_STEAL_SPEEDUP)),
    row(SKEWED, "steal_speedup", NotBelow),
    // The skewed schedule must actually steal.
    row(SKEWED, "steals", Floor(1.0)),
    row(SERVING, "offered", CONSERVED),
    row(SERVING, "p99_us", P99),
    row(SERVING, "shed_rate", SHED),
    row(SERVING, "goodput_rate", NotBelow),
    row(SERVING, "classes.critical.offered", CONSERVED),
    row(SERVING, "classes.critical.p99_us", P99),
    row(SERVING, "classes.critical.shed_rate", SHED),
    row(SERVING, "classes.critical.goodput_rate", NotBelow),
    row(SERVING, "classes.interactive.offered", CONSERVED),
    row(SERVING, "classes.interactive.p99_us", P99),
    row(SERVING, "classes.interactive.shed_rate", SHED),
    row(SERVING, "classes.interactive.goodput_rate", NotBelow),
    row(SERVING, "classes.bulk.offered", CONSERVED),
    row(SERVING, "classes.bulk.p99_us", P99),
    row(SERVING, "classes.bulk.shed_rate", SHED),
    row(SERVING, "classes.bulk.goodput_rate", NotBelow),
];

/// Informational counter lines: every integer field of the object at
/// `(file, path)`, one line per element when it is an array. They
/// describe observed pressure (steals, send blocking, reorder depth),
/// not a contract.
const COUNTERS: [(&str, &str); 6] = [
    (SCALING, "cpu_bound"),
    (SCALING, "latency_bound"),
    (SERVING, ""),
    (SERVING, "classes.critical"),
    (SERVING, "classes.interactive"),
    (SERVING, "classes.bulk"),
];

/// One loaded artefact: the fresh file and its committed baseline.
struct Doc {
    fresh: Value,
    base: Value,
}

type Docs = BTreeMap<&'static str, Doc>;

/// The cpu-bound 8x/1x floor a host with `cores` cores can honestly be
/// held to: `0.375 × cores`, capped at [`MIN_CPU_SPEEDUP`]. The full 3x
/// contract binds only at ≥ 8 cores; a 4-vCPU runner (usually 2 physical
/// cores plus SMT) must clear 1.5x, a 1-core host 0.375x ("8 workers
/// must not collapse under 1-worker throughput"). Deliberately loose:
/// the shape rows are the tight regression guard, and this floor must
/// never go red on unregressed code because the runner has few cores.
fn cpu_floor(cores: usize) -> f64 {
    MIN_CPU_SPEEDUP.min(0.375 * cores as f64)
}

/// Splits one path segment into its key and optional `[field=N]` pick.
fn segment(seg: &str) -> Option<(&str, Option<(&str, f64)>)> {
    let Some((key, pick)) = seg.split_once('[') else {
        return Some((seg, None));
    };
    let (field, want) = pick.strip_suffix(']')?.split_once('=')?;
    Some((key, Some((field, want.parse().ok()?))))
}

fn lookup<'a>(doc: &'a Value, path: &str) -> Option<&'a Value> {
    path.split('.')
        .filter(|s| !s.is_empty())
        .try_fold(doc, |v, seg| {
            let (key, pick) = segment(seg)?;
            let v = &v.as_map()?.iter().find(|(k, _)| k == key)?.1;
            match pick {
                None => Some(v),
                Some((field, want)) => v
                    .as_seq()?
                    .iter()
                    .find(|e| lookup(e, field).and_then(num) == Some(want)),
            }
        })
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn number(doc: &Value, path: &str) -> Result<f64, String> {
    lookup(doc, path)
        .and_then(num)
        .ok_or_else(|| format!("no number at `{path}`"))
}

/// `path` with its last key replaced by `key`.
fn sibling(path: &str, key: &str) -> String {
    match path.rsplit_once('.') {
        Some((parent, _)) => format!("{parent}.{key}"),
        None => key.to_string(),
    }
}

/// The value at `path` over the value at the same path's `[workers=1]`
/// entry.
fn ratio_to_one_worker(doc: &Value, path: &str) -> Result<f64, String> {
    let (head, rest) = path.split_once("[workers=").ok_or("not a workers series")?;
    let (_, tail) = rest.split_once(']').ok_or("not a workers series")?;
    let one = number(doc, &format!("{head}[workers=1]{tail}"))?;
    if one <= 0.0 {
        return Err("zero 1-worker entry".into());
    }
    Ok(number(doc, path)? / one)
}

/// Evaluates one row: whether it holds, and the value against its
/// threshold. `Err` when an input is missing.
fn check(row: &Row, doc: &Doc, cpu_floor: f64) -> Result<(bool, String), String> {
    let path = row.path;
    let value = number(&doc.fresh, path)?;
    let pct = TOLERANCE * 100.0;
    Ok(match row.rule {
        Floor(floor) => (value >= floor, format!("{value:.3}, floor {floor:.3}")),
        CpuFloor => (
            value >= cpu_floor,
            format!("{value:.3}, host floor {cpu_floor:.3}"),
        ),
        NotBelow => {
            let b = number(&doc.base, path)?;
            let limit = b * (1.0 - TOLERANCE);
            let line = format!("{value:.3}, at least {limit:.3} (baseline {b:.3} - {pct:.0}%)");
            (value >= limit, line)
        }
        NotAbove(slack) => {
            let b = number(&doc.base, path)?;
            let limit = b * (1.0 + TOLERANCE) + slack;
            let line =
                format!("{value:.3}, at most {limit:.3} (baseline {b:.3} + {pct:.0}% + {slack})");
            (value <= limit, line)
        }
        Shape => {
            let now = ratio_to_one_worker(&doc.fresh, path)?;
            let b = ratio_to_one_worker(&doc.base, path)?;
            let limit = b * (1.0 - TOLERANCE);
            let line = format!(
                "{now:.3}x of 1-worker, at least {limit:.3}x (baseline {b:.3}x - {pct:.0}%)"
            );
            (now >= limit, line)
        }
        SumOf(keys) => {
            let sum = keys
                .iter()
                .map(|k| number(&doc.fresh, &sibling(path, k)))
                .sum::<Result<f64, String>>()?;
            let line = format!("{value} vs {} = {sum}", keys.join(" + "));
            (value == sum, line)
        }
    })
}

/// Loads every artefact under `results`. Returns what loaded plus one
/// failure per artefact (or baseline) that is missing or does not parse.
fn load(results: &Path) -> (Docs, Vec<String>) {
    let (mut docs, mut failures) = (Docs::new(), Vec::new());
    for (file, hint) in ARTEFACTS {
        let read = |path: PathBuf| -> Result<Value, String> {
            let shown = path.display();
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("{shown}: {e} (generate it with `{hint}`)"))?;
            serde_json::from_str(&text).map_err(|e| format!("{shown}: parse error: {e}"))
        };
        match (
            read(results.join(file)),
            read(results.join("baseline").join(file)),
        ) {
            (Ok(fresh), Ok(base)) => {
                docs.insert(file, Doc { fresh, base });
            }
            (Err(e), _) | (_, Err(e)) => failures.push(e),
        }
    }
    (docs, failures)
}

/// Prints the informational counter lines of every loaded artefact.
fn print_counters(docs: &Docs) {
    for (file, path) in COUNTERS {
        let Some(at) = docs.get(file).and_then(|d| lookup(&d.fresh, path)) else {
            continue;
        };
        let line = |v: &Value| {
            let ints: Vec<(&str, u64)> = (v.as_map().unwrap_or_default().iter())
                .filter_map(|(k, v)| match v {
                    Value::Int(i) => Some((k.as_str(), *i as u64)),
                    _ => None,
                })
                .collect();
            relcnn_bench::counters_line(&ints)
        };
        for entry in at.as_seq().unwrap_or(std::slice::from_ref(at)) {
            println!("  {file} {path}: {}", line(entry));
        }
    }
}

/// Evaluates every row whose artefact loaded, printing each verdict.
/// Returns the number of checks evaluated and the failures.
fn evaluate(docs: &Docs, cpu_floor: f64) -> (usize, Vec<String>) {
    let mut checked = 0;
    let mut failures = Vec::new();
    for row in &RULES {
        let Some(doc) = docs.get(row.file) else {
            continue;
        };
        checked += 1;
        let name = format!("{} {}", row.file, row.path);
        match check(row, doc, cpu_floor) {
            Ok((true, line)) => println!("  ok    {name}: {line}"),
            Ok((false, line)) | Err(line) => {
                println!("  FAIL  {name}: {line}");
                failures.push(format!("{name}: {line}"));
            }
        }
    }
    (checked, failures)
}

fn main() -> ExitCode {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "bench gate (tolerance {:.0}%, cpu-bound floor {:.2}x on {cores} core(s))",
        TOLERANCE * 100.0,
        cpu_floor(cores)
    );
    let (docs, mut failures) = load(&relcnn_bench::results_dir());
    print_counters(&docs);
    let (checked, failed) = evaluate(&docs, cpu_floor(cores));
    failures.extend(failed);
    if failures.is_empty() {
        println!("bench gate: OK ({checked} checks)");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bench gate: {} failure(s), {checked} checks evaluated:",
            failures.len()
        );
        for f in &failures {
            eprintln!("  FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline_dir() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/baseline")
    }

    fn parse(text: &str) -> Value {
        serde_json::from_str(text).expect("test artefact parses")
    }

    /// Every committed baseline as its own fresh run.
    fn docs() -> Docs {
        let mut docs = Docs::new();
        for (file, _) in ARTEFACTS {
            let text = std::fs::read_to_string(baseline_dir().join(file)).expect("baseline");
            let (fresh, base) = (parse(&text), parse(&text));
            docs.insert(file, Doc { fresh, base });
        }
        docs
    }

    /// A 2-core host's floor (0.75x): the committed cpu-bound 8x/1x
    /// speedup (1.025x) was recorded where that series could not scale.
    fn floor() -> f64 {
        cpu_floor(2)
    }

    fn get_mut<'a>(v: &'a mut Value, path: &str) -> &'a mut Value {
        path.split('.').fold(v, |v, seg| {
            let (key, pick) = segment(seg).expect("test path");
            let Value::Map(m) = v else { panic!("{path}") };
            let v = &mut m.iter_mut().find(|(k, _)| k == key).expect(path).1;
            match (pick, v) {
                (None, v) => v,
                (Some((field, want)), Value::Seq(s)) => s
                    .iter_mut()
                    .find(|e| lookup(e, field).and_then(num) == Some(want))
                    .expect(path),
                _ => panic!("{path}"),
            }
        })
    }

    /// Moves the value `row` reads to just inside (`past == false`) or
    /// just past its threshold. A floor row moves the baseline with it,
    /// so the not-below-baseline row on the same path stays green.
    fn push(docs: &mut Docs, row: &Row, past: bool) {
        let doc = docs.get_mut(row.file).expect("loaded");
        let eps = if past { 1e-9 } else { -1e-9 };
        let fresh = |p: &str| number(&doc.fresh, p).expect("fresh");
        let base = |p: &str| number(&doc.base, p).expect("base");
        let (path, value) = match row.rule {
            Floor(floor) => (row.path.to_string(), floor - eps),
            CpuFloor => (row.path.to_string(), floor() - eps),
            NotBelow => (
                row.path.to_string(),
                base(row.path) * (1.0 - TOLERANCE) - eps,
            ),
            NotAbove(slack) => (
                row.path.to_string(),
                base(row.path) * (1.0 + TOLERANCE) + slack + eps,
            ),
            Shape => {
                let limit = ratio_to_one_worker(&doc.base, row.path).unwrap() * (1.0 - TOLERANCE);
                let one = fresh(row.path) / ratio_to_one_worker(&doc.fresh, row.path).unwrap();
                (row.path.to_string(), (limit - eps) * one)
            }
            SumOf(_) => (row.path.to_string(), fresh(row.path) + past as u8 as f64),
        };
        *get_mut(&mut doc.fresh, &path) = Value::Float(value);
        if let Floor(_) | CpuFloor = row.rule {
            *get_mut(&mut doc.base, &path) = Value::Float(value);
        }
    }

    #[test]
    fn committed_baselines_compared_with_themselves_pass() {
        let (checked, failures) = evaluate(&docs(), floor());
        assert_eq!(failures, Vec::<String>::new());
        assert_eq!(checked, 9 + 4 + 16);
    }

    #[test]
    fn every_row_fails_alone_just_past_its_threshold() {
        for row in &RULES {
            let mut inside = docs();
            push(&mut inside, row, false);
            let (_, failures) = evaluate(&inside, floor());
            assert_eq!(failures, Vec::<String>::new(), "{row:?} just inside");

            let mut past = docs();
            push(&mut past, row, true);
            let (checked, failures) = evaluate(&past, floor());
            assert_eq!(checked, RULES.len());
            assert_eq!(failures.len(), 1, "{row:?}: {failures:?}");
            let metric = format!("{} {}:", row.file, row.path);
            assert!(failures[0].starts_with(&metric), "{failures:?}");
        }
    }

    #[test]
    fn a_missing_artefact_fails_with_its_regeneration_hint() {
        let dir = std::env::temp_dir().join(format!("relcnn_bench_gate_{}", std::process::id()));
        std::fs::create_dir_all(dir.join("baseline")).unwrap();
        for (file, _) in ARTEFACTS {
            std::fs::copy(baseline_dir().join(file), dir.join("baseline").join(file)).unwrap();
            if file != SERVING {
                std::fs::copy(baseline_dir().join(file), dir.join(file)).unwrap();
            }
        }
        let (docs, failures) = load(&dir);
        assert_eq!(docs.keys().copied().collect::<Vec<_>>(), [SCALING, SKEWED]);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains(SERVING) && failures[0].contains("serve_bench"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
