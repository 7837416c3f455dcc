//! The metric names, units, directions and bounds `BENCHMARK.json` declares,
//! and the result line.
//!
//! Every run prints every metric of its kind: a layer that a workload leaves
//! idle reads 0, which is itself the claim (`runtime`, `serve` and `faults`
//! do nothing on `frame_96`).

use std::collections::BTreeMap;

pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn lower(name: &'static str, unit: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better: "lower",
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better: "higher",
        bound: None,
    }
}

const fn bounded(spec: Spec, bound: f64) -> Spec {
    Spec {
        bound: Some(bound),
        ..spec
    }
}

/// What a user of the system sees; measured with tracing off. Each bound is
/// about three times the widest run-to-run spread its metric showed on any
/// workload on the 2-vCPU shared VM this was written on (see the README).
pub const END_TO_END: &[Spec] = &[
    bounded(lower("latency_p50_us", "us"), 0.20),
    bounded(lower("latency_p90_us", "us"), 0.25),
    bounded(higher("throughput_per_s", "1/s"), 0.25),
    bounded(lower("setup_s", "s"), 0.25),
];

/// Single layers, from the traced pass. No bounds: a change that speeds only
/// a denominator would "regress" a ratio.
pub const PER_LAYER: &[Spec] = &[
    lower("fail_share", "ratio"),
    lower("core.classify_p50_us", "us"),
    lower("core.classify_p90_us", "us"),
    lower("core.classify_plain_p50_us", "us"),
    lower("core.classify_tmr_p50_us", "us"),
    lower("relexec.conv1_dmr_p50_us", "us"),
    lower("relexec.conv1_plain_p50_us", "us"),
    lower("relexec.conv1_tmr_p50_us", "us"),
    lower("relexec.conv1_share", "ratio"),
    lower("relexec.qualified_ops", "count"),
    lower("relexec.ns_per_mac_dmr", "ns"),
    lower("relexec.ns_per_mac_plain", "ns"),
    lower("relexec.overhead_dmr_measured", "ratio"),
    lower("relexec.overhead_tmr_measured", "ratio"),
    lower("relexec.overhead_dmr_model", "ratio"),
    lower("relexec.overhead_tmr_model", "ratio"),
    higher("relexec.cycles_equal_bcet", "count"),
    lower("relexec.retries_per_trial", "count"),
    higher("relexec.recovered_share", "ratio"),
    lower("relexec.abort_share", "ratio"),
    lower("relexec.silent_share", "ratio"),
    lower("nn.tail_p50_us", "us"),
    lower("nn.tail_share", "ratio"),
    lower("nn.arena_grow_events_steady", "count"),
    lower("nn.train_s", "s"),
    lower("core.qualifier_p50_us", "us"),
    lower("core.qualifier_edge_p50_us", "us"),
    lower("vision.edge_p50_us", "us"),
    lower("vision.radial_p50_us", "us"),
    lower("sax.assess_signature_p50_us", "us"),
    lower("core.qualifier_run_share", "ratio"),
    higher("core.qualified_share", "ratio"),
    lower("core.unattributed_share", "ratio"),
    lower("faults.exposures_per_trial", "count"),
    lower("faults.flips_per_trial", "count"),
    lower("faults.ns_per_exposure", "ns"),
    lower("faults.injected_over_clean", "ratio"),
    lower("runtime.batch_p50_us_fill1", "us"),
    lower("runtime.batch_p50_us_fill4", "us"),
    lower("runtime.batch_p50_us_fill8", "us"),
    lower("runtime.dispatch_overhead_us_fill1", "us"),
    lower("runtime.dispatch_overhead_us_fill4", "us"),
    lower("runtime.dispatch_overhead_us_fill8", "us"),
    lower("runtime.model_clone_us", "us"),
    higher("runtime.busy_share", "ratio"),
    lower("runtime.idle_us", "us"),
    lower("runtime.steals", "count"),
    lower("runtime.splits", "count"),
    lower("runtime.send_block_us", "us"),
    lower("runtime.makespan_over_bound", "ratio"),
    lower("runtime.engine_wall_us_per_batch", "us"),
    lower("serve.queue_wait_p50_us", "us"),
    lower("serve.batch_service_p50_us", "us"),
    higher("serve.batch_fill_mean", "count"),
    lower("serve.batches", "count"),
    lower("serve.shed", "count"),
    lower("serve.expired", "count"),
    lower("serve.late", "count"),
    lower("serve.latency_p99_us", "us"),
    lower("serve.loadgen_lag_p99_us", "us"),
    lower("serve.rate600_p50_us", "us"),
    lower("serve.rate600_p90_us", "us"),
    lower("serve.rate600_miss_share", "ratio"),
    higher("serve.drain_fill_mean", "count"),
    lower("obs.observer_overhead_share", "ratio"),
    higher("obs.trace_events", "count"),
    lower("obs.trace_dropped", "count"),
    lower("gtsrb.dataset_gen_s", "s"),
    lower("bench.span_cost_ns", "ns"),
];

/// Values of one run, keyed by declared name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name`, which must be declared above: a typo is
    /// a bug in the benchmark, not a new metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|s| s.name == name),
            "metric {name:?} is not declared"
        );
        assert!(value.is_finite(), "metric {name:?} is not finite: {value}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one run of one workload found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that errored, missed their deadline or disagreed with the
    /// oracle.
    pub failed: u64,
    pub metrics: Metrics,
    /// FNV digest of the workload's verdicts, for comparing two commits.
    pub verdict_digest: u64,
}

impl Outcome {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// with every metric of `specs`. An unset per-layer metric is an idle layer
/// and reads 0; an unset end-to-end metric is a bug.
pub fn result_line(outcome: &Outcome, specs: &[Spec]) -> String {
    let metrics: Vec<String> = specs
        .iter()
        .map(|s| {
            let value = match outcome.metrics.get(s.name) {
                Some(v) => v,
                None if s.bound.is_none() => 0.0,
                None => panic!("end-to-end metric {:?} was not measured", s.name),
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                s.name, s.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Value};

    struct Raw(Value);

    impl Deserialize for Raw {
        fn from_value(value: &Value) -> Result<Self, serde::Error> {
            Ok(Raw(value.clone()))
        }
    }

    fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
        let map = value
            .as_map()
            .unwrap_or_else(|| panic!("{key}: not in a map"));
        &map.iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("missing {key}"))
            .1
    }

    type Declared = (String, String, String, Option<f64>);

    fn declared(root: &Value, key: &str) -> Vec<Declared> {
        field(root, key)
            .as_seq()
            .expect("metric list")
            .iter()
            .map(|m| {
                let text = |k| field(m, k).as_str().expect("string").to_string();
                let bound = m
                    .as_map()
                    .expect("metric")
                    .iter()
                    .find(|(k, _)| k == "bound")
                    .map(|(_, v)| match v {
                        Value::Float(f) => *f,
                        other => panic!("bound {other:?} is not a float"),
                    });
                (text("name"), text("unit"), text("better"), bound)
            })
            .collect()
    }

    fn in_code(specs: &[Spec]) -> Vec<Declared> {
        specs
            .iter()
            .map(|s| (s.name.into(), s.unit.into(), s.better.into(), s.bound))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_metrics_the_code_prints() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let root = serde_json::from_str::<Raw>(&text)
            .expect("BENCHMARK.json parses")
            .0;
        assert_eq!(declared(&root, "end_to_end"), in_code(END_TO_END));
        assert_eq!(declared(&root, "per_layer"), in_code(PER_LAYER));
        let workloads: Vec<&str> = field(&root, "workloads")
            .as_seq()
            .expect("workloads")
            .iter()
            .map(|w| field(w, "name").as_str().expect("name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
        assert_eq!(
            field(&root, "run_seconds"),
            &Value::Int(crate::DEFAULT_SECONDS as i128)
        );
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut outcome = Outcome::default();
        outcome.check(true);
        outcome.check(true);
        for s in END_TO_END {
            outcome.metrics.set(s.name, 1.5);
        }
        let line = result_line(&outcome, END_TO_END);
        let root = serde_json::from_str::<Raw>(&line)
            .expect("result line parses")
            .0;
        let keys: Vec<&str> = root
            .as_map()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(field(&root, "correct"), &Value::Bool(true));
        assert_eq!(field(&root, "attempted"), &Value::Int(2));
        let metrics = field(&root, "metrics").as_map().expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(field(&metrics[0].1, "value"), &Value::Float(1.5));
        assert_eq!(field(&metrics[0].1, "unit"), &Value::Str("us".into()));

        // An idle layer reads 0 in the per-layer line; a failure flips `correct`.
        outcome.check(false);
        let line = result_line(&outcome, PER_LAYER);
        let root = serde_json::from_str::<Raw>(&line)
            .expect("per-layer line parses")
            .0;
        assert_eq!(field(&root, "correct"), &Value::Bool(false));
        assert_eq!(
            field(&root, "metrics").as_map().expect("metrics").len(),
            PER_LAYER.len()
        );
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_names_are_rejected() {
        Metrics::default().set("latency_p50", 1.0);
    }
}
