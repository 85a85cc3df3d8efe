//! The metric catalogue (the names, units and directions `BENCHMARK.json`
//! lists) and the result a run prints.

use std::collections::BTreeMap;

pub const WORKLOADS: [&str; 4] = ["serve_http", "explore", "corpus_cold", "train_warm"];

/// One catalogue row; `bound` is set for end-to-end metrics only.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees; measured with tracing off.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("items_per_s", "1/s", "higher", 0.25),
    e2e("item_p50_ms", "ms", "lower", 0.25),
    e2e("item_p90_ms", "ms", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.10),
];

/// Single layers (layer = crate); measured by the traced pass. A workload
/// reports 0 for a layer that is not on its path.
pub const PER_LAYER: [MetricDef; 60] = [
    layer("failed_share", "ratio", "lower"),
    layer("client.encode_us", "us", "lower"),
    layer("client.decode_us", "us", "lower"),
    layer("client.exchange_p99_ms", "ms", "lower"),
    layer("client.exchange_p999_ms", "ms", "lower"),
    layer("client.reconnects", "count", "lower"),
    layer("http.parse_us", "us", "lower"),
    layer("http.decode_us", "us", "lower"),
    layer("http.encode_us", "us", "lower"),
    layer("http.write_us", "us", "lower"),
    layer("http.bytes_in", "bytes", "lower"),
    layer("http.bytes_out", "bytes", "lower"),
    layer("http.residual_us", "us", "lower"),
    layer("http.connections", "count", "lower"),
    layer("http.keepalive_reuses", "count", "higher"),
    layer("http.responses_4xx", "count", "lower"),
    layer("http.responses_5xx", "count", "lower"),
    layer("http.parse_errors", "count", "lower"),
    layer("http.timeouts", "count", "lower"),
    layer("http.write_errors", "count", "lower"),
    layer("serve.engine_us", "us", "lower"),
    layer("serve.wait_us", "us", "lower"),
    layer("serve.batches", "count", "lower"),
    layer("serve.mean_batch_occupancy", "ratio", "higher"),
    layer("serve.max_batch", "count", "higher"),
    layer("serve.rejected", "count", "lower"),
    layer("serve.failed", "count", "lower"),
    layer("serve.forward_busy_share", "ratio", "higher"),
    layer("serve.p50_latency_us", "us", "lower"),
    layer("serve.p99_latency_us", "us", "lower"),
    layer("nn.forward_us", "us", "lower"),
    layer("nn.forward_b8_us", "us", "lower"),
    layer("nn.forward_gflops", "gflop/s", "higher"),
    layer("nn.quant_forward_us", "us", "lower"),
    layer("nn.train_step_us", "us", "lower"),
    layer("raster.features_us", "us", "lower"),
    layer("raster.target_us", "us", "lower"),
    layer("raster.score_us", "us", "lower"),
    layer("core.prepare_us", "us", "lower"),
    layer("netlist.generate_us", "us", "lower"),
    layer("place.probe_us", "us", "lower"),
    layer("route.min_width_us", "us", "lower"),
    layer("route.graph_build_us", "us", "lower"),
    layer("core.cache_store_us", "us", "lower"),
    layer("core.cache_load_us", "us", "lower"),
    layer("core.cache_bytes", "bytes", "lower"),
    layer("place.stage_us", "us", "lower"),
    layer("route.stage_us", "us", "lower"),
    layer("route.iterations", "count", "lower"),
    layer("route.overused_segments", "count", "lower"),
    layer("route.wirelength", "count", "lower"),
    layer("pipeline.speedup_vs_stages", "x", "higher"),
    layer("pipeline.place_stage_runs", "count", "lower"),
    layer("pipeline.route_stage_runs", "count", "lower"),
    layer("pipeline.cache_hits", "count", "higher"),
    layer("pipeline.cache_write_failures", "count", "lower"),
    layer("exec.handoff_us", "us", "lower"),
    layer("obs.trace_overhead_share", "ratio", "lower"),
    layer("obs.spans", "count", "lower"),
    layer("obs.spans_dropped", "count", "lower"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Items attempted in the measured windows.
    pub attempted: u64,
    /// Errors + refusals (429/503/QueueFull) + wrong outputs.
    pub failed: u64,
    values: BTreeMap<&'static str, (f64, Option<u64>)>,
    /// Free-form lines (checksums, ledger shares) printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, (value, None));
    }

    /// A metric with the number of samples it was taken over.
    pub fn set_n(&mut self, name: &'static str, value: f64, samples: u64) {
        self.values.insert(name, (value, Some(samples)));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |v| v.0)
    }

    /// `catalogue` metrics as human-readable lines
    /// (`metric <name> <value> <unit> [n=<samples>]`).
    pub fn lines(&self, catalogue: &[MetricDef]) -> Vec<String> {
        catalogue
            .iter()
            .map(|def| {
                let (value, samples) = self.values.get(def.name).copied().unwrap_or((0.0, None));
                match samples {
                    Some(n) => format!("metric {} {} {} n={n}", def.name, finite(value), def.unit),
                    None => format!("metric {} {} {}", def.name, finite(value), def.unit),
                }
            })
            .collect()
    }

    /// The one-line JSON result over `catalogue`.
    pub fn result_json(&self, catalogue: &[MetricDef]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, def) in catalogue.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                pop_obs::json::str_lit(def.name),
                finite(self.get(def.name)),
                pop_obs::json::str_lit(def.unit)
            ));
        }
        out.push_str("}}");
        out
    }
}

/// A JSON-safe rendering with every measured digit (`{}` prints the
/// shortest decimal that round-trips).
fn finite(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `--list`: every workload and metric name, one per line.
pub fn list_lines() -> Vec<String> {
    let mut out: Vec<String> = WORKLOADS.iter().map(|w| format!("workload {w}")).collect();
    for def in END_TO_END {
        out.push(format!(
            "end_to_end {} {} {} {}",
            def.name,
            def.unit,
            def.better,
            def.bound.unwrap_or(0.0)
        ));
    }
    for def in PER_LAYER {
        out.push(format!(
            "per_layer {} {} {}",
            def.name, def.unit, def.better
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_obs::json::{self, Value};

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn every_name_and_unit_is_well_formed_and_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|d| d.name))
            .chain(PER_LAYER.iter().map(|d| d.name))
        {
            assert!(name_ok(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                !def.unit.is_empty()
                    && def.unit.len() <= 16
                    && def
                        .unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                def.unit
            );
            assert!(matches!(def.better, "higher" | "lower"));
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
    }

    #[test]
    fn result_json_parses_and_carries_every_metric() {
        let mut outcome = Outcome {
            attempted: 1000,
            failed: 0,
            ..Outcome::default()
        };
        outcome.set("items_per_s", 701.25);
        outcome.set_n("item_p50_ms", 2.5034, 7012);
        outcome.set("setup_s", f64::NAN); // never emitted as NaN
        let text = outcome.result_json(&END_TO_END);
        assert!(!text.contains('\n'));
        let doc = json::parse(&text).unwrap();
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Value::as_u64), Some(1000));
        assert_eq!(doc.get("failed").and_then(Value::as_u64), Some(0));
        let metrics = doc.get("metrics").unwrap();
        for def in END_TO_END {
            let m = metrics.get(def.name).unwrap();
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(def.unit));
            assert!(m.get("value").and_then(Value::as_f64).is_some());
        }
        assert_eq!(
            metrics
                .get("item_p50_ms")
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64),
            Some(2.5034)
        );
        let lines = outcome.lines(&END_TO_END);
        assert_eq!(lines[1], "metric item_p50_ms 2.5034 ms n=7012");

        let failed = Outcome {
            attempted: 10,
            failed: 1,
            ..Outcome::default()
        };
        let doc = json::parse(&failed.result_json(&PER_LAYER)).unwrap();
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(false));
    }

    /// `run.sh --list` prints [`list_lines`]; it must name exactly what
    /// `BENCHMARK.json` names, with the same units, directions and bounds.
    #[test]
    fn list_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let rows = |key: &str| -> Vec<Value> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap_or_else(|| panic!("{key} is an array"))
                .to_vec()
        };
        let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();

        let mut expected = Vec::new();
        for w in rows("workloads") {
            expected.push(format!("workload {}", text(&w, "name")));
        }
        for m in rows("end_to_end") {
            expected.push(format!(
                "end_to_end {} {} {} {}",
                text(&m, "name"),
                text(&m, "unit"),
                text(&m, "better"),
                m.get("bound").and_then(Value::as_f64).unwrap()
            ));
        }
        for m in rows("per_layer") {
            expected.push(format!(
                "per_layer {} {} {}",
                text(&m, "name"),
                text(&m, "unit"),
                text(&m, "better")
            ));
        }
        assert_eq!(list_lines(), expected);
    }
}
