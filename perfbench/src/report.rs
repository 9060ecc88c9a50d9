//! Metric names, units and the result line.
//!
//! The names here are the contract with `BENCHMARK.json`: a plain run
//! (`--trace 0`) reports every [`END_TO_END`] metric, a traced run
//! (`--trace 1`) every [`PER_LAYER`] metric. A layer that does not run on
//! a workload's path reports 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. `ms` is busy
/// (self) time per op, median over traced ops.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cli.read_design.ms", "ms"),
    ("netlist.exlif.parse.ms", "ms"),
    ("netlist.exlif.parse.mb_per_s", "MB/s"),
    ("netlist.flatten.ms", "ms"),
    ("netlist.scc.ms", "ms"),
    ("netlist.content_digest.ms", "ms"),
    ("core.engine.prepare.ms", "ms"),
    ("core.relax.ms", "ms"),
    ("core.relax.walked_nodes", "count"),
    ("core.relax.iterations", "count"),
    ("core.relax.cold_walked_nodes", "count"),
    ("core.relax.warm_walk_ratio", "ratio"),
    ("core.compile.ms", "ms"),
    ("core.compile.sum_ops", "count"),
    ("core.compile.min_ops", "count"),
    ("core.compile.slots", "count"),
    ("core.compile.patch.ms", "ms"),
    ("core.compile.patch.slots_relowered", "count"),
    ("core.compile.patch.slot_ratio", "ratio"),
    ("core.compile.patch.ops_added", "count"),
    ("core.compile.patch.op_ratio", "ratio"),
    ("core.sweep.cache_key.ms", "ms"),
    ("core.compile.evaluate.ms", "ms"),
    ("core.compile.evaluate.tables_per_s", "1/s"),
    ("serve.resident.handle.ms", "ms"),
    ("serve.resident.handle.self_ms", "ms"),
    ("serve.resident.graph_hit_ratio", "ratio"),
    ("serve.resident.sweep_hit_ratio", "ratio"),
    ("serve.json.encode_ms", "ms"),
    ("serve.json.decode_ms", "ms"),
    ("serve.json.response_bytes", "bytes"),
    ("serve.http.roundtrip.ms", "ms"),
    ("serve.http.overhead_ms", "ms"),
    ("serve.http.refused", "count"),
    ("serve.resident.design_update.ms", "ms"),
    ("serve.resident.warm_update_ratio", "ratio"),
    ("serve.resident.patched_update_ratio", "ratio"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.ops", "count"),
];

/// Ops attempted and the ones any check failed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops attempted (timed or traced).
    pub attempted: u64,
    /// Ops that failed: non-200, refused, or wrong output.
    pub failed: u64,
    /// Output comparisons that ran.
    pub checks: u64,
    /// The first few failure messages.
    pub messages: Vec<String>,
}

impl Tally {
    /// Records one op's outcome after `checks` output checks ran on it.
    pub fn op(&mut self, outcome: &Result<(), String>, checks: u64) {
        self.attempted += 1;
        self.checks += checks;
        if let Err(m) = outcome {
            self.failed += 1;
            if self.messages.len() < 5 {
                self.messages.push(m.clone());
            }
        }
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Measurement {
    /// Each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Untraced op latencies, ms.
    pub latencies_ms: Vec<f64>,
    /// Wall time of the untraced window, seconds.
    pub window_s: f64,
    /// Process CPU time over the untraced window, seconds.
    pub cpu_s: f64,
    /// Peak resident set (`VmHWM`) over the untraced window, MiB.
    pub peak_rss_mb: f64,
    /// Op outcomes.
    pub tally: Tally,
    /// Per-layer values of the traced run.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Measurement {
    /// End-to-end metric values.
    pub fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let lat = stats::sorted(self.latencies_ms.clone());
        let n = lat.len() as f64;
        BTreeMap::from([
            ("setup_s", stats::median(&self.setup_s)),
            ("op_p50_ms", stats::percentile(&lat, 50)),
            ("op_p90_ms", stats::percentile(&lat, 90)),
            ("ops_per_s", n / self.window_s),
            ("cpu_ms_per_op", self.cpu_s * 1e3 / n),
            ("peak_rss_mb", self.peak_rss_mb),
        ])
    }
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, with every metric of the run's kind in list order.
pub fn result_line(m: &Measurement, trace: bool) -> Result<String, String> {
    let (list, values) = if trace {
        (PER_LAYER, m.layers.clone())
    } else {
        (END_TO_END, m.end_to_end())
    };
    let mut metrics = String::new();
    for (i, (name, unit)) in list.iter().enumerate() {
        let v = values.get(name).copied().unwrap_or(0.0);
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite ({v})"));
        }
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            metrics,
            "{sep}\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"
        );
    }
    if let Some(extra) = values.keys().find(|k| !list.iter().any(|(n, _)| n == *k)) {
        return Err(format!("metric {extra} is not in the benchmark's list"));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        m.tally.failed == 0 && m.tally.checks > 0,
        m.tally.attempted,
        m.tally.failed,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly these names
    /// and units, in this order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            let Some(serde::Value::Arr(items)) = v.get(key) else {
                panic!("{key} is not an array")
            };
            items
                .iter()
                .map(|m| {
                    let s = |k: &str| match m.get(k) {
                        Some(serde::Value::Str(s)) => s.clone(),
                        other => panic!("{k} = {other:?}"),
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_has_every_metric_and_only_listed_ones() {
        let mut m = Measurement {
            setup_s: vec![1.0, 2.0, 3.0],
            latencies_ms: (1..=100).map(f64::from).collect(),
            window_s: 10.0,
            cpu_s: 2.0,
            peak_rss_mb: 100.0,
            ..Measurement::default()
        };
        m.tally.op(&Ok(()), 1);
        let line = result_line(&m, false).unwrap();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,"));
        assert!(line.contains("\"op_p90_ms\":{\"value\":90,\"unit\":\"ms\"}"));
        assert!(line.contains("\"ops_per_s\":{\"value\":10,"));
        let traced = result_line(&m, true).unwrap();
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
        m.layers.insert("not.a.metric", 1.0);
        assert!(result_line(&m, true).is_err());
    }
}
