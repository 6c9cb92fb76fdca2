//! Metric definitions, summary statistics and the result line.

use std::fmt::Write as _;

/// End-to-end metrics of every workload, measured with tracing off:
/// (name, unit). Bounds and directions live in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of every workload, from the traced replay:
/// (name, unit). Layers are crate names.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("serve.wait_ms_p50", "ms"),
    ("serve.wait_ms_p99", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("serve.proto_us", "us"),
    ("serve.hot_latency_p99_ms", "ms"),
    ("serve.cold_latency_p50_ms", "ms"),
    ("lang.parse_ms", "ms"),
    ("lang.parses_per_op", "count/op"),
    ("lang.compile_ms", "ms"),
    ("query.analyze_ms_p50", "ms"),
    ("query.analyze_ms_p99", "ms"),
    ("query.hit_ratio", "ratio"),
    ("query.recomputes", "count/op"),
    ("query.refine_reuses", "count/op"),
    ("query.save_ms", "ms"),
    ("query.save_bytes", "bytes"),
    ("query.load_ms", "ms"),
    ("reliability.srg_ms", "ms"),
    ("reliability.certify_ms", "ms"),
    ("sim.compile_ms", "ms"),
    ("sim.scenario_parse_us", "us"),
    ("sim.unit_ns_per_rep_round.w64", "ns"),
    ("sim.unit_ns_per_rep_round.w1", "ns"),
    ("sim.kernel_ns_per_rep_round", "ns"),
    ("sim.kernel_share", "ratio"),
    ("sim.lane_fill", "ratio"),
    ("sim.units", "count/op"),
    ("sim.rep_rounds", "count/op"),
    ("sim.aggregate_ms", "ms"),
    ("obs.merge_ms", "ms"),
    ("obs.export_us", "us"),
    ("obs.line_bytes", "bytes"),
    ("trace.stage_sum_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// The `p`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics; 0 for no values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value, printed next to it.
    pub samples: usize,
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, every value with all its digits.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// The human-readable metric table (stderr).
pub fn render_metrics(workload: &str, metrics: &[Metric]) -> String {
    let mut out = format!("== {workload}\n");
    for m in metrics {
        let _ = writeln!(
            out,
            "  {:<32} {:>16.6} {:<9} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_and_handles_edges() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 0.5), 2.5);
        assert_eq!(percentile(&[1.0, 2.0], 1.0), 2.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let m = [Metric {
            name: "setup_s",
            unit: "s",
            value: 0.25,
            samples: 5,
        }];
        let line = result_line(true, 10, 0, &m);
        let doc = logrel_serve::proto::parse_json(&line).unwrap();
        let logrel_serve::proto::Json::Obj(fields) = doc else {
            panic!("{line}")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
