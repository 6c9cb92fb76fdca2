//! `loadbench compare A.jsonl B.jsonl [C.jsonl ...]`: per (workload,
//! metric), the median and quartiles of each side's runs and a verdict
//! against the bound `BENCHMARK.json` fixes for the metric.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use logrel_serve::proto::{parse_json, Json};

/// A metric's direction and regression bound, from `BENCHMARK.json`.
struct Bound {
    lower_is_better: bool,
    /// `None` for per-layer metrics, which have no bound.
    share: Option<f64>,
    /// Medians closer than this read `same` whatever the share says.
    floor: f64,
}

/// Absolute floors under the relative bounds. A set-up takes about a
/// millisecond on the campaign workloads, where host noise alone moves
/// it by more than its bound; a set-up change smaller than 50 ms is not
/// one a user waits for.
const FLOORS: [(&str, f64); 1] = [("setup_s", 0.05)];

fn num(v: Option<&Json>) -> Option<f64> {
    match v? {
        Json::Num(raw) => raw.parse().ok(),
        _ => None,
    }
}

fn items(doc: &Json, key: &str) -> Vec<Json> {
    match doc.get(key) {
        Some(Json::Arr(items)) => items.clone(),
        _ => Vec::new(),
    }
}

fn bounds(bench: &Json) -> BTreeMap<String, Bound> {
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in items(bench, key) {
            let Some(name) = m.get("name").and_then(Json::as_str) else {
                continue;
            };
            out.insert(
                name.to_owned(),
                Bound {
                    lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                    share: num(m.get("bound")),
                    floor: FLOORS.iter().find(|(n, _)| *n == name).map_or(0.0, |f| f.1),
                },
            );
        }
    }
    out
}

/// Values of one side: (workload, metric) → one value per run, plus
/// the summed (attempted, failed) op counts.
type Side = (BTreeMap<(String, String), Vec<f64>>, u64, u64);

/// Reads the run records `loadbench --out FILE` appends, one per line.
fn side(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let (mut attempted, mut failed) = (0, 0);
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = parse_json(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{path}:{}: no workload", i + 1))?;
        let result = doc
            .get("result")
            .ok_or(format!("{path}:{}: no result", i + 1))?;
        attempted += result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += result.get("failed").and_then(Json::as_u64).unwrap_or(0);
        if let Some(Json::Obj(metrics)) = result.get("metrics") {
            for (name, m) in metrics {
                if let Some(v) = num(m.get("value")) {
                    values
                        .entry((workload.to_owned(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok((values, attempted, failed))
}

/// Python's `statistics.quantiles(values, n=4)` (exclusive method).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Python's `statistics.median`.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Verdict of `change` against `base` for one metric.
fn verdict(base: &[f64], change: &[f64], bound: &Bound) -> &'static str {
    let Some(share) = bound.share else { return "-" };
    let (mb, mc) = (median(base), median(change));
    if (mc - mb).abs() < bound.floor {
        return "same";
    }
    let spread = |v: &[f64], m: f64| {
        let (q1, q3) = quartiles(v);
        (q3 - q1) / m.abs().max(f64::MIN_POSITIVE)
    };
    let better = |a: f64, b: f64| if bound.lower_is_better { a < b } else { a > b };
    let rel = (mc - mb) / mb.abs().max(f64::MIN_POSITIVE);
    let worse_by = if bound.lower_is_better { rel } else { -rel };
    if spread(base, mb) > share || spread(change, mc) > share {
        // A wide spread leaves the row unresolved unless every run is on
        // one side and the medians also differ by more than the bound.
        let all_better = change.iter().all(|&c| base.iter().all(|&b| better(c, b)));
        let all_worse = change.iter().all(|&c| base.iter().all(|&b| better(b, c)));
        return match (all_better, all_worse) {
            (true, _) if worse_by < -share => "better",
            (_, true) if worse_by > share => "worse",
            _ => "unresolved",
        };
    }
    if worse_by > share {
        "worse"
    } else if worse_by < -share {
        "better"
    } else {
        "same"
    }
}

/// Runs the subcommand; returns the report and whether any row read
/// worse.
pub fn compare(bench_path: &Path, files: &[String]) -> Result<(String, bool), String> {
    if files.len() < 2 {
        return Err("compare needs a baseline file and at least one other".to_owned());
    }
    let shown = bench_path.display();
    let bench_text = std::fs::read_to_string(bench_path).map_err(|e| format!("{shown}: {e}"))?;
    let bounds = bounds(&parse_json(&bench_text).map_err(|e| format!("{shown}: {e}"))?);
    let (base, base_attempted, base_failed) = side(&files[0])?;
    let mut out = String::new();
    let mut any_worse = false;
    for file in &files[1..] {
        let (change, attempted, failed) = side(file)?;
        let _ = writeln!(
            out,
            "A = {} ({base_failed}/{base_attempted} ops failed)",
            files[0]
        );
        let _ = writeln!(out, "B = {file} ({failed}/{attempted} ops failed)");
        let _ = writeln!(
            out,
            "{:<16} {:<32} {:>5} {:>14} {:>25} {:>14} {:>25} {:>8}  verdict",
            "workload",
            "metric",
            "bound",
            "A median",
            "A [q1, q3]",
            "B median",
            "B [q1, q3]",
            "B/A-1"
        );
        for ((workload, metric), a) in &base {
            let (Some(b), Some(bound)) = (
                change.get(&(workload.clone(), metric.clone())),
                bounds.get(metric),
            ) else {
                continue;
            };
            let v = verdict(a, b, bound);
            any_worse |= v == "worse";
            let (ma, mb) = (median(a), median(b));
            let (a1, a3) = quartiles(a);
            let (b1, b3) = quartiles(b);
            let share = bound
                .share
                .map_or("-".to_owned(), |s| format!("{:.0}%", s * 100.0));
            let _ = writeln!(
                out,
                "{workload:<16} {metric:<32} {share:>5} {ma:>14.4} {:>25} {mb:>14.4} {:>25} {:>7.1}%  {v}",
                format!("[{a1:.4}, {a3:.4}]"),
                format!("[{b1:.4}, {b3:.4}]"),
                100.0 * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
            );
        }
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = Bound {
            lower_is_better: true,
            share: Some(0.1),
            floor: 0.0,
        };
        let base = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(verdict(&base, &[10.2, 10.3, 10.1, 10.2], &lower), "same");
        assert_eq!(verdict(&base, &[12.0, 12.1, 11.9, 12.0], &lower), "worse");
        assert_eq!(verdict(&base, &[8.0, 8.1, 7.9, 8.0], &lower), "better");
        let noisy = [5.0, 10.0, 15.0, 20.0];
        assert_eq!(verdict(&base, &noisy, &lower), "unresolved");
        // Every run loses, but the medians are within the bound.
        let wide = Bound {
            lower_is_better: true,
            share: Some(0.25),
            floor: 0.0,
        };
        let spread_base = [100.0, 100.0, 130.0, 130.0];
        assert_eq!(verdict(&spread_base, &[131.0; 4], &wide), "unresolved");
        assert_eq!(verdict(&spread_base, &[150.0; 4], &wide), "worse");
        assert_eq!(verdict(&spread_base, &[90.0; 4], &wide), "unresolved");
        assert_eq!(verdict(&spread_base, &[60.0; 4], &wide), "better");
        // Below the absolute floor a doubling still reads the same.
        let floored = Bound {
            floor: 0.05,
            ..lower
        };
        assert_eq!(verdict(&[0.001; 4], &[0.002; 4], &floored), "same");
        assert_eq!(verdict(&[0.1; 4], &[0.2; 4], &floored), "worse");
        let higher = Bound {
            lower_is_better: false,
            share: Some(0.1),
            floor: 0.0,
        };
        assert_eq!(verdict(&base, &[12.0, 12.1, 11.9, 12.0], &higher), "better");
    }
}
