//! Runs every workload at `--smoke` size, untraced and traced, and
//! checks each result line: correct, no failed op (the digest, warm ≡
//! cold and replay ≡ served oracles all count as ops), and exactly the
//! metrics `BENCHMARK.json` lists, each a finite number.

use std::process::Command;

use logrel_serve::proto::{parse_json, Json};

fn listed_metrics(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("valid JSON");
    let Some(Json::Arr(metrics)) = doc.get(key) else {
        panic!("BENCHMARK.json has no `{key}`")
    };
    metrics
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("named metric")
                .to_owned()
        })
        .collect()
}

fn smoke_results(trace: bool) -> Vec<Json> {
    let out = Command::new(env!("CARGO_BIN_EXE_loadbench"))
        .args([
            "--workload",
            "all",
            "--smoke",
            "--seed",
            "1",
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .expect("loadbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "loadbench failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| parse_json(l).expect("result line is JSON"))
        .collect()
}

#[test]
fn smoke_runs_report_every_metric_and_pass_every_oracle() {
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let names = listed_metrics(key);
        let results = smoke_results(trace);
        assert_eq!(results.len(), 4, "one result per workload");
        for r in &results {
            assert_eq!(r.get("correct"), Some(&Json::Bool(true)), "{r:?}");
            assert_eq!(r.get("failed").and_then(Json::as_u64), Some(0), "{r:?}");
            assert!(
                r.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1,
                "{r:?}"
            );
            let Some(Json::Obj(metrics)) = r.get("metrics") else {
                panic!("no metrics: {r:?}")
            };
            let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(got, names, "trace={trace}");
            for (name, m) in metrics {
                let Some(Json::Num(raw)) = m.get("value") else {
                    panic!("{name}: no value")
                };
                assert!(
                    raw.parse::<f64>().is_ok_and(f64::is_finite),
                    "{name} = {raw}"
                );
                assert!(
                    m.get("unit").and_then(Json::as_str).is_some(),
                    "{name}: no unit"
                );
            }
        }
    }
}
