//! `loadbench`: the end-to-end benchmark of record.
//!
//! ```text
//! loadbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! loadbench compare A.jsonl B.jsonl [C.jsonl ...]
//! ```
//!
//! Each workload runs in a child process of its own (so its peak RSS is
//! its own). The last line of standard output is the workload's result:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`, with the
//! end-to-end metrics, or with `--trace 1` the per-layer metrics of the
//! traced replay. Human-readable tables go to standard error. See
//! README.md for the workloads and the metric definitions.

mod compare;
mod gen;
mod layers;
mod replay;
mod report;
mod trace;
mod workload;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use report::{percentile, result_line, Metric, END_TO_END};
use workload::{Params, Served, WorkDir, WORKLOADS};

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
    child: bool,
}

const USAGE: &str = "usage: loadbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]\n       loadbench compare A.jsonl B.jsonl [C.jsonl ...]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.to_vec(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        out: None,
        child: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                args.workloads = if w == "all" {
                    WORKLOADS.to_vec()
                } else {
                    vec![*WORKLOADS
                        .iter()
                        .find(|n| **n == w)
                        .ok_or(format!("unknown workload `{w}`"))?]
                };
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes an integer")?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value("--out")?),
            "--child" => args.child = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The digest pinned for `workload` at seed 1, if any.
fn pinned_digest(workload: &str, smoke: bool) -> Option<u64> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{workload}.txt"));
    let text = std::fs::read_to_string(path).ok()?;
    let mode = if smoke { "smoke" } else { "full" };
    text.lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(m, _)| *m == mode)
        .and_then(|(_, hex)| u64::from_str_radix(hex.trim(), 16).ok())
}

fn latencies_ms(served: &Served) -> Vec<f64> {
    served.records.iter().map(|r| r.latency_s * 1e3).collect()
}

/// The highest of p99, p95 and p90 with at least ten ops beyond it, for
/// the stderr table. It is shown, not gated: host bursts move the tail
/// more than a bound allows (README.md, "Why the median").
fn latency_tail(served: &Served) -> Option<String> {
    let latencies = latencies_ms(served);
    let n = latencies.len() as f64;
    let p = [0.99, 0.95, 0.9]
        .into_iter()
        .find(|p| n * (1.0 - p) >= 10.0)?;
    Some(format!(
        "  latency p{:.0} {:.3} ms ({:.0} of {n} ops beyond it)\n",
        p * 100.0,
        percentile(&latencies, p),
        n * (1.0 - p)
    ))
}

fn e2e_metrics(served: &Served) -> Vec<Metric> {
    let latencies = latencies_ms(served);
    let value = |name: &str| match name {
        "setup_s" => (percentile(&served.setup_s, 0.5), served.setup_s.len()),
        "latency_p50_ms" => (percentile(&latencies, 0.5), latencies.len()),
        "peak_rss_mb" => (workload::peak_rss_mb(), 1),
        other => unreachable!("uncatalogued metric {other}"),
    };
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let (value, samples) = value(name);
            Metric {
                name,
                unit,
                value,
                samples,
            }
        })
        .collect()
}

/// Runs one workload in this process and prints its result line.
fn run_child(name: &str, args: &Args) -> Result<bool, String> {
    let out = out_dir();
    let work = WorkDir::new(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    // A smoke run does the minimum of ops; a traced run spends half its
    // time serving and the rest replaying.
    let seconds = if args.smoke {
        0.0
    } else if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let p = Params {
        seed: args.seed,
        seconds,
        smoke: args.smoke,
        keep: args.trace,
    };
    let served = match name {
        "campaign_steer" => workload::campaign_steer(&p)?,
        "campaign_soak" => workload::campaign_soak(&p)?,
        "serve_mixed" => workload::serve_mixed(&p, &work)?,
        "edit_certify" => workload::edit_certify(&p, &work)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    let mut failures = served.errors.clone();
    if args.seed == 1 {
        match pinned_digest(name, args.smoke) {
            Some(d) if d == served.digest => {}
            Some(d) => failures.push(format!(
                "result digest {:016x} differs from pinned {d:016x}",
                served.digest
            )),
            None => failures.push(format!(
                "no digest pinned; this run's is {:016x}",
                served.digest
            )),
        }
    }
    let mut attempted = served.records.len() as u64;
    let mut failed = served.records.iter().filter(|r| !r.ok).count() as u64;
    let metrics = if args.trace {
        let traced = layers::traced_run(name, args.seed, &served, &work, &out, seconds)?;
        attempted += traced.replayed;
        failed += traced.failures.len() as u64;
        failures.extend(traced.failures);
        traced.metrics
    } else {
        e2e_metrics(&served)
    };
    // Failures not already counted against an op count as one each.
    failed = failed.max(failures.len() as u64);
    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        failures.push("a metric is not a finite number".to_owned());
    }
    let correct = failures.is_empty() && failed == 0;
    eprint!("{}", report::render_metrics(name, &metrics));
    if !args.trace {
        eprint!("{}", latency_tail(&served).unwrap_or_default());
    }
    eprintln!(
        "  digest {:016x}; {failed}/{attempted} ops failed",
        served.digest
    );
    for f in failures.iter().take(10) {
        eprintln!("  FAIL {f}");
    }
    let metrics: Vec<Metric> = metrics
        .into_iter()
        .map(|m| Metric {
            value: if m.value.is_finite() { m.value } else { 0.0 },
            ..m
        })
        .collect();
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

/// Runs each workload in a child process; returns whether all passed.
fn run_parent(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    for &name in &args.workloads {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--child",
            "--workload",
            name,
            "--seed",
            &args.seed.to_string(),
        ])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if args.trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
        if args.smoke {
            cmd.arg("--smoke");
        }
        let output = cmd
            .output()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let Some(result) = stdout.lines().rev().find(|l| l.starts_with('{')) else {
            eprintln!(
                "loadbench: workload {name} produced no result ({})",
                output.status
            );
            all_ok = false;
            continue;
        };
        println!("{result}");
        all_ok &= output.status.success();
        if let Some(path) = &args.out {
            let record = format!(
                "{{\"workload\":\"{name}\",\"seed\":{},\"trace\":{},\"smoke\":{},\"result\":{result}}}\n",
                args.seed, args.trace, args.smoke
            );
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| f.write_all(record.as_bytes()))
                .map_err(|e| format!("{path}: {e}"))?;
        }
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let bench = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        return match compare::compare(&bench, &argv[1..]) {
            Ok((report, any_worse)) => {
                print!("{report}");
                if any_worse {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => {
                eprintln!("loadbench compare: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.child {
        run_child(args.workloads[0], &args)
    } else {
        std::fs::create_dir_all(out_dir())
            .map_err(|e| e.to_string())
            .and_then(|()| run_parent(&args))
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("loadbench: {e}");
            ExitCode::FAILURE
        }
    }
}
