//! Integration tests for the campaign job service (`logrel-serve`).
//!
//! The contract under test is the service invariant: a served job's
//! metrics line is byte-identical at any worker count, equal to the
//! library campaign pipeline run standalone, and the compilation cache
//! changes cost (compile counts) but never results.

use std::sync::atomic::{AtomicUsize, Ordering};

use logrel::obs::export::to_json_line;
use logrel::obs::{names, MetricsSink, NoopSink, Registry};
use logrel::serve::pipeline::{CompiledSpec, Symbols};
use logrel::serve::proto::{self, parse_json, Json};
use logrel::serve::{entry_bytes, Engine, Job, JobOutcome, ServeConfig, COMPILE_CACHE_BYTES};
use logrel::sim::montecarlo::{BatchConfig, ReplicationContext};
use logrel::sim::{
    BehaviorMap, Campaign, CampaignConfig, ConstantEnvironment, LaneMode, MonitorConfig,
    ProbabilisticFaults, Scenario, Simulation,
};

const SPEC_PATH: &str = "examples/htl/infusion_pump.htl";
const SCENARIO_PATH: &str = "examples/scenarios/pump_outage.scn";
const ROUNDS: u64 = 300;
const REPS: u64 = 8;
const SEED: u64 = 0xFEED;

fn job() -> Job {
    Job {
        spec_source: std::fs::read_to_string(SPEC_PATH).unwrap(),
        spec_label: SPEC_PATH.to_owned(),
        scenario_source: std::fs::read_to_string(SCENARIO_PATH).unwrap(),
        rounds: ROUNDS,
        replications: REPS,
        seed: SEED,
        lanes: LaneMode::Auto,
    }
}

fn engine(workers: usize, queue_capacity: usize) -> Engine {
    Engine::new(ServeConfig {
        workers,
        queue_capacity,
        recorder_capacity: 256,
        cache_path: None,
    })
}

/// The same campaign run through the library campaign driver
/// (`Campaign::run`) without the service's `Plan`, engine or compile
/// cache, minus the wall-clock span gauges a service job never records.
fn library_reference_line() -> String {
    let source = std::fs::read_to_string(SPEC_PATH).unwrap();
    let sys = logrel::lang::compile(&source).unwrap();
    let scenario = Scenario::parse_with(
        &std::fs::read_to_string(SCENARIO_PATH).unwrap(),
        &Symbols(&sys),
    )
    .unwrap();
    let analytic_report =
        logrel::reliability::compute_srgs(&sys.spec, &sys.arch, &sys.imp).unwrap();
    let analytic: Vec<Option<f64>> = sys
        .spec
        .communicator_ids()
        .map(|c| Some(analytic_report.communicator(c).get()))
        .collect();
    let td = logrel::core::TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::try_new_observed(&sys.spec, &sys.arch, &td, &mut NoopSink).unwrap();
    let config = CampaignConfig {
        batch: BatchConfig {
            replications: REPS,
            rounds: ROUNDS,
            base_seed: SEED,
            threads: 0,
        },
        monitor: MonitorConfig::default(),
        lanes: LaneMode::Auto,
    };
    let mut registry = Registry::with_recorder(256);
    registry.set_gauge(names::BITSLICE_LANES, LaneMode::Auto.width() as f64);
    registry.set_gauge(names::CAMPAIGN_SEED, SEED as f64);
    let setup = |_rep: u64| ReplicationContext {
        behaviors: BehaviorMap::new(),
        environment: Box::new(ConstantEnvironment::new(logrel::core::Value::Float(1.0))),
        injector: Box::new(ProbabilisticFaults::from_architecture(&sys.arch)),
    };
    Campaign::new(&sys.spec, scenario, config, sys.arch.host_count(), 256)
        .and_then(|campaign| campaign.run::<Registry, _, _>(&sim, setup, &analytic, &mut registry))
        .unwrap();
    to_json_line(&registry)
}

fn submit_ok(engine: &Engine, job: &Job) -> JobOutcome {
    engine.submit(job).expect("job should succeed")
}

#[test]
fn served_metrics_are_byte_identical_across_worker_counts_and_match_the_library() {
    let reference = library_reference_line();
    for workers in [1, 4] {
        let engine = engine(workers, 4);
        let out = submit_ok(&engine, &job());
        assert_eq!(
            out.metrics_line, reference,
            "served output must be byte-identical to the standalone campaign \
             pipeline at {workers} worker(s)"
        );
        engine.shutdown();
    }
}

#[test]
fn resubmitted_unchanged_spec_performs_zero_recompilations() {
    let engine = engine(2, 4);
    let first = submit_ok(&engine, &job());
    assert!(!first.cache_hit);
    assert_eq!(engine.counter(names::SERVE_CACHE_MISSES), 1);
    assert_eq!(engine.counter(names::SERVE_CACHE_HITS), 0);

    // Same bytes again: the spec must come straight out of the cache —
    // zero recompilations, counter-asserted.
    let second = submit_ok(&engine, &job());
    assert!(second.cache_hit);
    assert_eq!(engine.counter(names::SERVE_CACHE_MISSES), 1);
    assert_eq!(engine.counter(names::SERVE_CACHE_HITS), 1);
    assert_eq!(first.metrics_line, second.metrics_line);

    // A different seed is a different job but the same compiled spec.
    let mut reseeded = job();
    reseeded.seed = SEED + 1;
    let third = submit_ok(&engine, &reseeded);
    assert!(third.cache_hit);
    assert_eq!(engine.counter(names::SERVE_CACHE_MISSES), 1);
    assert_ne!(third.metrics_line, second.metrics_line);

    assert_eq!(engine.counter(names::SERVE_JOBS_COMPLETED), 3);
    assert_eq!(engine.counter(names::SERVE_JOBS_REJECTED), 0);
    engine.shutdown();
}

#[test]
fn overfull_queue_rejects_with_a_structured_s002() {
    // One worker, admission capacity one: while a long job is in
    // flight, the next submission must be rejected, not queued.
    let engine = engine(1, 1);
    let slow = Job {
        rounds: 20_000,
        replications: 32,
        ..job()
    };
    std::thread::scope(|scope| {
        let inflight = {
            let engine = engine.clone();
            scope.spawn(move || engine.submit(&slow).expect("the admitted job succeeds"))
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while engine.gauge(names::SERVE_QUEUE_DEPTH) != Some(1.0) {
            assert!(
                std::time::Instant::now() < deadline,
                "in-flight job never became visible"
            );
            std::thread::yield_now();
        }
        let err = engine.submit(&job()).expect_err("queue is full");
        assert_eq!(err.code, proto::S_QUEUE_FULL);
        assert!(err.message.contains("resubmit"), "{}", err.message);
        assert_eq!(engine.counter(names::SERVE_JOBS_REJECTED), 1);
        inflight.join().unwrap();
    });
    assert_eq!(engine.gauge(names::SERVE_QUEUE_DEPTH), Some(0.0));
    assert_eq!(engine.counter(names::SERVE_JOBS_COMPLETED), 1);
    engine.shutdown();
}

#[test]
fn shutdown_rejects_new_jobs_with_s005() {
    let engine = engine(1, 4);
    engine.begin_shutdown();
    let err = engine.submit(&job()).expect_err("draining service takes no jobs");
    assert_eq!(err.code, proto::S_SHUTDOWN);
    engine.shutdown();
}

#[test]
fn malformed_lines_are_rejected_without_killing_the_service() {
    let engine = engine(1, 4);
    let responses = logrel::serve::process_line(&engine, "this is not json");
    assert_eq!(responses.len(), 1);
    assert!(responses[0].contains("\"code\":\"S001\""), "{}", responses[0]);
    // The next (valid) request on the same service still succeeds.
    let line = format!(
        r#"{{"schema":"logrel-job-v1","id":"ok","spec_path":"{SPEC_PATH}","scenario_path":"{SCENARIO_PATH}","rounds":50,"replications":2,"seed":1}}"#
    );
    let responses = logrel::serve::process_line(&engine, &line);
    assert_eq!(responses.len(), 2);
    assert!(responses[0].starts_with(r#"{"schema":"logrel-metrics-v1""#));
    assert!(responses[1].contains("\"status\":\"done\""));
    // Degenerate campaign parameters get the structured S004, and the
    // service survives that too.
    let line = format!(
        r#"{{"schema":"logrel-job-v1","id":"zero","spec_path":"{SPEC_PATH}","scenario_path":"{SCENARIO_PATH}","replications":0}}"#
    );
    let responses = logrel::serve::process_line(&engine, &line);
    assert_eq!(responses.len(), 1);
    assert!(responses[0].contains("\"code\":\"S004\""), "{}", responses[0]);
    assert!(responses[0].contains("replication"), "{}", responses[0]);
    // A replication count past the cap is rejected up front instead of
    // aborting the process on a giant allocation.
    let line = format!(
        r#"{{"schema":"logrel-job-v1","id":"huge","spec_path":"{SPEC_PATH}","scenario_path":"{SCENARIO_PATH}","rounds":50,"replications":18446744073709551615,"seed":1}}"#
    );
    let responses = logrel::serve::process_line(&engine, &line);
    assert_eq!(responses.len(), 1);
    assert!(responses[0].contains("\"code\":\"S004\""), "{}", responses[0]);
    assert!(responses[0].contains("replications"), "{}", responses[0]);
    // So is a horizon past the round cap, which would otherwise run for
    // hours.
    let line = format!(
        r#"{{"schema":"logrel-job-v1","id":"long","spec_path":"{SPEC_PATH}","scenario_path":"{SCENARIO_PATH}","rounds":18446744073709551615,"replications":2,"seed":1}}"#
    );
    let responses = logrel::serve::process_line(&engine, &line);
    assert_eq!(responses.len(), 1);
    let rejection = &responses[0];
    assert!(rejection.contains("\"code\":\"S004\""), "{rejection}");
    assert!(rejection.contains("rounds"), "{rejection}");
    // A line nested far past the reader's depth cap is a malformed
    // request, not a stack overflow.
    let responses = logrel::serve::process_line(&engine, &"[".repeat(100_000));
    assert_eq!(responses.len(), 1);
    let rejection = &responses[0];
    assert!(rejection.contains("\"code\":\"S001\""), "{rejection}");
    assert!(rejection.contains("\"id\":\"?\""), "{rejection}");
    assert!(rejection.contains("nesting"), "{rejection}");
    engine.shutdown();
}

/// A layered spec: `width` sensors feed `layers` layers of `width` tasks,
/// each later-layer task reading two communicators of the layer before.
/// Every task but the last of a layer runs on two of three hosts at
/// 0.999, and the last layer carries the LRC `lrc`. Cold analysis cost
/// grows steeply with `layers` (certification's symbolic SRGs).
fn layered_spec(layers: usize, width: usize, lrc: &str) -> String {
    use std::fmt::Write as _;
    let period = 100;
    let round = period * (layers + 1);
    let mut s = String::from("program layered {\n");
    for i in 0..width {
        let _ = writeln!(s, "    communicator s{i} : float period {round} sensor;");
    }
    for k in 1..=layers {
        let constraint = if k == layers {
            format!(" lrc {lrc}")
        } else {
            String::new()
        };
        for i in 0..width {
            let _ = writeln!(
                s,
                "    communicator c{k}_{i} : float period {period}{constraint};"
            );
        }
    }
    let _ = writeln!(
        s,
        "    module m {{\n        start mode main period {round} {{"
    );
    for k in 1..=layers {
        for i in 0..width {
            let reads = if k == 1 {
                format!("s{i}[0]")
            } else {
                let j = (i + 1) % width;
                format!("c{p}_{i}[{p}], c{p}_{j}[{p}]", p = k - 1)
            };
            let _ = writeln!(
                s,
                "            invoke t{k}_{i} reads {reads} writes c{k}_{i}[{k}];"
            );
        }
    }
    s.push_str("        }\n    }\n    architecture {\n");
    for h in 0..3 {
        let _ = writeln!(s, "        host h{h} reliability 0.999;");
    }
    for i in 0..width {
        let _ = writeln!(s, "        sensor sn{i} reliability 0.9999;");
    }
    for k in 1..=layers {
        for i in 0..width {
            for h in 0..3 {
                let _ = writeln!(
                    s,
                    "        wcet t{k}_{i} on h{h} 2; wctt t{k}_{i} on h{h} 1;"
                );
            }
        }
    }
    s.push_str("    }\n    map {\n");
    for k in 1..=layers {
        for i in 0..width {
            let a = (k + i) % 3;
            if i + 1 == width {
                let _ = writeln!(s, "        t{k}_{i} -> h{a};");
            } else {
                let _ = writeln!(s, "        t{k}_{i} -> h{a}, h{};", (a + 1) % 3);
            }
        }
    }
    for i in 0..width {
        let _ = writeln!(s, "        bind s{i} -> sn{i};");
    }
    s.push_str("    }\n}\n");
    s
}

/// A cold compile must not block the cache: while one submission spends
/// its cold analysis on a new spec (which then fails with `S003`, its
/// LRC being out of reach), a job on an already cached spec, submitted
/// meanwhile, returns first.
#[test]
fn cold_compile_does_not_block_cache_hits() {
    let engine = engine(2, 4);
    let hot = Job {
        rounds: 50,
        replications: 2,
        ..job()
    };
    assert!(!submit_ok(&engine, &hot).cache_hit);
    let cold = Job {
        spec_source: layered_spec(3, 4, "0.99999"),
        spec_label: "layered.htl".to_owned(),
        ..hot.clone()
    };
    let finished = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let err = engine.submit(&cold).expect_err("the LRC cannot be met");
            assert_eq!(err.code, proto::S_COMPILE, "{}", err.message);
            finished.lock().unwrap().push("cold");
        });
        // The miss is counted just before the cold compile starts.
        while engine.counter(names::SERVE_CACHE_MISSES) < 2 {
            std::thread::yield_now();
        }
        assert!(submit_ok(&engine, &hot).cache_hit);
        finished.lock().unwrap().push("hot");
    });
    assert_eq!(*finished.lock().unwrap(), ["hot", "cold"]);
    assert_eq!(engine.counter(names::SERVE_CACHE_MISSES), 2);
    assert_eq!(engine.counter(names::SERVE_CACHE_HITS), 1);
    engine.shutdown();
}

/// Units are fair across jobs: with one worker, a one-unit job admitted
/// while a 64-unit job runs is served between that job's units and
/// returns first, instead of waiting behind all 64 of them.
#[test]
fn short_job_is_not_queued_behind_every_unit_of_a_long_one() {
    let engine = engine(1, 4);
    let long = Job {
        rounds: 2_000,
        replications: 64,
        lanes: LaneMode::Off,
        ..job()
    };
    let short = Job {
        replications: 1,
        ..long.clone()
    };
    // Compile the spec first, so the long job's units are queued as soon
    // as it reads its cache hit.
    assert!(!submit_ok(&engine, &short).cache_hit);
    let finished = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        scope.spawn(|| {
            assert!(submit_ok(&engine, &long).cache_hit);
            finished.lock().unwrap().push("long");
        });
        while engine.counter(names::SERVE_CACHE_HITS) < 1 {
            std::thread::yield_now();
        }
        // The hit is counted just before the long job plans its units.
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(submit_ok(&engine, &short).cache_hit);
        finished.lock().unwrap().push("short");
    });
    assert_eq!(*finished.lock().unwrap(), ["short", "long"]);
    engine.shutdown();
}

fn htlc(args: &[&str], stdin: &str) -> std::process::Output {
    use std::io::Write as _;
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_htlc"))
        .args(args)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("htlc runs");
    child.stdin.take().unwrap().write_all(stdin.as_bytes()).unwrap();
    child.wait_with_output().expect("htlc exits")
}

/// A metrics document with every wall-clock `*_seconds` entry removed.
fn without_seconds(doc: Json) -> Json {
    match doc {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| !k.ends_with("_seconds"))
                .map(|(k, v)| (k, without_seconds(v)))
                .collect(),
        ),
        other => other,
    }
}

#[test]
fn htlc_serve_matches_htlc_inject_modulo_seconds() {
    let dir = std::env::temp_dir().join(format!("logrel-serve-inject-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let prom = dir.join("m.prom");
    let prom = prom.to_str().unwrap();
    let out = htlc(
        &["inject", "--metrics", prom, SPEC_PATH, SCENARIO_PATH, "300", "65261", "8"],
        "",
    );
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let injected = parse_json(&std::fs::read_to_string(format!("{prom}.json")).unwrap()).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    let line = format!(
        r#"{{"schema":"logrel-job-v1","id":"eq","spec_path":"{SPEC_PATH}","scenario_path":"{SCENARIO_PATH}","rounds":{ROUNDS},"replications":{REPS},"seed":{SEED}}}"#
    );
    let out = htlc(&["serve", "--stdin", "--workers", "2"], &format!("{line}\n"));
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let served = parse_json(stdout.lines().next().expect("a metrics line")).unwrap();
    assert_eq!(without_seconds(served), without_seconds(injected));
}

#[test]
fn huge_replication_count_is_diagnosed_by_inject_and_serve() {
    let out = htlc(
        &["inject", SPEC_PATH, SCENARIO_PATH, "50", "1", "18446744073709551615"],
        "",
    );
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("A004:error:"), "{stderr}");
    assert!(stderr.contains("at most 1048576"), "{stderr}");
    // A horizon past `MAX_ROUNDS` is diagnosed the same way, by `inject`
    // and by `simulate`.
    let cap = format!("at most {} are allowed", logrel::sim::MAX_ROUNDS);
    for args in [
        &["inject", SPEC_PATH, SCENARIO_PATH, "18446744073709551615", "1", "2"][..],
        &["simulate", SPEC_PATH, "18446744073709551615", "1"],
    ] {
        let out = htlc(args, "");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("A004:error:"), "{stderr}");
        assert!(stderr.contains(&cap), "{stderr}");
    }

    // The repro: a good job, the huge one, a good job — the service
    // answers all three and drains to a clean exit.
    let good = |id: &str| {
        format!(
            r#"{{"schema":"logrel-job-v1","id":"{id}","spec_path":"{SPEC_PATH}","scenario_path":"{SCENARIO_PATH}","rounds":50,"replications":2,"seed":1}}"#
        )
    };
    let huge = good("huge").replace(r#""replications":2"#, r#""replications":18446744073709551615"#);
    let out = htlc(&["serve", "--stdin"], &format!("{}\n{huge}\n{}\n", good("a"), good("b")));
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let statuses: Vec<&str> = stdout.lines().filter(|l| l.contains("logrel-job-status-v1")).collect();
    assert_eq!(statuses.len(), 3, "{stdout}");
    assert!(statuses[0].contains(r#""status":"done""#), "{stdout}");
    assert!(statuses[1].contains(r#""code":"S004""#), "{stdout}");
    assert!(statuses[2].contains(r#""status":"done""#), "{stdout}");
}

/// Many requests down one TCP connection: every reply comes back whole
/// and in request order (each request's lines go out as one write).
#[test]
fn tcp_connection_answers_many_requests_in_order() {
    use std::io::{BufRead, BufReader, Write};
    let server = logrel::serve::Server::start(engine(1, 4), "127.0.0.1:0").unwrap();
    let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    for i in 0..20 {
        let line = if i % 2 == 0 {
            format!(r#"{{"schema":"logrel-job-v1","id":"s{i}","op":"stats"}}"#)
        } else {
            format!(
                r#"{{"schema":"logrel-job-v1","id":"j{i}","spec_path":"{SPEC_PATH}","scenario_path":"{SCENARIO_PATH}","rounds":20,"replications":1,"seed":{i}}}"#
            )
        };
        writeln!(writer, "{line}").unwrap();
        let mut first = String::new();
        reader.read_line(&mut first).unwrap();
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        let first = parse_json(first.trim_end()).expect("a whole first line");
        let status = parse_json(status.trim_end()).expect("a whole status line");
        assert_eq!(
            first.get("schema").and_then(Json::as_str),
            Some("logrel-metrics-v1"),
            "reply {i}"
        );
        let id = if i % 2 == 0 { format!("s{i}") } else { format!("j{i}") };
        assert_eq!(status.get("id").and_then(Json::as_str), Some(id.as_str()));
        assert_eq!(status.get("status").and_then(Json::as_str), Some("done"));
    }
    drop((reader, writer));
    server.shutdown();
}

/// A fleet of services sharing one `.logrel-cache` path: concurrent
/// compiles race their atomic cache rewrites, and a reader must never
/// observe a torn file (the temp-file-plus-rename fix under test).
#[test]
fn engines_sharing_a_cache_file_never_tear_it() {
    let dir = std::env::temp_dir().join(format!(
        "logrel-serve-cache-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let cache_path = dir.join("fleet.logrel-cache");
    let cache_path = cache_path.to_str().unwrap().to_owned();

    let base_spec = std::fs::read_to_string("examples/htl/infusion_pump.htl").unwrap();
    let scenario = std::fs::read_to_string(SCENARIO_PATH).unwrap();
    let engines: Vec<Engine> = (0..3)
        .map(|_| {
            Engine::new(ServeConfig {
                workers: 2,
                queue_capacity: 8,
                recorder_capacity: 0,
                cache_path: Some(cache_path.clone()),
            })
        })
        .collect();
    let torn_reads = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for (e, engine) in engines.iter().enumerate() {
            for i in 0..2 {
                let (base_spec, scenario) = (&base_spec, &scenario);
                scope.spawn(move || {
                    // Distinct program names make distinct content
                    // hashes: every submission compiles (and rewrites
                    // the shared cache file).
                    let spec = base_spec
                        .replace("program infusion_pump", &format!("program pump_{e}_{i}"));
                    let out = engine
                        .submit(&Job {
                            spec_source: spec,
                            spec_label: format!("fleet-{e}-{i}.htl"),
                            scenario_source: scenario.clone(),
                            rounds: 50,
                            replications: 2,
                            seed: 9,
                            lanes: LaneMode::Auto,
                        })
                        .expect("fleet job succeeds");
                    assert!(!out.cache_hit);
                });
            }
        }
        // A concurrent reader hammering the shared path: atomic renames
        // mean it sees either no file or a valid one, never garbage.
        let (cache_path, torn_reads) = (&cache_path, &torn_reads);
        scope.spawn(move || {
            for _ in 0..400 {
                if let logrel::query::LoadOutcome::Invalid(_) = logrel::query::load(cache_path) {
                    torn_reads.fetch_add(1, Ordering::Relaxed);
                }
                std::thread::yield_now();
            }
        });
    });
    assert_eq!(torn_reads.load(Ordering::Relaxed), 0, "reader saw a torn cache file");
    assert!(
        matches!(logrel::query::load(&cache_path), logrel::query::LoadOutcome::Loaded(_)),
        "final cache file must be valid"
    );
    for engine in engines {
        engine.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `job()` on a spec made distinct by a trailing comment: a cold
/// compile of the same system.
fn cold_job(i: usize) -> Job {
    let mut job = job();
    job.spec_source.push_str(&format!("// cold variant {i}\n"));
    job.replications = 2;
    job.rounds = 50;
    job
}

/// The compilation cache is bounded by bytes: a stream of distinct cold
/// specs twice the budget evicts the least recently used ones (counted
/// in `op:stats`), a hot spec used between them keeps hitting, and an
/// evicted spec compiles again to a byte-identical metrics line.
#[test]
fn compile_cache_evicts_least_recently_used_specs_beyond_its_budget() {
    let engine = engine(2, 4);
    let hot = job();
    assert!(!submit_ok(&engine, &hot).cache_hit);
    let charge = |job: &Job| {
        let sys = logrel::lang::compile(&job.spec_source).unwrap();
        let compiled = CompiledSpec::new(sys, &mut NoopSink).unwrap();
        entry_bytes(&job.spec_source, &compiled)
    };
    // Every cold spec is charged at least as much as the first.
    let per_spec = charge(&cold_job(0));
    let cold = 2 * COMPILE_CACHE_BYTES / per_spec + 1;
    let first = submit_ok(&engine, &cold_job(0));
    assert!(!first.cache_hit);
    for i in 1..cold {
        assert!(!submit_ok(&engine, &cold_job(i)).cache_hit, "cold spec {i}");
        if i % 10 == 0 {
            assert!(
                submit_ok(&engine, &hot).cache_hit,
                "hot spec after {i} cold ones"
            );
        }
    }
    let room = COMPILE_CACHE_BYTES / per_spec;
    let evicted = engine.counter(names::SERVE_CACHE_EVICTIONS);
    assert!(
        evicted as usize >= cold - room,
        "{evicted} evictions for {cold} cold specs and room for {room}"
    );
    assert!(engine
        .stats_line()
        .contains(&format!("\"{}\":{evicted}", names::SERVE_CACHE_EVICTIONS)));
    // The first cold spec was the least recently used: it compiles again.
    let again = submit_ok(&engine, &cold_job(0));
    assert!(!again.cache_hit);
    assert_eq!(again.metrics_line, first.metrics_line);
    assert!(submit_ok(&engine, &hot).cache_hit);
    engine.shutdown();
}
