//! Emits a performance snapshot of the hot paths as one comparable JSON
//! artefact (the Criterion benches need a dev-dependency and an
//! interactive run; this binary gives CI and future sessions a
//! dependency-free trajectory point).
//!
//! Measured, each as the best (minimum) of several timed repetitions:
//!
//! * compiled simulator kernel (a one-lane group of the lane-group
//!   kernel) and the map-driven reference interpreter on the 3TS baseline
//!   workload (rounds/sec, communicator-update events/sec, and the median
//!   of paired per-rep speedup ratios, floor-gated at 1.95x under
//!   `--compare`);
//! * the kernel through `run_observed` with the no-op metrics sink
//!   (`kernel_observed_noop_rounds_per_sec` — must match the plain kernel;
//!   the sink monomorphizes to nothing) and with a live `Registry`
//!   (`kernel_observed_registry_rounds_per_sec` — the enabled-path cost);
//! * the bit-sliced kernel packing 64 replications per `u64` word
//!   (`kernel_bitsliced_rounds_per_sec` — replication-rounds per second
//!   across all lanes; `bitsliced_speedup_over_kernel` is its ratio to
//!   the one-lane kernel, floor-gated at 10x under `--compare`);
//! * the kernel under the scenario layer: a plain timeline (crash/rejoin,
//!   flaky window, GE burst) versus the same timeline plus every
//!   correlated event kind (common-cause group, partition, Weibull
//!   wear-out, adaptive adversary) — `scenario_overhead` is the
//!   correlated/plain slowdown, floor-gated at ≤1.2x under `--compare`;
//! * `compute_srgs` on the 3TS (ns per full report);
//! * full static reliability certification on the 3TS
//!   (`certify_specs_per_sec` — interval SRGs, symbolic sensitivities and
//!   per-component margins per spec);
//! * the incremental analysis engine on the steer-by-wire study:
//!   `analyze_cold_specs_per_sec` runs all seven queries from scratch,
//!   `analyze_warm_specs_per_sec` re-analyses after a single-task WCET
//!   decrease against the cold database (only the dirtied cone runs;
//!   schedulability transfers by refinement reuse) — their ratio is
//!   floor-gated at 5x under `--compare`;
//! * greedy and exhaustive replication synthesis on a three-host pipeline
//!   (ms per solve, timed over inner batches — a single solve is µs-scale).
//!
//! Usage:
//!
//! ```text
//! bench_snapshot [--out PATH] [--compare BASELINE] [--tolerance FRAC]
//! ```
//!
//! Writes the snapshot to `BENCH_snapshot.json` (override with `--out`).
//! With `--compare`, gated metrics are checked against the baseline
//! snapshot and the process exits nonzero when any regresses by more
//! than `--tolerance` (default 0.15). `verify.sh` widens the tolerance:
//! absolute throughput on a shared VM drifts by phase (2x swings
//! observed), so the absolute gate is a coarse smoke alarm while the
//! paired-ratio floors and ceilings below carry the tight guarantees.
//!
//! Run with: `cargo run --release -p logrel-bench --bin bench_snapshot`

use logrel_core::prelude::*;
use logrel_obs::{NoopSink, Registry};
use logrel_reliability::{compute_srgs, exhaustive_synthesize, synthesize, SynthesisOptions};
use logrel_sim::{
    derive_seed, BehaviorMap, ConstantEnvironment, HostSet, LaneContext, NoSupervisor,
    ProbabilisticFaults, Scenario as FaultScenario, ScenarioEnvironment, ScenarioEvent,
    ScenarioInjector, SimConfig, SimOutput, Simulation,
};
use logrel_threetank::{Scenario, ThreeTankSystem};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

const SIM_ROUNDS: u64 = 10_000;
const REPS: usize = 7;
/// Inner batch size for µs-scale workloads: one timed sample solves the
/// synthesis problem this many times, so the sample is well above timer
/// granularity and scheduler noise.
const SYNTH_BATCH: usize = 50;
/// Inner batch sizes for the `analyze` cold/warm workloads. The warm
/// batch is larger so both timed samples last a few milliseconds each:
/// with equal durations, a scheduler preemption inflates either side of
/// the paired ratio by the same relative amount instead of hitting the
/// (otherwise much shorter) warm sample ~7x harder.
const ANALYZE_COLD_BATCH: usize = 32;
const ANALYZE_WARM_BATCH: usize = 64;

/// The steer-by-wire case study: the incremental-analysis workload.
const STEER_SRC: &str = include_str!("../../../../assets/steer_by_wire.htl");

/// Metrics gated by `--compare`, with their direction (`true` = higher
/// is better). Keys missing from the baseline are skipped, so older
/// baselines stay comparable as metrics are added.
const GATES: &[(&str, bool)] = &[
    ("kernel_rounds_per_sec", true),
    ("kernel_observed_noop_rounds_per_sec", true),
    ("kernel_observed_registry_rounds_per_sec", true),
    ("kernel_bitsliced_rounds_per_sec", true),
    ("kernel_scenario_plain_rounds_per_sec", true),
    ("kernel_scenario_correlated_rounds_per_sec", true),
    ("reference_rounds_per_sec", true),
    ("compute_srgs_3ts_ns", false),
    ("certify_specs_per_sec", true),
    ("analyze_cold_specs_per_sec", true),
    ("analyze_warm_specs_per_sec", true),
    ("greedy_ms", false),
    ("exhaustive_ms", false),
    ("serve_cold_jobs_per_sec", true),
    ("serve_jobs_per_sec", true),
];

/// Absolute ratio floors checked under `--compare` regardless of the
/// baseline's contents (a fresh baseline cannot vouch for keys it never
/// had): the bit-sliced kernel must hold its headline speedup, and the
/// live-registry observer must stay within striking distance of the
/// plain kernel.
const RATIO_FLOORS: &[(&str, &str, &str, f64)] = &[
    (
        "bit-sliced speedup",
        "kernel_bitsliced_rounds_per_sec",
        "kernel_rounds_per_sec",
        10.0,
    ),
    (
        "observed-registry overhead",
        "kernel_observed_registry_rounds_per_sec",
        "kernel_rounds_per_sec",
        0.6,
    ),
    // An empty denominator key gates the numerator metric directly: the
    // reported speedup is already a ratio (median of paired per-rep
    // cold/warm ratios, which cancels machine-wide frequency drift that
    // a quotient of independent minima would not).
    ("incremental re-analysis speedup", "analyze_warm_speedup", "", 5.0),
    // The campaign service's reason to exist: once a spec is in the
    // compilation cache, a job is just its (tiny, here) campaign.
    ("serve warm-cache speedup", "serve_warm_speedup", "", 5.0),
    // A single run is a one-lane group of the lane-group kernel; it must
    // keep the speed of the dedicated scalar loop it replaced. The
    // reference interpreter is the in-binary yardstick: the floor is
    // 0.95x the paired median measured on the scalar loop (2.05, median
    // of six runs on the same 2-core VM, range 1.92-2.13).
    ("one-lane kernel speedup over reference", "kernel_speedup_over_reference", "", 1.95),
];

/// Absolute ratio ceilings, the mirror of [`RATIO_FLOORS`]: the metric
/// (already a ratio) must stay at or below the bound. The correlated
/// scenario ecology (common-cause draws, partition masks, Weibull
/// hazards, vote observation) may cost at most 1.2x the plain scenario
/// path; `scenario_overhead` is a median of per-rep paired ratios, so
/// machine-wide frequency drift cancels.
const RATIO_CEILS: &[(&str, &str, f64)] = &[("correlated-scenario overhead", "scenario_overhead", 1.2)];

/// Minimum wall-clock seconds over `REPS` runs of `f`. The minimum is
/// the noise-robust estimator for throughput on shared machines: every
/// contamination (scheduler preemption, a noisy neighbour) only ever
/// adds time, so the fastest sample is the closest to the true cost.
fn best_secs(mut f: impl FnMut()) -> f64 {
    (0..REPS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::MAX, f64::min)
}

enum Mode {
    Kernel,
    Reference,
    ObservedNoop,
    ObservedRegistry,
}

fn run_sim(sim: &Simulation, arch: &Architecture, mode: &Mode) -> SimOutput {
    let mut behaviors = BehaviorMap::new();
    let mut env = ConstantEnvironment::new(Value::Float(0.2));
    let mut inj = ProbabilisticFaults::from_architecture(arch);
    let config = SimConfig {
        rounds: SIM_ROUNDS,
        seed: 5,
    };
    match mode {
        Mode::Kernel => sim.run(&mut behaviors, &mut env, &mut inj, &config),
        Mode::Reference => sim.run_reference(&mut behaviors, &mut env, &mut inj, &config),
        Mode::ObservedNoop => sim.run_observed(
            &mut behaviors,
            &mut env,
            &mut inj,
            &mut NoSupervisor,
            &mut NoopSink,
            &config,
        ),
        Mode::ObservedRegistry => sim.run_observed(
            &mut behaviors,
            &mut env,
            &mut inj,
            &mut NoSupervisor,
            &mut Registry::new(),
            &config,
        ),
    }
}

/// The synthesis workload: sensor -> reader -> ctrl pipeline, three hosts,
/// an LRC only double replication of both tasks can meet.
fn synthesis_system() -> (Specification, Architecture, Implementation) {
    let mut sb = Specification::builder();
    let s = sb
        .communicator(
            CommunicatorDecl::new("s", ValueType::Float, 500)
                .expect("valid")
                .from_sensor(),
        )
        .expect("unique");
    let l = sb
        .communicator(CommunicatorDecl::new("l", ValueType::Float, 100).expect("valid"))
        .expect("unique");
    let u = sb
        .communicator(
            CommunicatorDecl::new("u", ValueType::Float, 100)
                .expect("valid")
                .with_lrc(Reliability::new(0.9995).expect("valid")),
        )
        .expect("unique");
    let reader = sb
        .task(TaskDecl::new("reader").reads(s, 0).writes(l, 1))
        .expect("valid");
    let ctrl = sb
        .task(TaskDecl::new("ctrl").reads(l, 1).writes(u, 3))
        .expect("valid");
    let spec = sb.build().expect("well-formed");
    let mut ab = Architecture::builder();
    let hosts: Vec<HostId> = ["h1", "h2", "h3"]
        .iter()
        .map(|n| {
            ab.host(HostDecl::new(*n, Reliability::new(0.999).expect("valid")))
                .expect("unique")
        })
        .collect();
    let sen = ab
        .sensor(SensorDecl::new("sen", Reliability::ONE))
        .expect("unique");
    for t in [reader, ctrl] {
        ab.wcet_all(t, 1).expect("hosts");
        ab.wctt_all(t, 1).expect("hosts");
    }
    let arch = ab.build();
    let imp = Implementation::builder()
        .assign(reader, [hosts[2]])
        .assign(ctrl, [hosts[0]])
        .bind_sensor(s, sen)
        .build(&spec, &arch)
        .expect("valid");
    (spec, arch, imp)
}

/// Extracts every `"key": <number>` pair from a snapshot document — the
/// minimal scanner the flat snapshot format needs (string values and
/// object openers parse as no number and are skipped).
fn scan_numbers(json: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let parts: Vec<&str> = json.split('"').collect();
    // parts alternate outside/inside quotes; odd indices are quoted keys.
    for i in (1..parts.len()).step_by(2) {
        let Some(after) = parts.get(i + 1) else {
            continue;
        };
        let Some(rest) = after.trim_start().strip_prefix(':') else {
            continue;
        };
        let num: String = rest
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
            .collect();
        if let Ok(v) = num.parse::<f64>() {
            out.insert(parts[i].to_owned(), v);
        }
    }
    out
}

/// Compares current against baseline over [`GATES`]; returns the number
/// of metrics regressed beyond `tolerance`.
fn compare(
    current: &BTreeMap<String, f64>,
    baseline: &BTreeMap<String, f64>,
    tolerance: f64,
) -> usize {
    let mut regressions = 0;
    println!(
        "{:<42} {:>14} {:>14} {:>8}  verdict",
        "metric", "baseline", "current", "delta"
    );
    for &(key, higher_is_better) in GATES {
        let (Some(&base), Some(&cur)) = (baseline.get(key), current.get(key)) else {
            println!("{key:<42} {:>14} {:>14} {:>8}  skipped (missing)", "-", "-", "-");
            continue;
        };
        let delta = if base == 0.0 { 0.0 } else { cur / base - 1.0 };
        let regressed = if higher_is_better {
            cur < base * (1.0 - tolerance)
        } else {
            cur > base * (1.0 + tolerance)
        };
        if regressed {
            regressions += 1;
        }
        println!(
            "{key:<42} {base:>14.3} {cur:>14.3} {:>+7.1}%  {}",
            delta * 100.0,
            if regressed { "REGRESSED" } else { "ok" }
        );
    }
    regressions
}

struct Args {
    out: String,
    compare: Option<String>,
    tolerance: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut out = "BENCH_snapshot.json".to_owned();
    let mut compare = None;
    let mut tolerance = 0.15;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = it.next().ok_or("--out requires a path")?,
            "--compare" => compare = Some(it.next().ok_or("--compare requires a path")?),
            "--tolerance" => {
                tolerance = it
                    .next()
                    .ok_or("--tolerance requires a fraction")?
                    .parse()
                    .map_err(|_| "bad --tolerance value".to_owned())?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        out,
        compare,
        tolerance,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("bench_snapshot: {msg}");
            eprintln!("usage: bench_snapshot [--out PATH] [--compare BASELINE] [--tolerance FRAC]");
            return ExitCode::from(1);
        }
    };

    // The analyze workload runs first, before the heavy simulation
    // workloads: its samples are tens of microseconds and measurably
    // degrade on the heap and cache state those leave behind.
    // Incremental-analysis workload: cold is a from-scratch run of all
    // seven queries on the steer-by-wire study; warm re-analyses after a
    // single-task WCET decrease against the cold database — only the
    // dirtied cone runs (schedulability transfers by refinement reuse,
    // everything else is green).
    let steer_db = logrel_query::analyze_source(
        STEER_SRC,
        "steer_by_wire.htl",
        None,
        &mut NoopSink,
    )
    .db
    .expect("steer-by-wire parses");
    let steer_edited = STEER_SRC.replace("wcet torque on ecu_a 5;", "wcet torque on ecu_a 4;");
    assert_ne!(steer_edited, STEER_SRC, "edit site must exist in the fixture");
    // Cold and warm samples are interleaved within each rep so that CPU
    // frequency drift and scheduler noise (this is a shared machine) bias
    // both sides of the speedup ratio alike. The throughput numbers use
    // the per-side minimum (the same noise-robust estimator as
    // `best_secs`); the speedup uses the *median of per-rep paired
    // ratios*, because pairing cancels machine-wide drift that
    // independent minima (possibly from different reps) do not.
    // Many more reps than `REPS`: shared-VM throughput shifts on a
    // seconds scale, and a run must span several such states for its
    // median to converge on the long-run ratio (24 reps = ~0.2 s was
    // observably run-to-run unstable; 128 reps = ~1 s is not).
    const ANALYZE_REPS: usize = 128;
    let (mut analyze_cold_secs, mut analyze_warm_secs) = (f64::MAX, f64::MAX);
    let mut analyze_ratios = [0.0f64; ANALYZE_REPS];
    for ratio in &mut analyze_ratios {
        let start = Instant::now();
        for _ in 0..ANALYZE_COLD_BATCH {
            std::hint::black_box(logrel_query::analyze_source(
                STEER_SRC,
                "steer_by_wire.htl",
                None,
                &mut NoopSink,
            ));
        }
        let cold = start.elapsed().as_secs_f64() / ANALYZE_COLD_BATCH as f64;
        analyze_cold_secs = analyze_cold_secs.min(cold);
        let start = Instant::now();
        for _ in 0..ANALYZE_WARM_BATCH {
            std::hint::black_box(logrel_query::analyze_source(
                &steer_edited,
                "steer_by_wire.htl",
                Some(&steer_db),
                &mut NoopSink,
            ));
        }
        let warm = start.elapsed().as_secs_f64() / ANALYZE_WARM_BATCH as f64;
        analyze_warm_secs = analyze_warm_secs.min(warm);
        *ratio = cold / warm;
    }
    analyze_ratios.sort_by(f64::total_cmp);
    let analyze_speedup =
        (analyze_ratios[ANALYZE_REPS / 2 - 1] + analyze_ratios[ANALYZE_REPS / 2]) / 2.0;

    // Campaign-service workload: jobs/sec through `logrel_serve::Engine`
    // with a deliberately tiny campaign (one replication x 20 rounds) on
    // a 16-task generated spec, so the job cost is dominated by the
    // front half — analysis, elaboration, round-program compilation,
    // SRGs. Cold clears the compilation cache before each batch of
    // distinct specs; warm resubmits the same batch and must hit the
    // cache on every job. Same pairing discipline as the analyze
    // workload: per-rep cold/warm ratios, median speedup.
    const SERVE_REPS: usize = 16;
    const SERVE_SPECS: usize = 4;
    let serve_engine = logrel_serve::Engine::new(logrel_serve::ServeConfig {
        workers: 2,
        queue_capacity: SERVE_SPECS + 1,
        recorder_capacity: 0,
        cache_path: None,
    });
    let serve_jobs: Vec<logrel_serve::Job> = (0..SERVE_SPECS)
        .map(|i| logrel_serve::Job {
            // Distinct program names give distinct content hashes, so a
            // cold batch really compiles SERVE_SPECS times.
            spec_source: logrel_bench::big_htl_source(16)
                .replace("program big", &format!("program big_{i}")),
            spec_label: format!("big_{i}.htl"),
            scenario_source: "scn v2\n".to_owned(),
            rounds: 20,
            replications: 1,
            seed: 3,
            lanes: logrel_sim::LaneMode::Auto,
        })
        .collect();
    let (mut serve_cold_secs, mut serve_warm_secs) = (f64::MAX, f64::MAX);
    let mut serve_ratios = [0.0f64; SERVE_REPS];
    for ratio in &mut serve_ratios {
        serve_engine.clear_cache();
        let start = Instant::now();
        for job in &serve_jobs {
            std::hint::black_box(serve_engine.submit(job).expect("bench job succeeds"));
        }
        let cold = start.elapsed().as_secs_f64() / SERVE_SPECS as f64;
        serve_cold_secs = serve_cold_secs.min(cold);
        let start = Instant::now();
        for job in &serve_jobs {
            let out = serve_engine.submit(job).expect("bench job succeeds");
            assert!(out.cache_hit, "warm batch must not recompile");
            std::hint::black_box(out);
        }
        let warm = start.elapsed().as_secs_f64() / SERVE_SPECS as f64;
        serve_warm_secs = serve_warm_secs.min(warm);
        *ratio = cold / warm;
    }
    serve_engine.shutdown();
    serve_ratios.sort_by(f64::total_cmp);
    let serve_speedup =
        (serve_ratios[SERVE_REPS / 2 - 1] + serve_ratios[SERVE_REPS / 2]) / 2.0;

    let sys = ThreeTankSystem::with_options(Scenario::Baseline, 0.99, None).expect("valid");
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::new(&sys.spec, &sys.arch, &imp);

    // One untimed run to count the recorded communicator-update events.
    let out = run_sim(&sim, &sys.arch, &Mode::Kernel);
    let events: usize = sys
        .spec
        .communicator_ids()
        .map(|c| out.trace.update_count(c))
        .sum();

    // Kernel and reference samples are interleaved within each rep —
    // alternating which side runs first — and the speedup is the median
    // of the per-rep paired ratios: the reference interpreter is the
    // fixed yardstick the one production kernel is gated against at
    // width 1, and pairing cancels the machine-wide drift that a
    // quotient of independent minima would not. The throughput numbers
    // use the per-side minimum.
    const KERNEL_REPS: usize = 31;
    let time = |mode: &Mode| {
        let start = Instant::now();
        std::hint::black_box(run_sim(&sim, &sys.arch, mode));
        start.elapsed().as_secs_f64()
    };
    let (mut kernel_secs, mut reference_secs) = (f64::MAX, f64::MAX);
    let mut kernel_ratios = [0.0f64; KERNEL_REPS];
    for (rep, ratio) in kernel_ratios.iter_mut().enumerate() {
        let (kernel, reference) = if rep % 2 == 0 {
            let k = time(&Mode::Kernel);
            (k, time(&Mode::Reference))
        } else {
            let r = time(&Mode::Reference);
            (time(&Mode::Kernel), r)
        };
        kernel_secs = kernel_secs.min(kernel);
        reference_secs = reference_secs.min(reference);
        *ratio = reference / kernel;
    }
    kernel_ratios.sort_by(f64::total_cmp);
    let kernel_speedup = kernel_ratios[KERNEL_REPS / 2];
    let observed_noop_secs = best_secs(|| {
        std::hint::black_box(run_sim(&sim, &sys.arch, &Mode::ObservedNoop));
    });
    let observed_registry_secs = best_secs(|| {
        std::hint::black_box(run_sim(&sim, &sys.arch, &Mode::ObservedRegistry));
    });
    // The bit-sliced kernel runs 64 independent replications per sample;
    // lane setup (64 RNGs and injectors) is noise against 10k rounds.
    const LANES: usize = 64;
    let bitsliced_secs = best_secs(|| {
        let mut behaviors = BehaviorMap::new();
        let mut lanes: Vec<_> = (0..LANES)
            .map(|i| {
                LaneContext::plain(
                    derive_seed(5, i as u64),
                    ProbabilisticFaults::from_architecture(&sys.arch),
                    ConstantEnvironment::new(Value::Float(0.2)),
                )
            })
            .collect();
        std::hint::black_box(sim.run_bitsliced(&mut behaviors, &mut lanes, SIM_ROUNDS));
    });
    let bitsliced_rps = SIM_ROUNDS as f64 * LANES as f64 / bitsliced_secs;

    // Scenario-layer overhead: the same kernel workload through a plain
    // timeline (crash/rejoin, a flaky window, a GE burst — all draws the
    // pre-correlation injector made) versus that timeline plus every
    // correlated event kind active across the horizon. The ratio is the
    // marginal cost of the correlated ecology, gated at 1.2x.
    const HORIZON: u64 = SIM_ROUNDS * 500;
    let plain_events = vec![
        ScenarioEvent::Crash {
            host: sys.ids.h1,
            at: Tick::new(HORIZON / 5),
        },
        ScenarioEvent::Rejoin {
            host: sys.ids.h1,
            at: Tick::new(HORIZON / 5 + 50_000),
        },
        ScenarioEvent::Flaky {
            host: sys.ids.h2,
            from: Tick::new(0),
            until: Tick::new(HORIZON),
            up: 0.99,
        },
        ScenarioEvent::Burst {
            from: Tick::new(0),
            until: Tick::new(HORIZON),
            p_enter: 0.01,
            p_exit: 0.2,
            loss: 0.5,
        },
    ];
    let mut correlated_events = plain_events.clone();
    correlated_events.extend([
        ScenarioEvent::CommonCause {
            hosts: HostSet::from_hosts([sys.ids.h1, sys.ids.h3]).expect("valid group"),
            from: Tick::new(0),
            until: Tick::new(HORIZON),
            p: 0.01,
        },
        ScenarioEvent::Partition {
            hosts: HostSet::from_hosts([sys.ids.h2]).expect("valid group"),
            from: Tick::new(2 * HORIZON / 5),
            until: Tick::new(3 * HORIZON / 5),
        },
        ScenarioEvent::Wearout {
            host: sys.ids.h3,
            from: Tick::new(0),
            until: Tick::new(HORIZON),
            shape: 2.0,
            scale: (4 * HORIZON / 5) as f64,
        },
        ScenarioEvent::Adversary {
            from: Tick::new(0),
            until: Tick::new(HORIZON),
            hold: 5,
        },
    ]);
    let scenario_plain = FaultScenario::from_events(plain_events).expect("valid timeline");
    let scenario_correlated =
        FaultScenario::from_events(correlated_events).expect("valid timeline");
    let one_scenario_run = |scn: &FaultScenario| -> f64 {
        let comms = sys.spec.communicator_count();
        let mut behaviors = BehaviorMap::new();
        let mut env =
            ScenarioEnvironment::new(ConstantEnvironment::new(Value::Float(0.2)), scn, comms);
        let mut inj = ScenarioInjector::new(
            ProbabilisticFaults::from_architecture(&sys.arch),
            scn,
            sys.arch.host_count(),
            comms,
        )
        .expect("valid scenario");
        let start = Instant::now();
        std::hint::black_box(sim.run(
            &mut behaviors,
            &mut env,
            &mut inj,
            &SimConfig {
                rounds: SIM_ROUNDS,
                seed: 5,
            },
        ));
        start.elapsed().as_secs_f64()
    };
    // Plain and correlated samples are interleaved within each rep —
    // alternating which side runs first so intra-pair clock drift cancels
    // in expectation — and the overhead is the median of the per-rep
    // paired ratios, the same drift-cancelling estimator as the analyze
    // speedup. The throughput numbers use the per-side minimum.
    const SCN_REPS: usize = 15;
    let (mut scenario_plain_secs, mut scenario_correlated_secs) = (f64::MAX, f64::MAX);
    let mut scenario_ratios = [0.0f64; SCN_REPS];
    for (rep, ratio) in scenario_ratios.iter_mut().enumerate() {
        let (plain, correlated) = if rep % 2 == 0 {
            let p = one_scenario_run(&scenario_plain);
            (p, one_scenario_run(&scenario_correlated))
        } else {
            let c = one_scenario_run(&scenario_correlated);
            (one_scenario_run(&scenario_plain), c)
        };
        scenario_plain_secs = scenario_plain_secs.min(plain);
        scenario_correlated_secs = scenario_correlated_secs.min(correlated);
        *ratio = correlated / plain;
    }
    scenario_ratios.sort_by(f64::total_cmp);
    let scenario_overhead = scenario_ratios[SCN_REPS / 2];

    let srg_secs = best_secs(|| {
        std::hint::black_box(compute_srgs(&sys.spec, &sys.arch, &sys.imp).expect("memory-free"));
    });

    // Full certification (interval SRGs + symbolic polynomials + margins)
    // is ~100x the plain SRG fixpoint; a small inner batch still keeps
    // each timed sample above timer granularity.
    const CERTIFY_BATCH: usize = 8;
    let certify_secs = best_secs(|| {
        for _ in 0..CERTIFY_BATCH {
            std::hint::black_box(
                logrel_reliability::certify(&sys.spec, &sys.arch, &sys.imp, None)
                    .expect("memory-free"),
            );
        }
    }) / CERTIFY_BATCH as f64;

    let (spec, arch, base) = synthesis_system();
    let opts = SynthesisOptions::default();
    let greedy_secs = best_secs(|| {
        for _ in 0..SYNTH_BATCH {
            std::hint::black_box(
                synthesize(&spec, &arch, &base, &opts, |_| true).expect("solvable"),
            );
        }
    }) / SYNTH_BATCH as f64;
    let exhaustive_secs = best_secs(|| {
        for _ in 0..SYNTH_BATCH {
            std::hint::black_box(
                exhaustive_synthesize(&spec, &arch, &base, &opts, |_| true).expect("solvable"),
            );
        }
    }) / SYNTH_BATCH as f64;

    let json = format!(
        "{{\n  \
         \"workload\": \"3TS baseline, reliability 0.99, {SIM_ROUNDS} rounds, seed 5\",\n  \
         \"simulator\": {{\n    \
         \"rounds\": {SIM_ROUNDS},\n    \
         \"events_per_run\": {events},\n    \
         \"kernel_rounds_per_sec\": {:.0},\n    \
         \"kernel_events_per_sec\": {:.0},\n    \
         \"kernel_observed_noop_rounds_per_sec\": {:.0},\n    \
         \"kernel_observed_registry_rounds_per_sec\": {:.0},\n    \
         \"kernel_bitsliced_rounds_per_sec\": {:.0},\n    \
         \"kernel_scenario_plain_rounds_per_sec\": {:.0},\n    \
         \"kernel_scenario_correlated_rounds_per_sec\": {:.0},\n    \
         \"scenario_overhead\": {:.3},\n    \
         \"reference_rounds_per_sec\": {:.0},\n    \
         \"reference_events_per_sec\": {:.0},\n    \
         \"kernel_speedup_over_reference\": {:.2},\n    \
         \"bitsliced_speedup_over_kernel\": {:.2}\n  }},\n  \
         \"srg\": {{\n    \
         \"compute_srgs_3ts_ns\": {:.0},\n    \
         \"certify_specs_per_sec\": {:.1}\n  }},\n  \
         \"query\": {{\n    \
         \"analyze_workload\": \"steer-by-wire, warm = single-task WCET decrease vs cold db\",\n    \
         \"analyze_cold_specs_per_sec\": {:.1},\n    \
         \"analyze_warm_specs_per_sec\": {:.1},\n    \
         \"analyze_warm_speedup\": {:.2}\n  }},\n  \
         \"serve\": {{\n    \
         \"serve_workload\": \"16-task spec x4 distinct hashes, 1x20-round campaigns, cold = cleared cache\",\n    \
         \"serve_cold_jobs_per_sec\": {:.1},\n    \
         \"serve_jobs_per_sec\": {:.1},\n    \
         \"serve_warm_speedup\": {:.2}\n  }},\n  \
         \"synthesis\": {{\n    \
         \"greedy_ms\": {:.4},\n    \
         \"exhaustive_ms\": {:.4}\n  }}\n}}\n",
        SIM_ROUNDS as f64 / kernel_secs,
        events as f64 / kernel_secs,
        SIM_ROUNDS as f64 / observed_noop_secs,
        SIM_ROUNDS as f64 / observed_registry_secs,
        bitsliced_rps,
        SIM_ROUNDS as f64 / scenario_plain_secs,
        SIM_ROUNDS as f64 / scenario_correlated_secs,
        scenario_overhead,
        SIM_ROUNDS as f64 / reference_secs,
        events as f64 / reference_secs,
        kernel_speedup,
        bitsliced_rps * kernel_secs / SIM_ROUNDS as f64,
        srg_secs * 1e9,
        1.0 / certify_secs,
        1.0 / analyze_cold_secs,
        1.0 / analyze_warm_secs,
        analyze_speedup,
        1.0 / serve_cold_secs,
        1.0 / serve_warm_secs,
        serve_speedup,
        greedy_secs * 1e3,
        exhaustive_secs * 1e3,
    );
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("bench_snapshot: cannot write `{}`: {e}", args.out);
        return ExitCode::from(1);
    }
    print!("{json}");
    println!("wrote {}", args.out);

    if let Some(baseline_path) = &args.compare {
        let baseline = match std::fs::read_to_string(baseline_path) {
            Ok(text) => scan_numbers(&text),
            Err(e) => {
                eprintln!("bench_snapshot: cannot read `{baseline_path}`: {e}");
                return ExitCode::from(1);
            }
        };
        println!("\ncomparing against {baseline_path} (tolerance {:.0}%):", args.tolerance * 100.0);
        let current = scan_numbers(&json);
        let mut regressions = compare(&current, &baseline, args.tolerance);
        for &(label, num, den, floor) in RATIO_FLOORS {
            let Some(&n) = current.get(num) else {
                continue;
            };
            let d = if den.is_empty() {
                1.0
            } else if let Some(&d) = current.get(den) {
                d
            } else {
                continue;
            };
            let ratio = n / d;
            let ok = ratio >= floor;
            println!(
                "{label:<42} {:>14} {ratio:>14.2} {floor:>7.2}x  {}",
                "-",
                if ok { "ok" } else { "BELOW FLOOR" }
            );
            if !ok {
                regressions += 1;
            }
        }
        for &(label, key, ceil) in RATIO_CEILS {
            let Some(&v) = current.get(key) else {
                continue;
            };
            let ok = v <= ceil;
            println!(
                "{label:<42} {:>14} {v:>14.2} {ceil:>6.2}x≥  {}",
                "-",
                if ok { "ok" } else { "ABOVE CEILING" }
            );
            if !ok {
                regressions += 1;
            }
        }
        if regressions > 0 {
            eprintln!("bench_snapshot: {regressions} metric(s) regressed beyond tolerance");
            return ExitCode::from(1);
        }
        println!("no regressions beyond tolerance");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scanner_extracts_numbers_and_skips_strings() {
        let doc = "{\n  \"workload\": \"3TS, 10000 rounds\",\n  \"sim\": {\n    \
                   \"kernel_rounds_per_sec\": 1267888,\n    \"speedup\": 2.08\n  }\n}\n";
        let nums = scan_numbers(doc);
        assert_eq!(nums.get("kernel_rounds_per_sec"), Some(&1267888.0));
        assert_eq!(nums.get("speedup"), Some(&2.08));
        assert!(!nums.contains_key("workload"));
        assert!(!nums.contains_key("sim"));
    }

    #[test]
    fn compare_flags_only_regressions_beyond_tolerance() {
        let base: BTreeMap<String, f64> = [
            ("kernel_rounds_per_sec".to_owned(), 1000.0),
            ("greedy_ms".to_owned(), 1.0),
        ]
        .into();
        // 10% slower kernel, 10% slower synthesis: inside a 15% tolerance.
        let ok: BTreeMap<String, f64> = [
            ("kernel_rounds_per_sec".to_owned(), 900.0),
            ("greedy_ms".to_owned(), 1.1),
        ]
        .into();
        assert_eq!(compare(&ok, &base, 0.15), 0);
        // 30% slower kernel and doubled synthesis time: both regressed.
        let bad: BTreeMap<String, f64> = [
            ("kernel_rounds_per_sec".to_owned(), 700.0),
            ("greedy_ms".to_owned(), 2.0),
        ]
        .into();
        assert_eq!(compare(&bad, &base, 0.15), 2);
    }
}
