//! Emits a performance snapshot of the hot paths as one comparable JSON
//! artefact (the Criterion benches need a dev-dependency and an
//! interactive run; this binary gives CI and future sessions a
//! dependency-free trajectory point).
//!
//! Every ratio comes from one sampler, [`sample`]: it runs a set of arms
//! once per rep, rotating which arm goes first, for at least
//! [`MIN_REPS`] reps and [`MIN_SECS`] seconds. A ratio is the median over
//! reps of a ratio of one rep's samples, so machine-wide drift cancels
//! within the rep; a throughput is the minimum of its arm's samples.
//! Measured:
//!
//! * the compiled simulator kernel (a one-lane group of the lane-group
//!   kernel) on the 3TS baseline workload, in one sampler with four arms
//!   paired against it: the map-driven reference interpreter
//!   (`kernel_speedup_over_reference`), `run_observed` with the no-op
//!   sink (`observed_noop_over_kernel`, an A/A reading without a bound)
//!   and with a live `Registry` (`observed_registry_over_kernel`), and the
//!   bit-sliced kernel packing 64 replications per `u64` word
//!   (`bitsliced_speedup_over_kernel`, in replication-rounds);
//! * the kernel under the scenario layer: a plain timeline (crash/rejoin,
//!   flaky window, GE burst) versus the same timeline plus every
//!   correlated event kind (common-cause group, partition, Weibull
//!   wear-out, adaptive adversary) — `scenario_overhead` is the
//!   correlated/plain slowdown;
//! * one 64-lane steer-by-wire campaign unit through the campaign path
//!   (`run_campaign_unit`: every scenario event kind, flight-recorder
//!   registries) with and without LRCs for its group monitor to watch
//!   (`campaign_monitor_overhead`), with the production registry against
//!   a `NoopSink` (`campaign_obs_overhead`), and under an empty scenario
//!   against its bare base injectors (`campaign_scenario_overhead`);
//! * one 256-replication steer-by-wire job through the service pipeline
//!   (`Plan`: the units on one thread per core, then `Plan::finish` and
//!   `to_json_line`) — `campaign_tail_share` is the median share of the
//!   job's wall time spent in that serial tail (reduce, merge, export);
//! * `compute_srgs` on the 3TS (ns per full report);
//! * full static reliability certification on the 3TS
//!   (`certify_specs_per_sec` — interval SRGs, symbolic sensitivities and
//!   per-component margins per spec);
//! * the incremental analysis engine on the steer-by-wire study:
//!   `analyze_cold_specs_per_sec` runs all seven queries from scratch,
//!   `analyze_warm_specs_per_sec` re-analyses after a single-task WCET
//!   decrease against the cold database (only the dirtied cone runs;
//!   schedulability transfers by refinement reuse), paired as
//!   `analyze_warm_speedup`;
//! * cold and warm jobs through the campaign service, paired as
//!   `serve_warm_speedup`;
//! * greedy and exhaustive replication synthesis on a three-host pipeline
//!   (ms per solve, timed over inner batches — a single solve is µs-scale).
//!
//! The metrics that feed only the absolute envelope (SRG, certify,
//! synthesis) are the best of [`REPS`] timed runs, unpaired.
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
//! than `--tolerance` (default 0.15), or when a ratio breaks its bound in
//! [`RATIO_BOUNDS`]. `verify.sh` widens the tolerance: absolute
//! throughput on a shared VM drifts by phase (2x swings observed), so the
//! absolute gate is a coarse smoke alarm while the ratio bounds carry the
//! tight guarantees.
//!
//! Run with: `cargo run --release -p logrel-bench --bin bench_snapshot`

use logrel_core::json::{self, Json};
use logrel_core::prelude::*;
use logrel_obs::export::to_json_line;
use logrel_obs::{MetricsSink, NoopSink, Registry};
use logrel_reliability::{compute_srgs, exhaustive_synthesize, synthesize, SynthesisOptions};
use logrel_serve::pipeline::{campaign_config, replication_context, CompiledSpec, Plan, Symbols};
use logrel_sim::{
    derive_seed, run_campaign_unit, run_indexed_units, BehaviorMap, CampaignUnit,
    ConstantEnvironment, HostSet, LaneContext, LaneMode, LrcMonitor, MonitorConfig,
    ProbabilisticFaults, Scenario as FaultScenario, ScenarioEnvironment, ScenarioEvent,
    ScenarioFaults, SimConfig, SimOutput, Simulation,
};
use logrel_threetank::{Scenario, ThreeTankSystem};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

const SIM_ROUNDS: u64 = 10_000;
/// Timed runs of each metric that feeds only the absolute envelope.
const REPS: usize = 7;
/// The stopping rule of [`sample`]: at least this many reps, lasting at
/// least this many seconds. Shared-VM throughput shifts on a seconds
/// scale, and a median must span several such states to converge on the
/// long-run ratio: 24 analyze reps (~0.2 s) were observably run-to-run
/// unstable where 128 (~1 s) were not.
const MIN_REPS: usize = 31;
const MIN_SECS: f64 = 1.0;
/// Inner batch size for µs-scale workloads: one timed sample solves the
/// synthesis problem this many times, so the sample is well above timer
/// granularity and scheduler noise.
const SYNTH_BATCH: usize = 50;
/// Inner batch size for the ~2 µs SRG fixpoint: one timed sample runs
/// `compute_srgs` this many times (about 0.5 ms), well above timer
/// granularity, as for synthesis. The metric stays ns per call.
const SRG_BATCH: usize = 256;
/// Inner batch sizes for the `analyze` cold/warm workloads. The warm
/// batch is larger so both timed samples last a few milliseconds each:
/// with equal durations, a scheduler preemption inflates either side of
/// the paired ratio by the same relative amount instead of hitting the
/// (otherwise much shorter) warm sample ~7x harder.
const ANALYZE_COLD_BATCH: usize = 32;
const ANALYZE_WARM_BATCH: usize = 64;

/// The steer-by-wire case study: the incremental-analysis workload, and
/// the campaign unit of the monitor-overhead workload.
const STEER_SRC: &str = include_str!("../../../../assets/steer_by_wire.htl");
/// The steer-by-wire scenario using every `.scn` event kind.
const STEER_SCN: &str = include_str!("../../../../tests/assets/scenarios/steer_every_event.scn");
/// Rounds and flight-recorder capacity of the monitored campaign unit.
const STEER_ROUNDS: u64 = 300;
const STEER_RECORDER: usize = 256;

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

/// The bound a ratio metric must keep.
#[derive(Clone, Copy)]
enum Bound {
    Floor(f64),
    Ceiling(f64),
}

/// Ratio metrics and their bounds, checked under `--compare` regardless
/// of the baseline's contents (a fresh baseline cannot vouch for keys it
/// never had). Each metric is a paired median from [`sample`]; a missing
/// metric breaks its bound, so renaming a key cannot drop its gate.
const RATIO_BOUNDS: &[(&str, Bound)] = &[
    // The headline of the bit-sliced kernel, in replication-rounds per
    // second over the one-lane kernel.
    ("bitsliced_speedup_over_kernel", Bound::Floor(10.0)),
    // The live-registry observer must stay within striking distance of
    // the plain kernel.
    ("observed_registry_over_kernel", Bound::Floor(0.6)),
    ("analyze_warm_speedup", Bound::Floor(5.0)),
    // The campaign service's reason to exist: once a spec is in the
    // compilation cache, a job is just its (tiny, here) campaign.
    ("serve_warm_speedup", Bound::Floor(5.0)),
    // A single run is a one-lane group of the lane-group kernel; it must
    // keep the speed of the dedicated scalar loop it replaced. The
    // reference interpreter is the in-binary yardstick: the floor is
    // 0.95x the paired median measured on the scalar loop (2.05, median
    // of six runs on the same 2-core VM, range 1.92-2.13).
    ("kernel_speedup_over_reference", Bound::Floor(1.95)),
    // The correlated scenario ecology (common-cause draws, partition
    // masks, Weibull hazards, vote observation) over the plain scenario.
    ("scenario_overhead", Bound::Ceiling(1.2)),
    // A 64-lane steer-by-wire unit watched by its group LRC monitor over
    // the same unit without one: six runs on a 2-core VM measured
    // 1.091–1.107 with one registry per unit, which builds at most
    // `MAX_DUMPS` alarm dumps (a registry per lane, each building its
    // own dumps, measured 1.16–1.21 on the same VM; 64 per-lane monitors,
    // the design the group monitor replaced, 1.62–1.65).
    ("campaign_monitor_overhead", Bound::Ceiling(1.15)),
    // The monitored unit with the production registry (counters, vote
    // histogram, 256-event flight recorder) over the unit with a
    // `NoopSink`: six runs on a 2-core VM measured 1.051–1.101 with the
    // unit's observation folded into one registry (a flush and a ring
    // rebuild per lane measured 1.20–1.31 on the same VM; per-lane
    // events, the design before the group tallies, 1.36–1.57).
    ("campaign_obs_overhead", Bound::Ceiling(1.25)),
    // The production unit under an empty scenario over the same unit on
    // its bare base injectors, both with a `NoopSink`: eight runs on a
    // 2-core VM measured 1.076–1.145 with the group scenario layer (a
    // `ScenarioInjector` per lane, the design it replaced, measured
    // 1.68–1.73 with registries on both sides).
    ("campaign_scenario_overhead", Bound::Ceiling(1.2)),
    // The serial tail of a 256-replication steer-by-wire job — reduce,
    // merge, export, after the units — as a share of the job's wall
    // time: six runs on a 2-core VM measured 0.048–0.055 with one
    // registry per unit and the in-place exporter (a registry per
    // replication and a `format!`-based exporter measured 0.148–0.221).
    ("campaign_tail_share", Bound::Ceiling(0.10)),
];

/// One 64-lane steer-by-wire campaign unit as campaigns run it
/// ([`run_campaign_unit`]: the campaign's base context under one group
/// scenario layer, watched by one group LRC monitor), for the campaign
/// overhead ratios.
struct SteerUnit<'a> {
    sim: &'a Simulation<'a>,
    /// The spec the unit's monitor watches.
    spec: &'a Specification,
    /// The same spec without its LRCs: a monitor over it watches nothing.
    unwatched: &'a Specification,
    arch: &'a Architecture,
}

impl SteerUnit<'_> {
    const LANES: usize = 64;

    /// Wall-clock seconds of one run of the unit under `scenario`,
    /// reporting to one sink from `sink`, watched by its group LRC
    /// monitor when `monitored`. Without a scenario the lanes run their bare base
    /// injectors and environments, outside the campaign's scenario layer.
    fn time<M: MetricsSink>(
        &self,
        scenario: Option<&FaultScenario>,
        monitored: bool,
        sink: impl Fn() -> M,
    ) -> f64 {
        let spec = if monitored { self.spec } else { self.unwatched };
        let hosts = self.arch.host_count();
        let start = Instant::now();
        if let Some(scenario) = scenario {
            let config = campaign_config(Self::LANES as u64, STEER_ROUNDS, 1, LaneMode::Auto);
            let unit = CampaignUnit {
                first_rep: 0,
                width: Self::LANES,
            };
            let setup = |_rep| replication_context(self.arch);
            let make_sink = |_rep| sink();
            let run = run_campaign_unit(
                self.sim, spec, scenario, hosts, &config, setup, make_sink, unit,
            );
            std::hint::black_box(run.expect("the unit runs"));
        } else {
            let mut lanes: Vec<_> = (0..Self::LANES as u64)
                .map(|rep| {
                    let base = replication_context(self.arch);
                    let seed = derive_seed(1, rep);
                    LaneContext::plain(seed, base.injector, base.environment)
                })
                .collect();
            let mut monitor = LrcMonitor::with_lanes(spec, MonitorConfig::default(), Self::LANES);
            std::hint::black_box(self.sim.run_monitored(
                &mut BehaviorMap::new(),
                &mut lanes,
                &mut monitor,
                &mut sink(),
                STEER_ROUNDS,
            ));
        }
        start.elapsed().as_secs_f64()
    }
}

/// The share of one steer-by-wire job's wall time, run through `plan` as
/// the service runs it, spent after its units: reducing the
/// per-replication results, merging the registries and rendering the
/// metrics line (and dropping what the job built).
fn tail_share(plan: &Plan) -> f64 {
    let start = Instant::now();
    let per_unit = run_indexed_units(0, plan.units(), |&unit, _| plan.run_unit::<Registry>(unit));
    let units = start.elapsed();
    let mut registry = Registry::with_recorder(STEER_RECORDER);
    plan.finish(per_unit, &mut registry).expect("the job runs");
    std::hint::black_box(to_json_line(&registry));
    drop(registry);
    let total = start.elapsed();
    (total - units).as_secs_f64() / total.as_secs_f64()
}

/// Wall-clock seconds of one call of `f`.
fn secs<T>(f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    std::hint::black_box(f());
    start.elapsed().as_secs_f64()
}

/// The samples [`sample`] took: one row per rep, one column per arm.
struct Samples {
    arms: usize,
    values: Vec<f64>,
}

impl Samples {
    /// The smallest sample of `arm`. For a timing this is the
    /// noise-robust throughput estimator on a shared machine: every
    /// contamination (preemption, a noisy neighbour) only adds time.
    fn min(&self, arm: usize) -> f64 {
        self.values
            .chunks(self.arms)
            .map(|rep| rep[arm])
            .fold(f64::MAX, f64::min)
    }

    /// The median over reps of `f` of one rep's samples, e.g. a paired
    /// ratio `|t| t[1] / t[0]`.
    fn median(&self, f: impl Fn(&[f64]) -> f64) -> f64 {
        let mut v: Vec<f64> = self.values.chunks(self.arms).map(f).collect();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        (v[(n - 1) / 2] + v[n / 2]) / 2.0
    }
}

/// Runs every arm once per rep, rotating which arm goes first so that
/// clock drift within a rep cancels in expectation, until at least
/// [`MIN_REPS`] reps and [`MIN_SECS`] seconds have passed. An arm returns
/// its sample, usually the seconds of one timed run (see [`secs`]). Rep
/// 0 runs the arms in order, so an arm can rely on the ones before it.
fn sample(arms: &mut [&mut dyn FnMut() -> f64]) -> Samples {
    let n = arms.len();
    let start = Instant::now();
    let mut values = Vec::new();
    let mut rep = 0;
    while rep < MIN_REPS || start.elapsed().as_secs_f64() < MIN_SECS {
        let mut row = vec![0.0; n];
        for k in 0..n {
            let arm = (rep + k) % n;
            row[arm] = arms[arm]();
        }
        values.extend(row);
        rep += 1;
    }
    Samples { arms: n, values }
}

/// Minimum wall-clock seconds over `REPS` runs of `f`.
fn best_secs(mut f: impl FnMut()) -> f64 {
    (0..REPS).map(|_| secs(&mut f)).fold(f64::MAX, f64::min)
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
        Mode::Kernel => sim.run(&mut behaviors, &mut env, &inj, &config),
        Mode::Reference => sim.run_reference(&mut behaviors, &mut env, &mut inj, &config),
        Mode::ObservedNoop => {
            sim.run_observed(&mut behaviors, &mut env, &inj, None, &mut NoopSink, &config)
        }
        Mode::ObservedRegistry => sim.run_observed(
            &mut behaviors,
            &mut env,
            &inj,
            None,
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

/// Every numeric leaf of a snapshot document keyed by its object key,
/// collected in document order (a later duplicate key wins; string
/// values, objects and array items carry no gate and are skipped).
fn snapshot_numbers(text: &str) -> Result<BTreeMap<String, f64>, String> {
    fn walk(key: Option<&String>, v: &Json, out: &mut BTreeMap<String, f64>) {
        match v {
            Json::Num(raw) => out.extend(key.cloned().zip(raw.parse().ok())),
            Json::Obj(fields) => fields.iter().for_each(|(k, v)| walk(Some(k), v, out)),
            Json::Arr(items) => items.iter().for_each(|v| walk(None, v, out)),
            _ => {}
        }
    }
    let mut out = BTreeMap::new();
    walk(None, &json::parse(text)?, &mut out);
    Ok(out)
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
            println!(
                "{key:<42} {:>14} {:>14} {:>8}  skipped (missing)",
                "-", "-", "-"
            );
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

/// Checks `current` against `bounds`; returns the number of bounds
/// broken, a missing metric counting as broken.
fn check_ratios(current: &BTreeMap<String, f64>, bounds: &[(&str, Bound)]) -> usize {
    let mut broken = 0;
    for &(key, bound) in bounds {
        let value = current.get(key).copied();
        let (op, limit, ok) = match bound {
            Bound::Floor(b) => ("≥", b, value.is_some_and(|v| v >= b)),
            Bound::Ceiling(b) => ("≤", b, value.is_some_and(|v| v <= b)),
        };
        let verdict = match (value, ok) {
            (None, _) => "MISSING",
            (Some(_), true) => "ok",
            (Some(_), false) => "OUT OF BOUND",
        };
        let shown = value.map_or("-".to_owned(), |v| format!("{v:.3}"));
        println!(
            "{key:<42} {:>14} {shown:>14} {op}{limit:>6.2}  {verdict}",
            "-"
        );
        if !ok {
            broken += 1;
        }
    }
    broken
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
    let steer_db =
        logrel_query::analyze_source(STEER_SRC, "steer_by_wire.htl", None, &mut NoopSink)
            .db
            .expect("steer-by-wire parses");
    let steer_edited = STEER_SRC.replace("wcet torque on ecu_a 5;", "wcet torque on ecu_a 4;");
    assert_ne!(
        steer_edited, STEER_SRC,
        "edit site must exist in the fixture"
    );
    let analyze_batch = |source: &str, prior: Option<&logrel_query::QueryDb>, batch: usize| {
        secs(|| {
            for _ in 0..batch {
                std::hint::black_box(logrel_query::analyze_source(
                    source,
                    "steer_by_wire.htl",
                    prior,
                    &mut NoopSink,
                ));
            }
        }) / batch as f64
    };
    let analyze = sample(&mut [
        &mut || analyze_batch(STEER_SRC, None, ANALYZE_COLD_BATCH),
        &mut || analyze_batch(&steer_edited, Some(&steer_db), ANALYZE_WARM_BATCH),
    ]);
    let analyze_speedup = analyze.median(|t| t[0] / t[1]);

    // Campaign-service workload: jobs/sec through `logrel_serve::Engine`
    // with a deliberately tiny campaign (one replication x 20 rounds) on
    // a 16-task generated spec, so the job cost is dominated by the
    // front half — analysis, elaboration, round-program compilation,
    // SRGs. Cold clears the compilation cache before each batch of
    // distinct specs; warm resubmits the same batch and must hit the
    // cache on every job (rep 0 runs cold first, so the cache is full).
    // A warm job is about 0.1 ms, so a warm sample of four is short
    // enough for a VM phase change or a late worker wake-up to land in
    // one side of a pair; the sampler's second of reps outvotes those.
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
    let serve_batch = |warm: bool| {
        if !warm {
            serve_engine.clear_cache();
        }
        secs(|| {
            for job in &serve_jobs {
                let out = serve_engine.submit(job).expect("bench job succeeds");
                assert!(out.cache_hit || !warm, "warm batch must not recompile");
                std::hint::black_box(out);
            }
        }) / SERVE_SPECS as f64
    };
    let serve = sample(&mut [&mut || serve_batch(false), &mut || serve_batch(true)]);
    serve_engine.shutdown();
    let serve_speedup = serve.median(|t| t[0] / t[1]);

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

    // The one-lane kernel and four arms paired against it: the reference
    // interpreter (the fixed yardstick the one production kernel is
    // gated against at width 1), the two observed paths and the
    // bit-sliced kernel. The bit-sliced arm runs 64 independent
    // replications per sample; lane setup (64 RNGs and injectors) is
    // noise against 10k rounds.
    //
    // The no-op arm is an A/A reading: `Simulation::run` is
    // `run_observed::<NoopSink>`, yet the ratio reads about 0.9, not 1.
    // The likely cause (unverified) is that the kernel side is
    // monomorphised in `logrel-sim` and this arm in this crate, so the
    // two sides run different machine code; it carries no bound.
    const LANES: usize = 64;
    let (sim, arch) = (&sim, &sys.arch);
    let time = |mode| move || secs(|| run_sim(sim, arch, &mode));
    let kernel = sample(&mut [
        &mut time(Mode::Kernel),
        &mut time(Mode::Reference),
        &mut time(Mode::ObservedNoop),
        &mut time(Mode::ObservedRegistry),
        &mut || {
            secs(|| {
                let mut lanes: Vec<_> = (0..LANES)
                    .map(|i| {
                        LaneContext::plain(
                            derive_seed(5, i as u64),
                            ProbabilisticFaults::from_architecture(arch),
                            ConstantEnvironment::new(Value::Float(0.2)),
                        )
                    })
                    .collect();
                sim.run_bitsliced(&mut BehaviorMap::new(), &mut lanes, SIM_ROUNDS)
            })
        },
    ]);
    let kernel_speedup = kernel.median(|t| t[1] / t[0]);
    let noop_over_kernel = kernel.median(|t| t[0] / t[2]);
    let registry_over_kernel = kernel.median(|t| t[0] / t[3]);
    let bitsliced_speedup = kernel.median(|t| LANES as f64 * t[0] / t[4]);

    // Scenario-layer overhead: the same kernel workload through a plain
    // timeline (crash/rejoin, a flaky window, a GE burst — all draws the
    // pre-correlation injector made) versus that timeline plus every
    // correlated event kind active across the horizon. The ratio is the
    // marginal cost of the correlated ecology.
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
    let scenario_run = |scn: &FaultScenario| -> f64 {
        let comms = sys.spec.communicator_count();
        let mut behaviors = BehaviorMap::new();
        let mut env =
            ScenarioEnvironment::new(ConstantEnvironment::new(Value::Float(0.2)), scn, comms);
        let inj = ScenarioFaults::new(
            ProbabilisticFaults::from_architecture(&sys.arch),
            scn,
            sys.arch.host_count(),
            comms,
        )
        .expect("valid scenario");
        let config = SimConfig {
            rounds: SIM_ROUNDS,
            seed: 5,
        };
        secs(|| sim.run(&mut behaviors, &mut env, &inj, &config))
    };
    let scenario = sample(&mut [&mut || scenario_run(&scenario_plain), &mut || {
        scenario_run(&scenario_correlated)
    }]);
    let scenario_overhead = scenario.median(|t| t[1] / t[0]);

    // Campaign monitor overhead: one 64-lane steer-by-wire campaign unit
    // (the every-event scenario, registries with flight recorders, the
    // campaign's base context) watched by its group LRC monitor, against
    // the same unit without a monitor.
    let steer_sys = logrel_lang::compile(STEER_SRC).expect("steer-by-wire compiles");
    let steer_scenario =
        FaultScenario::parse_with(STEER_SCN, &Symbols(&steer_sys)).expect("steer scenario parses");
    let steer_td = TimeDependentImplementation::from(steer_sys.imp.clone());
    let steer_sim = Simulation::new(&steer_sys.spec, &steer_sys.arch, &steer_td);
    let unwatched_src = STEER_SRC
        .replace(" lrc 0.9995", "")
        .replace(" lrc 0.999", "");
    let unwatched = logrel_lang::compile(&unwatched_src).expect("steer-by-wire compiles");
    assert!(
        unwatched
            .spec
            .communicator_ids()
            .all(|c| unwatched.spec.communicator(c).lrc().is_none()),
        "the unwatched spec keeps no LRC"
    );
    let unit = SteerUnit {
        sim: &steer_sim,
        spec: &steer_sys.spec,
        unwatched: &unwatched.spec,
        arch: &steer_sys.arch,
    };
    let registry = || Registry::with_recorder(STEER_RECORDER);
    let scn = Some(&steer_scenario);
    let monitor_overhead = sample(&mut [&mut || unit.time(scn, true, registry), &mut || {
        unit.time(scn, false, registry)
    }])
    .median(|t| t[0] / t[1]);
    // Campaign observation overhead: the same monitored unit with the
    // production registry against a `NoopSink` — what the counters, the
    // vote histogram and the flight recorder cost.
    let obs_overhead = sample(&mut [&mut || unit.time(scn, true, registry), &mut || {
        unit.time(scn, true, || NoopSink)
    }])
    .median(|t| t[0] / t[1]);
    // Campaign scenario overhead: the production unit under an empty
    // scenario against the same unit on its bare base injectors. Both
    // make the same draws and reach the same outcomes, so the ratio is
    // what the scenario layer itself costs. Both sides report to a
    // `NoopSink`: observation has its own ratio above.
    let empty = FaultScenario::new();
    let scenario_layer_overhead = sample(&mut [
        &mut || unit.time(Some(&empty), true, || NoopSink),
        &mut || unit.time(None, true, || NoopSink),
    ])
    .median(|t| t[0] / t[1]);

    // Campaign tail share: a 256-replication job of the same unit shape
    // (four 64-lane units) through the service pipeline.
    let steer_plan = Plan::new(
        Arc::new(CompiledSpec::new(steer_sys.clone(), &mut NoopSink).expect("steer compiles")),
        steer_scenario.clone(),
        campaign_config(256, STEER_ROUNDS, 1, LaneMode::Auto),
        STEER_RECORDER,
    )
    .expect("the steer job plans");
    let campaign_tail_share = sample(&mut [&mut || tail_share(&steer_plan)]).median(|s| s[0]);

    let srg_secs = best_secs(|| {
        for _ in 0..SRG_BATCH {
            std::hint::black_box(
                compute_srgs(&sys.spec, &sys.arch, &sys.imp).expect("memory-free"),
            );
        }
    }) / SRG_BATCH as f64;

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
         \"campaign_monitor_overhead\": {:.3},\n    \
         \"campaign_obs_overhead\": {:.3},\n    \
         \"campaign_scenario_overhead\": {:.3},\n    \
         \"campaign_tail_share\": {:.3},\n    \
         \"reference_rounds_per_sec\": {:.0},\n    \
         \"reference_events_per_sec\": {:.0},\n    \
         \"kernel_speedup_over_reference\": {:.2},\n    \
         \"observed_noop_over_kernel\": {:.3},\n    \
         \"observed_registry_over_kernel\": {:.3},\n    \
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
        SIM_ROUNDS as f64 / kernel.min(0),
        events as f64 / kernel.min(0),
        SIM_ROUNDS as f64 / kernel.min(2),
        SIM_ROUNDS as f64 / kernel.min(3),
        (SIM_ROUNDS * LANES as u64) as f64 / kernel.min(4),
        SIM_ROUNDS as f64 / scenario.min(0),
        SIM_ROUNDS as f64 / scenario.min(1),
        scenario_overhead,
        monitor_overhead,
        obs_overhead,
        scenario_layer_overhead,
        campaign_tail_share,
        SIM_ROUNDS as f64 / kernel.min(1),
        events as f64 / kernel.min(1),
        kernel_speedup,
        noop_over_kernel,
        registry_over_kernel,
        bitsliced_speedup,
        srg_secs * 1e9,
        1.0 / certify_secs,
        1.0 / analyze.min(0),
        1.0 / analyze.min(1),
        analyze_speedup,
        1.0 / serve.min(0),
        1.0 / serve.min(1),
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
        let read = std::fs::read_to_string(baseline_path).map_err(|e| e.to_string());
        let (baseline, current) = match (
            read.and_then(|t| snapshot_numbers(&t)),
            snapshot_numbers(&json),
        ) {
            (Ok(baseline), Ok(current)) => (baseline, current),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("bench_snapshot: cannot compare with `{baseline_path}`: {e}");
                return ExitCode::from(1);
            }
        };
        println!(
            "\ncomparing against {baseline_path} (tolerance {:.0}%):",
            args.tolerance * 100.0
        );
        let regressions =
            compare(&current, &baseline, args.tolerance) + check_ratios(&current, RATIO_BOUNDS);
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
        let nums = snapshot_numbers(doc).unwrap();
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

    #[test]
    fn each_broken_or_missing_ratio_counts_once() {
        let bounds = &[
            ("speedup", Bound::Floor(5.0)),
            ("overhead", Bound::Ceiling(1.2)),
            ("renamed", Bound::Floor(1.0)),
        ];
        let at_bounds: BTreeMap<String, f64> = [
            ("speedup".to_owned(), 5.0),
            ("overhead".to_owned(), 1.2),
            ("renamed".to_owned(), 1.0),
        ]
        .into();
        assert_eq!(check_ratios(&at_bounds, bounds), 0);
        for (key, value) in [("speedup", 4.99), ("overhead", 1.21)] {
            let mut current = at_bounds.clone();
            current.insert(key.to_owned(), value);
            assert_eq!(check_ratios(&current, bounds), 1, "{key} = {value}");
        }
        let mut current = at_bounds.clone();
        current.remove("renamed");
        assert_eq!(
            check_ratios(&current, bounds),
            1,
            "a missing metric breaks its bound"
        );
    }
}
