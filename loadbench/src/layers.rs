//! The traced run: replay the served op stream stage by stage, twice —
//! with spans and without — check every replayed output against the
//! served one, and derive the per-layer metrics from the spans.

use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

use logrel_obs::NoopSink;
use logrel_query::{analyze_source, QueryDb};
use rand::Rng;

use crate::gen;
use crate::replay::{self, OpInput, ReplayState};
use crate::report::{percentile, Metric, PER_LAYER};
use crate::trace::{self, Span, Tracer};
use crate::workload::{analysis_text, Kind, Served, WorkDir};

/// Ops the serve replay samples (all of them when fewer ran).
const SERVE_SAMPLE: usize = 200;
/// Op id of the stage probe.
const PROBE_OP: u64 = 1 << 40;

/// Replays one op on `tr` and returns its wall time, its output (as the
/// served op rendered it) and, for edits, the new db.
fn replay_op(
    tr: &Tracer,
    st: &mut ReplayState,
    op: u64,
    input: &OpInput,
    edit: Option<(&QueryDb, &str, &str)>,
) -> (f64, Result<(String, Option<QueryDb>), String>) {
    let t0 = Instant::now();
    let out = match (input, edit) {
        (OpInput::Edit { source, .. }, Some((prior, label, cache))) => st
            .edit(tr, op, Some(prior), source, label, cache)
            .map(|o| (analysis_text(&o.stdout, &o.stderr), o.db)),
        _ => st.job(tr, op, input).map(|line| (line, None)),
    };
    (t0.elapsed().as_secs_f64(), out)
}

/// Result of the traced run.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub replayed: u64,
    pub failures: Vec<String>,
}

/// Runs the traced replay of `served`, writes `trace-<workload>.json`
/// into `out_dir`, prints the per-layer self-time tables, and returns
/// the per-layer metrics. The replay stops once it has run `budget_s`
/// and replayed at least the plan's minimum number of ops.
pub fn traced_run(
    workload: &str,
    seed: u64,
    served: &Served,
    work: &WorkDir,
    out_dir: &Path,
    budget_s: f64,
) -> Result<Traced, String> {
    let plan = &served.replay;
    let mut order: Vec<usize> = (0..served.records.len()).collect();
    order.sort_by_key(|&i| (served.records[i].index, served.records[i].client));
    if plan.sample_ops && order.len() > SERVE_SAMPLE {
        let mut r = gen::rng(seed, 0x7EACE);
        while order.len() > SERVE_SAMPLE {
            order.remove(r.gen_range(0..order.len()));
        }
    }
    let (on, off) = (Tracer::new(true), Tracer::new(false));
    let (mut st_on, mut st_off) = (ReplayState::default(), ReplayState::default());
    for (source, label) in &plan.warm {
        st_on.warm(source, label)?;
        st_off.warm(source, label)?;
    }
    let mut dbs = Vec::new();
    for (source, label, _) in &plan.edit_specs {
        let out = analyze_source(source, label, None, &mut NoopSink);
        dbs.push(out.db.ok_or("analysis produced no db")?);
    }
    let caches: Vec<String> = (0..dbs.len())
        .map(|i| work.path(&format!("replay{i}.logrel-cache")))
        .collect();
    let mut failures = Vec::new();
    let (mut wall_on, mut wall_off) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let min_ops = if plan.sample_ops {
        order.len()
    } else {
        plan.min_replay
    };
    for (n, &ri) in order.iter().enumerate() {
        if n >= min_ops && start.elapsed().as_secs_f64() >= budget_s {
            order.truncate(n);
            break;
        }
        let rec = &served.records[ri];
        let (Some(input), Some(served_out)) = (&rec.input, &rec.output) else {
            return Err("served ops were not kept for the replay".to_owned());
        };
        let op = n as u64 + 1;
        let edit = match input {
            OpInput::Edit { spec, .. } => Some((
                &dbs[*spec],
                plan.edit_specs[*spec].1.as_str(),
                caches[*spec].as_str(),
            )),
            _ => None,
        };
        // Alternate which replay goes first so neither always runs on
        // caches the other warmed.
        let (a, b) = if n % 2 == 0 {
            let a = replay_op(&on, &mut st_on, op, input, edit);
            (a, replay_op(&off, &mut st_off, op, input, edit))
        } else {
            let b = replay_op(&off, &mut st_off, op, input, edit);
            (replay_op(&on, &mut st_on, op, input, edit), b)
        };
        wall_on.push(a.0);
        wall_off.push(b.0);
        for out in [&a.1, &b.1] {
            match out {
                Ok((text, _)) if text == served_out => {}
                Ok(_) => failures.push(format!(
                    "op c{}-{}: replayed output differs from served",
                    rec.client, rec.index
                )),
                Err(e) => failures.push(format!(
                    "op c{}-{}: replay failed: {e}",
                    rec.client, rec.index
                )),
            }
        }
        if let (OpInput::Edit { spec, .. }, Ok((_, Some(db)))) = (input, a.1) {
            dbs[*spec] = db;
        }
    }
    let (probe_line_bytes, probe_cache_bytes) = replay::probe(
        &on,
        PROBE_OP,
        &plan.probe_job,
        plan.kernel_width,
        &work.path("probe.logrel-cache"),
    )?;
    let spans = on.into_spans();
    let chrome = out_dir.join(format!("trace-{workload}.json"));
    std::fs::write(&chrome, trace::chrome_trace(&spans))
        .map_err(|e| format!("{}: {e}", chrome.display()))?;

    let stream: HashSet<u64> = (1..=order.len() as u64).collect();
    let (rows, wall_ns) = trace::stage_table(&spans, &stream);
    let (probe_rows, probe_wall) = trace::stage_table(&spans, &HashSet::from([PROBE_OP]));
    eprintln!(
        "-- {workload}: self time over {} replayed ops\n{}",
        order.len(),
        trace::render_table(&rows, wall_ns)
    );
    eprintln!(
        "-- {workload}: stage probe\n{}",
        trace::render_table(&probe_rows, probe_wall)
    );
    eprintln!("-- {workload}: trace written to {}", chrome.display());

    let ctx = Ctx {
        spans: &spans,
        stream: &stream,
    };
    let ops = order.len().max(1) as f64;
    let counts = st_on.counts;
    let mut m = Vec::new();
    let mut put = |name: &'static str, value: f64, samples: usize| {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .expect("metric is catalogued")
            .1;
        m.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    };

    // serve: the time a hot op spent outside the replayed stages.
    let waits: Vec<f64> = order
        .iter()
        .zip(&wall_off)
        .filter(|(&ri, _)| served.records[ri].kind != Kind::Cold)
        .map(|(&ri, w)| (served.records[ri].latency_s - w) * 1e3)
        .collect();
    put("serve.wait_ms_p50", percentile(&waits, 0.5), waits.len());
    put("serve.wait_ms_p99", percentile(&waits, 0.99), waits.len());
    let (hits, misses, rejected) = served.serve_counters.unwrap_or((0, 0, 0));
    put(
        "serve.cache_hit_ratio",
        ratio(hits, hits + misses),
        (hits + misses) as usize,
    );
    put("serve.rejected", rejected as f64, 1);
    let proto = ctx.per_op_sum(&["serve.proto", "serve.status"]);
    put("serve.proto_us", percentile(&proto, 0.5) / 1e3, proto.len());
    let hot: Vec<f64> = served
        .records
        .iter()
        .filter(|r| r.kind != Kind::Cold)
        .map(|r| r.latency_s * 1e3)
        .collect();
    let cold: Vec<f64> = served
        .records
        .iter()
        .chain(&served.cold)
        .filter(|r| r.kind == Kind::Cold)
        .map(|r| r.latency_s * 1e3)
        .collect();
    put(
        "serve.hot_latency_p99_ms",
        percentile(&hot, 0.99),
        hot.len(),
    );
    put(
        "serve.cold_latency_p50_ms",
        percentile(&cold, 0.5),
        cold.len(),
    );

    // lang
    let parse = ctx.durations("lang.parse");
    put("lang.parse_ms", percentile(&parse, 0.5) / 1e6, parse.len());
    put(
        "lang.parses_per_op",
        counts.parses as f64 / ops,
        order.len(),
    );
    let compile = ctx.durations("lang.compile");
    put(
        "lang.compile_ms",
        percentile(&compile, 0.5) / 1e6,
        compile.len(),
    );

    // query
    let analyze = ctx.durations("query.analyze");
    put(
        "query.analyze_ms_p50",
        percentile(&analyze, 0.5) / 1e6,
        analyze.len(),
    );
    put(
        "query.analyze_ms_p99",
        percentile(&analyze, 0.99) / 1e6,
        analyze.len(),
    );
    put(
        "query.hit_ratio",
        ratio(counts.hits, counts.queries),
        counts.queries as usize,
    );
    put(
        "query.recomputes",
        counts.recomputes as f64 / ops,
        order.len(),
    );
    put(
        "query.refine_reuses",
        counts.refine_reuses as f64 / ops,
        order.len(),
    );
    let save = ctx.durations("query.save");
    put("query.save_ms", percentile(&save, 0.5) / 1e6, save.len());
    let bytes: Vec<f64> = if st_on.saved_bytes.is_empty() {
        vec![probe_cache_bytes as f64]
    } else {
        st_on.saved_bytes.iter().map(|&b| b as f64).collect()
    };
    put("query.save_bytes", percentile(&bytes, 0.5), bytes.len());
    let load = ctx.durations("query.load");
    put("query.load_ms", percentile(&load, 0.5) / 1e6, load.len());

    // reliability
    let srg = ctx.durations("reliability.srg");
    put("reliability.srg_ms", percentile(&srg, 0.5) / 1e6, srg.len());
    let certify = ctx.durations("reliability.certify");
    put(
        "reliability.certify_ms",
        percentile(&certify, 0.5) / 1e6,
        certify.len(),
    );

    // sim
    let sim_compile = ctx.durations("sim.compile");
    put(
        "sim.compile_ms",
        percentile(&sim_compile, 0.5) / 1e6,
        sim_compile.len(),
    );
    let scenario = ctx.durations("sim.scenario");
    put(
        "sim.scenario_parse_us",
        percentile(&scenario, 0.5) / 1e3,
        scenario.len(),
    );
    let w64 = ctx.per_rep_round("sim.unit", 64);
    put(
        "sim.unit_ns_per_rep_round.w64",
        percentile(&w64, 0.5),
        w64.len(),
    );
    let w1 = ctx.per_rep_round("sim.unit", 1);
    put(
        "sim.unit_ns_per_rep_round.w1",
        percentile(&w1, 0.5),
        w1.len(),
    );
    let kernel = ctx.per_rep_round("sim.kernel", plan.kernel_width as u32);
    let kernel_ns = percentile(&kernel, 0.5);
    put("sim.kernel_ns_per_rep_round", kernel_ns, kernel.len());
    let unit_ns = percentile(if plan.kernel_width == 1 { &w1 } else { &w64 }, 0.5);
    put("sim.kernel_share", kernel_ns / unit_ns, kernel.len());
    let units: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "sim.unit" && stream.contains(&s.op))
        .collect();
    let lanes: u64 = units.iter().map(|s| u64::from(s.lanes)).sum();
    put(
        "sim.lane_fill",
        ratio(lanes, 64 * units.len() as u64),
        units.len(),
    );
    put("sim.units", units.len() as f64 / ops, order.len());
    put(
        "sim.rep_rounds",
        units.iter().map(|s| s.work).sum::<u64>() as f64 / ops,
        order.len(),
    );
    let aggregate = ctx.durations("sim.aggregate");
    put(
        "sim.aggregate_ms",
        percentile(&aggregate, 0.5) / 1e6,
        aggregate.len(),
    );

    // obs
    let merge = ctx.durations("obs.merge");
    put("obs.merge_ms", percentile(&merge, 0.5) / 1e6, merge.len());
    let export = ctx.durations("obs.export");
    put(
        "obs.export_us",
        percentile(&export, 0.5) / 1e3,
        export.len(),
    );
    let lines: Vec<f64> = served
        .records
        .iter()
        .filter(|r| r.kind != Kind::Edit)
        .map(|r| r.out_bytes as f64)
        .collect();
    let lines = if lines.is_empty() {
        vec![probe_line_bytes as f64]
    } else {
        lines
    };
    put("obs.line_bytes", percentile(&lines, 0.5), lines.len());

    // trace
    let staged: u64 = rows
        .iter()
        .filter(|(name, _)| !name.starts_with("op."))
        .map(|(_, r)| r.self_ns)
        .sum();
    put("trace.stage_sum_frac", ratio(staged, wall_ns), order.len());
    let (sum_on, sum_off): (f64, f64) = (wall_on.iter().sum(), wall_off.iter().sum());
    put("trace.overhead_frac", sum_on / sum_off - 1.0, order.len());

    Ok(Traced {
        metrics: m,
        replayed: 2 * order.len() as u64,
        failures,
    })
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Span lookups: a stage's samples come from the replayed op stream,
/// or from the stage probe where the stream never reaches the stage.
struct Ctx<'a> {
    spans: &'a [Span],
    stream: &'a HashSet<u64>,
}

impl Ctx<'_> {
    /// The spans matching `f` in the op stream, or in the probe if the
    /// stream has none.
    fn select(&self, f: impl Fn(&Span) -> bool) -> Vec<&Span> {
        let all: Vec<&Span> = self.spans.iter().filter(|s| f(s)).collect();
        let stream: Vec<&Span> = all
            .iter()
            .copied()
            .filter(|s| self.stream.contains(&s.op))
            .collect();
        if stream.is_empty() {
            all
        } else {
            stream
        }
    }

    /// Per-call durations of `name`, in ns.
    fn durations(&self, name: &str) -> Vec<f64> {
        self.select(|s| s.name == name)
            .iter()
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Per-op sums of the durations of `names`, in ns.
    fn per_op_sum(&self, names: &[&str]) -> Vec<f64> {
        let mut by_op = std::collections::BTreeMap::<u64, f64>::new();
        for s in self.select(|s| names.contains(&s.name)) {
            *by_op.entry(s.op).or_default() += s.dur_ns() as f64;
        }
        by_op.into_values().collect()
    }

    /// ns per replication-round of each `name` span with `lanes` lanes.
    fn per_rep_round(&self, name: &str, lanes: u32) -> Vec<f64> {
        self.select(|s| s.name == name && s.lanes == lanes)
            .iter()
            .map(|s| s.dur_ns() as f64 / s.work.max(1) as f64)
            .collect()
    }
}
