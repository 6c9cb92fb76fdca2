//! The stage pipeline a campaign job or a spec edit goes through, called
//! stage by stage through the crates' public functions so each stage can
//! be timed on its own. The job path mirrors `logrel_serve::Engine`'s
//! compile and run steps call for call, which is why a replayed metrics
//! line must equal the served one byte for byte.

use std::collections::HashMap;
use std::sync::Arc;

use logrel_core::{Calendar, RoundProgram, TimeDependentImplementation, Value};
use logrel_lang::ElaboratedSystem;
use logrel_obs::export::to_json_line;
use logrel_obs::{names, MetricsSink, NoopSink, Registry};
use logrel_query::{analyze_source, AnalysisOutcome, LoadOutcome, QueryDb};
use logrel_serve::proto::{self, Request, Source};
use logrel_serve::Job;
use logrel_sim::montecarlo::{BatchConfig, ReplicationContext};
use logrel_sim::{
    aggregate_campaign, plan_units, run_campaign_unit, run_indexed_units, BehaviorMap,
    CampaignConfig, CampaignUnit, ConstantEnvironment, LaneContext, LaneMode, MonitorConfig,
    ProbabilisticFaults, Scenario, ScenarioEnvironment, ScenarioInjector, ScenarioSymbols,
    SimConfig, Simulation,
};

use crate::trace::Tracer;

/// Unit threads of a replayed campaign: the engine's worker count.
pub const UNIT_THREADS: usize = 2;
/// Flight-recorder capacity of job registries (the `htlc serve` default).
pub const RECORDER: usize = 256;

/// Everything a compiled spec shares across jobs (the engine's
/// `CompiledSpec`).
pub struct Compiled {
    sys: ElaboratedSystem,
    td: TimeDependentImplementation,
    calendar: Arc<Calendar>,
    program: Arc<RoundProgram>,
    analytic: Vec<Option<f64>>,
}

struct Symbols<'a>(&'a ElaboratedSystem);

impl ScenarioSymbols for Symbols<'_> {
    fn host(&self, name: &str) -> Option<logrel_core::HostId> {
        self.0.arch.find_host(name)
    }
    fn communicator(&self, name: &str) -> Option<logrel_core::CommunicatorId> {
        self.0.spec.find_communicator(name)
    }
}

/// Analysis counters summed over the replayed analyses.
#[derive(Debug, Default, Clone, Copy)]
pub struct QueryCounts {
    pub parses: u64,
    pub queries: u64,
    pub hits: u64,
    pub recomputes: u64,
    pub refine_reuses: u64,
}

impl QueryCounts {
    /// Counts one `analyze_source` call (which parses once).
    fn add(&mut self, out: &AnalysisOutcome) {
        self.parses += 1;
        self.queries += out.stats.queries;
        self.hits += out.stats.hits;
        self.recomputes += out.stats.recomputes;
        self.refine_reuses += out.stats.refine_reuses;
    }
}

/// The replay's compile cache and analysis db, kept like the engine's:
/// compiled specs by source, the last analysis db as the warm start.
#[derive(Default)]
pub struct ReplayState {
    compiled: HashMap<String, Arc<Compiled>>,
    db: Option<QueryDb>,
    pub counts: QueryCounts,
    /// Size of each `.logrel-cache` the replay saved, in bytes.
    pub saved_bytes: Vec<u64>,
}

/// One replayed op's input.
#[derive(Debug, Clone)]
pub enum OpInput {
    /// A job submitted to the engine directly.
    Job(Job),
    /// A `logrel-job-v1` request line sent over TCP.
    Line(String),
    /// A spec edit analysed against the previous db of spec `spec`.
    Edit { spec: usize, source: String },
}

fn resolve(source: &Source) -> Result<(String, String), String> {
    match source {
        Source::Inline(text) => Ok((text.clone(), "<inline>".to_owned())),
        Source::Path(path) => std::fs::read_to_string(path)
            .map(|text| (text, path.clone()))
            .map_err(|e| format!("{path}: {e}")),
    }
}

/// The request line's job, as `logrel_serve::process_line` resolves it.
pub fn parse_line(line: &str) -> Result<(String, Job), String> {
    let request = proto::parse_request(line).map_err(|(_, m)| m)?;
    let Request::Job(job) = request else {
        return Err("not a job request".to_owned());
    };
    let (spec_source, spec_label) = resolve(&job.spec)?;
    let (scenario_source, _) = resolve(&job.scenario)?;
    let resolved = Job {
        spec_source,
        spec_label,
        scenario_source,
        rounds: job.rounds,
        replications: job.replications,
        seed: job.seed,
        lanes: job.lanes,
    };
    Ok((job.id, resolved))
}

/// Renders `job` as a `logrel-job-v1` request line with inline sources.
pub fn job_line(id: &str, job: &Job) -> String {
    let lanes = match job.lanes {
        LaneMode::Auto => "\"auto\"".to_owned(),
        LaneMode::Off => "\"off\"".to_owned(),
        LaneMode::Width(w) => w.to_string(),
    };
    format!(
        "{{\"schema\":\"logrel-job-v1\",\"id\":\"{}\",\"spec\":\"{}\",\"scenario\":\"{}\",\"rounds\":{},\"replications\":{},\"seed\":{},\"lanes\":{lanes}}}",
        proto::escape(id),
        proto::escape(&job.spec_source),
        proto::escape(&job.scenario_source),
        job.rounds,
        job.replications,
        job.seed,
    )
}

impl ReplayState {
    /// Compiles `source` into the cache untimed and uncounted, as the
    /// engine compiles a workload's specs during set-up.
    pub fn warm(&mut self, source: &str, label: &str) -> Result<(), String> {
        let counts = self.counts;
        let out = self
            .compiled(&Tracer::new(false), 0, 0, source, label)
            .map(|_| ());
        self.counts = counts;
        out
    }

    /// The compiled form of `source`: from the cache, or through the
    /// front-half stages in the engine's order (analyze, then
    /// `logrel_lang::compile` as parse and elaborate, SRG, sim compile).
    fn compiled(
        &mut self,
        tr: &Tracer,
        op: u64,
        parent: u64,
        source: &str,
        label: &str,
    ) -> Result<Arc<Compiled>, String> {
        if let Some(hit) = self.compiled.get(source) {
            return Ok(Arc::clone(hit));
        }
        let outcome = tr.span(op, parent, "query.analyze", |_| {
            analyze_source(source, label, self.db.as_ref(), &mut NoopSink)
        });
        self.counts.add(&outcome);
        if outcome.errors > 0 {
            return Err(format!(
                "{} analysis error(s):\n{}",
                outcome.errors, outcome.stderr
            ));
        }
        if let Some(db) = outcome.db {
            self.db = Some(db);
        }
        let program = tr
            .span(op, parent, "lang.parse", |_| logrel_lang::parse(source))
            .map_err(|e| e.to_string())?;
        self.counts.parses += 1;
        let sys = tr
            .span(op, parent, "lang.compile", |_| {
                logrel_lang::elaborate(&program)
            })
            .map_err(|e| e.to_string())?;
        let analytic = tr.span(op, parent, "reliability.srg", |_| {
            logrel_reliability::compute_srgs(&sys.spec, &sys.arch, &sys.imp)
                .map(|r| {
                    sys.spec
                        .communicator_ids()
                        .map(|c| Some(r.communicator(c).get()))
                        .collect()
                })
                .map_err(|e| e.to_string())
        })?;
        let compiled = tr.span(op, parent, "sim.compile", |_| {
            let td = TimeDependentImplementation::from(sys.imp.clone());
            let (calendar, program) = {
                let sim = Simulation::try_new_observed(&sys.spec, &sys.arch, &td, &mut NoopSink)
                    .map_err(|e| e.to_string())?;
                sim.shared_program()
            };
            Ok::<_, String>(Compiled {
                sys,
                td,
                calendar,
                program,
                analytic,
            })
        })?;
        let compiled = Arc::new(compiled);
        self.compiled
            .insert(source.to_owned(), Arc::clone(&compiled));
        Ok(compiled)
    }

    /// Replays one campaign op (a direct job or a request line) and
    /// returns its metrics line.
    pub fn job(&mut self, tr: &Tracer, op: u64, input: &OpInput) -> Result<String, String> {
        tr.span(op, 0, "op.job", |root| {
            let (id, job) = match input {
                OpInput::Job(job) => (None, job.clone()),
                OpInput::Line(line) => {
                    let (id, job) = tr.span(op, root, "serve.proto", |_| parse_line(line))?;
                    (Some(id), job)
                }
                OpInput::Edit { .. } => return Err("not a job".to_owned()),
            };
            let hit = self.compiled.contains_key(&job.spec_source);
            let compiled = self.compiled(tr, op, root, &job.spec_source, &job.spec_label)?;
            let line = campaign(tr, op, root, &compiled, &job, None)?;
            if let Some(id) = id {
                std::hint::black_box(
                    tr.span(op, root, "serve.status", |_| proto::status_done(&id, hit)),
                );
            }
            Ok(line)
        })
    }

    /// Replays one edit op: warm analysis against the previous db of the
    /// edited spec, then the cache save. Returns the analysis output and
    /// the new db.
    pub fn edit(
        &mut self,
        tr: &Tracer,
        op: u64,
        prior: Option<&QueryDb>,
        source: &str,
        label: &str,
        cache_path: &str,
    ) -> Result<AnalysisOutcome, String> {
        tr.span(op, 0, "op.edit", |root| {
            let out = tr.span(op, root, "query.analyze", |_| {
                analyze_source(source, label, prior, &mut NoopSink)
            });
            self.counts.add(&out);
            let db = out.db.as_ref().ok_or("analysis produced no db")?;
            tr.span(op, root, "query.save", |_| {
                logrel_query::save(db, cache_path)
            })
            .map_err(|e| format!("{cache_path}: {e}"))?;
            self.saved_bytes
                .push(std::fs::metadata(cache_path).map_or(0, |m| m.len()));
            Ok(out)
        })
    }
}

/// The campaign half of a job: scenario, unit plan, units, aggregation,
/// registry merge and export. `units_override` replaces the plan (the
/// probe runs one packed and one scalar unit).
fn campaign(
    tr: &Tracer,
    op: u64,
    parent: u64,
    compiled: &Compiled,
    job: &Job,
    units_override: Option<Vec<CampaignUnit>>,
) -> Result<String, String> {
    let sys = &compiled.sys;
    let (host_count, comm_count) = (sys.arch.host_count(), sys.spec.communicator_count());
    let scenario = tr.span(op, parent, "sim.scenario", |_| {
        let s =
            Scenario::parse_with(&job.scenario_source, &Symbols(sys)).map_err(|e| e.to_string())?;
        s.check_bounds(host_count, comm_count)
            .map_err(|e| e.to_string())?;
        Ok::<_, String>(s)
    })?;
    if job.replications == 0 {
        return Err("campaign needs at least one replication".to_owned());
    }
    let config = CampaignConfig {
        batch: BatchConfig {
            replications: job.replications,
            rounds: job.rounds,
            base_seed: job.seed,
            threads: 1,
        },
        monitor: MonitorConfig::default(),
        lanes: job.lanes,
    };
    let units = tr.span(op, parent, "sim.plan", |_| {
        units_override.unwrap_or_else(|| plan_units(job.replications, job.lanes.width()))
    });
    let sim = Simulation::with_program(
        &sys.spec,
        &compiled.td,
        Arc::clone(&compiled.calendar),
        Arc::clone(&compiled.program),
    );
    let per_unit = tr.span(op, parent, "sim.units", |units_span| {
        run_indexed_units(UNIT_THREADS, &units, |&unit, _| {
            tr.span_work(
                op,
                units_span,
                "sim.unit",
                unit.width as u32,
                unit.width as u64 * job.rounds,
                |_| {
                    let setup = |_rep: u64| ReplicationContext {
                        behaviors: BehaviorMap::new(),
                        environment: Box::new(ConstantEnvironment::new(Value::Float(1.0))),
                        injector: Box::new(ProbabilisticFaults::from_architecture(&sys.arch)),
                    };
                    let make_sink = |_rep: u64| Registry::with_recorder(RECORDER);
                    run_campaign_unit(
                        &sim, &sys.spec, &scenario, host_count, &config, setup, make_sink, unit,
                    )
                },
            )
        })
    });
    let mut per_rep = Vec::with_capacity(job.replications as usize);
    for unit in per_unit {
        per_rep.extend(unit.map_err(|e| e.to_string())?);
    }
    let (_report, sinks) = tr.span(op, parent, "sim.aggregate", |_| {
        aggregate_campaign(
            &sys.spec,
            &scenario,
            host_count,
            &config,
            &compiled.analytic,
            per_rep,
        )
    });
    let registry = tr.span(op, parent, "obs.merge", |_| {
        let mut registry = Registry::with_recorder(RECORDER);
        registry.set_gauge(names::BITSLICE_LANES, job.lanes.width() as f64);
        registry.set_gauge(names::CAMPAIGN_SEED, job.seed as f64);
        for sink in sinks {
            registry.merge(sink);
        }
        registry
    });
    Ok(tr.span(op, parent, "obs.export", |_| to_json_line(&registry)))
}

/// One cold op through every stage, on the workload's own spec and
/// scenario, `job.rounds` long: protocol round trip, front half,
/// certification, cache save and load, one 64-wide and one scalar unit,
/// the back half, and the plain kernel at `kernel_width` lanes (plain
/// lanes, no monitor, no-op sink). Stages a workload's op stream never
/// reaches get their per-layer numbers from here. Returns the probe's
/// metrics-line and saved-cache sizes in bytes.
pub fn probe(
    tr: &Tracer,
    op: u64,
    job: &Job,
    kernel_width: usize,
    cache_path: &str,
) -> Result<(u64, u64), String> {
    let mut state = ReplayState::default();
    tr.span(op, 0, "op.probe", |root| {
        let line = job_line("probe", job);
        let (id, job) = tr.span(op, root, "serve.proto", |_| parse_line(&line))?;
        let compiled = state.compiled(tr, op, root, &job.spec_source, &job.spec_label)?;
        let sys = &compiled.sys;
        let db = state.db.as_ref().ok_or("probe analysis produced no db")?;
        tr.span(op, root, "query.save", |_| {
            logrel_query::save(db, cache_path)
        })
        .map_err(|e| e.to_string())?;
        match tr.span(op, root, "query.load", |_| logrel_query::load(cache_path)) {
            LoadOutcome::Loaded(_) => {}
            _ => return Err(format!("{cache_path}: saved cache does not load")),
        }
        tr.span(op, root, "reliability.certify", |_| {
            logrel_reliability::certify(&sys.spec, &sys.arch, &sys.imp, None)
                .map_err(|e| e.to_string())
        })?;
        let probe_job = Job {
            replications: 65,
            ..job.clone()
        };
        let units = vec![
            CampaignUnit {
                first_rep: 0,
                width: 64,
            },
            CampaignUnit {
                first_rep: 64,
                width: 1,
            },
        ];
        let line = campaign(tr, op, root, &compiled, &probe_job, Some(units))?;
        let cache_bytes = std::fs::metadata(cache_path).map_or(0, |m| m.len());
        std::hint::black_box(tr.span(op, root, "serve.status", |_| proto::status_done(&id, false)));
        let scenario =
            Scenario::parse_with(&job.scenario_source, &Symbols(sys)).map_err(|e| e.to_string())?;
        let sim = Simulation::with_program(
            &sys.spec,
            &compiled.td,
            Arc::clone(&compiled.calendar),
            Arc::clone(&compiled.program),
        );
        let (hosts, comms) = (sys.arch.host_count(), sys.spec.communicator_count());
        let lane = |rep: u64| -> Result<_, String> {
            let injector = ScenarioInjector::new(
                ProbabilisticFaults::from_architecture(&sys.arch),
                &scenario,
                hosts,
                comms,
            )
            .map_err(|e| e.to_string())?;
            let env = ScenarioEnvironment::new(
                ConstantEnvironment::new(Value::Float(1.0)),
                &scenario,
                comms,
            );
            Ok((logrel_sim::derive_seed(job.seed, rep), injector, env))
        };
        let work = kernel_width as u64 * job.rounds;
        if kernel_width == 1 {
            let (seed, mut injector, mut env) = lane(0)?;
            let config = SimConfig {
                rounds: job.rounds,
                seed,
            };
            tr.span_work(op, root, "sim.kernel", kernel_width as u32, work, |_| {
                std::hint::black_box(sim.run(
                    &mut BehaviorMap::new(),
                    &mut env,
                    &mut injector,
                    &config,
                ))
            });
        } else {
            let mut lanes = Vec::with_capacity(kernel_width);
            for rep in 0..kernel_width as u64 {
                let (seed, injector, env) = lane(rep)?;
                lanes.push(LaneContext::plain(seed, injector, env));
            }
            tr.span_work(op, root, "sim.kernel", kernel_width as u32, work, |_| {
                std::hint::black_box(sim.run_bitsliced(
                    &mut BehaviorMap::new(),
                    &mut lanes,
                    job.rounds,
                ))
            });
        }
        Ok((line.len() as u64, cache_bytes))
    })
}
