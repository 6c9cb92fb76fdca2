//! The campaign pipeline: compile → plan → unit → merge.
//!
//! `htlc inject` and the service [`Engine`](crate::Engine) both run a
//! campaign through this module, so a served job's registry equals a
//! standalone `htlc inject --metrics` export (minus the wall-clock
//! `*_seconds` spans) because both take the same steps in the same code:
//!
//! 1. [`CompiledSpec::new`] computes the analytic SRG vector and compiles
//!    and self-certifies the round program once;
//! 2. [`Plan::new`] validates the scenario and campaign parameters
//!    through [`plan_campaign`] and shards the replications into units;
//! 3. [`Plan::run_unit`] runs one unit on the shared program — callers
//!    choose where: scoped threads ([`Plan::run_scoped`]) or a pool;
//! 4. [`Plan::finish`] merges unit results in unit (= replication)
//!    order, aggregates the report, and fills the job registry.
//!
//! What stays with the callers is their front half, which elaborates
//! the system: the CLI's compile and diagnostics, the service's analysis
//! and compile cache. So does how they report errors.

use std::fmt;
use std::sync::Arc;

use logrel_core::{
    Architecture, Calendar, CommunicatorId, HostId, RoundProgram, TimeDependentImplementation,
    Value,
};
use logrel_lang::ElaboratedSystem;
use logrel_obs::{names, MetricsSink, Registry};
use logrel_reliability::ReliabilityError;
use logrel_sim::montecarlo::{BatchConfig, ReplicationContext};
use logrel_sim::{
    aggregate_campaign, plan_campaign, run_campaign_unit, run_indexed_units, BehaviorMap,
    CampaignConfig, CampaignError, CampaignUnit, ConstantEnvironment, LaneMode, MonitorConfig,
    ProbabilisticFaults, RepSink, RepStats, Scenario, ScenarioReport, ScenarioSymbols,
    SimBuildError, Simulation,
};

/// Resolves scenario host and communicator names against a compiled
/// program.
pub struct Symbols<'a>(pub &'a ElaboratedSystem);

impl ScenarioSymbols for Symbols<'_> {
    fn host(&self, name: &str) -> Option<HostId> {
        self.0.arch.find_host(name)
    }
    fn communicator(&self, name: &str) -> Option<CommunicatorId> {
        self.0.spec.find_communicator(name)
    }
}

/// Why [`CompiledSpec::new`] failed.
#[derive(Debug)]
pub enum CompileError {
    /// The analytic SRG pass rejected the system.
    Srg(ReliabilityError),
    /// The round program failed to build or to self-certify.
    Program(SimBuildError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Srg(e) => write!(f, "{e}"),
            CompileError::Program(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Everything derived from a spec that campaigns can share: the
/// elaborated system, its time-dependent implementation, the compiled
/// calendar/round program, and the analytic SRG vector.
pub struct CompiledSpec {
    sys: ElaboratedSystem,
    td: TimeDependentImplementation,
    calendar: Arc<Calendar>,
    program: Arc<RoundProgram>,
    analytic: Vec<Option<f64>>,
}

impl CompiledSpec {
    /// Computes the analytic SRGs of `sys`, then compiles and
    /// self-certifies its round program once, recording the
    /// compile/certify span gauges on `sink`.
    pub fn new(sys: ElaboratedSystem, sink: &mut dyn MetricsSink) -> Result<Self, CompileError> {
        let srgs = logrel_reliability::compute_srgs(&sys.spec, &sys.arch, &sys.imp)
            .map_err(CompileError::Srg)?;
        let analytic = sys
            .spec
            .communicator_ids()
            .map(|c| Some(srgs.communicator(c).get()))
            .collect();
        let td = TimeDependentImplementation::from(sys.imp.clone());
        let (calendar, program) = Simulation::try_new_observed(&sys.spec, &sys.arch, &td, sink)
            .map_err(CompileError::Program)?
            .shared_program();
        Ok(CompiledSpec {
            sys,
            td,
            calendar,
            program,
            analytic,
        })
    }

    /// The elaborated system.
    #[must_use]
    pub fn sys(&self) -> &ElaboratedSystem {
        &self.sys
    }

    /// The compiled round program.
    #[must_use]
    pub fn program(&self) -> &RoundProgram {
        &self.program
    }

    /// A simulation reattached to the shared round program: per-unit
    /// cost is this struct, not a recompilation.
    fn simulation(&self) -> Simulation<'_> {
        Simulation::with_program(
            &self.sys.spec,
            &self.td,
            Arc::clone(&self.calendar),
            Arc::clone(&self.program),
        )
    }
}

/// The campaign configuration of `replications` × `rounds` under base
/// seed `seed` with lane mode `lanes`, monitored with the default LRC
/// monitor. `threads` is 0 (one per core) for callers that hand the
/// configuration to [`logrel_sim::run_campaign`]; the pipeline itself
/// leaves threading to its callers.
#[must_use]
pub fn campaign_config(
    replications: u64,
    rounds: u64,
    seed: u64,
    lanes: LaneMode,
) -> CampaignConfig {
    CampaignConfig {
        batch: BatchConfig {
            replications,
            rounds,
            base_seed: seed,
            threads: 0,
        },
        monitor: MonitorConfig::default(),
        lanes,
    }
}

/// The base context of every campaign replication: no task behaviors,
/// a constant sensor reading of 1.0, and the architecture's transient
/// faults.
pub fn replication_context(arch: &Architecture) -> ReplicationContext<'_> {
    ReplicationContext {
        behaviors: BehaviorMap::new(),
        environment: Box::new(ConstantEnvironment::new(Value::Float(1.0))),
        injector: Box::new(ProbabilisticFaults::from_architecture(arch)),
    }
}

/// One unit's per-replication results, in replication order.
pub type UnitResult<M, E = CampaignError> = Result<Vec<(RepStats, M)>, E>;

/// A validated campaign over one [`CompiledSpec`], sharded into units.
pub struct Plan {
    compiled: Arc<CompiledSpec>,
    scenario: Scenario,
    config: CampaignConfig,
    units: Vec<CampaignUnit>,
    recorder_capacity: usize,
}

impl Plan {
    /// Validates `scenario` and `config` against `compiled` (see
    /// [`plan_campaign`]) and plans the units. Per-replication registries
    /// carry flight recorders of `recorder_capacity` events.
    pub fn new(
        compiled: Arc<CompiledSpec>,
        scenario: Scenario,
        config: CampaignConfig,
        recorder_capacity: usize,
    ) -> Result<Plan, CampaignError> {
        let sys = &compiled.sys;
        let units = plan_campaign(&sys.spec, &scenario, sys.arch.host_count(), &config)?;
        Ok(Plan {
            compiled,
            scenario,
            config,
            units,
            recorder_capacity,
        })
    }

    /// The planned units, in replication order.
    #[must_use]
    pub fn units(&self) -> &[CampaignUnit] {
        &self.units
    }

    /// Runs one unit, every replication from [`replication_context`]
    /// under the scenario.
    pub fn run_unit<M: RepSink>(&self, unit: CampaignUnit) -> UnitResult<M> {
        let arch = &self.compiled.sys.arch;
        run_campaign_unit(
            &self.compiled.simulation(),
            &self.compiled.sys.spec,
            &self.scenario,
            arch.host_count(),
            &self.config,
            |_rep| replication_context(arch),
            |_rep| M::fresh(self.recorder_capacity),
            unit,
        )
    }

    /// Merges the unit results (one per unit, in unit order) into the
    /// report, and fills `registry`: the lane-width and seed gauges that
    /// make the export replayable, then every replication's sink in
    /// replication order — which is what makes the export independent of
    /// where and in which order the units ran.
    pub fn finish<M: RepSink, E>(
        &self,
        per_unit: Vec<UnitResult<M, E>>,
        registry: &mut Registry,
    ) -> Result<ScenarioReport, E> {
        let per_rep = per_unit.into_iter().collect::<Result<Vec<_>, E>>()?;
        let sys = &self.compiled.sys;
        let (report, sinks) = aggregate_campaign(
            &sys.spec,
            &self.scenario,
            sys.arch.host_count(),
            &self.config,
            &self.compiled.analytic,
            per_rep.into_iter().flatten().collect(),
        );
        registry.set_gauge(names::BITSLICE_LANES, self.config.lanes.width() as f64);
        registry.set_gauge(names::CAMPAIGN_SEED, self.config.batch.base_seed as f64);
        for sink in sinks {
            sink.merge_into(registry);
        }
        Ok(report)
    }

    /// Runs every unit on scoped threads, one per core, and finishes the
    /// campaign into `registry`.
    pub fn run_scoped<M: RepSink>(
        &self,
        registry: &mut Registry,
    ) -> Result<ScenarioReport, CampaignError> {
        let per_unit = run_indexed_units(0, &self.units, |&unit, _| self.run_unit::<M>(unit));
        self.finish(per_unit, registry)
    }
}
