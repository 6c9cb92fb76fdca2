//! What a campaign needs from serve: the compiled spec, the standard
//! replication context and the replay gauges.
//!
//! `htlc inject` and the service [`Engine`](crate::Engine) both run a
//! campaign through the library driver [`Campaign`], wrapped in a
//! [`Plan`], so a served job's registry equals a standalone
//! `htlc inject --metrics` export (minus the wall-clock `*_seconds`
//! spans) because both take the same steps in the same code:
//!
//! 1. [`CompiledSpec::new`] compiles and self-certifies the round
//!    program once;
//! 2. [`Plan::new`] validates the scenario and campaign parameters
//!    ([`Campaign::new`]) and shards the replications into units;
//! 3. [`Plan::run_unit`] runs one unit on the shared program from
//!    [`replication_context`] — callers choose where: the batch's threads
//!    ([`Plan::run`]) or a pool;
//! 4. [`Plan::finish`] (or [`Plan::run`]) records the replay gauges
//!    (`logrel_bitslice_lanes`, `logrel_campaign_seed`) and hands the
//!    unit results to [`Campaign::finish`], which merges them in unit
//!    (= replication) order.
//!
//! What stays with the callers is their front half, which elaborates
//! the system: the CLI's compile and diagnostics, the service's analysis
//! and compile cache. So do the analytic SRGs a report compares λ̂
//! against (`htlc inject` passes them to [`Plan::run`]; the service reads
//! only the registry and computes none), and how errors are reported.

use std::sync::Arc;

use logrel_core::{
    Architecture, Calendar, CommunicatorId, HostId, RoundProgram, TimeDependentImplementation,
    Value,
};
use logrel_lang::ElaboratedSystem;
use logrel_obs::{names, MetricsSink, Registry};
use logrel_sim::montecarlo::{BatchConfig, ReplicationContext};
use logrel_sim::{
    BehaviorMap, Campaign, CampaignConfig, CampaignError, CampaignUnit, ConstantEnvironment,
    LaneMode, MonitorConfig, ProbabilisticFaults, RepSink, Scenario, ScenarioReport,
    ScenarioSymbols, SimBuildError, Simulation, UnitResult,
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

/// Everything derived from a spec that campaigns can share: the
/// elaborated system, its time-dependent implementation and the compiled
/// calendar/round program.
pub struct CompiledSpec {
    sys: ElaboratedSystem,
    td: TimeDependentImplementation,
    calendar: Arc<Calendar>,
    program: Arc<RoundProgram>,
}

impl CompiledSpec {
    /// Compiles and self-certifies the round program of `sys` once,
    /// recording the compile/certify span gauges on `sink`.
    pub fn new(sys: ElaboratedSystem, sink: &mut dyn MetricsSink) -> Result<Self, SimBuildError> {
        let td = TimeDependentImplementation::from(sys.imp.clone());
        let (calendar, program) =
            Simulation::try_new_observed(&sys.spec, &sys.arch, &td, sink)?.shared_program();
        Ok(CompiledSpec {
            sys,
            td,
            calendar,
            program,
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
/// monitor. `threads` is 0: [`Plan::run`] runs the units on one thread
/// per core, and a pool that runs [`Plan::run_unit`] ignores it.
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
/// faults — by value, so the campaign units that serve, `htlc inject`
/// and the benchmarks run make their per-lane draws through static
/// calls.
pub fn replication_context(
    arch: &Architecture,
) -> ReplicationContext<ProbabilisticFaults, ConstantEnvironment> {
    ReplicationContext {
        behaviors: BehaviorMap::new(),
        environment: ConstantEnvironment::new(Value::Float(1.0)),
        injector: ProbabilisticFaults::from_architecture(arch),
    }
}

/// A validated [`Campaign`] over one [`CompiledSpec`], every replication
/// from [`replication_context`].
pub struct Plan {
    compiled: Arc<CompiledSpec>,
    campaign: Campaign,
}

impl Plan {
    /// Validates `scenario` and `config` against `compiled` and plans the
    /// units ([`Campaign::new`]).
    pub fn new(
        compiled: Arc<CompiledSpec>,
        scenario: Scenario,
        config: CampaignConfig,
        recorder_capacity: usize,
    ) -> Result<Plan, CampaignError> {
        let (spec, hosts) = (&compiled.sys.spec, compiled.sys.arch.host_count());
        let campaign = Campaign::new(spec, scenario, config, hosts, recorder_capacity)?;
        Ok(Plan { compiled, campaign })
    }

    /// The planned units, in replication order.
    #[must_use]
    pub fn units(&self) -> &[CampaignUnit] {
        self.campaign.units()
    }

    /// Runs one unit on the shared program ([`Campaign::run_unit`]).
    pub fn run_unit<M: RepSink>(&self, unit: CampaignUnit) -> UnitResult<M> {
        let arch = &self.compiled.sys.arch;
        let sim = self.compiled.simulation();
        self.campaign.run_unit(&sim, |_rep| replication_context(arch), unit)
    }

    /// Records the replay gauges, then [`Campaign::finish`]es without
    /// analytic SRGs: a pool job's result is its registry.
    pub fn finish<M: RepSink, E>(
        &self,
        per_unit: Vec<UnitResult<M, E>>,
        registry: &mut Registry,
    ) -> Result<ScenarioReport, E> {
        self.replay_gauges(registry);
        self.campaign.finish(&self.compiled.sys.spec, &[], per_unit, registry)
    }

    /// Records the replay gauges, then [`Campaign::run`]s every unit.
    pub fn run<M: RepSink>(
        &self,
        analytic: &[Option<f64>],
        registry: &mut Registry,
    ) -> Result<ScenarioReport, CampaignError> {
        let arch = &self.compiled.sys.arch;
        let sim = self.compiled.simulation();
        self.replay_gauges(registry);
        self.campaign.run::<M, _, _>(&sim, |_rep| replication_context(arch), analytic, registry)
    }

    /// The lane-width and seed gauges that make an export replayable.
    fn replay_gauges(&self, registry: &mut Registry) {
        let config = self.campaign.config();
        registry.set_gauge(names::BITSLICE_LANES, config.lanes.width() as f64);
        registry.set_gauge(names::CAMPAIGN_SEED, config.batch.base_seed as f64);
    }
}
