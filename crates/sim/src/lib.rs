//! Discrete-event simulation of the distributed runtime.
//!
//! The paper's semantics (§2) defines an execution as a sequence of
//! communicator values at harmonic time instants, produced by replicated
//! tasks on fail-silent hosts that broadcast their outputs and vote. This
//! crate executes that semantics directly:
//!
//! * [`kernel`] — the deterministic, seeded simulation: communicator
//!   updates (environment sensing, replica voting, value persistence),
//!   task reads with the three input failure models, replica execution
//!   with fault injection, and broadcast delivery, plus the map-driven
//!   reference interpreter it is checked against;
//! * [`bitslice`] — the one production round loop, over groups of 1..=64
//!   replications packed into `u64` lane masks (a single run is a
//!   one-lane group). A lane is a seed, a fault model and an environment;
//!   the group is watched by one [`LrcMonitor`] and reports to one
//!   metrics sink, which ends up as the lanes' one-lane sinks merged in
//!   lane order;
//! * [`behavior`] — task function registries ([`TaskBehavior`]);
//! * [`environment`] — the world outside the program: sensor value
//!   sources and actuator sinks (a closed-loop plant implements this);
//! * [`fault`] — fault models as data: per-invocation transient faults
//!   from the architecture's reliabilities plus one scenario timeline,
//!   and the per-call hooks the kernel's oracles interpret them through;
//! * [`scenario`] — scripted fault timelines (crash/rejoin and unplug,
//!   flaky hosts, burst broadcast loss, stuck sensors, common-cause host
//!   groups, network partitions, Weibull wear-out, adaptive adversaries,
//!   permanent crash hazards, value corruption) with a replayable,
//!   versioned text format;
//! * [`fuzz`] — coverage-guided mutation fuzzing of scenario timelines,
//!   hunting monitor misses (µ-violations the LRC monitor slept
//!   through) and shrinking them to minimal `.scn` reproducers;
//! * [`monitor`] — online LRC monitoring with Hoeffding bands, and
//!   graceful-degradation rules that ride on the monitor;
//! * [`montecarlo`] — deterministic parallel Monte-Carlo: derived
//!   per-replication seeds, and work units distributed over scoped worker
//!   threads and merged in unit order (bit-identical results at any
//!   thread count);
//! * [`campaign`] — the one multi-replication driver, [`Campaign`]: a
//!   batch of replications under a scenario, run as lane groups that
//!   count in the kernel, with per-communicator
//!   reliability/availability/alarm reports;
//! * [`trace`] — recorded traces, their reliability abstraction ρ and
//!   limit averages;
//! * [`emrun`] — cross-validation of the E-machine code generator against
//!   the kernel's event sequence.
//!
//! A key simplification, justified by the paper's assumptions: because the
//! broadcast is atomic (a lost broadcast reaches *no* host) and all
//! replicas of a task produce identical outputs, all replications of a
//! communicator hold identical values at read time — so the kernel keeps
//! one logical copy per communicator, and per-replica state reduces to
//! success/failure of each invocation. Network partitions refine this
//! without breaking it: a replica cut off from *any* host that reads its
//! outputs counts as silent for the round (its broadcast did not reach
//! the full audience), so delivered values remain identical everywhere.
//!
//! [`TaskBehavior`]: behavior::TaskBehavior

// The shared test oracle (`scenario/oracle.rs`) names this crate by its
// name, so that integration tests can include the same file.
#[cfg(test)]
extern crate self as logrel_sim;

pub mod behavior;
pub mod bitslice;
pub mod campaign;
pub mod cosim;
mod draws;
pub mod emrun;
pub mod environment;
pub mod fault;
pub mod fuzz;
pub mod kernel;
pub mod monitor;
pub mod montecarlo;
mod observe;
pub mod scenario;
pub mod trace;
pub mod voting;

pub use behavior::{BehaviorMap, TaskBehavior};
pub use bitslice::{BitslicedOutput, LaneContext};
pub use campaign::{
    aggregate_campaign, check_rounds, plan_units, run_campaign_unit, Campaign, CampaignConfig,
    CampaignError, CampaignUnit, CommunicatorReport, LaneMode, RepSink, RepStats, ScenarioReport,
    UnitResult, MAX_REPLICATIONS, MAX_ROUNDS,
};
pub use environment::{ConstantEnvironment, Environment};
pub use fault::{FaultInjector, FaultModel, NoFaults, ProbabilisticFaults};
pub use fuzz::{run_fuzz, FuzzArtifact, FuzzConfig, FuzzOutcome};
pub use kernel::{SimBuildError, SimConfig, SimOutput, Simulation};
pub use monitor::{
    Alarm, AlarmKind, DegradationRule, LrcMonitor, MonitorConfig, MonitorLane, Response, RuleError,
};
pub use montecarlo::{derive_seed, run_indexed_units, BatchConfig, ReplicationContext};
pub use scenario::{
    HostSet, Scenario, ScenarioEnvironment, ScenarioError, ScenarioEvent, ScenarioFaults,
    ScenarioInjector, ScenarioSymbols, Timeline,
};
pub use trace::Trace;
pub use voting::{classify_outcome, vote, vote_into, VotingStrategy};
