//! Scenario campaigns over the deterministic Monte-Carlo harness.
//!
//! A campaign runs a [`Scenario`] for a batch of seeded replications
//! through one driver, [`Campaign`]:
//!
//! 1. [`Campaign::new`] validates the scenario and the batch and plans
//!    the replications into [`CampaignUnit`]s of up to 64 lanes;
//! 2. [`Campaign::run_unit`] runs one unit as one lane group, watched by
//!    one online [`LrcMonitor`], and reduces each lane to its
//!    [`RepStats`];
//! 3. [`Campaign::finish`] aggregates the units' results in unit
//!    (= replication) order and merges their sinks into the caller's
//!    registry in the same order.
//!
//! [`Campaign::run`] does steps 2 and 3 over the batch's threads; a job
//! service runs the units on its own pool and calls
//! [`Campaign::finish`]. The report holds, per communicator, the
//! empirical long-run reliability λ̂ against a caller-supplied analytic
//! SRG (with the Hoeffding radius over the pooled sample count), the
//! time to the first LRC violation, and alarm counts. Scripted host
//! availability comes from the scenario timeline itself. Everything is
//! bit-deterministic in the batch configuration — rerunning a report, at
//! any thread count, reproduces it exactly.

use crate::bitslice::{group_model, BitslicedOutput, GroupFaults, LaneContext};
use crate::environment::Environment;
use crate::fault::FaultModel;
use crate::kernel::Simulation;
use crate::monitor::{AlarmKind, LrcMonitor, MonitorConfig, MonitorLane};
use crate::montecarlo::{derive_seed, run_indexed_units, BatchConfig, ReplicationContext};
use crate::scenario::{Scenario, ScenarioEnvironment, ScenarioError, ScenarioLanes, Timeline};
use logrel_core::{CommunicatorId, Specification, Tick};
use logrel_obs::{MetricsSink, NoopSink, Registry};
use logrel_reliability::hoeffding_epsilon;
use std::fmt;

/// How wide a campaign packs its replications into the lane groups of
/// the one production kernel ([`crate::bitslice`]).
///
/// The mode never changes results — a lane's replication is bit-identical
/// at any group width — only wall-clock time, so `Off` exists for
/// debugging and differential testing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LaneMode {
    /// Groups of 64 replications, plus one narrower group for a
    /// non-multiple-of-64 tail.
    #[default]
    Auto,
    /// One replication per group (width 1).
    Off,
    /// Groups of a fixed width (clamped to 1..=64; width 1 is the same
    /// as `Off`).
    Width(u8),
}

impl LaneMode {
    /// The lane-group width this mode packs (1 for [`LaneMode::Off`]).
    #[must_use]
    pub fn width(self) -> usize {
        match self {
            LaneMode::Auto => 64,
            LaneMode::Off => 1,
            LaneMode::Width(w) => (w as usize).clamp(1, 64),
        }
    }
}

/// Configuration of one scenario campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CampaignConfig {
    /// The Monte-Carlo batch (replications, rounds, base seed, threads).
    pub batch: BatchConfig,
    /// The online LRC monitor watching each replication.
    pub monitor: MonitorConfig,
    /// Lane-group width (default: 64-wide groups).
    pub lanes: LaneMode,
}

/// Aggregated per-communicator campaign statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct CommunicatorReport {
    /// The communicator.
    pub comm: CommunicatorId,
    /// Total updates observed across all replications.
    pub updates: u64,
    /// Reliable (non-⊥) updates across all replications.
    pub reliable: u64,
    /// Empirical long-run reliability λ̂ = reliable / updates.
    pub empirical: f64,
    /// The analytic SRG λ, if the caller supplied one.
    pub analytic: Option<f64>,
    /// Hoeffding radius at the monitor's confidence over `updates`.
    pub epsilon: f64,
    /// `|λ̂ − λ| ≤ ε`, when an analytic value is present.
    pub within_epsilon: Option<bool>,
    /// The declared LRC µ, if any.
    pub lrc: Option<f64>,
    /// Earliest monitor-raised violation instant across replications.
    pub first_violation: Option<Tick>,
    /// Replications in which the monitor raised at least one alarm.
    pub violated_reps: u64,
    /// Total raised alarms across replications.
    pub alarms_raised: u64,
    /// Total cleared alarms across replications.
    pub alarms_cleared: u64,
    /// Replications whose full-window mean dipped below µ_c by at least
    /// half the Hoeffding band — the ground-truth µ-violations
    /// ([`MonitorLane::first_dip`]).
    pub violations: u64,
    /// Among `violations`, the replications where the monitor caught the
    /// dip: an alarm was raised no later than one window of updates
    /// after it ([`MonitorLane::dip_alarmed`]). `violations > 0` with
    /// `alarms_before_violation == 0` means the monitor slept through
    /// every ground-truth violation — the fuzzer's headline objective.
    pub alarms_before_violation: u64,
}

/// The full campaign report for one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// The scenario's canonical serialized form (replayable verbatim).
    pub scenario: String,
    /// Scripted per-host availability over the simulated horizon.
    pub host_availability: Vec<f64>,
    /// Per-communicator statistics, in communicator order.
    pub comms: Vec<CommunicatorReport>,
}

/// Why a campaign (or one of its sharded units) could not run.
///
/// Degenerate inputs come back as diagnosed errors rather than panics so
/// that a long-running service can reject a malformed job and keep
/// serving (the `A-code` rendering lives in the CLI driver).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// The scenario failed validation against the system's host and
    /// communicator counts.
    Scenario(ScenarioError),
    /// The batch requests zero replications: there is nothing to
    /// aggregate, and a report of all-zero counts would silently read as
    /// "perfectly reliable".
    NoReplications,
    /// The batch requests more than [`MAX_REPLICATIONS`] replications.
    TooManyReplications(u64),
    /// The batch requests `rounds` rounds, more than the `max` the
    /// system's horizon admits (see [`check_rounds`]).
    TooManyRounds {
        /// The requested round count.
        rounds: u64,
        /// The largest admissible round count.
        max: u64,
    },
    /// A sharded unit's lane width is outside `1..=64` (the bit-sliced
    /// kernel packs replications into one `u64` word per lane group).
    LaneWidth(usize),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Scenario(e) => write!(f, "{e}"),
            CampaignError::NoReplications => {
                write!(f, "campaign requests zero replications")
            }
            CampaignError::TooManyReplications(n) => write!(
                f,
                "campaign requests {n} replications; at most {MAX_REPLICATIONS} are allowed"
            ),
            CampaignError::TooManyRounds { rounds, max } => {
                write!(f, "{rounds} rounds requested; at most {max} are allowed")
            }
            CampaignError::LaneWidth(w) => {
                write!(f, "campaign unit width {w} outside 1..=64")
            }
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Scenario(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ScenarioError> for CampaignError {
    fn from(e: ScenarioError) -> Self {
        CampaignError::Scenario(e)
    }
}

/// One sharded slice of a campaign: `width` consecutive replications
/// starting at `first_rep`, executed as a single work item.
///
/// Units may run on any worker in any order: each replication's RNG
/// stream depends only on `(base_seed, rep)`, never on which worker ran
/// it or what else ran beside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignUnit {
    /// Index of the unit's first replication.
    pub first_rep: u64,
    /// Number of consecutive replications in the unit (1..=64): the
    /// width of the unit's one lane group.
    pub width: usize,
}

/// The largest replication count a campaign accepts: 2^20, far beyond
/// any useful Hoeffding band yet small enough that the unit plan and the
/// per-replication results always fit in memory. A larger request is a
/// diagnosed [`CampaignError::TooManyReplications`], never an abort.
pub const MAX_REPLICATIONS: u64 = 1 << 20;

/// The longest horizon a run accepts, in rounds: 2^24 (16 777 216),
/// about 400 times the longest horizon any shipped workload uses, and
/// already seconds to minutes of kernel time per replication. A longer
/// request is a diagnosed [`CampaignError::TooManyRounds`] instead of a
/// job that runs for hours.
pub const MAX_ROUNDS: u64 = 1 << 24;

/// Checks that `rounds` rounds of `spec` form an admissible horizon — at
/// most [`MAX_ROUNDS`], and short enough that the last instant,
/// `rounds × π_S`, fits in a [`Tick`] — and returns that horizon.
pub fn check_rounds(spec: &Specification, rounds: u64) -> Result<Tick, CampaignError> {
    let period = spec.round_period().as_u64();
    match rounds.checked_mul(period) {
        Some(horizon) if rounds <= MAX_ROUNDS => Ok(Tick::new(horizon)),
        _ => Err(CampaignError::TooManyRounds {
            rounds,
            max: MAX_ROUNDS.min(u64::MAX / period.max(1)),
        }),
    }
}

/// One unit's per-replication results, in replication order.
pub type UnitResult<M, E = CampaignError> = Result<Vec<(RepStats, M)>, E>;

/// A validated campaign planned into units: the one campaign driver.
///
/// [`Campaign::run`] runs the units on the batch's threads; a service
/// runs [`Campaign::run_unit`] on its own pool instead and hands the
/// results to [`Campaign::finish`] in unit order, with the same report
/// and registry, byte for byte.
#[derive(Debug)]
pub struct Campaign {
    scenario: Scenario,
    config: CampaignConfig,
    host_count: usize,
    recorder_capacity: usize,
    units: Vec<CampaignUnit>,
}

impl Campaign {
    /// Validates a campaign and plans its units: the scenario must fit
    /// `host_count` hosts and the spec's communicators, the horizon must
    /// pass [`check_rounds`], and the replication count must lie in
    /// `1..=`[`MAX_REPLICATIONS`]. Unit sinks carry flight recorders of
    /// `recorder_capacity` events.
    pub fn new(
        spec: &Specification,
        scenario: Scenario,
        config: CampaignConfig,
        host_count: usize,
        recorder_capacity: usize,
    ) -> Result<Campaign, CampaignError> {
        scenario.check_bounds(host_count, spec.communicator_count())?;
        check_rounds(spec, config.batch.rounds)?;
        let units = match config.batch.replications {
            0 => return Err(CampaignError::NoReplications),
            n if n > MAX_REPLICATIONS => return Err(CampaignError::TooManyReplications(n)),
            n => plan_units(n, config.lanes.width()),
        };
        Ok(Campaign {
            scenario,
            config,
            host_count,
            recorder_capacity,
            units,
        })
    }

    /// The campaign's configuration.
    #[must_use]
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// The planned units, in replication order.
    #[must_use]
    pub fn units(&self) -> &[CampaignUnit] {
        &self.units
    }

    /// Runs one unit over `sim` ([`run_campaign_unit`]), each replication
    /// from its base context `setup(rep)`, reporting to a fresh `M`.
    pub fn run_unit<M, I, E>(
        &self,
        sim: &Simulation<'_>,
        setup: impl Fn(u64) -> ReplicationContext<I, E>,
        unit: CampaignUnit,
    ) -> UnitResult<M>
    where
        M: RepSink,
        I: FaultModel,
        E: Environment,
    {
        run_campaign_unit(
            sim,
            sim.spec,
            &self.scenario,
            self.host_count,
            &self.config,
            setup,
            |_rep| M::fresh(self.recorder_capacity),
            unit,
        )
    }

    /// Aggregates the unit results, given in unit order, into the report
    /// against the `analytic` SRGs ([`aggregate_campaign`]) and merges
    /// their sinks into `registry` in the same order, or returns the
    /// first unit's error. `registry` keeps what it already held.
    pub fn finish<M: RepSink, E>(
        &self,
        spec: &Specification,
        analytic: &[Option<f64>],
        per_unit: Vec<UnitResult<M, E>>,
        registry: &mut Registry,
    ) -> Result<ScenarioReport, E> {
        let per_rep = per_unit.into_iter().collect::<Result<Vec<_>, E>>()?;
        let (report, sinks) = aggregate_campaign(
            spec,
            &self.scenario,
            self.host_count,
            &self.config,
            analytic,
            per_rep.into_iter().flatten().collect(),
        );
        for sink in sinks {
            sink.merge_into(registry);
        }
        Ok(report)
    }

    /// Runs every unit on the batch's threads ([`run_indexed_units`]) and
    /// finishes into `registry`; with `M = `[`NoopSink`] nothing is
    /// observed.
    pub fn run<M, I, E>(
        &self,
        sim: &Simulation<'_>,
        setup: impl Fn(u64) -> ReplicationContext<I, E> + Sync,
        analytic: &[Option<f64>],
        registry: &mut Registry,
    ) -> Result<ScenarioReport, CampaignError>
    where
        M: RepSink,
        I: FaultModel,
        E: Environment,
    {
        let per_unit = run_indexed_units(self.config.batch.threads, &self.units, |&unit, _| {
            self.run_unit::<M, I, E>(sim, &setup, unit)
        });
        self.finish(sim.spec, analytic, per_unit, registry)
    }
}

/// Plans the work units of a campaign: groups of `width` consecutive
/// replications plus one narrower tail group for a non-multiple
/// remainder. `width` is clamped to 1..=64 (the bit-sliced lane limit).
#[must_use]
pub fn plan_units(replications: u64, width: usize) -> Vec<CampaignUnit> {
    let width = width.clamp(1, 64);
    let mut units = Vec::with_capacity((replications as usize).div_ceil(width));
    let mut first = 0u64;
    while first < replications {
        let w = (replications - first).min(width as u64) as usize;
        units.push(CampaignUnit {
            first_rep: first,
            width: w,
        });
        first += w as u64;
    }
    units
}

/// Per-replication reduced statistics, the unit of campaign aggregation.
///
/// Opaque outside this module: produced by [`run_campaign_unit`] and
/// consumed by [`aggregate_campaign`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepStats {
    /// Per communicator.
    comms: Vec<CommStats>,
}

/// One replication's statistics on one communicator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CommStats {
    updates: u64,
    reliable: u64,
    first_violation: Option<u64>,
    raised: u64,
    cleared: u64,
    first_dip: Option<u64>,
    /// A dip occurred *and* the monitor alarmed within one window of it.
    alarmed_dip: bool,
}

/// A per-replication metrics sink a campaign creates and folds into the
/// caller's registry: a fresh [`Registry`], or a [`NoopSink`] when
/// nobody reads the metrics.
pub trait RepSink: MetricsSink + Send + Sized {
    /// A fresh sink carrying a flight recorder of `recorder_capacity`
    /// events (none when 0).
    fn fresh(recorder_capacity: usize) -> Self;
    /// Folds the filled sink into `registry`.
    fn merge_into(self, registry: &mut Registry);
}

impl RepSink for Registry {
    fn fresh(recorder_capacity: usize) -> Self {
        if recorder_capacity > 0 {
            Registry::with_recorder(recorder_capacity)
        } else {
            Registry::new()
        }
    }
    fn merge_into(self, registry: &mut Registry) {
        registry.merge(self);
    }
}

impl RepSink for NoopSink {
    fn fresh(_recorder_capacity: usize) -> Self {
        NoopSink
    }
    fn merge_into(self, _registry: &mut Registry) {}
}

/// Reduces lane `lane` of a group run and its monitor to the lane's
/// [`RepStats`]: the update and reliable-update counts the kernel kept,
/// plus the monitor's verdicts.
fn rep_stats(
    spec: &Specification,
    out: &BitslicedOutput,
    lane: usize,
    monitor: MonitorLane<'_>,
) -> RepStats {
    let mut stats = RepStats {
        comms: spec
            .communicator_ids()
            .map(|c| CommStats {
                updates: out.updates(c),
                reliable: out.reliable(c, lane),
                first_violation: monitor.first_violation(c).map(Tick::as_u64),
                raised: 0,
                cleared: 0,
                first_dip: monitor.first_dip(c).map(Tick::as_u64),
                alarmed_dip: monitor.dip_alarmed(c),
            })
            .collect(),
    };
    for alarm in monitor.alarms() {
        let comm = &mut stats.comms[alarm.comm.index()];
        match alarm.kind {
            AlarmKind::Raised => comm.raised += 1,
            AlarmKind::Cleared => comm.cleared += 1,
        }
    }
    stats
}

/// Runs one planned [`CampaignUnit`] and returns its per-replication
/// results in replication order, each with a sink `make_sink` made for
/// it.
///
/// The unit reports to one sink, `make_sink(first_rep)`: it receives
/// every lane's counters, vote histogram, hosts-up gauge, evictions and
/// alarm dumps, and the first replication's live ring, and comes back
/// with the first replication. The other replications' sinks come back
/// as `make_sink` made them. For a `make_sink` that hands out the same
/// empty sink for every replication, as [`RepSink::fresh`] does, merging
/// the returned sinks into a [`Registry`] in replication order gives the
/// registry that merging one sink per replication, each observing its
/// own lane, gives, byte for byte. The unit never builds what that merge
/// would discard: the other replications' live rings, and alarm dumps
/// past the first [`FlightRecorder::MAX_DUMPS`](logrel_obs::FlightRecorder::MAX_DUMPS)
/// in replication order.
///
/// Bounds that [`Campaign::new`] checks once up front are re-validated
/// here (compiling the scenario propagates its error), so a malformed
/// unit diagnoses rather than takes down a service worker. The unit runs
/// as one lane group under one fault model — the base contexts' rates,
/// which must be equal, under the scenario's timeline, compiled once per
/// unit — and one group [`LrcMonitor`] without degradation rules,
/// and reduces each lane to its [`RepStats`] from the counts the kernel
/// kept and the monitor's verdicts: no trace is recorded, so memory does
/// not grow with the rounds. Seeds depend only on `(base_seed, rep)`, so
/// a replication is the same in any unit of any width.
///
/// The lanes hold their base fault model `I` and environment `E` by
/// value: each context type is one instantiation of this one body. With
/// concrete types, as the job service's context has, every per-lane sense
/// is a static call; boxed `dyn` contexts make the same calls in the same
/// order through the `Box` forwarding impls.
///
/// # Panics
///
/// Panics if the base contexts carry unequal fault models, or one that
/// runs a timeline of its own (the campaign's scenario is the unit's
/// timeline).
#[allow(clippy::too_many_arguments)]
pub fn run_campaign_unit<S, I, E, M, FM>(
    sim: &Simulation<'_>,
    spec: &Specification,
    scenario: &Scenario,
    host_count: usize,
    config: &CampaignConfig,
    setup: S,
    make_sink: FM,
    unit: CampaignUnit,
) -> UnitResult<M>
where
    S: Fn(u64) -> ReplicationContext<I, E>,
    I: FaultModel,
    E: Environment,
    M: MetricsSink,
    FM: Fn(u64) -> M,
{
    let comm_count = spec.communicator_count();
    let CampaignUnit { first_rep, width } = unit;
    if width == 0 || width > 64 {
        return Err(CampaignError::LaneWidth(width));
    }
    // The scenario is compiled once for the unit and runs as the
    // timeline of the lanes' one fault model.
    let timeline = Timeline::compile(scenario, host_count, comm_count)?;
    // One shared behavior map per group (the first replication's):
    // behaviors are pure by the lane-group kernel's contract. A lane's
    // draw sequence never depends on the group width, so narrower tail
    // groups and width-1 units need no special casing.
    let mut behaviors = None;
    let mut lanes = Vec::with_capacity(width);
    for rep in first_rep..first_rep + width as u64 {
        let base = setup(rep);
        let environment = ScenarioEnvironment::new(base.environment, scenario, comm_count);
        if behaviors.is_none() {
            behaviors = Some(base.behaviors);
        }
        lanes.push(LaneContext::plain(
            derive_seed(config.batch.base_seed, rep),
            base.injector,
            environment,
        ));
    }
    let Some(mut behaviors) = behaviors else {
        // Unreachable with width >= 1, but a degenerate unit must
        // diagnose, never panic, inside a service worker.
        return Err(CampaignError::LaneWidth(0));
    };
    let (rates, own) = group_model(&lanes);
    assert!(
        own.is_none(),
        "a campaign's base fault model runs no timeline of its own"
    );
    let mut faults = GroupFaults::new(rates, ScenarioLanes::new(timeline, width));
    let mut monitor = LrcMonitor::with_lanes(spec, config.monitor, width);
    let mut sink = make_sink(first_rep);
    let out = sim.run_lanes(
        &mut behaviors,
        &mut lanes,
        Some(&mut monitor),
        &mut sink,
        &mut faults,
        config.batch.rounds,
        &mut (),
    );
    let sinks = std::iter::once(sink).chain((first_rep + 1..).map(&make_sink));
    Ok((0..width)
        .zip(sinks)
        .map(|(li, sink)| (rep_stats(spec, &out, li, monitor.lane(li)), sink))
        .collect())
}

/// Aggregates per-replication results (in replication order) into the
/// campaign report, returning the sinks alongside it, in the same order.
/// Merged into a [`Registry`] in that order, the sinks of
/// [`run_campaign_unit`]s give the registry of one sink per replication
/// (see there).
///
/// The reduction is order-sensitive only in the sinks (merged by the
/// caller in the order given); the statistics are sums and minima, so
/// any permutation-restoring shard scheduler reproduces [`Campaign::run`]
/// exactly by sorting unit results back into replication order first.
pub fn aggregate_campaign<M>(
    spec: &Specification,
    scenario: &Scenario,
    host_count: usize,
    config: &CampaignConfig,
    analytic: &[Option<f64>],
    per_rep: Vec<(RepStats, M)>,
) -> (ScenarioReport, Vec<M>) {
    // Saturating: a planned campaign passed `check_rounds`, and an
    // unplanned one must still not overflow.
    let horizon = Tick::new(
        config
            .batch
            .rounds
            .saturating_mul(spec.round_period().as_u64()),
    );
    // One pass over the replications: per communicator the sums, the
    // earliest violation, and the counts of replications that violated,
    // dipped, or dipped and alarmed.
    #[derive(Default)]
    struct Totals {
        stats: CommStats,
        violated: u64,
        dipped: u64,
        alarmed_dips: u64,
    }
    let mut totals: Vec<Totals> = spec.communicator_ids().map(|_| Totals::default()).collect();
    for (rep, _) in &per_rep {
        for (t, c) in totals.iter_mut().zip(&rep.comms) {
            t.stats.updates += c.updates;
            t.stats.reliable += c.reliable;
            t.stats.raised += c.raised;
            t.stats.cleared += c.cleared;
            if let Some(at) = c.first_violation {
                t.violated += 1;
                t.stats.first_violation = Some(t.stats.first_violation.map_or(at, |v| v.min(at)));
            }
            t.dipped += u64::from(c.first_dip.is_some());
            t.alarmed_dips += u64::from(c.alarmed_dip);
        }
    }
    let comms = spec
        .communicator_ids()
        .zip(totals)
        .map(|(c, t)| {
            let i = c.index();
            let CommStats {
                updates, reliable, ..
            } = t.stats;
            let empirical = if updates == 0 {
                0.0
            } else {
                reliable as f64 / updates as f64
            };
            let epsilon = if updates == 0 {
                1.0
            } else {
                hoeffding_epsilon(updates as usize, config.monitor.confidence)
            };
            let analytic = analytic.get(i).copied().flatten();
            CommunicatorReport {
                comm: c,
                updates,
                reliable,
                empirical,
                analytic,
                epsilon,
                within_epsilon: analytic.map(|a| (empirical - a).abs() <= epsilon),
                lrc: spec.communicator(c).lrc().map(|l| l.get()),
                first_violation: t.stats.first_violation.map(Tick::new),
                violated_reps: t.violated,
                alarms_raised: t.stats.raised,
                alarms_cleared: t.stats.cleared,
                violations: t.dipped,
                alarms_before_violation: t.alarmed_dips,
            }
        })
        .collect();

    let report = ScenarioReport {
        scenario: scenario.to_string(),
        host_availability: (0..host_count)
            .map(|h| scenario.host_availability(logrel_core::HostId::new(h as u32), horizon))
            .collect(),
        comms,
    };
    let sinks = per_rep.into_iter().map(|(_, sink)| sink).collect();
    (report, sinks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::BatchConfig;
    use crate::scenario::ScenarioEvent;
    use logrel_core::{CommunicatorDecl, HostId, TaskDecl, ValueType};

    #[test]
    fn new_diagnoses_each_bad_input() {
        let mut sb = Specification::builder();
        let s = sb
            .communicator(
                CommunicatorDecl::new("s", ValueType::Float, 10)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let u = sb
            .communicator(CommunicatorDecl::new("u", ValueType::Float, 10).unwrap())
            .unwrap();
        sb.task(TaskDecl::new("copy").reads(s, 0).writes(u, 1))
            .unwrap();
        let spec = sb.build().unwrap();
        let config = |replications, rounds| CampaignConfig {
            batch: BatchConfig {
                replications,
                rounds,
                base_seed: 1,
                threads: 1,
            },
            ..CampaignConfig::default()
        };
        let crash_of = |host| {
            Scenario::from_events(vec![ScenarioEvent::Crash {
                host: HostId::new(host),
                at: Tick::new(10),
            }])
            .unwrap()
        };
        let hosts = 2;
        let cases = [
            (
                Scenario::new(),
                config(0, 10),
                Some(CampaignError::NoReplications),
            ),
            (
                Scenario::new(),
                config(MAX_REPLICATIONS + 1, 10),
                Some(CampaignError::TooManyReplications(MAX_REPLICATIONS + 1)),
            ),
            (
                Scenario::new(),
                config(1, MAX_ROUNDS + 1),
                Some(CampaignError::TooManyRounds {
                    rounds: MAX_ROUNDS + 1,
                    max: MAX_ROUNDS,
                }),
            ),
            (
                crash_of(hosts as u32),
                config(1, 10),
                Some(CampaignError::Scenario(ScenarioError {
                    line: 0,
                    message: "host 2 out of range (have 2)".into(),
                })),
            ),
            // The largest admissible inputs plan.
            (
                crash_of(hosts as u32 - 1),
                config(MAX_REPLICATIONS, MAX_ROUNDS),
                None,
            ),
        ];
        for (scenario, config, expected) in cases {
            let planned = Campaign::new(&spec, scenario, config, hosts, 0);
            match expected {
                Some(e) => assert_eq!(planned.err(), Some(e), "{config:?}"),
                None => {
                    let campaign = planned.expect("admissible campaign plans");
                    let units = campaign.units();
                    assert_eq!(units.len() as u64, MAX_REPLICATIONS / 64);
                    assert_eq!(
                        units.iter().map(|u| u.width as u64).sum::<u64>(),
                        MAX_REPLICATIONS
                    );
                }
            }
        }
    }
}
