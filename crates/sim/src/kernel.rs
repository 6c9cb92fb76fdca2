//! The deterministic simulation kernel.
//!
//! The kernel executes the LET semantics of §2 directly at communicator
//! granularity. Within every event instant, strictly in this order:
//!
//! 1. **updates** — every communicator whose period divides the instant is
//!    updated: sensor-fed communicators take the environment's value if at
//!    least one bound sensor reading succeeds (⊥ otherwise); task-written
//!    instances take the voted replica output (⊥ if no replica delivered);
//!    unwritten instances persist their value;
//! 2. **latches** — each task input access `(c, i)` latches `c`'s value at
//!    instant `i·π_c` (so a task can read an instance *earlier* than its
//!    read time, even if the communicator is updated again in between);
//! 3. **reads/executions** — tasks whose read time is now apply their
//!    input failure model, execute logically once (all replicas compute
//!    the same function), and each replica independently succeeds or
//!    fail-silences under the fault injector; outputs land at their write
//!    instants, possibly in the next round.
//!
//! With a seeded RNG the whole run is bit-reproducible.
//!
//! [`Simulation::run`] executes the compiled round program as a one-lane
//! group of the lane-group loop in [`crate::bitslice`], the one
//! production round loop; [`Simulation::run_reference`] interprets the
//! same semantics from the calendar's maps, as its differential oracle.
//! [`Simulation::run_observed`] adds the one-lane group's metrics sink
//! and, optionally, its watch: a width-1 [`LrcMonitor`], with whatever
//! degradation rules it carries, exactly as a campaign unit's group
//! monitor is a width-64 one.
//!
//! # Host rejoin and warm-up
//!
//! When a scenario brings a crashed host back (a `rejoin` event), the
//! host re-latches communicator
//! state from the next broadcast round. A replica of a *memory-free*
//! task — one whose inputs are all sensor-fed, so its output depends only
//! on the current round's fresh readings (Proposition 1's precondition) —
//! resumes voting immediately. A replica of a task *with state* (reading
//! at least one task-written communicator) stays out of the vote until
//! one full round after the first round boundary following the rejoin:
//! only then has it observed a complete round of broadcasts. Warm-up is
//! pure bookkeeping — every fault draw is still sampled, so the RNG
//! stream is unchanged.

use crate::behavior::BehaviorMap;
use crate::bitslice::LaneContext;
use crate::environment::Environment;
use crate::fault::{FaultInjector, FaultModel};
use crate::monitor::LrcMonitor;
use crate::trace::Trace;
use logrel_core::{
    Architecture, Calendar, CommunicatorId, FailureModel, HostId, RoundProgram, Specification,
    TaskId, Tick, TimeDependentImplementation, Value,
};
use logrel_obs::{names, MetricsSink, NoopSink, Span};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::sync::Arc;

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Number of rounds (π_S repetitions) to simulate.
    pub rounds: u64,
    /// RNG seed (every run with equal inputs and seed is identical).
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            rounds: 1000,
            seed: 0xC0FFEE,
        }
    }
}

/// Per-task delivery statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskStats {
    /// Rounds in which at least one replica delivered an output.
    pub delivered: u64,
    /// Total executed rounds.
    pub invocations: u64,
}

/// The result of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutput {
    /// The recorded communicator trace.
    pub trace: Trace,
    /// Per-task delivery statistics, indexed by task.
    pub task_stats: Vec<TaskStats>,
    /// The communicator values at the end of the run.
    pub final_values: Vec<Value>,
}

#[derive(Debug, Clone)]
struct TaskResult {
    outputs: Vec<Value>,
    delivered: bool,
}

/// Why [`Simulation::try_new_observed`] rejected a system.
#[derive(Debug, Clone)]
pub enum SimBuildError {
    /// The compiled round program failed self-certification against the
    /// specification's denotational dataflow: a kernel-compiler bug,
    /// reported with the certifier's V-series diagnostics.
    Certification(Vec<logrel_lint::Diagnostic>),
}

impl SimBuildError {
    /// The certifier diagnostics carried by the error.
    pub fn diagnostics(&self) -> &[logrel_lint::Diagnostic] {
        match self {
            SimBuildError::Certification(diags) => diags,
        }
    }
}

impl fmt::Display for SimBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimBuildError::Certification(diags) => {
                let rendered: Vec<String> =
                    diags.iter().map(|d| d.ci_line("<round-program>")).collect();
                write!(
                    f,
                    "compiled round program failed self-certification:\n{}",
                    rendered.join("\n")
                )
            }
        }
    }
}

impl std::error::Error for SimBuildError {}

/// A prepared simulation of one system.
pub struct Simulation<'a> {
    pub(crate) spec: &'a Specification,
    pub(crate) imp: &'a TimeDependentImplementation,
    pub(crate) voting: crate::voting::VotingStrategy,
    /// The per-round event schedule, retained for
    /// [`Simulation::run_reference`] and exposed via
    /// [`Simulation::calendar`]. Shared (`Arc`) so a compilation cache
    /// can hand the same schedule to many concurrent simulations.
    calendar: Arc<Calendar>,
    /// The compiled form of the calendar, used by [`Simulation::run`] and
    /// exposed via [`Simulation::shared_program`]. Shared for the same
    /// reason as `calendar`.
    pub(crate) program: Arc<RoundProgram>,
}

impl<'a> Simulation<'a> {
    /// Prepares a simulation: compiles the round program and
    /// self-certifies it against the specification's denotational
    /// dataflow (see `logrel-validate`). A failed certificate is a
    /// compiler bug and panics with the rendered V-series diagnostics;
    /// callers that prefer a diagnosed error use
    /// [`Simulation::try_new_observed`].
    pub fn new(
        spec: &'a Specification,
        arch: &'a Architecture,
        imp: &'a TimeDependentImplementation,
    ) -> Self {
        Simulation::try_new_observed(spec, arch, imp, &mut NoopSink)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Simulation::new`]: a failed self-certification
    /// comes back as [`SimBuildError::Certification`] carrying the
    /// certifier's diagnostics instead of panicking. Records the
    /// wall-clock compile/certify span gauges (`logrel_compile_seconds`,
    /// `logrel_certify_seconds`) on `sink`; pass [`NoopSink`] to record
    /// nothing.
    ///
    /// Span gauges are wall-clock values: record them only in top-level
    /// drivers, never inside a Monte-Carlo replication (see the
    /// `logrel-obs` crate docs for the determinism rule).
    pub fn try_new_observed(
        spec: &'a Specification,
        arch: &'a Architecture,
        imp: &'a TimeDependentImplementation,
        sink: &mut dyn MetricsSink,
    ) -> Result<Self, SimBuildError> {
        // The replication mapping must refer only to declared hosts;
        // builder-validated implementations always satisfy this.
        debug_assert!(imp.phases().iter().all(|phase| {
            spec.task_ids()
                .flat_map(|t| phase.hosts_of(t).iter())
                .all(|h| h.index() < arch.host_count())
        }));
        let compile_span = sink.enabled().then(Span::start);
        let calendar = Calendar::new(spec);
        let program = RoundProgram::compile(spec, imp, &calendar);
        if let Some(span) = compile_span {
            span.finish(sink, names::COMPILE_SECONDS);
        }
        let certify_span = sink.enabled().then(Span::start);
        let certified = logrel_validate::certify_kernel(spec, imp, &program);
        if let Some(span) = certify_span {
            span.finish(sink, names::CERTIFY_SECONDS);
        }
        certified.map_err(SimBuildError::Certification)?;
        Ok(Simulation {
            spec,
            imp,
            voting: crate::voting::VotingStrategy::default(),
            calendar: Arc::new(calendar),
            program: Arc::new(program),
        })
    }

    /// Builds a simulation around an already-compiled round program.
    ///
    /// This is the compilation-cache entry point: a service that has run
    /// [`Calendar::new`] + [`RoundProgram::compile`] once for a spec can
    /// share the `Arc`s across any number of concurrent simulations
    /// without re-compiling. The caller is responsible for having
    /// compiled `calendar`/`program` from exactly this `(spec, imp)`
    /// pair; `debug_assert`s check the shape but release builds trust it.
    pub fn with_program(
        spec: &'a Specification,
        imp: &'a TimeDependentImplementation,
        calendar: Arc<Calendar>,
        program: Arc<RoundProgram>,
    ) -> Self {
        debug_assert_eq!(calendar.events().len(), program.slots.len());
        Simulation {
            spec,
            imp,
            voting: crate::voting::VotingStrategy::default(),
            calendar,
            program,
        }
    }

    /// The shared handles to the compiled schedule and program, for
    /// callers that cache compilations (see [`Simulation::with_program`]).
    pub fn shared_program(&self) -> (Arc<Calendar>, Arc<RoundProgram>) {
        (Arc::clone(&self.calendar), Arc::clone(&self.program))
    }

    /// The per-round event schedule the program was compiled from.
    pub fn calendar(&self) -> &Calendar {
        &self.calendar
    }

    /// Selects the replica voting strategy (defaults to
    /// [`VotingStrategy::AnyReliable`], the paper's fail-silent voting).
    ///
    /// [`VotingStrategy::AnyReliable`]: crate::voting::VotingStrategy::AnyReliable
    pub fn set_voting(&mut self, strategy: crate::voting::VotingStrategy) -> &mut Self {
        self.voting = strategy;
        self
    }

    /// Runs the simulation by interpreting the compiled round program as
    /// a one-lane group of [`Simulation::run_bitsliced`] under the fault
    /// model `injector`, recording the communicator trace.
    ///
    /// Produces bit-identical output to [`Simulation::run_reference`]
    /// over a per-call interpretation of the same fault model, for equal
    /// inputs and seed: the instruction lists replay the reference
    /// interpreter's exact iteration orders, so every RNG draw, trace
    /// record and environment call happens in the same sequence.
    pub fn run(
        &self,
        behaviors: &mut BehaviorMap,
        env: &mut dyn Environment,
        injector: &dyn FaultModel,
        config: &SimConfig,
    ) -> SimOutput {
        self.run_observed(behaviors, env, injector, None, &mut NoopSink, config)
    }

    /// Runs the simulation watched by a one-lane [`LrcMonitor`] when
    /// given, with a [`MetricsSink`] recording per-round vote outcomes,
    /// replica drops, host up/down transitions, broadcast failures, alarm
    /// transitions and degradation engagements.
    ///
    /// The monitor's degradation rules are the only way a run can differ
    /// from [`Simulation::run`]: fault draws are sampled unconditionally,
    /// so a monitored run of a seed only diverges where an engaged rule
    /// drops a replica. The kernel is generic over the sink: with
    /// [`NoopSink`] every observation site monomorphizes to nothing. The
    /// sink never influences the simulation — fault draws, trace records
    /// and monitor updates happen in the same order with the same values
    /// whether or not metrics are recorded, so instrumented and plain
    /// runs of one seed produce bit-identical [`SimOutput`]s.
    ///
    /// # Panics
    ///
    /// Panics if the monitor watches more than one lane.
    ///
    /// [`NoopSink`]: logrel_obs::NoopSink
    pub fn run_observed<M: MetricsSink + ?Sized>(
        &self,
        behaviors: &mut BehaviorMap,
        env: &mut dyn Environment,
        injector: &dyn FaultModel,
        monitor: Option<&mut LrcMonitor>,
        sink: &mut M,
        config: &SimConfig,
    ) -> SimOutput {
        let mut faults = self.faults(injector.rates(), injector.timeline(), 1);
        let lane = LaneContext::plain(config.seed, (), Fwd(env));
        let mut outputs = self.run_traced_under(
            behaviors,
            &mut [lane],
            &mut faults,
            monitor,
            sink,
            config.rounds,
        );
        outputs.pop().expect("one lane")
    }

    /// The number of updates every round makes to each communicator.
    pub(crate) fn updates_per_round(&self) -> Vec<u64> {
        let mut per_round = vec![0; self.spec.communicator_count()];
        for op in self.program.slots.iter().flat_map(|sp| &sp.updates) {
            per_round[op.comm()] += 1;
        }
        per_round
    }

    /// Runs the simulation with the original map-driven interpreter,
    /// asking `injector` call by call for every fault.
    ///
    /// Retained as the differential oracle for the compiled round program
    /// (`tests` assert bit-identical [`SimOutput`]s) and as the baseline
    /// of `bench_snapshot`'s `kernel_speedup_over_reference`. Semantically
    /// identical to [`Simulation::run`], only slower; it shares no fault
    /// code with it.
    pub fn run_reference(
        &self,
        behaviors: &mut BehaviorMap,
        env: &mut dyn Environment,
        injector: &mut dyn FaultInjector,
        config: &SimConfig,
    ) -> SimOutput {
        let spec = self.spec;
        let round = spec.round_period().as_u64();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut trace = Trace::new(spec);
        let mut comm_values: Vec<Value> = spec
            .communicator_ids()
            .map(|c| spec.communicator(c).init())
            .collect();
        // Results of the two most recent rounds, indexed by parity.
        let mut results: [Vec<Option<TaskResult>>; 2] =
            [vec![None; spec.task_count()], vec![None; spec.task_count()]];
        let mut latched: Vec<Vec<Value>> = spec
            .task_ids()
            .map(|t| vec![Value::Unreliable; spec.task(t).inputs().len()])
            .collect();
        let mut task_stats = vec![TaskStats::default(); spec.task_count()];

        // The pure partition check asks about every audience host, and
        // every vote is echoed to the injector.
        let audiences = task_audiences(spec, self.imp.phases());

        for r in 0..config.rounds {
            let phase = self.imp.at_iteration(r);
            let base = r * round;
            for &slot in self.calendar.events() {
                let now = Tick::new(base + slot);
                env.advance(now);

                // ---- 1. communicator updates due at this instant ----
                for c in spec.communicator_ids() {
                    let period = spec.communicator(c).period().as_u64();
                    if slot % period != 0 {
                        continue;
                    }
                    if spec.is_sensor_input(c) {
                        let mut any_ok = false;
                        for &s in phase.sensors_of(c) {
                            // Sample every sensor (no short-circuit) so the
                            // failure process is independent of evaluation
                            // order.
                            if injector.sensor_ok(s, now, &mut rng) {
                                any_ok = true;
                            }
                        }
                        comm_values[c.index()] = if any_ok {
                            env.sense(c, now)
                        } else {
                            Value::Unreliable
                        };
                        trace.record(c, now, comm_values[c.index()]);
                    } else {
                        if let Some(&(t, out_idx, rounds_back)) =
                            self.calendar.landing().get(&(c, slot))
                        {
                            if r >= rounds_back {
                                let parity = ((r - rounds_back) % 2) as usize;
                                comm_values[c.index()] = match &results[parity][t.index()] {
                                    Some(res) if res.delivered => res.outputs[out_idx],
                                    _ => Value::Unreliable,
                                };
                            }
                            // else: nothing produced yet, init persists.
                        }
                        trace.record(c, now, comm_values[c.index()]);
                        env.actuate(c, comm_values[c.index()], now);
                    }
                }

                // ---- 2. latch input accesses due at this instant ----
                if let Some(latches) = self.calendar.latch_at().get(&slot) {
                    for &(t, idx) in latches {
                        latched[t.index()][idx] =
                            comm_values[spec.task(t).inputs()[idx].comm.index()];
                    }
                }

                // ---- 3. task reads / logical execution ----
                if let Some(tasks) = self.calendar.reads_at().get(&slot) {
                    for &t in tasks {
                        let decl = spec.task(t);
                        let raw = &latched[t.index()];
                        let model = decl.failure_model();
                        let any_reliable = raw.iter().any(Value::is_reliable);
                        let all_reliable = raw.iter().all(Value::is_reliable);
                        let executes = match model {
                            FailureModel::Series => all_reliable,
                            FailureModel::Parallel => any_reliable,
                            FailureModel::Independent => true,
                        };
                        let outputs = if executes {
                            let inputs: Vec<Value> = raw
                                .iter()
                                .enumerate()
                                .map(|(i, &v)| {
                                    if v.is_reliable() {
                                        v
                                    } else {
                                        // Parallel/independent substitute
                                        // defaults (validated to exist).
                                        decl.default_values()[i]
                                    }
                                })
                                .collect();
                            behaviors.invoke(spec, t, &inputs)
                        } else {
                            vec![Value::Unreliable; decl.outputs().len()]
                        };
                        let stateful = decl.inputs().iter().any(|a| !spec.is_sensor_input(a.comm));
                        let mut replica_outputs: Vec<Option<Vec<Value>>> =
                            Vec::with_capacity(phase.hosts_of(t).len());
                        for &h in phase.hosts_of(t) {
                            // Sample both draws for every replica so the
                            // process is order-independent; the pure
                            // partition check folds into the broadcast
                            // outcome.
                            let host_ok = injector.host_ok(h, now, &mut rng);
                            let bc_ok = injector.broadcast_ok(h, now, &mut rng)
                                && audiences[t.index()]
                                    .iter()
                                    .all(|&rcv| injector.delivers(h, rcv, now));
                            let warm = !stateful
                                || warm_after_rejoin(injector.rejoined_at(h, now), now, round);
                            if executes && host_ok && bc_ok && warm {
                                let mut o = outputs.clone();
                                injector.corrupt(h, now, &mut o, &mut rng);
                                replica_outputs.push(Some(o));
                            } else {
                                replica_outputs.push(None);
                            }
                        }
                        let delivered = replica_outputs.iter().any(Option::is_some);
                        let voted = crate::voting::vote(
                            &replica_outputs,
                            decl.outputs().len(),
                            self.voting,
                        );
                        let delivered_hosts: Vec<HostId> = phase
                            .hosts_of(t)
                            .iter()
                            .zip(&replica_outputs)
                            .filter_map(|(&h, o)| o.is_some().then_some(h))
                            .collect();
                        injector.observe_vote(t, now, &delivered_hosts, replica_outputs.len());
                        task_stats[t.index()].invocations += 1;
                        if delivered {
                            task_stats[t.index()].delivered += 1;
                        }
                        results[(r % 2) as usize][t.index()] = Some(TaskResult {
                            outputs: voted,
                            delivered,
                        });
                    }
                }
            }
        }
        SimOutput {
            trace,
            task_stats,
            final_values: comm_values,
        }
    }
}

/// Forwards a borrowed environment, so the one-lane entry points can hand
/// their `&mut dyn` environment to the lane-group kernel, whose lane
/// contexts own theirs by value.
struct Fwd<'r, T: ?Sized>(&'r mut T);

impl<T: Environment + ?Sized> Environment for Fwd<'_, T> {
    fn advance(&mut self, now: Tick) {
        self.0.advance(now);
    }
    fn sense(&mut self, comm: CommunicatorId, now: Tick) -> Value {
        self.0.sense(comm, now)
    }
    fn actuate(&mut self, comm: CommunicatorId, value: Value, now: Tick) {
        self.0.actuate(comm, value, now);
    }
    fn is_passive(&self) -> bool {
        self.0.is_passive()
    }
    fn constant_reading(&self, comm: CommunicatorId) -> Option<Value> {
        self.0.constant_reading(comm)
    }
}

/// The warm-up rule for a stateful task's replica (see the module docs):
/// after a scripted rejoin at `rj`, the replica rejoins the vote one full
/// round after the first round boundary at or following `rj`.
pub(crate) fn warm_after_rejoin(rejoined: Option<Tick>, now: Tick, round: u64) -> bool {
    match rejoined {
        None => true,
        Some(rj) => now.as_u64() >= rj.as_u64().div_ceil(round) * round + round,
    }
}

/// The partition *audience* of every task: the hosts running any task
/// that reads a communicator this task writes, unioned over all mapping
/// phases (a result written in one phase may be read under another).
///
/// Under a partition a replica only enters the vote when its broadcast
/// reaches the *whole* audience —
/// the model keeps one logical copy per communicator, so a partial
/// delivery cannot be represented and is classified as a broadcast drop.
/// The check is pure (no RNG draws), so partitions never perturb the
/// fault-draw stream.
pub(crate) fn task_audiences(
    spec: &Specification,
    phases: &[logrel_core::Implementation],
) -> Vec<Vec<HostId>> {
    let mut readers: Vec<Vec<TaskId>> = vec![Vec::new(); spec.communicator_count()];
    for t in spec.task_ids() {
        for a in spec.task(t).inputs() {
            readers[a.comm.index()].push(t);
        }
    }
    spec.task_ids()
        .map(|t| {
            let mut set = std::collections::BTreeSet::new();
            for a in spec.task(t).outputs() {
                for &rt in &readers[a.comm.index()] {
                    for phase in phases {
                        set.extend(phase.hosts_of(rt).iter().copied());
                    }
                }
            }
            set.into_iter().collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::ConstantEnvironment;
    use crate::fault::{NoFaults, ProbabilisticFaults};
    use crate::scenario::{Scenario, ScenarioEvent, ScenarioFaults};
    use logrel_core::{
        CommunicatorDecl, HostDecl, HostId, Implementation, Reliability, SensorDecl, SensorId,
        TaskDecl, ValueType,
    };

    fn r(v: f64) -> Reliability {
        Reliability::new(v).unwrap()
    }

    struct Sys {
        spec: Specification,
        arch: Architecture,
        imp: TimeDependentImplementation,
    }

    /// sensor -> s(p10) -> double -> u(p10), one host.
    fn pipeline(host_rel: f64, sensor_rel: f64) -> Sys {
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
        let t = sb
            .task(TaskDecl::new("double").reads(s, 0).writes(u, 1))
            .unwrap();
        let spec = sb.build().unwrap();
        let mut ab = Architecture::builder();
        let h = ab.host(HostDecl::new("h1", r(host_rel))).unwrap();
        ab.sensor(SensorDecl::new("sn", r(sensor_rel))).unwrap();
        ab.wcet_all(t, 1).unwrap();
        ab.wctt_all(t, 1).unwrap();
        let arch = ab.build();
        let imp = Implementation::builder()
            .assign(t, [h])
            .bind_sensor(s, SensorId::new(0))
            .build(&spec, &arch)
            .unwrap();
        Sys {
            spec,
            arch,
            imp: imp.into(),
        }
    }

    fn doubling_behaviors(spec: &Specification) -> BehaviorMap {
        let mut b = BehaviorMap::new();
        let t = spec.find_task("double").unwrap();
        b.register(t, |inputs: &[Value]| {
            vec![Value::Float(2.0 * inputs[0].as_float().unwrap_or(0.0))]
        });
        b
    }

    #[test]
    fn fault_free_run_computes_the_function() {
        let sys = pipeline(0.999, 0.999);
        let sim = Simulation::new(&sys.spec, &sys.arch, &sys.imp);
        let mut behaviors = doubling_behaviors(&sys.spec);
        let mut env = ConstantEnvironment::new(Value::Float(21.0));
        let out = sim.run(
            &mut behaviors,
            &mut env,
            &NoFaults,
            &SimConfig { rounds: 5, seed: 1 },
        );
        let u = sys.spec.find_communicator("u").unwrap();
        let values = out.trace.values(u);
        // u updates at 0 (init) and 10 each round: round length 10, so
        // instants 0, 10, 20, 30, 40: instance 1 of round k lands at
        // (k+1)*10... here write is at 10 within the round, so from the
        // second update on the value is 42.
        assert_eq!(values[0].1, Value::Float(0.0)); // init persists at t=0
        for &(_, v) in &values[1..] {
            assert_eq!(v, Value::Float(42.0));
        }
        assert_eq!(out.final_values[u.index()], Value::Float(42.0));
        assert_eq!(out.task_stats[0].invocations, 5);
        assert_eq!(out.task_stats[0].delivered, 5);
    }

    #[test]
    fn same_seed_same_trace() {
        let sys = pipeline(0.7, 0.8);
        let sim = Simulation::new(&sys.spec, &sys.arch, &sys.imp);
        let run = |seed| {
            let mut behaviors = doubling_behaviors(&sys.spec);
            let mut env = ConstantEnvironment::new(Value::Float(1.0));
            let inj = ProbabilisticFaults::from_architecture(&sys.arch);
            let out = sim.run(
                &mut behaviors,
                &mut env,
                &inj,
                &SimConfig { rounds: 200, seed },
            );
            let u = sys.spec.find_communicator("u").unwrap();
            out.trace.values(u).to_vec()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn empirical_reliability_approaches_analytic_srg() {
        let sys = pipeline(0.9, 0.95);
        let sim = Simulation::new(&sys.spec, &sys.arch, &sys.imp);
        let mut behaviors = doubling_behaviors(&sys.spec);
        let mut env = ConstantEnvironment::new(Value::Float(1.0));
        let inj = ProbabilisticFaults::from_architecture(&sys.arch);
        let out = sim.run(
            &mut behaviors,
            &mut env,
            &inj,
            &SimConfig {
                rounds: 40_000,
                seed: 3,
            },
        );
        let u = sys.spec.find_communicator("u").unwrap();
        // Skip the init update at t=0 of round 0 (not produced by the task).
        let bits: Vec<bool> = out.trace.abstraction(u).into_iter().skip(1).collect();
        let mean = bits.iter().filter(|&&b| b).count() as f64 / bits.len() as f64;
        // λ_u = 0.95 * 0.9 = 0.855.
        assert!((mean - 0.855).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn series_model_fails_on_unreliable_input() {
        // Sensor reliability 0 is not declarable; set the rate directly.
        let dead_sensor = ProbabilisticFaults::new(vec![1.0], vec![0.0], 1.0);
        let sys = pipeline(0.999, 0.999);
        let sim = Simulation::new(&sys.spec, &sys.arch, &sys.imp);
        let mut behaviors = doubling_behaviors(&sys.spec);
        let mut env = ConstantEnvironment::new(Value::Float(1.0));
        let out = sim.run(
            &mut behaviors,
            &mut env,
            &dead_sensor,
            &SimConfig {
                rounds: 10,
                seed: 1,
            },
        );
        let u = sys.spec.find_communicator("u").unwrap();
        for &(at, v) in out.trace.values(u).iter().skip(1) {
            assert_eq!(v, Value::Unreliable, "at {at}");
        }
        assert_eq!(out.task_stats[0].delivered, 0);
    }

    /// A parallel-model system with a dead sensor uses the default value.
    #[test]
    fn parallel_model_substitutes_defaults() {
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
        let t = sb
            .task(
                TaskDecl::new("double")
                    .reads(s, 0)
                    .writes(u, 1)
                    .model(FailureModel::Parallel)
                    .default_value(Value::Float(5.0)),
            )
            .unwrap();
        let spec = sb.build().unwrap();
        let mut ab = Architecture::builder();
        let h = ab.host(HostDecl::new("h1", r(0.999))).unwrap();
        let s1 = ab.sensor(SensorDecl::new("sn1", r(0.999))).unwrap();
        let s2 = ab.sensor(SensorDecl::new("sn2", r(0.999))).unwrap();
        ab.wcet_all(t, 1).unwrap();
        ab.wctt_all(t, 1).unwrap();
        let arch = ab.build();
        let imp: TimeDependentImplementation = Implementation::builder()
            .assign(t, [h])
            .bind_sensor(s, s1)
            .bind_sensor(s, s2)
            .build(&spec, &arch)
            .unwrap()
            .into();

        let dead_sensors = ProbabilisticFaults::new(vec![1.0], vec![0.0, 0.0], 1.0);
        let sim = Simulation::new(&spec, &arch, &imp);
        let mut behaviors = BehaviorMap::new();
        behaviors.register(t, |inputs: &[Value]| {
            vec![Value::Float(2.0 * inputs[0].as_float().unwrap())]
        });
        let mut env = ConstantEnvironment::new(Value::Float(1.0));
        let out = sim.run(
            &mut behaviors,
            &mut env,
            &dead_sensors,
            &SimConfig { rounds: 3, seed: 1 },
        );
        // Wait: parallel with ALL inputs unreliable fails to execute.
        // There is exactly one input, so the task never executes.
        assert_eq!(out.task_stats[t.index()].delivered, 0);

        // Now with one live input among two (second input from a healthy
        // constant communicator is not possible here, so re-run with a
        // half-dead injector on a two-input task).
        let mut sb = Specification::builder();
        let a = sb
            .communicator(
                CommunicatorDecl::new("a", ValueType::Float, 10)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let b = sb
            .communicator(
                CommunicatorDecl::new("b", ValueType::Float, 10)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let o = sb
            .communicator(CommunicatorDecl::new("o", ValueType::Float, 10).unwrap())
            .unwrap();
        let t2 = sb
            .task(
                TaskDecl::new("sum")
                    .reads(a, 0)
                    .reads(b, 0)
                    .writes(o, 1)
                    .model(FailureModel::Parallel)
                    .default_value(Value::Float(100.0))
                    .default_value(Value::Float(100.0)),
            )
            .unwrap();
        let spec2 = sb.build().unwrap();
        let mut ab = Architecture::builder();
        let h = ab.host(HostDecl::new("h1", r(0.999))).unwrap();
        let sa = ab.sensor(SensorDecl::new("sa", r(0.999))).unwrap();
        let sb2 = ab.sensor(SensorDecl::new("sb", r(0.999))).unwrap();
        ab.wcet_all(t2, 1).unwrap();
        ab.wctt_all(t2, 1).unwrap();
        let arch2 = ab.build();
        let imp2: TimeDependentImplementation = Implementation::builder()
            .assign(t2, [h])
            .bind_sensor(a, sa)
            .bind_sensor(b, sb2)
            .build(&spec2, &arch2)
            .unwrap()
            .into();

        // Kills only sensor 1 (`sb`).
        let half_dead = ProbabilisticFaults::new(vec![1.0], vec![1.0, 0.0], 1.0);
        let sim2 = Simulation::new(&spec2, &arch2, &imp2);
        let mut behaviors2 = BehaviorMap::new();
        behaviors2.register(t2, |inputs: &[Value]| {
            vec![Value::Float(
                inputs[0].as_float().unwrap() + inputs[1].as_float().unwrap(),
            )]
        });
        let mut env2 = ConstantEnvironment::new(Value::Float(1.0));
        let out2 = sim2.run(
            &mut behaviors2,
            &mut env2,
            &half_dead,
            &SimConfig { rounds: 2, seed: 1 },
        );
        let o_vals = out2.trace.values(o);
        // Second update of o: 1.0 (live a) + 100.0 (default for dead b).
        assert_eq!(o_vals[1].1, Value::Float(101.0));
    }

    #[test]
    fn replication_tolerates_a_dead_host() {
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
        let t = sb
            .task(TaskDecl::new("double").reads(s, 0).writes(u, 1))
            .unwrap();
        let spec = sb.build().unwrap();
        let mut ab = Architecture::builder();
        let h1 = ab.host(HostDecl::new("h1", r(0.999))).unwrap();
        let h2 = ab.host(HostDecl::new("h2", r(0.999))).unwrap();
        ab.sensor(SensorDecl::new("sn", r(0.999))).unwrap();
        ab.wcet_all(t, 1).unwrap();
        ab.wctt_all(t, 1).unwrap();
        let arch = ab.build();
        let imp: TimeDependentImplementation = Implementation::builder()
            .assign(t, [h1, h2])
            .bind_sensor(s, SensorId::new(0))
            .build(&spec, &arch)
            .unwrap()
            .into();
        let sim = Simulation::new(&spec, &arch, &imp);
        let mut behaviors = BehaviorMap::new();
        behaviors.register(t, |inputs: &[Value]| {
            vec![Value::Float(2.0 * inputs[0].as_float().unwrap_or(0.0))]
        });
        let mut env = ConstantEnvironment::new(Value::Float(21.0));
        // Unplug h1 from the very beginning: h2 carries the system alone.
        let unplug = Scenario::from_events(vec![ScenarioEvent::Crash {
            host: h1,
            at: Tick::ZERO,
        }])
        .unwrap();
        let faults = ScenarioFaults::new(NoFaults, &unplug, 2, 2).unwrap();
        let out = sim.run(
            &mut behaviors,
            &mut env,
            &faults,
            &SimConfig {
                rounds: 20,
                seed: 9,
            },
        );
        assert_eq!(out.task_stats[t.index()].delivered, 20);
        let u_id = spec.find_communicator("u").unwrap();
        assert_eq!(out.trace.values(u_id).last().unwrap().1, Value::Float(42.0));
    }

    #[test]
    fn unwritten_instances_persist_values() {
        // u has period 5 in a round of 10: instance 1 (t=5) is written,
        // instance 0 (t=0/10/20...) persists the previous round's value.
        let mut sb = Specification::builder();
        let s = sb
            .communicator(
                CommunicatorDecl::new("s", ValueType::Float, 10)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let u = sb
            .communicator(CommunicatorDecl::new("u", ValueType::Float, 5).unwrap())
            .unwrap();
        let t = sb
            .task(TaskDecl::new("double").reads(s, 0).writes(u, 1))
            .unwrap();
        let spec = sb.build().unwrap();
        let mut ab = Architecture::builder();
        let h = ab.host(HostDecl::new("h1", r(0.999))).unwrap();
        ab.sensor(SensorDecl::new("sn", r(0.999))).unwrap();
        ab.wcet_all(t, 1).unwrap();
        ab.wctt_all(t, 1).unwrap();
        let arch = ab.build();
        let imp: TimeDependentImplementation = Implementation::builder()
            .assign(t, [h])
            .bind_sensor(s, SensorId::new(0))
            .build(&spec, &arch)
            .unwrap()
            .into();
        let sim = Simulation::new(&spec, &arch, &imp);
        let mut behaviors = BehaviorMap::new();
        behaviors.register(t, |inputs: &[Value]| {
            vec![Value::Float(2.0 * inputs[0].as_float().unwrap_or(0.0))]
        });
        let mut env = ConstantEnvironment::new(Value::Float(3.0));
        let out = sim.run(
            &mut behaviors,
            &mut env,
            &NoFaults,
            &SimConfig { rounds: 3, seed: 1 },
        );
        let vals: Vec<Value> = out.trace.values(u).iter().map(|&(_, v)| v).collect();
        // Updates at 0, 5, 10, 15, 20, 25:
        // 0: init 0.0; 5: 6.0 (written); 10: persists 6.0; 15: 6.0; ...
        assert_eq!(
            vals,
            vec![
                Value::Float(0.0),
                Value::Float(6.0),
                Value::Float(6.0),
                Value::Float(6.0),
                Value::Float(6.0),
                Value::Float(6.0),
            ]
        );
    }

    #[test]
    fn earlier_instance_reads_latch_old_values() {
        // Task reads (a, 1) [t=2] and (b, 1) [t=6]; read time 6. `a` is
        // sensor-fed with period 2, so by t=6 `a` has been updated at 4 and
        // 6 — the task must still see the value latched at t=2.
        struct RampEnv;
        impl Environment for RampEnv {
            fn advance(&mut self, _now: Tick) {}
            fn sense(&mut self, _comm: CommunicatorId, now: Tick) -> Value {
                Value::Float(now.as_u64() as f64)
            }
            fn actuate(&mut self, _comm: CommunicatorId, _value: Value, _now: Tick) {}
        }
        let mut sb = Specification::builder();
        let a = sb
            .communicator(
                CommunicatorDecl::new("a", ValueType::Float, 2)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let b = sb
            .communicator(
                CommunicatorDecl::new("b", ValueType::Float, 6)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let o = sb
            .communicator(CommunicatorDecl::new("o", ValueType::Float, 12).unwrap())
            .unwrap();
        let t = sb
            .task(
                TaskDecl::new("latcher")
                    .reads(a, 1)
                    .reads(b, 1)
                    .writes(o, 1),
            )
            .unwrap();
        let spec = sb.build().unwrap();
        let mut ab = Architecture::builder();
        let h = ab.host(HostDecl::new("h1", r(0.999))).unwrap();
        let sn = ab.sensor(SensorDecl::new("sn", r(0.999))).unwrap();
        ab.wcet_all(t, 1).unwrap();
        ab.wctt_all(t, 1).unwrap();
        let arch = ab.build();
        let imp: TimeDependentImplementation = Implementation::builder()
            .assign(t, [h])
            .bind_sensor(a, sn)
            .bind_sensor(b, sn)
            .build(&spec, &arch)
            .unwrap()
            .into();
        let sim = Simulation::new(&spec, &arch, &imp);
        let mut behaviors = BehaviorMap::new();
        behaviors.register(t, |inputs: &[Value]| {
            // output = a-value latched at t=2 (should be 2.0, not 6.0).
            vec![inputs[0]]
        });
        let out = sim.run(
            &mut behaviors,
            &mut RampEnv,
            &NoFaults,
            &SimConfig { rounds: 1, seed: 1 },
        );
        // o written at instance 1 = t 12 — beyond round 0's trace (lands at
        // round 1's t=12... round is 12, so instance 1 lands at slot 0 of
        // round 1). With a single round the write is dropped; run 2 rounds.
        let out2 = sim.run(
            &mut BehaviorMap::new(),
            &mut RampEnv,
            &NoFaults,
            &SimConfig { rounds: 1, seed: 1 },
        );
        let _ = (out, out2);
        let mut behaviors = BehaviorMap::new();
        behaviors.register(t, |inputs: &[Value]| vec![inputs[0]]);
        let out3 = sim.run(
            &mut behaviors,
            &mut RampEnv,
            &NoFaults,
            &SimConfig { rounds: 2, seed: 1 },
        );
        let o_vals = out3.trace.values(o);
        // o updates at t=0 (init) and t=12 (round 1 slot 0, carrying round
        // 0's write of instance 1).
        assert_eq!(o_vals[0].1, Value::Float(0.0));
        assert_eq!(o_vals[1].1, Value::Float(2.0), "latched a@2, not a@6");
    }

    #[test]
    fn corruption_poisons_any_reliable_but_majority_recovers() {
        use crate::voting::VotingStrategy;
        // One task on three hosts; one replica is corrupted per round
        // (deterministically, by a custom injector that corrupts host 0,
        // which the reference interpreter asks call by call).
        struct CorruptH0;
        impl FaultInjector for CorruptH0 {
            fn host_ok(&mut self, _: HostId, _: Tick, _: &mut StdRng) -> bool {
                true
            }
            fn sensor_ok(&mut self, _: SensorId, _: Tick, _: &mut StdRng) -> bool {
                true
            }
            fn broadcast_ok(&mut self, _: HostId, _: Tick, _: &mut StdRng) -> bool {
                true
            }
            fn corrupt(&mut self, h: HostId, _: Tick, o: &mut [Value], _: &mut StdRng) {
                if h.index() == 0 {
                    for v in o.iter_mut() {
                        *v = Value::Float(-1.0);
                    }
                }
            }
        }
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
        let t = sb
            .task(TaskDecl::new("f").reads(s, 0).writes(u, 1))
            .unwrap();
        let spec = sb.build().unwrap();
        let mut ab = Architecture::builder();
        let hs: Vec<HostId> = (0..3)
            .map(|i| ab.host(HostDecl::new(format!("h{i}"), r(0.999))).unwrap())
            .collect();
        ab.sensor(SensorDecl::new("sn", r(0.999))).unwrap();
        ab.wcet_all(t, 1).unwrap();
        ab.wctt_all(t, 1).unwrap();
        let arch = ab.build();
        let imp: TimeDependentImplementation = Implementation::builder()
            .assign(t, hs)
            .bind_sensor(s, SensorId::new(0))
            .build(&spec, &arch)
            .unwrap()
            .into();
        let run = |strategy: VotingStrategy| {
            let mut sim = Simulation::new(&spec, &arch, &imp);
            sim.set_voting(strategy);
            let mut behaviors = BehaviorMap::new();
            behaviors.register(t, |_: &[Value]| vec![Value::Float(42.0)]);
            let out = sim.run_reference(
                &mut behaviors,
                &mut ConstantEnvironment::new(Value::Float(0.0)),
                &mut CorruptH0,
                &SimConfig { rounds: 5, seed: 1 },
            );
            out.trace.values(u).to_vec()
        };
        // AnyReliable: host 0's corrupted value is first in the sorted
        // host set, so it poisons every round.
        let any = run(VotingStrategy::AnyReliable);
        assert_eq!(any[1].1, Value::Float(-1.0));
        // Majority: two healthy replicas outvote the corrupted one.
        let maj = run(VotingStrategy::Majority);
        assert_eq!(maj[1].1, Value::Float(42.0));
    }

    #[test]
    fn time_dependent_mapping_alternates_hosts() {
        // Host 0 always works, host 1 never does; alternating phases give
        // delivery in every other round.
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
        let t = sb
            .task(TaskDecl::new("double").reads(s, 0).writes(u, 1))
            .unwrap();
        let spec = sb.build().unwrap();
        let mut ab = Architecture::builder();
        let h1 = ab.host(HostDecl::new("h1", r(0.999))).unwrap();
        let h2 = ab.host(HostDecl::new("h2", r(0.999))).unwrap();
        ab.sensor(SensorDecl::new("sn", r(0.999))).unwrap();
        ab.wcet_all(t, 1).unwrap();
        ab.wctt_all(t, 1).unwrap();
        let arch = ab.build();
        let p0 = Implementation::builder()
            .assign(t, [h1])
            .bind_sensor(s, SensorId::new(0))
            .build(&spec, &arch)
            .unwrap();
        let p1 = p0.with_assignment(t, [h2]);
        let imp = TimeDependentImplementation::new(vec![p0, p1]).unwrap();

        let dead_h2 = ProbabilisticFaults::new(vec![1.0, 0.0], vec![1.0], 1.0);
        let sim = Simulation::new(&spec, &arch, &imp);
        let mut behaviors = BehaviorMap::new();
        behaviors.register(t, |i: &[Value]| {
            vec![Value::Float(i[0].as_float().unwrap_or(0.0))]
        });
        let mut env = ConstantEnvironment::new(Value::Float(1.0));
        let out = sim.run(
            &mut behaviors,
            &mut env,
            &dead_h2,
            &SimConfig {
                rounds: 100,
                seed: 1,
            },
        );
        // Half the rounds deliver (phase on h1), half fail (phase on h2).
        assert_eq!(out.task_stats[t.index()].delivered, 50);
        let bits = out.trace.abstraction(spec.find_communicator("u").unwrap());
        let mean = bits.iter().filter(|&&b| b).count() as f64 / bits.len() as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    /// The compiled round program must be bit-identical to the reference
    /// interpreter: same trace, same statistics, same final values.
    #[test]
    fn compiled_program_matches_reference_interpreter() {
        for seed in [1u64, 7, 0xC0FFEE] {
            let sys = pipeline(0.8, 0.9);
            let sim = Simulation::new(&sys.spec, &sys.arch, &sys.imp);
            let config = SimConfig { rounds: 500, seed };
            let inj = ProbabilisticFaults::from_architecture(&sys.arch);
            let fast = sim.run(
                &mut doubling_behaviors(&sys.spec),
                &mut ConstantEnvironment::new(Value::Float(21.0)),
                &inj,
                &config,
            );
            let mut inj = ProbabilisticFaults::from_architecture(&sys.arch);
            let slow = sim.run_reference(
                &mut doubling_behaviors(&sys.spec),
                &mut ConstantEnvironment::new(Value::Float(21.0)),
                &mut inj,
                &config,
            );
            assert_eq!(fast, slow, "seed {seed}");
        }
    }

    /// Differential check on the hard cases: replication with majority
    /// voting and corruption, plus a phase-alternating implementation.
    #[test]
    fn compiled_program_matches_reference_on_replicated_phased_system() {
        use crate::scenario::oracle::PerLaneInjector;
        use crate::voting::VotingStrategy;
        let mut sb = Specification::builder();
        let s = sb
            .communicator(
                CommunicatorDecl::new("s", ValueType::Float, 10)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let u = sb
            .communicator(CommunicatorDecl::new("u", ValueType::Float, 5).unwrap())
            .unwrap();
        let t = sb
            .task(TaskDecl::new("double").reads(s, 0).writes(u, 1))
            .unwrap();
        let spec = sb.build().unwrap();
        let mut ab = Architecture::builder();
        let hs: Vec<HostId> = (0..3)
            .map(|i| ab.host(HostDecl::new(format!("h{i}"), r(0.9))).unwrap())
            .collect();
        ab.sensor(SensorDecl::new("sn", r(0.95))).unwrap();
        ab.wcet_all(t, 1).unwrap();
        ab.wctt_all(t, 1).unwrap();
        let arch = ab.build();
        let p0 = Implementation::builder()
            .assign(t, hs.clone())
            .bind_sensor(s, SensorId::new(0))
            .build(&spec, &arch)
            .unwrap();
        let p1 = p0.with_assignment(t, [hs[0], hs[2]]);
        let imp = TimeDependentImplementation::new(vec![p0, p1]).unwrap();
        let mut sim = Simulation::new(&spec, &arch, &imp);
        sim.set_voting(VotingStrategy::Majority);
        let behaviors = || {
            let mut b = BehaviorMap::new();
            b.register(t, |i: &[Value]| {
                vec![Value::Float(2.0 * i[0].as_float().unwrap_or(0.0))]
            });
            b
        };
        let config = SimConfig {
            rounds: 400,
            seed: 42,
        };
        let corrupt = Scenario::from_events(
            hs.iter()
                .map(|&host| ScenarioEvent::Corrupt {
                    host,
                    p: 0.2,
                    value: -7.0,
                })
                .collect(),
        )
        .unwrap();
        let fast = sim.run(
            &mut behaviors(),
            &mut ConstantEnvironment::new(Value::Float(1.0)),
            &ScenarioFaults::new(NoFaults, &corrupt, 3, 2).unwrap(),
            &config,
        );
        let slow = sim.run_reference(
            &mut behaviors(),
            &mut ConstantEnvironment::new(Value::Float(1.0)),
            &mut PerLaneInjector::new(NoFaults, &corrupt, 3, 2).unwrap(),
            &config,
        );
        assert_eq!(fast, slow);
        // Corruption actually bit somewhere (the run was not trivial).
        let vals = fast.trace.values(u);
        assert!(vals
            .iter()
            .any(|&(_, v)| v == Value::Unreliable || v == Value::Float(-7.0)));
        assert!(fast.task_stats[0].delivered > 0);
    }
}
