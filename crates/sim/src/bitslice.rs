//! The lane-group kernel: the one production round loop.
//!
//! [`Simulation::run_bitsliced`] evaluates the compiled [`RoundProgram`]
//! for 1..=64 *independent* replications ("lanes") in one pass. Boolean
//! per-replica state — liveness, broadcast delivery, warm-up, exclusion,
//! vote delivery — is packed into `u64` lane masks, and communicator
//! values are kept as *value classes*: disjoint lane masks per distinct
//! reliable value ([`LaneClasses`]). Because independent replications of
//! one system overwhelmingly agree on the data flow (they differ only
//! where a fault fired), a round's work collapses to a handful of classes
//! instead of 64 scalar evaluations.
//!
//! A single run ([`Simulation::run`], `run_observed`) is an ordinary
//! one-lane group through this same loop; only the map-driven
//! [`Simulation::run_reference`] interprets the semantics a second time,
//! as the differential oracle.
//!
//! # Lane semantics
//!
//! Lane `i` replays replication `i` *exactly*: it owns a private RNG
//! seeded with lane `i`'s seed, plus its own fault injector and
//! environment ([`LaneContext`]). At every site that consumes a draw or
//! calls a hook, the kernel loops over the lanes and performs the call
//! on the lane's own context, in lane order — so each lane's RNG stream
//! is the one a one-lane run of the same seed produces, whatever the
//! group width. The kernel's only watch is one group [`LrcMonitor`], and
//! its only metrics sink is one group sink, both outside the lanes (see
//! below).
//!
//! A campaign unit adds one group scenario layer over the lanes' base
//! injectors (`scenario/lanes.rs`): the timeline is evaluated once per
//! group at each (replica, instant), and the lane loop only makes each
//! lane's scenario draws, between its inner host and broadcast draws,
//! and folds them into lane masks. The public entry points run under the
//! empty layer, which draws nothing.
//!
//! # What a run records
//!
//! The kernel keeps counts: per communicator the number of updates
//! (lane-invariant) and of reliable updates per lane, per task the
//! invocations and deliveries, and the final values ([`BitslicedOutput`]).
//! Only the runs that return [`SimOutput`]s ([`Simulation::run_traced`]
//! and the one-lane runs built on it) also write each lane's update
//! sequence into a [`Trace`]; a campaign unit stores nothing per update.
//! [`Simulation::run_monitored`] adds one group [`LrcMonitor`] that sees
//! each update once, as the mask of lanes holding a reliable value. Its
//! degradation rules act on the group too: a `DropReplica` rule engaged
//! on some lanes is one exclusion mask per replica, which the replica's
//! draws are folded with.
//!
//! The group reports to one metrics sink, observed the same way, once
//! per group: the kernel folds each replica's draw outcomes into lane
//! masks, counts over those masks, and keeps one event ring for the
//! whole group, from which a lane's flight recorder is rebuilt where it
//! can be looked at (the group observation module, `observe.rs`). The
//! sink ends up as the lanes' one-lane sinks merged in lane order, lane
//! 0's continuing what the sink held before the run — so a one-lane run
//! observes exactly as it always has, and a campaign unit folds its
//! lanes into one registry.
//!
//! # Shared behaviors — purity contract
//!
//! All lanes share one [`BehaviorMap`]: task behaviors must be pure
//! functions of their inputs. The kernel invokes a behavior once per
//! *input-class* (not once per lane), so a behavior with internal state
//! would observe a different call sequence than in a one-lane run.
//!
//! # Corruption and the fast path
//!
//! When no lane's injector can corrupt outputs
//! ([`FaultInjector::corrupts`] is `false` for every lane), all delivering
//! replicas of a lane hold the identical voted-in value, so voting
//! reduces to mask intersection and the per-replica output buffers are
//! never materialized. A corrupting injector on any lane switches the
//! whole run to the slow path, which stores per-(replica, lane) output
//! rows and votes each lane with [`vote_into`] — still bit-identical,
//! just without the class compression on the vote.
//!
//! [`RoundProgram`]: logrel_core::RoundProgram
//! [`vote_into`]: crate::voting::vote_into

use crate::behavior::BehaviorMap;
use crate::environment::Environment;
use crate::fault::FaultInjector;
use crate::kernel::{task_audiences, warm_after_rejoin, SimOutput, Simulation, TaskStats};
use crate::monitor::LrcMonitor;
use crate::observe::{GroupObs, ReplicaMasks};
use crate::scenario::{CrashState, ScenarioLanes};
use crate::trace::Trace;
use logrel_core::roundprog::UpdateOp;
use logrel_core::{CommunicatorId, FailureModel, HostId, TaskId, Tick, Value};
use logrel_obs::{names, MetricsSink, NoopSink, VoteOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::mem;
use std::panic::{self, AssertUnwindSafe};

/// The most rounds whose trace [`Simulation::run_traced`] reserves up
/// front.
const MAX_RESERVED_ROUNDS: u64 = 1 << 16;

/// A partition of the lane set by communicator value.
///
/// Invariants: the per-class masks are pairwise disjoint, every stored
/// value is reliable, and no mask is zero. Lanes outside the union of the
/// masks hold ⊥ ([`Value::Unreliable`]) — ⊥ is represented by *absence*,
/// which keeps the common all-reliable and all-⊥ cases at one and zero
/// classes respectively.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LaneClasses {
    classes: Vec<(Value, u64)>,
}

impl LaneClasses {
    fn clear(&mut self) {
        self.classes.clear();
    }

    /// Adds `mask`'s lanes with value `v`, coalescing with an existing
    /// equal-valued class. ⊥ values and empty masks are dropped (⊥ is
    /// absence). The caller must keep masks disjoint from existing
    /// classes.
    fn push(&mut self, v: Value, mask: u64) {
        if mask == 0 || !v.is_reliable() {
            return;
        }
        if let Some(entry) = self.classes.iter_mut().find(|(w, _)| *w == v) {
            entry.1 |= mask;
        } else {
            self.classes.push((v, mask));
        }
    }

    /// The mask of lanes holding a reliable value.
    fn union(&self) -> u64 {
        self.classes.iter().fold(0, |m, &(_, cm)| m | cm)
    }

    /// The value lane `lane` holds (⊥ when in no class).
    fn value_at(&self, lane: usize) -> Value {
        let bit = 1u64 << lane;
        self.classes
            .iter()
            .find(|&&(_, m)| m & bit != 0)
            .map_or(Value::Unreliable, |&(v, _)| v)
    }

    /// Rebuilds the partition from one scalar value per lane.
    ///
    /// Pushes once per run of equal neighbouring values, as the mask of
    /// the run's lanes: [`LaneClasses::push`] coalesces equal values, so
    /// the partition and its first-occurrence class order are those of
    /// one push per lane. (A NaN equals nothing, so it is a run of one,
    /// as it is a class of one.)
    fn set_from_lane_values(&mut self, vals: &[Value]) {
        self.classes.clear();
        let mut start = 0;
        while start < vals.len() {
            let v = vals[start];
            let len = vals[start + 1..].iter().take_while(|&&w| w == v).count() + 1;
            self.push(v, (u64::MAX >> (64 - len)) << start);
            start += len;
        }
    }

    /// Copies `other` into `self` reusing `self`'s allocation (the
    /// derived `clone_from` would allocate a fresh vector).
    fn copy_from(&mut self, other: &LaneClasses) {
        self.classes.clear();
        self.classes.extend_from_slice(&other.classes);
    }
}

/// Per-key counts of lane-mask events: an empty mask costs nothing, a
/// full one a single increment of `all[key]` whatever the width, and a
/// partial mask costs one step per lane on its smaller side — its set
/// lanes, counted one by one in `extra[key * lanes + lane]`, or, when
/// more than half the lanes are set, one increment of `all[key]` and a
/// (wrapping) decrement of `extra` for each lane it misses. A lane's
/// count is `all[key] + extra[..]`, wrapping.
#[derive(Debug, Clone)]
pub(crate) struct MaskTally {
    lanes: usize,
    all: Vec<u64>,
    extra: Vec<u64>,
}

impl MaskTally {
    pub(crate) fn new(keys: usize, lanes: usize) -> Self {
        MaskTally {
            lanes,
            all: vec![0; keys],
            extra: vec![0; keys * lanes],
        }
    }

    /// Counts one event on the lanes of `mask` (a subset of `all_mask`,
    /// the mask of all `lanes` lanes).
    #[inline]
    pub(crate) fn add(&mut self, key: usize, mask: u64, all_mask: u64) {
        if mask == all_mask {
            self.all[key] += 1;
        } else if mask != 0 {
            self.add_partial(key, mask, all_mask);
        }
    }

    #[inline(never)]
    fn add_partial(&mut self, key: usize, mask: u64, all_mask: u64) {
        let extra = &mut self.extra[key * self.lanes..][..self.lanes];
        if 2 * mask.count_ones() as usize > self.lanes {
            self.all[key] += 1;
            let mut missing = all_mask & !mask;
            while missing != 0 {
                let slot = &mut extra[missing.trailing_zeros() as usize];
                *slot = slot.wrapping_sub(1);
                missing &= missing - 1;
            }
        } else {
            let mut m = mask;
            while m != 0 {
                let slot = &mut extra[m.trailing_zeros() as usize];
                *slot = slot.wrapping_add(1);
                m &= m - 1;
            }
        }
    }

    pub(crate) fn get(&self, key: usize, lane: usize) -> u64 {
        self.all[key].wrapping_add(self.extra[key * self.lanes + lane])
    }

    /// The counts of the lanes of `mask`, summed.
    pub(crate) fn sum(&self, key: usize, mask: u64) -> u64 {
        let extra = &self.extra[key * self.lanes..][..self.lanes];
        let mut sum = self.all[key].wrapping_mul(u64::from(mask.count_ones()));
        let mut m = mask;
        while m != 0 {
            sum = sum.wrapping_add(extra[m.trailing_zeros() as usize]);
            m &= m - 1;
        }
        sum
    }
}

/// Where a group run writes its update sequence: nowhere (`()`, the
/// campaign units and benchmarks, which need only the counts), or one
/// [`Trace`] per lane (the callers that return a [`SimOutput`]).
pub(crate) trait UpdateLog {
    /// Communicator `comm` was updated at `at` to the lane values
    /// `classes`.
    fn record(&mut self, comm: usize, at: Tick, classes: &LaneClasses);
}

impl UpdateLog for () {
    fn record(&mut self, _comm: usize, _at: Tick, _classes: &LaneClasses) {}
}

impl UpdateLog for [Trace] {
    fn record(&mut self, comm: usize, at: Tick, classes: &LaneClasses) {
        let c = CommunicatorId::new(comm as u32);
        for (li, trace) in self.iter_mut().enumerate() {
            trace.record(c, at, classes.value_at(li));
        }
    }
}

/// The counts of a lane-group run ([`Simulation::run_bitsliced`]): per
/// communicator the updates and reliable updates — the reliability
/// abstraction's numerator and denominator — per task the invocations
/// and deliveries, and the final communicator values, each per lane.
///
/// Memory is O(communicators × lanes + tasks × lanes), independent of the
/// number of rounds.
#[derive(Debug, Clone)]
pub struct BitslicedOutput {
    lanes: usize,
    /// Per task: executed rounds (lane-invariant).
    invocations: Vec<u64>,
    /// Per task: rounds in which at least one replica delivered.
    delivered: MaskTally,
    /// Per communicator: updates (lane-invariant).
    updates: Vec<u64>,
    /// Per communicator: unreliable (⊥) updates.
    unreliable: MaskTally,
    /// Final communicator values, per communicator.
    final_classes: Vec<LaneClasses>,
}

impl BitslicedOutput {
    /// Number of packed lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Updates of `comm` (every lane sees every update).
    pub fn updates(&self, comm: CommunicatorId) -> u64 {
        self.updates[comm.index()]
    }

    /// Reliable updates of `comm` on lane `lane`.
    pub fn reliable(&self, comm: CommunicatorId, lane: usize) -> u64 {
        self.updates[comm.index()] - self.unreliable.get(comm.index(), lane)
    }

    /// Lane `lane`'s per-task delivery statistics.
    pub fn task_stats(&self, lane: usize) -> Vec<TaskStats> {
        (0..self.invocations.len())
            .map(|t| TaskStats {
                delivered: self.delivered.get(t, lane),
                invocations: self.invocations[t],
            })
            .collect()
    }

    /// Lane `lane`'s communicator values at the end of the run.
    pub fn final_values(&self, lane: usize) -> Vec<Value> {
        self.final_classes
            .iter()
            .map(|cls| cls.value_at(lane))
            .collect()
    }
}

/// One lane's private execution context: seeded RNG, fault injector and
/// environment.
///
/// Every draw and hook call of the lane's replication happens on this
/// context, in the order a one-lane run of seed `seed` makes them.
#[derive(Debug, Clone)]
pub struct LaneContext<I, E> {
    rng: StdRng,
    injector: I,
    environment: E,
}

impl<I, E> LaneContext<I, E> {
    /// The lane of the replication of seed `seed` (the
    /// [`SimConfig::seed`](crate::SimConfig) of a one-lane run) over
    /// `injector` and `environment`.
    pub fn plain(seed: u64, injector: I, environment: E) -> Self {
        LaneContext {
            rng: StdRng::seed_from_u64(seed),
            injector,
            environment,
        }
    }

    /// The lane's random stream.
    #[cfg(test)]
    pub(crate) fn rng_mut(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

/// One replica of a task read, as the lanes' own hooks see it.
struct Replica<'a> {
    host: HostId,
    now: Tick,
    round: u64,
    /// The task's partition audience, when a lane's own injector may
    /// partition.
    audience: Option<&'a [HostId]>,
    /// Whether each lane's own injector decides the warm-up (the group
    /// layer scripts nothing for the host).
    warm_per_lane: bool,
    /// The lanes on which an engaged degradation rule drops the replica.
    excluded: u64,
}

/// Makes every lane's own calls for `r`, each lane in its stream order —
/// the inner host draw, the group layer's host draws, the inner broadcast
/// draw, the layer's burst draws — and folds the outcomes into masks: the
/// inner host and broadcast outcomes (a replica cut off from any audience
/// host counts as a broadcast drop) and the lanes' own warm-up verdicts,
/// beside the replica's exclusion mask. Specialized on `SCRIPTED`, so the
/// loop of a run without a scenario carries no layer call.
#[inline(always)]
fn sample_lanes<const SCRIPTED: bool, I, E>(
    lanes: &mut [LaneContext<I, E>],
    layer: &mut ScenarioLanes,
    r: &Replica<'_>,
) -> ReplicaMasks
where
    I: FaultInjector,
{
    let mut m = ReplicaMasks {
        host: r.host.index(),
        host_ok: 0,
        bc_ok: 0,
        warm: 0,
        excluded: r.excluded,
    };
    for (li, lane) in lanes.iter_mut().enumerate() {
        let bit = 1u64 << li;
        let host_ok = lane.injector.host_ok(r.host, r.now, &mut lane.rng);
        if SCRIPTED {
            layer.draw_host(&mut lane.rng, bit);
        }
        let bc_ok = lane.injector.broadcast_ok(r.host, r.now, &mut lane.rng)
            && r.audience.is_none_or(|a| {
                a.iter()
                    .all(|&rcv| lane.injector.delivers(r.host, rcv, r.now))
            });
        if SCRIPTED {
            layer.draw_bursts(&mut lane.rng, bit);
        }
        let warm = r.warm_per_lane
            && warm_after_rejoin(lane.injector.rejoined_at(r.host, r.now), r.now, r.round);
        m.host_ok |= u64::from(host_ok) << li;
        m.bc_ok |= u64::from(bc_ok) << li;
        m.warm |= u64::from(warm) << li;
    }
    m
}

impl<'a> Simulation<'a> {
    /// Runs 1..=64 replications bit-sliced in one pass over the round
    /// program. Lane `i` replays the replication of `lanes[i]`'s seed,
    /// injector and environment exactly; see the module docs for the
    /// shared-behaviors purity contract and the fast/slow path split.
    ///
    /// The run is unobserved; [`Simulation::run_monitored`] reports to a
    /// metrics sink.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is empty or holds more than 64 contexts.
    pub fn run_bitsliced<I, E>(
        &self,
        behaviors: &mut BehaviorMap,
        lanes: &mut [LaneContext<I, E>],
        rounds: u64,
    ) -> BitslicedOutput
    where
        I: FaultInjector,
        E: Environment,
    {
        self.run_plain(behaviors, lanes, None, &mut NoopSink, rounds, &mut ())
    }

    /// [`Simulation::run_bitsliced`] watched by one group [`LrcMonitor`]
    /// (built with [`LrcMonitor::with_lanes`] for `lanes.len()` lanes),
    /// reporting to `sink`. The monitor sees every communicator update
    /// once, as the mask of lanes holding a reliable value; each alarm it
    /// fires and each rule it engages is recorded for that lane right
    /// there, and a dropped replica leaves the vote on the lanes that
    /// dropped it from the next task read on.
    ///
    /// `sink` ends up as the lanes' one-lane sinks merged in lane order,
    /// lane 0's continuing what `sink` held before the run (`DESIGN.md`
    /// §9–§10).
    ///
    /// # Panics
    ///
    /// Panics if the monitor's width differs from the number of lanes,
    /// or as [`Simulation::run_bitsliced`] does.
    pub fn run_monitored<I, E, M>(
        &self,
        behaviors: &mut BehaviorMap,
        lanes: &mut [LaneContext<I, E>],
        monitor: &mut LrcMonitor,
        sink: &mut M,
        rounds: u64,
    ) -> BitslicedOutput
    where
        I: FaultInjector,
        E: Environment,
        M: MetricsSink + ?Sized,
    {
        self.run_plain(behaviors, lanes, Some(monitor), sink, rounds, &mut ())
    }

    /// [`Simulation::run_bitsliced`], watched by `monitor` when given and
    /// reporting to `sink` as [`Simulation::run_monitored`] does, that
    /// also records every lane's update sequence: lane `i`'s
    /// [`SimOutput`], trace included, is the one a one-lane run of the
    /// same seed returns.
    ///
    /// # Panics
    ///
    /// As [`Simulation::run_monitored`].
    pub fn run_traced<I, E, M>(
        &self,
        behaviors: &mut BehaviorMap,
        lanes: &mut [LaneContext<I, E>],
        monitor: Option<&mut LrcMonitor>,
        sink: &mut M,
        rounds: u64,
    ) -> Vec<SimOutput>
    where
        I: FaultInjector,
        E: Environment,
        M: MetricsSink + ?Sized,
    {
        // The trace rows are sized up front (capped, so a huge horizon
        // still grows on demand instead of reserving it all).
        let reserved = rounds.min(MAX_RESERVED_ROUNDS);
        let per_round = self.updates_per_round();
        let mut traces: Vec<Trace> = (0..lanes.len())
            .map(|_| {
                let mut trace = Trace::new(self.spec);
                for (comm, &k) in per_round.iter().enumerate() {
                    trace.reserve(comm, (k * reserved) as usize);
                }
                trace
            })
            .collect();
        let out = self.run_plain(behaviors, lanes, monitor, sink, rounds, &mut traces[..]);
        traces
            .into_iter()
            .enumerate()
            .map(|(li, trace)| SimOutput {
                trace,
                task_stats: out.task_stats(li),
                final_values: out.final_values(li),
            })
            .collect()
    }

    /// The public entry points' group run, under the empty scenario
    /// layer.
    fn run_plain<I, E, M, L>(
        &self,
        behaviors: &mut BehaviorMap,
        lanes: &mut [LaneContext<I, E>],
        monitor: Option<&mut LrcMonitor>,
        sink: &mut M,
        rounds: u64,
        log: &mut L,
    ) -> BitslicedOutput
    where
        I: FaultInjector,
        E: Environment,
        M: MetricsSink + ?Sized,
        L: UpdateLog + ?Sized,
    {
        let mut layer = ScenarioLanes::none(self.host_count(), lanes.len());
        self.run_lanes(behaviors, lanes, monitor, sink, &mut layer, rounds, log)
    }

    /// The number of hosts the round program places replicas on.
    pub(crate) fn host_count(&self) -> usize {
        self.program
            .phases
            .iter()
            .flat_map(|p| p.hosts.iter().flatten())
            .map(|h| h.index())
            .max()
            .map_or(0, |m| m + 1)
    }

    /// [`Simulation::run_bitsliced`] under the group scenario layer
    /// `layer` (over the lanes' own injectors, which it wraps), watched by
    /// `monitor` when given, reporting to `sink` and writing every update
    /// to `log` as well.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_lanes<I, E, M, L>(
        &self,
        behaviors: &mut BehaviorMap,
        lanes: &mut [LaneContext<I, E>],
        monitor: Option<&mut LrcMonitor>,
        sink: &mut M,
        layer: &mut ScenarioLanes,
        rounds: u64,
        log: &mut L,
    ) -> BitslicedOutput
    where
        I: FaultInjector,
        E: Environment,
        M: MetricsSink + ?Sized,
        L: UpdateLog + ?Sized,
    {
        let n = lanes.len();
        assert!(
            (1..=64).contains(&n),
            "bit-sliced run needs 1..=64 lanes, got {n}"
        );
        assert_eq!(layer.width(), n, "the scenario layer must cover every lane");
        if let Some(monitor) = &monitor {
            assert_eq!(monitor.width(), n, "the monitor must watch every lane");
        }
        let mut obs = GroupObs::new(sink, n, self.host_count(), self.program.max_replicas);
        let run = panic::catch_unwind(AssertUnwindSafe(|| {
            self.run_rounds(
                behaviors, lanes, &mut obs, sink, monitor, layer, rounds, log,
            )
        }));
        run.unwrap_or_else(|payload| {
            // A panic unwinding through the kernel still leaves the sink
            // as per-event observation would have: alarm counters,
            // hosts-up gauge and flight recorder current.
            if obs.enabled() {
                obs.unwind(sink);
            }
            panic::resume_unwind(payload)
        })
    }

    /// The rounds of [`Simulation::run_lanes`], observed through `obs`
    /// into `sink`.
    #[allow(clippy::too_many_arguments)]
    fn run_rounds<I, E, M, L>(
        &self,
        behaviors: &mut BehaviorMap,
        lanes: &mut [LaneContext<I, E>],
        obs: &mut GroupObs,
        sink: &mut M,
        mut monitor: Option<&mut LrcMonitor>,
        layer: &mut ScenarioLanes,
        rounds: u64,
        log: &mut L,
    ) -> BitslicedOutput
    where
        I: FaultInjector,
        E: Environment,
        M: MetricsSink + ?Sized,
        L: UpdateLog + ?Sized,
    {
        let spec = self.spec;
        let prog = &self.program;
        let round = spec.round_period().as_u64();
        let phase_count = prog.phases.len() as u64;
        let n = lanes.len();
        let all_mask: u64 = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        // Any corrupting lane forces the slow (materialized-replicas)
        // path for the whole run; see the module docs.
        let corrupting = lanes.iter().any(|l| l.injector.corrupts());
        // Passive environments contract their `advance`/`actuate` hooks
        // to no-ops, so the per-lane hook loops below can be skipped.
        let passive_env = lanes.iter().all(|l| l.environment.is_passive());
        // Correlated-failure gates: the partition delivery check and the
        // adaptive vote echo are pure (no RNG draws), so lanes with a
        // plain injector see exactly their one-lane call sequence whether
        // or not another lane partitions or adapts. The group layer's
        // share of each is evaluated once for all lanes.
        let scripted = layer.scripted();
        let lane_partitioned = lanes.iter().any(|l| l.injector.partitions());
        let partitioned = lane_partitioned || layer.partitions();
        let adaptive = lanes.iter().any(|l| l.injector.adaptive());
        let audiences = if partitioned {
            task_audiences(spec, self.imp.phases())
        } else {
            Vec::new()
        };

        let comm_count = spec.communicator_count();
        let mut comm_classes: Vec<LaneClasses> = spec
            .communicator_ids()
            .map(|c| {
                let mut cls = LaneClasses::default();
                cls.push(spec.communicator(c).init(), all_mask);
                cls
            })
            .collect();
        let mut latched = vec![LaneClasses::default(); prog.total_inputs];
        let mut result_classes = [
            vec![LaneClasses::default(); prog.total_outputs],
            vec![LaneClasses::default(); prog.total_outputs],
        ];
        let mut result_delivered = [vec![0u64; spec.task_count()], vec![0u64; spec.task_count()]];
        let mut invocations = vec![0u64; spec.task_count()];
        let mut delivered = MaskTally::new(spec.task_count(), n);
        let mut unreliable = MaskTally::new(comm_count, n);

        // Scratch, allocated once per run.
        let max_out = prog.max_outputs;
        let mut lane_vals = vec![Value::Unreliable; n];
        let mut cells_mask: Vec<u64> = Vec::with_capacity(n);
        let mut cells_vals: Vec<Value> = Vec::with_capacity(n * prog.max_inputs);
        let mut next_mask: Vec<u64> = Vec::with_capacity(n);
        let mut next_vals: Vec<Value> = Vec::with_capacity(n * prog.max_inputs);
        let mut cell_outs: Vec<Value> = Vec::with_capacity(n * max_out);
        let mut lane_cell = vec![0usize; n];
        let mut outputs_buf: Vec<Value> = Vec::with_capacity(max_out);
        let mut ok_masks = vec![0u64; prog.max_replicas];
        // Slow path only: per-(replica, lane) output rows, and one lane's
        // gathered rows for `vote_into`.
        let mut rep_vals = if corrupting {
            vec![Value::Unreliable; prog.max_replicas * n * max_out]
        } else {
            Vec::new()
        };
        let mut lane_rep_vals = vec![Value::Unreliable; prog.max_replicas * max_out];
        let mut lane_rep_ok = vec![false; prog.max_replicas];
        let mut voted_buf = vec![Value::Unreliable; max_out];
        let mut delivered_hosts: Vec<HostId> = Vec::with_capacity(prog.max_replicas);

        // Constant `false` for `NoopSink`, so the obs blocks below
        // monomorphize away.
        let any_obs = sink.enabled();

        for r in 0..rounds {
            let phase = &prog.phases[(r % phase_count) as usize];
            let base = r * round;
            let parity = (r % 2) as usize;
            for sp in &prog.slots {
                let now = Tick::new(base + sp.offset);
                if !passive_env {
                    for lane in lanes.iter_mut() {
                        lane.environment.advance(now);
                    }
                }

                // ---- 1. communicator updates due at this instant ----
                for op in &sp.updates {
                    let ci = op.comm();
                    let c = CommunicatorId::new(ci as u32);
                    // Whether the update goes out to the actuators.
                    let actuated = match *op {
                        UpdateOp::Sensor { .. } => {
                            let sensors = &phase.sensors[ci];
                            for (li, lane) in lanes.iter_mut().enumerate() {
                                let mut any_ok = false;
                                for &s in sensors {
                                    // Sample every sensor (no short-circuit)
                                    // so the failure process is independent
                                    // of evaluation order.
                                    if lane.injector.sensor_ok(s, now, &mut lane.rng) {
                                        any_ok = true;
                                    }
                                }
                                lane_vals[li] = if any_ok {
                                    lane.environment.sense(c, now)
                                } else {
                                    Value::Unreliable
                                };
                            }
                            comm_classes[ci].set_from_lane_values(&lane_vals);
                            false
                        }
                        UpdateOp::Landed {
                            task,
                            out_slot,
                            rounds_back,
                            ..
                        } => {
                            let rb = u64::from(rounds_back);
                            if r >= rb {
                                let p = ((r - rb) % 2) as usize;
                                let dm = result_delivered[p][task as usize];
                                let src = &result_classes[p][out_slot as usize];
                                let dst = &mut comm_classes[ci];
                                dst.clear();
                                for &(v, m) in &src.classes {
                                    dst.push(v, m & dm);
                                }
                            }
                            // else: nothing produced yet, init persists.
                            true
                        }
                        UpdateOp::Persist { .. } => true,
                    };
                    if actuated && !passive_env {
                        let cls = &comm_classes[ci];
                        for (li, lane) in lanes.iter_mut().enumerate() {
                            lane.environment.actuate(c, cls.value_at(li), now);
                        }
                    }
                    // The ⊥ lanes are those outside every value class.
                    let reliable = comm_classes[ci].union();
                    if let Some(monitor) = monitor.as_deref_mut() {
                        monitor.observe_lanes(c, now, reliable, |li, fired| {
                            obs.fired(li, fired, sink);
                        });
                    }
                    unreliable.add(ci, !reliable & all_mask, all_mask);
                    log.record(ci, now, &comm_classes[ci]);
                }

                // ---- 2. latch input accesses due at this instant ----
                for l in &sp.latches {
                    // `latched` and `comm_classes` are distinct vectors.
                    latched[l.dst as usize].copy_from(&comm_classes[l.comm as usize]);
                }

                // ---- 3. task reads / logical execution ----
                for &ti in &sp.reads {
                    let t = ti as usize;
                    let tt = &prog.tasks[t];
                    let raw = &latched[tt.in_range()];
                    // The lane mask on which the task logically executes.
                    let exec: u64 = match tt.model {
                        FailureModel::Series => {
                            raw.iter().fold(all_mask, |m, cls| m & cls.union())
                        }
                        FailureModel::Parallel => raw.iter().fold(0, |m, cls| m | cls.union()),
                        FailureModel::Independent => all_mask,
                    };

                    // Partition the executing lanes into input-equivalence
                    // cells: lanes in one cell agree on every
                    // (default-substituted) input, so one behavior
                    // invocation serves the whole cell.
                    cells_mask.clear();
                    cells_vals.clear();
                    // Common case (and always at width 1): no input splits
                    // the executing lanes, so they form a single cell.
                    let one_cell = raw.iter().all(|cls| match cls.classes.as_slice() {
                        [] => true,
                        [(_, m)] => exec & m == exec || exec & m == 0,
                        _ => false,
                    });
                    if exec != 0 && one_cell {
                        cells_mask.push(exec);
                        cells_vals.extend(raw.iter().zip(&tt.defaults).map(|(cls, &d)| {
                            match cls.classes.first() {
                                Some(&(v, m)) if exec & m != 0 => v,
                                _ => d,
                            }
                        }));
                    } else if exec != 0 {
                        cells_mask.push(exec);
                        for (j, cls) in raw.iter().enumerate() {
                            next_mask.clear();
                            next_vals.clear();
                            for (ci, &cm) in cells_mask.iter().enumerate() {
                                let vals = &cells_vals[ci * j..(ci + 1) * j];
                                let mut rem = cm;
                                for &(v, m) in &cls.classes {
                                    let sub = cm & m;
                                    if sub != 0 {
                                        rem &= !m;
                                        next_mask.push(sub);
                                        next_vals.extend_from_slice(vals);
                                        next_vals.push(v);
                                    }
                                }
                                if rem != 0 {
                                    // ⊥ lanes read the declared default.
                                    next_mask.push(rem);
                                    next_vals.extend_from_slice(vals);
                                    next_vals.push(tt.defaults[j]);
                                }
                            }
                            mem::swap(&mut cells_mask, &mut next_mask);
                            mem::swap(&mut cells_vals, &mut next_vals);
                        }
                    }
                    let n_in = tt.n_in;
                    let n_out = tt.n_out;
                    cell_outs.clear();
                    for ci in 0..cells_mask.len() {
                        let inputs = &cells_vals[ci * n_in..(ci + 1) * n_in];
                        behaviors.invoke_into(spec, TaskId::new(ti), inputs, &mut outputs_buf);
                        cell_outs.extend_from_slice(&outputs_buf);
                    }
                    if corrupting {
                        // Lane → cell map, for materializing replica rows.
                        for (ci, &cm) in cells_mask.iter().enumerate() {
                            let mut m = cm;
                            while m != 0 {
                                lane_cell[m.trailing_zeros() as usize] = ci;
                                m &= m - 1;
                            }
                        }
                    }

                    let hosts_of = &phase.hosts[t];
                    // Per host, the lanes that dropped this task's replica.
                    let dropped = monitor.as_deref().map_or(&[][..], |m| m.dropped(t));
                    if any_obs {
                        obs.begin_read(now.as_u64(), t, exec);
                    }
                    let mut delivered_mask = 0u64;
                    for (i, &h) in hosts_of.iter().enumerate() {
                        // Lane-independent: which scenario entities draw
                        // now, and the warm-up state of a scripted host.
                        let crash = if scripted {
                            layer.begin_host(h, now.as_u64());
                            layer.begin_bursts(now.as_u64());
                            layer.crash_state(h, now.as_u64())
                        } else {
                            CrashState::Unscripted
                        };
                        let shared_warm = match crash {
                            CrashState::Unscripted if tt.stateful => None,
                            CrashState::Rejoined(at)
                                if tt.stateful
                                    && !warm_after_rejoin(Some(Tick::new(at)), now, round) =>
                            {
                                Some(0)
                            }
                            _ => Some(all_mask),
                        };
                        let replica = Replica {
                            host: h,
                            now,
                            round,
                            audience: lane_partitioned.then(|| &audiences[t][..]),
                            warm_per_lane: shared_warm.is_none(),
                            excluded: dropped.get(h.index()).copied().unwrap_or(0),
                        };
                        let own = if scripted {
                            sample_lanes::<true, _, _>(lanes, layer, &replica)
                        } else {
                            sample_lanes::<false, _, _>(lanes, layer, &replica)
                        };
                        let mut masks = ReplicaMasks {
                            warm: shared_warm.unwrap_or(own.warm),
                            ..own
                        };
                        if scripted {
                            let up = layer.up_mask(h, now.as_u64());
                            masks.host_ok &= up;
                            masks.bc_ok &= up & layer.burst_ok();
                            if layer.partitions()
                                && !audiences[t]
                                    .iter()
                                    .all(|&rcv| layer.delivers(h, rcv, now.as_u64()))
                            {
                                masks.bc_ok = 0;
                            }
                        }
                        let okm =
                            exec & masks.host_ok & masks.bc_ok & masks.warm & !masks.excluded;
                        // Only the slow path materializes the delivering
                        // lanes' replica rows and lets their injectors
                        // corrupt them, after the lane's other draws for
                        // this replica. On the fast path `corrupts()`
                        // guarantees the hook neither mutates nor draws,
                        // so the call is skipped entirely.
                        if corrupting {
                            let mut m = okm;
                            while m != 0 {
                                let li = m.trailing_zeros() as usize;
                                m &= m - 1;
                                let lane = &mut lanes[li];
                                let dst = &mut rep_vals[(i * n + li) * max_out..][..n_out];
                                let cidx = lane_cell[li];
                                dst.copy_from_slice(&cell_outs[cidx * n_out..(cidx + 1) * n_out]);
                                lane.injector.corrupt(h, now, dst, &mut lane.rng);
                            }
                        }
                        if any_obs {
                            obs.replica(masks);
                        }
                        ok_masks[i] = okm;
                        delivered_mask |= okm;
                    }

                    // ---- vote ----
                    let out_base = tt.out_base;
                    for cls in &mut result_classes[parity][tt.out_range()] {
                        cls.clear();
                    }
                    // The corrupting path's observed (majority, tie) lanes;
                    // every other delivering lane's vote is unanimous.
                    let outcomes = if !corrupting {
                        // All delivering replicas of a lane agree (no
                        // corruption), so any strategy votes the cell's
                        // output for every delivering lane.
                        for (ci, &cm) in cells_mask.iter().enumerate() {
                            let dm = cm & delivered_mask;
                            if dm != 0 {
                                for k in 0..n_out {
                                    result_classes[parity][out_base + k]
                                        .push(cell_outs[ci * n_out + k], dm);
                                }
                            }
                        }
                        None
                    } else {
                        let mut outcomes = [0u64; 2];
                        for li in 0..n {
                            let bit = 1u64 << li;
                            if delivered_mask & bit == 0 {
                                // vote_into would fill ⊥; absence is ⊥.
                                continue;
                            }
                            for (i, ok) in lane_rep_ok[..hosts_of.len()].iter_mut().enumerate()
                            {
                                *ok = ok_masks[i] & bit != 0;
                                if *ok {
                                    lane_rep_vals[i * n_out..(i + 1) * n_out].copy_from_slice(
                                        &rep_vals[(i * n + li) * max_out..][..n_out],
                                    );
                                }
                            }
                            crate::voting::vote_into(
                                &lane_rep_vals[..hosts_of.len() * n_out],
                                &lane_rep_ok[..hosts_of.len()],
                                n_out,
                                self.voting,
                                &mut voted_buf[..n_out],
                            );
                            for k in 0..n_out {
                                result_classes[parity][out_base + k].push(voted_buf[k], bit);
                            }
                            if any_obs {
                                match crate::voting::classify_outcome(
                                    &lane_rep_vals[..hosts_of.len() * n_out],
                                    &lane_rep_ok[..hosts_of.len()],
                                    n_out,
                                ) {
                                    VoteOutcome::Majority => outcomes[0] |= bit,
                                    VoteOutcome::Tie => outcomes[1] |= bit,
                                    // A delivering lane's vote is never
                                    // silent.
                                    VoteOutcome::Unanimous | VoteOutcome::Silent => {}
                                }
                            }
                        }
                        Some(outcomes)
                    };

                    invocations[t] += 1;
                    delivered.add(t, delivered_mask, all_mask);
                    result_delivered[parity][t] = delivered_mask;

                    // Adaptive vote echo: lane `li`'s delivering hosts are
                    // the replicas whose ok-mask has bit `li` set, so the
                    // fast path needs no materialized replica rows. The
                    // group layer reads the pivot off the masks directly.
                    if layer.adaptive() {
                        let replicas = hosts_of.iter().copied().zip(ok_masks.iter().copied());
                        layer.observe_votes(now.as_u64(), replicas, hosts_of.len());
                    }
                    if adaptive {
                        for (li, lane) in lanes.iter_mut().enumerate() {
                            if !lane.injector.adaptive() {
                                continue;
                            }
                            let bit = 1u64 << li;
                            delivered_hosts.clear();
                            for (i, &h) in hosts_of.iter().enumerate() {
                                if ok_masks[i] & bit != 0 {
                                    delivered_hosts.push(h);
                                }
                            }
                            lane.injector.observe_vote(
                                TaskId::new(ti),
                                now,
                                &delivered_hosts,
                                hosts_of.len(),
                            );
                        }
                    }

                    if any_obs {
                        obs.vote(outcomes);
                    }
                }
            }
        }

        let out = BitslicedOutput {
            lanes: n,
            invocations,
            delivered,
            // Every round makes the same updates, and every lane sees them.
            updates: self
                .updates_per_round()
                .iter()
                .map(|k| k * rounds)
                .collect(),
            unreliable,
            final_classes: comm_classes,
        };
        if any_obs {
            let updates: u64 = out.updates.iter().sum();
            let invocations: u64 = out.invocations.iter().sum();
            let unreliable = (0..out.updates.len())
                .map(|c| out.unreliable.sum(c, all_mask))
                .sum();
            let delivered = (0..out.invocations.len())
                .map(|t| out.delivered.sum(t, all_mask))
                .sum();
            let n = n as u64;
            obs.flush(
                sink,
                [
                    (names::ROUNDS, rounds * n),
                    (names::UPDATES, updates * n),
                    (names::UPDATES_UNRELIABLE, unreliable),
                    (names::TASK_INVOCATIONS, invocations * n),
                    (names::TASK_DELIVERED, delivered),
                ],
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_classes_partition_and_lookup() {
        let mut cls = LaneClasses::default();
        cls.push(Value::Float(1.0), 0b0011);
        cls.push(Value::Float(2.0), 0b0100);
        cls.push(Value::Float(1.0), 0b1000); // coalesces
        assert_eq!(cls.classes.len(), 2);
        assert_eq!(cls.union(), 0b1111);
        assert_eq!(cls.value_at(0), Value::Float(1.0));
        assert_eq!(cls.value_at(2), Value::Float(2.0));
        assert_eq!(cls.value_at(3), Value::Float(1.0));
        assert_eq!(cls.value_at(5), Value::Unreliable);
        // ⊥ and empty masks are dropped.
        cls.push(Value::Unreliable, 0b1_0000);
        cls.push(Value::Float(9.0), 0);
        assert_eq!(cls.classes.len(), 2);
    }

    #[test]
    fn set_from_lane_values_roundtrips() {
        let vals = [
            Value::Float(5.0),
            Value::Unreliable,
            Value::Float(5.0),
            Value::Int(3),
        ];
        let mut cls = LaneClasses::default();
        cls.set_from_lane_values(&vals);
        for (li, &v) in vals.iter().enumerate() {
            assert_eq!(cls.value_at(li), v);
        }
        assert_eq!(cls.union(), 0b0101 | 0b1000);
    }

    #[test]
    fn mask_tally_counts_full_and_partial_masks() {
        let mut t = MaskTally::new(2, 3);
        t.add(0, 0b111, 0b111);
        t.add(0, 0b101, 0b111);
        t.add(1, 0, 0b111);
        assert_eq!((t.get(0, 0), t.get(0, 1), t.get(0, 2)), (2, 1, 2));
        assert_eq!((t.get(1, 0), t.get(1, 1), t.get(1, 2)), (0, 0, 0));
    }

    /// A lane value from a small palette, so that lanes repeat: ⊥, NaN,
    /// ±0.0, two other floats, two ints (one of them `1`, beside the
    /// float `1.0`) and both bools.
    fn palette(pick: u8) -> Value {
        match pick % 10 {
            0 => Value::Unreliable,
            1 => Value::Float(f64::NAN),
            2 => Value::Float(0.0),
            3 => Value::Float(-0.0),
            4 => Value::Float(1.0),
            5 => Value::Float(2.5),
            6 => Value::Int(1),
            7 => Value::Int(-3),
            8 => Value::Bool(true),
            _ => Value::Bool(false),
        }
    }

    /// A class as comparable bits (a NaN value equals nothing, itself
    /// included).
    fn class_bits(cls: &LaneClasses) -> Vec<(String, u64)> {
        cls.classes
            .iter()
            .map(|&(v, m)| match v {
                Value::Float(f) => (format!("f{:#x}", f.to_bits()), m),
                v => (format!("{v:?}"), m),
            })
            .collect()
    }

    proptest::proptest! {
        /// Counting a mask by its smaller side — set lanes up, or one
        /// `all` step and missing lanes down — agrees with a plain
        /// per-lane counter, at every width, on empty, full, near-full
        /// and random masks.
        #[test]
        fn mask_tally_matches_per_lane_counts(
            width in 1usize..=64,
            picks in proptest::collection::vec((0u8..4, proptest::prelude::any::<u64>(), 0usize..3), 0..200),
        ) {
            let all = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
            let mut tally = MaskTally::new(3, width);
            let mut naive = vec![[0u64; 3]; width];
            for (kind, bits, key) in picks {
                let mask = match kind {
                    0 => 0,
                    1 => all,
                    2 => all & !(1 << (bits % width as u64)),
                    _ => all & bits,
                };
                tally.add(key, mask, all);
                for (lane, counts) in naive.iter_mut().enumerate() {
                    counts[key] += mask >> lane & 1;
                }
            }
            for (lane, counts) in naive.iter().enumerate() {
                for (key, &count) in counts.iter().enumerate() {
                    proptest::prop_assert_eq!(tally.get(key, lane), count, "lane {} key {}", lane, key);
                }
            }
            for set in [all, all & 0xAAAA_AAAA_AAAA_AAAA, 1] {
                let mut expected = [0u64; 3];
                for (lane, counts) in naive.iter().enumerate() {
                    if set >> lane & 1 == 1 {
                        for (sum, count) in expected.iter_mut().zip(counts) {
                            *sum += count;
                        }
                    }
                }
                for (key, &sum) in expected.iter().enumerate() {
                    proptest::prop_assert_eq!(tally.sum(key, set), sum, "key {} set {:#x}", key, set);
                }
            }
        }

        /// Pushing runs of equal lane values gives the partition of one
        /// push per lane: the same values, masks and class order, at
        /// every width, with ⊥, NaN, ±0.0, repeats and mixed kinds.
        #[test]
        fn run_length_lane_values_match_one_push_per_lane(
            width in 1usize..=64,
            run_bias in 0u8..3,
            picks in proptest::collection::vec(0u8..=255, 64..=64),
        ) {
            // Long runs are the production case (one value on most
            // lanes); `run_bias` repeats the previous pick that often.
            let mut vals = Vec::with_capacity(width);
            for (li, &pick) in picks.iter().take(width).enumerate() {
                let repeat = li > 0 && pick % 3 < run_bias;
                vals.push(if repeat { vals[li - 1] } else { palette(pick) });
            }
            let mut runs = LaneClasses::default();
            runs.set_from_lane_values(&vals);
            let mut lanes = LaneClasses::default();
            for (li, &v) in vals.iter().enumerate() {
                lanes.push(v, 1u64 << li);
            }
            proptest::prop_assert_eq!(class_bits(&runs), class_bits(&lanes), "{:?}", vals);
        }
    }
}
