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
//! A single run ([`Simulation::run`], `run_supervised`, `run_observed`)
//! is an ordinary one-lane group through this same loop; only the
//! map-driven [`Simulation::run_reference`] interprets the semantics a
//! second time, as the differential oracle.
//!
//! # Lane semantics
//!
//! Lane `i` replays replication `i` *exactly*: it owns a private RNG
//! seeded with lane `i`'s seed, plus its own fault injector, environment,
//! supervisor and metrics sink ([`LaneContext`]). At every site that
//! consumes a draw or calls a hook, the kernel loops over the lanes and
//! performs the call on the lane's own context, in lane order — so each
//! lane's RNG stream, supervisor interactions and metrics are the ones a
//! one-lane run of the same seed produces, whatever the group width.
//!
//! # What a run records
//!
//! The kernel keeps counts: per communicator the number of updates
//! (lane-invariant) and of reliable updates per lane, per task the
//! invocations and deliveries, and the final values ([`BitslicedOutput`]).
//! Only the one-lane runs that return a [`SimOutput`] also write the
//! update sequence into a [`Trace`]; a campaign unit stores nothing per
//! update. (Any caller can still watch the sequence lane by lane through
//! a supervisor: [`Supervisor::observe`] fires for every update in
//! order.)
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
use crate::monitor::{NoSupervisor, Supervisor};
use crate::trace::Trace;
use logrel_core::roundprog::UpdateOp;
use logrel_core::{CommunicatorId, FailureModel, HostId, TaskId, Tick, Value};
use logrel_obs::{names, DropReason, MetricsSink, NoopSink, ObsEvent, VoteOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::mem;

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
    fn set_from_lane_values(&mut self, vals: &[Value]) {
        self.classes.clear();
        for (li, &v) in vals.iter().enumerate() {
            self.push(v, 1u64 << li);
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
/// full one a single increment of `all[key]` whatever the width, and only
/// the lanes of a partial mask are counted one by one in
/// `extra[key * lanes + lane]`.
#[derive(Debug, Clone)]
struct MaskTally {
    lanes: usize,
    all: Vec<u64>,
    extra: Vec<u64>,
}

impl MaskTally {
    fn new(keys: usize, lanes: usize) -> Self {
        MaskTally {
            lanes,
            all: vec![0; keys],
            extra: vec![0; keys * lanes],
        }
    }

    fn add(&mut self, key: usize, mask: u64, all_mask: u64) {
        if mask == all_mask {
            self.all[key] += 1;
        } else {
            let mut m = mask;
            while m != 0 {
                self.extra[key * self.lanes + m.trailing_zeros() as usize] += 1;
                m &= m - 1;
            }
        }
    }

    fn get(&self, key: usize, lane: usize) -> u64 {
        self.all[key] + self.extra[key * self.lanes + lane]
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

    /// Lane `lane`'s [`SimOutput`] around `trace`, that lane's update
    /// sequence (recorded by the one-lane runs themselves, or by a lane
    /// supervisor that writes down every update it observes).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.lanes()`.
    pub fn output(&self, lane: usize, trace: Trace) -> SimOutput {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        SimOutput {
            trace,
            task_stats: self.task_stats(lane),
            final_values: self.final_values(lane),
        }
    }
}

/// One observed lane's batched counters.
///
/// `Registry::inc` costs a `BTreeMap` lookup per call; at ~10 counter
/// bumps per replica vote that lookup chain dominated observed runs. The
/// hot loop instead bumps plain `u64` fields here and
/// [`ObsTally::flush`] writes the totals to the lane's sink once per run,
/// together with the counters the group already keeps for every lane
/// (rounds, updates, invocations, deliveries). Only *counters* and
/// histogram observations are tallied — events and gauges are
/// order-sensitive (flight recorder, last-write-wins) and stay inline.
/// Flushing adds only nonzero values, so a flushed registry has an entry
/// exactly where a per-event form would have created one, and exports
/// are independent of the batching (the registry sorts counters by name;
/// histogram sums over integer-valued samples are order-independent in
/// `f64`).
#[derive(Debug, Clone)]
struct ObsTally {
    replica_ok: u64,
    replica_drop: u64,
    drop_silent: u64,
    drop_host: u64,
    drop_broadcast: u64,
    drop_warmup: u64,
    drop_excluded: u64,
    broadcast_fail: u64,
    host_up_transitions: u64,
    host_down_transitions: u64,
    vote_unanimous: u64,
    vote_majority: u64,
    vote_tie: u64,
    vote_silent: u64,
    /// `replicas_per_vote[n]` = votes with exactly `n` delivering
    /// replicas (histogram samples, batched).
    replicas_per_vote: Vec<u64>,
}

impl ObsTally {
    fn new(max_replicas: usize) -> Self {
        ObsTally {
            replica_ok: 0,
            replica_drop: 0,
            drop_silent: 0,
            drop_host: 0,
            drop_broadcast: 0,
            drop_warmup: 0,
            drop_excluded: 0,
            broadcast_fail: 0,
            host_up_transitions: 0,
            host_down_transitions: 0,
            vote_unanimous: 0,
            vote_majority: 0,
            vote_tie: 0,
            vote_silent: 0,
            replicas_per_vote: vec![0; max_replicas + 1],
        }
    }

    fn drop_reason(&mut self, reason: DropReason) {
        self.replica_drop += 1;
        match reason {
            DropReason::NotExecuted => self.drop_silent += 1,
            DropReason::HostDown => self.drop_host += 1,
            DropReason::Broadcast => self.drop_broadcast += 1,
            DropReason::Warmup => self.drop_warmup += 1,
            DropReason::Excluded => self.drop_excluded += 1,
        }
    }

    /// One vote with `delivering` replicas and outcome `outcome`.
    fn vote(&mut self, outcome: VoteOutcome, delivering: usize) {
        match outcome {
            VoteOutcome::Unanimous => self.vote_unanimous += 1,
            VoteOutcome::Majority => self.vote_majority += 1,
            VoteOutcome::Tie => self.vote_tie += 1,
            VoteOutcome::Silent => self.vote_silent += 1,
        }
        self.replicas_per_vote[delivering] += 1;
    }

    /// Writes every nonzero total of lane `lane` of the `rounds`-round
    /// group run `out` to `sink`.
    fn flush<M: MetricsSink>(&self, sink: &mut M, rounds: u64, out: &BitslicedOutput, lane: usize) {
        let updates: u64 = out.updates.iter().sum();
        let unreliable: u64 = (0..out.updates.len())
            .map(|c| out.unreliable.get(c, lane))
            .sum();
        let invocations: u64 = out.invocations.iter().sum();
        let delivered: u64 = (0..out.invocations.len())
            .map(|t| out.delivered.get(t, lane))
            .sum();
        let counters = [
            (names::ROUNDS, rounds),
            (names::UPDATES, updates),
            (names::UPDATES_UNRELIABLE, unreliable),
            (names::TASK_INVOCATIONS, invocations),
            (names::TASK_DELIVERED, delivered),
            (names::REPLICA_OK, self.replica_ok),
            (names::REPLICA_DROP, self.replica_drop),
            (names::REPLICA_DROP_SILENT, self.drop_silent),
            (names::REPLICA_DROP_HOST, self.drop_host),
            (names::REPLICA_DROP_BROADCAST, self.drop_broadcast),
            (names::REPLICA_DROP_WARMUP, self.drop_warmup),
            (names::REPLICA_DROP_EXCLUDED, self.drop_excluded),
            (names::BROADCAST_FAIL, self.broadcast_fail),
            (names::HOST_UP_TRANSITIONS, self.host_up_transitions),
            (names::HOST_DOWN_TRANSITIONS, self.host_down_transitions),
            (names::VOTE_UNANIMOUS, self.vote_unanimous),
            (names::VOTE_MAJORITY, self.vote_majority),
            (names::VOTE_TIE, self.vote_tie),
            (names::VOTE_SILENT, self.vote_silent),
        ];
        for (name, v) in counters {
            if v != 0 {
                sink.add(name, v);
            }
        }
        for (n_del, &count) in self.replicas_per_vote.iter().enumerate() {
            if count != 0 {
                sink.observe_n(names::REPLICAS_PER_VOTE, n_del as f64, count);
            }
        }
    }
}

/// One lane's private execution context: seeded RNG, fault injector,
/// environment, supervisor and metrics sink.
///
/// Every draw and hook call of the lane's replication happens on this
/// context, in the order a one-lane run of seed `seed` makes them.
#[derive(Debug, Clone)]
pub struct LaneContext<I, E, S = NoSupervisor, M = NoopSink> {
    rng: StdRng,
    injector: I,
    environment: E,
    supervisor: S,
    sink: M,
}

impl<I, E, S, M> LaneContext<I, E, S, M> {
    /// A fully supervised and observed lane. `seed` matches the
    /// [`SimConfig::seed`](crate::SimConfig) of the replication this lane
    /// replays.
    pub fn new(seed: u64, injector: I, environment: E, supervisor: S, sink: M) -> Self {
        LaneContext {
            rng: StdRng::seed_from_u64(seed),
            injector,
            environment,
            supervisor,
            sink,
        }
    }

    /// Dismantles the lane, returning the injector, environment,
    /// supervisor and sink (e.g. to harvest per-lane metrics).
    pub fn into_parts(self) -> (I, E, S, M) {
        (self.injector, self.environment, self.supervisor, self.sink)
    }
}

impl<I, E> LaneContext<I, E> {
    /// An unsupervised, unobserved lane — the packed analogue of
    /// [`Simulation::run`].
    pub fn plain(seed: u64, injector: I, environment: E) -> Self {
        LaneContext::new(seed, injector, environment, NoSupervisor, NoopSink)
    }
}

impl<'a> Simulation<'a> {
    /// Runs 1..=64 replications bit-sliced in one pass over the round
    /// program. Lane `i` replays the replication of `lanes[i]`'s seed,
    /// injector, environment and supervisor exactly; see the module docs
    /// for the shared-behaviors purity contract and the fast/slow path
    /// split.
    ///
    /// Counters and histogram samples for each observed lane are batched
    /// and flushed to the lane's sink once, after the last round; events
    /// and gauges are order-sensitive and go to the sink inline.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is empty or holds more than 64 contexts.
    pub fn run_bitsliced<I, E, S, M>(
        &self,
        behaviors: &mut BehaviorMap,
        lanes: &mut [LaneContext<I, E, S, M>],
        rounds: u64,
    ) -> BitslicedOutput
    where
        I: FaultInjector,
        E: Environment,
        S: Supervisor,
        M: MetricsSink,
    {
        self.run_lanes(behaviors, lanes, rounds, &mut ())
    }

    /// [`Simulation::run_bitsliced`], writing every update to `log` as
    /// well.
    pub(crate) fn run_lanes<I, E, S, M, L>(
        &self,
        behaviors: &mut BehaviorMap,
        lanes: &mut [LaneContext<I, E, S, M>],
        rounds: u64,
        log: &mut L,
    ) -> BitslicedOutput
    where
        I: FaultInjector,
        E: Environment,
        S: Supervisor,
        M: MetricsSink,
        L: UpdateLog + ?Sized,
    {
        let spec = self.spec;
        let prog = &self.program;
        let round = spec.round_period().as_u64();
        let phase_count = prog.phases.len() as u64;
        let n = lanes.len();
        assert!(
            (1..=64).contains(&n),
            "bit-sliced run needs 1..=64 lanes, got {n}"
        );
        let all_mask: u64 = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        // Any corrupting lane forces the slow (materialized-replicas)
        // path for the whole run; see the module docs.
        let corrupting = lanes.iter().any(|l| l.injector.corrupts());
        // Passive environments/supervisors contract their hooks to
        // no-ops, so the per-lane hook loops below can be skipped.
        let passive_env = lanes.iter().all(|l| l.environment.is_passive());
        let passive_sup = lanes.iter().all(|l| l.supervisor.is_passive());
        // Correlated-failure gates: the partition delivery check and the
        // adaptive vote echo are pure (no RNG draws), so lanes with a
        // plain injector see exactly their one-lane call sequence whether
        // or not another lane partitions or adapts.
        let partitioned = lanes.iter().any(|l| l.injector.partitions());
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

        // Observation state, per lane. With `NoopSink` this is constant
        // `false` and the obs blocks below monomorphize away.
        let any_obs = lanes.iter().any(|l| l.sink.enabled());
        let obs: Vec<bool> = lanes.iter().map(|l| l.sink.enabled()).collect();
        let hosts = if any_obs {
            prog.phases
                .iter()
                .flat_map(|p| p.hosts.iter().flatten())
                .map(|h| h.index())
                .max()
                .map_or(0, |m| m + 1)
        } else {
            0
        };
        let mut tallies: Vec<ObsTally> = if any_obs {
            (0..n).map(|_| ObsTally::new(prog.max_replicas)).collect()
        } else {
            Vec::new()
        };
        // Per host: mask of lanes that consider the host up.
        let mut host_up = vec![all_mask; hosts];
        let mut hosts_up_count = vec![hosts; n];
        if any_obs {
            for lane in lanes.iter_mut().filter(|l| l.sink.enabled()) {
                lane.sink.set_gauge(names::HOSTS_UP, hosts as f64);
            }
        }

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
                    match *op {
                        UpdateOp::Sensor { comm } => {
                            let c = CommunicatorId::new(comm);
                            let sensors = &phase.sensors[comm as usize];
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
                            comm_classes[comm as usize].set_from_lane_values(&lane_vals);
                            if !passive_sup {
                                for (li, lane) in lanes.iter_mut().enumerate() {
                                    lane.supervisor
                                        .observe_with(c, now, lane_vals[li], &mut lane.sink);
                                }
                            }
                        }
                        UpdateOp::Landed {
                            comm,
                            task,
                            out_slot,
                            rounds_back,
                        } => {
                            let c = CommunicatorId::new(comm);
                            let rb = u64::from(rounds_back);
                            if r >= rb {
                                let p = ((r - rb) % 2) as usize;
                                let dm = result_delivered[p][task as usize];
                                let src = &result_classes[p][out_slot as usize];
                                let dst = &mut comm_classes[comm as usize];
                                dst.clear();
                                for &(v, m) in &src.classes {
                                    dst.push(v, m & dm);
                                }
                            }
                            // else: nothing produced yet, init persists.
                            if !(passive_env && passive_sup) {
                                let cls = &comm_classes[comm as usize];
                                for (li, lane) in lanes.iter_mut().enumerate() {
                                    let v = cls.value_at(li);
                                    lane.supervisor.observe_with(c, now, v, &mut lane.sink);
                                    lane.environment.actuate(c, v, now);
                                }
                            }
                        }
                        UpdateOp::Persist { comm } => {
                            let c = CommunicatorId::new(comm);
                            if !(passive_env && passive_sup) {
                                let cls = &comm_classes[comm as usize];
                                for (li, lane) in lanes.iter_mut().enumerate() {
                                    let v = cls.value_at(li);
                                    lane.supervisor.observe_with(c, now, v, &mut lane.sink);
                                    lane.environment.actuate(c, v, now);
                                }
                            }
                        }
                    }
                    // The ⊥ lanes are those outside every value class.
                    let ci = op.comm();
                    unreliable.add(ci, !comm_classes[ci].union() & all_mask, all_mask);
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
                    let mut delivered_mask = 0u64;
                    for (i, &h) in hosts_of.iter().enumerate() {
                        let mut okm = 0u64;
                        for (li, lane) in lanes.iter_mut().enumerate() {
                            let bit = 1u64 << li;
                            // Sample both draws for every replica so the
                            // process is order-independent. The partition
                            // check is pure and folds into the broadcast
                            // outcome: a replica cut off from any audience
                            // host counts as a broadcast drop.
                            let host_ok = lane.injector.host_ok(h, now, &mut lane.rng);
                            let bc_ok = lane.injector.broadcast_ok(h, now, &mut lane.rng)
                                && (!partitioned
                                    || audiences[t]
                                        .iter()
                                        .all(|&rcv| lane.injector.delivers(h, rcv, now)));
                            let warm = !tt.stateful
                                || warm_after_rejoin(lane.injector.rejoined_at(h, now), now, round);
                            let excluded =
                                lane.supervisor.exclude_replica(TaskId::new(ti), h, now);
                            let executes = exec & bit != 0;
                            let ok = executes && host_ok && bc_ok && warm && !excluded;
                            if ok {
                                okm |= bit;
                                if corrupting {
                                    let dst =
                                        &mut rep_vals[(i * n + li) * max_out..][..n_out];
                                    let cidx = lane_cell[li];
                                    dst.copy_from_slice(
                                        &cell_outs[cidx * n_out..(cidx + 1) * n_out],
                                    );
                                    lane.injector.corrupt(h, now, dst, &mut lane.rng);
                                }
                                // Fast path: `corrupts()` guarantees the
                                // corrupt hook neither mutates nor draws,
                                // so the call is skipped entirely.
                            }
                            if any_obs && obs[li] {
                                let tally = &mut tallies[li];
                                let hi = h.index();
                                if (host_up[hi] & bit != 0) != host_ok {
                                    host_up[hi] ^= bit;
                                    if host_ok {
                                        hosts_up_count[li] += 1;
                                        tally.host_up_transitions += 1;
                                        lane.sink.event(&ObsEvent::HostUp {
                                            at: now.as_u64(),
                                            host: hi,
                                        });
                                    } else {
                                        hosts_up_count[li] -= 1;
                                        tally.host_down_transitions += 1;
                                        lane.sink.event(&ObsEvent::HostDown {
                                            at: now.as_u64(),
                                            host: hi,
                                        });
                                    }
                                    lane.sink
                                        .set_gauge(names::HOSTS_UP, hosts_up_count[li] as f64);
                                }
                                if host_ok && !bc_ok {
                                    tally.broadcast_fail += 1;
                                }
                                if ok {
                                    tally.replica_ok += 1;
                                } else {
                                    let reason = if !executes {
                                        DropReason::NotExecuted
                                    } else if !host_ok {
                                        DropReason::HostDown
                                    } else if !bc_ok {
                                        DropReason::Broadcast
                                    } else if !warm {
                                        DropReason::Warmup
                                    } else {
                                        DropReason::Excluded
                                    };
                                    tally.drop_reason(reason);
                                    // A not-executed logical task is a
                                    // property of the vote, not of any
                                    // single replica — the Vote event
                                    // below records it as `silent`.
                                    if reason != DropReason::NotExecuted {
                                        lane.sink.event(&ObsEvent::ReplicaDrop {
                                            at: now.as_u64(),
                                            task: t,
                                            host: hi,
                                            reason,
                                        });
                                    }
                                }
                            }
                        }
                        ok_masks[i] = okm;
                        delivered_mask |= okm;
                    }

                    // ---- vote ----
                    let out_base = tt.out_base;
                    for cls in &mut result_classes[parity][tt.out_range()] {
                        cls.clear();
                    }
                    if !corrupting {
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
                    } else {
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
                        }
                    }

                    invocations[t] += 1;
                    delivered.add(t, delivered_mask, all_mask);
                    result_delivered[parity][t] = delivered_mask;

                    // Adaptive vote echo: lane `li`'s delivering hosts are
                    // the replicas whose ok-mask has bit `li` set, so the
                    // fast path needs no materialized replica rows.
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
                        for (li, lane) in lanes.iter_mut().enumerate() {
                            if !obs[li] {
                                continue;
                            }
                            let bit = 1u64 << li;
                            let n_del = ok_masks[..hosts_of.len()]
                                .iter()
                                .filter(|&&m| m & bit != 0)
                                .count();
                            let outcome = if !corrupting {
                                // Uncorrupted delivering rows are equal.
                                if delivered_mask & bit != 0 {
                                    VoteOutcome::Unanimous
                                } else {
                                    VoteOutcome::Silent
                                }
                            } else {
                                for (i, ok) in
                                    lane_rep_ok[..hosts_of.len()].iter_mut().enumerate()
                                {
                                    *ok = ok_masks[i] & bit != 0;
                                    if *ok {
                                        lane_rep_vals[i * n_out..(i + 1) * n_out]
                                            .copy_from_slice(
                                                &rep_vals[(i * n + li) * max_out..][..n_out],
                                            );
                                    }
                                }
                                crate::voting::classify_outcome(
                                    &lane_rep_vals[..hosts_of.len() * n_out],
                                    &lane_rep_ok[..hosts_of.len()],
                                    n_out,
                                )
                            };
                            tallies[li].vote(outcome, n_del);
                            lane.sink.event(&ObsEvent::Vote {
                                at: now.as_u64(),
                                task: t,
                                outcome,
                                delivered: n_del,
                                replicas: hosts_of.len(),
                            });
                        }
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
            for (li, lane) in lanes.iter_mut().enumerate() {
                if obs[li] {
                    tallies[li].flush(&mut lane.sink, rounds, &out, li);
                }
            }
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
}
