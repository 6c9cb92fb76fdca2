//! Co-simulation: the generated E-code drives an independent platform
//! implementation of the runtime semantics.
//!
//! [`crate::kernel`] interprets the specification directly; here the same
//! semantics is reconstructed from the *compiled artefact*: one
//! [`EMachine`] per host executes its generated E-code, and a shared
//! [`Platform`] implements the drivers (sensor refresh, voting updates,
//! input latching) and the replica execution at release points.
//!
//! Because every host's program contains every communicator update and the
//! machines run in ascending host order at each instant, driver effects
//! are made idempotent per instant and the random draws happen in exactly
//! the kernel's order — so for equal seeds the co-simulation trace is
//! **bit-identical** to the kernel's, which is the strongest equivalence
//! check the code generator can get (see `tests/cosim_equivalence.rs`).

use crate::behavior::BehaviorMap;
use crate::environment::Environment;
use crate::fault::FaultInjector;
use crate::trace::Trace;
use crate::voting::{vote_into, VotingStrategy};
use logrel_core::{
    CommunicatorId, FailureModel, HostId, Implementation, Specification, TaskId, Tick, Value,
};
use logrel_emachine::{generate, DriverOp, EMachine, Platform};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

struct CoPlatform<'a> {
    spec: &'a Specification,
    imp: &'a Implementation,
    behaviors: &'a mut BehaviorMap,
    env: &'a mut dyn Environment,
    injector: &'a mut dyn FaultInjector,
    rng: StdRng,
    voting: VotingStrategy,
    round: u64,
    /// `(comm, slot)` → (writer, output index, rounds back).
    landing: BTreeMap<(CommunicatorId, u64), (TaskId, usize, u64)>,
    comm_values: Vec<Value>,
    latched: Vec<Vec<Value>>,
    /// Start of each task's slice in the flat result buffers.
    out_base: Vec<usize>,
    /// Voted task outputs by round parity, indexed `out_base[t] + out_idx`.
    result_vals: [Vec<Value>; 2],
    /// Whether at least one replica delivered, by round parity.
    result_delivered: [Vec<bool>; 2],
    /// Scratch: flat replica outputs (`replica × arity`) and delivery flags.
    replica_vals: Vec<Value>,
    replica_ok: Vec<bool>,
    /// Scratch: task inputs after default substitution.
    inputs_buf: Vec<Value>,
    /// Per-task partition audiences.
    audiences: Vec<Vec<HostId>>,
    /// Releases collected during the current instant: (task, host).
    pending_releases: Vec<(TaskId, HostId)>,
    /// Idempotence guards: the last instant each driver ran.
    sensor_done: Vec<Option<Tick>>,
    update_done: Vec<Option<Tick>>,
    latch_done: Vec<Vec<Option<Tick>>>,
    advanced: Option<Tick>,
    trace: Trace,
}

impl<'a> CoPlatform<'a> {
    fn advance_if_needed(&mut self, now: Tick) {
        if self.advanced != Some(now) {
            self.advanced = Some(now);
            self.env.advance(now);
        }
    }

    /// Executes the deferred releases of instant `now` in (task, host)
    /// order — the kernel's sampling order.
    fn commit_releases(&mut self, now: Tick) {
        if self.pending_releases.is_empty() {
            return;
        }
        let mut pending = std::mem::take(&mut self.pending_releases);
        pending.sort();
        pending.dedup();
        let round_index = now.as_u64() / self.round;
        let mut by_task: BTreeMap<TaskId, Vec<HostId>> = BTreeMap::new();
        for (t, h) in pending {
            by_task.entry(t).or_default().push(h);
        }
        for (t, hosts) in by_task {
            let decl = self.spec.task(t);
            let raw = &self.latched[t.index()];
            let executes = match decl.failure_model() {
                FailureModel::Series => raw.iter().all(Value::is_reliable),
                FailureModel::Parallel => raw.iter().any(Value::is_reliable),
                FailureModel::Independent => true,
            };
            let n_out = decl.outputs().len();
            let outputs = if executes {
                self.inputs_buf.clear();
                self.inputs_buf
                    .extend(raw.iter().enumerate().map(|(i, &v)| {
                        if v.is_reliable() {
                            v
                        } else {
                            decl.default_values()[i]
                        }
                    }));
                self.behaviors.invoke(self.spec, t, &self.inputs_buf)
            } else {
                Vec::new()
            };
            self.replica_vals.clear();
            self.replica_vals
                .resize(hosts.len() * n_out, Value::Unreliable);
            self.replica_ok.clear();
            let stateful = decl
                .inputs()
                .iter()
                .any(|a| !self.spec.is_sensor_input(a.comm));
            for (i, &h) in hosts.iter().enumerate() {
                let host_ok = self.injector.host_ok(h, now, &mut self.rng);
                let bc_ok = self.injector.broadcast_ok(h, now, &mut self.rng)
                    && self.audiences[t.index()]
                        .iter()
                        .all(|&rcv| self.injector.delivers(h, rcv, now));
                let warm = !stateful
                    || crate::kernel::warm_after_rejoin(
                        self.injector.rejoined_at(h, now),
                        now,
                        self.round,
                    );
                let ok = executes && host_ok && bc_ok && warm;
                if ok {
                    let slice = &mut self.replica_vals[i * n_out..(i + 1) * n_out];
                    slice.copy_from_slice(&outputs);
                    self.injector.corrupt(h, now, slice, &mut self.rng);
                }
                self.replica_ok.push(ok);
            }
            let parity = (round_index % 2) as usize;
            let base = self.out_base[t.index()];
            let delivered = vote_into(
                &self.replica_vals,
                &self.replica_ok,
                n_out,
                self.voting,
                &mut self.result_vals[parity][base..base + n_out],
            );
            let delivered_hosts: Vec<HostId> = hosts
                .iter()
                .zip(&self.replica_ok)
                .filter_map(|(&h, &ok)| ok.then_some(h))
                .collect();
            self.injector
                .observe_vote(t, now, &delivered_hosts, hosts.len());
            self.result_delivered[parity][t.index()] = delivered;
        }
    }
}

impl Platform for CoPlatform<'_> {
    fn call(&mut self, _host: HostId, op: DriverOp, now: Tick) {
        self.advance_if_needed(now);
        match op {
            DriverOp::ReadSensors { comm } => {
                if self.sensor_done[comm.index()] == Some(now) {
                    return; // another host already refreshed it
                }
                self.sensor_done[comm.index()] = Some(now);
                let mut any_ok = false;
                for &s in self.imp.sensors_of(comm) {
                    if self.injector.sensor_ok(s, now, &mut self.rng) {
                        any_ok = true;
                    }
                }
                self.comm_values[comm.index()] = if any_ok {
                    self.env.sense(comm, now)
                } else {
                    Value::Unreliable
                };
            }
            DriverOp::UpdateCommunicator { comm, .. } => {
                if self.update_done[comm.index()] == Some(now) {
                    return;
                }
                self.update_done[comm.index()] = Some(now);
                if self.spec.is_sensor_input(comm) {
                    // The value was staged by ReadSensors just before.
                    self.trace.record(comm, now, self.comm_values[comm.index()]);
                    return;
                }
                let slot = now.as_u64() % self.round;
                let round_index = now.as_u64() / self.round;
                if let Some(&(t, out_idx, rounds_back)) = self.landing.get(&(comm, slot)) {
                    if round_index >= rounds_back {
                        let parity = ((round_index - rounds_back) % 2) as usize;
                        self.comm_values[comm.index()] = if self.result_delivered[parity][t.index()]
                        {
                            self.result_vals[parity][self.out_base[t.index()] + out_idx]
                        } else {
                            Value::Unreliable
                        };
                    }
                }
                self.trace.record(comm, now, self.comm_values[comm.index()]);
                let v = self.comm_values[comm.index()];
                self.env.actuate(comm, v, now);
            }
            DriverOp::LatchInput { task, index } => {
                let index = index as usize;
                if self.latch_done[task.index()][index] == Some(now) {
                    return;
                }
                self.latch_done[task.index()][index] = Some(now);
                let comm = self.spec.task(task).inputs()[index].comm;
                self.latched[task.index()][index] = self.comm_values[comm.index()];
            }
        }
    }

    fn release(&mut self, host: HostId, task: TaskId, now: Tick) {
        self.advance_if_needed(now);
        self.pending_releases.push((task, host));
    }
}

/// Parameters of a co-simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CosimParams {
    /// Number of rounds to execute.
    pub rounds: u64,
    /// RNG seed (shared with the kernel for bit-equality checks).
    pub seed: u64,
    /// The replica voting strategy.
    pub voting: VotingStrategy,
}

/// Runs the system for `params.rounds` rounds by executing the generated
/// E-code of every host, returning the recorded trace.
///
/// With equal inputs and seed, the result is bit-identical to
/// [`crate::kernel::Simulation::run`] on the same (static) implementation.
pub fn run_cosim(
    spec: &Specification,
    imp: &Implementation,
    behaviors: &mut BehaviorMap,
    env: &mut dyn Environment,
    injector: &mut dyn FaultInjector,
    hosts: impl IntoIterator<Item = HostId>,
    params: CosimParams,
) -> Trace {
    let CosimParams {
        rounds,
        seed,
        voting,
    } = params;
    let round = spec.round_period().as_u64();
    let (out_base, total_outputs) = logrel_core::roundprog::output_layout(spec);
    let landing = logrel_core::Calendar::new(spec).landing().clone();
    let audiences = crate::kernel::task_audiences(spec, std::slice::from_ref(imp));
    let mut platform = CoPlatform {
        spec,
        imp,
        behaviors,
        env,
        injector,
        rng: StdRng::seed_from_u64(seed),
        voting,
        round,
        landing,
        comm_values: spec
            .communicator_ids()
            .map(|c| spec.communicator(c).init())
            .collect(),
        latched: spec
            .task_ids()
            .map(|t| vec![Value::Unreliable; spec.task(t).inputs().len()])
            .collect(),
        out_base,
        result_vals: [
            vec![Value::Unreliable; total_outputs],
            vec![Value::Unreliable; total_outputs],
        ],
        result_delivered: [
            vec![false; spec.task_count()],
            vec![false; spec.task_count()],
        ],
        replica_vals: Vec::new(),
        replica_ok: Vec::new(),
        audiences,
        inputs_buf: Vec::new(),
        pending_releases: Vec::new(),
        sensor_done: vec![None; spec.communicator_count()],
        update_done: vec![None; spec.communicator_count()],
        latch_done: spec
            .task_ids()
            .map(|t| vec![None; spec.task(t).inputs().len()])
            .collect(),
        advanced: None,
        trace: Trace::new(spec),
    };

    // One machine per host, run instant by instant in ascending host order
    // (so driver idempotence and RNG ordering match the kernel).
    let mut machines: Vec<EMachine> = hosts
        .into_iter()
        .map(|h| EMachine::new(generate(spec, imp, h), h))
        .collect();
    machines.sort_by_key(EMachine::host);

    let horizon = rounds * round;
    while let Some(next) = machines.iter().filter_map(EMachine::next_trigger).min() {
        if next.as_u64() >= horizon {
            break;
        }
        for m in &mut machines {
            m.run_until(next, &mut platform);
        }
        platform.commit_releases(next);
    }
    platform.trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::ConstantEnvironment;
    use crate::fault::NoFaults;
    use logrel_core::{
        Architecture, CommunicatorDecl, HostDecl, Reliability, SensorDecl, SensorId, TaskDecl,
        ValueType,
    };

    #[test]
    fn cosim_computes_the_pipeline_function() {
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
        let h1 = ab
            .host(HostDecl::new("h1", Reliability::new(0.99).unwrap()))
            .unwrap();
        let h2 = ab
            .host(HostDecl::new("h2", Reliability::new(0.99).unwrap()))
            .unwrap();
        ab.sensor(SensorDecl::new("sn", Reliability::ONE)).unwrap();
        ab.wcet_all(t, 1).unwrap();
        ab.wctt_all(t, 1).unwrap();
        let arch = ab.build();
        let imp = Implementation::builder()
            .assign(t, [h1, h2])
            .bind_sensor(s, SensorId::new(0))
            .build(&spec, &arch)
            .unwrap();
        let mut behaviors = BehaviorMap::new();
        behaviors.register(t, |i: &[Value]| {
            vec![Value::Float(2.0 * i[0].as_float().unwrap_or(0.0))]
        });
        let mut env = ConstantEnvironment::new(Value::Float(21.0));
        let trace = run_cosim(
            &spec,
            &imp,
            &mut behaviors,
            &mut env,
            &mut NoFaults,
            arch.host_ids(),
            CosimParams {
                rounds: 5,
                seed: 1,
                voting: VotingStrategy::AnyReliable,
            },
        );
        let values = trace.values(u);
        assert_eq!(values.len(), 5);
        assert_eq!(values[0].1, Value::Float(0.0)); // init persists at t=0
        for &(_, v) in &values[1..] {
            assert_eq!(v, Value::Float(42.0));
        }
    }
}
