//! The round calendar and the compiled round program.
//!
//! One round (hyperperiod π_S) of a race-free specification is a fixed
//! schedule: communicator updates at every multiple of each period, input
//! latches at the access instants `i·π_c`, and task reads at their read
//! times. [`Calendar`] derives that schedule from the specification alone;
//! [`RoundProgram`] lowers it, together with a replication mapping, into
//! dense index-addressed instruction lists.
//!
//! Both types are *data* — they contain no execution machinery. The
//! simulator (`logrel-sim`) interprets a [`RoundProgram`] in its hot loop;
//! the translation validator (`logrel-validate`) symbolically executes the
//! same program and certifies it against the specification's denotational
//! dataflow. Keeping the model here, with public fields, is what lets the
//! validator inspect compiled kernels without reaching into simulator
//! internals — and lets tests corrupt programs deliberately.

use crate::ids::{CommunicatorId, HostId, SensorId, TaskId};
use crate::implmap::TimeDependentImplementation;
use crate::spec::{FailureModel, Specification};
use crate::value::Value;
use std::collections::BTreeMap;

/// The per-round event schedule of a specification: which instants exist,
/// what lands where, what is latched and read when.
///
/// A pure function of the [`Specification`]; independent of any
/// implementation mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Calendar {
    /// Sorted event instants within one round (offsets in `[0, π_S)`).
    events: Vec<u64>,
    /// `(comm, slot)` → (writer, positional output index, rounds back).
    ///
    /// `rounds_back` is 1 when the write instant equals the round period
    /// (the output lands at slot 0 of the *next* round), 0 otherwise.
    landing: BTreeMap<(CommunicatorId, u64), (TaskId, usize, u64)>,
    /// slot → task input accesses to latch: (task, input index).
    latch_at: BTreeMap<u64, Vec<(TaskId, usize)>>,
    /// slot → tasks whose read time is this slot.
    reads_at: BTreeMap<u64, Vec<TaskId>>,
}

impl Calendar {
    /// Derives the event calendar of one round from the specification's
    /// read/write instants.
    pub fn new(spec: &Specification) -> Self {
        let round = spec.round_period().as_u64();
        let mut events = std::collections::BTreeSet::new();
        for c in spec.communicator_ids() {
            let p = spec.communicator(c).period().as_u64();
            let mut t = 0;
            while t < round {
                events.insert(t);
                t += p;
            }
        }
        let mut landing = BTreeMap::new();
        let mut latch_at: BTreeMap<u64, Vec<(TaskId, usize)>> = BTreeMap::new();
        let mut reads_at: BTreeMap<u64, Vec<TaskId>> = BTreeMap::new();
        for t in spec.task_ids() {
            let read = spec.read_time(t).as_u64();
            events.insert(read);
            reads_at.entry(read).or_default().push(t);
            for (idx, &a) in spec.task(t).inputs().iter().enumerate() {
                let at = spec.access_instant(a).as_u64();
                events.insert(at);
                latch_at.entry(at).or_default().push((t, idx));
            }
            for (idx, &a) in spec.task(t).outputs().iter().enumerate() {
                let abs = spec.access_instant(a).as_u64();
                let slot = abs % round;
                let rounds_back = abs / round; // 0, or 1 when abs == round
                landing.insert((a.comm, slot), (t, idx, rounds_back));
            }
        }
        Calendar {
            events: events.into_iter().collect(),
            landing,
            latch_at,
            reads_at,
        }
    }

    /// Sorted event instants within one round.
    pub fn events(&self) -> &[u64] {
        &self.events
    }

    /// `(comm, slot)` → (writer, positional output index, rounds back).
    pub fn landing(&self) -> &BTreeMap<(CommunicatorId, u64), (TaskId, usize, u64)> {
        &self.landing
    }

    /// slot → task input accesses latched at that instant.
    pub fn latch_at(&self) -> &BTreeMap<u64, Vec<(TaskId, usize)>> {
        &self.latch_at
    }

    /// slot → tasks whose read time is that instant.
    pub fn reads_at(&self) -> &BTreeMap<u64, Vec<TaskId>> {
        &self.reads_at
    }
}

/// The flat output layout shared by the round program, the co-simulation
/// platform and the validator: per task the base index of its outputs in
/// the flat result buffer, plus the total buffer length.
pub fn output_layout(spec: &Specification) -> (Vec<usize>, usize) {
    let mut out_base = Vec::with_capacity(spec.task_count());
    let mut total = 0usize;
    for t in spec.task_ids() {
        out_base.push(total);
        total += spec.task(t).outputs().len();
    }
    (out_base, total)
}

/// One communicator update in a slot's compiled instruction list.
///
/// Update order within a slot is ascending communicator id, exactly the
/// iteration order of the reference interpreter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOp {
    /// Sensor-fed communicator: sample every bound sensor of the current
    /// phase, then sense or ⊥.
    Sensor { comm: u32 },
    /// Task-written instance: take the voted round result landing here.
    /// `out_slot` is the flat index of the writing task's output value.
    Landed {
        comm: u32,
        task: u32,
        out_slot: u32,
        rounds_back: u32,
    },
    /// Non-sensor instance nothing lands on: the value persists.
    Persist { comm: u32 },
}

impl UpdateOp {
    /// The communicator this update writes, uniformly across variants.
    #[must_use]
    pub fn comm(&self) -> usize {
        match *self {
            UpdateOp::Sensor { comm }
            | UpdateOp::Landed { comm, .. }
            | UpdateOp::Persist { comm } => comm as usize,
        }
    }
}

/// One input latch: `latched[dst] = comm_values[comm]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatchOp {
    /// Destination index in the flat latch buffer.
    pub dst: u32,
    /// Source communicator index.
    pub comm: u32,
}

/// The compiled instruction lists of one event instant within a round.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotProgram {
    /// Offset of this instant within the round.
    pub offset: u64,
    /// Communicator updates due at this instant.
    pub updates: Vec<UpdateOp>,
    /// Input latches due at this instant.
    pub latches: Vec<LatchOp>,
    /// Tasks whose read time is this instant, in ascending id order.
    pub reads: Vec<u32>,
}

/// Per-task constants, flattened out of the specification.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskTable {
    /// The task's input failure model.
    pub model: FailureModel,
    /// Base of this task's inputs in the flat latch buffer.
    pub in_base: usize,
    /// Input arity.
    pub n_in: usize,
    /// Base of this task's outputs in the flat round-result buffers.
    pub out_base: usize,
    /// Output arity.
    pub n_out: usize,
    /// Default input values, padded to the input arity (the pad values are
    /// unreachable: they would only be read for an unreliable input of a
    /// task validated to declare defaults).
    pub defaults: Vec<Value>,
    /// Reads at least one task-written communicator: a rejoining replica
    /// must warm up for one full round before voting again.
    pub stateful: bool,
}

impl TaskTable {
    /// The task's slice of the flat latch buffer.
    #[must_use]
    pub fn in_range(&self) -> std::ops::Range<usize> {
        self.in_base..self.in_base + self.n_in
    }

    /// The task's slice of the flat round-result buffers.
    #[must_use]
    pub fn out_range(&self) -> std::ops::Range<usize> {
        self.out_base..self.out_base + self.n_out
    }
}

/// Phase-resolved replication tables: who senses and who executes, with
/// the `BTreeSet` host/sensor sets of the implementation flattened into
/// dense, cache-friendly lists (ascending id order is preserved, which
/// fixes the RNG draw order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTables {
    /// Per communicator: the bound sensors (empty for non-sensor comms).
    pub sensors: Vec<Vec<SensorId>>,
    /// Per task: the replica hosts.
    pub hosts: Vec<Vec<HostId>>,
}

/// A whole system, lowered to dense index-addressed form once so the
/// simulator's hot loop performs no map lookups and no per-replica
/// allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundProgram {
    /// The instruction lists, one per event instant, in instant order.
    pub slots: Vec<SlotProgram>,
    /// Replication tables, one per mapping phase.
    pub phases: Vec<PhaseTables>,
    /// Per-task constants, indexed by task.
    pub tasks: Vec<TaskTable>,
    /// Total input accesses across tasks (= flat latch buffer length).
    pub total_inputs: usize,
    /// Total outputs across tasks (= flat result buffer length).
    pub total_outputs: usize,
    /// Largest input arity of any task.
    pub max_inputs: usize,
    /// Largest output arity of any task.
    pub max_outputs: usize,
    /// Largest replica count of any task in any phase.
    pub max_replicas: usize,
}

impl RoundProgram {
    /// The bytes the program's tables occupy: its struct, every list's
    /// elements, and each list's own header.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        fn list<T>(v: &[T]) -> usize {
            size_of::<Vec<T>>() + std::mem::size_of_val(v)
        }
        let slots: usize = self
            .slots
            .iter()
            .map(|s| list(&s.updates) + list(&s.latches) + list(&s.reads))
            .sum();
        let phases: usize = self
            .phases
            .iter()
            .map(|p| {
                p.sensors.iter().map(|v| list(v)).sum::<usize>()
                    + p.hosts.iter().map(|v| list(v)).sum::<usize>()
            })
            .sum();
        let tasks: usize = self.tasks.iter().map(|t| list(&t.defaults)).sum();
        size_of::<Self>()
            + list(&self.slots)
            + slots
            + list(&self.phases)
            + phases
            + list(&self.tasks)
            + tasks
    }

    /// Lowers the event calendar and replication mapping into the dense
    /// round program interpreted by the simulator.
    pub fn compile(
        spec: &Specification,
        imp: &TimeDependentImplementation,
        calendar: &Calendar,
    ) -> RoundProgram {
        let mut tasks = Vec::with_capacity(spec.task_count());
        let mut in_base = 0usize;
        let (out_bases, total_outputs) = output_layout(spec);
        for t in spec.task_ids() {
            let decl = spec.task(t);
            let (n_in, n_out) = (decl.inputs().len(), decl.outputs().len());
            let defaults = (0..n_in)
                .map(|i| {
                    decl.default_values()
                        .get(i)
                        .copied()
                        .unwrap_or(Value::Unreliable)
                })
                .collect();
            tasks.push(TaskTable {
                model: decl.failure_model(),
                in_base,
                n_in,
                out_base: out_bases[t.index()],
                n_out,
                defaults,
                stateful: decl.inputs().iter().any(|a| !spec.is_sensor_input(a.comm)),
            });
            in_base += n_in;
        }
        let tasks: Vec<TaskTable> = tasks;

        let phases = imp
            .phases()
            .iter()
            .map(|phase| PhaseTables {
                sensors: spec
                    .communicator_ids()
                    .map(|c| {
                        if spec.is_sensor_input(c) {
                            phase.sensors_of(c).iter().copied().collect()
                        } else {
                            Vec::new()
                        }
                    })
                    .collect(),
                hosts: spec
                    .task_ids()
                    .map(|t| phase.hosts_of(t).iter().copied().collect())
                    .collect(),
            })
            .collect::<Vec<PhaseTables>>();

        let slots = calendar
            .events()
            .iter()
            .map(|&slot| {
                let updates = spec
                    .communicator_ids()
                    .filter(|&c| slot % spec.communicator(c).period().as_u64() == 0)
                    .map(|c| {
                        let comm = c.index() as u32;
                        if spec.is_sensor_input(c) {
                            UpdateOp::Sensor { comm }
                        } else if let Some(&(t, out_idx, rounds_back)) =
                            calendar.landing().get(&(c, slot))
                        {
                            UpdateOp::Landed {
                                comm,
                                task: t.index() as u32,
                                out_slot: (tasks[t.index()].out_base + out_idx) as u32,
                                rounds_back: rounds_back as u32,
                            }
                        } else {
                            UpdateOp::Persist { comm }
                        }
                    })
                    .collect();
                let latches = calendar
                    .latch_at()
                    .get(&slot)
                    .map(|l| {
                        l.iter()
                            .map(|&(t, idx)| LatchOp {
                                dst: (tasks[t.index()].in_base + idx) as u32,
                                comm: spec.task(t).inputs()[idx].comm.index() as u32,
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                let reads = calendar
                    .reads_at()
                    .get(&slot)
                    .map(|ts| ts.iter().map(|t| t.index() as u32).collect())
                    .unwrap_or_default();
                SlotProgram {
                    offset: slot,
                    updates,
                    latches,
                    reads,
                }
            })
            .collect();

        RoundProgram {
            slots,
            max_replicas: phases
                .iter()
                .flat_map(|p| p.hosts.iter().map(Vec::len))
                .max()
                .unwrap_or(0),
            phases,
            total_inputs: in_base,
            total_outputs,
            max_inputs: tasks.iter().map(|t| t.n_in).max().unwrap_or(0),
            max_outputs: tasks.iter().map(|t| t.n_out).max().unwrap_or(0),
            tasks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{Architecture, HostDecl, SensorDecl};
    use crate::implmap::Implementation;
    use crate::prob::Reliability;
    use crate::spec::{CommunicatorDecl, TaskDecl};
    use crate::value::ValueType;

    fn fig1_like() -> (Specification, Architecture, TimeDependentImplementation) {
        let mut sb = Specification::builder();
        let s = sb
            .communicator(
                CommunicatorDecl::new("s", ValueType::Float, 5)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let u = sb
            .communicator(CommunicatorDecl::new("u", ValueType::Float, 10).unwrap())
            .unwrap();
        let t = sb.task(TaskDecl::new("f").reads(s, 1).writes(u, 1)).unwrap();
        let spec = sb.build().unwrap();
        let mut ab = Architecture::builder();
        let h = ab
            .host(HostDecl::new("h1", Reliability::new(0.9).unwrap()))
            .unwrap();
        let sn = ab
            .sensor(SensorDecl::new("sn", Reliability::new(0.9).unwrap()))
            .unwrap();
        ab.wcet_all(t, 1).unwrap();
        ab.wctt_all(t, 1).unwrap();
        let arch = ab.build();
        let imp = Implementation::builder()
            .assign(t, [h])
            .bind_sensor(s, sn)
            .build(&spec, &arch)
            .unwrap();
        (spec, arch, imp.into())
    }

    #[test]
    fn calendar_collects_update_latch_and_read_instants() {
        let (spec, _, _) = fig1_like();
        let cal = Calendar::new(&spec);
        // s updates at 0 and 5; u at 0; read of (s,1) latches at 5; read
        // time is 5; write (u,1) lands at slot 0 of the next round.
        assert_eq!(cal.events(), &[0, 5]);
        let u = spec.find_communicator("u").unwrap();
        let t = spec.find_task("f").unwrap();
        assert_eq!(cal.landing().get(&(u, 0)), Some(&(t, 0, 1)));
        assert_eq!(cal.latch_at().get(&5), Some(&vec![(t, 0)]));
        assert_eq!(cal.reads_at().get(&5), Some(&vec![t]));
    }

    #[test]
    fn compile_lays_out_flat_indices() {
        let (spec, _, imp) = fig1_like();
        let cal = Calendar::new(&spec);
        let prog = RoundProgram::compile(&spec, &imp, &cal);
        assert_eq!(prog.slots.len(), 2);
        assert_eq!(prog.total_inputs, 1);
        assert_eq!(prog.total_outputs, 1);
        assert_eq!(prog.tasks[0].in_base, 0);
        assert_eq!(prog.tasks[0].out_base, 0);
        assert!(!prog.tasks[0].stateful);
        // Slot 0 carries the landing of u (rounds_back 1).
        let landed = prog.slots[0]
            .updates
            .iter()
            .find(|op| matches!(op, UpdateOp::Landed { .. }))
            .unwrap();
        assert_eq!(
            *landed,
            UpdateOp::Landed {
                comm: 1,
                task: 0,
                out_slot: 0,
                rounds_back: 1
            }
        );
        let (out_bases, total) = output_layout(&spec);
        assert_eq!(out_bases, vec![0]);
        assert_eq!(total, 1);
    }
}
