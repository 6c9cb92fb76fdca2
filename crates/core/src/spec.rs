//! Specifications: communicators, tasks and the race-freedom restrictions.
//!
//! A specification `S = (tset, cset)` (§2 of the paper) consists of
//! communicator declarations — typed variables accessible with a fixed
//! period and carrying a *logical reliability constraint* (LRC) — and task
//! declarations — atomic periodic functions reading and writing communicator
//! *instances*. The latest read instant and earliest write instant of a task
//! implicitly define its *logical execution time* (LET).
//!
//! [`SpecificationBuilder::build`] enforces the paper's four restrictions:
//!
//! 1. every task reads and writes at least one communicator;
//! 2. the read time is strictly earlier than the write time;
//! 3. no two tasks write to the same communicator;
//! 4. no task writes a communicator instance multiple times.
//!
//! Together these make the specification *race-free*: each communicator is
//! written by at most one task at any instant.

use crate::error::CoreError;
use crate::ids::{CommunicatorId, TaskId};
use crate::prob::Reliability;
use crate::time::{lcm_all, Period, Tick};
use crate::value::{Value, ValueType};
use std::collections::BTreeSet;
use std::fmt;

/// The input failure model of a task (§2): what a task does when one or
/// more of its inputs carry the unreliable value ⊥ at read time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureModel {
    /// Model 1: if *any* input is unreliable, the task fails to execute.
    Series,
    /// Model 2: unreliable inputs are replaced by defaults; the task fails
    /// only if *all* inputs are unreliable.
    Parallel,
    /// Model 3: unreliable inputs are replaced by defaults; the task
    /// executes even if all inputs are unreliable.
    Independent,
}

impl FailureModel {
    /// The paper's numeric encoding (1, 2, 3).
    pub fn number(self) -> u8 {
        match self {
            FailureModel::Series => 1,
            FailureModel::Parallel => 2,
            FailureModel::Independent => 3,
        }
    }
}

impl fmt::Display for FailureModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureModel::Series => write!(f, "series"),
            FailureModel::Parallel => write!(f, "parallel"),
            FailureModel::Independent => write!(f, "independent"),
        }
    }
}

/// An access to a specific instance of a communicator.
///
/// Instance numbers are 0-based: instance `i` of a communicator with period
/// `π` denotes the update due at instant `π · i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CommAccess {
    /// The accessed communicator.
    pub comm: CommunicatorId,
    /// The 0-based instance number.
    pub instance: u64,
}

impl CommAccess {
    /// Creates an access to instance `instance` of `comm`.
    pub const fn new(comm: CommunicatorId, instance: u64) -> Self {
        CommAccess { comm, instance }
    }
}

impl fmt::Display for CommAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.comm, self.instance)
    }
}

/// Declaration of a communicator: name, type, initial value, accessibility
/// period and (optionally) a logical reliability constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct CommunicatorDecl {
    name: String,
    ty: ValueType,
    init: Value,
    period: Period,
    lrc: Option<Reliability>,
    sensor_input: bool,
}

impl CommunicatorDecl {
    /// Creates a declaration with initial value [`ValueType::zero`] and no
    /// LRC.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ZeroPeriod`] if `period_ticks` is zero.
    pub fn new(
        name: impl Into<String>,
        ty: ValueType,
        period_ticks: u64,
    ) -> Result<Self, CoreError> {
        Ok(CommunicatorDecl {
            name: name.into(),
            ty,
            init: ty.zero(),
            period: Period::new(period_ticks)?,
            lrc: None,
            sensor_input: false,
        })
    }

    /// Sets the logical reliability constraint µ ∈ (0, 1].
    pub fn with_lrc(mut self, lrc: Reliability) -> Self {
        self.lrc = Some(lrc);
        self
    }

    /// Sets the initial value.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DefaultMismatch`] if `init` does not inhabit the
    /// declared type.
    pub fn with_init(mut self, init: Value) -> Result<Self, CoreError> {
        if !init.has_type(self.ty) {
            return Err(CoreError::DefaultMismatch {
                task: self.name.clone(),
                detail: format!("initial value {init} does not have type {}", self.ty),
            });
        }
        self.init = init;
        Ok(self)
    }

    /// Marks this communicator as an *input communicator* updated by the
    /// environment through one or more sensors. Input communicators must
    /// not be written by any task.
    pub fn from_sensor(mut self) -> Self {
        self.sensor_input = true;
        self
    }

    /// The communicator's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The payload type.
    pub fn value_type(&self) -> ValueType {
        self.ty
    }

    /// The initial value.
    pub fn init(&self) -> Value {
        self.init
    }

    /// The accessibility period π.
    pub fn period(&self) -> Period {
        self.period
    }

    /// The logical reliability constraint, if declared.
    pub fn lrc(&self) -> Option<Reliability> {
        self.lrc
    }

    /// `true` if updated by the environment (sensors) rather than a task.
    pub fn is_sensor_input(&self) -> bool {
        self.sensor_input
    }
}

/// Declaration of a task: name, input/output accesses, input failure model
/// and default values.
///
/// Built fluently:
///
/// ```
/// use logrel_core::{FailureModel, TaskDecl, Value, CommunicatorId};
///
/// let c0 = CommunicatorId::new(0);
/// let c1 = CommunicatorId::new(1);
/// let t = TaskDecl::new("ctrl")
///     .reads(c0, 1)
///     .writes(c1, 3)
///     .model(FailureModel::Parallel)
///     .default_value(Value::Float(0.0));
/// assert_eq!(t.name(), "ctrl");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TaskDecl {
    name: String,
    inputs: Vec<CommAccess>,
    outputs: Vec<CommAccess>,
    model: FailureModel,
    defaults: Vec<Value>,
}

impl TaskDecl {
    /// Creates a task declaration with no accesses and the series failure
    /// model.
    pub fn new(name: impl Into<String>) -> Self {
        TaskDecl {
            name: name.into(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            model: FailureModel::Series,
            defaults: Vec::new(),
        }
    }

    /// Adds an input access to instance `instance` of `comm`.
    pub fn reads(mut self, comm: CommunicatorId, instance: u64) -> Self {
        self.inputs.push(CommAccess::new(comm, instance));
        self
    }

    /// Adds an output access to instance `instance` of `comm`.
    pub fn writes(mut self, comm: CommunicatorId, instance: u64) -> Self {
        self.outputs.push(CommAccess::new(comm, instance));
        self
    }

    /// Sets the input failure model.
    pub fn model(mut self, model: FailureModel) -> Self {
        self.model = model;
        self
    }

    /// Appends one default value (aligned positionally with the inputs).
    pub fn default_value(mut self, value: Value) -> Self {
        self.defaults.push(value);
        self
    }

    /// Replaces the full default list.
    pub fn defaults(mut self, values: Vec<Value>) -> Self {
        self.defaults = values;
        self
    }

    /// The task's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The input access list.
    pub fn inputs(&self) -> &[CommAccess] {
        &self.inputs
    }

    /// The output access list.
    pub fn outputs(&self) -> &[CommAccess] {
        &self.outputs
    }

    /// The input failure model.
    pub fn failure_model(&self) -> FailureModel {
        self.model
    }

    /// The default value list (positional with [`TaskDecl::inputs`]).
    pub fn default_values(&self) -> &[Value] {
        &self.defaults
    }

    /// The set of communicators read by the task (`icset_t` in the paper),
    /// deduplicated.
    pub fn input_comm_set(&self) -> BTreeSet<CommunicatorId> {
        self.inputs.iter().map(|a| a.comm).collect()
    }

    /// The set of communicators written by the task, deduplicated.
    pub fn output_comm_set(&self) -> BTreeSet<CommunicatorId> {
        self.outputs.iter().map(|a| a.comm).collect()
    }
}

/// A validated, race-free specification `S = (tset, cset)`.
///
/// Obtain one through [`Specification::builder`]. All derived quantities
/// (read/write times, round period π_S, the writer of each communicator)
/// are precomputed at build time.
#[derive(Debug, Clone, PartialEq)]
pub struct Specification {
    comms: Vec<CommunicatorDecl>,
    tasks: Vec<TaskDecl>,
    round: Period,
    read_times: Vec<Tick>,
    write_times: Vec<Tick>,
    writer_of: Vec<Option<TaskId>>,
}

impl Specification {
    /// Creates a fresh [`SpecificationBuilder`].
    pub fn builder() -> SpecificationBuilder {
        SpecificationBuilder::default()
    }

    /// Number of communicators.
    pub fn communicator_count(&self) -> usize {
        self.comms.len()
    }

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// The declaration of communicator `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this specification's builder.
    pub fn communicator(&self, id: CommunicatorId) -> &CommunicatorDecl {
        &self.comms[id.index()]
    }

    /// The declaration of task `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this specification's builder.
    pub fn task(&self, id: TaskId) -> &TaskDecl {
        &self.tasks[id.index()]
    }

    /// Iterates over all communicator ids in declaration order.
    pub fn communicator_ids(&self) -> impl Iterator<Item = CommunicatorId> + '_ {
        (0..self.comms.len() as u32).map(CommunicatorId::new)
    }

    /// Iterates over all task ids in declaration order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len() as u32).map(TaskId::new)
    }

    /// Looks up a communicator by name.
    pub fn find_communicator(&self, name: &str) -> Option<CommunicatorId> {
        self.comms
            .iter()
            .position(|c| c.name() == name)
            .map(|i| CommunicatorId::new(i as u32))
    }

    /// Looks up a task by name.
    pub fn find_task(&self, name: &str) -> Option<TaskId> {
        self.tasks
            .iter()
            .position(|t| t.name() == name)
            .map(|i| TaskId::new(i as u32))
    }

    /// The round period π_S with which all tasks repeat: the least multiple
    /// of `lcm(cset)` covering every declared access instant.
    pub fn round_period(&self) -> Period {
        self.round
    }

    /// The read time of task `t`: the latest input access instant.
    pub fn read_time(&self, t: TaskId) -> Tick {
        self.read_times[t.index()]
    }

    /// The write time of task `t`: the earliest output access instant.
    pub fn write_time(&self, t: TaskId) -> Tick {
        self.write_times[t.index()]
    }

    /// The unique task writing communicator `c`, if any (`None` means the
    /// communicator is environment-fed or constant).
    pub fn writer(&self, c: CommunicatorId) -> Option<TaskId> {
        self.writer_of[c.index()]
    }

    /// `true` if communicator `c` is updated by the environment through
    /// sensors.
    pub fn is_sensor_input(&self, c: CommunicatorId) -> bool {
        self.comms[c.index()].is_sensor_input()
    }

    /// The instant of an access within a round: `period(comm) · instance`.
    pub fn access_instant(&self, access: CommAccess) -> Tick {
        // Validated at build time, so the multiplication cannot overflow.
        Tick::new(self.comms[access.comm.index()].period().as_u64() * access.instance)
    }

    /// The largest admissible instance number of communicator `c`
    /// (`π_S / π_c`).
    pub fn max_instance(&self, c: CommunicatorId) -> u64 {
        self.comms[c.index()].period().instances_per(self.round)
    }

    /// Iterates over the update instants of communicator `c` within one
    /// round, i.e. `0, π_c, 2·π_c, …` strictly below π_S.
    pub fn update_instants(&self, c: CommunicatorId) -> impl Iterator<Item = Tick> + '_ {
        let period = self.comms[c.index()].period().as_u64();
        (0..self.round.as_u64() / period).map(move |k| Tick::new(k * period))
    }

}

/// Incremental builder for [`Specification`].
#[derive(Debug, Default, Clone)]
pub struct SpecificationBuilder {
    comms: Vec<CommunicatorDecl>,
    tasks: Vec<TaskDecl>,
}

impl SpecificationBuilder {
    /// Declares a communicator, returning its id.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DuplicateName`] if the name is taken.
    pub fn communicator(&mut self, decl: CommunicatorDecl) -> Result<CommunicatorId, CoreError> {
        if self.comms.iter().any(|c| c.name() == decl.name()) {
            return Err(CoreError::DuplicateName {
                kind: "communicator",
                name: decl.name().to_owned(),
            });
        }
        let id = CommunicatorId::new(self.comms.len() as u32);
        self.comms.push(decl);
        Ok(id)
    }

    /// Declares a task, returning its id.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DuplicateName`] if the name is taken, or
    /// [`CoreError::UnknownId`] if the task references an undeclared
    /// communicator.
    pub fn task(&mut self, decl: TaskDecl) -> Result<TaskId, CoreError> {
        if self.tasks.iter().any(|t| t.name() == decl.name()) {
            return Err(CoreError::DuplicateName {
                kind: "task",
                name: decl.name().to_owned(),
            });
        }
        for a in decl.inputs().iter().chain(decl.outputs()) {
            if a.comm.index() >= self.comms.len() {
                return Err(CoreError::UnknownId {
                    kind: "communicator",
                    id: a.comm.to_string(),
                });
            }
        }
        let id = TaskId::new(self.tasks.len() as u32);
        self.tasks.push(decl);
        Ok(id)
    }

    /// Validates all restrictions and produces the [`Specification`].
    ///
    /// # Errors
    ///
    /// Any violation of the well-formedness restrictions listed in the
    /// [module documentation](self) yields the corresponding
    /// [`CoreError`] variant.
    pub fn build(self) -> Result<Specification, CoreError> {
        let SpecificationBuilder { comms, tasks } = self;
        if tasks.is_empty() {
            return Err(CoreError::EmptySpecification);
        }

        // Restriction (1) + LET computation + restriction (2).
        let mut read_times = Vec::with_capacity(tasks.len());
        let mut write_times = Vec::with_capacity(tasks.len());
        let mut max_access = Tick::ZERO;
        for task in &tasks {
            if task.inputs().is_empty() {
                return Err(CoreError::TaskWithoutAccess {
                    task: task.name().to_owned(),
                    missing_inputs: true,
                });
            }
            if task.outputs().is_empty() {
                return Err(CoreError::TaskWithoutAccess {
                    task: task.name().to_owned(),
                    missing_inputs: false,
                });
            }
            let mut read = Tick::ZERO;
            for &a in task.inputs() {
                let at = Tick::of_instance(comms[a.comm.index()].period(), a.instance)?;
                read = read.max(at);
                max_access = max_access.max(at);
            }
            let mut write: Option<Tick> = None;
            for &a in task.outputs() {
                let at = Tick::of_instance(comms[a.comm.index()].period(), a.instance)?;
                write = Some(write.map_or(at, |w| w.min(at)));
                max_access = max_access.max(at);
            }
            let write = write.expect("outputs nonempty");
            if read >= write {
                return Err(CoreError::ReadNotBeforeWrite {
                    task: task.name().to_owned(),
                    read: read.as_u64(),
                    write: write.as_u64(),
                });
            }
            read_times.push(read);
            write_times.push(write);
        }

        // Round period π_S = lcm(cset) · ⌈max access instant / lcm⌉.
        let lcm = lcm_all(comms.iter().map(|c| c.period()))?;
        let multiples = max_access.as_u64().div_ceil(lcm.as_u64()).max(1);
        let round = Period::new(lcm.as_u64().checked_mul(multiples).ok_or(
            CoreError::TimeOverflow {
                context: "computing round period".to_owned(),
            },
        )?)?;

        // Instance range checks.
        for task in &tasks {
            for &a in task.inputs().iter().chain(task.outputs()) {
                let max = comms[a.comm.index()].period().instances_per(round);
                if a.instance > max {
                    return Err(CoreError::InstanceOutOfRange {
                        task: task.name().to_owned(),
                        communicator: comms[a.comm.index()].name().to_owned(),
                        instance: a.instance,
                        max,
                    });
                }
            }
        }

        // Restrictions (3) and (4), plus environment-communicator checks.
        let mut writer_of: Vec<Option<TaskId>> = vec![None; comms.len()];
        for (ti, task) in tasks.iter().enumerate() {
            let tid = TaskId::new(ti as u32);
            let mut written_instances: BTreeSet<CommAccess> = BTreeSet::new();
            for &a in task.outputs() {
                let comm = &comms[a.comm.index()];
                if comm.is_sensor_input() {
                    return Err(CoreError::WriteToEnvironment {
                        task: task.name().to_owned(),
                        communicator: comm.name().to_owned(),
                    });
                }
                if !written_instances.insert(a) {
                    return Err(CoreError::DuplicateInstanceWrite {
                        task: task.name().to_owned(),
                        communicator: comm.name().to_owned(),
                        instance: a.instance,
                    });
                }
                match writer_of[a.comm.index()] {
                    None => writer_of[a.comm.index()] = Some(tid),
                    Some(other) if other == tid => {}
                    Some(other) => {
                        return Err(CoreError::MultipleWriters {
                            communicator: comm.name().to_owned(),
                            first: tasks[other.index()].name().to_owned(),
                            second: task.name().to_owned(),
                        });
                    }
                }
            }
        }

        // Default list validation.
        for task in &tasks {
            let needs_defaults = !matches!(task.failure_model(), FailureModel::Series);
            if needs_defaults && task.default_values().len() != task.inputs().len() {
                return Err(CoreError::DefaultMismatch {
                    task: task.name().to_owned(),
                    detail: format!(
                        "failure model {} requires {} defaults, found {}",
                        task.failure_model(),
                        task.inputs().len(),
                        task.default_values().len()
                    ),
                });
            }
            for (i, v) in task.default_values().iter().enumerate() {
                if i >= task.inputs().len() {
                    return Err(CoreError::DefaultMismatch {
                        task: task.name().to_owned(),
                        detail: format!(
                            "{} defaults for {} inputs",
                            task.default_values().len(),
                            task.inputs().len()
                        ),
                    });
                }
                let comm = &comms[task.inputs()[i].comm.index()];
                if !v.is_reliable() || !v.has_type(comm.value_type()) {
                    return Err(CoreError::DefaultMismatch {
                        task: task.name().to_owned(),
                        detail: format!(
                            "default {v} for input `{}` must be a reliable {}",
                            comm.name(),
                            comm.value_type()
                        ),
                    });
                }
            }
        }

        Ok(Specification {
            comms,
            tasks,
            round,
            read_times,
            write_times,
            writer_of,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ValueType;

    fn comm(name: &str, period: u64) -> CommunicatorDecl {
        CommunicatorDecl::new(name, ValueType::Float, period).unwrap()
    }

    /// Builds the paper's Fig. 1 specification.
    fn fig1() -> (Specification, TaskId) {
        let mut b = Specification::builder();
        let c1 = b.communicator(comm("c1", 2)).unwrap();
        let c2 = b.communicator(comm("c2", 3)).unwrap();
        let c3 = b.communicator(comm("c3", 4)).unwrap();
        let c4 = b.communicator(comm("c4", 2)).unwrap();
        let t = b
            .task(
                TaskDecl::new("t")
                    .reads(c1, 1)
                    .reads(c2, 1)
                    .writes(c3, 2)
                    .writes(c4, 5),
            )
            .unwrap();
        (b.build().unwrap(), t)
    }

    #[test]
    fn fig1_let_is_three_to_eight() {
        let (spec, t) = fig1();
        assert_eq!(spec.read_time(t), Tick::new(3));
        assert_eq!(spec.write_time(t), Tick::new(8));
        assert_eq!(spec.round_period().as_u64(), 12);
    }

    #[test]
    fn fig1_lookup_and_writers() {
        let (spec, t) = fig1();
        let c3 = spec.find_communicator("c3").unwrap();
        let c1 = spec.find_communicator("c1").unwrap();
        assert_eq!(spec.writer(c3), Some(t));
        assert_eq!(spec.writer(c1), None);
        assert_eq!(spec.find_task("t"), Some(t));
        assert_eq!(spec.find_task("nope"), None);
        assert_eq!(spec.max_instance(c1), 6);
        assert_eq!(spec.max_instance(c3), 3);
    }

    #[test]
    fn update_instants_enumerate_one_round() {
        let (spec, _) = fig1();
        let c2 = spec.find_communicator("c2").unwrap();
        let instants: Vec<u64> = spec.update_instants(c2).map(|t| t.as_u64()).collect();
        assert_eq!(instants, vec![0, 3, 6, 9]);
    }

    #[test]
    fn empty_spec_rejected() {
        let mut b = Specification::builder();
        b.communicator(comm("c", 2)).unwrap();
        assert_eq!(b.build().unwrap_err(), CoreError::EmptySpecification);
    }

    #[test]
    fn restriction_one_missing_inputs() {
        let mut b = Specification::builder();
        let c = b.communicator(comm("c", 2)).unwrap();
        b.task(TaskDecl::new("t").writes(c, 1)).unwrap();
        assert!(matches!(
            b.build().unwrap_err(),
            CoreError::TaskWithoutAccess {
                missing_inputs: true,
                ..
            }
        ));
    }

    #[test]
    fn restriction_one_missing_outputs() {
        let mut b = Specification::builder();
        let c = b.communicator(comm("c", 2)).unwrap();
        b.task(TaskDecl::new("t").reads(c, 0)).unwrap();
        assert!(matches!(
            b.build().unwrap_err(),
            CoreError::TaskWithoutAccess {
                missing_inputs: false,
                ..
            }
        ));
    }

    #[test]
    fn restriction_two_read_before_write() {
        let mut b = Specification::builder();
        let c = b.communicator(comm("c", 2)).unwrap();
        let d = b.communicator(comm("d", 2)).unwrap();
        b.task(TaskDecl::new("t").reads(c, 1).writes(d, 1)).unwrap();
        assert!(matches!(
            b.build().unwrap_err(),
            CoreError::ReadNotBeforeWrite { read: 2, write: 2, .. }
        ));
    }

    #[test]
    fn restriction_three_single_writer() {
        let mut b = Specification::builder();
        let c = b.communicator(comm("c", 2)).unwrap();
        let d = b.communicator(comm("d", 2)).unwrap();
        b.task(TaskDecl::new("a").reads(c, 0).writes(d, 1)).unwrap();
        b.task(TaskDecl::new("b").reads(c, 0).writes(d, 2)).unwrap();
        assert!(matches!(
            b.build().unwrap_err(),
            CoreError::MultipleWriters { .. }
        ));
    }

    #[test]
    fn restriction_four_duplicate_instance_write() {
        let mut b = Specification::builder();
        let c = b.communicator(comm("c", 2)).unwrap();
        let d = b.communicator(comm("d", 2)).unwrap();
        b.task(TaskDecl::new("a").reads(c, 0).writes(d, 1).writes(d, 1))
            .unwrap();
        assert!(matches!(
            b.build().unwrap_err(),
            CoreError::DuplicateInstanceWrite { instance: 1, .. }
        ));
    }

    #[test]
    fn multiple_distinct_instance_writes_are_allowed() {
        let mut b = Specification::builder();
        let c = b.communicator(comm("c", 2)).unwrap();
        let d = b.communicator(comm("d", 2)).unwrap();
        b.task(TaskDecl::new("a").reads(c, 0).writes(d, 1).writes(d, 2))
            .unwrap();
        assert!(b.build().is_ok());
    }

    #[test]
    fn instance_out_of_range_rejected() {
        let mut b = Specification::builder();
        let c = b.communicator(comm("c", 2)).unwrap();
        let d = b.communicator(comm("d", 2)).unwrap();
        // round will be lcm=2 scaled to max access 20 -> 20; instance 10 of c ok,
        // instance 11 (instant 22) exceeds.
        b.task(TaskDecl::new("a").reads(c, 0).writes(d, 10)).unwrap();
        assert!(b.clone().build().is_ok());
        let mut b2 = b;
        b2.task(TaskDecl::new("b").reads(c, 11).writes(d, 9)).unwrap();
        // read 22 >= write 18 triggers ReadNotBeforeWrite first, so use a
        // fresh builder exercising only the range check.
        let mut b3 = Specification::builder();
        let c = b3.communicator(comm("c", 3)).unwrap();
        let d = b3.communicator(comm("d", 2)).unwrap();
        // accesses: read c@0=0, write d@1=2 -> round lcm(3,2)=6; instance 1 of c fine.
        // Add a second task reading c instance 2 (instant 6 = round, allowed: max=2).
        let e = b3.communicator(comm("e", 6)).unwrap();
        b3.task(TaskDecl::new("a").reads(c, 0).writes(d, 1)).unwrap();
        b3.task(TaskDecl::new("b").reads(c, 1).writes(e, 1)).unwrap();
        assert!(b3.build().is_ok());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = Specification::builder();
        b.communicator(comm("c", 2)).unwrap();
        assert!(matches!(
            b.communicator(comm("c", 3)).unwrap_err(),
            CoreError::DuplicateName { kind: "communicator", .. }
        ));
        let c = CommunicatorId::new(0);
        b.task(TaskDecl::new("t").reads(c, 0).writes(c, 1)).unwrap();
        assert!(matches!(
            b.task(TaskDecl::new("t")).unwrap_err(),
            CoreError::DuplicateName { kind: "task", .. }
        ));
    }

    #[test]
    fn unknown_communicator_in_task_rejected() {
        let mut b = Specification::builder();
        let bogus = CommunicatorId::new(9);
        assert!(matches!(
            b.task(TaskDecl::new("t").reads(bogus, 0)).unwrap_err(),
            CoreError::UnknownId { .. }
        ));
    }

    #[test]
    fn sensor_input_cannot_be_written() {
        let mut b = Specification::builder();
        let s = b
            .communicator(comm("s", 2).from_sensor())
            .unwrap();
        let d = b.communicator(comm("d", 2)).unwrap();
        b.task(TaskDecl::new("t").reads(d, 0).writes(s, 1)).unwrap();
        assert!(matches!(
            b.build().unwrap_err(),
            CoreError::WriteToEnvironment { .. }
        ));
    }

    #[test]
    fn parallel_model_requires_defaults() {
        let mut b = Specification::builder();
        let c = b.communicator(comm("c", 2)).unwrap();
        let d = b.communicator(comm("d", 2)).unwrap();
        b.task(
            TaskDecl::new("t")
                .reads(c, 0)
                .writes(d, 1)
                .model(FailureModel::Parallel),
        )
        .unwrap();
        assert!(matches!(
            b.build().unwrap_err(),
            CoreError::DefaultMismatch { .. }
        ));
    }

    #[test]
    fn default_type_must_match() {
        let mut b = Specification::builder();
        let c = b.communicator(comm("c", 2)).unwrap();
        let d = b.communicator(comm("d", 2)).unwrap();
        b.task(
            TaskDecl::new("t")
                .reads(c, 0)
                .writes(d, 1)
                .model(FailureModel::Independent)
                .default_value(Value::Bool(true)),
        )
        .unwrap();
        assert!(matches!(
            b.build().unwrap_err(),
            CoreError::DefaultMismatch { .. }
        ));
    }

    #[test]
    fn valid_parallel_task_with_defaults() {
        let mut b = Specification::builder();
        let c = b.communicator(comm("c", 2)).unwrap();
        let d = b.communicator(comm("d", 2)).unwrap();
        b.task(
            TaskDecl::new("t")
                .reads(c, 0)
                .writes(d, 1)
                .model(FailureModel::Parallel)
                .default_value(Value::Float(0.5)),
        )
        .unwrap();
        let spec = b.build().unwrap();
        let t = spec.find_task("t").unwrap();
        assert_eq!(spec.task(t).failure_model(), FailureModel::Parallel);
        assert_eq!(spec.task(t).default_values(), &[Value::Float(0.5)]);
    }

    #[test]
    fn lrc_and_init_roundtrip() {
        let decl = comm("c", 10)
            .with_lrc(Reliability::new(0.99).unwrap())
            .with_init(Value::Float(7.0))
            .unwrap();
        assert_eq!(decl.lrc().unwrap().get(), 0.99);
        assert_eq!(decl.init(), Value::Float(7.0));
        assert!(comm("c", 10).with_init(Value::Bool(true)).is_err());
    }

    #[test]
    fn icset_and_ocset_deduplicate() {
        let c0 = CommunicatorId::new(0);
        let c1 = CommunicatorId::new(1);
        let t = TaskDecl::new("t").reads(c0, 0).reads(c0, 1).writes(c1, 1);
        assert_eq!(t.input_comm_set().len(), 1);
        assert_eq!(t.output_comm_set().len(), 1);
    }

    #[test]
    fn failure_model_numbers() {
        assert_eq!(FailureModel::Series.number(), 1);
        assert_eq!(FailureModel::Parallel.number(), 2);
        assert_eq!(FailureModel::Independent.number(), 3);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Random layered pipelines that are valid by construction.
        fn arb_spec() -> impl Strategy<Value = Specification> {
            (
                proptest::collection::vec(1u64..20, 2..6), // comm periods
                1u64..8,                                    // write gap
            )
                .prop_map(|(periods, gap)| {
                    let mut b = Specification::builder();
                    let comms: Vec<CommunicatorId> = periods
                        .iter()
                        .enumerate()
                        .map(|(i, &p)| {
                            b.communicator(comm(&format!("c{i}"), p)).unwrap()
                        })
                        .collect();
                    for w in comms.windows(2) {
                        let (from, to) = (w[0], w[1]);
                        // read instance 0 (instant 0), write instance `gap`
                        // clamped later by validation -- choose instance 1..
                        let name = format!("t{}_{}", from.index(), to.index());
                        b.task(
                            TaskDecl::new(name)
                                .reads(from, 0)
                                .writes(to, gap),
                        )
                        .unwrap();
                    }
                    b.build().unwrap()
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]
            #[test]
            fn valid_specs_satisfy_global_invariants(spec in arb_spec()) {
                let round = spec.round_period().as_u64();
                for c in spec.communicator_ids() {
                    // The round is a common multiple of every period.
                    prop_assert_eq!(round % spec.communicator(c).period().as_u64(), 0);
                }
                for t in spec.task_ids() {
                    prop_assert!(spec.read_time(t) < spec.write_time(t));
                    prop_assert!(spec.write_time(t).as_u64() <= round);
                    for &a in spec.task(t).inputs().iter().chain(spec.task(t).outputs()) {
                        prop_assert!(a.instance <= spec.max_instance(a.comm));
                    }
                }
                // Single-writer: every communicator's writer is consistent
                // with the task output lists.
                for c in spec.communicator_ids() {
                    let writers: Vec<_> = spec
                        .task_ids()
                        .filter(|&t| spec.task(t).output_comm_set().contains(&c))
                        .collect();
                    prop_assert!(writers.len() <= 1);
                    prop_assert_eq!(spec.writer(c), writers.first().copied());
                }
            }

            #[test]
            fn update_instants_cover_exactly_one_round(spec in arb_spec()) {
                let round = spec.round_period().as_u64();
                for c in spec.communicator_ids() {
                    let period = spec.communicator(c).period().as_u64();
                    let instants: Vec<u64> =
                        spec.update_instants(c).map(|t| t.as_u64()).collect();
                    prop_assert_eq!(instants.len() as u64, round / period);
                    for (k, at) in instants.iter().enumerate() {
                        prop_assert_eq!(*at, k as u64 * period);
                    }
                }
            }
        }
    }

    #[test]
    fn round_period_covers_latest_access() {
        // lcm(2,3)=6 but task writes at instant 10 -> round = 12.
        let mut b = Specification::builder();
        let c = b.communicator(comm("c", 2)).unwrap();
        let d = b.communicator(comm("d", 3)).unwrap();
        b.task(TaskDecl::new("t").reads(d, 1).writes(c, 5)).unwrap();
        let spec = b.build().unwrap();
        assert_eq!(spec.round_period().as_u64(), 12);
    }
}
