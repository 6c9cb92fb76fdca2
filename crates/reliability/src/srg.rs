//! Singular reliability guarantees (SRGs).
//!
//! Given an implementation `I`, the reliability of a task `t` is
//! `λ_t = 1 − Π_{h ∈ I(t)} (1 − hrel(h))` — the probability that at least
//! one replication executes. The SRG `λ_c` of a communicator is defined
//! inductively (§3):
//!
//! * input communicator updated by sensors: `λ_c = 1 − Π (1 − srel(s))`
//!   over the bound sensors (the paper's single-sensor base case
//!   `λ_c = srel(s)` generalised to replicated sensors);
//! * written by task `t` with input failure model…
//!   * *series*: `λ_c = λ_t · Π_{c' ∈ icset_t} λ_{c'}`;
//!   * *parallel*: `λ_c = λ_t · (1 − Π_{c' ∈ icset_t} (1 − λ_{c'}))`;
//!   * *independent*: `λ_c = λ_t`.
//!
//! Like the paper (and classical RBD analysis), the induction treats the
//! reliability of distinct inputs as independent; this is exact for
//! tree-shaped dependency structures and an approximation when a
//! communicator reaches a task along several paths.
//!
//! A non-perfect atomic broadcast (an extension the paper sketches) is
//! folded in by derating each replication: a replication contributes only
//! if its host works *and* its broadcast is delivered, so the effective
//! per-replication reliability is `hrel(h) · brel`.
//!
//! The induction is compiled once per specification and implementation
//! into an `SrgPlan` — the topological order, each communicator's rule
//! and deduplicated inputs, each task's replica hosts and each sensor
//! input's bound sensors — and run generically over the value it computes
//! with: point [`Reliability`]s and pinnable `f64`s here, outward-rounded
//! [`Interval`](crate::interval::Interval)s in [`crate::interval`],
//! polynomials [`Poly`](crate::symbolic::Poly) and their symbol supports
//! in [`crate::symbolic`]. Each run supplies only the leaves — one value
//! per task replica and per sensor — and gets back an [`Srgs`] report in
//! its own carrier.

use crate::error::ReliabilityError;
use logrel_core::graph::CommDependencyGraph;
use logrel_core::{
    Architecture, CommunicatorId, CoreError, FailureModel, HostId, Implementation, Reliability,
    SensorId, Specification, TaskId,
};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

/// A value the §3 induction computes with: the RBD combinators over
/// borrowed (or owned) operands, so no input SRG is cloned or collected.
pub(crate) trait Carrier: Clone {
    /// The reliability of a constant communicator.
    fn one() -> Self;

    /// Series combination `Π x_i` (the empty product is `1`).
    fn series<B: Borrow<Self>>(items: impl IntoIterator<Item = B>) -> Result<Self, CoreError>;

    /// Parallel combination `1 − Π (1 − x_i)`.
    fn parallel<B: Borrow<Self>>(items: impl IntoIterator<Item = B>) -> Result<Self, CoreError>;
}

impl Carrier for Reliability {
    fn one() -> Self {
        Reliability::ONE
    }

    fn series<B: Borrow<Self>>(items: impl IntoIterator<Item = B>) -> Result<Self, CoreError> {
        Reliability::series(items.into_iter().map(|r| *r.borrow()))
    }

    fn parallel<B: Borrow<Self>>(items: impl IntoIterator<Item = B>) -> Result<Self, CoreError> {
        Reliability::parallel(items.into_iter().map(|r| *r.borrow()))
    }
}

/// Plain probabilities with the [`Reliability`] combinators' fold order,
/// so an unpinned run is bit-identical to [`compute_srgs`], but without
/// its `(0, 1]` check: a leaf may be pinned to `0` or `1`.
impl Carrier for f64 {
    fn one() -> Self {
        1.0
    }

    fn series<B: Borrow<Self>>(items: impl IntoIterator<Item = B>) -> Result<Self, CoreError> {
        Ok(items.into_iter().fold(1.0, |acc, x| acc * x.borrow()))
    }

    fn parallel<B: Borrow<Self>>(items: impl IntoIterator<Item = B>) -> Result<Self, CoreError> {
        let mut any = false;
        let q = items.into_iter().fold(1.0, |acc, x| {
            any = true;
            acc * (1.0 - x.borrow())
        });
        if !any {
            return Err(CoreError::InvalidReliability { value: 0.0 });
        }
        Ok(1.0 - q)
    }
}

/// The computed SRGs of every task and communicator of a system, in one
/// carrier: [`SrgReport`],
/// [`IntervalSrgReport`](crate::interval::IntervalSrgReport) or
/// [`SymbolicSrgReport`](crate::symbolic::SymbolicSrgReport).
#[derive(Debug, Clone, PartialEq)]
pub struct Srgs<C> {
    task: Vec<C>,
    comm: Vec<C>,
}

/// Point SRGs, as [`compute_srgs`] returns them.
pub type SrgReport = Srgs<Reliability>;

impl<C> Srgs<C> {
    /// All communicator SRGs in declaration order.
    pub fn communicators(&self) -> &[C] {
        &self.comm
    }

    /// All task reliabilities in declaration order.
    pub fn tasks(&self) -> &[C] {
        &self.task
    }
}

impl<C: Copy> Srgs<C> {
    /// The reliability λ_t of task `t` under the analysed implementation.
    pub fn task(&self, t: TaskId) -> C {
        self.task[t.index()]
    }

    /// The SRG λ_c of communicator `c`.
    pub fn communicator(&self, c: CommunicatorId) -> C {
        self.comm[c.index()]
    }
}

impl SrgReport {
    /// Renders a human-readable table using the names from `spec`.
    pub fn render(&self, spec: &Specification) -> String {
        let mut out = String::new();
        out.push_str("task reliabilities:\n");
        for t in spec.task_ids() {
            out.push_str(&format!(
                "  λ({}) = {:.9}\n",
                spec.task(t).name(),
                self.task(t).get()
            ));
        }
        out.push_str("communicator SRGs:\n");
        for c in spec.communicator_ids() {
            let lrc = spec
                .communicator(c)
                .lrc()
                .map_or(String::from("-"), |m| format!("{:.9}", m.get()));
            out.push_str(&format!(
                "  λ({}) = {:.9}  (LRC {lrc})\n",
                spec.communicator(c).name(),
                self.communicator(c).get()
            ));
        }
        out
    }
}

impl fmt::Display for SrgReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.comm.iter().enumerate() {
            writeln!(f, "c{i}: {}", r.get())?;
        }
        Ok(())
    }
}

/// The point leaf of a replica on `h`: `hrel(h) · brel`.
fn point_replica(arch: &Architecture, h: HostId) -> Result<Reliability, CoreError> {
    Reliability::series([arch.host(h).reliability(), arch.broadcast_reliability()])
}

/// The reliability `λ_t` of `task` under `imp`: the parallel combination of
/// its replications' effective reliabilities (`hrel · brel`).
///
/// # Errors
///
/// Returns [`ReliabilityError::Core`] if the host set is empty (an
/// unvalidated implementation).
pub fn task_reliability(
    arch: &Architecture,
    imp: &Implementation,
    task: TaskId,
) -> Result<Reliability, ReliabilityError> {
    Ok(task_block(imp.hosts_of(task).iter().copied(), |h| {
        point_replica(arch, h)
    })?)
}

/// Computes the SRGs of every task and communicator for a static
/// implementation.
///
/// # Errors
///
/// * [`ReliabilityError::CyclicDependencies`] if the communicator
///   dependency graph contains a cycle with no independent-model task;
/// * [`ReliabilityError::UnboundInput`] if an input communicator has no
///   bound sensor.
///
/// # Example
///
/// The paper's introduction: a task on two hosts with SRG 0.8 each yields
/// `1 − 0.04 = 0.96 ≥ 0.9`.
///
/// ```
/// use logrel_core::prelude::*;
/// use logrel_reliability::compute_srgs;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut sb = Specification::builder();
/// let s = sb.communicator(
///     CommunicatorDecl::new("s", ValueType::Float, 10)?.from_sensor(),
/// )?;
/// let u = sb.communicator(
///     CommunicatorDecl::new("u", ValueType::Float, 10)?
///         .with_lrc(Reliability::new(0.9)?),
/// )?;
/// let t = sb.task(TaskDecl::new("t").reads(s, 0).writes(u, 1))?;
/// let spec = sb.build()?;
///
/// let mut ab = Architecture::builder();
/// let h1 = ab.host(HostDecl::new("h1", Reliability::new(0.8)?))?;
/// let h2 = ab.host(HostDecl::new("h2", Reliability::new(0.8)?))?;
/// let sen = ab.sensor(SensorDecl::new("sen", Reliability::ONE))?;
/// ab.wcet_all(t, 1)?;
/// ab.wctt_all(t, 1)?;
/// let arch = ab.build();
///
/// let imp = Implementation::builder()
///     .assign(t, [h1, h2])
///     .bind_sensor(s, sen)
///     .build(&spec, &arch)?;
/// let report = compute_srgs(&spec, &arch, &imp)?;
/// assert!((report.communicator(u).get() - 0.96).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn compute_srgs(
    spec: &Specification,
    arch: &Architecture,
    imp: &Implementation,
) -> Result<SrgReport, ReliabilityError> {
    point_srgs(&SrgPlan::compile(spec, imp)?, arch)
}

/// [`compute_srgs`] over an already compiled plan.
pub(crate) fn point_srgs(
    plan: &SrgPlan,
    arch: &Architecture,
) -> Result<SrgReport, ReliabilityError> {
    plan.run(
        |_, h| point_replica(arch, h),
        |s| arch.sensor(s).reliability(),
    )
}

/// `λ_t`: the parallel block over the leaves of `hosts`, the replicas of
/// one task. The leaves stream into the block without a buffer; the first
/// failing leaf ends it and is its error.
fn task_block<C: Carrier>(
    hosts: impl IntoIterator<Item = HostId>,
    mut leaf: impl FnMut(HostId) -> Result<C, CoreError>,
) -> Result<C, CoreError> {
    let mut failed = None;
    let block = C::parallel(
        hosts
            .into_iter()
            .map_while(|h| leaf(h).map_err(|e| failed = Some(e)).ok()),
    );
    match failed {
        Some(e) => Err(e),
        None => block,
    }
}

/// How one communicator's SRG is formed.
#[derive(Debug, Clone)]
enum Rule {
    /// A sensor input: the parallel block over its bound sensors,
    /// `SrgPlan::sensors[sensors]`.
    Sensor { sensors: Range<usize> },
    /// Written by task `task` with input failure model `model`, over the
    /// SRGs of the communicators `SrgPlan::inputs[inputs]` (indices,
    /// deduplicated and ascending, the order of
    /// [`logrel_core::TaskDecl::input_comm_set`]).
    Written {
        task: TaskId,
        model: FailureModel,
        inputs: Range<usize>,
    },
    /// A constant communicator: it holds its (reliable) initial value
    /// forever.
    Constant,
}

/// The §3 induction of one specification and implementation, compiled
/// once: every task's replica hosts, and every communicator's [`Rule`] in
/// topological order. [`SrgPlan::run`] is the one traversal of this
/// structure; every carrier — and so every report, enclosure, polynomial
/// and pinned evaluation — is one run of it with its own leaves. The
/// host, sensor and input lists of all tasks and communicators share one
/// buffer each, so compiling allocates a handful of vectors.
#[derive(Debug, Clone)]
pub(crate) struct SrgPlan {
    /// Task `t`'s replica hosts are `hosts[replicas[t]]`.
    replicas: Vec<Range<usize>>,
    hosts: Vec<HostId>,
    /// `(communicator index, rule)` in analysis order.
    steps: Vec<(usize, Rule)>,
    sensors: Vec<SensorId>,
    inputs: Vec<usize>,
}

impl SrgPlan {
    /// Compiles the induction of `spec` under `imp`.
    ///
    /// # Errors
    ///
    /// In this order: [`ReliabilityError::Core`] if some task has no host
    /// (an unvalidated implementation), then the structural conditions of
    /// [`compute_srgs`] — a cycle, then the first unbound input in
    /// analysis order.
    pub(crate) fn compile(
        spec: &Specification,
        imp: &Implementation,
    ) -> Result<SrgPlan, ReliabilityError> {
        let mut replicas = Vec::with_capacity(spec.task_count());
        let mut hosts = Vec::new();
        for t in spec.task_ids() {
            let start = hosts.len();
            hosts.extend(imp.hosts_of(t).iter().copied());
            if hosts.len() == start {
                // The error the empty parallel block of `λ_t` raises.
                return Err(CoreError::InvalidReliability { value: 0.0 }.into());
            }
            replicas.push(start..hosts.len());
        }
        let order = CommDependencyGraph::new(spec)
            .analysis_order()
            .map_err(|cyclic| ReliabilityError::CyclicDependencies {
                communicators: cyclic
                    .iter()
                    .map(|&c| spec.communicator(c).name().to_owned())
                    .collect(),
            })?;
        let mut steps = Vec::with_capacity(order.len());
        let (mut sensors, mut inputs) = (Vec::new(), Vec::new());
        // One task's input set, reused across communicators.
        let mut icset = Vec::new();
        for c in order {
            let rule = if spec.is_sensor_input(c) {
                let start = sensors.len();
                sensors.extend(imp.sensors_of(c).iter().copied());
                if sensors.len() == start {
                    return Err(ReliabilityError::UnboundInput {
                        communicator: spec.communicator(c).name().to_owned(),
                    });
                }
                Rule::Sensor {
                    sensors: start..sensors.len(),
                }
            } else if let Some(t) = spec.writer(c) {
                icset.clear();
                icset.extend(spec.task(t).inputs().iter().map(|a| a.comm.index()));
                icset.sort_unstable();
                icset.dedup();
                let start = inputs.len();
                inputs.extend_from_slice(&icset);
                Rule::Written {
                    task: t,
                    model: spec.task(t).failure_model(),
                    inputs: start..inputs.len(),
                }
            } else {
                Rule::Constant
            };
            steps.push((c.index(), rule));
        }
        Ok(SrgPlan {
            replicas,
            hosts,
            steps,
            sensors,
            inputs,
        })
    }

    /// The whole induction in carrier `C`: `replica(t, h)` is the leaf of
    /// task `t`'s replica on host `h`, `sensor(s)` the leaf of sensor `s`.
    ///
    /// # Errors
    ///
    /// [`ReliabilityError::Core`] if a leaf or a combinator fails (the
    /// point carrier rejects a product that underflows to `0`).
    pub(crate) fn run<C: Carrier>(
        &self,
        mut replica: impl FnMut(TaskId, HostId) -> Result<C, CoreError>,
        sensor: impl FnMut(SensorId) -> C,
    ) -> Result<Srgs<C>, ReliabilityError> {
        let mut task = Vec::with_capacity(self.replicas.len());
        for (i, hosts) in self.replicas.iter().enumerate() {
            let t = TaskId::new(i as u32);
            let hosts = self.hosts[hosts.clone()].iter().copied();
            task.push(task_block(hosts, |h| replica(t, h))?);
        }
        self.run_comms(task, sensor)
    }

    /// The communicator half of [`SrgPlan::run`], over given task blocks.
    fn run_comms<C: Carrier>(
        &self,
        task: Vec<C>,
        mut sensor: impl FnMut(SensorId) -> C,
    ) -> Result<Srgs<C>, ReliabilityError> {
        let mut comm: Vec<Option<C>> = vec![None; self.steps.len()];
        for (c, rule) in &self.steps {
            let lambda = match rule {
                Rule::Sensor { sensors } => {
                    C::parallel(self.sensors[sensors.clone()].iter().map(|&s| sensor(s)))?
                }
                Rule::Written {
                    task: t,
                    model,
                    inputs,
                } => {
                    let lt = &task[t.index()];
                    let inputs = || {
                        self.inputs[inputs.clone()]
                            .iter()
                            .map(|&i| comm[i].as_ref().expect("topological order"))
                    };
                    match model {
                        FailureModel::Independent => lt.clone(),
                        FailureModel::Series => C::series(std::iter::once(lt).chain(inputs()))?,
                        FailureModel::Parallel => C::series([lt, &C::parallel(inputs())?])?,
                    }
                }
                Rule::Constant => C::one(),
            };
            comm[*c] = Some(lambda);
        }
        Ok(Srgs {
            task,
            comm: comm.into_iter().map(|r| r.expect("all computed")).collect(),
        })
    }
}

/// Incremental SRG evaluation for synthesis loops.
///
/// Synthesis explores many candidate implementations that differ from one
/// another in a single task's host set; recomputing every task's parallel
/// block per candidate dominates the cost of
/// [`crate::synthesis::exhaustive_synthesize`]. This helper compiles the
/// `SrgPlan` once and memoizes each task's parallel block keyed by
/// `(task, host bitmask)`, so a candidate reusing a previously seen host
/// set costs one map lookup per task.
///
/// Every queried implementation must share the sensor bindings of the one
/// given to [`SrgComputation::new`] (synthesis rewrites assignments, never
/// bindings).
pub struct SrgComputation<'a> {
    spec: &'a Specification,
    arch: &'a Architecture,
    plan: SrgPlan,
    /// Memoized `λ_t` keyed by `(task, host bitmask)`.
    task_cache: BTreeMap<(TaskId, u64), Reliability>,
}

impl<'a> SrgComputation<'a> {
    /// Prepares the shared state: compiles the plan of `base`, which
    /// validates its dependency structure and sensor bindings once, up
    /// front.
    ///
    /// # Errors
    ///
    /// Same conditions as [`compute_srgs`].
    pub fn new(
        spec: &'a Specification,
        arch: &'a Architecture,
        base: &Implementation,
    ) -> Result<Self, ReliabilityError> {
        Ok(SrgComputation {
            spec,
            arch,
            plan: SrgPlan::compile(spec, base)?,
            task_cache: BTreeMap::new(),
        })
    }

    /// `λ_t` of `task` under `imp`, memoized by the host bitmask.
    fn task_lambda(
        &mut self,
        imp: &Implementation,
        task: TaskId,
    ) -> Result<Reliability, ReliabilityError> {
        let mut mask = 0u64;
        for &h in imp.hosts_of(task) {
            let Some(bit) = 1u64.checked_shl(h.index() as u32) else {
                // > 64 hosts: fall back to the uncached computation.
                return task_reliability(self.arch, imp, task);
            };
            mask |= bit;
        }
        if let Some(&cached) = self.task_cache.get(&(task, mask)) {
            return Ok(cached);
        }
        let lambda = task_reliability(self.arch, imp, task)?;
        self.task_cache.insert((task, mask), lambda);
        Ok(lambda)
    }

    /// Computes the [`SrgReport`] of `imp`, reusing every memoized task
    /// block. The result is identical to [`compute_srgs`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`compute_srgs`] (the structural ones were
    /// already ruled out by [`SrgComputation::new`]).
    pub fn report(&mut self, imp: &Implementation) -> Result<SrgReport, ReliabilityError> {
        let mut task = Vec::with_capacity(self.spec.task_count());
        for t in self.spec.task_ids() {
            task.push(self.task_lambda(imp, t)?);
        }
        let arch = self.arch;
        self.plan.run_comms(task, |s| arch.sensor(s).reliability())
    }

    /// [`crate::analysis::check`] with memoized SRGs: identical verdict,
    /// but every repeated `(task, host set)` block is a cache hit.
    ///
    /// # Errors
    ///
    /// Same conditions as [`compute_srgs`].
    pub fn check(
        &mut self,
        imp: &Implementation,
    ) -> Result<crate::analysis::ReliabilityVerdict, ReliabilityError> {
        let report = self.report(imp)?;
        Ok(crate::analysis::verdict_from_phases(
            self.spec,
            vec![report],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::communicator_block;
    use logrel_core::{
        CommunicatorDecl, HostDecl, HostId, SensorDecl, SensorId, TaskDecl, Value, ValueType,
    };

    fn r(v: f64) -> Reliability {
        Reliability::new(v).unwrap()
    }

    /// sensor -> s -> reader -> l -> ctrl -> u, all hosts/sensors at `rel`.
    fn pipeline(rel: f64) -> (Specification, Architecture, Implementation) {
        let mut sb = Specification::builder();
        let s = sb
            .communicator(
                CommunicatorDecl::new("s", ValueType::Float, 500)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let l = sb
            .communicator(CommunicatorDecl::new("l", ValueType::Float, 100).unwrap())
            .unwrap();
        let u = sb
            .communicator(CommunicatorDecl::new("u", ValueType::Float, 100).unwrap())
            .unwrap();
        let reader = sb
            .task(TaskDecl::new("reader").reads(s, 0).writes(l, 1))
            .unwrap();
        let ctrl = sb
            .task(TaskDecl::new("ctrl").reads(l, 1).writes(u, 3))
            .unwrap();
        let spec = sb.build().unwrap();

        let mut ab = Architecture::builder();
        let h1 = ab.host(HostDecl::new("h1", r(rel))).unwrap();
        let h3 = ab.host(HostDecl::new("h3", r(rel))).unwrap();
        ab.sensor(SensorDecl::new("sen1", r(rel))).unwrap();
        for t in [reader, ctrl] {
            ab.wcet_all(t, 1).unwrap();
            ab.wctt_all(t, 1).unwrap();
        }
        let arch = ab.build();
        let imp = Implementation::builder()
            .assign(reader, [h3])
            .assign(ctrl, [h1])
            .bind_sensor(s, SensorId::new(0))
            .build(&spec, &arch)
            .unwrap();
        (spec, arch, imp)
    }

    #[test]
    fn series_chain_multiplies() {
        let (spec, arch, imp) = pipeline(0.999);
        let report = compute_srgs(&spec, &arch, &imp).unwrap();
        let l = spec.find_communicator("l").unwrap();
        let u = spec.find_communicator("u").unwrap();
        assert!((report.communicator(l).get() - 0.999f64.powi(2)).abs() < 1e-12);
        assert!((report.communicator(u).get() - 0.999f64.powi(3)).abs() < 1e-12);
    }

    #[test]
    fn replication_raises_task_reliability() {
        let (spec, arch, imp) = pipeline(0.999);
        let ctrl = spec.find_task("ctrl").unwrap();
        let imp2 = imp.with_assignment(ctrl, [HostId::new(0), HostId::new(1)]);
        let lt = task_reliability(&arch, &imp2, ctrl).unwrap();
        assert!((lt.get() - (1.0 - 0.001f64 * 0.001)).abs() < 1e-12);
    }

    #[test]
    fn broadcast_reliability_derates_replicas() {
        let (spec, _, _) = pipeline(0.999);
        let mut ab = Architecture::builder();
        let h1 = ab.host(HostDecl::new("h1", r(0.9))).unwrap();
        ab.sensor(SensorDecl::new("sen1", r(1.0))).unwrap();
        for t in spec.task_ids() {
            ab.wcet_all(t, 1).unwrap();
            ab.wctt_all(t, 1).unwrap();
        }
        ab.broadcast_reliability(r(0.5));
        let arch = ab.build();
        let s = spec.find_communicator("s").unwrap();
        let imp = Implementation::builder()
            .assign(spec.find_task("reader").unwrap(), [h1])
            .assign(spec.find_task("ctrl").unwrap(), [h1])
            .bind_sensor(s, SensorId::new(0))
            .build(&spec, &arch)
            .unwrap();
        let lt = task_reliability(&arch, &imp, spec.find_task("ctrl").unwrap()).unwrap();
        assert!((lt.get() - 0.45).abs() < 1e-12);
    }

    #[test]
    fn parallel_model_needs_only_one_input() {
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
        let t = sb
            .task(
                TaskDecl::new("t")
                    .reads(a, 0)
                    .reads(b, 0)
                    .writes(o, 1)
                    .model(FailureModel::Parallel)
                    .default_value(Value::Float(0.0))
                    .default_value(Value::Float(0.0)),
            )
            .unwrap();
        let spec = sb.build().unwrap();
        let mut ab = Architecture::builder();
        let h = ab.host(HostDecl::new("h", r(1.0))).unwrap();
        let s1 = ab.sensor(SensorDecl::new("s1", r(0.9))).unwrap();
        let s2 = ab.sensor(SensorDecl::new("s2", r(0.9))).unwrap();
        ab.wcet_all(t, 1).unwrap();
        ab.wctt_all(t, 1).unwrap();
        let arch = ab.build();
        let imp = Implementation::builder()
            .assign(t, [h])
            .bind_sensor(a, s1)
            .bind_sensor(b, s2)
            .build(&spec, &arch)
            .unwrap();
        let report = compute_srgs(&spec, &arch, &imp).unwrap();
        // λ_o = 1.0 * (1 - 0.1^2) = 0.99
        assert!((report.communicator(o).get() - 0.99).abs() < 1e-12);
    }

    #[test]
    fn independent_model_ignores_inputs() {
        let mut sb = Specification::builder();
        let a = sb
            .communicator(
                CommunicatorDecl::new("a", ValueType::Float, 10)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let o = sb
            .communicator(CommunicatorDecl::new("o", ValueType::Float, 10).unwrap())
            .unwrap();
        let t = sb
            .task(
                TaskDecl::new("t")
                    .reads(a, 0)
                    .writes(o, 1)
                    .model(FailureModel::Independent)
                    .default_value(Value::Float(0.0)),
            )
            .unwrap();
        let spec = sb.build().unwrap();
        let mut ab = Architecture::builder();
        let h = ab.host(HostDecl::new("h", r(0.95))).unwrap();
        let s1 = ab.sensor(SensorDecl::new("s1", r(0.5))).unwrap();
        ab.wcet_all(t, 1).unwrap();
        ab.wctt_all(t, 1).unwrap();
        let arch = ab.build();
        let imp = Implementation::builder()
            .assign(t, [h])
            .bind_sensor(a, s1)
            .build(&spec, &arch)
            .unwrap();
        let report = compute_srgs(&spec, &arch, &imp).unwrap();
        assert!((report.communicator(o).get() - 0.95).abs() < 1e-12);
    }

    #[test]
    fn sensor_replication_parallel_base_case() {
        let (spec, _, _) = pipeline(0.999);
        let s = spec.find_communicator("s").unwrap();
        let mut ab = Architecture::builder();
        let h = ab.host(HostDecl::new("h", r(1.0))).unwrap();
        let s1 = ab.sensor(SensorDecl::new("s1", r(0.999))).unwrap();
        let s2 = ab.sensor(SensorDecl::new("s2", r(0.999))).unwrap();
        for t in spec.task_ids() {
            ab.wcet_all(t, 1).unwrap();
            ab.wctt_all(t, 1).unwrap();
        }
        let arch = ab.build();
        let imp = Implementation::builder()
            .assign(spec.find_task("reader").unwrap(), [h])
            .assign(spec.find_task("ctrl").unwrap(), [h])
            .bind_sensor(s, s1)
            .bind_sensor(s, s2)
            .build(&spec, &arch)
            .unwrap();
        let report = compute_srgs(&spec, &arch, &imp).unwrap();
        assert!((report.communicator(s).get() - (1.0 - 0.001f64 * 0.001)).abs() < 1e-12);
    }

    #[test]
    fn cyclic_series_spec_is_rejected() {
        let mut sb = Specification::builder();
        let c = sb
            .communicator(CommunicatorDecl::new("c", ValueType::Float, 10).unwrap())
            .unwrap();
        let t = sb
            .task(TaskDecl::new("t").reads(c, 0).writes(c, 1))
            .unwrap();
        let spec = sb.build().unwrap();
        let mut ab = Architecture::builder();
        let h = ab.host(HostDecl::new("h", r(0.9))).unwrap();
        ab.wcet_all(t, 1).unwrap();
        ab.wctt_all(t, 1).unwrap();
        let arch = ab.build();
        let imp = Implementation::builder()
            .assign(t, [h])
            .build(&spec, &arch)
            .unwrap();
        let err = compute_srgs(&spec, &arch, &imp).unwrap_err();
        assert!(matches!(err, ReliabilityError::CyclicDependencies { .. }));
        assert!(communicator_block(&spec, &arch, &imp, c).is_err());
    }

    #[test]
    fn rbd_matches_srg_induction() {
        let (spec, arch, imp) = pipeline(0.97);
        let report = compute_srgs(&spec, &arch, &imp).unwrap();
        for c in spec.communicator_ids() {
            let block = communicator_block(&spec, &arch, &imp, c).unwrap();
            let via_rbd = block.reliability().unwrap();
            assert!(
                (via_rbd.get() - report.communicator(c).get()).abs() < 1e-12,
                "mismatch for {}",
                spec.communicator(c).name()
            );
        }
    }

    #[test]
    fn memoized_computation_matches_compute_srgs() {
        let (spec, arch, imp) = pipeline(0.97);
        let reader = spec.find_task("reader").unwrap();
        let ctrl = spec.find_task("ctrl").unwrap();
        let mut cached = SrgComputation::new(&spec, &arch, &imp).unwrap();
        // Enumerate every non-empty host subset for both tasks, twice —
        // the second sweep must hit the cache and still agree exactly.
        let hosts: Vec<HostId> = arch.host_ids().collect();
        let mut distinct = 0usize;
        for _ in 0..2 {
            for rmask in 1u32..(1 << hosts.len()) {
                for cmask in 1u32..(1 << hosts.len()) {
                    let pick = |mask: u32| {
                        hosts
                            .iter()
                            .enumerate()
                            .filter(move |(i, _)| mask & (1 << i) != 0)
                            .map(|(_, &h)| h)
                    };
                    let candidate = imp
                        .with_assignment(reader, pick(rmask))
                        .with_assignment(ctrl, pick(cmask));
                    let fast = cached.report(&candidate).unwrap();
                    let slow = compute_srgs(&spec, &arch, &candidate).unwrap();
                    assert_eq!(fast, slow);
                    distinct += 1;
                }
            }
        }
        assert!(distinct > cached.task_cache.len(), "the cache must be hit");
        // 2 tasks × 3 non-empty subsets of 2 hosts.
        assert_eq!(cached.task_cache.len(), 6);
    }

    #[test]
    fn report_render_names_everything() {
        let (spec, arch, imp) = pipeline(0.999);
        let report = compute_srgs(&spec, &arch, &imp).unwrap();
        let text = report.render(&spec);
        for name in ["reader", "ctrl", "s", "l", "u"] {
            assert!(text.contains(name));
        }
        assert!(!report.to_string().is_empty());
    }
}
