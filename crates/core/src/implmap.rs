//! Implementations: replication mappings from tasks to host sets.
//!
//! An implementation `I : tset → 2^hset \ ∅` (§2) maps each task to a
//! non-empty set of hosts; each host executes a local *task replication*
//! and broadcasts its outputs so every host can vote on the value written
//! to its local communicator replication. We additionally record which
//! sensors feed each input communicator (the paper keeps this binding
//! implicit; sensor replication in §4's scenario 2 makes it explicit).
//!
//! [`TimeDependentImplementation`] models the paper's "general
//! implementation" discussion: a periodic sequence of mappings applied
//! round-robin over task iterations.

use crate::arch::Architecture;
use crate::error::CoreError;
use crate::ids::{CommunicatorId, HostId, SensorId, TaskId};
use crate::spec::Specification;
use std::collections::{BTreeMap, BTreeSet};

/// A static replication mapping, validated against a specification and an
/// architecture.
///
/// # Example
///
/// ```
/// use logrel_core::prelude::*;
///
/// # fn main() -> Result<(), CoreError> {
/// let mut sb = Specification::builder();
/// let s = sb.communicator(
///     CommunicatorDecl::new("s", ValueType::Float, 10)?.from_sensor(),
/// )?;
/// let u = sb.communicator(CommunicatorDecl::new("u", ValueType::Float, 10)?)?;
/// let t = sb.task(TaskDecl::new("ctrl").reads(s, 0).writes(u, 1))?;
/// let spec = sb.build()?;
///
/// let r = Reliability::new(0.999)?;
/// let mut ab = Architecture::builder();
/// let h1 = ab.host(HostDecl::new("h1", r))?;
/// let h2 = ab.host(HostDecl::new("h2", r))?;
/// let sen = ab.sensor(SensorDecl::new("level", r))?;
/// ab.wcet_all(t, 2)?;
/// ab.wctt_all(t, 1)?;
/// let arch = ab.build();
///
/// let imp = Implementation::builder()
///     .assign(t, [h1, h2])
///     .bind_sensor(s, sen)
///     .build(&spec, &arch)?;
/// assert_eq!(imp.hosts_of(t).len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Implementation {
    assignment: Vec<BTreeSet<HostId>>,
    sensor_bindings: BTreeMap<CommunicatorId, BTreeSet<SensorId>>,
}

impl Implementation {
    /// Creates a fresh [`ImplementationBuilder`].
    pub fn builder() -> ImplementationBuilder {
        ImplementationBuilder::default()
    }

    /// The host set executing replications of `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` does not belong to the specification this
    /// implementation was validated against.
    pub fn hosts_of(&self, task: TaskId) -> &BTreeSet<HostId> {
        &self.assignment[task.index()]
    }

    /// The sensors bound to input communicator `comm` (empty for
    /// task-written communicators).
    pub fn sensors_of(&self, comm: CommunicatorId) -> &BTreeSet<SensorId> {
        static EMPTY: BTreeSet<SensorId> = BTreeSet::new();
        self.sensor_bindings.get(&comm).unwrap_or(&EMPTY)
    }

    /// Total number of task replications (the paper's replication cost).
    pub fn replication_count(&self) -> usize {
        self.assignment.iter().map(BTreeSet::len).sum()
    }

    /// All `(task, host)` replication pairs.
    pub fn replications(&self) -> impl Iterator<Item = (TaskId, HostId)> + '_ {
        self.assignment.iter().enumerate().flat_map(|(t, hs)| {
            hs.iter()
                .map(move |&h| (TaskId::new(t as u32), h))
        })
    }

    /// Returns a copy with `task` remapped to `hosts` (used by the
    /// replication-synthesis search). The copy is *not* re-validated.
    pub fn with_assignment(
        &self,
        task: TaskId,
        hosts: impl IntoIterator<Item = HostId>,
    ) -> Implementation {
        let mut out = self.clone();
        out.assignment[task.index()] = hosts.into_iter().collect();
        out
    }
}

/// Incremental builder for [`Implementation`].
#[derive(Debug, Default, Clone)]
pub struct ImplementationBuilder {
    assignment: BTreeMap<TaskId, BTreeSet<HostId>>,
    sensor_bindings: BTreeMap<CommunicatorId, BTreeSet<SensorId>>,
}

impl ImplementationBuilder {
    /// Maps `task` to the given hosts (extends any previous assignment).
    pub fn assign(mut self, task: TaskId, hosts: impl IntoIterator<Item = HostId>) -> Self {
        self.assignment.entry(task).or_default().extend(hosts);
        self
    }

    /// Binds input communicator `comm` to `sensor` (cumulative; binding
    /// several sensors models sensor replication).
    pub fn bind_sensor(mut self, comm: CommunicatorId, sensor: SensorId) -> Self {
        self.sensor_bindings.entry(comm).or_default().insert(sensor);
        self
    }

    /// Validates the mapping against `spec` and `arch`.
    ///
    /// # Errors
    ///
    /// * [`CoreError::EmptyHostSet`] if some task is unmapped or mapped to
    ///   no host;
    /// * [`CoreError::UnknownId`] for out-of-range host/sensor ids;
    /// * [`CoreError::MissingExecutionMetric`] if a mapped `(task, host)`
    ///   pair lacks a WCET or WCTT;
    /// * [`CoreError::UnboundEnvironmentCommunicator`] if an input
    ///   communicator has no sensor;
    /// * [`CoreError::BindingOnTaskCommunicator`] if a binding targets a
    ///   non-input communicator.
    pub fn build(
        self,
        spec: &Specification,
        arch: &Architecture,
    ) -> Result<Implementation, CoreError> {
        let mut assignment = Vec::with_capacity(spec.task_count());
        for t in spec.task_ids() {
            let hosts = self.assignment.get(&t).cloned().unwrap_or_default();
            if hosts.is_empty() {
                return Err(CoreError::EmptyHostSet {
                    task: spec.task(t).name().to_owned(),
                });
            }
            for &h in &hosts {
                if h.index() >= arch.host_count() {
                    return Err(CoreError::UnknownId {
                        kind: "host",
                        id: h.to_string(),
                    });
                }
                if arch.wcet(t, h).is_none() {
                    return Err(CoreError::MissingExecutionMetric {
                        metric: "WCET",
                        task: spec.task(t).name().to_owned(),
                        host: arch.host(h).name().to_owned(),
                    });
                }
                if arch.wctt(t, h).is_none() {
                    return Err(CoreError::MissingExecutionMetric {
                        metric: "WCTT",
                        task: spec.task(t).name().to_owned(),
                        host: arch.host(h).name().to_owned(),
                    });
                }
            }
            assignment.push(hosts);
        }

        for (&c, sensors) in &self.sensor_bindings {
            if c.index() >= spec.communicator_count() {
                return Err(CoreError::UnknownId {
                    kind: "communicator",
                    id: c.to_string(),
                });
            }
            if !spec.is_sensor_input(c) {
                return Err(CoreError::BindingOnTaskCommunicator {
                    communicator: spec.communicator(c).name().to_owned(),
                });
            }
            for &s in sensors {
                if s.index() >= arch.sensor_count() {
                    return Err(CoreError::UnknownId {
                        kind: "sensor",
                        id: s.to_string(),
                    });
                }
            }
        }
        for c in spec.communicator_ids() {
            if spec.is_sensor_input(c)
                && self
                    .sensor_bindings
                    .get(&c)
                    .is_none_or(BTreeSet::is_empty)
            {
                return Err(CoreError::UnboundEnvironmentCommunicator {
                    communicator: spec.communicator(c).name().to_owned(),
                });
            }
        }

        Ok(Implementation {
            assignment,
            sensor_bindings: self.sensor_bindings,
        })
    }
}

/// A periodic time-dependent implementation: iteration `k` of every task
/// uses phase `k mod n` of the mapping sequence.
///
/// The paper's example (§3, "General implementation"): two tasks alternate
/// between a reliable and an unreliable host, so that neither communicator's
/// *long-run* reliability drops below its LRC even though one of the static
/// phases alone would violate it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeDependentImplementation {
    phases: Vec<Implementation>,
}

impl TimeDependentImplementation {
    /// Creates a periodic mapping from a non-empty phase sequence.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyTimeDependentImplementation`] if `phases`
    /// is empty.
    pub fn new(phases: Vec<Implementation>) -> Result<Self, CoreError> {
        if phases.is_empty() {
            return Err(CoreError::EmptyTimeDependentImplementation);
        }
        Ok(TimeDependentImplementation { phases })
    }

    /// The number of phases.
    pub fn phase_count(&self) -> usize {
        self.phases.len()
    }

    /// The phases in order.
    pub fn phases(&self) -> &[Implementation] {
        &self.phases
    }

    /// The mapping in effect at task iteration `k`.
    pub fn at_iteration(&self, k: u64) -> &Implementation {
        &self.phases[(k % self.phases.len() as u64) as usize]
    }
}

impl From<Implementation> for TimeDependentImplementation {
    fn from(imp: Implementation) -> Self {
        TimeDependentImplementation { phases: vec![imp] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{HostDecl, SensorDecl};
    use crate::prob::Reliability;
    use crate::spec::{CommunicatorDecl, TaskDecl};
    use crate::value::ValueType;

    fn r(v: f64) -> Reliability {
        Reliability::new(v).unwrap()
    }

    fn small_system() -> (Specification, Architecture, TaskId, CommunicatorId) {
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
        let t = sb.task(TaskDecl::new("ctrl").reads(s, 0).writes(u, 1)).unwrap();
        let spec = sb.build().unwrap();

        let mut ab = Architecture::builder();
        ab.host(HostDecl::new("h1", r(0.999))).unwrap();
        ab.host(HostDecl::new("h2", r(0.999))).unwrap();
        ab.sensor(SensorDecl::new("level", r(0.999))).unwrap();
        ab.wcet_all(t, 2).unwrap();
        ab.wctt_all(t, 1).unwrap();
        (spec, ab.build(), t, s)
    }

    #[test]
    fn valid_mapping_builds() {
        let (spec, arch, t, s) = small_system();
        let imp = Implementation::builder()
            .assign(t, [HostId::new(0), HostId::new(1)])
            .bind_sensor(s, SensorId::new(0))
            .build(&spec, &arch)
            .unwrap();
        assert_eq!(imp.replication_count(), 2);
        assert_eq!(imp.hosts_of(t).len(), 2);
        assert_eq!(imp.sensors_of(s).len(), 1);
        let reps: Vec<_> = imp.replications().collect();
        assert_eq!(reps, vec![(t, HostId::new(0)), (t, HostId::new(1))]);
    }

    #[test]
    fn unmapped_task_rejected() {
        let (spec, arch, _, s) = small_system();
        let err = Implementation::builder()
            .bind_sensor(s, SensorId::new(0))
            .build(&spec, &arch)
            .unwrap_err();
        assert!(matches!(err, CoreError::EmptyHostSet { .. }));
    }

    #[test]
    fn unknown_host_rejected() {
        let (spec, arch, t, s) = small_system();
        let err = Implementation::builder()
            .assign(t, [HostId::new(9)])
            .bind_sensor(s, SensorId::new(0))
            .build(&spec, &arch)
            .unwrap_err();
        assert!(matches!(err, CoreError::UnknownId { kind: "host", .. }));
    }

    #[test]
    fn missing_wcet_rejected() {
        let (spec, _, t, s) = small_system();
        let mut ab = Architecture::builder();
        ab.host(HostDecl::new("h1", r(0.9))).unwrap();
        ab.sensor(SensorDecl::new("level", r(0.9))).unwrap();
        // no wcet declared
        let arch = ab.build();
        let err = Implementation::builder()
            .assign(t, [HostId::new(0)])
            .bind_sensor(s, SensorId::new(0))
            .build(&spec, &arch)
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::MissingExecutionMetric { metric: "WCET", .. }
        ));
    }

    #[test]
    fn unbound_input_communicator_rejected() {
        let (spec, arch, t, _) = small_system();
        let err = Implementation::builder()
            .assign(t, [HostId::new(0)])
            .build(&spec, &arch)
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::UnboundEnvironmentCommunicator { .. }
        ));
    }

    #[test]
    fn binding_on_task_communicator_rejected() {
        let (spec, arch, t, s) = small_system();
        let u = spec.find_communicator("u").unwrap();
        let err = Implementation::builder()
            .assign(t, [HostId::new(0)])
            .bind_sensor(s, SensorId::new(0))
            .bind_sensor(u, SensorId::new(0))
            .build(&spec, &arch)
            .unwrap_err();
        assert!(matches!(err, CoreError::BindingOnTaskCommunicator { .. }));
    }

    #[test]
    fn unknown_sensor_rejected() {
        let (spec, arch, t, s) = small_system();
        let err = Implementation::builder()
            .assign(t, [HostId::new(0)])
            .bind_sensor(s, SensorId::new(5))
            .build(&spec, &arch)
            .unwrap_err();
        assert!(matches!(err, CoreError::UnknownId { kind: "sensor", .. }));
    }

    #[test]
    fn time_dependent_round_robin() {
        let (spec, arch, t, s) = small_system();
        let i0 = Implementation::builder()
            .assign(t, [HostId::new(0)])
            .bind_sensor(s, SensorId::new(0))
            .build(&spec, &arch)
            .unwrap();
        let i1 = i0.with_assignment(t, [HostId::new(1)]);
        let td = TimeDependentImplementation::new(vec![i0.clone(), i1.clone()]).unwrap();
        assert_eq!(td.phase_count(), 2);
        assert_eq!(td.at_iteration(0), &i0);
        assert_eq!(td.at_iteration(1), &i1);
        assert_eq!(td.at_iteration(4), &i0);
        assert!(TimeDependentImplementation::new(vec![]).is_err());
        let single: TimeDependentImplementation = i0.clone().into();
        assert_eq!(single.at_iteration(17), &i0);
    }
}
