//! Architectures: fail-silent hosts, sensors and execution metrics.
//!
//! An architecture `A = (hset, sset, C_S)` (§2) consists of hosts connected
//! over a reliable broadcast network, sensors, and architectural constraints
//! for a given specification: per-host/per-sensor reliabilities (`hrel`,
//! `srel`) and per-task/per-host worst-case execution and transmission
//! times (WCET, WCTT). Hosts are fail-silent: a failed host produces no
//! (garbage) output.

use crate::error::CoreError;
use crate::ids::{HostId, SensorId, TaskId};
use crate::prob::Reliability;
use std::collections::BTreeMap;

/// Declaration of a fail-silent host.
#[derive(Debug, Clone, PartialEq)]
pub struct HostDecl {
    name: String,
    reliability: Reliability,
}

impl HostDecl {
    /// Creates a host declaration.
    pub fn new(name: impl Into<String>, reliability: Reliability) -> Self {
        HostDecl {
            name: name.into(),
            reliability,
        }
    }

    /// The host's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The host's per-invocation reliability `hrel(h)`.
    pub fn reliability(&self) -> Reliability {
        self.reliability
    }
}

/// Declaration of a sensor.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorDecl {
    name: String,
    reliability: Reliability,
}

impl SensorDecl {
    /// Creates a sensor declaration.
    pub fn new(name: impl Into<String>, reliability: Reliability) -> Self {
        SensorDecl {
            name: name.into(),
            reliability,
        }
    }

    /// The sensor's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The sensor's per-reading reliability `srel(s)`.
    pub fn reliability(&self) -> Reliability {
        self.reliability
    }
}

/// A validated architecture.
///
/// # Example
///
/// ```
/// use logrel_core::{Architecture, HostDecl, Reliability, SensorDecl};
///
/// # fn main() -> Result<(), logrel_core::CoreError> {
/// let r = Reliability::new(0.999)?;
/// let mut b = Architecture::builder();
/// let h1 = b.host(HostDecl::new("h1", r))?;
/// let s1 = b.sensor(SensorDecl::new("s1", r))?;
/// let arch = b.build();
/// assert_eq!(arch.host(h1).name(), "h1");
/// assert_eq!(arch.sensor(s1).reliability(), r);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Architecture {
    hosts: Vec<HostDecl>,
    sensors: Vec<SensorDecl>,
    wcet: BTreeMap<(TaskId, HostId), u64>,
    wctt: BTreeMap<(TaskId, HostId), u64>,
    broadcast_reliability: Reliability,
}

impl Architecture {
    /// Creates a fresh [`ArchitectureBuilder`].
    pub fn builder() -> ArchitectureBuilder {
        ArchitectureBuilder::default()
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Number of sensors.
    pub fn sensor_count(&self) -> usize {
        self.sensors.len()
    }

    /// The declaration of host `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this architecture's builder.
    pub fn host(&self, id: HostId) -> &HostDecl {
        &self.hosts[id.index()]
    }

    /// The declaration of sensor `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this architecture's builder.
    pub fn sensor(&self, id: SensorId) -> &SensorDecl {
        &self.sensors[id.index()]
    }

    /// Iterates over all host ids.
    pub fn host_ids(&self) -> impl Iterator<Item = HostId> + '_ {
        (0..self.hosts.len() as u32).map(HostId::new)
    }

    /// Iterates over all sensor ids.
    pub fn sensor_ids(&self) -> impl Iterator<Item = SensorId> + '_ {
        (0..self.sensors.len() as u32).map(SensorId::new)
    }

    /// Looks up a host by name.
    pub fn find_host(&self, name: &str) -> Option<HostId> {
        self.hosts
            .iter()
            .position(|h| h.name() == name)
            .map(|i| HostId::new(i as u32))
    }

    /// The worst-case execution time of `task` on `host`, if declared.
    pub fn wcet(&self, task: TaskId, host: HostId) -> Option<u64> {
        self.wcet.get(&(task, host)).copied()
    }

    /// The worst-case (broadcast) transmission time of `task`'s outputs
    /// from `host`, if declared.
    pub fn wctt(&self, task: TaskId, host: HostId) -> Option<u64> {
        self.wctt.get(&(task, host)).copied()
    }

    /// The reliability of one atomic broadcast. [`Reliability::ONE`] models
    /// the paper's perfectly reliable broadcast network; lower values model
    /// an atomic-but-lossy broadcast (§2: "non-reliability in broadcast
    /// networks can be accounted for … as long as the faulty behavior is
    /// atomic").
    pub fn broadcast_reliability(&self) -> Reliability {
        self.broadcast_reliability
    }

}

/// Incremental builder for [`Architecture`].
#[derive(Debug, Clone)]
pub struct ArchitectureBuilder {
    hosts: Vec<HostDecl>,
    sensors: Vec<SensorDecl>,
    wcet: BTreeMap<(TaskId, HostId), u64>,
    wctt: BTreeMap<(TaskId, HostId), u64>,
    broadcast_reliability: Reliability,
}

impl Default for ArchitectureBuilder {
    fn default() -> Self {
        ArchitectureBuilder {
            hosts: Vec::new(),
            sensors: Vec::new(),
            wcet: BTreeMap::new(),
            wctt: BTreeMap::new(),
            broadcast_reliability: Reliability::ONE,
        }
    }
}

impl ArchitectureBuilder {
    /// Declares a host, returning its id.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DuplicateName`] if the name is taken.
    pub fn host(&mut self, decl: HostDecl) -> Result<HostId, CoreError> {
        if self.hosts.iter().any(|h| h.name() == decl.name()) {
            return Err(CoreError::DuplicateName {
                kind: "host",
                name: decl.name().to_owned(),
            });
        }
        let id = HostId::new(self.hosts.len() as u32);
        self.hosts.push(decl);
        Ok(id)
    }

    /// Declares a sensor, returning its id.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DuplicateName`] if the name is taken.
    pub fn sensor(&mut self, decl: SensorDecl) -> Result<SensorId, CoreError> {
        if self.sensors.iter().any(|s| s.name() == decl.name()) {
            return Err(CoreError::DuplicateName {
                kind: "sensor",
                name: decl.name().to_owned(),
            });
        }
        let id = SensorId::new(self.sensors.len() as u32);
        self.sensors.push(decl);
        Ok(id)
    }

    /// Declares the WCET of `task` on `host` (in ticks, must be positive).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ZeroPeriod`] if `ticks` is zero (execution
    /// takes at least one tick) or [`CoreError::UnknownId`] if the host is
    /// undeclared.
    pub fn wcet(&mut self, task: TaskId, host: HostId, ticks: u64) -> Result<&mut Self, CoreError> {
        self.check_host(host)?;
        if ticks == 0 {
            return Err(CoreError::ZeroPeriod);
        }
        self.wcet.insert((task, host), ticks);
        Ok(self)
    }

    /// Declares the WCTT of `task`'s broadcast from `host` (in ticks; zero
    /// is allowed for negligible transmissions).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownId`] if the host is undeclared.
    pub fn wctt(&mut self, task: TaskId, host: HostId, ticks: u64) -> Result<&mut Self, CoreError> {
        self.check_host(host)?;
        self.wctt.insert((task, host), ticks);
        Ok(self)
    }

    /// Sets the same WCET for `task` on every declared host.
    pub fn wcet_all(&mut self, task: TaskId, ticks: u64) -> Result<&mut Self, CoreError> {
        for h in 0..self.hosts.len() as u32 {
            self.wcet(task, HostId::new(h), ticks)?;
        }
        Ok(self)
    }

    /// Sets the same WCTT for `task` on every declared host.
    pub fn wctt_all(&mut self, task: TaskId, ticks: u64) -> Result<&mut Self, CoreError> {
        for h in 0..self.hosts.len() as u32 {
            self.wctt(task, HostId::new(h), ticks)?;
        }
        Ok(self)
    }

    /// Sets the atomic-broadcast reliability (defaults to
    /// [`Reliability::ONE`]).
    pub fn broadcast_reliability(&mut self, r: Reliability) -> &mut Self {
        self.broadcast_reliability = r;
        self
    }

    /// Finalises the architecture.
    pub fn build(self) -> Architecture {
        Architecture {
            hosts: self.hosts,
            sensors: self.sensors,
            wcet: self.wcet,
            wctt: self.wctt,
            broadcast_reliability: self.broadcast_reliability,
        }
    }

    fn check_host(&self, host: HostId) -> Result<(), CoreError> {
        if host.index() >= self.hosts.len() {
            return Err(CoreError::UnknownId {
                kind: "host",
                id: host.to_string(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(v: f64) -> Reliability {
        Reliability::new(v).unwrap()
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let mut b = Architecture::builder();
        let h1 = b.host(HostDecl::new("h1", r(0.9))).unwrap();
        let h2 = b.host(HostDecl::new("h2", r(0.8))).unwrap();
        assert_eq!(h1.index(), 0);
        assert_eq!(h2.index(), 1);
        let arch = b.build();
        assert_eq!(arch.host_count(), 2);
        assert_eq!(arch.find_host("h2"), Some(h2));
        assert_eq!(arch.find_host("h3"), None);
    }

    #[test]
    fn duplicate_host_name_rejected() {
        let mut b = Architecture::builder();
        b.host(HostDecl::new("h", r(0.9))).unwrap();
        assert!(matches!(
            b.host(HostDecl::new("h", r(0.8))).unwrap_err(),
            CoreError::DuplicateName { kind: "host", .. }
        ));
    }

    #[test]
    fn duplicate_sensor_name_rejected() {
        let mut b = Architecture::builder();
        b.sensor(SensorDecl::new("s", r(0.9))).unwrap();
        assert!(b.sensor(SensorDecl::new("s", r(0.9))).is_err());
    }

    #[test]
    fn metrics_roundtrip() {
        let mut b = Architecture::builder();
        let h = b.host(HostDecl::new("h", r(0.9))).unwrap();
        let t = TaskId::new(0);
        b.wcet(t, h, 5).unwrap();
        b.wctt(t, h, 2).unwrap();
        let arch = b.build();
        assert_eq!(arch.wcet(t, h), Some(5));
        assert_eq!(arch.wctt(t, h), Some(2));
        assert_eq!(arch.wcet(TaskId::new(1), h), None);
    }

    #[test]
    fn zero_wcet_rejected_but_zero_wctt_allowed() {
        let mut b = Architecture::builder();
        let h = b.host(HostDecl::new("h", r(0.9))).unwrap();
        let t = TaskId::new(0);
        assert!(b.wcet(t, h, 0).is_err());
        assert!(b.wctt(t, h, 0).is_ok());
    }

    #[test]
    fn metric_for_unknown_host_rejected() {
        let mut b = Architecture::builder();
        assert!(matches!(
            b.wcet(TaskId::new(0), HostId::new(3), 1).unwrap_err(),
            CoreError::UnknownId { kind: "host", .. }
        ));
    }

    #[test]
    fn wcet_all_covers_every_host() {
        let mut b = Architecture::builder();
        let h1 = b.host(HostDecl::new("h1", r(0.9))).unwrap();
        let h2 = b.host(HostDecl::new("h2", r(0.9))).unwrap();
        let t = TaskId::new(0);
        b.wcet_all(t, 7).unwrap();
        b.wctt_all(t, 3).unwrap();
        let arch = b.build();
        assert_eq!(arch.wcet(t, h1), Some(7));
        assert_eq!(arch.wcet(t, h2), Some(7));
        assert_eq!(arch.wctt(t, h2), Some(3));
    }

    #[test]
    fn broadcast_reliability_defaults_to_one() {
        let arch = Architecture::builder().build();
        assert_eq!(arch.broadcast_reliability(), Reliability::ONE);
    }

}
