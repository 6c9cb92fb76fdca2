//! Fault models.
//!
//! Hosts are fail-silent: a failed invocation produces no output at all.
//! A fault model is data ([`FaultModel`]): the independent per-invocation
//! success probabilities that the architecture's `hrel`/`srel`/broadcast
//! reliabilities fix — exactly the probability space `Pr_I` over which
//! Proposition 1 is stated ([`ProbabilisticFaults`], or [`NoFaults`] for
//! none at all) — plus, optionally, one compiled scenario timeline
//! ([`ScenarioFaults`](crate::scenario::ScenarioFaults)). Every process
//! beyond `Pr_I` is a timeline event: the paper's §4 experiment ("we
//! unplugged one of the two hosts from the network") is a `crash` without
//! a `rejoin`, permanent crash faults are `hazard` events, and a host
//! that emits garbage instead of staying quiet is a `corrupt` event. The
//! lane-group kernel reads the data and makes every draw of a site in
//! one lockstep loop over the lanes' generators.
//!
//! The reference interpreter and the E-code co-simulation, the kernel's
//! oracles, interpret a fault model call by call instead, through the
//! hooks of [`FaultInjector`], each with its own generator.

use crate::scenario::Timeline;
use logrel_core::{Architecture, HostId, SensorId, TaskId, Tick, Value};
use rand::rngs::StdRng;
use rand::Rng;

/// A fault model as data, as the lane-group kernel reads it.
///
/// Every lane of a group runs the same fault model: a group whose lanes
/// carry unequal models is rejected (see
/// [`Simulation::run_bitsliced`](crate::Simulation::run_bitsliced)).
pub trait FaultModel {
    /// The independent per-invocation faults: `None` when nothing ever
    /// fails and nothing is drawn ([`NoFaults`]).
    fn rates(&self) -> Option<&ProbabilisticFaults>;
    /// The scenario timeline the model runs, if any.
    fn timeline(&self) -> Option<&Timeline> {
        None
    }
}

/// Forwarding, so that a boxed fault model — type-erased or not — is one:
/// lane contexts can hold caller-supplied boxes.
impl<T: FaultModel + ?Sized> FaultModel for Box<T> {
    fn rates(&self) -> Option<&ProbabilisticFaults> {
        (**self).rates()
    }
    fn timeline(&self) -> Option<&Timeline> {
        (**self).timeline()
    }
}

/// A fault model interpreted call by call, on the caller's generator: the
/// hooks that [`Simulation::run_reference`](crate::Simulation::run_reference)
/// and the co-simulation call per invocation, reading and broadcast.
pub trait FaultInjector {
    /// Does `host` execute its task invocation at `now` correctly?
    fn host_ok(&mut self, host: HostId, now: Tick, rng: &mut StdRng) -> bool;
    /// Does `sensor` deliver a reliable reading at `now`?
    fn sensor_ok(&mut self, sensor: SensorId, now: Tick, rng: &mut StdRng) -> bool;
    /// Is the atomic broadcast of `host`'s outputs at `now` delivered?
    fn broadcast_ok(&mut self, host: HostId, now: Tick, rng: &mut StdRng) -> bool;
    /// May mutate a *delivered* replica's outputs — a non-fail-silent
    /// host emitting garbage instead of staying quiet. The paper assumes
    /// this never happens (fail-silence, its ref \[2\]); the default
    /// implementation honours that.
    fn corrupt(&mut self, host: HostId, now: Tick, outputs: &mut [Value], rng: &mut StdRng) {
        let _ = (host, now, outputs, rng);
    }
    /// The most recent instant at or before `now` at which `host` returned
    /// to service after a scripted outage, if any, for the warm-up rule.
    fn rejoined_at(&self, host: HostId, now: Tick) -> Option<Tick> {
        let _ = (host, now);
        None
    }
    /// Does the broadcast `sender` sent at `now` reach `receiver`? Pure:
    /// scripted membership, never a draw. Default: everything is
    /// delivered.
    fn delivers(&self, sender: HostId, receiver: HostId, now: Tick) -> bool {
        let _ = (sender, receiver, now);
        true
    }
    /// Reports a vote's outcome: the hosts whose replicas of `task`
    /// delivered into the vote at `now`, out of `total` assigned. Must not
    /// draw. Default: ignored.
    fn observe_vote(&mut self, task: TaskId, now: Tick, delivered: &[HostId], total: usize) {
        let _ = (task, now, delivered, total);
    }
}

/// The fault-free model: everything always works, and nothing is drawn.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoFaults;

impl FaultModel for NoFaults {
    fn rates(&self) -> Option<&ProbabilisticFaults> {
        None
    }
}

impl FaultInjector for NoFaults {
    fn host_ok(&mut self, _host: HostId, _now: Tick, _rng: &mut StdRng) -> bool {
        true
    }
    fn sensor_ok(&mut self, _sensor: SensorId, _now: Tick, _rng: &mut StdRng) -> bool {
        true
    }
    fn broadcast_ok(&mut self, _host: HostId, _now: Tick, _rng: &mut StdRng) -> bool {
        true
    }
}

/// Independent per-invocation transient faults drawn from the
/// architecture's declared reliabilities: one draw per invocation and per
/// sensor reading, and one per broadcast unless the broadcast never fails.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbabilisticFaults {
    host_rel: Vec<f64>,
    sensor_rel: Vec<f64>,
    broadcast_rel: f64,
}

impl ProbabilisticFaults {
    /// Derives fault probabilities from `arch`.
    pub fn from_architecture(arch: &Architecture) -> Self {
        ProbabilisticFaults {
            host_rel: arch
                .host_ids()
                .map(|h| arch.host(h).reliability().get())
                .collect(),
            sensor_rel: arch
                .sensor_ids()
                .map(|s| arch.sensor(s).reliability().get())
                .collect(),
            broadcast_rel: arch.broadcast_reliability().get(),
        }
    }

    /// The rates themselves, for tests of probabilities no architecture
    /// declares (a reliability of 0 or 1).
    #[cfg(test)]
    pub(crate) fn new(host_rel: Vec<f64>, sensor_rel: Vec<f64>, broadcast_rel: f64) -> Self {
        ProbabilisticFaults {
            host_rel,
            sensor_rel,
            broadcast_rel,
        }
    }

    /// Per host: the probability that an invocation succeeds.
    pub(crate) fn host(&self) -> &[f64] {
        &self.host_rel
    }

    /// Per sensor: the probability that a reading is reliable.
    pub(crate) fn sensor(&self) -> &[f64] {
        &self.sensor_rel
    }

    /// The probability that a broadcast is delivered, `None` when it
    /// never fails (no draw).
    pub(crate) fn broadcast(&self) -> Option<f64> {
        (self.broadcast_rel < 1.0).then_some(self.broadcast_rel)
    }
}

impl FaultModel for ProbabilisticFaults {
    fn rates(&self) -> Option<&ProbabilisticFaults> {
        Some(self)
    }
}

impl FaultInjector for ProbabilisticFaults {
    fn host_ok(&mut self, host: HostId, _now: Tick, rng: &mut StdRng) -> bool {
        rng.gen::<f64>() < self.host_rel[host.index()]
    }
    fn sensor_ok(&mut self, sensor: SensorId, _now: Tick, rng: &mut StdRng) -> bool {
        rng.gen::<f64>() < self.sensor_rel[sensor.index()]
    }
    fn broadcast_ok(&mut self, _host: HostId, _now: Tick, rng: &mut StdRng) -> bool {
        self.broadcast_rel >= 1.0 || rng.gen::<f64>() < self.broadcast_rel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logrel_core::{HostDecl, Reliability, SensorDecl};
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn no_faults_is_always_ok() {
        let mut f = NoFaults;
        let mut r = rng();
        assert!(f.host_ok(HostId::new(0), Tick::ZERO, &mut r));
        assert!(f.sensor_ok(SensorId::new(0), Tick::ZERO, &mut r));
        assert!(f.broadcast_ok(HostId::new(0), Tick::ZERO, &mut r));
        assert_eq!(f.rejoined_at(HostId::new(0), Tick::ZERO), None);
        assert_eq!(f.rates(), None);
    }

    #[test]
    fn probabilistic_faults_match_declared_rates() {
        let mut ab = logrel_core::Architecture::builder();
        ab.host(HostDecl::new("h", Reliability::new(0.7).unwrap()))
            .unwrap();
        ab.sensor(SensorDecl::new("s", Reliability::new(0.9).unwrap()))
            .unwrap();
        let arch = ab.build();
        let mut f = ProbabilisticFaults::from_architecture(&arch);
        assert_eq!(
            (f.host(), f.sensor(), f.broadcast()),
            (&[0.7][..], &[0.9][..], None)
        );
        let mut r = rng();
        let n = 200_000;
        let ok = (0..n)
            .filter(|_| f.host_ok(HostId::new(0), Tick::ZERO, &mut r))
            .count();
        let rate = ok as f64 / n as f64;
        assert!((rate - 0.7).abs() < 0.01, "rate {rate}");
        let ok_s = (0..n)
            .filter(|_| f.sensor_ok(SensorId::new(0), Tick::ZERO, &mut r))
            .count();
        assert!((ok_s as f64 / n as f64 - 0.9).abs() < 0.01);
        // Perfect broadcast never consumes randomness or fails.
        assert!(f.broadcast_ok(HostId::new(0), Tick::ZERO, &mut r));
    }

    #[test]
    fn seeded_rng_makes_injection_deterministic() {
        let mut ab = logrel_core::Architecture::builder();
        ab.host(HostDecl::new("h", Reliability::new(0.5).unwrap()))
            .unwrap();
        let arch = ab.build();
        let draw = || {
            let mut f = ProbabilisticFaults::from_architecture(&arch);
            let mut r = rng();
            (0..64)
                .map(|_| f.host_ok(HostId::new(0), Tick::ZERO, &mut r))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(), draw());
    }
}
