//! Fault injection.
//!
//! Hosts are fail-silent: a failed invocation produces no output at all.
//! [`ProbabilisticFaults`] draws independent per-invocation faults from the
//! architecture's `hrel`/`srel`/broadcast reliabilities — exactly the
//! probability space `Pr_I` over which Proposition 1 is stated.
//! [`UnplugAt`] reproduces the paper's §4 experiment ("we unplugged one of
//! the two hosts from the network"): from a given instant on, one host
//! stays silent forever.
//!
//! Every wrapper injector composes over any inner [`FaultInjector`], so
//! scripted outages, crash processes and value corruption stack freely:
//! `PermanentFaults::wrapping(CorruptingFaults::new(0.1, -1.0), hazards)`
//! models crashing hosts that emit garbage while alive. The shared "dead
//! host stays dead" rule lives once in [`HostSilencer`]: a silenced host
//! neither executes, nor broadcasts, nor corrupts — fail-silence covers
//! every channel, including a host that crashed earlier in the same
//! instant.

use logrel_core::{Architecture, HostId, SensorId, TaskId, Tick};
use rand::rngs::StdRng;
use rand::Rng;

/// Decides, per invocation/reading/broadcast, whether a component works.
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
    fn corrupt(
        &mut self,
        host: HostId,
        now: Tick,
        outputs: &mut [logrel_core::Value],
        rng: &mut StdRng,
    ) {
        let _ = (host, now, outputs, rng);
    }
    /// The most recent instant at or before `now` at which `host` returned
    /// to service after a *scripted* outage, if any. The kernel gates a
    /// rejoined host's vote on the warm-up rule (memory-free tasks rejoin
    /// immediately; tasks with state wait one full round after the next
    /// round boundary). Injectors without rejoin semantics — including
    /// purely transient fault processes — report `None`.
    fn rejoined_at(&self, host: HostId, now: Tick) -> Option<Tick> {
        let _ = (host, now);
        None
    }
    /// Whether this injector's [`FaultInjector::corrupt`] may ever act.
    ///
    /// Returning `false` is a *contract*: `corrupt` never mutates the
    /// outputs **and never consumes randomness**, so a caller may skip the
    /// call entirely without shifting the draw sequence. The bit-sliced
    /// kernel uses this to elide per-replica output materialisation on
    /// fail-silent fault models. The default is conservatively `true`
    /// (slow but always correct for injectors that override `corrupt`).
    fn corrupts(&self) -> bool {
        true
    }
    /// Does the broadcast `sender` sent at `now` reach `receiver`?
    ///
    /// Network partitions make broadcast delivery *per-receiver* instead
    /// of all-or-nothing. The query is **pure** — scripted membership,
    /// never a random draw — so calling it (or not) cannot shift the
    /// injector's draw sequence. Default: everything is delivered.
    fn delivers(&self, sender: HostId, receiver: HostId, now: Tick) -> bool {
        let _ = (sender, receiver, now);
        true
    }
    /// Whether [`FaultInjector::delivers`] may ever return `false`.
    ///
    /// Returning `false` is a contract that `delivers` is constantly
    /// `true`, so the kernels may skip the per-receiver audience check
    /// entirely. The default is `false` (no partitions).
    fn partitions(&self) -> bool {
        false
    }
    /// Reports a vote's outcome back to the injector: the hosts whose
    /// replicas of `task` delivered into the vote at `now`, out of
    /// `total` assigned replicas. Adaptive adversaries use this feedback
    /// to pick their next target; the hook **must not draw randomness**
    /// (it is only called when [`FaultInjector::adaptive`] is `true`, so
    /// passive injectors keep bit-identical streams). Default: ignored.
    fn observe_vote(&mut self, task: TaskId, now: Tick, delivered: &[HostId], total: usize) {
        let _ = (task, now, delivered, total);
    }
    /// Whether this injector wants [`FaultInjector::observe_vote`]
    /// feedback. `false` (the default) is a contract that `observe_vote`
    /// is a no-op, so the kernels skip collecting delivered-host lists.
    fn adaptive(&self) -> bool {
        false
    }
    /// The fixed probabilities behind this injector's draws, if it makes
    /// the Bernoulli promise.
    ///
    /// Returning `Some(rates)` is a *contract*: each call of
    /// [`FaultInjector::host_ok`], [`FaultInjector::sensor_ok`] and
    /// [`FaultInjector::broadcast_ok`] is exactly one `rng.gen::<f64>() <
    /// p` with the fixed `p` of `rates` for its host or sensor (and
    /// `broadcast_ok` makes no draw at all when `rates.broadcast >= 1`);
    /// nothing else draws or keeps state, and every other hook keeps its
    /// default. A lane-group run whose lanes all make the same promise
    /// draws every lane's Bernoulli trial of a site in one loop over the
    /// lanes' generators instead of calling the hooks lane by lane. The
    /// default is `None` (no promise: always call).
    fn bernoulli_rates(&self) -> Option<BernoulliRates<'_>> {
        None
    }
}

/// The fixed success probabilities of an injector that makes the
/// Bernoulli promise ([`FaultInjector::bernoulli_rates`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BernoulliRates<'a> {
    /// Per host: the probability that an invocation succeeds.
    pub host: &'a [f64],
    /// Per sensor: the probability that a reading is reliable.
    pub sensor: &'a [f64],
    /// The probability that a broadcast is delivered.
    pub broadcast: f64,
}

/// Forwarding, so that a boxed injector — type-erased or not — is an
/// injector: wrappers and lane contexts can hold caller-supplied boxes.
impl<T: FaultInjector + ?Sized> FaultInjector for Box<T> {
    fn host_ok(&mut self, host: HostId, now: Tick, rng: &mut StdRng) -> bool {
        (**self).host_ok(host, now, rng)
    }
    fn sensor_ok(&mut self, sensor: SensorId, now: Tick, rng: &mut StdRng) -> bool {
        (**self).sensor_ok(sensor, now, rng)
    }
    fn broadcast_ok(&mut self, host: HostId, now: Tick, rng: &mut StdRng) -> bool {
        (**self).broadcast_ok(host, now, rng)
    }
    fn corrupt(
        &mut self,
        host: HostId,
        now: Tick,
        outputs: &mut [logrel_core::Value],
        rng: &mut StdRng,
    ) {
        (**self).corrupt(host, now, outputs, rng);
    }
    fn rejoined_at(&self, host: HostId, now: Tick) -> Option<Tick> {
        (**self).rejoined_at(host, now)
    }
    fn corrupts(&self) -> bool {
        (**self).corrupts()
    }
    fn delivers(&self, sender: HostId, receiver: HostId, now: Tick) -> bool {
        (**self).delivers(sender, receiver, now)
    }
    fn partitions(&self) -> bool {
        (**self).partitions()
    }
    fn observe_vote(&mut self, task: TaskId, now: Tick, delivered: &[HostId], total: usize) {
        (**self).observe_vote(task, now, delivered, total);
    }
    fn adaptive(&self) -> bool {
        (**self).adaptive()
    }
    fn bernoulli_rates(&self) -> Option<BernoulliRates<'_>> {
        (**self).bernoulli_rates()
    }
}

/// The shared core of the silencing wrappers ([`UnplugAt`],
/// [`PermanentFaults`]): a policy that decides per `(host, now)` whether
/// the host is silenced, over an inner injector handling everything else.
///
/// The silencers' one [`FaultInjector`] body encodes the "dead host
/// stays dead" rule exactly once: a silenced host fails its invocation,
/// loses its broadcast and never corrupts delivered outputs — even when
/// the host was marked down earlier within the same instant.
pub trait HostSilencer {
    /// The inner injector everything else delegates to.
    type Inner: FaultInjector;
    /// The inner injector.
    fn inner(&mut self) -> &mut Self::Inner;
    /// Shared view of the inner injector.
    fn inner_ref(&self) -> &Self::Inner;
    /// Invocation-time silencing decision. May consume randomness and
    /// mutate state (crash hazards are drawn here). Called exactly once
    /// per replica invocation, from `host_ok`.
    fn invocation_down(&mut self, host: HostId, now: Tick, rng: &mut StdRng) -> bool;
    /// Pure silencing query used for broadcast and corruption suppression
    /// within the same instant; must not consume randomness.
    fn is_down(&self, host: HostId, now: Tick) -> bool;
}

/// The one [`FaultInjector`] body of every [`HostSilencer`]: the "dead
/// host stays dead" rule, written once. (A blanket impl over
/// `S: HostSilencer` would overlap the `Box<T>` forwarding impl, since a
/// downstream crate may implement `HostSilencer` for a `Box`.)
macro_rules! silencing_injector {
    ($($silencer:ident),*) => {$(
        impl<I: FaultInjector> FaultInjector for $silencer<I> {
            fn host_ok(&mut self, host: HostId, now: Tick, rng: &mut StdRng) -> bool {
                if self.invocation_down(host, now, rng) {
                    return false;
                }
                self.inner().host_ok(host, now, rng)
            }
            fn sensor_ok(&mut self, sensor: SensorId, now: Tick, rng: &mut StdRng) -> bool {
                self.inner().sensor_ok(sensor, now, rng)
            }
            fn broadcast_ok(&mut self, host: HostId, now: Tick, rng: &mut StdRng) -> bool {
                if self.is_down(host, now) {
                    return false;
                }
                self.inner().broadcast_ok(host, now, rng)
            }
            fn corrupt(
                &mut self,
                host: HostId,
                now: Tick,
                outputs: &mut [logrel_core::Value],
                rng: &mut StdRng,
            ) {
                // A silenced host delivers nothing, so it cannot corrupt — this
                // covers hosts marked fail-silent earlier in the same instant.
                if !self.is_down(host, now) {
                    self.inner().corrupt(host, now, outputs, rng);
                }
            }
            fn rejoined_at(&self, host: HostId, now: Tick) -> Option<Tick> {
                self.inner_ref().rejoined_at(host, now)
            }
            fn corrupts(&self) -> bool {
                // Silencing only suppresses corruption; it never introduces it.
                self.inner_ref().corrupts()
            }
            // Partition membership and vote feedback are orthogonal to host
            // silencing; forward them so wrapped scenario injectors keep working.
            fn delivers(&self, sender: HostId, receiver: HostId, now: Tick) -> bool {
                self.inner_ref().delivers(sender, receiver, now)
            }
            fn partitions(&self) -> bool {
                self.inner_ref().partitions()
            }
            fn observe_vote(&mut self, task: TaskId, now: Tick, delivered: &[HostId], total: usize) {
                self.inner().observe_vote(task, now, delivered, total);
            }
            fn adaptive(&self) -> bool {
                self.inner_ref().adaptive()
            }
        }
    )*};
}

silencing_injector!(UnplugAt, PermanentFaults);

/// The fault-free injector: everything always works.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoFaults;

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
    fn corrupts(&self) -> bool {
        false
    }
}

/// Independent per-invocation transient faults drawn from the
/// architecture's declared reliabilities.
#[derive(Debug, Clone)]
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
    fn corrupts(&self) -> bool {
        false
    }
    fn bernoulli_rates(&self) -> Option<BernoulliRates<'_>> {
        Some(BernoulliRates {
            host: &self.host_rel,
            sensor: &self.sensor_rel,
            broadcast: self.broadcast_rel,
        })
    }
}

/// A non-fail-silent fault model: instead of staying quiet, a faulty host
/// *delivers corrupted values* with probability `corruption` per
/// invocation (float outputs are replaced by a garbage constant). Used to
/// test the paper's fail-silence assumption: under `AnyReliable` voting a
/// single corrupted replica poisons the communicator; `Majority` voting
/// over ≥3 replicas recovers.
///
/// Composable: `CorruptingFaults::wrapping(inner, corruption, garbage)`
/// layers corruption over any inner fault process (the corruption draw
/// happens first, then the inner injector's own `corrupt`).
#[derive(Debug, Clone)]
pub struct CorruptingFaults<I = NoFaults> {
    inner: I,
    corruption: f64,
    garbage: f64,
}

impl CorruptingFaults {
    /// Corrupts each delivered replica independently with probability
    /// `corruption`, replacing float outputs by `garbage`.
    pub fn new(corruption: f64, garbage: f64) -> Self {
        Self::wrapping(NoFaults, corruption, garbage)
    }
}

impl<I> CorruptingFaults<I> {
    /// Layers corruption over `inner`.
    pub fn wrapping(inner: I, corruption: f64, garbage: f64) -> Self {
        CorruptingFaults {
            inner,
            corruption: corruption.clamp(0.0, 1.0),
            garbage,
        }
    }
}

impl<I: FaultInjector> FaultInjector for CorruptingFaults<I> {
    fn host_ok(&mut self, host: HostId, now: Tick, rng: &mut StdRng) -> bool {
        self.inner.host_ok(host, now, rng)
    }
    fn sensor_ok(&mut self, sensor: SensorId, now: Tick, rng: &mut StdRng) -> bool {
        self.inner.sensor_ok(sensor, now, rng)
    }
    fn broadcast_ok(&mut self, host: HostId, now: Tick, rng: &mut StdRng) -> bool {
        self.inner.broadcast_ok(host, now, rng)
    }
    fn corrupt(
        &mut self,
        host: HostId,
        now: Tick,
        outputs: &mut [logrel_core::Value],
        rng: &mut StdRng,
    ) {
        if rng.gen::<f64>() < self.corruption {
            for v in outputs.iter_mut() {
                if matches!(v, logrel_core::Value::Float(_)) {
                    *v = logrel_core::Value::Float(self.garbage);
                }
            }
        }
        self.inner.corrupt(host, now, outputs, rng);
    }
    fn rejoined_at(&self, host: HostId, now: Tick) -> Option<Tick> {
        self.inner.rejoined_at(host, now)
    }
    fn corrupts(&self) -> bool {
        // Even with `corruption == 0.0` the corrupt hook consumes one
        // draw per delivered replica, so the call can never be skipped.
        true
    }
    fn delivers(&self, sender: HostId, receiver: HostId, now: Tick) -> bool {
        self.inner.delivers(sender, receiver, now)
    }
    fn partitions(&self) -> bool {
        self.inner.partitions()
    }
    fn observe_vote(&mut self, task: TaskId, now: Tick, delivered: &[HostId], total: usize) {
        self.inner.observe_vote(task, now, delivered, total);
    }
    fn adaptive(&self) -> bool {
        self.inner.adaptive()
    }
}

/// Wraps another injector and silences one host permanently from `at` on.
#[derive(Debug, Clone)]
pub struct UnplugAt<I> {
    inner: I,
    host: HostId,
    at: Tick,
}

impl<I> UnplugAt<I> {
    /// Unplugs `host` at instant `at`, delegating everything else to
    /// `inner`.
    pub fn new(inner: I, host: HostId, at: Tick) -> Self {
        UnplugAt { inner, host, at }
    }
}

impl<I: FaultInjector> HostSilencer for UnplugAt<I> {
    type Inner = I;
    fn inner(&mut self) -> &mut I {
        &mut self.inner
    }
    fn inner_ref(&self) -> &I {
        &self.inner
    }
    fn invocation_down(&mut self, host: HostId, now: Tick, _rng: &mut StdRng) -> bool {
        self.is_down(host, now)
    }
    fn is_down(&self, host: HostId, now: Tick) -> bool {
        host == self.host && now >= self.at
    }
}

/// Permanent (crash) faults: at every invocation a still-alive host fails
/// with its hazard probability and then stays silent forever — the
/// fail-silent *crash* regime, in contrast to the paper's per-invocation
/// transient model. Useful for studying how long a replication degree
/// survives (experiment binaries sweep this).
///
/// Composable: `PermanentFaults::wrapping(inner, hazards)` runs the crash
/// process over any inner injector — e.g. corrupting hosts that
/// eventually crash. A crashed host is silenced on every channel,
/// including `corrupt`, from the instant it dies.
#[derive(Debug, Clone)]
pub struct PermanentFaults<I = NoFaults> {
    inner: I,
    hazard: Vec<f64>,
    dead: Vec<bool>,
}

impl PermanentFaults {
    /// Per-invocation crash hazards, one per host (index = host id).
    pub fn new(hazard: Vec<f64>) -> Self {
        Self::wrapping(NoFaults, hazard)
    }

    /// Uses `1 − hrel(h)` as the per-invocation crash hazard of each host.
    pub fn from_architecture(arch: &Architecture) -> Self {
        Self::new(
            arch.host_ids()
                .map(|h| 1.0 - arch.host(h).reliability().get())
                .collect(),
        )
    }
}

impl<I> PermanentFaults<I> {
    /// Runs the crash process over `inner`.
    pub fn wrapping(inner: I, hazard: Vec<f64>) -> Self {
        let n = hazard.len();
        PermanentFaults {
            inner,
            hazard,
            dead: vec![false; n],
        }
    }
}

impl<I: FaultInjector> HostSilencer for PermanentFaults<I> {
    type Inner = I;
    fn inner(&mut self) -> &mut I {
        &mut self.inner
    }
    fn inner_ref(&self) -> &I {
        &self.inner
    }
    fn invocation_down(&mut self, host: HostId, _now: Tick, rng: &mut StdRng) -> bool {
        let i = host.index();
        if self.dead[i] {
            return true;
        }
        if rng.gen::<f64>() < self.hazard[i] {
            self.dead[i] = true;
            return true;
        }
        false
    }
    fn is_down(&self, host: HostId, _now: Tick) -> bool {
        self.dead[host.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logrel_core::{HostDecl, Reliability, SensorDecl, Value};
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
    fn unplug_silences_only_the_target_after_the_instant() {
        let mut f = UnplugAt::new(NoFaults, HostId::new(1), Tick::new(100));
        let mut r = rng();
        assert!(f.host_ok(HostId::new(1), Tick::new(99), &mut r));
        assert!(!f.host_ok(HostId::new(1), Tick::new(100), &mut r));
        assert!(!f.host_ok(HostId::new(1), Tick::new(500), &mut r));
        assert!(!f.broadcast_ok(HostId::new(1), Tick::new(100), &mut r));
        assert!(f.host_ok(HostId::new(0), Tick::new(500), &mut r));
        assert!(f.sensor_ok(SensorId::new(0), Tick::new(500), &mut r));
    }

    #[test]
    fn permanent_faults_kill_hosts_forever() {
        let mut f = PermanentFaults::new(vec![0.5, 0.0]);
        let mut r = rng();
        assert_eq!(f.dead, [false, false]);
        // Invoke host 0 until it dies (hazard 0.5: quickly).
        let mut died_at = None;
        for k in 0..100 {
            if !f.host_ok(HostId::new(0), Tick::new(k), &mut r) {
                died_at = Some(k);
                break;
            }
        }
        let died_at = died_at.expect("host 0 must crash with hazard 0.5");
        assert_eq!(f.dead, [true, false]);
        // Dead forever — and its broadcast is silenced with it.
        for k in died_at..died_at + 10 {
            assert!(!f.host_ok(HostId::new(0), Tick::new(k), &mut r));
            assert!(!f.broadcast_ok(HostId::new(0), Tick::new(k), &mut r));
        }
        // Host 1 (hazard 0) never dies.
        for k in 0..100 {
            assert!(f.host_ok(HostId::new(1), Tick::new(k), &mut r));
        }
        // Sensors are untouched by this injector; a live host broadcasts.
        assert!(f.sensor_ok(SensorId::new(0), Tick::ZERO, &mut r));
        assert!(f.broadcast_ok(HostId::new(1), Tick::ZERO, &mut r));
    }

    #[test]
    fn permanent_faults_from_architecture() {
        let mut ab = logrel_core::Architecture::builder();
        ab.host(HostDecl::new("h", Reliability::new(0.75).unwrap()))
            .unwrap();
        let f = PermanentFaults::from_architecture(&ab.build());
        assert_eq!(f.dead, [false]);
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

    /// Regression: a host marked fail-silent earlier in the same instant
    /// must not corrupt outputs. Before the silencing rework, composing a
    /// corruption model under a crash process would still mutate the
    /// buffer (and burn a random draw) for a host that had already died.
    #[test]
    fn dead_hosts_never_corrupt() {
        let mut f = PermanentFaults::wrapping(CorruptingFaults::new(1.0, -1.0), vec![1.0]);
        let mut r = rng();
        // First invocation kills the host (hazard 1.0)...
        assert!(!f.host_ok(HostId::new(0), Tick::ZERO, &mut r));
        // ...so its corrupt hook must leave delivered outputs untouched,
        // even within the same instant.
        let mut outputs = [Value::Float(42.0)];
        f.corrupt(HostId::new(0), Tick::ZERO, &mut outputs, &mut r);
        assert_eq!(outputs, [Value::Float(42.0)]);

        // An unplugged host is equally barred from corrupting.
        let mut u = UnplugAt::new(CorruptingFaults::new(1.0, -1.0), HostId::new(0), Tick::ZERO);
        u.corrupt(HostId::new(0), Tick::ZERO, &mut outputs, &mut r);
        assert_eq!(outputs, [Value::Float(42.0)]);
        // But a different, live host still corrupts.
        u.corrupt(HostId::new(1), Tick::ZERO, &mut outputs, &mut r);
        assert_eq!(outputs, [Value::Float(-1.0)]);
    }

    /// The wrappers compose over arbitrary inner injectors in any order.
    #[test]
    fn wrappers_compose_in_both_orders() {
        let mut ab = logrel_core::Architecture::builder();
        ab.host(HostDecl::new("a", Reliability::new(0.9).unwrap()))
            .unwrap();
        ab.host(HostDecl::new("b", Reliability::new(0.9).unwrap()))
            .unwrap();
        let arch = ab.build();
        let mut r = rng();

        // Crash process over corruption over transient faults.
        let mut f = PermanentFaults::wrapping(
            CorruptingFaults::wrapping(ProbabilisticFaults::from_architecture(&arch), 1.0, -7.0),
            vec![0.0, 0.0],
        );
        let mut outputs = [Value::Float(1.0)];
        assert!(
            f.host_ok(HostId::new(0), Tick::ZERO, &mut r),
            "zero hazard keeps the host up"
        );
        f.corrupt(HostId::new(0), Tick::ZERO, &mut outputs, &mut r);
        assert_eq!(
            outputs,
            [Value::Float(-7.0)],
            "live host corrupts through the stack"
        );

        // Unplug over a crash process: the unplugged host is down even
        // though its hazard is zero.
        let mut g = UnplugAt::new(
            PermanentFaults::new(vec![0.0, 0.0]),
            HostId::new(1),
            Tick::new(10),
        );
        assert!(g.host_ok(HostId::new(1), Tick::new(9), &mut r));
        assert!(!g.host_ok(HostId::new(1), Tick::new(10), &mut r));
        assert!(g.host_ok(HostId::new(0), Tick::new(10), &mut r));
    }
}
