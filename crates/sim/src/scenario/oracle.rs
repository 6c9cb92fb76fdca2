//! The scenario as a per-call injector: the test oracle of the
//! lane-group kernel's fault model.
//!
//! [`PerLaneInjector`] interprets a [`Scenario`] over a base injector one
//! hook call at a time, with its own copy of the tables, scanning them on
//! every call and comparing each draw with its probability as a float.
//! It shares no code with the lockstep path (`scenario/lanes.rs`,
//! `draws.rs`): [`Simulation::run_reference`] over one `PerLaneInjector`
//! per replication is the oracle every lane of a group run is compared
//! with (`oracle_tests.rs`, and the integration tests, which include
//! this file by path).
//!
//! [`Simulation::run_reference`]: logrel_sim::Simulation::run_reference

use logrel_core::{HostId, SensorId, TaskId, Tick, Value};
use logrel_sim::fault::FaultInjector;
use logrel_sim::scenario::{HostSet, Scenario, ScenarioError, ScenarioEvent};
use rand::rngs::StdRng;
use rand::Rng;

/// Per-burst Gilbert–Elliott chain state.
#[derive(Debug, Clone, Copy)]
struct GeState {
    bad: bool,
    /// Last instant the chain advanced at (`u64::MAX` = never).
    last: u64,
    /// Loss decision for the current instant.
    lose_now: bool,
}

/// Runs a [`Scenario`] over an inner injector.
///
/// Crash/rejoin windows silence the host on every channel and surface
/// through [`FaultInjector::rejoined_at`] for the warm-up rule. The inner
/// injector's draws are sampled unconditionally and first, so outside
/// scripted outages the composite behaves bit-identically to the inner
/// injector alone.
#[derive(Debug, Clone)]
pub struct PerLaneInjector<I> {
    inner: I,
    /// Per host: crash/rejoin transitions as (instant, is_rejoin), sorted.
    transitions: Vec<Vec<(u64, bool)>>,
    /// Per host: flaky windows (from, until, up).
    flaky: Vec<Vec<(u64, u64, f64)>>,
    /// Cached flaky decision per host: (instant + 1, up) — 0 = no cache.
    flaky_cache: Vec<(u64, bool)>,
    bursts: Vec<(u64, u64, f64, f64, f64)>,
    ge: Vec<GeState>,
    /// Common-cause groups: (from, until, p, members), in event order.
    commons: Vec<(u64, u64, f64, HostSet)>,
    /// Cached group decision: (instant + 1, down) — 0 = no cache. The
    /// first member queried at an instant draws for the whole group.
    common_cache: Vec<(u64, bool)>,
    /// Per host: wear-out windows (from, until, shape, scale).
    wearouts: Vec<Vec<(u64, u64, f64, f64)>>,
    /// Cached wear decision per host: (instant + 1, up) — 0 = no cache.
    wear_cache: Vec<(u64, bool)>,
    /// Partition windows: (from, until, one side). Draw-free.
    splits: Vec<(u64, u64, HostSet)>,
    /// Adversary windows: (from, until, hold). Draw-free.
    adversaries: Vec<(u64, u64, u64)>,
    /// Per host: adversary-imposed downtime — down while `now < until`.
    adv_until: Vec<u64>,
    /// Per host: crash hazards, in event order, and whether one struck.
    hazards: Vec<Vec<f64>>,
    dead: Vec<bool>,
    /// Per host: corruptions as (probability, garbage value), in event
    /// order.
    corrupts: Vec<Vec<(f64, f64)>>,
    /// Where the last hook that was handed the generator left it.
    stream: Option<[u64; 4]>,
}

impl<I: FaultInjector> PerLaneInjector<I> {
    /// Compiles `scenario` over `inner` for a model with `host_count`
    /// hosts and `comm_count` communicators.
    pub fn new(
        inner: I,
        scenario: &Scenario,
        host_count: usize,
        comm_count: usize,
    ) -> Result<Self, ScenarioError> {
        scenario.check_bounds(host_count, comm_count)?;
        let mut transitions = vec![Vec::new(); host_count];
        let mut flaky = vec![Vec::new(); host_count];
        let mut bursts = Vec::new();
        let mut commons = Vec::new();
        let mut wearouts = vec![Vec::new(); host_count];
        let mut splits = Vec::new();
        let mut adversaries = Vec::new();
        let mut hazards = vec![Vec::new(); host_count];
        let mut corrupts = vec![Vec::new(); host_count];
        for e in scenario.events() {
            match *e {
                ScenarioEvent::Crash { host, at } => {
                    transitions[host.index()].push((at.as_u64(), false));
                }
                ScenarioEvent::Rejoin { host, at } => {
                    transitions[host.index()].push((at.as_u64(), true));
                }
                ScenarioEvent::Flaky {
                    host,
                    from,
                    until,
                    up,
                } => flaky[host.index()].push((from.as_u64(), until.as_u64(), up)),
                ScenarioEvent::Burst {
                    from,
                    until,
                    p_enter,
                    p_exit,
                    loss,
                } => bursts.push((from.as_u64(), until.as_u64(), p_enter, p_exit, loss)),
                ScenarioEvent::StuckSensor { .. } => {} // environment-side
                ScenarioEvent::CommonCause {
                    hosts,
                    from,
                    until,
                    p,
                } => commons.push((from.as_u64(), until.as_u64(), p, hosts)),
                ScenarioEvent::Partition { hosts, from, until } => {
                    splits.push((from.as_u64(), until.as_u64(), hosts));
                }
                ScenarioEvent::Wearout {
                    host,
                    from,
                    until,
                    shape,
                    scale,
                } => wearouts[host.index()].push((from.as_u64(), until.as_u64(), shape, scale)),
                ScenarioEvent::Adversary { from, until, hold } => {
                    adversaries.push((from.as_u64(), until.as_u64(), hold));
                }
                ScenarioEvent::Hazard { host, p } => hazards[host.index()].push(p),
                ScenarioEvent::Corrupt { host, p, value } => {
                    corrupts[host.index()].push((p, value));
                }
            }
        }
        for t in &mut transitions {
            t.sort_unstable();
        }
        Ok(PerLaneInjector {
            inner,
            transitions,
            flaky,
            flaky_cache: vec![(0, true); host_count],
            ge: vec![
                GeState {
                    bad: false,
                    last: u64::MAX,
                    lose_now: false,
                };
                bursts.len()
            ],
            bursts,
            common_cache: vec![(0, false); commons.len()],
            commons,
            wearouts,
            wear_cache: vec![(0, true); host_count],
            splits,
            adversaries,
            adv_until: vec![0; host_count],
            hazards,
            dead: vec![false; host_count],
            corrupts,
            stream: None,
        })
    }

    /// The state of the generator the hooks were handed, as the last one
    /// left it (`None` before the first call). Every draw of a run under
    /// this injector is made in a hook, so after the run this is where
    /// the run's stream stands.
    pub fn stream(&self) -> Option<[u64; 4]> {
        self.stream
    }

    /// Latest crash/rejoin transition of `host` at or before `now`:
    /// `Some(true)` = rejoined, `Some(false)` = crashed, `None` = no
    /// transition yet.
    fn last_transition(&self, host: HostId, now: u64) -> Option<(u64, bool)> {
        let ts = &self.transitions[host.index()];
        match ts.partition_point(|&(at, _)| at <= now) {
            0 => None,
            i => Some(ts[i - 1]),
        }
    }

    fn crash_down(&self, host: HostId, now: u64) -> bool {
        matches!(self.last_transition(host, now), Some((_, false)))
    }

    /// The flaky decision for `(host, now)`, drawn once per instant and
    /// cached so execution and broadcast of the same instant agree. One
    /// draw per window containing `now`.
    fn flaky_up(&mut self, host: HostId, now: u64, rng: &mut StdRng) -> bool {
        let h = host.index();
        if self.flaky_cache[h].0 == now + 1 {
            return self.flaky_cache[h].1;
        }
        let mut up = true;
        for &(from, until, p) in &self.flaky[h] {
            if (from..until).contains(&now) && !rng.gen_bool(p) {
                up = false;
            }
        }
        self.flaky_cache[h] = (now + 1, up);
        up
    }

    /// The common-cause decision for `(host, now)`: every group that
    /// contains `host` and whose window contains `now` draws once per
    /// instant — made by the first member queried, cached for the rest —
    /// so all members fail *together*. Zero draws outside windows.
    fn common_down(&mut self, host: HostId, now: u64, rng: &mut StdRng) -> bool {
        let mut down = false;
        for (i, &(from, until, p, members)) in self.commons.iter().enumerate() {
            if !members.contains(host) || !(from..until).contains(&now) {
                continue;
            }
            let cache = &mut self.common_cache[i];
            if cache.0 != now + 1 {
                *cache = (now + 1, rng.gen_bool(p));
            }
            if cache.1 {
                down = true;
            }
        }
        down
    }

    /// The Weibull wear-out decision for `(host, now)`, one unconditional
    /// draw per active window per new instant with survival probability
    /// `exp(−(τ/scale)^shape)` at window age `τ`. Cached per instant like
    /// the flaky decision; zero draws outside windows.
    fn wear_up(&mut self, host: HostId, now: u64, rng: &mut StdRng) -> bool {
        let h = host.index();
        if self.wear_cache[h].0 == now + 1 {
            return self.wear_cache[h].1;
        }
        let mut up = true;
        for &(from, until, shape, scale) in &self.wearouts[h] {
            if (from..until).contains(&now) {
                let x = (now - from) as f64 / scale;
                // The canonical shapes — exponential (1) and Rayleigh
                // (2) — skip the libm powf; this is the per-instant hot
                // path of every wearing host.
                let hazard = if shape == 2.0 {
                    x * x
                } else if shape == 1.0 {
                    x
                } else {
                    x.powf(shape)
                };
                if !rng.gen_bool((-hazard).exp()) {
                    up = false;
                }
            }
        }
        self.wear_cache[h] = (now + 1, up);
        up
    }

    /// The crash hazards of `host` at one invocation: each draws, in event
    /// order, while the host is still alive; one that strikes kills it for
    /// good. Returns whether the host is dead.
    fn hazard_dead(&mut self, host: HostId, rng: &mut StdRng) -> bool {
        let h = host.index();
        for &p in &self.hazards[h] {
            if !self.dead[h] && rng.gen::<f64>() < p {
                self.dead[h] = true;
            }
        }
        self.dead[h]
    }

    /// Whether the adversary currently holds `host` down. Pure.
    fn adv_down(&self, host: HostId, now: u64) -> bool {
        now < self.adv_until[host.index()]
    }

    /// Advances every burst chain whose window contains `now` (once per
    /// instant) and reports whether the broadcast at `now` survives all
    /// of them. Exactly two draws per active window per new instant
    /// (transition + loss) and zero outside windows, independent of the
    /// chain state.
    fn burst_ok(&mut self, now: u64, rng: &mut StdRng) -> bool {
        let mut ok = true;
        for (i, &(from, until, p_enter, p_exit, loss)) in self.bursts.iter().enumerate() {
            if !(from..until).contains(&now) {
                continue;
            }
            let st = &mut self.ge[i];
            if st.last != now {
                st.last = now;
                let flip = rng.gen::<f64>();
                if st.bad {
                    if flip < p_exit {
                        st.bad = false;
                    }
                } else if flip < p_enter {
                    st.bad = true;
                }
                // Draw the loss unconditionally so the stream does not
                // depend on the chain state.
                st.lose_now = rng.gen::<f64>() < loss;
            }
            if st.bad && st.lose_now {
                ok = false;
            }
        }
        ok
    }
}

impl<I: FaultInjector> FaultInjector for PerLaneInjector<I> {
    fn host_ok(&mut self, host: HostId, now: Tick, rng: &mut StdRng) -> bool {
        let inner_ok = self.inner.host_ok(host, now, rng);
        let t = now.as_u64();
        let flaky_up = self.flaky_up(host, t, rng);
        let common_down = self.common_down(host, t, rng);
        let wear_up = self.wear_up(host, t, rng);
        let dead = self.hazard_dead(host, rng);
        self.stream = Some(rng.state());
        inner_ok
            && flaky_up
            && !common_down
            && wear_up
            && !dead
            && !self.crash_down(host, t)
            && !self.adv_down(host, t)
    }

    fn sensor_ok(&mut self, sensor: SensorId, now: Tick, rng: &mut StdRng) -> bool {
        let ok = self.inner.sensor_ok(sensor, now, rng);
        self.stream = Some(rng.state());
        ok
    }

    fn broadcast_ok(&mut self, host: HostId, now: Tick, rng: &mut StdRng) -> bool {
        let inner_ok = self.inner.broadcast_ok(host, now, rng);
        let t = now.as_u64();
        let burst_ok = self.burst_ok(t, rng);
        let flaky_up = self.flaky_up(host, t, rng);
        let common_down = self.common_down(host, t, rng);
        let wear_up = self.wear_up(host, t, rng);
        self.stream = Some(rng.state());
        inner_ok
            && burst_ok
            && flaky_up
            && !common_down
            && wear_up
            && !self.dead[host.index()]
            && !self.crash_down(host, t)
            && !self.adv_down(host, t)
    }

    /// Called for delivered replicas only, so a silenced host never
    /// corrupts: one draw per `corrupt` event of the host, in event order.
    fn corrupt(&mut self, host: HostId, now: Tick, outputs: &mut [Value], rng: &mut StdRng) {
        for &(p, garbage) in &self.corrupts[host.index()] {
            if rng.gen::<f64>() < p {
                for v in outputs.iter_mut() {
                    if matches!(v, Value::Float(_)) {
                        *v = Value::Float(garbage);
                    }
                }
            }
        }
        self.inner.corrupt(host, now, outputs, rng);
        self.stream = Some(rng.state());
    }

    fn rejoined_at(&self, host: HostId, now: Tick) -> Option<Tick> {
        match self.last_transition(host, now.as_u64()) {
            Some((at, true)) => Some(Tick::new(at)),
            Some((_, false)) => None,
            None => self.inner.rejoined_at(host, now),
        }
    }

    fn delivers(&self, sender: HostId, receiver: HostId, now: Tick) -> bool {
        let t = now.as_u64();
        self.splits.iter().all(|&(from, until, side)| {
            !(from..until).contains(&t) || side.contains(sender) == side.contains(receiver)
        }) && self.inner.delivers(sender, receiver, now)
    }

    fn observe_vote(&mut self, task: TaskId, now: Tick, delivered: &[HostId], total: usize) {
        self.inner.observe_vote(task, now, delivered, total);
        let t = now.as_u64();
        // The pivot: the vote holds exactly the minimal strict majority,
        // so losing any one delivering replica flips it. Target the
        // lowest-indexed delivering host (deterministic, draw-free).
        if delivered.is_empty() || delivered.len() != total / 2 + 1 {
            return;
        }
        let target = delivered.iter().copied().min().expect("non-empty");
        for &(from, until, hold) in &self.adversaries {
            if (from..until).contains(&t) {
                let u = &mut self.adv_until[target.index()];
                *u = (*u).max(t + 1 + hold);
            }
        }
    }
}
