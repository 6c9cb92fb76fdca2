//! The per-lane scenario injector the lane-group layer replaced, kept as
//! a draw-for-draw test oracle.
//!
//! [`PerLaneInjector`] is the scenario layer as it ran before it became a
//! group object: one injector per lane, each with its own copy of the
//! compiled tables, scanning them on every call. The tests below run
//! random scenarios over every event kind through the lane-group kernel
//! twice — once with a `PerLaneInjector` per lane, once with the bare
//! inner injectors under one [`ScenarioLanes`] — and require the same
//! counts, the same metrics exports and the same position in every lane's
//! random stream.

use super::{HostSet, Scenario, ScenarioError, ScenarioEvent};
use crate::fault::FaultInjector;
use logrel_core::{HostId, SensorId, TaskId, Tick, Value};
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
/// through [`FaultInjector::rejoined_at`] for the kernel's warm-up rule.
/// The inner injector's draws are sampled unconditionally and first, so
/// outside scripted outages the composite behaves bit-identically to the
/// inner injector alone.
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
        })
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

    /// Pure variant of [`Self::flaky_up`] for corruption suppression:
    /// uses the cached decision if present, else reports "up" (a host
    /// whose broadcast was never sampled this instant delivers nothing
    /// anyway).
    fn flaky_up_cached(&self, host: HostId, now: u64) -> bool {
        let h = host.index();
        if self.flaky_cache[h].0 == now + 1 {
            self.flaky_cache[h].1
        } else {
            true
        }
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

    /// Pure variant of [`Self::common_down`] for corruption suppression:
    /// uses cached decisions only (a group never sampled this instant
    /// delivered nothing anyway).
    fn common_down_cached(&self, host: HostId, now: u64) -> bool {
        self.commons
            .iter()
            .enumerate()
            .any(|(i, &(from, until, _, members))| {
                members.contains(host)
                    && (from..until).contains(&now)
                    && self.common_cache[i] == (now + 1, true)
            })
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

    /// Pure variant of [`Self::wear_up`] for corruption suppression.
    fn wear_up_cached(&self, host: HostId, now: u64) -> bool {
        let h = host.index();
        if self.wear_cache[h].0 == now + 1 {
            self.wear_cache[h].1
        } else {
            true
        }
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
        inner_ok
            && flaky_up
            && !common_down
            && wear_up
            && !self.crash_down(host, t)
            && !self.adv_down(host, t)
    }

    fn sensor_ok(&mut self, sensor: SensorId, now: Tick, rng: &mut StdRng) -> bool {
        self.inner.sensor_ok(sensor, now, rng)
    }

    fn broadcast_ok(&mut self, host: HostId, now: Tick, rng: &mut StdRng) -> bool {
        let inner_ok = self.inner.broadcast_ok(host, now, rng);
        let t = now.as_u64();
        let burst_ok = self.burst_ok(t, rng);
        let flaky_up = self.flaky_up(host, t, rng);
        let common_down = self.common_down(host, t, rng);
        let wear_up = self.wear_up(host, t, rng);
        inner_ok
            && burst_ok
            && flaky_up
            && !common_down
            && wear_up
            && !self.crash_down(host, t)
            && !self.adv_down(host, t)
    }

    fn corrupt(&mut self, host: HostId, now: Tick, outputs: &mut [Value], rng: &mut StdRng) {
        let t = now.as_u64();
        // A host silenced by any scripted process is fail-silent: no
        // corruption. The cached variants are pure, so no draws shift.
        if !self.crash_down(host, t)
            && self.flaky_up_cached(host, t)
            && !self.common_down_cached(host, t)
            && self.wear_up_cached(host, t)
            && !self.adv_down(host, t)
        {
            self.inner.corrupt(host, now, outputs, rng);
        }
    }

    fn rejoined_at(&self, host: HostId, now: Tick) -> Option<Tick> {
        match self.last_transition(host, now.as_u64()) {
            Some((at, true)) => Some(Tick::new(at)),
            Some((_, false)) => None,
            None => self.inner.rejoined_at(host, now),
        }
    }

    fn corrupts(&self) -> bool {
        // The scenario layer only *suppresses* inner corruption (crashed
        // or flaked-out hosts are fail-silent); it never corrupts itself.
        self.inner.corrupts()
    }

    fn delivers(&self, sender: HostId, receiver: HostId, now: Tick) -> bool {
        let t = now.as_u64();
        self.splits.iter().all(|&(from, until, side)| {
            !(from..until).contains(&t) || side.contains(sender) == side.contains(receiver)
        }) && self.inner.delivers(sender, receiver, now)
    }

    fn partitions(&self) -> bool {
        !self.splits.is_empty() || self.inner.partitions()
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

    fn adaptive(&self) -> bool {
        !self.adversaries.is_empty() || self.inner.adaptive()
    }
}

mod tests {
    use super::*;
    use crate::behavior::BehaviorMap;
    use crate::bitslice::{BitslicedOutput, LaneContext};
    use crate::environment::ConstantEnvironment;
    use crate::fault::{CorruptingFaults, NoFaults, ProbabilisticFaults};
    use crate::kernel::Simulation;
    use crate::monitor::{LrcMonitor, MonitorConfig};
    use crate::scenario::{ScenarioEnvironment, ScenarioInjector, ScenarioLanes, Timeline};
    use crate::voting::VotingStrategy;
    use logrel_core::{
        Architecture, CommunicatorDecl, CommunicatorId, HostDecl, Implementation, Reliability,
        SensorDecl, Specification, TaskDecl, TimeDependentImplementation, ValueType,
    };
    use logrel_obs::export::to_json_line;
    use logrel_obs::Registry;
    use proptest::prop_assert_eq;
    use rand::SeedableRng;

    const HOSTS: usize = 4;
    const ROUNDS: u64 = 60;
    /// Instants past the horizon (`ROUNDS` rounds of 10 ticks) are fine:
    /// windows may outlast the run.
    const SPAN: u64 = 700;

    struct Sys {
        spec: Specification,
        arch: Architecture,
        imp: TimeDependentImplementation,
    }

    /// A sensor `s` read by two tasks and a stateful task reading `l`,
    /// replicated over four hosts so that hosts serve several tasks at
    /// one instant, with a second mapping phase.
    fn system() -> Sys {
        let r = |v| Reliability::new(v).unwrap();
        let mut sb = Specification::builder();
        let s = sb
            .communicator(
                CommunicatorDecl::new("s", ValueType::Float, 10)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let l = sb
            .communicator(CommunicatorDecl::new("l", ValueType::Float, 5).unwrap())
            .unwrap();
        let u = sb
            .communicator(
                CommunicatorDecl::new("u", ValueType::Float, 5)
                    .unwrap()
                    .with_lrc(r(0.9)),
            )
            .unwrap();
        let v = sb
            .communicator(CommunicatorDecl::new("v", ValueType::Float, 5).unwrap())
            .unwrap();
        let t1 = sb
            .task(TaskDecl::new("t1").reads(s, 0).writes(l, 1))
            .unwrap();
        let t2 = sb
            .task(TaskDecl::new("t2").reads(l, 0).writes(u, 1))
            .unwrap();
        let t3 = sb
            .task(TaskDecl::new("t3").reads(s, 0).writes(v, 1))
            .unwrap();
        let spec = sb.build().unwrap();
        let mut ab = Architecture::builder();
        let hs: Vec<HostId> = (0..HOSTS)
            .map(|i| ab.host(HostDecl::new(format!("h{i}"), r(0.9))).unwrap())
            .collect();
        ab.sensor(SensorDecl::new("sn", r(0.95))).unwrap();
        for t in [t1, t2, t3] {
            ab.wcet_all(t, 1).unwrap();
            ab.wctt_all(t, 1).unwrap();
        }
        let arch = ab.build();
        let p0 = Implementation::builder()
            .assign(t1, [hs[0], hs[1], hs[2]])
            .assign(t2, [hs[1], hs[2], hs[3]])
            .assign(t3, [hs[0], hs[3]])
            .bind_sensor(s, SensorId::new(0))
            .build(&spec, &arch)
            .unwrap();
        let p1 = p0.with_assignment(t1, [hs[0], hs[3]]);
        let imp = TimeDependentImplementation::new(vec![p0, p1]).unwrap();
        Sys { spec, arch, imp }
    }

    fn behaviors(spec: &Specification) -> BehaviorMap {
        let mut b = BehaviorMap::new();
        let f = |x: &Value| x.as_float().unwrap_or(0.0);
        b.register(spec.find_task("t1").unwrap(), move |i: &[Value]| {
            vec![Value::Float(2.0 * f(&i[0]))]
        });
        b.register(spec.find_task("t2").unwrap(), move |i: &[Value]| {
            vec![Value::Float(f(&i[0]) + 1.0)]
        });
        b.register(spec.find_task("t3").unwrap(), move |i: &[Value]| {
            vec![Value::Float(f(&i[0]) - 3.0)]
        });
        b
    }

    /// Cooks raw words into a valid timeline over every event kind, with
    /// windows short enough against `SPAN` to overlap often.
    fn scenario(raw: &[u64]) -> Scenario {
        let mut events = Vec::new();
        let mut clock = [0u64; HOSTS];
        let mut closed = [false; HOSTS];
        // Probabilities with the edges 0 and 1 over-represented.
        let prob = |x: u64| match x % 8 {
            0 => 0.0,
            1 => 1.0,
            _ => (x / 8 % 101) as f64 / 100.0,
        };
        for chunk in raw.chunks(3) {
            let a = chunk[0];
            let b = chunk.get(1).copied().unwrap_or(17);
            let c = chunk.get(2).copied().unwrap_or(29);
            let host = HostId::new((a / 16 % HOSTS as u64) as u32);
            let h = host.index();
            let from = Tick::new(b % SPAN);
            let until = Tick::new(b % SPAN + 1 + c % 200);
            let group = HostSet::from_hosts(
                [host, HostId::new((b / 7 % HOSTS as u64) as u32)]
                    .into_iter()
                    .take(1 + (c / 3 % 2) as usize),
            )
            .unwrap();
            match a % 9 {
                0 | 1 if !closed[h] => {
                    let at = clock[h] + 1 + b % 150;
                    events.push(ScenarioEvent::Crash {
                        host,
                        at: Tick::new(at),
                    });
                    if c % 5 == 0 {
                        closed[h] = true;
                    } else {
                        clock[h] = at + 1 + c % 150;
                        events.push(ScenarioEvent::Rejoin {
                            host,
                            at: Tick::new(clock[h]),
                        });
                    }
                }
                0..=2 => events.push(ScenarioEvent::Flaky {
                    host,
                    from,
                    until,
                    up: prob(c),
                }),
                3 => events.push(ScenarioEvent::StuckSensor {
                    comm: CommunicatorId::new(0),
                    from,
                    until,
                }),
                4 => events.push(ScenarioEvent::Burst {
                    from,
                    until,
                    p_enter: prob(c),
                    p_exit: prob(c / 809),
                    loss: prob(c / 654_481),
                }),
                5 => events.push(ScenarioEvent::CommonCause {
                    hosts: group,
                    from,
                    until,
                    p: prob(c),
                }),
                6 => events.push(ScenarioEvent::Partition {
                    hosts: group,
                    from,
                    until,
                }),
                7 => events.push(ScenarioEvent::Wearout {
                    host,
                    from,
                    until,
                    shape: [1.0, 2.0, 0.7, 1.5][(c % 4) as usize],
                    scale: (c / 4 % 300 + 1) as f64,
                }),
                _ => events.push(ScenarioEvent::Adversary {
                    from,
                    until,
                    hold: 1 + c % 40,
                }),
            }
        }
        Scenario::from_events(events).unwrap()
    }

    /// The inner fault model under test.
    #[derive(Debug, Clone, Copy)]
    enum Inner {
        None,
        Probabilistic,
        Corrupting,
    }

    fn inner(kind: Inner, arch: &Architecture) -> Box<dyn FaultInjector> {
        match kind {
            Inner::None => Box::new(NoFaults),
            Inner::Probabilistic => Box::new(ProbabilisticFaults::from_architecture(arch)),
            Inner::Corrupting => Box::new(CorruptingFaults::wrapping(
                ProbabilisticFaults::from_architecture(arch),
                0.1,
                -5.0,
            )),
        }
    }

    /// Everything a group run leaves behind: the counts, the group's
    /// metrics export, and the next word of every lane's stream.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        updates: Vec<u64>,
        per_lane: Vec<LaneCounts>,
        export: String,
        next_words: Vec<u64>,
    }

    /// One lane's counts: reliable updates per communicator, (delivered,
    /// invocations) per task, and the final values.
    #[derive(Debug, PartialEq)]
    struct LaneCounts {
        reliable: Vec<u64>,
        tasks: Vec<(u64, u64)>,
        finals: Vec<Value>,
    }

    fn outcome<I, E>(
        spec: &Specification,
        out: &BitslicedOutput,
        lanes: Vec<LaneContext<I, E>>,
        sink: &Registry,
    ) -> Outcome {
        let comms: Vec<CommunicatorId> = spec.communicator_ids().collect();
        let per_lane = (0..out.lanes())
            .map(|li| LaneCounts {
                reliable: comms.iter().map(|&c| out.reliable(c, li)).collect(),
                tasks: out
                    .task_stats(li)
                    .iter()
                    .map(|s| (s.delivered, s.invocations))
                    .collect(),
                finals: out.final_values(li),
            })
            .collect();
        Outcome {
            updates: comms.iter().map(|&c| out.updates(c)).collect(),
            per_lane,
            export: to_json_line(sink),
            next_words: lanes
                .into_iter()
                .map(|mut lane| lane.rng_mut().next_u64())
                .collect(),
        }
    }

    type Lane<I> = LaneContext<I, ScenarioEnvironment<ConstantEnvironment>>;

    /// Lane `li` of a run from `seed`, over `injector`.
    fn lane<I>(scn: &Scenario, seed: u64, li: usize, injector: I) -> Lane<I> {
        let env = ScenarioEnvironment::new(ConstantEnvironment::new(Value::Float(0.5)), scn, 4);
        let seed = crate::montecarlo::derive_seed(seed, li as u64);
        LaneContext::plain(seed, injector, env)
    }

    /// One monitored group run of `width` lanes from `seed`: with a
    /// per-lane oracle injector on every lane, or with the bare inner
    /// injectors under one group layer.
    fn run(scn: &Scenario, kind: Inner, width: usize, seed: u64, oracle: bool) -> Outcome {
        let sys = system();
        let mut sim = Simulation::new(&sys.spec, &sys.arch, &sys.imp);
        if matches!(kind, Inner::Corrupting) {
            sim.set_voting(VotingStrategy::Majority);
        }
        let comms = sys.spec.communicator_count();
        let mut monitor = LrcMonitor::with_lanes(
            &sys.spec,
            MonitorConfig {
                window: 8,
                confidence: 0.9,
            },
            width,
        );
        let mut b = behaviors(&sys.spec);
        let mut sink = Registry::with_recorder(48);
        if oracle {
            let mut lanes: Vec<_> = (0..width)
                .map(|li| {
                    let injector =
                        PerLaneInjector::new(inner(kind, &sys.arch), scn, HOSTS, comms).unwrap();
                    lane(scn, seed, li, injector)
                })
                .collect();
            let out = sim.run_monitored(&mut b, &mut lanes, &mut monitor, &mut sink, ROUNDS);
            outcome(&sys.spec, &out, lanes, &sink)
        } else {
            let mut layer =
                ScenarioLanes::new(Timeline::compile(scn, HOSTS, comms).unwrap(), width);
            let mut lanes: Vec<_> = (0..width)
                .map(|li| lane(scn, seed, li, inner(kind, &sys.arch)))
                .collect();
            let out = sim.run_lanes(
                &mut b,
                &mut lanes,
                Some(&mut monitor),
                &mut sink,
                &mut layer,
                ROUNDS,
                &mut (),
            );
            outcome(&sys.spec, &out, lanes, &sink)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// The group layer makes every lane's draws in the per-lane
        /// injector's order and reaches the same outcomes: equal counts,
        /// equal metrics export and equal stream positions, at widths
        /// 1, 3 and 64, over every inner fault model.
        #[test]
        fn group_layer_matches_per_lane_injectors_draw_for_draw(
            raw in proptest::collection::vec(proptest::any::<u64>(), 3..60),
            pick in 0u8..9,
            seed in proptest::any::<u64>(),
        ) {
            let scn = scenario(&raw);
            let kind = [Inner::None, Inner::Probabilistic, Inner::Corrupting][usize::from(pick % 3)];
            let width = [1, 3, 64][usize::from(pick / 3)];
            let group = run(&scn, kind, width, seed, false);
            let oracle = run(&scn, kind, width, seed, true);
            prop_assert_eq!(group, oracle, "{:?} at width {} under\n{}", kind, width, scn);
        }

        /// The one-lane form answers every trait query as the per-lane
        /// injector does, call for call, including out-of-order instants
        /// and vote feedback listing the delivering hosts in any order.
        #[test]
        fn one_lane_form_matches_per_lane_injector_call_for_call(
            raw in proptest::collection::vec(proptest::any::<u64>(), 3..45),
            calls in proptest::collection::vec(proptest::any::<u64>(), 0..300),
            seed in proptest::any::<u64>(),
        ) {
            let scn = scenario(&raw);
            let sys = system();
            let comms = sys.spec.communicator_count();
            let mut group =
                ScenarioInjector::new(inner(Inner::Corrupting, &sys.arch), &scn, HOSTS, comms).unwrap();
            let mut oracle =
                PerLaneInjector::new(inner(Inner::Corrupting, &sys.arch), &scn, HOSTS, comms).unwrap();
            let (mut rg, mut ro) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let mut now = 0u64;
            for (k, &call) in calls.iter().enumerate() {
                // Mostly forward in time, sometimes staying or going back.
                now = match call % 7 {
                    0 => now.saturating_sub(call / 7 % 50),
                    1 | 2 => now,
                    _ => now + call / 7 % 20,
                };
                let t = Tick::new(now);
                let h = HostId::new((call / 1024 % HOSTS as u64) as u32);
                let g = HostId::new((call / 4096 % HOSTS as u64) as u32);
                let answers = match call / 64 % 6 {
                    0 => (group.host_ok(h, t, &mut rg), oracle.host_ok(h, t, &mut ro)),
                    1 => (group.broadcast_ok(h, t, &mut rg), oracle.broadcast_ok(h, t, &mut ro)),
                    2 => (group.delivers(h, g, t), oracle.delivers(h, g, t)),
                    3 => (
                        group.rejoined_at(h, t) == oracle.rejoined_at(h, t),
                        true,
                    ),
                    4 => {
                        let mut a = [Value::Float(1.0)];
                        let mut b = [Value::Float(1.0)];
                        group.corrupt(h, t, &mut a, &mut rg);
                        oracle.corrupt(h, t, &mut b, &mut ro);
                        (a == b, true)
                    }
                    _ => {
                        // A delivering subset in an arbitrary order.
                        let mut delivered: Vec<HostId> = (0..HOSTS as u32)
                            .filter(|i| call >> (20 + i) & 1 == 1)
                            .map(HostId::new)
                            .collect();
                        let shift = (call >> 30) as usize % delivered.len().max(1);
                        delivered.rotate_left(shift);
                        let total = (call >> 40) as usize % 5 + delivered.len();
                        let task = TaskId::new(0);
                        group.observe_vote(task, t, &delivered, total);
                        oracle.observe_vote(task, t, &delivered, total);
                        (true, true)
                    }
                };
                prop_assert_eq!(answers.0, answers.1, "call {} ({}) at {} under\n{}", k, call, now, scn);
                prop_assert_eq!(rg.next_u64(), ro.next_u64(), "stream after call {}", k);
            }
            prop_assert_eq!(group.partitions(), oracle.partitions());
            prop_assert_eq!(group.adaptive(), oracle.adaptive());
        }
    }
}
