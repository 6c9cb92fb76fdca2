//! The lane-group kernel against its oracle.
//!
//! The first tests pin the per-call semantics of every event kind on the
//! oracle itself ([`PerLaneInjector`]). The proptest then runs random
//! scenarios over every event kind through the lane-group kernel, whose
//! lanes carry the scenario as data, and through
//! [`Simulation::run_reference`] over one `PerLaneInjector` per lane, and
//! requires every lane's trace, counts and final values, and the position
//! of its random stream, to be the reference's.

use super::oracle::PerLaneInjector;
use super::{HostSet, Scenario, ScenarioEnvironment, ScenarioEvent, ScenarioFaults};
use crate::behavior::BehaviorMap;
use crate::bitslice::LaneContext;
use crate::environment::ConstantEnvironment;
use crate::fault::{FaultInjector, FaultModel, NoFaults, ProbabilisticFaults};
use crate::kernel::{SimConfig, Simulation};
use crate::montecarlo::derive_seed;
use crate::voting::VotingStrategy;
use logrel_core::{
    Architecture, CommunicatorDecl, CommunicatorId, HostDecl, HostId, Implementation, Reliability,
    SensorDecl, SensorId, Specification, TaskDecl, TaskId, Tick, TimeDependentImplementation,
    Value, ValueType,
};
use logrel_obs::NoopSink;
use proptest::prop_assert_eq;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn rng() -> StdRng {
    StdRng::seed_from_u64(7)
}

#[test]
fn crash_and_rejoin_silence_the_window() {
    let s = Scenario::parse("crash host=0 at=10\nrejoin host=0 at=20").unwrap();
    let mut inj = PerLaneInjector::new(NoFaults, &s, 2, 0).unwrap();
    let mut r = rng();
    let h = HostId::new(0);
    assert!(inj.host_ok(h, Tick::new(9), &mut r));
    for t in 10..20 {
        assert!(!inj.host_ok(h, Tick::new(t), &mut r), "t={t}");
        assert!(!inj.broadcast_ok(h, Tick::new(t), &mut r));
        assert_eq!(inj.rejoined_at(h, Tick::new(t)), None);
    }
    assert!(inj.host_ok(h, Tick::new(20), &mut r));
    assert_eq!(inj.rejoined_at(h, Tick::new(20)), Some(Tick::new(20)));
    assert_eq!(inj.rejoined_at(h, Tick::new(999)), Some(Tick::new(20)));
    // The other host is untouched and has no rejoin.
    let other = HostId::new(1);
    assert!(inj.host_ok(other, Tick::new(15), &mut r));
    assert_eq!(inj.rejoined_at(other, Tick::new(15)), None);
}

#[test]
fn scenario_draws_nothing_outside_windows() {
    // With NoFaults inside and no flaky/burst window at `now`, the
    // injector must not consume randomness: two RNG clones stay in
    // lockstep.
    let s = Scenario::parse("crash host=0 at=10\nrejoin host=0 at=20").unwrap();
    let mut inj = PerLaneInjector::new(NoFaults, &s, 1, 0).unwrap();
    let mut r = rng();
    for t in 0..40 {
        inj.host_ok(HostId::new(0), Tick::new(t), &mut r);
        inj.broadcast_ok(HostId::new(0), Tick::new(t), &mut r);
    }
    let mut fresh = rng();
    assert_eq!(r.gen::<f64>(), fresh.gen::<f64>());
}

#[test]
fn flaky_rate_matches_up_probability() {
    let s = Scenario::parse("flaky host=0 from=0 until=1000000 up=0.8").unwrap();
    let mut inj = PerLaneInjector::new(NoFaults, &s, 1, 0).unwrap();
    let mut r = rng();
    let n = 100_000u64;
    let mut up = 0u64;
    for t in 0..n {
        let a = inj.host_ok(HostId::new(0), Tick::new(t), &mut r);
        // Broadcast agrees with execution within the same instant.
        let b = inj.broadcast_ok(HostId::new(0), Tick::new(t), &mut r);
        assert_eq!(a, b, "t={t}");
        up += u64::from(a);
    }
    let rate = up as f64 / n as f64;
    assert!((rate - 0.8).abs() < 0.01, "rate {rate}");
    // Flaky windows are transient: never a rejoin.
    assert_eq!(inj.rejoined_at(HostId::new(0), Tick::new(n)), None);
}

#[test]
fn burst_loss_only_in_bad_state() {
    // enter=1 forces Bad at the first instant; loss=1 kills every
    // broadcast in the window; exit=0 keeps it Bad.
    let s = Scenario::parse("burst from=10 until=20 enter=1 exit=0 loss=1").unwrap();
    let mut inj = PerLaneInjector::new(NoFaults, &s, 1, 0).unwrap();
    let mut r = rng();
    let h = HostId::new(0);
    assert!(inj.broadcast_ok(h, Tick::new(9), &mut r));
    for t in 10..20 {
        assert!(!inj.broadcast_ok(h, Tick::new(t), &mut r), "t={t}");
        // Host execution is unaffected by broadcast bursts.
        assert!(inj.host_ok(h, Tick::new(t), &mut r));
    }
    assert!(inj.broadcast_ok(h, Tick::new(20), &mut r));
}

#[test]
fn common_cause_downs_the_group_together() {
    let s = Scenario::parse("common hosts=0,1 from=0 until=100000 p=0.3").unwrap();
    let mut inj = PerLaneInjector::new(NoFaults, &s, 3, 0).unwrap();
    let mut r = rng();
    let n = 50_000u64;
    let mut down = 0u64;
    for t in 0..n {
        let a = inj.host_ok(HostId::new(0), Tick::new(t), &mut r);
        let b = inj.host_ok(HostId::new(1), Tick::new(t), &mut r);
        // One draw per instant for the whole group: members always
        // agree — the failures are perfectly correlated.
        assert_eq!(a, b, "t={t}");
        // Broadcast of the same instant reuses the cached decision.
        assert_eq!(a, inj.broadcast_ok(HostId::new(0), Tick::new(t), &mut r));
        // A host outside the group is untouched.
        assert!(inj.host_ok(HostId::new(2), Tick::new(t), &mut r));
        down += u64::from(!a);
    }
    // The marginal per-instant failure rate of each member matches
    // the group probability (what an independent flaky window with
    // up = 1 − p would give it).
    let rate = down as f64 / n as f64;
    assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
}

#[test]
fn wearout_hazard_grows_with_age() {
    // shape=2, scale=1000: survival exp(−(τ/1000)²) — certain at age
    // 0, astronomically unlikely by age 5000.
    let s = Scenario::parse("wearout host=0 from=100 until=10000 shape=2 scale=1000").unwrap();
    let mut inj = PerLaneInjector::new(NoFaults, &s, 1, 0).unwrap();
    let mut r = rng();
    let h = HostId::new(0);
    // Outside the window: untouched (and draw-free, checked below).
    assert!(inj.host_ok(h, Tick::new(99), &mut r));
    // Age 0: survival probability exactly 1.
    assert!(inj.host_ok(h, Tick::new(100), &mut r));
    // Execution and broadcast of one instant agree via the cache.
    for t in 100..200 {
        let a = inj.host_ok(h, Tick::new(t), &mut r);
        assert_eq!(a, inj.broadcast_ok(h, Tick::new(t), &mut r), "t={t}");
    }
    // Deep into wear-out the host is effectively gone.
    let up = (5000..5100)
        .filter(|&t| inj.host_ok(h, Tick::new(t), &mut r))
        .count();
    assert_eq!(up, 0, "survivals at age 4900+: {up}");
    // Wear-out is transient (no rejoin bookkeeping).
    assert_eq!(inj.rejoined_at(h, Tick::new(9999)), None);
}

#[test]
fn partition_masks_cross_side_delivery_only() {
    let s = Scenario::parse("partition hosts=0 from=10 until=20").unwrap();
    let mut inj = PerLaneInjector::new(NoFaults, &s, 3, 0).unwrap();
    let (a, b, c) = (HostId::new(0), HostId::new(1), HostId::new(2));
    // Inside the window: the listed side {0} is cut off from {1, 2},
    // both directions; same-side pairs still deliver.
    for t in 10..20 {
        let now = Tick::new(t);
        assert!(!inj.delivers(a, b, now), "t={t}");
        assert!(!inj.delivers(b, a, now), "t={t}");
        assert!(inj.delivers(b, c, now), "t={t}");
        assert!(inj.delivers(a, a, now), "t={t}");
    }
    // Outside: everything delivers.
    for t in [0, 9, 20, 100] {
        assert!(inj.delivers(a, b, Tick::new(t)), "t={t}");
    }
    // Partitions never touch execution or broadcast draws.
    let mut r = rng();
    for t in 0..40 {
        assert!(inj.host_ok(a, Tick::new(t), &mut r));
        assert!(inj.broadcast_ok(a, Tick::new(t), &mut r));
    }
    let mut fresh = rng();
    assert_eq!(r.gen::<f64>(), fresh.gen::<f64>());
}

#[test]
fn adversary_holds_the_vote_pivot_down() {
    let s = Scenario::parse("adversary from=0 until=100 hold=5").unwrap();
    let mut inj = PerLaneInjector::new(NoFaults, &s, 3, 0).unwrap();
    let mut r = rng();
    let (a, b, c) = (HostId::new(0), HostId::new(1), HostId::new(2));
    let task = TaskId::new(0);
    // Unanimous vote (3/3): no pivot, nothing happens.
    inj.observe_vote(task, Tick::new(10), &[a, b, c], 3);
    assert!(inj.host_ok(a, Tick::new(11), &mut r));
    // Below majority (1/3): the vote already failed, nothing to flip.
    inj.observe_vote(task, Tick::new(10), &[b], 3);
    assert!(inj.host_ok(b, Tick::new(11), &mut r));
    // Minimal strict majority (2/3): the lowest-indexed delivering
    // host is held down for `hold` instants starting next instant.
    inj.observe_vote(task, Tick::new(10), &[b, c], 3);
    for t in 11..16 {
        assert!(!inj.host_ok(b, Tick::new(t), &mut r), "t={t}");
        assert!(!inj.broadcast_ok(b, Tick::new(t), &mut r), "t={t}");
    }
    assert!(inj.host_ok(b, Tick::new(16), &mut r));
    assert!(inj.host_ok(c, Tick::new(12), &mut r), "non-pivot untouched");
    // Outside the adversary window the hook is inert.
    inj.observe_vote(task, Tick::new(500), &[b, c], 3);
    assert!(inj.host_ok(b, Tick::new(501), &mut r));
    // The whole adversary machinery is draw-free.
    let mut fresh = rng();
    assert_eq!(r.gen::<f64>(), fresh.gen::<f64>());
}

#[test]
fn new_events_draw_nothing_outside_windows() {
    // Same discipline as crash/rejoin: with every window in the
    // future, the composite consumes no randomness at all.
    let s = Scenario::parse(
        "common hosts=0,1 from=1000 until=2000 p=0.5\n\
         wearout host=0 from=1000 until=2000 shape=1 scale=10\n\
         partition hosts=0 from=1000 until=2000\n\
         adversary from=1000 until=2000 hold=5",
    )
    .unwrap();
    let mut inj = PerLaneInjector::new(NoFaults, &s, 2, 0).unwrap();
    let mut r = rng();
    for t in 0..100 {
        for h in [HostId::new(0), HostId::new(1)] {
            assert!(inj.host_ok(h, Tick::new(t), &mut r));
            assert!(inj.broadcast_ok(h, Tick::new(t), &mut r));
        }
        inj.delivers(HostId::new(0), HostId::new(1), Tick::new(t));
    }
    let mut fresh = rng();
    assert_eq!(r.gen::<f64>(), fresh.gen::<f64>());
}

#[test]
fn hazard_kills_a_host_for_good_and_draws_only_while_it_lives() {
    let s = Scenario::parse("hazard host=0 p=0.5\nhazard host=1 p=0").unwrap();
    let mut inj = PerLaneInjector::new(NoFaults, &s, 2, 0).unwrap();
    let mut r = rng();
    let (h0, h1) = (HostId::new(0), HostId::new(1));
    let mut died_at = None;
    for t in 0..100 {
        if !inj.host_ok(h0, Tick::new(t), &mut r) {
            died_at = Some(t);
            break;
        }
    }
    let died_at = died_at.expect("host 0 must crash with hazard 0.5");
    // Dead forever, its broadcast silenced with it, and no more draws.
    let before = r.clone();
    for t in died_at..died_at + 10 {
        assert!(!inj.host_ok(h0, Tick::new(t), &mut r));
        assert!(!inj.broadcast_ok(h0, Tick::new(t), &mut r));
    }
    assert_eq!(r, before, "a dead host's hazard draws nothing");
    // Host 1 (hazard 0) never dies, but draws at every invocation.
    for t in 0..100 {
        assert!(inj.host_ok(h1, Tick::new(t), &mut r));
    }
    assert_ne!(r, before);
    // A hazard is not a scripted outage: no rejoin bookkeeping.
    assert_eq!(inj.rejoined_at(h0, Tick::new(500)), None);
}

#[test]
fn corrupt_replaces_float_outputs_with_its_value() {
    let s = Scenario::parse(
        "corrupt host=0 p=1 value=-1\ncorrupt host=0 p=0 value=-2\ncorrupt host=1 p=1 value=-3",
    )
    .unwrap();
    let mut inj = PerLaneInjector::new(NoFaults, &s, 2, 0).unwrap();
    let mut r = rng();
    let mut outputs = [Value::Float(42.0), Value::Int(3), Value::Bool(true)];
    inj.corrupt(HostId::new(0), Tick::ZERO, &mut outputs, &mut r);
    assert_eq!(
        outputs,
        [Value::Float(-1.0), Value::Int(3), Value::Bool(true)]
    );
    // One draw per event of the host, whatever it decides.
    let mut fresh = rng();
    fresh.gen::<f64>();
    fresh.gen::<f64>();
    assert_eq!(r, fresh);
}

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
/// windows short enough against `SPAN` to overlap often and hazards
/// weak enough that a host often outlives a few rounds.
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
        match a % 11 {
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
            8 => events.push(ScenarioEvent::Adversary {
                from,
                until,
                hold: 1 + c % 40,
            }),
            9 => events.push(ScenarioEvent::Hazard {
                host,
                p: prob(c) / 16.0,
            }),
            _ => events.push(ScenarioEvent::Corrupt {
                host,
                p: prob(c),
                value: -5.0,
            }),
        }
    }
    Scenario::from_events(events).unwrap()
}

/// Lane `li`'s seed in a run from `seed`.
fn lane_seed(seed: u64, li: usize) -> u64 {
    derive_seed(seed, li as u64)
}

fn env(scn: &Scenario) -> ScenarioEnvironment<ConstantEnvironment> {
    ScenarioEnvironment::new(ConstantEnvironment::new(Value::Float(0.5)), scn, 4)
}

/// One group run of `width` lanes from `seed` under `scn` over `base`,
/// against the reference run of every lane over its own oracle: equal
/// traces, counts and final values, and equal stream positions.
fn group_matches_oracle<B>(
    scn: &Scenario,
    base: B,
    voting: VotingStrategy,
    width: usize,
    seed: u64,
) -> Result<(), proptest::TestCaseError>
where
    B: FaultInjector + FaultModel + Clone,
{
    let sys = system();
    let mut sim = Simulation::new(&sys.spec, &sys.arch, &sys.imp);
    sim.set_voting(voting);
    let comms = sys.spec.communicator_count();
    let faults = ScenarioFaults::new(base.clone(), scn, HOSTS, comms).unwrap();
    let mut lanes: Vec<_> = (0..width)
        .map(|li| LaneContext::plain(lane_seed(seed, li), faults.clone(), env(scn)))
        .collect();
    let mut b = behaviors(&sys.spec);
    let group = sim.run_traced(&mut b, &mut lanes, None, &mut NoopSink, ROUNDS);
    for (li, (lane, out)) in lanes.iter().zip(group).enumerate() {
        let config = SimConfig {
            rounds: ROUNDS,
            seed: lane_seed(seed, li),
        };
        let mut oracle = PerLaneInjector::new(base.clone(), scn, HOSTS, comms).unwrap();
        let reference = sim.run_reference(
            &mut behaviors(&sys.spec),
            &mut env(scn),
            &mut oracle,
            &config,
        );
        prop_assert_eq!(&out, &reference, "lane {} of {}", li, width);
        let start = StdRng::seed_from_u64(config.seed).state();
        let mut oracle_rng = StdRng::from_state(oracle.stream().unwrap_or(start));
        prop_assert_eq!(
            lane.rng().clone().next_u64(),
            oracle_rng.next_u64(),
            "lane {} stream",
            li
        );
    }
    Ok(())
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(48))]

    /// Every lane of a group run under a random scenario over every
    /// event kind is the reference run of its seed over the oracle,
    /// draw for draw, at widths 1, 7 and 64, over both base models and
    /// both voting strategies.
    #[test]
    fn group_runs_match_the_oracle_draw_for_draw(
        raw in proptest::collection::vec(proptest::any::<u64>(), 3..60),
        pick in 0u8..12,
        seed in proptest::any::<u64>(),
    ) {
        let scn = scenario(&raw);
        let width = [1, 7, 64][usize::from(pick % 3)];
        let voting = if pick / 3 % 2 == 0 { VotingStrategy::AnyReliable } else { VotingStrategy::Majority };
        if pick / 6 == 0 {
            group_matches_oracle(&scn, NoFaults, voting, width, seed)?;
        } else {
            let arch = system().arch;
            group_matches_oracle(&scn, ProbabilisticFaults::from_architecture(&arch), voting, width, seed)?;
        }
    }
}
