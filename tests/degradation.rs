//! Graceful degradation end to end: a value-corrupting (non-fail-silent)
//! replica poisons a majority vote, the online monitor raises the LRC
//! alarm, and the degradation rules riding on that monitor
//! ([`LrcMonitor::with_rules`]) restore service —
//! either by dropping the bad replica from the vote (3TS and
//! steer-by-wire) or by switching a modal E-machine program into a
//! degraded-rate mode.

use logrel_core::{HostId, SensorId, Tick, TimeDependentImplementation, Value};
use logrel_emachine::{generate_modal, DriverOp, EMachine, ModalMode, ModeSwitch, Platform};
use logrel_lang::{elaborate_modes, parse};
use logrel_obs::NoopSink;
use logrel_sim::{
    AlarmKind, BehaviorMap, ConstantEnvironment, DegradationRule, FaultInjector, LrcMonitor,
    MonitorConfig, NoFaults, Response, Scenario, ScenarioInjector, SimConfig, SimOutput,
    Simulation, VotingStrategy,
};
use logrel_steerbywire::behaviors::build_behaviors as build_steer_behaviors;
use logrel_steerbywire::{SteerScenario, SteerSystem, VehicleParams};
use logrel_threetank::behaviors::build_behaviors as build_tank_behaviors;
use logrel_threetank::{PlantParams, Scenario as Deployment, ThreeTankSystem};
use rand::rngs::StdRng;

const GARBAGE: f64 = 1.0e9;

/// A non-fail-silent host: always up, always delivering, but replacing
/// every output with garbage — the failure mode the paper's fail-silence
/// assumption (its ref [2]) rules out, and [`VotingStrategy::Majority`]
/// plus replica-dropping tolerates.
struct BadHost {
    host: HostId,
}

impl FaultInjector for BadHost {
    fn host_ok(&mut self, _host: HostId, _now: Tick, _rng: &mut StdRng) -> bool {
        true
    }
    fn sensor_ok(&mut self, _sensor: SensorId, _now: Tick, _rng: &mut StdRng) -> bool {
        true
    }
    fn broadcast_ok(&mut self, _host: HostId, _now: Tick, _rng: &mut StdRng) -> bool {
        true
    }
    fn corrupt(&mut self, host: HostId, _now: Tick, outputs: &mut [Value], _rng: &mut StdRng) {
        if host == self.host {
            for o in outputs {
                *o = Value::Float(GARBAGE);
            }
        }
    }
}

/// Reliable updates of `comm` strictly after `from`, as (total, reliable).
fn reliability_after(out: &SimOutput, comm: logrel_core::CommunicatorId, from: u64) -> (u64, u64) {
    let mut total = 0;
    let mut reliable = 0;
    for &(t, v) in out.trace.values(comm) {
        if t.as_u64() >= from {
            total += 1;
            reliable += u64::from(v.is_reliable());
        }
    }
    (total, reliable)
}

/// 3TS with replicated controllers and a garbage-emitting h1: majority
/// voting blanks u1/u2 until the degrader drops h1's replicas, after
/// which h2 alone carries both controllers and the alarms clear.
#[test]
fn three_tank_drops_the_corrupting_replica() {
    let sys =
        ThreeTankSystem::with_options(Deployment::ReplicatedControllers, 1.0, Some(0.999))
            .unwrap();
    let params = PlantParams::default();
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let mut sim = Simulation::new(&sys.spec, &sys.arch, &imp);
    sim.set_voting(VotingStrategy::Majority);
    let config = SimConfig {
        rounds: 100,
        seed: 21,
    };

    let run = |monitor: &mut LrcMonitor| -> SimOutput {
        let mut behaviors: BehaviorMap = build_tank_behaviors(&sys, &params);
        let mut env = ConstantEnvironment::new(Value::Float(0.25));
        let mut inj = BadHost { host: sys.ids.h1 };
        sim.run_observed(
            &mut behaviors,
            &mut env,
            &mut inj,
            Some(monitor),
            &mut NoopSink,
            &config,
        )
    };

    // Counterfactual: without a response the vote never recovers.
    let mut monitor = LrcMonitor::new(&sys.spec, MonitorConfig::default());
    let poisoned = run(&mut monitor);
    let (total, reliable) = reliability_after(&poisoned, sys.ids.u1, 1_000);
    assert_eq!(reliable, 0, "2-replica majority with one liar is ⊥: {total}");
    assert!(monitor.lane(0).active(sys.ids.u1), "the alarm never clears");

    // With the degrader: both controllers drop their h1 replica at the
    // first confident alarm and service resumes on h2 alone.
    let mut degrader = LrcMonitor::new(&sys.spec, MonitorConfig::default())
        .with_rules(vec![
            DegradationRule {
                comm: sys.ids.u1,
                response: Response::DropReplica {
                    task: sys.ids.t1,
                    host: sys.ids.h1,
                },
            },
            DegradationRule {
                comm: sys.ids.u2,
                response: Response::DropReplica {
                    task: sys.ids.t2,
                    host: sys.ids.h1,
                },
            },
        ])
        .expect("every rule can act");
    let recovered = run(&mut degrader);
    let engaged = degrader
        .lane(0)
        .engaged_at(0)
        .expect("u1 rule engaged")
        .as_u64();
    assert!(engaged < 2_000, "engagement is prompt: {engaged}");
    assert!(degrader.lane(0).engaged_at(1).is_some());
    let (total, reliable) = reliability_after(&recovered, sys.ids.u1, 2_000);
    assert_eq!(reliable, total, "u1 is fully reliable after the drop");
    // ...and carries h2's genuine value, not the garbage.
    for &(t, v) in recovered.trace.values(sys.ids.u1) {
        if t.as_u64() >= 2_000 {
            assert!(v.as_float().unwrap().abs() < GARBAGE / 2.0);
        }
    }
    let u1_alarms: Vec<AlarmKind> = degrader
        .lane(0)
        .alarms()
        .iter()
        .filter(|a| a.comm == sys.ids.u1)
        .map(|a| a.kind)
        .collect();
    assert_eq!(u1_alarms, vec![AlarmKind::Raised, AlarmKind::Cleared]);
    assert!(!degrader.lane(0).active(sys.ids.u1));
}

/// Steer-by-wire: a garbage-emitting ecu_a poisons `filtered` and `cmd`
/// under majority voting; dropping its `filter` and `steer` replicas
/// restores the steering command LRC.
#[test]
fn steer_by_wire_drops_the_corrupting_ecu() {
    let sys = SteerSystem::new(SteerScenario::ReplicatedEcus, Some(0.99)).unwrap();
    let params = VehicleParams::default();
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let mut sim = Simulation::new(&sys.spec, &sys.arch, &imp);
    sim.set_voting(VotingStrategy::Majority);
    let config = SimConfig {
        rounds: 200,
        seed: 33,
    };

    let run = |monitor: &mut LrcMonitor| -> SimOutput {
        let mut behaviors: BehaviorMap = build_steer_behaviors(&sys, &params);
        let mut env = ConstantEnvironment::new(Value::Float(0.1));
        let mut inj = BadHost { host: sys.ids.ecu_a };
        sim.run_observed(
            &mut behaviors,
            &mut env,
            &mut inj,
            Some(monitor),
            &mut NoopSink,
            &config,
        )
    };

    let mut monitor = LrcMonitor::new(&sys.spec, MonitorConfig::default());
    let poisoned = run(&mut monitor);
    let (_, reliable) = reliability_after(&poisoned, sys.ids.cmd, 100);
    assert_eq!(reliable, 0, "cmd is ⊥ while ecu_a lies");
    assert!(monitor.lane(0).active(sys.ids.cmd));

    let rules = vec![
        DegradationRule {
            comm: sys.ids.cmd,
            response: Response::DropReplica {
                task: sys.ids.filter,
                host: sys.ids.ecu_a,
            },
        },
        DegradationRule {
            comm: sys.ids.cmd,
            response: Response::DropReplica {
                task: sys.ids.steer,
                host: sys.ids.ecu_a,
            },
        },
    ];
    let mut degrader = LrcMonitor::new(&sys.spec, MonitorConfig::default())
        .with_rules(rules)
        .expect("every rule can act");
    let recovered = run(&mut degrader);
    let engaged = degrader
        .lane(0)
        .engaged_at(0)
        .expect("rules engaged")
        .as_u64();
    assert_eq!(
        degrader.lane(0).engaged_at(1),
        degrader.lane(0).engaged_at(0)
    );
    assert!(engaged < 500, "a 0.99 LRC alarm fires within a few updates");
    let (total, reliable) = reliability_after(&recovered, sys.ids.cmd, 1_000);
    assert!(total > 0 && reliable == total, "cmd recovered: {reliable}/{total}");
    let kinds: Vec<AlarmKind> = degrader
        .lane(0)
        .alarms()
        .iter()
        .filter(|a| a.comm == sys.ids.cmd)
        .map(|a| a.kind)
        .collect();
    assert_eq!(kinds, vec![AlarmKind::Raised, AlarmKind::Cleared]);
}

/// A two-mode HTL program whose degraded mode consolidates the two
/// normal-rate tasks into one degraded-rate task (same written set, as
/// modal elaboration requires).
const MODAL_SRC: &str = r#"
program degradable {
    communicator s : float period 10 sensor;
    communicator u : float period 10 lrc 0.9;
    communicator d : float period 10;
    module m {
        start mode normal period 10 {
            invoke fast reads s[0] writes u[1];
            invoke aux reads s[0] writes d[1];
            switch overload -> degraded;
        }
        mode degraded period 10 {
            invoke slow reads s[0] writes u[1], d[1];
            switch recovered -> normal;
        }
    }
    architecture {
        host h1 reliability 0.999;
        sensor sn reliability 0.999;
        wcet fast on h1 2;
        wctt fast on h1 1;
        wcet aux on h1 2;
        wctt aux on h1 1;
        wcet slow on h1 4;
        wctt slow on h1 1;
    }
    map {
        fast -> h1;
        aux -> h1;
        slow -> h1;
        bind s -> sn;
    }
}
"#;

/// Replays the degrader's recorded mode events into a modal E-machine.
struct RecordedEvents {
    events: Vec<(Tick, u32)>,
    releases: Vec<(Tick, logrel_core::TaskId)>,
}

impl Platform for RecordedEvents {
    fn call(&mut self, _h: HostId, _op: DriverOp, _now: Tick) {}
    fn release(&mut self, _h: HostId, task: logrel_core::TaskId, now: Tick) {
        self.releases.push((now, task));
    }
    fn event(&mut self, event: u32, now: Tick) -> bool {
        self.events
            .iter()
            .any(|&(at, ev)| ev == event && now >= at)
    }
}

/// End to end: a burst-loss outage violates the LRC of `u`, the degrader
/// emits the `overload` mode event, and feeding that event to the modal
/// E-machine switches the program into its degraded-rate mode at the next
/// round boundary (observable as one release per round instead of two).
#[test]
fn lrc_alarm_switches_the_modal_program_to_the_degraded_mode() {
    let modal = elaborate_modes(&parse(MODAL_SRC).unwrap()).unwrap();
    assert_eq!(modal.modes[0].name, "normal");
    let spec = &modal.modes[0].spec;
    let u = spec.find_communicator("u").unwrap();

    // --- detection: simulate the normal mode through a broadcast burst.
    let scn = Scenario::parse("burst from=200 until=400 enter=1 exit=0 loss=1").unwrap();
    let imp = TimeDependentImplementation::from(modal.modes[0].imp.clone());
    let sim = Simulation::new(spec, &modal.arch, &imp);
    let mut inj =
        ScenarioInjector::new(NoFaults, &scn, modal.arch.host_count(), spec.communicator_count())
            .unwrap();
    // `overload` is switch 0 in declaration order.
    let mut degrader = LrcMonitor::new(spec, MonitorConfig::default())
        .with_rules(vec![DegradationRule {
            comm: u,
            response: Response::ModeSwitch { event: 0 },
        }])
        .expect("every rule can act");
    sim.run_observed(
        &mut BehaviorMap::new(),
        &mut ConstantEnvironment::new(Value::Float(1.0)),
        &mut inj,
        Some(&mut degrader),
        &mut NoopSink,
        &SimConfig {
            rounds: 60,
            seed: 3,
        },
    );
    let events = degrader.lane(0).mode_events().to_vec();
    assert_eq!(events.len(), 1, "one mode switch event: {events:?}");
    assert_eq!(events[0].1, 0);
    let alarm_at = events[0].0.as_u64();
    assert!(
        (200..400).contains(&alarm_at),
        "the alarm fires inside the burst window: {alarm_at}"
    );

    // --- response: replay the event into the modal E-machine.
    let modes: Vec<ModalMode<'_>> = modal
        .modes
        .iter()
        .map(|m| ModalMode {
            name: &m.name,
            spec: &m.spec,
            imp: &m.imp,
        })
        .collect();
    let switches: Vec<ModeSwitch> = modal
        .switches
        .iter()
        .enumerate()
        .map(|(i, (from, _event, to))| ModeSwitch {
            from: *from,
            event: i as u32,
            to: *to,
        })
        .collect();
    let host = HostId::new(0);
    let code = generate_modal(&modes, &switches, host).unwrap();
    let mut platform = RecordedEvents {
        events,
        releases: Vec::new(),
    };
    let mut machine = EMachine::new(code, host);
    machine.run_until(Tick::new(599), &mut platform);

    // Releases per round boundary: 2 (fast + aux) before the switch,
    // 1 (slow) from the first boundary at/after the alarm.
    let switch_boundary = alarm_at.div_ceil(10) * 10;
    for round in 0..60u64 {
        let t = Tick::new(round * 10);
        let n = platform.releases.iter().filter(|&&(at, _)| at == t).count();
        let expected = if t.as_u64() < switch_boundary { 2 } else { 1 };
        assert_eq!(n, expected, "releases at round boundary {t:?}");
    }
}
