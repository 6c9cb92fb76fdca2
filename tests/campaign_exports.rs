//! Pins the full metrics export of monitored campaigns and the flight
//! recorders of one-lane runs.
//!
//! The steer-by-wire campaign runs the seed-1 scenario that uses every
//! `.scn` event kind (`tests/assets/scenarios/steer_every_event.scn`)
//! through the service pipeline with a 256-event flight recorder per
//! replication.
//! It raises and clears dozens of LRC alarms, so the digest covers the
//! alarm counters, the recorded events and the alarm-triggered dumps, at
//! 64 lanes (plus a 6-lane tail), at width 3 and at width 1. The
//! digests were computed before the LRC monitor became a lane-group
//! object, so they also pin that change to the old per-lane monitors.
//!
//! The three-tank campaigns, the `htlc trace` path, the degrader run and
//! the panic dump below pin the lane-group observation path (counters
//! and events kept once per group) to the per-lane events it replaced.

use std::sync::Arc;

use logrel::core::hash::fnv1a;
use logrel::core::{HostId, SensorId, Tick, TimeDependentImplementation, Value};
use logrel::obs::export::to_json_line;
use logrel::obs::{names, MetricsSink, NoopSink, ObsEvent, Registry};
use logrel::serve::pipeline::{campaign_config, CompiledSpec, Plan, Symbols};
use logrel::sim::{
    BatchConfig, BehaviorMap, Campaign, CampaignConfig, ConstantEnvironment,
    CorruptingFaults, DegradationRule, FaultInjector, HostSet, LaneMode, LrcMonitor, MonitorConfig,
    ProbabilisticFaults, ReplicationContext, Response, Scenario, ScenarioEnvironment,
    ScenarioEvent, ScenarioInjector, SimConfig, Simulation, VotingStrategy,
};
use logrel::threetank::behaviors::build_behaviors;
use logrel::threetank::{PlantParams, Scenario as Deployment, ThreeTankSystem};
use rand::rngs::StdRng;

const SPEC: &str = include_str!("../assets/steer_by_wire.htl");
const SCENARIO: &str = include_str!("assets/scenarios/steer_every_event.scn");
const RECORDER: usize = 256;
const REPLICATIONS: u64 = 70;
const ROUNDS: u64 = 300;
const SEED: u64 = 1;

/// The `logrel-metrics-v1` line of the campaign at lane mode `lanes`.
fn export(lanes: LaneMode) -> String {
    let sys = logrel::lang::compile(SPEC).expect("shipped spec compiles");
    let scenario = Scenario::parse_with(SCENARIO, &Symbols(&sys)).expect("scenario parses");
    let compiled = Arc::new(CompiledSpec::new(sys, &mut NoopSink).expect("spec compiles"));
    let config = campaign_config(REPLICATIONS, ROUNDS, SEED, lanes);
    let plan = Plan::new(compiled, scenario, config, RECORDER).expect("campaign plans");
    let mut registry = Registry::with_recorder(RECORDER);
    plan.run::<Registry>(&[], &mut registry)
        .expect("campaign runs");
    assert!(
        registry.counter(names::ALARM_RAISED) > 0 && registry.counter(names::ALARM_CLEARED) > 0,
        "the scenario must exercise the monitor"
    );
    to_json_line(&registry)
}

#[test]
fn steer_campaign_exports_are_pinned() {
    for (lanes, pinned) in [
        (LaneMode::Auto, 0xbacb_beae_eda8_040a_u64),
        (LaneMode::Width(3), 0xd47c_7d54_6276_eb95),
        (LaneMode::Off, 0x3204_8243_f68e_0d27),
    ] {
        let digest = fnv1a(export(lanes).as_bytes());
        assert_eq!(digest, pinned, "{lanes:?}: digest {digest:#018x}");
    }
}

// ---- The lane-group observation path ---------------------------------
//
// The digests below were computed before counters, the vote histogram
// and flight-recorder events became lane-group objects (mask tallies
// and one group ring rebuilt per lane), so they pin that change to the
// per-lane events it replaced.

/// The every-event-kind three-tank scenario of
/// `tests/bitslice_equivalence.rs::full_scenario`.
fn full_scenario(sys: &ThreeTankSystem) -> Scenario {
    Scenario::from_events(vec![
        ScenarioEvent::Crash {
            host: sys.ids.h1,
            at: Tick::new(20_000),
        },
        ScenarioEvent::Rejoin {
            host: sys.ids.h1,
            at: Tick::new(30_000),
        },
        ScenarioEvent::Flaky {
            host: sys.ids.h2,
            from: Tick::new(0),
            until: Tick::new(40_000),
            up: 0.8,
        },
        ScenarioEvent::StuckSensor {
            comm: sys.ids.s1,
            from: Tick::new(10_000),
            until: Tick::new(15_000),
        },
        ScenarioEvent::Burst {
            from: Tick::new(50_000),
            until: Tick::new(80_000),
            p_enter: 0.05,
            p_exit: 0.2,
            loss: 0.9,
        },
        ScenarioEvent::CommonCause {
            hosts: HostSet::from_hosts([sys.ids.h1, sys.ids.h3]).unwrap(),
            from: Tick::new(45_000),
            until: Tick::new(90_000),
            p: 0.1,
        },
        ScenarioEvent::Partition {
            hosts: HostSet::from_hosts([sys.ids.h2]).unwrap(),
            from: Tick::new(32_000),
            until: Tick::new(44_000),
        },
        ScenarioEvent::Wearout {
            host: sys.ids.h3,
            from: Tick::new(60_000),
            until: Tick::new(100_000),
            shape: 2.0,
            scale: 25_000.0,
        },
        ScenarioEvent::Adversary {
            from: Tick::new(0),
            until: Tick::new(100_000),
            hold: 25,
        },
    ])
    .unwrap()
}

/// The `logrel-metrics-v1` line of a 70-replication, 200-round
/// three-tank campaign (replicated controllers, LRCs at 0.95) under the
/// full scenario, with `recorder`-event flight recorders (capacity 1
/// evicts on every event). `corrupting`
/// swaps the probabilistic inner faults for value corruption under
/// majority voting, the kernel's slow voting path.
fn threetank_export(lanes: LaneMode, recorder: usize, corrupting: bool) -> String {
    threetank_scenario_export(full_scenario, lanes, recorder, corrupting)
}

/// [`threetank_export`] under the scenario `scenario` builds.
fn threetank_scenario_export(
    scenario: fn(&ThreeTankSystem) -> Scenario,
    lanes: LaneMode,
    recorder: usize,
    corrupting: bool,
) -> String {
    let sys = ThreeTankSystem::with_options(Deployment::ReplicatedControllers, 0.999, Some(0.95))
        .unwrap();
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let mut sim = Simulation::new(&sys.spec, &sys.arch, &imp);
    if corrupting {
        sim.set_voting(VotingStrategy::Majority);
    }
    let scenario = scenario(&sys);
    let config = CampaignConfig {
        batch: BatchConfig {
            replications: 70,
            rounds: 200,
            base_seed: 0x3_7A4C,
            threads: 1,
        },
        monitor: MonitorConfig {
            window: 20,
            confidence: 0.9,
        },
        lanes,
    };
    let params = PlantParams::default();
    let mut registry = Registry::with_recorder(recorder);
    Campaign::new(&sys.spec, scenario, config, sys.arch.host_count(), recorder)
        .and_then(|campaign| {
            campaign.run::<Registry, _, _>(
                &sim,
                |_rep| ReplicationContext {
                    behaviors: build_behaviors(&sys, &params),
                    environment: Box::new(ConstantEnvironment::new(Value::Float(0.25))),
                    injector: if corrupting {
                        Box::new(CorruptingFaults::new(0.05, 9_999.0)) as Box<dyn FaultInjector>
                    } else {
                        Box::new(ProbabilisticFaults::from_architecture(&sys.arch))
                    },
                },
                &[],
                &mut registry,
            )
        })
        .expect("campaign runs");
    assert!(
        registry.counter(names::ALARM_RAISED) > 0,
        "the scenario must exercise the monitor"
    );
    to_json_line(&registry)
}

#[test]
fn threetank_campaign_exports_are_pinned() {
    let modes = [LaneMode::Auto, LaneMode::Width(3), LaneMode::Off];
    let pinned: [(bool, usize, [u64; 3]); 4] = [
        (false, 1, [0xa9de_5415_3c41_ac69; 3]),
        (false, 4096, [0xe2da_8687_9981_f538; 3]),
        (true, 1, [0x7aa1_c815_6979_3c11; 3]),
        (true, 4096, [0x4c27_d730_dbc4_5973; 3]),
    ];
    let digests: Vec<(bool, usize, [u64; 3])> = pinned
        .iter()
        .map(|&(corrupting, recorder, _)| {
            let digests =
                modes.map(|lanes| fnv1a(threetank_export(lanes, recorder, corrupting).as_bytes()));
            (corrupting, recorder, digests)
        })
        .collect();
    assert_eq!(digests, pinned, "digests {digests:#018x?}");
}

// ---- Overlapping windows ---------------------------------------------
//
// The shipped scenarios mostly use disjoint windows; overlaps are where
// per-instant caching and draw order can go wrong. The digests below
// were computed before the scenario layer became a lane-group object
// (a timeline compiled once per unit, lane-mask decisions), so they pin
// that change to the per-lane injectors it replaced.

/// Every window kind overlapping another: two flaky windows on one host,
/// two common-cause groups sharing a member, two bursts, a wear-out
/// window over a flaky window on the same host, a partition over a
/// crash, and two adversary windows.
fn overlap_scenario(sys: &ThreeTankSystem) -> Scenario {
    let ids = &sys.ids;
    Scenario::from_events(vec![
        ScenarioEvent::Flaky {
            host: ids.h2,
            from: Tick::new(0),
            until: Tick::new(60_000),
            up: 0.9,
        },
        ScenarioEvent::Flaky {
            host: ids.h2,
            from: Tick::new(20_000),
            until: Tick::new(80_000),
            up: 0.85,
        },
        ScenarioEvent::CommonCause {
            hosts: HostSet::from_hosts([ids.h1, ids.h3]).unwrap(),
            from: Tick::new(10_000),
            until: Tick::new(70_000),
            p: 0.05,
        },
        ScenarioEvent::CommonCause {
            hosts: HostSet::from_hosts([ids.h3, ids.h2]).unwrap(),
            from: Tick::new(40_000),
            until: Tick::new(90_000),
            p: 0.08,
        },
        ScenarioEvent::Burst {
            from: Tick::new(5_000),
            until: Tick::new(60_000),
            p_enter: 0.05,
            p_exit: 0.3,
            loss: 0.7,
        },
        ScenarioEvent::Burst {
            from: Tick::new(30_000),
            until: Tick::new(95_000),
            p_enter: 0.1,
            p_exit: 0.2,
            loss: 0.5,
        },
        ScenarioEvent::Wearout {
            host: ids.h2,
            from: Tick::new(50_000),
            until: Tick::new(100_000),
            shape: 1.5,
            scale: 30_000.0,
        },
        ScenarioEvent::Partition {
            hosts: HostSet::from_hosts([ids.h1]).unwrap(),
            from: Tick::new(25_000),
            until: Tick::new(45_000),
        },
        ScenarioEvent::Crash {
            host: ids.h1,
            at: Tick::new(35_250),
        },
        ScenarioEvent::Rejoin {
            host: ids.h1,
            at: Tick::new(55_100),
        },
        ScenarioEvent::Adversary {
            from: Tick::new(0),
            until: Tick::new(60_000),
            hold: 20,
        },
        ScenarioEvent::Adversary {
            from: Tick::new(40_000),
            until: Tick::new(100_000),
            hold: 35,
        },
    ])
    .unwrap()
}

#[test]
fn overlapping_windows_exports_are_pinned() {
    let modes = [LaneMode::Auto, LaneMode::Width(3), LaneMode::Off];
    let pinned: [(bool, [u64; 3]); 2] = [
        (false, [0xa987_e60b_d6e7_1701; 3]),
        (true, [0x605f_282c_414d_4645; 3]),
    ];
    let digests: Vec<(bool, [u64; 3])> = pinned
        .iter()
        .map(|&(corrupting, _)| {
            let digests = modes.map(|lanes| {
                let line = threetank_scenario_export(overlap_scenario, lanes, RECORDER, corrupting);
                fnv1a(line.as_bytes())
            });
            (corrupting, digests)
        })
        .collect();
    assert_eq!(digests, pinned, "digests {digests:#018x?}");
}

/// FNV-1a of the `Debug` rendering of a recorder's live ring.
fn events_digest(events: impl Iterator<Item = ObsEvent>) -> (usize, u64) {
    let events: Vec<ObsEvent> = events.collect();
    (events.len(), fnv1a(format!("{events:?}").as_bytes()))
}

/// `htlc trace`'s one-lane path: steer-by-wire under the every-event
/// scenario with a one-lane monitor and a 256-event recorder, then a
/// manual dump at the horizon. Pins the export, the evicted-event count
/// and the live ring.
#[test]
fn trace_path_recorder_is_pinned() {
    let sys = logrel::lang::compile(SPEC).expect("shipped spec compiles");
    let scenario = Scenario::parse_with(SCENARIO, &Symbols(&sys)).expect("scenario parses");
    let td = TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::new(&sys.spec, &sys.arch, &td);
    let mut registry = Registry::with_recorder(RECORDER);
    registry.set_gauge(names::CAMPAIGN_SEED, SEED as f64);
    let base = logrel::serve::pipeline::replication_context(&sys.arch);
    let comms = sys.spec.communicator_count();
    let mut injector =
        ScenarioInjector::new(base.injector, &scenario, sys.arch.host_count(), comms).unwrap();
    let mut environment = ScenarioEnvironment::new(base.environment, &scenario, comms);
    let mut monitor = LrcMonitor::new(&sys.spec, MonitorConfig::default());
    let mut behaviors = base.behaviors;
    sim.run_observed(
        &mut behaviors,
        &mut environment,
        &mut injector,
        Some(&mut monitor),
        &mut registry,
        &SimConfig {
            rounds: ROUNDS,
            seed: SEED,
        },
    );
    let horizon = logrel::sim::check_rounds(&sys.spec, ROUNDS).unwrap();
    let rec = registry.recorder_mut().expect("recorder attached");
    rec.dump_now(horizon.as_u64());
    let dropped = rec.dropped();
    let live = events_digest(rec.events().cloned());
    let digest = fnv1a(to_json_line(&registry).as_bytes());
    assert_eq!(
        (digest, dropped, live),
        (0x1973_9ce6_4aef_2d04, 817, (256, 0xb3e6_ee81_7a41_e005))
    );
}

/// A non-fail-silent host: always up and delivering, but replacing every
/// output with garbage.
struct BadHost(HostId);

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
        if host == self.0 {
            outputs.fill(Value::Float(1.0e9));
        }
    }
}

/// A degrader on a one-lane run: its engage and mode-switch events and
/// the excluded-replica drops reach the recorder among the kernel's own
/// events, under majority voting with a lying replica (the slow voting
/// path). Pins the export, the evicted-event count and the live ring.
#[test]
fn degrader_events_are_pinned() {
    let sys =
        ThreeTankSystem::with_options(Deployment::ReplicatedControllers, 1.0, Some(0.999)).unwrap();
    let params = PlantParams::default();
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let mut sim = Simulation::new(&sys.spec, &sys.arch, &imp);
    sim.set_voting(VotingStrategy::Majority);
    let drop_h1 = |comm, task| DegradationRule {
        comm,
        response: Response::DropReplica {
            task,
            host: sys.ids.h1,
        },
    };
    let mut degrader = LrcMonitor::new(&sys.spec, MonitorConfig::default())
        .with_rules(vec![
            drop_h1(sys.ids.u1, sys.ids.t1),
            drop_h1(sys.ids.u2, sys.ids.t2),
            DegradationRule {
                comm: sys.ids.u1,
                response: Response::ModeSwitch { event: 7 },
            },
        ])
        .expect("every rule can act");
    let mut registry = Registry::with_recorder(16);
    sim.run_observed(
        &mut build_behaviors(&sys, &params),
        &mut ConstantEnvironment::new(Value::Float(0.25)),
        &mut BadHost(sys.ids.h1),
        Some(&mut degrader),
        &mut registry,
        &SimConfig {
            rounds: 100,
            seed: 21,
        },
    );
    assert!(degrader.lane(0).engaged_at(0).is_some() && degrader.lane(0).engaged_at(2).is_some());
    let rec = registry.recorder().expect("recorder attached");
    let dropped = rec.dropped();
    let live = events_digest(rec.events().cloned());
    let digest = fnv1a(to_json_line(&registry).as_bytes());
    assert_eq!(
        (digest, dropped, live),
        (0xdee0_a4e0_f7ef_1ab6, 788, (16, 0xa6b1_75d8_9260_61b9))
    );
}

/// `htlc trace`'s panic path: a behavior panics on its 40th invocation
/// under `run_observed` with a 32-event recorder; the driver catches the
/// unwind and dumps the recorder. The registry left behind — gauges,
/// alarm counters, the alarm dumps and the panic dump of the last
/// events — is pinned.
#[test]
fn panic_dump_is_pinned() {
    let sys = ThreeTankSystem::with_options(Deployment::Baseline, 0.999, Some(0.95)).unwrap();
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::new(&sys.spec, &sys.arch, &imp);
    let scn = full_scenario(&sys);
    let comms = sys.spec.communicator_count();
    let mut injector = ScenarioInjector::new(
        ProbabilisticFaults::from_architecture(&sys.arch),
        &scn,
        sys.arch.host_count(),
        comms,
    )
    .unwrap();
    let mut environment =
        ScenarioEnvironment::new(ConstantEnvironment::new(Value::Float(0.25)), &scn, comms);
    let mut monitor = LrcMonitor::new(
        &sys.spec,
        MonitorConfig {
            window: 20,
            confidence: 0.9,
        },
    );
    let mut behaviors = BehaviorMap::new();
    let mut calls = 0;
    behaviors.register(sys.ids.t1, move |_inputs: &[Value]| {
        calls += 1;
        assert!(calls < 40, "t1 fails on its 40th invocation");
        vec![Value::Float(0.0)]
    });
    let mut registry = Registry::with_recorder(32);
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sim.run_observed(
            &mut behaviors,
            &mut environment,
            &mut injector,
            Some(&mut monitor),
            &mut registry,
            &SimConfig {
                rounds: 200,
                seed: 0x5EED,
            },
        )
    }));
    assert!(run.is_err(), "the behavior must panic");
    let at = registry
        .recorder()
        .and_then(|r| r.events().last().map(ObsEvent::at))
        .unwrap_or(0);
    registry.recorder_mut().unwrap().dump_on_panic(at);
    let dropped = registry.recorder().unwrap().dropped();
    let digest = fnv1a(to_json_line(&registry).as_bytes());
    assert!(
        registry.counter(names::ALARM_RAISED) > 0,
        "alarms before the panic"
    );
    assert_eq!((digest, dropped, at), (0x7322_9b0d_fd8d_32e4, 416, 19_500));
}
