//! Differential tests of the lane-group kernel: every lane of
//! `Simulation::run_bitsliced` must be bit-identical to the scalar
//! reference interpreter (`Simulation::run_reference`) run on the same
//! seed, fault model and environment — under every scenario event kind
//! (crash/rejoin, flaky windows, GE bursts, stuck sensors, unplug,
//! common-cause groups, partitions, Weibull wear-out, adaptive
//! adversaries, crash hazards), under value corruption (the slow voting
//! path), on the 3TS and steer-by-wire systems, and on randomly generated
//! pipeline systems. The kernel reads a scenario as data; the reference
//! asks the scenario's per-call oracle injector
//! (`crates/sim/src/scenario/oracle.rs`, included here by path). The LRC
//! monitor and the metrics sink, which the reference takes none of, are
//! checked against one-lane runs of the same seeds.

// The shared oracle; this suite does not read where its streams stand.
#[allow(dead_code)]
#[path = "../crates/sim/src/scenario/oracle.rs"]
mod oracle;

use logrel_core::prelude::*;
use logrel_core::TimeDependentImplementation;
use logrel_obs::{NoopSink, Registry};
use logrel_sim::bitslice::LaneContext;
use logrel_sim::{
    BehaviorMap, ConstantEnvironment, Environment, FaultModel, HostSet, LrcMonitor, MonitorConfig,
    NoFaults, ProbabilisticFaults, Scenario, ScenarioEnvironment, ScenarioEvent, ScenarioFaults,
    SimConfig, SimOutput, Simulation, VotingStrategy,
};
use logrel_steerbywire::{SteerScenario, SteerSystem};
use logrel_threetank::behaviors::build_behaviors;
use logrel_threetank::{PlantParams, Scenario as Deployment, ThreeTankSystem};
use oracle::PerLaneInjector;
use proptest::prelude::*;

/// Runs one lane group of `(seed, fault model, environment)` lanes and
/// returns every lane's output, trace included.
fn run_group<I: FaultModel, E: Environment>(
    sim: &Simulation<'_>,
    behaviors: &mut BehaviorMap,
    lanes: impl IntoIterator<Item = (u64, I, E)>,
    rounds: u64,
) -> Vec<SimOutput> {
    let mut lanes: Vec<_> = lanes
        .into_iter()
        .map(|(seed, inj, env)| LaneContext::plain(seed, inj, env))
        .collect();
    sim.run_traced(behaviors, &mut lanes, None, &mut NoopSink, rounds)
}

/// A scenario exercising every event kind but corruption at once (3TS
/// ids): crash and rejoin, a flaky window, a stuck sensor, a
/// Gilbert–Elliott burst, a common-cause group, a partition, Weibull
/// wear-out, an adaptive adversary and a crash hazard.
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
        ScenarioEvent::Hazard {
            host: sys.ids.h3,
            p: 0.001,
        },
    ])
    .unwrap()
}

/// 3TS under every scenario event kind and probabilistic inner faults:
/// each lane equals the reference run of the same seed.
#[test]
fn threetank_lanes_match_scalar_under_full_scenario() {
    let sys = ThreeTankSystem::new(Deployment::ReplicatedControllers);
    let params = PlantParams::default();
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::new(&sys.spec, &sys.arch, &imp);
    let comms = sys.spec.communicator_count();
    let scn = full_scenario(&sys);
    let rounds = 200;
    let seeds: Vec<u64> = (0..9).map(|i| 0xBEEF + 31 * i).collect();

    let base = ProbabilisticFaults::from_architecture(&sys.arch);
    let hosts = sys.arch.host_count();
    let fresh_inj = || ScenarioFaults::new(base.clone(), &scn, hosts, comms).unwrap();
    let fresh_env =
        || ScenarioEnvironment::new(ConstantEnvironment::new(Value::Float(0.25)), &scn, comms);

    let scalar: Vec<SimOutput> = seeds
        .iter()
        .map(|&seed| {
            let mut behaviors = build_behaviors(&sys, &params);
            sim.run_reference(
                &mut behaviors,
                &mut fresh_env(),
                &mut PerLaneInjector::new(base.clone(), &scn, hosts, comms).unwrap(),
                &SimConfig { rounds, seed },
            )
        })
        .collect();

    let mut behaviors = build_behaviors(&sys, &params);
    let packed = run_group(
        &sim,
        &mut behaviors,
        seeds.iter().map(|&seed| (seed, fresh_inj(), fresh_env())),
        rounds,
    );
    assert_eq!(packed, scalar, "a lane diverged from its reference run");
}

/// The LRC monitor and the metrics sink, which the reference interpreter
/// does not take: lane `i` of a group watched by one group monitor and
/// reporting to one registry (`run_monitored`) — its output and its
/// alarms — equals a one-lane run of the same seed, and the group
/// registry equals the one-lane runs' registries merged in lane order,
/// at widths 1, 7 and 64, under every scenario event kind.
#[test]
fn supervised_observed_lanes_match_one_lane_runs() {
    let sys = ThreeTankSystem::with_options(Deployment::Baseline, 0.999, Some(0.95)).unwrap();
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::new(&sys.spec, &sys.arch, &imp);
    let comms = sys.spec.communicator_count();
    let scn = full_scenario(&sys);
    let rounds = 200;
    let monitor = MonitorConfig {
        window: 20,
        confidence: 0.9,
    };
    let fresh_inj = || {
        ScenarioFaults::new(
            ProbabilisticFaults::from_architecture(&sys.arch),
            &scn,
            sys.arch.host_count(),
            comms,
        )
        .unwrap()
    };
    let fresh_env =
        || ScenarioEnvironment::new(ConstantEnvironment::new(Value::Float(0.25)), &scn, comms);
    let seeds: Vec<u64> = (0..64).map(|i| 0x5EED + 3 * i).collect();

    let mut alarms = 0;
    let ones: Vec<_> = seeds
        .iter()
        .map(|&seed| {
            let mut one_monitor = LrcMonitor::new(&sys.spec, monitor);
            let mut one_registry = Registry::with_recorder(64);
            let one = sim.run_observed(
                &mut BehaviorMap::default(),
                &mut fresh_env(),
                &fresh_inj(),
                Some(&mut one_monitor),
                &mut one_registry,
                &SimConfig { rounds, seed },
            );
            alarms += one_monitor.lane(0).alarms().len();
            (one, one_monitor, one_registry)
        })
        .collect();
    assert!(alarms > 0, "the scenario must exercise the monitor");

    for width in [1, 7, 64] {
        let mut group = LrcMonitor::with_lanes(&sys.spec, monitor, width);
        let mut group_registry = Registry::with_recorder(64);
        let mut group_lanes: Vec<_> = seeds[..width]
            .iter()
            .map(|&seed| LaneContext::plain(seed, fresh_inj(), fresh_env()))
            .collect();
        let packed = sim.run_monitored(
            &mut BehaviorMap::default(),
            &mut group_lanes,
            &mut group,
            &mut group_registry,
            rounds,
        );
        for (i, (one, one_monitor, _)) in ones[..width].iter().enumerate() {
            assert_eq!(packed.task_stats(i), one.task_stats, "lane {i} task stats");
            assert_eq!(
                packed.final_values(i),
                one.final_values,
                "lane {i} final values"
            );
            for c in sys.spec.communicator_ids() {
                assert_eq!(packed.updates(c), one.trace.update_count(c) as u64);
                let reliable = one.trace.abstraction(c).into_iter().filter(|&b| b).count();
                assert_eq!(
                    packed.reliable(c, i),
                    reliable as u64,
                    "lane {i} comm {c:?}"
                );
            }
            assert_eq!(
                group.lane(i).alarms(),
                one_monitor.lane(0).alarms(),
                "lane {i} group alarms"
            );
        }
        let mut registries = ones[..width].iter().map(|(_, _, r)| r.clone());
        let mut merged = registries.next().expect("one lane at least");
        for registry in registries {
            merged.merge(registry);
        }
        assert_eq!(group_registry, merged, "width {width} group registry");
    }
}

/// Steer-by-wire with an ECU unplug (a crash without a rejoin) over
/// probabilistic faults: lanes match reference runs, including the
/// warm-up bookkeeping of the stateful tasks.
#[test]
fn steerbywire_lanes_match_scalar_with_unplug() {
    let sys = SteerSystem::new(SteerScenario::ReplicatedEcus, None).unwrap();
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::new(&sys.spec, &sys.arch, &imp);
    let rounds = 150;
    let seeds: Vec<u64> = (0..7).map(|i| 0x51EE + 17 * i).collect();

    let unplug = Scenario::unplug(sys.ids.ecu_a, Tick::new(4_000));
    let base = ProbabilisticFaults::from_architecture(&sys.arch);
    let (hosts, comms) = (sys.arch.host_count(), sys.spec.communicator_count());
    let fresh_inj = || ScenarioFaults::new(base.clone(), &unplug, hosts, comms).unwrap();

    let scalar: Vec<SimOutput> = seeds
        .iter()
        .map(|&seed| {
            let mut behaviors = BehaviorMap::default();
            sim.run_reference(
                &mut behaviors,
                &mut ConstantEnvironment::new(Value::Float(0.1)),
                &mut PerLaneInjector::new(base.clone(), &unplug, hosts, comms).unwrap(),
                &SimConfig { rounds, seed },
            )
        })
        .collect();

    let packed = run_group(
        &sim,
        &mut BehaviorMap::default(),
        seeds.iter().map(|&seed| {
            (
                seed,
                fresh_inj(),
                ConstantEnvironment::new(Value::Float(0.1)),
            )
        }),
        rounds,
    );
    assert_eq!(packed, scalar, "a lane diverged from its reference run");
}

/// Value corruption forces the slow (materialized-replicas) voting path;
/// with `Majority` voting each lane must still replay its reference run.
#[test]
fn corrupting_majority_voting_matches_scalar() {
    let sys = ThreeTankSystem::new(Deployment::ReplicatedControllers);
    let params = PlantParams::default();
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let mut sim = Simulation::new(&sys.spec, &sys.arch, &imp);
    sim.set_voting(VotingStrategy::Majority);
    let rounds = 120;
    let seeds: Vec<u64> = (0..6).map(|i| 0xC0DE + 7 * i).collect();
    // Every host corrupts a delivered replica with probability 0.2.
    let corrupt = Scenario::from_events(
        sys.arch
            .host_ids()
            .map(|host| ScenarioEvent::Corrupt {
                host,
                p: 0.2,
                value: 9_999.0,
            })
            .collect(),
    )
    .unwrap();
    let (hosts, comms) = (sys.arch.host_count(), sys.spec.communicator_count());
    let fresh_inj = || ScenarioFaults::new(NoFaults, &corrupt, hosts, comms).unwrap();

    let scalar: Vec<SimOutput> = seeds
        .iter()
        .map(|&seed| {
            let mut behaviors = build_behaviors(&sys, &params);
            sim.run_reference(
                &mut behaviors,
                &mut ConstantEnvironment::new(Value::Float(0.25)),
                &mut PerLaneInjector::new(NoFaults, &corrupt, hosts, comms).unwrap(),
                &SimConfig { rounds, seed },
            )
        })
        .collect();

    let packed = run_group(
        &sim,
        &mut build_behaviors(&sys, &params),
        seeds.iter().map(|&seed| {
            (
                seed,
                fresh_inj(),
                ConstantEnvironment::new(Value::Float(0.25)),
            )
        }),
        rounds,
    );
    assert_eq!(
        packed, scalar,
        "a lane diverged from its reference run under corruption"
    );
}

/// A full 64-lane pack (the widest mask, exercising the `u64::MAX`
/// all-lanes mask) matches the reference lane by lane.
#[test]
fn full_64_lane_pack_matches_scalar() {
    let sys = ThreeTankSystem::new(Deployment::Baseline);
    let params = PlantParams::default();
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::new(&sys.spec, &sys.arch, &imp);
    let rounds = 40;
    let seeds: Vec<u64> = (0..64).map(|i| 0xACE + i).collect();
    let fresh_inj = || ProbabilisticFaults::from_architecture(&sys.arch);

    let packed = run_group(
        &sim,
        &mut build_behaviors(&sys, &params),
        seeds.iter().map(|&seed| {
            (
                seed,
                fresh_inj(),
                ConstantEnvironment::new(Value::Float(0.25)),
            )
        }),
        rounds,
    );

    for (i, &seed) in seeds.iter().enumerate() {
        let mut behaviors = build_behaviors(&sys, &params);
        let expected = sim.run_reference(
            &mut behaviors,
            &mut ConstantEnvironment::new(Value::Float(0.25)),
            &mut fresh_inj(),
            &SimConfig { rounds, seed },
        );
        assert_eq!(packed[i], expected, "lane {i} diverged at full width");
    }
}

/// A randomly parameterised linear pipeline (as in `model_properties`).
#[derive(Debug, Clone)]
struct Pipeline {
    stage_rels: Vec<f64>,
    sensor_rel: f64,
}

fn pipeline_strategy() -> impl Strategy<Value = Pipeline> {
    (proptest::collection::vec(0.5f64..1.0, 1..5), 0.5f64..1.0).prop_map(
        |(stage_rels, sensor_rel)| Pipeline {
            stage_rels,
            sensor_rel,
        },
    )
}

fn build(p: &Pipeline) -> (Specification, Architecture, Implementation) {
    let n = p.stage_rels.len();
    let mut sb = Specification::builder();
    let mut comms = Vec::new();
    comms.push(
        sb.communicator(
            CommunicatorDecl::new("c0", ValueType::Float, 10)
                .unwrap()
                .from_sensor(),
        )
        .unwrap(),
    );
    for i in 1..=n {
        comms.push(
            sb.communicator(CommunicatorDecl::new(format!("c{i}"), ValueType::Float, 10).unwrap())
                .unwrap(),
        );
    }
    let mut tasks = Vec::new();
    for i in 0..n {
        tasks.push(
            sb.task(
                TaskDecl::new(format!("t{i}"))
                    .reads(comms[i], i as u64)
                    .writes(comms[i + 1], i as u64 + 1),
            )
            .unwrap(),
        );
    }
    let spec = sb.build().unwrap();

    let mut ab = Architecture::builder();
    let mut hosts = Vec::new();
    for (i, &rel) in p.stage_rels.iter().enumerate() {
        hosts.push(
            ab.host(HostDecl::new(
                format!("h{i}"),
                Reliability::new(rel).unwrap(),
            ))
            .unwrap(),
        );
    }
    let sen = ab
        .sensor(SensorDecl::new(
            "sen",
            Reliability::new(p.sensor_rel).unwrap(),
        ))
        .unwrap();
    for &t in &tasks {
        ab.wcet_all(t, 1).unwrap();
        ab.wctt_all(t, 1).unwrap();
    }
    let arch = ab.build();

    let mut ib = Implementation::builder().bind_sensor(comms[0], sen);
    for (i, &t) in tasks.iter().enumerate() {
        ib = ib.assign(t, [hosts[i]]);
    }
    let imp = ib.build(&spec, &arch).unwrap();
    (spec, arch, imp)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random pipelines, seeds and lane counts: every lane equals its
    /// reference run (default behaviors — type-zero outputs).
    #[test]
    fn random_pipelines_match_scalar(
        p in pipeline_strategy(),
        base_seed in 0u64..u64::MAX / 2,
        width in 1usize..11,
    ) {
        let (spec, arch, imp) = build(&p);
        let tdi = TimeDependentImplementation::from(imp);
        let sim = Simulation::new(&spec, &arch, &tdi);
        let rounds = 30;
        let fresh_inj = || ProbabilisticFaults::from_architecture(&arch);

        let packed = run_group(
            &sim,
            &mut BehaviorMap::default(),
            (0..width).map(|i| {
                (
                    base_seed + i as u64,
                    fresh_inj(),
                    ConstantEnvironment::new(Value::Float(1.5)),
                )
            }),
            rounds,
        );

        for (i, lane) in packed.iter().enumerate() {
            let mut behaviors = BehaviorMap::default();
            let expected = sim.run_reference(
                &mut behaviors,
                &mut ConstantEnvironment::new(Value::Float(1.5)),
                &mut fresh_inj(),
                &SimConfig { rounds, seed: base_seed + i as u64 },
            );
            prop_assert_eq!(lane, &expected, "lane {} diverged", i);
        }
    }
}

/// Campaign-level equivalence with a replication count that is not a
/// multiple of the lane width: 70 replications pack into one full
/// 64-lane word plus a 6-lane tail (and, at width 16, four full words
/// plus the same tail). Every packing must produce the byte-identical
/// report one-replication (`LaneMode::Off`) units do, at any thread
/// count.
#[test]
fn campaign_tail_packing_matches_scalar() {
    use logrel_sim::{
        BatchConfig, Campaign, CampaignConfig, LaneMode, MonitorConfig, ReplicationContext,
    };

    let sys = ThreeTankSystem::new(Deployment::ReplicatedControllers);
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::new(&sys.spec, &sys.arch, &imp);
    let scn = Scenario::from_events(vec![
        ScenarioEvent::Crash {
            host: sys.ids.h1,
            at: Tick::new(5_000),
        },
        ScenarioEvent::Rejoin {
            host: sys.ids.h1,
            at: Tick::new(10_000),
        },
    ])
    .unwrap();

    let run = |threads: usize, lanes: LaneMode| {
        let config = CampaignConfig {
            batch: BatchConfig {
                replications: 70,
                rounds: 60,
                base_seed: 0x7A11,
                threads,
            },
            monitor: MonitorConfig::default(),
            lanes,
        };
        Campaign::new(&sys.spec, scn.clone(), config, sys.arch.host_count(), 0)
            .and_then(|campaign| {
                campaign.run::<NoopSink, _, _>(
                    &sim,
                    |_rep| ReplicationContext {
                        behaviors: BehaviorMap::default(),
                        environment: Box::new(ConstantEnvironment::new(Value::Float(0.25))),
                        injector: Box::new(ProbabilisticFaults::from_architecture(&sys.arch)),
                    },
                    &[],
                    &mut Registry::new(),
                )
            })
            .unwrap()
    };

    let scalar = run(1, LaneMode::Off);
    assert_eq!(scalar, run(1, LaneMode::Auto));
    assert_eq!(scalar, run(4, LaneMode::Auto));
    assert_eq!(scalar, run(2, LaneMode::Width(16)));
    assert_eq!(scalar, run(3, LaneMode::Off));
}
