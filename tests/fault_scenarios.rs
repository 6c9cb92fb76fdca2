//! End-to-end fault-scenario tests on the 3TS: crash-then-rejoin with the
//! warm-up rule, online LRC monitoring, campaign reports against the
//! analytic SRGs, serialized-scenario replay, thread-count determinism,
//! the compiled-vs-reference differential under the scenario layer, and
//! the correlated-failure ecology (common-cause groups that break the
//! ε-band with unchanged marginals, plus thread/lane determinism for
//! every new event kind).

// The shared oracle; this suite does not read where its streams stand.
#[allow(dead_code)]
#[path = "../crates/sim/src/scenario/oracle.rs"]
mod oracle;

use logrel_core::{Tick, TimeDependentImplementation, Value};
use logrel_obs::export::to_json_line;
use logrel_obs::{NoopSink, Registry};
use logrel_reliability::compute_srgs;
use logrel_sim::{
    AlarmKind, BatchConfig, BehaviorMap, Campaign, CampaignConfig, ConstantEnvironment,
    FaultInjector, HostSet, LaneMode, LrcMonitor, MonitorConfig, NoFaults, ProbabilisticFaults,
    ReplicationContext, Scenario, ScenarioEnvironment, ScenarioEvent, ScenarioFaults, SimConfig,
    SimOutput, Simulation,
};
use logrel_threetank::behaviors::build_behaviors;
use logrel_threetank::{PlantParams, Scenario as Deployment, ThreeTankEnvironment, ThreeTankSystem};
use oracle::PerLaneInjector;

const CRASH_AT: u64 = 50_000;
const REJOIN_AT: u64 = 60_000;
/// h1's stateful replicas warm up until the full round after the rejoin's
/// round boundary (60_500); the last unreliable `u1` instant is 60_700 and
/// the write landing at 60_800 is reliable again — 61_000 is safely past.
const RECOVERED_AT: u64 = 61_000;

fn crash_rejoin(sys: &ThreeTankSystem) -> Scenario {
    Scenario::from_events(vec![
        ScenarioEvent::Crash {
            host: sys.ids.h1,
            at: Tick::new(CRASH_AT),
        },
        ScenarioEvent::Rejoin {
            host: sys.ids.h1,
            at: Tick::new(REJOIN_AT),
        },
    ])
    .unwrap()
}

/// Open-loop run (constant sensor feed, no inner faults) under `scn`.
fn open_loop(sys: &ThreeTankSystem, scn: &Scenario, rounds: u64) -> SimOutput {
    let params = PlantParams::default();
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::new(&sys.spec, &sys.arch, &imp);
    let mut behaviors: BehaviorMap = build_behaviors(sys, &params);
    let comms = sys.spec.communicator_count();
    let mut env =
        ScenarioEnvironment::new(ConstantEnvironment::new(Value::Float(0.25)), scn, comms);
    let inj = ScenarioFaults::new(NoFaults, scn, sys.arch.host_count(), comms).unwrap();
    sim.run(
        &mut behaviors,
        &mut env,
        &inj,
        &SimConfig { rounds, seed: 11 },
    )
}

/// The acceptance scenario: on the unreplicated Baseline, a crash of h1
/// blanks `u1` (t1's output) for exactly the outage-plus-warm-up window
/// and is bit-identical to the fault-free run everywhere else.
#[test]
fn crash_then_rejoin_matches_fault_free_outside_the_outage() {
    let sys = ThreeTankSystem::new(Deployment::Baseline);
    let nominal = open_loop(&sys, &Scenario::new(), 200);
    let faulted = open_loop(&sys, &crash_rejoin(&sys), 200);

    let nom = nominal.trace.values(sys.ids.u1);
    let out = faulted.trace.values(sys.ids.u1);
    assert_eq!(nom.len(), out.len());
    let mut dipped = 0u32;
    for (&(t, a), &(_, b)) in nom.iter().zip(out) {
        let tt = t.as_u64();
        if !(CRASH_AT..RECOVERED_AT).contains(&tt) {
            assert_eq!(a, b, "u1 must match the fault-free run at t={tt}");
        } else if a != b {
            assert!(!b.is_reliable(), "outage values are ⊥, not garbage");
            dipped += 1;
        }
    }
    assert!(dipped > 50, "the outage must actually blank u1: {dipped}");

    // l1 is produced on h3 and never touched by h1's outage.
    assert_eq!(
        nominal.trace.values(sys.ids.l1),
        faulted.trace.values(sys.ids.l1)
    );
    // u2 is produced on h2 and equally untouched.
    assert_eq!(
        nominal.trace.values(sys.ids.u2),
        faulted.trace.values(sys.ids.u2)
    );
}

/// Closed-loop counterpart of the paper's §4 unplug experiment, now with
/// a rejoin: with replicated controllers the crash *and* the warm-up
/// re-entry are completely invisible — the whole simulation output is
/// bit-identical to the fault-free run (and to a run without the scenario
/// layer at all).
#[test]
fn replicated_controllers_ride_through_crash_and_rejoin() {
    let closed_loop = |scn: Option<&Scenario>| -> SimOutput {
        let sys = ThreeTankSystem::new(Deployment::ReplicatedControllers);
        let params = PlantParams::default();
        let imp = TimeDependentImplementation::from(sys.imp.clone());
        let sim = Simulation::new(&sys.spec, &sys.arch, &imp);
        let mut behaviors = build_behaviors(&sys, &params);
        let mut env =
            ThreeTankEnvironment::new(params, sys.ids, 0.001, sys.gains.ref1, sys.gains.ref2);
        env.perturb_at(Tick::new(350 * 500), 0, 0.3);
        let config = SimConfig {
            rounds: 700,
            seed: 42,
        };
        match scn {
            None => sim.run(&mut behaviors, &mut env, &NoFaults, &config),
            Some(scn) => {
                let comms = sys.spec.communicator_count();
                let mut env = ScenarioEnvironment::new(env, scn, comms);
                let inj = ScenarioFaults::new(NoFaults, scn, sys.arch.host_count(), comms).unwrap();
                sim.run(&mut behaviors, &mut env, &inj, &config)
            }
        }
    };

    let sys = ThreeTankSystem::new(Deployment::ReplicatedControllers);
    let plain = closed_loop(None);
    let empty = closed_loop(Some(&Scenario::new()));
    let faulted = closed_loop(Some(&crash_rejoin(&sys)));
    // The scenario layer is a bit-exact pass-through...
    assert_eq!(plain, empty);
    // ...and the outage itself is invisible behind the h2 replica.
    assert_eq!(plain, faulted);
}

/// The online monitor raises a confident alarm during the outage and
/// clears it once the window refills with reliable updates.
#[test]
fn monitor_raises_and_clears_across_the_outage() {
    let sys = ThreeTankSystem::with_options(Deployment::Baseline, 1.0, Some(0.999)).unwrap();
    let scn = crash_rejoin(&sys);
    let params = PlantParams::default();
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::new(&sys.spec, &sys.arch, &imp);
    let mut behaviors = build_behaviors(&sys, &params);
    let comms = sys.spec.communicator_count();
    let mut env = ConstantEnvironment::new(Value::Float(0.25));
    let inj = ScenarioFaults::new(NoFaults, &scn, sys.arch.host_count(), comms).unwrap();
    let mut monitor = LrcMonitor::new(&sys.spec, MonitorConfig::default());
    sim.run_observed(
        &mut behaviors,
        &mut env,
        &inj,
        Some(&mut monitor),
        &mut NoopSink,
        &SimConfig {
            rounds: 200,
            seed: 5,
        },
    );

    let u1 = sys.ids.u1;
    let alarms: Vec<_> = monitor
        .lane(0)
        .alarms()
        .iter()
        .filter(|a| a.comm == u1)
        .collect();
    assert_eq!(alarms.len(), 2, "exactly one raise + clear: {alarms:?}");
    assert_eq!(alarms[0].kind, AlarmKind::Raised);
    // The raise needs ~24 unreliable updates in the 200-window to become
    // statistically confident, so it lands a few thousand ticks in.
    let raised = alarms[0].at.as_u64();
    assert!(
        (CRASH_AT..CRASH_AT + 5_000).contains(&raised),
        "raised at {raised}"
    );
    assert!(alarms[0].mean + alarms[0].epsilon < alarms[0].lrc);
    assert_eq!(alarms[1].kind, AlarmKind::Cleared);
    let cleared = alarms[1].at.as_u64();
    assert!(
        (REJOIN_AT..REJOIN_AT + 25_000).contains(&cleared),
        "cleared at {cleared}"
    );
    assert!(!monitor.lane(0).active(u1));
    assert_eq!(monitor.lane(0).first_violation(u1), Some(alarms[0].at));
    // u2 (on the healthy h2) never alarms.
    assert!(monitor.lane(0).alarms().iter().all(|a| a.comm == u1));
}

/// The campaign acceptance check: empirical λ̂ stays within the Hoeffding
/// radius of the analytic SRG for every communicator despite the scripted
/// outage, the monitor flags the violation in every replication, and the
/// whole report is bit-identical across thread counts *and* when replayed
/// from the report's own serialized scenario.
#[test]
fn campaign_lambda_within_epsilon_and_replays_bit_identically() {
    let sys = ThreeTankSystem::with_options(Deployment::Baseline, 0.999, Some(0.999)).unwrap();
    let params = PlantParams::default();
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::new(&sys.spec, &sys.arch, &imp);

    // A short outage: 5 rounds down + 1 warm-up round ≈ 35 of the 10 000
    // u1 updates per replication, well inside ε(40 000, 0.99) ≈ 0.008.
    let scn = Scenario::from_events(vec![
        ScenarioEvent::Crash {
            host: sys.ids.h1,
            at: Tick::new(250_000),
        },
        ScenarioEvent::Rejoin {
            host: sys.ids.h1,
            at: Tick::new(252_500),
        },
    ])
    .unwrap();

    let srgs = compute_srgs(&sys.spec, &sys.arch, &sys.imp).unwrap();
    let analytic: Vec<Option<f64>> = sys
        .spec
        .communicator_ids()
        .map(|c| Some(srgs.communicator(c).get()))
        .collect();

    let run = |scn: &Scenario, threads: usize| {
        let config = CampaignConfig {
            batch: BatchConfig {
                replications: 4,
                rounds: 2_000,
                base_seed: 0xFA57,
                threads,
            },
            monitor: MonitorConfig::default(),
            lanes: LaneMode::default(),
        };
        Campaign::new(&sys.spec, scn.clone(), config, sys.arch.host_count(), 0)
            .and_then(|campaign| {
                campaign.run::<NoopSink, _, _>(
                    &sim,
                    |_rep| ReplicationContext {
                        behaviors: build_behaviors(&sys, &params),
                        environment: Box::new(ConstantEnvironment::new(Value::Float(0.25))),
                        injector: Box::new(ProbabilisticFaults::from_architecture(&sys.arch)),
                    },
                    &analytic,
                    &mut Registry::new(),
                )
            })
            .unwrap()
    };

    let report = run(&scn, 1);
    for cr in &report.comms {
        assert_eq!(
            cr.within_epsilon,
            Some(true),
            "λ̂ vs λ for communicator {:?}: {} vs {:?} (ε {})",
            cr.comm,
            cr.empirical,
            cr.analytic,
            cr.epsilon
        );
    }
    let u1 = &report.comms[sys.ids.u1.index()];
    assert!(u1.empirical < u1.analytic.unwrap(), "the outage costs λ̂");
    assert_eq!(u1.violated_reps, 4, "every replication sees the outage");
    assert!(u1.alarms_raised >= 4 && u1.alarms_cleared >= 4);
    let first = u1.first_violation.unwrap().as_u64();
    assert!((250_000..260_000).contains(&first), "first violation {first}");

    // Scripted availability: h1 down 2 500 of 1 000 000 ticks.
    assert!((report.host_availability[sys.ids.h1.index()] - 0.9975).abs() < 1e-12);
    assert_eq!(report.host_availability[sys.ids.h2.index()], 1.0);

    // Thread-count determinism of the whole report.
    assert_eq!(report, run(&scn, 8));

    // Replay from the serialized form is bit-identical.
    let reparsed = Scenario::parse(&report.scenario).unwrap();
    assert_eq!(reparsed, scn);
    assert_eq!(report, run(&reparsed, 1));
}

/// The compiled kernel and the map-driven reference interpreter agree
/// bit-exactly under a scenario exercising every event type at once.
#[test]
fn compiled_and_reference_kernels_agree_under_scenarios() {
    let sys = ThreeTankSystem::new(Deployment::ReplicatedControllers);
    let params = PlantParams::default();
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::new(&sys.spec, &sys.arch, &imp);
    let comms = sys.spec.communicator_count();
    let scn = Scenario::from_events(vec![
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
            from: Tick::new(25_000),
            until: Tick::new(42_000),
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
            p: 0.002,
        },
        ScenarioEvent::Corrupt {
            host: sys.ids.h2,
            p: 0.05,
            value: -3.0,
        },
    ])
    .unwrap();

    let config = SimConfig {
        rounds: 200,
        seed: 909,
    };
    let fresh = || {
        let behaviors = build_behaviors(&sys, &params);
        let env =
            ScenarioEnvironment::new(ConstantEnvironment::new(Value::Float(0.25)), &scn, comms);
        (behaviors, env)
    };
    let base = ProbabilisticFaults::from_architecture(&sys.arch);
    let hosts = sys.arch.host_count();

    // The kernel reads the scenario as data; the reference interpreter
    // asks the scenario's per-call oracle injector.
    let (mut b1, mut e1) = fresh();
    let faults = ScenarioFaults::new(base.clone(), &scn, hosts, comms).unwrap();
    let compiled = sim.run(&mut b1, &mut e1, &faults, &config);
    let (mut b2, mut e2) = fresh();
    let mut oracle = PerLaneInjector::new(base, &scn, hosts, comms).unwrap();
    let reference = sim.run_reference(&mut b2, &mut e2, &mut oracle, &config);
    assert_eq!(compiled, reference);
}

/// Campaigns stay byte-identical across thread counts with the scenario
/// layer in the loop: eight width-1 units on one thread and on eight give
/// the same report and the same registry, alarm dumps included.
#[test]
fn scenario_batches_are_bit_identical_across_thread_counts() {
    let sys = ThreeTankSystem::new(Deployment::Baseline);
    let params = PlantParams::default();
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::new(&sys.spec, &sys.arch, &imp);
    let scn = crash_rejoin(&sys);

    let batch = |threads: usize| {
        let config = CampaignConfig {
            batch: BatchConfig {
                replications: 8,
                rounds: 150,
                base_seed: 77,
                threads,
            },
            monitor: MonitorConfig::default(),
            lanes: LaneMode::Off,
        };
        let mut registry = Registry::new();
        let report = Campaign::new(&sys.spec, scn.clone(), config, sys.arch.host_count(), 16)
            .and_then(|campaign| {
                campaign.run::<Registry, _, _>(
                    &sim,
                    |_rep| ReplicationContext {
                        behaviors: build_behaviors(&sys, &params),
                        environment: ConstantEnvironment::new(Value::Float(0.25)),
                        injector: ProbabilisticFaults::from_architecture(&sys.arch),
                    },
                    &[],
                    &mut registry,
                )
            })
            .unwrap();
        (report, to_json_line(&registry))
    };

    let one = batch(1);
    assert_eq!(one, batch(8));
}

/// Seed-stability pin of the E6 unplug experiment (`exp_unplug`): the
/// exact headline numbers for seed 42 over 900 rounds. A change in RNG
/// draw order, seed derivation, or kernel scheduling shows up here first.
#[test]
fn exp_unplug_output_is_seed_stable() {
    let run = |deployment: Deployment, unplug: bool| -> f64 {
        let sys = ThreeTankSystem::new(deployment);
        let params = PlantParams::default();
        let imp = TimeDependentImplementation::from(sys.imp.clone());
        let sim = Simulation::new(&sys.spec, &sys.arch, &imp);
        let mut behaviors = build_behaviors(&sys, &params);
        let mut env =
            ThreeTankEnvironment::new(params, sys.ids, 0.001, sys.gains.ref1, sys.gains.ref2);
        env.perturb_at(Tick::new(450 * 500), 0, 0.3);
        let config = SimConfig {
            rounds: 900,
            seed: 42,
        };
        if unplug {
            let unplug = Scenario::unplug(sys.ids.h1, Tick::new(250 * 500));
            let (hosts, comms) = (sys.arch.host_count(), sys.spec.communicator_count());
            let faults = ScenarioFaults::new(NoFaults, &unplug, hosts, comms).unwrap();
            sim.run(&mut behaviors, &mut env, &faults, &config);
        } else {
            sim.run(&mut behaviors, &mut env, &NoFaults, &config);
        }
        env.mean_error_since(Tick::new(450 * 500))
    };

    // Replication makes the unplug invisible, and with NoFaults the
    // nominal baseline coincides with the replicated run bit-for-bit;
    // only the unplugged baseline degrades.
    let pins = [
        (Deployment::ReplicatedControllers, false, "5.196855481694e-3"),
        (Deployment::ReplicatedControllers, true, "5.196855481694e-3"),
        (Deployment::Baseline, false, "5.196855481694e-3"),
        (Deployment::Baseline, true, "3.702974699377e-2"),
    ];
    for (deployment, unplug, expected) in pins {
        let got = format!("{:.12e}", run(deployment, unplug));
        assert_eq!(got, expected, "{deployment:?} unplug={unplug}");
    }
}

/// The correlated-failure acceptance check: a common-cause group over
/// both controller hosts and an *independent* flaky baseline give each
/// host the same marginal availability (0.95 per instant), yet only the
/// correlated scenario defeats replication — its empirical λ̂ for the
/// replicated controller output falls below the analytic SRG's ε-band,
/// while the independent baseline stays inside it. This is Proposition
/// 1's independence assumption made falsifiable.
#[test]
fn common_cause_breaks_the_epsilon_band_with_matching_marginals() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let sys = ThreeTankSystem::new(Deployment::ReplicatedControllers);
    let params = PlantParams::default();
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::new(&sys.spec, &sys.arch, &imp);
    let comms = sys.spec.communicator_count();
    const HORIZON: u64 = 1_000_000; // 2 000 rounds × 500 ticks

    let correlated = Scenario::from_events(vec![ScenarioEvent::CommonCause {
        hosts: HostSet::from_hosts([sys.ids.h1, sys.ids.h2]).unwrap(),
        from: Tick::new(0),
        until: Tick::new(HORIZON),
        p: 0.05,
    }])
    .unwrap();
    let independent = Scenario::from_events(vec![
        ScenarioEvent::Flaky {
            host: sys.ids.h1,
            from: Tick::new(0),
            until: Tick::new(HORIZON),
            up: 0.95,
        },
        ScenarioEvent::Flaky {
            host: sys.ids.h2,
            from: Tick::new(0),
            until: Tick::new(HORIZON),
            up: 0.95,
        },
    ])
    .unwrap();

    // Both scenarios give h1 and h2 the same per-instant marginal
    // availability; only the joint distribution differs. The per-call
    // oracle answers host by host.
    let marginals = |scn: &Scenario| -> [f64; 2] {
        let mut inj = PerLaneInjector::new(NoFaults, scn, sys.arch.host_count(), comms).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut up = [0u32; 2];
        const SAMPLES: u64 = 20_000;
        for t in 0..SAMPLES {
            for (i, h) in [sys.ids.h1, sys.ids.h2].into_iter().enumerate() {
                up[i] += u32::from(inj.host_ok(h, Tick::new(t), &mut rng));
            }
        }
        up.map(|u| f64::from(u) / SAMPLES as f64)
    };
    let corr_marginal = marginals(&correlated);
    let indep_marginal = marginals(&independent);
    for i in 0..2 {
        assert!(
            (corr_marginal[i] - indep_marginal[i]).abs() < 0.01,
            "host {i} marginals diverge: {corr_marginal:?} vs {indep_marginal:?}"
        );
        assert!((corr_marginal[i] - 0.95).abs() < 0.01);
    }

    let srgs = compute_srgs(&sys.spec, &sys.arch, &sys.imp).unwrap();
    let analytic: Vec<Option<f64>> = sys
        .spec
        .communicator_ids()
        .map(|c| Some(srgs.communicator(c).get()))
        .collect();
    let run = |scn: &Scenario| {
        let config = CampaignConfig {
            batch: BatchConfig {
                replications: 4,
                rounds: 2_000,
                base_seed: 0xCC0,
                threads: 0,
            },
            monitor: MonitorConfig::default(),
            lanes: LaneMode::default(),
        };
        Campaign::new(&sys.spec, scn.clone(), config, sys.arch.host_count(), 0)
            .and_then(|campaign| {
                campaign.run::<NoopSink, _, _>(
                    &sim,
                    |_rep| ReplicationContext {
                        behaviors: build_behaviors(&sys, &params),
                        environment: Box::new(ConstantEnvironment::new(Value::Float(0.25))),
                        injector: Box::new(ProbabilisticFaults::from_architecture(&sys.arch)),
                    },
                    &analytic,
                    &mut Registry::new(),
                )
            })
            .unwrap()
    };

    let corr = &run(&correlated).comms[sys.ids.u1.index()].clone();
    let indep = &run(&independent).comms[sys.ids.u1.index()].clone();

    // Replication absorbs independent flakiness: both replicas must fail
    // in the same instant (p ≈ 0.0025), well inside ε ≈ 0.008.
    assert_eq!(
        indep.within_epsilon,
        Some(true),
        "independent λ̂ {} vs {:?} (ε {})",
        indep.empirical,
        indep.analytic,
        indep.epsilon
    );
    // The same marginals, perfectly correlated, take the whole replica
    // set down at once (p = 0.05) and blow through the band.
    assert_eq!(
        corr.within_epsilon,
        Some(false),
        "correlated λ̂ {} vs {:?} (ε {})",
        corr.empirical,
        corr.analytic,
        corr.epsilon
    );
    assert!(corr.empirical < corr.analytic.unwrap() - corr.epsilon);
    assert!(corr.empirical < indep.empirical - 0.02, "correlation costs λ̂");
}

/// Every new event kind replays bit-identically across thread counts and
/// lane modes: the campaign report is a pure function of the scenario and
/// the seed, whether replications run on 1 or 8 threads, scalar or
/// bit-sliced.
#[test]
fn new_event_kinds_replay_bit_identically_across_threads_and_lanes() {
    let sys = ThreeTankSystem::new(Deployment::ReplicatedControllers);
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::new(&sys.spec, &sys.arch, &imp);
    const HORIZON: u64 = 40_000; // 80 rounds × 500 ticks

    let scenarios = [
        (
            "common",
            Scenario::from_events(vec![ScenarioEvent::CommonCause {
                hosts: HostSet::from_hosts([sys.ids.h1, sys.ids.h2]).unwrap(),
                from: Tick::new(0),
                until: Tick::new(HORIZON),
                p: 0.2,
            }])
            .unwrap(),
        ),
        (
            "partition",
            Scenario::from_events(vec![ScenarioEvent::Partition {
                hosts: HostSet::from_hosts([sys.ids.h1]).unwrap(),
                from: Tick::new(5_000),
                until: Tick::new(30_000),
            }])
            .unwrap(),
        ),
        (
            "wearout",
            Scenario::from_events(vec![ScenarioEvent::Wearout {
                host: sys.ids.h2,
                from: Tick::new(0),
                until: Tick::new(HORIZON),
                shape: 2.0,
                scale: 15_000.0,
            }])
            .unwrap(),
        ),
        (
            "adversary",
            Scenario::from_events(vec![ScenarioEvent::Adversary {
                from: Tick::new(0),
                until: Tick::new(HORIZON),
                hold: 100,
            }])
            .unwrap(),
        ),
    ];

    for (name, scn) in &scenarios {
        let run = |threads: usize, lanes: LaneMode| {
            let config = CampaignConfig {
                batch: BatchConfig {
                    replications: 66,
                    rounds: 80,
                    base_seed: 0xEC0,
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
        assert_eq!(scalar, run(8, LaneMode::Off), "{name}: threads under Off");
        assert_eq!(scalar, run(1, LaneMode::Auto), "{name}: scalar vs lanes");
        assert_eq!(scalar, run(8, LaneMode::Auto), "{name}: threads under Auto");
    }
}
