//! End-to-end tests of the observability layer on the 3TS: pinned
//! metric values on a short deterministic run, bit-identical simulation
//! output with and without a sink attached, thread-count-invariant
//! campaign metric aggregation, and flight-recorder dumps on a scripted
//! LRC violation.

use logrel_core::{Tick, TimeDependentImplementation, Value};
use logrel_obs::{
    export, names, DropReason, DumpTrigger, NoopSink, ObsEvent, Registry,
};
use logrel_sim::{
    BatchConfig, BehaviorMap, Campaign, CampaignConfig, ConstantEnvironment,
    LaneMode, LrcMonitor, MonitorConfig, NoFaults, ProbabilisticFaults,
    ReplicationContext, Scenario, ScenarioEnvironment, ScenarioEvent, ScenarioInjector, SimConfig,
    SimOutput, Simulation,
};
use logrel_threetank::{Scenario as Deployment, ThreeTankSystem};

/// Three rounds of the unreplicated Baseline with no faults: every
/// counter is exactly predictable from the Fig. 2 specification — 24
/// communicator updates per round (s1/s2/r1/r2 once, l1/l2/u1/u2 five
/// times), six tasks invoked once per round, every vote a single-replica
/// unanimous delivery.
#[test]
fn pinned_metrics_on_a_three_round_baseline_run() {
    let sys = ThreeTankSystem::new(Deployment::Baseline);
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::new(&sys.spec, &sys.arch, &imp);
    let mut reg = Registry::new();
    let out = sim.run_observed(
        &mut BehaviorMap::new(),
        &mut ConstantEnvironment::new(Value::Float(0.2)),
        &mut NoFaults,
        None,
        &mut reg,
        &SimConfig { rounds: 3, seed: 1 },
    );

    assert_eq!(reg.counter(names::ROUNDS), 3);
    assert_eq!(reg.counter(names::UPDATES), 72);
    assert_eq!(reg.counter(names::UPDATES_UNRELIABLE), 0);
    assert_eq!(reg.counter(names::TASK_INVOCATIONS), 18);
    assert_eq!(reg.counter(names::TASK_DELIVERED), 18);
    assert_eq!(reg.counter(names::VOTE_UNANIMOUS), 18);
    assert_eq!(reg.counter(names::VOTE_SILENT), 0);
    assert_eq!(reg.counter(names::REPLICA_OK), 18);
    assert_eq!(reg.counter(names::REPLICA_DROP), 0);
    assert_eq!(reg.counter(names::HOST_DOWN_TRANSITIONS), 0);
    assert_eq!(reg.counter(names::HOST_UP_TRANSITIONS), 0);
    assert_eq!(reg.counter(names::BROADCAST_FAIL), 0);
    assert_eq!(reg.gauge(names::HOSTS_UP), Some(3.0));
    let h = reg.histogram(names::REPLICAS_PER_VOTE).expect("observed");
    assert_eq!(h.count(), 18);

    // The counters agree with the trace the same run recorded.
    let updates: usize = sys
        .spec
        .communicator_ids()
        .map(|c| out.trace.update_count(c))
        .sum();
    assert_eq!(updates as u64, reg.counter(names::UPDATES));
}

/// The sink never influences the simulation: a plain `run`, a
/// `run_observed` with the no-op sink, and a `run_observed` with a live
/// registry produce bit-identical outputs under probabilistic faults.
#[test]
fn observed_runs_are_bit_identical_to_plain_runs() {
    let sys = ThreeTankSystem::new(Deployment::ReplicatedControllers);
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::new(&sys.spec, &sys.arch, &imp);
    let config = SimConfig {
        rounds: 300,
        seed: 0xFEED,
    };
    let run = |sink: &mut dyn FnMut(&Simulation, &SimConfig) -> SimOutput| sink(&sim, &config);

    let plain = run(&mut |sim, config| {
        sim.run(
            &mut BehaviorMap::new(),
            &mut ConstantEnvironment::new(Value::Float(0.2)),
            &mut ProbabilisticFaults::from_architecture(&sys.arch),
            config,
        )
    });
    let noop = run(&mut |sim, config| {
        sim.run_observed(
            &mut BehaviorMap::new(),
            &mut ConstantEnvironment::new(Value::Float(0.2)),
            &mut ProbabilisticFaults::from_architecture(&sys.arch),
            None,
            &mut NoopSink,
            config,
        )
    });
    let mut reg = Registry::with_recorder(128);
    let observed = run(&mut |sim, config| {
        sim.run_observed(
            &mut BehaviorMap::new(),
            &mut ConstantEnvironment::new(Value::Float(0.2)),
            &mut ProbabilisticFaults::from_architecture(&sys.arch),
            None,
            &mut reg,
            config,
        )
    });

    assert_eq!(plain, noop);
    assert_eq!(plain, observed);
    // ...and the registry actually recorded the run it rode along with.
    assert_eq!(reg.counter(names::ROUNDS), 300);
    assert!(reg.counter(names::REPLICA_OK) > 0);
}

/// Campaign metric aggregation merges per-replication registries in
/// replication order, so the exported documents are bit-identical at any
/// thread count — and on the bit-sliced path exactly as on the scalar
/// one, since every lane replays the same per-replication draw sequence.
#[test]
fn campaign_metric_aggregation_is_thread_count_invariant() {
    let sys = ThreeTankSystem::with_options(Deployment::Baseline, 0.99, Some(0.9)).unwrap();
    let scenario = Scenario::from_events(vec![
        ScenarioEvent::Crash {
            host: sys.ids.h1,
            at: Tick::new(20_000),
        },
        ScenarioEvent::Rejoin {
            host: sys.ids.h1,
            at: Tick::new(40_000),
        },
    ])
    .unwrap();
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::new(&sys.spec, &sys.arch, &imp);

    let run = |threads: usize, lanes: LaneMode| {
        let config = CampaignConfig {
            batch: BatchConfig {
                replications: 8,
                rounds: 150,
                base_seed: 77,
                threads,
            },
            monitor: MonitorConfig::default(),
            lanes,
        };
        let mut reg = Registry::with_recorder(64);
        let report = Campaign::new(&sys.spec, scenario.clone(), config, sys.arch.host_count(), 64)
            .and_then(|campaign| {
                campaign.run::<Registry, _, _>(
                    &sim,
                    |_rep| ReplicationContext {
                        behaviors: BehaviorMap::new(),
                        environment: Box::new(ConstantEnvironment::new(Value::Float(0.25))),
                        injector: Box::new(ProbabilisticFaults::from_architecture(&sys.arch)),
                    },
                    &[],
                    &mut reg,
                )
            })
            .unwrap();
        (report, export::to_prometheus(&reg), export::to_json(&reg))
    };

    let (report_1, prom_1, json_1) = run(1, LaneMode::Auto);
    let (report_8, prom_8, json_8) = run(8, LaneMode::Auto);
    assert_eq!(report_1, report_8);
    assert_eq!(prom_1, prom_8);
    assert_eq!(json_1, json_8);
    // The scalar path agrees byte for byte, again at any thread count.
    let (report_s1, prom_s1, json_s1) = run(1, LaneMode::Off);
    let (report_s8, prom_s8, json_s8) = run(8, LaneMode::Off);
    assert_eq!(report_1, report_s1);
    assert_eq!(prom_1, prom_s1);
    assert_eq!(json_1, json_s1);
    assert_eq!(report_s1, report_s8);
    assert_eq!(prom_s1, prom_s8);
    assert_eq!(json_s1, json_s8);
    // A narrow width chunks the replications differently but lands on
    // the same bytes.
    let (report_w3, prom_w3, json_w3) = run(2, LaneMode::Width(3));
    assert_eq!(report_1, report_w3);
    assert_eq!(prom_1, prom_w3);
    assert_eq!(json_1, json_w3);
    // The scripted outage is actually visible in the merged metrics.
    assert!(prom_1.contains("logrel_replica_drop_host_total"));
}

/// A scripted, unterminated crash of `h1` starves `u1` (t1's output) on
/// the unreplicated Baseline until the LRC monitor raises an alarm; the
/// alarm auto-snapshots the flight recorder, and the dump holds both the
/// alarm and the host-down evidence leading up to it.
#[test]
fn flight_recorder_dumps_on_a_scripted_lrc_violation() {
    let sys = ThreeTankSystem::with_options(Deployment::Baseline, 0.999, Some(0.95)).unwrap();
    let scenario = Scenario::from_events(vec![ScenarioEvent::Crash {
        host: sys.ids.h1,
        at: Tick::new(10_000),
    }])
    .unwrap();
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::new(&sys.spec, &sys.arch, &imp);
    let comms = sys.spec.communicator_count();
    let mut env = ScenarioEnvironment::new(
        ConstantEnvironment::new(Value::Float(0.25)),
        &scenario,
        comms,
    );
    let mut inj = ScenarioInjector::new(NoFaults, &scenario, sys.arch.host_count(), comms).unwrap();
    let mut monitor = LrcMonitor::new(&sys.spec, MonitorConfig::default());
    let mut reg = Registry::with_recorder(4096);

    sim.run_observed(
        &mut BehaviorMap::new(),
        &mut env,
        &mut inj,
        Some(&mut monitor),
        &mut reg,
        &SimConfig {
            rounds: 120,
            seed: 3,
        },
    );

    assert!(reg.counter(names::ALARM_RAISED) >= 1, "the outage must alarm");
    assert!(reg.counter(names::REPLICA_DROP_HOST) > 0);
    let rec = reg.recorder().expect("recorder attached");
    assert!(!rec.dumps().is_empty(), "alarms auto-dump the recorder");
    let dump = &rec.dumps()[0];
    assert!(matches!(dump.trigger, DumpTrigger::AlarmRaised { .. }));
    assert!(dump.events.iter().any(|e| e.kind() == "alarm-raised"));
    assert!(
        dump.events.iter().any(|e| matches!(
            e,
            ObsEvent::ReplicaDrop {
                reason: DropReason::HostDown,
                ..
            } | ObsEvent::HostDown { .. }
        )),
        "the dump must carry the host-down evidence before the alarm"
    );
    // The JSON export carries the dump end to end.
    let json = export::to_json(&reg);
    assert!(json.contains("\"trigger\": \"alarm-raised\""));
    assert!(json.contains("\"reason\": \"host-down\""));
}
