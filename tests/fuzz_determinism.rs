//! End-to-end tests of the coverage-guided scenario fuzzer: a fixed seed
//! gives byte-identical corpora and reproducers across runs, every
//! shrunk reproducer replays as a genuine monitor miss through the plain
//! campaign API, and the fuzz counters land in the metric registry (and
//! export deterministically).

use logrel_core::TimeDependentImplementation;
use logrel_obs::{export, names, NoopSink, Registry};
use logrel_sim::{
    run_fuzz, BatchConfig, Campaign, BehaviorMap, CampaignConfig, ConstantEnvironment,
    FuzzConfig, FuzzOutcome, LaneMode, MonitorConfig, ProbabilisticFaults, ReplicationContext,
    Scenario,
};
use logrel_core::Value;
use logrel_threetank::{Scenario as Deployment, ThreeTankSystem};

fn fuzz_once(sys: &ThreeTankSystem, config: &FuzzConfig) -> (FuzzOutcome, Registry) {
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let sim = logrel_sim::Simulation::new(&sys.spec, &sys.arch, &imp);
    let mut registry = Registry::new();
    let outcome = run_fuzz(
        &sim,
        &sys.spec,
        &Scenario::default(),
        sys.arch.host_count(),
        config,
        |_rep| ReplicationContext {
            behaviors: BehaviorMap::new(),
            environment: Box::new(ConstantEnvironment::new(Value::Float(0.25))),
            injector: Box::new(ProbabilisticFaults::from_architecture(&sys.arch)),
        },
        &mut registry,
    )
    .unwrap();
    (outcome, registry)
}

fn config() -> FuzzConfig {
    FuzzConfig {
        iters: 120,
        seed: 7,
        campaign: CampaignConfig {
            batch: BatchConfig {
                replications: 2,
                rounds: 300,
                base_seed: 0xC0FFEE,
                threads: 0,
            },
            monitor: MonitorConfig::default(),
            lanes: LaneMode::Auto,
        },
        ..FuzzConfig::default()
    }
}

/// Same seed, same spec → the whole outcome (corpus bytes, reproducer
/// bytes, counters) is identical run to run, and the emitted metrics
/// export to byte-identical documents.
#[test]
fn fixed_seed_fuzzing_is_byte_identical_across_runs() {
    let sys = ThreeTankSystem::with_options(Deployment::Baseline, 0.999, Some(0.999)).unwrap();
    let config = config();
    let (a, reg_a) = fuzz_once(&sys, &config);
    let (b, reg_b) = fuzz_once(&sys, &config);
    assert_eq!(a, b, "fuzzing must be a pure function of the seed");
    assert_eq!(export::to_prometheus(&reg_a), export::to_prometheus(&reg_b));
    assert_eq!(export::to_json(&reg_a), export::to_json(&reg_b));

    // The campaign actually explored: the corpus grew beyond the seed
    // scenario and every artifact parses back as a valid timeline.
    assert_eq!(a.iters, config.iters);
    assert!(a.novel > 0, "no novel signatures in {} iters", a.iters);
    assert!(a.corpus.len() as u64 == a.novel + 1);
    assert_eq!(a.corpus[0].name, "cov-0000.scn");
    for artifact in a.corpus.iter().chain(&a.reproducers) {
        Scenario::parse(&artifact.contents).unwrap_or_else(|e| {
            panic!("{} does not re-parse: {e}", artifact.name)
        });
    }

    // The sink got the catalog counters, matching the outcome's fields.
    assert_eq!(reg_a.counter(names::FUZZ_ITERS), a.iters);
    assert_eq!(reg_a.counter(names::FUZZ_NOVEL), a.novel);
    assert_eq!(reg_a.counter(names::FUZZ_MONITOR_MISS), a.monitor_misses);
    assert_eq!(reg_a.counter(names::FUZZ_SHRINK_STEPS), a.shrink_steps);
    assert_eq!(reg_a.gauge(names::FUZZ_SIGNATURES), Some(a.signatures as f64));
    let prom = export::to_prometheus(&reg_a);
    for metric in [
        "logrel_fuzz_iters_total",
        "logrel_fuzz_novel_total",
        "logrel_fuzz_monitor_miss_total",
        "logrel_fuzz_shrink_steps_total",
        "logrel_fuzz_signatures",
    ] {
        assert!(prom.contains(&format!("# HELP {metric} ")), "{metric} HELP");
        assert!(prom.contains(&format!("# TYPE {metric} ")), "{metric} TYPE");
    }
}

/// Every reproducer the fuzzer ships replays as a monitor miss through
/// the plain campaign API: some constrained communicator dips below its
/// LRC with statistical ground truth, and no alarm catches it.
#[test]
fn reproducers_replay_as_monitor_misses() {
    let sys = ThreeTankSystem::with_options(Deployment::Baseline, 0.999, Some(0.999)).unwrap();
    let config = config();
    let (outcome, _) = fuzz_once(&sys, &config);
    assert!(
        !outcome.reproducers.is_empty(),
        "the pinned campaign must find at least one miss (found {} in {} iters)",
        outcome.monitor_misses,
        outcome.iters,
    );
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let sim = logrel_sim::Simulation::new(&sys.spec, &sys.arch, &imp);
    for artifact in &outcome.reproducers {
        let scn = Scenario::parse(&artifact.contents).unwrap();
        let report = Campaign::new(&sys.spec, scn, config.campaign, sys.arch.host_count(), 0)
            .and_then(|campaign| {
                campaign.run::<NoopSink, _, _>(
                    &sim,
                    |_rep| ReplicationContext {
                        behaviors: BehaviorMap::new(),
                        environment: Box::new(ConstantEnvironment::new(Value::Float(0.25))),
                        injector: Box::new(ProbabilisticFaults::from_architecture(&sys.arch)),
                    },
                    &[],
                    &mut Registry::new(),
                )
            })
            .unwrap();
        let missed = report
            .comms
            .iter()
            .any(|c| c.violations > 0 && c.alarms_before_violation == 0);
        assert!(missed, "{} does not replay as a miss", artifact.name);
    }
}
