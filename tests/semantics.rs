//! Semantic validation: Monte-Carlo simulation agrees with the analytic
//! SRGs (Proposition 1 / SLLN), the §3 memory pathology reproduces, and
//! time-dependent implementations achieve their long-run averages.

use logrel_core::prelude::*;
use logrel_reliability::{compute_srgs, empirical_check, LongRunVerdict};
use logrel_sim::{
    BehaviorMap, ConstantEnvironment, NoFaults, ProbabilisticFaults, SimConfig, Simulation,
};
use logrel_threetank::{Scenario, ThreeTankSystem};

/// E7 core: empirical limit averages of the 3TS communicators converge to
/// the analytic SRGs. Reliabilities are lowered to 0.9 so failures are
/// frequent enough for tight statistics.
#[test]
fn three_tank_simulation_matches_analysis() {
    let sys = ThreeTankSystem::with_options(Scenario::Baseline, 0.9, None).unwrap();
    let report = compute_srgs(&sys.spec, &sys.arch, &sys.imp).unwrap();
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::new(&sys.spec, &sys.arch, &imp);
    let mut behaviors = BehaviorMap::new(); // zero fallbacks suffice
    let mut env = ConstantEnvironment::new(Value::Float(0.3));
    let inj = ProbabilisticFaults::from_architecture(&sys.arch);
    let out = sim.run(
        &mut behaviors,
        &mut env,
        &inj,
        &SimConfig {
            rounds: 30_000,
            seed: 2024,
        },
    );
    let empirical = |comm| {
        // Skip the first round: initial values are reliable by fiat.
        let bits: Vec<bool> = out.trace.abstraction(comm).into_iter().skip(5).collect();
        bits.iter().filter(|&&b| b).count() as f64 / bits.len() as f64
    };
    // Tree-shaped dependencies (s1, l1, u1): the induction is exact.
    for comm in [sys.ids.s1, sys.ids.l1, sys.ids.u1] {
        let analytic = report.communicator(comm).get();
        let mean = empirical(comm);
        let name = sys.spec.communicator(comm).name();
        assert!(
            (mean - analytic).abs() < 0.01,
            "{name}: empirical {mean} vs analytic {analytic}"
        );
    }
    // Diamond dependency (estimate1 reads l1 AND u1, and u1 depends on
    // l1): the paper's induction multiplies the input SRGs as if
    // independent (0.9 · 0.81 · 0.729 = 0.531441), while the exact
    // correlated probability is λ_e · P(u1 ok) = 0.9 · 0.729 = 0.6561
    // (u1 ok implies l1 ok). The simulation exposes the approximation,
    // which errs on the safe side here.
    let analytic_r1 = report.communicator(sys.ids.r1).get();
    let mean_r1 = empirical(sys.ids.r1);
    assert!((analytic_r1 - 0.531441).abs() < 1e-9);
    assert!((mean_r1 - 0.6561).abs() < 0.01, "r1 empirical {mean_r1}");
    assert!(
        analytic_r1 <= mean_r1,
        "the independence approximation must be conservative for diamonds"
    );
}

/// Persistence subtlety: `u1`/`l1` have period 100 inside a 500-round, so
/// four of five updates persist the single written instance — their
/// reliability abstraction equals the written one, which is exactly what
/// the SRG predicts per *update*. The test above covers it; here we check
/// the update counts line up.
#[test]
fn update_counts_follow_periods() {
    let sys = ThreeTankSystem::new(Scenario::Baseline);
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::new(&sys.spec, &sys.arch, &imp);
    let out = sim.run(
        &mut BehaviorMap::new(),
        &mut ConstantEnvironment::new(Value::Float(0.0)),
        &NoFaults,
        &SimConfig {
            rounds: 10,
            seed: 1,
        },
    );
    assert_eq!(out.trace.update_count(sys.ids.s1), 10); // period 500
    assert_eq!(out.trace.update_count(sys.ids.l1), 50); // period 100
    assert_eq!(out.trace.update_count(sys.ids.u1), 50);
}

/// §3 "Specification with memory": a series-model task reading and writing
/// the same communicator degrades to limit-average 0 — "once ⊥ is written,
/// the value of c is always ⊥ from that instant on".
#[test]
fn memory_cycle_with_series_model_collapses_to_zero() {
    let mut sb = Specification::builder();
    let c = sb
        .communicator(CommunicatorDecl::new("c", ValueType::Float, 10).unwrap())
        .unwrap();
    let t = sb.task(TaskDecl::new("t").reads(c, 0).writes(c, 1)).unwrap();
    let spec = sb.build().unwrap();
    let mut ab = Architecture::builder();
    let h = ab
        .host(HostDecl::new("h", Reliability::new(0.95).unwrap()))
        .unwrap();
    ab.wcet_all(t, 1).unwrap();
    ab.wctt_all(t, 1).unwrap();
    let arch = ab.build();
    let imp: TimeDependentImplementation = Implementation::builder()
        .assign(t, [h])
        .build(&spec, &arch)
        .unwrap()
        .into();

    // The static analysis refuses the cycle...
    assert!(compute_srgs(&spec, &arch, imp.at_iteration(0)).is_err());

    // ...and the simulation shows why: after the first host failure the
    // communicator stays ⊥ forever.
    let sim = Simulation::new(&spec, &arch, &imp);
    let mut behaviors = BehaviorMap::new();
    behaviors.register(t, |i: &[Value]| {
        vec![Value::Float(i[0].as_float().unwrap_or(0.0) + 1.0)]
    });
    let inj = ProbabilisticFaults::from_architecture(&arch);
    let out = sim.run(
        &mut behaviors,
        &mut ConstantEnvironment::new(Value::Float(0.0)),
        &inj,
        &SimConfig {
            rounds: 5_000,
            seed: 11,
        },
    );
    let bits = out.trace.abstraction(c);
    // Find the first failure; everything after must be false.
    let first_false = bits.iter().position(|&b| !b).expect("some failure occurs");
    assert!(bits[first_false..].iter().all(|&b| !b));
    // The long-run average over a long run is far below the per-step 0.95.
    let tail_mean = logrel_reliability::limit_average(&bits);
    assert!(tail_mean < 0.1, "mean {tail_mean}");
}

/// §3 remedy: with the independent failure model in the cycle, the task
/// recovers using defaults and the long-run average equals λ_t.
#[test]
fn memory_cycle_with_independent_model_recovers() {
    let mut sb = Specification::builder();
    let c = sb
        .communicator(CommunicatorDecl::new("c", ValueType::Float, 10).unwrap())
        .unwrap();
    let t = sb
        .task(
            TaskDecl::new("t")
                .reads(c, 0)
                .writes(c, 1)
                .model(FailureModel::Independent)
                .default_value(Value::Float(0.0)),
        )
        .unwrap();
    let spec = sb.build().unwrap();
    let mut ab = Architecture::builder();
    let h = ab
        .host(HostDecl::new("h", Reliability::new(0.95).unwrap()))
        .unwrap();
    ab.wcet_all(t, 1).unwrap();
    ab.wctt_all(t, 1).unwrap();
    let arch = ab.build();
    let static_imp = Implementation::builder()
        .assign(t, [h])
        .build(&spec, &arch)
        .unwrap();
    // The analysis now succeeds and predicts λ_c = λ_t = 0.95.
    let report = compute_srgs(&spec, &arch, &static_imp).unwrap();
    assert!((report.communicator(c).get() - 0.95).abs() < 1e-12);

    let imp: TimeDependentImplementation = static_imp.into();
    let sim = Simulation::new(&spec, &arch, &imp);
    let mut behaviors = BehaviorMap::new();
    behaviors.register(t, |i: &[Value]| {
        vec![Value::Float(i[0].as_float().unwrap_or(0.0) + 1.0)]
    });
    let inj = ProbabilisticFaults::from_architecture(&arch);
    let out = sim.run(
        &mut behaviors,
        &mut ConstantEnvironment::new(Value::Float(0.0)),
        &inj,
        &SimConfig {
            rounds: 30_000,
            seed: 5,
        },
    );
    let bits: Vec<bool> = out.trace.abstraction(c).into_iter().skip(1).collect();
    let verdict = empirical_check(&bits, Reliability::new(0.93).unwrap(), 0.999);
    assert_eq!(verdict, LongRunVerdict::Meets);
    let mean = logrel_reliability::limit_average(&bits);
    assert!((mean - 0.95).abs() < 0.01, "mean {mean}");
}

/// §3 "General implementation" (E9): hosts at 0.95/0.85 with LRC 0.9 —
/// both static mappings fail, the alternating time-dependent mapping
/// achieves exactly 0.9 in the long run, confirmed analytically AND by
/// simulation.
#[test]
fn time_dependent_alternation_achieves_the_long_run_average() {
    let mut sb = Specification::builder();
    let s = sb
        .communicator(
            CommunicatorDecl::new("s", ValueType::Float, 10)
                .unwrap()
                .from_sensor(),
        )
        .unwrap();
    let lrc = Reliability::new(0.9).unwrap();
    let c1 = sb
        .communicator(
            CommunicatorDecl::new("c1", ValueType::Float, 10)
                .unwrap()
                .with_lrc(lrc),
        )
        .unwrap();
    let c2 = sb
        .communicator(
            CommunicatorDecl::new("c2", ValueType::Float, 10)
                .unwrap()
                .with_lrc(lrc),
        )
        .unwrap();
    let t1 = sb.task(TaskDecl::new("t1").reads(s, 0).writes(c1, 1)).unwrap();
    let t2 = sb.task(TaskDecl::new("t2").reads(s, 0).writes(c2, 1)).unwrap();
    let spec = sb.build().unwrap();
    let mut ab = Architecture::builder();
    let h1 = ab
        .host(HostDecl::new("h1", Reliability::new(0.95).unwrap()))
        .unwrap();
    let h2 = ab
        .host(HostDecl::new("h2", Reliability::new(0.85).unwrap()))
        .unwrap();
    let sen = ab.sensor(SensorDecl::new("sen", Reliability::ONE)).unwrap();
    for t in [t1, t2] {
        ab.wcet_all(t, 1).unwrap();
        ab.wctt_all(t, 1).unwrap();
    }
    let arch = ab.build();
    let phase_a = Implementation::builder()
        .assign(t1, [h1])
        .assign(t2, [h2])
        .bind_sensor(s, sen)
        .build(&spec, &arch)
        .unwrap();
    let phase_b = phase_a
        .with_assignment(t1, [h2])
        .with_assignment(t2, [h1]);

    // Both static mappings violate one LRC each.
    assert!(!logrel_reliability::check(&spec, &arch, &phase_a)
        .unwrap()
        .is_reliable());
    assert!(!logrel_reliability::check(&spec, &arch, &phase_b)
        .unwrap()
        .is_reliable());

    // The alternating mapping is reliable (long-run 0.9 each).
    let td = TimeDependentImplementation::new(vec![phase_a, phase_b]).unwrap();
    let verdict = logrel_reliability::check_time_dependent(&spec, &arch, &td).unwrap();
    assert!(verdict.is_reliable());

    // Simulation agrees.
    let sim = Simulation::new(&spec, &arch, &td);
    let inj = ProbabilisticFaults::from_architecture(&arch);
    let out = sim.run(
        &mut BehaviorMap::new(),
        &mut ConstantEnvironment::new(Value::Float(1.0)),
        &inj,
        &SimConfig {
            rounds: 40_000,
            seed: 77,
        },
    );
    for c in [c1, c2] {
        let bits: Vec<bool> = out.trace.abstraction(c).into_iter().skip(1).collect();
        let mean = logrel_reliability::limit_average(&bits);
        assert!((mean - 0.9).abs() < 0.01, "mean {mean}");
    }
}
