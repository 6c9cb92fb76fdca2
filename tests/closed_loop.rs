//! E6 (compact form): the closed-loop 3TS survives unplugging one host
//! when the controllers are replicated, and degrades when they are not.
//!
//! The full experiment (longer horizon, printed series) lives in
//! `cargo run -p logrel-bench --bin exp_unplug`.

use logrel_core::{Tick, TimeDependentImplementation};
use logrel_sim::{BehaviorMap, NoFaults, ScenarioFaults, SimConfig, Simulation};
use logrel_threetank::behaviors::build_behaviors;
use logrel_threetank::{PlantParams, Scenario, ThreeTankEnvironment, ThreeTankSystem};

/// Runs the closed loop for `rounds` rounds; optionally unplugs h1 at
/// `unplug_at`; opens a perturbation tap on tank 1 at `perturb_at`.
/// Returns the mean tracking error after the perturbation.
fn run(scenario: Scenario, rounds: u64, unplug_at: Option<Tick>, perturb_at: Tick) -> f64 {
    let sys = ThreeTankSystem::new(scenario);
    let params = PlantParams::default();
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::new(&sys.spec, &sys.arch, &imp);
    let mut behaviors: BehaviorMap = build_behaviors(&sys, &params);
    let mut env = ThreeTankEnvironment::new(
        params,
        sys.ids,
        0.001,
        sys.gains.ref1,
        sys.gains.ref2,
    );
    env.perturb_at(perturb_at, 0, 0.3);
    let config = SimConfig { rounds, seed: 42 };
    
    match unplug_at {
        Some(at) => {
            let unplug = logrel_sim::Scenario::unplug(sys.ids.h1, at);
            let (hosts, comms) = (sys.arch.host_count(), sys.spec.communicator_count());
            let faults = ScenarioFaults::new(NoFaults, &unplug, hosts, comms).unwrap();
            sim.run(&mut behaviors, &mut env, &faults, &config);
            env.mean_error_since(perturb_at)
        }
        None => {
            sim.run(&mut behaviors, &mut env, &NoFaults, &config);
            env.mean_error_since(perturb_at)
        }
    }
}

#[test]
fn controller_reaches_the_references() {
    let sys = ThreeTankSystem::new(Scenario::Baseline);
    let params = PlantParams::default();
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::new(&sys.spec, &sys.arch, &imp);
    let mut behaviors = build_behaviors(&sys, &params);
    let mut env =
        ThreeTankEnvironment::new(params, sys.ids, 0.001, sys.gains.ref1, sys.gains.ref2);
    // 600 rounds = 300 s of plant time.
    sim.run(
        &mut behaviors,
        &mut env,
        &NoFaults,
        &SimConfig {
            rounds: 600,
            seed: 1,
        },
    );
    let tail_error = env.mean_error_since(Tick::new(250 * 500));
    assert!(
        tail_error < 0.02,
        "controller should settle near the references, error {tail_error}"
    );
    let s = env.plant().state();
    assert!((s.h1 - sys.gains.ref1).abs() < 0.03, "h1 = {}", s.h1);
    assert!((s.h2 - sys.gains.ref2).abs() < 0.03, "h2 = {}", s.h2);
}

#[test]
fn perturbation_estimator_reacts_to_the_tap() {
    // After the tank-1 tap opens, the controller pumps harder to hold the
    // level; estimate1 = pump inflow − nominal outflow must rise.
    let sys = ThreeTankSystem::new(Scenario::Baseline);
    let params = PlantParams::default();
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::new(&sys.spec, &sys.arch, &imp);
    let mut behaviors = build_behaviors(&sys, &params);
    let mut env =
        ThreeTankEnvironment::new(params, sys.ids, 0.001, sys.gains.ref1, sys.gains.ref2);
    let perturb = Tick::new(400 * 500);
    env.perturb_at(perturb, 0, 0.3);
    let out = sim.run(
        &mut behaviors,
        &mut env,
        &NoFaults,
        &SimConfig {
            rounds: 800,
            seed: 4,
        },
    );
    let r1 = out.trace.values(sys.ids.r1);
    let avg = |range: std::ops::Range<u64>| {
        let vals: Vec<f64> = r1
            .iter()
            .filter(|(t, _)| range.contains(&t.as_u64()))
            .filter_map(|(_, v)| v.as_float())
            .collect();
        vals.iter().sum::<f64>() / vals.len() as f64
    };
    let before = avg(150_000..200_000);
    let after = avg(350_000..400_000);
    assert!(
        after > before + 1.0e-6,
        "estimate must rise after the tap opens: before {before:e}, after {after:e}"
    );
}

#[test]
fn unplugging_a_host_has_no_effect_with_replication() {
    // "We unplugged one of the two hosts from the network and verified
    // that there was no change in the control performance."
    let rounds = 700;
    let unplug = Tick::new(200 * 500);
    let perturb = Tick::new(350 * 500);
    let nominal = run(Scenario::ReplicatedControllers, rounds, None, perturb);
    let unplugged = run(Scenario::ReplicatedControllers, rounds, Some(unplug), perturb);
    // Replicated controllers: unplugging h1 changes nothing measurable.
    assert!(
        (nominal - unplugged).abs() < 1e-9,
        "nominal {nominal} vs unplugged {unplugged}"
    );
}

#[test]
fn unplugging_degrades_the_unreplicated_baseline() {
    let rounds = 700;
    let unplug = Tick::new(200 * 500);
    let perturb = Tick::new(350 * 500);
    let nominal = run(Scenario::Baseline, rounds, None, perturb);
    let unplugged = run(Scenario::Baseline, rounds, Some(unplug), perturb);
    // t1 lived on h1 alone: after the unplug the pump current freezes and
    // the tap perturbation cannot be rejected.
    assert!(
        unplugged > nominal * 2.0,
        "expected clear degradation: nominal {nominal}, unplugged {unplugged}"
    );
}
