//! E6 — the §4 fault-tolerance experiment: run the closed-loop 3TS, unplug
//! one of the two controller hosts mid-run, inject a plant perturbation,
//! and compare tracking performance with and without replication.
//!
//! Paper: "We unplugged one of the two hosts from the network and verified
//! that there was no change in the control performance of the system."
//! The unplug is a scenario `crash` without a `rejoin`.
//!
//! Run with: `cargo run -p logrel-bench --bin exp_unplug`

use logrel_core::{Tick, TimeDependentImplementation};
use logrel_sim::{
    BehaviorMap, NoFaults, Scenario as Faults, ScenarioFaults, SimConfig, Simulation,
};
use logrel_threetank::behaviors::build_behaviors;
use logrel_threetank::{PlantParams, Scenario, ThreeTankEnvironment, ThreeTankSystem};

const ROUNDS: u64 = 900; // 450 s of plant time
const UNPLUG_AT: u64 = 250 * 500;
const PERTURB_AT: u64 = 450 * 500;

fn run(scenario: Scenario, unplug: bool) -> (f64, Vec<(u64, f64)>) {
    let sys = ThreeTankSystem::new(scenario);
    let params = PlantParams::default();
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::new(&sys.spec, &sys.arch, &imp);
    let mut behaviors: BehaviorMap = build_behaviors(&sys, &params);
    let mut env = ThreeTankEnvironment::new(params, sys.ids, 0.001, sys.gains.ref1, sys.gains.ref2);
    env.perturb_at(Tick::new(PERTURB_AT), 0, 0.3);
    let config = SimConfig {
        rounds: ROUNDS,
        seed: 42,
    };
    if unplug {
        let unplug = Faults::unplug(sys.ids.h1, Tick::new(UNPLUG_AT));
        let (hosts, comms) = (sys.arch.host_count(), sys.spec.communicator_count());
        let faults = ScenarioFaults::new(NoFaults, &unplug, hosts, comms).expect("h1 is a host");
        sim.run(&mut behaviors, &mut env, &faults, &config);
    } else {
        sim.run(&mut behaviors, &mut env, &NoFaults, &config);
    }
    let series: Vec<(u64, f64)> = env
        .error_log()
        .iter()
        .filter(|(t, _, _)| t.as_u64() % 25_000 == 0)
        .map(|(t, e1, e2)| (t.as_u64() / 1000, (e1 + e2) / 2.0))
        .collect();
    (env.mean_error_since(Tick::new(PERTURB_AT)), series)
}

fn main() {
    println!(
        "closed-loop 3TS: unplug h1 at t = {} s, open tank-1 tap at t = {} s\n",
        UNPLUG_AT / 1000,
        PERTURB_AT / 1000
    );

    let (nom_rep, series_nom) = run(Scenario::ReplicatedControllers, false);
    let (unp_rep, series_unp) = run(Scenario::ReplicatedControllers, true);
    let (nom_base, _) = run(Scenario::Baseline, false);
    let (unp_base, series_base) = run(Scenario::Baseline, true);

    println!("mean |tracking error| after the perturbation:");
    println!("  replicated controllers, no fault:   {nom_rep:.6} m");
    println!("  replicated controllers, h1 removed: {unp_rep:.6} m");
    println!("  baseline (unreplicated), no fault:  {nom_base:.6} m");
    println!("  baseline (unreplicated), h1 removed:{unp_base:.6} m");

    println!("\nerror over time (s → m), replicated nominal | replicated unplugged | baseline unplugged:");
    for ((t, a), ((_, b), (_, c))) in series_nom
        .iter()
        .zip(series_unp.iter().zip(series_base.iter()))
    {
        println!("  t = {t:>4} s: {a:.5} | {b:.5} | {c:.5}");
    }

    // The paper's finding, quantitatively.
    assert!(
        (nom_rep - unp_rep).abs() < 1e-9,
        "replication: no change in control performance"
    );
    assert!(
        unp_base > nom_base * 2.0,
        "without replication the perturbation is not rejected"
    );
    println!("\n✓ unplugging a host has no effect when the controllers are replicated");
    println!("✓ the unreplicated baseline visibly degrades");
}
