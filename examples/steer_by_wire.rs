//! The automotive case study end to end: reliability analysis of the two
//! deployments, then a closed-loop lane change at 90 km/h with an ECU
//! unplugged mid-run.
//!
//! Run with: `cargo run --example steer_by_wire`

use logrel::core::{Tick, TimeDependentImplementation};
use logrel::reliability::check;
use logrel::sim::{BehaviorMap, NoFaults, Scenario, ScenarioFaults, SimConfig, Simulation};
use logrel::steerbywire::behaviors::build_behaviors;
use logrel::steerbywire::env::LaneChange;
use logrel::steerbywire::{SteerEnvironment, SteerScenario, SteerSystem, VehicleParams};

const SPEED: f64 = 25.0; // 90 km/h
const LANE_CHANGE: LaneChange = LaneChange {
    start: 10.0,
    duration: 3.0,
    amplitude: 1.2,
};

fn closed_loop(scenario: SteerScenario, unplug: bool) -> (f64, f64) {
    let sys = SteerSystem::new(scenario, None).expect("valid system");
    let params = VehicleParams::default();
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::new(&sys.spec, &sys.arch, &imp);
    let mut behaviors: BehaviorMap = build_behaviors(&sys, &params);
    let mut env = SteerEnvironment::new(
        params,
        sys.ids,
        0.001,
        SPEED,
        LANE_CHANGE,
        sys.gains.steering_ratio,
    );
    let config = SimConfig {
        rounds: 320,
        seed: 6,
    };
    if unplug {
        let scenario = Scenario::unplug(sys.ids.ecu_a, Tick::new(8_000));
        let (hosts, comms) = (sys.arch.host_count(), sys.spec.communicator_count());
        let faults =
            ScenarioFaults::new(NoFaults, &scenario, hosts, comms).expect("ecu_a is a host");
        sim.run(&mut behaviors, &mut env, &faults, &config);
    } else {
        sim.run(&mut behaviors, &mut env, &NoFaults, &config);
    }
    (
        env.mean_yaw_error_since(Tick::new(10_000)),
        env.plant().state().lateral_position,
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("steer-by-wire column, LRC(cmd) = 0.998\n");
    for scenario in [SteerScenario::SingleEcu, SteerScenario::ReplicatedEcus] {
        let sys = SteerSystem::new(scenario, Some(0.998))?;
        let verdict = check(&sys.spec, &sys.arch, &sys.imp)?;
        println!(
            "{scenario:?}: λ(cmd) = {:.6} → {verdict}",
            verdict.long_run_srg(sys.ids.cmd)
        );
    }

    println!("\nclosed-loop lane change at 90 km/h, ecu_a unplugged at t = 8 s:");
    println!(
        "{:<18} {:>14} {:>14}",
        "deployment", "yaw err (rad/s)", "lateral (m)"
    );
    for (label, scenario, unplug) in [
        ("replicated", SteerScenario::ReplicatedEcus, false),
        ("replicated+fault", SteerScenario::ReplicatedEcus, true),
        ("single", SteerScenario::SingleEcu, false),
        ("single+fault", SteerScenario::SingleEcu, true),
    ] {
        let (err, lateral) = closed_loop(scenario, unplug);
        println!("{label:<18} {err:>14.5} {lateral:>14.3}");
    }
    println!(
        "\nwith replication the fault is invisible; the single ECU never steers the\n\
         lane change (the car stays in its lane while the driver turns the wheel)"
    );
    Ok(())
}
