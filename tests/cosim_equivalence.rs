//! The strongest code-generator check: executing the *generated E-code*
//! (one E-machine per host, independent platform implementation)
//! reproduces the direct kernel's trace **bit for bit**, including under
//! random fault injection with the same seed — on the full three-tank
//! system.

use logrel_core::{TimeDependentImplementation, Value};
use logrel_sim::cosim::{run_cosim, CosimParams};
use logrel_sim::{
    BehaviorMap, ConstantEnvironment, NoFaults, ProbabilisticFaults, SimConfig, Simulation,
    VotingStrategy,
};
use logrel_threetank::{Scenario, ThreeTankSystem};

fn compare(scenario: Scenario, host_rel: f64, rounds: u64, seed: u64, faults: bool) {
    let sys = ThreeTankSystem::with_options(scenario, host_rel, None).expect("valid");
    let td = TimeDependentImplementation::from(sys.imp.clone());

    // Kernel run.
    let sim = Simulation::new(&sys.spec, &sys.arch, &td);
    let mut behaviors = BehaviorMap::new();
    let mut env = ConstantEnvironment::new(Value::Float(0.3));
    let kernel_trace = if faults {
        let inj = ProbabilisticFaults::from_architecture(&sys.arch);
        sim.run(
            &mut behaviors,
            &mut env,
            &inj,
            &SimConfig { rounds, seed },
        )
        .trace
    } else {
        sim.run(
            &mut behaviors,
            &mut env,
            &NoFaults,
            &SimConfig { rounds, seed },
        )
        .trace
    };

    // E-code-driven run with identical inputs.
    let mut behaviors = BehaviorMap::new();
    let mut env = ConstantEnvironment::new(Value::Float(0.3));
    let cosim_trace = if faults {
        let mut inj = ProbabilisticFaults::from_architecture(&sys.arch);
        run_cosim(
            &sys.spec,
            &sys.imp,
            &mut behaviors,
            &mut env,
            &mut inj,
            sys.arch.host_ids(),
            CosimParams {
                rounds,
                seed,
                voting: VotingStrategy::AnyReliable,
            },
        )
    } else {
        run_cosim(
            &sys.spec,
            &sys.imp,
            &mut behaviors,
            &mut env,
            &mut NoFaults,
            sys.arch.host_ids(),
            CosimParams {
                rounds,
                seed,
                voting: VotingStrategy::AnyReliable,
            },
        )
    };

    for c in sys.spec.communicator_ids() {
        assert_eq!(
            kernel_trace.values(c),
            cosim_trace.values(c),
            "{scenario:?} faults={faults}: divergence on `{}`",
            sys.spec.communicator(c).name()
        );
    }
}

#[test]
fn fault_free_traces_are_identical() {
    compare(Scenario::Baseline, 0.999, 20, 7, false);
    compare(Scenario::ReplicatedControllers, 0.999, 20, 7, false);
    compare(Scenario::ReplicatedSensors, 0.999, 20, 7, false);
}

#[test]
fn fault_injected_traces_are_bit_identical_for_equal_seeds() {
    // Low reliability so faults actually occur within the horizon.
    for seed in [1u64, 2, 3, 99] {
        compare(Scenario::Baseline, 0.8, 400, seed, true);
    }
    compare(Scenario::ReplicatedControllers, 0.8, 400, 11, true);
    compare(Scenario::ReplicatedSensors, 0.8, 400, 12, true);
}
