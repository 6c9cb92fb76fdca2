//! The full compiler pipeline: HTL-style source → elaboration → joint
//! schedulability/reliability analysis → E-code generation → runtime
//! cross-validation → simulation.

use logrel_core::{TimeDependentImplementation, Value};
use logrel_lang::compile;
use logrel_refine::{validate, SystemRef};
use logrel_threetank::htl::three_tank_source;
use logrel_threetank::Scenario;

#[test]
fn source_to_valid_system() {
    let src = three_tank_source(Scenario::ReplicatedControllers, 0.999, Some(0.998));
    let sys = compile(&src).unwrap();
    let cert = validate(SystemRef::new(&sys.spec, &sys.arch, &sys.imp)).unwrap();
    assert!(cert.verdict.is_reliable());
    assert_eq!(cert.schedule.round().as_u64(), 500);
}

#[test]
fn source_to_ecode_validation() {
    let src = three_tank_source(Scenario::Baseline, 0.999, None);
    let sys = compile(&src).unwrap();
    logrel_sim::emrun::validate_ecode(&sys.spec, &sys.imp, sys.arch.host_ids(), 3).unwrap();
}

#[test]
fn source_to_simulation() {
    let src = three_tank_source(Scenario::Baseline, 0.999, None);
    let sys = compile(&src).unwrap();
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let sim = logrel_sim::Simulation::new(&sys.spec, &sys.arch, &imp);
    let mut behaviors = logrel_sim::BehaviorMap::new();
    let mut env = logrel_sim::ConstantEnvironment::new(Value::Float(0.25));
    let out = sim.run(
        &mut behaviors,
        &mut env,
        &logrel_sim::NoFaults,
        &logrel_sim::SimConfig {
            rounds: 20,
            seed: 1,
        },
    );
    let u1 = sys.spec.find_communicator("u1").unwrap();
    // Fault-free run: every update after the first is reliable.
    let bits = out.trace.abstraction(u1);
    assert!(bits[5..].iter().all(|&b| b));
}

#[test]
fn compile_errors_carry_positions() {
    let src = "program p {\n  communicator c : float period 0;\n}";
    let err = compile(src).unwrap_err();
    // period 0 is a core validation error surfaced through the front-end.
    assert!(err.to_string().contains("period"));
}
