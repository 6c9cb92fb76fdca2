//! Proposition 2 end-to-end: a design flow that analyses an abstract 3TS
//! once and carries the certificate through refinements.

use logrel_core::{
    Architecture, CommunicatorDecl, FailureModel, Implementation, Reliability, Specification,
    TaskDecl, Value, ValueType,
};
use logrel_refine::{check_refinement, incremental_validate, validate, Kappa, SystemRef};
use logrel_threetank::{Scenario, ThreeTankSystem};

/// An "abstract" 3TS: same structure, but generous WCETs and wide LETs —
/// the requirements-level model a designer would write first.
fn abstract_three_tank(lrc_u: f64) -> (Specification, Architecture, Implementation) {
    let sys = ThreeTankSystem::with_options(Scenario::ReplicatedControllers, 0.999, None)
        .unwrap();
    // Rebuild the spec with wider LETs: controllers write u[4] (instant
    // 400) instead of u[3] (300), estimators read u[2] (instant 200), earlier than the concrete read time.
    let mut sb = Specification::builder();
    let comm = |n: &str, p: u64| CommunicatorDecl::new(n, ValueType::Float, p).unwrap();
    let s1 = sb.communicator(comm("s1", 500).from_sensor()).unwrap();
    let s2 = sb.communicator(comm("s2", 500).from_sensor()).unwrap();
    let l1 = sb.communicator(comm("l1", 100)).unwrap();
    let l2 = sb.communicator(comm("l2", 100)).unwrap();
    let u1 = sb
        .communicator(comm("u1", 100).with_lrc(Reliability::new(lrc_u).unwrap()))
        .unwrap();
    let u2 = sb
        .communicator(comm("u2", 100).with_lrc(Reliability::new(lrc_u).unwrap()))
        .unwrap();
    let r1 = sb.communicator(comm("r1", 500)).unwrap();
    let r2 = sb.communicator(comm("r2", 500)).unwrap();
    let read = |n: &str, s, l| {
        TaskDecl::new(n)
            .reads(s, 0)
            .writes(l, 1)
            .model(FailureModel::Parallel)
            .default_value(Value::Float(0.0))
    };
    let read1 = sb.task(read("read1", s1, l1)).unwrap();
    let read2 = sb.task(read("read2", s2, l2)).unwrap();
    let t1 = sb.task(TaskDecl::new("t1").reads(l1, 1).writes(u1, 4)).unwrap();
    let t2 = sb.task(TaskDecl::new("t2").reads(l2, 1).writes(u2, 4)).unwrap();
    let e1 = sb
        .task(TaskDecl::new("estimate1").reads(l1, 1).reads(u1, 2).writes(r1, 1))
        .unwrap();
    let e2 = sb
        .task(TaskDecl::new("estimate2").reads(l2, 1).reads(u2, 2).writes(r2, 1))
        .unwrap();
    let spec = sb.build().unwrap();

    // Same hosts; larger WCETs (the abstract budget).
    let mut ab = Architecture::builder();
    for name in ["h1", "h2", "h3"] {
        ab.host(logrel_core::HostDecl::new(
            name,
            Reliability::new(0.999).unwrap(),
        ))
        .unwrap();
    }
    for name in ["sen1a", "sen1b", "sen2a", "sen2b"] {
        ab.sensor(logrel_core::SensorDecl::new(
            name,
            Reliability::new(0.999).unwrap(),
        ))
        .unwrap();
    }
    for t in [read1, read2] {
        ab.wcet_all(t, 20).unwrap();
        ab.wctt_all(t, 5).unwrap();
    }
    for t in [t1, t2, e1, e2] {
        ab.wcet_all(t, 40).unwrap();
        ab.wctt_all(t, 5).unwrap();
    }
    let arch = ab.build();

    // Mirror the scenario-1 mapping by task name.
    let mut ib = Implementation::builder();
    for t in spec.task_ids() {
        let name = spec.task(t).name();
        let orig = sys.spec.find_task(name).unwrap();
        ib = ib.assign(t, sys.imp.hosts_of(orig).iter().copied());
    }
    // And its sensor bindings (`sen1a`, `sen2a`) by communicator.
    for (abstract_comm, concrete_comm) in [(s1, sys.ids.s1), (s2, sys.ids.s2)] {
        for &sensor in sys.imp.sensors_of(concrete_comm) {
            ib = ib.bind_sensor(abstract_comm, sensor);
        }
    }
    let imp = ib.build(&spec, &arch).unwrap();
    (spec, arch, imp)
}

#[test]
fn concrete_three_tank_refines_the_abstract_one() {
    let (aspec, aarch, aimp) = abstract_three_tank(0.998);
    let refined = SystemRef::new(&aspec, &aarch, &aimp);
    // The concrete system: tighter write time (u[3]) and smaller WCETs,
    // weaker-or-equal LRCs.
    let concrete =
        ThreeTankSystem::with_options(Scenario::ReplicatedControllers, 0.999, Some(0.99))
            .unwrap();
    let refining = SystemRef::new(&concrete.spec, &concrete.arch, &concrete.imp);
    let kappa = Kappa::by_name(&concrete.spec, &aspec);
    check_refinement(refining, refined, &kappa).unwrap();

    // Prop 2: validate the abstract system once, inherit for the concrete.
    let cert = validate(refined).unwrap();
    let inherited = incremental_validate(refining, refined, &kappa, &cert).unwrap();
    assert!(inherited.verdict.is_reliable());

    // Cross-check: the direct analysis of the concrete system agrees.
    assert!(validate(refining).is_ok());
}

#[test]
fn strengthening_the_lrc_breaks_the_refinement() {
    let (aspec, aarch, aimp) = abstract_three_tank(0.99);
    let refined = SystemRef::new(&aspec, &aarch, &aimp);
    // Concrete demands MORE reliability (0.998 > 0.99): not a refinement.
    let concrete =
        ThreeTankSystem::with_options(Scenario::ReplicatedControllers, 0.999, Some(0.998))
            .unwrap();
    let refining = SystemRef::new(&concrete.spec, &concrete.arch, &concrete.imp);
    let kappa = Kappa::by_name(&concrete.spec, &aspec);
    let err = check_refinement(refining, refined, &kappa).unwrap_err();
    assert!(err.to_string().contains("LRC") || err.to_string().contains("requires"));
}

#[test]
fn changing_the_mapping_breaks_the_refinement() {
    let (aspec, aarch, aimp) = abstract_three_tank(0.998);
    let refined = SystemRef::new(&aspec, &aarch, &aimp);
    // Baseline mapping differs from the abstract scenario-1 mapping.
    let concrete =
        ThreeTankSystem::with_options(Scenario::Baseline, 0.999, Some(0.99)).unwrap();
    let refining = SystemRef::new(&concrete.spec, &concrete.arch, &concrete.imp);
    let kappa = Kappa::by_name(&concrete.spec, &aspec);
    let err = check_refinement(refining, refined, &kappa).unwrap_err();
    assert!(err.to_string().contains("mapped to different hosts"));
}

#[test]
fn refinement_is_reflexive_on_the_three_tank_system() {
    let sys = ThreeTankSystem::new(Scenario::Baseline);
    let sref = SystemRef::new(&sys.spec, &sys.arch, &sys.imp);
    let kappa = Kappa::identity(&sys.spec);
    check_refinement(sref, sref, &kappa).unwrap();
}
