//! Translation validation: mutation coverage of the V-code catalog.
//!
//! Every test corrupts one compiled artifact — a [`RoundProgram`] field
//! or one host's E-code — and asserts that certification rejects it with
//! the exact V-code family the catalog assigns to that defect, while the
//! unmutated artifact certifies cleanly. A property test generates random
//! race-free pipelines and checks that elaborate → compile → certify
//! always succeeds, and the CLI tests pin `htlc verify` behaviour on the
//! clean corpus.

use logrel_core::prelude::*;
use logrel_core::roundprog::UpdateOp;
use logrel_core::{Calendar, RoundProgram};
use logrel_emachine::{generate, Addr, ECode, Instruction};
use logrel_threetank::{Scenario, ThreeTankSystem};
use logrel_validate::{certify_ecode, certify_kernel, certify_system};
use proptest::prelude::*;

/// Compiles the round program of a 3TS scenario.
fn compiled(scenario: Scenario) -> (ThreeTankSystem, TimeDependentImplementation, RoundProgram) {
    let sys = ThreeTankSystem::new(scenario);
    let td = TimeDependentImplementation::from(sys.imp.clone());
    let prog = RoundProgram::compile(&sys.spec, &td, &Calendar::new(&sys.spec));
    (sys, td, prog)
}

/// Asserts that certification rejects `prog` and that the diagnostic set
/// contains `code` (mutations may cascade into secondary findings; the
/// primary code must be present and stable).
fn assert_rejected(
    sys: &ThreeTankSystem,
    td: &TimeDependentImplementation,
    prog: &RoundProgram,
    code: &str,
) {
    let diags = certify_kernel(&sys.spec, td, prog).expect_err("mutant must be rejected");
    assert!(!diags.is_empty());
    assert!(
        diags.iter().any(|d| d.code == code),
        "expected {code}, got: {:?}",
        diags.iter().map(|d| d.code).collect::<Vec<_>>()
    );
}

#[test]
fn clean_kernel_certifies() {
    for scenario in [
        Scenario::Baseline,
        Scenario::ReplicatedControllers,
        Scenario::ReplicatedSensors,
    ] {
        let (sys, td, prog) = compiled(scenario);
        let cert = certify_kernel(&sys.spec, &td, &prog).expect("clean program certifies");
        assert_eq!(cert.round, sys.spec.round_period().as_u64());
        assert_eq!(cert.artifacts, vec!["round-program"]);
        // Deterministic: recompiling yields the identical certificate.
        let again = RoundProgram::compile(&sys.spec, &td, &Calendar::new(&sys.spec));
        assert_eq!(certify_kernel(&sys.spec, &td, &again).unwrap(), cert);
    }
}

/// Every `Simulation` certifies the program it compiled, wherever it is
/// built: outside `logrel-sim`, with a live registry, the certify span
/// is recorded next to the compile span.
#[test]
fn every_simulation_self_certifies_and_times_it() {
    for scenario in [Scenario::Baseline, Scenario::ReplicatedControllers] {
        let (sys, td, _) = compiled(scenario);
        let mut registry = logrel_obs::Registry::new();
        logrel_sim::Simulation::try_new_observed(&sys.spec, &sys.arch, &td, &mut registry)
            .expect("clean program certifies");
        for name in [
            logrel_obs::names::COMPILE_SECONDS,
            logrel_obs::names::CERTIFY_SECONDS,
        ] {
            assert!(
                registry.gauge(name).is_some_and(|s| s >= 0.0),
                "{name} missing"
            );
        }
    }
}

#[test]
fn v001_missing_latch_edge() {
    let (sys, td, mut prog) = compiled(Scenario::Baseline);
    let slot = prog
        .slots
        .iter_mut()
        .find(|s| !s.latches.is_empty())
        .expect("some slot latches");
    slot.latches.remove(0);
    assert_rejected(&sys, &td, &prog, "V001");
}

#[test]
fn v002_extra_latch_edge() {
    let (sys, td, mut prog) = compiled(Scenario::Baseline);
    let slot = prog
        .slots
        .iter_mut()
        .find(|s| !s.latches.is_empty())
        .expect("some slot latches");
    let dup = slot.latches[0];
    slot.latches.push(dup);
    assert_rejected(&sys, &td, &prog, "V002");
}

#[test]
fn v003_wrong_instance_index() {
    let (sys, td, mut prog) = compiled(Scenario::Baseline);
    let total = prog.total_outputs as u32;
    let op = prog
        .slots
        .iter_mut()
        .flat_map(|s| s.updates.iter_mut())
        .find(|op| matches!(op, UpdateOp::Landed { .. }))
        .expect("some landing");
    if let UpdateOp::Landed { out_slot, .. } = op {
        *out_slot = (*out_slot + 1) % total;
    }
    assert_rejected(&sys, &td, &prog, "V003");
}

#[test]
fn v004_vote_arity_mismatch() {
    let (sys, td, mut prog) = compiled(Scenario::ReplicatedControllers);
    let hosts = &mut prog.phases[0].hosts[sys.ids.t1.index()];
    assert!(hosts.len() >= 2, "t1 is replicated in this scenario");
    hosts.pop();
    assert_rejected(&sys, &td, &prog, "V004");
}

#[test]
fn v005_replica_set_divergence() {
    let (sys, td, mut prog) = compiled(Scenario::ReplicatedControllers);
    let hosts = &mut prog.phases[0].hosts[sys.ids.t1.index()];
    assert_eq!(hosts, &vec![sys.ids.h1, sys.ids.h2]);
    // Same arity, different members: h2 replaced by h3.
    *hosts = vec![sys.ids.h1, sys.ids.h3];
    assert_rejected(&sys, &td, &prog, "V005");
}

#[test]
fn v006_update_instant_skew() {
    let (sys, td, mut prog) = compiled(Scenario::Baseline);
    prog.slots[0].updates.remove(0);
    assert_rejected(&sys, &td, &prog, "V006");
}

#[test]
fn v008_non_canonical_double_update() {
    let (sys, td, mut prog) = compiled(Scenario::Baseline);
    let dup = prog.slots[0].updates[0];
    prog.slots[0].updates.push(dup);
    assert_rejected(&sys, &td, &prog, "V008");
}

#[test]
fn v009_dead_replica_output() {
    let (sys, td, mut prog) = compiled(Scenario::Baseline);
    let op = prog
        .slots
        .iter_mut()
        .flat_map(|s| s.updates.iter_mut())
        .find(|op| matches!(op, UpdateOp::Landed { .. }))
        .expect("some landing");
    if let UpdateOp::Landed { comm, .. } = *op {
        *op = UpdateOp::Persist { comm };
    }
    assert_rejected(&sys, &td, &prog, "V009");
}

#[test]
fn v010_failure_model_divergence() {
    let (sys, td, mut prog) = compiled(Scenario::Baseline);
    let table = &mut prog.tasks[sys.ids.t1.index()];
    table.model = match table.model {
        FailureModel::Series => FailureModel::Parallel,
        _ => FailureModel::Series,
    };
    assert_rejected(&sys, &td, &prog, "V010");
}

// ---------------------------------------------------------------------
// E-code mutations
// ---------------------------------------------------------------------

/// Generates the per-host E-code of a 3TS scenario.
fn ecodes(sys: &ThreeTankSystem) -> Vec<(HostId, ECode)> {
    sys.arch
        .host_ids()
        .map(|h| (h, generate(&sys.spec, &sys.imp, h)))
        .collect()
}

/// Rewrites one instruction of one host's program. Replacement with
/// `Jump` to the next address deletes an instruction without shifting
/// any jump target.
fn rewrite(
    programs: &mut [(HostId, ECode)],
    host: HostId,
    f: impl Fn(usize, Instruction) -> Option<Instruction>,
) {
    let code = &mut programs
        .iter_mut()
        .find(|(h, _)| *h == host)
        .expect("host exists")
        .1;
    let mut ins: Vec<Instruction> = code.instructions().to_vec();
    let mut changed = 0usize;
    for (i, slot) in ins.iter_mut().enumerate() {
        if let Some(new) = f(i, *slot) {
            *slot = new;
            changed += 1;
        }
    }
    assert!(changed > 0, "mutation site not found");
    *code = ECode::new(ins, code.entry());
}

#[test]
fn clean_ecode_composition_certifies() {
    let sys = ThreeTankSystem::new(Scenario::ReplicatedControllers);
    let programs = ecodes(&sys);
    let cert = certify_ecode(&sys.spec, &sys.imp, &programs).expect("clean E-code certifies");
    assert_eq!(cert.artifacts, vec!["e-code"]);
    // The E-code denotation must match the kernel's reference exactly, so
    // both artifact checks share one digest.
    let td = TimeDependentImplementation::from(sys.imp.clone());
    let prog = RoundProgram::compile(&sys.spec, &td, &Calendar::new(&sys.spec));
    assert_eq!(certify_kernel(&sys.spec, &td, &prog).unwrap().digest, cert.digest);
}

#[test]
fn ecode_v001_dropped_latch() {
    let sys = ThreeTankSystem::new(Scenario::Baseline);
    let mut programs = ecodes(&sys);
    let host = sys.imp.hosts_of(sys.ids.t1).iter().next().copied().unwrap();
    rewrite(&mut programs, host, |i, ins| match ins {
        Instruction::Call(logrel_emachine::DriverOp::LatchInput { task, .. })
            if task == sys.ids.t1 =>
        {
            Some(Instruction::Jump(Addr(i + 1)))
        }
        _ => None,
    });
    let diags = certify_ecode(&sys.spec, &sys.imp, &programs).expect_err("mutant rejected");
    assert!(diags.iter().any(|d| d.code == "V001"), "{diags:?}");
}

#[test]
fn ecode_v003_wrong_update_instance() {
    let sys = ThreeTankSystem::new(Scenario::Baseline);
    let mut programs = ecodes(&sys);
    let host = sys.ids.h1;
    rewrite(&mut programs, host, |_, ins| match ins {
        Instruction::Call(logrel_emachine::DriverOp::UpdateCommunicator { comm, instance })
            if instance > 0 =>
        {
            Some(Instruction::Call(
                logrel_emachine::DriverOp::UpdateCommunicator {
                    comm,
                    instance: instance + 1,
                },
            ))
        }
        _ => None,
    });
    let diags = certify_ecode(&sys.spec, &sys.imp, &programs).expect_err("mutant rejected");
    assert!(diags.iter().any(|d| d.code == "V003"), "{diags:?}");
}

#[test]
fn ecode_v004_dropped_replica_release() {
    let sys = ThreeTankSystem::new(Scenario::ReplicatedControllers);
    let mut programs = ecodes(&sys);
    // Delete t1 entirely (release and latches) on one of its two replica
    // hosts, so the replica silently disappears from the vote.
    rewrite(&mut programs, sys.ids.h2, |i, ins| match ins {
        Instruction::Release { task }
        | Instruction::Call(logrel_emachine::DriverOp::LatchInput { task, .. })
            if task == sys.ids.t1 =>
        {
            Some(Instruction::Jump(Addr(i + 1)))
        }
        _ => None,
    });
    let diags = certify_ecode(&sys.spec, &sys.imp, &programs).expect_err("mutant rejected");
    assert!(diags.iter().any(|d| d.code == "V004"), "{diags:?}");
}

#[test]
fn ecode_e009_sensor_update_before_its_read() {
    use logrel_emachine::DriverOp;
    let sys = ThreeTankSystem::new(Scenario::Baseline);
    let mut programs = ecodes(&sys);
    // On h3, sample `s1` right after its update instead of right before:
    // the update then publishes the previous round's sensor value.
    let code = &mut programs
        .iter_mut()
        .find(|(h, _)| *h == sys.ids.h3)
        .expect("host exists")
        .1;
    let mut ins: Vec<Instruction> = code.instructions().to_vec();
    let at = ins
        .windows(2)
        .position(|w| {
            matches!(w, [
                Instruction::Call(DriverOp::ReadSensors { comm: read }),
                Instruction::Call(DriverOp::UpdateCommunicator { comm: updated, .. }),
            ] if *read == sys.ids.s1 && *updated == sys.ids.s1)
        })
        .expect("s1 is sampled right before its update");
    ins.swap(at, at + 1);
    *code = ECode::new(ins, code.entry());
    let diags = certify_ecode(&sys.spec, &sys.imp, &programs).expect_err("mutant rejected");
    assert!(diags.iter().any(|d| d.code == "E009"), "{diags:?}");
}

#[test]
fn ecode_v007_zero_delta_future() {
    let sys = ThreeTankSystem::new(Scenario::Baseline);
    let mut programs = ecodes(&sys);
    rewrite(&mut programs, sys.ids.h1, |_, ins| match ins {
        Instruction::Future { delta, target } if delta > 0 => {
            Some(Instruction::Future { delta: 0, target })
        }
        _ => None,
    });
    let diags = certify_ecode(&sys.spec, &sys.imp, &programs).expect_err("mutant rejected");
    assert!(diags.iter().any(|d| d.code == "V007"), "{diags:?}");
}

// ---------------------------------------------------------------------
// Whole-system certification and properties
// ---------------------------------------------------------------------

#[test]
fn certify_system_covers_both_artifacts() {
    for scenario in [
        Scenario::Baseline,
        Scenario::ReplicatedControllers,
        Scenario::ReplicatedSensors,
    ] {
        let sys = ThreeTankSystem::new(scenario);
        let td = TimeDependentImplementation::from(sys.imp.clone());
        let cert = certify_system(&sys.spec, &sys.arch, &td).expect("3TS certifies");
        assert_eq!(cert.artifacts, vec!["round-program", "e-code"]);
    }
}

#[test]
fn certify_steer_by_wire() {
    use logrel_steerbywire::{SteerScenario, SteerSystem};
    for scenario in [SteerScenario::SingleEcu, SteerScenario::ReplicatedEcus] {
        let sys = SteerSystem::new(scenario, None).unwrap();
        let td = TimeDependentImplementation::from(sys.imp.clone());
        let cert = certify_system(&sys.spec, &sys.arch, &td).expect("steer-by-wire certifies");
        assert_eq!(cert.round, sys.spec.round_period().as_u64());
    }
}

/// Random race-free linear pipelines (mirrors `model_properties.rs`).
fn build_pipeline(stages: usize) -> (Specification, Architecture, Implementation) {
    let mut sb = Specification::builder();
    let mut comms = vec![sb
        .communicator(
            CommunicatorDecl::new("c0", ValueType::Float, 10)
                .unwrap()
                .from_sensor(),
        )
        .unwrap()];
    for i in 1..=stages {
        comms.push(
            sb.communicator(CommunicatorDecl::new(format!("c{i}"), ValueType::Float, 10).unwrap())
                .unwrap(),
        );
    }
    let mut tasks = Vec::new();
    for i in 0..stages {
        tasks.push(
            sb.task(
                TaskDecl::new(format!("t{i}"))
                    .reads(comms[i], i as u64)
                    .writes(comms[i + 1], i as u64 + 1),
            )
            .unwrap(),
        );
    }
    let spec = sb.build().unwrap();
    let mut ab = Architecture::builder();
    let mut hosts = Vec::new();
    for i in 0..stages {
        hosts.push(
            ab.host(HostDecl::new(format!("h{i}"), Reliability::new(0.9).unwrap()))
                .unwrap(),
        );
    }
    let sen = ab
        .sensor(SensorDecl::new("sen", Reliability::new(0.9).unwrap()))
        .unwrap();
    for &t in &tasks {
        ab.wcet_all(t, 1).unwrap();
        ab.wctt_all(t, 1).unwrap();
    }
    let arch = ab.build();
    let mut ib = Implementation::builder().bind_sensor(comms[0], sen);
    for (i, &t) in tasks.iter().enumerate() {
        ib = ib.assign(t, [hosts[i]]);
    }
    let imp = ib.build(&spec, &arch).unwrap();
    (spec, arch, imp)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every elaborated race-free pipeline compiles to artifacts that
    /// certify cleanly, whatever the stage count.
    #[test]
    fn random_pipelines_certify(stages in 1usize..6) {
        let (spec, arch, imp) = build_pipeline(stages);
        let td = TimeDependentImplementation::from(imp);
        let cert = certify_system(&spec, &arch, &td);
        prop_assert!(cert.is_ok(), "certification failed: {:?}", cert.err());
        prop_assert_eq!(cert.unwrap().executions, stages);
    }
}

// ---------------------------------------------------------------------
// CLI: `htlc verify` on the clean corpus
// ---------------------------------------------------------------------

#[test]
fn htlc_verify_clean_corpus() {
    for file in [
        "assets/three_tank.htl",
        "assets/steer_by_wire.htl",
        "examples/htl/infusion_pump.htl",
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_htlc"))
            .args(["verify", file])
            .output()
            .expect("htlc runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "`htlc verify {file}` failed: {stdout}");
        assert!(stdout.contains("certificate round="), "{stdout}");
        assert!(stdout.contains("VERIFIED"), "{stdout}");
    }
}

#[test]
fn htlc_verify_missing_file_is_usage_error() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_htlc"))
        .args(["verify", "no/such/file.htl"])
        .output()
        .expect("htlc runs");
    assert_eq!(out.status.code(), Some(1));
}
