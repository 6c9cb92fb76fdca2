//! Property-based tests over randomly generated pipeline systems:
//!
//! * the SRG induction agrees with the equivalent RBD evaluation (the
//!   test oracle `crates/reliability/src/oracle.rs`, included by path);
//! * replication is monotone (more replicas never lower any SRG);
//! * greedy synthesis output is reliable whenever it returns;
//! * simulation limit averages converge to the analytic SRGs;
//! * every generated system refines itself.

#[path = "../crates/reliability/src/oracle.rs"]
mod oracle;

use logrel_core::prelude::*;
use logrel_refine::{check_refinement, Kappa, SystemRef};
use logrel_reliability::{compute_srgs, synthesize, SynthesisOptions};
use oracle::communicator_block;
use proptest::prelude::*;

/// A randomly parameterised linear pipeline:
/// `sensor -> c0 -> t1 -> c1 -> … -> tn -> cn` with per-stage host
/// reliabilities.
#[derive(Debug, Clone)]
struct Pipeline {
    stage_rels: Vec<f64>,
    sensor_rel: f64,
}

fn pipeline_strategy() -> impl Strategy<Value = Pipeline> {
    (
        proptest::collection::vec(0.5f64..1.0, 1..5),
        0.5f64..1.0,
    )
        .prop_map(|(stage_rels, sensor_rel)| Pipeline {
            stage_rels,
            sensor_rel,
        })
}

fn build(p: &Pipeline) -> (Specification, Architecture, Implementation) {
    let n = p.stage_rels.len();
    let mut sb = Specification::builder();
    let mut comms = Vec::new();
    comms.push(
        sb.communicator(
            CommunicatorDecl::new("c0", ValueType::Float, 10)
                .unwrap()
                .from_sensor(),
        )
        .unwrap(),
    );
    for i in 1..=n {
        comms.push(
            sb.communicator(CommunicatorDecl::new(format!("c{i}"), ValueType::Float, 10).unwrap())
                .unwrap(),
        );
    }
    let mut tasks = Vec::new();
    for i in 0..n {
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
    for (i, &rel) in p.stage_rels.iter().enumerate() {
        hosts.push(
            ab.host(HostDecl::new(
                format!("h{i}"),
                Reliability::new(rel).unwrap(),
            ))
            .unwrap(),
        );
    }
    // One spare, very reliable host for synthesis to use.
    let spare = ab
        .host(HostDecl::new("spare", Reliability::new(0.999).unwrap()))
        .unwrap();
    let sen = ab
        .sensor(SensorDecl::new(
            "sen",
            Reliability::new(p.sensor_rel).unwrap(),
        ))
        .unwrap();
    for &t in &tasks {
        ab.wcet_all(t, 1).unwrap();
        ab.wctt_all(t, 1).unwrap();
    }
    let arch = ab.build();
    let _ = spare;

    let mut ib = Implementation::builder().bind_sensor(comms[0], sen);
    for (i, &t) in tasks.iter().enumerate() {
        ib = ib.assign(t, [hosts[i]]);
    }
    let imp = ib.build(&spec, &arch).unwrap();
    (spec, arch, imp)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn srg_matches_rbd(p in pipeline_strategy()) {
        let (spec, arch, imp) = build(&p);
        let report = compute_srgs(&spec, &arch, &imp).unwrap();
        for c in spec.communicator_ids() {
            let block = communicator_block(&spec, &arch, &imp, c).unwrap();
            prop_assert!(
                (block.reliability().unwrap().get() - report.communicator(c).get()).abs()
                    < 1e-9
            );
        }
        // The final SRG is the product of all stage and sensor
        // reliabilities (series chain).
        let last = CommunicatorId::new(spec.communicator_count() as u32 - 1);
        let expected: f64 = p.stage_rels.iter().product::<f64>() * p.sensor_rel;
        prop_assert!((report.communicator(last).get() - expected).abs() < 1e-9);
    }

    #[test]
    fn replication_is_monotone(p in pipeline_strategy(), stage in 0usize..5) {
        let (spec, arch, imp) = build(&p);
        let stage = stage % p.stage_rels.len();
        let t = TaskId::new(stage as u32);
        let before = compute_srgs(&spec, &arch, &imp).unwrap();
        let mut hosts: Vec<HostId> = imp.hosts_of(t).iter().copied().collect();
        hosts.push(arch.find_host("spare").unwrap());
        let more = imp.with_assignment(t, hosts);
        let after = compute_srgs(&spec, &arch, &more).unwrap();
        for c in spec.communicator_ids() {
            prop_assert!(
                after.communicator(c).get() + 1e-12 >= before.communicator(c).get()
            );
        }
    }

    #[test]
    fn synthesis_output_is_reliable(p in pipeline_strategy(), lrc in 0.5f64..0.95) {
        // Attach the LRC to the last communicator and try to synthesise.
        let n = p.stage_rels.len();
        let mut sb = Specification::builder();
        let c0 = sb
            .communicator(
                CommunicatorDecl::new("c0", ValueType::Float, 10)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let mut comms = vec![c0];
        for i in 1..=n {
            let mut d = CommunicatorDecl::new(format!("c{i}"), ValueType::Float, 10).unwrap();
            if i == n {
                d = d.with_lrc(Reliability::new(lrc).unwrap());
            }
            comms.push(sb.communicator(d).unwrap());
        }
        let mut tasks = Vec::new();
        for i in 0..n {
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
        for (i, &rel) in p.stage_rels.iter().enumerate() {
            hosts.push(
                ab.host(HostDecl::new(format!("h{i}"), Reliability::new(rel).unwrap()))
                    .unwrap(),
            );
        }
        ab.host(HostDecl::new("spare", Reliability::new(0.999).unwrap()))
            .unwrap();
        let sen = ab
            .sensor(SensorDecl::new("sen", Reliability::new(0.99).unwrap()))
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
        let base = ib.build(&spec, &arch).unwrap();
        if let Ok(found) = synthesize(&spec, &arch, &base, &SynthesisOptions::default(), |_| true)
        {
            let verdict = logrel_reliability::check(&spec, &arch, &found).unwrap();
            prop_assert!(verdict.is_reliable());
        }
    }

    #[test]
    fn every_system_refines_itself(p in pipeline_strategy()) {
        let (spec, arch, imp) = build(&p);
        let s = SystemRef::new(&spec, &arch, &imp);
        let kappa = Kappa::identity(&spec);
        prop_assert!(check_refinement(s, s, &kappa).is_ok());
    }

    #[test]
    fn simulation_tracks_analysis(p in pipeline_strategy()) {
        use logrel_sim::{BehaviorMap, ConstantEnvironment, ProbabilisticFaults, SimConfig, Simulation};
        let (spec, arch, imp) = build(&p);
        let report = compute_srgs(&spec, &arch, &imp).unwrap();
        let td = TimeDependentImplementation::from(imp);
        let sim = Simulation::new(&spec, &arch, &td);
        let mut inj = ProbabilisticFaults::from_architecture(&arch);
        let out = sim.run(
            &mut BehaviorMap::new(),
            &mut ConstantEnvironment::new(Value::Float(1.0)),
            &inj,
            &SimConfig { rounds: 6000, seed: 99 },
        );
        let last = CommunicatorId::new(spec.communicator_count() as u32 - 1);
        let bits: Vec<bool> = out.trace.abstraction(last).into_iter().skip(2).collect();
        let mean = bits.iter().filter(|&&b| b).count() as f64 / bits.len() as f64;
        // Linear chains are tree-shaped, so the analysis is exact; 6000
        // samples of a Bernoulli in [0.06, 1] stay within ~0.03 w.h.p.
        prop_assert!(
            (mean - report.communicator(last).get()).abs() < 0.035,
            "mean {} vs analytic {}", mean, report.communicator(last).get()
        );
    }
}
