//! E9 — the §3 "General implementation" example: tasks `t1`, `t2` write
//! communicators with LRC 0.9; hosts `h1`, `h2` have reliabilities 0.95
//! and 0.85. Either static mapping violates one LRC; alternating the tasks
//! between the hosts round by round is reliable (long-run average 0.9).
//!
//! Run with: `cargo run -p logrel-bench --bin exp_time_dependent`

use logrel_core::prelude::*;
use logrel_reliability::{check, check_time_dependent};
use logrel_sim::{BehaviorMap, ConstantEnvironment, ProbabilisticFaults, SimConfig, Simulation};

fn main() {
    let mut sb = Specification::builder();
    let s = sb
        .communicator(
            CommunicatorDecl::new("s", ValueType::Float, 10)
                .expect("valid")
                .from_sensor(),
        )
        .expect("unique");
    let lrc = Reliability::new(0.9).expect("valid");
    let c1 = sb
        .communicator(
            CommunicatorDecl::new("c1", ValueType::Float, 10)
                .expect("valid")
                .with_lrc(lrc),
        )
        .expect("unique");
    let c2 = sb
        .communicator(
            CommunicatorDecl::new("c2", ValueType::Float, 10)
                .expect("valid")
                .with_lrc(lrc),
        )
        .expect("unique");
    let t1 = sb
        .task(TaskDecl::new("t1").reads(s, 0).writes(c1, 1))
        .expect("valid");
    let t2 = sb
        .task(TaskDecl::new("t2").reads(s, 0).writes(c2, 1))
        .expect("valid");
    let spec = sb.build().expect("well-formed");

    let mut ab = Architecture::builder();
    let h1 = ab
        .host(HostDecl::new("h1", Reliability::new(0.95).expect("valid")))
        .expect("unique");
    let h2 = ab
        .host(HostDecl::new("h2", Reliability::new(0.85).expect("valid")))
        .expect("unique");
    let sen = ab
        .sensor(SensorDecl::new("sen", Reliability::ONE))
        .expect("unique");
    for t in [t1, t2] {
        ab.wcet_all(t, 1).expect("hosts");
        ab.wctt_all(t, 1).expect("hosts");
    }
    let arch = ab.build();

    let phase_a = Implementation::builder()
        .assign(t1, [h1])
        .assign(t2, [h2])
        .bind_sensor(s, sen)
        .build(&spec, &arch)
        .expect("valid");
    let phase_b = phase_a.with_assignment(t1, [h2]).with_assignment(t2, [h1]);

    println!("LRC(c1) = LRC(c2) = 0.9; hrel(h1) = 0.95, hrel(h2) = 0.85\n");
    for (label, imp) in [("t1→h1, t2→h2", &phase_a), ("t1→h2, t2→h1", &phase_b)] {
        let verdict = check(&spec, &arch, imp).expect("analyzable");
        println!("static mapping {label}: {verdict}");
    }

    let td = TimeDependentImplementation::new(vec![phase_a, phase_b]).expect("nonempty");
    let verdict = check_time_dependent(&spec, &arch, &td).expect("analyzable");
    println!(
        "alternating mapping: {verdict} (long-run λ(c1) = {}, λ(c2) = {})",
        verdict.long_run_srg(c1),
        verdict.long_run_srg(c2)
    );
    assert!(verdict.is_reliable());

    // Confirm by simulation.
    let sim = Simulation::new(&spec, &arch, &td);
    let inj = ProbabilisticFaults::from_architecture(&arch);
    let out = sim.run(
        &mut BehaviorMap::new(),
        &mut ConstantEnvironment::new(Value::Float(1.0)),
        &inj,
        &SimConfig {
            rounds: 100_000,
            seed: 21,
        },
    );
    println!("\nsimulated long-run averages over 100000 rounds (seed 21):");
    for (name, c) in [("c1", c1), ("c2", c2)] {
        let bits: Vec<bool> = out.trace.abstraction(c).into_iter().skip(1).collect();
        let mean = bits.iter().filter(|&&b| b).count() as f64 / bits.len() as f64;
        println!("  {name}: {mean:.5}");
        assert!((mean - 0.9).abs() < 0.005, "{name} mean {mean}");
    }
    println!("\n✓ the time-dependent implementation meets both LRCs in the long run");
}
