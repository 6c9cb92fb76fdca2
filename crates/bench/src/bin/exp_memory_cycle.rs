//! E8 — the §3 "Specification with memory" pathology: a series-model task
//! reading and writing the same communicator collapses to long-run
//! reliability 0 ("once ⊥ is written, the value of c is always ⊥"); an
//! independent-model task in the cycle restores λ_t.
//!
//! Run with: `cargo run -p logrel-bench --bin exp_memory_cycle`

use logrel_core::prelude::*;
use logrel_reliability::compute_srgs;
use logrel_sim::{BehaviorMap, ConstantEnvironment, ProbabilisticFaults, SimConfig, Simulation};

fn build(model: FailureModel) -> (Specification, Architecture, TimeDependentImplementation) {
    let mut sb = Specification::builder();
    let c = sb
        .communicator(CommunicatorDecl::new("c", ValueType::Float, 10).expect("valid"))
        .expect("unique");
    let mut td = TaskDecl::new("t").reads(c, 0).writes(c, 1).model(model);
    if model != FailureModel::Series {
        td = td.default_value(Value::Float(0.0));
    }
    let t = sb.task(td).expect("valid");
    let spec = sb.build().expect("well-formed");
    let mut ab = Architecture::builder();
    let h = ab
        .host(HostDecl::new("h", Reliability::new(0.95).expect("valid")))
        .expect("unique");
    ab.wcet_all(t, 1).expect("hosts");
    ab.wctt_all(t, 1).expect("hosts");
    let arch = ab.build();
    let imp = Implementation::builder()
        .assign(t, [h])
        .build(&spec, &arch)
        .expect("valid mapping");
    (spec, arch, imp.into())
}

fn simulate(
    spec: &Specification,
    arch: &Architecture,
    imp: &TimeDependentImplementation,
) -> Vec<f64> {
    let sim = Simulation::new(spec, arch, imp);
    let mut behaviors = BehaviorMap::new();
    let t = spec.find_task("t").expect("declared");
    behaviors.register(t, |i: &[Value]| {
        vec![Value::Float(i[0].as_float().unwrap_or(0.0) + 1.0)]
    });
    let inj = ProbabilisticFaults::from_architecture(arch);
    let out = sim.run(
        &mut behaviors,
        &mut ConstantEnvironment::new(Value::Float(0.0)),
        &inj,
        &SimConfig {
            rounds: 20_000,
            seed: 13,
        },
    );
    let c = spec.find_communicator("c").expect("declared");
    let bits = out.trace.abstraction(c);
    // Windowed reliability over 10 windows.
    let w = bits.len() / 10;
    (0..10)
        .map(|k| {
            let win = &bits[k * w..(k + 1) * w];
            win.iter().filter(|&&b| b).count() as f64 / w as f64
        })
        .collect()
}

fn main() {
    println!("communicator cycle: task t reads c[0], writes c[1] (host reliability 0.95)\n");

    let (spec, arch, imp) = build(FailureModel::Series);
    match compute_srgs(&spec, &arch, imp.at_iteration(0)) {
        Err(e) => println!("series model — static analysis rejects the cycle:\n  {e}"),
        Ok(_) => unreachable!("the cycle must be rejected"),
    }
    let windows = simulate(&spec, &arch, &imp);
    println!("  simulated per-window reliability (2000 updates each):");
    println!(
        "    {:?}",
        windows
            .iter()
            .map(|x| (x * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    );
    let tail = windows[9];
    assert!(tail == 0.0, "the tail must be all-⊥, got {tail}");
    println!("  → long-run average collapses to 0, as §3 predicts\n");

    let (spec, arch, imp) = build(FailureModel::Independent);
    let report = compute_srgs(&spec, &arch, imp.at_iteration(0)).expect("cycle is cut");
    let c = spec.find_communicator("c").expect("declared");
    println!(
        "independent model — analysis succeeds: λ(c) = {} (= λ_t)",
        report.communicator(c).get()
    );
    let windows = simulate(&spec, &arch, &imp);
    println!("  simulated per-window reliability:");
    println!(
        "    {:?}",
        windows
            .iter()
            .map(|x| (x * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    );
    let mean: f64 = windows.iter().sum::<f64>() / windows.len() as f64;
    assert!((mean - 0.95).abs() < 0.01, "mean {mean}");
    println!("  → long-run average stays at λ_t = 0.95: the default value breaks the ⊥ chain");
}
