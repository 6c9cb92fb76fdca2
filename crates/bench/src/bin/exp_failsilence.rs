//! Extension experiment — testing the fail-silence assumption: the paper
//! assumes hosts are fail-silent (its ref \[2\]: achievable "at a
//! reasonable cost") and therefore votes by taking *any* delivered value.
//! Here we violate the assumption: faulty replicas deliver corrupted
//! values instead of staying silent, with probability `q` per invocation
//! (a `corrupt` scenario event per host, over no transient faults).
//! Any-reliable voting degrades linearly with the corruption rate (one bad
//! replica can poison the communicator); majority voting over 3 replicas
//! recovers all but the multi-corruption rounds.
//!
//! Each sweep cell runs four replications, seeded with
//! `derive_seed(31, rep)`, as one traced lane group
//! (`Simulation::run_traced`), and averages their fractions; each lane is
//! bit-identical to a one-lane run of its seed.
//!
//! Run with: `cargo run -p logrel-bench --bin exp_failsilence`

use logrel_core::prelude::*;
use logrel_obs::NoopSink;
use logrel_sim::{
    derive_seed, BehaviorMap, ConstantEnvironment, LaneContext, NoFaults, Scenario, ScenarioEvent,
    ScenarioFaults, Simulation, VotingStrategy,
};

const ROUNDS: u64 = 5_000;
const REPLICATIONS: u64 = 4;
const GARBAGE: f64 = 9999.0;
const TRUTH: f64 = 42.0;

fn build() -> (Specification, Architecture, TimeDependentImplementation) {
    let mut sb = Specification::builder();
    let s = sb
        .communicator(
            CommunicatorDecl::new("s", ValueType::Float, 10)
                .expect("valid")
                .from_sensor(),
        )
        .expect("unique");
    let u = sb
        .communicator(CommunicatorDecl::new("u", ValueType::Float, 10).expect("valid"))
        .expect("unique");
    let t = sb
        .task(TaskDecl::new("f").reads(s, 0).writes(u, 1))
        .expect("valid");
    let spec = sb.build().expect("well-formed");
    let mut ab = Architecture::builder();
    let hosts: Vec<HostId> = (0..3)
        .map(|i| {
            ab.host(HostDecl::new(
                format!("h{i}"),
                Reliability::new(0.999).expect("valid"),
            ))
            .expect("unique")
        })
        .collect();
    let sen = ab
        .sensor(SensorDecl::new("sen", Reliability::ONE))
        .expect("unique");
    ab.wcet_all(t, 1).expect("hosts");
    ab.wctt_all(t, 1).expect("hosts");
    let arch = ab.build();
    let imp = Implementation::builder()
        .assign(t, hosts)
        .bind_sensor(s, sen)
        .build(&spec, &arch)
        .expect("valid");
    (spec, arch, imp.into())
}

fn correct_fraction(
    spec: &Specification,
    arch: &Architecture,
    imp: &TimeDependentImplementation,
    corruption: f64,
    strategy: VotingStrategy,
) -> f64 {
    let t = spec.find_task("f").expect("declared");
    let u = spec.find_communicator("u").expect("declared");
    let mut sim = Simulation::new(spec, arch, imp);
    sim.set_voting(strategy);
    let mut behaviors = BehaviorMap::new();
    behaviors.register(t, |_: &[Value]| vec![Value::Float(TRUTH)]);
    let corrupt = Scenario::from_events(
        arch.host_ids()
            .map(|host| ScenarioEvent::Corrupt {
                host,
                p: corruption,
                value: GARBAGE,
            })
            .collect(),
    )
    .expect("a probability");
    let faults = ScenarioFaults::new(
        NoFaults,
        &corrupt,
        arch.host_count(),
        spec.communicator_count(),
    )
    .expect("hosts in range");
    let mut lanes: Vec<_> = (0..REPLICATIONS)
        .map(|rep| {
            LaneContext::plain(
                derive_seed(31, rep),
                faults.clone(),
                ConstantEnvironment::new(Value::Float(0.0)),
            )
        })
        .collect();
    let outs = sim.run_traced(&mut behaviors, &mut lanes, None, &mut NoopSink, ROUNDS);
    let fractions: Vec<f64> = outs
        .iter()
        .map(|out| {
            let values: Vec<_> = out.trace.values(u).iter().skip(1).collect();
            values
                .iter()
                .filter(|(_, v)| *v == Value::Float(TRUTH))
                .count() as f64
                / values.len() as f64
        })
        .collect();
    fractions.iter().sum::<f64>() / fractions.len() as f64
}

fn main() {
    let (spec, arch, imp) = build();
    println!(
        "three replicas, per-replica corruption probability q (non-fail-silent hosts),\n\
         {REPLICATIONS} × {ROUNDS} rounds; fraction of CORRECT communicator values:\n"
    );
    println!(
        "{:>8} {:>14} {:>14} {:>18}",
        "q", "any-reliable", "majority", "analytic majority"
    );
    for q in [0.0, 0.01, 0.05, 0.1, 0.2] {
        let any = correct_fraction(&spec, &arch, &imp, q, VotingStrategy::AnyReliable);
        let maj = correct_fraction(&spec, &arch, &imp, q, VotingStrategy::Majority);
        // Majority of 3 is correct unless >= 2 replicas corrupt:
        // 1 - (3 q² (1-q) + q³), derated by the tiny silent-failure rate.
        let analytic = 1.0 - (3.0 * q * q * (1.0 - q) + q * q * q);
        println!("{q:>8} {any:>14.5} {maj:>14.5} {analytic:>18.5}");
        if q > 0.0 {
            assert!(maj > any, "majority must dominate under corruption");
            assert!(
                (maj - analytic).abs() < 0.01,
                "majority tracks the analytic value"
            );
        }
    }
    println!(
        "\n✓ fail-silence is load-bearing: any-reliable voting collapses under value\n\
         corruption, while majority voting over 3 replicas stays near the analytic bound"
    );
}
