//! Criterion bench: discrete-event simulation throughput (rounds/sec) on
//! the 3TS under fault injection.
//!
//! Three series over the same workload and seed:
//!
//! * `kernel` — the compiled round program ([`Simulation::run`]);
//! * `reference` — the map-driven interpreter
//!   ([`Simulation::run_reference`]), kept as the differential oracle and
//!   the perf baseline of the compile/run split;
//! * `ecode` — the same semantics driven by interpreting the generated
//!   E-code of every host (see `sim::cosim`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use logrel_core::{TimeDependentImplementation, Value};
use logrel_sim::{BehaviorMap, ConstantEnvironment, ProbabilisticFaults, SimConfig, Simulation};
use logrel_threetank::{Scenario, ThreeTankSystem};

fn bench_simulator(c: &mut Criterion) {
    let sys = ThreeTankSystem::with_options(Scenario::Baseline, 0.99, None).expect("valid");
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::new(&sys.spec, &sys.arch, &imp);
    let mut group = c.benchmark_group("simulator");
    for &rounds in &[100u64, 1_000, 10_000] {
        group.throughput(Throughput::Elements(rounds));
        group.bench_with_input(BenchmarkId::new("kernel", rounds), &rounds, |b, &rounds| {
            b.iter(|| {
                let inj = ProbabilisticFaults::from_architecture(&sys.arch);
                sim.run(
                    &mut BehaviorMap::new(),
                    &mut ConstantEnvironment::new(Value::Float(0.2)),
                    &inj,
                    &SimConfig { rounds, seed: 5 },
                )
            })
        });
        group.bench_with_input(
            BenchmarkId::new("reference", rounds),
            &rounds,
            |b, &rounds| {
                b.iter(|| {
                    let mut inj = ProbabilisticFaults::from_architecture(&sys.arch);
                    sim.run_reference(
                        &mut BehaviorMap::new(),
                        &mut ConstantEnvironment::new(Value::Float(0.2)),
                        &mut inj,
                        &SimConfig { rounds, seed: 5 },
                    )
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("ecode", rounds), &rounds, |b, &rounds| {
            b.iter(|| {
                let mut inj = ProbabilisticFaults::from_architecture(&sys.arch);
                logrel_sim::cosim::run_cosim(
                    &sys.spec,
                    &sys.imp,
                    &mut BehaviorMap::new(),
                    &mut ConstantEnvironment::new(Value::Float(0.2)),
                    &mut inj,
                    sys.arch.host_ids(),
                    logrel_sim::cosim::CosimParams {
                        rounds,
                        seed: 5,
                        voting: logrel_sim::VotingStrategy::AnyReliable,
                    },
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
