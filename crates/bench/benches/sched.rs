//! Criterion bench: schedulability analysis scaling in tasks and hosts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use logrel_bench::layered_system;
use logrel_sched::analyze;

fn bench_sched(c: &mut Criterion) {
    let mut group = c.benchmark_group("sched");
    for &(layers, width, hosts) in &[(2usize, 4usize, 2usize), (4, 8, 4), (8, 16, 8), (12, 24, 8)] {
        let sys = layered_system(layers, width, hosts, 23);
        group.bench_with_input(
            BenchmarkId::new("tasks_hosts", format!("{}x{hosts}", layers * width)),
            &sys,
            |b, sys| b.iter(|| analyze(&sys.spec, &sys.arch, &sys.imp).expect("schedulable")),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sched);
criterion_main!(benches);
