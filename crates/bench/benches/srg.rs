//! Criterion bench: SRG computation scaling in the number of tasks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use logrel_bench::layered_system;
use logrel_reliability::compute_srgs;

fn bench_srg(c: &mut Criterion) {
    let mut group = c.benchmark_group("srg");
    for &(layers, width) in &[(2usize, 4usize), (4, 8), (8, 16), (16, 32)] {
        let sys = layered_system(layers, width, 4, 11);
        group.bench_with_input(
            BenchmarkId::from_parameter(layers * width),
            &sys,
            |b, sys| b.iter(|| compute_srgs(&sys.spec, &sys.arch, &sys.imp).expect("analyzable")),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_srg);
criterion_main!(benches);
