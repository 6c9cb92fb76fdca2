//! Criterion bench — ablation for Proposition 2: full joint re-analysis
//! versus the local refinement check, per system size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use logrel_bench::layered_system;
use logrel_refine::{check_refinement, validate, Kappa, SystemRef};

fn bench_refinement(c: &mut Criterion) {
    let mut group = c.benchmark_group("refinement");
    for &(layers, width) in &[(2usize, 4usize), (4, 8), (8, 16)] {
        let sys = layered_system(layers, width, 4, 31);
        let kappa = Kappa::identity(&sys.spec);
        let tasks = layers * width;
        group.bench_with_input(BenchmarkId::new("full_analysis", tasks), &sys, |b, sys| {
            b.iter(|| validate(SystemRef::new(&sys.spec, &sys.arch, &sys.imp)).expect("valid"))
        });
        group.bench_with_input(
            BenchmarkId::new("incremental_check", tasks),
            &(&sys, &kappa),
            |b, (sys, kappa)| {
                b.iter(|| {
                    let s = SystemRef::new(&sys.spec, &sys.arch, &sys.imp);
                    check_refinement(s, s, kappa).expect("reflexive")
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_refinement);
criterion_main!(benches);
