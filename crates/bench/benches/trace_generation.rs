//! Trace synthesis throughput: queries generated per second, including
//! SQL rendering, re-analysis, and yield decomposition.

use byc_catalog::sdss::{build, SdssRelease};
use byc_workload::{generate, WorkloadConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_generation(c: &mut Criterion) {
    let catalog = build(SdssRelease::Edr, 1e-3, 1);
    let mut group = c.benchmark_group("trace_generation");
    for &n in &[1_000usize, 10_000] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                generate(&catalog, &WorkloadConfig::smoke(9, n))
                    .unwrap()
                    .len()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_generation
}
criterion_main!(benches);
