//! Per-policy decision-path cost: lazy incremental planning (the
//! shipping configuration) versus the scan-based reference planner.
//!
//! Both sides replay the same DR1-style trace through an unaudited
//! [`ReplaySession`] with no observers, so the kernel cost is identical
//! and the difference isolates the policy hot path: lazy-deletion
//! utility heaps plus reusable eviction scratch against the eager
//! full-container rescans they replaced (DESIGN.md §18). The reference
//! planner is bit-identical in its decisions (pinned by the
//! `policy_hot_path_equivalence` proptest suite) — only the work per
//! access differs.
//!
//! `BYC_PERF_SMOKE=1` trims the trace and the measurement windows for
//! the CI perf-smoke job, which replays a short workload and gates on a
//! generous wall-clock floor rather than a tight regression bound.

use byc_catalog::sdss::{build, SdssRelease};
use byc_catalog::{Granularity, ObjectCatalog};
use byc_federation::{build_policy, PolicyKind, ReplaySession};
use byc_workload::{generate, WorkloadConfig, WorkloadStats};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

/// The full experiment roster, bypass-yield algorithms first.
const ALL_POLICIES: [PolicyKind; 13] = [
    PolicyKind::RateProfile,
    PolicyKind::OnlineBY,
    PolicyKind::OnlineBYMarking,
    PolicyKind::SpaceEffBY,
    PolicyKind::Gds,
    PolicyKind::Gdsp,
    PolicyKind::Lru,
    PolicyKind::Lfu,
    PolicyKind::LruK,
    PolicyKind::Lff,
    PolicyKind::GdStar,
    PolicyKind::Static,
    PolicyKind::NoCache,
];

fn bench_policy_hot_path(c: &mut Criterion) {
    let smoke = std::env::var_os("BYC_PERF_SMOKE").is_some();
    let queries = if smoke { 2_000 } else { 10_000 };

    let catalog = build(SdssRelease::Dr1, 1e-2, 1);
    let trace = generate(&catalog, &WorkloadConfig::smoke(29, queries)).unwrap();
    let objects = ObjectCatalog::uniform(&catalog, Granularity::Column);
    let stats = WorkloadStats::compute(&trace, &objects);
    let capacity = objects.total_size().scale(0.15);
    let replay = |policy: &mut dyn byc_core::policy::CachePolicy| {
        ReplaySession::new(&trace, &objects)
            .policy(policy)
            .unaudited()
            .run()
            .map(|r| r.report.total_cost())
    };

    let mut group = c.benchmark_group("policy_hot_path");
    group.throughput(Throughput::Elements(trace.len() as u64));
    if smoke {
        group.sample_size(3);
    }
    for kind in ALL_POLICIES {
        group.bench_with_input(BenchmarkId::new("lazy", kind.label()), &kind, |b, &kind| {
            b.iter(|| {
                let mut policy = build_policy(kind, capacity, &stats.demands, 29);
                replay(policy.as_mut())
            })
        });
        group.bench_with_input(
            BenchmarkId::new("reference", kind.label()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let mut policy = build_policy(kind, capacity, &stats.demands, 29);
                    policy.debug_reference_planning(true);
                    replay(policy.as_mut())
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_policy_hot_path
}
criterion_main!(benches);
