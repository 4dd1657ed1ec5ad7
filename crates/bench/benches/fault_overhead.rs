//! Cost of the fault layer on the replay hot path.
//!
//! Four configurations over the same trace and policies:
//!
//! * **bare** — no fault layer at all, the exact pre-fault engine path;
//! * **no_faults** — the [`NoFaults`] model attached: every transfer
//!   resolves through the `FaultPlan` seam but always delivers at
//!   nominal cost. Its report is bit-identical to bare; its time over
//!   bare is what the fault seam costs when no fault can happen
//!   (DESIGN.md §12 records the measured ratio);
//! * **outage** — scheduled downtime windows with a 3-attempt retry
//!   budget, the deterministic fault configuration;
//! * **flaky** — seeded per-attempt failures and cost spikes, the
//!   stochastic configuration (two SplitMix64 draws per transfer).
//!
//! CI builds this bench with every other (`cargo bench --no-run`) so
//! the comparison stays compilable; the timing claim is checked by
//! running it locally.

use byc_catalog::sdss::{build, SdssRelease};
use byc_catalog::{Granularity, ObjectCatalog};
use byc_federation::{
    build_policy, DegradationPolicy, FaultModel, FetchAttempt, FetchOutcome, FlakyLinks, Outage,
    OutageWindows, PolicyKind, ReplaySession, RetryPolicy,
};
use byc_types::{ServerId, Tick};
use byc_workload::{generate, WorkloadConfig, WorkloadStats};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::ops::Range;

/// The identity fault model: every attempt delivers at nominal cost.
struct NoFaults;

impl FaultModel for NoFaults {
    fn name(&self) -> &str {
        "none"
    }

    fn outcome(&self, _attempt: &FetchAttempt, _links: Range<u32>) -> FetchOutcome {
        FetchOutcome::Delivered {
            cost_multiplier: 1.0,
        }
    }
}

fn bench_fault_overhead(c: &mut Criterion) {
    let catalog = build(SdssRelease::Edr, 1e-2, 2);
    let trace = generate(&catalog, &WorkloadConfig::smoke(31, 10_000)).unwrap();
    let objects = ObjectCatalog::uniform(&catalog, Granularity::Column);
    let stats = WorkloadStats::compute(&trace, &objects);
    let capacity = objects.total_size().scale(0.15);

    let outage = OutageWindows::new(vec![
        Outage {
            server: ServerId::new(0),
            from: Tick::new(1_000),
            until: Tick::new(2_000),
        },
        Outage {
            server: ServerId::new(1),
            from: Tick::new(5_000),
            until: Tick::new(5_500),
        },
    ]);
    let flaky = FlakyLinks::new(31, 0.01, 0.05, 4.0);
    let faulted: [(&str, &dyn FaultModel); 3] = [
        ("no_faults", &NoFaults),
        ("outage", &outage),
        ("flaky", &flaky),
    ];

    let mut group = c.benchmark_group("fault_overhead");
    group.throughput(Throughput::Elements(trace.len() as u64));
    for kind in [PolicyKind::Gds, PolicyKind::RateProfile] {
        group.bench_with_input(BenchmarkId::new("bare", kind.label()), &kind, |b, &kind| {
            b.iter(|| {
                let mut policy = build_policy(kind, capacity, &stats.demands, 31);
                ReplaySession::new(&trace, &objects)
                    .policy(policy.as_mut())
                    .run()
                    .unwrap()
                    .report
                    .total_cost()
            })
        });
        for (name, model) in faulted {
            group.bench_with_input(BenchmarkId::new(name, kind.label()), &kind, |b, &kind| {
                b.iter(|| {
                    let mut policy = build_policy(kind, capacity, &stats.demands, 31);
                    ReplaySession::new(&trace, &objects)
                        .policy(policy.as_mut())
                        .faults(model)
                        .retry(RetryPolicy::new(3, 16))
                        .degrade(DegradationPolicy::ServeStale)
                        .run()
                        .unwrap()
                        .report
                        .total_cost()
                })
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fault_overhead
}
criterion_main!(benches);
