//! Cost of attaching a `TelemetryObserver` to the replay engine.
//!
//! Two configurations over the same trace and policy roster:
//!
//! * **bare** — the engine with only the accounting `CostObserver`, the
//!   baseline every plain `byc run` pays. It is also the disabled path
//!   of every observer below: telemetry is off by not attaching it;
//! * **enabled** — full registry accounting plus an NDJSON event log
//!   written into an in-memory sink, the price of `byc run
//!   --trace-events --metrics`.
//!
//! Three more configurations price the streaming observers one at a
//! time — **spans** (`--trace-spans`, chunked phase tree, no per-access
//! dispatch), **windows** (`--metrics-every`, a windowed `Breakdown`
//! streaming into an in-memory sink), and **recorder**
//! (`--flight-recorder`, bounded per-tier event rings).
//!
//! CI builds this bench (`cargo bench --bench telemetry_overhead
//! --no-run`) so the comparison stays compilable; the timing claim is
//! checked by running it locally.

use byc_catalog::sdss::{build, SdssRelease};
use byc_catalog::{Granularity, ObjectCatalog};
use byc_federation::{build_policy, PolicyKind, ReplaySession};
use byc_telemetry::{
    EventLogWriter, FlightRecorder, SpanObserver, TelemetryObserver, WindowedRegistry,
};
use byc_workload::{generate, WorkloadConfig, WorkloadStats};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

/// Discard-everything sink so the enabled configuration measures event
/// rendering and buffering, not disk throughput.
struct NullSink;

impl std::io::Write for NullSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    let catalog = build(SdssRelease::Edr, 1e-2, 1);
    let trace = generate(&catalog, &WorkloadConfig::smoke(29, 10_000)).unwrap();
    let objects = ObjectCatalog::uniform(&catalog, Granularity::Column);
    let stats = WorkloadStats::compute(&trace, &objects);
    let capacity = objects.total_size().scale(0.15);

    let mut group = c.benchmark_group("telemetry_overhead");
    group.throughput(Throughput::Elements(trace.len() as u64));
    for kind in [PolicyKind::Gds, PolicyKind::SpaceEffBY] {
        group.bench_with_input(BenchmarkId::new("bare", kind.label()), &kind, |b, &kind| {
            b.iter(|| {
                let mut policy = build_policy(kind, capacity, &stats.demands, 29);
                ReplaySession::new(&trace, &objects)
                    .policy(policy.as_mut())
                    .run()
                    .unwrap()
                    .report
                    .total_cost()
            })
        });
        group.bench_with_input(
            BenchmarkId::new("enabled", kind.label()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let mut policy = build_policy(kind, capacity, &stats.demands, 29);
                    let mut telemetry = TelemetryObserver::new(kind.label())
                        .with_event_log(EventLogWriter::new(Box::new(NullSink), kind.label()));
                    let cost = ReplaySession::new(&trace, &objects)
                        .policy(policy.as_mut())
                        .observe(&mut telemetry)
                        .run()
                        .unwrap()
                        .report
                        .total_cost();
                    let (snapshot, io) = telemetry.into_parts();
                    assert!(io.is_ok());
                    (cost, snapshot.accesses)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("spans", kind.label()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let mut policy = build_policy(kind, capacity, &stats.demands, 29);
                    let mut spans = SpanObserver::new(kind.label());
                    let cost = ReplaySession::new(&trace, &objects)
                        .policy(policy.as_mut())
                        .observe(&mut spans)
                        .run()
                        .unwrap()
                        .report
                        .total_cost();
                    (cost, spans.into_tracer().spans().len())
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("windows", kind.label()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let mut policy = build_policy(kind, capacity, &stats.demands, 29);
                    let mut windows =
                        WindowedRegistry::new(kind.label(), 256).with_sink(Box::new(NullSink));
                    let cost = ReplaySession::new(&trace, &objects)
                        .policy(policy.as_mut())
                        .observe(&mut windows)
                        .run()
                        .unwrap()
                        .report
                        .total_cost();
                    (cost, windows.breakdown().windows().len())
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("recorder", kind.label()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let mut policy = build_policy(kind, capacity, &stats.demands, 29);
                    let mut recorder = FlightRecorder::new(8);
                    let cost = ReplaySession::new(&trace, &objects)
                        .policy(policy.as_mut())
                        .observe(&mut recorder)
                        .run()
                        .unwrap()
                        .report
                        .total_cost();
                    (cost, recorder.postmortems().len())
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_telemetry_overhead
}
criterion_main!(benches);
