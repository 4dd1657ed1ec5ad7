//! The telemetry observer against its oracle.
//!
//! The oracle (the first observer, in `oracle/`) looks every event's
//! series and reuse gap up in ordered maps and reads the deciding
//! policy's occupancy on every event. The shipped observer folds each
//! event into dense slots instead. Both ride the same replay, so they
//! see one event stream: for every shipped policy, flat and on three
//! tiers, fault-free and under flaky links with retries, with and
//! without an event log, the two must give equal `PolicyMetrics`,
//! byte-equal JSON and Prometheus exports and byte-equal event logs, and
//! every record of the log must parse and render back to its own bytes.
//! A mediator that invalidates tables between queries checks the
//! occupancy gauge where a decision is not the only thing that moves it.

mod oracle;

use byc_catalog::sdss::{self, SdssRelease};
use byc_catalog::{Granularity, ObjectCatalog};
use byc_federation::{
    build_policy, DegradationPolicy, FlakyLinks, Mediator, Observer, PerServerMultipliers,
    PolicyKind, ReplaySession, RetryPolicy, Topology,
};
use byc_telemetry::{
    json_snapshot, prometheus_text, read_events, EventLogWriter, MetricsRegistry, PolicyMetrics,
    TelemetryObserver,
};
use byc_workload::{generate, WorkloadConfig, WorkloadStats};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

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

/// An in-memory log sink the test reads after the writer took it.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(data);
        Ok(data.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedBuf {
    fn bytes(&self) -> Vec<u8> {
        self.0.lock().unwrap().clone()
    }
}

/// The log in `sink` parsed and written again: every kernel event's
/// record must survive `parse(render(r))` exactly.
fn reread(sink: &SharedBuf, policy: &str) -> Vec<u8> {
    let text = String::from_utf8(sink.bytes()).unwrap();
    let log = read_events(&text).unwrap_or_else(|e| panic!("{policy}: {e}"));
    let echo = SharedBuf::default();
    let mut writer = EventLogWriter::new(Box::new(echo.clone()), policy);
    for record in &log.events {
        writer.record(record);
    }
    writer.finish().unwrap();
    echo.bytes()
}

/// The JSON and Prometheus exports of a registry holding `metrics`.
fn exports(metrics: &PolicyMetrics) -> (String, String) {
    let mut registry = MetricsRegistry::new();
    registry.absorb(metrics.clone());
    (
        json_snapshot(&registry).to_string(),
        prometheus_text(&registry),
    )
}

/// Both observers' metrics must agree field for field and export to the
/// same bytes.
fn assert_same(shipped: &PolicyMetrics, reference: &PolicyMetrics, what: &str) {
    assert_eq!(shipped, reference, "{what}: metrics");
    let (json, prom) = exports(shipped);
    let (ref_json, ref_prom) = exports(reference);
    assert_eq!(json, ref_json, "{what}: JSON export");
    assert_eq!(prom, ref_prom, "{what}: Prometheus export");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn observer_matches_oracle(
        seed in any::<u64>(),
        servers in 1u32..4,
        multipliers in proptest::collection::vec(0.25f64..8.0, 1..4),
        cache_fraction in 0.05f64..0.6,
        failure_p in 0.02f64..0.3,
        attempts in 1u32..4,
        stale in any::<bool>(),
    ) {
        let catalog = sdss::build(SdssRelease::Edr, 1e-4, servers);
        let trace = generate(&catalog, &WorkloadConfig::smoke(seed, 150)).unwrap();
        let objects = ObjectCatalog::uniform(&catalog, Granularity::Column);
        let stats = WorkloadStats::compute(&trace, &objects);
        let capacity = objects.total_size().scale(cache_fraction);
        let network = PerServerMultipliers::new(multipliers).unwrap();
        let three_tier = Topology::three_tier(0.25, 0.5, Box::new(network.clone())).unwrap();
        let flaky = FlakyLinks::new(seed, failure_p, 0.1, 4.0);
        let degradation = match stale {
            true => DegradationPolicy::ServeStale,
            false => DegradationPolicy::Fail,
        };

        // Every combination of topology, faults and event log.
        for kind in ALL_POLICIES {
            for setup in 0..8 {
                let (tiered, faulted, logged) = (setup & 1 != 0, setup & 2 != 0, setup & 4 != 0);
                let what = format!("{kind:?} tiered={tiered} faulted={faulted} logged={logged}");
                let scales: Vec<f64> = match tiered {
                    true => three_tier.tiers().iter().map(|t| t.capacity_scale).collect(),
                    false => vec![1.0],
                };
                let mut policies: Vec<_> = scales
                    .iter()
                    .map(|s| build_policy(kind, capacity.scale(*s), &stats.demands, seed))
                    .collect();
                let (sink, ref_sink) = (SharedBuf::default(), SharedBuf::default());
                let mut shipped = TelemetryObserver::new(kind.label());
                let mut reference = oracle::TelemetryObserver::new(kind.label());
                if logged {
                    let log =
                        |s: &SharedBuf| EventLogWriter::new(Box::new(s.clone()), kind.label());
                    shipped = shipped.with_event_log(log(&sink));
                    reference = reference.with_event_log(log(&ref_sink));
                }
                let mut session = ReplaySession::new(&trace, &objects);
                session = match tiered {
                    true => session.topology(&three_tier),
                    false => session.network(&network),
                };
                for p in policies.iter_mut() {
                    session = session.tier_policy(p.as_mut());
                }
                if faulted {
                    session = session
                        .faults(&flaky)
                        .retry(RetryPolicy::new(attempts, 2))
                        .degrade(degradation);
                }
                let replay = session
                    .observe(&mut shipped)
                    .observe(&mut reference)
                    .run()
                    .unwrap();
                prop_assert!(replay.warnings.is_empty(), "{}: {:?}", what, replay.warnings);

                let (metrics, io) = shipped.into_parts();
                let (ref_metrics, ref_io) = reference.into_parts();
                prop_assert!(io.is_ok() && ref_io.is_ok(), "{}", what);
                prop_assert_eq!(metrics.queries, replay.report.queries as u64, "{}", what);
                assert_same(&metrics, &ref_metrics, &what);
                prop_assert!(sink.bytes() == ref_sink.bytes(), "{}: event log", what);
                if logged {
                    prop_assert!(reread(&sink, kind.label()) == sink.bytes(), "{}: reread", what);
                }
                prop_assert_eq!(logged, !sink.bytes().is_empty(), "{}", what);
            }
        }
    }
}

/// An invalidation between queries shrinks a cache without a load. The
/// occupancy gauge must follow it on the next event, as the oracle's
/// per-event read does. The mediator invalidates a table every seventh
/// query, then every table before its last query, which the bypass-yield
/// policies serve without a load: the gauge's last value is read after
/// the invalidation or not at all.
#[test]
fn occupancy_follows_invalidation_between_queries() {
    let catalog = sdss::build(SdssRelease::Edr, 1e-4, 2);
    let trace = generate(&catalog, &WorkloadConfig::smoke(5, 300)).unwrap();
    let objects = ObjectCatalog::uniform(&catalog, Granularity::Column);
    let stats = WorkloadStats::compute(&trace, &objects);
    let capacity = objects.total_size().scale(0.5);
    let tables: Vec<String> = catalog.tables().iter().map(|t| t.name.clone()).collect();
    let (last, queries) = trace.queries.split_last().unwrap();
    let mut unloaded = 0;
    for kind in [
        PolicyKind::Lru,
        PolicyKind::Gds,
        PolicyKind::RateProfile,
        PolicyKind::OnlineBY,
    ] {
        let policy = build_policy(kind, capacity, &stats.demands, 5);
        let mut mediator = Mediator::new(catalog.clone(), Granularity::Column, policy);
        let mut shipped = TelemetryObserver::new(kind.label());
        let mut reference = oracle::TelemetryObserver::new(kind.label());
        let mut dropped = 0;
        for (i, q) in queries.iter().enumerate() {
            let mut extra: [&mut dyn Observer; 2] = [&mut shipped, &mut reference];
            mediator.serve_trace_query(q, &mut extra);
            if i % 7 == 6 {
                let table = &tables[i % tables.len()];
                dropped += mediator.invalidate_table(table).unwrap();
            }
        }
        for table in &tables {
            dropped += mediator.invalidate_table(table).unwrap();
        }
        let mut extra: [&mut dyn Observer; 2] = [&mut shipped, &mut reference];
        let served = mediator.serve_trace_query(last, &mut extra);
        assert!(dropped > 0, "{kind:?}: no invalidation dropped anything");
        if served.load_traffic.is_zero() {
            unloaded += 1;
        }
        let (metrics, _) = shipped.into_parts();
        let (ref_metrics, _) = reference.into_parts();
        assert_same(&metrics, &ref_metrics, &format!("{kind:?} mediator"));
    }
    assert!(unloaded > 0, "every policy loaded on the last query");
}

/// One observer riding two replays over different catalogs — table and
/// column objects, one and three home servers — where an object id
/// names another object, with another server and size, in the second.
#[test]
fn reused_observer_matches_oracle_across_catalogs() {
    let mut shipped = TelemetryObserver::new("GDS");
    let mut reference = oracle::TelemetryObserver::new("GDS");
    for (servers, granularity) in [(1, Granularity::Table), (3, Granularity::Column)] {
        let catalog = sdss::build(SdssRelease::Edr, 1e-4, servers);
        let trace = generate(&catalog, &WorkloadConfig::smoke(9, 200)).unwrap();
        let objects = ObjectCatalog::uniform(&catalog, granularity);
        let stats = WorkloadStats::compute(&trace, &objects);
        let capacity = objects.total_size().scale(0.2);
        let mut policy = build_policy(PolicyKind::Gds, capacity, &stats.demands, 9);
        ReplaySession::new(&trace, &objects)
            .policy(policy.as_mut())
            .observe(&mut shipped)
            .observe(&mut reference)
            .run()
            .unwrap();
    }
    let (metrics, _) = shipped.into_parts();
    let (ref_metrics, _) = reference.into_parts();
    assert!(metrics.series.keys().any(|k| k.server.raw() == 2));
    assert_same(&metrics, &ref_metrics, "reused observer");
}
