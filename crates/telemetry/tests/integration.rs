//! End-to-end telemetry contracts over real replays:
//!
//! * the NDJSON event log, written during a replay and parsed back,
//!   sums to exactly the replay's `D_S`/`D_L`/`D_C` — the log is a
//!   complete witness of the accounting;
//! * the registry built by a `SweepOptions::observe` sweep matches the
//!   sweep's own reports point for point.

use byc_catalog::sdss::{build, SdssRelease};
use byc_catalog::{Granularity, ObjectCatalog};
use byc_federation::{Breakdown, PerServerMultipliers, PolicyKind, ReplaySession, SweepOptions};
use byc_telemetry::{read_events, EventLogWriter, MetricsRegistry, TelemetryObserver};
use byc_types::Bytes;
use byc_workload::{generate, WorkloadConfig, WorkloadStats};
use std::sync::{Arc, Mutex};

/// An in-memory sink the test keeps a handle to after the writer took
/// ownership of its `Box`.
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
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

fn setup(servers: u32) -> (byc_workload::Trace, ObjectCatalog, WorkloadStats) {
    let cat = build(SdssRelease::Edr, 1e-3, servers);
    let trace = generate(&cat, &WorkloadConfig::smoke(43, 800)).unwrap();
    let objects = ObjectCatalog::uniform(&cat, Granularity::Column);
    let stats = WorkloadStats::compute(&trace, &objects);
    (trace, objects, stats)
}

#[test]
fn unsampled_event_log_reproduces_cost_totals() {
    let (trace, objects, stats) = setup(3);
    let net = PerServerMultipliers::new(vec![1.0, 2.0, 4.0]).unwrap();
    let capacity = objects.total_size().scale(0.3);
    let mut policy =
        byc_federation::build_policy(PolicyKind::SpaceEffBY, capacity, &stats.demands, 7);

    let sink = SharedBuf::default();
    let writer = EventLogWriter::new(Box::new(sink.clone()), "SpaceEffBY");
    let mut telemetry = TelemetryObserver::new("SpaceEffBY").with_event_log(writer);
    let mut breakdown = Breakdown::new();
    let replay = ReplaySession::new(&trace, &objects)
        .network(&net)
        .policy(policy.as_mut())
        .observe(&mut telemetry)
        .observe(&mut breakdown)
        .run()
        .expect("policy configured");
    let (metrics, io) = telemetry.into_parts();
    io.unwrap();

    let log = read_events(&sink.text()).unwrap();
    assert_eq!(log.policy, "SpaceEffBY");
    let totals = log.totals();
    let report = &replay.report;

    // The log's sums ARE the replay's accounting, byte for byte.
    assert_eq!(totals.bypass_cost, report.bypass_cost, "D_S");
    assert_eq!(totals.fetch_cost, report.fetch_cost, "D_L");
    assert_eq!(totals.cache_served, report.cache_served, "D_C");
    assert_eq!(totals.delivered, report.sequence_cost, "D_A");
    assert_eq!(totals.wan_cost(), report.total_cost(), "D_S + D_L");
    assert_eq!(totals.hits, report.hits);
    assert_eq!(totals.bypasses, report.bypasses);
    assert_eq!(totals.loads, report.loads);
    assert_eq!(totals.evictions, report.evictions);
    assert_eq!(log.events.len() as u64, metrics.accesses);
    // Field for field, the log sums to the replay's own fold.
    assert_eq!(log.totals(), breakdown.total());

    // A heterogeneous network makes the replay exercise real pricing.
    assert!(report.bypass_cost > report.bypass_served);

    // Occupancy in the log is bounded by capacity and actually moves.
    assert!(log.events.iter().all(|e| e.occupancy <= capacity));
    assert!(log.events.iter().any(|e| e.occupancy > Bytes::ZERO));
}

#[test]
fn sweep_registry_matches_sweep_reports() {
    let (trace, objects, stats) = setup(2);
    let net = PerServerMultipliers::new(vec![1.0, 3.0]).unwrap();
    let kinds = [PolicyKind::Gds, PolicyKind::SpaceEffBY];
    let fractions = [0.2, 0.5];

    // Label per (policy, fraction) so one registry can hold the whole
    // grid without merging distinct sweep points.
    let make = |kind: PolicyKind, fraction: f64| {
        TelemetryObserver::new(&format!("{}@{:.2}", kind.label(), fraction))
    };
    let mut observers = Vec::new();
    let points = ReplaySession::new(&trace, &objects)
        .network(&net)
        .sweep(
            SweepOptions::new(&kinds, &fractions, &stats.demands, 7).observe(&make, &mut observers),
        )
        .expect("valid sweep grid");
    assert_eq!(points.len(), kinds.len() * fractions.len());
    assert_eq!(observers.len(), points.len());

    let mut registry = MetricsRegistry::new();
    for (point, observer) in points.into_iter().zip(observers) {
        let (metrics, io) = observer.into_parts();
        io.unwrap();
        let totals = metrics.totals();
        assert_eq!(
            totals.bypass_cost, point.report.bypass_cost,
            "{}",
            point.policy
        );
        assert_eq!(
            totals.fetch_cost, point.report.fetch_cost,
            "{}",
            point.policy
        );
        assert_eq!(
            totals.cache_served, point.report.cache_served,
            "{}",
            point.policy
        );
        assert_eq!(totals.hits, point.report.hits, "{}", point.policy);
        registry.absorb(metrics);
    }
    assert_eq!(registry.len(), kinds.len() * fractions.len());
    let text = byc_telemetry::prometheus_text(&registry);
    assert!(text.contains("policy=\"GDS@0.20\""));
    assert!(text.contains("policy=\"SpaceEffBY@0.50\""));
}

/// A sink whose every write fails — simulates a full disk under the
/// event log.
struct Broken;

impl std::io::Write for Broken {
    fn write(&mut self, _data: &[u8]) -> std::io::Result<usize> {
        Err(std::io::Error::other("disk full"))
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn broken_event_log_sink_surfaces_as_a_session_warning() {
    let (trace, objects, stats) = setup(1);
    let capacity = objects.total_size().scale(0.3);
    let mut policy = byc_federation::build_policy(PolicyKind::Lru, capacity, &stats.demands, 7);
    let writer = EventLogWriter::new(Box::new(Broken), "LRU");
    let mut telemetry = TelemetryObserver::new("LRU").with_event_log(writer);
    let replay = ReplaySession::new(&trace, &objects)
        .policy(policy.as_mut())
        .observe(&mut telemetry)
        .run()
        .expect("policy configured");

    // The parked io::Error used to be silently droppable: the session
    // now drains it into the replay's warnings at finish time.
    assert!(
        replay.warnings.iter().any(|w| w.contains("disk full")),
        "parked event-log error must surface: {:?}",
        replay.warnings
    );
    // ... exactly once: into_parts no longer re-reports it.
    let (metrics, io) = telemetry.into_parts();
    assert!(metrics.queries > 0, "metrics unaffected by log IO failure");
    assert!(io.is_ok(), "the warning already surfaced the error");
}

/// A small hand-built registry covering every exposition feature: two
/// policies (one with a label needing escaping), multi-server and
/// multi-tier series, occupancy gauges, and histograms.
fn golden_registry() -> MetricsRegistry {
    use byc_telemetry::{ObjectClass, SeriesKey, SeriesMetrics};
    use byc_types::ServerId;

    let mut plain = byc_telemetry::PolicyMetrics::new("GDS");
    plain.queries = 10;
    plain.accesses = 25;
    let mut gauge = byc_telemetry::Gauge::default();
    gauge.set(4096);
    gauge.set(2048);
    plain.occupancy.push(gauge);
    for (server, tier, delivered) in [(0u32, 0u32, 500u64), (1, 1, 2000)] {
        let key = SeriesKey {
            server: ServerId::new(server),
            class: ObjectClass::of(Bytes::new(delivered)),
            tier,
        };
        let mut series = SeriesMetrics::new();
        series.window.hits = 3;
        series.window.bypasses = 2;
        series.window.loads = 1;
        series.window.delivered = Bytes::new(delivered * 6);
        series.window.bypass_served = Bytes::new(delivered * 2);
        series.window.bypass_cost = Bytes::new(delivered * 2);
        series.window.fetch_cost = Bytes::new(delivered);
        series.window.cache_served = Bytes::new(delivered * 4);
        series.delivered.record(delivered);
        series.wan.record(delivered * 3);
        plain.series.insert(key, series);
    }

    let mut escaped = byc_telemetry::PolicyMetrics::new("GD\"S\\v1\n");
    escaped.queries = 1;
    escaped.accesses = 1;

    let mut registry = MetricsRegistry::new();
    registry.absorb(plain);
    registry.absorb(escaped);
    registry
}

#[test]
fn prometheus_exposition_matches_the_golden_file_line_by_line() {
    let text = byc_telemetry::prometheus_text(&golden_registry());
    // Regenerate with: BYC_BLESS=1 cargo test -p byc-telemetry --test integration
    if std::env::var_os("BYC_BLESS").is_some() {
        std::fs::write(
            concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metrics.prom"),
            &text,
        )
        .unwrap();
    }
    let golden = include_str!("golden/metrics.prom");
    let actual: Vec<&str> = text.lines().collect();
    let expected: Vec<&str> = golden.lines().collect();
    for (i, (a, e)) in actual.iter().zip(expected.iter()).enumerate() {
        assert_eq!(
            a,
            e,
            "exposition line {} drifted from the golden file; full exposition:\n{}",
            i + 1,
            text
        );
    }
    assert_eq!(
        actual.len(),
        expected.len(),
        "exposition line count drifted from the golden file; full exposition:\n{text}"
    );
}
