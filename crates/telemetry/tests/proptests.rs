//! Property-based tests pinning telemetry to the engine's accounting.
//!
//! The registry is an *independent re-derivation* of the replay's costs:
//! [`TelemetryObserver`] absorbs the same event stream as the session's
//! `CostObserver`, bucketed by `(server, object-class, tier)` instead of
//! globally. For every shipped policy, under arbitrary per-server
//! pricing, on the flat network and on a faulted topology, the
//! registry's totals must therefore equal the engine's `CostReport`
//! field for field — and attaching telemetry must not change the report
//! by a single byte.

use byc_catalog::sdss::{self, SdssRelease};
use byc_catalog::{Granularity, ObjectCatalog};
use byc_federation::{
    build_policy, DegradationPolicy, FlakyLinks, PerServerMultipliers, PolicyKind, ReplaySession,
    RetryPolicy, Topology,
};
use byc_telemetry::{Buckets, Histogram, MetricsRegistry, TelemetryObserver};
use byc_workload::{generate, WorkloadConfig, WorkloadStats};
use proptest::prelude::*;

/// Every policy the roster can build, not just the headline lineup.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For arbitrary pricing and every shipped policy — on the flat
    /// network fault-free, and on three tiers under flaky links with
    /// retries, degrading by either policy — the registry's per-policy
    /// totals equal the engine's `CostReport`, the replayed report is
    /// identical with and without telemetry attached, and the registry's
    /// structural counters are internally consistent.
    #[test]
    fn registry_totals_equal_cost_report(
        seed in any::<u64>(),
        servers in 1u32..5,
        multipliers in proptest::collection::vec(0.25f64..8.0, 1..5),
        cache_fraction in 0.05f64..0.6,
        failure_p in 0.02f64..0.3,
        attempts in 1u32..4,
    ) {
        let catalog = sdss::build(SdssRelease::Edr, 1e-4, servers);
        let trace = generate(&catalog, &WorkloadConfig::smoke(seed, 150)).unwrap();
        let objects = ObjectCatalog::uniform(&catalog, Granularity::Column);
        let stats = WorkloadStats::compute(&trace, &objects);
        let network = PerServerMultipliers::new(multipliers).unwrap();
        let three_tier = Topology::three_tier(0.25, 0.5, Box::new(network.clone())).unwrap();
        let flaky = FlakyLinks::new(seed, failure_p, 0.1, 4.0);
        let capacity = objects.total_size().scale(cache_fraction);
        // `None`: the flat network, fault-free. `Some`: three tiers under
        // flaky links, degrading failed slices by that policy.
        let setups = [None, Some(DegradationPolicy::ServeStale), Some(DegradationPolicy::Fail)];
        for degradation in setups {
            let mut registry = MetricsRegistry::new();
            for kind in ALL_POLICIES {
                let replay = |telemetry: Option<&mut TelemetryObserver>| {
                    let scales: Vec<f64> = match degradation {
                        None => vec![1.0],
                        Some(_) => three_tier.tiers().iter().map(|t| t.capacity_scale).collect(),
                    };
                    let mut policies: Vec<_> = scales
                        .iter()
                        .map(|s| build_policy(kind, capacity.scale(*s), &stats.demands, seed))
                        .collect();
                    let mut session = ReplaySession::new(&trace, &objects);
                    session = match degradation {
                        None => session.network(&network),
                        Some(d) => session
                            .topology(&three_tier)
                            .faults(&flaky)
                            .retry(RetryPolicy::new(attempts, 2))
                            .degrade(d),
                    };
                    for p in policies.iter_mut() {
                        session = session.tier_policy(p.as_mut());
                    }
                    if let Some(t) = telemetry {
                        session = session.observe(t);
                    }
                    session.run().unwrap().report
                };
                // Reference replay: no telemetry anywhere near it.
                let bare_report = replay(None);
                // Instrumented replay of the identical configuration.
                let mut telemetry = TelemetryObserver::new(kind.label());
                let report = replay(Some(&mut telemetry));
                let what = format!("{kind:?} {degradation:?}");
                prop_assert_eq!(
                    &report, &bare_report,
                    "{}: telemetry changed the replay's report", what
                );

                let (metrics, io) = telemetry.into_parts();
                prop_assert!(io.is_ok(), "{what}: no event log, no IO error");
                prop_assert_eq!(metrics.queries, report.queries as u64, "{} queries", what);

                let totals = metrics.totals();
                prop_assert_eq!(totals.delivered, report.sequence_cost, "{} delivered", what);
                prop_assert_eq!(totals.bypass_served, report.bypass_served, "{} served", what);
                prop_assert_eq!(totals.bypass_cost, report.bypass_cost, "{} D_S", what);
                prop_assert_eq!(totals.fetch_cost, report.fetch_cost, "{} D_L", what);
                prop_assert_eq!(totals.relay_cost, report.relay_cost, "{} relay", what);
                prop_assert_eq!(totals.cache_served, report.cache_served, "{} D_C", what);
                prop_assert_eq!(totals.retried_bytes, report.retried_bytes, "{} retried", what);
                prop_assert_eq!(totals.failed_bytes, report.failed_bytes, "{} failed bytes", what);
                prop_assert_eq!(totals.hits, report.hits, "{} hits", what);
                prop_assert_eq!(totals.bypasses, report.bypasses, "{} bypasses", what);
                prop_assert_eq!(totals.loads, report.loads, "{} loads", what);
                prop_assert_eq!(totals.evictions, report.evictions, "{} evictions", what);
                prop_assert_eq!(totals.retries, report.retries, "{} retries", what);

                // Structural consistency: per-series decisions sum to the
                // access count, every series conserves delivery, servers
                // are real, and phase totals re-count the same stream.
                prop_assert_eq!(totals.decisions(), metrics.accesses, "{} accesses", what);
                for (key, series) in &metrics.series {
                    prop_assert!(key.server.raw() < servers, "{what} unknown server");
                    prop_assert!(
                        series.window.conserves_delivery(),
                        "{what} series {key:?} conservation"
                    );
                    prop_assert_eq!(
                        series.delivered.count(),
                        series.window.decisions(),
                        "{} {:?} delivered histogram count", what, key
                    );
                }
                let phases = metrics.episodes.totals();
                prop_assert_eq!(phases.queries, metrics.queries, "{} phase queries", what);
                prop_assert_eq!(phases.decisions, metrics.accesses, "{} phase decisions", what);
                if degradation.is_none() {
                    prop_assert_eq!(phases.slices, metrics.accesses, "{} phase slices", what);
                }
                prop_assert_eq!(phases.evictions, totals.evictions, "{} phase evictions", what);

                registry.absorb(metrics);
            }
            // One registry held all 13 policies side by side without mixing.
            prop_assert_eq!(registry.len(), ALL_POLICIES.len());
        }
    }
}

/// The bucket of `value` by a linear scan of `bounds`: the first bound
/// at or above it, else the overflow bucket.
fn scanned_bucket(bounds: &[u64], value: u64) -> usize {
    bounds
        .iter()
        .position(|&b| value <= b)
        .unwrap_or(bounds.len())
}

proptest! {
    /// `Histogram::record` finds a value's bucket from its bit length;
    /// on every table it lands where a linear scan of the bounds does:
    /// at 0, 1 and `u64::MAX`, at every bound and one either side, near
    /// every power of two, and anywhere else.
    #[test]
    fn bucket_index_matches_linear_scan(
        anywhere in proptest::collection::vec(any::<u64>(), 0..32),
        near_powers in proptest::collection::vec((0u32..64, 0i64..7), 0..32),
    ) {
        for buckets in [Buckets::BYTES, Buckets::GAPS, Buckets::COUNTS] {
            let bounds = buckets.bounds();
            let mut probes = vec![0, 1, u64::MAX];
            for &b in bounds {
                probes.extend([b - 1, b, b + 1]);
            }
            probes.extend(&anywhere);
            probes.extend(
                near_powers
                    .iter()
                    .map(|&(k, d)| (1u64 << k).saturating_add_signed(d - 3)),
            );
            for value in probes {
                let mut h = Histogram::new(buckets);
                h.record(value);
                let bucket = h.bucket_counts().iter().position(|&c| c == 1);
                prop_assert_eq!(
                    bucket,
                    Some(scanned_bucket(bounds, value)),
                    "{:?} value {}", bounds, value
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Reuse is a property of the trace, not of the policy or the
    /// topology: every shipped policy, flat and on three tiers, records
    /// the same reuse gaps and slices per query (one per slice, however
    /// many tiers its decision walk consulted), while `accesses` and the
    /// episodes' `decisions` count every tier's decision.
    #[test]
    fn reuse_gaps_and_slices_are_the_traces(
        seed in any::<u64>(),
        cache_fraction in 0.05f64..0.6,
    ) {
        use byc_federation::Uniform;

        let catalog = sdss::build(SdssRelease::Edr, 1e-4, 2);
        let trace = generate(&catalog, &WorkloadConfig::smoke(seed, 150)).unwrap();
        let objects = ObjectCatalog::uniform(&catalog, Granularity::Column);
        let stats = WorkloadStats::compute(&trace, &objects);
        let capacity = objects.total_size().scale(cache_fraction);
        let topo = Topology::three_tier(0.25, 0.5, Box::new(Uniform)).unwrap();

        let mut reference = None;
        for kind in ALL_POLICIES {
            let mut flat_policy = build_policy(kind, capacity, &stats.demands, seed);
            let mut flat = TelemetryObserver::new(kind.label());
            ReplaySession::new(&trace, &objects)
                .policy(flat_policy.as_mut())
                .observe(&mut flat)
                .run()
                .unwrap();
            let mut tiers: Vec<_> = topo
                .tiers()
                .iter()
                .map(|t| build_policy(kind, capacity.scale(t.capacity_scale), &stats.demands, seed))
                .collect();
            let mut tiered = TelemetryObserver::new(kind.label());
            let mut session = ReplaySession::new(&trace, &objects).topology(&topo);
            for p in tiers.iter_mut() {
                session = session.tier_policy(p.as_mut());
            }
            let replay = session.observe(&mut tiered).run().unwrap();

            let (flat, _) = flat.into_parts();
            let (tiered, _) = tiered.into_parts();
            let fingerprint = (flat.reuse_gap.clone(), flat.slices_per_query.clone());
            let expected = reference.get_or_insert_with(|| fingerprint.clone());
            prop_assert_eq!(&fingerprint, &*expected, "{:?} flat", kind);
            prop_assert_eq!(&tiered.reuse_gap, &expected.0, "{:?} three-tier reuse gaps", kind);
            prop_assert_eq!(
                &tiered.slices_per_query, &expected.1, "{:?} three-tier slices", kind
            );

            let phases = tiered.episodes.totals();
            prop_assert_eq!(phases.slices, tiered.slices_per_query.sum(), "{:?}", kind);
            prop_assert_eq!(phases.decisions, tiered.accesses, "{:?}", kind);
            let report = &replay.report;
            prop_assert_eq!(
                tiered.accesses, report.hits + report.bypasses + report.loads, "{:?}", kind
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The streaming observability layer is bit-deterministic: for every
    /// shipped policy, two same-seed replays (flat and two-tier) produce
    /// identical span trees, identical Chrome-trace JSON, and identical
    /// window snapshots — and the windows partition the replay, summing
    /// exactly to its final `CostReport`.
    #[test]
    fn spans_and_windows_are_deterministic_and_reconcile(
        seed in any::<u64>(),
        cache_fraction in 0.05f64..0.6,
        every in 16usize..128,
    ) {
        use byc_federation::{ReplaySession, Topology, Uniform};
        use byc_telemetry::{chrome_trace, SpanObserver, WindowedRegistry};

        let catalog = sdss::build(SdssRelease::Edr, 1e-4, 3);
        let trace = generate(&catalog, &WorkloadConfig::smoke(seed, 150)).unwrap();
        let objects = ObjectCatalog::uniform(&catalog, Granularity::Column);
        let stats = WorkloadStats::compute(&trace, &objects);
        let capacity = objects.total_size().scale(cache_fraction);

        for kind in ALL_POLICIES {
            // Flat replay, run twice with identical configuration.
            let run_flat = || {
                let mut policy = build_policy(kind, capacity, &stats.demands, seed);
                let mut spans = SpanObserver::new(kind.label()).with_chunk(32);
                let mut windows = WindowedRegistry::new(kind.label(), every);
                let replay = ReplaySession::new(&trace, &objects)
                    .policy(policy.as_mut())
                    .observe(&mut spans)
                    .observe(&mut windows)
                    .run()
                    .unwrap();
                (spans.into_tracer(), windows, replay)
            };
            let (t1, w1, r1) = run_flat();
            let (t2, w2, _) = run_flat();
            prop_assert_eq!(t1.spans(), t2.spans(), "{:?} flat span tree", kind);
            prop_assert_eq!(
                chrome_trace([(&t1, "replay")]).to_string(),
                chrome_trace([(&t2, "replay")]).to_string(),
                "{:?} flat chrome trace", kind
            );
            prop_assert_eq!(
                w1.breakdown().windows(), w2.breakdown().windows(), "{:?} flat windows", kind
            );

            // Windows tile the replay and sum to the report exactly.
            let report = &r1.report;
            let totals = w1.breakdown().total();
            prop_assert_eq!(totals.hits, report.hits, "{:?} hits", kind);
            prop_assert_eq!(totals.bypasses, report.bypasses, "{:?} bypasses", kind);
            prop_assert_eq!(totals.loads, report.loads, "{:?} loads", kind);
            prop_assert_eq!(totals.evictions, report.evictions, "{:?} evictions", kind);
            prop_assert_eq!(totals.delivered, report.sequence_cost, "{:?} delivered", kind);
            prop_assert_eq!(totals.bypass_cost, report.bypass_cost, "{:?} D_S", kind);
            prop_assert_eq!(totals.fetch_cost, report.fetch_cost, "{:?} D_L", kind);
            prop_assert_eq!(totals.cache_served, report.cache_served, "{:?} D_C", kind);
            prop_assert_eq!(totals.wan_cost(), report.total_cost(), "{:?} WAN", kind);
            let mut expected_start = 0usize;
            for s in w1.breakdown().windows() {
                prop_assert_eq!(s.queries.start, expected_start, "{:?} window tiling", kind);
                expected_start = s.queries.end;
            }
            prop_assert_eq!(expected_start, report.queries, "{:?} window coverage", kind);

            // Two-tier replay: same double-run determinism contract.
            let topo = Topology::two_tier(0.25, Box::new(Uniform)).unwrap();
            let run_tiered = || {
                let mut site = build_policy(kind, capacity, &stats.demands, seed);
                let mut origin_side =
                    build_policy(kind, capacity.scale(2.0), &stats.demands, seed);
                let mut spans = SpanObserver::new(kind.label())
                    .with_chunk(32)
                    .with_tier_detail(true);
                let mut windows = WindowedRegistry::new(kind.label(), every);
                let replay = ReplaySession::new(&trace, &objects)
                    .topology(&topo)
                    .tier_policy(site.as_mut())
                    .tier_policy(origin_side.as_mut())
                    .observe(&mut spans)
                    .observe(&mut windows)
                    .run()
                    .unwrap();
                (spans.into_tracer(), windows, replay)
            };
            let (tt1, tw1, tr1) = run_tiered();
            let (tt2, tw2, _) = run_tiered();
            prop_assert_eq!(tt1.spans(), tt2.spans(), "{:?} tiered span tree", kind);
            prop_assert_eq!(
                tw1.breakdown().windows(), tw2.breakdown().windows(), "{:?} tiered windows", kind
            );
            let t_totals = tw1.breakdown().total();
            let t_report = &tr1.report;
            prop_assert_eq!(t_totals.delivered, t_report.sequence_cost, "{:?} tiered delivered", kind);
            prop_assert_eq!(t_totals.bypass_cost, t_report.bypass_cost, "{:?} tiered D_S", kind);
            prop_assert_eq!(t_totals.fetch_cost, t_report.fetch_cost, "{:?} tiered D_L", kind);
            prop_assert_eq!(t_totals.relay_cost, t_report.relay_cost, "{:?} tiered relay", kind);
            prop_assert_eq!(t_totals.wan_cost(), t_report.total_cost(), "{:?} tiered WAN", kind);
        }
    }
}

/// Windowed telemetry is chunking-invariant: a replay streamed off disk
/// — its queries parsed a chunk at a time, the chunk boundary falling
/// mid-window — emits the same windows, same tiling, same sums, as the
/// in-memory replay.
#[test]
fn windows_are_identical_across_streamed_chunk_boundaries() {
    use byc_federation::ReplaySession;
    use byc_telemetry::WindowedRegistry;
    use byc_workload::{ReplayTrace, TraceReader};

    let catalog = sdss::build(SdssRelease::Edr, 1e-4, 2);
    // Longer than one reader chunk (1024 queries), so the stream
    // crosses a chunk boundary inside the 1000..1100 window.
    let trace = generate(&catalog, &WorkloadConfig::smoke(19, 1100)).unwrap();
    let objects = ObjectCatalog::uniform(&catalog, Granularity::Column);
    let stats = WorkloadStats::compute(&trace, &objects);
    let capacity = objects.total_size().scale(0.25);
    let path = std::env::temp_dir().join(format!("byc-windows-{}.jsonl", std::process::id()));
    byc_workload::io::write_trace(&trace, &path).unwrap();
    for kind in [PolicyKind::RateProfile, PolicyKind::Gds] {
        let run = |streamed: bool| {
            let mut policy = build_policy(kind, capacity, &stats.demands, 19);
            let mut windows = WindowedRegistry::new(kind.label(), 100);
            let mut reader = TraceReader::open(&path).unwrap();
            let mut chunk = ReplayTrace::new(reader.name(), &objects);
            let session = match streamed {
                true => ReplaySession::from_reader(&mut reader, &mut chunk, &objects),
                false => ReplaySession::new(&trace, &objects),
            };
            session
                .policy(policy.as_mut())
                .observe(&mut windows)
                .run()
                .unwrap();
            windows.breakdown().windows().to_vec()
        };
        let resident = run(false);
        assert_eq!(resident.len(), 11);
        assert_eq!(resident, run(true), "{kind:?}");
    }
    std::fs::remove_file(&path).ok();
}
