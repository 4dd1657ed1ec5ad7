//! Property-based tests for the replay engine's network-priced cost
//! accounting.
//!
//! The load-bearing invariant is *delivery conservation per server*: no
//! matter how the WAN links are priced, every byte a query demands from a
//! server is served either by bypassing to that server (`D_S`) or from
//! cache (`D_C`). Pricing may inflate what the traffic *costs*, never
//! what is *delivered*. And every view of a `Breakdown` must be exactly
//! a partition of the global report — it folds the same event stream as
//! the session's `CostObserver`, so their totals cannot drift. Each of
//! those folds merges one-slice windows, so every event's window is
//! checked against the kernel's per-event contract too.

mod oracle;

use byc_catalog::sdss::{self, SdssRelease};
use byc_catalog::{Granularity, ObjectCatalog};
use byc_core::policy::Decision;
use byc_federation::{
    build_policy, Breakdown, CostEvent, CostReport, DegradationPolicy, FaultModel, FaultPlan,
    FlakyLinks, NetworkModel, Observer, Outage, OutageWindows, PerServerMultipliers, PolicyKind,
    QueryWindow, ReplaySession, RetryPolicy, SeriesPoint, Topology, Uniform,
};
use byc_types::{Bytes, ServerId, Tick};
use byc_workload::{generate, Trace, WorkloadConfig, WorkloadStats};
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

/// The per-event contract every fold of the replay relies on, checked
/// on each event's one-slice window: exactly one decision, counted under
/// the event's own decision; delivery conserved
/// (`delivered == bypass_served + cache_served`); and an inner-tier
/// bypass, which forwards the slice up the hierarchy, carrying nothing
/// but its relay cost. Keeps the first violation for the test to report.
struct EventContract {
    /// The replay's caching tiers.
    depth: u32,
    events: u64,
    violation: Option<String>,
}

impl EventContract {
    fn new(depth: usize) -> Self {
        EventContract {
            depth: u32::try_from(depth).unwrap(),
            events: 0,
            violation: None,
        }
    }
}

impl Observer for EventContract {
    fn on_access(&mut self, event: &CostEvent<'_>) {
        self.events += 1;
        let w = &event.window;
        let counted = match event.decision {
            Decision::Hit => w.hits,
            Decision::Bypass => w.bypasses,
            Decision::Load { .. } => w.loads,
        };
        let relay_only = QueryWindow {
            bypasses: 1,
            relay_cost: w.relay_cost,
            ..QueryWindow::default()
        };
        let broken = if w.decisions() != 1 || counted != 1 {
            "one decision"
        } else if !w.conserves_delivery() {
            "delivery conservation"
        } else if event.decision.is_bypass() && event.tier + 1 < self.depth && *w != relay_only {
            "an inner-tier bypass carries only its relay cost"
        } else {
            return;
        };
        self.violation
            .get_or_insert_with(|| format!("{broken}: {event:?}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For arbitrary per-server cost multipliers, window lengths and
    /// every shipped policy, on the flat network and on two- and
    /// three-tier topologies, fault-free or under flaky links: every
    /// event keeps the per-event contract, a `Breakdown`'s windows
    /// tile the replay, each server conserves delivery, the per-server
    /// and per-tier views each sum to the session's `CostReport` field
    /// for field, and the cumulative series ends at the report's total.
    #[test]
    fn per_server_costs_partition_the_report(
        seed in any::<u64>(),
        servers in 1u32..5,
        multipliers in proptest::collection::vec(0.25f64..8.0, 1..5),
        cache_fraction in 0.05f64..0.6,
        every in 1usize..200,
        faulted in any::<bool>(),
    ) {
        let catalog = sdss::build(SdssRelease::Edr, 1e-4, servers);
        let trace = generate(&catalog, &WorkloadConfig::smoke(seed, 150)).unwrap();
        let objects = ObjectCatalog::uniform(&catalog, Granularity::Column);
        let stats = WorkloadStats::compute(&trace, &objects);
        let network = PerServerMultipliers::new(multipliers.clone()).unwrap();
        let origin = || Box::new(PerServerMultipliers::new(multipliers.clone()).unwrap());
        let two_tier = Topology::two_tier(0.25, origin()).unwrap();
        let three_tier = Topology::three_tier(0.25, 0.5, origin()).unwrap();
        let flaky = FlakyLinks::new(seed, 0.1, 0.1, 4.0);
        let capacity = objects.total_size().scale(cache_fraction);
        for kind in ALL_POLICIES {
            for topology in [None, Some(&two_tier), Some(&three_tier)] {
                let scales: Vec<f64> = match topology {
                    Some(t) => t.tiers().iter().map(|tier| tier.capacity_scale).collect(),
                    None => vec![1.0],
                };
                let mut policies: Vec<_> = scales
                    .iter()
                    .map(|s| build_policy(kind, capacity.scale(*s), &stats.demands, seed))
                    .collect();
                let mut breakdown = Breakdown::every(every);
                let mut contract = EventContract::new(scales.len());
                let mut session = ReplaySession::new(&trace, &objects);
                if let Some(topology) = topology {
                    session = session.topology(topology);
                    for p in policies.iter_mut() {
                        session = session.tier_policy(p.as_mut());
                    }
                } else {
                    session = session.network(&network).policy(policies[0].as_mut());
                }
                if faulted {
                    session = session.faults(&flaky).retry(RetryPolicy::new(2, 1));
                }
                let report = session
                    .observe(&mut breakdown)
                    .observe(&mut contract)
                    .run()
                    .unwrap()
                    .report;
                let what = format!("{kind:?} depth={} faulted={faulted}", scales.len());
                prop_assert_eq!(contract.violation, None, "{} per-event contract", what);
                let decisions = report.hits + report.bypasses + report.loads;
                prop_assert_eq!(contract.events, decisions, "{} events", what);
                prop_assert!(report.conserves_delivery(), "{what} global conservation");

                let mut next = 0;
                for w in breakdown.windows() {
                    let (len, end) = (w.queries.len(), w.queries.end);
                    prop_assert_eq!(w.queries.start, next, "{} window tiling", what);
                    prop_assert!(len == every || (len < every && end == report.queries));
                    next = end;
                }
                prop_assert_eq!(next, report.queries, "{} window coverage", what);

                let per_server = breakdown.servers();
                for (server, s) in &per_server {
                    prop_assert!(s.conserves_delivery(), "{what} server {server:?}: {s:?}");
                    prop_assert!(server.raw() < servers, "{what} unknown server");
                }
                assert_rows_sum_to(&per_server, &report, &format!("{what} per-server"));
                let per_tier = breakdown.tiers();
                prop_assert!(
                    per_tier.iter().all(|(t, _)| *t < contract.depth),
                    "{what} unknown tier"
                );
                assert_rows_sum_to(&per_tier, &report, &format!("{what} per-tier"));

                let end = SeriesPoint {
                    query: report.queries,
                    cumulative_cost: report.total_cost(),
                };
                prop_assert_eq!(breakdown.series().last(), Some(&end), "{} series", what);
            }
        }
    }
}

/// Assert that `rows` sum to `report` field for field.
fn assert_rows_sum_to<K>(rows: &[(K, QueryWindow)], report: &CostReport, what: &str) {
    let mut sum = QueryWindow::default();
    for (_, row) in rows {
        sum.merge(row);
    }
    prop_assert_eq!(sum.delivered, report.sequence_cost, "{} delivered", what);
    prop_assert_eq!(
        sum.bypass_served,
        report.bypass_served,
        "{} bypass_served",
        what
    );
    prop_assert_eq!(sum.bypass_cost, report.bypass_cost, "{} bypass_cost", what);
    prop_assert_eq!(sum.fetch_cost, report.fetch_cost, "{} fetch_cost", what);
    prop_assert_eq!(sum.relay_cost, report.relay_cost, "{} relay_cost", what);
    prop_assert_eq!(
        sum.cache_served,
        report.cache_served,
        "{} cache_served",
        what
    );
    prop_assert_eq!(
        sum.retried_bytes,
        report.retried_bytes,
        "{} retried_bytes",
        what
    );
    prop_assert_eq!(
        sum.failed_bytes,
        report.failed_bytes,
        "{} failed_bytes",
        what
    );
    prop_assert_eq!(sum.hits, report.hits, "{} hits", what);
    prop_assert_eq!(sum.bypasses, report.bypasses, "{} bypasses", what);
    prop_assert_eq!(sum.loads, report.loads, "{} loads", what);
    prop_assert_eq!(sum.evictions, report.evictions, "{} evictions", what);
    prop_assert_eq!(sum.retries, report.retries, "{} retries", what);
}

/// One replay of `kind` over the faulted (or fault-free, when `faults`
/// is `None`) session, policies rebuilt fresh each time so replays are
/// independent.
fn fault_run(
    trace: &Trace,
    objects: &ObjectCatalog,
    stats: &WorkloadStats,
    kind: PolicyKind,
    seed: u64,
    faults: Option<(&dyn FaultModel, RetryPolicy, DegradationPolicy)>,
) -> CostReport {
    let capacity = objects.total_size().scale(0.25);
    let mut policy = build_policy(kind, capacity, &stats.demands, seed);
    let mut session = ReplaySession::new(trace, objects).policy(policy.as_mut());
    if let Some((model, retry, degradation)) = faults {
        session = session.faults(model).retry(retry).degrade(degradation);
    }
    match session.run() {
        Ok(replay) => replay.report,
        Err(e) => panic!("replay failed: {e}"),
    }
}

/// One replay of `kind` through the kernel over either a flat
/// `.network()` or a degenerate single-tier `.topology()`, with an
/// optional fault layer. Policies are rebuilt fresh per call.
#[allow(clippy::too_many_arguments)]
fn flat_or_tiered_run(
    trace: &Trace,
    objects: &ObjectCatalog,
    stats: &WorkloadStats,
    kind: PolicyKind,
    seed: u64,
    cache_fraction: f64,
    path: Result<&Topology, &dyn NetworkModel>,
    faults: Option<(&dyn FaultModel, RetryPolicy, DegradationPolicy)>,
) -> CostReport {
    let capacity = objects.total_size().scale(cache_fraction);
    let mut policy = build_policy(kind, capacity, &stats.demands, seed);
    let mut session = ReplaySession::new(trace, objects);
    session = match path {
        Ok(topology) => session.topology(topology).tier_policy(policy.as_mut()),
        Err(network) => session.policy(policy.as_mut()).network(network),
    };
    if let Some((model, retry, degradation)) = faults {
        session = session.faults(model).retry(retry).degrade(degradation);
    }
    match session.run() {
        Ok(replay) => replay.report,
        Err(e) => panic!("replay failed: {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Flat is depth 1: the kernel over a degenerate single-tier
    /// [`Topology`] and over a flat `NetworkModel` both produce a
    /// `CostReport` bit-identical to the oracle's flat arithmetic — for
    /// every shipped policy, under uniform and per-server pricing,
    /// fault-free and faulted.
    #[test]
    fn degenerate_topology_is_bit_identical_to_flat(
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        per_server in any::<bool>(),
        multipliers in proptest::collection::vec(0.25f64..8.0, 1..4),
        cache_fraction in 0.05f64..0.6,
        failure_p in 0.0f64..0.3,
    ) {
        let catalog = sdss::build(SdssRelease::Edr, 1e-4, 2);
        let trace = generate(&catalog, &WorkloadConfig::smoke(seed, 120)).unwrap();
        let objects = ObjectCatalog::uniform(&catalog, Granularity::Column);
        let stats = WorkloadStats::compute(&trace, &objects);
        let make_net = || -> Box<dyn NetworkModel + Send> {
            if per_server {
                Box::new(PerServerMultipliers::new(multipliers.clone()).unwrap())
            } else {
                Box::new(Uniform)
            }
        };
        let flat_net = make_net();
        let topology = Topology::flat(make_net());
        let flaky = FlakyLinks::new(fault_seed, failure_p, 0.1, 4.0);
        let retry = RetryPolicy::new(2, 1);
        for kind in ALL_POLICIES {
            for faulted in [false, true] {
                let faults = faulted.then_some((
                    &flaky as &dyn FaultModel,
                    retry,
                    DegradationPolicy::ServeStale,
                ));
                let capacity = objects.total_size().scale(cache_fraction);
                let mut policy = build_policy(kind, capacity, &stats.demands, seed);
                let plan = faults.map(|(model, retry, degradation)| FaultPlan {
                    model,
                    retry,
                    degradation,
                });
                let legacy = oracle::flat_report(
                    &trace, &objects, flat_net.as_ref(), policy.as_mut(), plan,
                );
                let flat = flat_or_tiered_run(
                    &trace, &objects, &stats, kind, seed, cache_fraction,
                    Err(flat_net.as_ref()), faults,
                );
                prop_assert_eq!(
                    &legacy, &flat,
                    "{:?} faulted={} flat kernel diverged from the oracle", kind, faulted
                );
                let tiered = flat_or_tiered_run(
                    &trace, &objects, &stats, kind, seed, cache_fraction,
                    Ok(&topology), faults,
                );
                prop_assert_eq!(
                    &legacy, &tiered,
                    "{:?} faulted={} single-tier topology diverged", kind, faulted
                );
                prop_assert_eq!(tiered.relay_cost, Bytes::ZERO);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Byte conservation under faults, for every shipped policy and both
    /// degradation modes: the decision stream is fault-independent, so
    /// the faulted report's decision counters equal the fault-free run's,
    /// delivery conservation still holds, and the requested bytes
    /// reconcile exactly — `delivered + failed = fault-free delivered`.
    /// And the whole faulted replay is a pure function of its seeds:
    /// replaying with the same `fault_seed` is bit-identical.
    #[test]
    fn faulted_replays_reconcile_and_are_deterministic(
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        failure_p in 0.0f64..0.4,
        spike_p in 0.0f64..0.2,
        attempts in 1u32..4,
        fail_mode in any::<bool>(),
    ) {
        let catalog = sdss::build(SdssRelease::Edr, 1e-4, 3);
        let trace = generate(&catalog, &WorkloadConfig::smoke(seed, 150)).unwrap();
        let objects = ObjectCatalog::uniform(&catalog, Granularity::Column);
        let stats = WorkloadStats::compute(&trace, &objects);
        let flaky = FlakyLinks::new(fault_seed, failure_p, spike_p, 4.0);
        let retry = RetryPolicy::new(attempts, 1);
        let degradation = if fail_mode {
            DegradationPolicy::Fail
        } else {
            DegradationPolicy::ServeStale
        };

        for kind in ALL_POLICIES {
            let free = fault_run(&trace, &objects, &stats, kind, seed, None);
            let faulted = fault_run(
                &trace, &objects, &stats, kind, seed,
                Some((&flaky, retry, degradation)),
            );

            // Same-seed replays are bit-identical.
            let again = fault_run(
                &trace, &objects, &stats, kind, seed,
                Some((&flaky, retry, degradation)),
            );
            prop_assert_eq!(&faulted, &again, "{:?} same-seed replay diverged", kind);

            // Faults never leak into the decision stream.
            prop_assert_eq!(faulted.hits, free.hits, "{:?} hits", kind);
            prop_assert_eq!(faulted.bypasses, free.bypasses, "{:?} bypasses", kind);
            prop_assert_eq!(faulted.loads, free.loads, "{:?} loads", kind);
            prop_assert_eq!(faulted.evictions, free.evictions, "{:?} evictions", kind);

            // Conservation holds on whatever *was* delivered.
            prop_assert!(faulted.conserves_delivery(), "{kind:?} conservation");

            // Requested bytes reconcile exactly with the fault-free run:
            // every byte the fault-free replay delivered is either
            // delivered or explicitly accounted as failed.
            prop_assert_eq!(
                faulted.sequence_cost + faulted.failed_bytes,
                free.sequence_cost,
                "{:?} delivered+failed reconciliation", kind
            );
            match degradation {
                DegradationPolicy::ServeStale => {
                    prop_assert_eq!(faulted.failed_bytes, Bytes::ZERO, "{:?} stale never fails", kind);
                    prop_assert_eq!(faulted.failed_queries, 0, "{:?} stale failed_queries", kind);
                }
                DegradationPolicy::Fail => {
                    prop_assert_eq!(faulted.degraded_queries, 0, "{:?} fail degraded_queries", kind);
                }
            }
            // Availability is a probability.
            let avail = faulted.availability();
            prop_assert!((0.0..=1.0).contains(&avail), "{kind:?} availability {avail}");
            // Retry traffic only exists when attempts actually failed.
            prop_assert_eq!(
                faulted.retries == 0,
                faulted.retried_bytes == Bytes::ZERO,
                "{:?} retry accounting", kind
            );
        }
    }

    /// A total outage of every server with `Fail` degradation delivers
    /// nothing, costs nothing in fresh WAN transfers beyond hits, and
    /// reports zero availability on traces with demand; with `ServeStale`
    /// every slice still answers and sequence cost is preserved.
    #[test]
    fn total_outage_is_the_degenerate_case(seed in any::<u64>()) {
        let catalog = sdss::build(SdssRelease::Edr, 1e-4, 2);
        let trace = generate(&catalog, &WorkloadConfig::smoke(seed, 80)).unwrap();
        let objects = ObjectCatalog::uniform(&catalog, Granularity::Column);
        let stats = WorkloadStats::compute(&trace, &objects);
        let outage = OutageWindows::new(
            (0..2)
                .map(|s| Outage {
                    server: ServerId::new(s),
                    from: Tick::ZERO,
                    until: Tick::new(u64::MAX),
                })
                .collect(),
        );
        let retry = RetryPolicy::new(2, 1);
        let free = fault_run(&trace, &objects, &stats, PolicyKind::NoCache, seed, None);

        let failed = fault_run(
            &trace, &objects, &stats, PolicyKind::NoCache, seed,
            Some((&outage, retry, DegradationPolicy::Fail)),
        );
        prop_assert_eq!(failed.sequence_cost, Bytes::ZERO);
        prop_assert_eq!(failed.failed_bytes, free.sequence_cost);
        prop_assert_eq!(failed.bypass_cost, Bytes::ZERO);
        if free.sequence_cost > Bytes::ZERO {
            prop_assert!(failed.availability() < 1e-12);
            prop_assert!(failed.failed_queries > 0);
        }

        let stale = fault_run(
            &trace, &objects, &stats, PolicyKind::NoCache, seed,
            Some((&outage, retry, DegradationPolicy::ServeStale)),
        );
        prop_assert_eq!(stale.sequence_cost, free.sequence_cost);
        prop_assert_eq!(stale.failed_bytes, Bytes::ZERO);
        prop_assert!((stale.availability() - 1.0).abs() < 1e-12);
    }
}
