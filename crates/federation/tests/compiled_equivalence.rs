//! Property-based proof that the replay kernel is bit-identical to the
//! reference oracle's flat runner.
//!
//! The kernel took over what the compiled replay path did: it prices
//! every object's fetch once per engine, walks each query's yields in
//! place, and folds costs inline instead of dispatching them. The
//! oracle (`tests/oracle`) does none of that — it decomposes, prices
//! and dispatches per access, exactly as the uncompiled engine did. The
//! [`CostReport`]s must be *bit-identical* for every policy, network
//! regime, and fault configuration. These tests pin that claim across
//! the full 13-policy roster, uniform and per-server networks, and
//! fault-free / flaky-link replays with retries and both degradation
//! modes.

mod oracle;

use byc_catalog::sdss::{self, SdssRelease};
use byc_catalog::{Granularity, ObjectCatalog};
use byc_federation::{
    build_policy, CostReport, DegradationPolicy, FaultModel, FaultPlan, FlakyLinks, NetworkModel,
    PerServerMultipliers, PolicyKind, ReplaySession, RetryPolicy, Uniform,
};
use byc_types::{Bytes, QueryId, TableId};
use byc_workload::{generate, Trace, TraceQuery, WorkloadConfig, WorkloadStats};
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

/// One replay of `kind` through the kernel (a session) or the oracle,
/// with optional network pricing and fault layer. Policies are rebuilt
/// fresh per call so the two paths see identical initial state.
#[allow(clippy::too_many_arguments)]
fn run(
    trace: &Trace,
    objects: &ObjectCatalog,
    stats: &WorkloadStats,
    kind: PolicyKind,
    seed: u64,
    network: Option<&PerServerMultipliers>,
    faults: Option<(&dyn FaultModel, RetryPolicy, DegradationPolicy)>,
    kernel: bool,
) -> CostReport {
    let capacity = objects.total_size().scale(0.25);
    let mut policy = build_policy(kind, capacity, &stats.demands, seed);
    if !kernel {
        let network: &dyn NetworkModel = match network {
            Some(net) => net,
            None => &Uniform,
        };
        let plan = faults.map(|(model, retry, degradation)| FaultPlan {
            model,
            retry,
            degradation,
        });
        return oracle::flat_report(trace, objects, network, policy.as_mut(), plan);
    }
    let mut session = ReplaySession::new(trace, objects)
        .policy(policy.as_mut())
        .unaudited();
    if let Some(net) = network {
        session = session.network(net);
    }
    if let Some((model, retry, degradation)) = faults {
        session = session.faults(model).retry(retry).degrade(degradation);
    }
    match session.run() {
        Ok(replay) => replay.report,
        Err(e) => panic!("replay failed: {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Kernel and oracle replays produce bit-identical reports for every
    /// policy on arbitrarily priced per-server networks (and the uniform
    /// network), fault-free.
    #[test]
    fn compiled_matches_reference_on_priced_networks(
        seed in any::<u64>(),
        servers in 1u32..5,
        multipliers in proptest::collection::vec(0.25f64..8.0, 1..5),
    ) {
        let catalog = sdss::build(SdssRelease::Edr, 1e-4, servers);
        let trace = generate(&catalog, &WorkloadConfig::smoke(seed, 120)).unwrap();
        let objects = ObjectCatalog::uniform(&catalog, Granularity::Column);
        let stats = WorkloadStats::compute(&trace, &objects);
        let network = PerServerMultipliers::new(multipliers).unwrap();
        for kind in ALL_POLICIES {
            for net in [None, Some(&network)] {
                let reference = run(&trace, &objects, &stats, kind, seed, net, None, false);
                let kernel = run(&trace, &objects, &stats, kind, seed, net, None, true);
                prop_assert_eq!(
                    &reference, &kernel,
                    "{:?} diverged (network: {})", kind, net.is_some()
                );
            }
        }
    }

    /// Bit-identity survives the fault layer: flaky links, retries with
    /// backoff, and both degradation modes. The fault stream is keyed on
    /// (time, object, server, attempt) coordinates, which the kernel
    /// must reproduce exactly.
    #[test]
    fn compiled_matches_reference_under_faults(
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        failure_p in 0.0f64..0.4,
        spike_p in 0.0f64..0.2,
        attempts in 1u32..4,
        fail_mode in any::<bool>(),
    ) {
        let catalog = sdss::build(SdssRelease::Edr, 1e-4, 3);
        let trace = generate(&catalog, &WorkloadConfig::smoke(seed, 120)).unwrap();
        let objects = ObjectCatalog::uniform(&catalog, Granularity::Column);
        let stats = WorkloadStats::compute(&trace, &objects);
        let network = PerServerMultipliers::new(vec![1.0, 2.5, 0.5]).unwrap();
        let flaky = FlakyLinks::new(fault_seed, failure_p, spike_p, 4.0);
        let retry = RetryPolicy::new(attempts, 2);
        let degradation = if fail_mode {
            DegradationPolicy::Fail
        } else {
            DegradationPolicy::ServeStale
        };
        let faults = Some((&flaky as &dyn FaultModel, retry, degradation));
        for kind in ALL_POLICIES {
            let reference = run(
                &trace, &objects, &stats, kind, seed, Some(&network), faults, false,
            );
            let kernel = run(
                &trace, &objects, &stats, kind, seed, Some(&network), faults, true,
            );
            prop_assert_eq!(&reference, &kernel, "{:?} diverged under faults", kind);
            prop_assert!(kernel.conserves_delivery(), "{kind:?} conservation");
        }
    }

    /// Table granularity takes the other decomposition arm; pin it too.
    #[test]
    fn compiled_matches_reference_at_table_granularity(seed in any::<u64>()) {
        let catalog = sdss::build(SdssRelease::Edr, 1e-4, 2);
        let trace = generate(&catalog, &WorkloadConfig::smoke(seed, 100)).unwrap();
        let objects = ObjectCatalog::uniform(&catalog, Granularity::Table);
        let stats = WorkloadStats::compute(&trace, &objects);
        for kind in [PolicyKind::RateProfile, PolicyKind::Gds, PolicyKind::NoCache] {
            let reference = run(&trace, &objects, &stats, kind, seed, None, None, false);
            let kernel = run(&trace, &objects, &stats, kind, seed, None, None, true);
            prop_assert_eq!(&reference, &kernel, "{:?} diverged at table grain", kind);
        }
    }
}

/// The kernel must skip table/column references that do not resolve to
/// a cacheable object, exactly like the oracle's `decompose` does — a
/// query naming a table outside the object view contributes no slices
/// for it, and the resolvable references around it are preserved in
/// order.
#[test]
fn compilation_skips_unresolvable_references_like_decompose() {
    let catalog = sdss::build(SdssRelease::Edr, 1e-3, 1);
    let objects = ObjectCatalog::uniform(&catalog, Granularity::Table);
    let real = objects.objects().first().expect("catalog has objects");
    let real_table = match real.kind {
        byc_catalog::ObjectKind::Table(t) => t,
        byc_catalog::ObjectKind::Column(_) => panic!("table granularity yields table objects"),
    };
    let bogus = TableId::new(u32::MAX);
    let query = TraceQuery {
        id: QueryId::new(0),
        sql: String::new(),
        template: 0,
        data_keys: Vec::new(),
        tables: vec![real_table, bogus],
        columns: Vec::new(),
        total_yield: Bytes::new(300),
        table_yields: vec![
            (real_table, Bytes::new(100)),
            (bogus, Bytes::new(150)),
            (real_table, Bytes::new(50)),
        ],
        column_yields: Vec::new(),
    };
    let trace = Trace {
        name: "bogus-ref".into(),
        seed: 0,
        queries: vec![query],
    };
    let reference = oracle::decompose(&trace.queries[0], &objects);
    // The bogus reference vanished from the oracle's view...
    assert_eq!(reference.len(), 2);
    let mut p = byc_core::static_opt::NoCache;
    let kernel = ReplaySession::new(&trace, &objects)
        .policy(&mut p)
        .unaudited()
        .run()
        .unwrap()
        .report;
    // ...and from the kernel's, which served exactly those two slices.
    assert_eq!(kernel.bypasses, 2);
    assert_eq!(kernel.sequence_cost, Bytes::new(150));
    let mut p = byc_core::static_opt::NoCache;
    let oracle = oracle::flat_report(&trace, &objects, &Uniform, &mut p, None);
    assert_eq!(kernel, oracle);
}
