//! Replay result types.
//!
//! The replay entry points live on
//! [`ReplaySession`](crate::session::ReplaySession); this module keeps
//! the shapes a replay produces — [`Replay`], and the [`SeriesPoint`]s
//! of a [`Breakdown`](crate::engine::Breakdown)'s cumulative series.
//!
//! The engine decomposes each trace query into one
//! [`Access`](byc_core::access::Access) per
//! referenced cacheable object (carrying that object's slice of the
//! query's yield, priced by its home server's link), presents them to the
//! policy in order, and converts decisions to WAN costs:
//!
//! * `Hit`    → 0 WAN, yield served from cache (`D_C`);
//! * `Bypass` → yield shipped from the server (`D_S`);
//! * `Load`   → fetch cost on the WAN (`D_L`), then yield from cache.

use crate::accounting::CostReport;
use byc_core::audit::AuditReport;
use byc_types::Bytes;

/// One point of a cumulative-cost curve (Figs 7–8).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeriesPoint {
    /// Query index (1-based, end of the sampled window).
    pub query: usize,
    /// Cumulative WAN cost after this many queries.
    pub cumulative_cost: Bytes,
}

/// Everything a replay produces.
#[derive(Clone, Debug)]
pub struct Replay {
    /// WAN cost accounting.
    pub report: CostReport,
    /// The decision-stream audit, when auditing was enabled.
    pub audit: Option<AuditReport>,
    /// Observer warnings collected after the replay finished — parked
    /// telemetry IO errors, flight-recorder truncation notes. Empty on
    /// clean runs.
    pub warnings: Vec<String>,
}

pub(crate) fn debug_assert_audit(replay: &Replay) {
    if let Some(audit) = &replay.audit {
        debug_assert!(
            audit.is_clean(),
            "policy {} violated cache invariants: {}",
            replay.report.policy,
            audit.violations.join("; ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::for_each_slice;
    use crate::session::ReplaySession;
    use byc_catalog::sdss::{build, SdssRelease};
    use byc_catalog::{Granularity, ObjectCatalog};
    use byc_core::inline::make;
    use byc_core::policy::CachePolicy;
    use byc_core::rate_profile::{RateProfile, RateProfileConfig};
    use byc_core::static_opt::NoCache;
    use byc_workload::{generate, Trace, WorkloadConfig, WorkloadStats};

    fn setup(granularity: Granularity) -> (Trace, ObjectCatalog) {
        let cat = build(SdssRelease::Edr, 1e-3, 1);
        let trace = generate(&cat, &WorkloadConfig::smoke(41, 1500)).unwrap();
        let objects = ObjectCatalog::uniform(&cat, granularity);
        (trace, objects)
    }

    fn session_report(
        trace: &Trace,
        objects: &ObjectCatalog,
        policy: &mut dyn CachePolicy,
    ) -> CostReport {
        ReplaySession::new(trace, objects)
            .policy(policy)
            .run()
            .unwrap()
            .report
    }

    #[test]
    fn no_cache_equals_sequence_cost() {
        for g in [Granularity::Table, Granularity::Column] {
            let (trace, objects) = setup(g);
            let mut policy = NoCache;
            let report = session_report(&trace, &objects, &mut policy);
            assert_eq!(report.total_cost(), trace.sequence_cost());
            assert_eq!(report.bypass_cost, trace.sequence_cost());
            assert_eq!(report.fetch_cost, Bytes::ZERO);
            assert_eq!(report.hits, 0);
            assert!(report.conserves_delivery());
        }
    }

    #[test]
    fn delivery_conserved_for_all_policies() {
        let (trace, objects) = setup(Granularity::Column);
        let cap = objects.total_size().scale(0.3);
        let mut policies: Vec<Box<dyn CachePolicy>> = vec![
            Box::new(RateProfile::new(cap, RateProfileConfig::default())),
            Box::new(make::gds(cap)),
            Box::new(make::lru(cap)),
        ];
        for p in policies.iter_mut() {
            let report = session_report(&trace, &objects, p.as_mut());
            assert!(report.conserves_delivery(), "{}", report.policy);
            assert_eq!(report.sequence_cost, trace.sequence_cost());
        }
    }

    #[test]
    fn audited_replay_is_clean_and_matches_costs() {
        let (trace, objects) = setup(Granularity::Column);
        let cap = objects.total_size().scale(0.3);
        let mut rp = RateProfile::new(cap, RateProfileConfig::default());
        let replay = ReplaySession::new(&trace, &objects)
            .policy(&mut rp)
            .audited()
            .run()
            .unwrap();
        let report = replay.report;
        let audit = replay.audit.unwrap();
        assert!(audit.is_clean(), "{:?}", audit.violations);
        // The auditor's independent accounting must agree with the
        // CostReport on every column.
        assert_eq!(audit.hits, report.hits);
        assert_eq!(audit.bypasses, report.bypasses);
        assert_eq!(audit.loads, report.loads);
        assert_eq!(audit.evictions, report.evictions);
        assert_eq!(audit.cache_served, report.cache_served);
        assert_eq!(audit.bypass_served, report.bypass_cost);
        assert_eq!(audit.load_cost, report.fetch_cost);
        assert_eq!(audit.delivered(), report.sequence_cost);
        assert!(audit.deep_checks > 0);
    }

    #[test]
    fn audited_replay_returns_a_populated_report() {
        // Regression: the audit path must return the real report by
        // construction — a defaulted (empty) report here means the
        // observer's result was dropped on the floor.
        let (trace, objects) = setup(Granularity::Table);
        let cap = objects.total_size().scale(0.2);
        let mut rp = RateProfile::new(cap, RateProfileConfig::default());
        let replay = ReplaySession::new(&trace, &objects)
            .policy(&mut rp)
            .audited()
            .run()
            .unwrap();
        let audit = replay.audit.unwrap();
        assert!(audit.accesses > 0, "audit report was never populated");
        assert_eq!(
            audit.accesses,
            replay.report.hits + replay.report.bypasses + replay.report.loads
        );
    }

    #[test]
    fn release_style_unaudited_replay_works() {
        let (trace, objects) = setup(Granularity::Table);
        let cap = objects.total_size().scale(0.3);
        let mut rp = RateProfile::new(cap, RateProfileConfig::default());
        let replay = ReplaySession::new(&trace, &objects)
            .policy(&mut rp)
            .unaudited()
            .run()
            .unwrap();
        assert!(replay.audit.is_none());
        assert!(replay.report.conserves_delivery());
    }

    #[test]
    fn rate_profile_beats_no_cache_here() {
        // Needs a long enough horizon for the rent-to-buy investment in
        // the hot objects to amortize.
        let cat = build(SdssRelease::Edr, 1e-3, 1);
        let trace = generate(&cat, &WorkloadConfig::smoke(41, 9000)).unwrap();
        let objects = ObjectCatalog::uniform(&cat, Granularity::Column);
        let cap = objects.total_size().scale(0.3);
        let mut rp = RateProfile::new(cap, RateProfileConfig::default());
        let report = session_report(&trace, &objects, &mut rp);
        assert!(
            report.total_cost() < trace.sequence_cost(),
            "rate-profile {} vs sequence {}",
            report.total_cost(),
            trace.sequence_cost()
        );
        assert!(report.hits > 0);
    }

    #[test]
    fn series_is_monotone_and_ends_at_total() {
        let (trace, objects) = setup(Granularity::Table);
        let cap = objects.total_size().scale(0.3);
        let mut rp = RateProfile::new(cap, RateProfileConfig::default());
        let mut breakdown = crate::engine::Breakdown::every(100);
        let report = ReplaySession::new(&trace, &objects)
            .policy(&mut rp)
            .observe(&mut breakdown)
            .run()
            .unwrap()
            .report;
        let series = breakdown.series();
        assert!(!series.is_empty());
        for w in series.windows(2) {
            assert!(w[1].cumulative_cost >= w[0].cumulative_cost);
            assert!(w[1].query > w[0].query);
        }
        assert_eq!(series.last().unwrap().cumulative_cost, report.total_cost());
        assert_eq!(series.last().unwrap().query, trace.len());
    }

    #[test]
    fn static_plan_behaves() {
        let (trace, objects) = setup(Granularity::Table);
        let stats = WorkloadStats::compute(&trace, &objects);
        let cap = objects.total_size().scale(0.4);
        let mut static_policy = byc_core::static_opt::StaticCache::plan(&stats.demands, cap, true);
        let report = session_report(&trace, &objects, &mut static_policy);
        assert!(report.conserves_delivery());
        // Static caching must do no worse than no caching on fetch+bypass
        // for this workload (it only caches profitable objects).
        assert!(report.total_cost() <= trace.sequence_cost() + report.fetch_cost);
    }

    #[test]
    fn accesses_cover_query_yield() {
        let (trace, objects) = setup(Granularity::Column);
        for q in trace.queries.iter().take(50) {
            let mut sum = Bytes::ZERO;
            let skipped = for_each_slice(q, &objects, |_, y| sum += y);
            assert_eq!(skipped, Default::default());
            assert_eq!(sum, q.total_yield);
        }
    }

    #[test]
    fn non_uniform_network_inflates_wan_but_not_delivery() {
        use crate::network::{NetworkModel, PerServerMultipliers};
        let cat = build(SdssRelease::Edr, 1e-3, 2);
        let trace = generate(&cat, &WorkloadConfig::smoke(44, 800)).unwrap();
        let objects = ObjectCatalog::uniform(&cat, Granularity::Column);
        let net = PerServerMultipliers::new(vec![1.0, 4.0]).unwrap();
        let run = |network: Option<&dyn NetworkModel>| {
            let mut p = NoCache;
            let mut session = ReplaySession::new(&trace, &objects).policy(&mut p);
            if let Some(network) = network {
                session = session.network(network);
            }
            session.run().unwrap().report
        };
        let uniform = run(None);
        let priced = run(Some(&net));
        // Delivery (raw result bytes) is network-independent...
        assert_eq!(priced.sequence_cost, uniform.sequence_cost);
        assert_eq!(priced.bypass_served, uniform.bypass_served);
        assert!(priced.conserves_delivery());
        // ...but WAN traffic is inflated by the expensive link.
        assert!(priced.bypass_cost > uniform.bypass_cost);
        assert!(priced.bypass_cost > priced.bypass_served);
    }
}
