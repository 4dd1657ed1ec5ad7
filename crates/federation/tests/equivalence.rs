//! Guard-rail for the replay-engine refactor: the mediator (serving SQL
//! text end-to-end) and the simulator (replaying the decomposed trace)
//! must be the *same machine*. Replaying one generated trace through both,
//! with the same policy kind, seed, and granularity, must produce
//! identical `D_S` / `D_L` / `D_C` totals — any divergence means the two
//! paths price or account decisions differently. Both audit from the
//! same kernel events, so their audit reports must agree too.

use byc_catalog::sdss::{build, SdssRelease};
use byc_catalog::{Granularity, ObjectCatalog};
use byc_federation::{build_policy, Mediator, PolicyKind, ReplaySession};
use byc_types::Bytes;
use byc_workload::{generate, WorkloadConfig, WorkloadStats};

/// Totals of the paper's three delivery components over a whole trace.
#[derive(Debug, PartialEq, Eq)]
struct Totals {
    /// `D_S`: result bytes shipped from the servers (bypass traffic).
    bypass: Bytes,
    /// `D_L`: WAN bytes spent loading objects into the cache.
    fetch: Bytes,
    /// `D_C`: result bytes served out of the collocated cache.
    cache: Bytes,
}

fn equivalence_case(kind: PolicyKind, granularity: Granularity, seed: u64) {
    let catalog = build(SdssRelease::Edr, 1e-3, 2);
    let trace = generate(&catalog, &WorkloadConfig::smoke(seed, 1200)).unwrap();
    let objects = ObjectCatalog::uniform(&catalog, granularity);
    let stats = WorkloadStats::compute(&trace, &objects);
    let capacity = objects.total_size().scale(0.3);

    // Path 1: the simulator's batch replay of the decomposed trace.
    let mut policy = build_policy(kind, capacity, &stats.demands, seed);
    let replay = ReplaySession::new(&trace, &objects)
        .policy(policy.as_mut())
        .audited()
        .run()
        .expect("policy configured");
    let report = replay.report;
    let simulated = Totals {
        bypass: report.bypass_cost,
        fetch: report.fetch_cost,
        cache: report.cache_served,
    };

    // Path 2: the mediator serving every query from its SQL text, which
    // re-parses, re-analyzes, and re-prices each query from scratch.
    let policy = build_policy(kind, capacity, &stats.demands, seed);
    let mut mediator = Mediator::with_audit(catalog, granularity, policy, true);
    let mut served_totals = Totals {
        bypass: Bytes::ZERO,
        fetch: Bytes::ZERO,
        cache: Bytes::ZERO,
    };
    for q in &trace.queries {
        let served = mediator.serve_sql(&q.sql).unwrap();
        assert_eq!(
            served.delivered, q.total_yield,
            "mediator re-priced {:?} differently from the generator",
            q.sql
        );
        served_totals.bypass += served.from_servers;
        served_totals.fetch += served.load_traffic;
        served_totals.cache += served.from_cache;
    }

    assert_eq!(
        simulated, served_totals,
        "mediator and simulator disagree for {kind:?} at {granularity:?}"
    );
    assert_eq!(mediator.wan_total(), report.total_cost());
    assert_eq!(mediator.served_count() as usize, trace.len());

    // The two audits agree in every counter, byte total and violation;
    // only the session's closing deep check is the mediator's to lack.
    let session_audit = replay.audit.expect("session audited");
    let mut mediator_audit = mediator.audit_report().expect("mediator audited").clone();
    assert!(session_audit.accesses > 0);
    mediator_audit.deep_checks += 1;
    assert_eq!(
        mediator_audit, session_audit,
        "mediator and session audits disagree for {kind:?} at {granularity:?}"
    );
}

#[test]
fn mediator_matches_simulator_rate_profile_column() {
    equivalence_case(PolicyKind::RateProfile, Granularity::Column, 71);
}

#[test]
fn mediator_matches_simulator_rate_profile_table() {
    equivalence_case(PolicyKind::RateProfile, Granularity::Table, 72);
}

#[test]
fn mediator_matches_simulator_online_by() {
    equivalence_case(PolicyKind::OnlineBY, Granularity::Column, 73);
}

#[test]
fn mediator_matches_simulator_spaceeff_by() {
    // SpaceEffBY is randomized; the same seed must drive both paths to
    // the same coin flips.
    equivalence_case(PolicyKind::SpaceEffBY, Granularity::Column, 74);
}

#[test]
fn mediator_matches_simulator_gds() {
    equivalence_case(PolicyKind::Gds, Granularity::Table, 75);
}

#[test]
fn mediator_matches_simulator_no_cache() {
    equivalence_case(PolicyKind::NoCache, Granularity::Column, 76);
}
