//! Planner equivalence: every heap-planned policy decides exactly like a
//! brute-force twin of its selection rule.
//!
//! byc-core plans evictions on utility heaps and reusable scratch
//! buffers, and Rate-Profile ranks its residents by their current rate
//! in one pass per miss (DESIGN.md §18). The twins in
//! `tests/oracle/planners.rs` implement the same rules with full sorts
//! and whole-cache scans: a full-sort in-line cache over the public
//! `UtilityRule`s, a full-sort Landlord and a scan-based size-class
//! marking inside the shipped `OnlineBY` and `SpaceEffBY`, and the
//! shipped Rate-Profile behind a checker of the paper's rule. This suite
//! pins the full [`Decision`] stream — not just aggregate counters — of
//! every shipped planner against its twin, across flat and two-tier
//! topologies, fault-free and flaky. Static and NoCache have no planner
//! and are replayed by `compiled_equivalence` instead.
//!
//! The shipped side replays through the replay kernel, the twin through
//! the reference oracle (`tests/oracle`), so a passing case also pins
//! the kernel's accounting against the oracle's.

mod oracle;

use byc_catalog::sdss::{self, SdssRelease};
use byc_catalog::{Granularity, ObjectCatalog};
use byc_core::access::Access;
use byc_core::policy::{CachePolicy, Decision};
use byc_core::rate_profile::{RateProfile, RateProfileConfig};
use byc_federation::{
    build_policy, CostReport, DegradationPolicy, FaultModel, FaultPlan, FlakyLinks, PolicyKind,
    ReplaySession, RetryPolicy, Topology, Uniform,
};
use byc_types::{Bytes, ObjectId};
use byc_workload::{generate, Trace, WorkloadConfig, WorkloadStats};
use proptest::prelude::*;

/// Every roster policy with an eviction planner.
const PLANNED_POLICIES: [PolicyKind; 11] = [
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
];

/// Wraps a policy and records its full decision stream while forwarding
/// every call untouched.
struct Recorder<'a> {
    inner: Box<dyn CachePolicy + Send + Sync + 'a>,
    decisions: Vec<Decision>,
}

impl<'a> Recorder<'a> {
    fn new(inner: Box<dyn CachePolicy + Send + Sync + 'a>) -> Self {
        Self {
            inner,
            decisions: Vec::new(),
        }
    }
}

impl CachePolicy for Recorder<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_access(&mut self, access: &Access) -> Decision {
        let decision = self.inner.on_access(access);
        self.decisions.push(decision.clone());
        decision
    }

    fn contains(&self, object: ObjectId) -> bool {
        self.inner.contains(object)
    }

    fn used(&self) -> Bytes {
        self.inner.used()
    }

    fn capacity(&self) -> Bytes {
        self.inner.capacity()
    }

    fn cached_objects(&self) -> Vec<ObjectId> {
        self.inner.cached_objects()
    }

    fn invalidate(&mut self, object: ObjectId) -> bool {
        self.inner.invalidate(object)
    }
}

/// One replay of `kind` — the shipped policy through the kernel, or its
/// brute-force twin through the oracle — returning the report plus the
/// recorded decision stream of every tier (bottom-up; a single stream
/// for the flat path). Policies are built fresh per call so the two
/// sides never share state.
fn run_once(
    trace: &Trace,
    objects: &ObjectCatalog,
    stats: &WorkloadStats,
    kind: PolicyKind,
    seed: u64,
    cache_fraction: f64,
    topology: Option<&Topology>,
    faults: Option<(&dyn FaultModel, RetryPolicy, DegradationPolicy)>,
    twin: bool,
) -> (CostReport, Vec<Vec<Decision>>) {
    let capacity = objects.total_size().scale(cache_fraction);
    let tiers = topology.map_or(1, Topology::depth);
    let mut recorders: Vec<Recorder> = (0..tiers)
        .map(|_| {
            Recorder::new(match twin {
                true => oracle::planners::build_twin(kind, capacity, seed, objects)
                    .unwrap_or_else(|| panic!("{kind:?} has no planner twin")),
                false => build_policy(kind, capacity, &stats.demands, seed),
            })
        })
        .collect();
    if twin {
        let plan = faults.map(|(model, retry, degradation)| FaultPlan {
            model,
            retry,
            degradation,
        });
        let mut tiers: Vec<&mut dyn CachePolicy> = recorders
            .iter_mut()
            .map(|r| r as &mut dyn CachePolicy)
            .collect();
        let report = match topology {
            Some(topo) => oracle::tiered_report(trace, objects, topo, &mut tiers, plan),
            None => match &mut tiers[..] {
                [policy] => oracle::flat_report(trace, objects, &Uniform, *policy, plan),
                _ => unreachable!("flat path records exactly one policy"),
            },
        };
        drop(tiers);
        let streams = recorders.into_iter().map(|r| r.decisions).collect();
        return (report, streams);
    }
    let mut session = ReplaySession::new(trace, objects);
    match topology {
        Some(topo) => {
            session = session.topology(topo);
            for recorder in &mut recorders {
                session = session.tier_policy(recorder);
            }
        }
        None => {
            let [recorder] = &mut recorders[..] else {
                unreachable!("flat path records exactly one policy");
            };
            session = session.policy(recorder);
        }
    }
    if let Some((model, retry, degradation)) = faults {
        session = session.faults(model).retry(retry).degrade(degradation);
    }
    let report = match session.run() {
        Ok(replay) => replay.report,
        Err(e) => panic!("replay failed: {e}"),
    };
    let streams = recorders.into_iter().map(|r| r.decisions).collect();
    (report, streams)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// For every heap-planned policy, flat and two-tier, fault-free and
    /// flaky: the shipped planner and its brute-force twin produce
    /// bit-identical decision streams and cost reports.
    #[test]
    fn heap_planners_match_brute_force_twins(
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        cache_fraction in 0.05f64..0.6,
        failure_p in 0.0f64..0.3,
        inner_multiplier in 0.1f64..1.0,
    ) {
        let catalog = sdss::build(SdssRelease::Edr, 1e-4, 2);
        let trace = generate(&catalog, &WorkloadConfig::smoke(seed, 140)).unwrap();
        let objects = ObjectCatalog::uniform(&catalog, Granularity::Column);
        let stats = WorkloadStats::compute(&trace, &objects);
        let two_tier = Topology::two_tier(inner_multiplier, Box::new(Uniform)).unwrap();
        let flaky = FlakyLinks::new(fault_seed, failure_p, 0.1, 4.0);
        let retry = RetryPolicy::new(2, 1);
        for kind in PLANNED_POLICIES {
            for topology in [None, Some(&two_tier)] {
                for faulted in [false, true] {
                    let faults = faulted.then_some((
                        &flaky as &dyn FaultModel,
                        retry,
                        DegradationPolicy::ServeStale,
                    ));
                    let (shipped_report, shipped_streams) = run_once(
                        &trace, &objects, &stats, kind, seed, cache_fraction,
                        topology, faults, false,
                    );
                    let (twin_report, twin_streams) = run_once(
                        &trace, &objects, &stats, kind, seed, cache_fraction,
                        topology, faults, true,
                    );
                    prop_assert_eq!(
                        &shipped_report, &twin_report,
                        "{:?} tiered={} faulted={} cost report diverged",
                        kind, topology.is_some(), faulted
                    );
                    prop_assert_eq!(
                        shipped_streams.len(), twin_streams.len(),
                        "{:?} tier count diverged", kind
                    );
                    for (tier, (shipped, twin)) in
                        shipped_streams.iter().zip(&twin_streams).enumerate()
                    {
                        prop_assert_eq!(
                            shipped, twin,
                            "{:?} tiered={} faulted={} tier {} decision stream diverged",
                            kind, topology.is_some(), faulted, tier
                        );
                    }
                }
            }
        }
    }
}

/// The proptest's 140-query traces rarely fill a cache, so most of their
/// loads evict nothing. This replays a trace long enough that every heap
/// planner evicts under pressure, often several victims per load, and
/// pins each against its twin at two thin caches. (Rate-Profile rarely
/// evicts on this trace; the EDR rule test below checks it under
/// pressure.)
#[test]
fn heap_planners_match_brute_force_twins_under_eviction_pressure() {
    let catalog = sdss::build(SdssRelease::Edr, 1e-2, 2);
    let trace = generate(&catalog, &WorkloadConfig::smoke(17, 10_000)).unwrap();
    let objects = ObjectCatalog::uniform(&catalog, Granularity::Column);
    let stats = WorkloadStats::compute(&trace, &objects);
    for kind in PLANNED_POLICIES
        .into_iter()
        .filter(|&k| k != PolicyKind::RateProfile)
    {
        for fraction in [0.02, 0.05] {
            let (shipped_report, shipped) = run_once(
                &trace, &objects, &stats, kind, 17, fraction, None, None, false,
            );
            let (twin_report, twin) = run_once(
                &trace, &objects, &stats, kind, 17, fraction, None, None, true,
            );
            assert_eq!(
                shipped_report, twin_report,
                "{kind:?}@{fraction} report diverged"
            );
            assert_eq!(shipped, twin, "{kind:?}@{fraction} decisions diverged");
            let evictions: usize = shipped[0]
                .iter()
                .map(|d| match d {
                    Decision::Load { evictions } => evictions.len(),
                    _ => 0,
                })
                .sum();
            assert!(evictions > 0, "{kind:?}@{fraction} never evicted");
        }
    }
}

/// Rate-Profile evicts the residents with the lowest *current* rate
/// profile (paper Eq. 3). Per-object decay curves cross, so a rule that
/// ranks residents by the rate they showed at their last touch picks
/// other victims once the cache is thin (DESIGN.md §18.1; the crossing
/// construction is pinned in the `rate_profile.rs` unit tests). This
/// replays a 20,000-query EDR trace (scale 1e-2, seed 42) at 5%, 15% and
/// 30% of the database through the checker in `tests/oracle/planners.rs`,
/// which asserts every load and every bypass against the paper's rule.
/// At 5% the trace evicts often enough that a last-observed-rate rule
/// fails the check.
#[test]
fn rate_profile_applies_the_paper_rule_on_an_edr_trace() {
    let catalog = sdss::build(SdssRelease::Edr, 1e-2, 2);
    let trace = generate(&catalog, &WorkloadConfig::smoke(42, 20_000)).unwrap();
    let objects = ObjectCatalog::uniform(&catalog, Granularity::Column);
    for fraction in [0.05, 0.15, 0.3] {
        let capacity = objects.total_size().scale(fraction);
        let policy = RateProfile::new(capacity, RateProfileConfig::default());
        let mut checked = oracle::planners::RateProfileRule::new(policy, &objects);
        ReplaySession::new(&trace, &objects)
            .policy(&mut checked)
            .run()
            .expect("replay failed");
        assert!(
            checked.fitting_bypasses > 0,
            "fraction {fraction}: no bypass was checked"
        );
        if fraction == 0.05 {
            assert!(
                checked.evicting_loads > 0,
                "fraction {fraction}: no evicting load was checked"
            );
        }
    }
}
