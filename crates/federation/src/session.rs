//! [`ReplaySession`]: the one fluent entry point to every replay shape.
//!
//! `byc-federation` used to accrete a free function per replay variant —
//! `replay`, `replay_with_series`, `replay_audited`,
//! `replay_with_options`, `replay_with_observers`, plus the sweep pair
//! and the mediator's `_with` twin. Nine entry points, each a different
//! subset of the same six knobs. This module collapses them into one
//! builder:
//!
//! ```text
//! ReplaySession::new(&trace, &objects)
//!     .policy(policy.as_mut())      // required for .run()
//!     .network(&net)                // default: Uniform (BYU)
//!     .faults(&model)               // default: no fault layer
//!     .retry(RetryPolicy::new(3, 8))
//!     .degrade(DegradationPolicy::Fail)
//!     .observe(&mut telemetry)      // any extra Observer, repeatable
//!     .audited()                    // default: debug builds only
//!     .run()?                       // -> Replay
//! ```
//!
//! The sweep terminal reuses the same configuration across a whole
//! (policy × cache-fraction) grid described by one
//! [`SweepOptions`] value:
//!
//! ```text
//! ReplaySession::new(&trace, &objects)
//!     .network(&net)
//!     .faults(&model)
//!     .sweep(SweepOptions::new(&policies, &fractions, &demands, seed))?
//! ```
//!
//! Every run drives the one per-query kernel, [`ReplayEngine`], over a
//! flat network (one caching tier) or a [`Topology`] (one policy per
//! tier). `ReplaySession::from_reader(&mut reader, &objects)` streams a
//! trace file through the same kernel instead of holding it in memory
//! (DESIGN.md §17).
//!
//! Configuration errors (no policy before `run`, a policy before
//! `sweep`) surface as [`byc_types::Error::InvalidConfig`] — the crate
//! has a no-panic lint, so the builder never panics on misuse.

use crate::engine::{
    partition_access_observers, AuditObserver, CostObserver, FlightRecorder, Observer,
    ReplayEngine, Unresolved,
};
use crate::faults::{
    fault_context, DegradationPolicy, FaultModel, FaultPlan, RetryPolicy, NO_RETRY,
};
use crate::network::{NetworkModel, Topology};
use crate::policies::{build_policy, PolicyKind};
use crate::simulator::{debug_assert_audit, Replay};
use crate::stream::ChunkSource;
use crate::sweep::{SweepOptions, SweepPoint};
use byc_catalog::ObjectCatalog;
use byc_core::audit::AuditReport;
use byc_core::policy::CachePolicy;
use byc_core::static_opt::ObjectDemand;
use byc_types::{Error, Result};
use byc_workload::{Trace, TraceReader};

/// A configured replay over one trace and object view. See the module
/// docs for the grammar; terminals are [`ReplaySession::run`] and
/// [`ReplaySession::sweep`].
pub struct ReplaySession<'a> {
    source: ChunkSource<'a>,
    objects: &'a ObjectCatalog,
    network: &'a dyn NetworkModel,
    faults: Option<&'a dyn FaultModel>,
    retry: RetryPolicy,
    degradation: DegradationPolicy,
    audit: Option<bool>,
    topology: Option<&'a Topology>,
    tier_policies: Vec<&'a mut (dyn CachePolicy + Send + Sync)>,
    policy: Option<&'a mut dyn CachePolicy>,
    observers: Vec<&'a mut dyn Observer>,
    flight_recorder: Option<usize>,
}

impl std::fmt::Debug for ReplaySession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplaySession")
            .field("trace", &self.source.name())
            .field("network", &self.network.name())
            .field("faults", &self.faults.map(FaultModel::name))
            .field("retry", &self.retry)
            .field("degradation", &self.degradation)
            .field("audit", &self.audit)
            .field("topology", &self.topology.map(Topology::name))
            .field("tier_policies", &self.tier_policies.len())
            .field("observers", &self.observers.len())
            .field("flight_recorder", &self.flight_recorder)
            .finish_non_exhaustive()
    }
}

impl<'a> ReplaySession<'a> {
    /// A session over `trace` at the granularity of `objects`, on a
    /// uniform network, fault-free, with auditing following the build
    /// profile (on in debug, off in release) and no extra observers.
    pub fn new(trace: &'a Trace, objects: &'a ObjectCatalog) -> Self {
        Self::build(ChunkSource::memory(trace), objects)
    }

    /// A session streaming queries off `reader` instead of an in-memory
    /// trace: queries are parsed a chunk at a time and replayed as they
    /// arrive, so memory stays constant in the trace length. The sweep
    /// terminal (which replays the trace once per grid point) is
    /// unavailable.
    pub fn from_reader(reader: &'a mut TraceReader, objects: &'a ObjectCatalog) -> Self {
        Self::build(ChunkSource::Reader(reader), objects)
    }

    fn build(source: ChunkSource<'a>, objects: &'a ObjectCatalog) -> Self {
        ReplaySession {
            source,
            objects,
            network: &crate::network::UNIFORM,
            faults: None,
            retry: NO_RETRY,
            degradation: DegradationPolicy::default(),
            audit: None,
            topology: None,
            tier_policies: Vec::new(),
            policy: None,
            observers: Vec::new(),
            flight_recorder: None,
        }
    }

    /// Attach a fault flight recorder keeping the last `depth` events
    /// per tier: whenever a query fails or degrades, the recorder
    /// snapshots an annotated [`Postmortem`](crate::engine::Postmortem)
    /// into [`Replay::postmortems`], stamped with the session's fault
    /// configuration.
    #[must_use]
    pub fn flight_recorder(mut self, depth: usize) -> Self {
        self.flight_recorder = Some(depth.max(1));
        self
    }

    /// The policy driving decisions. Required before [`Self::run`];
    /// rejected by the sweep terminals (they build their own policies).
    #[must_use]
    pub fn policy(mut self, policy: &'a mut dyn CachePolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Price WAN traffic per home-server link (default: uniform/BYU).
    #[must_use]
    pub fn network(mut self, network: &'a dyn NetworkModel) -> Self {
        self.network = network;
        self
    }

    /// Resolve WAN transfers through a fault model (default: none — the
    /// exact fault-free path).
    #[must_use]
    pub fn faults(mut self, model: &'a dyn FaultModel) -> Self {
        self.faults = Some(model);
        self
    }

    /// Retry bounds and backoff for faulted transfers. Meaningless
    /// without [`Self::faults`].
    #[must_use]
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// What to do when a slice's retry budget is exhausted (default:
    /// serve the stale local copy).
    #[must_use]
    pub fn degrade(mut self, degradation: DegradationPolicy) -> Self {
        self.degradation = degradation;
        self
    }

    /// Ride an extra [`Observer`] on the replay (repeatable). The
    /// observer sees exactly the event stream that produces the returned
    /// [`Replay`], so its totals cannot drift from the report.
    #[must_use]
    pub fn observe(mut self, observer: &'a mut dyn Observer) -> Self {
        self.observers.push(observer);
        self
    }

    /// Force decision-stream auditing on (even in release builds).
    /// Violations are reported in [`Replay::audit`], never panicked on.
    #[must_use]
    pub fn audited(mut self) -> Self {
        self.audit = Some(true);
        self
    }

    /// Force auditing off (even in debug builds).
    #[must_use]
    pub fn unaudited(mut self) -> Self {
        self.audit = Some(false);
        self
    }

    /// Replay over a tier hierarchy instead of the flat client↔server
    /// WAN: every link is priced by the topology (superseding
    /// [`Self::network`]), each caching tier runs its own policy, and a
    /// miss bypasses one hop *up* instead of straight to the origin.
    /// Requires exactly [`Topology::depth`] policies via
    /// [`Self::tier_policy`] (bottom-up) instead of [`Self::policy`].
    #[must_use]
    pub fn topology(mut self, topology: &'a Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Append the next tier's policy, bottom-up: the first call binds
    /// the site tier, the last the tier below the origin. Only
    /// meaningful with [`Self::topology`]; the policy bound carries
    /// `Send + Sync` because tier hierarchies are sweep-shareable.
    #[must_use]
    pub fn tier_policy(mut self, policy: &'a mut (dyn CachePolicy + Send + Sync)) -> Self {
        self.tier_policies.push(policy);
        self
    }

    /// Replay the trace through the configured policy (or, with
    /// [`Self::topology`], through the configured tier hierarchy).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when no policy was configured, or when
    /// the tiered configuration is inconsistent (a flat `.policy(...)`
    /// alongside a topology, or a tier-policy count that does not match
    /// the topology's depth); IO and format errors from a trace reader.
    pub fn run(self) -> Result<Replay> {
        let audit_enabled = self.audit.unwrap_or(cfg!(debug_assertions));
        let ReplaySession {
            mut source,
            objects,
            network,
            faults,
            retry,
            degradation,
            topology,
            tier_policies,
            policy,
            mut observers,
            flight_recorder,
            ..
        } = self;
        // The tier stack, bottom-up: a flat session is one tier.
        let mut tiers: Vec<&mut dyn CachePolicy> =
            match (topology, policy) {
                (None, Some(policy)) if tier_policies.is_empty() => vec![policy],
                (None, None) if tier_policies.is_empty() => {
                    return Err(Error::InvalidConfig(
                        "ReplaySession::run needs a policy; call .policy(...) first \
                     (or use a sweep terminal, which builds its own)"
                            .into(),
                    ))
                }
                (None, _) => return Err(Error::InvalidConfig(
                    "tier policies need a topology; call .topology(...) before .tier_policy(...)"
                        .into(),
                )),
                (Some(_), Some(_)) => {
                    return Err(Error::InvalidConfig(
                        "tiered sessions take one policy per tier via .tier_policy(...); \
                     don't call .policy(...) alongside .topology(...)"
                            .into(),
                    ))
                }
                (Some(topology), None) => {
                    if tier_policies.len() != topology.depth() {
                        return Err(Error::InvalidConfig(format!(
                            "topology {} has {} tiers but {} tier policies were configured",
                            topology.name(),
                            topology.depth(),
                            tier_policies.len()
                        )));
                    }
                    tier_policies
                        .into_iter()
                        .map(|p| p as &mut dyn CachePolicy)
                        .collect()
                }
            };
        let mut engine = match topology {
            Some(topology) => ReplayEngine::with_topology(objects, topology),
            None => ReplayEngine::with_network(objects, network),
        };
        let plan = faults.map(|model| FaultPlan {
            model,
            retry,
            degradation,
        });
        if let Some(plan) = plan {
            engine = engine.with_faults(plan);
        }

        let label = tiers.first().map(|p| p.name()).unwrap_or_default();
        let mut cost = CostObserver::new(label, source.name(), objects.granularity().label());
        // One audit per tier: each tier's decision stream is its own cache.
        let mut audits: Vec<AuditObserver> = if audit_enabled {
            (0..tiers.len())
                .map(|t| AuditObserver::for_tier(u32::try_from(t).unwrap_or(u32::MAX)))
                .collect()
        } else {
            Vec::new()
        };
        let mut recorder =
            flight_recorder.map(|k| FlightRecorder::new(k).with_context(fault_context(plan)));
        let mut warnings = Vec::new();
        {
            // Audits lead: they all want accesses, so the stable
            // partition keeps them at `0..audits.len()` for the close-out.
            let audit_count = audits.len();
            let mut all: Vec<&mut dyn Observer> =
                Vec::with_capacity(audit_count + 1 + observers.len());
            for audit in audits.iter_mut() {
                all.push(audit);
            }
            if let Some(recorder) = recorder.as_mut() {
                all.push(recorder);
            }
            for obs in observers.iter_mut() {
                all.push(&mut **obs);
            }
            let access_count = partition_access_observers(&mut all);
            let mut index = 0usize;
            let mut skipped = Unresolved::default();
            while let Some(chunk) = source.next()? {
                for query in chunk.as_slice() {
                    // The cost observer's window is the kernel's fold
                    // target; only its query bookkeeping runs here.
                    cost.on_query_start(index, query);
                    skipped.add(engine.serve_query(
                        index,
                        query,
                        &mut tiers,
                        &mut cost.window,
                        &mut all,
                        access_count,
                    ));
                    cost.on_query_end(index, query);
                    index += 1;
                }
            }
            warnings.extend(skipped.warning(objects.granularity()));
            // Each tier's audit deep-checks its own tier's policy; every
            // other observer sees the site tier's.
            let site = tiers.first().map(|p| &**p as &dyn CachePolicy);
            for (i, obs) in all.iter_mut().enumerate() {
                let policy = match i < audit_count {
                    true => tiers.get(i).map(|p| &**p as &dyn CachePolicy),
                    false => site,
                };
                obs.finish(policy);
                warnings.extend(obs.warnings());
            }
        }
        let report = cost.into_report();
        debug_assert!(report.conserves_delivery());
        Ok(Replay {
            report,
            audit: merge_audits(audits.into_iter().map(AuditObserver::into_report)),
            warnings,
            postmortems: recorder
                .map(FlightRecorder::into_postmortems)
                .unwrap_or_default(),
        })
    }

    /// Replay every (policy, cache-fraction) pair of
    /// [`SweepOptions`]' grid in parallel under this session's
    /// network/fault/audit configuration. Results are ordered by policy
    /// then fraction; per-job observers configured via
    /// [`SweepOptions::observe`] land in their sink in the same order.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when a policy or extra observers were
    /// configured (sweeps build their own per job), when the session
    /// streams off a reader (sweeps replay one in-memory trace), or when
    /// a fraction is not positive.
    pub fn sweep<O: Observer + Send>(
        self,
        options: SweepOptions<'_, O>,
    ) -> Result<Vec<SweepPoint>> {
        let SweepOptions {
            policies,
            fractions,
            demands,
            seed,
            observe,
        } = options;
        let (make, sink) = match observe {
            Some(crate::sweep::SweepObserve { make, sink }) => (Some(make), Some(sink)),
            None => (None, None),
        };
        let results = self.sweep_inner(policies, fractions, demands, seed, make)?;
        let mut points = Vec::with_capacity(results.len());
        let mut observers = Vec::new();
        for (point, observer) in results {
            points.push(point);
            observers.extend(observer);
        }
        if let Some(sink) = sink {
            sink.extend(observers);
        }
        Ok(points)
    }

    /// The shared sweep implementation: one session per grid point, all
    /// run on scoped worker threads over the same trace.
    fn sweep_inner<O: Observer + Send>(
        self,
        policies: &[PolicyKind],
        fractions: &[f64],
        demands: &[ObjectDemand],
        seed: u64,
        make_observer: Option<&dyn Fn(PolicyKind, f64) -> O>,
    ) -> Result<Vec<(SweepPoint, Option<O>)>> {
        if self.policy.is_some() {
            return Err(Error::InvalidConfig(
                "sweep terminals build one policy per (kind, fraction) job; \
                 don't call .policy(...) before .sweep(...)"
                    .into(),
            ));
        }
        if !self.observers.is_empty() {
            return Err(Error::InvalidConfig(
                "sweep observers come from SweepOptions::observe; \
                 don't call .observe(...) before .sweep(...)"
                    .into(),
            ));
        }
        if !self.tier_policies.is_empty() {
            return Err(Error::InvalidConfig(
                "sweep terminals build one policy per tier per job from the \
                 topology; don't call .tier_policy(...) before .sweep(...)"
                    .into(),
            ));
        }
        for &f in fractions {
            if f <= 0.0 {
                return Err(Error::InvalidConfig(format!(
                    "cache fraction must be positive, got {f}"
                )));
            }
        }
        let ReplaySession {
            source,
            objects,
            network,
            faults,
            retry,
            degradation,
            audit,
            topology,
            ..
        } = self;
        let ChunkSource::Memory { trace, .. } = source else {
            return Err(Error::InvalidConfig(
                "sweeps replay one in-memory trace across the whole grid; \
                 a reader-backed session cannot sweep"
                    .into(),
            ));
        };
        let db = objects.total_size();
        let mut jobs: Vec<(PolicyKind, f64, Option<O>)> = Vec::new();
        for &kind in policies {
            for &f in fractions {
                let observer = make_observer.map(|make| make(kind, f));
                jobs.push((kind, f, observer));
            }
        }

        let results: Result<Vec<(SweepPoint, Option<O>)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .into_iter()
                .map(|(kind, fraction, mut observer)| {
                    scope.spawn(move || -> Result<(SweepPoint, Option<O>)> {
                        // Site-tier capacity; on a topology, inner tiers
                        // scale it by their spec's `capacity_scale`.
                        let capacity = db.scale(fraction);
                        let mut flat_policy: Option<Box<dyn CachePolicy + Send + Sync>> = None;
                        let mut tier_boxes: Vec<Box<dyn CachePolicy + Send + Sync>>;
                        let mut session = ReplaySession::new(trace, objects)
                            .retry(retry)
                            .degrade(degradation);
                        match topology {
                            Some(topo) => {
                                tier_boxes = topo
                                    .tiers()
                                    .iter()
                                    .map(|spec| {
                                        build_policy(
                                            kind,
                                            db.scale(fraction * spec.capacity_scale),
                                            demands,
                                            seed,
                                        )
                                    })
                                    .collect();
                                session = session.topology(topo);
                                for p in tier_boxes.iter_mut() {
                                    session = session.tier_policy(p.as_mut());
                                }
                            }
                            None => {
                                let policy =
                                    flat_policy.insert(build_policy(kind, capacity, demands, seed));
                                session = session.network(network).policy(policy.as_mut());
                            }
                        }
                        if let Some(obs) = observer.as_mut() {
                            session = session.observe(obs);
                        }
                        if let Some(model) = faults {
                            session = session.faults(model);
                        }
                        session = match audit {
                            Some(true) => session.audited(),
                            Some(false) => session.unaudited(),
                            None => session,
                        };
                        let replay = session.run()?;
                        debug_assert_audit(&replay);
                        Ok((
                            SweepPoint {
                                policy: kind.label().to_string(),
                                cache_fraction: fraction,
                                capacity,
                                report: replay.report,
                                warnings: replay.warnings,
                            },
                            observer,
                        ))
                    })
                })
                .collect();
            handles
                .into_iter()
                // Re-raise a worker's panic with its original payload
                // intact instead of masking it behind a generic message.
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        results
    }
}

/// Merge per-tier audit reports into one session-level report: counters
/// and served-byte tallies sum, violation excerpts concatenate (the
/// exact count lives in `violation_count`).
fn merge_audits(reports: impl Iterator<Item = AuditReport>) -> Option<AuditReport> {
    reports.reduce(|mut acc, r| {
        acc.accesses += r.accesses;
        acc.hits += r.hits;
        acc.bypasses += r.bypasses;
        acc.loads += r.loads;
        acc.evictions += r.evictions;
        acc.cache_served += r.cache_served;
        acc.bypass_served += r.bypass_served;
        acc.load_cost += r.load_cost;
        acc.deep_checks += r.deep_checks;
        acc.violation_count += r.violation_count;
        acc.violations.extend(r.violations);
        acc
    })
}

/// One-shot replay returning just the report (test helper).
#[cfg(test)]
pub(crate) fn run_report(
    trace: &Trace,
    objects: &ObjectCatalog,
    policy: &mut dyn CachePolicy,
) -> crate::accounting::CostReport {
    match ReplaySession::new(trace, objects).policy(policy).run() {
        Ok(replay) => {
            debug_assert_audit(&replay);
            replay.report
        }
        // Unreachable: the policy is always set above.
        Err(_) => crate::accounting::CostReport::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Breakdown, QueryWindow};
    use crate::faults::{FlakyLinks, LinkScoped, NoFaults, Outage, OutageWindows};
    use crate::network::{PerServerMultipliers, Uniform};
    use byc_catalog::sdss::{build, SdssRelease};
    use byc_catalog::Granularity;
    use byc_core::rate_profile::{RateProfile, RateProfileConfig};
    use byc_core::static_opt::NoCache;
    use byc_types::{Bytes, ServerId, Tick};
    use byc_workload::{generate, WorkloadConfig, WorkloadStats};

    fn setup(servers: u32, queries: usize) -> (Trace, ObjectCatalog) {
        let cat = build(SdssRelease::Edr, 1e-3, servers);
        let trace = generate(&cat, &WorkloadConfig::smoke(43, queries)).unwrap();
        let objects = ObjectCatalog::uniform(&cat, Granularity::Column);
        (trace, objects)
    }

    #[test]
    fn run_without_policy_is_a_config_error() {
        let (trace, objects) = setup(1, 100);
        let err = ReplaySession::new(&trace, &objects).run().unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn sweep_with_policy_is_a_config_error() {
        let (trace, objects) = setup(1, 100);
        let stats = WorkloadStats::compute(&trace, &objects);
        let mut p = NoCache;
        let err = ReplaySession::new(&trace, &objects)
            .policy(&mut p)
            .sweep(SweepOptions::new(
                &[PolicyKind::NoCache],
                &[0.5],
                &stats.demands,
                1,
            ))
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn sweep_rejects_non_positive_fractions() {
        let (trace, objects) = setup(1, 100);
        let stats = WorkloadStats::compute(&trace, &objects);
        let err = ReplaySession::new(&trace, &objects)
            .sweep(SweepOptions::new(
                &[PolicyKind::NoCache],
                &[0.0],
                &stats.demands,
                1,
            ))
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn no_faults_model_is_bit_identical_to_no_fault_layer() {
        let (trace, objects) = setup(2, 800);
        let cap = objects.total_size().scale(0.3);
        let plain = {
            let mut p = RateProfile::new(cap, RateProfileConfig::default());
            ReplaySession::new(&trace, &objects)
                .policy(&mut p)
                .run()
                .unwrap()
                .report
        };
        let faulted = {
            let mut p = RateProfile::new(cap, RateProfileConfig::default());
            ReplaySession::new(&trace, &objects)
                .policy(&mut p)
                .faults(&NoFaults)
                .retry(RetryPolicy::new(3, 10))
                .run()
                .unwrap()
                .report
        };
        assert_eq!(plain, faulted);
        assert_eq!(faulted.retried_bytes, Bytes::ZERO);
        assert_eq!(faulted.failed_queries, 0);
        assert_eq!(faulted.degraded_queries, 0);
    }

    #[test]
    fn outage_with_stale_degradation_degrades_queries() {
        let (trace, objects) = setup(1, 600);
        let model = OutageWindows::new(vec![Outage {
            server: ServerId::new(0),
            from: Tick::new(100),
            until: Tick::new(200),
        }]);
        let mut p = NoCache;
        let replay = ReplaySession::new(&trace, &objects)
            .policy(&mut p)
            .faults(&model)
            .run()
            .unwrap();
        let report = replay.report;
        assert!(report.degraded_queries > 0);
        assert_eq!(report.failed_queries, 0);
        assert_eq!(report.failed_bytes, Bytes::ZERO);
        // Stale-served slices moved delivery from bypass to cache tier.
        assert!(report.cache_served > Bytes::ZERO);
        assert!(report.conserves_delivery());
        // Single attempts against a downed server waste one transfer each.
        assert!(report.retried_bytes > Bytes::ZERO);
        assert!((report.availability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn outage_with_fail_degradation_fails_queries_and_reconciles() {
        let (trace, objects) = setup(1, 600);
        let model = OutageWindows::new(vec![Outage {
            server: ServerId::new(0),
            from: Tick::new(100),
            until: Tick::new(200),
        }]);
        let run_free = || {
            let mut p = NoCache;
            run_report(&trace, &objects, &mut p)
        };
        let mut p = NoCache;
        let faulted = ReplaySession::new(&trace, &objects)
            .policy(&mut p)
            .faults(&model)
            .degrade(DegradationPolicy::Fail)
            .run()
            .unwrap()
            .report;
        let free = run_free();
        assert!(faulted.failed_queries > 0);
        assert!(faulted.failed_bytes > Bytes::ZERO);
        assert!(faulted.availability() < 1.0);
        // Reconciliation: delivery lost to failures accounts exactly for
        // the gap to the fault-free replay.
        assert_eq!(
            faulted.sequence_cost + faulted.failed_bytes,
            free.sequence_cost
        );
        // Decision streams are fault-independent.
        assert_eq!(faulted.bypasses, free.bypasses);
        assert_eq!(faulted.hits, free.hits);
        assert_eq!(faulted.loads, free.loads);
        assert!(faulted.conserves_delivery());
    }

    #[test]
    fn retries_ride_out_outages_and_charge_wasted_traffic() {
        let (trace, objects) = setup(1, 600);
        let model = OutageWindows::new(vec![Outage {
            server: ServerId::new(0),
            from: Tick::new(100),
            until: Tick::new(110),
        }]);
        let mut p = NoCache;
        let replay = ReplaySession::new(&trace, &objects)
            .policy(&mut p)
            .faults(&model)
            .retry(RetryPolicy::new(4, 16))
            .degrade(DegradationPolicy::Fail)
            .run()
            .unwrap();
        let report = replay.report;
        // Attempt 3 runs at t+48, past the 10-tick window: nothing fails.
        assert_eq!(report.failed_queries, 0);
        assert!(report.retries > 0);
        assert!(report.retried_bytes > Bytes::ZERO);
        assert!(report.total_cost() > report.bypass_cost + report.fetch_cost);
    }

    #[test]
    fn same_seed_flaky_replays_are_bit_identical() {
        let (trace, objects) = setup(2, 500);
        let cap = objects.total_size().scale(0.3);
        let run = |seed: u64| {
            let model = FlakyLinks::new(seed, 0.05, 0.1, 4.0);
            let mut p = RateProfile::new(cap, RateProfileConfig::default());
            ReplaySession::new(&trace, &objects)
                .policy(&mut p)
                .faults(&model)
                .retry(RetryPolicy::new(2, 4))
                .run()
                .unwrap()
                .report
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn flaky_spikes_inflate_wan_cost() {
        let (trace, objects) = setup(1, 500);
        let mut p = NoCache;
        let spiked = ReplaySession::new(&trace, &objects)
            .policy(&mut p)
            .faults(&FlakyLinks::new(3, 0.0, 0.5, 8.0))
            .run()
            .unwrap()
            .report;
        let mut p = NoCache;
        let free = run_report(&trace, &objects, &mut p);
        assert!(spiked.bypass_cost > free.bypass_cost);
        // Spikes are WAN-priced, not delivered bytes: delivery identical.
        assert_eq!(spiked.sequence_cost, free.sequence_cost);
        assert_eq!(spiked.bypass_served, free.bypass_served);
    }

    #[test]
    fn faulted_series_ends_at_total_cost() {
        let (trace, objects) = setup(1, 500);
        let mut p = NoCache;
        let mut breakdown = Breakdown::every(100);
        let replay = ReplaySession::new(&trace, &objects)
            .policy(&mut p)
            .faults(&FlakyLinks::new(5, 0.1, 0.0, 1.0))
            .retry(RetryPolicy::new(2, 1))
            .observe(&mut breakdown)
            .run()
            .unwrap();
        let series = breakdown.series();
        let last = series.last().unwrap();
        assert_eq!(last.cumulative_cost, replay.report.total_cost());
        for w in series.windows(2) {
            assert!(w[1].cumulative_cost >= w[0].cumulative_cost);
        }
    }

    #[test]
    fn sweep_under_faults_covers_grid_and_reconciles() {
        let (trace, objects) = setup(2, 500);
        let stats = WorkloadStats::compute(&trace, &objects);
        let model = FlakyLinks::new(9, 0.02, 0.05, 2.0);
        let points = ReplaySession::new(&trace, &objects)
            .faults(&model)
            .retry(RetryPolicy::new(2, 2))
            .sweep(SweepOptions::new(
                &[PolicyKind::RateProfile, PolicyKind::NoCache],
                &[0.2, 0.5],
                &stats.demands,
                1,
            ))
            .unwrap();
        assert_eq!(points.len(), 4);
        for p in &points {
            assert!(p.report.conserves_delivery(), "{}", p.policy);
        }
    }

    #[test]
    fn degenerate_topology_matches_flat_network() {
        let (trace, objects) = setup(2, 500);
        let cap = objects.total_size().scale(0.3);
        let net = PerServerMultipliers::new(vec![1.0, 2.0]).unwrap();
        let flat = {
            let mut p = RateProfile::new(cap, RateProfileConfig::default());
            ReplaySession::new(&trace, &objects)
                .network(&net)
                .policy(&mut p)
                .run()
                .unwrap()
                .report
        };
        let topo = Topology::flat(Box::new(PerServerMultipliers::new(vec![1.0, 2.0]).unwrap()));
        let mut p = RateProfile::new(cap, RateProfileConfig::default());
        let tiered = ReplaySession::new(&trace, &objects)
            .topology(&topo)
            .tier_policy(&mut p)
            .run()
            .unwrap()
            .report;
        assert_eq!(flat, tiered);
        assert_eq!(tiered.relay_cost, Bytes::ZERO);
    }

    #[test]
    fn degenerate_topology_matches_flat_network_under_faults() {
        let (trace, objects) = setup(2, 500);
        let cap = objects.total_size().scale(0.3);
        let model = FlakyLinks::new(7, 0.05, 0.1, 4.0);
        let flat = {
            let mut p = RateProfile::new(cap, RateProfileConfig::default());
            ReplaySession::new(&trace, &objects)
                .policy(&mut p)
                .faults(&model)
                .retry(RetryPolicy::new(2, 4))
                .run()
                .unwrap()
                .report
        };
        let topo = Topology::flat(Box::new(Uniform));
        let mut p = RateProfile::new(cap, RateProfileConfig::default());
        let tiered = ReplaySession::new(&trace, &objects)
            .topology(&topo)
            .tier_policy(&mut p)
            .faults(&model)
            .retry(RetryPolicy::new(2, 4))
            .run()
            .unwrap()
            .report;
        assert_eq!(flat, tiered);
    }

    #[test]
    fn regional_cache_absorbs_origin_outage() {
        let (trace, objects) = setup(1, 600);
        let outage = OutageWindows::new(vec![Outage {
            server: ServerId::new(0),
            from: Tick::new(100),
            until: Tick::new(400),
        }]);
        // Fault only the origin link; the inner site↔regional link
        // stays healthy.
        let model = LinkScoped::new(outage, 1);
        let run = |regional_kind: PolicyKind| {
            let topo = Topology::two_tier(0.25, Box::new(Uniform)).unwrap();
            let mut site = build_policy(PolicyKind::NoCache, Bytes::ZERO, &[], 0);
            let mut regional = build_policy(regional_kind, objects.total_size(), &[], 0);
            ReplaySession::new(&trace, &objects)
                .topology(&topo)
                .tier_policy(site.as_mut())
                .tier_policy(regional.as_mut())
                .faults(&model)
                .degrade(DegradationPolicy::Fail)
                .run()
                .unwrap()
                .report
        };
        let cold = run(PolicyKind::NoCache);
        let warm = run(PolicyKind::Lru);
        // With no regional cache every slice crosses the dead origin link.
        assert!(cold.availability() < 1.0);
        // A warm regional cache serves its hits below the outage.
        assert!(warm.availability() > cold.availability());
        assert!(warm.failed_bytes < cold.failed_bytes);
        assert!(warm.relay_cost > Bytes::ZERO);
        assert!(warm.conserves_delivery() && cold.conserves_delivery());
    }

    #[test]
    fn per_tier_windows_sum_to_the_report() {
        let (trace, objects) = setup(2, 400);
        let topo = Topology::three_tier(0.1, 0.25, Box::new(Uniform)).unwrap();
        // Bypass-yield policies actually forward misses up the
        // hierarchy (in-line policies like GDS load on every miss and
        // would keep the walk pinned at the site tier).
        let mut site = build_policy(
            PolicyKind::RateProfile,
            objects.total_size().scale(0.05),
            &[],
            0,
        );
        let mut regional = build_policy(
            PolicyKind::RateProfile,
            objects.total_size().scale(0.3),
            &[],
            0,
        );
        let mut national = build_policy(PolicyKind::Lru, objects.total_size(), &[], 0);
        let mut breakdown = Breakdown::new();
        let replay = ReplaySession::new(&trace, &objects)
            .topology(&topo)
            .tier_policy(site.as_mut())
            .tier_policy(regional.as_mut())
            .tier_policy(national.as_mut())
            .observe(&mut breakdown)
            .run()
            .unwrap();
        let windows = breakdown.tiers();
        assert!(windows.len() >= 2, "expected several consulted tiers");
        let r = &replay.report;
        let sum =
            |f: &dyn Fn(&QueryWindow) -> Bytes| windows.iter().map(|(_, w)| f(w)).sum::<Bytes>();
        assert_eq!(sum(&|w| w.bypass_cost), r.bypass_cost);
        assert_eq!(sum(&|w| w.fetch_cost), r.fetch_cost);
        assert_eq!(sum(&|w| w.relay_cost), r.relay_cost);
        assert_eq!(sum(&|w| w.cache_served), r.cache_served);
        assert_eq!(sum(&|w| w.bypass_served), r.bypass_served);
        assert!(r.relay_cost > Bytes::ZERO);
        assert!(r.conserves_delivery());
    }

    #[test]
    fn topology_with_flat_policy_is_a_config_error() {
        let (trace, objects) = setup(1, 50);
        let topo = Topology::flat(Box::new(Uniform));
        let mut p = NoCache;
        let err = ReplaySession::new(&trace, &objects)
            .topology(&topo)
            .policy(&mut p)
            .run()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn tier_policy_count_must_match_topology_depth() {
        let (trace, objects) = setup(1, 50);
        let topo = Topology::two_tier(0.5, Box::new(Uniform)).unwrap();
        let mut p = NoCache;
        let err = ReplaySession::new(&trace, &objects)
            .topology(&topo)
            .tier_policy(&mut p)
            .run()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn tier_policy_without_topology_is_a_config_error() {
        let (trace, objects) = setup(1, 50);
        let mut p = NoCache;
        let err = ReplaySession::new(&trace, &objects)
            .tier_policy(&mut p)
            .run()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn sweep_with_tier_policy_is_a_config_error() {
        let (trace, objects) = setup(1, 50);
        let stats = WorkloadStats::compute(&trace, &objects);
        let topo = Topology::flat(Box::new(Uniform));
        let mut p = NoCache;
        let err = ReplaySession::new(&trace, &objects)
            .topology(&topo)
            .tier_policy(&mut p)
            .sweep(SweepOptions::new(
                &[PolicyKind::NoCache],
                &[0.5],
                &stats.demands,
                1,
            ))
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err:?}");
    }

    /// The 300-query smoke trace at `granularity`, plus a copy whose
    /// every query also names one reference the catalog cannot resolve,
    /// carrying as many bytes as the query's real references; returns
    /// both with the catalog view and the bytes the unknown references
    /// carry.
    fn with_unknown_refs(granularity: Granularity) -> (Trace, Trace, ObjectCatalog, Bytes) {
        let cat = build(SdssRelease::Edr, 1e-3, 1);
        let trace = generate(&cat, &WorkloadConfig::smoke(43, 300)).unwrap();
        let objects = ObjectCatalog::uniform(&cat, granularity);
        let mut tainted = trace.clone();
        let mut unknown = Bytes::ZERO;
        for q in &mut tainted.queries {
            match granularity {
                Granularity::Table => {
                    let bytes = q.table_yields.iter().map(|&(_, y)| y).sum();
                    q.table_yields
                        .push((byc_types::TableId::new(u32::MAX), bytes));
                    unknown += bytes;
                }
                Granularity::Column => {
                    let bytes = q.column_yields.iter().map(|&(_, y)| y).sum();
                    q.column_yields
                        .push((byc_types::ColumnId::new(u32::MAX), bytes));
                    unknown += bytes;
                }
            }
        }
        (trace, tainted, objects, unknown)
    }

    /// Unresolvable references are skipped — the report equals the clean
    /// trace's — and reported as one replay warning, on a run and on
    /// every sweep point.
    fn unresolvable_refs_are_reported(granularity: Granularity) {
        let (trace, tainted, objects, unknown) = with_unknown_refs(granularity);
        let expected = format!(
            "300 trace references ({unknown} of results) name no {} in the catalog; \
             they were skipped and their bytes are in no report column",
            granularity.label()
        );
        let replay = |t: &Trace| {
            let mut p = NoCache;
            ReplaySession::new(t, &objects)
                .policy(&mut p)
                .run()
                .unwrap()
        };
        let clean = replay(&trace);
        let skipped = replay(&tainted);
        assert!(clean.warnings.is_empty(), "{:?}", clean.warnings);
        assert_eq!(skipped.warnings, vec![expected.clone()]);
        assert_eq!(skipped.report, clean.report);

        let stats = WorkloadStats::compute(&tainted, &objects);
        let points = ReplaySession::new(&tainted, &objects)
            .sweep(SweepOptions::new(
                &[PolicyKind::NoCache, PolicyKind::RateProfile],
                &[0.1, 0.5],
                &stats.demands,
                1,
            ))
            .unwrap();
        assert_eq!(points.len(), 4);
        for point in &points {
            assert_eq!(point.warnings, vec![expected.clone()], "{}", point.policy);
        }
    }

    #[test]
    fn unresolvable_table_refs_are_reported() {
        unresolvable_refs_are_reported(Granularity::Table);
    }

    #[test]
    fn unresolvable_column_refs_are_reported() {
        unresolvable_refs_are_reported(Granularity::Column);
    }
}
