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
//!     .policy(policy.as_mut())      // one per caching tier, bottom-up
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
//! Every run drives the one per-query kernel, `ReplayEngine`, over one
//! stack of tier policies. The session's links — a flat network
//! ([`Self::network`](ReplaySession::network)) or a [`Topology`]
//! ([`Self::topology`](ReplaySession::topology)), whichever was set
//! last — fix the stack's depth: one tier on the flat WAN, one per
//! topology tier. The kernel replays a [`ReplayTrace`]: a session
//! borrows one, or converts a [`Trace`] into one of its own when it is
//! built. `ReplaySession::from_reader(&mut reader, &mut chunk, &objects)`
//! streams a trace file through the same kernel a chunk at a time,
//! refilling `chunk` in place, instead of holding it in memory
//! (DESIGN.md §17).
//!
//! A sweep runs its grid on a pool of `available_parallelism()` scoped
//! workers, all reading the session's one resident [`ReplayTrace`]. A
//! job is one replay: of one (kind, fraction) grid point, or of a kind
//! that [ignores capacity](PolicyKind::ignores_capacity) for every
//! fraction at once, with each fraction's observer on the one session.
//! Workers pull jobs off one atomic index, those that make more grid
//! points first, then in grid order, and the points come back in grid
//! order.
//!
//! Configuration errors (a policy count that does not match the depth
//! before `run`, a policy before `sweep`) surface as
//! [`byc_types::Error::InvalidConfig`] — the crate has a no-panic lint,
//! so the builder never panics on misuse.

use crate::engine::{
    partition_access_observers, AuditObserver, CostObserver, Links, Observer, ReplayEngine,
};
use crate::faults::{DegradationPolicy, FaultModel, FaultPlan, RetryPolicy, NO_RETRY};
use crate::network::{NetworkModel, Topology};
use crate::policies::{build_policy, PolicyKind};
use crate::simulator::Replay;
use crate::stream::ChunkSource;
use crate::sweep::{SweepOptions, SweepPoint};
use byc_catalog::ObjectCatalog;
use byc_core::audit::AuditReport;
use byc_core::policy::CachePolicy;
use byc_types::{Error, Result};
use byc_workload::{ReplayTrace, Trace, TraceQuery, TraceReader, Unresolved};
use std::borrow::Cow;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// A resident trace for [`ReplaySession::new`].
#[derive(Clone, Copy, Debug)]
pub enum Resident<'a> {
    /// A trace, converted once into a [`ReplayTrace`] the session owns.
    Trace(&'a Trace),
    /// A replay trace the session borrows; it must have been resolved
    /// against the session's object catalog.
    Replay(&'a ReplayTrace),
}

impl<'a> From<&'a Trace> for Resident<'a> {
    fn from(trace: &'a Trace) -> Self {
        Resident::Trace(trace)
    }
}

impl<'a> From<&'a ReplayTrace> for Resident<'a> {
    fn from(trace: &'a ReplayTrace) -> Self {
        Resident::Replay(trace)
    }
}

/// A configured replay over one trace and object view. See the module
/// docs for the grammar; terminals are [`ReplaySession::run`] and
/// [`ReplaySession::sweep`].
pub struct ReplaySession<'a> {
    source: ChunkSource<'a>,
    objects: &'a ObjectCatalog,
    links: Links<'a>,
    faults: Option<&'a dyn FaultModel>,
    retry: RetryPolicy,
    degradation: DegradationPolicy,
    audit: Option<bool>,
    /// The tier policies, bottom-up: the first is the site tier's.
    tiers: Vec<&'a mut dyn CachePolicy>,
    observers: Vec<&'a mut dyn Observer>,
}

impl std::fmt::Debug for ReplaySession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplaySession")
            .field("trace", &self.source.trace().name())
            .field("links", &self.links.name())
            .field("faults", &self.faults.map(FaultModel::name))
            .field("retry", &self.retry)
            .field("degradation", &self.degradation)
            .field("audit", &self.audit)
            .field("tiers", &self.tiers.len())
            .field("observers", &self.observers.len())
            .finish_non_exhaustive()
    }
}

impl<'a> ReplaySession<'a> {
    /// A session over a resident trace at the granularity of `objects`,
    /// on a uniform network, fault-free, with auditing following the
    /// build profile (on in debug, off in release) and no extra
    /// observers. A [`Trace`] is converted into a [`ReplayTrace`] here,
    /// once; a [`ReplayTrace`] is borrowed.
    pub fn new(trace: impl Into<Resident<'a>>, objects: &'a ObjectCatalog) -> Self {
        let trace = match trace.into() {
            Resident::Trace(trace) => Cow::Owned(ReplayTrace::from_trace(trace, objects)),
            Resident::Replay(trace) => Cow::Borrowed(trace),
        };
        Self::build(ChunkSource::resident(trace), objects)
    }

    /// A session streaming queries off `reader` instead of an in-memory
    /// trace: queries are decoded and resolved into `chunk` a chunk at a
    /// time and replayed as they arrive, so memory stays constant in the
    /// trace length. Queries `chunk` already holds, refilled off `reader`
    /// against `objects` (such as a sample the caller judged), are
    /// replayed first, so each query is decoded once; pass an empty
    /// [`ReplayTrace::new`] to start at the reader. The sweep terminal
    /// (which replays the trace once per grid point) is unavailable.
    pub fn from_reader(
        reader: &'a mut TraceReader,
        chunk: &'a mut ReplayTrace,
        objects: &'a ObjectCatalog,
    ) -> Self {
        Self::build(ChunkSource::reader(reader, chunk, objects), objects)
    }

    fn build(source: ChunkSource<'a>, objects: &'a ObjectCatalog) -> Self {
        ReplaySession {
            source,
            objects,
            links: Links::Flat(&crate::network::UNIFORM),
            faults: None,
            retry: NO_RETRY,
            degradation: DegradationPolicy::default(),
            audit: None,
            tiers: Vec::new(),
            observers: Vec::new(),
        }
    }

    /// Append the next caching tier's policy, bottom-up: the first call
    /// binds the site tier. [`Self::run`] needs one per tier of the
    /// session's links — exactly one on the flat WAN; the sweep
    /// terminals build their own and reject any.
    #[must_use]
    pub fn policy(mut self, policy: &'a mut dyn CachePolicy) -> Self {
        self.tiers.push(policy);
        self
    }

    /// Replay over the flat client↔server WAN, pricing traffic per
    /// home-server link: one caching tier (the default, under the
    /// uniform/BYU network). Replaces a [`Self::topology`].
    #[must_use]
    pub fn network(mut self, network: &'a dyn NetworkModel) -> Self {
        self.links = Links::Flat(network);
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
    /// WAN: every link is priced by the topology, each caching tier runs
    /// its own policy, and a miss bypasses one hop *up* instead of
    /// straight to the origin. Requires exactly [`Topology::depth`]
    /// policies, bottom-up. Replaces a [`Self::network`].
    #[must_use]
    pub fn topology(mut self, topology: &'a Topology) -> Self {
        self.links = Links::Tiered(topology);
        self
    }

    /// Append the next tier's policy, bottom-up: [`Self::policy`]
    /// under the name tiered callers use.
    #[must_use]
    pub fn tier_policy(self, policy: &'a mut (dyn CachePolicy + Send + Sync)) -> Self {
        self.policy(policy)
    }

    /// Replay the trace through the configured tier policies.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when the number of policies is not the
    /// depth of the session's links (one on the flat WAN), when a
    /// borrowed [`ReplayTrace`] was resolved against another catalog
    /// view, or when the trace's total yield overflows a u64 (a streamed
    /// trace is refused at the chunk in which it does, with every query
    /// before that chunk served and none of it); IO and format errors
    /// from a trace reader.
    pub fn run(self) -> Result<Replay> {
        let audit_enabled = self.audit.unwrap_or(cfg!(debug_assertions));
        let ReplaySession {
            mut source,
            objects,
            links,
            faults,
            retry,
            degradation,
            mut tiers,
            mut observers,
            ..
        } = self;
        if tiers.len() != links.depth() {
            return Err(Error::InvalidConfig(format!(
                "{} has {} caching tier(s) but {} policies were configured; \
                 call .policy(...) once per tier, bottom-up",
                links.name(),
                links.depth(),
                tiers.len()
            )));
        }
        if !source.trace().fits(objects) {
            return Err(Error::InvalidConfig(format!(
                "replay trace {:?} was resolved against another catalog view \
                 than the session's {} {}s",
                source.trace().name(),
                objects.len(),
                objects.granularity().label()
            )));
        }
        let mut engine = ReplayEngine::with_links(objects, links);
        let plan = faults.map(|model| FaultPlan {
            model,
            retry,
            degradation,
        });
        if let Some(plan) = plan {
            engine = engine.with_faults(plan);
        }

        let label = tiers.first().map(|p| p.name()).unwrap_or_default();
        let mut cost =
            CostObserver::new(label, source.trace().name(), objects.granularity().label());
        // One audit per tier: each tier's decision stream is its own cache.
        let mut audits: Vec<AuditObserver> = if audit_enabled {
            (0..tiers.len())
                .map(|t| AuditObserver::for_tier(u32::try_from(t).unwrap_or(u32::MAX)))
                .collect()
        } else {
            Vec::new()
        };
        let mut warnings = Vec::new();
        {
            // Audits lead: they all want accesses, so the stable
            // partition keeps them at `0..audits.len()` for the close-out.
            let audit_count = audits.len();
            let mut all: Vec<&mut dyn Observer> = Vec::with_capacity(audit_count + observers.len());
            for audit in audits.iter_mut() {
                all.push(audit);
            }
            for obs in observers.iter_mut() {
                all.push(&mut **obs);
            }
            let access_count = partition_access_observers(&mut all);
            let mut index = 0usize;
            let mut skipped = Unresolved::default();
            // What the query hooks see of each query (the `Observer`
            // contract): its id and total yield, every other member empty.
            let mut hook = TraceQuery::default();
            while let Some(chunk) = source.next()? {
                skipped.add(chunk.unresolved());
                for (query, slices) in chunk.iter() {
                    hook.id = query.id;
                    hook.total_yield = query.total_yield;
                    // The cost observer's window is the kernel's fold
                    // target; only its query bookkeeping runs here.
                    cost.on_query_start(index, &hook);
                    engine.serve_query(
                        index,
                        &hook,
                        slices,
                        &mut tiers,
                        &mut cost.window,
                        &mut all,
                        access_count,
                    );
                    cost.on_query_end(index, &hook);
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
        })
    }

    /// Replay every (policy, cache-fraction) pair of
    /// [`SweepOptions`]' grid in parallel under this session's
    /// network/fault/audit configuration, on `available_parallelism()`
    /// worker threads that read the session's one resident
    /// [`ReplayTrace`]. A kind that
    /// [ignores capacity](PolicyKind::ignores_capacity) is replayed once,
    /// with every fraction's observer attached, and still makes one point
    /// per fraction: its own fraction, capacity and observer warnings,
    /// and the one report. Results are ordered by policy then fraction;
    /// per-point observers configured via [`SweepOptions::observe`] land
    /// in their sink in the same order. A worker's panic is re-raised
    /// with its original payload.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when a policy or extra observers were
    /// configured (sweeps build their own per job), when the session
    /// streams off a reader (sweeps replay one in-memory trace), or when
    /// a fraction is not positive and finite; otherwise the first error
    /// of a grid point, in grid order (each point of a trace whose total
    /// yield overflows a u64 refuses it as [`Self::run`] does).
    pub fn sweep<O: Observer + Send>(
        self,
        options: SweepOptions<'_, O>,
    ) -> Result<Vec<SweepPoint>> {
        let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        self.sweep_on(options, workers)
    }

    /// [`Self::sweep`] on a pool of `workers` scoped threads (at least
    /// one, and no more than there are jobs); the module docs say which
    /// jobs it runs, and in what order.
    fn sweep_on<O: Observer + Send>(
        self,
        options: SweepOptions<'_, O>,
        workers: usize,
    ) -> Result<Vec<SweepPoint>> {
        let SweepOptions {
            policies,
            fractions,
            demands,
            seed,
            observe,
        } = options;
        let (make_observer, sink) = match observe {
            Some(crate::sweep::SweepObserve { make, sink }) => (Some(make), Some(sink)),
            None => (None, None),
        };
        if !self.tiers.is_empty() {
            return Err(Error::InvalidConfig(
                "sweep terminals build one policy per tier per (kind, fraction) job; \
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
        for &f in fractions {
            if !(f > 0.0 && f.is_finite()) {
                return Err(Error::InvalidConfig(format!(
                    "cache fraction must be positive and finite, got {f}"
                )));
            }
        }
        let ReplaySession {
            source,
            objects,
            links,
            faults,
            retry,
            degradation,
            audit,
            ..
        } = self;
        let ChunkSource::Resident { trace, .. } = source else {
            return Err(Error::InvalidConfig(
                "sweeps replay one in-memory trace across the whole grid; \
                 a reader-backed session cannot sweep"
                    .into(),
            ));
        };
        let trace: &ReplayTrace = &trace;
        let db = objects.total_size();
        let scales = links.capacity_scales();
        // Every grid point's observer is made here, on the sweeping
        // thread, in grid order; the worker that pulls its job takes it.
        let mut jobs: Vec<Job<O>> = Vec::new();
        for (row, &kind) in policies.iter().enumerate() {
            let first = row * fractions.len();
            let points = fractions.iter().map(|&fraction| GridPoint {
                fraction,
                observer: make_observer.map(|make| Kept::new(make(kind, fraction))),
            });
            if kind.ignores_capacity() && !fractions.is_empty() {
                jobs.push(Job {
                    kind,
                    first,
                    points: points.collect(),
                });
            } else {
                jobs.extend(points.enumerate().map(|(i, point)| Job {
                    kind,
                    first: first + i,
                    points: vec![point],
                }));
            }
        }
        jobs.sort_by_key(|job| std::cmp::Reverse(job.points.len()));
        let run_job = |job: Job<O>| -> Result<Vec<(SweepPoint, Option<O>)>> {
            let Job {
                kind, mut points, ..
            } = job;
            // Site-tier capacity of the job's first fraction, which a
            // merged job's kind ignores; each tier's cache scales it by
            // its `capacity_scale` (1.0 on the flat WAN).
            let fraction = points.first().map_or(1.0, |point| point.fraction);
            let mut policies: Vec<_> = scales
                .iter()
                .map(|s| build_policy(kind, db.scale(fraction * s), demands, seed))
                .collect();
            let mut session = ReplaySession::new(trace, objects)
                .retry(retry)
                .degrade(degradation);
            session.links = links;
            for p in policies.iter_mut() {
                session = session.policy(p.as_mut());
            }
            for observer in points.iter_mut().filter_map(|p| p.observer.as_mut()) {
                session = session.observe(observer);
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
            replay.debug_assert_audit();
            Ok(points
                .into_iter()
                .map(|point| {
                    let mut warnings = replay.warnings.clone();
                    let observer = point.observer.map(|kept| {
                        warnings.extend(kept.warnings);
                        kept.observer
                    });
                    let point = SweepPoint {
                        policy: kind.label().to_string(),
                        cache_fraction: point.fraction,
                        capacity: db.scale(point.fraction),
                        report: replay.report.clone(),
                        warnings,
                    };
                    (point, observer)
                })
                .collect())
        };
        // The index only hands out job numbers; each job's data crosses
        // threads under its own mutex, so `Relaxed` suffices. Each number
        // below the job count is handed out once, so each job runs once.
        let jobs: Vec<Mutex<Option<Job<O>>>> =
            jobs.into_iter().map(|job| Mutex::new(Some(job))).collect();
        let next = AtomicUsize::new(0);
        let work = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = jobs.get(i) else {
                    return done;
                };
                // Taking a job cannot panic, so a poisoned lock's data is
                // still whole.
                let job = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
                if let Some(job) = job {
                    done.push((job.first, run_job(job)));
                }
            }
        };
        let mut finished: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers.clamp(1, jobs.len().max(1)))
                .map(|_| scope.spawn(work))
                .collect();
            handles
                .into_iter()
                // Re-raise a worker's panic with its original payload
                // intact instead of masking it behind a generic message.
                .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        // In grid order, a merged job's points are contiguous from its
        // first, so its error (every one of its points would have had the
        // same) ranks where its first point's would.
        finished.sort_unstable_by_key(|&(first, _)| first);
        let (mut points, mut observers) = (Vec::new(), Vec::new());
        for (_, job) in finished {
            for (point, observer) in job? {
                points.push(point);
                observers.extend(observer);
            }
        }
        if let Some(sink) = sink {
            sink.extend(observers);
        }
        Ok(points)
    }
}

/// One replay of a sweep: its kind, and the grid points it makes, from
/// `first` on in grid order.
struct Job<O> {
    kind: PolicyKind,
    first: usize,
    points: Vec<GridPoint<O>>,
}

/// One grid point of a sweep job: its cache fraction and its observer.
struct GridPoint<O> {
    fraction: f64,
    observer: Option<Kept<O>>,
}

/// A grid point's observer on its job's session. It forwards every hook
/// and keeps the observer's warnings for the point's own
/// [`SweepPoint::warnings`]: a merged job's session carries one per
/// fraction, and its [`Replay::warnings`] would list every one of them
/// at every point.
struct Kept<O> {
    observer: O,
    warnings: Vec<String>,
}

impl<O> Kept<O> {
    fn new(observer: O) -> Self {
        Kept {
            observer,
            warnings: Vec::new(),
        }
    }
}

impl<O: Observer> Observer for Kept<O> {
    fn on_query_start(&mut self, index: usize, query: &TraceQuery) {
        self.observer.on_query_start(index, query);
    }

    fn on_access(&mut self, event: &crate::engine::CostEvent<'_>) {
        self.observer.on_access(event);
    }

    fn on_query_end(&mut self, index: usize, query: &TraceQuery) {
        self.observer.on_query_end(index, query);
    }

    fn finish(&mut self, policy: Option<&dyn CachePolicy>) {
        self.observer.finish(policy);
    }

    fn wants_accesses(&self) -> bool {
        self.observer.wants_accesses()
    }

    fn warnings(&mut self) -> Vec<String> {
        self.warnings.extend(self.observer.warnings());
        Vec::new()
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
            replay.debug_assert_audit();
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
    use crate::policies::policy_roster;
    use byc_catalog::sdss::{build, SdssRelease};
    use byc_catalog::Granularity;
    use byc_core::rate_profile::{RateProfile, RateProfileConfig};
    use byc_core::static_opt::{NoCache, ObjectDemand};
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
        // NaN would reach `Bytes::scale` (a debug assertion), and infinity
        // would size a cache of 2^64 - 1 bytes.
        for fraction in [0.0, f64::NAN, f64::INFINITY] {
            let err = ReplaySession::new(&trace, &objects)
                .sweep(SweepOptions::new(
                    &[PolicyKind::NoCache, PolicyKind::Lru],
                    &[0.5, fraction],
                    &stats.demands,
                    1,
                ))
                .unwrap_err();
            assert!(
                matches!(err, Error::InvalidConfig(_)),
                "{fraction}: {err:?}"
            );
        }
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

    /// One tier stack: a flat topology bound with `.policy`, a network
    /// bound with `.tier_policy`, and a network bound with `.policy` are
    /// the same single-tier replay.
    #[test]
    fn flat_spellings_of_one_tier_give_equal_reports() {
        let (trace, objects) = setup(2, 300);
        let cap = objects.total_size().scale(0.3);
        let net = PerServerMultipliers::new(vec![1.0, 2.0]).unwrap();
        let topo = Topology::flat(Box::new(net.clone()));
        let reports: Vec<_> = (0..3)
            .map(|spelling| {
                let mut p = RateProfile::new(cap, RateProfileConfig::default());
                let session = ReplaySession::new(&trace, &objects);
                let session = match spelling {
                    0 => session.topology(&topo).policy(&mut p),
                    1 => session.network(&net).tier_policy(&mut p),
                    _ => session.network(&net).policy(&mut p),
                };
                session.run().unwrap().report
            })
            .collect();
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[1], reports[2]);
        assert!(reports[0].bypass_cost > reports[0].bypass_served);
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

    /// A replay trace resolved against another catalog view is refused,
    /// not replayed with foreign object ids.
    #[test]
    fn a_replay_trace_of_another_view_is_a_config_error() {
        let (trace, columns) = setup(1, 50);
        let tables = ObjectCatalog::uniform(&build(SdssRelease::Edr, 1e-3, 1), Granularity::Table);
        let replay = ReplayTrace::from_trace(&trace, &tables);
        let mut p = NoCache;
        let err = ReplaySession::new(&replay, &columns)
            .policy(&mut p)
            .run()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err:?}");
        let mut p = NoCache;
        let resident = ReplaySession::new(&ReplayTrace::from_trace(&trace, &columns), &columns)
            .policy(&mut p)
            .run()
            .unwrap();
        let mut p = NoCache;
        assert_eq!(resident.report, run_report(&trace, &columns, &mut p));
    }

    /// Counts the queries a replay serves.
    struct Served(usize);

    impl Observer for Served {
        fn on_query_start(&mut self, _index: usize, _query: &TraceQuery) {
            self.0 += 1;
        }

        fn wants_accesses(&self) -> bool {
            false
        }
    }

    /// EDR at scale 3e7 totals 3.65e19 B, past `u64::MAX`: every replay
    /// refuses it with `InvalidConfig` instead of reporting saturated
    /// byte totals, over a `Trace`, over a borrowed `ReplayTrace`,
    /// streamed, and swept. A streamed replay serves every query before
    /// the chunk in which the total overflows, and none of that chunk.
    #[test]
    fn a_total_past_u64_is_refused() {
        fn refused<T: std::fmt::Debug>(replay: Result<T>, what: &str) {
            assert!(
                matches!(&replay, Err(Error::InvalidConfig(e)) if e.contains("overflows a u64")),
                "{what}: {replay:?}"
            );
        }
        let cat = build(SdssRelease::Edr, 3e7, 1);
        let trace = generate(&cat, &WorkloadConfig::edr(42)).unwrap();
        let objects = ObjectCatalog::uniform(&cat, Granularity::Column);
        let mut p = NoCache;
        refused(
            ReplaySession::new(&trace, &objects).policy(&mut p).run(),
            "trace",
        );
        let replay = ReplayTrace::from_trace(&trace, &objects);
        let mut p = NoCache;
        refused(
            ReplaySession::new(&replay, &objects).policy(&mut p).run(),
            "replay trace",
        );
        let stats = WorkloadStats::of_replay(&replay, &objects);
        let options = SweepOptions::new(
            &[PolicyKind::NoCache, PolicyKind::Lru],
            &[0.1, 0.5],
            &stats.demands,
            1,
        );
        refused(
            ReplaySession::new(&replay, &objects).sweep(options),
            "sweep",
        );

        let mut sum = 0u128;
        let first_over = trace
            .queries
            .iter()
            .position(|q| {
                sum += u128::from(q.total_yield.raw());
                sum > u128::from(u64::MAX)
            })
            .unwrap();
        let path =
            std::env::temp_dir().join(format!("byc-session-3e7-{}.jsonl", std::process::id()));
        byc_workload::io::write_trace(&trace, &path).unwrap();
        let mut reader = TraceReader::open(&path).unwrap();
        let mut chunk = ReplayTrace::new(reader.name(), &objects);
        let mut served = Served(0);
        let mut p = NoCache;
        let streamed = ReplaySession::from_reader(&mut reader, &mut chunk, &objects)
            .observe(&mut served)
            .policy(&mut p)
            .run();
        std::fs::remove_file(&path).ok();
        refused(streamed, "streamed");
        // Chunks of `READ_CHUNK` queries: the refused one holds the first
        // query past the limit, and was read whole.
        let start = first_over / crate::stream::READ_CHUNK * crate::stream::READ_CHUNK;
        assert!(start > 0);
        assert_eq!(served.0, start);
        assert_eq!(chunk.len(), crate::stream::READ_CHUNK);
        assert_eq!(chunk.totals().queries, start + chunk.len());
        assert_eq!(chunk.totals().total_yield, None);
    }

    /// The panic a [`Probe`] raises: its job's label.
    #[derive(Debug)]
    struct ProbePanic(String);

    /// A per-job sweep observer: the job's windowed breakdown, a digest
    /// of every event it saw, and one warning naming its job. With
    /// `panic_at`, it panics when that query starts.
    struct Probe {
        label: String,
        windows: Breakdown,
        events: String,
        panic_at: Option<usize>,
    }

    impl Probe {
        fn new(kind: PolicyKind, fraction: f64, panic_at: Option<usize>) -> Self {
            Probe {
                label: format!("{}@{fraction}", kind.label()),
                windows: Breakdown::every(40),
                events: String::new(),
                panic_at,
            }
        }
    }

    impl Observer for Probe {
        fn on_query_start(&mut self, index: usize, query: &TraceQuery) {
            if self.panic_at == Some(index) {
                std::panic::panic_any(ProbePanic(self.label.clone()));
            }
            self.windows.on_query_start(index, query);
        }

        fn on_access(&mut self, event: &crate::engine::CostEvent<'_>) {
            use std::fmt::Write as _;
            self.windows.on_access(event);
            let _ = write!(
                self.events,
                "{}/{}/{}/{}/{}/{};",
                event.query,
                event.tier,
                event.access.object.raw(),
                event.window.delivered.raw(),
                event.window.retries,
                self.windows.total().wan_cost().raw()
            );
        }

        fn on_query_end(&mut self, index: usize, query: &TraceQuery) {
            self.windows.on_query_end(index, query);
        }

        fn warnings(&mut self) -> Vec<String> {
            vec![format!("probe {}", self.label)]
        }
    }

    const POOL_POLICIES: [PolicyKind; 3] =
        [PolicyKind::RateProfile, PolicyKind::Lru, PolicyKind::Static];
    const POOL_FRACTIONS: [f64; 3] = [0.1, 0.3, 0.75];

    /// A faulted sweep of the tainted smoke trace on `workers` threads,
    /// with a [`Probe`] per job.
    fn pool_sweep(
        workers: usize,
        panic_at: Option<(PolicyKind, f64, usize)>,
    ) -> (Vec<SweepPoint>, Vec<Probe>, Bytes) {
        let (_, tainted, objects, unknown) = with_unknown_refs(Granularity::Column);
        let stats = WorkloadStats::compute(&tainted, &objects);
        let model = FlakyLinks::new(3, 0.05, 0.1, 2.0);
        let make = |kind: PolicyKind, fraction: f64| {
            let at = panic_at
                .filter(|&(k, f, _)| k == kind && f == fraction)
                .map(|(_, _, at)| at);
            Probe::new(kind, fraction, at)
        };
        let mut probes = Vec::new();
        let options = SweepOptions::new(&POOL_POLICIES, &POOL_FRACTIONS, &stats.demands, 5)
            .observe(&make, &mut probes);
        let points = ReplaySession::new(&tainted, &objects)
            .faults(&model)
            .retry(RetryPolicy::new(2, 2))
            .sweep_on(options, workers)
            .unwrap();
        (points, probes, unknown)
    }

    /// The pool's size changes nothing: 1, 2 and 5 workers return the same
    /// points, warnings and per-job observers, all in grid order.
    #[test]
    fn sweep_pool_size_changes_nothing() {
        let (one, one_probes, unknown) = pool_sweep(1, None);
        assert_eq!(one.len(), 9);
        assert_eq!(one_probes.len(), 9);
        for (i, (point, probe)) in one.iter().zip(&one_probes).enumerate() {
            let kind = POOL_POLICIES[i / 3];
            let fraction = POOL_FRACTIONS[i % 3];
            assert_eq!(point.policy, kind.label());
            assert_eq!(point.cache_fraction, fraction);
            assert_eq!(probe.label, format!("{}@{fraction}", kind.label()));
            assert_eq!(
                point.warnings,
                [
                    format!(
                        "300 trace references ({unknown} of results) name no column in the \
                         catalog; they were skipped and their bytes are in no report column"
                    ),
                    format!("probe {}", probe.label),
                ]
            );
            assert!(!probe.events.is_empty());
            assert_eq!(probe.windows.windows().len(), 8);
        }
        for workers in [2, 5] {
            let (points, probes, _) = pool_sweep(workers, None);
            assert_eq!(points.len(), one.len());
            for (a, b) in one.iter().zip(&points) {
                assert_eq!(
                    (
                        &a.policy,
                        a.cache_fraction,
                        a.capacity,
                        &a.report,
                        &a.warnings
                    ),
                    (
                        &b.policy,
                        b.cache_fraction,
                        b.capacity,
                        &b.report,
                        &b.warnings
                    ),
                    "{workers} workers"
                );
            }
            for (a, b) in one_probes.iter().zip(&probes) {
                assert_eq!(a.label, b.label);
                assert_eq!(
                    a.windows.windows(),
                    b.windows.windows(),
                    "{workers} workers"
                );
                assert_eq!(a.events, b.events, "{} on {workers} workers", a.label);
            }
        }
    }

    /// A per-job observer's panic reaches the sweep's caller with its
    /// original payload, on one worker and on several.
    #[test]
    fn a_sweep_observer_panic_keeps_its_payload() {
        for workers in [1, 2, 5] {
            let caught =
                std::panic::catch_unwind(|| pool_sweep(workers, Some((PolicyKind::Lru, 0.3, 17))));
            let payload = caught.err().expect("the sweep re-raises the panic");
            let panic = payload
                .downcast_ref::<ProbePanic>()
                .expect("the payload is the observer's own");
            assert_eq!(panic.0, format!("{}@0.3", PolicyKind::Lru.label()));
        }
    }

    /// A grid point's observer standing in for the CLI's bundle:
    /// telemetry (a digest of every event, and of the policy it finishes
    /// with), spans (query boundaries only), windows, and a flight
    /// recorder that keeps the first [`Bundle::RECORDED`] failing or
    /// degraded queries and warns about the rest. A spans-only bundle
    /// wants no per-access events.
    struct Bundle {
        label: String,
        spans_only: bool,
        telemetry: String,
        spans: Vec<(usize, bool)>,
        windows: Breakdown,
        recorded: Vec<usize>,
        truncated: usize,
        troubled: bool,
    }

    impl Bundle {
        const RECORDED: usize = 3;

        fn new(kind: PolicyKind, fraction: f64) -> Self {
            Bundle {
                label: format!("{}@{fraction}", kind.label()),
                spans_only: fraction == 0.3,
                telemetry: String::new(),
                spans: Vec::new(),
                windows: Breakdown::every(64),
                recorded: Vec::new(),
                truncated: 0,
                troubled: false,
            }
        }
    }

    impl Observer for Bundle {
        fn on_query_start(&mut self, index: usize, query: &TraceQuery) {
            self.spans.push((index, true));
            self.windows.on_query_start(index, query);
        }

        fn on_access(&mut self, event: &crate::engine::CostEvent<'_>) {
            use std::fmt::Write as _;
            self.windows.on_access(event);
            self.troubled |= event.window.failed_slices + event.window.degraded_slices > 0;
            let _ = write!(
                self.telemetry,
                "{}/{}/{}/{:?}/{}/{};",
                event.query,
                event.tier,
                event.access.object.raw(),
                event.decision,
                event.window.wan_cost().raw(),
                event.policy.used().raw()
            );
        }

        fn on_query_end(&mut self, index: usize, query: &TraceQuery) {
            self.spans.push((index, false));
            self.windows.on_query_end(index, query);
            if std::mem::take(&mut self.troubled) {
                match self.recorded.len() < Self::RECORDED {
                    true => self.recorded.push(index),
                    false => self.truncated += 1,
                }
            }
        }

        fn finish(&mut self, policy: Option<&dyn CachePolicy>) {
            use std::fmt::Write as _;
            if let Some(p) = policy {
                let _ = write!(
                    self.telemetry,
                    "finish {} {}/{}",
                    p.name(),
                    p.used(),
                    p.capacity()
                );
            }
        }

        fn wants_accesses(&self) -> bool {
            !self.spans_only
        }

        fn warnings(&mut self) -> Vec<String> {
            match self.truncated {
                0 => Vec::new(),
                n => vec![format!(
                    "recorder {}: {n} more troubled queries",
                    self.label
                )],
            }
        }
    }

    /// What a bundle observed, for comparison.
    fn observed(b: &Bundle) -> String {
        format!(
            "{} {} {:?} {:?} {:?} {}",
            b.label,
            b.telemetry,
            b.spans,
            b.windows.windows(),
            b.recorded,
            b.truncated
        )
    }

    /// Grid point `(kind, fraction)` replayed on a session of its own,
    /// as a sweep job replays it, with its own bundle.
    #[allow(clippy::too_many_arguments)]
    fn one_point(
        trace: &ReplayTrace,
        objects: &ObjectCatalog,
        links: Links<'_>,
        faults: Option<&FlakyLinks>,
        demands: &[ObjectDemand],
        kind: PolicyKind,
        fraction: f64,
    ) -> Result<(SweepPoint, Bundle)> {
        let db = objects.total_size();
        let mut policies: Vec<_> = links
            .capacity_scales()
            .iter()
            .map(|s| build_policy(kind, db.scale(fraction * s), demands, 5))
            .collect();
        let mut bundle = Bundle::new(kind, fraction);
        let mut session = ReplaySession::new(trace, objects);
        session.links = links;
        for p in policies.iter_mut() {
            session = session.policy(p.as_mut());
        }
        if let Some(model) = faults {
            session = session.faults(model).retry(RetryPolicy::new(3, 2));
        }
        let replay = session.observe(&mut bundle).run()?;
        let point = SweepPoint {
            policy: kind.label().to_string(),
            cache_fraction: fraction,
            capacity: db.scale(fraction),
            report: replay.report,
            warnings: replay.warnings,
        };
        Ok((point, bundle))
    }

    /// The roster's sweep on `workers` threads, with a bundle per point.
    fn bundled_sweep(
        trace: &ReplayTrace,
        objects: &ObjectCatalog,
        links: Links<'_>,
        faults: Option<&FlakyLinks>,
        demands: &[ObjectDemand],
        workers: usize,
    ) -> (Result<Vec<SweepPoint>>, Vec<Bundle>) {
        let policies = policy_roster();
        let make = |kind: PolicyKind, fraction: f64| Bundle::new(kind, fraction);
        let mut bundles = Vec::new();
        let options =
            SweepOptions::new(&policies, &POOL_FRACTIONS, demands, 5).observe(&make, &mut bundles);
        let mut session = ReplaySession::new(trace, objects);
        session.links = links;
        if let Some(model) = faults {
            session = session.faults(model).retry(RetryPolicy::new(3, 2));
        }
        let points = session.sweep_on(options, workers);
        (points, bundles)
    }

    /// A sweep, whose capacity-blind kinds replay once for all their
    /// fractions, gives every roster kind on flat, two-tier and
    /// three-tier links, clean and flaky, the points, per-point warnings
    /// and observers that one run per point gives, in grid order.
    #[test]
    fn merged_jobs_equal_one_run_per_point() {
        let (_, tainted, objects, _) = with_unknown_refs(Granularity::Column);
        let trace = ReplayTrace::from_trace(&tainted, &objects);
        let stats = WorkloadStats::of_replay(&trace, &objects);
        let net = PerServerMultipliers::new(vec![1.0, 2.0]).unwrap();
        let two = Topology::two_tier(0.25, Box::new(Uniform)).unwrap();
        let three = Topology::three_tier(0.1, 0.25, Box::new(Uniform)).unwrap();
        let flaky = FlakyLinks::new(3, 0.08, 0.1, 2.0);
        let mut warned = 0;
        for links in [
            Links::Flat(&net),
            Links::Tiered(&two),
            Links::Tiered(&three),
        ] {
            for faults in [None, Some(&flaky)] {
                let case = format!("{} faults {}", links.name(), faults.is_some());
                let mut want = Vec::new();
                let mut want_bundles = Vec::new();
                for kind in policy_roster() {
                    for fraction in POOL_FRACTIONS {
                        let (point, bundle) = one_point(
                            &trace,
                            &objects,
                            links,
                            faults,
                            &stats.demands,
                            kind,
                            fraction,
                        )
                        .unwrap();
                        want.push(point);
                        want_bundles.push(bundle);
                    }
                }
                for workers in [1, 3] {
                    let (points, bundles) =
                        bundled_sweep(&trace, &objects, links, faults, &stats.demands, workers);
                    let points = points.unwrap();
                    assert_eq!(points.len(), want.len(), "{case}");
                    for (have, want) in points.iter().zip(&want) {
                        let at = format!("{case}, {} @ {}", want.policy, want.cache_fraction);
                        assert_eq!(have.policy, want.policy, "{at}");
                        assert_eq!(have.cache_fraction, want.cache_fraction, "{at}");
                        assert_eq!(have.capacity, want.capacity, "{at}");
                        assert_eq!(have.report, want.report, "{at}");
                        assert_eq!(have.warnings, want.warnings, "{at}");
                        let merged = PolicyKind::NoCache.label() == have.policy;
                        warned += usize::from(merged && have.warnings.len() > 1);
                    }
                    assert_eq!(bundles.len(), want_bundles.len(), "{case}");
                    for (have, want) in bundles.iter().zip(&want_bundles) {
                        assert_eq!(observed(have), observed(want), "{case}, {workers} workers");
                    }
                }
            }
        }
        // The recorder warned on merged points.
        assert!(warned > 0);
    }

    /// A sweep's error is the first one in grid order that one run per
    /// point meets, and no observer reaches the sink.
    #[test]
    fn a_sweep_error_is_the_first_in_grid_order() {
        let (trace, columns) = setup(1, 50);
        let tables = ObjectCatalog::uniform(&build(SdssRelease::Edr, 1e-3, 1), Granularity::Table);
        let foreign = ReplayTrace::from_trace(&trace, &tables);
        let stats = WorkloadStats::compute(&trace, &columns);
        for workers in [1, 2] {
            let (points, bundles) = bundled_sweep(
                &foreign,
                &columns,
                Links::Flat(&crate::network::UNIFORM),
                None,
                &stats.demands,
                workers,
            );
            let first = one_point(
                &foreign,
                &columns,
                Links::Flat(&crate::network::UNIFORM),
                None,
                &stats.demands,
                policy_roster()[0],
                POOL_FRACTIONS[0],
            );
            let err = points.unwrap_err();
            assert!(matches!(err, Error::InvalidConfig(_)), "{err:?}");
            assert_eq!(Err::<(), _>(err), first.map(|_| ()));
            assert!(bundles.is_empty());
        }
    }
}
