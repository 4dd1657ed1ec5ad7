//! The mediator: the end-to-end query service of the federation.
//!
//! A [`Mediator`] owns the catalog, the cacheable-object view, and a
//! caching policy. Clients submit SQL text; the mediator parses, resolves,
//! and prices the query, consults the policy per referenced object, and
//! reports where each slice of the result came from and what it cost the
//! WAN — exactly the role SkyQuery's mediation middleware plays in the
//! paper's architecture (§3, Figure 1), with bypassed sub-queries routed
//! to their home servers.

use crate::engine::{partition_access_observers, CostEvent, Observer, QueryWindow, ReplayEngine};
use crate::faults::{DegradationPolicy, FaultModel, FaultPlan, RetryPolicy};
use crate::network::{NetworkModel, Uniform};
use byc_catalog::{Catalog, Granularity, ObjectCatalog};
use byc_core::audit::{AuditReport, PolicyAuditor};
use byc_core::policy::{CachePolicy, Decision};
use byc_engine::YieldModel;
use byc_sql::{analyze, parse};
use byc_types::{Bytes, ObjectId, QueryId, Result, ServerId};
use byc_workload::TraceQuery;

/// Where one object's slice of a query was served.
#[derive(Clone, Debug, PartialEq)]
pub struct ObjectOutcome {
    /// The cacheable object.
    pub object: ObjectId,
    /// The object's home server (where bypassed slices are routed).
    pub server: ServerId,
    /// Result bytes attributed to the object.
    pub yield_bytes: Bytes,
    /// The policy's decision.
    pub decision: Decision,
}

/// The mediator's answer to one query.
#[derive(Clone, Debug, PartialEq)]
pub struct ServedQuery {
    /// Query ordinal (the mediator's clock).
    pub id: QueryId,
    /// Total result bytes delivered to the client.
    pub delivered: Bytes,
    /// Result bytes served out of the collocated cache.
    pub from_cache: Bytes,
    /// Result bytes shipped from back-end servers (bypass traffic).
    pub from_servers: Bytes,
    /// WAN cost of the bypassed slices, priced per home-server link.
    /// Equals `from_servers` on a uniform network.
    pub bypass_traffic: Bytes,
    /// WAN bytes spent on cache loads triggered by this query.
    pub load_traffic: Bytes,
    /// WAN bytes wasted on failed transfer attempts (zero without a
    /// fault layer).
    pub retried_bytes: Bytes,
    /// Result bytes this query failed to deliver (failed slices under
    /// the `Fail` degradation policy).
    pub failed_bytes: Bytes,
    /// Slices served from the stale local copy after exhausted retries.
    pub degraded_slices: u64,
    /// Slices that delivered nothing after exhausted retries.
    pub failed_slices: u64,
    /// Per-object outcomes, in decomposition order.
    pub outcomes: Vec<ObjectOutcome>,
}

impl ServedQuery {
    /// WAN traffic this query generated (bypass + loads + wasted retry
    /// traffic).
    pub fn wan_cost(&self) -> Bytes {
        self.bypass_traffic + self.load_traffic + self.retried_bytes
    }

    /// True iff every requested byte was delivered (possibly stale).
    pub fn fully_delivered(&self) -> bool {
        self.failed_slices == 0
    }
}

/// Collects one [`ServedQuery`]'s per-object outcomes from the kernel's
/// event stream.
struct OutcomeObserver {
    outcomes: Vec<ObjectOutcome>,
}

impl Observer for OutcomeObserver {
    fn on_access(&mut self, event: &CostEvent<'_>) {
        if let Some(decision) = event.decision {
            self.outcomes.push(ObjectOutcome {
                object: event.object,
                server: event.server,
                yield_bytes: event.delivered,
                decision: decision.clone(),
            });
        }
    }
}

/// The mediation middleware with its collocated bypass-yield cache.
///
/// The policy sits behind a [`PolicyAuditor`] that validates its decision
/// stream against a shadow cache model. Auditing is on in debug builds;
/// release deployments opt in with [`Mediator::with_audit`] (one shadow-map
/// update per object access). The auditor records violations rather than
/// panicking — poll [`Mediator::audit_report`].
pub struct Mediator {
    catalog: Catalog,
    objects: ObjectCatalog,
    policy: PolicyAuditor<Box<dyn CachePolicy>>,
    network: Box<dyn NetworkModel>,
    /// The kernel's priced fetch rows for `objects` over `network`,
    /// built once for the mediator's lifetime.
    fetch_rows: Vec<Bytes>,
    faults: Option<Box<dyn FaultModel>>,
    retry: RetryPolicy,
    degradation: DegradationPolicy,
    served: u64,
    wan_total: Bytes,
    /// The query [`Mediator::serve_sql`] refills and serves on every
    /// call, so its text and id lists reuse their buffers.
    slot: TraceQuery,
}

impl Mediator {
    /// Build a mediator over `catalog` caching at `granularity` with the
    /// given policy, on a uniform network. Decision auditing follows the
    /// build profile: enabled in debug, pass-through in release.
    pub fn new(catalog: Catalog, granularity: Granularity, policy: Box<dyn CachePolicy>) -> Self {
        Self::with_audit(catalog, granularity, policy, cfg!(debug_assertions))
    }

    /// Build a mediator with decision auditing explicitly on or off.
    /// The choice is fixed for the mediator's lifetime: an auditor
    /// attached mid-stream would not know the cache contents.
    pub fn with_audit(
        catalog: Catalog,
        granularity: Granularity,
        policy: Box<dyn CachePolicy>,
        audit: bool,
    ) -> Self {
        Self::with_network(catalog, granularity, policy, audit, Box::new(Uniform))
    }

    /// Build a mediator whose WAN traffic is priced per home-server link.
    pub fn with_network(
        catalog: Catalog,
        granularity: Granularity,
        policy: Box<dyn CachePolicy>,
        audit: bool,
        network: Box<dyn NetworkModel>,
    ) -> Self {
        let objects = ObjectCatalog::uniform(&catalog, granularity);
        let policy = if audit {
            PolicyAuditor::new(policy)
        } else {
            PolicyAuditor::pass_through(policy)
        };
        let fetch_rows = ReplayEngine::flat_rows(&objects, network.as_ref());
        Self {
            catalog,
            objects,
            policy,
            network,
            fetch_rows,
            faults: None,
            retry: RetryPolicy::default(),
            degradation: DegradationPolicy::default(),
            served: 0,
            wan_total: Bytes::ZERO,
            slot: TraceQuery::default(),
        }
    }

    /// Route this mediator's WAN transfers through a fault model, with
    /// the given retry bounds and degradation fallback. Replaces any
    /// previous fault configuration.
    #[must_use]
    pub fn with_faults(
        mut self,
        model: Box<dyn FaultModel>,
        retry: RetryPolicy,
        degradation: DegradationPolicy,
    ) -> Self {
        self.faults = Some(model);
        self.retry = retry;
        self.degradation = degradation;
        self
    }

    /// The network model pricing this mediator's WAN traffic.
    pub fn network(&self) -> &dyn NetworkModel {
        self.network.as_ref()
    }

    /// The fault model this mediator's transfers resolve through, if any.
    pub fn fault_model(&self) -> Option<&dyn FaultModel> {
        self.faults.as_deref()
    }

    /// True iff the decision stream is being validated (not just counted).
    pub fn audit_enabled(&self) -> bool {
        self.policy.is_enabled()
    }

    /// The decision-stream audit accumulated so far: counts, delivery
    /// accounting, and any invariant violations.
    pub fn audit_report(&self) -> &AuditReport {
        self.policy.report()
    }

    /// The schema catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The cacheable-object view.
    pub fn objects(&self) -> &ObjectCatalog {
        &self.objects
    }

    /// Queries served so far.
    pub fn served_count(&self) -> u64 {
        self.served
    }

    /// Total WAN traffic generated so far.
    pub fn wan_total(&self) -> Bytes {
        self.wan_total
    }

    /// Metadata-change notification (paper §6): the server announced that
    /// `table` changed (re-calibration, new materialized view, modified
    /// index). Every cacheable object backed by the table is invalidated;
    /// returns how many cached objects were dropped. User data itself is
    /// immutable between releases, so this is the only consistency event
    /// the federation needs.
    ///
    /// # Errors
    ///
    /// [`byc_types::Error::UnknownName`] when the table is not in the
    /// catalog.
    pub fn invalidate_table(&mut self, table: &str) -> Result<usize> {
        let table = self.catalog.table_by_name(table)?;
        let mut dropped = 0usize;
        match self.objects.granularity() {
            byc_catalog::Granularity::Table => {
                if let Ok(o) = self.objects.object_for_table(table.id) {
                    if self.policy.invalidate(o) {
                        dropped += 1;
                    }
                }
            }
            byc_catalog::Granularity::Column => {
                for &c in &table.columns {
                    if let Ok(o) = self.objects.object_for_column(c) {
                        if self.policy.invalidate(o) {
                            dropped += 1;
                        }
                    }
                }
            }
        }
        Ok(dropped)
    }

    /// Parse, price, and serve one SQL query.
    ///
    /// # Errors
    ///
    /// Parse and semantic errors from the SQL substrate.
    pub fn serve_sql(&mut self, sql: &str) -> Result<ServedQuery> {
        let query = parse(sql)?;
        let resolved = analyze(&self.catalog, &query)?;
        let breakdown = YieldModel::new(&self.catalog).estimate(&resolved);
        let mut tq = std::mem::take(&mut self.slot);
        tq.id = QueryId::new(u32::try_from(self.served).unwrap_or(u32::MAX));
        tq.sql.clear();
        tq.sql.push_str(sql);
        tq.template = u32::MAX;
        tq.tables.clear();
        tq.tables.extend(resolved.table_ids());
        tq.columns.clear();
        tq.columns.extend(resolved.column_ids());
        tq.total_yield = breakdown.total;
        tq.table_yields = breakdown.per_table;
        tq.column_yields = breakdown.per_column;
        let served = self.serve_trace_query(&tq, &mut []);
        self.slot = tq;
        Ok(served)
    }

    /// Serve an already-analyzed trace query: one pass of the replay
    /// kernel, the same per-query code every batch replay runs, with the
    /// query count as the policy clock.
    ///
    /// `extra` observers ride the same pass — the telemetry seam: a
    /// `byc-telemetry` `TelemetryObserver` (or any other [`Observer`])
    /// sees exactly the event stream that produced the returned
    /// [`ServedQuery`]. Pass `&mut []` when none are needed.
    pub fn serve_trace_query(
        &mut self,
        tq: &TraceQuery,
        extra: &mut [&mut dyn Observer],
    ) -> ServedQuery {
        let mut engine =
            ReplayEngine::with_rows(&self.objects, self.network.as_ref(), &self.fetch_rows);
        if let Some(model) = self.faults.as_deref() {
            engine = engine.with_faults(FaultPlan {
                model,
                retry: self.retry,
                degradation: self.degradation,
            });
        }
        let index = usize::try_from(self.served).unwrap_or(usize::MAX);
        let mut outcomes = OutcomeObserver {
            outcomes: Vec::new(),
        };
        let mut window = QueryWindow::default();
        {
            let mut observers: Vec<&mut dyn Observer> = Vec::with_capacity(1 + extra.len());
            observers.push(&mut outcomes);
            for obs in extra.iter_mut() {
                observers.push(&mut **obs);
            }
            let access_count = partition_access_observers(&mut observers);
            let mut policy: &mut dyn CachePolicy = &mut self.policy;
            engine.serve_query(
                index,
                tq,
                std::slice::from_mut(&mut policy),
                &mut window,
                &mut observers,
                access_count,
            );
        }
        let outcome = ServedQuery {
            id: QueryId::new(u32::try_from(self.served).unwrap_or(u32::MAX)),
            delivered: window.delivered,
            from_cache: window.cache_served,
            from_servers: window.bypass_served,
            bypass_traffic: window.bypass_cost,
            load_traffic: window.fetch_cost,
            retried_bytes: window.retried_bytes,
            failed_bytes: window.failed_bytes,
            degraded_slices: window.degraded_slices,
            failed_slices: window.failed_slices,
            outcomes: outcomes.outcomes,
        };
        self.served += 1;
        self.wan_total += outcome.wan_cost();
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byc_catalog::sdss::{build, SdssRelease};
    use byc_core::rate_profile::{RateProfile, RateProfileConfig};

    fn mediator(granularity: Granularity) -> Mediator {
        let catalog = build(SdssRelease::Edr, 1e-4, 2);
        let db = catalog.database_size();
        let policy = Box::new(RateProfile::new(
            db.scale(0.5),
            RateProfileConfig::default(),
        ));
        Mediator::new(catalog, granularity, policy)
    }

    const SQL: &str = "select p.ra, p.dec from PhotoObj p \
                       where p.ra between 100 and 140";

    #[test]
    fn serves_sql_end_to_end() {
        let mut m = mediator(Granularity::Column);
        let served = m.serve_sql(SQL).unwrap();
        assert!(served.delivered > Bytes::ZERO);
        assert_eq!(served.delivered, served.from_cache + served.from_servers);
        assert_eq!(served.outcomes.len(), 2); // ra, dec
        assert_eq!(m.served_count(), 1);
        assert_eq!(m.wan_total(), served.wan_cost());
    }

    #[test]
    fn repeated_hot_query_migrates_to_cache() {
        let mut m = mediator(Granularity::Column);
        let mut saw_cache = false;
        for _ in 0..20 {
            let served = m.serve_sql(SQL).unwrap();
            if served.from_cache == served.delivered && served.load_traffic.is_zero() {
                saw_cache = true;
                break;
            }
        }
        assert!(saw_cache, "hot query should end up fully cache-served");
    }

    #[test]
    fn parse_errors_propagate() {
        let mut m = mediator(Granularity::Table);
        assert!(m.serve_sql("selec nonsense").is_err());
        assert!(m.serve_sql("select x from NoSuchTable").is_err());
        assert_eq!(m.served_count(), 0);
    }

    #[test]
    fn outcomes_route_to_home_servers() {
        let mut m = mediator(Granularity::Table);
        let served = m.serve_sql(SQL).unwrap();
        let photo = m.catalog().table_by_name("PhotoObj").unwrap();
        for o in &served.outcomes {
            assert_eq!(o.server, photo.server);
        }
    }

    #[test]
    fn metadata_invalidation_drops_cached_objects() {
        let mut m = mediator(Granularity::Column);
        // Warm the cache on Galaxy columns.
        let sql = "select g.objID, g.ra from Galaxy g where g.ra between 0 and 240";
        let mut warmed = false;
        for _ in 0..30 {
            let served = m.serve_sql(sql).unwrap();
            if served.from_cache == served.delivered && served.load_traffic.is_zero() {
                warmed = true;
                break;
            }
        }
        assert!(warmed, "cache should warm on the hot columns");
        // The server announces a Galaxy re-calibration.
        let dropped = m.invalidate_table("Galaxy").unwrap();
        assert!(dropped >= 2, "expected objID and ra dropped, got {dropped}");
        // The next query cannot be a pure cache hit.
        let served = m.serve_sql(sql).unwrap();
        assert!(served.from_cache < served.delivered || !served.load_traffic.is_zero());
        // Unknown tables error.
        assert!(m.invalidate_table("NoSuchTable").is_err());
        // Invalidating an uncached table is a no-op.
        assert_eq!(m.invalidate_table("PlateX").unwrap(), 0);
    }

    #[test]
    fn audit_stays_clean_and_tracks_traffic() {
        let mut m = mediator(Granularity::Column);
        for _ in 0..10 {
            m.serve_sql(SQL).unwrap();
        }
        m.invalidate_table("PhotoObj").unwrap();
        m.serve_sql(SQL).unwrap();
        let audit = m.audit_report();
        assert!(audit.is_clean(), "{:?}", audit.violations);
        assert_eq!(audit.accesses, 22); // 11 queries x 2 columns
        assert_eq!(audit.wan_cost(), m.wan_total());
    }

    #[test]
    fn audit_opt_out_is_a_pass_through() {
        let catalog = build(SdssRelease::Edr, 1e-4, 2);
        let db = catalog.database_size();
        let policy = Box::new(RateProfile::new(
            db.scale(0.5),
            RateProfileConfig::default(),
        ));
        let mut m = Mediator::with_audit(catalog, Granularity::Column, policy, false);
        assert!(!m.audit_enabled());
        m.serve_sql(SQL).unwrap();
        let audit = m.audit_report();
        assert!(audit.is_clean());
        assert_eq!(audit.accesses, 2);
        assert_eq!(audit.deep_checks, 0);
    }

    #[test]
    fn huge_cross_joins_serve_whole() {
        // The benchmark's catalog: three copies of PhotoObj saturate the
        // yield at `u64::MAX`, four push its decomposition past it.
        let catalog = build(SdssRelease::Edr, 0.01, 1);
        let db = catalog.database_size();
        let policy = Box::new(RateProfile::new(
            db.scale(0.15),
            RateProfileConfig::default(),
        ));
        let mut m = Mediator::new(catalog, Granularity::Column, policy);
        for sql in [
            "select * from PhotoObj a, PhotoObj b, PhotoObj c",
            "select * from PhotoObj a, PhotoObj b, PhotoObj c, PhotoObj d",
        ] {
            let served = m.serve_sql(sql).unwrap();
            assert_eq!(served.delivered, Bytes::new(u64::MAX), "{sql}");
            assert_eq!(
                served.delivered,
                served.from_cache + served.from_servers,
                "{sql}"
            );
        }
        assert!(
            m.audit_report().is_clean(),
            "{:?}",
            m.audit_report().violations
        );
    }

    #[test]
    fn slot_is_refilled_per_query() {
        let mut m = mediator(Granularity::Column);
        let wide = "select p.ra, p.dec, p.objID from PhotoObj p where p.ra between 0 and 10";
        let first = m.serve_sql(wide).unwrap();
        let second = m.serve_sql(SQL).unwrap();
        assert_eq!(first.outcomes.len(), 3);
        assert_eq!(second.outcomes.len(), 2);
        assert_eq!(m.slot.sql, SQL);
        assert_eq!(m.slot.id, QueryId::new(1));
        assert_eq!(m.slot.columns.len(), 2);
        assert_eq!(m.slot.column_yields.len(), 2);
        // A refused query leaves the clock and the slot alone.
        assert!(m.serve_sql("select nope from PhotoObj").is_err());
        assert_eq!(m.served_count(), 2);
        assert_eq!(m.slot.sql, SQL);
    }

    #[test]
    fn clock_advances_per_query() {
        let mut m = mediator(Granularity::Table);
        m.serve_sql(SQL).unwrap();
        m.serve_sql(SQL).unwrap();
        assert_eq!(m.served_count(), 2);
    }
}
