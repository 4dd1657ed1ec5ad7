//! The mediator: the end-to-end query service of the federation.
//!
//! A [`Mediator`] owns the catalog, the cacheable-object view, and a
//! caching policy. Clients submit SQL text; the mediator parses, resolves,
//! and prices the query, consults the policy per referenced object, and
//! reports where each slice of the result came from and what it cost the
//! WAN — exactly the role SkyQuery's mediation middleware plays in the
//! paper's architecture (§3, Figure 1), with bypassed sub-queries routed
//! to their home servers.
//!
//! Every list a call fills on the way — the AST's, the resolved query's,
//! the yield decomposition's, the object slices and the kernel's observer
//! list — lives in the mediator and is refilled in place, so once the
//! widest query has been served a call allocates only the outcome list
//! it returns.

use crate::engine::{
    partition_access_observers, AuditObserver, CostEvent, Observer, QueryWindow, ReplayEngine,
};
use byc_catalog::{Catalog, Granularity, ObjectCatalog};
use byc_core::audit::AuditReport;
use byc_core::policy::{CachePolicy, Decision};
use byc_engine::{YieldBreakdown, YieldModel};
use byc_sql::{analyze_into, parse_into, Predicate, Query, ResolvedQuery, SelectItem, TableRef};
use byc_types::{Bytes, ObjectId, QueryId, Result, ServerId};
use byc_workload::{for_each_slice, TraceQuery};

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
    /// WAN bytes spent on cache loads triggered by this query.
    pub load_traffic: Bytes,
    /// Per-object outcomes, in decomposition order.
    pub outcomes: Vec<ObjectOutcome>,
}

impl ServedQuery {
    /// WAN traffic this query generated: bypass traffic plus loads.
    pub fn wan_cost(&self) -> Bytes {
        self.from_servers + self.load_traffic
    }
}

/// Collects one [`ServedQuery`]'s per-object outcomes from the kernel's
/// event stream.
struct OutcomeObserver {
    outcomes: Vec<ObjectOutcome>,
}

impl Observer for OutcomeObserver {
    fn on_access(&mut self, event: &CostEvent<'_>) {
        self.outcomes.push(ObjectOutcome {
            object: event.access.object,
            server: event.server,
            yield_bytes: event.window.delivered,
            decision: event.decision.clone(),
        });
    }
}

/// An emptied copy of `list` with another element type, on the same
/// buffer when the two types have the same size and alignment: std
/// collects a `vec::IntoIter` pipeline in place when it can. This is how
/// a list of borrowed names or observers outlives the call whose data it
/// borrowed, without `unsafe`; the tests pin that the buffer survives.
fn recycle<T, U>(list: Vec<T>) -> Vec<U> {
    list.into_iter().filter_map(|_| None).collect()
}

/// The SQL front end's lists, empty between [`Mediator::serve_sql`]
/// calls. The AST's names borrow each call's text, so a call re-types
/// those three lists for its text with [`recycle`] and back.
#[derive(Default)]
struct FrontEnd {
    projection: Vec<SelectItem<'static>>,
    from: Vec<TableRef<'static>>,
    predicates: Vec<Predicate<'static>>,
    /// Refilled whole by every call that parses.
    resolved: ResolvedQuery,
}

/// The mediation middleware with its collocated bypass-yield cache, on
/// the uniform network.
///
/// Its decision stream is audited the way a session's is: an
/// [`AuditObserver`] rides every served query and validates the policy's
/// decisions against a shadow cache model. Auditing is on in debug
/// builds; release deployments opt in with [`Mediator::with_audit`]. The
/// auditor records violations rather than panicking — poll
/// [`Mediator::audit_report`].
pub struct Mediator {
    catalog: Catalog,
    objects: ObjectCatalog,
    policy: Box<dyn CachePolicy>,
    /// The kernel's priced fetch rows for `objects`, built once for the
    /// mediator's lifetime.
    fetch_rows: Vec<Bytes>,
    /// The decision-stream audit, when auditing is on.
    audit: Option<AuditObserver>,
    served: u64,
    wan_total: Bytes,
    /// The query [`Mediator::serve_sql`] hands the kernel. Only the
    /// members the kernel reads are set: the id, the total yield and the
    /// two yield lists, which every call refills in place.
    slot: TraceQuery,
    /// The front end's lists, refilled by every [`Mediator::serve_sql`].
    front: FrontEnd,
    /// The served query's object slices, resolved into this one buffer
    /// on every call.
    slices: Vec<(ObjectId, Bytes)>,
    /// The kernel's observer list, empty between calls; each call
    /// re-types it for its observers with [`recycle`].
    observers: Vec<&'static mut dyn Observer>,
}

impl Mediator {
    /// Build a mediator over `catalog` caching at `granularity` with the
    /// given policy. Decision auditing follows the build profile: on in
    /// debug, off in release.
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
        let objects = ObjectCatalog::uniform(&catalog, granularity);
        let fetch_rows = ReplayEngine::flat_rows(&objects);
        Self {
            catalog,
            objects,
            policy,
            fetch_rows,
            audit: audit.then(|| AuditObserver::for_tier(0)),
            served: 0,
            wan_total: Bytes::ZERO,
            slot: TraceQuery::default(),
            front: FrontEnd::default(),
            slices: Vec::new(),
            observers: Vec::new(),
        }
    }

    /// The decision-stream audit accumulated so far (counts, delivery
    /// accounting, and any invariant violations), when auditing is on.
    pub fn audit_report(&self) -> Option<&AuditReport> {
        self.audit.as_ref().map(|audit| audit.auditor.report())
    }

    /// The schema catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
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
        let (policy, audit) = (&mut self.policy, &mut self.audit);
        let mut invalidate = |object: ObjectId| {
            let removed = policy.invalidate(object);
            if let Some(audit) = audit.as_mut() {
                audit
                    .auditor
                    .observe_invalidate(object, removed, policy.name());
            }
            usize::from(removed)
        };
        Ok(match self.objects.granularity() {
            Granularity::Table => self
                .objects
                .object_for_table(table.id)
                .map_or(0, &mut invalidate),
            Granularity::Column => table
                .columns
                .iter()
                .filter_map(|&c| self.objects.object_for_column(c).ok())
                .map(invalidate)
                .sum(),
        })
    }

    /// Parse, price, and serve one SQL query.
    ///
    /// # Errors
    ///
    /// Parse and semantic errors from the SQL substrate. A refused query
    /// leaves the clock, the cache and every later answer as they would
    /// be without it.
    pub fn serve_sql(&mut self, sql: &str) -> Result<ServedQuery> {
        let front = &mut self.front;
        let mut query = Query {
            top: None,
            projection: recycle(std::mem::take(&mut front.projection)),
            from: recycle(std::mem::take(&mut front.from)),
            predicates: recycle(std::mem::take(&mut front.predicates)),
        };
        let analyzed = parse_into(sql, &mut query)
            .and_then(|()| analyze_into(&self.catalog, &query, &mut front.resolved));
        front.projection = recycle(query.projection);
        front.from = recycle(query.from);
        front.predicates = recycle(query.predicates);
        analyzed?;
        let mut tq = std::mem::take(&mut self.slot);
        let mut yields = YieldBreakdown {
            per_table: std::mem::take(&mut tq.table_yields),
            per_column: std::mem::take(&mut tq.column_yields),
            ..YieldBreakdown::default()
        };
        YieldModel::new(&self.catalog).estimate_into(&front.resolved, &mut yields);
        tq.id = QueryId::new(u32::try_from(self.served).unwrap_or(u32::MAX));
        tq.total_yield = yields.total;
        tq.table_yields = yields.per_table;
        tq.column_yields = yields.per_column;
        let served = self.serve_trace_query(&tq, &mut []);
        self.slot = tq;
        Ok(served)
    }

    /// Serve an already-analyzed trace query: its references resolved
    /// against the mediator's object view (those that name no object are
    /// skipped), then one pass of the replay kernel, the same per-query
    /// code every batch replay runs, with the query count as the policy
    /// clock.
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
        let engine = ReplayEngine::with_rows(&self.objects, &self.fetch_rows);
        let index = usize::try_from(self.served).unwrap_or(usize::MAX);
        let mut window = QueryWindow::default();
        self.slices.clear();
        for_each_slice(tq, &self.objects, |object, raw_yield| {
            self.slices.push((object, raw_yield));
        });
        // One outcome per slice: the flat kernel consults one tier.
        let mut outcomes = OutcomeObserver {
            outcomes: Vec::with_capacity(self.slices.len()),
        };
        let mut observers: Vec<&mut dyn Observer> = recycle(std::mem::take(&mut self.observers));
        observers.push(&mut outcomes);
        if let Some(audit) = self.audit.as_mut() {
            observers.push(audit);
        }
        for obs in extra.iter_mut() {
            observers.push(&mut **obs);
        }
        let access_count = partition_access_observers(&mut observers);
        let mut policy: &mut dyn CachePolicy = self.policy.as_mut();
        engine.serve_query(
            index,
            tq,
            &self.slices,
            std::slice::from_mut(&mut policy),
            &mut window,
            &mut observers,
            access_count,
        );
        self.observers = recycle(observers);
        let outcome = ServedQuery {
            id: QueryId::new(u32::try_from(self.served).unwrap_or(u32::MAX)),
            delivered: window.delivered,
            from_cache: window.cache_served,
            from_servers: window.bypass_served,
            load_traffic: window.fetch_cost,
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
    use crate::engine::AlwaysHit;
    use byc_catalog::sdss::{build, SdssRelease};
    use byc_core::rate_profile::{RateProfile, RateProfileConfig};

    fn mediator(granularity: Granularity) -> Mediator {
        audited(granularity, cfg!(debug_assertions))
    }

    /// A Rate-Profile mediator with auditing forced on or off.
    fn audited(granularity: Granularity, audit: bool) -> Mediator {
        let catalog = build(SdssRelease::Edr, 1e-4, 2);
        let db = catalog.database_size();
        let policy = Box::new(RateProfile::new(
            db.scale(0.5),
            RateProfileConfig::default(),
        ));
        Mediator::with_audit(catalog, granularity, policy, audit)
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
        let mut m = audited(Granularity::Column, true);
        for _ in 0..10 {
            m.serve_sql(SQL).unwrap();
        }
        // The drops reach the auditor: had they not, its shadow model
        // would still hold the dropped columns and flag the next query.
        assert!(m.invalidate_table("PhotoObj").unwrap() > 0);
        m.serve_sql(SQL).unwrap();
        let audit = m.audit_report().unwrap();
        assert!(audit.is_clean(), "{:?}", audit.violations);
        assert_eq!(audit.accesses, 22); // 11 queries x 2 columns
        assert_eq!(audit.wan_cost(), m.wan_total());
    }

    #[test]
    fn audit_flags_a_hit_on_an_uncached_object() {
        let catalog = build(SdssRelease::Edr, 1e-4, 2);
        let mut m = Mediator::with_audit(catalog, Granularity::Column, Box::new(AlwaysHit), true);
        m.serve_sql(SQL).unwrap();
        let audit = m.audit_report().unwrap();
        assert!(!audit.is_clean());
        assert!(
            audit.violations[0].contains("not cached"),
            "{:?}",
            audit.violations
        );
    }

    #[test]
    fn audit_opt_out_is_a_pass_through() {
        // Off, the policy serves unwrapped and no report is kept.
        let mut m = audited(Granularity::Column, false);
        let served = m.serve_sql(SQL).unwrap();
        assert_eq!(served.outcomes.len(), 2);
        assert!(m.audit_report().is_none());
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
        let mut m = Mediator::with_audit(catalog, Granularity::Column, policy, true);
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
        let audit = m.audit_report().unwrap();
        assert!(audit.is_clean(), "{:?}", audit.violations);
    }

    #[test]
    fn slot_is_refilled_per_query() {
        let mut m = mediator(Granularity::Column);
        let wide = "select p.ra, p.dec, p.objID from PhotoObj p where p.ra between 0 and 10";
        let first = m.serve_sql(wide).unwrap();
        let second = m.serve_sql(SQL).unwrap();
        assert_eq!(first.outcomes.len(), 3);
        assert_eq!(second.outcomes.len(), 2);
        assert_eq!(m.slot.id, QueryId::new(1));
        assert_eq!(m.slot.total_yield, second.delivered);
        assert_eq!(m.slot.column_yields.len(), 2);
        // A refused query leaves the clock and the slot alone.
        assert!(m.serve_sql("select nope from PhotoObj").is_err());
        assert_eq!(m.served_count(), 2);
        assert_eq!(m.slot.id, QueryId::new(1));
    }

    /// The benchmark trace's widest query shape, a two-table join, with
    /// a filter on each table so that every list it fills is non-empty.
    const WIDEST: &str = "select p.objID, p.modelMag_g, p.dec, p.ra, p.modelMag_r, \
                          s.z as redshift from SpecObj s, PhotoObj p \
                          where p.objID = s.objID and s.specClass = 1 and s.zConf > 0.95 \
                          and s.z between 1.8 and 3.3 and p.ra > 10";

    /// Every list a `serve_sql` call refills, as (address, capacity),
    /// each table's lists last, in `FROM` order.
    fn buffers(m: &Mediator) -> Vec<(usize, usize)> {
        fn of<T>(v: &Vec<T>) -> (usize, usize) {
            (v.as_ptr().addr(), v.capacity())
        }
        let front = &m.front;
        let mut out = vec![
            of(&front.projection),
            of(&front.from),
            of(&front.predicates),
            of(&front.resolved.tables),
            of(&front.resolved.joins),
            of(&m.slot.table_yields),
            of(&m.slot.column_yields),
            of(&m.slices),
            of(&m.observers),
        ];
        for a in &front.resolved.tables {
            out.extend([of(&a.columns), of(&a.projected), of(&a.filters)]);
        }
        out
    }

    #[test]
    fn serve_sql_refills_its_lists_in_place() {
        // Pins std's in-place `collect` that `recycle` relies on, and the
        // analyzer's parking of a join's second table.
        let mut m = mediator(Granularity::Column);
        m.serve_sql(WIDEST).unwrap();
        let wide = buffers(&m);
        assert!(wide.iter().all(|&(_, cap)| cap > 0), "{wide:?}");
        let count = "select count(*) from PhotoObj p where p.ra between 1 and 2";
        for sql in [SQL, count, WIDEST, SQL, WIDEST] {
            m.serve_sql(sql).unwrap();
            let now = buffers(&m);
            assert_eq!(now[..], wide[..now.len()], "{sql}");
        }
        assert_eq!(buffers(&m), wide);
    }

    #[test]
    fn a_refused_call_changes_no_later_answer() {
        for refused in [
            // Refused by the parser after it filled every list.
            "select p.ra, p.dec from PhotoObj p where p.ra between 0 and 10 or p.dec > 1",
            // Refused by the analyzer after it filled the first table.
            "select p.ra, s.nope from PhotoObj p, SpecObj s where p.objID = s.objID",
            "select p.ra from PhotoObj p, SpecObj p",
            "",
        ] {
            let mut m = mediator(Granularity::Column);
            let mut fresh = mediator(Granularity::Column);
            assert_eq!(m.serve_sql(WIDEST), fresh.serve_sql(WIDEST));
            assert!(m.serve_sql(refused).is_err(), "{refused:?}");
            let second = m.serve_sql(SQL).unwrap();
            assert_eq!(second, fresh.serve_sql(SQL).unwrap(), "{refused:?}");
            assert_eq!(second.id, QueryId::new(1));
        }
    }

    #[test]
    fn clock_advances_per_query() {
        let mut m = mediator(Granularity::Table);
        m.serve_sql(SQL).unwrap();
        m.serve_sql(SQL).unwrap();
        assert_eq!(m.served_count(), 2);
    }
}
