//! The one replay kernel behind every federation entry point.
//!
//! ```text
//! TraceQuery → object slices → tier walk → CostEvent → observers
//! ```
//!
//! A [`ReplayEngine`] serves one query at a time. It walks the query's
//! table or column yields in place, resolves each to its cacheable
//! object, and walks that slice up a linear hierarchy of caching tiers,
//! bottom-up (tier 0 nearest the clients): each tier's policy sees a
//! priced [`Access`]; a `Bypass` forwards the request one hop up, a `Hit`
//! or a `Load` resolves it. The flat client↔server WAN is the depth-1
//! hierarchy — one tier behind one link — so flat and tiered replays,
//! resident and streamed traces, sweeps, and the [`Mediator`] all run
//! this same per-query code, and its decision→cost conversion is the only
//! place in `byc-federation` where `Decision` variants become WAN costs.
//!
//! An engine prices every object's origin fetch down to each tier once,
//! when it is built (an `objects × depth` table). Per slice it prices the
//! yield on a link only when a decision puts bytes on that link, folds
//! the slice's cost split straight into the caller's [`QueryWindow`], and
//! hands [`CostEvent`]s only to the observers that want accesses.
//! Everything downstream is an [`Observer`] composition:
//!
//! * [`CostObserver`] — accumulates a [`CostReport`] (Tables 1–2);
//! * [`Breakdown`] — folds the same ledger by `(window, tier, server)`;
//!   its views are the per-[`ServerId`] rows of the heterogeneous-network
//!   (BYHR) view, per-tier rows, per-window totals, and the
//!   cumulative-cost curves of Figs 7–8;
//! * [`AuditObserver`] — validates the decision stream with a
//!   [`DecisionAuditor`] shadow model;
//! * [`FlightRecorder`] — keeps the last events per tier and snapshots
//!   them into a [`Postmortem`] when a query fails or degrades.
//!
//! [`Mediator`]: crate::mediator::Mediator

use crate::accounting::CostReport;
use crate::faults::{spiked_cost, DegradationPolicy, FaultPlan};
use crate::network::{NetworkModel, Topology};
use crate::simulator::SeriesPoint;
use byc_catalog::{Granularity, ObjectCatalog};
use byc_core::access::Access;
use byc_core::audit::{AuditReport, DecisionAuditor};
use byc_core::policy::{CachePolicy, Decision};
use byc_types::{Bytes, ObjectId, ServerId, Tick};
use byc_workload::TraceQuery;
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;

/// The cost consequences of serving one object slice of one query at one
/// caching tier — what the kernel emits to every observer.
///
/// Exactly one of the `hits` / `bypasses` / `loads` counters is 1 (they
/// are counters, not flags, so observers can sum them blindly), and the
/// byte fields are pre-split by decision: observers accumulate without
/// ever matching on [`Decision`] themselves.
///
/// Byte fields come in two currencies. *Delivered* quantities
/// (`delivered`, `bypass_served`, `cache_served`) are raw result bytes —
/// what the client receives, independent of link costs. *WAN* quantities
/// (`bypass_cost`, `fetch_cost`, `relay_cost`) are priced through the
/// engine's links; under [`Uniform`](crate::network::Uniform) the two
/// currencies coincide.
#[derive(Clone, Copy)]
pub struct CostEvent<'a> {
    /// Query ordinal within the replay.
    pub query: usize,
    /// The cacheable object served.
    pub object: ObjectId,
    /// The object's home server (prices the WAN quantities).
    pub server: ServerId,
    /// The caching tier this event belongs to, bottom-up (0 = site tier).
    /// Always 0 on the flat topology. In tiered replays a slice emits one
    /// event per consulted tier: inner-tier bypasses carry only their
    /// relay traffic, and the resolving tier carries the delivery.
    pub tier: u32,
    /// The policy-visible access, when a policy was consulted (`None` on
    /// the query-level path used by the semantic baseline).
    pub access: Option<&'a Access>,
    /// Raw result bytes delivered to the client for this slice (`D_A`).
    pub delivered: Bytes,
    /// Raw result bytes shipped from the server (nonzero iff bypassed).
    pub bypass_served: Bytes,
    /// WAN cost of the bypassed slice (`D_S`, network-priced).
    pub bypass_cost: Bytes,
    /// WAN cost of the cache load (`D_L`, network-priced; nonzero iff
    /// loaded).
    pub fetch_cost: Bytes,
    /// WAN cost of relaying a slice resolved *above* this tier over the
    /// link directly above it (network-priced). Nonzero only for
    /// inner-tier bypass events of a tiered topology; always zero on the
    /// flat topology.
    pub relay_cost: Bytes,
    /// Raw result bytes served out of the cache (`D_C`).
    pub cache_served: Bytes,
    /// WAN bytes wasted on failed transfer attempts of this slice
    /// (network-priced; zero without a fault layer).
    pub retried_bytes: Bytes,
    /// Raw result bytes this slice failed to deliver (nonzero iff
    /// `failed`).
    pub failed_bytes: Bytes,
    /// 1 iff the decision was a hit.
    pub hits: u64,
    /// 1 iff the decision was a bypass.
    pub bypasses: u64,
    /// 1 iff the decision was a load.
    pub loads: u64,
    /// Objects evicted by this decision.
    pub evictions: u64,
    /// Failed transfer attempts of this slice (the retry count).
    pub retries: u64,
    /// 1 iff every attempt failed and the slice delivered nothing.
    pub failed: u64,
    /// 1 iff every attempt failed and the slice was served from the
    /// stale local copy instead.
    pub degraded: u64,
    /// The policy's decision, when a policy was consulted.
    pub decision: Option<&'a Decision>,
    /// The deciding policy, for observers that introspect cache state
    /// (the auditor's post-decision checks).
    pub policy: Option<&'a dyn CachePolicy>,
}

impl CostEvent<'_> {
    /// An event for one slice with every quantity zero and no access,
    /// decision, or policy attached.
    #[inline]
    fn blank(query: usize, object: ObjectId, server: ServerId) -> CostEvent<'static> {
        CostEvent {
            query,
            object,
            server,
            tier: 0,
            access: None,
            delivered: Bytes::ZERO,
            bypass_served: Bytes::ZERO,
            bypass_cost: Bytes::ZERO,
            fetch_cost: Bytes::ZERO,
            relay_cost: Bytes::ZERO,
            cache_served: Bytes::ZERO,
            retried_bytes: Bytes::ZERO,
            failed_bytes: Bytes::ZERO,
            hits: 0,
            bypasses: 0,
            loads: 0,
            evictions: 0,
            retries: 0,
            failed: 0,
            degraded: 0,
            decision: None,
            policy: None,
        }
    }
}

impl std::fmt::Debug for CostEvent<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CostEvent")
            .field("query", &self.query)
            .field("object", &self.object)
            .field("server", &self.server)
            .field("tier", &self.tier)
            .field("delivered", &self.delivered)
            .field("bypass_served", &self.bypass_served)
            .field("bypass_cost", &self.bypass_cost)
            .field("fetch_cost", &self.fetch_cost)
            .field("relay_cost", &self.relay_cost)
            .field("cache_served", &self.cache_served)
            .field("retried_bytes", &self.retried_bytes)
            .field("failed_bytes", &self.failed_bytes)
            .field("hits", &self.hits)
            .field("bypasses", &self.bypasses)
            .field("loads", &self.loads)
            .field("evictions", &self.evictions)
            .field("retries", &self.retries)
            .field("failed", &self.failed)
            .field("degraded", &self.degraded)
            .field("decision", &self.decision)
            .finish_non_exhaustive()
    }
}

/// A composable consumer of the engine's replay stream.
///
/// All hooks default to no-ops; implement only what the observer needs.
/// The engine guarantees the call order `on_query_start → on_access* →
/// on_query_end` per query, and exactly one `finish` after the last
/// query of a full replay.
pub trait Observer {
    /// A query is about to be served.
    fn on_query_start(&mut self, _index: usize, _query: &TraceQuery) {}

    /// One object slice was served; `event` carries its cost split.
    fn on_access(&mut self, _event: &CostEvent<'_>) {}

    /// The query's last slice was served.
    fn on_query_end(&mut self, _index: usize, _query: &TraceQuery) {}

    /// The replay is over. `policy` is the replayed policy when one was
    /// driving the decisions (`None` on the query-level path).
    fn finish(&mut self, _policy: Option<&dyn CachePolicy>) {}

    /// Whether this observer consumes per-access events. Observers that
    /// only tick on query boundaries (span tracers chunking by query
    /// index) return `false`, and the kernel then skips them in its
    /// per-slice dispatch: attaching such an observer costs two virtual
    /// calls per *query*, not per slice.
    fn wants_accesses(&self) -> bool {
        true
    }

    /// Deferred non-fatal problems to surface to the user once the
    /// replay is over (a telemetry sink's parked IO error, a bounded
    /// recorder's truncation). Polled by the session after `finish`;
    /// the default is no warnings.
    fn warnings(&mut self) -> Vec<String> {
        Vec::new()
    }
}

/// Stable-partition `observers` so those wanting per-access dispatch
/// come first, returning how many do. Replay loops partition once, then
/// dispatch `on_access` only to that prefix — query-boundary observers
/// ([`Observer::wants_accesses`]` == false`) never appear on the
/// per-slice hot path. Relative order is preserved within both groups,
/// and the partition is idempotent.
pub(crate) fn partition_access_observers(observers: &mut [&mut dyn Observer]) -> usize {
    let mut split = 0;
    for i in 0..observers.len() {
        let wants = observers.get(i).is_some_and(|o| o.wants_accesses());
        if wants {
            if let Some(run) = observers.get_mut(split..=i) {
                run.rotate_right(1);
            }
            split += 1;
        }
    }
    split
}

/// Trace references that name no object of the catalog: the kernel
/// skips them, so their bytes reach no report column.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Unresolved {
    /// References skipped.
    pub refs: u64,
    /// Result bytes they carried.
    pub bytes: Bytes,
}

impl Unresolved {
    // Off the slice loop's hot path: traces that resolve never call it.
    #[cold]
    #[inline(never)]
    fn skip(&mut self, raw_yield: Bytes) {
        self.refs += 1;
        self.bytes += raw_yield;
    }

    /// Add another count into this one.
    pub(crate) fn add(&mut self, other: Unresolved) {
        self.refs += other.refs;
        self.bytes += other.bytes;
    }

    /// The replay warning for a non-zero count, naming the granularity
    /// the references failed to resolve at.
    pub(crate) fn warning(self, granularity: Granularity) -> Option<String> {
        (self.refs > 0).then(|| {
            format!(
                "{} trace references ({} of results) name no {} in the catalog; \
                 they were skipped and their bytes are in no report column",
                self.refs,
                self.bytes,
                granularity.label()
            )
        })
    }
}

/// Call `f(object, raw yield)` for each slice of `query` at the
/// granularity of `objects`, in the query's own table/column order.
/// References that do not resolve to a cacheable object are skipped and
/// counted in the result.
#[inline]
pub(crate) fn for_each_slice(
    query: &TraceQuery,
    objects: &ObjectCatalog,
    mut f: impl FnMut(ObjectId, Bytes),
) -> Unresolved {
    let mut skipped = Unresolved::default();
    match objects.granularity() {
        Granularity::Table => {
            for &(t, raw_yield) in &query.table_yields {
                match objects.object_for_table(t) {
                    Ok(object) => f(object, raw_yield),
                    Err(_) => skipped.skip(raw_yield),
                }
            }
        }
        Granularity::Column => {
            for &(c, raw_yield) in &query.column_yields {
                match objects.object_for_column(c) {
                    Ok(object) => f(object, raw_yield),
                    Err(_) => skipped.skip(raw_yield),
                }
            }
        }
    }
    skipped
}

/// The priced links an engine charges traffic over, bottom-up: link `t`
/// is the edge above caching tier `t`, the last one the origin link. A
/// flat network is a single link.
#[derive(Clone, Copy)]
enum Links<'a> {
    Flat(&'a dyn NetworkModel),
    Tiered(&'a Topology),
}

impl Links<'_> {
    fn depth(self) -> usize {
        match self {
            Links::Flat(_) => 1,
            Links::Tiered(topology) => topology.depth(),
        }
    }

    /// WAN cost of shipping `bytes` for `server` over link `link`.
    #[inline]
    fn price(self, link: usize, server: ServerId, bytes: Bytes) -> Bytes {
        match self {
            Links::Flat(network) => network.price(server, bytes),
            Links::Tiered(topology) => topology.link_price(link, server, bytes),
        }
    }
}

/// Row-major `[object][tier]` priced origin fetches: each object's fetch
/// cost summed over the links at and above each tier — the buy price
/// `f_i` that tier's policy weighs for a load.
fn fetch_rows(objects: &ObjectCatalog, links: Links<'_>) -> Vec<Bytes> {
    let depth = links.depth();
    let mut rows = Vec::with_capacity(objects.len().saturating_mul(depth));
    for info in objects.objects() {
        for tier in 0..depth {
            rows.push(
                (tier..depth)
                    .map(|link| links.price(link, info.server, info.fetch_cost))
                    .sum(),
            );
        }
    }
    rows
}

/// Resolve a slice whose retry budget is exhausted, per the plan's
/// [`DegradationPolicy`]: serve the stale local copy (degraded,
/// cache-tier delivery, zero fresh WAN) or fail the slice (nothing
/// delivered; the undeliverable yield is tracked in `failed_bytes` so
/// availability and the fault-free reconciliation stay exact).
fn degrade_slice(degradation: DegradationPolicy, event: &mut CostEvent<'_>, raw_yield: Bytes) {
    match degradation {
        DegradationPolicy::ServeStale => {
            event.degraded = 1;
            event.cache_served = raw_yield;
        }
        DegradationPolicy::Fail => {
            event.failed = 1;
            event.delivered = Bytes::ZERO;
            event.failed_bytes = raw_yield;
        }
    }
}

/// Fold one event into the window and hand it to the access observers.
#[inline]
fn emit(window: &mut QueryWindow, observers: &mut [&mut dyn Observer], event: &CostEvent<'_>) {
    window.absorb(event);
    for obs in observers.iter_mut() {
        obs.on_access(event);
    }
}

/// One slice after its decision walk: the tier `top` that resolved it
/// (or the last tier, which bypassed to the origin), with that tier's
/// access and decision.
struct Resolved<'r> {
    index: usize,
    object: ObjectId,
    server: ServerId,
    raw_yield: Bytes,
    top: usize,
    access: &'r Access,
    decision: &'r Decision,
}

/// The per-query replay kernel over one object view, one set of priced
/// links, and an optional fault layer.
///
/// An engine holds no replay state — that lives in the tier policies,
/// the caller's [`QueryWindow`], and the observers — so one engine can
/// serve any number of replays, concurrently included.
pub struct ReplayEngine<'a> {
    objects: &'a ObjectCatalog,
    links: Links<'a>,
    depth: usize,
    /// Row-major `[object][tier]` priced origin fetches (see
    /// [`fetch_rows`]).
    fetch: Cow<'a, [Bytes]>,
    faults: Option<FaultPlan<'a>>,
}

impl std::fmt::Debug for ReplayEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplayEngine")
            .field("objects", &self.objects.len())
            .field("depth", &self.depth)
            .field("faults", &self.faults)
            .finish_non_exhaustive()
    }
}

impl<'a> ReplayEngine<'a> {
    /// An engine over `objects` on a uniform flat network (the BYU
    /// regime; pricing is the identity).
    pub fn new(objects: &'a ObjectCatalog) -> Self {
        Self::with_network(objects, &crate::network::UNIFORM)
    }

    /// A flat engine: one caching tier, whose single link prices every
    /// object's traffic by its home server's link cost.
    pub fn with_network(objects: &'a ObjectCatalog, network: &'a dyn NetworkModel) -> Self {
        Self::over(objects, Links::Flat(network), None)
    }

    /// An engine over a tier hierarchy: one caching tier per topology
    /// tier, each link priced by the topology.
    pub fn with_topology(objects: &'a ObjectCatalog, topology: &'a Topology) -> Self {
        Self::over(objects, Links::Tiered(topology), None)
    }

    /// The fetch rows of a flat engine over `objects` and `network`, for
    /// a long-lived caller to build once and lend to
    /// [`Self::with_rows`].
    pub(crate) fn flat_rows(objects: &ObjectCatalog, network: &dyn NetworkModel) -> Vec<Bytes> {
        fetch_rows(objects, Links::Flat(network))
    }

    /// A flat engine over rows [`Self::flat_rows`] built for the same
    /// `objects` and `network`: constant time, where the other
    /// constructors price every object.
    pub(crate) fn with_rows(
        objects: &'a ObjectCatalog,
        network: &'a dyn NetworkModel,
        rows: &'a [Bytes],
    ) -> Self {
        Self::over(objects, Links::Flat(network), Some(rows))
    }

    fn over(objects: &'a ObjectCatalog, links: Links<'a>, rows: Option<&'a [Bytes]>) -> Self {
        ReplayEngine {
            objects,
            links,
            depth: links.depth(),
            fetch: match rows {
                Some(rows) => Cow::Borrowed(rows),
                None => Cow::Owned(fetch_rows(objects, links)),
            },
            faults: None,
        }
    }

    /// Attach a fault layer: WAN transfers resolve through `plan`'s
    /// model/retry/degradation instead of always succeeding. Without
    /// this the engine runs the exact fault-free path.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan<'a>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The object view this engine resolves queries against.
    pub fn objects(&self) -> &ObjectCatalog {
        self.objects
    }

    /// The fault plan governing this engine's WAN transfers, if any.
    pub fn faults(&self) -> Option<&FaultPlan<'a>> {
        self.faults.as_ref()
    }

    /// The object's origin fetch priced down to `tier`.
    #[inline]
    fn fetch_at(&self, object: ObjectId, tier: usize) -> Bytes {
        self.fetch
            .get(object.index() * self.depth + tier)
            .copied()
            .unwrap_or(Bytes::ZERO)
    }

    /// The site tier's view of one object slice. `yield_bytes` is the
    /// raw delivered result — yield is a property of the query, not of
    /// the network — while `fetch_cost` is priced over the links the
    /// object would cross. This is the BYHR view (paper §3): policies
    /// weigh raw rent (bypass yield) against the *true* buy price `f_i`.
    /// Pricing both sides would cancel out of every rent-to-buy ratio
    /// and blind ratio policies to the network entirely.
    pub fn access_for(&self, object: ObjectId, raw_yield: Bytes, time: Tick) -> Access {
        Access {
            object,
            time,
            yield_bytes: raw_yield,
            size: self.objects.info(object).size,
            fetch_cost: self.fetch_at(object, 0),
        }
    }

    /// Serve query `index` inside its observer hooks: `on_query_start`
    /// on every observer, the kernel ([`Self::serve`]) with its events
    /// going to the first `access_count` observers — the prefix
    /// [`partition_access_observers`] leaves wanting accesses — then
    /// `on_query_end`. Sessions and the mediator serve their queries
    /// through here. Returns the query's references the catalog could
    /// not resolve.
    pub(crate) fn serve_query(
        &self,
        index: usize,
        query: &TraceQuery,
        tiers: &mut [&mut dyn CachePolicy],
        window: &mut QueryWindow,
        observers: &mut [&mut dyn Observer],
        access_count: usize,
    ) -> Unresolved {
        for obs in observers.iter_mut() {
            obs.on_query_start(index, query);
        }
        let access = observers.get_mut(..access_count).unwrap_or_default();
        let skipped = self.serve(index, query, tiers, window, access);
        for obs in observers.iter_mut() {
            obs.on_query_end(index, query);
        }
        skipped
    }

    /// Serve query `index` (the policy clock) through `tiers`, one policy
    /// per caching tier, bottom-up: every slice's cost split folds into
    /// `window` and reaches `observers` — which must be only those that
    /// want accesses — as [`CostEvent`]s.
    fn serve(
        &self,
        index: usize,
        query: &TraceQuery,
        tiers: &mut [&mut dyn CachePolicy],
        window: &mut QueryWindow,
        observers: &mut [&mut dyn Observer],
    ) -> Unresolved {
        let time = Tick::new(index as u64);
        for_each_slice(query, self.objects, |object, raw_yield| {
            self.serve_slice(index, time, object, raw_yield, tiers, window, observers);
        })
    }

    /// Resolve one object slice through the tier hierarchy.
    ///
    /// The walk consults tier 0 first. A `Bypass` forwards the request
    /// one hop up; a `Hit` at tier `r` serves the slice from that tier,
    /// relaying the yield down over links `0..r`; a `Load` at tier `t`
    /// fetches the whole object from the origin over links `t..depth`
    /// and serves the yield down over links `0..t`; a bypass at the last
    /// tier ships the slice from the origin over every link. One event
    /// is emitted per *consulted* tier: inner bypasses carry only their
    /// link's relay cost, the resolving tier carries the delivery, retry
    /// accounting, and degradation flags. At depth 1 this is exactly the
    /// flat hit/bypass/load accounting.
    ///
    /// Fault exposure follows the bytes: the transfer crosses the links
    /// of the resolution (none for a tier-0 hit), fails when any of them
    /// fails, and multiplies surviving links' cost spikes.
    ///
    /// Kept out of line: inlined into the per-query slice loop, its
    /// frame measured 20–30% slower on depth-1 sweeps.
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn serve_slice(
        &self,
        index: usize,
        time: Tick,
        object: ObjectId,
        raw_yield: Bytes,
        tiers: &mut [&mut dyn CachePolicy],
        window: &mut QueryWindow,
        observers: &mut [&mut dyn Observer],
    ) {
        let info = self.objects.info(object);
        let server = info.server;
        let access_at = |tier: usize| Access {
            object,
            time,
            yield_bytes: raw_yield,
            size: info.size,
            fetch_cost: self.fetch_at(object, tier),
        };
        // The decision walk, bottom-up until a tier hits or loads (or the
        // last tier bypasses to the origin). Decisions are taken before
        // any fault is drawn, so every tier's decision stream — and its
        // policy's state — is fault-independent.
        let depth = tiers.len();
        let Some(site) = tiers.first_mut() else {
            return; // no tiers: nothing decides
        };
        let mut top = 0;
        let mut access = access_at(0);
        let mut decision = site.on_access(&access);
        while decision.is_bypass() && top + 1 < depth {
            top += 1;
            access = access_at(top);
            let Some(policy) = tiers.get_mut(top) else {
                break;
            };
            decision = policy.on_access(&access);
        }
        let resolved = Resolved {
            index,
            object,
            server,
            raw_yield,
            top,
            access: &access,
            decision: &decision,
        };
        match &self.faults {
            // Fault-free, every transfer delivers at nominal cost: the
            // constant outcome folds the settle arithmetic down to the
            // plain hit/bypass/load split.
            None => self.settle(&resolved, tiers, window, observers, 1.0, 0, true),
            Some(plan) => self.settle_faulted(plan, &resolved, tiers, window, observers),
        }
    }

    /// Resolve a slice's transfer through the fault plan, then settle
    /// it. The transfer crosses the links the bytes traverse: none for a
    /// tier-0 hit, `0..top` for a hit at tier `top`, every link for a
    /// load or an origin bypass.
    #[inline(never)]
    fn settle_faulted(
        &self,
        plan: &FaultPlan<'_>,
        r: &Resolved<'_>,
        tiers: &[&mut dyn CachePolicy],
        window: &mut QueryWindow,
        observers: &mut [&mut dyn Observer],
    ) {
        let links = if r.decision.is_hit() {
            r.top
        } else {
            tiers.len()
        };
        let (multiplier, failed_attempts, delivered) = if links == 0 {
            (1.0, 0, true)
        } else {
            let links = 0..u32::try_from(links).unwrap_or(u32::MAX);
            let time = r.access.time;
            let res = plan.fetch_path(r.index, time, r.object, r.server, links);
            match res.delivered {
                Some(m) => (m, res.failed_attempts, true),
                None => (1.0, res.failed_attempts, false),
            }
        };
        self.settle(
            r,
            tiers,
            window,
            observers,
            multiplier,
            failed_attempts,
            delivered,
        );
    }

    /// Emit a resolved slice's events given its transfer outcome: the
    /// surviving links' cost `multiplier`, the failed attempts, and
    /// whether any attempt delivered. Always inlined, so the fault-free
    /// call's constant outcome folds away.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn settle(
        &self,
        r: &Resolved<'_>,
        tiers: &[&mut dyn CachePolicy],
        window: &mut QueryWindow,
        observers: &mut [&mut dyn Observer],
        multiplier: f64,
        failed_attempts: u32,
        delivered: bool,
    ) {
        let (server, raw_yield, top) = (r.server, r.raw_yield, r.top);
        let blank = CostEvent::blank(r.index, r.object, server);
        // Inner tiers passed the slice through on its way up: when the
        // transfer delivered, its yield crossed the link above each.
        if top > 0 {
            let bypass = Decision::Bypass;
            for t in 0..top {
                let inner = Access {
                    fetch_cost: self.fetch_at(r.object, t),
                    ..*r.access
                };
                let mut event = blank;
                event.tier = u32::try_from(t).unwrap_or(u32::MAX);
                event.access = Some(&inner);
                event.decision = Some(&bypass);
                event.policy = tiers.get(t).map(|p| &**p as &dyn CachePolicy);
                event.bypasses = 1;
                if delivered {
                    event.relay_cost =
                        spiked_cost(self.links.price(t, server, raw_yield), multiplier);
                }
                emit(window, observers, &event);
            }
        }

        // The resolving tier carries delivery, retries, and degradation.
        let mut event = blank;
        event.tier = u32::try_from(top).unwrap_or(u32::MAX);
        event.access = Some(r.access);
        event.decision = Some(r.decision);
        event.policy = tiers.get(top).map(|p| &**p as &dyn CachePolicy);
        event.delivered = raw_yield;
        if failed_attempts > 0 {
            // Nominal priced cost of the whole transfer path.
            let downstream: Bytes = (0..top)
                .map(|l| self.links.price(l, server, raw_yield))
                .sum();
            let nominal = match r.decision {
                Decision::Hit => downstream,
                Decision::Load { .. } => downstream + r.access.fetch_cost,
                Decision::Bypass => downstream + self.links.price(top, server, raw_yield),
            };
            event.retries = u64::from(failed_attempts);
            event.retried_bytes = FaultPlan::wasted_bytes(nominal, failed_attempts);
        }
        match r.decision {
            Decision::Hit => {
                event.hits = 1;
                if delivered {
                    event.cache_served = raw_yield;
                }
            }
            Decision::Bypass => {
                event.bypasses = 1;
                if delivered {
                    event.bypass_served = raw_yield;
                    event.bypass_cost =
                        spiked_cost(self.links.price(top, server, raw_yield), multiplier);
                }
            }
            Decision::Load { evictions } => {
                event.loads = 1;
                event.evictions = evictions.len() as u64;
                if delivered {
                    event.fetch_cost = spiked_cost(r.access.fetch_cost, multiplier);
                    event.cache_served = raw_yield;
                }
            }
        }
        if let (false, Some(plan)) = (delivered, &self.faults) {
            degrade_slice(plan.degradation, &mut event, raw_yield);
        }
        emit(window, observers, &event);
    }

    /// Serve one query at *query* granularity: the whole result is either
    /// cache-served (`hit`) or shipped from the servers over the site
    /// link. Used by the semantic (query-result) baseline, which has no
    /// per-object policy — events carry `decision: None` / `policy:
    /// None`, but still one event per object slice so per-server
    /// attribution works.
    pub fn serve_query_level(
        &self,
        index: usize,
        query: &TraceQuery,
        hit: bool,
        observers: &mut [&mut dyn Observer],
    ) {
        let access_count = partition_access_observers(observers);
        for obs in observers.iter_mut() {
            obs.on_query_start(index, query);
        }
        for_each_slice(query, self.objects, |object, raw_yield| {
            let server = self.objects.info(object).server;
            let mut event = CostEvent::blank(index, object, server);
            event.delivered = raw_yield;
            if hit {
                event.hits = 1;
                event.cache_served = raw_yield;
            } else {
                event.bypasses = 1;
                event.bypass_served = raw_yield;
                event.bypass_cost = self.links.price(0, server, raw_yield);
            }
            for obs in observers.iter_mut().take(access_count) {
                obs.on_access(&event);
            }
        });
        for obs in observers.iter_mut() {
            obs.on_query_end(index, query);
        }
    }
}

/// The shared per-window accumulation every byte-summing observer runs:
/// one field-by-field absorption of a [`CostEvent`] stream over some
/// window (a whole replay, one [`Breakdown`] cell, one metric series).
///
/// [`CostObserver`], [`Breakdown`] and the telemetry registry all absorb
/// through here, so a new [`CostEvent`] field has exactly one place to be
/// threaded into the accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryWindow {
    /// Raw result bytes delivered to the client (`D_A` share).
    pub delivered: Bytes,
    /// Raw result bytes shipped from the servers (bypassed slices).
    pub bypass_served: Bytes,
    /// WAN cost of bypassed slices (`D_S` share, network-priced).
    pub bypass_cost: Bytes,
    /// WAN cost of cache loads (`D_L` share, network-priced).
    pub fetch_cost: Bytes,
    /// WAN cost of relaying slices over inner topology links
    /// (network-priced; zero on the flat topology).
    pub relay_cost: Bytes,
    /// Raw result bytes served out of the cache (`D_C` share).
    pub cache_served: Bytes,
    /// WAN bytes wasted on failed transfer attempts (network-priced).
    pub retried_bytes: Bytes,
    /// Raw result bytes that failed to deliver (failed slices).
    pub failed_bytes: Bytes,
    /// Hit decisions.
    pub hits: u64,
    /// Bypass decisions.
    pub bypasses: u64,
    /// Load decisions.
    pub loads: u64,
    /// Objects evicted.
    pub evictions: u64,
    /// Failed transfer attempts (retries).
    pub retries: u64,
    /// Slices that delivered nothing (every attempt failed, degradation
    /// policy `Fail`).
    pub failed_slices: u64,
    /// Slices served from the stale local copy (every attempt failed,
    /// degradation policy `ServeStale`).
    pub degraded_slices: u64,
}

impl QueryWindow {
    /// Accumulate one event.
    #[inline]
    pub fn absorb(&mut self, event: &CostEvent<'_>) {
        self.delivered += event.delivered;
        self.bypass_served += event.bypass_served;
        self.bypass_cost += event.bypass_cost;
        self.fetch_cost += event.fetch_cost;
        self.relay_cost += event.relay_cost;
        self.cache_served += event.cache_served;
        self.retried_bytes += event.retried_bytes;
        self.failed_bytes += event.failed_bytes;
        self.hits += event.hits;
        self.bypasses += event.bypasses;
        self.loads += event.loads;
        self.evictions += event.evictions;
        self.retries += event.retries;
        self.failed_slices += event.failed;
        self.degraded_slices += event.degraded;
    }

    /// Fold another window into this one (rows, totals, registries).
    pub fn merge(&mut self, other: &QueryWindow) {
        self.delivered += other.delivered;
        self.bypass_served += other.bypass_served;
        self.bypass_cost += other.bypass_cost;
        self.fetch_cost += other.fetch_cost;
        self.relay_cost += other.relay_cost;
        self.cache_served += other.cache_served;
        self.retried_bytes += other.retried_bytes;
        self.failed_bytes += other.failed_bytes;
        self.hits += other.hits;
        self.bypasses += other.bypasses;
        self.loads += other.loads;
        self.evictions += other.evictions;
        self.retries += other.retries;
        self.failed_slices += other.failed_slices;
        self.degraded_slices += other.degraded_slices;
    }

    /// WAN traffic of the window: `D_S + D_L` plus inner-link relay
    /// traffic and the bytes wasted on failed transfer attempts (both
    /// zero on a flat fault-free replay).
    pub fn wan_cost(&self) -> Bytes {
        self.bypass_cost + self.fetch_cost + self.relay_cost + self.retried_bytes
    }

    /// Policy decisions absorbed (hits + bypasses + loads).
    pub fn decisions(&self) -> u64 {
        self.hits + self.bypasses + self.loads
    }

    /// Delivery conservation over the window: every delivered byte was
    /// either shipped from a server or served from cache.
    pub fn conserves_delivery(&self) -> bool {
        self.delivered == self.bypass_served + self.cache_served
    }
}

/// Accumulates the [`CostReport`] of a replay (decision counts, the
/// `D_S`/`D_L`/`D_C` byte split, and the conservation fields).
#[derive(Clone, Debug)]
pub struct CostObserver {
    policy: String,
    trace: String,
    granularity: String,
    queries: usize,
    /// The replay's cost window; the session's kernel folds into it
    /// directly instead of dispatching `on_access`.
    pub(crate) window: QueryWindow,
    /// The window's failed/degraded slice counts when the in-flight
    /// query started, so `on_query_end` can tell whether it had any.
    failed_before: u64,
    degraded_before: u64,
    failed_queries: u64,
    degraded_queries: u64,
}

impl CostObserver {
    /// An observer whose report is headed with the given labels.
    pub fn new(policy: &str, trace: &str, granularity: &str) -> Self {
        CostObserver {
            policy: policy.to_string(),
            trace: trace.to_string(),
            granularity: granularity.to_string(),
            queries: 0,
            window: QueryWindow::default(),
            failed_before: 0,
            degraded_before: 0,
            failed_queries: 0,
            degraded_queries: 0,
        }
    }

    /// Take the completed report.
    pub fn into_report(self) -> CostReport {
        let w = self.window;
        CostReport {
            policy: self.policy,
            trace: self.trace,
            granularity: self.granularity,
            queries: self.queries,
            sequence_cost: w.delivered,
            bypass_served: w.bypass_served,
            bypass_cost: w.bypass_cost,
            fetch_cost: w.fetch_cost,
            relay_cost: w.relay_cost,
            cache_served: w.cache_served,
            retried_bytes: w.retried_bytes,
            failed_bytes: w.failed_bytes,
            hits: w.hits,
            bypasses: w.bypasses,
            loads: w.loads,
            evictions: w.evictions,
            retries: w.retries,
            failed_queries: self.failed_queries,
            degraded_queries: self.degraded_queries,
        }
    }
}

impl Observer for CostObserver {
    fn on_query_start(&mut self, _index: usize, _query: &TraceQuery) {
        self.queries += 1;
        self.failed_before = self.window.failed_slices;
        self.degraded_before = self.window.degraded_slices;
    }

    fn on_access(&mut self, event: &CostEvent<'_>) {
        self.window.absorb(event);
    }

    /// Fold the query's slice faults into per-query counts: a query
    /// with any failed slice surfaced an error to the client; one that
    /// only degraded still answered, just with stale data.
    fn on_query_end(&mut self, _index: usize, _query: &TraceQuery) {
        if self.window.failed_slices > self.failed_before {
            self.failed_queries += 1;
        } else if self.window.degraded_slices > self.degraded_before {
            self.degraded_queries += 1;
        }
    }
}

/// Validates the decision stream with a [`DecisionAuditor`] shadow model.
///
/// Every replay calls `finish` with the (tier's) policy, which runs the
/// closing deep check and freezes the report —
/// [`AuditObserver::into_report`] then returns it with no `Option` in the
/// path. Events without a decision (the query-level path) are ignored.
#[derive(Debug)]
pub struct AuditObserver {
    auditor: DecisionAuditor,
    finished: AuditReport,
    /// When set, only events of this tier are audited — tiered replays
    /// run one shadow model per tier (each tier's decision stream is an
    /// independent cache).
    tier: Option<u32>,
}

impl AuditObserver {
    /// An observer with invariant checking enabled.
    pub fn new() -> Self {
        AuditObserver {
            auditor: DecisionAuditor::new(),
            finished: AuditReport::default(),
            tier: None,
        }
    }

    /// An observer auditing only the given tier's decision stream.
    /// Tiered replays attach one per tier; the flat path's single
    /// unfiltered observer is the degenerate case.
    pub fn for_tier(tier: u32) -> Self {
        AuditObserver {
            tier: Some(tier),
            ..AuditObserver::new()
        }
    }

    /// The completed report (populated once the replay finished).
    pub fn into_report(self) -> AuditReport {
        self.finished
    }
}

impl Default for AuditObserver {
    fn default() -> Self {
        Self::new()
    }
}

impl Observer for AuditObserver {
    fn on_access(&mut self, event: &CostEvent<'_>) {
        if self.tier.is_some_and(|t| t != event.tier) {
            return;
        }
        if let (Some(access), Some(decision), Some(policy)) =
            (event.access, event.decision, event.policy)
        {
            self.auditor.observe(access, decision, policy);
        }
    }

    fn finish(&mut self, policy: Option<&dyn CachePolicy>) {
        if let Some(policy) = policy {
            self.finished = self.auditor.finish(policy);
        }
    }
}

/// One window of a [`Breakdown`]: a range of queries and one
/// [`QueryWindow`] per `(tier, server)` cell that saw an event in them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Window {
    /// The query indexes the window covers.
    pub queries: Range<usize>,
    /// The window's ledger, keyed by `(tier, server)`.
    pub cells: BTreeMap<(u32, ServerId), QueryWindow>,
}

impl Window {
    /// The window's counters summed over every cell.
    pub fn total(&self) -> QueryWindow {
        let mut total = QueryWindow::default();
        for cell in self.cells.values() {
            total.merge(cell);
        }
        total
    }

    /// The window's counters per tier, bottom-up: one row per tier that
    /// emitted an event in the window.
    pub fn tiers(&self) -> Vec<(u32, QueryWindow)> {
        group(std::slice::from_ref(self), |tier, _| tier)
    }
}

/// A replay's WAN ledger folded by `(window, tier, server)`: every
/// [`CostEvent`] lands in the [`QueryWindow`] of its tier and home server
/// within the current window. A window closes every N queries
/// ([`Breakdown::every`]), or the whole replay is one window
/// ([`Breakdown::new`]).
///
/// The views regroup the same cells, so they partition the replay's
/// [`CostReport`] exactly: per-server rows (the heterogeneous-network
/// view that motivates BYHR over BYU), per-tier rows, per-window totals,
/// and the cumulative-WAN series of Figs 7–8.
#[derive(Clone, Debug)]
pub struct Breakdown {
    every: usize,
    windows: Vec<Window>,
}

/// The per-server breakdown of a replay, under its former name.
pub type PerServerObserver = Breakdown;

impl Default for Breakdown {
    fn default() -> Self {
        Self::new()
    }
}

impl Breakdown {
    /// The whole replay as one window.
    pub fn new() -> Self {
        Self::every(usize::MAX)
    }

    /// A window every `every` queries (clamped to at least 1); the last
    /// window of a replay may be partial.
    pub fn every(every: usize) -> Self {
        Breakdown {
            every: every.max(1),
            windows: Vec::new(),
        }
    }

    /// The windows so far, oldest first. They tile the replayed queries;
    /// during a replay the last one may still be filling.
    pub fn windows(&self) -> &[Window] {
        &self.windows
    }

    /// The replay's counters per home server, in server order.
    pub fn servers(&self) -> Vec<(ServerId, QueryWindow)> {
        group(&self.windows, |_, server| server)
    }

    /// The replay's counters per caching tier, bottom-up. On a flat
    /// replay everything lands in tier 0.
    pub fn tiers(&self) -> Vec<(u32, QueryWindow)> {
        group(&self.windows, |tier, _| tier)
    }

    /// The replay's counters summed over every cell.
    pub fn total(&self) -> QueryWindow {
        let mut total = QueryWindow::default();
        for window in &self.windows {
            total.merge(&window.total());
        }
        total
    }

    /// The cumulative WAN cost at the end of every window: with
    /// [`Breakdown::every`], a sample every N queries plus the final
    /// query (Figs 7–8).
    pub fn series(&self) -> Vec<SeriesPoint> {
        let mut cumulative = Bytes::ZERO;
        self.windows
            .iter()
            .map(|window| {
                cumulative += window.total().wan_cost();
                SeriesPoint {
                    query: window.queries.end,
                    cumulative_cost: cumulative,
                }
            })
            .collect()
    }
}

/// Merge the cells of `windows` into one row per `key(tier, server)`, in
/// key order.
fn group<K: Ord>(windows: &[Window], key: impl Fn(u32, ServerId) -> K) -> Vec<(K, QueryWindow)> {
    let mut rows: BTreeMap<K, QueryWindow> = BTreeMap::new();
    for window in windows {
        for (&(tier, server), cell) in &window.cells {
            rows.entry(key(tier, server)).or_default().merge(cell);
        }
    }
    rows.into_iter().collect()
}

impl Observer for Breakdown {
    fn on_query_start(&mut self, index: usize, _query: &TraceQuery) {
        let full = |w: &Window| w.queries.len() >= self.every;
        if self.windows.last().is_none_or(full) {
            self.windows.push(Window {
                queries: index..index,
                cells: BTreeMap::new(),
            });
        }
    }

    fn on_access(&mut self, event: &CostEvent<'_>) {
        if let Some(window) = self.windows.last_mut() {
            let cell = window.cells.entry((event.tier, event.server)).or_default();
            cell.absorb(event);
        }
    }

    fn on_query_end(&mut self, index: usize, _query: &TraceQuery) {
        if let Some(window) = self.windows.last_mut() {
            window.queries.end = index + 1;
        }
    }
}

/// An owned snapshot of one [`CostEvent`] — the scalar cost split
/// without the borrowed access/decision/policy views — kept by the
/// [`FlightRecorder`]'s rings and carried into [`Postmortem`]s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordedEvent {
    /// Query ordinal within the replay (the tick the event fired at).
    pub query: usize,
    /// The object served.
    pub object: ObjectId,
    /// The object's home server.
    pub server: ServerId,
    /// The caching tier the event belongs to.
    pub tier: u32,
    /// Raw result bytes delivered for the slice.
    pub delivered: Bytes,
    /// WAN cost of the bypassed slice.
    pub bypass_cost: Bytes,
    /// WAN cost of the cache load.
    pub fetch_cost: Bytes,
    /// WAN cost of relaying over this tier's inner link.
    pub relay_cost: Bytes,
    /// Raw bytes served out of the cache.
    pub cache_served: Bytes,
    /// WAN bytes wasted on failed transfer attempts.
    pub retried_bytes: Bytes,
    /// Raw result bytes the slice failed to deliver.
    pub failed_bytes: Bytes,
    /// 1 iff the decision was a hit.
    pub hits: u64,
    /// 1 iff the decision was a bypass.
    pub bypasses: u64,
    /// 1 iff the decision was a load.
    pub loads: u64,
    /// Failed transfer attempts of the slice.
    pub retries: u64,
    /// 1 iff the slice delivered nothing.
    pub failed: u64,
    /// 1 iff the slice was served stale.
    pub degraded: u64,
}

impl RecordedEvent {
    /// Snapshot one engine event.
    pub fn of(event: &CostEvent<'_>) -> RecordedEvent {
        RecordedEvent {
            query: event.query,
            object: event.object,
            server: event.server,
            tier: event.tier,
            delivered: event.delivered,
            bypass_cost: event.bypass_cost,
            fetch_cost: event.fetch_cost,
            relay_cost: event.relay_cost,
            cache_served: event.cache_served,
            retried_bytes: event.retried_bytes,
            failed_bytes: event.failed_bytes,
            hits: event.hits,
            bypasses: event.bypasses,
            loads: event.loads,
            retries: event.retries,
            failed: event.failed,
            degraded: event.degraded,
        }
    }
}

/// One annotated postmortem: the flight recorder's per-tier rings as
/// they stood when a query failed or degraded, plus the fault context
/// the replay ran under.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Postmortem {
    /// The failing/degraded query's ordinal (also its tick).
    pub query: usize,
    /// Slices of that query that delivered nothing.
    pub failed_slices: u64,
    /// Slices of that query served from the stale local copy.
    pub degraded_slices: u64,
    /// The last events per tier leading up to (and including) the
    /// failure, oldest first, in bottom-up tier order.
    pub tiers: Vec<(u32, Vec<RecordedEvent>)>,
    /// Human-readable fault context: the fault model's description plus
    /// the retry/degradation configuration (lists outage windows when
    /// the model has them, so active windows can be read off against
    /// the query tick).
    pub context: String,
}

/// The fault flight recorder: a bounded ring of the last K events per
/// tier that snapshots into a [`Postmortem`] whenever a query fails or
/// degrades.
///
/// Attach it like any [`Observer`]
/// (via [`ReplaySession::flight_recorder`](crate::session::ReplaySession::flight_recorder));
/// it costs one ring push per slice and only materializes anything on a
/// failing query. The number of stored postmortems is bounded by
/// [`FlightRecorder::MAX_POSTMORTEMS`]; further failing queries only
/// count, and the overflow surfaces as an [`Observer::warnings`] entry.
#[derive(Clone, Debug, Default)]
pub struct FlightRecorder {
    depth: usize,
    context: String,
    rings: BTreeMap<u32, VecDeque<RecordedEvent>>,
    failed_this_query: u64,
    degraded_this_query: u64,
    postmortems: Vec<Postmortem>,
    truncated: u64,
}

impl FlightRecorder {
    /// Postmortems kept before further failing queries only increment
    /// the truncation count.
    pub const MAX_POSTMORTEMS: usize = 32;

    /// A recorder keeping the last `depth` events per tier (clamped to
    /// at least 1).
    pub fn new(depth: usize) -> FlightRecorder {
        FlightRecorder {
            depth: depth.max(1),
            ..FlightRecorder::default()
        }
    }

    /// Attach the fault context string stamped into every postmortem.
    #[must_use]
    pub fn with_context(mut self, context: String) -> FlightRecorder {
        self.context = context;
        self
    }

    /// Ring depth (events kept per tier).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Postmortems recorded so far.
    pub fn postmortems(&self) -> &[Postmortem] {
        &self.postmortems
    }

    /// Failing/degraded queries beyond [`Self::MAX_POSTMORTEMS`] that
    /// were counted but not recorded.
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    /// Take the recorded postmortems.
    pub fn into_postmortems(self) -> Vec<Postmortem> {
        self.postmortems
    }
}

impl Observer for FlightRecorder {
    fn on_query_start(&mut self, _index: usize, _query: &TraceQuery) {
        self.failed_this_query = 0;
        self.degraded_this_query = 0;
    }

    fn on_access(&mut self, event: &CostEvent<'_>) {
        let ring = self.rings.entry(event.tier).or_default();
        if ring.len() == self.depth {
            ring.pop_front();
        }
        ring.push_back(RecordedEvent::of(event));
        self.failed_this_query += event.failed;
        self.degraded_this_query += event.degraded;
    }

    fn on_query_end(&mut self, index: usize, _query: &TraceQuery) {
        if self.failed_this_query == 0 && self.degraded_this_query == 0 {
            return;
        }
        if self.postmortems.len() >= Self::MAX_POSTMORTEMS {
            self.truncated += 1;
            return;
        }
        self.postmortems.push(Postmortem {
            query: index,
            failed_slices: self.failed_this_query,
            degraded_slices: self.degraded_this_query,
            tiers: self
                .rings
                .iter()
                .map(|(&tier, ring)| (tier, ring.iter().copied().collect()))
                .collect(),
            context: self.context.clone(),
        });
    }

    fn warnings(&mut self) -> Vec<String> {
        if self.truncated == 0 {
            return Vec::new();
        }
        vec![format!(
            "flight recorder: {} more failing/degraded queries after the first {} postmortems were counted but not recorded",
            self.truncated,
            Self::MAX_POSTMORTEMS
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{DegradationPolicy, Outage, OutageWindows, RetryPolicy};
    use crate::network::{PerServerMultipliers, Uniform};
    use crate::session::ReplaySession;
    use byc_catalog::sdss::{build, SdssRelease};
    use byc_core::rate_profile::{RateProfile, RateProfileConfig};
    use byc_workload::Trace;

    fn setup(servers: u32) -> (Trace, ObjectCatalog) {
        let cat = build(SdssRelease::Edr, 1e-3, servers);
        let trace =
            byc_workload::generate(&cat, &byc_workload::WorkloadConfig::smoke(43, 1000)).unwrap();
        let objects = ObjectCatalog::uniform(&cat, Granularity::Column);
        (trace, objects)
    }

    #[test]
    fn per_server_totals_equal_cost_observer_totals() {
        let (trace, objects) = setup(3);
        let cap = objects.total_size().scale(0.25);
        let net = PerServerMultipliers::new(vec![1.0, 2.0, 4.0]).unwrap();
        let mut policy = RateProfile::new(cap, RateProfileConfig::default());
        let mut breakdown = Breakdown::new();
        let report = ReplaySession::new(&trace, &objects)
            .network(&net)
            .policy(&mut policy)
            .observe(&mut breakdown)
            .run()
            .unwrap()
            .report;
        let servers = breakdown.servers();
        assert!(servers.len() > 1);
        let bypass: Bytes = servers.iter().map(|(_, s)| s.bypass_cost).sum();
        let fetch: Bytes = servers.iter().map(|(_, s)| s.fetch_cost).sum();
        let cache: Bytes = servers.iter().map(|(_, s)| s.cache_served).sum();
        let delivered: Bytes = servers.iter().map(|(_, s)| s.delivered).sum();
        assert_eq!(bypass, report.bypass_cost);
        assert_eq!(fetch, report.fetch_cost);
        assert_eq!(cache, report.cache_served);
        assert_eq!(delivered, report.sequence_cost);
        for (server, s) in &servers {
            assert!(s.conserves_delivery(), "{server:?}");
        }
    }

    #[test]
    fn network_prices_fetch_but_not_yield() {
        let (_, objects) = setup(2);
        let net = PerServerMultipliers::new(vec![1.0, 3.0]).unwrap();
        let engine = ReplayEngine::with_network(&objects, &net);
        let raw = Bytes::new(1000);
        for info in objects.objects() {
            let access = engine.access_for(info.id, raw, Tick::ZERO);
            // Yield is a property of the query result, not the network;
            // only the buy price f_i carries the link multiplier.
            assert_eq!(access.yield_bytes, raw);
            assert_eq!(access.fetch_cost, net.price(info.server, info.fetch_cost));
            assert_eq!(access.size, info.size);
        }
    }

    #[test]
    fn uniform_network_is_transparent() {
        let (trace, objects) = setup(2);
        let cap = objects.total_size().scale(0.3);
        let mut reports = Vec::new();
        for explicit in [false, true] {
            let mut p = RateProfile::new(cap, RateProfileConfig::default());
            let mut session = ReplaySession::new(&trace, &objects).policy(&mut p);
            if explicit {
                session = session.network(&Uniform);
            }
            reports.push(session.run().unwrap().report);
        }
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[0].bypass_cost, reports[0].bypass_served);
    }

    #[test]
    fn audit_catches_a_lying_policy() {
        /// Claims a Hit on every access but never caches anything.
        struct AlwaysHit;
        impl CachePolicy for AlwaysHit {
            fn name(&self) -> &'static str {
                "AlwaysHit"
            }
            fn on_access(&mut self, _: &Access) -> Decision {
                Decision::Hit
            }
            fn contains(&self, _: ObjectId) -> bool {
                false
            }
            fn used(&self) -> Bytes {
                Bytes::ZERO
            }
            fn capacity(&self) -> Bytes {
                Bytes::mib(1)
            }
            fn cached_objects(&self) -> Vec<ObjectId> {
                Vec::new()
            }
        }
        let (trace, objects) = setup(1);
        let mut liar = AlwaysHit;
        let audit = ReplaySession::new(&trace, &objects)
            .policy(&mut liar)
            .audited()
            .run()
            .unwrap()
            .audit
            .unwrap();
        assert!(!audit.is_clean());
        assert!(audit.violations[0].contains("not cached"));
    }

    #[test]
    fn query_level_path_attributes_servers() {
        let (trace, objects) = setup(2);
        let engine = ReplayEngine::new(&objects);
        let mut cost = CostObserver::new("semantic", &trace.name, "column");
        let mut breakdown = Breakdown::new();
        for (i, q) in trace.queries.iter().take(50).enumerate() {
            let hit = i % 2 == 0;
            engine.serve_query_level(i, q, hit, &mut [&mut cost, &mut breakdown]);
        }
        let report = cost.into_report();
        assert_eq!(report.queries, 50);
        assert!(report.conserves_delivery());
        assert!(report.cache_served > Bytes::ZERO);
        assert!(report.bypass_cost > Bytes::ZERO);
        let servers = breakdown.servers();
        assert_eq!(servers.len(), 2);
        let delivered: Bytes = servers.iter().map(|(_, s)| s.delivered).sum();
        assert_eq!(delivered, report.sequence_cost);
    }

    #[test]
    fn partition_moves_access_observers_first_and_is_stable() {
        struct Tagged {
            tag: u32,
            wants: bool,
            accesses: u64,
        }
        impl Observer for Tagged {
            fn on_access(&mut self, _event: &CostEvent<'_>) {
                self.accesses += 1;
            }
            fn wants_accesses(&self) -> bool {
                self.wants
            }
        }
        let mut a = Tagged {
            tag: 1,
            wants: false,
            accesses: 0,
        };
        let mut b = Tagged {
            tag: 2,
            wants: true,
            accesses: 0,
        };
        let mut c = Tagged {
            tag: 3,
            wants: false,
            accesses: 0,
        };
        let mut d = Tagged {
            tag: 4,
            wants: true,
            accesses: 0,
        };
        {
            let mut obs: Vec<&mut dyn Observer> = vec![&mut a, &mut b, &mut c, &mut d];
            let split = partition_access_observers(&mut obs);
            assert_eq!(split, 2);
            // Idempotent: a second partition changes nothing.
            assert_eq!(partition_access_observers(&mut obs), 2);
        }
        // Replay only feeds accesses to the wanting prefix.
        let (trace, objects) = setup(1);
        let cap = objects.total_size().scale(0.3);
        let mut policy = RateProfile::new(cap, RateProfileConfig::default());
        ReplaySession::new(&trace, &objects)
            .policy(&mut policy)
            .observe(&mut a)
            .observe(&mut b)
            .observe(&mut c)
            .observe(&mut d)
            .run()
            .unwrap();
        assert_eq!(a.accesses, 0);
        assert_eq!(c.accesses, 0);
        assert!(b.accesses > 0);
        assert_eq!(b.accesses, d.accesses);
        // Stability: within each group the original order held.
        assert!(a.tag < c.tag && b.tag < d.tag);
    }

    #[test]
    fn flight_recorder_snapshots_failing_queries() {
        let (trace, objects) = setup(1);
        let outage = OutageWindows::new(vec![Outage {
            server: ServerId::new(0),
            from: Tick::new(100),
            until: Tick::new(160),
        }]);
        let mut policy = byc_core::static_opt::NoCache;
        let mut recorder = FlightRecorder::new(4).with_context("test outage".into());
        let report = ReplaySession::new(&trace, &objects)
            .policy(&mut policy)
            .faults(&outage)
            .retry(RetryPolicy::new(1, 1))
            .degrade(DegradationPolicy::Fail)
            .observe(&mut recorder)
            .run()
            .unwrap()
            .report;
        assert!(report.failed_queries > 0);
        let seen = recorder.postmortems().len() as u64 + recorder.truncated();
        assert_eq!(seen, report.failed_queries);
        let first = &recorder.postmortems()[0];
        assert!(first.failed_slices > 0);
        assert_eq!(first.context, "test outage");
        assert!((100..160).contains(&(first.query as u64)));
        let (tier, ring) = &first.tiers[0];
        assert_eq!(*tier, 0);
        assert!(!ring.is_empty() && ring.len() <= 4);
        // Rings hold the events leading up to (and including) the
        // failure, oldest first.
        assert!(ring.windows(2).all(|w| w[0].query <= w[1].query));
        assert_eq!(ring.last().unwrap().query, first.query);
        assert!(ring.iter().any(|e| e.failed == 1));
        if report.failed_queries > FlightRecorder::MAX_POSTMORTEMS as u64 {
            assert!(!recorder.warnings().is_empty());
        }
    }
}
