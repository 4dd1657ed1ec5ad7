//! The one replay kernel behind every federation entry point.
//!
//! ```text
//! ReplayTrace slices → tier walk → CostEvent → observers
//! ```
//!
//! A `ReplayEngine` serves one query at a time. It takes the query's
//! object slices, resolved against the catalog once when the query
//! entered its [`ReplayTrace`], and walks each slice up a linear
//! hierarchy of caching tiers, bottom-up (tier 0 nearest the clients):
//! each tier's policy sees a priced [`Access`]; a `Bypass` forwards the
//! request one hop up, a `Hit` or a `Load` resolves it. The flat
//! client↔server WAN is the depth-1 hierarchy — one tier behind one
//! link — so flat and tiered replays, resident and streamed traces,
//! sweeps, and the [`Mediator`] all run this same per-query code, and
//! its decision→cost conversion is the only place in `byc-federation`
//! where `Decision` variants become WAN costs.
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
//!   [`DecisionAuditor`] shadow model.
//!
//! [`Mediator`]: crate::mediator::Mediator
//! [`ReplayTrace`]: byc_workload::ReplayTrace

use crate::accounting::CostReport;
use crate::faults::{spiked_cost, DegradationPolicy, FaultPlan};
use crate::network::{NetworkModel, Topology, UNIFORM};
use crate::simulator::SeriesPoint;
use byc_catalog::ObjectCatalog;
use byc_core::access::Access;
use byc_core::audit::{AuditReport, DecisionAuditor};
use byc_core::policy::{CachePolicy, Decision};
use byc_types::{Bytes, ObjectId, ServerId, Tick};
use byc_workload::TraceQuery;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Range;

/// The cost consequences of serving one object slice of one query at one
/// caching tier — what the kernel emits to every observer.
///
/// Its cost split is a one-slice [`QueryWindow`]: exactly one of the
/// `hits` / `bypasses` / `loads` counters is 1 (they are counters, not
/// flags), and the byte fields are pre-split by decision, so every view
/// of the replay — a [`CostReport`], a [`Breakdown`] cell, a telemetry
/// series, the event log's totals — is a [`QueryWindow::merge`] of these
/// windows, without ever matching on [`Decision`].
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
    /// The object's home server (prices the WAN quantities).
    pub server: ServerId,
    /// The caching tier this event belongs to, bottom-up (0 = site tier).
    /// Always 0 on the flat topology. In tiered replays a slice emits one
    /// event per consulted tier: inner-tier bypasses carry only their
    /// relay traffic, and the resolving tier carries the delivery.
    pub tier: u32,
    /// The access the tier's policy saw; `access.object` is the
    /// cacheable object served.
    pub access: &'a Access,
    /// The slice's cost split at this tier: one decision, and the
    /// delivery, WAN, retry and degradation quantities it caused.
    pub window: QueryWindow,
    /// The tier policy's decision.
    pub decision: &'a Decision,
    /// The deciding policy, for observers that introspect cache state
    /// (the auditor's post-decision checks).
    pub policy: &'a dyn CachePolicy,
}

impl<'a> CostEvent<'a> {
    /// Tier `tier`'s decision on one slice of query `query`, with every
    /// quantity still zero.
    #[inline]
    fn decided(
        query: usize,
        server: ServerId,
        tier: usize,
        access: &'a Access,
        decision: &'a Decision,
        policy: &'a dyn CachePolicy,
    ) -> Self {
        CostEvent {
            query,
            server,
            tier: u32::try_from(tier).unwrap_or(u32::MAX),
            access,
            window: QueryWindow::default(),
            decision,
            policy,
        }
    }
}

impl std::fmt::Debug for CostEvent<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CostEvent")
            .field("query", &self.query)
            .field("server", &self.server)
            .field("tier", &self.tier)
            .field("access", &self.access)
            .field("window", &self.window)
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
///
/// The query hooks' `query` carries only what a replay keeps of a query:
/// a [`ReplaySession`](crate::session::ReplaySession) replays a
/// [`ReplayTrace`](byc_workload::ReplayTrace) and passes one reused
/// [`TraceQuery`] whose `id` and `total_yield` are the current query's
/// and whose other members are empty. [`Mediator::serve_sql`] passes
/// its one slot, whose `id`, `total_yield` and yield lists are set and
/// whose text and id lists are empty; `serve_trace_query` passes its
/// caller's query. Read `index` and `total_yield`, nothing else.
///
/// [`Mediator::serve_sql`]: crate::mediator::Mediator::serve_sql
pub trait Observer {
    /// A query is about to be served (see the trait docs for what
    /// `query` holds).
    fn on_query_start(&mut self, _index: usize, _query: &TraceQuery) {}

    /// One object slice was served; `event` carries its cost split.
    fn on_access(&mut self, _event: &CostEvent<'_>) {}

    /// The query's last slice was served (see the trait docs for what
    /// `query` holds).
    fn on_query_end(&mut self, _index: usize, _query: &TraceQuery) {}

    /// The replay is over. `policy` is the policy whose decisions the
    /// observer saw: the site tier's, or for a per-tier observer its own
    /// tier's.
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

/// The priced links an engine charges traffic over, bottom-up: link `t`
/// is the edge above caching tier `t`, the last one the origin link. A
/// flat network is a single link.
#[derive(Clone, Copy)]
pub(crate) enum Links<'a> {
    Flat(&'a dyn NetworkModel),
    Tiered(&'a Topology),
}

impl Links<'_> {
    /// Caching tiers behind these links: one per link.
    pub(crate) fn depth(self) -> usize {
        match self {
            Links::Flat(_) => 1,
            Links::Tiered(topology) => topology.depth(),
        }
    }

    /// Each tier's cache size relative to the site tier's, bottom-up.
    pub(crate) fn capacity_scales(self) -> Vec<f64> {
        match self {
            Links::Flat(_) => vec![1.0],
            Links::Tiered(topology) => topology.tiers().iter().map(|t| t.capacity_scale).collect(),
        }
    }

    /// The model or topology name, for configuration errors.
    pub(crate) fn name(self) -> String {
        match self {
            Links::Flat(network) => format!("the flat {} network", network.name()),
            Links::Tiered(topology) => format!("topology {}", topology.name()),
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
fn degrade_slice(degradation: DegradationPolicy, window: &mut QueryWindow, raw_yield: Bytes) {
    match degradation {
        DegradationPolicy::ServeStale => {
            window.degraded_slices = 1;
            window.cache_served = raw_yield;
        }
        DegradationPolicy::Fail => {
            window.failed_slices = 1;
            window.delivered = Bytes::ZERO;
            window.failed_bytes = raw_yield;
        }
    }
}

/// Fold one event into the window and hand it to the access observers.
#[inline]
fn emit(window: &mut QueryWindow, observers: &mut [&mut dyn Observer], event: &CostEvent<'_>) {
    window.merge(&event.window);
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
pub(crate) struct ReplayEngine<'a> {
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
    /// An engine with one caching tier per link of `links`.
    pub(crate) fn with_links(objects: &'a ObjectCatalog, links: Links<'a>) -> Self {
        Self::over(objects, links, None)
    }

    /// The fetch rows of a flat engine over `objects` on the uniform
    /// network, for a long-lived caller to build once and lend to
    /// [`Self::with_rows`].
    pub(crate) fn flat_rows(objects: &ObjectCatalog) -> Vec<Bytes> {
        fetch_rows(objects, Links::Flat(&UNIFORM))
    }

    /// A flat engine on the uniform network over rows
    /// [`Self::flat_rows`] built for the same `objects`: constant time,
    /// where the other constructors price every object.
    pub(crate) fn with_rows(objects: &'a ObjectCatalog, rows: &'a [Bytes]) -> Self {
        Self::over(objects, Links::Flat(&UNIFORM), Some(rows))
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
    pub(crate) fn with_faults(mut self, plan: FaultPlan<'a>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The object's origin fetch priced down to `tier`.
    #[inline]
    fn fetch_at(&self, object: ObjectId, tier: usize) -> Bytes {
        self.fetch
            .get(object.index() * self.depth + tier)
            .copied()
            .unwrap_or(Bytes::ZERO)
    }

    /// Serve query `index` inside its observer hooks: `on_query_start`
    /// on every observer with `query`, the kernel ([`Self::serve`]) over
    /// the query's `slices` with its events going to the first
    /// `access_count` observers — the prefix
    /// [`partition_access_observers`] leaves wanting accesses — then
    /// `on_query_end`. Sessions and the mediator serve their queries
    /// through here.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn serve_query(
        &self,
        index: usize,
        query: &TraceQuery,
        slices: &[(ObjectId, Bytes)],
        tiers: &mut [&mut dyn CachePolicy],
        window: &mut QueryWindow,
        observers: &mut [&mut dyn Observer],
        access_count: usize,
    ) {
        for obs in observers.iter_mut() {
            obs.on_query_start(index, query);
        }
        let access = observers.get_mut(..access_count).unwrap_or_default();
        self.serve(index, slices, tiers, window, access);
        for obs in observers.iter_mut() {
            obs.on_query_end(index, query);
        }
    }

    /// Serve the `slices` of query `index` (the policy clock) through
    /// `tiers`, one policy per caching tier, bottom-up: every slice's
    /// cost split folds into `window` and reaches `observers` — which
    /// must be only those that want accesses — as [`CostEvent`]s.
    fn serve(
        &self,
        index: usize,
        slices: &[(ObjectId, Bytes)],
        tiers: &mut [&mut dyn CachePolicy],
        window: &mut QueryWindow,
        observers: &mut [&mut dyn Observer],
    ) {
        let time = Tick::new(index as u64);
        for &(object, raw_yield) in slices {
            self.serve_slice(index, time, object, raw_yield, tiers, window, observers);
        }
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
        // The BYHR view (paper §3): `yield_bytes` is the raw delivered
        // result, a property of the query, while `fetch_cost` is priced
        // over the links the object would cross. Pricing both would
        // cancel out of every rent-to-buy ratio and blind ratio policies
        // to the network.
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
        // Inner tiers passed the slice through on its way up: when the
        // transfer delivered, its yield crossed the link above each.
        let bypass = Decision::Bypass;
        for (t, policy) in tiers.iter().enumerate().take(top) {
            let inner = Access {
                fetch_cost: self.fetch_at(r.object, t),
                ..*r.access
            };
            let mut event = CostEvent::decided(r.index, server, t, &inner, &bypass, &**policy);
            event.window.bypasses = 1;
            if delivered {
                event.window.relay_cost =
                    spiked_cost(self.links.price(t, server, raw_yield), multiplier);
            }
            emit(window, observers, &event);
        }

        // The resolving tier carries delivery, retries, and degradation.
        let Some(policy) = tiers.get(top) else {
            return; // the walk only stops at a tier it consulted
        };
        let mut event = CostEvent::decided(r.index, server, top, r.access, r.decision, &**policy);
        let w = &mut event.window;
        w.delivered = raw_yield;
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
            w.retries = u64::from(failed_attempts);
            w.retried_bytes = FaultPlan::wasted_bytes(nominal, failed_attempts);
        }
        match r.decision {
            Decision::Hit => {
                w.hits = 1;
                if delivered {
                    w.cache_served = raw_yield;
                }
            }
            Decision::Bypass => {
                w.bypasses = 1;
                if delivered {
                    w.bypass_served = raw_yield;
                    w.bypass_cost =
                        spiked_cost(self.links.price(top, server, raw_yield), multiplier);
                }
            }
            Decision::Load { evictions } => {
                w.loads = 1;
                w.evictions = evictions.len() as u64;
                if delivered {
                    w.fetch_cost = spiked_cost(r.access.fetch_cost, multiplier);
                    w.cache_served = raw_yield;
                }
            }
        }
        if let (false, Some(plan)) = (delivered, &self.faults) {
            degrade_slice(plan.degradation, w, raw_yield);
        }
        emit(window, observers, &event);
    }
}

/// The cost split of some window of the replay: one slice at one tier
/// (a [`CostEvent`]'s), a whole replay, one [`Breakdown`] cell, one
/// metric series, or an event log's totals.
///
/// A wider window is the [`QueryWindow::merge`] of the one-slice windows
/// in it: [`CostObserver`], [`Breakdown`], the kernel's own fold and the
/// telemetry registry all merge the events' windows, so a new field has
/// exactly one place to be threaded into the accounting, [`Self::merge`].
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
    /// Fold another window into this one: an event into its replay,
    /// cell or series, and rows into totals.
    #[inline]
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
        self.window.merge(&event.window);
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

/// Validates one caching tier's decision stream with a
/// [`DecisionAuditor`] shadow model: each tier is an independent cache,
/// so a replay attaches one per tier (the flat WAN has one, tier 0).
///
/// Every replay calls `finish` with the tier's policy, which runs the
/// closing deep check and freezes the report —
/// [`AuditObserver::into_report`] then returns it with no `Option` in the
/// path. A [`Mediator`] keeps one on tier 0 for its lifetime and reads
/// its running report instead.
///
/// [`Mediator`]: crate::mediator::Mediator
#[derive(Debug)]
pub struct AuditObserver {
    /// The tier's auditor; the mediator reports invalidations and reads
    /// the running report through it.
    pub(crate) auditor: DecisionAuditor,
    finished: AuditReport,
    /// The tier whose events are audited.
    tier: u32,
}

impl AuditObserver {
    /// An observer auditing tier `tier`'s decision stream.
    pub fn for_tier(tier: u32) -> Self {
        AuditObserver {
            auditor: DecisionAuditor::default(),
            finished: AuditReport::default(),
            tier,
        }
    }

    /// The completed report (populated once the replay finished).
    pub fn into_report(self) -> AuditReport {
        self.finished
    }
}

impl Observer for AuditObserver {
    fn on_access(&mut self, event: &CostEvent<'_>) {
        if event.tier == self.tier {
            self.auditor
                .observe(event.access, event.decision, event.policy);
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
            cell.merge(&event.window);
        }
    }

    fn on_query_end(&mut self, index: usize, _query: &TraceQuery) {
        if let Some(window) = self.windows.last_mut() {
            window.queries.end = index + 1;
        }
    }
}

/// A lying policy for audit tests: claims a Hit on every access but
/// never caches anything.
#[cfg(test)]
pub(crate) struct AlwaysHit;

#[cfg(test)]
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{PerServerMultipliers, Uniform};
    use crate::session::ReplaySession;
    use byc_catalog::sdss::{build, SdssRelease};
    use byc_catalog::Granularity;
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

    /// Records every access it sees and bypasses it.
    #[derive(Default)]
    struct Recorder(Vec<Access>);

    impl CachePolicy for Recorder {
        fn name(&self) -> &'static str {
            "Recorder"
        }
        fn on_access(&mut self, access: &Access) -> Decision {
            self.0.push(*access);
            Decision::Bypass
        }
        fn contains(&self, _: ObjectId) -> bool {
            false
        }
        fn used(&self) -> Bytes {
            Bytes::ZERO
        }
        fn capacity(&self) -> Bytes {
            Bytes::ZERO
        }
        fn cached_objects(&self) -> Vec<ObjectId> {
            Vec::new()
        }
    }

    /// Every object on both servers of a non-uniform network, at both
    /// granularities: the policy sees the raw yield, the object's size,
    /// and its fetch priced over its home server's link — 3x its size
    /// on the expensive server, its size on the other.
    #[test]
    fn network_prices_fetch_but_not_yield() {
        let cat = build(SdssRelease::Edr, 1e-3, 2);
        let net = PerServerMultipliers::new(vec![1.0, 3.0]).unwrap();
        let expensive = ServerId::new(1);
        for granularity in [Granularity::Table, Granularity::Column] {
            let objects = ObjectCatalog::uniform(&cat, granularity);
            let engine = ReplayEngine::with_links(&objects, Links::Flat(&net));
            let raw = Bytes::new(1000);
            let slices: Vec<(ObjectId, Bytes)> = objects
                .objects()
                .iter()
                .map(|info| (info.id, raw))
                .collect();
            let mut recorder = Recorder::default();
            let mut policy: &mut dyn CachePolicy = &mut recorder;
            engine.serve_query(
                0,
                &TraceQuery::default(),
                &slices,
                std::slice::from_mut(&mut policy),
                &mut QueryWindow::default(),
                &mut [],
                0,
            );
            assert_eq!(recorder.0.len(), objects.len());
            let servers: std::collections::BTreeSet<_> =
                objects.objects().iter().map(|info| info.server).collect();
            assert_eq!(servers.len(), 2, "{granularity:?}");
            for (access, info) in recorder.0.iter().zip(objects.objects()) {
                // Yield is a property of the query result, not the
                // network; only the buy price f_i carries the link
                // multiplier.
                assert_eq!(access.object, info.id);
                assert_eq!(access.yield_bytes, raw);
                assert_eq!(access.size, info.size);
                assert_eq!(access.fetch_cost, net.price(info.server, info.fetch_cost));
                let expected = match info.server == expensive {
                    true => info.size.scale(3.0),
                    false => info.size,
                };
                assert_eq!(access.fetch_cost, expected, "{granularity:?} {:?}", info.id);
            }
        }
    }

    #[test]
    fn engine_is_send_sync() {
        // An engine holds only read-only pricing state (its fetch rows
        // and borrowed links), so one can serve replays on many threads.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ReplayEngine<'static>>();
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
}
