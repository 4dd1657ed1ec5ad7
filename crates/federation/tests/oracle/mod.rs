//! The reference oracle the equivalence suites compare the replay kernel
//! against: the simple, uncompiled runners the kernel replaced, kept
//! verbatim in their arithmetic.
//!
//! * [`replay_flat`] — the flat runner: decompose each query into
//!   `(object, yield)` slices, price each access through the network
//!   model, ask the one policy, convert the decision with
//!   [`slice_event`].
//! * [`replay_tiered`] — the tiered runner: each slice walks the tier
//!   policies bottom-up through [`serve_slice_tiered`], with the
//!   topology pricing every link.
//!
//! Both drive the full observer protocol (query hooks, access events to
//! the observers that want them, `finish`) and compute every price on
//! the fly — no precomputed rows, no inline folding — so a kernel that
//! matches them bit for bit matches the straightforward reading of the
//! accounting rules. [`planners`] holds the brute-force twins of the
//! policies' own planners.

#![allow(dead_code)]

pub mod planners;

use byc_catalog::{Granularity, ObjectCatalog};
use byc_core::access::Access;
use byc_core::policy::{CachePolicy, Decision};
use byc_federation::{
    spiked_cost, CostEvent, CostObserver, CostReport, DegradationPolicy, FaultPlan, NetworkModel,
    Observer, Topology,
};
use byc_types::{Bytes, ObjectId, ServerId, Tick};
use byc_workload::{Trace, TraceQuery};

/// Decompose one trace query into `(object, raw yield)` slices at the
/// granularity of `objects`, in the query's own table/column order;
/// references that do not resolve to a cacheable object are skipped.
pub fn decompose(query: &TraceQuery, objects: &ObjectCatalog) -> Vec<(ObjectId, Bytes)> {
    let mut out = Vec::new();
    match objects.granularity() {
        Granularity::Table => {
            for &(t, y) in &query.table_yields {
                if let Ok(o) = objects.object_for_table(t) {
                    out.push((o, y));
                }
            }
        }
        Granularity::Column => {
            for &(c, y) in &query.column_yields {
                if let Ok(o) = objects.object_for_column(c) {
                    out.push((o, y));
                }
            }
        }
    }
    out
}

/// Stable-partition `observers` so those wanting per-access events come
/// first; returns how many do.
fn partition(observers: &mut [&mut dyn Observer]) -> usize {
    let mut split = 0;
    for i in 0..observers.len() {
        if observers[i].wants_accesses() {
            observers[split..=i].rotate_right(1);
            split += 1;
        }
    }
    split
}

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

/// Resolve a slice whose retry budget is exhausted.
fn degrade_slice(plan: &FaultPlan<'_>, event: &mut CostEvent<'_>, raw_yield: Bytes) {
    match plan.degradation {
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

/// The flat decision→cost conversion of one (access, decision) pair;
/// `priced_yield` is the network-priced cost of bypassing the slice.
#[allow(clippy::too_many_arguments)]
pub fn slice_event<'a>(
    index: usize,
    time: Tick,
    raw_yield: Bytes,
    server: ServerId,
    access: &'a Access,
    decision: &'a Decision,
    policy: &'a dyn CachePolicy,
    faults: Option<&FaultPlan<'_>>,
    priced_yield: impl FnOnce() -> Bytes,
) -> CostEvent<'a> {
    let object = access.object;
    let mut event = blank(index, object, server);
    event.access = Some(access);
    event.delivered = raw_yield;
    event.decision = Some(decision);
    event.policy = Some(policy);
    match decision {
        Decision::Hit => {
            event.hits = 1;
            event.cache_served = raw_yield;
        }
        Decision::Bypass => {
            event.bypasses = 1;
            match faults {
                None => {
                    event.bypass_served = raw_yield;
                    event.bypass_cost = priced_yield();
                }
                Some(plan) => {
                    let nominal = priced_yield();
                    let res = plan.fetch(index, time, object, server);
                    event.retries = u64::from(res.failed_attempts);
                    event.retried_bytes = FaultPlan::wasted_bytes(nominal, res.failed_attempts);
                    match res.delivered {
                        Some(m) => {
                            event.bypass_served = raw_yield;
                            event.bypass_cost = spiked_cost(nominal, m);
                        }
                        None => degrade_slice(plan, &mut event, raw_yield),
                    }
                }
            }
        }
        Decision::Load { evictions } => {
            event.loads = 1;
            event.evictions = evictions.len() as u64;
            match faults {
                None => {
                    event.fetch_cost = access.fetch_cost;
                    event.cache_served = raw_yield;
                }
                Some(plan) => {
                    let res = plan.fetch(index, time, object, server);
                    event.retries = u64::from(res.failed_attempts);
                    event.retried_bytes =
                        FaultPlan::wasted_bytes(access.fetch_cost, res.failed_attempts);
                    match res.delivered {
                        Some(m) => {
                            event.fetch_cost = spiked_cost(access.fetch_cost, m);
                            event.cache_served = raw_yield;
                        }
                        None => degrade_slice(plan, &mut event, raw_yield),
                    }
                }
            }
        }
    }
    event
}

/// Replay `trace` through one policy over a flat network, with the full
/// observer protocol (including `finish` with the policy).
pub fn replay_flat(
    trace: &Trace,
    objects: &ObjectCatalog,
    network: &dyn NetworkModel,
    policy: &mut dyn CachePolicy,
    faults: Option<FaultPlan<'_>>,
    observers: &mut [&mut dyn Observer],
) {
    let access_count = partition(observers);
    for (index, query) in trace.queries.iter().enumerate() {
        let time = Tick::new(index as u64);
        for obs in observers.iter_mut() {
            obs.on_query_start(index, query);
        }
        for (object, raw_yield) in decompose(query, objects) {
            let info = objects.info(object);
            let server = info.server;
            let access = Access {
                object,
                time,
                yield_bytes: raw_yield,
                size: info.size,
                fetch_cost: network.price(server, info.fetch_cost),
            };
            let decision = policy.on_access(&access);
            let event = slice_event(
                index,
                time,
                raw_yield,
                server,
                &access,
                &decision,
                &*policy,
                faults.as_ref(),
                || network.price(server, raw_yield),
            );
            for obs in observers.iter_mut().take(access_count) {
                obs.on_access(&event);
            }
        }
        for obs in observers.iter_mut() {
            obs.on_query_end(index, query);
        }
    }
    let policy: &dyn CachePolicy = policy;
    for obs in observers.iter_mut() {
        obs.finish(Some(policy));
    }
}

/// Resolve one object slice through a tier hierarchy: decide bottom-up
/// until a tier hits or loads, resolve the transfer over the links the
/// bytes cross, then emit one event per consulted tier.
#[allow(clippy::too_many_arguments)]
pub fn serve_slice_tiered(
    index: usize,
    time: Tick,
    object: ObjectId,
    server: ServerId,
    raw_yield: Bytes,
    size: Bytes,
    tiers: &mut [&mut dyn CachePolicy],
    faults: Option<&FaultPlan<'_>>,
    yield_price: &dyn Fn(usize) -> Bytes,
    fetch_suffix: &dyn Fn(usize) -> Bytes,
    emit: &mut dyn FnMut(&CostEvent<'_>),
) {
    let depth = tiers.len();
    let mut walk: Vec<(Access, Decision)> = Vec::with_capacity(depth);
    for (t, policy) in tiers.iter_mut().enumerate() {
        let access = Access {
            object,
            time,
            yield_bytes: raw_yield,
            size,
            fetch_cost: fetch_suffix(t),
        };
        let decision = policy.on_access(&access);
        let resolved = !decision.is_bypass();
        walk.push((access, decision));
        if resolved {
            break;
        }
    }
    let Some(top) = walk.len().checked_sub(1) else {
        return;
    };
    let resolution = walk.last().map(|(_, d)| d);
    let links: std::ops::Range<u32> = match resolution {
        Some(Decision::Hit) => 0..top as u32,
        _ => 0..depth as u32,
    };
    let transfer = match faults {
        Some(plan) if !links.is_empty() => {
            Some(plan.fetch_path(index, time, object, server, links))
        }
        _ => None,
    };
    let (multiplier, failed_attempts, delivered_ok) = match &transfer {
        None => (1.0, 0u32, true),
        Some(res) => match res.delivered {
            Some(m) => (m, res.failed_attempts, true),
            None => (1.0, res.failed_attempts, false),
        },
    };
    let wasted = if failed_attempts == 0 {
        Bytes::ZERO
    } else {
        let downstream: Bytes = (0..top).map(yield_price).sum();
        let nominal = match resolution {
            Some(Decision::Hit) => downstream,
            Some(Decision::Load { .. }) => downstream + fetch_suffix(top),
            _ => downstream + yield_price(top),
        };
        FaultPlan::wasted_bytes(nominal, failed_attempts)
    };
    for (t, (access, decision)) in walk.iter().enumerate() {
        let mut event = blank(index, object, server);
        event.tier = t as u32;
        event.access = Some(access);
        event.decision = Some(decision);
        event.policy = Some(&*tiers[t]);
        if t < top {
            event.bypasses = 1;
            if delivered_ok {
                event.relay_cost = spiked_cost(yield_price(t), multiplier);
            }
            emit(&event);
            continue;
        }
        event.delivered = raw_yield;
        event.retries = u64::from(failed_attempts);
        event.retried_bytes = wasted;
        match decision {
            Decision::Hit => event.hits = 1,
            Decision::Bypass => event.bypasses = 1,
            Decision::Load { evictions } => {
                event.loads = 1;
                event.evictions = evictions.len() as u64;
            }
        }
        if delivered_ok {
            match decision {
                Decision::Hit => event.cache_served = raw_yield,
                Decision::Bypass => {
                    event.bypass_served = raw_yield;
                    event.bypass_cost = spiked_cost(yield_price(t), multiplier);
                }
                Decision::Load { .. } => {
                    event.fetch_cost = spiked_cost(fetch_suffix(t), multiplier);
                    event.cache_served = raw_yield;
                }
            }
        } else if let Some(plan) = faults {
            degrade_slice(plan, &mut event, raw_yield);
        }
        emit(&event);
    }
}

/// Replay `trace` through a tier hierarchy, one policy per topology
/// tier (bottom-up), with the full observer protocol; observers finish
/// against the site tier's policy.
pub fn replay_tiered(
    trace: &Trace,
    objects: &ObjectCatalog,
    topology: &Topology,
    tiers: &mut [&mut dyn CachePolicy],
    faults: Option<FaultPlan<'_>>,
    observers: &mut [&mut dyn Observer],
) {
    let access_count = partition(observers);
    for (index, query) in trace.queries.iter().enumerate() {
        let time = Tick::new(index as u64);
        for obs in observers.iter_mut() {
            obs.on_query_start(index, query);
        }
        for (object, raw_yield) in decompose(query, objects) {
            let info = objects.info(object);
            let server = info.server;
            let fetch = info.fetch_cost;
            serve_slice_tiered(
                index,
                time,
                object,
                server,
                raw_yield,
                info.size,
                tiers,
                faults.as_ref(),
                &|l| topology.link_price(l, server, raw_yield),
                &|t| topology.fetch_suffix(t, server, fetch),
                &mut |event| {
                    for obs in observers.iter_mut().take(access_count) {
                        obs.on_access(event);
                    }
                },
            );
        }
        for obs in observers.iter_mut() {
            obs.on_query_end(index, query);
        }
    }
    let site: Option<&dyn CachePolicy> = tiers.first().map(|p| &**p as &dyn CachePolicy);
    for obs in observers.iter_mut() {
        obs.finish(site);
    }
}

/// The flat oracle's cost report.
pub fn flat_report(
    trace: &Trace,
    objects: &ObjectCatalog,
    network: &dyn NetworkModel,
    policy: &mut dyn CachePolicy,
    faults: Option<FaultPlan<'_>>,
) -> CostReport {
    let mut cost = CostObserver::new(policy.name(), &trace.name, objects.granularity().label());
    replay_flat(trace, objects, network, policy, faults, &mut [&mut cost]);
    cost.into_report()
}

/// The tiered oracle's cost report, labelled with the site tier's
/// policy name.
pub fn tiered_report(
    trace: &Trace,
    objects: &ObjectCatalog,
    topology: &Topology,
    tiers: &mut [&mut dyn CachePolicy],
    faults: Option<FaultPlan<'_>>,
) -> CostReport {
    let label = tiers.first().map(|p| p.name()).unwrap_or_default();
    let mut cost = CostObserver::new(label, &trace.name, objects.granularity().label());
    replay_tiered(trace, objects, topology, tiers, faults, &mut [&mut cost]);
    cost.into_report()
}
