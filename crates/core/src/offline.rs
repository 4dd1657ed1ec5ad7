//! Offline lower bound: the cheapest any caching strategy could serve a
//! known access sequence, with the capacity constraint relaxed.
//!
//! For one object accessed in a known sequence:
//!
//! * serving an access while cached costs 0;
//! * bypassing while not cached costs the access's yield;
//! * loading costs the fetch cost (and may happen at any access);
//! * evicting is free.
//!
//! Without a capacity limit a load can stay forever, so one load before
//! the first access serves every access, and the object's optimum is
//! `min(Σ yields, fetch cost)`. Summing the per-object optima gives a
//! lower bound on the cost of *any* policy — online or offline — because
//! relaxing the capacity constraint only helps, and objects don't
//! otherwise interact. The bound is tight when the profitable set fits in
//! cache (exactly the regime of the paper's Figs 7–8 plateaus), which
//! makes it a useful "how far from perfect?" row next to Tables 1–2.
//!
//! The two-state shortest path over each access sequence, which this
//! closed form collapses, is the test oracle (`crates/core/tests/offline.rs`).

use crate::static_opt::ObjectDemand;
use byc_types::Bytes;

/// The capacity-relaxed offline lower bound on any policy's WAN cost:
/// `Σ min(total yield, fetch cost)` over whole-trace per-object demands.
/// Saturates at `u64::MAX` bytes, as all [`Bytes`] arithmetic does.
pub fn offline_lower_bound(demands: &[ObjectDemand]) -> Bytes {
    demands
        .iter()
        .map(|d| d.total_yield.min(d.fetch_cost))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::Access;
    use byc_types::{ObjectId, Tick};

    fn b(v: u64) -> Bytes {
        Bytes::new(v)
    }

    /// The bound for one object accessed with `yields`.
    fn one_object(fetch: u64, yields: &[u64]) -> Bytes {
        offline_lower_bound(&[ObjectDemand {
            object: ObjectId::new(0),
            total_yield: yields.iter().map(|&y| b(y)).sum(),
            size: b(fetch),
            fetch_cost: b(fetch),
        }])
    }

    #[test]
    fn all_bypass_when_cold() {
        // Three tiny accesses against an expensive object: bypass wins.
        assert_eq!(one_object(100, &[5, 5, 5]), b(15));
    }

    #[test]
    fn load_up_front_when_hot() {
        // Cumulative yield far exceeds the fetch cost: load before the
        // first access.
        assert_eq!(one_object(100, &[80, 80, 80]), b(100));
    }

    #[test]
    fn breakeven_prefers_either() {
        // Total yield exactly equals fetch: both strategies cost 100.
        assert_eq!(one_object(100, &[50, 50]), b(100));
    }

    #[test]
    fn mixed_burst_structure() {
        // A hot burst, a long cold middle (modelled by a single tiny
        // access), then another hot burst: loads persist for free, so one
        // load up front costs 100 and serves everything.
        assert_eq!(one_object(100, &[90, 90, 1, 90, 90]), b(100));
    }

    #[test]
    fn preload_dominates_partial_strategies() {
        // Loading before the first access serves the cold trickle too:
        // the optimum is 100, not the tempting "bypass 2, then load" (102).
        assert_eq!(one_object(100, &[1, 1, 200, 200]), b(100));
    }

    #[test]
    fn empty_sequence_costs_nothing() {
        assert_eq!(one_object(100, &[]), Bytes::ZERO);
    }

    #[test]
    fn bound_is_below_any_policy() {
        // Replaying random accesses: the offline bound never exceeds what
        // OnlineBY actually pays.
        use crate::bypass_object::Landlord;
        use crate::online::OnlineBY;
        use crate::policy::{CachePolicy, Decision};
        let size_of = |id: u32| b(50 + (u64::from(id) * 13) % 200);
        let mut rng = byc_types::SplitMix64::new(77);
        let accesses: Vec<Access> = (0..2_000u64)
            .map(|t| {
                let id = rng.next_bounded(20) as u32;
                let size = size_of(id);
                Access {
                    object: ObjectId::new(id),
                    time: Tick::new(t),
                    yield_bytes: b(rng.next_bounded(size.raw()) + 1),
                    size,
                    fetch_cost: size,
                }
            })
            .collect();
        let mut demands: Vec<ObjectDemand> = (0..20u32)
            .map(|id| ObjectDemand {
                object: ObjectId::new(id),
                total_yield: Bytes::ZERO,
                size: size_of(id),
                fetch_cost: size_of(id),
            })
            .collect();
        for a in &accesses {
            demands[a.object.index()].total_yield += a.yield_bytes;
        }
        let bound = offline_lower_bound(&demands);
        let mut policy = OnlineBY::new(Landlord::new(Bytes::new(100_000)));
        let mut online_cost = Bytes::ZERO;
        for a in &accesses {
            match policy.on_access(a) {
                Decision::Bypass => online_cost += a.yield_bytes,
                Decision::Load { .. } => online_cost += a.fetch_cost,
                Decision::Hit => {}
            }
        }
        assert!(
            bound <= online_cost,
            "bound {bound} exceeds online cost {online_cost}"
        );
        // Some object is worth loading: the bound beats bypassing all.
        let all_bypass: Bytes = accesses.iter().map(|a| a.yield_bytes).sum();
        assert!(bound < all_bypass);
    }

    #[test]
    fn bound_aggregates_objects_independently() {
        let demand = |id: u32, total_yield: u64| ObjectDemand {
            object: ObjectId::new(id),
            total_yield: b(total_yield),
            size: b(100),
            fetch_cost: b(100),
        };
        // Object 0: bypass (5). Object 1: load (100).
        assert_eq!(offline_lower_bound(&[demand(0, 5), demand(1, 500)]), b(105));
    }
}
