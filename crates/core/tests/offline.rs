//! The capacity-relaxed offline bound against its definition.
//!
//! [`offline_lower_bound`] computes each object's optimum in closed form,
//! `min(Σ yields, fetch cost)`. The oracle here is the two-state shortest
//! path that closed form collapses: before each access the object is
//! cached or not; serving while cached costs 0, bypassing costs the
//! access's yield, loading costs the fetch cost, and evicting is free.

use byc_core::offline::offline_lower_bound;
use byc_core::static_opt::ObjectDemand;
use byc_types::{Bytes, ObjectId};
use proptest::prelude::*;

/// Optimal offline cost of one object's access sequence, capacity-relaxed:
/// a dynamic program over two states (cached / not cached).
fn two_state_optimum(fetch_cost: Bytes, yields: &[Bytes]) -> Bytes {
    // cost_out: best cost so far with the object not cached.
    // cost_in: best cost so far with it cached (it may be pre-loaded).
    let mut cost_out = Bytes::ZERO;
    let mut cost_in = fetch_cost;
    for &y in yields {
        // Serve this access in each state, then allow a free eviction or
        // a paid load before the next one.
        let serve_out = cost_out + y;
        let serve_in = cost_in;
        cost_out = serve_out.min(serve_in);
        cost_in = serve_in.min(serve_out + fetch_cost);
    }
    cost_out.min(cost_in)
}

/// Byte counts that are either small or so large that a few of them
/// saturate a `Bytes` sum.
fn bytes() -> impl Strategy<Value = Bytes> {
    prop_oneof![0u64..2_000, (u64::MAX / 4)..u64::MAX].prop_map(Bytes::new)
}

proptest! {
    /// The closed form equals the two-state DP, per object and summed
    /// over objects, on random sequences including saturating ones.
    #[test]
    fn optimum_equals_min_of_total_and_fetch(
        objects in proptest::collection::vec(
            (bytes(), proptest::collection::vec(bytes(), 0..12)),
            1..8,
        ),
    ) {
        let mut demands = Vec::new();
        let mut dp_total = Bytes::ZERO;
        for (i, (fetch_cost, yields)) in (0u32..).zip(&objects) {
            let demand = ObjectDemand {
                object: ObjectId::new(i),
                total_yield: yields.iter().copied().sum(),
                size: *fetch_cost,
                fetch_cost: *fetch_cost,
            };
            let optimum = two_state_optimum(*fetch_cost, yields);
            prop_assert_eq!(offline_lower_bound(&[demand]), optimum);
            dp_total += optimum;
            demands.push(demand);
        }
        prop_assert_eq!(offline_lower_bound(&demands), dp_total);
    }
}
