//! Static-optimal caching and the no-cache baseline (paper §6.2).
//!
//! Static table caching "populates a cache with the optimal set of tables,
//! and no cache loading or eviction occurs" — an offline sanity bound that
//! bypass-yield algorithms should approach. Choosing the set is a 0/1
//! knapsack over per-object total yields (the savings of keeping the
//! object resident for the whole trace) and sizes. We provide the classic
//! density greedy (fast, near-optimal when objects are small relative to
//! capacity) and an exact dynamic program on a scaled capacity grid.

use crate::access::Access;
use crate::dense::DenseMap;
use crate::policy::{CachePolicy, Decision};
use byc_types::{Bytes, ObjectId};

/// Per-object demand observed over a whole trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObjectDemand {
    /// The object.
    pub object: ObjectId,
    /// Total yield over the trace (network savings if always resident).
    pub total_yield: Bytes,
    /// Object size.
    pub size: Bytes,
    /// WAN cost of loading the object once.
    pub fetch_cost: Bytes,
}

impl ObjectDemand {
    /// Net savings of keeping the object resident for the whole trace:
    /// the yield it serves minus the one-time load investment. Objects
    /// with non-positive net savings must never be selected — caching
    /// them *increases* network traffic.
    pub fn net_savings(&self) -> Bytes {
        self.total_yield.saturating_sub(self.fetch_cost)
    }
}

/// Greedy selection by net-savings density (net savings / size),
/// descending; only net-profitable objects are considered.
pub fn plan_greedy(demands: &[ObjectDemand], capacity: Bytes) -> Vec<ObjectId> {
    let mut by_density: Vec<&ObjectDemand> = demands
        .iter()
        .filter(|d| d.size <= capacity && !d.net_savings().is_zero())
        .collect();
    by_density.sort_by(|a, b| {
        let da = a.net_savings().as_f64() / a.size.as_f64().max(1.0);
        let db = b.net_savings().as_f64() / b.size.as_f64().max(1.0);
        db.total_cmp(&da).then_with(|| a.object.cmp(&b.object))
    });
    let mut selected = Vec::new();
    let mut used = Bytes::ZERO;
    for d in by_density {
        if used + d.size <= capacity {
            used += d.size;
            selected.push(d.object);
        }
    }
    selected
}

/// Exact 0/1 knapsack on a scaled capacity grid of `grid` buckets
/// (sizes are rounded *up* to grid units, so the selection never exceeds
/// the true capacity). O(n · grid) time and memory.
pub fn plan_exact(demands: &[ObjectDemand], capacity: Bytes, grid: usize) -> Vec<ObjectId> {
    assert!(grid >= 1, "grid must be at least 1");
    if capacity.is_zero() {
        return Vec::new();
    }
    // All grid math is exact integer arithmetic: a byte count never moves
    // through a float or a truncating cast.
    let grid_max = u64::try_from(grid).unwrap_or(u64::MAX);
    // Unit rounded *up* so the budget in units never exceeds `grid`;
    // rounding down would clamp the budget and discard real capacity.
    let unit = capacity.raw().div_ceil(grid_max).max(1);
    // Budget in grid units, floored so rounded-up item weights can never
    // overshoot the true capacity.
    let grid = usize::try_from(capacity.raw() / unit)
        .unwrap_or(grid)
        .min(grid)
        .max(1);
    let items: Vec<(&ObjectDemand, usize)> = demands
        .iter()
        .filter(|d| d.size <= capacity && !d.net_savings().is_zero())
        .map(|d| {
            // Weight = ceil(size / unit), rounded up.
            let w = d.size.raw().div_ceil(unit);
            (d, usize::try_from(w).unwrap_or(usize::MAX).max(1))
        })
        .filter(|&(_, w)| w <= grid)
        .collect();
    // value[w] = best total yield using weight ≤ w; choice tracking.
    let mut best = vec![0u64; grid + 1];
    let mut take = vec![vec![false; grid + 1]; items.len()];
    for (i, &(d, w)) in items.iter().enumerate() {
        for cap in (w..=grid).rev() {
            let with = best[cap - w].saturating_add(d.net_savings().raw());
            if with > best[cap] {
                best[cap] = with;
                take[i][cap] = true;
            }
        }
    }
    // Reconstruct.
    let mut selected = Vec::new();
    let mut cap = grid;
    for (i, &(d, w)) in items.iter().enumerate().rev() {
        if take[i][cap] {
            selected.push(d.object);
            cap -= w;
        }
    }
    selected.reverse();
    selected
}

/// The static-optimal policy: a fixed resident set, no eviction. Each
/// selected object's fetch is charged at its first access.
#[derive(Clone, Debug)]
pub struct StaticCache {
    /// The fixed resident set (a dense id-indexed membership set).
    selected: DenseMap<()>,
    /// Loaded objects and their sizes (needed to release space on
    /// invalidation).
    loaded: DenseMap<Bytes>,
    capacity: Bytes,
    used: Bytes,
}

impl StaticCache {
    /// Create from a planned selection.
    pub fn new(selected: Vec<ObjectId>, capacity: Bytes) -> Self {
        let mut set = DenseMap::new();
        for object in selected {
            set.insert(object, ());
        }
        Self {
            selected: set,
            loaded: DenseMap::new(),
            capacity,
            used: Bytes::ZERO,
        }
    }

    /// Plan greedily from demands and build the policy.
    pub fn plan(demands: &[ObjectDemand], capacity: Bytes) -> Self {
        Self::new(plan_greedy(demands, capacity), capacity)
    }

    /// Number of selected objects.
    pub fn selected_len(&self) -> usize {
        self.selected.len()
    }
}

impl CachePolicy for StaticCache {
    fn name(&self) -> &'static str {
        "Static"
    }

    fn on_access(&mut self, access: &Access) -> Decision {
        if !self.selected.contains(access.object) {
            return Decision::Bypass;
        }
        if self.loaded.contains(access.object) {
            return Decision::Hit;
        }
        if self.used + access.size > self.capacity {
            // The planner guarantees the selection fits; a mis-planned
            // set must degrade to bypassing, never overflow the cache.
            return Decision::Bypass;
        }
        self.loaded.insert(access.object, access.size);
        self.used += access.size;
        Decision::load()
    }

    fn contains(&self, object: ObjectId) -> bool {
        // The resident set is fixed; selected objects count as cached
        // once their first access loaded them.
        self.loaded.contains(object)
    }

    fn used(&self) -> Bytes {
        self.used
    }

    fn capacity(&self) -> Bytes {
        self.capacity
    }

    fn cached_objects(&self) -> Vec<ObjectId> {
        self.loaded.iter().map(|(o, _)| o).collect()
    }

    fn invalidate(&mut self, object: ObjectId) -> bool {
        // The object stays selected — it is simply re-fetched on its next
        // access.
        match self.loaded.remove(object) {
            Some(size) => {
                self.used = self.used.saturating_sub(size);
                true
            }
            None => false,
        }
    }
}

/// The no-cache baseline: every query goes to the servers. Its total cost
/// equals the sequence cost by construction.
#[derive(Clone, Debug, Default)]
pub struct NoCache;

impl CachePolicy for NoCache {
    fn name(&self) -> &'static str {
        "NoCache"
    }

    fn on_access(&mut self, _access: &Access) -> Decision {
        Decision::Bypass
    }

    fn contains(&self, _object: ObjectId) -> bool {
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

#[cfg(test)]
mod tests {
    use super::*;
    use byc_types::Tick;

    fn oid(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    fn demand(i: u32, yld: u64, size: u64) -> ObjectDemand {
        ObjectDemand {
            object: oid(i),
            total_yield: Bytes::new(yld),
            size: Bytes::new(size),
            // Uniform network: fetching costs one object's worth.
            fetch_cost: Bytes::new(size),
        }
    }

    #[test]
    fn greedy_picks_density_order() {
        let demands = [
            demand(0, 150, 100), // net 50
            demand(1, 400, 100), // net 300
            demand(2, 300, 100), // net 200
        ];
        let plan = plan_greedy(&demands, Bytes::new(200));
        assert_eq!(plan, vec![oid(1), oid(2)]);
    }

    #[test]
    fn greedy_rejects_net_unprofitable() {
        // Yield below the fetch cost: caching would add traffic.
        let demands = [demand(0, 90, 100), demand(1, 100, 100)];
        assert!(plan_greedy(&demands, Bytes::new(1000)).is_empty());
    }

    #[test]
    fn greedy_skips_oversized_and_zero_yield() {
        let demands = [
            demand(0, 1000, 500), // too big for the cache
            demand(1, 0, 10),     // useless
            demand(2, 250, 100),
        ];
        let plan = plan_greedy(&demands, Bytes::new(200));
        assert_eq!(plan, vec![oid(2)]);
    }

    #[test]
    fn exact_beats_greedy_on_adversarial_instance() {
        // Greedy takes the dense small item and wastes capacity; exact
        // takes the two mediums. (Net savings: 60, 50, 50.)
        let demands = [
            demand(0, 111, 51), // net 60, density 1.18
            demand(1, 100, 50), // net 50, density 1.0
            demand(2, 100, 50), // net 50, density 1.0
        ];
        let cap = Bytes::new(100);
        let greedy = plan_greedy(&demands, cap);
        let exact = plan_exact(&demands, cap, 100);
        let value = |plan: &[ObjectId]| -> u64 {
            plan.iter()
                .map(|o| demands.iter().find(|d| d.object == *o).unwrap())
                .map(|d| d.net_savings().raw())
                .sum()
        };
        assert_eq!(value(&greedy), 60);
        assert_eq!(value(&exact), 100);
        // Exact plan must respect capacity.
        let weight: u64 = exact
            .iter()
            .map(|o| demands.iter().find(|d| d.object == *o).unwrap().size.raw())
            .sum();
        assert!(weight <= 100);
    }

    #[test]
    fn exact_never_worse_than_greedy() {
        let mut rng = byc_types::SplitMix64::new(31);
        for trial in 0..50 {
            let n = rng.next_range(1, 12) as usize;
            let demands: Vec<ObjectDemand> = (0..n)
                .map(|i| demand(i as u32, rng.next_range(1, 1000), rng.next_range(1, 300)))
                .collect();
            let cap = Bytes::new(rng.next_range(50, 600));
            let value = |plan: &[ObjectId]| -> u64 {
                plan.iter()
                    .map(|o| demands.iter().find(|d| d.object == *o).unwrap())
                    .map(|d| d.net_savings().raw())
                    .sum()
            };
            let g = value(&plan_greedy(&demands, cap));
            let e = value(&plan_exact(&demands, cap, 512));
            assert!(e + e / 10 >= g, "trial {trial}: exact {e} << greedy {g}");
        }
    }

    #[test]
    fn static_cache_hits_selected_only() {
        let mut p = StaticCache::new(vec![oid(0)], Bytes::new(100));
        let a0 = Access {
            object: oid(0),
            time: Tick::ZERO,
            yield_bytes: Bytes::new(10),
            size: Bytes::new(50),
            fetch_cost: Bytes::new(50),
        };
        let a1 = Access {
            object: oid(1),
            ..a0
        };
        assert!(p.on_access(&a0).is_load());
        assert!(p.on_access(&a0).is_hit());
        assert!(p.on_access(&a1).is_bypass());
        assert!(p.contains(oid(0)));
        assert!(!p.contains(oid(1)));
        assert_eq!(p.selected_len(), 1);
    }

    #[test]
    fn no_cache_always_bypasses() {
        let mut p = NoCache;
        let a = Access {
            object: oid(3),
            time: Tick::ZERO,
            yield_bytes: Bytes::new(10),
            size: Bytes::new(50),
            fetch_cost: Bytes::new(50),
        };
        for _ in 0..10 {
            assert!(p.on_access(&a).is_bypass());
        }
        assert_eq!(p.name(), "NoCache");
        assert!(!p.contains(oid(3)));
    }

    #[test]
    fn exact_zero_capacity_selects_nothing() {
        let demands = [demand(0, 10, 10)];
        assert!(plan_exact(&demands, Bytes::ZERO, 10).is_empty());
    }
}
