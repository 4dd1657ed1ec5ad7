//! In-line (no-bypass) comparison policies: GDS, GDSP, LRU, LFU, LRU-K.
//!
//! These are the conventional proxy-caching policies the paper compares
//! against (§2, §6.2). They never bypass: every miss loads the object
//! (evicting by the policy's utility) and serves the query from the cache
//! — which is exactly why they perform poorly on scientific workloads:
//! "GDS performs poorly because it caches all requests, loading columns
//! (resp. tables) into the cache and generating query results in the
//! cache." The single exception is an object larger than the whole cache,
//! which physically cannot be cached and is bypassed.
//!
//! All five share the [`InlineCache`] chassis and differ only in their
//! [`UtilityRule`].

use crate::access::Access;
use crate::cache::{CacheState, EvictionPlan};
use crate::dense::DenseMap;
use crate::policy::{CachePolicy, Decision, Evictions};
use byc_types::{Bytes, ObjectId};

/// How a policy keys the utility heap.
pub trait UtilityRule {
    /// Stable display name.
    fn name(&self) -> &'static str;

    /// Utility after a hit on a cached object.
    fn on_hit(&mut self, access: &Access, hits_so_far: u64) -> f64;

    /// Utility for a freshly loaded object.
    fn on_load(&mut self, access: &Access) -> f64;

    /// Observe an eviction (GDS raises its inflation level here).
    fn on_evict(&mut self, _object: ObjectId, _utility: f64) {}
}

/// The shared in-line caching chassis.
#[derive(Clone, Debug)]
pub struct InlineCache<R> {
    cache: CacheState,
    rule: R,
    /// Reusable eviction-plan scratch; empty between accesses.
    plan: EvictionPlan,
}

impl<R: UtilityRule> InlineCache<R> {
    /// Create a cache with the given capacity and utility rule.
    pub fn new(capacity: Bytes, rule: R) -> Self {
        Self {
            cache: CacheState::new(capacity),
            rule,
            plan: EvictionPlan::new(),
        }
    }

    /// The utility rule (diagnostics).
    pub fn rule(&self) -> &R {
        &self.rule
    }
}

impl<R: UtilityRule> CachePolicy for InlineCache<R> {
    fn name(&self) -> &'static str {
        self.rule.name()
    }

    fn on_access(&mut self, access: &Access) -> Decision {
        if self.cache.contains(access.object) {
            self.cache.record_hit(access.object, access.yield_bytes);
            let hits = self.cache.entry(access.object).map(|e| e.hits).unwrap_or(0);
            let u = self.rule.on_hit(access, hits);
            self.cache.set_utility(access.object, u);
            return Decision::Hit;
        }
        // In-line keys are refreshed on every hit and load, so the heap is
        // always exact: plain (non-lazy) planning suffices.
        let mut plan = std::mem::take(&mut self.plan);
        if !self.cache.plan_eviction_into(access.size, &mut plan) {
            // Larger than the whole cache: physically uncacheable.
            self.plan = plan;
            return Decision::Bypass;
        }
        let mut evictions = Evictions::new();
        for &(v, u) in plan.victims() {
            self.rule.on_evict(v, u);
            evictions.push(v);
        }
        let utility = self.rule.on_load(access);
        self.cache
            .commit_plan(&plan, access.object, access.size, utility, access.time);
        self.cache.record_hit(access.object, access.yield_bytes);
        self.plan = plan;
        Decision::Load { evictions }
    }

    fn contains(&self, object: ObjectId) -> bool {
        self.cache.contains(object)
    }

    fn used(&self) -> Bytes {
        self.cache.used()
    }

    fn capacity(&self) -> Bytes {
        self.cache.capacity()
    }

    fn cached_objects(&self) -> Vec<ObjectId> {
        self.cache.iter().map(|(o, _)| o).collect()
    }

    fn invalidate(&mut self, object: ObjectId) -> bool {
        self.cache.remove(object).is_some()
    }
}

/// Greedy-Dual-Size (Cao & Irani '97): utility `L + cost/size`, where the
/// inflation level `L` rises to the utility of each evicted object.
#[derive(Clone, Debug, Default)]
pub struct GdsRule {
    inflation: f64,
}

impl GdsRule {
    fn key(&self, access: &Access) -> f64 {
        let s = access.size.as_f64().max(1.0);
        self.inflation + access.fetch_cost.as_f64() / s
    }
}

impl UtilityRule for GdsRule {
    fn name(&self) -> &'static str {
        "GDS"
    }

    fn on_hit(&mut self, access: &Access, _hits: u64) -> f64 {
        self.key(access)
    }

    fn on_load(&mut self, access: &Access) -> f64 {
        self.key(access)
    }

    fn on_evict(&mut self, _object: ObjectId, utility: f64) {
        self.inflation = self.inflation.max(utility);
    }
}

/// GDS-Popularity (Jin & Bestavros 2000): utility
/// `L + frequency · cost/size`, with a persistent frequency count per
/// object in the reference stream.
#[derive(Clone, Debug, Default)]
pub struct GdspRule {
    inflation: f64,
    frequency: DenseMap<u64>,
}

impl UtilityRule for GdspRule {
    fn name(&self) -> &'static str {
        "GDSP"
    }

    fn on_hit(&mut self, access: &Access, _hits: u64) -> f64 {
        let f = self.frequency.get_or_insert_with(access.object, || 0);
        *f += 1;
        let s = access.size.as_f64().max(1.0);
        self.inflation + *f as f64 * access.fetch_cost.as_f64() / s
    }

    fn on_load(&mut self, access: &Access) -> f64 {
        let f = self.frequency.get_or_insert_with(access.object, || 0);
        *f += 1;
        let s = access.size.as_f64().max(1.0);
        self.inflation + *f as f64 * access.fetch_cost.as_f64() / s
    }

    fn on_evict(&mut self, _object: ObjectId, utility: f64) {
        self.inflation = self.inflation.max(utility);
    }
}

/// Least-recently-used: utility is the access time.
#[derive(Clone, Debug, Default)]
pub struct LruRule;

impl UtilityRule for LruRule {
    fn name(&self) -> &'static str {
        "LRU"
    }

    fn on_hit(&mut self, access: &Access, _hits: u64) -> f64 {
        access.time.raw() as f64
    }

    fn on_load(&mut self, access: &Access) -> f64 {
        access.time.raw() as f64
    }
}

/// Least-frequently-used: utility is the in-cache hit count (resets on
/// reload, classic LFU).
#[derive(Clone, Debug, Default)]
pub struct LfuRule;

impl UtilityRule for LfuRule {
    fn name(&self) -> &'static str {
        "LFU"
    }

    fn on_hit(&mut self, _access: &Access, hits: u64) -> f64 {
        hits as f64
    }

    fn on_load(&mut self, _access: &Access) -> f64 {
        1.0
    }
}

/// LRU-K (O'Neil, O'Neil & Weikum '93) with K configurable: utility is the
/// K-th most recent reference time; objects with fewer than K references
/// rank lowest (utility −1, evicted first, oldest first among themselves).
#[derive(Clone, Debug)]
pub struct LruKRule {
    k: usize,
    /// Per-object reference history, most recent last, capped at `k`.
    history: DenseMap<Vec<u64>>,
}

impl LruKRule {
    /// LRU-K with the given K ≥ 1.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "LRU-K needs K >= 1");
        Self {
            k,
            history: DenseMap::new(),
        }
    }

    fn observe(&mut self, access: &Access) -> f64 {
        let h = self.history.get_or_insert_with(access.object, Vec::new);
        h.push(access.time.raw());
        if h.len() > self.k {
            h.remove(0);
        }
        match h.first() {
            // K-th most recent = front of the capped window.
            Some(&kth) if h.len() == self.k => kth as f64,
            // Fewer than K references: maximally evictable, but keep the
            // relative order by (negative) recency so the oldest goes
            // first.
            _ => -1.0 - 1.0 / (access.time.raw() as f64 + 2.0),
        }
    }
}

impl UtilityRule for LruKRule {
    fn name(&self) -> &'static str {
        "LRU-K"
    }

    fn on_hit(&mut self, access: &Access, _hits: u64) -> f64 {
        self.observe(access)
    }

    fn on_load(&mut self, access: &Access) -> f64 {
        self.observe(access)
    }
}

/// Largest-File-First: evict the biggest object first (utility is the
/// negated size). One of the simple revocation policies the paper's
/// related-work section lists alongside LRU and LFU; it frees the most
/// room per eviction but ignores popularity entirely.
#[derive(Clone, Debug, Default)]
pub struct LffRule;

impl UtilityRule for LffRule {
    fn name(&self) -> &'static str {
        "LFF"
    }

    fn on_hit(&mut self, access: &Access, _hits: u64) -> f64 {
        -access.size.as_f64()
    }

    fn on_load(&mut self, access: &Access) -> f64 {
        -access.size.as_f64()
    }
}

/// GreedyDual* (Jin & Bestavros 2001): GDS with the frequency raised to a
/// temporal-locality exponent β, `H = L + (freq^β · cost / size)`. β = 1
/// recovers GDSP; β < 1 damps stale popularity.
#[derive(Clone, Debug)]
pub struct GdStarRule {
    inflation: f64,
    beta: f64,
    frequency: DenseMap<u64>,
}

impl GdStarRule {
    /// GreedyDual* with temporal-locality exponent `beta > 0`.
    pub fn new(beta: f64) -> Self {
        assert!(beta > 0.0, "beta must be positive");
        Self {
            inflation: 0.0,
            beta,
            frequency: DenseMap::new(),
        }
    }

    fn key(&mut self, access: &Access) -> f64 {
        let f = self.frequency.get_or_insert_with(access.object, || 0);
        *f += 1;
        let s = access.size.as_f64().max(1.0);
        self.inflation + (*f as f64).powf(self.beta) * access.fetch_cost.as_f64() / s
    }
}

impl UtilityRule for GdStarRule {
    fn name(&self) -> &'static str {
        "GD*"
    }

    fn on_hit(&mut self, access: &Access, _hits: u64) -> f64 {
        self.key(access)
    }

    fn on_load(&mut self, access: &Access) -> f64 {
        self.key(access)
    }

    fn on_evict(&mut self, _object: ObjectId, utility: f64) {
        self.inflation = self.inflation.max(utility);
    }
}

/// Convenience constructors for the standard comparison set.
pub mod make {
    use super::*;

    /// GDS with the given capacity.
    pub fn gds(capacity: Bytes) -> InlineCache<GdsRule> {
        InlineCache::new(capacity, GdsRule::default())
    }

    /// GDSP with the given capacity.
    pub fn gdsp(capacity: Bytes) -> InlineCache<GdspRule> {
        InlineCache::new(capacity, GdspRule::default())
    }

    /// LRU with the given capacity.
    pub fn lru(capacity: Bytes) -> InlineCache<LruRule> {
        InlineCache::new(capacity, LruRule)
    }

    /// LFU with the given capacity.
    pub fn lfu(capacity: Bytes) -> InlineCache<LfuRule> {
        InlineCache::new(capacity, LfuRule)
    }

    /// LRU-2 with the given capacity.
    pub fn lru_k(capacity: Bytes, k: usize) -> InlineCache<LruKRule> {
        InlineCache::new(capacity, LruKRule::new(k))
    }

    /// LFF with the given capacity.
    pub fn lff(capacity: Bytes) -> InlineCache<LffRule> {
        InlineCache::new(capacity, LffRule)
    }

    /// GreedyDual* with the given capacity and β = 0.5.
    pub fn gd_star(capacity: Bytes) -> InlineCache<GdStarRule> {
        InlineCache::new(capacity, GdStarRule::new(0.5))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byc_types::Tick;

    fn acc(object: u32, time: u64, yld: u64, size: u64) -> Access {
        Access {
            object: ObjectId::new(object),
            time: Tick::new(time),
            yield_bytes: Bytes::new(yld),
            size: Bytes::new(size),
            fetch_cost: Bytes::new(size),
        }
    }

    #[test]
    fn inline_always_loads_on_miss() {
        let mut p = make::gds(Bytes::new(1000));
        assert!(p.on_access(&acc(0, 0, 1, 100)).is_load());
        assert!(p.on_access(&acc(0, 1, 1, 100)).is_hit());
        assert!(p.on_access(&acc(1, 2, 1, 100)).is_load());
    }

    #[test]
    fn inline_bypasses_only_uncacheable() {
        let mut p = make::lru(Bytes::new(50));
        assert!(p.on_access(&acc(0, 0, 1, 100)).is_bypass());
        assert!(p.on_access(&acc(1, 1, 1, 50)).is_load());
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut p = make::lru(Bytes::new(100));
        p.on_access(&acc(0, 0, 1, 40));
        p.on_access(&acc(1, 1, 1, 40));
        p.on_access(&acc(0, 2, 1, 40)); // refresh 0
        let d = p.on_access(&acc(2, 3, 1, 40));
        assert_eq!(
            d,
            Decision::Load {
                evictions: vec![ObjectId::new(1)].into()
            }
        );
    }

    #[test]
    fn lfu_protects_frequent() {
        let mut p = make::lfu(Bytes::new(100));
        p.on_access(&acc(0, 0, 1, 40));
        for t in 1..5 {
            p.on_access(&acc(0, t, 1, 40));
        }
        p.on_access(&acc(1, 5, 1, 40));
        let d = p.on_access(&acc(2, 6, 1, 40));
        assert_eq!(
            d,
            Decision::Load {
                evictions: vec![ObjectId::new(1)].into()
            }
        );
    }

    #[test]
    fn gds_prefers_costly_small_objects() {
        let mut p = make::gds(Bytes::new(100));
        // Object 0: cost/size = 1 (fetch=size). Object 1 with high fetch.
        p.on_access(&acc(0, 0, 1, 50));
        let mut expensive = acc(1, 1, 1, 50);
        expensive.fetch_cost = Bytes::new(500);
        p.on_access(&expensive);
        // Miss on 2 evicts the cheap one.
        let d = p.on_access(&acc(2, 2, 1, 50));
        assert_eq!(
            d,
            Decision::Load {
                evictions: vec![ObjectId::new(0)].into()
            }
        );
    }

    #[test]
    fn gds_inflation_gives_temporal_locality() {
        let mut p = make::gds(Bytes::new(100));
        // Fill, churn through many objects, then verify a recently loaded
        // object survives over one loaded long ago (aging via L).
        p.on_access(&acc(0, 0, 1, 50));
        for i in 1..20u32 {
            p.on_access(&acc(i, i as u64, 1, 50));
        }
        // The survivor set is the two most recent, not object 0.
        assert!(!p.contains(ObjectId::new(0)));
        assert!(p.contains(ObjectId::new(19)));
    }

    #[test]
    fn gdsp_frequency_beats_recency() {
        let mut p = make::gdsp(Bytes::new(100));
        // Object 0 accessed 10 times (freq 10), object 1 once.
        for t in 0..10 {
            p.on_access(&acc(0, t, 1, 50));
        }
        p.on_access(&acc(1, 10, 1, 50));
        // New object: the low-frequency 1 goes, not the popular 0.
        let d = p.on_access(&acc(2, 11, 1, 50));
        assert_eq!(
            d,
            Decision::Load {
                evictions: vec![ObjectId::new(1)].into()
            }
        );
        // Frequency persists across evictions: reloading 1 later still
        // remembers freq 1 → now 2.
        assert_eq!(p.rule().frequency.get(ObjectId::new(1)), Some(&1));
    }

    #[test]
    fn lruk_evicts_single_reference_first() {
        let mut p = make::lru_k(Bytes::new(100), 2);
        // 0 referenced twice (has a K-distance), 1 once.
        p.on_access(&acc(0, 0, 1, 40));
        p.on_access(&acc(0, 1, 1, 40));
        p.on_access(&acc(1, 2, 1, 40));
        let d = p.on_access(&acc(2, 3, 1, 40));
        assert_eq!(
            d,
            Decision::Load {
                evictions: vec![ObjectId::new(1)].into()
            }
        );
    }

    #[test]
    fn lruk_uses_kth_reference_time() {
        let mut p = make::lru_k(Bytes::new(100), 2);
        // 0: refs at 0, 1 → K-dist key 0. 1: refs at 2, 3 → key 2.
        p.on_access(&acc(0, 0, 1, 40));
        p.on_access(&acc(0, 1, 1, 40));
        p.on_access(&acc(1, 2, 1, 40));
        p.on_access(&acc(1, 3, 1, 40));
        let d = p.on_access(&acc(2, 4, 1, 40));
        assert_eq!(
            d,
            Decision::Load {
                evictions: vec![ObjectId::new(0)].into()
            }
        );
    }

    #[test]
    fn lff_evicts_largest_first() {
        let mut p = make::lff(Bytes::new(100));
        p.on_access(&acc(0, 0, 1, 60));
        p.on_access(&acc(1, 1, 1, 30));
        // Miss: the 60-byte object goes first even though it's newer-ish.
        let d = p.on_access(&acc(2, 2, 1, 50));
        assert_eq!(
            d,
            Decision::Load {
                evictions: vec![ObjectId::new(0)].into()
            }
        );
        assert!(p.contains(ObjectId::new(1)));
    }

    #[test]
    fn gd_star_popularity_protects_with_damping() {
        let mut p = make::gd_star(Bytes::new(100));
        for t in 0..9 {
            p.on_access(&acc(0, t, 1, 50)); // freq 9 → sqrt(9) = 3
        }
        p.on_access(&acc(1, 9, 1, 50)); // freq 1 → 1
        let d = p.on_access(&acc(2, 10, 1, 50));
        assert_eq!(
            d,
            Decision::Load {
                evictions: vec![ObjectId::new(1)].into()
            }
        );
    }

    #[test]
    #[should_panic(expected = "beta must be positive")]
    fn gd_star_rejects_bad_beta() {
        let _ = GdStarRule::new(0.0);
    }

    #[test]
    fn all_rules_respect_capacity() {
        let mut rng = byc_types::SplitMix64::new(23);
        let caps = Bytes::new(400);
        let mut policies: Vec<Box<dyn CachePolicy>> = vec![
            Box::new(make::gds(caps)),
            Box::new(make::gdsp(caps)),
            Box::new(make::lru(caps)),
            Box::new(make::lfu(caps)),
            Box::new(make::lru_k(caps, 2)),
            Box::new(make::lff(caps)),
            Box::new(make::gd_star(caps)),
        ];
        for t in 0..2_000u64 {
            let o = rng.next_bounded(25) as u32;
            let size = 20 + (o as u64 * 13) % 180;
            let yld = rng.next_bounded(size) + 1;
            for p in policies.iter_mut() {
                let was_cached = p.contains(ObjectId::new(o));
                let d = p.on_access(&acc(o, t, yld, size));
                assert!(p.used() <= p.capacity(), "{} overflow", p.name());
                match d {
                    Decision::Hit => assert!(was_cached, "{} bad hit", p.name()),
                    Decision::Bypass => {
                        assert!(size > p.capacity().raw(), "{} bypassed cacheable", p.name())
                    }
                    Decision::Load { .. } => assert!(!was_cached),
                }
            }
        }
    }
}
