//! OnlineBY: the k-competitive online bypass-yield algorithm (paper §5.2).
//!
//! OnlineBY runs one instance of the on-line ski-rental algorithm per
//! object, with the byte-yield utility as the rent meter: each query adds
//! `y_{i,j} / s_i` to the object's BYU counter. When the counter reaches 1
//! — cumulative bypass traffic has matched the object's size, i.e. the
//! rent paid has matched the purchase price — the counter is decremented
//! and the object is presented as a whole-object request to a
//! bypass-object caching algorithm `A_obj`, which manages the cache.
//! Queries for cached objects are served locally; everything else is
//! bypassed.
//!
//! Theorem 5.1: if `A_obj` is α-competitive, OnlineBY is
//! (4α+2)-competitive; with Irani-style multi-size paging this gives
//! O(lg² k), where k = cache size / smallest object size.

use crate::access::Access;
use crate::bypass_object::BypassObjectAlgorithm;
use crate::dense::DenseMap;
use crate::policy::{CachePolicy, Decision};
use byc_types::{Bytes, ObjectId};

/// The OnlineBY policy, generic over the bypass-object subroutine.
#[derive(Clone, Debug)]
pub struct OnlineBY<A> {
    inner: A,
    name: &'static str,
    /// Per-object BYU rent meters ("For all i, BYU_i is initially 0").
    byu: DenseMap<f64>,
}

impl<A: BypassObjectAlgorithm> OnlineBY<A> {
    /// Wrap a bypass-object algorithm.
    pub fn new(inner: A) -> Self {
        Self {
            inner,
            name: "OnlineBY",
            byu: DenseMap::new(),
        }
    }

    /// Wrap with an explicit display name (used by ablation reports to
    /// distinguish the `A_obj` choice).
    pub fn with_name(inner: A, name: &'static str) -> Self {
        Self {
            inner,
            name,
            byu: DenseMap::new(),
        }
    }

    /// Current BYU meter of an object (diagnostics).
    pub fn byu_counter(&self, object: ObjectId) -> f64 {
        self.byu.get(object).copied().unwrap_or(0.0)
    }

    /// The wrapped bypass-object algorithm.
    pub fn inner(&self) -> &A {
        &self.inner
    }
}

impl<A: BypassObjectAlgorithm> CachePolicy for OnlineBY<A> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn on_access(&mut self, access: &Access) -> Decision {
        // BYU_i ← BYU_i + y/s (Figure 2).
        let meter = self.byu.get_or_insert_with(access.object, || 0.0);
        *meter += access.yield_fraction();
        let fire = *meter >= 1.0;
        if fire {
            *meter -= 1.0;
        }

        let was_cached = self.inner.contains(access.object);
        let mut load_evictions = None;
        if fire {
            // The object becomes the next input for A_obj.
            let d =
                self.inner
                    .on_request(access.object, access.size, access.fetch_cost, access.time);
            if let Decision::Load { evictions } = d {
                load_evictions = Some(evictions);
            }
        }

        match load_evictions {
            Some(evictions) => Decision::Load { evictions },
            None if was_cached || self.inner.contains(access.object) => Decision::Hit,
            None => Decision::Bypass,
        }
    }

    fn contains(&self, object: ObjectId) -> bool {
        self.inner.contains(object)
    }

    fn used(&self) -> Bytes {
        self.inner.used()
    }

    fn capacity(&self) -> Bytes {
        self.inner.capacity()
    }

    fn cached_objects(&self) -> Vec<ObjectId> {
        self.inner.cached_objects()
    }

    fn invalidate(&mut self, object: ObjectId) -> bool {
        // The rent already paid toward this object is void too.
        self.byu.remove(object);
        self.inner.invalidate(object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bypass_object::Landlord;
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

    fn fresh(cap: u64) -> OnlineBY<Landlord> {
        OnlineBY::new(Landlord::new(Bytes::new(cap)))
    }

    #[test]
    fn rent_accumulates_until_purchase() {
        let mut p = fresh(1000);
        // Yield 25 on size 100: fires on the 4th access.
        assert!(p.on_access(&acc(0, 0, 25, 100)).is_bypass());
        assert!(p.on_access(&acc(0, 1, 25, 100)).is_bypass());
        assert!(p.on_access(&acc(0, 2, 25, 100)).is_bypass());
        let d = p.on_access(&acc(0, 3, 25, 100));
        assert!(d.is_load(), "{d:?}");
        // Counter was decremented by 1 on firing.
        assert!(p.byu_counter(ObjectId::new(0)).abs() < 1e-9);
        assert!(p.on_access(&acc(0, 4, 25, 100)).is_hit());
    }

    #[test]
    fn full_object_yield_fires_immediately() {
        let mut p = fresh(1000);
        let d = p.on_access(&acc(0, 0, 100, 100));
        assert!(d.is_load(), "{d:?}");
    }

    #[test]
    fn cached_object_hits_without_firing() {
        let mut p = fresh(1000);
        p.on_access(&acc(0, 0, 100, 100));
        // Small yields: no fire, but object is cached → Hit.
        for t in 1..10 {
            assert!(p.on_access(&acc(0, t, 1, 100)).is_hit());
        }
    }

    #[test]
    fn meter_carries_fraction_over() {
        let mut p = fresh(1000);
        p.on_access(&acc(0, 0, 150, 100)); // 1.5 → fires, 0.5 remains
        assert!((p.byu_counter(ObjectId::new(0)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn competitive_on_single_object_sequence() {
        // Ski-rental guarantee: total cost ≤ 2 × OPT on one object.
        // n queries of yield y on object of size s = fetch f.
        let (s, y, n) = (100u64, 20u64, 50u64);
        let mut p = fresh(1000);
        let mut cost = 0u64;
        for t in 0..n {
            match p.on_access(&acc(0, t, y, s)) {
                Decision::Bypass => cost += y,
                Decision::Load { .. } => cost += s,
                Decision::Hit => {}
            }
        }
        // OPT: min(total bypass, fetch once) = min(n·y, s) = 100.
        let opt = (n * y).min(s);
        assert!(cost <= 2 * opt, "cost {cost} > 2×OPT {opt}");
    }

    #[test]
    fn oversized_objects_always_bypass() {
        let mut p = fresh(50);
        for t in 0..20 {
            assert!(p.on_access(&acc(0, t, 100, 100)).is_bypass());
        }
    }

    #[test]
    fn distinct_objects_have_independent_meters() {
        let mut p = fresh(1000);
        p.on_access(&acc(0, 0, 60, 100));
        p.on_access(&acc(1, 1, 10, 100));
        assert!((p.byu_counter(ObjectId::new(0)) - 0.6).abs() < 1e-9);
        assert!((p.byu_counter(ObjectId::new(1)) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn policy_introspection() {
        let mut p = fresh(1000);
        p.on_access(&acc(0, 0, 100, 100));
        assert!(p.contains(ObjectId::new(0)));
        assert_eq!(p.used(), Bytes::new(100));
        assert_eq!(p.capacity(), Bytes::new(1000));
        assert_eq!(p.cached_objects(), vec![ObjectId::new(0)]);
        assert_eq!(p.name(), "OnlineBY");
    }
}
