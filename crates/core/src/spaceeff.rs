//! SpaceEffBY: the randomized, minimum-space online algorithm (paper §5.3).
//!
//! SpaceEffBY replaces OnlineBY's per-object BYU meters with a coin flip:
//! on each query, with probability `y_{i,j} / s_i` the referenced object is
//! presented to the bypass-object subroutine. In expectation an object is
//! presented exactly as often as OnlineBY presents it, but the extra state
//! is O(1) — only the RNG — at the price of losing the deterministic
//! guarantee ("it has, however, no accompanying performance guarantees").

use crate::access::Access;
use crate::bypass_object::BypassObjectAlgorithm;
use crate::policy::{CachePolicy, Decision};
use byc_types::{Bytes, ObjectId, SplitMix64};

/// The SpaceEffBY policy, generic over the bypass-object subroutine.
#[derive(Clone, Debug)]
pub struct SpaceEffBY<A> {
    inner: A,
    rng: SplitMix64,
}

impl<A: BypassObjectAlgorithm> SpaceEffBY<A> {
    /// Wrap a bypass-object algorithm; `seed` fixes the coin flips.
    pub fn new(inner: A, seed: u64) -> Self {
        Self {
            inner,
            rng: SplitMix64::new(seed),
        }
    }

    /// The wrapped bypass-object algorithm.
    pub fn inner(&self) -> &A {
        &self.inner
    }
}

impl<A: BypassObjectAlgorithm> CachePolicy for SpaceEffBY<A> {
    fn name(&self) -> &'static str {
        "SpaceEffBY"
    }

    fn on_access(&mut self, access: &Access) -> Decision {
        // "With probability y_{i,j}/s_i, o_i is generated as the next
        // input for A_obj" (Figure 3). Fractions ≥ 1 always fire.
        let fire = self.rng.chance(access.yield_fraction());
        let was_cached = self.inner.contains(access.object);
        let mut load_evictions = None;
        if fire {
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

    fn fresh(cap: u64, seed: u64) -> SpaceEffBY<Landlord> {
        SpaceEffBY::new(Landlord::new(Bytes::new(cap)), seed)
    }

    #[test]
    fn full_yield_always_fires() {
        // yield == size → probability 1 → deterministic load.
        let mut p = fresh(1000, 1);
        assert!(p.on_access(&acc(0, 0, 100, 100)).is_load());
        assert!(p.on_access(&acc(0, 1, 100, 100)).is_hit());
    }

    #[test]
    fn zero_yield_never_fires() {
        let mut p = fresh(1000, 2);
        for t in 0..100 {
            assert!(p.on_access(&acc(0, t, 0, 100)).is_bypass());
        }
    }

    #[test]
    fn firing_rate_tracks_yield_fraction() {
        // yield/size = 0.25: over many independent objects, ~25% of first
        // accesses should load.
        let mut p = fresh(u64::MAX, 3);
        let trials = 4_000u32;
        let mut loads = 0;
        for i in 0..trials {
            if p.on_access(&acc(i, i as u64, 25, 100)).is_load() {
                loads += 1;
            }
        }
        let rate = loads as f64 / trials as f64;
        assert!((rate - 0.25).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn deterministic_for_seed() {
        let run = |seed| {
            let mut p = fresh(500, seed);
            (0..500u64)
                .map(|t| {
                    let o = (t % 7) as u32;
                    match p.on_access(&acc(o, t, 40, 100)) {
                        Decision::Hit => 'h',
                        Decision::Bypass => 'b',
                        Decision::Load { .. } => 'l',
                    }
                })
                .collect::<String>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn respects_capacity() {
        let mut p = fresh(300, 4);
        for t in 0..2_000u64 {
            let o = (t % 11) as u32;
            p.on_access(&acc(o, t, 80, 100));
            assert!(p.used() <= p.capacity());
        }
    }

    #[test]
    fn name_and_introspection() {
        let p = fresh(100, 5);
        assert_eq!(p.name(), "SpaceEffBY");
        assert_eq!(p.capacity(), Bytes::new(100));
        assert!(p.cached_objects().is_empty());
    }
}
