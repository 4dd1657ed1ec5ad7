//! Cache state shared by all policies: capacity accounting, the utility
//! heap, and victim planning.
//!
//! Mirrors the paper's prototype (§6): "The cache is a binary heap of
//! database objects in which heap ordering is done based on utility value
//! ... By maintaining an additional hash table on cached objects, the
//! cache resolves hits and misses in O(1) time." Since our object ids are
//! dense `u32` indexes, the "hash table" here is a [`DenseMap`]: same O(1)
//! membership, no hashing, deterministic iteration.

use crate::dense::DenseMap;
use crate::heap::IndexedMinHeap;
use byc_types::{Bytes, ObjectId, Tick};

/// Book-keeping for one cached object.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CachedEntry {
    /// Cache space the object occupies.
    pub size: Bytes,
    /// When the object was loaded (start of its cache lifetime).
    pub loaded_at: Tick,
    /// Total yield served from the cache over this lifetime (the numerator
    /// of the rate profile, Eq. 3).
    pub accum_yield: Bytes,
    /// Number of queries served from cache over this lifetime.
    pub hits: u64,
}

/// A reusable eviction plan: the victims speculatively popped from the
/// utility heap by [`CacheState::plan_eviction_into`], waiting to be
/// committed ([`CacheState::commit_plan`]).
///
/// The buffer is owned by the policy and reused across accesses, so a
/// steady-state decision makes no allocations.
#[derive(Clone, Debug, Default)]
pub struct EvictionPlan {
    /// Planned victims in eviction order: ascending `(utility, id)`.
    victims: Vec<(ObjectId, f64)>,
}

impl EvictionPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// The planned victims with their utilities, in eviction order
    /// (ascending utility, ties by ascending id).
    pub fn victims(&self) -> &[(ObjectId, f64)] {
        &self.victims
    }

    /// Iterate the victim object ids in eviction order.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.victims.iter().map(|&(o, _)| o)
    }

    /// Number of planned victims.
    pub fn len(&self) -> usize {
        self.victims.len()
    }

    /// True iff the plan evicts nothing.
    pub fn is_empty(&self) -> bool {
        self.victims.is_empty()
    }

    fn clear(&mut self) {
        self.victims.clear();
    }
}

/// Fixed-capacity cache state: a dense id-indexed table for O(1)
/// membership (no hashing) plus a utility min-heap for victim selection.
#[derive(Clone, Debug)]
pub struct CacheState {
    capacity: Bytes,
    used: Bytes,
    entries: DenseMap<CachedEntry>,
    heap: IndexedMinHeap,
}

impl CacheState {
    /// An empty cache with the given capacity.
    pub fn new(capacity: Bytes) -> Self {
        Self {
            capacity,
            used: Bytes::ZERO,
            entries: DenseMap::new(),
            heap: IndexedMinHeap::new(),
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> Bytes {
        self.capacity
    }

    /// Bytes currently occupied.
    pub fn used(&self) -> Bytes {
        self.used
    }

    /// Bytes currently free.
    pub fn free(&self) -> Bytes {
        self.capacity.saturating_sub(self.used)
    }

    /// Number of cached objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True iff `object` is cached.
    pub fn contains(&self, object: ObjectId) -> bool {
        self.entries.contains(object)
    }

    /// Entry for `object`, if cached.
    pub fn entry(&self, object: ObjectId) -> Option<&CachedEntry> {
        self.entries.get(object)
    }

    /// Record a query served from cache: accumulate its yield.
    ///
    /// Hitting a non-cached object is a policy bug; debug builds assert,
    /// release builds ignore the call. Where auditing is on (by default
    /// in debug replays and mediators), the [`DecisionAuditor`] fed from
    /// the replay's events flags the `Hit` such a policy reports.
    ///
    /// [`DecisionAuditor`]: crate::audit::DecisionAuditor
    pub fn record_hit(&mut self, object: ObjectId, yield_bytes: Bytes) {
        let Some(e) = self.entries.get_mut(object) else {
            debug_assert!(false, "record_hit on non-cached object {object}");
            return;
        };
        e.accum_yield += yield_bytes;
        e.hits += 1;
    }

    /// Insert `object`; it must fit in the free space.
    ///
    /// # Panics
    ///
    /// Panics if the object is already cached or does not fit — callers
    /// must plan evictions first.
    pub fn insert(&mut self, object: ObjectId, size: Bytes, utility: f64, now: Tick) {
        assert!(!self.contains(object), "insert of already-cached {object}");
        assert!(
            size <= self.free(),
            "insert of {object} ({size}) into {} free",
            self.free()
        );
        self.entries.insert(
            object,
            CachedEntry {
                size,
                loaded_at: now,
                accum_yield: Bytes::ZERO,
                hits: 0,
            },
        );
        self.used += size;
        self.heap.push(object, utility);
    }

    /// Remove `object`, returning its entry if it was cached.
    pub fn remove(&mut self, object: ObjectId) -> Option<CachedEntry> {
        let entry = self.entries.remove(object)?;
        self.used -= entry.size;
        self.heap.remove(object);
        Some(entry)
    }

    /// Update the utility key of a cached object.
    ///
    /// # Panics
    ///
    /// Panics if the object is not cached.
    pub fn set_utility(&mut self, object: ObjectId, utility: f64) {
        assert!(self.contains(object), "set_utility on non-cached {object}");
        self.heap.update_key(object, utility);
    }

    /// Current utility key of a cached object.
    pub fn utility(&self, object: ObjectId) -> Option<f64> {
        self.heap.key_of(object)
    }

    /// Iterate cached objects and entries in ascending id order (the
    /// [`DenseMap`] guarantee — deterministic across runs).
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &CachedEntry)> + '_ {
        self.entries.iter()
    }

    /// Plan evictions to make room for an incoming object of `size` into
    /// the reusable `plan` buffer: the lowest-utility victims (ascending
    /// by utility, ties by ascending id) whose removal frees enough
    /// space. Returns `false` (with `plan` cleared) if the object can
    /// never fit (`size > capacity`); an empty plan means it already
    /// fits.
    ///
    /// Victims are popped **directly off the utility heap** — O(m log k)
    /// for m victims among k cached objects, with no per-call candidate
    /// copy. Because the heap's `(utility, id)` order is total, the pop
    /// sequence is exactly the prefix a full sort of the candidates would
    /// produce. The popped entries are *speculative*: the cache index
    /// still holds them, and the caller must finish with
    /// [`Self::commit_plan`] before the next query.
    pub fn plan_eviction_into(&mut self, size: Bytes, plan: &mut EvictionPlan) -> bool {
        plan.clear();
        if size > self.capacity {
            return false;
        }
        let mut freed = self.free();
        while freed < size {
            let Some((object, utility)) = self.heap.pop_min() else {
                break;
            };
            freed += self.entries.get(object).map_or(Bytes::ZERO, |e| e.size);
            plan.victims.push((object, utility));
        }
        debug_assert!(freed >= size);
        true
    }

    /// Apply a plan: evict its victims and insert `object`, loaded at
    /// `now`, in their place.
    ///
    /// # Panics
    ///
    /// Panics if the incoming object is already cached or still does not
    /// fit (a planning bug).
    pub fn commit_plan(
        &mut self,
        plan: &EvictionPlan,
        object: ObjectId,
        size: Bytes,
        utility: f64,
        now: Tick,
    ) {
        for &(victim, _) in plan.victims() {
            // The heap entry was already popped during planning; only the
            // index and the space accounting remain.
            if let Some(entry) = self.entries.remove(victim) {
                self.used -= entry.size;
            }
        }
        assert!(!self.contains(object), "insert of already-cached {object}");
        assert!(
            size <= self.free(),
            "insert of {object} ({size}) into {} free",
            self.free()
        );
        self.entries.insert(
            object,
            CachedEntry {
                size,
                loaded_at: now,
                accum_yield: Bytes::ZERO,
                hits: 0,
            },
        );
        self.used += size;
        self.heap.push(object, utility);
    }

    /// Verify the structural invariants of the cache state:
    ///
    /// 1. `used` equals the sum of the cached entries' sizes;
    /// 2. `used` never exceeds `capacity`;
    /// 3. the utility heap indexes exactly the cached objects, and its
    ///    internal heap/index structure is consistent.
    ///
    /// Only tests call it. Replays check policies from the outside, by
    /// auditing their decision streams
    /// ([`DecisionAuditor`](crate::audit::DecisionAuditor)), and never
    /// see a policy's `CacheState`.
    ///
    /// # Errors
    ///
    /// A message describing every violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut problems: Vec<String> = Vec::new();
        let sum: Bytes = self.entries.values().map(|e| e.size).sum();
        if sum != self.used {
            problems.push(format!("used {} != sum of entry sizes {sum}", self.used));
        }
        if self.used > self.capacity {
            problems.push(format!(
                "used {} exceeds capacity {}",
                self.used, self.capacity
            ));
        }
        if self.heap.len() != self.entries.len() {
            problems.push(format!(
                "heap tracks {} objects, index tracks {}",
                self.heap.len(),
                self.entries.len()
            ));
        }
        for (object, _) in self.entries.iter() {
            if !self.heap.contains(object) {
                problems.push(format!("cached {object} missing from the heap"));
            }
        }
        if !self.heap.validate() {
            problems.push("utility heap structure is corrupt".to_string());
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    fn cache(cap: u64) -> CacheState {
        CacheState::new(Bytes::new(cap))
    }

    /// Plan room for `size`: the speculative plan, or `None` if the
    /// object can never fit. Commit it before planning again.
    fn plan(c: &mut CacheState, size: Bytes) -> Option<EvictionPlan> {
        let mut plan = EvictionPlan::new();
        c.plan_eviction_into(size, &mut plan).then_some(plan)
    }

    #[test]
    fn insert_accounts_space() {
        let mut c = cache(100);
        c.insert(oid(0), Bytes::new(60), 1.0, Tick::ZERO);
        assert_eq!(c.used(), Bytes::new(60));
        assert_eq!(c.free(), Bytes::new(40));
        assert!(c.contains(oid(0)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    #[should_panic(expected = "into 40 B free")]
    fn oversized_insert_panics() {
        let mut c = cache(100);
        c.insert(oid(0), Bytes::new(60), 1.0, Tick::ZERO);
        c.insert(oid(1), Bytes::new(60), 1.0, Tick::ZERO);
    }

    #[test]
    fn remove_frees_space() {
        let mut c = cache(100);
        c.insert(oid(0), Bytes::new(60), 1.0, Tick::ZERO);
        let e = c.remove(oid(0)).unwrap();
        assert_eq!(e.size, Bytes::new(60));
        assert_eq!(c.used(), Bytes::ZERO);
        assert!(c.remove(oid(0)).is_none());
    }

    #[test]
    fn record_hit_accumulates() {
        let mut c = cache(100);
        c.insert(oid(0), Bytes::new(10), 1.0, Tick::new(5));
        c.record_hit(oid(0), Bytes::new(3));
        c.record_hit(oid(0), Bytes::new(4));
        let e = c.entry(oid(0)).unwrap();
        assert_eq!(e.accum_yield, Bytes::new(7));
        assert_eq!(e.hits, 2);
        assert_eq!(e.loaded_at, Tick::new(5));
    }

    #[test]
    fn invariants_hold_through_normal_operation() {
        let mut c = cache(100);
        assert!(c.check_invariants().is_ok());
        c.insert(oid(0), Bytes::new(60), 1.0, Tick::ZERO);
        c.insert(oid(1), Bytes::new(30), 2.0, Tick::ZERO);
        assert!(c.check_invariants().is_ok());
        c.record_hit(oid(0), Bytes::new(5));
        c.set_utility(oid(0), 9.0);
        c.remove(oid(1));
        assert!(c.check_invariants().is_ok());
    }

    #[test]
    fn corrupted_used_counter_is_caught() {
        let mut c = cache(100);
        c.insert(oid(0), Bytes::new(60), 1.0, Tick::ZERO);
        c.used = Bytes::new(10); // break accounting behind the API's back
        let err = c.check_invariants().unwrap_err();
        assert!(err.contains("sum of entry sizes"), "{err}");
    }

    #[test]
    fn over_capacity_state_is_caught() {
        let mut c = cache(100);
        c.insert(oid(0), Bytes::new(60), 1.0, Tick::ZERO);
        c.capacity = Bytes::new(50); // capacity shrank under live entries
        let err = c.check_invariants().unwrap_err();
        assert!(err.contains("exceeds capacity"), "{err}");
    }

    #[test]
    fn heap_desync_is_caught() {
        let mut c = cache(100);
        c.insert(oid(0), Bytes::new(60), 1.0, Tick::ZERO);
        c.insert(oid(1), Bytes::new(30), 2.0, Tick::ZERO);
        c.heap.remove(oid(1)); // heap forgets an entry the index keeps
        let err = c.check_invariants().unwrap_err();
        assert!(err.contains("heap"), "{err}");
    }

    #[test]
    fn plan_eviction_none_when_too_big() {
        let mut c = cache(100);
        assert!(plan(&mut c, Bytes::new(101)).is_none());
        assert!(plan(&mut c, Bytes::new(100)).unwrap().is_empty());
    }

    #[test]
    fn plan_eviction_picks_lowest_utilities() {
        let mut c = cache(100);
        c.insert(oid(0), Bytes::new(40), 3.0, Tick::ZERO);
        c.insert(oid(1), Bytes::new(40), 1.0, Tick::ZERO);
        c.insert(oid(2), Bytes::new(20), 2.0, Tick::ZERO);
        // Need 50: free 0; evict utility-1 (40) then utility-2 (20).
        let plan = plan(&mut c, Bytes::new(50)).unwrap();
        assert_eq!(plan.objects().collect::<Vec<_>>(), vec![oid(1), oid(2)]);
    }

    /// Reference implementation of victim selection: the full `sort_by`
    /// that victim planning used before it popped victims off the heap.
    fn plan_by_full_sort(c: &CacheState, size: Bytes) -> Option<Vec<(ObjectId, f64)>> {
        if size > c.capacity() {
            return None;
        }
        if size <= c.free() {
            return Some(Vec::new());
        }
        let mut by_utility: Vec<(ObjectId, f64)> = c
            .iter()
            .filter_map(|(o, _)| Some((o, c.utility(o)?)))
            .collect();
        by_utility.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        let mut freed = c.free();
        let mut victims = Vec::new();
        for (object, utility) in by_utility {
            if freed >= size {
                break;
            }
            freed += c.entry(object).unwrap().size;
            victims.push((object, utility));
        }
        Some(victims)
    }

    #[test]
    fn plan_eviction_pins_tie_break_order() {
        // Equal utilities: victims must come out in ascending id order,
        // exactly as the old full sort's `(utility, id)` comparator chose.
        let mut c = cache(100);
        c.insert(oid(7), Bytes::new(25), 1.0, Tick::ZERO);
        c.insert(oid(2), Bytes::new(25), 1.0, Tick::ZERO);
        c.insert(oid(5), Bytes::new(25), 1.0, Tick::ZERO);
        c.insert(oid(9), Bytes::new(25), 2.0, Tick::ZERO);
        let plan = plan(&mut c, Bytes::new(60)).unwrap();
        assert_eq!(
            plan.victims(),
            &[(oid(2), 1.0), (oid(5), 1.0), (oid(7), 1.0)],
            "tie-break must be ascending id at equal utility"
        );
    }

    #[test]
    fn plan_eviction_matches_full_sort_under_churn() {
        let mut c = cache(500);
        let mut rng = byc_types::SplitMix64::new(11);
        let mut checked = 0u32;
        for step in 0..3_000u32 {
            let o = oid(rng.next_bounded(40) as u32);
            if c.contains(o) {
                if rng.chance(0.25) {
                    c.remove(o);
                } else {
                    // Quantized utilities make ties frequent.
                    c.set_utility(o, (rng.next_bounded(4) as f64) / 2.0);
                }
            } else {
                let size = Bytes::new(rng.next_range(1, 150));
                let expected = plan_by_full_sort(&c, size);
                let plan = plan(&mut c, size);
                assert_eq!(
                    plan.as_ref().map(|p| p.victims().to_vec()),
                    expected,
                    "divergence at step {step}"
                );
                if let Some(plan) = plan {
                    checked += 1;
                    c.commit_plan(
                        &plan,
                        o,
                        size,
                        (rng.next_bounded(4) as f64) / 2.0,
                        Tick::new(step as u64),
                    );
                }
            }
        }
        assert!(checked > 500, "churn exercised too few plans: {checked}");
    }

    #[test]
    fn plan_into_then_commit_applies_plan() {
        let mut c = cache(100);
        c.insert(oid(0), Bytes::new(40), 3.0, Tick::ZERO);
        c.insert(oid(1), Bytes::new(40), 1.0, Tick::ZERO);
        let mut plan = EvictionPlan::new();
        assert!(c.plan_eviction_into(Bytes::new(50), &mut plan));
        assert_eq!(plan.victims(), &[(oid(1), 1.0)]);
        c.commit_plan(&plan, oid(9), Bytes::new(50), 7.0, Tick::new(4));
        assert!(c.contains(oid(9)));
        assert!(!c.contains(oid(1)));
        assert!(c.contains(oid(0)));
        assert_eq!(c.used(), Bytes::new(90));
        assert!(c.check_invariants().is_ok());
    }

    #[test]
    fn plan_into_rejects_oversized_and_clears() {
        let mut c = cache(100);
        c.insert(oid(0), Bytes::new(40), 3.0, Tick::ZERO);
        let mut plan = EvictionPlan::new();
        assert!(c.plan_eviction_into(Bytes::new(80), &mut plan));
        assert_eq!(plan.len(), 1);
        c.commit_plan(&plan, oid(1), Bytes::new(80), 1.0, Tick::new(1));
        assert!(!c.plan_eviction_into(Bytes::new(101), &mut plan));
        assert!(plan.is_empty());
        assert!(c.check_invariants().is_ok());
    }

    #[test]
    fn iter_visits_all() {
        let mut c = cache(100);
        c.insert(oid(0), Bytes::new(10), 1.0, Tick::ZERO);
        c.insert(oid(1), Bytes::new(10), 2.0, Tick::ZERO);
        assert_eq!(c.iter().count(), 2);
    }

    #[test]
    fn capacity_invariant_under_churn() {
        let mut c = cache(1000);
        let mut rng = byc_types::SplitMix64::new(5);
        for step in 0..2_000u32 {
            let o = oid(rng.next_bounded(50) as u32);
            if c.contains(o) {
                if rng.chance(0.3) {
                    c.remove(o);
                } else {
                    c.record_hit(o, Bytes::new(rng.next_bounded(100)));
                    c.set_utility(o, rng.next_f64());
                }
            } else {
                let size = Bytes::new(rng.next_range(1, 200));
                if let Some(plan) = plan(&mut c, size) {
                    c.commit_plan(&plan, o, size, rng.next_f64(), Tick::new(step as u64));
                }
            }
            assert!(c.used() <= c.capacity(), "overflow at step {step}");
            let sum: Bytes = c.iter().map(|(_, e)| e.size).sum();
            assert_eq!(sum, c.used(), "accounting drift at step {step}");
        }
    }
}
