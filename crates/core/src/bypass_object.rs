//! Bypass-object caching algorithms — the `A_obj` subroutine of OnlineBY.
//!
//! In bypass-object caching (paper §5.1) every request names a whole
//! object; serving it costs `f_i` whether the request is bypassed or the
//! object is fetched, so the algorithm's only lever is *which* objects to
//! keep. Theorem 5.1 turns any α-competitive algorithm for this problem
//! into a (4α+2)-competitive bypass-yield algorithm.
//!
//! Two implementations are provided:
//!
//! * [`Landlord`] — Young's Landlord algorithm (SODA '98), the classic
//!   k-competitive algorithm for variable-size, variable-cost file
//!   caching. Implemented with the standard inflation trick: credits are
//!   stored as `L + f/s` and aging is a global offset, so each operation
//!   is O(log n).
//! * [`SizeClassMarking`] — a marking algorithm in the spirit of Irani's
//!   O(lg² k) multi-size paging (STOC '97): objects are partitioned into
//!   power-of-two size classes; hits mark; faults evict unmarked victims
//!   (same class first, least-recently-used first) and a fault that finds
//!   only marked objects ends the phase. This is a documented
//!   approximation of Irani's algorithm — see DESIGN.md — retaining the
//!   phase/marking structure her bound rests on.

use crate::cache::{CacheState, EvictionPlan};
use crate::dense::DenseMap;
use crate::heap::{before, IndexedMinHeap};
use crate::policy::{Decision, Evictions};
use byc_types::{Bytes, ObjectId, Tick};

/// An algorithm for the bypass-object caching problem.
pub trait BypassObjectAlgorithm {
    /// Stable display name.
    fn name(&self) -> &'static str;

    /// Process one whole-object request.
    fn on_request(
        &mut self,
        object: ObjectId,
        size: Bytes,
        fetch_cost: Bytes,
        now: Tick,
    ) -> Decision;

    /// True iff `object` is cached.
    fn contains(&self, object: ObjectId) -> bool;

    /// Bytes currently occupied.
    fn used(&self) -> Bytes;

    /// Configured capacity.
    fn capacity(&self) -> Bytes;

    /// Currently cached objects.
    fn cached_objects(&self) -> Vec<ObjectId>;

    /// Drop `object` after a server-side change. Returns true iff cached.
    fn invalidate(&mut self, object: ObjectId) -> bool;
}

/// Young's Landlord algorithm.
///
/// ```
/// use byc_core::bypass_object::{BypassObjectAlgorithm, Landlord};
/// use byc_types::{Bytes, ObjectId, Tick};
///
/// let mut landlord = Landlord::new(Bytes::kib(1));
/// let first = landlord.on_request(
///     ObjectId::new(0), Bytes::new(600), Bytes::new(600), Tick::ZERO);
/// assert!(first.is_load());
/// let again = landlord.on_request(
///     ObjectId::new(0), Bytes::new(600), Bytes::new(600), Tick::new(1));
/// assert!(again.is_hit());
/// ```
///
/// Every cached object holds *credit*; a fault charges rent
/// `delta = min_e credit(e)/size(e)` from every cached object and evicts
/// the bankrupt ones until the incoming object fits; loading grants the
/// newcomer credit equal to its fetch cost, and a hit refreshes credit to
/// full. Stored as `L + credit/size` with a global inflation level `L`,
/// which makes the rent charge O(1).
#[derive(Clone, Debug)]
pub struct Landlord {
    cache: CacheState,
    /// Global inflation level: an entry's true normalized credit is
    /// `key - inflation`.
    inflation: f64,
    /// Reusable eviction-plan scratch; empty between requests.
    plan: EvictionPlan,
}

impl Landlord {
    /// An empty Landlord cache.
    pub fn new(capacity: Bytes) -> Self {
        Self {
            cache: CacheState::new(capacity),
            inflation: 0.0,
            plan: EvictionPlan::new(),
        }
    }
}

impl BypassObjectAlgorithm for Landlord {
    fn name(&self) -> &'static str {
        "Landlord"
    }

    fn on_request(
        &mut self,
        object: ObjectId,
        size: Bytes,
        fetch_cost: Bytes,
        now: Tick,
    ) -> Decision {
        if self.cache.contains(object) {
            // Refresh credit to full.
            let unit = size.as_f64().max(1.0);
            self.cache
                .set_utility(object, self.inflation + fetch_cost.as_f64() / unit);
            self.cache.record_hit(object, Bytes::ZERO);
            return Decision::Hit;
        }
        // Credits are refreshed on every hit and load, so the heap is
        // always exact: plain (non-lazy) planning suffices.
        let mut plan = std::mem::take(&mut self.plan);
        if !self.cache.plan_eviction_into(size, &mut plan) {
            self.plan = plan;
            return Decision::Bypass; // can never fit
        }
        // Rent: raising the inflation level to the largest evicted key is
        // exactly charging delta until those entries are bankrupt.
        if let Some(&(_, max_key)) = plan.victims().last() {
            self.inflation = self.inflation.max(max_key);
        }
        let s = size.as_f64().max(1.0);
        let key = self.inflation + fetch_cost.as_f64() / s;
        let mut evictions = Evictions::new();
        for &(v, _) in plan.victims() {
            evictions.push(v);
        }
        self.cache.commit_plan(&plan, object, size, key, now);
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

/// Victim-selection penalty for an unmarked object outside the incoming
/// size class.
const CLASS_PENALTY: f64 = 1e9;

/// One size class past the largest [`size_class`] value (64 for u64
/// sizes): the per-class heap table is indexed by class directly.
const NUM_CLASSES: usize = 65;

/// Marking with power-of-two size classes (approximation of Irani's
/// multi-size paging; see module docs).
///
/// Victim selection is incremental: each size class keeps a min-heap of
/// its *unmarked* cached objects keyed by last-use tick, and a fault takes
/// the minimum over the ≤ `NUM_CLASSES` class heads under the effective
/// key `last_use + class_penalty` — the same total order the old
/// full-cache rekey sweep produced, at O(log n + classes) per fault
/// instead of O(cache). Marking a hit removes the object from its class
/// heap; a phase end rebuilds the heaps in one O(cache) pass that is
/// amortized over the marks of the finished phase.
#[derive(Clone, Debug)]
pub struct SizeClassMarking {
    cache: CacheState,
    /// Per-object (marked, last-use tick, size class).
    meta: DenseMap<MarkMeta>,
    /// class → min-heap of the UNMARKED cached objects in that class,
    /// keyed by last-use tick. Marked objects are absent.
    class_heaps: Vec<IndexedMinHeap>,
    /// Bytes held by unmarked cached objects (incremental counter).
    unmarked_bytes: Bytes,
    /// Monotone counter for LRU ordering.
    clock: u64,
    /// Phases completed (exposed for tests/diagnostics).
    phases: u64,
}

#[derive(Clone, Copy, Debug)]
struct MarkMeta {
    marked: bool,
    last_use: u64,
    class: usize,
}

/// The power-of-two size class of an object. Always below
/// [`NUM_CLASSES`]: 64-bit sizes have at most 64 significant bits.
fn size_class(size: Bytes) -> usize {
    let class = u64::BITS - size.raw().max(1).leading_zeros();
    usize::try_from(class).unwrap_or(NUM_CLASSES - 1)
}

impl SizeClassMarking {
    /// An empty marking cache.
    pub fn new(capacity: Bytes) -> Self {
        Self {
            cache: CacheState::new(capacity),
            meta: DenseMap::new(),
            class_heaps: vec![IndexedMinHeap::new(); NUM_CLASSES],
            unmarked_bytes: Bytes::ZERO,
            clock: 0,
            phases: 0,
        }
    }

    /// Number of completed phases.
    pub fn phases(&self) -> u64 {
        self.phases
    }

    /// The next victim under the `(marked, class, last-use)` preference
    /// order, read off the class-heap heads: every head carries its
    /// class's minimum `(last_use, id)`, and the effective key
    /// `last_use + class_penalty` reproduces the eager sweep's
    /// `penalty + last_use` bit-for-bit (IEEE addition is commutative and
    /// tick values stay exactly representable).
    fn merged_victim(&self, incoming_class: usize) -> Option<(ObjectId, f64)> {
        let mut best: Option<(ObjectId, f64)> = None;
        for c in 0..self.class_heaps.len() {
            let Some((o, lu)) = self.class_heaps[c].peek_min() else {
                continue;
            };
            let penalty = if c == incoming_class {
                0.0
            } else {
                CLASS_PENALTY
            };
            let cand = (o, lu + penalty);
            if best.is_none_or(|b| before(cand, b)) {
                best = Some(cand);
            }
        }
        best
    }

    fn unmarked_space(&self) -> Bytes {
        self.unmarked_bytes + self.cache.free()
    }

    fn new_phase(&mut self) {
        self.phases += 1;
        // Everything unmarks: rebuild the per-class unmarked heaps and
        // the unmarked-byte counter in one pass. O(cache), amortized over
        // the marks of the phase that just ended.
        for heap in &mut self.class_heaps {
            heap.clear();
        }
        let mut unmarked = Bytes::ZERO;
        for (o, e) in self.cache.iter() {
            if let Some(m) = self.meta.get_mut(o) {
                m.marked = false;
                self.class_heaps[m.class].push(o, m.last_use as f64);
                unmarked += e.size;
            }
        }
        self.unmarked_bytes = unmarked;
    }
}

impl BypassObjectAlgorithm for SizeClassMarking {
    fn name(&self) -> &'static str {
        "SizeClassMarking"
    }

    fn on_request(
        &mut self,
        object: ObjectId,
        size: Bytes,
        fetch_cost: Bytes,
        now: Tick,
    ) -> Decision {
        let _ = fetch_cost; // cost-oblivious within a class by construction
        self.clock += 1;
        if self.cache.contains(object) {
            let clock = self.clock;
            let cached_size = self.cache.entry(object).map_or(Bytes::ZERO, |e| e.size);
            if let Some(m) = self.meta.get_mut(object) {
                if !m.marked {
                    m.marked = true;
                    self.class_heaps[m.class].remove(object);
                    self.unmarked_bytes -= cached_size;
                }
                m.last_use = clock;
            }
            self.cache.record_hit(object, Bytes::ZERO);
            return Decision::Hit;
        }
        if size > self.cache.capacity() {
            return Decision::Bypass;
        }
        // A fault that cannot be served from unmarked space ends the phase
        // (after which unmarked space is the whole capacity ≥ size).
        if self.unmarked_space() < size {
            self.new_phase();
        }
        let class = size_class(size);
        let mut evictions = Evictions::new();
        while self.cache.free() < size {
            let Some((victim, _)) = self.merged_victim(class) else {
                // Unreachable: the phase-end rule guarantees unmarked
                // space covers the shortfall. Stop conservatively if it
                // ever fires.
                break;
            };
            let entry = self.cache.remove(victim);
            if let Some(m) = self.meta.remove(victim) {
                self.class_heaps[m.class].remove(victim);
                if !m.marked {
                    self.unmarked_bytes -= entry.as_ref().map_or(Bytes::ZERO, |e| e.size);
                }
            }
            evictions.push(victim);
        }
        if self.cache.free() < size {
            // Unreachable companion of the break above.
            return Decision::Bypass;
        }
        self.cache.insert(object, size, 0.0, now);
        self.meta.insert(
            object,
            MarkMeta {
                marked: true,
                last_use: self.clock,
                class,
            },
        );
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
        let meta = self.meta.remove(object);
        let entry = self.cache.remove(object);
        if let Some(m) = meta {
            self.class_heaps[m.class].remove(object);
            if !m.marked {
                self.unmarked_bytes -= entry.as_ref().map_or(Bytes::ZERO, |e| e.size);
            }
        }
        entry.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    fn req<A: BypassObjectAlgorithm>(a: &mut A, i: u32, size: u64, t: u64) -> Decision {
        a.on_request(oid(i), Bytes::new(size), Bytes::new(size), Tick::new(t))
    }

    #[test]
    fn landlord_loads_on_first_request() {
        let mut l = Landlord::new(Bytes::new(100));
        assert!(req(&mut l, 0, 60, 0).is_load());
        assert!(l.contains(oid(0)));
        assert!(req(&mut l, 0, 60, 1).is_hit());
    }

    #[test]
    fn landlord_evicts_stale_not_fresh() {
        let mut l = Landlord::new(Bytes::new(100));
        req(&mut l, 0, 50, 0);
        req(&mut l, 1, 50, 1);
        // Refresh 1's credit; 0 decays relatively.
        req(&mut l, 1, 50, 2);
        let d = req(&mut l, 2, 60, 3);
        match d {
            Decision::Load { evictions } => {
                assert!(evictions.contains(&oid(0)), "{evictions:?}");
            }
            other => panic!("expected load, got {other:?}"),
        }
    }

    #[test]
    fn landlord_bypasses_oversized() {
        let mut l = Landlord::new(Bytes::new(100));
        assert_eq!(req(&mut l, 0, 200, 0), Decision::Bypass);
    }

    #[test]
    fn landlord_inflation_monotone() {
        let mut l = Landlord::new(Bytes::new(100));
        let mut last = l.inflation;
        for i in 0..200u32 {
            req(&mut l, i % 7, 40, i as u64);
            assert!(l.inflation >= last);
            last = l.inflation;
            assert!(l.used() <= l.capacity());
        }
    }

    #[test]
    fn landlord_ski_rental_single_object_bound() {
        // With a single repeatedly-requested object, Landlord loads on the
        // first request and hits forever: cost f versus OPT's f.
        let mut l = Landlord::new(Bytes::new(100));
        let mut cost = 0u64;
        for t in 0..100 {
            match req(&mut l, 0, 80, t) {
                Decision::Load { .. } | Decision::Bypass => cost += 80,
                Decision::Hit => {}
            }
        }
        assert_eq!(cost, 80); // OPT also pays exactly one fetch
    }

    #[test]
    fn marking_marks_hits_and_survives_phase() {
        let mut m = SizeClassMarking::new(Bytes::new(100));
        req(&mut m, 0, 40, 0);
        req(&mut m, 1, 40, 1);
        // 0 and 1 both marked (marked on load). Fault on 2 (40): unmarked
        // space is 20 < 40 → phase ends, everything unmarks, LRU victim 0.
        let d = req(&mut m, 2, 40, 2);
        match d {
            Decision::Load { evictions } => assert_eq!(evictions.as_slice(), &[oid(0)]),
            other => panic!("expected load, got {other:?}"),
        }
        assert_eq!(m.phases(), 1);
    }

    #[test]
    fn marking_prefers_same_class_victims() {
        let mut m = SizeClassMarking::new(Bytes::new(200));
        req(&mut m, 0, 100, 0); // class of 100
        req(&mut m, 1, 30, 1); // smaller class
        req(&mut m, 2, 30, 2);
        // New phase then fault with size 100 → must evict the size-100
        // object 0 anyway (class preference), not strictly the LRU.
        m.new_phase();
        let d = req(&mut m, 3, 100, 3);
        match d {
            Decision::Load { evictions } => assert!(evictions.contains(&oid(0))),
            other => panic!("expected load, got {other:?}"),
        }
    }

    #[test]
    fn marking_bypasses_oversized() {
        let mut m = SizeClassMarking::new(Bytes::new(50));
        assert_eq!(req(&mut m, 0, 60, 0), Decision::Bypass);
    }

    #[test]
    fn marking_unmarked_accounting_matches_recount() {
        let mut rng = byc_types::SplitMix64::new(3);
        let mut m = SizeClassMarking::new(Bytes::new(400));
        for t in 0..1_500u64 {
            let i = rng.next_bounded(25) as u32;
            let size = 10 + (i as u64 * 13) % 150;
            req(&mut m, i, size, t);
            if t % 97 == 0 {
                m.invalidate(oid(rng.next_bounded(25) as u32));
            }
            // The incremental counter and class heaps must agree with a
            // from-scratch recount of the unmarked population.
            let mut recount = Bytes::ZERO;
            let mut unmarked_objects = 0usize;
            for (o, e) in m.cache.iter() {
                let meta = m.meta.get(o).expect("cached object without meta");
                if !meta.marked {
                    recount += e.size;
                    unmarked_objects += 1;
                    assert!(
                        m.class_heaps[meta.class].contains(o),
                        "unmarked {o} missing from class heap"
                    );
                }
            }
            assert_eq!(m.unmarked_bytes, recount);
            let in_heaps: usize = m.class_heaps.iter().map(|h| h.len()).sum();
            assert_eq!(in_heaps, unmarked_objects);
        }
    }

    /// Reference victim selection: recompute every *unmarked* cached
    /// object's effective key from scratch, exactly like the
    /// pre-incremental full-cache rekey sweep, and take the `(key, id)`
    /// minimum. Marked objects are skipped, not penalized, so this is
    /// the rule `merged_victim` implements over class heaps that only
    /// ever hold unmarked entries.
    fn scanned_victim(m: &SizeClassMarking, incoming_class: usize) -> Option<(ObjectId, f64)> {
        let mut best: Option<(ObjectId, f64)> = None;
        for (o, _) in m.cache.iter() {
            let Some(meta) = m.meta.get(o) else { continue };
            if meta.marked {
                continue;
            }
            let class_penalty = if meta.class == incoming_class {
                0.0
            } else {
                CLASS_PENALTY
            };
            let cand = (o, class_penalty + meta.last_use as f64);
            if best.is_none_or(|b| before(cand, b)) {
                best = Some(cand);
            }
        }
        best
    }

    #[test]
    fn marking_reference_scan_matches_class_heads() {
        let mut rng = byc_types::SplitMix64::new(5);
        let mut m = SizeClassMarking::new(Bytes::new(500));
        for t in 0..3_000u64 {
            let i = rng.next_bounded(30) as u32;
            let size = 10 + (i as u64 * 17) % 190;
            req(&mut m, i, size, t);
            for class in 0..NUM_CLASSES {
                assert_eq!(
                    m.merged_victim(class),
                    scanned_victim(&m, class),
                    "class {class} diverged at t={t}"
                );
            }
        }
        assert!(m.phases() > 0, "churn never ended a phase");
    }

    #[test]
    fn size_class_boundaries() {
        assert_eq!(size_class(Bytes::new(1)), 1);
        assert_eq!(size_class(Bytes::new(2)), 2);
        assert_eq!(size_class(Bytes::new(3)), 2);
        assert_eq!(size_class(Bytes::new(4)), 3);
        assert_eq!(size_class(Bytes::new(1024)), 11);
        // Zero-size objects land in the smallest class.
        assert_eq!(size_class(Bytes::ZERO), 1);
    }

    #[test]
    fn both_algorithms_respect_capacity_under_churn() {
        let mut rng = byc_types::SplitMix64::new(17);
        let mut l = Landlord::new(Bytes::new(500));
        let mut m = SizeClassMarking::new(Bytes::new(500));
        for t in 0..3_000u64 {
            let i = rng.next_bounded(30) as u32;
            // Size is a stable function of the object id.
            let size = 10 + (i as u64 * 17) % 190;
            req(&mut l, i, size, t);
            req(&mut m, i, size, t);
            assert!(l.used() <= l.capacity());
            assert!(m.used() <= m.capacity());
        }
    }
}
