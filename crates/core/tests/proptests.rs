//! Property-based tests for the core caching machinery.
//!
//! The indexed heap is checked against a reference model, the cache state
//! against its accounting invariants, every policy against the simulator
//! contract, and the knapsack planners against exhaustive enumeration on
//! small instances.

use byc_core::access::Access;
use byc_core::audit::PolicyAuditor;
use byc_core::bypass_object::{BypassObjectAlgorithm, Landlord, SizeClassMarking};
use byc_core::cache::{CacheState, EvictionPlan};
use byc_core::heap::IndexedMinHeap;
use byc_core::inline::make;
use byc_core::online::OnlineBY;
use byc_core::policy::{CachePolicy, Decision};
use byc_core::rate_profile::{RateProfile, RateProfileConfig};
use byc_core::spaceeff::SpaceEffBY;
use byc_core::static_opt::{plan_exact, plan_greedy, NoCache, ObjectDemand, StaticCache};
use byc_types::{Bytes, ObjectId, Tick};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Clone, Debug)]
enum HeapOp {
    Push(u8, u32),
    PopMin,
    Remove(u8),
    Update(u8, u32),
}

fn heap_op() -> impl Strategy<Value = HeapOp> {
    prop_oneof![
        (any::<u8>(), any::<u32>()).prop_map(|(id, k)| HeapOp::Push(id, k)),
        Just(HeapOp::PopMin),
        any::<u8>().prop_map(HeapOp::Remove),
        (any::<u8>(), any::<u32>()).prop_map(|(id, k)| HeapOp::Update(id, k)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The indexed heap agrees with a naive map-based model under any
    /// operation sequence, and its internal invariant always holds.
    #[test]
    fn heap_matches_model(ops in proptest::collection::vec(heap_op(), 1..200)) {
        let mut heap = IndexedMinHeap::new();
        let mut model: HashMap<u32, f64> = HashMap::new();
        for op in ops {
            match op {
                HeapOp::Push(id, k) => {
                    let id = id as u32;
                    let k = k as f64;
                    if let std::collections::hash_map::Entry::Vacant(e) = model.entry(id) {
                        heap.push(ObjectId::new(id), k);
                        e.insert(k);
                    }
                }
                HeapOp::PopMin => {
                    let popped = heap.pop_min();
                    match popped {
                        None => prop_assert!(model.is_empty()),
                        Some((o, k)) => {
                            // Key must be the model minimum (ties allowed).
                            let min = model.values().cloned().fold(f64::INFINITY, f64::min);
                            prop_assert_eq!(k, min);
                            prop_assert_eq!(model.remove(&o.raw()), Some(k));
                        }
                    }
                }
                HeapOp::Remove(id) => {
                    let id = id as u32;
                    let got = heap.remove(ObjectId::new(id));
                    prop_assert_eq!(got, model.remove(&id));
                }
                HeapOp::Update(id, k) => {
                    let id = id as u32;
                    let k = k as f64;
                    heap.update_key(ObjectId::new(id), k);
                    model.insert(id, k);
                }
            }
            prop_assert!(heap.validate());
            prop_assert_eq!(heap.len(), model.len());
        }
    }

    /// Cache accounting never drifts: used == Σ entry sizes ≤ capacity,
    /// and victim plans always free enough space.
    #[test]
    fn cache_state_accounting(
        capacity in 100u64..10_000,
        ops in proptest::collection::vec((any::<u8>(), 1u64..500, any::<u32>()), 1..300),
    ) {
        let mut cache = CacheState::new(Bytes::new(capacity));
        let mut plan = EvictionPlan::new();
        for (t, (id, size, key)) in ops.into_iter().enumerate() {
            let o = ObjectId::new(id as u32);
            if cache.contains(o) {
                cache.record_hit(o, Bytes::new(size));
                cache.set_utility(o, key as f64);
            } else if cache.plan_eviction_into(Bytes::new(size), &mut plan) {
                let freed: u64 = plan
                    .objects()
                    .map(|v| cache.entry(v).unwrap().size.raw())
                    .sum();
                prop_assert!(cache.free().raw() + freed >= size);
                cache.commit_plan(&plan, o, Bytes::new(size), key as f64, Tick::new(t as u64));
            } else {
                prop_assert!(size > capacity);
                prop_assert!(plan.is_empty());
            }
            let sum: u64 = cache.iter().map(|(_, e)| e.size.raw()).sum();
            prop_assert_eq!(sum, cache.used().raw());
            prop_assert!(cache.used().raw() <= capacity);
            prop_assert_eq!(cache.check_invariants(), Ok(()));
        }
    }

    /// Every policy satisfies the simulator contract on arbitrary access
    /// streams: hits only on cached objects, loads actually cache, and
    /// capacity is never exceeded.
    #[test]
    fn policies_satisfy_contract(
        seed in any::<u64>(),
        capacity in 500u64..5_000,
        accesses in proptest::collection::vec((0u32..40, 1u64..800, 0u64..800), 1..250),
    ) {
        let cap = Bytes::new(capacity);
        let mut policies: Vec<Box<dyn CachePolicy>> = vec![
            Box::new(RateProfile::new(cap, RateProfileConfig::default())),
            Box::new(OnlineBY::new(Landlord::new(cap))),
            Box::new(OnlineBY::new(SizeClassMarking::new(cap))),
            Box::new(SpaceEffBY::new(Landlord::new(cap), seed)),
            Box::new(make::gds(cap)),
            Box::new(make::gdsp(cap)),
            Box::new(make::lru(cap)),
            Box::new(make::lfu(cap)),
            Box::new(make::lru_k(cap, 2)),
        ];
        for (t, &(id, size_seed, yld)) in accesses.iter().enumerate() {
            // Size is a stable function of the object id.
            let size = (1 + (id as u64 * 37) % 800).max(1);
            let _ = size_seed;
            let access = Access {
                object: ObjectId::new(id),
                time: Tick::new(t as u64),
                yield_bytes: Bytes::new(yld.min(size)),
                size: Bytes::new(size),
                fetch_cost: Bytes::new(size),
            };
            for p in policies.iter_mut() {
                let cached_before = p.contains(access.object);
                match p.on_access(&access) {
                    Decision::Hit => prop_assert!(cached_before, "{} hit non-cached", p.name()),
                    Decision::Load { .. } => {
                        prop_assert!(!cached_before, "{} reloaded cached", p.name());
                        prop_assert!(p.contains(access.object), "{} load didn't cache", p.name());
                    }
                    Decision::Bypass => {}
                }
                prop_assert!(p.used() <= p.capacity(), "{} over capacity", p.name());
            }
        }
    }

    /// Every shipped policy produces a violation-free decision stream
    /// under the [`PolicyAuditor`]'s shadow model on arbitrary traces,
    /// and the auditor's delivery accounting is conserved: every byte of
    /// yield is served either from cache (`D_C`) or by bypassing (`D_S`).
    #[test]
    fn auditor_clears_every_shipped_policy(
        seed in any::<u64>(),
        capacity in 500u64..5_000,
        accesses in proptest::collection::vec((0u32..40, 1u64..800), 1..250),
    ) {
        let cap = Bytes::new(capacity);
        let static_set: Vec<ObjectId> =
            (0..4).map(|i| ObjectId::new(i * 7)).collect();
        let policies: Vec<Box<dyn CachePolicy>> = vec![
            Box::new(RateProfile::new(cap, RateProfileConfig::default())),
            Box::new(OnlineBY::new(Landlord::new(cap))),
            Box::new(OnlineBY::new(SizeClassMarking::new(cap))),
            Box::new(SpaceEffBY::new(Landlord::new(cap), seed)),
            Box::new(make::gds(cap)),
            Box::new(make::gdsp(cap)),
            Box::new(make::lru(cap)),
            Box::new(make::lfu(cap)),
            Box::new(make::lru_k(cap, 2)),
            Box::new(make::lff(cap)),
            Box::new(make::gd_star(cap)),
            Box::new(StaticCache::new(static_set, cap, true)),
            Box::new(NoCache),
        ];
        let mut auditors: Vec<PolicyAuditor<Box<dyn CachePolicy>>> =
            policies.into_iter().map(PolicyAuditor::new).collect();
        let mut expected_delivery = Bytes::ZERO;
        for (t, &(id, yld)) in accesses.iter().enumerate() {
            // Size is a stable function of the object id; some objects
            // are deliberately larger than any capacity in range.
            let size = (1 + (id as u64 * 137) % 6_000).max(1);
            let access = Access {
                object: ObjectId::new(id),
                time: Tick::new(t as u64),
                yield_bytes: Bytes::new(yld.min(size)),
                size: Bytes::new(size),
                fetch_cost: Bytes::new(size),
            };
            expected_delivery += access.yield_bytes;
            for a in auditors.iter_mut() {
                a.on_access(&access);
                // Occasional invalidation exercises the shadow-model
                // bookkeeping on the same stream.
                if t % 17 == 16 {
                    a.invalidate(access.object);
                }
            }
        }
        for a in auditors {
            let name = a.name();
            let report = a.finish();
            prop_assert!(
                report.is_clean(),
                "{}: {:?}", name, report.violations
            );
            prop_assert_eq!(report.delivered(), expected_delivery);
            prop_assert_eq!(
                report.accesses, accesses.len() as u64
            );
        }
    }

    /// Exact knapsack beats (or ties) greedy and both respect capacity,
    /// compared against exhaustive enumeration for ≤ 10 items.
    #[test]
    fn knapsack_optimality(
        capacity in 10u64..200,
        items in proptest::collection::vec((1u64..100, 1u64..300), 1..10),
    ) {
        let demands: Vec<ObjectDemand> = items
            .iter()
            .enumerate()
            .map(|(i, &(size, yld))| ObjectDemand {
                object: ObjectId::new(i as u32),
                total_yield: Bytes::new(yld),
                size: Bytes::new(size),
                fetch_cost: Bytes::new(size),
            })
            .collect();
        let cap = Bytes::new(capacity);
        let value = |sel: &[ObjectId]| -> u64 {
            sel.iter()
                .map(|o| demands[o.index()].net_savings().raw())
                .sum()
        };
        let weight = |sel: &[ObjectId]| -> u64 {
            sel.iter().map(|o| demands[o.index()].size.raw()).sum()
        };
        let greedy = plan_greedy(&demands, cap);
        let exact = plan_exact(&demands, cap, 256);
        prop_assert!(weight(&greedy) <= capacity);
        prop_assert!(weight(&exact) <= capacity);

        // Exhaustive optimum.
        let n = demands.len();
        let mut best = 0u64;
        for mask in 0u32..(1 << n) {
            let sel: Vec<ObjectId> = (0..n)
                .filter(|&i| mask & (1 << i) != 0)
                .map(|i| ObjectId::new(i as u32))
                .collect();
            if weight(&sel) <= capacity {
                best = best.max(value(&sel));
            }
        }
        // The grid-rounded exact planner can lose a little to rounding
        // (sizes round *up* to grid units) but must stay within the true
        // optimum and never below greedy by more than rounding slack.
        prop_assert!(value(&exact) <= best);
        // And exact ≥ greedy on sufficiently fine grids except for
        // pathological rounding; allow 15% slack.
        prop_assert!(value(&exact) * 100 >= value(&greedy) * 85);
    }

    /// OnlineBY's per-object rent meter: the number of loads for a single
    /// object never exceeds cumulative yield / size + 1.
    #[test]
    fn onlineby_firing_bound(
        yields in proptest::collection::vec(1u64..200, 1..300),
        size in 50u64..150,
    ) {
        let mut policy = OnlineBY::new(Landlord::new(Bytes::new(100_000)));
        let mut loads = 0u64;
        let mut total_yield = 0u64;
        for (t, &y) in yields.iter().enumerate() {
            let access = Access {
                object: ObjectId::new(0),
                time: Tick::new(t as u64),
                yield_bytes: Bytes::new(y),
                size: Bytes::new(size),
                fetch_cost: Bytes::new(size),
            };
            total_yield += y;
            if policy.on_access(&access).is_load() {
                loads += 1;
            }
        }
        // With one object and ample capacity the object is loaded at most
        // once (never evicted), and only after rent ≥ size.
        prop_assert!(loads <= 1);
        if loads == 1 {
            prop_assert!(total_yield >= size);
        }
    }
}

// Landlord and marking stay within capacity under adversarial request
// mixes, and never cache an oversized object.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn bypass_object_algorithms_contract(
        capacity in 100u64..2_000,
        requests in proptest::collection::vec((0u32..30, 1u64..1_500), 1..200),
    ) {
        let mut landlord = Landlord::new(Bytes::new(capacity));
        let mut marking = SizeClassMarking::new(Bytes::new(capacity));
        for (t, &(id, size_seed)) in requests.iter().enumerate() {
            let size = 1 + (id as u64 * 31 + 7) % 1_400.min(size_seed + 1);
            for algo in [&mut landlord as &mut dyn BypassObjectAlgorithm, &mut marking] {
                let d = algo.on_request(
                    ObjectId::new(id),
                    Bytes::new(size),
                    Bytes::new(size),
                    Tick::new(t as u64),
                );
                if size > capacity {
                    prop_assert!(!d.is_hit() || algo.contains(ObjectId::new(id)));
                    prop_assert!(!d.is_load() || size <= capacity);
                }
                prop_assert!(algo.used() <= algo.capacity());
            }
        }
    }
}
