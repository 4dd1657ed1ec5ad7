//! Brute-force twins of byc-core's heap planners.
//!
//! Each twin re-implements one shipped selection rule with whole-cache
//! scans and full sorts, so a shipped planner that matches its twin
//! decision for decision implements the rule, not just a heap that
//! agrees with itself:
//!
//! * [`FullSortInline`] — the in-line chassis over any public
//!   [`UtilityRule`] (GDS, GDSP, LRU, LFU, LRU-K, LFF, GD*): a miss
//!   evicts the ascending `(utility, id)` prefix of a full sort;
//! * [`FullSortLandlord`] and [`ScanMarking`] — the two bypass-object
//!   algorithms, run inside the shipped `OnlineBY` and `SpaceEffBY`;
//! * [`RateProfileRule`] — the shipped Rate-Profile behind a checker
//!   that asserts every decision against the paper's rule, reading the
//!   residents through the policy's public accessors.

use byc_catalog::ObjectCatalog;
use byc_core::access::Access;
use byc_core::bypass_object::BypassObjectAlgorithm;
use byc_core::inline::{
    GdStarRule, GdsRule, GdspRule, LffRule, LfuRule, LruKRule, LruRule, UtilityRule,
};
use byc_core::online::OnlineBY;
use byc_core::policy::{CachePolicy, Decision, Evictions};
use byc_core::rate_profile::{RateProfile, RateProfileConfig};
use byc_core::spaceeff::SpaceEffBY;
use byc_federation::PolicyKind;
use byc_types::{Bytes, ObjectId, Tick};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// The brute-force twin of `kind` as the roster builds it, or `None`
/// for the policies without a planner (Static, NoCache).
pub fn build_twin<'a>(
    kind: PolicyKind,
    capacity: Bytes,
    seed: u64,
    objects: &'a ObjectCatalog,
) -> Option<Box<dyn CachePolicy + Send + Sync + 'a>> {
    Some(match kind {
        PolicyKind::RateProfile => Box::new(RateProfileRule::new(
            RateProfile::new(capacity, RateProfileConfig::default()),
            objects,
        )),
        PolicyKind::OnlineBY => Box::new(OnlineBY::new(FullSortLandlord::new(capacity))),
        PolicyKind::OnlineBYMarking => Box::new(OnlineBY::with_name(
            ScanMarking::new(capacity),
            "OnlineBY-Marking",
        )),
        PolicyKind::SpaceEffBY => Box::new(SpaceEffBY::new(FullSortLandlord::new(capacity), seed)),
        PolicyKind::Gds => Box::new(FullSortInline::new(capacity, GdsRule::default())),
        PolicyKind::Gdsp => Box::new(FullSortInline::new(capacity, GdspRule::default())),
        PolicyKind::Lru => Box::new(FullSortInline::new(capacity, LruRule)),
        PolicyKind::Lfu => Box::new(FullSortInline::new(capacity, LfuRule)),
        PolicyKind::LruK => Box::new(FullSortInline::new(capacity, LruKRule::new(2))),
        PolicyKind::Lff => Box::new(FullSortInline::new(capacity, LffRule)),
        PolicyKind::GdStar => Box::new(FullSortInline::new(capacity, GdStarRule::new(0.5))),
        PolicyKind::Static | PolicyKind::NoCache => return None,
    })
}

/// One resident of a full-sort twin.
#[derive(Clone, Copy, Debug)]
struct Resident {
    size: Bytes,
    /// Queries served from the cache over this lifetime.
    hits: u64,
    /// The utility (or credit) the selection rule ranks by.
    key: f64,
}

fn used(residents: &BTreeMap<ObjectId, Resident>) -> Bytes {
    residents.values().map(|r| r.size).sum()
}

/// The victims a miss of `size` evicts: the ascending `(key, id)` prefix
/// of a full sort of the residents that makes it fit, or `None` when it
/// can never fit.
fn full_sort_plan(
    residents: &BTreeMap<ObjectId, Resident>,
    capacity: Bytes,
    size: Bytes,
) -> Option<Vec<(ObjectId, f64)>> {
    if size > capacity {
        return None;
    }
    let mut ranked: Vec<(ObjectId, f64)> = residents.iter().map(|(&o, r)| (o, r.key)).collect();
    ranked.sort_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .unwrap_or(Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    let mut free = capacity.saturating_sub(used(residents));
    let mut victims = Vec::new();
    for (object, key) in ranked {
        if free >= size {
            break;
        }
        free += residents[&object].size;
        victims.push((object, key));
    }
    Some(victims)
}

/// The in-line (never-bypass) chassis over a [`UtilityRule`], planning
/// every miss by a full sort.
#[derive(Debug)]
pub struct FullSortInline<R> {
    capacity: Bytes,
    rule: R,
    residents: BTreeMap<ObjectId, Resident>,
}

impl<R: UtilityRule> FullSortInline<R> {
    pub fn new(capacity: Bytes, rule: R) -> Self {
        Self {
            capacity,
            rule,
            residents: BTreeMap::new(),
        }
    }
}

impl<R: UtilityRule> CachePolicy for FullSortInline<R> {
    fn name(&self) -> &'static str {
        self.rule.name()
    }

    fn on_access(&mut self, access: &Access) -> Decision {
        if let Some(r) = self.residents.get_mut(&access.object) {
            r.hits += 1;
            r.key = self.rule.on_hit(access, r.hits);
            return Decision::Hit;
        }
        let Some(victims) = full_sort_plan(&self.residents, self.capacity, access.size) else {
            return Decision::Bypass;
        };
        for &(victim, key) in &victims {
            self.rule.on_evict(victim, key);
            self.residents.remove(&victim);
        }
        let key = self.rule.on_load(access);
        // The triggering query is served from the fresh copy.
        self.residents.insert(
            access.object,
            Resident {
                size: access.size,
                hits: 1,
                key,
            },
        );
        Decision::Load {
            evictions: victims.into_iter().map(|(o, _)| o).collect(),
        }
    }

    fn contains(&self, object: ObjectId) -> bool {
        self.residents.contains_key(&object)
    }

    fn used(&self) -> Bytes {
        used(&self.residents)
    }

    fn capacity(&self) -> Bytes {
        self.capacity
    }

    fn cached_objects(&self) -> Vec<ObjectId> {
        self.residents.keys().copied().collect()
    }

    fn invalidate(&mut self, object: ObjectId) -> bool {
        self.residents.remove(&object).is_some()
    }
}

/// Young's Landlord with credits stored as `L + f/s`, planning every
/// fault by a full sort of the credits.
#[derive(Debug)]
pub struct FullSortLandlord {
    capacity: Bytes,
    inflation: f64,
    residents: BTreeMap<ObjectId, Resident>,
}

impl FullSortLandlord {
    pub fn new(capacity: Bytes) -> Self {
        Self {
            capacity,
            inflation: 0.0,
            residents: BTreeMap::new(),
        }
    }

    fn credit(&self, size: Bytes, fetch_cost: Bytes) -> f64 {
        self.inflation + fetch_cost.as_f64() / size.as_f64().max(1.0)
    }
}

impl BypassObjectAlgorithm for FullSortLandlord {
    fn name(&self) -> &'static str {
        "Landlord"
    }

    fn on_request(
        &mut self,
        object: ObjectId,
        size: Bytes,
        fetch_cost: Bytes,
        _now: Tick,
    ) -> Decision {
        let credit = self.credit(size, fetch_cost);
        if let Some(r) = self.residents.get_mut(&object) {
            r.key = credit;
            return Decision::Hit;
        }
        let Some(victims) = full_sort_plan(&self.residents, self.capacity, size) else {
            return Decision::Bypass;
        };
        // Rent: every evicted credit is used up, the last one last.
        if let Some(&(_, key)) = victims.last() {
            self.inflation = self.inflation.max(key);
        }
        for (victim, _) in &victims {
            self.residents.remove(victim);
        }
        let key = self.credit(size, fetch_cost);
        self.residents
            .insert(object, Resident { size, hits: 0, key });
        Decision::Load {
            evictions: victims.into_iter().map(|(o, _)| o).collect(),
        }
    }

    fn contains(&self, object: ObjectId) -> bool {
        self.residents.contains_key(&object)
    }

    fn used(&self) -> Bytes {
        used(&self.residents)
    }

    fn capacity(&self) -> Bytes {
        self.capacity
    }

    fn cached_objects(&self) -> Vec<ObjectId> {
        self.residents.keys().copied().collect()
    }

    fn invalidate(&mut self, object: ObjectId) -> bool {
        self.residents.remove(&object).is_some()
    }
}

/// Victim-selection penalty for an unmarked object outside the incoming
/// size class (the shipped marking's constant).
const CLASS_PENALTY: f64 = 1e9;

/// The power-of-two size class of an object.
fn size_class(size: Bytes) -> u32 {
    u64::BITS - size.raw().max(1).leading_zeros()
}

/// One resident of [`ScanMarking`].
#[derive(Clone, Copy, Debug)]
struct Marked {
    size: Bytes,
    marked: bool,
    last_use: u64,
    class: u32,
}

/// Size-class marking that finds every victim by scanning the
/// residents: the unmarked one with the least `class penalty + last use`,
/// ties by id, and a phase ends when the unmarked space cannot hold a
/// fault.
#[derive(Debug)]
pub struct ScanMarking {
    capacity: Bytes,
    clock: u64,
    residents: BTreeMap<ObjectId, Marked>,
}

impl ScanMarking {
    pub fn new(capacity: Bytes) -> Self {
        Self {
            capacity,
            clock: 0,
            residents: BTreeMap::new(),
        }
    }

    fn free(&self) -> Bytes {
        let used: Bytes = self.residents.values().map(|m| m.size).sum();
        self.capacity.saturating_sub(used)
    }

    fn victim(&self, class: u32) -> Option<ObjectId> {
        let key = |m: &Marked| {
            let penalty = if m.class == class { 0.0 } else { CLASS_PENALTY };
            penalty + m.last_use as f64
        };
        self.residents
            .iter()
            .filter(|(_, m)| !m.marked)
            .min_by(|(a, ma), (b, mb)| key(ma).total_cmp(&key(mb)).then_with(|| a.cmp(b)))
            .map(|(&o, _)| o)
    }
}

impl BypassObjectAlgorithm for ScanMarking {
    fn name(&self) -> &'static str {
        "SizeClassMarking"
    }

    fn on_request(
        &mut self,
        object: ObjectId,
        size: Bytes,
        _fetch_cost: Bytes,
        _now: Tick,
    ) -> Decision {
        self.clock += 1;
        if let Some(m) = self.residents.get_mut(&object) {
            m.marked = true;
            m.last_use = self.clock;
            return Decision::Hit;
        }
        if size > self.capacity {
            return Decision::Bypass;
        }
        let unmarked: Bytes = self
            .residents
            .values()
            .filter(|m| !m.marked)
            .map(|m| m.size)
            .sum();
        if unmarked + self.free() < size {
            for m in self.residents.values_mut() {
                m.marked = false;
            }
        }
        let class = size_class(size);
        let mut evictions = Evictions::new();
        while self.free() < size {
            let Some(victim) = self.victim(class) else {
                break;
            };
            self.residents.remove(&victim);
            evictions.push(victim);
        }
        if self.free() < size {
            return Decision::Bypass;
        }
        self.residents.insert(
            object,
            Marked {
                size,
                marked: true,
                last_use: self.clock,
                class,
            },
        );
        Decision::Load { evictions }
    }

    fn contains(&self, object: ObjectId) -> bool {
        self.residents.contains_key(&object)
    }

    fn used(&self) -> Bytes {
        self.capacity - self.free()
    }

    fn capacity(&self) -> Bytes {
        self.capacity
    }

    fn cached_objects(&self) -> Vec<ObjectId> {
        self.residents.keys().copied().collect()
    }

    fn invalidate(&mut self, object: ObjectId) -> bool {
        self.residents.remove(&object).is_some()
    }
}

/// The shipped Rate-Profile behind a checker of the paper's rule.
///
/// Before each decision it reads the residents through the policy's
/// public accessors (`cached_objects`, `rate_profile` at the access
/// tick, `used`, `capacity`), with sizes from the catalog; after it, it
/// asserts:
///
/// * a `Load` evicts exactly the ascending `(RP, id)` prefix of the
///   residents that frees room for the newcomer;
/// * a `Bypass` of an object that fits the cache has a non-positive LAR
///   (`load_adjusted_rate`), or the residents whose RP is below its LAR
///   plus the free space cannot hold it.
#[derive(Debug)]
pub struct RateProfileRule<'a> {
    inner: RateProfile,
    objects: &'a ObjectCatalog,
    /// Loads checked that had to evict.
    pub evicting_loads: u64,
    /// Bypasses of objects that fit the cache, checked against the LAR.
    pub fitting_bypasses: u64,
}

impl<'a> RateProfileRule<'a> {
    pub fn new(inner: RateProfile, objects: &'a ObjectCatalog) -> Self {
        Self {
            inner,
            objects,
            evicting_loads: 0,
            fitting_bypasses: 0,
        }
    }
}

impl CachePolicy for RateProfileRule<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_access(&mut self, access: &Access) -> Decision {
        let free = self.inner.capacity().saturating_sub(self.inner.used());
        let mut residents: Vec<(ObjectId, f64, Bytes)> = self
            .inner
            .cached_objects()
            .into_iter()
            .map(|o| {
                let rp = self.inner.rate_profile(o, access.time);
                let rp = rp.unwrap_or_else(|| panic!("resident {o} has no rate profile"));
                (o, rp, self.objects.info(o).size)
            })
            .collect();
        residents.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        let decision = self.inner.on_access(access);
        match &decision {
            Decision::Hit => {}
            Decision::Load { evictions } => {
                let mut room = free;
                let mut prefix = Vec::new();
                for &(o, _, size) in &residents {
                    if room >= access.size {
                        break;
                    }
                    room += size;
                    prefix.push(o);
                }
                assert_eq!(
                    evictions.as_slice(),
                    prefix.as_slice(),
                    "{} at {}: a load must evict the ascending (RP, id) prefix that frees room",
                    access.object,
                    access.time
                );
                if !evictions.is_empty() {
                    self.evicting_loads += 1;
                }
            }
            Decision::Bypass if access.size <= self.inner.capacity() => {
                let lar = self.inner.load_adjusted_rate(access.object);
                let lar = lar.unwrap_or_else(|| panic!("{} bypassed unprofiled", access.object));
                let displaceable: Bytes = residents
                    .iter()
                    .filter(|&&(_, rp, _)| rp < lar)
                    .map(|&(_, _, size)| size)
                    .sum();
                assert!(
                    lar <= 0.0 || free + displaceable < access.size,
                    "{} at {}: bypassed with LAR {lar} although {} below it plus {} free \
                     hold its {}",
                    access.object,
                    access.time,
                    displaceable,
                    free,
                    access.size
                );
                self.fitting_bypasses += 1;
            }
            Decision::Bypass => {}
        }
        decision
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
