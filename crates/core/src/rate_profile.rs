//! The workload-driven Rate-Profile algorithm (paper §4).
//!
//! Two rate-of-savings metrics, both in *bytes saved per query per byte of
//! cache space*, drive all decisions:
//!
//! * **Rate profile (RP)** of a cached object (Eq. 3) — measured savings
//!   over its cache lifetime:
//!   `RP_i = Σ_j y_{i,j} / ((t - t_i) · s_i)`.
//!   The load cost is *not* included: it is a sunk cost, which keeps the
//!   cache conservative about evicting (§4.2).
//!
//! * **Load-adjusted rate (LAR)** of an object outside the cache — the
//!   savings rate it would have realized had it been loaded at the start
//!   of each *episode*, net of the load investment. Within an episode `e`
//!   the running profile is
//!   `LARP_{i,e}(t) = (Σ y - f_i) / ((t - t_S) · s_i)`,
//!   amortizing the load cost over the episode ("the rate will always be
//!   increasing until the load penalty has been overcome"; Eq. 4–5). An
//!   episode's LAR is the maximum the profile reached — the balance point
//!   between overcoming the load cost and decaying from reduced use. The
//!   object's LAR (Eq. 6) is a recency-weighted average over episodes.
//!
//! On an access to a non-cached object the algorithm compares the object's
//! LAR against the RPs of the cheapest victims that would free enough
//! space. Free cache space counts as a victim with RP = 0 (unused space
//! saves nothing). The object is loaded iff every displaced savings rate
//! is below the expected one; otherwise the query is bypassed. Victims
//! are ranked by their RP *at the access tick*: RPs decay at per-object
//! speeds, so no stored order stays valid between decisions, and the
//! policy reads the residents' current rates in one pass whenever a load
//! would have to evict (DESIGN.md §18.1).
//!
//! Episodes (§4.3) segment an object's history into bursts: a new episode
//! starts when the running profile falls below `c ·` its episode maximum
//! (default `c = 0.5`) or after `k` queries without an access (default
//! `k = 5000`; the paper used `k = 1000`, see [`RateProfileConfig`]'s
//! `Default`). Aging (episode weight decay) and pruning (a cap on
//! profiled objects, evicting the least-recently-accessed profile) keep
//! metadata compact (§3).

use crate::access::Access;
use crate::cache::{CacheState, CachedEntry};
use crate::dense::DenseMap;
use crate::heap::SelectionHeap;
use crate::policy::{CachePolicy, Decision, Evictions};
use byc_types::{Bytes, ObjectId, Tick};
use std::collections::VecDeque;

/// Tuning knobs for [`RateProfile`]. Defaults follow the paper (§4.3),
/// except the idle cutoff `k` (5000, where the paper used 1000).
#[derive(Clone, Debug)]
pub struct RateProfileConfig {
    /// `c`: close an episode when its running profile drops below
    /// `c × episode maximum`.
    pub episode_decline: f64,
    /// `k`: close an episode after this many queries without an access.
    pub idle_cutoff: u64,
    /// Weight multiplier per episode of age: the newest episode weighs 1,
    /// the one before `decay`, then `decay²`, ... (Eq. 6's `w_e`).
    pub episode_weight_decay: f64,
    /// Maximum retained episodes per object (older ones are dropped).
    pub max_episodes: usize,
    /// Maximum profiled (non-cached) objects; exceeding this prunes the
    /// least-recently-accessed profiles.
    pub max_profiles: usize,
    /// Ablation switch: when false, each object keeps a single endless
    /// episode (no splitting).
    pub episodes_enabled: bool,
}

impl Default for RateProfileConfig {
    fn default() -> Self {
        Self {
            episode_decline: 0.5,
            // The paper used k = 1000 for its traces (§4.3) and notes the
            // parameters "have not been tuned carefully" and that results
            // are "robust to many parameterizations". Our synthetic
            // traces interleave more concurrent sessions, so hot objects
            // see occasional gaps slightly above 1000 queries; a cutoff
            // of 5000 keeps their episodes alive without changing any
            // bypass decision for genuinely cold objects.
            idle_cutoff: 5000,
            episode_weight_decay: 0.5,
            max_episodes: 8,
            max_profiles: 100_000,
            episodes_enabled: true,
        }
    }
}

/// Per-object workload profile (objects outside the cache).
#[derive(Clone, Debug)]
struct ObjectProfile {
    /// LARs of closed episodes, oldest first.
    closed: VecDeque<f64>,
    /// Start tick of the open episode.
    start: Tick,
    /// Yield accumulated in the open episode.
    accum: Bytes,
    /// Maximum LARP the open episode has reached.
    max_larp: f64,
    /// Last access tick.
    last_access: Tick,
    /// Whether an episode is open.
    open: bool,
}

impl ObjectProfile {
    fn new() -> Self {
        Self {
            closed: VecDeque::new(),
            start: Tick::ZERO,
            accum: Bytes::ZERO,
            max_larp: f64::NEG_INFINITY,
            last_access: Tick::ZERO,
            open: false,
        }
    }

    fn close_episode(&mut self, max_episodes: usize) {
        if self.open {
            self.closed.push_back(self.max_larp);
            while self.closed.len() > max_episodes {
                self.closed.pop_front();
            }
            self.open = false;
            self.accum = Bytes::ZERO;
            self.max_larp = f64::NEG_INFINITY;
        }
    }

    fn open_episode(&mut self, now: Tick) {
        self.open = true;
        self.start = now;
        self.accum = Bytes::ZERO;
        self.max_larp = f64::NEG_INFINITY;
    }

    /// Running load-adjusted rate profile of the open episode.
    fn larp(&self, now: Tick, size: Bytes, fetch: Bytes) -> f64 {
        let elapsed = now.since_at_least_one(self.start) as f64;
        let s = size.as_f64().max(1.0);
        (self.accum.as_f64() - fetch.as_f64()) / (elapsed * s)
    }

    /// Recency-weighted average of episode LARs (Eq. 6), most recent
    /// episode (the open one, if any) weighted 1.
    fn lar(&self, decay: f64) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        let mut weight = 1.0;
        if self.open && self.max_larp > f64::NEG_INFINITY {
            num += self.max_larp;
            den += 1.0;
            weight *= decay;
        }
        for &lar in self.closed.iter().rev() {
            num += weight * lar;
            den += weight;
            weight *= decay;
        }
        if den == 0.0 {
            f64::NEG_INFINITY
        } else {
            num / den
        }
    }
}

/// The measured rate profile (Eq. 3) of a cached entry at `now`.
fn rate_of(entry: &CachedEntry, now: Tick) -> f64 {
    let elapsed = now.since_at_least_one(entry.loaded_at) as f64;
    let s = entry.size.as_f64().max(1.0);
    entry.accum_yield.as_f64() / (elapsed * s)
}

/// The Rate-Profile bypass-yield caching policy.
#[derive(Clone, Debug)]
pub struct RateProfile {
    cache: CacheState,
    config: RateProfileConfig,
    profiles: DenseMap<ObjectProfile>,
    /// Reusable victim-selection scratch keyed by current RP: a
    /// steady-state decision allocates nothing.
    victims: SelectionHeap<f64>,
    /// Reusable partial-selection scratch for [`Self::prune_profiles`],
    /// keyed by last-access tick (exact integer `(tick, id)` tie-break).
    prune_scratch: SelectionHeap<Tick>,
}

impl RateProfile {
    /// Create a policy with the given cache capacity and configuration.
    pub fn new(capacity: Bytes, config: RateProfileConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.episode_decline),
            "episode_decline must be in [0,1]"
        );
        assert!(config.max_episodes >= 1, "need at least one episode");
        Self {
            cache: CacheState::new(capacity),
            config,
            profiles: DenseMap::new(),
            victims: SelectionHeap::new(),
            prune_scratch: SelectionHeap::new(),
        }
    }

    /// The measured rate profile (Eq. 3) of a cached object at `now`.
    pub fn rate_profile(&self, object: ObjectId, now: Tick) -> Option<f64> {
        Some(rate_of(self.cache.entry(object)?, now))
    }

    /// The load-adjusted rate (Eq. 6) of a profiled object.
    pub fn load_adjusted_rate(&self, object: ObjectId) -> Option<f64> {
        self.profiles
            .get(object)
            .map(|p| p.lar(self.config.episode_weight_decay))
    }

    /// Number of profiled (non-cached) objects — metadata footprint.
    pub fn profile_count(&self) -> usize {
        self.profiles.len()
    }

    /// Advance the profile of `object` with this access's yield, applying
    /// the episode heuristics, and return the resulting LAR.
    fn update_profile(&mut self, access: &Access) -> f64 {
        let cfg_idle = self.config.idle_cutoff;
        let cfg_decline = self.config.episode_decline;
        let cfg_max_eps = self.config.max_episodes;
        let episodes_enabled = self.config.episodes_enabled;
        let decay = self.config.episode_weight_decay;

        let profile = self
            .profiles
            .get_or_insert_with(access.object, ObjectProfile::new);

        // Rule 2: idle gap closes the episode (evaluated lazily on the
        // next access).
        if episodes_enabled && profile.open && access.time.since(profile.last_access) > cfg_idle {
            profile.close_episode(cfg_max_eps);
        }
        if !profile.open {
            profile.open_episode(access.time);
        }
        profile.accum += access.yield_bytes;
        profile.last_access = access.time;

        let larp = profile.larp(access.time, access.size, access.fetch_cost);
        if larp > profile.max_larp {
            profile.max_larp = larp;
        } else if episodes_enabled && profile.max_larp > 0.0 {
            // Rule 1: the profile has declined below c × episode max.
            // Only meaningful once the load penalty has been overcome —
            // until then "the rate will always be increasing" (§4.3), so
            // a young episode must not be cut short.
            let declined = larp < cfg_decline * profile.max_larp;
            if declined {
                profile.close_episode(cfg_max_eps);
                profile.open_episode(access.time);
                profile.accum = access.yield_bytes;
                profile.last_access = access.time;
                let larp = profile.larp(access.time, access.size, access.fetch_cost);
                profile.max_larp = larp;
            }
        }
        profile.lar(decay)
    }

    /// Drop the least-recently-accessed profiles when over the cap.
    ///
    /// Partial selection on the reusable [`SelectionHeap`] scratch:
    /// loading is O(P) and each pruned profile costs O(log P), against
    /// the O(P log P) full sort it replaces. The `(last_access, id)`
    /// order is total and integer-exact, so exactly the profiles the old
    /// sort dropped are dropped. Pruning 10% below the cap means the
    /// next O(P) load is at least `max_profiles / 10` accesses away —
    /// amortized O(1) per access.
    fn prune_profiles(&mut self) {
        if self.profiles.len() <= self.config.max_profiles {
            return;
        }
        let target = self.config.max_profiles - self.config.max_profiles / 10;
        let excess = self.profiles.len().saturating_sub(target);
        self.prune_scratch
            .load(self.profiles.iter().map(|(o, p)| (o, p.last_access)));
        for _ in 0..excess {
            let Some((o, _)) = self.prune_scratch.pop_min() else {
                break;
            };
            self.profiles.remove(o);
        }
    }

    /// Record the cache-lifetime performance of an evicted object as a
    /// closed episode so its history survives eviction: the episode's LAR
    /// is what LARP would have read had the object stayed outside,
    /// `(Σy - f) / (elapsed · s)`.
    fn absorb_eviction(&mut self, object: ObjectId, now: Tick, fetch_cost: Bytes) {
        let Some(entry) = self.cache.entry(object).copied() else {
            return;
        };
        let elapsed = now.since_at_least_one(entry.loaded_at) as f64;
        let s = entry.size.as_f64().max(1.0);
        let lar = (entry.accum_yield.as_f64() - fetch_cost.as_f64()) / (elapsed * s);
        let max_eps = self.config.max_episodes;
        let profile = self.profiles.get_or_insert_with(object, ObjectProfile::new);
        profile.close_episode(max_eps);
        profile.closed.push_back(lar);
        while profile.closed.len() > max_eps {
            profile.closed.pop_front();
        }
        profile.last_access = now;
    }
}

impl CachePolicy for RateProfile {
    fn name(&self) -> &'static str {
        "Rate-Profile"
    }

    fn on_access(&mut self, access: &Access) -> Decision {
        let now = access.time;
        if self.cache.contains(access.object) {
            // The RP is computed when a decision needs it; a hit only
            // grows its numerator.
            self.cache.record_hit(access.object, access.yield_bytes);
            return Decision::Hit;
        }

        let lar = self.update_profile(access);
        self.prune_profiles();

        // Free space displaces a rate of zero, so only a positive LAR can
        // load, and nothing makes room for an object larger than the
        // cache.
        let may_load = lar > 0.0 && access.size <= self.cache.capacity();
        if !may_load {
            return Decision::Bypass;
        }

        // Load iff the cheapest residents that free enough room all have
        // a current RP below the LAR. One pass keeps exactly the
        // residents a load may displace and totals the room they hold.
        let mut evictions = Evictions::new();
        if self.cache.free() < access.size {
            let mut room = self.cache.free();
            let displaceable = self.cache.iter().filter_map(|(o, e)| {
                let rp = rate_of(e, now);
                if rp < lar {
                    room += e.size;
                    Some((o, rp))
                } else {
                    None
                }
            });
            self.victims.load(displaceable);
            if room < access.size {
                return Decision::Bypass;
            }
            // Evict in ascending `(RP, id)` order until the newcomer fits,
            // folding each victim's cache-lifetime performance into its
            // profile first.
            while self.cache.free() < access.size {
                let Some((v, _)) = self.victims.pop_min() else {
                    break;
                };
                // The fetch cost of a victim is unknown here; approximate
                // it by its size (the uniform-network assumption under
                // which RPs and LARs are compared in the first place).
                let vsize = self.cache.entry(v).map_or(Bytes::ZERO, |e| e.size);
                self.absorb_eviction(v, now, vsize);
                self.cache.remove(v);
                evictions.push(v);
            }
        }
        // The utility key goes unused: victims are ranked by current RP.
        self.cache.insert(access.object, access.size, 0.0, now);
        // The triggering query is served from the fresh copy.
        self.cache.record_hit(access.object, access.yield_bytes);
        // Outside profile pauses while cached: close its open episode.
        if let Some(p) = self.profiles.get_mut(access.object) {
            let max_eps = self.config.max_episodes;
            p.close_episode(max_eps);
        }
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
        // A server-side change voids the cached copy *and* its history:
        // past savings rates no longer predict the new data's behaviour.
        self.profiles.remove(object);
        self.cache.remove(object).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(object: u32, time: u64, yld: u64, size: u64) -> Access {
        Access {
            object: ObjectId::new(object),
            time: Tick::new(time),
            yield_bytes: Bytes::new(yld),
            size: Bytes::new(size),
            fetch_cost: Bytes::new(size),
        }
    }

    fn hot_loop(
        policy: &mut RateProfile,
        object: u32,
        start: u64,
        n: u64,
        yld: u64,
        size: u64,
    ) -> u64 {
        let mut loads = 0;
        for i in 0..n {
            if policy
                .on_access(&acc(object, start + i, yld, size))
                .is_load()
            {
                loads += 1;
            }
        }
        loads
    }

    #[test]
    fn first_access_bypasses() {
        let mut p = RateProfile::new(Bytes::new(1000), RateProfileConfig::default());
        assert_eq!(p.on_access(&acc(0, 0, 50, 100)), Decision::Bypass);
        assert!(!p.contains(ObjectId::new(0)));
    }

    #[test]
    fn hot_object_gets_loaded_and_hits() {
        let mut p = RateProfile::new(Bytes::new(1000), RateProfileConfig::default());
        // Yield 80 per query on a size-100 object: after two bypasses the
        // episode's amortized profile turns positive and the load fires.
        let loads = hot_loop(&mut p, 0, 0, 10, 80, 100);
        assert_eq!(loads, 1, "exactly one load expected");
        assert!(p.contains(ObjectId::new(0)));
        // Subsequent accesses are hits.
        assert_eq!(p.on_access(&acc(0, 20, 80, 100)), Decision::Hit);
    }

    #[test]
    fn load_waits_until_cost_amortized() {
        let mut p = RateProfile::new(Bytes::new(1000), RateProfileConfig::default());
        // Cumulative yield must exceed the fetch cost (100) before LARP
        // goes positive: accesses of yield 30 need 4 queries.
        let d0 = p.on_access(&acc(0, 0, 30, 100));
        let d1 = p.on_access(&acc(0, 1, 30, 100));
        let d2 = p.on_access(&acc(0, 2, 30, 100));
        let d3 = p.on_access(&acc(0, 3, 30, 100));
        assert!(d0.is_bypass() && d1.is_bypass() && d2.is_bypass());
        assert!(d3.is_load(), "fourth access should load: {d3:?}");
    }

    #[test]
    fn cold_object_never_loaded() {
        let mut p = RateProfile::new(Bytes::new(1000), RateProfileConfig::default());
        // Tiny yields never overcome the load cost within an episode.
        for i in 0..50 {
            // Accesses 2000 ticks apart: episode resets each time.
            let d = p.on_access(&acc(0, i * 2000, 1, 100));
            assert!(d.is_bypass(), "access {i} was {d:?}");
        }
    }

    #[test]
    fn oversized_object_bypassed() {
        let mut p = RateProfile::new(Bytes::new(50), RateProfileConfig::default());
        for i in 0..20 {
            assert!(p.on_access(&acc(0, i, 100, 100)).is_bypass());
        }
    }

    #[test]
    fn hotter_object_displaces_colder() {
        let mut p = RateProfile::new(Bytes::new(100), RateProfileConfig::default());
        // Load object 0 (modest heat).
        hot_loop(&mut p, 0, 0, 5, 40, 100);
        assert!(p.contains(ObjectId::new(0)));
        // Long quiet stretch: object 0's RP decays. Then a hotter object
        // arrives; after amortizing its load cost its LAR exceeds 0's RP.
        let mut displaced = false;
        for i in 0..10 {
            let d = p.on_access(&acc(1, 500 + i, 95, 100));
            if let Decision::Load { evictions } = &d {
                assert_eq!(evictions.as_slice(), &[ObjectId::new(0)]);
                displaced = true;
                break;
            }
        }
        assert!(displaced, "hot object should displace cold one");
        assert!(p.contains(ObjectId::new(1)));
        assert!(!p.contains(ObjectId::new(0)));
    }

    #[test]
    fn busy_cached_object_resists_eviction() {
        let mut p = RateProfile::new(Bytes::new(100), RateProfileConfig::default());
        hot_loop(&mut p, 0, 0, 5, 90, 100);
        assert!(p.contains(ObjectId::new(0)));
        // Interleave: object 0 stays hot; object 1 is lukewarm.
        for i in 0..100 {
            let t = 10 + i * 2;
            assert!(p.on_access(&acc(0, t, 90, 100)).is_hit());
            let d = p.on_access(&acc(1, t + 1, 30, 100));
            assert!(
                !d.is_load(),
                "lukewarm object displaced a hotter one at step {i}"
            );
        }
    }

    #[test]
    fn rate_profile_metric_decays_with_time() {
        let mut p = RateProfile::new(Bytes::new(1000), RateProfileConfig::default());
        hot_loop(&mut p, 0, 0, 5, 80, 100);
        let rp_early = p.rate_profile(ObjectId::new(0), Tick::new(10)).unwrap();
        let rp_late = p.rate_profile(ObjectId::new(0), Tick::new(1000)).unwrap();
        assert!(rp_late < rp_early);
    }

    #[test]
    fn episode_idle_cutoff_resets() {
        let cfg = RateProfileConfig {
            idle_cutoff: 10,
            ..RateProfileConfig::default()
        };
        let mut p = RateProfile::new(Bytes::new(1000), cfg);
        // Build up an almost-loaded profile (80 < fetch cost 100)...
        p.on_access(&acc(0, 0, 40, 100));
        p.on_access(&acc(0, 1, 40, 100));
        // ...then go idle past the cutoff: the next access starts a fresh
        // episode whose accumulated yield is just 40 < 100, so no load.
        let d = p.on_access(&acc(0, 50, 40, 100));
        assert!(d.is_bypass(), "idle gap should reset the episode: {d:?}");
    }

    #[test]
    fn episodes_disabled_never_reset() {
        let cfg = RateProfileConfig {
            idle_cutoff: 10,
            episodes_enabled: false,
            ..RateProfileConfig::default()
        };
        let mut p = RateProfile::new(Bytes::new(1000), cfg);
        p.on_access(&acc(0, 0, 40, 100));
        p.on_access(&acc(0, 1, 40, 100));
        // Idle gap does not reset; cumulative yield keeps amortizing the
        // load cost: LARP = (120 - 100) / (50·100) > 0 → load fires.
        let d = p.on_access(&acc(0, 50, 40, 100));
        assert!(d.is_load(), "without episodes the history persists: {d:?}");
    }

    #[test]
    fn profile_pruning_caps_metadata() {
        let cfg = RateProfileConfig {
            max_profiles: 100,
            ..RateProfileConfig::default()
        };
        let mut p = RateProfile::new(Bytes::new(10), cfg);
        for i in 0..1000u32 {
            p.on_access(&acc(i, i as u64, 1, 100));
        }
        assert!(p.profile_count() <= 100, "{}", p.profile_count());
    }

    #[test]
    fn lar_visible_through_accessor() {
        let mut p = RateProfile::new(Bytes::new(1000), RateProfileConfig::default());
        p.on_access(&acc(0, 0, 50, 100));
        let lar = p.load_adjusted_rate(ObjectId::new(0)).unwrap();
        // One access of 50 against fetch 100: (50-100)/(1·100) = -0.5.
        assert!((lar - (-0.5)).abs() < 1e-9, "{lar}");
        assert_eq!(p.load_adjusted_rate(ObjectId::new(9)), None);
    }

    #[test]
    fn same_tick_miss_cannot_evict_a_just_loaded_object() {
        // All accesses of one query share a tick, so a miss can decide at
        // the same tick an earlier miss committed a load. The newcomer's
        // rate already counts the query it served, so a same-tick rival
        // must genuinely beat that rate: here both rates are 0.8 and the
        // strict `rp < lar` test fails — the just-loaded object
        // survives.
        let mut p = RateProfile::new(Bytes::new(100), RateProfileConfig::default());
        assert!(p.on_access(&acc(0, 0, 80, 100)).is_bypass());
        assert!(p.on_access(&acc(1, 0, 90, 100)).is_bypass());
        assert!(p.on_access(&acc(0, 1, 80, 100)).is_load());
        let d = p.on_access(&acc(1, 1, 90, 100));
        assert!(d.is_bypass(), "same-tick rival evicted the newcomer: {d:?}");
        assert!(p.contains(ObjectId::new(0)));
        // The newcomer's rate at the load tick.
        let rp = p.rate_profile(ObjectId::new(0), Tick::new(1)).unwrap();
        assert!((rp - 0.8).abs() < 1e-12, "{rp}");
    }

    /// Per-object decay curves cross, so the rate an object showed at its
    /// last touch does not rank it at decision time (DESIGN.md §18.1).
    /// Object 0 was last touched long ago at a modest rate; object 1 was
    /// touched later at a higher rate but decays faster (later
    /// `loaded_at`). At the decision tick object 1 has the lower
    /// *current* rate, so it is the victim the paper's rule evicts — a
    /// lowest-last-observed-rate rule would evict object 0 instead.
    #[test]
    fn crossing_decay_curves_evict_the_lowest_current_rate() {
        let mut p = RateProfile::new(Bytes::new(200), RateProfileConfig::default());
        // Object 0: loads at t=1, hits through t=10.
        assert!(p.on_access(&acc(0, 0, 100, 100)).is_bypass());
        assert!(p.on_access(&acc(0, 1, 100, 100)).is_load());
        for t in 2..=10 {
            assert!(p.on_access(&acc(0, t, 100, 100)).is_hit());
        }
        // Object 1: loads at t=10, hit at t=11.
        assert!(p.on_access(&acc(1, 9, 100, 100)).is_bypass());
        assert!(p.on_access(&acc(1, 10, 100, 100)).is_load());
        assert!(p.on_access(&acc(1, 11, 100, 100)).is_hit());
        // At their last touches object 1 led: 200/(1·100) = 2 against
        // 1000/(9·100) ≈ 1.11. By t=999 the order has flipped.
        let rate = |o: u32, t: u64| p.rate_profile(ObjectId::new(o), Tick::new(t)).unwrap();
        assert!(rate(0, 10) < rate(1, 11));
        assert!(rate(1, 999) < rate(0, 999));
        // Object 2 arrives much later and needs one eviction.
        assert!(p.on_access(&acc(2, 998, 100, 100)).is_bypass());
        match p.on_access(&acc(2, 999, 100, 100)) {
            Decision::Load { evictions } => assert_eq!(
                evictions.as_slice(),
                &[ObjectId::new(1)],
                "the lowest current rate must be evicted"
            ),
            other => panic!("object 2 should load: {other:?}"),
        }
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut p = RateProfile::new(Bytes::new(250), RateProfileConfig::default());
        let mut rng = byc_types::SplitMix64::new(3);
        for t in 0..5_000u64 {
            let o = rng.next_bounded(10) as u32;
            let size = 50 + 25 * (o as u64 % 4);
            let yld = rng.next_bounded(size) + 1;
            p.on_access(&acc(o, t, yld, size));
            assert!(p.used() <= p.capacity(), "overflow at t={t}");
        }
    }

    #[test]
    fn hit_only_when_cached() {
        let mut p = RateProfile::new(Bytes::new(1000), RateProfileConfig::default());
        let mut rng = byc_types::SplitMix64::new(8);
        for t in 0..3_000u64 {
            let o = rng.next_bounded(6) as u32;
            let was_cached = p.contains(ObjectId::new(o));
            let d = p.on_access(&acc(o, t, rng.next_bounded(90) + 10, 100));
            match d {
                Decision::Hit => assert!(was_cached),
                Decision::Bypass => assert!(!was_cached),
                Decision::Load { .. } => {
                    assert!(!was_cached);
                    assert!(p.contains(ObjectId::new(o)));
                }
            }
        }
    }
}
