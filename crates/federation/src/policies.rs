//! The named policy roster used by every experiment.

use byc_core::bypass_object::{Landlord, SizeClassMarking};
use byc_core::inline::make;
use byc_core::online::OnlineBY;
use byc_core::policy::CachePolicy;
use byc_core::rate_profile::{RateProfile, RateProfileConfig};
use byc_core::spaceeff::SpaceEffBY;
use byc_core::static_opt::{ObjectDemand, StaticCache};
use byc_types::Bytes;

/// Every policy the experiments replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// The workload-driven bypass-yield algorithm (§4).
    RateProfile,
    /// OnlineBY over Landlord (§5.2, default `A_obj`).
    OnlineBY,
    /// OnlineBY over size-class marking (ablation of the `A_obj` choice).
    OnlineBYMarking,
    /// The randomized O(1)-space algorithm (§5.3).
    SpaceEffBY,
    /// Greedy-Dual-Size, in-line (the paper's main caching baseline).
    Gds,
    /// GDS-Popularity, in-line.
    Gdsp,
    /// LRU, in-line.
    Lru,
    /// LFU, in-line.
    Lfu,
    /// LRU-2, in-line.
    LruK,
    /// Largest-File-First, in-line.
    Lff,
    /// GreedyDual* (β = 0.5), in-line.
    GdStar,
    /// Static-optimal resident set (offline sanity bound).
    Static,
    /// No caching: ships every query to the servers.
    NoCache,
}

impl PolicyKind {
    /// Display name (matches the paper's figures).
    pub const fn label(self) -> &'static str {
        match self {
            PolicyKind::RateProfile => "Rate-Profile",
            PolicyKind::OnlineBY => "OnlineBY",
            PolicyKind::OnlineBYMarking => "OnlineBY-Marking",
            PolicyKind::SpaceEffBY => "SpaceEffBY",
            PolicyKind::Gds => "GDS",
            PolicyKind::Gdsp => "GDSP",
            PolicyKind::Lru => "LRU",
            PolicyKind::Lfu => "LFU",
            PolicyKind::LruK => "LRU-K",
            PolicyKind::Lff => "LFF",
            PolicyKind::GdStar => "GD*",
            PolicyKind::Static => "Static",
            PolicyKind::NoCache => "NoCache",
        }
    }

    /// True for kinds whose decisions do not depend on the cache's
    /// capacity: replays of such a kind at different cache sizes are the
    /// same replay, so a sweep runs it once for all its sizes. Only
    /// [`PolicyKind::NoCache`], which caches nothing at any size.
    pub const fn ignores_capacity(self) -> bool {
        matches!(self, PolicyKind::NoCache)
    }

    /// True for the three bypass-yield algorithms.
    pub const fn is_bypass_yield(self) -> bool {
        matches!(
            self,
            PolicyKind::RateProfile
                | PolicyKind::OnlineBY
                | PolicyKind::OnlineBYMarking
                | PolicyKind::SpaceEffBY
        )
    }
}

/// The roster replayed in the headline figures: the three bypass-yield
/// algorithms, the in-line GDS baseline, static-optimal, and no caching.
pub fn policy_roster() -> Vec<PolicyKind> {
    vec![
        PolicyKind::RateProfile,
        PolicyKind::OnlineBY,
        PolicyKind::SpaceEffBY,
        PolicyKind::Gds,
        PolicyKind::Static,
        PolicyKind::NoCache,
    ]
}

/// Instantiate a policy with the given cache capacity.
///
/// `demands` (per-object total yields over the trace) are only consulted
/// by [`PolicyKind::Static`]; pass the stats of the trace about to be
/// replayed. `seed` only affects [`PolicyKind::SpaceEffBY`].
///
/// The box carries `Send + Sync` so one builder serves both the flat
/// session (which auto-coerces the auto traits away) and the tiered
/// session, whose per-tier policy slots require thread-shareable
/// policies.
pub fn build_policy(
    kind: PolicyKind,
    capacity: Bytes,
    demands: &[ObjectDemand],
    seed: u64,
) -> Box<dyn CachePolicy + Send + Sync> {
    match kind {
        PolicyKind::RateProfile => {
            Box::new(RateProfile::new(capacity, RateProfileConfig::default()))
        }
        PolicyKind::OnlineBY => Box::new(OnlineBY::new(Landlord::new(capacity))),
        PolicyKind::OnlineBYMarking => Box::new(OnlineBY::with_name(
            SizeClassMarking::new(capacity),
            "OnlineBY-Marking",
        )),
        PolicyKind::SpaceEffBY => Box::new(SpaceEffBY::new(Landlord::new(capacity), seed)),
        PolicyKind::Gds => Box::new(make::gds(capacity)),
        PolicyKind::Gdsp => Box::new(make::gdsp(capacity)),
        PolicyKind::Lru => Box::new(make::lru(capacity)),
        PolicyKind::Lfu => Box::new(make::lfu(capacity)),
        PolicyKind::LruK => Box::new(make::lru_k(capacity, 2)),
        PolicyKind::Lff => Box::new(make::lff(capacity)),
        PolicyKind::GdStar => Box::new(make::gd_star(capacity)),
        PolicyKind::Static => Box::new(StaticCache::plan(demands, capacity)),
        PolicyKind::NoCache => Box::new(byc_core::static_opt::NoCache),
    }
}

/// The BYU-blinding ablation: hides the true fetch price from the
/// wrapped policy. Every access is presented as if the network were
/// uniform — `fetch_cost = size`, the assumption under which BYU is a
/// valid substitute for BYHR (paper §3); yield needs no rewriting
/// because the engine already presents it raw. The engine still charges
/// the *true* cost of every decision, so replaying the same policy with
/// and without this adapter on a non-uniform federation measures
/// exactly what cost-awareness buys. This adapter is the only remaining
/// ad-hoc cost wiring: real non-uniform pricing lives in the engine's
/// [`NetworkModel`](crate::network::NetworkModel).
pub struct UniformCostAdapter<P> {
    inner: P,
}

impl<P: CachePolicy> UniformCostAdapter<P> {
    /// Wrap a policy behind the uniform-cost assumption.
    pub fn new(inner: P) -> Self {
        Self { inner }
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: CachePolicy> CachePolicy for UniformCostAdapter<P> {
    fn name(&self) -> &'static str {
        "Uniform-cost"
    }

    fn on_access(&mut self, access: &byc_core::access::Access) -> byc_core::policy::Decision {
        let blinded = byc_core::access::Access {
            fetch_cost: access.size,
            ..*access
        };
        self.inner.on_access(&blinded)
    }

    fn contains(&self, object: byc_types::ObjectId) -> bool {
        self.inner.contains(object)
    }

    fn used(&self) -> Bytes {
        self.inner.used()
    }

    fn capacity(&self) -> Bytes {
        self.inner.capacity()
    }

    fn cached_objects(&self) -> Vec<byc_types::ObjectId> {
        self.inner.cached_objects()
    }

    fn invalidate(&mut self, object: byc_types::ObjectId) -> bool {
        self.inner.invalidate(object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_has_paper_lineup() {
        let roster = policy_roster();
        assert!(roster.contains(&PolicyKind::RateProfile));
        assert!(roster.contains(&PolicyKind::OnlineBY));
        assert!(roster.contains(&PolicyKind::SpaceEffBY));
        assert!(roster.contains(&PolicyKind::Gds));
        assert!(roster.contains(&PolicyKind::Static));
        assert!(roster.contains(&PolicyKind::NoCache));
    }

    const ALL: [PolicyKind; 13] = [
        PolicyKind::RateProfile,
        PolicyKind::OnlineBY,
        PolicyKind::OnlineBYMarking,
        PolicyKind::SpaceEffBY,
        PolicyKind::Gds,
        PolicyKind::Gdsp,
        PolicyKind::Lru,
        PolicyKind::Lfu,
        PolicyKind::LruK,
        PolicyKind::Lff,
        PolicyKind::GdStar,
        PolicyKind::Static,
        PolicyKind::NoCache,
    ];

    #[test]
    fn build_produces_named_policies() {
        for kind in ALL {
            let p = build_policy(kind, Bytes::mib(1), &[], 7);
            assert_eq!(p.name(), kind.label(), "{kind:?}");
        }
    }

    #[test]
    fn uniform_cost_adapter_blinds_fetch_costs() {
        use byc_core::access::Access;
        use byc_core::policy::CachePolicy as _;
        use byc_types::{ObjectId, Tick};

        // A recording policy that checks what it is shown.
        struct Probe {
            saw: Vec<(u64, u64, u64)>,
        }
        impl CachePolicy for Probe {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn on_access(&mut self, a: &Access) -> byc_core::policy::Decision {
                self.saw
                    .push((a.size.raw(), a.fetch_cost.raw(), a.yield_bytes.raw()));
                byc_core::policy::Decision::load()
            }
            fn contains(&self, _: ObjectId) -> bool {
                false
            }
            fn used(&self) -> Bytes {
                Bytes::ZERO
            }
            fn capacity(&self) -> Bytes {
                Bytes::ZERO
            }
            fn cached_objects(&self) -> Vec<ObjectId> {
                vec![]
            }
        }

        let mut adapter = UniformCostAdapter::new(Probe { saw: vec![] });
        adapter.on_access(&Access {
            object: ObjectId::new(0),
            time: Tick::ZERO,
            yield_bytes: Bytes::new(5), // yield is raw — never priced
            size: Bytes::new(100),
            fetch_cost: Bytes::new(400), // expensive server: 4x link
        });
        // The policy sees uniform economics: fetch = size, yield as-is.
        assert_eq!(adapter.inner().saw, vec![(100, 100, 5)]);

        // A uniform link passes through untouched.
        let mut adapter = UniformCostAdapter::new(Probe { saw: vec![] });
        adapter.on_access(&Access {
            object: ObjectId::new(0),
            time: Tick::ZERO,
            yield_bytes: Bytes::new(5),
            size: Bytes::new(100),
            fetch_cost: Bytes::new(100),
        });
        assert_eq!(adapter.inner().saw, vec![(100, 100, 5)]);
    }

    #[test]
    fn only_no_cache_ignores_capacity() {
        for kind in ALL {
            assert_eq!(
                kind.ignores_capacity(),
                kind == PolicyKind::NoCache,
                "{kind:?}"
            );
        }
    }

    #[test]
    fn bypass_yield_classification() {
        assert!(PolicyKind::RateProfile.is_bypass_yield());
        assert!(PolicyKind::SpaceEffBY.is_bypass_yield());
        assert!(!PolicyKind::Gds.is_bypass_yield());
        assert!(!PolicyKind::NoCache.is_bypass_yield());
    }
}
