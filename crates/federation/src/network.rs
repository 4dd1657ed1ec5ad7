//! First-class WAN cost models for the federation's server links.
//!
//! The paper's BYHR/BYU discussion (§3) is about *non-uniform* networks:
//! each back-end server sits behind its own WAN path, so a byte shipped
//! from a distant server costs more than one from a well-connected
//! replica. A [`NetworkModel`] prices every object's traffic — bypass
//! yield and cache-load fetches alike — by its home server's link cost.
//! The replay kernel (`ReplayEngine`, in [`crate::engine`]) applies the
//! model when it constructs each [`Access`](byc_core::access::Access),
//! so policies, observers, and the auditor all see consistently priced
//! traffic without any per-call-site scaling.
//!
//! [`Uniform`] is the BYU regime (every link costs 1·bytes) and is the
//! default everywhere; [`PerServerMultipliers`] is the BYHR regime on
//! heterogeneous links.

use byc_types::{Bytes, Error, Result, ServerId};

/// Prices WAN traffic per back-end server link.
///
/// Implementations must be `Sync`: sweeps replay many policies in
/// parallel against one shared model.
pub trait NetworkModel: Sync {
    /// Human-readable model name for reports.
    fn name(&self) -> &str;

    /// The link-cost multiplier of `server`. Must be positive; `1.0`
    /// means raw bytes, `> 1.0` a distant or congested server, `< 1.0` a
    /// well-connected replica.
    fn multiplier(&self, server: ServerId) -> f64;

    /// WAN cost of shipping `bytes` over `server`'s link.
    ///
    /// A multiplier of exactly `1.0` must return `bytes` unchanged:
    /// `Bytes::scale` rounds through `f64` and would perturb quantities
    /// above 2^53, and the uniform regime must stay bit-identical to
    /// unpriced replay.
    fn price(&self, server: ServerId, bytes: Bytes) -> Bytes {
        let m = self.multiplier(server);
        if m == 1.0 {
            bytes
        } else {
            bytes.scale(m)
        }
    }
}

/// The uniform (BYU) network: every server link costs `1.0`. Pricing is
/// the identity, so replays under `Uniform` are bit-identical to the
/// pre-network-model accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Uniform;

/// A shared instance for default arguments (`&UNIFORM` coerces to
/// `&dyn NetworkModel` without a borrow-lifetime dance).
pub static UNIFORM: Uniform = Uniform;

impl NetworkModel for Uniform {
    fn name(&self) -> &str {
        "uniform"
    }

    fn multiplier(&self, _server: ServerId) -> f64 {
        1.0
    }

    fn price(&self, _server: ServerId, bytes: Bytes) -> Bytes {
        bytes
    }
}

/// The heterogeneous (BYHR) network: an explicit multiplier per server.
///
/// Servers beyond the end of the list cycle through it, so a short
/// pattern like `[1.0, 2.0]` prices any federation size — handy for the
/// CLI, where `--servers 8 --cost-multipliers 1,2` alternates cheap and
/// expensive links.
#[derive(Clone, Debug, PartialEq)]
pub struct PerServerMultipliers {
    multipliers: Vec<f64>,
}

impl PerServerMultipliers {
    /// Build from one multiplier per server (cycled when the federation
    /// has more servers than entries).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when the list is empty or any multiplier
    /// is not strictly positive and finite.
    pub fn new(multipliers: Vec<f64>) -> Result<Self> {
        if multipliers.is_empty() {
            return Err(Error::InvalidConfig(
                "per-server cost multipliers must not be empty".into(),
            ));
        }
        for &m in &multipliers {
            if !(m.is_finite() && m > 0.0) {
                return Err(Error::InvalidConfig(format!(
                    "cost multiplier {m} is not a positive finite number"
                )));
            }
        }
        Ok(Self { multipliers })
    }

    /// The configured multipliers, in server order.
    pub fn multipliers(&self) -> &[f64] {
        &self.multipliers
    }
}

impl NetworkModel for PerServerMultipliers {
    fn name(&self) -> &str {
        "per-server"
    }

    fn multiplier(&self, server: ServerId) -> f64 {
        self.multipliers[server.index() % self.multipliers.len()]
    }
}

/// One caching tier of a [`Topology`]: a display name plus the capacity
/// scale sweeps apply when sizing this tier's cache relative to the site
/// tier (regional caches are typically several times larger than the
/// site cache in front of them).
#[derive(Clone, Debug, PartialEq)]
pub struct TierSpec {
    /// Display name (`"site"`, `"regional"`, ...), used in per-tier
    /// reports and sweep labels.
    pub name: String,
    /// Multiplier applied to the swept cache capacity for this tier.
    /// Must be strictly positive and finite.
    pub capacity_scale: f64,
}

impl TierSpec {
    /// A tier spec with the given name and capacity scale.
    pub fn new(name: impl Into<String>, capacity_scale: f64) -> Self {
        TierSpec {
            name: name.into(),
            capacity_scale,
        }
    }
}

/// A linear hierarchy of caching tiers, each behind its own priced link.
///
/// Tiers are indexed bottom-up: tier 0 sits nearest the clients (the
/// site cache), the last tier is the outermost cache, and `links[t]` is
/// the WAN edge *above* tier `t` — so the last link is the origin link.
/// The client↔tier-0 hop is a free LAN and is not modelled.
///
/// A slice consults tier 0 first; a *bypass* forwards the request one
/// hop up the hierarchy, a *hit* serves it from that tier, and a *load*
/// fetches the whole object from the origin through every link at or
/// above the loading tier. The single-tier [`Topology::flat`] is the
/// degenerate case and reproduces the flat [`NetworkModel`] accounting
/// bit-identically (the equivalence the proptests pin).
pub struct Topology {
    name: String,
    tiers: Vec<TierSpec>,
    links: Vec<Box<dyn NetworkModel + Send>>,
}

impl std::fmt::Debug for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Topology")
            .field("name", &self.name)
            .field("tiers", &self.tiers)
            .field(
                "links",
                &self.links.iter().map(|l| l.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Topology {
    /// Build a topology from explicit tiers and links. `links[t]` prices
    /// the edge above tier `t`; the last link is the origin link.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when the tier list is empty, the tier and
    /// link counts differ, or any capacity scale is not strictly positive
    /// and finite.
    pub fn new(
        name: impl Into<String>,
        tiers: Vec<TierSpec>,
        links: Vec<Box<dyn NetworkModel + Send>>,
    ) -> Result<Self> {
        if tiers.is_empty() {
            return Err(Error::InvalidConfig(
                "a topology needs at least one caching tier".into(),
            ));
        }
        if tiers.len() != links.len() {
            return Err(Error::InvalidConfig(format!(
                "topology has {} tiers but {} links (each tier needs exactly the link above it)",
                tiers.len(),
                links.len()
            )));
        }
        for tier in &tiers {
            if !(tier.capacity_scale.is_finite() && tier.capacity_scale > 0.0) {
                return Err(Error::InvalidConfig(format!(
                    "tier {:?} capacity scale {} is not a positive finite number",
                    tier.name, tier.capacity_scale
                )));
            }
        }
        Ok(Topology {
            name: name.into(),
            tiers,
            links,
        })
    }

    /// The degenerate single-tier topology: one site cache behind one
    /// link — exactly today's flat WAN. Replaying over it reproduces the
    /// flat `CostReport` bit-identically.
    pub fn flat(link: Box<dyn NetworkModel + Send>) -> Self {
        Topology {
            name: "flat".into(),
            tiers: vec![TierSpec::new("site", 1.0)],
            links: vec![link],
        }
    }

    /// A site cache in front of a regional cache: the inner site↔regional
    /// link prices every server at `inner_multiplier`, the regional↔origin
    /// link is `origin`. The regional tier carries 4× the site capacity.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when `inner_multiplier` is not strictly
    /// positive and finite.
    pub fn two_tier(inner_multiplier: f64, origin: Box<dyn NetworkModel + Send>) -> Result<Self> {
        let inner = PerServerMultipliers::new(vec![inner_multiplier])?;
        Topology::new(
            "two-tier",
            vec![TierSpec::new("site", 1.0), TierSpec::new("regional", 4.0)],
            vec![Box::new(inner), origin],
        )
    }

    /// Site, regional, and national caches with inner link multipliers
    /// `site_multiplier` (site↔regional) and `regional_multiplier`
    /// (regional↔national); the national↔origin link is `origin`.
    /// Capacity scales 1× / 4× / 16×.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when either inner multiplier is not
    /// strictly positive and finite.
    pub fn three_tier(
        site_multiplier: f64,
        regional_multiplier: f64,
        origin: Box<dyn NetworkModel + Send>,
    ) -> Result<Self> {
        let site = PerServerMultipliers::new(vec![site_multiplier])?;
        let regional = PerServerMultipliers::new(vec![regional_multiplier])?;
        Topology::new(
            "three-tier",
            vec![
                TierSpec::new("site", 1.0),
                TierSpec::new("regional", 4.0),
                TierSpec::new("national", 16.0),
            ],
            vec![Box::new(site), Box::new(regional), origin],
        )
    }

    /// The topology's display name (`"flat"`, `"two-tier"`, ...).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The caching tiers, bottom-up (index 0 is nearest the clients).
    pub fn tiers(&self) -> &[TierSpec] {
        &self.tiers
    }

    /// Number of caching tiers (== number of links).
    pub fn depth(&self) -> usize {
        self.tiers.len()
    }

    /// WAN cost of shipping `bytes` for `server` over the link above
    /// tier `link`. Out-of-range links carry no traffic and price zero.
    pub fn link_price(&self, link: usize, server: ServerId, bytes: Bytes) -> Bytes {
        self.links
            .get(link)
            .map_or(Bytes::ZERO, |l| l.price(server, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_identity_even_on_huge_quantities() {
        let huge = Bytes::new(u64::MAX - 3); // would not survive an f64 roundtrip
        assert_eq!(Uniform.price(ServerId::new(0), huge), huge);
        assert_eq!(Uniform.multiplier(ServerId::new(9)), 1.0);
    }

    #[test]
    fn per_server_prices_by_home_link() {
        let net = PerServerMultipliers::new(vec![1.0, 2.0, 4.0]).unwrap();
        assert_eq!(
            net.price(ServerId::new(0), Bytes::new(100)),
            Bytes::new(100)
        );
        assert_eq!(
            net.price(ServerId::new(1), Bytes::new(100)),
            Bytes::new(200)
        );
        assert_eq!(
            net.price(ServerId::new(2), Bytes::new(100)),
            Bytes::new(400)
        );
    }

    #[test]
    fn per_server_cycles_past_the_end() {
        let net = PerServerMultipliers::new(vec![1.0, 3.0]).unwrap();
        assert_eq!(net.multiplier(ServerId::new(2)), 1.0);
        assert_eq!(net.multiplier(ServerId::new(5)), 3.0);
    }

    #[test]
    fn unit_multiplier_is_exact() {
        // scale(1.0) rounds through f64; price must not.
        let net = PerServerMultipliers::new(vec![1.0]).unwrap();
        let huge = Bytes::new((1u64 << 60) + 1);
        assert_eq!(net.price(ServerId::new(0), huge), huge);
    }

    #[test]
    fn invalid_multipliers_rejected() {
        assert!(PerServerMultipliers::new(vec![]).is_err());
        assert!(PerServerMultipliers::new(vec![0.0]).is_err());
        assert!(PerServerMultipliers::new(vec![-1.0]).is_err());
        assert!(PerServerMultipliers::new(vec![f64::NAN]).is_err());
        assert!(PerServerMultipliers::new(vec![f64::INFINITY]).is_err());
    }

    #[test]
    fn flat_topology_prices_like_its_single_link() {
        let topo = Topology::flat(Box::new(Uniform));
        assert_eq!(topo.name(), "flat");
        assert_eq!(topo.depth(), 1);
        let huge = Bytes::new(u64::MAX - 3);
        // One link, the identity under Uniform even on f64-unsafe
        // quantities; there is no link above it.
        assert_eq!(topo.link_price(0, ServerId::new(0), huge), huge);
        assert_eq!(topo.link_price(1, ServerId::new(0), huge), Bytes::ZERO);
    }

    #[test]
    fn tiered_suffix_and_prefix_sums() {
        let topo = Topology::three_tier(0.1, 0.25, Box::new(Uniform)).unwrap();
        assert_eq!(topo.depth(), 3);
        let s = ServerId::new(0);
        let b = Bytes::new(1000);
        // Links price 0.1, 0.25, 1.0 bottom-up.
        assert_eq!(topo.link_price(0, s, b), Bytes::new(100));
        assert_eq!(topo.link_price(1, s, b), Bytes::new(250));
        assert_eq!(topo.link_price(2, s, b), Bytes::new(1000));
        let sum = |links: std::ops::Range<usize>| -> Bytes {
            links.map(|l| topo.link_price(l, s, b)).sum()
        };
        // A fetch from the site tier crosses every link; from the
        // national tier only the origin link.
        assert_eq!(sum(0..3), Bytes::new(1350));
        assert_eq!(sum(1..3), Bytes::new(1250));
        assert_eq!(sum(2..3), Bytes::new(1000));
        // A hit at the national tier relays down over the two inner links.
        assert_eq!(sum(0..2), Bytes::new(350));
        assert_eq!(sum(0..1), Bytes::new(100));
        // Out-of-range links carry no traffic.
        assert_eq!(topo.link_price(7, s, b), Bytes::ZERO);
    }

    #[test]
    fn invalid_topologies_rejected() {
        assert!(Topology::new("x", vec![], vec![]).is_err());
        assert!(Topology::new(
            "x",
            vec![TierSpec::new("site", 1.0)],
            vec![Box::new(Uniform), Box::new(Uniform)],
        )
        .is_err());
        assert!(Topology::new(
            "x",
            vec![TierSpec::new("site", 0.0)],
            vec![Box::new(Uniform)],
        )
        .is_err());
        assert!(Topology::two_tier(-1.0, Box::new(Uniform)).is_err());
        assert!(Topology::three_tier(0.1, f64::NAN, Box::new(Uniform)).is_err());
    }

    #[test]
    fn presets_name_their_tiers() {
        let two = Topology::two_tier(0.25, Box::new(Uniform)).unwrap();
        assert_eq!(
            two.tiers()
                .iter()
                .map(|t| t.name.as_str())
                .collect::<Vec<_>>(),
            ["site", "regional"]
        );
        let three = Topology::three_tier(0.1, 0.25, Box::new(Uniform)).unwrap();
        assert_eq!(three.name(), "three-tier");
        assert_eq!(three.tiers()[2].capacity_scale, 16.0);
    }
}
