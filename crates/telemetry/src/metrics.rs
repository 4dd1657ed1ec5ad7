//! The deterministic metrics registry.
//!
//! Counters, gauges, and fixed-bucket histograms keyed by
//! `(policy, server, object-class)`. Everything here is replay-state:
//! no wall clocks, no OS entropy, and only ordered containers
//! (`BTreeMap`), so the registry a replay produces — and therefore every
//! export rendered from it — is a pure function of the trace, the
//! policy, and the network model. That is what lets the test suite
//! assert registry totals against the engine's `CostReport` exactly.

use byc_federation::QueryWindow;
use byc_types::{Bytes, ServerId};
use std::collections::BTreeMap;

/// Coarse size class of a cacheable object — the third metric dimension
/// next to policy and home server.
///
/// The paper's §6.1 asks "what class of objects perform well in a
/// bypass-yield cache?"; slicing decision counters by size band answers
/// it per run. Bands are fixed powers of two so the classification is
/// stable across catalogs and scales.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ObjectClass {
    /// Under 1 MiB.
    Tiny,
    /// 1 MiB up to 64 MiB.
    Small,
    /// 64 MiB up to 1 GiB.
    Medium,
    /// 1 GiB up to 16 GiB.
    Large,
    /// 16 GiB and above.
    Huge,
}

impl ObjectClass {
    /// Classify an object by its cache footprint.
    pub fn of(size: Bytes) -> ObjectClass {
        let b = size.raw();
        if b < 1 << 20 {
            ObjectClass::Tiny
        } else if b < 64 << 20 {
            ObjectClass::Small
        } else if b < 1 << 30 {
            ObjectClass::Medium
        } else if b < 16 << 30 {
            ObjectClass::Large
        } else {
            ObjectClass::Huge
        }
    }

    /// Label used in exports (`class="small"`).
    pub const fn label(self) -> &'static str {
        match self {
            ObjectClass::Tiny => "tiny",
            ObjectClass::Small => "small",
            ObjectClass::Medium => "medium",
            ObjectClass::Large => "large",
            ObjectClass::Huge => "huge",
        }
    }

    /// Every class, in order — exports iterate this for stable layouts.
    pub const ALL: [ObjectClass; 5] = [
        ObjectClass::Tiny,
        ObjectClass::Small,
        ObjectClass::Medium,
        ObjectClass::Large,
        ObjectClass::Huge,
    ];
}

/// Fixed bucket bounds for byte-valued histograms: powers of four from
/// 1 KiB to 1 TiB. Fixed (rather than adaptive) bounds keep merges
/// trivially exact and exports comparable across runs.
pub const BYTE_BUCKETS: [u64; 16] = [
    1 << 10,
    1 << 12,
    1 << 14,
    1 << 16,
    1 << 18,
    1 << 20,
    1 << 22,
    1 << 24,
    1 << 26,
    1 << 28,
    1 << 30,
    1 << 32,
    1 << 34,
    1 << 36,
    1 << 38,
    1 << 40,
];

/// Bucket bounds for virtual-latency histograms (reuse gaps, measured in
/// queries — the workload's only clock): powers of two up to 64Ki.
pub const GAP_BUCKETS: [u64; 17] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536,
];

/// Bucket bounds for small-count histograms (object slices per query).
pub const COUNT_BUCKETS: [u64; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// The bucket table of a [`Histogram`]: one of the three fixed tables
/// above.
///
/// Each table is a geometric run of powers of two, `2^first`,
/// `2^(first + step)`, … with `step = 2^shift`, so a value's bucket
/// follows from its bit length: no scan of the bounds, and no lookup
/// table per histogram. The fields are private, so no histogram is
/// built over a table the computation does not fit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Buckets {
    bounds: &'static [u64],
    /// Exponent of the first bound.
    first: u32,
    /// Base-2 logarithm of the exponent step between bounds.
    shift: u32,
}

impl Buckets {
    /// [`BYTE_BUCKETS`]: `2^10, 2^12, …, 2^40`.
    pub const BYTES: Buckets = Buckets {
        bounds: &BYTE_BUCKETS,
        first: 10,
        shift: 1,
    };
    /// [`GAP_BUCKETS`]: `2^0, 2^1, …, 2^16`.
    pub const GAPS: Buckets = Buckets {
        bounds: &GAP_BUCKETS,
        first: 0,
        shift: 0,
    };
    /// [`COUNT_BUCKETS`]: `2^0, 2^1, …, 2^7`.
    pub const COUNTS: Buckets = Buckets {
        bounds: &COUNT_BUCKETS,
        first: 0,
        shift: 0,
    };

    /// The bucket upper bounds.
    pub const fn bounds(self) -> &'static [u64] {
        self.bounds
    }

    /// The index of the first bound `>= value`, or `bounds.len()` (the
    /// overflow bucket) when `value` exceeds them all.
    #[inline]
    fn index(self, value: u64) -> usize {
        // The least `e` with `value <= 2^e` (0 for 0 and 1).
        let e = u64::BITS - value.saturating_sub(1).leading_zeros();
        // The least `i` with `e <= first + i * 2^shift`; `e <= 64`.
        let i = (e.saturating_sub(self.first) + (1 << self.shift) - 1) >> self.shift;
        (i as usize).min(self.bounds.len())
    }
}

/// A fixed-bucket histogram with deterministic quantile estimation.
///
/// Values above the last bound land in an overflow bucket. Quantiles are
/// estimated by linear interpolation inside the containing bucket —
/// coarse, but deterministic and mergeable, which is what the registry
/// needs (sub-bucket exactness is the event log's job).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: Buckets,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Histogram {
    /// An empty histogram over one of the fixed bucket tables.
    pub fn new(buckets: Buckets) -> Self {
        Histogram {
            buckets,
            counts: vec![0; buckets.bounds.len() + 1],
            count: 0,
            sum: 0,
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        if let Some(c) = self.counts.get_mut(self.buckets.index(value)) {
            *c += 1;
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The fixed bucket upper bounds.
    pub fn bounds(&self) -> &'static [u64] {
        self.buckets.bounds
    }

    /// Per-bucket counts; the final entry is the overflow bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Cumulative count up to and including bucket `idx` (Prometheus
    /// `le` semantics).
    pub fn cumulative(&self, idx: usize) -> u64 {
        self.counts.iter().take(idx + 1).sum()
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// within the containing bucket. Returns 0 on an empty histogram;
    /// observations in the overflow bucket report the last bound.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * self.count as f64;
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cum + c;
            if (next as f64) >= rank {
                let bounds = self.buckets.bounds;
                if idx >= bounds.len() {
                    // Overflow bucket: the last bound is the best
                    // deterministic lower estimate we have.
                    return bounds.last().copied().unwrap_or(0);
                }
                let lo = if idx == 0 { 0 } else { bounds[idx - 1] };
                let hi = bounds[idx];
                let within = ((rank - cum as f64) / c as f64).clamp(0.0, 1.0);
                // The interpolated offset is bounded by the bucket width
                // (`within` is clamped to [0, 1]), so the cast is lossless
                // for every bound table in this module.
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let offset = ((hi - lo) as f64 * within).round() as u64;
                return lo + offset;
            }
            cum = next;
        }
        self.buckets.bounds.last().copied().unwrap_or(0)
    }

    /// Fold another histogram into this one.
    ///
    /// # Panics
    ///
    /// Never panics in practice: histograms over different bucket tables
    /// are merged by count/sum only (bucket counts are kept from `self`),
    /// which cannot happen for registry-internal merges where each
    /// metric has one table.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if self.buckets == other.buckets {
            for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                *a += b;
            }
        }
    }
}

/// A last-value + peak gauge (cache occupancy).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Gauge {
    /// Most recently observed value.
    pub last: u64,
    /// Largest value ever observed.
    pub peak: u64,
}

impl Gauge {
    /// Observe a new value.
    pub fn set(&mut self, value: u64) {
        self.last = value;
        self.peak = self.peak.max(value);
    }

    /// Fold another gauge in: `last` follows the other (later) gauge,
    /// `peak` is the maximum of both.
    pub fn merge(&mut self, other: &Gauge) {
        self.last = other.last;
        self.peak = self.peak.max(other.peak);
    }
}

/// One metric series: the `(server, object-class, tier)` cell under a
/// policy. `tier` comes last so flat-topology registries (always tier
/// 0) keep their historical iteration order byte-for-byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeriesKey {
    /// The object's home server.
    pub server: ServerId,
    /// The object's size class.
    pub class: ObjectClass,
    /// The caching tier that emitted the event (0 = site; always 0 on a
    /// flat topology).
    pub tier: u32,
}

/// Counters and distributions of one series.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeriesMetrics {
    /// Decision counters and the `D_S`/`D_L`/`D_C` byte split.
    pub window: QueryWindow,
    /// Distribution of delivered bytes per access.
    pub delivered: Histogram,
    /// Distribution of WAN bytes per *WAN-touching* access (hits are
    /// free and excluded, so the quantiles describe actual traffic).
    pub wan: Histogram,
}

impl SeriesMetrics {
    /// An empty series.
    pub fn new() -> Self {
        SeriesMetrics {
            window: QueryWindow::default(),
            delivered: Histogram::new(Buckets::BYTES),
            wan: Histogram::new(Buckets::BYTES),
        }
    }

    /// Fold another series into this one.
    pub fn merge(&mut self, other: &SeriesMetrics) {
        self.window.merge(&other.window);
        self.delivered.merge(&other.delivered);
        self.wan.merge(&other.wan);
    }
}

impl Default for SeriesMetrics {
    fn default() -> Self {
        Self::new()
    }
}

/// Everything one policy's replay(s) accumulated.
#[derive(Clone, Debug, PartialEq)]
pub struct PolicyMetrics {
    /// Policy display label (the registry key).
    pub policy: String,
    /// Queries replayed.
    pub queries: u64,
    /// Object accesses observed: one per tier policy decision.
    pub accesses: u64,
    /// Per-`(server, class)` series, in key order.
    pub series: BTreeMap<SeriesKey, SeriesMetrics>,
    /// Cache occupancy in bytes (last + peak), sampled after every
    /// decision.
    pub occupancy: Gauge,
    /// Distribution of cacheable object slices per query (one per slice,
    /// however many tiers its decision walk consulted).
    pub slices_per_query: Histogram,
    /// Distribution of per-object reuse gaps in queries (virtual
    /// latency: the only clock the workload has), one per slice after
    /// the object's first.
    pub reuse_gap: Histogram,
    /// Deterministic phase accounting per episode of the replay.
    pub episodes: crate::observer::PhaseProfile,
}

impl PolicyMetrics {
    /// An empty snapshot for `policy`.
    pub fn new(policy: &str) -> Self {
        PolicyMetrics {
            policy: policy.to_string(),
            queries: 0,
            accesses: 0,
            series: BTreeMap::new(),
            occupancy: Gauge::default(),
            slices_per_query: Histogram::new(Buckets::COUNTS),
            reuse_gap: Histogram::new(Buckets::GAPS),
            episodes: crate::observer::PhaseProfile::default(),
        }
    }

    /// Sum of every series window: the policy's whole-replay totals.
    /// Equal to the run's `CostReport` byte columns by construction
    /// (both absorb the same event stream).
    pub fn totals(&self) -> QueryWindow {
        let mut total = QueryWindow::default();
        for s in self.series.values() {
            total.merge(&s.window);
        }
        total
    }

    /// Fold another snapshot of the *same* policy into this one.
    pub fn merge(&mut self, other: &PolicyMetrics) {
        self.queries += other.queries;
        self.accesses += other.accesses;
        for (key, series) in &other.series {
            self.series.entry(*key).or_default().merge(series);
        }
        self.occupancy.merge(&other.occupancy);
        self.slices_per_query.merge(&other.slices_per_query);
        self.reuse_gap.merge(&other.reuse_gap);
        self.episodes.merge(&other.episodes);
    }
}

/// The registry: per-policy metric snapshots, keyed and iterated in
/// policy-label order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    policies: BTreeMap<String, PolicyMetrics>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Fold a policy snapshot in, merging with any existing snapshot
    /// under the same label.
    pub fn absorb(&mut self, metrics: PolicyMetrics) {
        match self.policies.get_mut(&metrics.policy) {
            Some(existing) => existing.merge(&metrics),
            None => {
                self.policies.insert(metrics.policy.clone(), metrics);
            }
        }
    }

    /// The snapshot for one policy label.
    pub fn get(&self, policy: &str) -> Option<&PolicyMetrics> {
        self.policies.get(policy)
    }

    /// Iterate snapshots in policy-label order.
    pub fn iter(&self) -> impl Iterator<Item = &PolicyMetrics> {
        self.policies.values()
    }

    /// Number of policies tracked.
    pub fn len(&self) -> usize {
        self.policies.len()
    }

    /// True iff no snapshot was absorbed yet.
    pub fn is_empty(&self) -> bool {
        self.policies.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_class_bands() {
        assert_eq!(ObjectClass::of(Bytes::new(0)), ObjectClass::Tiny);
        assert_eq!(ObjectClass::of(Bytes::mib(1)), ObjectClass::Small);
        assert_eq!(ObjectClass::of(Bytes::mib(63)), ObjectClass::Small);
        assert_eq!(ObjectClass::of(Bytes::mib(64)), ObjectClass::Medium);
        assert_eq!(ObjectClass::of(Bytes::gib(1)), ObjectClass::Large);
        assert_eq!(ObjectClass::of(Bytes::gib(16)), ObjectClass::Huge);
        // Bands are ordered and exhaustive.
        for w in ObjectClass::ALL.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn histogram_buckets_and_counts() {
        let mut h = Histogram::new(Buckets::GAPS);
        assert_eq!(h.quantile(0.5), 0);
        for v in [1, 1, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 107);
        // 1 ≤ bound 1 (idx 0) twice; 2 ≤ bound 2 (idx 1); 3 ≤ 4 (idx 2);
        // 100 ≤ 128 (idx 7).
        assert_eq!(h.bucket_counts()[0], 2);
        assert_eq!(h.bucket_counts()[1], 1);
        assert_eq!(h.bucket_counts()[2], 1);
        assert_eq!(h.bucket_counts()[7], 1);
        assert_eq!(h.cumulative(2), 4);
    }

    #[test]
    fn histogram_overflow_bucket() {
        let mut h = Histogram::new(Buckets::COUNTS);
        h.record(1_000_000);
        assert_eq!(h.bucket_counts()[COUNT_BUCKETS.len()], 1);
        // Overflow observations quote the last finite bound.
        assert_eq!(h.quantile(0.99), 128);
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let mut h = Histogram::new(Buckets::GAPS);
        // 100 observations of exactly 8 → everything in the (4, 8] bucket.
        for _ in 0..100 {
            h.record(8);
        }
        // Median interpolates to the middle of (4, 8].
        assert_eq!(h.quantile(0.5), 6);
        assert_eq!(h.quantile(1.0), 8);
        assert!(h.quantile(0.0) >= 4);
        // Quantiles are monotone in q.
        let qs: Vec<u64> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
            .iter()
            .map(|&q| h.quantile(q))
            .collect();
        for w in qs.windows(2) {
            assert!(w[0] <= w[1], "{qs:?}");
        }
    }

    #[test]
    fn histogram_quantiles_split_across_buckets() {
        let mut h = Histogram::new(Buckets::GAPS);
        // Half the mass at 1, half at 1024.
        for _ in 0..50 {
            h.record(1);
        }
        for _ in 0..50 {
            h.record(1024);
        }
        assert_eq!(h.quantile(0.25), 1);
        let p75 = h.quantile(0.75);
        assert!((513..=1024).contains(&p75), "p75 = {p75}");
        assert_eq!(h.quantile(0.5), 1);
    }

    #[test]
    fn histogram_merge_is_exact() {
        let mut a = Histogram::new(Buckets::BYTES);
        let mut b = Histogram::new(Buckets::BYTES);
        let mut whole = Histogram::new(Buckets::BYTES);
        for v in [500u64, 2_000, 4_000_000] {
            a.record(v);
            whole.record(v);
        }
        for v in [1u64 << 35, 77] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn gauge_tracks_last_and_peak() {
        let mut g = Gauge::default();
        g.set(10);
        g.set(100);
        g.set(40);
        assert_eq!(g.last, 40);
        assert_eq!(g.peak, 100);
        let mut other = Gauge::default();
        other.set(60);
        g.merge(&other);
        assert_eq!(g.last, 60);
        assert_eq!(g.peak, 100);
    }

    #[test]
    fn registry_merges_same_policy() {
        let key = SeriesKey {
            server: ServerId::new(0),
            class: ObjectClass::Small,
            tier: 0,
        };
        let mut a = PolicyMetrics::new("GDS");
        a.queries = 10;
        a.series.entry(key).or_default().window.hits = 3;
        let mut b = PolicyMetrics::new("GDS");
        b.queries = 5;
        b.series.entry(key).or_default().window.hits = 2;
        let mut reg = MetricsRegistry::new();
        reg.absorb(a);
        reg.absorb(b);
        assert_eq!(reg.len(), 1);
        let merged = reg.get("GDS").unwrap();
        assert_eq!(merged.queries, 15);
        assert_eq!(merged.series[&key].window.hits, 5);
        assert_eq!(merged.totals().hits, 5);
    }

    #[test]
    fn registry_iterates_in_label_order() {
        let mut reg = MetricsRegistry::new();
        reg.absorb(PolicyMetrics::new("LRU"));
        reg.absorb(PolicyMetrics::new("GDS"));
        let labels: Vec<&str> = reg.iter().map(|p| p.policy.as_str()).collect();
        assert_eq!(labels, ["GDS", "LRU"]);
    }
}
