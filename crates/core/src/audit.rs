//! Runtime decision-stream auditing.
//!
//! A [`PolicyAuditor`] wraps any [`CachePolicy`] and validates the stream
//! of [`Decision`]s it emits against a shadow model of the cache contents:
//!
//! * a `Hit` is only legal for an object that was cached before the access;
//! * a `Load` is only legal for an object that was *not* cached, whose
//!   planned evictions are distinct currently-cached objects, and which
//!   fits within capacity once those evictions are applied;
//! * after every access the policy's own `used()` / `contains()` answers
//!   must agree with the shadow model;
//! * periodically (and in [`PolicyAuditor::finish`]) the full cached-object
//!   set is cross-checked against [`CachePolicy::cached_objects`].
//!
//! The auditor also keeps the paper's delivery accounting — `D_C` (bytes
//! served from cache), `D_S` (bytes shipped by bypassing), `D_L` (bytes
//! fetched by loads) — so replays can assert the conservation law
//! `D_A = D_S + D_C` independently of the federation's own `CostReport`.
//!
//! Violations are *recorded*, never panicked on: callers decide whether to
//! `debug_assert!` on [`AuditReport::is_clean`] or surface the report. This
//! keeps the auditor usable from tests that deliberately corrupt state.

use std::collections::BTreeMap;

use byc_types::{Bytes, ObjectId};

use crate::access::Access;
use crate::policy::{CachePolicy, Decision};

/// At most this many violation messages are retained verbatim; the total
/// count keeps climbing so a flood is still visible.
pub const MAX_RECORDED_VIOLATIONS: usize = 32;

/// Every this many accesses the auditor cross-checks the policy's full
/// cached-object set against the shadow model (an O(n log n) deep check).
const DEEP_CHECK_PERIOD: u64 = 256;

/// What the auditor observed: decision counts, delivery accounting, and
/// any invariant violations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Accesses audited.
    pub accesses: u64,
    /// `Hit` decisions.
    pub hits: u64,
    /// `Bypass` decisions.
    pub bypasses: u64,
    /// `Load` decisions.
    pub loads: u64,
    /// Objects evicted across all loads.
    pub evictions: u64,
    /// `D_C`: bytes of yield served out of the cache (hits and loads).
    pub cache_served: Bytes,
    /// `D_S`: bytes of yield shipped over the WAN by bypassing.
    pub bypass_served: Bytes,
    /// `D_L`: bytes fetched over the WAN by loads.
    pub load_cost: Bytes,
    /// Full cached-set cross-checks performed.
    pub deep_checks: u64,
    /// Total invariant violations observed (recorded or not).
    pub violation_count: u64,
    /// The first [`MAX_RECORDED_VIOLATIONS`] violation messages.
    pub violations: Vec<String>,
}

impl AuditReport {
    /// True iff no invariant was ever violated.
    pub fn is_clean(&self) -> bool {
        self.violation_count == 0
    }

    /// `D_A`: total yield delivered to queries.
    pub fn delivered(&self) -> Bytes {
        self.cache_served + self.bypass_served
    }

    /// Total WAN traffic attributed to the policy: `D_S + D_L`.
    pub fn wan_cost(&self) -> Bytes {
        self.bypass_served + self.load_cost
    }

    /// A one-line summary suitable for logs.
    pub fn summary(&self) -> String {
        format!(
            "{} accesses ({} hit / {} bypass / {} load, {} evicted), \
             D_C={} D_S={} D_L={}, {} violation(s)",
            self.accesses,
            self.hits,
            self.bypasses,
            self.loads,
            self.evictions,
            self.cache_served,
            self.bypass_served,
            self.load_cost,
            self.violation_count,
        )
    }
}

/// The shadow-model checker behind [`PolicyAuditor`], usable on its own.
///
/// A `DecisionAuditor` owns no policy: callers feed it the `(access,
/// decision)` pairs of a replay via [`DecisionAuditor::observe`] together
/// with a borrow of the policy that produced them, and it validates the
/// stream against a shadow cache model rebuilt purely from decisions.
/// This is what lets the federation's replay engine audit *as an
/// observer* while the policy itself stays un-wrapped; [`PolicyAuditor`]
/// composes one of these with an owned policy for the wrapper-style API.
///
/// The shadow model assumes the cache starts empty. A policy whose cache
/// is warm before its first decision (e.g. a pre-populated `StaticCache`
/// with `charge_loads: false`) is outside the model and must not be
/// audited.
#[derive(Debug, Default)]
pub struct DecisionAuditor {
    enabled: bool,
    /// Shadow model: object -> size, rebuilt independently from the
    /// decision stream. `BTreeMap` keeps deep checks deterministic.
    shadow: BTreeMap<ObjectId, Bytes>,
    shadow_used: Bytes,
    report: AuditReport,
}

impl DecisionAuditor {
    /// An auditor with invariant checking enabled.
    pub fn new() -> Self {
        DecisionAuditor {
            enabled: true,
            ..DecisionAuditor::default()
        }
    }

    /// A pure pass-through: decisions are counted for the report but no
    /// invariants are checked and no shadow state is kept. Checking
    /// cannot be turned on later (the shadow model would be incomplete),
    /// so the choice is made at construction.
    pub fn pass_through() -> Self {
        DecisionAuditor::default()
    }

    /// True iff invariants are being checked (not a pass-through).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The report accumulated so far.
    pub fn report(&self) -> &AuditReport {
        &self.report
    }

    /// Run the final deep check against `policy` and take the completed
    /// report, leaving this auditor empty.
    pub fn finish(&mut self, policy: &dyn CachePolicy) -> AuditReport {
        if self.enabled {
            self.deep_check(policy);
        }
        std::mem::take(&mut self.report)
    }

    fn record_violation(&mut self, message: String) {
        self.report.violation_count += 1;
        if self.report.violations.len() < MAX_RECORDED_VIOLATIONS {
            self.report.violations.push(message);
        }
    }

    /// Validate one decision `policy` made for `access` and fold it into
    /// the shadow model. Call in decision order, once per access.
    pub fn observe(&mut self, access: &Access, decision: &Decision, policy: &dyn CachePolicy) {
        self.report.accesses += 1;
        if !self.enabled {
            self.count_only(access, decision);
            return;
        }
        let was_cached = self.shadow.contains_key(&access.object);
        self.audit_decision(access, decision, was_cached, policy);
        self.audit_post_state(access, policy);
        if self.report.accesses.is_multiple_of(DEEP_CHECK_PERIOD) {
            self.deep_check(policy);
        }
    }

    /// Record an invalidation: `removed` is what the policy answered.
    pub fn observe_invalidate(&mut self, object: ObjectId, removed: bool, policy_name: &str) {
        if !self.enabled {
            return;
        }
        let shadow_had = self.shadow.remove(&object);
        if let Some(size) = shadow_had {
            self.shadow_used -= size;
        }
        if removed != shadow_had.is_some() {
            self.record_violation(format!(
                "{policy_name}: invalidate({object}) returned {removed}, but \
                 the decision stream says cached={}",
                shadow_had.is_some()
            ));
        }
    }

    /// Pass-through accounting: tally the decision without checking it.
    fn count_only(&mut self, access: &Access, decision: &Decision) {
        match decision {
            Decision::Hit => {
                self.report.hits += 1;
                self.report.cache_served += access.yield_bytes;
            }
            Decision::Bypass => {
                self.report.bypasses += 1;
                self.report.bypass_served += access.yield_bytes;
            }
            Decision::Load { evictions } => {
                self.report.loads += 1;
                self.report.load_cost += access.fetch_cost;
                self.report.cache_served += access.yield_bytes;
                self.report.evictions += u64::try_from(evictions.len()).unwrap_or(u64::MAX);
            }
        }
    }

    /// Cross-check the policy's full cached-object set against the shadow
    /// model. O(n log n); run periodically and from [`Self::finish`].
    fn deep_check(&mut self, policy: &dyn CachePolicy) {
        self.report.deep_checks += 1;
        let mut actual = policy.cached_objects();
        actual.sort_unstable();
        actual.dedup();
        let expected: Vec<ObjectId> = self.shadow.keys().copied().collect();
        if actual != expected {
            let missing: Vec<&ObjectId> = expected
                .iter()
                .filter(|o| actual.binary_search(o).is_err())
                .collect();
            let extra: Vec<ObjectId> = actual
                .iter()
                .copied()
                .filter(|o| !self.shadow.contains_key(o))
                .collect();
            self.record_violation(format!(
                "cached-object set diverged from the decision stream: \
                 policy dropped {missing:?}, policy grew {extra:?}"
            ));
        }
        if policy.used() != self.shadow_used {
            self.record_violation(format!(
                "used() reports {} but the decision stream accounts for {}",
                policy.used(),
                self.shadow_used
            ));
        }
    }

    /// Validate one decision against the shadow model and apply its
    /// effects to it. `was_cached` is the shadow state before the access.
    fn audit_decision(
        &mut self,
        access: &Access,
        decision: &Decision,
        was_cached: bool,
        policy: &dyn CachePolicy,
    ) {
        match decision {
            Decision::Hit => {
                self.report.hits += 1;
                self.report.cache_served += access.yield_bytes;
                if !was_cached {
                    self.record_violation(format!(
                        "{}: Hit on {}, which was not cached",
                        policy.name(),
                        access.object
                    ));
                }
            }
            Decision::Bypass => {
                self.report.bypasses += 1;
                self.report.bypass_served += access.yield_bytes;
            }
            Decision::Load { evictions } => {
                self.report.loads += 1;
                self.report.load_cost += access.fetch_cost;
                self.report.cache_served += access.yield_bytes;
                if was_cached {
                    self.record_violation(format!(
                        "{}: Load of {}, which was already cached",
                        policy.name(),
                        access.object
                    ));
                }
                for &victim in evictions {
                    if victim == access.object {
                        self.record_violation(format!(
                            "{}: Load of {} lists itself as an eviction",
                            policy.name(),
                            access.object
                        ));
                        continue;
                    }
                    match self.shadow.remove(&victim) {
                        Some(size) => {
                            self.shadow_used -= size;
                            self.report.evictions += 1;
                        }
                        None => self.record_violation(format!(
                            "{}: Load of {} evicts {victim}, which was \
                             not cached (or listed twice)",
                            policy.name(),
                            access.object
                        )),
                    }
                }
                if self.shadow_used + access.size > policy.capacity() {
                    self.record_violation(format!(
                        "{}: Load of {} ({}) overflows capacity {}: {} \
                         used after planned evictions",
                        policy.name(),
                        access.object,
                        access.size,
                        policy.capacity(),
                        self.shadow_used
                    ));
                }
                self.shadow.insert(access.object, access.size);
                self.shadow_used += access.size;
            }
        }
    }

    /// Verify the policy's cheap introspection agrees with the shadow
    /// model after the decision took effect.
    fn audit_post_state(&mut self, access: &Access, policy: &dyn CachePolicy) {
        let shadow_has = self.shadow.contains_key(&access.object);
        if policy.contains(access.object) != shadow_has {
            self.record_violation(format!(
                "{}: contains({}) disagrees with the decision stream \
                 after the access (expected {shadow_has})",
                policy.name(),
                access.object
            ));
        }
        if policy.used() != self.shadow_used {
            self.record_violation(format!(
                "{}: used() reports {} after serving {}, but the \
                 decision stream accounts for {}",
                policy.name(),
                policy.used(),
                access.object,
                self.shadow_used
            ));
        }
    }
}

/// A [`CachePolicy`] wrapper that validates the wrapped policy's decision
/// stream with a [`DecisionAuditor`]. See the [module docs](self) for the
/// invariants checked.
///
/// The auditor itself implements [`CachePolicy`], so it drops into any
/// replay loop unchanged:
///
/// ```
/// use byc_core::audit::PolicyAuditor;
/// use byc_core::rate_profile::{RateProfile, RateProfileConfig};
/// use byc_core::{Access, CachePolicy};
/// use byc_types::{Bytes, ObjectId, Tick};
///
/// let policy = RateProfile::new(Bytes::mib(64), RateProfileConfig::default());
/// let mut audited = PolicyAuditor::new(policy);
/// audited.on_access(&Access {
///     object: ObjectId::new(7),
///     time: Tick::ZERO,
///     yield_bytes: Bytes::kib(10),
///     size: Bytes::mib(1),
///     fetch_cost: Bytes::mib(1),
/// });
/// assert!(audited.finish().is_clean());
/// ```
#[derive(Debug)]
pub struct PolicyAuditor<P> {
    inner: P,
    auditor: DecisionAuditor,
}

impl<P: CachePolicy> PolicyAuditor<P> {
    /// Wrap `inner` with auditing enabled.
    pub fn new(inner: P) -> Self {
        PolicyAuditor {
            inner,
            auditor: DecisionAuditor::new(),
        }
    }

    /// Wrap `inner` as a pure pass-through: decisions are counted for the
    /// report but no invariants are checked and no shadow state is kept.
    /// Auditing cannot be turned on later (the shadow model would be
    /// incomplete), so the choice is made at construction.
    pub fn pass_through(inner: P) -> Self {
        PolicyAuditor {
            inner,
            auditor: DecisionAuditor::pass_through(),
        }
    }

    /// True iff invariants are being checked (not a pass-through).
    pub fn is_enabled(&self) -> bool {
        self.auditor.is_enabled()
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Unwrap, discarding the audit state.
    pub fn into_inner(self) -> P {
        self.inner
    }

    /// The report accumulated so far.
    pub fn report(&self) -> &AuditReport {
        self.auditor.report()
    }

    /// Run a final deep check and return the completed report.
    pub fn finish(mut self) -> AuditReport {
        self.auditor.finish(&self.inner)
    }
}

impl<P: CachePolicy> CachePolicy for PolicyAuditor<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_access(&mut self, access: &Access) -> Decision {
        let decision = self.inner.on_access(access);
        self.auditor.observe(access, &decision, &self.inner);
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
        let removed = self.inner.invalidate(object);
        self.auditor
            .observe_invalidate(object, removed, self.inner.name());
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byc_types::Tick;

    /// A scripted policy: answers a fixed decision sequence and reports
    /// whatever cache introspection it is told to. Lets tests produce
    /// decision streams no real policy would emit.
    struct Scripted {
        decisions: Vec<Decision>,
        next: usize,
        cached: BTreeMap<ObjectId, Bytes>,
        used: Bytes,
        capacity: Bytes,
        /// When set, `used()` lies by this many extra bytes.
        used_skew: Bytes,
    }

    impl Scripted {
        fn new(capacity: Bytes, decisions: Vec<Decision>) -> Self {
            Scripted {
                decisions,
                next: 0,
                cached: BTreeMap::new(),
                used: Bytes::ZERO,
                capacity,
                used_skew: Bytes::ZERO,
            }
        }
    }

    impl CachePolicy for Scripted {
        fn name(&self) -> &'static str {
            "Scripted"
        }

        fn on_access(&mut self, access: &Access) -> Decision {
            let decision = self
                .decisions
                .get(self.next)
                .cloned()
                .unwrap_or(Decision::Bypass);
            self.next += 1;
            if let Decision::Load { evictions } = &decision {
                for v in evictions {
                    if let Some(size) = self.cached.remove(v) {
                        self.used -= size;
                    }
                }
                self.cached.insert(access.object, access.size);
                self.used += access.size;
            }
            decision
        }

        fn contains(&self, object: ObjectId) -> bool {
            self.cached.contains_key(&object)
        }

        fn used(&self) -> Bytes {
            self.used + self.used_skew
        }

        fn capacity(&self) -> Bytes {
            self.capacity
        }

        fn cached_objects(&self) -> Vec<ObjectId> {
            self.cached.keys().copied().collect()
        }

        fn invalidate(&mut self, object: ObjectId) -> bool {
            match self.cached.remove(&object) {
                Some(size) => {
                    self.used -= size;
                    true
                }
                None => false,
            }
        }
    }

    fn access(id: u32, size: u64) -> Access {
        Access {
            object: ObjectId::new(id),
            time: Tick::ZERO,
            yield_bytes: Bytes::new(size / 10),
            size: Bytes::new(size),
            fetch_cost: Bytes::new(size),
        }
    }

    #[test]
    fn clean_stream_is_clean() {
        let policy = Scripted::new(
            Bytes::new(100),
            vec![
                Decision::load(),
                Decision::Hit,
                Decision::Bypass,
                Decision::Load {
                    evictions: vec![ObjectId::new(1)].into(),
                },
            ],
        );
        let mut audited = PolicyAuditor::new(policy);
        audited.on_access(&access(1, 60)); // load
        audited.on_access(&access(1, 60)); // hit
        audited.on_access(&access(2, 500)); // bypass (too big)
        audited.on_access(&access(3, 80)); // load, evicting 1
        let report = audited.finish();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.hits, 1);
        assert_eq!(report.bypasses, 1);
        assert_eq!(report.loads, 2);
        assert_eq!(report.evictions, 1);
        assert_eq!(
            report.delivered(),
            Bytes::new(6 + 6 + 50 + 8),
            "D_A must cover every access's yield"
        );
    }

    #[test]
    fn hit_on_uncached_object_is_flagged() {
        let policy = Scripted::new(Bytes::new(100), vec![Decision::Hit]);
        let mut audited = PolicyAuditor::new(policy);
        audited.on_access(&access(9, 10));
        let report = audited.finish();
        assert!(!report.is_clean());
        assert!(report.violations[0].contains("not cached"));
    }

    #[test]
    fn load_of_cached_object_is_flagged() {
        let policy = Scripted::new(Bytes::new(100), vec![Decision::load(), Decision::load()]);
        let mut audited = PolicyAuditor::new(policy);
        audited.on_access(&access(4, 10));
        audited.on_access(&access(4, 10));
        let report = audited.finish();
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("already cached")));
    }

    #[test]
    fn overflowing_load_is_flagged() {
        let policy = Scripted::new(Bytes::new(50), vec![Decision::load()]);
        let mut audited = PolicyAuditor::new(policy);
        audited.on_access(&access(5, 80));
        let report = audited.finish();
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("overflows capacity")));
    }

    #[test]
    fn phantom_eviction_is_flagged() {
        let policy = Scripted::new(
            Bytes::new(100),
            vec![Decision::Load {
                evictions: vec![ObjectId::new(42)].into(),
            }],
        );
        let mut audited = PolicyAuditor::new(policy);
        audited.on_access(&access(6, 10));
        let report = audited.finish();
        assert!(report.violations.iter().any(|v| v.contains("not cached")));
    }

    #[test]
    fn skewed_used_fails_post_state_check() {
        let mut policy = Scripted::new(Bytes::new(100), vec![Decision::load()]);
        policy.used_skew = Bytes::new(3);
        let mut audited = PolicyAuditor::new(policy);
        audited.on_access(&access(7, 10));
        let report = audited.finish();
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("used() reports")));
    }

    #[test]
    fn silent_policy_drop_is_caught_by_deep_check() {
        let policy = Scripted::new(Bytes::new(100), vec![Decision::load()]);
        let mut audited = PolicyAuditor::new(policy);
        audited.on_access(&access(8, 10));
        // The policy forgets the object behind the auditor's back.
        audited.inner.cached.clear();
        audited.inner.used = Bytes::ZERO;
        let report = audited.finish();
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("diverged from the decision stream")));
    }

    #[test]
    fn invalidate_keeps_shadow_in_sync() {
        let policy = Scripted::new(Bytes::new(100), vec![Decision::load(), Decision::load()]);
        let mut audited = PolicyAuditor::new(policy);
        audited.on_access(&access(1, 10));
        assert!(audited.invalidate(ObjectId::new(1)));
        assert!(!audited.invalidate(ObjectId::new(1)));
        audited.on_access(&access(1, 10)); // re-load after invalidation
        let report = audited.finish();
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn pass_through_counts_but_never_checks() {
        // A Hit on an uncached object: the pass-through must not flag it.
        let policy = Scripted::new(Bytes::new(100), vec![Decision::Hit]);
        let mut audited = PolicyAuditor::pass_through(policy);
        assert!(!audited.is_enabled());
        audited.on_access(&access(2, 10));
        let report = audited.finish();
        assert!(report.is_clean());
        assert_eq!(report.hits, 1);
        assert_eq!(report.deep_checks, 0);
    }

    #[test]
    fn audits_through_a_boxed_dyn_policy() {
        let policy: Box<dyn CachePolicy> =
            Box::new(Scripted::new(Bytes::new(100), vec![Decision::Hit]));
        let mut audited = PolicyAuditor::new(policy);
        audited.on_access(&access(3, 10));
        assert!(!audited.finish().is_clean());
    }
}
