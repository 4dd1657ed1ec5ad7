//! Deterministic WAN fault injection: outages, flaky links, retries, and
//! graceful degradation.
//!
//! The paper's evaluation assumes every bypassed sub-query and cache load
//! succeeds at exactly its priced cost. Real federations are dominated by
//! the opposite: servers schedule downtime, links drop transfers, and the
//! mediator must decide whether to retry, serve a stale local copy, or
//! surface a failed query. This module models those effects without
//! giving up a single bit of reproducibility:
//!
//! * a [`FaultModel`] decides the outcome of each WAN *transfer attempt*
//!   purely from the attempt's coordinates (query-index time, object,
//!   server, attempt ordinal) and a seed — no wall clock, no interior
//!   mutability, so one model can be shared across sweep threads and two
//!   replays with the same seed are bit-identical;
//! * a [`RetryPolicy`] bounds how many attempts the mediator makes,
//!   spacing them with deterministic exponential backoff *in virtual
//!   (query-index) time* — backoff is observable because a later attempt
//!   can land outside an outage window;
//! * a [`DegradationPolicy`] picks what happens when every attempt fails:
//!   serve the stale local copy the mediator retains (data is immutable
//!   between releases, paper §6) or fail the slice outright.
//!
//! Failed attempts are not free: each one charges its full priced
//! transfer to the replay's `retried_bytes` — the retry-storm traffic a
//! bad network citizen generates.

use byc_types::{Bytes, ObjectId, ServerId, SplitMix64, Tick};

#[cfg(doc)]
use crate::network::NetworkModel;

/// One WAN transfer attempt, as seen by a [`FaultModel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FetchAttempt {
    /// Query ordinal within the replay.
    pub query: usize,
    /// Virtual time of the attempt: the query's tick plus any retry
    /// backoff (see [`RetryPolicy::attempt_time`]).
    pub time: Tick,
    /// The object whose bytes are on the wire.
    pub object: ObjectId,
    /// The server at the far end of the link.
    pub server: ServerId,
    /// Attempt ordinal, 1-based (1 = first try).
    pub attempt: u32,
    /// Which topology link the bytes are crossing, indexed bottom-up
    /// (`links[t]` is the edge above caching tier `t`). Always 0 on the
    /// flat single-link topology.
    pub link: u32,
}

/// The outcome of one transfer attempt.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FetchOutcome {
    /// The transfer completed. `cost_multiplier` scales the priced WAN
    /// cost of the transfer (1.0 = nominal; >1.0 models a transient
    /// latency/congestion spike priced as extra bytes through the
    /// [`NetworkModel`] seam).
    Delivered {
        /// WAN cost multiplier for this transfer (1.0 = nominal).
        cost_multiplier: f64,
    },
    /// The transfer failed; the bytes already sent are wasted WAN
    /// traffic.
    Failed,
}

/// A deterministic, shareable fault process over WAN transfer attempts.
///
/// Implementations must be pure functions of the attempt and their own
/// immutable configuration: `Sync` with no interior mutability, so the
/// sweep can share one model across threads and replays stay
/// bit-identical for a seed.
pub trait FaultModel: Sync {
    /// Short display name ("none", "outage", "flaky"), used in sweep
    /// labels and reports.
    fn name(&self) -> &str;

    /// Decide the outcome of `attempt`.
    fn outcome(&self, attempt: &FetchAttempt) -> FetchOutcome;

    /// Human-readable summary of the configured fault process, used to
    /// annotate flight-recorder postmortems. Defaults to [`Self::name`].
    fn describe(&self) -> String {
        self.name().to_string()
    }
}

impl<M: FaultModel + ?Sized> FaultModel for Box<M> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn outcome(&self, attempt: &FetchAttempt) -> FetchOutcome {
        (**self).outcome(attempt)
    }

    fn describe(&self) -> String {
        (**self).describe()
    }
}

/// Restrict any fault model to a single topology link: attempts crossing
/// other links always deliver at nominal cost. This is how the CLI's
/// `--fault-link` scopes an outage or flaky process to one edge of a
/// tiered topology (e.g. the origin link, so a hot regional cache can
/// absorb the outage).
#[derive(Clone, Copy, Debug)]
pub struct LinkScoped<M> {
    model: M,
    link: u32,
}

impl<M: FaultModel> LinkScoped<M> {
    /// Scope `model` to `link` (bottom-up link index).
    pub fn new(model: M, link: u32) -> Self {
        LinkScoped { model, link }
    }

    /// The scoped link index.
    pub fn link(&self) -> u32 {
        self.link
    }
}

impl<M: FaultModel> FaultModel for LinkScoped<M> {
    fn name(&self) -> &str {
        self.model.name()
    }

    fn outcome(&self, attempt: &FetchAttempt) -> FetchOutcome {
        if attempt.link == self.link {
            self.model.outcome(attempt)
        } else {
            FetchOutcome::Delivered {
                cost_multiplier: 1.0,
            }
        }
    }

    fn describe(&self) -> String {
        format!("{} on link {}", self.model.describe(), self.link)
    }
}

/// The fault-free model: every attempt succeeds at nominal cost.
///
/// Replays through [`NoFaults`] are bit-identical to replays with no
/// fault layer at all, which this crate's tests check.
#[cfg(test)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct NoFaults;

#[cfg(test)]
impl FaultModel for NoFaults {
    fn name(&self) -> &str {
        "none"
    }

    fn outcome(&self, _attempt: &FetchAttempt) -> FetchOutcome {
        FetchOutcome::Delivered {
            cost_multiplier: 1.0,
        }
    }
}

/// One scheduled downtime window of one server, in query-index time.
/// The window is half-open: attempts with `from <= time < until` fail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outage {
    /// The server that is down.
    pub server: ServerId,
    /// First query index of the downtime (inclusive).
    pub from: Tick,
    /// First query index after the downtime (exclusive).
    pub until: Tick,
}

/// Scheduled per-server downtime: every attempt against a server inside
/// one of its outage windows fails. Retry backoff is observable here — a
/// later attempt whose backed-off virtual time lands past `until`
/// succeeds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OutageWindows {
    windows: Vec<Outage>,
}

impl OutageWindows {
    /// A schedule over the given windows.
    pub fn new(windows: Vec<Outage>) -> Self {
        OutageWindows { windows }
    }

    /// The configured windows.
    pub fn windows(&self) -> &[Outage] {
        &self.windows
    }

    /// True iff `server` is down at virtual time `time`.
    pub fn is_down(&self, server: ServerId, time: Tick) -> bool {
        self.windows
            .iter()
            .any(|w| w.server == server && w.from <= time && time < w.until)
    }
}

impl FaultModel for OutageWindows {
    fn name(&self) -> &str {
        "outage"
    }

    fn outcome(&self, attempt: &FetchAttempt) -> FetchOutcome {
        if self.is_down(attempt.server, attempt.time) {
            FetchOutcome::Failed
        } else {
            FetchOutcome::Delivered {
                cost_multiplier: 1.0,
            }
        }
    }

    fn describe(&self) -> String {
        let mut out = String::from("outage:");
        for w in &self.windows {
            out.push_str(&format!(
                " server {} down [{}, {})",
                w.server.raw(),
                w.from.raw(),
                w.until.raw()
            ));
        }
        out
    }
}

/// Seeded per-attempt link flakiness: each attempt independently fails
/// with probability `failure_p`; surviving attempts suffer a transient
/// cost spike (`cost_multiplier = spike_multiplier`) with probability
/// `spike_p`.
///
/// The randomness is *stateless*: each attempt's draw is derived by
/// folding the attempt's coordinates into the seed through
/// [`SplitMix64`], so outcomes depend only on (seed, time, object,
/// attempt) — independent of replay order, shareable across sweep
/// threads, and bit-reproducible.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlakyLinks {
    /// Seed of the fault stream (the CLI's `--fault-seed`).
    pub seed: u64,
    /// Per-attempt failure probability, clamped to `[0, 1]`.
    pub failure_p: f64,
    /// Probability a surviving attempt is spiked, clamped to `[0, 1]`.
    pub spike_p: f64,
    /// WAN cost multiplier of a spiked transfer (>= 1.0 is sensible).
    pub spike_multiplier: f64,
}

impl FlakyLinks {
    /// A flaky-link model with the given seed and probabilities.
    pub fn new(seed: u64, failure_p: f64, spike_p: f64, spike_multiplier: f64) -> Self {
        FlakyLinks {
            seed,
            failure_p,
            spike_p,
            spike_multiplier,
        }
    }

    /// The per-attempt generator: the seed with the attempt's coordinates
    /// folded in, one SplitMix64 scramble per field.
    fn attempt_rng(&self, a: &FetchAttempt) -> SplitMix64 {
        let mut s = self.seed;
        for part in [
            a.time.raw(),
            u64::from(a.object.raw()),
            u64::from(a.server.raw()),
            u64::from(a.attempt),
            u64::from(a.link),
        ] {
            s = SplitMix64::new(s ^ part).next_u64();
        }
        SplitMix64::new(s)
    }
}

impl FaultModel for FlakyLinks {
    fn name(&self) -> &str {
        "flaky"
    }

    fn outcome(&self, attempt: &FetchAttempt) -> FetchOutcome {
        let mut rng = self.attempt_rng(attempt);
        if rng.chance(self.failure_p) {
            return FetchOutcome::Failed;
        }
        let cost_multiplier = if rng.chance(self.spike_p) {
            self.spike_multiplier
        } else {
            1.0
        };
        FetchOutcome::Delivered { cost_multiplier }
    }

    fn describe(&self) -> String {
        format!(
            "flaky: seed {} failure_p {} spike_p {} x{}",
            self.seed, self.failure_p, self.spike_p, self.spike_multiplier
        )
    }
}

/// Bounded retries with deterministic exponential backoff in virtual
/// (query-index) time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum transfer attempts per slice (>= 1; 1 = no retries).
    pub max_attempts: u32,
    /// Backoff unit in query-index ticks: attempt `i` (1-based) runs at
    /// `time + backoff_base * (2^(i-1) - 1)`. 0 = all attempts at the
    /// query's own tick.
    pub backoff_base: u64,
}

/// Single attempt, no backoff — the default when no `--retry` is given.
pub const NO_RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 1,
    backoff_base: 0,
};

impl RetryPolicy {
    /// `attempts` tries with the given backoff unit (attempts clamped to
    /// at least 1).
    pub fn new(attempts: u32, backoff_base: u64) -> Self {
        RetryPolicy {
            max_attempts: attempts.max(1),
            backoff_base,
        }
    }

    /// Virtual time of attempt `attempt` (1-based) for a slice whose
    /// query runs at `time`: exponential backoff, saturating.
    pub fn attempt_time(&self, time: Tick, attempt: u32) -> Tick {
        let doublings = 1u64
            .checked_shl(attempt.saturating_sub(1))
            .unwrap_or(u64::MAX)
            .saturating_sub(1);
        Tick::new(
            time.raw()
                .saturating_add(self.backoff_base.saturating_mul(doublings)),
        )
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        NO_RETRY
    }
}

/// What the mediator does when every attempt at a slice failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DegradationPolicy {
    /// Serve the stale local copy the mediator retains (data is immutable
    /// between releases, paper §6): the slice is *degraded* — delivered
    /// out of the cache tier at zero fresh WAN cost, counted in
    /// `degraded_queries`.
    #[default]
    ServeStale,
    /// Surface the failure: the slice delivers nothing and the query is
    /// counted in `failed_queries`.
    Fail,
}

impl DegradationPolicy {
    /// Short display label ("stale" / "fail").
    pub fn label(&self) -> &'static str {
        match self {
            DegradationPolicy::ServeStale => "stale",
            DegradationPolicy::Fail => "fail",
        }
    }
}

/// The fault context stamped into flight-recorder postmortems: the
/// plan's model description plus its retry and degradation settings, or
/// "no fault layer" without a plan.
pub fn fault_context(plan: Option<FaultPlan<'_>>) -> String {
    match plan {
        Some(plan) => format!(
            "{}; retry up to {}; on exhaustion {}",
            plan.model.describe(),
            plan.retry.max_attempts,
            plan.degradation.label()
        ),
        None => "no fault layer".to_string(),
    }
}

/// How one slice's WAN transfer resolved after the retry loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FetchResolution {
    /// Attempts that failed (each charged to `retried_bytes`).
    pub failed_attempts: u32,
    /// `Some(cost_multiplier)` when an attempt succeeded; `None` when the
    /// retry budget was exhausted.
    pub delivered: Option<f64>,
}

/// A fault model plus the retry and degradation policies that govern it —
/// everything the engine needs to resolve one slice's WAN transfer.
#[derive(Clone, Copy)]
pub struct FaultPlan<'a> {
    /// The fault process deciding per-attempt outcomes.
    pub model: &'a dyn FaultModel,
    /// Retry bounds and backoff.
    pub retry: RetryPolicy,
    /// Fallback when the retry budget is exhausted.
    pub degradation: DegradationPolicy,
}

impl std::fmt::Debug for FaultPlan<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("model", &self.model.name())
            .field("retry", &self.retry)
            .field("degradation", &self.degradation)
            .finish()
    }
}

impl<'a> FaultPlan<'a> {
    /// A plan over `model` with default (single-attempt, serve-stale)
    /// policies.
    pub fn new(model: &'a dyn FaultModel) -> Self {
        FaultPlan {
            model,
            retry: NO_RETRY,
            degradation: DegradationPolicy::default(),
        }
    }

    /// Run the retry loop for one slice's transfer across a set of
    /// topology links. An attempt succeeds only when *every* link in the
    /// range delivers; its cost multiplier is the product of the links'
    /// multipliers (exactly 1.0 while no link spikes, so un-spiked
    /// tiered transfers stay bit-identical to nominal pricing). An empty
    /// range (a tier-0 hit: no WAN hop at all) trivially delivers at
    /// nominal cost without consulting the model.
    pub fn fetch_path(
        &self,
        query: usize,
        time: Tick,
        object: ObjectId,
        server: ServerId,
        links: std::ops::Range<u32>,
    ) -> FetchResolution {
        let max = self.retry.max_attempts.max(1);
        for attempt in 1..=max {
            let time = self.retry.attempt_time(time, attempt);
            let mut cost_multiplier = 1.0;
            let mut failed = false;
            for link in links.clone() {
                let at = FetchAttempt {
                    query,
                    time,
                    object,
                    server,
                    attempt,
                    link,
                };
                match self.model.outcome(&at) {
                    FetchOutcome::Delivered { cost_multiplier: m } => {
                        // Skip the multiply at 1.0 so nominal transfers
                        // keep the exact multiplier 1.0 bit pattern.
                        if m != 1.0 {
                            cost_multiplier *= m;
                        }
                    }
                    FetchOutcome::Failed => {
                        failed = true;
                        break;
                    }
                }
            }
            if !failed {
                return FetchResolution {
                    failed_attempts: attempt - 1,
                    delivered: Some(cost_multiplier),
                };
            }
        }
        FetchResolution {
            failed_attempts: max,
            delivered: None,
        }
    }

    /// WAN bytes wasted by `failed_attempts` aborted transfers of a slice
    /// whose nominal priced cost is `attempt_cost`.
    pub fn wasted_bytes(attempt_cost: Bytes, failed_attempts: u32) -> Bytes {
        Bytes::new(
            attempt_cost
                .raw()
                .saturating_mul(u64::from(failed_attempts)),
        )
    }
}

/// Apply a transfer's cost multiplier to its nominal priced cost.
/// `1.0` is the identity *bit-for-bit* (no float round trip), so
/// un-spiked transfers cost exactly what the [`NetworkModel`] priced.
#[inline]
pub fn spiked_cost(nominal: Bytes, cost_multiplier: f64) -> Bytes {
    if cost_multiplier == 1.0 {
        nominal
    } else {
        nominal.scale(cost_multiplier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attempt(time: u64, object: u32, server: u32, n: u32) -> FetchAttempt {
        FetchAttempt {
            query: time as usize,
            time: Tick::new(time),
            object: ObjectId::new(object),
            server: ServerId::new(server),
            attempt: n,
            link: 0,
        }
    }

    #[test]
    fn no_faults_always_delivers_at_nominal_cost() {
        for t in 0..100 {
            assert_eq!(
                NoFaults.outcome(&attempt(t, 3, 1, 1)),
                FetchOutcome::Delivered {
                    cost_multiplier: 1.0
                }
            );
        }
    }

    #[test]
    fn outage_fails_inside_window_only() {
        let model = OutageWindows::new(vec![Outage {
            server: ServerId::new(1),
            from: Tick::new(10),
            until: Tick::new(20),
        }]);
        assert_eq!(
            model.outcome(&attempt(9, 0, 1, 1)),
            FetchOutcome::Delivered {
                cost_multiplier: 1.0
            }
        );
        assert_eq!(model.outcome(&attempt(10, 0, 1, 1)), FetchOutcome::Failed);
        assert_eq!(model.outcome(&attempt(19, 0, 1, 1)), FetchOutcome::Failed);
        assert_eq!(
            model.outcome(&attempt(20, 0, 1, 1)),
            FetchOutcome::Delivered {
                cost_multiplier: 1.0
            }
        );
        // Other servers are unaffected.
        assert_eq!(
            model.outcome(&attempt(15, 0, 0, 1)),
            FetchOutcome::Delivered {
                cost_multiplier: 1.0
            }
        );
    }

    #[test]
    fn flaky_is_deterministic_per_attempt() {
        let model = FlakyLinks::new(7, 0.3, 0.2, 4.0);
        for t in 0..200 {
            let a = attempt(t, t as u32 % 5, 0, 1);
            assert_eq!(model.outcome(&a), model.outcome(&a));
        }
    }

    #[test]
    fn flaky_failure_rate_tracks_probability() {
        let model = FlakyLinks::new(11, 0.25, 0.0, 1.0);
        let fails = (0..10_000)
            .filter(|&t| model.outcome(&attempt(t, 1, 0, 1)) == FetchOutcome::Failed)
            .count();
        let rate = fails as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.02, "failure rate {rate}");
    }

    #[test]
    fn flaky_distinct_attempts_draw_independently() {
        // With p = 0.5 the first and second attempts of the same slice
        // must not always agree — the attempt ordinal feeds the stream.
        let model = FlakyLinks::new(13, 0.5, 0.0, 1.0);
        let disagreements = (0..1_000)
            .filter(|&t| model.outcome(&attempt(t, 2, 0, 1)) != model.outcome(&attempt(t, 2, 0, 2)))
            .count();
        assert!(disagreements > 300, "only {disagreements} disagreements");
    }

    #[test]
    fn retry_backoff_is_exponential_and_saturating() {
        let r = RetryPolicy::new(5, 10);
        let t = Tick::new(100);
        assert_eq!(r.attempt_time(t, 1), Tick::new(100));
        assert_eq!(r.attempt_time(t, 2), Tick::new(110));
        assert_eq!(r.attempt_time(t, 3), Tick::new(130));
        assert_eq!(r.attempt_time(t, 4), Tick::new(170));
        // Huge attempt ordinals saturate instead of overflowing.
        assert_eq!(r.attempt_time(t, 200), Tick::new(u64::MAX));
    }

    #[test]
    fn retries_ride_out_short_outages() {
        let model = OutageWindows::new(vec![Outage {
            server: ServerId::new(0),
            from: Tick::new(0),
            until: Tick::new(20),
        }]);
        // No retries: the slice fails.
        let plan = FaultPlan::new(&model);
        let r = plan.fetch_path(5, Tick::new(5), ObjectId::new(0), ServerId::new(0), 0..1);
        assert_eq!(r.delivered, None);
        assert_eq!(r.failed_attempts, 1);
        // Backed-off retries escape the window: attempts run at t=5 and
        // t=15 (both down), then t=35 (up).
        let plan = FaultPlan {
            retry: RetryPolicy::new(3, 10),
            ..FaultPlan::new(&model)
        };
        let r = plan.fetch_path(5, Tick::new(5), ObjectId::new(0), ServerId::new(0), 0..1);
        assert_eq!(r.failed_attempts, 2);
        assert_eq!(r.delivered, Some(1.0));
    }

    #[test]
    fn wasted_bytes_scale_with_failed_attempts() {
        assert_eq!(
            FaultPlan::wasted_bytes(Bytes::new(1000), 3),
            Bytes::new(3000)
        );
        assert_eq!(FaultPlan::wasted_bytes(Bytes::new(1000), 0), Bytes::ZERO);
    }

    #[test]
    fn spiked_cost_identity_at_one() {
        let b = Bytes::new(12_345);
        assert_eq!(spiked_cost(b, 1.0), b);
        assert_eq!(spiked_cost(b, 4.0), Bytes::new(49_380));
    }

    #[test]
    fn link_scoped_model_only_faults_its_link() {
        let outage = OutageWindows::new(vec![Outage {
            server: ServerId::new(0),
            from: Tick::ZERO,
            until: Tick::new(u64::MAX),
        }]);
        let scoped = LinkScoped::new(outage, 1);
        assert_eq!(scoped.link(), 1);
        // Link 0 traffic sails through the (total) outage...
        assert_eq!(
            scoped.outcome(&attempt(5, 0, 0, 1)),
            FetchOutcome::Delivered {
                cost_multiplier: 1.0
            }
        );
        // ...link 1 traffic fails.
        let on_link_1 = FetchAttempt {
            link: 1,
            ..attempt(5, 0, 0, 1)
        };
        assert_eq!(scoped.outcome(&on_link_1), FetchOutcome::Failed);
    }

    #[test]
    fn fetch_path_fails_when_any_link_fails() {
        // Only link 1 is down; a two-link path fails, a link-0-only path
        // delivers.
        let outage = OutageWindows::new(vec![Outage {
            server: ServerId::new(0),
            from: Tick::ZERO,
            until: Tick::new(u64::MAX),
        }]);
        let scoped = LinkScoped::new(outage, 1);
        let plan = FaultPlan::new(&scoped);
        let o = ObjectId::new(0);
        let s = ServerId::new(0);
        let two_links = plan.fetch_path(3, Tick::new(3), o, s, 0..2);
        assert_eq!(two_links.delivered, None);
        let inner_only = plan.fetch_path(3, Tick::new(3), o, s, 0..1);
        assert_eq!(inner_only.delivered, Some(1.0));
        assert_eq!(inner_only.failed_attempts, 0);
    }

    #[test]
    fn fetch_path_empty_range_never_consults_the_model() {
        struct Panicky;
        impl FaultModel for Panicky {
            fn name(&self) -> &str {
                "panicky"
            }
            fn outcome(&self, _attempt: &FetchAttempt) -> FetchOutcome {
                FetchOutcome::Failed
            }
        }
        let plan = FaultPlan::new(&Panicky);
        let r = plan.fetch_path(0, Tick::ZERO, ObjectId::new(0), ServerId::new(0), 0..0);
        assert_eq!(r.delivered, Some(1.0));
        assert_eq!(r.failed_attempts, 0);
    }

    #[test]
    fn fetch_path_multiplies_spikes_across_links() {
        // A model that spikes every link by 2x: a three-link path costs 8x.
        struct AlwaysSpiked;
        impl FaultModel for AlwaysSpiked {
            fn name(&self) -> &str {
                "spiked"
            }
            fn outcome(&self, _attempt: &FetchAttempt) -> FetchOutcome {
                FetchOutcome::Delivered {
                    cost_multiplier: 2.0,
                }
            }
        }
        let plan = FaultPlan::new(&AlwaysSpiked);
        let r = plan.fetch_path(0, Tick::ZERO, ObjectId::new(0), ServerId::new(0), 0..3);
        assert_eq!(r.delivered, Some(8.0));
    }

    #[test]
    fn describe_summarises_the_configured_process() {
        assert_eq!(NoFaults.describe(), "none");
        let outage = OutageWindows::new(vec![Outage {
            server: ServerId::new(2),
            from: Tick::new(100),
            until: Tick::new(200),
        }]);
        assert_eq!(outage.describe(), "outage: server 2 down [100, 200)");
        let scoped = LinkScoped::new(outage, 1);
        assert_eq!(
            scoped.describe(),
            "outage: server 2 down [100, 200) on link 1"
        );
        let flaky = FlakyLinks::new(7, 0.25, 0.1, 4.0);
        assert_eq!(
            flaky.describe(),
            "flaky: seed 7 failure_p 0.25 spike_p 0.1 x4"
        );
        let boxed: Box<dyn FaultModel> = Box::new(NoFaults);
        assert_eq!(boxed.describe(), "none");
    }

    #[test]
    fn flaky_draws_differ_across_links() {
        // The link index feeds the per-attempt stream: with p = 0.5 the
        // same attempt on link 0 and link 1 must not always agree.
        let model = FlakyLinks::new(17, 0.5, 0.0, 1.0);
        let disagreements = (0..1_000)
            .filter(|&t| {
                let a0 = attempt(t, 2, 0, 1);
                let a1 = FetchAttempt { link: 1, ..a0 };
                model.outcome(&a0) != model.outcome(&a1)
            })
            .count();
        assert!(disagreements > 300, "only {disagreements} disagreements");
    }
}
