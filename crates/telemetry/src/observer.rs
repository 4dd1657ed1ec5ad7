//! [`TelemetryObserver`]: the [`Observer`] that feeds the registry and
//! the event log.
//!
//! The observer rides the engine's event stream next to the accounting
//! observers — it never influences decisions, so a replay with telemetry
//! attached produces byte-identical reports to one without. Telemetry is
//! off by not attaching the observer: the session then dispatches no
//! event to it at all.

use crate::events::{EventLogWriter, EventRecord};
use crate::metrics::{Gauge, Histogram, ObjectClass, PolicyMetrics, SeriesKey, SeriesMetrics};
use byc_core::policy::CachePolicy;
use byc_federation::{CostEvent, Observer};
use byc_workload::TraceQuery;

/// Queries per [`PhaseProfile`] episode of a [`TelemetryObserver`].
const EPISODE_LEN: u64 = 1024;

/// Per-episode phase counters of one replay.
///
/// Episodes are fixed windows of queries — virtual time, the only clock
/// the workload has — so the profile answers "how did decision mix and
/// query width evolve over the replay" without a single wall-clock read.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpisodeStats {
    /// Queries replayed in this episode.
    pub queries: u64,
    /// Object slices served: one per slice, however many tiers its
    /// decision walk consulted.
    pub slices: u64,
    /// Policy decisions taken: one per consulted tier, so equal to
    /// `slices` on the flat network and above it on a topology.
    pub decisions: u64,
    /// Objects evicted.
    pub evictions: u64,
}

impl EpisodeStats {
    fn absorb(&mut self, other: &EpisodeStats) {
        self.queries += other.queries;
        self.slices += other.slices;
        self.decisions += other.decisions;
        self.evictions += other.evictions;
    }

    fn is_empty(&self) -> bool {
        *self == EpisodeStats::default()
    }
}

/// Wall-clock-free phase accounting: a sequence of [`EpisodeStats`]
/// windows over the replay's query stream.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    episode_len: u64,
    closed: Vec<EpisodeStats>,
    current: EpisodeStats,
}

impl PhaseProfile {
    /// A profile rolling a new episode every `episode_len` queries
    /// (0 = never roll: one unbounded episode).
    pub fn new(episode_len: u64) -> Self {
        PhaseProfile {
            episode_len,
            closed: Vec::new(),
            current: EpisodeStats::default(),
        }
    }

    /// Account one finished query.
    pub fn observe_query(&mut self, slices: u64, decisions: u64, evictions: u64) {
        self.current.queries += 1;
        self.current.slices += slices;
        self.current.decisions += decisions;
        self.current.evictions += evictions;
        if self.episode_len > 0 && self.current.queries >= self.episode_len {
            self.closed.push(self.current);
            self.current = EpisodeStats::default();
        }
    }

    /// Every episode in replay order, including the trailing partial one.
    pub fn episodes(&self) -> Vec<EpisodeStats> {
        let mut out = self.closed.clone();
        if !self.current.is_empty() {
            out.push(self.current);
        }
        out
    }

    /// Whole-replay totals across all episodes.
    pub fn totals(&self) -> EpisodeStats {
        let mut total = EpisodeStats::default();
        for e in &self.closed {
            total.absorb(e);
        }
        total.absorb(&self.current);
        total
    }

    /// Fold another profile in: this profile's trailing partial episode
    /// is closed (if non-empty), then the other's episodes are appended
    /// in order. Used when the registry merges snapshots of the same
    /// policy from consecutive runs.
    pub fn merge(&mut self, other: &PhaseProfile) {
        if !self.current.is_empty() {
            self.closed.push(self.current);
            self.current = EpisodeStats::default();
        }
        self.closed.extend(other.closed.iter().copied());
        if !other.current.is_empty() {
            self.closed.push(other.current);
        }
    }
}

/// The telemetry [`Observer`]: accumulates one policy's
/// [`PolicyMetrics`] and optionally streams every per-decision
/// [`EventRecord`] to an [`EventLogWriter`].
///
/// Strictly read-only over the event stream — attach it to any replay
/// without changing a single byte of the replay's reports.
///
/// The per-event work is one fold into dense state. Within a replay an
/// object's series key is fixed by the catalog (its home server and size
/// class, plus the deciding tier), so each `(tier, object)` slot keeps
/// the index of its series once found. Reuse gaps keep each object's
/// last query in a per-object `Vec`, histograms bucket in O(1), and each
/// tier's occupancy is re-read only on that tier's first event of a
/// query and on its loads. [`TelemetryObserver::into_parts`] sorts the
/// series into the snapshot's [`SeriesKey`] order.
pub struct TelemetryObserver {
    policy: String,
    queries: u64,
    accesses: u64,
    /// Every series seen so far, each key once, in first-seen order.
    series: Vec<(SeriesKey, SeriesMetrics)>,
    /// Per caching tier, bottom-up.
    tiers: Vec<TierSlots>,
    /// One more than the query ordinal of each object's previous slice,
    /// indexed by object id; 0 while the object has none (reuse gaps).
    last_seen: Vec<u64>,
    occupancy: Gauge,
    slices_per_query: Histogram,
    reuse_gap: Histogram,
    episodes: PhaseProfile,
    slices_this_query: u64,
    decisions_this_query: u64,
    evictions_this_query: u64,
    writer: Option<EventLogWriter>,
    /// The event log's IO outcome once [`Observer::finish`] consumed the
    /// writer; surfaced through [`Observer::warnings`] or
    /// [`TelemetryObserver::into_parts`], whichever runs first.
    log_result: Option<byc_types::Result<u64>>,
}

/// One caching tier's dense telemetry state, valid for one replay.
#[derive(Default)]
struct TierSlots {
    /// Each object's index into [`TelemetryObserver::series`], indexed by
    /// object id; [`UNRESOLVED`] until the object's first event here. A
    /// sweep runs every job at once, so two bytes a slot, not eight.
    series: Vec<u16>,
    /// The tier policy's occupancy as last read, and the query it was
    /// read in. Within a query only a load changes it (the policy
    /// auditor checks `used()` against the decision stream after every
    /// access); between queries an invalidation or a preload may.
    used: u64,
    read_in: Option<usize>,
}

impl TelemetryObserver {
    /// An observer for `policy` with no event log, rolling a phase
    /// episode every 1024 queries.
    pub fn new(policy: &str) -> Self {
        let empty = PolicyMetrics::new(policy);
        TelemetryObserver {
            policy: empty.policy,
            queries: 0,
            accesses: 0,
            series: Vec::new(),
            tiers: Vec::new(),
            last_seen: Vec::new(),
            occupancy: Gauge::default(),
            slices_per_query: empty.slices_per_query,
            reuse_gap: empty.reuse_gap,
            episodes: PhaseProfile::new(EPISODE_LEN),
            slices_this_query: 0,
            decisions_this_query: 0,
            evictions_this_query: 0,
            writer: None,
            log_result: None,
        }
    }

    /// Attach an event log; every decision record streams into it.
    pub fn with_event_log(mut self, writer: EventLogWriter) -> Self {
        self.writer = Some(writer);
        self
    }

    /// Finish: flush the event log (if any) and hand back the metrics
    /// plus the log's deferred IO outcome. Log IO errors are *deferred* —
    /// the hot path never checks them — and surface only here, unless a
    /// `ReplaySession` already drained them into `Replay::warnings`
    /// (each error surfaces exactly once).
    pub fn into_parts(mut self) -> (PolicyMetrics, byc_types::Result<()>) {
        let io = match self.writer.take() {
            Some(writer) => writer.finish(),
            // finish() already consumed the writer (replayed through a
            // session): report its stored outcome.
            None => self.log_result.take().unwrap_or(Ok(0)),
        };
        let metrics = PolicyMetrics {
            policy: self.policy,
            queries: self.queries,
            accesses: self.accesses,
            series: self.series.into_iter().collect(),
            occupancy: self.occupancy,
            slices_per_query: self.slices_per_query,
            reuse_gap: self.reuse_gap,
            episodes: self.episodes,
        };
        (metrics, io.map(|_| ()))
    }
}

/// A [`TierSlots::series`] slot whose series is not known yet. A series
/// index that does not fit below it is never cached, only looked up.
const UNRESOLVED: u16 = u16::MAX;

/// The series `event` folds into: the one its `(tier, object)` slot
/// points at, or — on the object's first event at the tier — the one
/// with the event's key, made if new.
#[inline]
fn series_of<'s>(
    series: &'s mut Vec<(SeriesKey, SeriesMetrics)>,
    slots: &mut Vec<u16>,
    event: &CostEvent<'_>,
) -> Option<&'s mut SeriesMetrics> {
    let o = event.object.index();
    if slots.len() <= o {
        slots.resize(o + 1, UNRESOLVED);
    }
    let slot = slots.get_mut(o)?;
    let index = match *slot {
        UNRESOLVED => {
            let key = SeriesKey {
                server: event.server,
                class: ObjectClass::of(event.access.size),
                tier: event.tier,
            };
            let i = match series.iter().position(|(k, _)| *k == key) {
                Some(i) => i,
                None => {
                    series.push((key, SeriesMetrics::new()));
                    series.len() - 1
                }
            };
            *slot = u16::try_from(i).unwrap_or(UNRESOLVED);
            i
        }
        i => usize::from(i),
    };
    series.get_mut(index).map(|(_, s)| s)
}

impl Observer for TelemetryObserver {
    fn on_query_start(&mut self, _index: usize, _query: &TraceQuery) {
        self.slices_this_query = 0;
        self.decisions_this_query = 0;
        self.evictions_this_query = 0;
    }

    fn on_access(&mut self, event: &CostEvent<'_>) {
        self.accesses += 1;
        self.decisions_this_query += 1;
        self.evictions_this_query += event.evictions;

        let t = event.tier as usize;
        if self.tiers.len() <= t {
            self.tiers.resize_with(t + 1, TierSlots::default);
        }
        let Some(tier) = self.tiers.get_mut(t) else {
            return; // just grown to hold tier `t`
        };
        if let Some(series) = series_of(&mut self.series, &mut tier.series, event) {
            series.window.absorb(event);
            series.delivered.record(event.delivered.raw());
            // Hits are WAN-free; recording them would bury the traffic
            // distribution under a spike at zero. Relay traffic
            // (inner-link forwarding on a tiered topology) is WAN and
            // counts.
            if event.hits == 0 {
                series.wan.record(
                    (event.bypass_cost + event.fetch_cost + event.relay_cost + event.retried_bytes)
                        .raw(),
                );
            }
        }

        if event.loads != 0 || tier.read_in != Some(event.query) {
            tier.used = event.policy.used().raw();
            tier.read_in = Some(event.query);
        }
        self.occupancy.set(tier.used);

        // A slice's decision walk emits one event per consulted tier,
        // starting at tier 0: its tier-0 event stands for the slice.
        if event.tier == 0 {
            self.slices_this_query += 1;
            let (o, query) = (event.object.index(), event.query as u64);
            if self.last_seen.len() <= o {
                self.last_seen.resize(o + 1, 0);
            }
            if let Some(prev) = self.last_seen.get_mut(o) {
                if *prev > 0 {
                    self.reuse_gap.record(query.saturating_sub(*prev - 1));
                }
                *prev = query + 1;
            }
        }

        if let Some(writer) = self.writer.as_mut() {
            writer.record(&EventRecord::from_event(event));
        }
    }

    fn on_query_end(&mut self, _index: usize, _query: &TraceQuery) {
        self.queries += 1;
        self.slices_per_query.record(self.slices_this_query);
        self.episodes.observe_query(
            self.slices_this_query,
            self.decisions_this_query,
            self.evictions_this_query,
        );
    }

    fn finish(&mut self, _policy: Option<&dyn CachePolicy>) {
        // The slots hold this replay's catalog and policies: an observer
        // that rides another replay resolves them afresh.
        self.tiers.clear();
        // Close the event log at end of replay so its buffered tail and
        // parked IO error cannot be silently dropped with the observer:
        // the outcome is stored for `warnings` (the session surfaces it
        // in `Replay::warnings`) or `into_parts`, whichever runs first.
        if let Some(writer) = self.writer.take() {
            self.log_result = Some(writer.finish());
        }
    }

    fn warnings(&mut self) -> Vec<String> {
        match self.log_result.take_if(|r| r.is_err()) {
            Some(Err(e)) => vec![format!("event log: {e}")],
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_profile_rolls_episodes() {
        let mut p = PhaseProfile::new(2);
        p.observe_query(3, 3, 0);
        p.observe_query(1, 1, 2);
        p.observe_query(5, 4, 0);
        let eps = p.episodes();
        assert_eq!(eps.len(), 2);
        assert_eq!(
            eps[0],
            EpisodeStats {
                queries: 2,
                slices: 4,
                decisions: 4,
                evictions: 2
            }
        );
        assert_eq!(eps[1].queries, 1);
        assert_eq!(p.totals().slices, 9);
    }

    #[test]
    fn phase_profile_unbounded_episode() {
        let mut p = PhaseProfile::new(0);
        for _ in 0..100 {
            p.observe_query(1, 1, 0);
        }
        assert_eq!(p.episodes().len(), 1);
        assert_eq!(p.totals().queries, 100);
    }

    #[test]
    fn phase_profile_merge_preserves_totals() {
        let mut a = PhaseProfile::new(2);
        a.observe_query(1, 1, 0);
        let mut b = PhaseProfile::new(2);
        b.observe_query(2, 2, 1);
        b.observe_query(2, 2, 0);
        a.merge(&b);
        assert_eq!(a.totals().queries, 3);
        assert_eq!(a.totals().slices, 5);
        assert_eq!(a.totals().evictions, 1);
        assert_eq!(a.episodes().len(), 2);
    }

    /// Telemetry is disabled by not attaching the observer: one that
    /// never rode a replay accumulates nothing.
    #[test]
    fn disabled_observer_accumulates_nothing() {
        let obs = TelemetryObserver::new("x");
        let (metrics, io) = obs.into_parts();
        assert_eq!(metrics.queries, 0);
        assert!(metrics.series.is_empty());
        assert!(io.is_ok());
    }
}
