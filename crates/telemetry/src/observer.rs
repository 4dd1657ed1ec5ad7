//! [`TelemetryObserver`]: the [`Observer`] that feeds the registry and
//! the event log.
//!
//! The observer rides the engine's event stream next to the accounting
//! observers — it never influences decisions, so a replay with telemetry
//! attached produces byte-identical reports to one without. Telemetry is
//! off by not attaching the observer: the session then dispatches no
//! event to it at all.

use crate::events::{EventLogWriter, EventRecord};
use crate::metrics::{ObjectClass, PolicyMetrics, SeriesKey};
use byc_core::policy::CachePolicy;
use byc_federation::{CostEvent, Observer};
use byc_types::ObjectId;
use byc_workload::TraceQuery;
use std::collections::BTreeMap;

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
    /// Object slices served (accesses).
    pub slices: u64,
    /// Policy decisions taken (one per slice event).
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
pub struct TelemetryObserver {
    metrics: PolicyMetrics,
    /// Query ordinal of each object's previous access (reuse gaps).
    last_seen: BTreeMap<ObjectId, u64>,
    slices_this_query: u64,
    evictions_this_query: u64,
    writer: Option<EventLogWriter>,
    /// The event log's IO outcome once [`Observer::finish`] consumed the
    /// writer; surfaced through [`Observer::warnings`] or
    /// [`TelemetryObserver::into_parts`], whichever runs first.
    log_result: Option<byc_types::Result<u64>>,
}

impl TelemetryObserver {
    /// An observer for `policy` with no event log, rolling a phase
    /// episode every 1024 queries.
    pub fn new(policy: &str) -> Self {
        let mut metrics = PolicyMetrics::new(policy);
        metrics.episodes = PhaseProfile::new(EPISODE_LEN);
        TelemetryObserver {
            metrics,
            last_seen: BTreeMap::new(),
            slices_this_query: 0,
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

    /// The metrics accumulated so far.
    pub fn metrics(&self) -> &PolicyMetrics {
        &self.metrics
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
        (self.metrics, io.map(|_| ()))
    }
}

impl Observer for TelemetryObserver {
    fn on_query_start(&mut self, _index: usize, _query: &TraceQuery) {
        self.slices_this_query = 0;
        self.evictions_this_query = 0;
    }

    fn on_access(&mut self, event: &CostEvent<'_>) {
        self.metrics.accesses += 1;
        self.slices_this_query += 1;
        self.evictions_this_query += event.evictions;

        let key = SeriesKey {
            server: event.server,
            class: ObjectClass::of(event.access.size),
            tier: event.tier,
        };
        let series = self.metrics.series.entry(key).or_default();
        series.window.absorb(event);
        series.delivered.record(event.delivered.raw());
        // Hits are WAN-free; recording them would bury the traffic
        // distribution under a spike at zero. Relay traffic (inner-link
        // forwarding on a tiered topology) is WAN and counts.
        if event.hits == 0 {
            series.wan.record(
                (event.bypass_cost + event.fetch_cost + event.relay_cost + event.retried_bytes)
                    .raw(),
            );
        }

        self.metrics.occupancy.set(event.policy.used().raw());

        let query = event.query as u64;
        if let Some(prev) = self.last_seen.insert(event.object, query) {
            self.metrics.reuse_gap.record(query.saturating_sub(prev));
        }

        if let Some(writer) = self.writer.as_mut() {
            writer.record(&EventRecord::from_event(event));
        }
    }

    fn on_query_end(&mut self, _index: usize, _query: &TraceQuery) {
        self.metrics.queries += 1;
        self.metrics.slices_per_query.record(self.slices_this_query);
        // Every slice event is a tier policy's decision.
        self.metrics.episodes.observe_query(
            self.slices_this_query,
            self.slices_this_query,
            self.evictions_this_query,
        );
    }

    fn finish(&mut self, _policy: Option<&dyn CachePolicy>) {
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
