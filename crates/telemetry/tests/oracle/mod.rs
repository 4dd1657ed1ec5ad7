//! The reference the telemetry observer is checked against: the first
//! `TelemetryObserver`, kept verbatim in its rules. Every event pays
//! for the straightforward lookups:
//!
//! * its series through a `BTreeMap<SeriesKey, SeriesMetrics>` entry,
//!   the key rebuilt from the event's server, size class and tier;
//! * its reuse gap through a `BTreeMap<ObjectId, u64>` insert;
//! * the occupancy gauge through the deciding policy's `used()`.
//!
//! Its histograms record through the shipped `Histogram::record`; the
//! bucket proptest pins that to a linear scan of the bounds.

#![allow(dead_code)]

use byc_core::policy::CachePolicy;
use byc_federation::{CostEvent, Observer};
use byc_telemetry::{
    EventLogWriter, EventRecord, ObjectClass, PhaseProfile, PolicyMetrics, SeriesKey,
};
use byc_types::ObjectId;
use byc_workload::TraceQuery;
use std::collections::BTreeMap;

/// Queries per [`PhaseProfile`] episode.
const EPISODE_LEN: u64 = 1024;

/// The first telemetry observer: accumulates one policy's
/// [`PolicyMetrics`] and optionally streams every per-decision
/// [`EventRecord`] to an [`EventLogWriter`].
pub struct TelemetryObserver {
    metrics: PolicyMetrics,
    /// Query ordinal of each object's previous slice (reuse gaps).
    last_seen: BTreeMap<ObjectId, u64>,
    slices_this_query: u64,
    decisions_this_query: u64,
    evictions_this_query: u64,
    writer: Option<EventLogWriter>,
    log_result: Option<byc_types::Result<u64>>,
}

impl TelemetryObserver {
    /// An observer for `policy` with no event log.
    pub fn new(policy: &str) -> Self {
        let mut metrics = PolicyMetrics::new(policy);
        metrics.episodes = PhaseProfile::new(EPISODE_LEN);
        TelemetryObserver {
            metrics,
            last_seen: BTreeMap::new(),
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

    /// The metrics plus the event log's deferred IO outcome.
    pub fn into_parts(mut self) -> (PolicyMetrics, byc_types::Result<()>) {
        let io = match self.writer.take() {
            Some(writer) => writer.finish(),
            None => self.log_result.take().unwrap_or(Ok(0)),
        };
        (self.metrics, io.map(|_| ()))
    }
}

impl Observer for TelemetryObserver {
    fn on_query_start(&mut self, _index: usize, _query: &TraceQuery) {
        self.slices_this_query = 0;
        self.decisions_this_query = 0;
        self.evictions_this_query = 0;
    }

    fn on_access(&mut self, event: &CostEvent<'_>) {
        self.metrics.accesses += 1;
        self.decisions_this_query += 1;
        self.evictions_this_query += event.evictions;

        let key = SeriesKey {
            server: event.server,
            class: ObjectClass::of(event.access.size),
            tier: event.tier,
        };
        let series = self.metrics.series.entry(key).or_default();
        series.window.absorb(event);
        series.delivered.record(event.delivered.raw());
        if event.hits == 0 {
            series.wan.record(
                (event.bypass_cost + event.fetch_cost + event.relay_cost + event.retried_bytes)
                    .raw(),
            );
        }

        self.metrics.occupancy.set(event.policy.used().raw());

        if event.tier == 0 {
            self.slices_this_query += 1;
            let query = event.query as u64;
            if let Some(prev) = self.last_seen.insert(event.object, query) {
                self.metrics.reuse_gap.record(query.saturating_sub(prev));
            }
        }

        if let Some(writer) = self.writer.as_mut() {
            writer.record(&EventRecord::from_event(event));
        }
    }

    fn on_query_end(&mut self, _index: usize, _query: &TraceQuery) {
        self.metrics.queries += 1;
        self.metrics.slices_per_query.record(self.slices_this_query);
        self.metrics.episodes.observe_query(
            self.slices_this_query,
            self.decisions_this_query,
            self.evictions_this_query,
        );
    }

    fn finish(&mut self, _policy: Option<&dyn CachePolicy>) {
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
