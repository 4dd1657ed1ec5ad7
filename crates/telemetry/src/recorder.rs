//! The fault flight recorder and its postmortem dump.
//!
//! [`FlightRecorder`] is an [`Observer`] like the span tracer and the
//! window stream: it keeps a bounded ring of the last decisions per tier,
//! as the event log's [`EventRecord`]s, and snapshots the rings into a
//! [`Postmortem`] whenever a query fails or degrades.
//! [`render_postmortems`] is the annotated text the CLI prints when
//! `--flight-recorder K` caught something. Rendering is a pure function
//! of the postmortem, so same-seed replays dump byte-identical
//! postmortems.

use crate::events::EventRecord;
use byc_federation::{CostEvent, Observer};
use byc_workload::TraceQuery;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// One annotated postmortem: the flight recorder's per-tier rings as
/// they stood when a query failed or degraded, plus the fault context
/// the replay ran under.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Postmortem {
    /// The failing/degraded query's ordinal (also its tick).
    pub query: usize,
    /// Slices of that query that delivered nothing.
    pub failed_slices: u64,
    /// Slices of that query served from the stale local copy.
    pub degraded_slices: u64,
    /// The last events per tier leading up to (and including) the
    /// failure, oldest first, in bottom-up tier order.
    pub tiers: Vec<(u32, Vec<EventRecord>)>,
    /// Human-readable fault context: the fault model's description plus
    /// the retry/degradation configuration (lists outage windows when
    /// the model has them, so active windows can be read off against
    /// the query tick).
    pub context: String,
}

/// The fault flight recorder: a bounded ring of the last K events per
/// tier that snapshots into a [`Postmortem`] whenever a query fails or
/// degrades.
///
/// Attach it like any [`Observer`]; it costs one ring push per slice and
/// only materializes anything on a failing query. The number of stored
/// postmortems is bounded by [`FlightRecorder::MAX_POSTMORTEMS`];
/// further failing queries only count, and the overflow surfaces as an
/// [`Observer::warnings`] entry.
#[derive(Clone, Debug, Default)]
pub struct FlightRecorder {
    depth: usize,
    context: String,
    rings: BTreeMap<u32, VecDeque<EventRecord>>,
    failed_this_query: u64,
    degraded_this_query: u64,
    postmortems: Vec<Postmortem>,
    truncated: u64,
}

impl FlightRecorder {
    /// Postmortems kept before further failing queries only increment
    /// the truncation count.
    pub const MAX_POSTMORTEMS: usize = 32;

    /// A recorder keeping the last `depth` events per tier (clamped to
    /// at least 1).
    pub fn new(depth: usize) -> FlightRecorder {
        FlightRecorder {
            depth: depth.max(1),
            ..FlightRecorder::default()
        }
    }

    /// Attach the fault context string stamped into every postmortem
    /// (see [`byc_federation::fault_context`]).
    #[must_use]
    pub fn with_context(mut self, context: String) -> FlightRecorder {
        self.context = context;
        self
    }

    /// Ring depth (events kept per tier).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Postmortems recorded so far.
    pub fn postmortems(&self) -> &[Postmortem] {
        &self.postmortems
    }

    /// Failing/degraded queries beyond [`Self::MAX_POSTMORTEMS`] that
    /// were counted but not recorded.
    pub fn truncated(&self) -> u64 {
        self.truncated
    }
}

impl Observer for FlightRecorder {
    fn on_query_start(&mut self, _index: usize, _query: &TraceQuery) {
        self.failed_this_query = 0;
        self.degraded_this_query = 0;
    }

    fn on_access(&mut self, event: &CostEvent<'_>) {
        let ring = self.rings.entry(event.tier).or_default();
        if ring.len() == self.depth {
            ring.pop_front();
        }
        ring.push_back(EventRecord::from_event(event));
        self.failed_this_query += event.window.failed_slices;
        self.degraded_this_query += event.window.degraded_slices;
    }

    fn on_query_end(&mut self, index: usize, _query: &TraceQuery) {
        if self.failed_this_query == 0 && self.degraded_this_query == 0 {
            return;
        }
        if self.postmortems.len() >= Self::MAX_POSTMORTEMS {
            self.truncated += 1;
            return;
        }
        self.postmortems.push(Postmortem {
            query: index,
            failed_slices: self.failed_this_query,
            degraded_slices: self.degraded_this_query,
            tiers: self
                .rings
                .iter()
                .map(|(&tier, ring)| (tier, ring.iter().copied().collect()))
                .collect(),
            context: self.context.clone(),
        });
    }

    fn warnings(&mut self) -> Vec<String> {
        if self.truncated == 0 {
            return Vec::new();
        }
        vec![format!(
            "flight recorder: {} more failing/degraded queries after the first {} postmortems were counted but not recorded",
            self.truncated,
            Self::MAX_POSTMORTEMS
        )]
    }
}

fn render_event(out: &mut String, e: &EventRecord) {
    let w = &e.window;
    let _ = write!(
        out,
        "    q{:>6}  obj {:>5}  srv {}  {:<6}  delivered {:>10}",
        e.query,
        e.object.raw(),
        e.server.raw(),
        e.decision.label(),
        w.delivered.raw(),
    );
    if w.retries > 0 {
        let _ = write!(
            out,
            "  retries {} (+{} wasted B)",
            w.retries,
            w.retried_bytes.raw()
        );
    }
    if w.failed_slices > 0 {
        let _ = write!(out, "  FAILED ({} B undelivered)", w.failed_bytes.raw());
    }
    if w.degraded_slices > 0 {
        let _ = write!(out, "  DEGRADED (served stale)");
    }
    out.push('\n');
}

/// Render one postmortem as an annotated text block: the failing query,
/// the fault context (so active outage windows can be read off against
/// the event ticks), and the last events per tier leading up to the
/// failure.
pub fn render_postmortem(p: &Postmortem) -> String {
    let mut out = String::new();
    let what = if p.failed_slices > 0 {
        "failed"
    } else {
        "degraded"
    };
    let _ = writeln!(
        out,
        "postmortem: query {} {} ({} failed, {} degraded slices)",
        p.query, what, p.failed_slices, p.degraded_slices
    );
    let _ = writeln!(out, "  faults: {}", p.context);
    for (tier, events) in &p.tiers {
        let _ = writeln!(out, "  tier {tier} (last {} events):", events.len());
        for e in events {
            render_event(&mut out, e);
        }
    }
    out
}

/// Render every postmortem plus a truncation note when the recorder
/// overflowed — the CLI's `--flight-recorder` dump.
pub fn render_postmortems(postmortems: &[Postmortem], truncated: u64) -> String {
    let mut out = String::new();
    for p in postmortems {
        out.push_str(&render_postmortem(p));
    }
    if truncated > 0 {
        let _ = writeln!(
            out,
            "... {truncated} further failing/degraded queries not recorded"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::DecisionKind;
    use byc_catalog::sdss::{build, SdssRelease};
    use byc_catalog::{Granularity, ObjectCatalog};
    use byc_federation::{
        DegradationPolicy, Outage, OutageWindows, QueryWindow, ReplaySession, RetryPolicy,
    };
    use byc_types::{Bytes, ObjectId, ServerId, Tick};

    fn failing_postmortem() -> Postmortem {
        let ok = EventRecord {
            query: 118,
            object: ObjectId::new(4),
            server: ServerId::new(1),
            decision: DecisionKind::Bypass,
            fetch_price: Bytes::new(2000),
            occupancy: Bytes::ZERO,
            tier: 0,
            window: QueryWindow {
                delivered: Bytes::new(500),
                bypass_served: Bytes::new(500),
                bypass_cost: Bytes::new(500),
                bypasses: 1,
                ..QueryWindow::default()
            },
        };
        let bad = EventRecord {
            query: 120,
            object: ObjectId::new(7),
            server: ServerId::new(0),
            window: QueryWindow {
                retried_bytes: Bytes::new(1200),
                failed_bytes: Bytes::new(600),
                bypasses: 1,
                retries: 2,
                failed_slices: 1,
                ..QueryWindow::default()
            },
            ..ok
        };
        Postmortem {
            query: 120,
            failed_slices: 1,
            degraded_slices: 0,
            tiers: vec![(0, vec![ok, bad])],
            context: "outage: server 0 down [100, 160); retry up to 2; on exhaustion fail"
                .to_string(),
        }
    }

    #[test]
    fn text_render_annotates_failures_and_truncation() {
        let p = failing_postmortem();
        let text = render_postmortems(std::slice::from_ref(&p), 3);
        assert!(text.contains("postmortem: query 120 failed"));
        assert!(text.contains("outage: server 0 down [100, 160)"));
        assert!(text.contains("FAILED (600 B undelivered)"));
        assert!(text.contains("retries 2 (+1200 wasted B)"));
        assert!(text.contains("... 3 further failing/degraded queries not recorded"));
    }

    #[test]
    fn flight_recorder_snapshots_failing_queries() {
        let cat = build(SdssRelease::Edr, 1e-3, 1);
        let trace =
            byc_workload::generate(&cat, &byc_workload::WorkloadConfig::smoke(43, 1000)).unwrap();
        let objects = ObjectCatalog::uniform(&cat, Granularity::Column);
        let outage = OutageWindows::new(vec![Outage {
            server: ServerId::new(0),
            from: Tick::new(100),
            until: Tick::new(160),
        }]);
        let mut policy = byc_core::static_opt::NoCache;
        let mut recorder = FlightRecorder::new(4).with_context("test outage".into());
        let report = ReplaySession::new(&trace, &objects)
            .policy(&mut policy)
            .faults(&outage)
            .retry(RetryPolicy::new(1, 1))
            .degrade(DegradationPolicy::Fail)
            .observe(&mut recorder)
            .run()
            .unwrap()
            .report;
        assert!(report.failed_queries > 0);
        let seen = recorder.postmortems().len() as u64 + recorder.truncated();
        assert_eq!(seen, report.failed_queries);
        let first = &recorder.postmortems()[0];
        assert!(first.failed_slices > 0);
        assert_eq!(first.context, "test outage");
        assert!((100..160).contains(&(first.query as u64)));
        let (tier, ring) = &first.tiers[0];
        assert_eq!(*tier, 0);
        assert!(!ring.is_empty() && ring.len() <= 4);
        // Rings hold the events leading up to (and including) the
        // failure, oldest first.
        assert!(ring.windows(2).all(|w| w[0].query <= w[1].query));
        assert_eq!(ring.last().unwrap().query, first.query as u64);
        assert!(ring.iter().any(|e| e.window.failed_slices == 1));
        if report.failed_queries > FlightRecorder::MAX_POSTMORTEMS as u64 {
            assert!(!recorder.warnings().is_empty());
        }
    }
}
