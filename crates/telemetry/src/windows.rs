//! Windowed metrics streams: a [`WindowedRegistry`] observer that
//! streams each window of a [`Breakdown`] as an NDJSON
//! `byc.telemetry.window` record the moment it closes.
//!
//! End-of-run reports flatten a 25k-query replay into one number per
//! metric; the windowed stream keeps the *trajectory* — hit-rate ramps
//! while a cache warms, WAN spikes while an origin is down, availability
//! dips and recoveries — which is what an operated mediator (and the
//! ROADMAP's `byc-serve` gateway) actually watches. Every record carries
//! the same 15 counters as the Prometheus exposition
//! ([`WINDOW_COLUMNS`]), under the same names, plus per-tier splits on
//! tiered topologies.
//!
//! Like everything in this crate the stream is deterministic: windows
//! are keyed by query index and the [`Breakdown`] folds them with
//! field-by-field integer arithmetic into ordered maps — two same-seed
//! replays render byte-identical streams. The registry keeps its
//! [`Breakdown`] ([`WindowedRegistry::breakdown`]) so the end of the run
//! can reconcile the windows against the final `CostReport` exactly.

use byc_core::policy::CachePolicy;
use byc_federation::{Breakdown, CostEvent, Observer, QueryWindow, Window};
use byc_types::json::Value;
use byc_types::Error;
use byc_workload::TraceQuery;

use crate::export::WINDOW_COLUMNS;

/// Schema tag stamped into the stream's header line.
pub const WINDOW_SCHEMA: &str = "byc.telemetry.window";

/// Version stamped into the stream's header line.
pub const WINDOW_SCHEMA_VERSION: u64 = 1;

/// Render window `index` as a `byc.telemetry.window` NDJSON record: window
/// ordinal (`w`), query range (`from`/`to`, half-open), the 15
/// [`WINDOW_COLUMNS`] under their full exposition names, and a `tiers`
/// array with the same columns per tier whenever the window spans more
/// than one tier.
pub fn window_record(index: usize, window: &Window) -> Value {
    let mut fields = vec![
        ("w".into(), Value::u64(index as u64)),
        ("from".into(), Value::u64(window.queries.start as u64)),
        ("to".into(), Value::u64(window.queries.end as u64)),
    ];
    push_columns(&mut fields, &window.total());
    let tiers = window.tiers();
    if tiers.len() > 1 {
        let tiers = tiers
            .iter()
            .map(|(tier, counters)| {
                let mut f = vec![("tier".into(), Value::u64(u64::from(*tier)))];
                push_columns(&mut f, counters);
                Value::Object(f)
            })
            .collect();
        fields.push(("tiers".into(), Value::Array(tiers)));
    }
    Value::Object(fields)
}

/// Append the [`WINDOW_COLUMNS`] of `counters` to a record's fields.
fn push_columns(fields: &mut Vec<(String, Value)>, counters: &QueryWindow) {
    for (name, _, extract) in WINDOW_COLUMNS {
        fields.push((name.into(), Value::u64(extract(counters))));
    }
}

/// The stream's header line: schema, version, policy label, and the
/// window length.
pub fn window_header(policy: &str, every: usize) -> Value {
    Value::Object(vec![
        ("schema".into(), Value::str(WINDOW_SCHEMA)),
        ("version".into(), Value::u64(WINDOW_SCHEMA_VERSION)),
        ("policy".into(), Value::str(policy)),
        ("every".into(), Value::u64(every as u64)),
    ])
}

/// An [`Observer`] that folds the replay into a [`Breakdown`] closing a
/// window every `every` queries.
///
/// When a sink is attached ([`WindowedRegistry::with_sink`]) each window
/// streams out as an NDJSON record flushed the moment it closes — a
/// `tail -f` of the stream shows the replay's live trajectory. IO
/// follows the crate's parking discipline: the first error parks, later
/// writes no-op, and the parked error surfaces through
/// [`Observer::warnings`] so `ReplaySession` callers see it in the
/// replay's warning list.
pub struct WindowedRegistry {
    policy: String,
    every: usize,
    breakdown: Breakdown,
    sink: Option<Box<dyn std::io::Write + Send>>,
    parked: Option<Error>,
}

impl std::fmt::Debug for WindowedRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowedRegistry")
            .field("policy", &self.policy)
            .field("every", &self.every)
            .field("windows", &self.breakdown.windows().len())
            .field("sink", &self.sink.is_some())
            .field("parked", &self.parked)
            .finish()
    }
}

impl WindowedRegistry {
    /// A registry closing a window every `every` queries (clamped to at
    /// least 1), stamped with the policy label.
    pub fn new(policy: &str, every: usize) -> Self {
        WindowedRegistry {
            policy: policy.to_string(),
            every: every.max(1),
            breakdown: Breakdown::every(every),
            sink: None,
            parked: None,
        }
    }

    /// Stream records into `sink` as windows close. The schema header
    /// line is written immediately; each window record is written and
    /// flushed the moment the window closes.
    pub fn with_sink(mut self, sink: Box<dyn std::io::Write + Send>) -> Self {
        self.sink = Some(sink);
        let header = window_header(&self.policy, self.every);
        self.write_line(&header);
        self
    }

    /// The configured window length in queries.
    pub fn every(&self) -> usize {
        self.every
    }

    /// The policy label the stream is stamped with.
    pub fn policy(&self) -> &str {
        &self.policy
    }

    /// The windows folded so far; after `finish`, exactly the whole
    /// replay, reconcilable field for field against the final
    /// `CostReport`.
    pub fn breakdown(&self) -> &Breakdown {
        &self.breakdown
    }

    fn write_line(&mut self, value: &Value) {
        if self.parked.is_some() {
            return;
        }
        if let Some(sink) = self.sink.as_mut() {
            let line = format!("{value}\n");
            let io = sink.write_all(line.as_bytes()).and_then(|()| sink.flush());
            if let Err(e) = io {
                self.parked = Some(e.into());
            }
        }
    }

    /// Stream the last window when `closes` holds for its length in
    /// queries.
    fn write_last_if(&mut self, closes: impl Fn(usize) -> bool) {
        let windows = self.breakdown.windows();
        if let Some(window) = windows.last().filter(|w| closes(w.queries.len())) {
            let record = window_record(windows.len() - 1, window);
            self.write_line(&record);
        }
    }
}

impl Observer for WindowedRegistry {
    fn on_query_start(&mut self, index: usize, query: &TraceQuery) {
        self.breakdown.on_query_start(index, query);
    }

    fn on_access(&mut self, event: &CostEvent<'_>) {
        self.breakdown.on_access(event);
    }

    /// A window closes once it holds `every` queries.
    fn on_query_end(&mut self, index: usize, query: &TraceQuery) {
        self.breakdown.on_query_end(index, query);
        let every = self.every;
        self.write_last_if(|queries| queries == every);
    }

    /// The replay's trailing partial window closes with the replay.
    fn finish(&mut self, _policy: Option<&dyn CachePolicy>) {
        let every = self.every;
        self.write_last_if(|queries| queries < every);
    }

    fn warnings(&mut self) -> Vec<String> {
        match self.parked.take() {
            Some(e) => vec![format!("window stream: {e}")],
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byc_catalog::sdss::{build, SdssRelease};
    use byc_catalog::{Granularity, ObjectCatalog};
    use byc_federation::{build_policy, PolicyKind, Replay, ReplaySession};
    use byc_workload::{generate, Trace, WorkloadConfig, WorkloadStats};
    use std::sync::{Arc, Mutex};

    fn setup() -> (Trace, ObjectCatalog) {
        let cat = build(SdssRelease::Edr, 1e-3, 3);
        let trace = generate(&cat, &WorkloadConfig::smoke(43, 1000)).unwrap();
        let objects = ObjectCatalog::uniform(&cat, Granularity::Column);
        (trace, objects)
    }

    fn run_observed(
        registry: &mut WindowedRegistry,
        trace: &Trace,
        objects: &ObjectCatalog,
        kind: PolicyKind,
    ) -> Replay {
        let stats = WorkloadStats::compute(trace, objects);
        let capacity = objects.total_size().scale(0.2);
        let mut policy = build_policy(kind, capacity, &stats.demands, 7);
        ReplaySession::new(trace, objects)
            .policy(policy.as_mut())
            .observe(registry)
            .run()
            .unwrap()
    }

    #[test]
    fn windows_tile_the_replay_and_totals_reconcile() {
        let (trace, objects) = setup();
        let mut registry = WindowedRegistry::new("GDS", 256);
        let replay = run_observed(&mut registry, &trace, &objects, PolicyKind::Gds);

        let snaps = registry.breakdown().windows();
        assert_eq!(snaps.len(), 4, "1000 queries / 256 = 3 full + 1 partial");
        let mut expected_start = 0;
        for s in snaps {
            assert_eq!(s.queries.start, expected_start, "windows tile without gaps");
            expected_start = s.queries.end;
            assert!(s.total().conserves_delivery());
            // Flat topology: the tier split is a single tier-0 entry.
            assert!(s.tiers().iter().all(|&(t, _)| t == 0));
        }
        assert_eq!(snaps.last().map(|s| s.queries.end), Some(1000));

        // The windows partition the replay: their sum is the replay.
        let report = &replay.report;
        let totals = registry.breakdown().total();
        assert_eq!(totals.hits, report.hits);
        assert_eq!(totals.bypasses, report.bypasses);
        assert_eq!(totals.loads, report.loads);
        assert_eq!(totals.evictions, report.evictions);
        assert_eq!(totals.delivered, report.sequence_cost);
        assert_eq!(totals.bypass_cost, report.bypass_cost);
        assert_eq!(totals.fetch_cost, report.fetch_cost);
        assert_eq!(totals.cache_served, report.cache_served);
        assert_eq!(totals.wan_cost(), report.total_cost());
    }

    #[test]
    fn stream_renders_header_and_one_record_per_window() {
        #[derive(Clone, Default)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if let Ok(mut b) = self.0.lock() {
                    b.extend_from_slice(buf);
                }
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let (trace, objects) = setup();
        let buf = SharedBuf::default();
        let mut registry = WindowedRegistry::new("LRU", 400).with_sink(Box::new(buf.clone()));
        let _ = run_observed(&mut registry, &trace, &objects, PolicyKind::Lru);
        assert!(registry.warnings().is_empty());

        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Header + 3 windows (400 + 400 + 200).
        assert_eq!(lines.len(), 4);
        let header = Value::parse(lines.first().copied().unwrap_or("")).unwrap();
        assert_eq!(
            header.get("schema").and_then(Value::as_str),
            Some(WINDOW_SCHEMA)
        );
        assert_eq!(header.get("every").and_then(Value::as_u64), Some(400));
        for (i, line) in lines.iter().enumerate().skip(1) {
            let v = Value::parse(line).unwrap();
            assert_eq!(v.get("w").and_then(Value::as_u64), Some(i as u64 - 1));
            let from = v.get("from").and_then(Value::as_u64).unwrap();
            let to = v.get("to").and_then(Value::as_u64).unwrap();
            assert!(from < to);
            for (name, _, _) in WINDOW_COLUMNS {
                assert!(v.get(name).is_some(), "record carries column {name}");
            }
            // Flat topology: no per-tier split in the record.
            assert!(v.get("tiers").is_none());
        }
    }

    #[test]
    fn broken_sink_parks_one_warning() {
        struct Broken;
        impl std::io::Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("sink full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let (trace, objects) = setup();
        let mut registry = WindowedRegistry::new("LRU", 100).with_sink(Box::new(Broken));
        let replay = run_observed(&mut registry, &trace, &objects, PolicyKind::Lru);

        // Windows still accumulate; the IO failure surfaces once —
        // both directly and through the session's warning list.
        assert_eq!(registry.breakdown().windows().len(), 10);
        assert!(
            replay.warnings.iter().any(|w| w.contains("sink full")),
            "session surfaced: {:?}",
            replay.warnings
        );
        assert!(registry.warnings().is_empty(), "session drained the error");
    }
}
