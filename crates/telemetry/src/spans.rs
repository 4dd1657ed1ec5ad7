//! Deterministic span tracing: a phase tree over the replay pipeline,
//! exported as Chrome trace-event JSON loadable in Perfetto.
//!
//! The tracer's clock is the **query index** — the only clock the
//! workload has — so a trace is bit-identical across runs of the same
//! seed (the proptest suite pins this across every shipped policy).
//! Chrome's trace format wants microseconds; ticks map 1:1 onto them,
//! so one query renders as one microsecond of span time and the tree's
//! *shape* (what nested where, how many queries each phase covered) is
//! exact even though no wall clock was read.
//!
//! [`SpanObserver`] rides a replay as an [`Observer`] and grows the
//! phase tree live: one root span per replay, one child span per chunk
//! of queries (so a 100M-query replay yields a bounded tree, not 100M
//! spans), and per-tier resolve summaries on tiered topologies. It
//! reports [`Observer::wants_accesses`]` == false` unless tier detail
//! was requested, so the replay kernel ticks spans at query boundaries
//! without any per-slice dispatch.

use byc_core::policy::CachePolicy;
use byc_federation::{CostEvent, Observer};
use byc_types::json::Value;
use byc_types::{Error, Result};
use byc_workload::TraceQuery;
use std::collections::BTreeMap;
use std::path::Path;

/// Schema identifier stamped into the Chrome trace's `otherData`.
pub const SPAN_SCHEMA: &str = "byc.telemetry.spans";

/// Current span-trace schema version.
pub const SPAN_SCHEMA_VERSION: u64 = 1;

/// One recorded span: a named phase covering the tick range
/// `[start, end]`, nested `depth` levels deep at the time it opened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Phase name (e.g. `replay GDS`, `queries 0..1024`).
    pub name: String,
    /// Category, used by Perfetto for filtering (`pipeline`, `replay`,
    /// `tier`, `sweep`).
    pub cat: String,
    /// Tick at which the span opened.
    pub start: u64,
    /// Tick at which the span closed (`== start` for instant spans).
    pub end: u64,
    /// Nesting depth when the span opened (0 = root).
    pub depth: u32,
    /// Numeric annotations, exported under the Chrome event's `args`.
    pub args: Vec<(String, u64)>,
}

/// Records a tree of [`Span`]s against a deterministic tick clock.
///
/// The tick only moves via [`SpanTracer::set_tick`] and is monotonic
/// (stale ticks are ignored), so out-of-order hooks cannot produce a
/// span that ends before it starts.
#[derive(Debug, Default)]
pub struct SpanTracer {
    tid: u32,
    tick: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanTracer {
    /// A tracer on thread id 0.
    pub fn new() -> SpanTracer {
        SpanTracer::default()
    }

    /// Set the thread id this tracer's spans export under (one tid per
    /// logical thread: pipeline, replay loop, each sweep worker).
    #[must_use]
    pub fn with_tid(mut self, tid: u32) -> SpanTracer {
        self.tid = tid;
        self
    }

    /// The exported thread id.
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// The current tick.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Advance the clock. Monotonic: a tick below the current one is
    /// ignored.
    pub fn set_tick(&mut self, tick: u64) {
        self.tick = self.tick.max(tick);
    }

    /// Open a span at the current tick.
    pub fn begin(&mut self, name: &str, cat: &str) {
        let depth = u32::try_from(self.open.len()).unwrap_or(u32::MAX);
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name: name.to_string(),
            cat: cat.to_string(),
            start: self.tick,
            end: self.tick,
            depth,
            args: Vec::new(),
        });
    }

    /// Annotate the innermost open span. No-op when nothing is open.
    pub fn arg(&mut self, key: &str, value: u64) {
        if let Some(&idx) = self.open.last() {
            if let Some(span) = self.spans.get_mut(idx) {
                span.args.push((key.to_string(), value));
            }
        }
    }

    /// Close the innermost open span at the current tick. No-op when
    /// nothing is open.
    pub fn end(&mut self) {
        if let Some(idx) = self.open.pop() {
            if let Some(span) = self.spans.get_mut(idx) {
                span.end = self.tick;
            }
        }
    }

    /// Close every still-open span at the current tick (outermost last).
    pub fn close_all(&mut self) {
        while !self.open.is_empty() {
            self.end();
        }
    }

    /// Record a complete span over `[start, end]` in one call, nested
    /// under whatever is currently open. Used for synthetic summaries
    /// (per-tier resolve totals) whose extent is only known at the end.
    pub fn record(&mut self, name: &str, cat: &str, start: u64, end: u64, args: &[(&str, u64)]) {
        let depth = u32::try_from(self.open.len()).unwrap_or(u32::MAX);
        self.spans.push(Span {
            name: name.to_string(),
            cat: cat.to_string(),
            start,
            end: end.max(start),
            depth,
            args: args.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        });
    }

    /// Every span recorded so far, in open order. Spans still open
    /// export as zero-length; call [`SpanTracer::close_all`] first.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

fn chrome_metadata(name: &str, tid: u32, value: &str) -> Value {
    Value::Object(vec![
        ("name".into(), Value::str(name)),
        ("ph".into(), Value::str("M")),
        ("pid".into(), Value::u64(0)),
        ("tid".into(), Value::u64(u64::from(tid))),
        (
            "args".into(),
            Value::Object(vec![("name".into(), Value::str(value))]),
        ),
    ])
}

fn chrome_span(span: &Span, tid: u32) -> Value {
    let mut args: Vec<(String, Value)> = Vec::with_capacity(span.args.len() + 1);
    args.push(("depth".into(), Value::u64(u64::from(span.depth))));
    for (key, value) in &span.args {
        args.push((key.clone(), Value::u64(*value)));
    }
    Value::Object(vec![
        ("name".into(), Value::str(&span.name)),
        ("cat".into(), Value::str(&span.cat)),
        ("ph".into(), Value::str("X")),
        ("ts".into(), Value::u64(span.start)),
        (
            "dur".into(),
            Value::u64(span.end.saturating_sub(span.start)),
        ),
        ("pid".into(), Value::u64(0)),
        ("tid".into(), Value::u64(u64::from(tid))),
        ("args".into(), Value::Object(args)),
    ])
}

/// Render tracers — one per logical thread, labelled — as a single
/// Chrome trace-event JSON document (the "JSON Array Format" with
/// `traceEvents`), loadable in Perfetto / `chrome://tracing`.
///
/// Fully deterministic: same tracers, same bytes. Tick time exports as
/// microseconds (1 query = 1µs).
pub fn chrome_trace<'a>(threads: impl IntoIterator<Item = (&'a SpanTracer, &'a str)>) -> Value {
    let mut events = vec![chrome_metadata("process_name", 0, "byc-replay")];
    for (tracer, label) in threads {
        events.push(chrome_metadata("thread_name", tracer.tid(), label));
        for span in tracer.spans() {
            events.push(chrome_span(span, tracer.tid()));
        }
    }
    Value::Object(vec![
        ("traceEvents".into(), Value::Array(events)),
        ("displayTimeUnit".into(), Value::str("ms")),
        (
            "otherData".into(),
            Value::Object(vec![
                ("schema".into(), Value::str(SPAN_SCHEMA)),
                ("version".into(), Value::u64(SPAN_SCHEMA_VERSION)),
                (
                    "clock".into(),
                    Value::str("query-index ticks as microseconds"),
                ),
            ]),
        ),
    ])
}

/// Write a Chrome trace for `threads` to `path`.
///
/// # Errors
///
/// [`Error::Io`] on write failure.
pub fn write_chrome_trace<'a>(
    path: &Path,
    threads: impl IntoIterator<Item = (&'a SpanTracer, &'a str)>,
) -> Result<()> {
    std::fs::write(path, format!("{}\n", chrome_trace(threads))).map_err(Error::from)
}

/// The span-tracing [`Observer`]: grows a bounded phase tree over one
/// replay.
///
/// The tree is: a root `replay <policy>` span covering the whole run,
/// one `queries A..B` child per chunk of queries, and (with
/// [`SpanObserver::with_tier_detail`]) one synthetic `tier N resolve`
/// summary per caching tier. Without tier detail the observer opts out
/// of per-access dispatch entirely ([`Observer::wants_accesses`] is
/// `false`), so span ticking costs two calls per *query*, not per
/// slice.
#[derive(Debug)]
pub struct SpanObserver {
    tracer: SpanTracer,
    chunk: u64,
    in_chunk: u64,
    queries: u64,
    accesses: u64,
    tier_accesses: BTreeMap<u32, u64>,
    tier_detail: bool,
}

impl SpanObserver {
    /// Queries per chunk span when none is configured.
    pub const DEFAULT_CHUNK: u64 = 1024;

    /// An observer rooted at a `replay <policy>` span, chunking every
    /// [`SpanObserver::DEFAULT_CHUNK`] queries, no tier detail.
    pub fn new(policy: &str) -> SpanObserver {
        let mut tracer = SpanTracer::new();
        tracer.begin(&format!("replay {policy}"), "replay");
        SpanObserver {
            tracer,
            chunk: Self::DEFAULT_CHUNK,
            in_chunk: 0,
            queries: 0,
            accesses: 0,
            tier_accesses: BTreeMap::new(),
            tier_detail: false,
        }
    }

    /// Queries per chunk span (0 = no chunk spans, root only).
    #[must_use]
    pub fn with_chunk(mut self, chunk: u64) -> SpanObserver {
        self.chunk = chunk;
        self
    }

    /// Record per-tier resolve summaries. Costs per-slice dispatch:
    /// [`Observer::wants_accesses`] becomes `true`.
    #[must_use]
    pub fn with_tier_detail(mut self, on: bool) -> SpanObserver {
        self.tier_detail = on;
        self
    }

    /// Export spans under `tid` (for sweep workers: one tid per job).
    #[must_use]
    pub fn with_tid(mut self, tid: u32) -> SpanObserver {
        self.tracer = self.tracer.with_tid(tid);
        self
    }

    /// The tracer grown so far.
    pub fn tracer(&self) -> &SpanTracer {
        &self.tracer
    }

    /// Consume the observer, handing back its tracer for export.
    pub fn into_tracer(self) -> SpanTracer {
        self.tracer
    }

    fn close_chunk(&mut self) {
        if self.chunk > 0 && self.in_chunk > 0 {
            self.tracer.arg("queries", self.in_chunk);
            self.tracer.end();
            self.in_chunk = 0;
        }
    }
}

impl Observer for SpanObserver {
    fn on_query_start(&mut self, index: usize, _query: &TraceQuery) {
        self.tracer.set_tick(index as u64);
        if self.chunk > 0 && self.in_chunk == 0 {
            let start = index as u64;
            let name = format!("queries {start}..{}", start.saturating_add(self.chunk));
            self.tracer.begin(&name, "replay");
        }
    }

    fn on_access(&mut self, event: &CostEvent<'_>) {
        self.accesses += 1;
        *self.tier_accesses.entry(event.tier).or_insert(0) += 1;
    }

    fn on_query_end(&mut self, index: usize, _query: &TraceQuery) {
        self.tracer.set_tick(index as u64 + 1);
        self.queries += 1;
        if self.chunk > 0 {
            self.in_chunk += 1;
            if self.in_chunk == self.chunk {
                self.close_chunk();
            }
        }
    }

    fn finish(&mut self, _policy: Option<&dyn CachePolicy>) {
        self.close_chunk();
        let end = self.tracer.tick();
        if self.tier_detail {
            let tiers = std::mem::take(&mut self.tier_accesses);
            for (tier, accesses) in tiers {
                self.tracer.record(
                    &format!("tier {tier} resolve"),
                    "tier",
                    0,
                    end,
                    &[("accesses", accesses)],
                );
            }
        }
        self.tracer.arg("queries", self.queries);
        if self.tier_detail {
            self.tracer.arg("accesses", self.accesses);
        }
        self.tracer.close_all();
    }

    fn wants_accesses(&self) -> bool {
        self.tier_detail
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close_in_stack_order() {
        let mut t = SpanTracer::new();
        t.begin("outer", "pipeline");
        t.set_tick(5);
        t.begin("inner", "pipeline");
        t.set_tick(9);
        t.arg("n", 4);
        t.end();
        t.set_tick(12);
        t.end();
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].start, spans[0].end, spans[0].depth), (0, 12, 0));
        assert_eq!((spans[1].start, spans[1].end, spans[1].depth), (5, 9, 1));
        assert_eq!(spans[1].args, vec![("n".to_string(), 4)]);
    }

    #[test]
    fn ticks_are_monotonic_and_ends_never_precede_starts() {
        let mut t = SpanTracer::new();
        t.set_tick(10);
        t.begin("a", "x");
        t.set_tick(3); // stale: ignored
        t.end();
        assert_eq!(t.spans()[0].start, 10);
        assert_eq!(t.spans()[0].end, 10);
        t.end(); // nothing open: no-op
        assert_eq!(t.spans().len(), 1);
    }

    #[test]
    fn synthetic_records_and_close_all() {
        let mut t = SpanTracer::new();
        t.begin("root", "replay");
        t.record("tier 1 resolve", "tier", 2, 7, &[("accesses", 40)]);
        t.set_tick(9);
        t.close_all();
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].depth, 1);
        assert_eq!(t.spans()[1].end, 7);
        assert_eq!(t.spans()[0].end, 9);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_metadata() {
        let mut t = SpanTracer::new().with_tid(3);
        t.begin("replay GDS", "replay");
        t.set_tick(100);
        t.end();
        let trace = chrome_trace([(&t, "replay worker")]);
        let back = Value::parse(&trace.to_string()).unwrap();
        assert_eq!(back, trace);
        let events = back["traceEvents"].as_array().unwrap();
        // process_name + thread_name + one span.
        assert_eq!(events.len(), 3);
        assert_eq!(events[0]["ph"].as_str(), Some("M"));
        assert_eq!(events[1]["args"]["name"].as_str(), Some("replay worker"));
        let span = &events[2];
        assert_eq!(span["ph"].as_str(), Some("X"));
        assert_eq!(span["ts"].as_u64(), Some(0));
        assert_eq!(span["dur"].as_u64(), Some(100));
        assert_eq!(span["tid"].as_u64(), Some(3));
        assert_eq!(back["otherData"]["schema"].as_str(), Some(SPAN_SCHEMA));
    }

    #[test]
    fn identical_inputs_render_identical_traces() {
        let build = || {
            let mut t = SpanTracer::new();
            t.begin("replay", "replay");
            for q in 0..50u64 {
                t.set_tick(q);
            }
            t.set_tick(50);
            t.end();
            t
        };
        let (a, b) = (build(), build());
        assert_eq!(a.spans(), b.spans());
        assert_eq!(
            chrome_trace([(&a, "x")]).to_string(),
            chrome_trace([(&b, "x")]).to_string()
        );
    }
}
