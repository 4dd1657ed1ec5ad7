//! The traced run: each workload's pipeline rebuilt from the layers'
//! public functions, with every call into a layer timed from outside
//! the program.
//!
//! Coarse calls (decode, catalog build, one replay) are timed in full
//! and kept as spans. Per-access calls (`CachePolicy::on_access`,
//! `Observer` hooks) and per-call mediator stages go through a
//! [`Sampler`] that times one call in [`SAMPLE_EVERY`] and scales by the
//! exact call count: reading the clock on every call more than doubles
//! replay time. Sweeps are rebuilt cell by cell on one thread.

use crate::child::{build_mediator, obj, Tally};
use crate::workload::{
    Files, Shape, Workload, CACHE_FRACTION, FLAKY_P, INPUT_SEED, RETRY, SCALE, SPIKE,
};
use byc_catalog::sdss::{self, SdssRelease};
use byc_catalog::{Granularity, ObjectCatalog};
use byc_core::{Access, CachePolicy, Decision};
use byc_engine::YieldModel;
use byc_federation::{
    build_policy, policy_roster, CostEvent, DegradationPolicy, FaultModel, FlakyLinks, Observer,
    PerServerObserver, PolicyKind, ReplaySession, RetryPolicy, Topology, Uniform,
};
use byc_telemetry::{write_metrics, MetricsFormat, MetricsRegistry, TelemetryObserver};
use byc_types::json::Value;
use byc_types::{Bytes, ObjectId, QueryId, Result};
use byc_workload::{io::read_trace, TraceQuery, WorkloadStats};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One per-access call in this many is timed.
const SAMPLE_EVERY: u64 = 64;
/// Spans are kept for one query in this many.
const SPAN_EVERY: usize = 1000;
/// The cache fractions `byc sweep` replays.
const FRACTIONS: [f64; 7] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.75, 1.0];
/// `byc`'s retry backoff unit, in query-index ticks.
const RETRY_BACKOFF_BASE: u64 = 1;

/// What reading the clock around nothing measures: the median of many
/// empty timings. Every sampled call is that much too long, and at
/// 50-100 ns per policy decision the bias is not negligible.
fn timer_overhead_ns() -> u64 {
    static OVERHEAD: OnceLock<u64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut empty: Vec<u64> = (0..10_001)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(());
                start.elapsed().as_nanos() as u64
            })
            .collect();
        empty.sort_unstable();
        empty[empty.len() / 2]
    })
}

/// Sampled timing of one call site: times one call in [`SAMPLE_EVERY`]
/// and scales by the exact call count. Plain counters: an atomic add
/// per call costs a third of a 15 ns policy decision.
#[derive(Clone, Copy, Debug, Default)]
struct Sampler {
    calls: u64,
    sampled: u64,
    sampled_ns: u64,
}

impl Sampler {
    /// Run `f`, timing it if this is the sampled call.
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        if self.calls % SAMPLE_EVERY != 1 {
            return f();
        }
        let start = Instant::now();
        let r = f();
        let ns = (start.elapsed().as_nanos() as u64).saturating_sub(timer_overhead_ns());
        self.sampled += 1;
        self.sampled_ns += ns;
        r
    }

    /// Fold `other`'s calls and samples in.
    fn merge(&mut self, other: &Sampler) {
        self.calls += other.calls;
        self.sampled += other.sampled;
        self.sampled_ns += other.sampled_ns;
    }

    /// Calls made so far.
    fn calls(&self) -> u64 {
        self.calls
    }

    /// Estimated seconds spent in all calls.
    fn estimate_s(&self) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        self.sampled_ns as f64 * self.calls as f64 / self.sampled as f64 / 1e9
    }
}

/// Where timed policies leave their samples when dropped: the mediator
/// owns its policy, so its samples are only reachable this way.
type Sink = Arc<Mutex<Sampler>>;

fn sunk(sink: &Sink) -> Sampler {
    sink.lock().map(|s| *s).unwrap_or_default()
}

/// A policy whose decisions are timed; merges its samples into `sink`
/// when dropped.
struct TimedPolicy<P> {
    inner: P,
    sampler: Sampler,
    sink: Sink,
}

impl<P> TimedPolicy<P> {
    fn new(inner: P, sink: &Sink) -> Self {
        TimedPolicy {
            inner,
            sampler: Sampler::default(),
            sink: sink.clone(),
        }
    }
}

impl<P> Drop for TimedPolicy<P> {
    fn drop(&mut self) {
        // A poisoned sink only loses samples; never panic in drop.
        if let Ok(mut s) = self.sink.lock() {
            s.merge(&self.sampler);
        }
    }
}

impl<P: CachePolicy> CachePolicy for TimedPolicy<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_access(&mut self, access: &Access) -> Decision {
        let inner = &mut self.inner;
        self.sampler.time(|| inner.on_access(access))
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
        self.inner.invalidate(object)
    }
}

/// An observer whose per-query and per-access hooks are timed; counts
/// the access events it sees.
struct TimedObserver<O> {
    inner: O,
    sampler: Sampler,
    events: u64,
}

impl<O: Observer> Observer for TimedObserver<O> {
    fn on_query_start(&mut self, index: usize, query: &TraceQuery) {
        let inner = &mut self.inner;
        self.sampler.time(|| inner.on_query_start(index, query));
    }

    fn on_access(&mut self, event: &CostEvent<'_>) {
        self.events += 1;
        let inner = &mut self.inner;
        self.sampler.time(|| inner.on_access(event));
    }

    fn on_query_end(&mut self, index: usize, query: &TraceQuery) {
        let inner = &mut self.inner;
        self.sampler.time(|| inner.on_query_end(index, query));
    }

    fn finish(&mut self, policy: Option<&dyn CachePolicy>) {
        self.inner.finish(policy);
    }

    fn wants_accesses(&self) -> bool {
        self.inner.wants_accesses()
    }

    fn warnings(&mut self) -> Vec<String> {
        self.inner.warnings()
    }
}

/// One timed span: a name, its interval in nanoseconds since the
/// tracer's epoch, the span that caused it, and the query it served.
#[derive(Clone, Debug)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: Option<u64>,
}

/// Spans kept in memory and written out as Chrome-trace JSON at the end.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its id.
    fn begin(&mut self, name: impl Into<String>, request: Option<u64>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span; returns its length in seconds.
    fn end(&mut self) -> f64 {
        let now = self.now_ns();
        let Some(span) = self.open.pop().and_then(|id| self.spans.get_mut(id)) else {
            return 0.0;
        };
        span.end_ns = now;
        (now - span.start_ns) as f64 / 1e9
    }

    /// Run `f` inside a span named `name`; returns its result and seconds.
    fn span<R>(&mut self, name: impl Into<String>, f: impl FnOnce() -> R) -> (R, f64) {
        self.begin(name, None);
        let r = f();
        (r, self.end())
    }

    /// The spans as a Chrome trace-event document (open in Perfetto).
    fn chrome(&self) -> Value {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let opt = |v: Option<u64>| v.map_or(Value::Null, Value::u64);
                obj(vec![
                    ("name", Value::str(&s.name)),
                    ("cat", Value::str("byc-benchmark")),
                    ("ph", Value::str("X")),
                    ("pid", Value::u64(1)),
                    ("tid", Value::u64(1)),
                    ("ts", Value::f64(s.start_ns as f64 / 1e3)),
                    (
                        "dur",
                        Value::f64(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3),
                    ),
                    (
                        "args",
                        obj(vec![
                            ("span", Value::u64(id as u64)),
                            ("parent", opt(s.parent.map(|p| p as u64))),
                            ("request_id", opt(s.request)),
                        ]),
                    ),
                ])
            })
            .collect();
        obj(vec![("traceEvents", Value::Array(events))])
    }
}

/// Keeps a span for every [`SPAN_EVERY`]-th query a replay serves.
struct QuerySpans {
    epoch: Instant,
    open: Option<(usize, u64)>,
    done: Vec<(u64, u64, u64)>,
}

impl QuerySpans {
    fn new(tracer: &Tracer) -> QuerySpans {
        QuerySpans {
            epoch: tracer.epoch,
            open: None,
            done: Vec::new(),
        }
    }

    /// Hand the recorded query spans to `tracer` as children of `parent`.
    fn into_tracer(self, tracer: &mut Tracer, parent: usize) {
        for (request, start_ns, end_ns) in self.done {
            tracer.spans.push(Span {
                name: "query".into(),
                start_ns,
                end_ns,
                parent: Some(parent),
                request: Some(request),
            });
        }
    }
}

impl Observer for QuerySpans {
    fn on_query_start(&mut self, index: usize, _query: &TraceQuery) {
        if index.is_multiple_of(SPAN_EVERY) {
            self.open = Some((index, self.epoch.elapsed().as_nanos() as u64));
        }
    }

    fn on_query_end(&mut self, index: usize, _query: &TraceQuery) {
        if let Some((open, start)) = self.open.take_if(|(i, _)| *i == index) {
            let end = self.epoch.elapsed().as_nanos() as u64;
            self.done.push((open as u64, start, end));
        }
    }

    fn wants_accesses(&self) -> bool {
        false
    }
}

/// What the traced run measured: seconds per layer, the named details
/// behind them, and the replay's counts for the cross-check.
#[derive(Debug, Default)]
struct Measured {
    layers: BTreeMap<&'static str, f64>,
    details: BTreeMap<&'static str, f64>,
    counts: Vec<(&'static str, Value)>,
    cells: Vec<Value>,
}

impl Measured {
    fn add(&mut self, layer: &'static str, seconds: f64) {
        *self.layers.entry(layer).or_default() += seconds;
    }

    fn detail(&mut self, name: &'static str, value: f64) {
        *self.details.entry(name).or_default() += value;
    }
}

/// Run the traced pipeline of `w`, write its spans, and return the
/// result fields for the child's result line.
///
/// # Errors
///
/// Any error a layer returns, and I/O errors.
pub fn run(w: &Workload, files: &Files) -> Result<Value> {
    let mut tracer = Tracer::new();
    tracer.begin(format!("workload {}", w.name), None);
    let measured = match w.shape {
        Shape::Mediator => mediator(&mut tracer, files)?,
        _ => batch(&mut tracer, w.shape, files)?,
    };
    tracer.end();
    std::fs::write(&files.spans, tracer.chrome().to_string())?;
    let map = |m: &BTreeMap<&str, f64>| {
        Value::Object(
            m.iter()
                .map(|(k, v)| (k.to_string(), Value::f64(*v)))
                .collect(),
        )
    };
    let mut fields = vec![
        ("layers", map(&measured.layers)),
        ("details", map(&measured.details)),
        ("cells", Value::Array(measured.cells)),
    ];
    fields.extend(measured.counts);
    Ok(obj(fields))
}

/// `byc run` and `byc sweep` on a trace file, rebuilt.
fn batch(tracer: &mut Tracer, shape: Shape, files: &Files) -> Result<Measured> {
    let mut m = Measured::default();
    let (trace, decode_s) = tracer.span("workload.decode read_trace", || read_trace(&files.trace));
    let trace = trace?;
    m.add("frontend", decode_s);
    m.detail("queries", trace.len() as f64);
    m.detail(
        "trace_mb",
        std::fs::metadata(&files.trace)?.len() as f64 / (1 << 20) as f64,
    );
    let (objects, catalog_s) = tracer.span("catalog.build", || {
        ObjectCatalog::uniform(
            &sdss::build(SdssRelease::Edr, SCALE, 1),
            Granularity::Column,
        )
    });
    m.add("catalog", catalog_s);
    let (stats, stats_s) = tracer.span("workload.stats", || {
        WorkloadStats::compute(&trace, &objects)
    });
    m.add("workload", stats_s);

    let tiered = shape == Shape::SweepTieredFaults;
    let topology = if tiered {
        Some(Topology::three_tier(0.1, 0.25, Box::new(Uniform))?)
    } else {
        None
    };
    let faults = tiered.then(|| FlakyLinks::new(INPUT_SEED, FLAKY_P, SPIKE.0, SPIKE.1));
    let suffix = match (&faults, &topology) {
        (Some(f), Some(t)) => format!("@{}@{}", f.name(), t.name()),
        _ => String::new(),
    };
    let grid: Vec<(PolicyKind, f64)> = match shape {
        Shape::Run => vec![(PolicyKind::RateProfile, CACHE_FRACTION)],
        _ => policy_roster()
            .into_iter()
            .flat_map(|k| FRACTIONS.map(|f| (k, f)))
            .collect(),
    };
    // Each tier's cache scales the site fraction; flat is one tier.
    let scales: Vec<f64> = match &topology {
        Some(t) => t.tiers().iter().map(|s| s.capacity_scale).collect(),
        None => vec![1.0],
    };
    let decide = Sink::default();
    let mut observe = Sampler::default();
    let db = objects.total_size();
    let mut registry = MetricsRegistry::new();
    let mut totals = [0u64; 7];
    let (mut cache_served, mut delivered, mut events) = (0u64, 0u64, 0u64);
    for (cell, (kind, fraction)) in grid.into_iter().enumerate() {
        let label = format!("{}@{fraction:.2}{suffix}", kind.label());
        let (mut policies, build_s) = tracer.span(format!("core.build {label}"), || {
            scales
                .iter()
                .map(|s| {
                    let policy =
                        build_policy(kind, db.scale(fraction * s), &stats.demands, INPUT_SEED);
                    TimedPolicy::new(policy, &decide)
                })
                .collect::<Vec<_>>()
        });
        m.add("core", build_s);
        let mut per_server = (shape == Shape::Run).then(PerServerObserver::new);
        let mut telemetry = tiered.then(|| TimedObserver {
            inner: TelemetryObserver::new(&label),
            sampler: Sampler::default(),
            events: 0,
        });
        // Per-query spans on the first replay only: an observer costs two
        // calls per query on every replay it rides.
        let mut spans = (cell == 0).then(|| QuerySpans::new(tracer));
        let mut session = ReplaySession::new(&trace, &objects);
        match &topology {
            Some(topo) => {
                session = session.topology(topo);
                for p in policies.iter_mut() {
                    session = session.tier_policy(p);
                }
            }
            None => {
                let Some(p) = policies.first_mut() else {
                    continue;
                };
                session = session.policy(p).network(&Uniform);
            }
        }
        if let Some(model) = &faults {
            session = session
                .faults(model)
                .retry(RetryPolicy::new(RETRY, RETRY_BACKOFF_BASE))
                .degrade(DegradationPolicy::ServeStale);
        }
        if let Some(o) = per_server.as_mut() {
            session = session.observe(o);
        }
        if let Some(o) = telemetry.as_mut() {
            session = session.observe(o);
        }
        if let Some(o) = spans.as_mut() {
            session = session.observe(o);
        }
        let span = tracer.begin(format!("federation.replay {label}"), None);
        let replay = session.run();
        m.add("federation", tracer.end());
        let r = replay?.report;
        if let Some(s) = spans {
            s.into_tracer(tracer, span);
        }
        let counts = [
            r.hits,
            r.bypasses,
            r.loads,
            r.evictions,
            r.retries,
            r.degraded_queries,
            r.failed_queries,
        ];
        for (t, c) in totals.iter_mut().zip(counts) {
            *t += c;
        }
        cache_served += r.cache_served.raw();
        delivered += r.sequence_cost.raw();
        m.detail("retried_mb", r.retried_bytes.as_f64() / (1 << 20) as f64);
        m.cells.push(Value::Array(vec![
            Value::str(kind.label()),
            Value::f64(fraction),
            Value::f64(r.total_cost().as_f64() / 1e9),
        ]));
        if let Some(t) = telemetry {
            events += t.events;
            observe.merge(&t.sampler);
            let ((snapshot, io), absorb_s) =
                tracer.span("telemetry.absorb", || t.inner.into_parts());
            io?;
            registry.absorb(snapshot);
            m.add("telemetry", absorb_s);
        }
    }
    if tiered {
        let (written, export_s) = tracer.span("telemetry.export", || {
            write_metrics(&registry, MetricsFormat::Json, &files.traced_metrics)
        });
        written?;
        m.add("telemetry", export_s);
    }
    // Sampled per-access time moves from the replay that contains it to
    // the layer that spent it. Every timed policy has been dropped.
    let decide = sunk(&decide);
    m.add("federation", -(decide.estimate_s() + observe.estimate_s()));
    m.add("core", decide.estimate_s());
    m.add("telemetry", observe.estimate_s());
    m.detail("decide_s", decide.estimate_s());
    m.detail("observe_s", observe.estimate_s());
    m.detail("events", events as f64);
    m.detail("accesses", decide.calls() as f64);
    let names = [
        "hits",
        "bypasses",
        "loads",
        "evictions",
        "retries",
        "degraded",
        "failed_queries",
    ];
    m.counts = names
        .iter()
        .zip(totals)
        .map(|(n, v)| (*n, Value::u64(v)))
        .collect();
    m.counts.push(("cache_served", Value::u64(cache_served)));
    m.counts.push(("delivered", Value::u64(delivered)));
    Ok(m)
}

/// Time one mediator stage through `sampler`, and keep it as a span
/// when this call is a spanned one.
fn stage<R>(
    sampler: &mut Sampler,
    tracer: &mut Tracer,
    span: Option<&str>,
    f: impl FnOnce() -> R,
) -> R {
    match span {
        Some(name) => tracer.span(name, || sampler.time(f)).0,
        None => sampler.time(f),
    }
}

/// The mediator workload, rebuilt: `Mediator::serve_sql` split into
/// its parse, analyze, yield-estimate and serve calls.
fn mediator(tracer: &mut Tracer, files: &Files) -> Result<Measured> {
    let mut m = Measured::default();
    let text = std::fs::read_to_string(&files.sql)?;
    let decide = Sink::default();
    let (mut mediator, catalog_s) = tracer.span("catalog.build mediator", || {
        build_mediator(|inner| Box::new(TimedPolicy::new(inner, &decide)))
    });
    m.add("catalog", catalog_s);
    let [mut parse, mut analyze, mut estimate, mut serve] = [Sampler::default(); 4];
    let mut tally = Tally::default();
    tracer.begin("serve loop", None);
    for (i, sql) in text.lines().enumerate() {
        let spanned = i.is_multiple_of(SPAN_EVERY);
        if spanned {
            tracer.begin("serve_sql", Some(i as u64));
        }
        let name = |n: &'static str| spanned.then_some(n);
        let served = stage(&mut parse, tracer, name("sql.parse"), || {
            byc_sql::parse(sql)
        })
        .and_then(|q| {
            stage(&mut analyze, tracer, name("sql.analyze"), || {
                byc_sql::analyze(mediator.catalog(), &q)
            })
        });
        let served = served.map(|resolved| {
            let breakdown = stage(&mut estimate, tracer, name("engine.yield"), || {
                YieldModel::new(mediator.catalog()).estimate(&resolved)
            });
            // The glue `serve_sql` runs between estimate and serve.
            stage(&mut serve, tracer, name("federation.serve"), || {
                let tq = TraceQuery {
                    id: QueryId::new(u32::try_from(i).unwrap_or(u32::MAX)),
                    sql: sql.to_string(),
                    template: u32::MAX,
                    data_keys: Vec::new(),
                    tables: resolved.table_ids().collect(),
                    columns: resolved.column_ids().collect(),
                    total_yield: breakdown.total,
                    table_yields: breakdown.per_table,
                    column_yields: breakdown.per_column,
                };
                mediator.serve_trace_query(&tq, &mut [])
            })
        });
        tally.add(served);
        if spanned {
            tracer.end();
        }
    }
    tracer.end();
    let wan_total = mediator.wan_total();
    drop(mediator);
    let decide = sunk(&decide);
    let frontend = parse.estimate_s() + analyze.estimate_s() + estimate.estimate_s();
    m.add("frontend", frontend);
    m.add("core", decide.estimate_s());
    m.add("federation", serve.estimate_s() - decide.estimate_s());
    m.detail("queries", parse.calls() as f64);
    m.detail("parse_s", parse.estimate_s());
    m.detail("analyze_s", analyze.estimate_s());
    m.detail("yield_s", estimate.estimate_s());
    m.detail("decide_s", decide.estimate_s());
    m.detail("accesses", decide.calls() as f64);
    m.counts = tally.fields();
    m.counts.push(("wan_total", Value::u64(wan_total.raw())));
    m.counts.push(("retries", Value::u64(0)));
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_scales_sampled_time_by_call_count() {
        let mut sampler = Sampler::default();
        for _ in 0..(SAMPLE_EVERY * 4) {
            sampler.time(|| std::thread::sleep(std::time::Duration::from_micros(50)));
        }
        assert_eq!(sampler.calls(), SAMPLE_EVERY * 4);
        assert_eq!(sampler.sampled, 4);
        // 256 calls of >= 50 us each.
        assert!(
            sampler.estimate_s() >= 256.0 * 50e-6,
            "{}",
            sampler.estimate_s()
        );
        assert_eq!(Sampler::default().estimate_s(), 0.0);
    }

    #[test]
    fn dropped_policies_leave_their_samples_in_the_sink() {
        let sink = Sink::default();
        let capacity = Bytes::new(1 << 20);
        let access = Access {
            object: ObjectId::new(0),
            time: byc_types::Tick::ZERO,
            yield_bytes: Bytes::new(10),
            size: Bytes::new(100),
            fetch_cost: Bytes::new(100),
        };
        for _ in 0..2 {
            let mut p = TimedPolicy::new(build_policy(PolicyKind::Lru, capacity, &[], 1), &sink);
            for _ in 0..SAMPLE_EVERY {
                p.on_access(&access);
            }
        }
        let s = sunk(&sink);
        assert_eq!((s.calls(), s.sampled), (2 * SAMPLE_EVERY, 2));
    }

    #[test]
    fn tracer_nests_spans_and_exports_chrome_events() {
        let mut t = Tracer::new();
        let root = t.begin("root", None);
        let ((), secs) = t.span("child", || ());
        assert!(secs >= 0.0);
        t.end();
        assert_eq!(t.spans[1].parent, Some(root));
        let doc = t.chrome();
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").unwrap();
        assert_eq!(
            args.get("parent").and_then(Value::as_u64),
            Some(root as u64)
        );
        assert_eq!(events[0].get("ph").and_then(Value::as_str), Some("X"));
    }
}
