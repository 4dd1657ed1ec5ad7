//! Observability over the replay engine: structured decision tracing, a
//! deterministic metrics registry, and exporters.
//!
//! The paper evaluates bypass-yield caching through aggregate curves
//! (byte hit rate, `D_S + D_L` WAN traffic). Diagnosing *why* a policy
//! wins needs per-decision, per-object, per-server visibility — the kind
//! of cache-event telemetry the in-network-cache studies build their
//! analyses on. This crate bolts that onto the federation's
//! [`Observer`](byc_federation::Observer) seam without touching the
//! decision kernel:
//!
//! * [`metrics`] — a **deterministic registry**: counters, gauges, and
//!   fixed-bucket byte/virtual-latency histograms (with quantile
//!   estimation) keyed by policy and `(server, object class, tier)`. No
//!   wall clocks, no hash maps: the same replay always produces the
//!   same registry, byte for byte.
//! * [`observer`] — [`TelemetryObserver`], an
//!   [`Observer`](byc_federation::Observer) that accumulates the
//!   registry's series and optionally streams per-decision events.
//!   Telemetry is off by not attaching it: the replay then pays nothing.
//! * [`events`] — the **NDJSON event log**: schema-versioned,
//!   per-decision records (query index, object, decision, yield, fetch
//!   price `f_i`, cache occupancy) behind a buffered writer. Summing the
//!   log reproduces the replay's `D_S`/`D_L`/`D_C` totals exactly.
//! * [`export`] — Prometheus text exposition and JSON snapshot writers
//!   over the registry; the two exports of one run agree on every
//!   counter.
//! * [`spans`] — **deterministic span tracing**: [`SpanTracer`] records
//!   a phase tree keyed by query-index ticks (bit-identical across
//!   runs) and exports Chrome trace-event JSON loadable in Perfetto.
//! * [`windows`] — **windowed metrics streams**: [`WindowedRegistry`]
//!   streams each window of a
//!   [`Breakdown`](byc_federation::Breakdown) closing every N queries as
//!   `byc.telemetry.window` NDJSON, so long replays show live
//!   hit-rate/WAN/availability trajectories.
//! * [`recorder`] — the **fault flight recorder**: [`FlightRecorder`]
//!   rings the last [`EventRecord`]s per tier and snapshots them into a
//!   [`Postmortem`] when a query fails or degrades; the annotated-text
//!   dump renders it.
//!
//! Telemetry is strictly read-only over the event stream: attaching a
//! [`TelemetryObserver`] to a replay produces byte-identical
//! [`CostReport`](byc_federation::CostReport)s to replaying without it.

#![warn(missing_docs)]

pub mod events;
pub mod export;
pub mod metrics;
pub mod observer;
pub mod recorder;
pub mod spans;
pub mod windows;

pub use events::{
    read_events, DecisionKind, EventLog, EventLogWriter, EventReader, EventRecord, EVENT_SCHEMA,
    EVENT_SCHEMA_VERSION,
};
pub use export::{
    escape_label, json_snapshot, prometheus_text, write_metrics, MetricsFormat, WindowColumn,
    WINDOW_COLUMNS,
};
pub use metrics::{
    Buckets, Gauge, Histogram, MetricsRegistry, ObjectClass, PolicyMetrics, SeriesKey,
    SeriesMetrics,
};
pub use observer::{EpisodeStats, PhaseProfile, TelemetryObserver};
pub use recorder::{render_postmortem, render_postmortems, FlightRecorder, Postmortem};
pub use spans::{
    chrome_trace, write_chrome_trace, Span, SpanObserver, SpanTracer, SPAN_SCHEMA,
    SPAN_SCHEMA_VERSION,
};
pub use windows::{
    window_header, window_record, WindowedRegistry, WINDOW_SCHEMA, WINDOW_SCHEMA_VERSION,
};
