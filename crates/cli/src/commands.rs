//! The `byc` subcommands.

use byc_analysis::{
    containment_analysis, locality_analysis, render_cost_table, render_metrics_table,
    render_server_table, render_span_table, render_tier_table, render_window_table,
};
use byc_catalog::sdss::{self, SdssRelease};
use byc_catalog::{Granularity, ObjectCatalog};
use byc_core::policy::CachePolicy;
use byc_federation::{
    build_policy, fault_context, policy_roster, Breakdown, CostEvent, DegradationPolicy,
    FaultModel, FaultPlan, FlakyLinks, LinkScoped, NetworkModel, Observer, Outage, OutageWindows,
    PerServerMultipliers, PolicyKind, QueryWindow, ReplaySession, RetryPolicy, SweepOptions,
    Topology, Uniform,
};
use byc_telemetry::{
    render_postmortems, window_header, window_record, write_chrome_trace, write_metrics,
    EventLogWriter, FlightRecorder, MetricsFormat, MetricsRegistry, PolicyMetrics, SpanObserver,
    SpanTracer, TelemetryObserver, WindowedRegistry,
};
use byc_types::{Bytes, Error, Result, ServerId, Tick};
use byc_workload::{
    generate, io as trace_io, ReplayTrace, Trace, TraceQuery, TraceReader, TraceSpec,
    WorkloadConfig, WorkloadStats,
};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The flags `run` and `sweep` share: the trace, the federation it is
/// replayed over, and the observability streams riding the replay.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayArgs {
    /// Trace file (or "edr"/"dr1" to synthesize on the fly).
    pub trace: String,
    /// "table" or "column".
    pub granularity: String,
    /// Catalog scale.
    pub scale: f64,
    /// Seed for synthesized traces / randomized policies.
    pub seed: u64,
    /// Number of back-end servers (tables spread round-robin).
    pub servers: u32,
    /// Per-server WAN cost multipliers (None = uniform pricing).
    pub multipliers: Option<Vec<f64>>,
    /// Tiered topology spec (None or "flat" = the flat single-tier
    /// WAN; see `--topology` grammar).
    pub topology: Option<String>,
    /// Scope the fault model to one topology link (None = every
    /// link on the fetch path).
    pub fault_link: Option<u32>,
    /// Write a metrics export here, covering every point of a sweep
    /// (None = no export).
    pub metrics: Option<PathBuf>,
    /// Export format for `--metrics`.
    pub metrics_format: MetricsFormat,
    /// Fault-model spec (None = fault-free; see `--faults` grammar).
    pub faults: Option<String>,
    /// Transfer attempts per slice (1 = no retries).
    pub retry: u32,
    /// Seed for stochastic fault models (None = the main `--seed`).
    pub fault_seed: Option<u64>,
    /// Degradation fallback when retries are exhausted ("stale"/"fail").
    pub degrade: String,
    /// Write the span tree as Chrome trace-event JSON here, one thread
    /// lane per sweep job (None = no span trace).
    pub trace_spans: Option<PathBuf>,
    /// Stream a windowed telemetry snapshot every N queries as NDJSON
    /// on stderr, each sweep job's in job order (None = no stream).
    pub metrics_every: Option<usize>,
    /// Ring depth of the fault flight recorder: keep the last K cost
    /// events per tier and dump postmortems on failed or degraded
    /// queries (None = off).
    pub flight_recorder: Option<usize>,
}

impl ReplayArgs {
    /// `trace` with every other flag at its default: column
    /// granularity, scale 1, seed 42, one server, one attempt per
    /// transfer, stale degradation, and everything else off.
    pub fn new(trace: impl Into<String>) -> ReplayArgs {
        ReplayArgs {
            trace: trace.into(),
            granularity: "column".into(),
            scale: 1.0,
            seed: 42,
            servers: 1,
            multipliers: None,
            topology: None,
            fault_link: None,
            metrics: None,
            metrics_format: MetricsFormat::Prometheus,
            faults: None,
            retry: 1,
            fault_seed: None,
            degrade: "stale".into(),
            trace_spans: None,
            metrics_every: None,
            flight_recorder: None,
        }
    }

    /// Read the shared flags, defaulting the absent ones.
    fn parse(trace: String, flags: &Flags) -> Result<ReplayArgs> {
        let d = ReplayArgs::new(trace);
        let multipliers = flags.multipliers()?;
        // --cost-multipliers implies --servers from its length.
        let servers = multipliers
            .as_ref()
            .map_or(d.servers, |m| u32::try_from(m.len()).unwrap_or(u32::MAX));
        Ok(ReplayArgs {
            granularity: flags.text("granularity").unwrap_or(d.granularity),
            scale: flags.catalog_scale(d.scale, &d.trace)?,
            seed: flags.int("seed")?.unwrap_or(d.seed),
            servers: flags.positive_count("servers", servers)?,
            multipliers,
            topology: flags.text("topology"),
            fault_link: flags.int32("fault-link")?,
            metrics: flags.path("metrics"),
            metrics_format: flags.metrics_format()?.unwrap_or(d.metrics_format),
            faults: flags.text("faults"),
            retry: flags.positive_count("retry", d.retry)?,
            fault_seed: flags.int("fault-seed")?,
            degrade: flags.text("degrade").unwrap_or(d.degrade),
            trace_spans: flags.path("trace-spans"),
            metrics_every: flags.size("metrics-every")?,
            flight_recorder: flags.size("flight-recorder")?,
            trace: d.trace,
        })
    }
}

/// A parsed `byc` invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Synthesize a trace and write it as JSON-lines.
    GenTrace {
        /// "edr" or "dr1".
        release: String,
        /// Output path.
        out: PathBuf,
        /// Generator seed.
        seed: u64,
        /// Catalog scale (1.0 = full).
        scale: f64,
        /// Override query count (0 = preset).
        queries: usize,
    },
    /// Replay a trace under one policy and print the cost report.
    Run {
        /// The trace, its federation and the observability flags.
        replay: ReplayArgs,
        /// Policy name (see [`parse_policy`]).
        policy: String,
        /// Cache size as a fraction of the database.
        cache_fraction: f64,
        /// Stream per-decision NDJSON events here (None = no event log).
        trace_events: Option<PathBuf>,
    },
    /// Sweep cache sizes for every policy of the roster.
    Sweep(ReplayArgs),
    /// Workload analyses: containment and schema locality.
    Analyze {
        /// Trace file or "edr"/"dr1".
        trace: String,
        /// Catalog scale.
        scale: f64,
        /// Seed.
        seed: u64,
    },
    /// Print usage.
    Help,
}

/// Parse a policy name.
///
/// # Errors
///
/// [`Error::InvalidConfig`] for unknown names.
pub fn parse_policy(name: &str) -> Result<PolicyKind> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "rate-profile" | "rateprofile" | "rp" => PolicyKind::RateProfile,
        "onlineby" | "online" => PolicyKind::OnlineBY,
        "onlineby-marking" | "marking" => PolicyKind::OnlineBYMarking,
        "spaceeffby" | "spaceeff" => PolicyKind::SpaceEffBY,
        "gds" => PolicyKind::Gds,
        "gdsp" => PolicyKind::Gdsp,
        "lru" => PolicyKind::Lru,
        "lfu" => PolicyKind::Lfu,
        "lru-k" | "lruk" | "lru2" => PolicyKind::LruK,
        "lff" => PolicyKind::Lff,
        "gd*" | "gdstar" | "gd-star" => PolicyKind::GdStar,
        "static" => PolicyKind::Static,
        "nocache" | "none" => PolicyKind::NoCache,
        other => {
            return Err(Error::InvalidConfig(format!(
                "unknown policy {other:?} (try rate-profile, onlineby, onlineby-marking, \
                 spaceeffby, gds, gdsp, lru, lfu, lru-k, lff, gdstar, static, nocache)"
            )))
        }
    })
}

fn parse_granularity(name: &str) -> Result<Granularity> {
    match name.to_ascii_lowercase().as_str() {
        "table" | "tables" => Ok(Granularity::Table),
        "column" | "columns" => Ok(Granularity::Column),
        other => Err(Error::InvalidConfig(format!(
            "unknown granularity {other:?} (expected table or column)"
        ))),
    }
}

/// Build the WAN pricing model for `--cost-multipliers` (uniform when
/// the flag is absent).
fn build_network(multipliers: &Option<Vec<f64>>) -> Result<Box<dyn NetworkModel + Send>> {
    Ok(match multipliers {
        Some(m) => Box::new(PerServerMultipliers::new(m.clone())?),
        None => Box::new(Uniform),
    })
}

/// Parse a `--topology` spec into a [`Topology`]. Grammar:
///
/// * `flat` — no topology: the exact flat single-tier path;
/// * `two-tier[:M]` — a site cache under a regional cache, the inner
///   link priced at `M` times the raw bytes (default 0.25);
/// * `three-tier[:M1,M2]` — site under regional under national, inner
///   links priced at `M1` and `M2` (defaults 0.1 and 0.25).
///
/// The origin link (the top of the hierarchy) is priced by
/// `--cost-multipliers`, exactly as on the flat WAN.
fn parse_topology(spec: &str, multipliers: &Option<Vec<f64>>) -> Result<Option<Topology>> {
    let (shape, params) = match spec.split_once(':') {
        Some((shape, params)) => (shape, Some(params)),
        None => (spec, None),
    };
    let parse_mult = |v: &str| -> Result<f64> {
        v.trim().parse().map_err(|_| {
            Error::InvalidConfig(format!("bad topology link multiplier {v:?} in {spec:?}"))
        })
    };
    match shape.to_ascii_lowercase().as_str() {
        "flat" => {
            if params.is_some() {
                return Err(Error::InvalidConfig(format!(
                    "flat topology takes no parameters, got {spec:?}"
                )));
            }
            Ok(None)
        }
        "two-tier" => {
            let inner = match params {
                Some(p) => parse_mult(p)?,
                None => 0.25,
            };
            Ok(Some(Topology::two_tier(
                inner,
                build_network(multipliers)?,
            )?))
        }
        "three-tier" => {
            let (site, regional) = match params {
                Some(p) => {
                    let pair = || {
                        let (a, b) = p.split_once(',')?;
                        Some((a, b))
                    };
                    let (a, b) = pair().ok_or_else(|| {
                        Error::InvalidConfig(format!(
                            "three-tier takes two link multipliers (three-tier:M1,M2), got {spec:?}"
                        ))
                    })?;
                    (parse_mult(a)?, parse_mult(b)?)
                }
                None => (0.1, 0.25),
            };
            Ok(Some(Topology::three_tier(
                site,
                regional,
                build_network(multipliers)?,
            )?))
        }
        other => Err(Error::InvalidConfig(format!(
            "unknown topology {other:?} (expected flat, two-tier[:M], or three-tier[:M1,M2])"
        ))),
    }
}

/// Apply `--fault-link` scoping to a parsed fault model: the model only
/// fires on attempts over one topology link; every other link delivers.
/// `depth` is the topology's link count (1 on the flat WAN).
fn scope_faults(
    model: Option<Box<dyn FaultModel>>,
    fault_link: Option<u32>,
    depth: usize,
) -> Result<Option<Box<dyn FaultModel>>> {
    match (model, fault_link) {
        (Some(_), Some(link)) if link as usize >= depth => Err(Error::InvalidConfig(format!(
            "--fault-link {link} is out of range: the topology has {depth} link(s), \
             numbered from 0"
        ))),
        (Some(m), Some(link)) => Ok(Some(Box::new(LinkScoped::new(m, link)))),
        (None, Some(_)) => Err(Error::InvalidConfig(
            "--fault-link needs a fault model (--faults ...)".into(),
        )),
        (m, None) => Ok(m),
    }
}

/// Backoff unit for `--retry`, in query-index ticks: attempt `i` runs at
/// `t + 2^(i-1) - 1`, so a three-attempt budget can ride out an outage
/// window a few queries long.
const RETRY_BACKOFF_BASE: u64 = 1;

fn parse_degradation(name: &str) -> Result<DegradationPolicy> {
    match name.to_ascii_lowercase().as_str() {
        "stale" | "serve-stale" => Ok(DegradationPolicy::ServeStale),
        "fail" => Ok(DegradationPolicy::Fail),
        other => Err(Error::InvalidConfig(format!(
            "unknown degradation {other:?} (expected stale or fail)"
        ))),
    }
}

/// Parse a `--faults` spec into a fault model. Grammar:
///
/// * `none` — no fault layer (the exact fault-free path);
/// * `outage:SERVER@START..END[,SERVER@START..END...]` — scheduled
///   per-server downtime in query-index time (half-open windows);
/// * `flaky:p=0.01[,spike=0.05x4]` — seeded per-attempt failure
///   probability, optionally with a cost-spike probability and multiplier.
///
/// Specs that would do nothing or nonsense are rejected: probabilities
/// must be finite and in `[0, 1]`, a spike multiplier finite and at
/// least 1, an outage window non-empty, and its server below `servers`.
fn parse_faults(spec: &str, seed: u64, servers: u32) -> Result<Option<Box<dyn FaultModel>>> {
    if spec.eq_ignore_ascii_case("none") {
        return Ok(None);
    }
    if let Some(body) = spec.strip_prefix("outage:") {
        let mut windows = Vec::new();
        for part in body.split(',') {
            let window = || {
                let (server, range) = part.split_once('@')?;
                let (from, until) = range.split_once("..")?;
                Some(Outage {
                    server: ServerId::new(server.trim().parse().ok()?),
                    from: Tick::new(from.trim().parse().ok()?),
                    until: Tick::new(until.trim().parse().ok()?),
                })
            };
            let window = window().ok_or_else(|| {
                Error::InvalidConfig(format!(
                    "bad outage window {part:?} (expected SERVER@START..END)"
                ))
            })?;
            if window.until <= window.from {
                return Err(Error::InvalidConfig(format!(
                    "empty outage window {part:?} (END must be greater than START)"
                )));
            }
            if window.server.raw() >= servers {
                return Err(Error::InvalidConfig(format!(
                    "outage window {part:?} names server {} but --servers is {servers}",
                    window.server.raw()
                )));
            }
            windows.push(window);
        }
        return Ok(Some(Box::new(OutageWindows::new(windows))));
    }
    if let Some(body) = spec.strip_prefix("flaky:") {
        let mut failure_p: Option<f64> = None;
        let mut spike_p = 0.0f64;
        let mut spike_multiplier = 1.0f64;
        for part in body.split(',') {
            let part = part.trim();
            if let Some(v) = part.strip_prefix("p=") {
                failure_p = Some(v.parse().map_err(|_| {
                    Error::InvalidConfig(format!("bad flaky failure probability {v:?}"))
                })?);
            } else if let Some(v) = part.strip_prefix("spike=") {
                let spike = || {
                    let (p, m) = v.split_once('x')?;
                    Some((p.parse::<f64>().ok()?, m.parse::<f64>().ok()?))
                };
                (spike_p, spike_multiplier) = spike().ok_or_else(|| {
                    Error::InvalidConfig(format!(
                        "bad spike spec {v:?} (expected PROBxMULTIPLIER, e.g. 0.05x4)"
                    ))
                })?;
            } else {
                return Err(Error::InvalidConfig(format!(
                    "unknown flaky parameter {part:?} (expected p=... or spike=...)"
                )));
            }
        }
        let p = failure_p.ok_or_else(|| {
            Error::InvalidConfig("flaky faults need a failure probability (p=...)".into())
        })?;
        for (what, prob) in [("failure", p), ("spike", spike_p)] {
            if !(0.0..=1.0).contains(&prob) {
                return Err(Error::InvalidConfig(format!(
                    "flaky {what} probability {prob} is not in [0, 1]"
                )));
            }
        }
        if !(spike_multiplier.is_finite() && spike_multiplier >= 1.0) {
            return Err(Error::InvalidConfig(format!(
                "flaky spike multiplier {spike_multiplier} must be finite and at least 1"
            )));
        }
        return Ok(Some(Box::new(FlakyLinks::new(
            seed,
            p,
            spike_p,
            spike_multiplier,
        ))));
    }
    Err(Error::InvalidConfig(format!(
        "unknown fault spec {spec:?} (expected none, outage:SERVER@START..END, or flaky:p=...)"
    )))
}

fn parse_release(name: &str) -> Result<SdssRelease> {
    match name.to_ascii_lowercase().as_str() {
        "edr" => Ok(SdssRelease::Edr),
        "dr1" => Ok(SdssRelease::Dr1),
        other => Err(Error::InvalidConfig(format!(
            "unknown release {other:?} (expected edr or dr1)"
        ))),
    }
}

/// Load a trace by path, or synthesize the named release.
///
/// Trace files carry yields computed against a catalog at some scale;
/// replaying them against a differently-scaled catalog misprices every
/// bypass decision. The caller's `--scale` must therefore match the scale
/// the trace was generated at; we sanity-check by comparing the trace's
/// mean yield to the catalog size and refuse wildly inconsistent pairs.
fn load_trace(
    spec: &str,
    scale: f64,
    seed: u64,
    servers: u32,
) -> Result<(byc_catalog::Catalog, Trace)> {
    match parse_release(spec) {
        Ok(release) => {
            let catalog = sdss::build(release, scale, servers);
            let config = match release {
                SdssRelease::Edr => WorkloadConfig::edr(seed),
                SdssRelease::Dr1 => WorkloadConfig::dr1(seed),
            };
            let trace = generate(&catalog, &config)?;
            total_yield(trace.queries.iter().map(|q| q.total_yield), scale)?;
            Ok((catalog, trace))
        }
        Err(_) => {
            // Treat as a file path; catalogs for external traces must match
            // the trace's release, so default to EDR at the caller's scale.
            let trace = trace_io::read_trace(std::path::Path::new(spec))?;
            let catalog = sdss::build(SdssRelease::Edr, scale, servers);
            let total = total_yield(trace.queries.iter().map(|q| q.total_yield), scale)?;
            check_scale(spec, trace.len(), total, &catalog)?;
            Ok((catalog, trace))
        }
    }
}

/// The resident input of a replay, as [`load_trace`] finds it, resolved
/// against the catalog's objects at `granularity`: a synthesized release
/// is converted once, and a trace file is decoded straight into the
/// [`ReplayTrace`], so no [`Trace`] of a file is built.
fn load_replay(
    spec: &str,
    scale: f64,
    seed: u64,
    servers: u32,
    granularity: Granularity,
) -> Result<(byc_catalog::Catalog, ObjectCatalog, ReplayTrace)> {
    if parse_release(spec).is_ok() {
        let (catalog, trace) = load_trace(spec, scale, seed, servers)?;
        let objects = ObjectCatalog::uniform(&catalog, granularity);
        let replay = ReplayTrace::from_trace(&trace, &objects);
        return Ok((catalog, objects, replay));
    }
    let catalog = sdss::build(SdssRelease::Edr, scale, servers);
    let objects = ObjectCatalog::uniform(&catalog, granularity);
    let replay = ReplayTrace::read(std::path::Path::new(spec), &objects)?;
    let total = total_yield(replay.iter().map(|(q, _)| q.total_yield), scale)?;
    check_scale(spec, replay.len(), total, &catalog)?;
    Ok((catalog, objects, replay))
}

/// The total yield of a trace's queries, refused when it does not fit a
/// u64: every byte total of a replay or an analysis would saturate at
/// 2^64 B, below `sdss::max_scale`, where the catalog's own sizes still
/// fit.
fn total_yield(yields: impl IntoIterator<Item = Bytes>, scale: f64) -> Result<Bytes> {
    yields
        .into_iter()
        .try_fold(0u64, |total, y| total.checked_add(y.raw()))
        .map(Bytes::new)
        .ok_or_else(|| saturated(scale))
}

/// [`total_yield`]'s refusal.
fn saturated(scale: f64) -> Error {
    Error::InvalidConfig(format!(
        "at --scale {scale:e} the trace's total yield overflows a u64 byte count, \
         so its byte totals would saturate; pass a smaller --scale"
    ))
}

/// Guard against replaying a trace file against a catalog at the wrong
/// scale (yields would be mispriced by that factor), given the trace's
/// query count and total yield.
fn check_scale(
    spec: &str,
    queries: usize,
    sequence_cost: Bytes,
    catalog: &byc_catalog::Catalog,
) -> Result<()> {
    if queries == 0 {
        return Ok(());
    }
    let mean_yield = sequence_cost.as_f64() / queries as f64;
    let db = catalog.database_size().as_f64();
    // Matched scales put this ratio around 1e-5..1e-3 for SDSS-like
    // workloads (mean yield is a tiny, scale-free fraction of the
    // database); a >100x departure means the scales disagree.
    let ratio = mean_yield / db;
    if !(1e-7..=1e-2).contains(&ratio) {
        return Err(Error::InvalidConfig(format!(
            "trace {spec:?} looks generated at a different catalog scale \
             (mean yield {:.3e} bytes vs database {:.3e} bytes); \
             pass the --scale used at gen-trace time",
            mean_yield, db
        )));
    }
    Ok(())
}

/// Queries of a streamed trace file whose mean yield [`check_scale`]
/// judges before the replay starts.
const SCALE_SAMPLE: usize = 1024;

/// Sums a streamed trace's query count and yield a chunk at a time, as
/// the session is about to replay each chunk, for the [`total_yield`]
/// and [`check_scale`] guards a resident load runs on the whole trace.
/// Yields are non-negative, so once the sum overflows it stays
/// overflowed: the chunk in which it does is refused before any of its
/// queries is replayed.
struct YieldTally {
    scale: f64,
    queries: usize,
    sequence_cost: Bytes,
}

impl YieldTally {
    fn new(scale: f64) -> Self {
        Self {
            scale,
            queries: 0,
            sequence_cost: Bytes::ZERO,
        }
    }

    /// Add `chunk`'s queries, or refuse the chunk whose yield takes the
    /// sum past a u64.
    fn add(&mut self, chunk: &ReplayTrace) -> Result<()> {
        let chunk_cost = total_yield(chunk.iter().map(|(q, _)| q.total_yield), self.scale)?;
        self.sequence_cost = total_yield([self.sequence_cost, chunk_cost], self.scale)?;
        self.queries += chunk.len();
        Ok(())
    }
}

/// Usage text.
pub const USAGE: &str = "\
byc — bypass-yield caching for scientific database federations

USAGE:
  byc gen-trace <edr|dr1> --out FILE [--seed N] [--scale S] [--queries N]
  byc run <edr|dr1|trace.jsonl> --policy NAME [--granularity table|column]
          [--cache-fraction F] [--scale S] [--seed N]
          [--servers N] [--cost-multipliers A,B,...]
          [--topology flat|two-tier[:M]|three-tier[:M1,M2]] [--fault-link N]
          [--trace-events FILE] [--metrics FILE] [--metrics-format prom|json]
          [--trace-spans FILE] [--metrics-every N] [--flight-recorder K]
          [--faults SPEC] [--retry N] [--fault-seed N] [--degrade stale|fail]
  byc sweep <edr|dr1|trace.jsonl> [--granularity table|column] [--scale S] [--seed N]
          [--servers N] [--cost-multipliers A,B,...]
          [--topology flat|two-tier[:M]|three-tier[:M1,M2]] [--fault-link N]
          [--metrics FILE] [--metrics-format prom|json]
          [--trace-spans FILE] [--metrics-every N] [--flight-recorder K]
          [--faults SPEC] [--retry N] [--fault-seed N] [--degrade stale|fail]
  byc analyze <edr|dr1|trace.jsonl> [--scale S] [--seed N]
  byc help

POLICIES: rate-profile onlineby onlineby-marking spaceeffby gds gdsp lru
          lfu lru-k lff gdstar static nocache

NETWORK:  --servers spreads tables round-robin over N back-end servers;
          --cost-multipliers prices each server's WAN link (cycled when
          shorter than the server count) and implies --servers when that
          flag is absent. With more than one server, `run` appends a
          per-server WAN breakdown table.

TOPOLOGY: --topology runs the replay over a tiered cache hierarchy, one
          independent cache per tier with bypasses forwarded one hop up:
            flat                      the single-tier WAN (default)
            two-tier[:M]              site under a regional cache; the
                                      inner link costs M per raw byte
                                      (default 0.25)
            three-tier[:M1,M2]        site, regional, national; inner
                                      links cost M1 and M2 (defaults
                                      0.1, 0.25)
          The origin link keeps --cost-multipliers pricing. Each tier's
          cache holds --cache-fraction of the database scaled by the
          tier's capacity factor (1x site, 4x regional, 16x national);
          `run` appends a per-tier breakdown table. --fault-link N
          scopes --faults to topology link N (0 = the site uplink), so a
          warm upper tier can absorb an origin outage.

TELEMETRY: --trace-events streams one schema-versioned NDJSON record per
          decision (query, object, decision, yield, fetch price,
          occupancy); --metrics writes a registry export — Prometheus
          text by default, JSON with --metrics-format json. In `sweep`,
          the registry labels each point `policy@fraction`, appending
          `@fault` when a fault layer is active and `@topology` when a
          tiered topology is (`POLICY@FRACTION@FAULT@TIER` in full);
          per-tier counters inside a point carry a `tier` label. Either
          flag also prints the per-(server, object-class) telemetry table.

OBSERVABILITY: three deterministic streams ride any replay (clocked by
          the query index, never the wall clock, so same seed = same
          bytes):
            --trace-spans FILE   record the phase tree (pipeline setup,
                                 replay loop chunks, per-tier resolve on
                                 topologies) and export it as Chrome
                                 trace-event JSON — open in Perfetto or
                                 chrome://tracing; also prints the span
                                 table. In `sweep`, each job gets its own
                                 thread lane in the one file.
            --metrics-every N    stream one `byc.telemetry.window` NDJSON
                                 record per N queries to stderr and print
                                 the windowed trajectory table. Window
                                 sums reconcile exactly with the cost
                                 report.
            --flight-recorder K  keep a ring of the last K cost events
                                 per tier; when a query fails or degrades
                                 (under --faults), dump an annotated
                                 postmortem of the events leading up to
                                 it, stamped with the fault context.

FAULTS:   --faults injects deterministic WAN faults:
            none                      fault-free (default)
            outage:SERVER@START..END  scheduled downtime in query-index
                                      time, comma-separated windows
            flaky:p=0.01,spike=0.05x4 seeded per-attempt failure
                                      probability + cost-spike prob x mult
          --retry N allows up to N attempts per transfer (exponential
          backoff in query-index time; retries are charged to the WAN);
          --fault-seed seeds stochastic models (defaults to --seed);
          --degrade picks the fallback when retries are exhausted: serve
          the stale local copy (stale, default) or fail the slice (fail).

TRACE FILES: `run` streams a trace file off disk a chunk at a time, so a
          100M-query file replays in constant memory; `--policy static`
          holds it resident instead, because its offline plan needs the
          trace's demand profile up front. `sweep` also holds it resident
          (it replays the trace once per grid point), but only what a
          replay reads: each query's id and yield and its per-object
          yields, decoded straight off the file. `analyze` loads the
          whole trace.";

/// The flags `run` and `sweep` share: one per [`ReplayArgs`] field but
/// the trace.
const REPLAY_FLAGS: [&str; 16] = [
    "granularity",
    "scale",
    "seed",
    "servers",
    "cost-multipliers",
    "topology",
    "fault-link",
    "metrics",
    "metrics-format",
    "faults",
    "retry",
    "fault-seed",
    "degrade",
    "trace-spans",
    "metrics-every",
    "flight-recorder",
];

/// The `--name value` pairs of one invocation, read back as typed
/// values; `None` when a flag is absent.
struct Flags(HashMap<String, String>);

impl Flags {
    fn text(&self, name: &str) -> Option<String> {
        self.0.get(name).cloned()
    }

    fn path(&self, name: &str) -> Option<PathBuf> {
        self.0.get(name).map(PathBuf::from)
    }

    /// The flag parsed as a `T`; `what` names the form the error expects.
    fn parsed<T: std::str::FromStr>(&self, name: &str, what: &str) -> Result<Option<T>> {
        self.0
            .get(name)
            .map(|v| {
                v.parse().map_err(|_| {
                    Error::InvalidConfig(format!("--{name} expects {what}, got {v:?}"))
                })
            })
            .transpose()
    }

    fn int(&self, name: &str) -> Result<Option<u64>> {
        self.parsed(name, "an integer")
    }

    /// A count that indexes memory: refused past `usize::MAX`, never
    /// truncated.
    fn size(&self, name: &str) -> Result<Option<usize>> {
        self.parsed(name, "an integer")
    }

    /// A u32 flag is refused out of range, never wrapped.
    fn int32(&self, name: &str) -> Result<Option<u32>> {
        self.int(name)?
            .map(|v| {
                u32::try_from(v).map_err(|_| {
                    Error::InvalidConfig(format!("--{name} must be at most {}, got {v}", u32::MAX))
                })
            })
            .transpose()
    }

    /// A positive u32 count, `default` when absent.
    fn positive_count(&self, name: &str, default: u32) -> Result<u32> {
        let v = self.int32(name)?.unwrap_or(default);
        require_positive(Some(u64::from(v)), name)?;
        Ok(v)
    }

    /// Every subcommand that takes --scale builds a catalog from it: the
    /// named release's, or EDR's for a trace file. The catalog builder
    /// rejects anything but a positive finite scale, and past the
    /// release's [`sdss::max_scale`] its byte counts no longer fit a u64.
    fn catalog_scale(&self, default: f64, spec: &str) -> Result<f64> {
        let scale = self.parsed("scale", "a number")?.unwrap_or(default);
        if !(scale.is_finite() && scale > 0.0) {
            return Err(Error::InvalidConfig(format!(
                "--scale must be a positive finite number, got {scale}"
            )));
        }
        let release = parse_release(spec).unwrap_or(SdssRelease::Edr);
        let max = sdss::max_scale(release);
        if scale > max {
            return Err(Error::InvalidConfig(format!(
                "--scale {scale:e} overflows the {} catalog's byte counts; \
                 the largest accepted value is {max:e}",
                release.label()
            )));
        }
        Ok(scale)
    }

    fn multipliers(&self) -> Result<Option<Vec<f64>>> {
        self.0
            .get("cost-multipliers")
            .map(|v| {
                v.split(',')
                    .map(|part| {
                        part.trim().parse::<f64>().map_err(|_| {
                            Error::InvalidConfig(format!(
                                "--cost-multipliers expects comma-separated numbers, got {v:?}"
                            ))
                        })
                    })
                    .collect()
            })
            .transpose()
    }

    fn metrics_format(&self) -> Result<Option<MetricsFormat>> {
        self.0
            .get("metrics-format")
            .map(|v| {
                MetricsFormat::parse(v).ok_or_else(|| {
                    Error::InvalidConfig(format!(
                        "--metrics-format expects prom or json, got {v:?}"
                    ))
                })
            })
            .transpose()
    }
}

/// Parse raw argument strings into a [`Command`].
///
/// # Errors
///
/// [`Error::InvalidConfig`] for malformed invocations.
pub fn parse_args(args: &[String]) -> Result<Command> {
    let mut it = args.iter();
    let sub = match it.next() {
        None => return Ok(Command::Help),
        Some(s) => s.as_str(),
    };
    let known: Vec<&str> = match sub {
        "help" | "--help" | "-h" => Vec::new(),
        "gen-trace" => vec!["out", "seed", "scale", "queries"],
        "run" => [
            &["policy", "cache-fraction", "trace-events"][..],
            &REPLAY_FLAGS,
        ]
        .concat(),
        "sweep" => REPLAY_FLAGS.to_vec(),
        "analyze" => vec!["scale", "seed"],
        other => {
            return Err(Error::InvalidConfig(format!(
                "unknown subcommand {other:?}; try `byc help`"
            )))
        }
    };
    let mut positional: Vec<String> = Vec::new();
    let mut flags = HashMap::new();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if !known.contains(&name) {
                return Err(Error::InvalidConfig(format!(
                    "unknown flag --{name} for `{sub}` (expected {})",
                    known
                        .iter()
                        .map(|k| format!("--{k}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
            let value = it
                .next()
                .ok_or_else(|| Error::InvalidConfig(format!("--{name} needs a value")))?;
            flags.insert(name.to_string(), value.clone());
        } else {
            positional.push(a.clone());
        }
    }
    // Every subcommand takes at most one positional argument; a second
    // one would otherwise be silently dropped.
    if let Some(extra) = positional.get(1) {
        return Err(Error::InvalidConfig(format!(
            "unexpected argument {extra:?}: `{sub}` takes one positional argument"
        )));
    }
    let flags = Flags(flags);
    let first = || {
        positional
            .first()
            .cloned()
            .ok_or_else(|| Error::InvalidConfig("missing trace/release argument".into()))
    };
    match sub {
        "gen-trace" => {
            let release = first()?;
            Ok(Command::GenTrace {
                out: flags
                    .path("out")
                    .ok_or_else(|| Error::InvalidConfig("gen-trace requires --out FILE".into()))?,
                seed: flags.int("seed")?.unwrap_or(42),
                scale: flags.catalog_scale(1.0, &release)?,
                queries: flags.size("queries")?.unwrap_or(0),
                release,
            })
        }
        "run" => Ok(Command::Run {
            replay: ReplayArgs::parse(first()?, &flags)?,
            policy: flags
                .text("policy")
                .ok_or_else(|| Error::InvalidConfig("run requires --policy NAME".into()))?,
            cache_fraction: flags.parsed("cache-fraction", "a number")?.unwrap_or(0.15),
            trace_events: flags.path("trace-events"),
        }),
        "sweep" => Ok(Command::Sweep(ReplayArgs::parse(first()?, &flags)?)),
        "analyze" => {
            let trace = first()?;
            Ok(Command::Analyze {
                scale: flags.catalog_scale(1.0, &trace)?,
                seed: flags.int("seed")?.unwrap_or(42),
                trace,
            })
        }
        _ => Ok(Command::Help),
    }
}

/// `--metrics-every`, `--flight-recorder`, `--servers` and `--retry` are
/// counts of queries, events, servers and attempts; zero would mean
/// "window after no queries" / "remember no events" / "no server" / "no
/// attempt", so reject it at the door instead of silently clamping.
fn require_positive(value: Option<u64>, flag: &str) -> Result<()> {
    if value == Some(0) {
        return Err(Error::InvalidConfig(format!("--{flag} must be positive")));
    }
    Ok(())
}

/// The federation a `run` or a `sweep` replays over, parsed and checked
/// from its [`ReplayArgs`] before any trace is read.
struct Setup {
    granularity: Granularity,
    network: Box<dyn NetworkModel + Send>,
    topology: Option<Topology>,
    faults: Option<Box<dyn FaultModel>>,
    retry: RetryPolicy,
    degradation: DegradationPolicy,
}

impl Setup {
    fn new(args: &ReplayArgs) -> Result<Setup> {
        require_positive(args.metrics_every.map(|v| v as u64), "metrics-every")?;
        require_positive(args.flight_recorder.map(|v| v as u64), "flight-recorder")?;
        let granularity = parse_granularity(&args.granularity)?;
        let degradation = parse_degradation(&args.degrade)?;
        let topology = match &args.topology {
            Some(spec) => parse_topology(spec, &args.multipliers)?,
            None => None,
        };
        let faults = match &args.faults {
            Some(spec) => parse_faults(
                spec,
                args.fault_seed.unwrap_or(args.seed),
                args.servers.max(1),
            )?,
            None => None,
        };
        let depth = topology.as_ref().map_or(1, Topology::depth);
        Ok(Setup {
            granularity,
            network: build_network(&args.multipliers)?,
            faults: scope_faults(faults, args.fault_link, depth)?,
            topology,
            retry: RetryPolicy::new(args.retry, RETRY_BACKOFF_BASE),
            degradation,
        })
    }

    /// Replay `session` over this federation: the topology or else the
    /// flat network, then the fault layer with its retries and
    /// degradation.
    fn configure<'a>(&'a self, session: ReplaySession<'a>) -> ReplaySession<'a> {
        let session = match &self.topology {
            Some(topology) => session.topology(topology),
            None => session.network(self.network.as_ref()),
        };
        match self.faults.as_deref() {
            Some(model) => session
                .faults(model)
                .retry(self.retry)
                .degrade(self.degradation),
            None => session,
        }
    }

    /// The fault context stamped into flight-recorder postmortems.
    fn fault_context(&self) -> String {
        fault_context(self.faults.as_deref().map(|model| FaultPlan {
            model,
            retry: self.retry,
            degradation: self.degradation,
        }))
    }

    /// ", NAME topology" on a tiered federation, for report headings.
    fn topology_note(&self) -> String {
        self.topology
            .as_ref()
            .map(|t| format!(", {} topology", t.name()))
            .unwrap_or_default()
    }
}

/// The observers the observability flags ask for, riding one replay as
/// one [`Observer`]: `run` attaches one, and a sweep one per job. A part
/// whose flag is off is absent and costs nothing.
struct Observers {
    telemetry: Option<TelemetryObserver>,
    spans: Option<SpanObserver>,
    windows: Option<WindowedRegistry>,
    recorder: Option<FlightRecorder>,
}

impl Observers {
    /// The flags' observers for the replay labelled `label`, its spans
    /// on thread lane `lane`, with per-tier resolve spans on a topology.
    fn new(args: &ReplayArgs, setup: &Setup, label: &str, lane: u32) -> Observers {
        Observers {
            telemetry: args
                .metrics
                .is_some()
                .then(|| TelemetryObserver::new(label)),
            spans: args.trace_spans.is_some().then(|| {
                SpanObserver::new(label)
                    .with_tid(lane)
                    .with_tier_detail(setup.topology.is_some())
            }),
            windows: args
                .metrics_every
                .map(|every| WindowedRegistry::new(label, every)),
            recorder: args
                .flight_recorder
                .map(|depth| FlightRecorder::new(depth).with_context(setup.fault_context())),
        }
    }

    fn parts(&mut self) -> impl Iterator<Item = &mut dyn Observer> {
        self.telemetry
            .iter_mut()
            .map(|o| o as &mut dyn Observer)
            .chain(self.spans.iter_mut().map(|o| o as &mut dyn Observer))
            .chain(self.windows.iter_mut().map(|o| o as &mut dyn Observer))
            .chain(self.recorder.iter_mut().map(|o| o as &mut dyn Observer))
    }

    /// The recorder's postmortem dump, when a query failed or degraded.
    fn postmortems(&self) -> Option<String> {
        let r = self.recorder.as_ref()?;
        (!r.postmortems().is_empty()).then(|| render_postmortems(r.postmortems(), r.truncated()))
    }
}

impl Observer for Observers {
    fn on_query_start(&mut self, index: usize, query: &TraceQuery) {
        for obs in self.parts() {
            obs.on_query_start(index, query);
        }
    }

    /// Only the parts that want accesses see them, as in the session's
    /// own dispatch. Direct calls, not [`Self::parts`]: this runs once
    /// per slice.
    fn on_access(&mut self, event: &CostEvent<'_>) {
        if let Some(o) = self.telemetry.as_mut().filter(|o| o.wants_accesses()) {
            o.on_access(event);
        }
        if let Some(o) = self.spans.as_mut().filter(|o| o.wants_accesses()) {
            o.on_access(event);
        }
        if let Some(o) = self.windows.as_mut().filter(|o| o.wants_accesses()) {
            o.on_access(event);
        }
        if let Some(o) = self.recorder.as_mut().filter(|o| o.wants_accesses()) {
            o.on_access(event);
        }
    }

    fn on_query_end(&mut self, index: usize, query: &TraceQuery) {
        for obs in self.parts() {
            obs.on_query_end(index, query);
        }
    }

    fn finish(&mut self, policy: Option<&dyn CachePolicy>) {
        for obs in self.parts() {
            obs.finish(policy);
        }
    }

    fn wants_accesses(&self) -> bool {
        self.telemetry
            .as_ref()
            .is_some_and(Observer::wants_accesses)
            || self.spans.as_ref().is_some_and(Observer::wants_accesses)
            || self.windows.as_ref().is_some_and(Observer::wants_accesses)
            || self.recorder.as_ref().is_some_and(Observer::wants_accesses)
    }

    fn warnings(&mut self) -> Vec<String> {
        self.parts().flat_map(|obs| obs.warnings()).collect()
    }
}

/// Execute a command, returning the text to print.
///
/// # Errors
///
/// Propagates configuration, I/O, and generation errors.
pub fn run_command(command: Command) -> Result<String> {
    match command {
        Command::Help => Ok(USAGE.to_string()),
        Command::GenTrace {
            release,
            out,
            seed,
            scale,
            queries,
        } => {
            // The spec's write path streams query-by-query through the
            // trace writer, so huge --queries values never materialize.
            let mut spec = TraceSpec::new(parse_release(&release)?)
                .seed(seed)
                .scale(scale)
                .out(&out);
            if queries > 0 {
                spec = spec.queries(queries);
            }
            let summary = spec.write()?;
            Ok(format!(
                "wrote {} ({} queries, sequence cost {})",
                out.display(),
                summary.queries,
                summary.sequence_cost
            ))
        }
        Command::Run {
            replay: args,
            policy,
            cache_fraction,
            trace_events,
        } => {
            if cache_fraction <= 0.0 || cache_fraction.is_nan() {
                return Err(Error::InvalidConfig(
                    "--cache-fraction must be positive".into(),
                ));
            }
            let setup = Setup::new(&args)?;
            let kind = parse_policy(&policy)?;
            // The pipeline tracer (thread lane 0) brackets the setup
            // phases; the replay loop itself is traced by a
            // `SpanObserver` on lane 1. Ticks are query indexes, so the
            // pre-replay phases render as instants at tick 0.
            let mut pipeline = args.trace_spans.as_ref().map(|_| {
                let mut t = SpanTracer::new();
                t.begin("byc run", "pipeline");
                t.begin("parse trace", "pipeline");
                t
            });
            // A trace file streams off disk, never resident — except
            // under Static, whose offline plan needs the whole trace's
            // demand profile before the first query. Synthesized
            // releases are generated in memory. A resident trace is held
            // as a `ReplayTrace`, never as the decoded queries.
            let streamed = parse_release(&args.trace).is_err() && kind != PolicyKind::Static;
            let (catalog, objects, resident, mut stream) = if streamed {
                let catalog = sdss::build(SdssRelease::Edr, args.scale, args.servers.max(1));
                let objects = ObjectCatalog::uniform(&catalog, setup.granularity);
                // Refuse a mis-scaled file before replaying any of it, on
                // its first queries' mean yield; those queries are then
                // the replay's first chunk, and the whole file's totals
                // settle a borderline trace after the replay.
                let mut reader = TraceReader::open(std::path::Path::new(&args.trace))?;
                let mut sample = ReplayTrace::new(reader.name(), &objects);
                sample.refill(&mut reader, &objects, SCALE_SAMPLE)?;
                let total = total_yield(sample.iter().map(|(q, _)| q.total_yield), args.scale)?;
                check_scale(&args.trace, sample.len(), total, &catalog)?;
                (catalog, objects, None, Some((reader, sample)))
            } else {
                let (catalog, objects, trace) = load_replay(
                    &args.trace,
                    args.scale,
                    args.seed,
                    args.servers.max(1),
                    setup.granularity,
                )?;
                (catalog, objects, Some(trace), None)
            };
            if let Some(t) = pipeline.as_mut() {
                let queries = match (&resident, &stream) {
                    (Some(tr), _) => tr.len(),
                    (None, Some((reader, _))) => reader.query_count(),
                    (None, None) => 0,
                };
                t.arg("queries", queries as u64);
                t.end();
                t.begin("build", "pipeline");
            }
            // Per-object demands are only consulted by Static, which
            // always has the resident trace.
            let demands = match (&resident, kind) {
                (Some(tr), PolicyKind::Static) => WorkloadStats::of_replay(tr, &objects).demands,
                _ => Vec::new(),
            };
            let capacity = objects.total_size().scale(cache_fraction);
            if let Some(t) = pipeline.as_mut() {
                t.arg("objects", objects.len() as u64);
                t.end();
            }
            // One independent policy per tier, each tier's cache scaling
            // the site fraction by its capacity factor; the flat WAN is
            // one tier.
            let scales: Vec<f64> = match &setup.topology {
                Some(topo) => topo.tiers().iter().map(|s| s.capacity_scale).collect(),
                None => vec![1.0],
            };
            let mut policies: Vec<Box<dyn CachePolicy + Send + Sync>> = scales
                .iter()
                .map(|s| {
                    let capacity = objects.total_size().scale(cache_fraction * s);
                    build_policy(kind, capacity, &demands, args.seed)
                })
                .collect();
            let mut observers = Observers::new(&args, &setup, kind.label(), 1);
            if let Some(path) = &trace_events {
                let log = EventLogWriter::create(path, kind.label())?;
                let telemetry = observers
                    .telemetry
                    .take()
                    .unwrap_or_else(|| TelemetryObserver::new(kind.label()));
                observers.telemetry = Some(telemetry.with_event_log(log));
            }
            // The window stream writes live during the replay — stderr
            // keeps it separate from the report on stdout.
            observers.windows = observers
                .windows
                .map(|w| w.with_sink(Box::new(std::io::stderr())));
            let mut tally = YieldTally::new(args.scale);
            let mut check = |chunk: &ReplayTrace| tally.add(chunk);
            // Only a tiered or multi-server run prints a breakdown table.
            let mut breakdown = (setup.topology.is_some() || args.servers > 1).then(Breakdown::new);
            let replay = {
                let mut session = match (stream.as_mut(), resident.as_ref()) {
                    (Some((reader, sample)), _) => {
                        ReplaySession::from_reader(reader, sample, &objects)
                            .check_chunks(&mut check)
                    }
                    (None, Some(tr)) => ReplaySession::new(tr, &objects),
                    // Unreachable: a trace is either streamed or resident.
                    (None, None) => return Err(Error::InvalidConfig("no trace input".into())),
                };
                session = setup.configure(session);
                if let Some(breakdown) = breakdown.as_mut() {
                    session = session.observe(breakdown);
                }
                session = session.observe(&mut observers);
                for p in policies.iter_mut() {
                    session = session.policy(p.as_mut());
                }
                session.run()
            };
            // A streamed file's total is judged chunk by chunk as it is
            // replayed, and its whole mean yield once it is; a failed or
            // refused run leaves no decision log behind.
            let replay = replay.and_then(|replay| match streamed {
                true => check_scale(&args.trace, tally.queries, tally.sequence_cost, &catalog)
                    .map(|()| replay),
                false => Ok(replay),
            });
            let replay = match replay {
                Ok(replay) => replay,
                Err(e) => {
                    if let Some(path) = &trace_events {
                        std::fs::remove_file(path).ok();
                    }
                    return Err(e);
                }
            };
            replay.debug_assert_audit();
            let report = replay.report;
            if let Some(t) = pipeline.as_mut() {
                t.set_tick(report.queries as u64);
                t.close_all();
            }
            let mut out = render_cost_table(
                &format!(
                    "{} on {} ({} caching, cache {:.0}% = {}{})",
                    report.policy,
                    report.trace,
                    report.granularity,
                    cache_fraction * 100.0,
                    capacity,
                    setup.topology_note()
                ),
                std::slice::from_ref(&report),
            );
            let _ = writeln!(
                out,
                "hits {} | bypasses {} | loads {} | evictions {} | traffic reduction {:.1}x | byte hit rate {:.1}%",
                report.hits,
                report.bypasses,
                report.loads,
                report.evictions,
                report.reduction_factor(),
                report.byte_hit_rate() * 100.0
            );
            if let Some(model) = setup.faults.as_deref() {
                let _ = writeln!(
                    out,
                    "faults ({}, degrade {}): retries {} | retried traffic {} | degraded queries {} | failed queries {} | availability {:.2}%",
                    model.name(),
                    setup.degradation.label(),
                    report.retries,
                    report.retried_bytes,
                    report.degraded_queries,
                    report.failed_queries,
                    report.availability() * 100.0
                );
            }
            // Observer warnings (parked telemetry IO errors, ring
            // truncation) surface here rather than failing the run: the
            // replay itself succeeded.
            for w in &replay.warnings {
                let _ = writeln!(out, "warning: {w}");
            }
            if let (Some(topo), Some(breakdown)) = (&setup.topology, &breakdown) {
                // Tiers the walk never reached still get a (zero) row, so
                // the table always shows the whole hierarchy.
                let mut windows = vec![QueryWindow::default(); topo.depth()];
                for (t, w) in breakdown.tiers() {
                    if let Some(slot) = windows.get_mut(t as usize) {
                        *slot = w;
                    }
                }
                let rows: Vec<(String, QueryWindow)> = topo
                    .tiers()
                    .iter()
                    .map(|s| s.name.clone())
                    .zip(windows)
                    .collect();
                let _ = writeln!(out);
                let _ = write!(
                    out,
                    "{}",
                    render_tier_table(
                        &format!("per-tier breakdown ({} topology)", topo.name()),
                        &rows,
                    )
                );
            }
            let servers = breakdown.map(|b| b.servers()).unwrap_or_default();
            if servers.len() > 1 {
                let _ = writeln!(out);
                let _ = write!(
                    out,
                    "{}",
                    render_server_table(
                        &format!(
                            "per-server WAN breakdown ({} pricing)",
                            setup.network.name()
                        ),
                        &servers,
                    )
                );
            }
            if let Some(dump) = observers.postmortems() {
                let _ = writeln!(out);
                out.push_str(&dump);
            }
            if let (Some(path), Some(obs)) = (&args.trace_spans, observers.spans) {
                let tracer = obs.into_tracer();
                let mut threads: Vec<(&SpanTracer, &str)> = Vec::new();
                if let Some(p) = pipeline.as_ref() {
                    threads.push((p, "pipeline"));
                }
                threads.push((&tracer, "replay loop"));
                write_chrome_trace(path, threads.iter().copied())?;
                let _ = writeln!(out, "\nwrote span trace to {}", path.display());
                // The table shows every lane the file carries: pipeline
                // setup phases first, then the replay loop's chunk tree.
                let spans: Vec<byc_telemetry::Span> = threads
                    .iter()
                    .flat_map(|(t, _)| t.spans().iter().cloned())
                    .collect();
                let _ = write!(
                    out,
                    "{}",
                    render_span_table("replay phase spans (ticks = query index)", &spans)
                );
            }
            if let Some(reg) = observers.windows {
                let windows = reg.breakdown().windows();
                let rows: Vec<_> = windows
                    .iter()
                    .map(|w| (w.queries.clone(), w.total()))
                    .collect();
                let _ = writeln!(out);
                let _ = write!(
                    out,
                    "{}",
                    render_window_table(
                        &format!(
                            "windowed telemetry (every {} queries; NDJSON on stderr)",
                            reg.every()
                        ),
                        &rows,
                    )
                );
            }
            if let Some(t) = observers.telemetry {
                let (snapshot, io) = t.into_parts();
                io?;
                let mut registry = MetricsRegistry::new();
                registry.absorb(snapshot);
                if let Some(path) = &args.metrics {
                    write_metrics(&registry, args.metrics_format, path)?;
                    let _ = writeln!(
                        out,
                        "\nwrote metrics ({}) to {}",
                        args.metrics_format.label(),
                        path.display()
                    );
                }
                if let Some(path) = &trace_events {
                    let _ = writeln!(out, "wrote decision events to {}", path.display());
                }
                let _ = writeln!(out);
                let _ = write!(
                    out,
                    "{}",
                    render_metrics_table("telemetry by (server, object class)", &registry)
                );
            }
            Ok(out)
        }
        Command::Sweep(args) => {
            let setup = Setup::new(&args)?;
            let (_, objects, trace) = load_replay(
                &args.trace,
                args.scale,
                args.seed,
                args.servers.max(1),
                setup.granularity,
            )?;
            let stats = WorkloadStats::of_replay(&trace, &objects);
            let fractions = [0.1, 0.2, 0.3, 0.4, 0.5, 0.75, 1.0];
            let policies = policy_roster();
            // Fault-aware points carry the model name in their label, and
            // tiered points the topology name, so faulted/fault-free and
            // flat/tiered exports never merge (POLICY@FRACTION@FAULT@TIER;
            // flat fault-free labels stay plain POLICY@FRACTION).
            let mut suffix = String::new();
            if let Some(model) = setup.faults.as_deref() {
                let _ = write!(suffix, "@{}", model.name());
            }
            if let Some(topo) = &setup.topology {
                let _ = write!(suffix, "@{}", topo.name());
            }
            // One span-trace thread lane per job: lane 0 is reserved
            // for `run`'s pipeline lane, jobs start at 1, in grid
            // order.
            let lane = |kind: PolicyKind, fraction: f64| -> u32 {
                let p = policies.iter().position(|k| *k == kind).unwrap_or(0);
                let f = fractions
                    .iter()
                    .position(|x| (*x - fraction).abs() < 1e-9)
                    .unwrap_or(0);
                u32::try_from(p * fractions.len() + f + 1).unwrap_or(u32::MAX)
            };
            // One label per sweep point, so distinct (policy,
            // fraction) cells never merge in any export.
            let metrics_label =
                |policy: &str, fraction: f64| format!("{policy}@{fraction:.2}{suffix}");
            let make = |kind: PolicyKind, fraction: f64| {
                let label = metrics_label(kind.label(), fraction);
                let mut bundle = Observers::new(&args, &setup, &label, lane(kind, fraction));
                // A kind that ignores capacity replays once for every
                // fraction, and its telemetry differs between them only in
                // its label: the first fraction's observer folds it, and
                // the others take a relabelled copy below. Spans, windows
                // and the recorder stay per point.
                if kind.ignores_capacity() && fractions.first() != Some(&fraction) {
                    bundle.telemetry = None;
                }
                bundle
            };
            // Only pay for observers when a flag asked for them.
            let observing = args.metrics.is_some()
                || args.trace_spans.is_some()
                || args.metrics_every.is_some()
                || args.flight_recorder.is_some();
            let session = setup.configure(ReplaySession::new(&trace, &objects));
            let options = SweepOptions::new(&policies, &fractions, &stats.demands, args.seed);
            let mut observers = Vec::new();
            let points = match observing {
                true => session.sweep(options.observe(&make, &mut observers))?,
                false => session.sweep(options)?,
            };
            // Per-point output (warnings, postmortems, span-trace notes)
            // gathered while decomposing the observers, in grid order.
            let mut extra = String::new();
            let mut registry = MetricsRegistry::new();
            let mut tracers: Vec<(SpanTracer, String)> = Vec::new();
            let mut observers = observers.into_iter();
            for (kind, row) in policies.iter().zip(points.chunks(fractions.len())) {
                // The first fraction's telemetry of a kind that ignores
                // capacity, which its other fractions share.
                let mut shared: Option<PolicyMetrics> = None;
                for point in row {
                    let label = format!("{}@{:.2}", point.policy, point.cache_fraction);
                    for w in &point.warnings {
                        let _ = writeln!(extra, "warning: {label}: {w}");
                    }
                    let Some(observer) = observers.next() else {
                        continue;
                    };
                    if let Some(dump) = observer.postmortems() {
                        let _ = writeln!(extra, "postmortems for {label}:");
                        extra.push_str(&dump);
                    }
                    if let Some(t) = observer.telemetry {
                        let (snapshot, io) = t.into_parts();
                        io?;
                        if kind.ignores_capacity() {
                            shared = Some(snapshot.clone());
                        }
                        registry.absorb(snapshot);
                    } else if let Some(first) = &shared {
                        registry.absorb(PolicyMetrics {
                            policy: metrics_label(kind.label(), point.cache_fraction),
                            ..first.clone()
                        });
                    }
                    if let Some(w) = observer.windows {
                        // Stream post-hoc in job order: headers and records
                        // stay deterministic instead of interleaving across
                        // worker threads.
                        eprintln!("{}", window_header(w.policy(), w.every()));
                        for (i, window) in w.breakdown().windows().iter().enumerate() {
                            eprintln!("{}", window_record(i, window));
                        }
                    }
                    if let Some(s) = observer.spans {
                        tracers.push((s.into_tracer(), label));
                    }
                }
            }
            if let Some(path) = &args.metrics {
                write_metrics(&registry, args.metrics_format, path)?;
            }
            if let Some(path) = &args.trace_spans {
                write_chrome_trace(path, tracers.iter().map(|(t, l)| (t, l.as_str())))?;
                let _ = writeln!(
                    extra,
                    "wrote span trace ({} sweep jobs) to {}",
                    tracers.len(),
                    path.display()
                );
            }
            let mut out = format!(
                "total WAN cost (GB) vs cache size, {} caching, trace {}{}\n",
                setup.granularity.label(),
                trace.name(),
                setup.topology_note()
            );
            let _ = write!(out, "{:16}", "% of DB");
            for f in fractions {
                let _ = write!(out, " {:>9.0}", f * 100.0);
            }
            let _ = writeln!(out);
            // Points come back policy-major, fraction-minor: one row each.
            for (kind, row) in policies.iter().zip(points.chunks(fractions.len())) {
                let _ = write!(out, "{:16}", kind.label());
                for p in row {
                    let _ = write!(out, " {:>9.1}", p.report.total_cost().as_f64() / 1e9);
                }
                let _ = writeln!(out);
            }
            if let Some(path) = &args.metrics {
                let _ = writeln!(
                    out,
                    "wrote metrics ({}) to {}",
                    args.metrics_format.label(),
                    path.display()
                );
            }
            out.push_str(&extra);
            Ok(out)
        }
        Command::Analyze { trace, scale, seed } => {
            let (catalog, trace) = load_trace(&trace, scale, seed, 1)?;
            let mut out = String::new();
            let _ = writeln!(
                out,
                "trace {}: {} queries, sequence cost {}",
                trace.name,
                trace.len(),
                trace.sequence_cost()
            );
            let window = 50.min(trace.len());
            let containment = containment_analysis(&trace, trace.len() / 2, window);
            let _ = writeln!(
                out,
                "containment (window {window}): {} distinct keys, reuse {:.1}%, contained queries {:.1}%",
                containment.distinct_keys,
                containment.reuse_rate * 100.0,
                containment.contained_queries * 100.0
            );
            for g in [Granularity::Column, Granularity::Table] {
                let objects = ObjectCatalog::uniform(&catalog, g);
                let loc = locality_analysis(&trace, &objects);
                let _ = writeln!(
                    out,
                    "{} locality: {}/{} touched, top-10 share {:.1}%, mean reuse gap {:.1}",
                    g.label(),
                    loc.touched,
                    loc.universe,
                    loc.top10_share * 100.0,
                    loc.mean_reuse_gap
                );
                let (gaps, sorted) = byc_analysis::gap_analysis(&trace, &objects);
                let recommended = gaps
                    .recommended_cutoff(&sorted, 0.01)
                    .map(|c| c.to_string())
                    .unwrap_or_else(|| ">10000".into());
                let _ = writeln!(
                    out,
                    "{} gaps: p50 {} p90 {} p99 {} max {}; episode cutoff keeping <1% splits: {}",
                    g.label(),
                    gaps.p50,
                    gaps.p90,
                    gaps.p99,
                    gaps.max,
                    recommended
                );
            }
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byc_types::SplitMix64;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn no_args_is_help() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert!(run_command(Command::Help).unwrap().contains("USAGE"));
    }

    #[test]
    fn unknown_subcommand_rejected() {
        let err = parse_args(&args(&["frobnicate"])).unwrap_err();
        assert!(err.to_string().contains("unknown subcommand"));
    }

    #[test]
    fn policy_names_parse() {
        assert_eq!(
            parse_policy("rate-profile").unwrap(),
            PolicyKind::RateProfile
        );
        assert_eq!(parse_policy("RP").unwrap(), PolicyKind::RateProfile);
        assert_eq!(parse_policy("GDS").unwrap(), PolicyKind::Gds);
        assert_eq!(parse_policy("lru2").unwrap(), PolicyKind::LruK);
        let hint = parse_policy("magic").unwrap_err().to_string();
        // Every name the hint offers parses, and together they name
        // every policy.
        let offered = hint
            .split_once("(try ")
            .and_then(|(_, rest)| rest.strip_suffix(')'))
            .unwrap_or_else(|| panic!("no name list in {hint:?}"));
        let covered: Vec<PolicyKind> = offered
            .split(", ")
            .map(|name| parse_policy(name).unwrap_or_else(|e| panic!("{name:?}: {e}")))
            .collect();
        for kind in [
            PolicyKind::RateProfile,
            PolicyKind::OnlineBY,
            PolicyKind::OnlineBYMarking,
            PolicyKind::SpaceEffBY,
            PolicyKind::Gds,
            PolicyKind::Gdsp,
            PolicyKind::Lru,
            PolicyKind::Lfu,
            PolicyKind::LruK,
            PolicyKind::Lff,
            PolicyKind::GdStar,
            PolicyKind::Static,
            PolicyKind::NoCache,
        ] {
            assert!(covered.contains(&kind), "{hint} omits {kind:?}");
        }
        assert_eq!(covered.len(), 13, "{hint} names a policy twice");
    }

    #[test]
    fn gen_trace_requires_out() {
        let err = parse_args(&args(&["gen-trace", "edr"])).unwrap_err();
        assert!(err.to_string().contains("--out"));
    }

    #[test]
    fn run_parses_flags() {
        let cmd = parse_args(&args(&[
            "run",
            "edr",
            "--policy",
            "gds",
            "--granularity",
            "table",
            "--cache-fraction",
            "0.3",
            "--scale",
            "0.001",
        ]))
        .unwrap();
        match cmd {
            Command::Run {
                replay:
                    ReplayArgs {
                        trace,
                        granularity,
                        scale,
                        seed,
                        servers,
                        multipliers,
                        topology,
                        fault_link,
                        metrics,
                        metrics_format,
                        faults,
                        retry,
                        fault_seed,
                        degrade,
                        trace_spans,
                        metrics_every,
                        flight_recorder,
                    },
                policy,
                cache_fraction,
                trace_events,
            } => {
                assert_eq!(trace, "edr");
                assert_eq!(policy, "gds");
                assert_eq!(granularity, "table");
                assert!((cache_fraction - 0.3).abs() < 1e-12);
                assert!((scale - 0.001).abs() < 1e-12);
                assert_eq!(seed, 42);
                assert_eq!(servers, 1);
                assert_eq!(multipliers, None);
                assert_eq!(topology, None);
                assert_eq!(fault_link, None);
                assert_eq!(trace_events, None);
                assert_eq!(metrics, None);
                assert_eq!(metrics_format, MetricsFormat::Prometheus);
                assert_eq!(faults, None);
                assert_eq!(retry, 1);
                assert_eq!(fault_seed, None);
                assert_eq!(degrade, "stale");
                assert_eq!(trace_spans, None);
                assert_eq!(metrics_every, None);
                assert_eq!(flight_recorder, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn network_flags_parse() {
        // --cost-multipliers implies --servers from its length.
        let cmd = parse_args(&args(&[
            "run",
            "edr",
            "--policy",
            "gds",
            "--cost-multipliers",
            "1,2,4,8",
        ]))
        .unwrap();
        match cmd {
            Command::Run {
                replay:
                    ReplayArgs {
                        servers,
                        multipliers,
                        ..
                    },
                ..
            } => {
                assert_eq!(servers, 4);
                assert_eq!(multipliers, Some(vec![1.0, 2.0, 4.0, 8.0]));
            }
            other => panic!("unexpected {other:?}"),
        }
        // An explicit --servers wins over the implied count.
        let cmd = parse_args(&args(&[
            "sweep",
            "edr",
            "--servers",
            "2",
            "--cost-multipliers",
            "1,3",
        ]))
        .unwrap();
        match cmd {
            Command::Sweep(ReplayArgs {
                servers,
                multipliers,
                ..
            }) => {
                assert_eq!(servers, 2);
                assert_eq!(multipliers, Some(vec![1.0, 3.0]));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Malformed multiplier lists are rejected at parse time.
        let err = parse_args(&args(&[
            "run",
            "edr",
            "--policy",
            "gds",
            "--cost-multipliers",
            "1,x",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("comma-separated"), "{err}");
    }

    #[test]
    fn run_with_network_prints_server_table() {
        let cmd = parse_args(&args(&[
            "run",
            "edr",
            "--policy",
            "nocache",
            "--scale",
            "0.001",
            "--cost-multipliers",
            "1,2,4",
        ]))
        .unwrap();
        let out = run_command(cmd).unwrap();
        assert!(out.contains("per-server WAN breakdown"), "{out}");
        assert!(out.contains("S0"));
        assert!(out.contains("S2"));
        assert!(out.contains("total"));
    }

    #[test]
    fn run_executes_small_scale() {
        let cmd = parse_args(&args(&[
            "run",
            "edr",
            "--policy",
            "rate-profile",
            "--scale",
            "0.001",
        ]))
        .unwrap();
        // Shrink the trace through a tiny scale; query count stays preset
        // but generation is fast at this scale.
        let out = run_command(cmd).unwrap();
        assert!(out.contains("Rate-Profile"));
        assert!(out.contains("traffic reduction"));
    }

    #[test]
    fn bad_cache_fraction_rejected() {
        let cmd = Command::Run {
            replay: ReplayArgs {
                granularity: "table".into(),
                scale: 0.001,
                seed: 1,
                ..ReplayArgs::new("edr")
            },
            policy: "gds".into(),
            cache_fraction: 0.0,
            trace_events: None,
        };
        assert!(run_command(cmd).is_err());
    }

    #[test]
    fn gen_trace_roundtrip() {
        let mut path = std::env::temp_dir();
        path.push(format!("byc-cli-trace-{}.jsonl", std::process::id()));
        let cmd = Command::GenTrace {
            release: "edr".into(),
            out: path.clone(),
            seed: 7,
            scale: 0.001,
            queries: 200,
        };
        let out = run_command(cmd).unwrap();
        assert!(out.contains("200 queries"));
        let trace = trace_io::read_trace(&path).unwrap();
        assert_eq!(trace.len(), 200);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn analyze_runs() {
        let cmd = Command::Analyze {
            trace: "edr".into(),
            scale: 0.001,
            seed: 3,
        };
        // Full preset query count at tiny scale is fast enough.
        let out = run_command(cmd).unwrap();
        assert!(out.contains("containment"));
        assert!(out.contains("column locality"));
    }

    #[test]
    fn unknown_flags_rejected() {
        let err = parse_args(&args(&["run", "edr", "--cache-fracton", "0.5"])).unwrap_err();
        assert!(
            err.to_string().contains("unknown flag --cache-fracton"),
            "{err}"
        );
        let err = parse_args(&args(&["gen-trace", "edr", "--policy", "gds"])).unwrap_err();
        assert!(err.to_string().contains("unknown flag --policy"), "{err}");
        // `analyze` reports both granularities; it takes no --granularity.
        let err = parse_args(&args(&["analyze", "edr", "--granularity", "bogus"])).unwrap_err();
        assert!(
            err.to_string().contains("unknown flag --granularity"),
            "{err}"
        );
        // A second positional argument is refused by name, not dropped.
        for argv in [
            &["run", "edr", "stray", "--policy", "gds", "--scale", "0.02"][..],
            &["sweep", "edr", "stray"][..],
            &["analyze", "edr", "stray"][..],
            &["gen-trace", "edr", "stray", "--out", "t.jsonl"][..],
        ] {
            let err = parse_args(&args(argv)).unwrap_err();
            assert!(
                matches!(err, Error::InvalidConfig(_)) && err.to_string().contains("\"stray\""),
                "{argv:?}: {err}"
            );
        }
    }

    #[test]
    fn scale_mismatch_trace_rejected() {
        // Generate a tiny-scale trace, then replay it against the default
        // full-scale catalog: the guard must refuse.
        let mut path = std::env::temp_dir();
        path.push(format!("byc-cli-mismatch-{}.jsonl", std::process::id()));
        run_command(Command::GenTrace {
            release: "edr".into(),
            out: path.clone(),
            seed: 7,
            scale: 1e-4,
            queries: 100,
        })
        .unwrap();
        let err = run_command(Command::Run {
            replay: ReplayArgs {
                granularity: "table".into(),
                scale: 1.0, // wrong: trace was generated at 1e-4
                seed: 7,
                ..ReplayArgs::new(path.to_string_lossy().into_owned())
            },
            policy: "gds".into(),
            cache_fraction: 0.5,
            trace_events: None,
        })
        .unwrap_err();
        assert!(err.to_string().contains("different catalog scale"), "{err}");
        // One sentence: no run of spaces from a broken line continuation.
        assert!(!err.to_string().contains("  "), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn refused_file_runs_leave_no_decision_log() {
        let dir = std::env::temp_dir();
        let id = std::process::id();
        let path = dir.join(format!("byc-cli-refused-{id}.jsonl"));
        let events = dir.join(format!("byc-cli-refused-{id}.events.ndjson"));
        let catalog = sdss::build(SdssRelease::Edr, 1e-4, 1);
        let mut trace = generate(&catalog, &WorkloadConfig::smoke(7, SCALE_SAMPLE + 1)).unwrap();
        trace_io::write_trace(&trace, &path).unwrap();
        let run = |at: f64| {
            let mut cmd = base_run(&path.to_string_lossy());
            if let Command::Run {
                ref mut replay,
                ref mut trace_events,
                ..
            } = cmd
            {
                replay.scale = at;
                *trace_events = Some(events.clone());
            }
            run_command(cmd)
        };
        // At its own scale the file replays and logs its decisions.
        run(1e-4).unwrap();
        assert!(events.exists());
        std::fs::remove_file(&events).unwrap();

        // Wrong scale: the first queries refuse it before the replay
        // starts. A query past the header's count proves it: a replay
        // would have failed on it instead.
        let text = std::fs::read_to_string(&path).unwrap();
        let extra = text.lines().last().unwrap();
        std::fs::write(&path, format!("{text}{extra}\n")).unwrap();
        let err = run(1.0).unwrap_err();
        assert!(err.to_string().contains("different catalog scale"), "{err}");
        assert!(!events.exists(), "a refused run wrote a decision log");

        // First queries in line, whole-file mean yield not: refused after
        // the replay, and the log it wrote is removed.
        if let Some(last) = trace.queries.last_mut() {
            last.total_yield = catalog.database_size().scale(100.0);
        }
        trace_io::write_trace(&trace, &path).unwrap();
        let err = run(1e-4).unwrap_err();
        assert!(err.to_string().contains("different catalog scale"), "{err}");
        assert!(!events.exists(), "a refused run left its decision log");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unresolved_references_warn_on_run_and_sweep() {
        let path =
            std::env::temp_dir().join(format!("byc-cli-unresolved-{}.jsonl", std::process::id()));
        let catalog = sdss::build(SdssRelease::Edr, 1e-4, 1);
        let mut trace = generate(&catalog, &WorkloadConfig::smoke(7, 200)).unwrap();
        for q in &mut trace.queries {
            q.table_yields
                .push((byc_types::TableId::new(u32::MAX), Bytes::new(10)));
        }
        trace_io::write_trace(&trace, &path).unwrap();
        let file = path.to_string_lossy().to_string();
        let common = ["--granularity", "table", "--scale", "0.0001"];
        let warning = "200 trace references (1.95 KiB of results) name no table in the catalog";
        let run = [&["run", &file, "--policy", "nocache"][..], &common[..]].concat();
        let out = run_command(parse_args(&args(&run)).unwrap()).unwrap();
        assert!(out.contains(&format!("warning: {warning}")), "{out}");
        let sweep = [&["sweep", &file][..], &common[..]].concat();
        let out = run_command(parse_args(&args(&sweep)).unwrap()).unwrap();
        assert!(
            out.contains(&format!("warning: NoCache@0.10: {warning}")),
            "{out}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn granularity_parse_errors() {
        assert!(parse_granularity("row").is_err());
        assert!(parse_release("dr9").is_err());
    }

    #[test]
    fn telemetry_flags_parse() {
        let cmd = parse_args(&args(&[
            "run",
            "edr",
            "--policy",
            "gds",
            "--trace-events",
            "events.ndjson",
            "--metrics",
            "metrics.json",
            "--metrics-format",
            "json",
        ]))
        .unwrap();
        match cmd {
            Command::Run {
                replay:
                    ReplayArgs {
                        metrics,
                        metrics_format,
                        ..
                    },
                trace_events,
                ..
            } => {
                assert_eq!(trace_events, Some(PathBuf::from("events.ndjson")));
                assert_eq!(metrics, Some(PathBuf::from("metrics.json")));
                assert_eq!(metrics_format, MetricsFormat::Json);
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse_args(&args(&["sweep", "edr", "--metrics", "sweep.prom"])).unwrap();
        match cmd {
            Command::Sweep(ReplayArgs {
                metrics,
                metrics_format,
                ..
            }) => {
                assert_eq!(metrics, Some(PathBuf::from("sweep.prom")));
                assert_eq!(metrics_format, MetricsFormat::Prometheus);
            }
            other => panic!("unexpected {other:?}"),
        }
        let err = parse_args(&args(&[
            "run",
            "edr",
            "--policy",
            "gds",
            "--metrics",
            "m",
            "--metrics-format",
            "xml",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("prom or json"), "{err}");
    }

    #[test]
    fn run_writes_event_log_and_metrics() {
        let dir = std::env::temp_dir();
        let events = dir.join(format!("byc-cli-events-{}.ndjson", std::process::id()));
        let metrics = dir.join(format!("byc-cli-metrics-{}.json", std::process::id()));
        let out = run_command(Command::Run {
            replay: ReplayArgs {
                granularity: "table".into(),
                scale: 0.001,
                seed: 9,
                servers: 2,
                multipliers: Some(vec![1.0, 3.0]),
                metrics: Some(metrics.clone()),
                metrics_format: MetricsFormat::Json,
                ..ReplayArgs::new("edr")
            },
            policy: "spaceeffby".into(),
            cache_fraction: 0.3,
            trace_events: Some(events.clone()),
        })
        .unwrap();
        assert!(out.contains("wrote decision events to"), "{out}");
        assert!(out.contains("wrote metrics (json) to"), "{out}");
        assert!(out.contains("telemetry by (server, object class)"), "{out}");

        // The event log replays to the same totals the cost table printed.
        let log = byc_telemetry::EventLog::read_file(&events).unwrap();
        assert_eq!(log.policy, "SpaceEffBY");
        assert!(!log.events.is_empty());
        let totals = log.totals();
        assert_eq!(
            totals.hits + totals.bypasses + totals.loads,
            log.events.len() as u64
        );

        // The JSON export parses and carries the same policy label.
        let text = std::fs::read_to_string(&metrics).unwrap();
        let value = byc_types::json::Value::parse(&text).unwrap();
        assert!(text.contains("byc.telemetry.metrics"));
        assert!(text.contains("SpaceEffBY"));
        drop(value);

        std::fs::remove_file(&events).ok();
        std::fs::remove_file(&metrics).ok();
    }

    #[test]
    fn run_metrics_prometheus_format() {
        let dir = std::env::temp_dir();
        let metrics = dir.join(format!("byc-cli-metrics-{}.prom", std::process::id()));
        let out = run_command(Command::Run {
            replay: ReplayArgs {
                granularity: "table".into(),
                scale: 0.001,
                seed: 9,
                metrics: Some(metrics.clone()),
                ..ReplayArgs::new("edr")
            },
            policy: "gds".into(),
            cache_fraction: 0.3,
            trace_events: None,
        })
        .unwrap();
        assert!(out.contains("wrote metrics (prom) to"), "{out}");
        let text = std::fs::read_to_string(&metrics).unwrap();
        assert!(text.contains("# TYPE byc_hits_total counter"), "{text}");
        assert!(text.contains("policy=\"GDS\""), "{text}");
        std::fs::remove_file(&metrics).ok();
    }

    #[test]
    fn fault_flags_parse() {
        let cmd = parse_args(&args(&[
            "run",
            "edr",
            "--policy",
            "gds",
            "--faults",
            "flaky:p=0.01,spike=0.05x4",
            "--retry",
            "3",
            "--fault-seed",
            "7",
            "--degrade",
            "fail",
        ]))
        .unwrap();
        match cmd {
            Command::Run {
                replay:
                    ReplayArgs {
                        faults,
                        retry,
                        fault_seed,
                        degrade,
                        ..
                    },
                ..
            } => {
                assert_eq!(faults.as_deref(), Some("flaky:p=0.01,spike=0.05x4"));
                assert_eq!(retry, 3);
                assert_eq!(fault_seed, Some(7));
                assert_eq!(degrade, "fail");
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse_args(&args(&["sweep", "edr", "--faults", "outage:0@10..20"])).unwrap();
        match cmd {
            Command::Sweep(ReplayArgs {
                faults,
                retry,
                fault_seed,
                degrade,
                ..
            }) => {
                assert_eq!(faults.as_deref(), Some("outage:0@10..20"));
                assert_eq!(retry, 1);
                assert_eq!(fault_seed, None);
                assert_eq!(degrade, "stale");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fault_specs_parse_and_reject() {
        // none → no fault layer.
        assert!(parse_faults("none", 1, 2).unwrap().is_none());
        // Outage windows, including multiple.
        let model = parse_faults("outage:0@10..20,1@5..8", 1, 2)
            .unwrap()
            .unwrap();
        assert_eq!(model.name(), "outage");
        // Flaky links, with and without spikes.
        let model = parse_faults("flaky:p=0.1", 9, 2).unwrap().unwrap();
        assert_eq!(model.name(), "flaky");
        let model = parse_faults("flaky:p=0.1,spike=0.05x4", 9, 2)
            .unwrap()
            .unwrap();
        assert_eq!(model.name(), "flaky");
        // Malformed specs are rejected with the offending fragment.
        for bad in [
            "outage:0@10",
            "outage:x@1..2",
            "flaky:spike=0.05x4",
            "flaky:p=x",
            "flaky:frob=1",
            "chaos",
        ] {
            assert!(parse_faults(bad, 1, 2).is_err(), "{bad} should be rejected");
        }
        assert!(parse_degradation("stale").is_ok());
        assert!(parse_degradation("fail").is_ok());
        assert!(parse_degradation("shrug").is_err());
    }

    #[test]
    fn run_with_outage_reports_fault_columns() {
        let out = run_command(Command::Run {
            replay: ReplayArgs {
                granularity: "table".into(),
                scale: 0.001,
                seed: 5,
                faults: Some("outage:0@0..50".into()),
                degrade: "fail".into(),
                ..ReplayArgs::new("edr")
            },
            policy: "nocache".into(),
            cache_fraction: 0.3,
            trace_events: None,
        })
        .unwrap();
        assert!(out.contains("faults (outage, degrade fail)"), "{out}");
        assert!(out.contains("failed queries"), "{out}");
    }

    #[test]
    fn topology_flags_parse() {
        let cmd = parse_args(&args(&[
            "run",
            "edr",
            "--policy",
            "lru",
            "--topology",
            "three-tier:0.1,0.25",
            "--faults",
            "outage:0@10..20",
            "--fault-link",
            "2",
        ]))
        .unwrap();
        match cmd {
            Command::Run {
                replay:
                    ReplayArgs {
                        topology,
                        fault_link,
                        ..
                    },
                ..
            } => {
                assert_eq!(topology.as_deref(), Some("three-tier:0.1,0.25"));
                assert_eq!(fault_link, Some(2));
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse_args(&args(&["sweep", "edr", "--topology", "two-tier"])).unwrap();
        match cmd {
            Command::Sweep(ReplayArgs {
                topology,
                fault_link,
                ..
            }) => {
                assert_eq!(topology.as_deref(), Some("two-tier"));
                assert_eq!(fault_link, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn topology_specs_parse_and_reject() {
        assert!(parse_topology("flat", &None).unwrap().is_none());
        let topo = parse_topology("two-tier", &None).unwrap().unwrap();
        assert_eq!(topo.depth(), 2);
        let topo = parse_topology("two-tier:0.5", &None).unwrap().unwrap();
        assert_eq!(topo.name(), "two-tier");
        let topo = parse_topology("three-tier:0.1,0.25", &Some(vec![1.0, 2.0]))
            .unwrap()
            .unwrap();
        assert_eq!(topo.depth(), 3);
        for bad in [
            "flat:1",
            "two-tier:x",
            "three-tier:0.1",
            "three-tier:a,b",
            "ring",
        ] {
            assert!(parse_topology(bad, &None).is_err(), "{bad} should reject");
        }
        // --fault-link without a fault model is rejected.
        assert!(scope_faults(None, Some(1), 3).is_err());
    }

    /// Well-formed `--faults` and `--topology` specs, for mutation.
    const GOOD_SPECS: [&str; 10] = [
        "none",
        "outage:0@10..20,1@5..8",
        "outage:1@0..1",
        "flaky:p=0.1",
        "flaky:p=0.1,spike=0.05x4",
        "flat",
        "two-tier",
        "two-tier:0.5",
        "three-tier",
        "three-tier:0.1,0.25",
    ];

    /// Numbers no spec should hold, in spellings `f64`, `u32` and `u64`
    /// parse or refuse: NaN, infinities, negatives, values past every
    /// integer width, subnormals, and what is not a number at all.
    const ODD_NUMBERS: [&str; 16] = [
        "NaN",
        "nan",
        "inf",
        "-infinity",
        "-1",
        "-0",
        "0",
        "1e309",
        "-1e309",
        "5e-324",
        "4294967296",
        "18446744073709551616",
        "1e19",
        "+1",
        "",
        "0x1f",
    ];

    fn pick(rng: &mut SplitMix64, n: usize) -> usize {
        usize::try_from(rng.next_bounded(n.max(1) as u64)).unwrap()
    }

    /// Where `spec`'s numbers are: runs of digits, with a fraction.
    fn number_runs(spec: &str) -> Vec<(usize, usize)> {
        let bytes = spec.as_bytes();
        let digit = |i: usize| bytes.get(i).is_some_and(u8::is_ascii_digit);
        let mut runs = Vec::new();
        let mut i = 0;
        while i < bytes.len() {
            if !digit(i) {
                i += 1;
                continue;
            }
            let start = i;
            while digit(i) {
                i += 1;
            }
            if bytes.get(i) == Some(&b'.') && digit(i + 1) {
                i += 1;
                while digit(i) {
                    i += 1;
                }
            }
            runs.push((start, i));
        }
        runs
    }

    /// Corrupted copies of the ASCII spec `spec`: every truncation,
    /// flipped bytes, splices with `other` (whole, and parameters after
    /// the `:`), and each number swapped for an odd one.
    fn spec_mutants(spec: &str, other: &str, rng: &mut SplitMix64) -> Vec<String> {
        let mut out: Vec<String> = (0..=spec.len()).map(|i| spec[..i].to_string()).collect();
        for _ in 0..6 {
            let (i, j) = (pick(rng, spec.len() + 1), pick(rng, other.len() + 1));
            out.push(format!("{}{}", &spec[..i], &other[j..]));
        }
        if let (Some((shape, params)), Some((_, spliced))) =
            (spec.split_once(':'), other.split_once(':'))
        {
            out.push(format!("{shape}:{spliced}"));
            out.push(format!("{shape}:{params},{spliced}"));
            out.push(format!("{shape}:{params},{params}"));
        }
        let flips = b":,@.=x-+eE019 pPnN";
        for _ in 0..8 {
            let mut bytes = spec.as_bytes().to_vec();
            if let Some(b) = bytes.get_mut(pick(rng, spec.len())) {
                *b = flips[pick(rng, flips.len())];
            }
            out.push(String::from_utf8(bytes).unwrap());
        }
        for (start, end) in number_runs(spec) {
            for _ in 0..3 {
                let odd = ODD_NUMBERS[pick(rng, ODD_NUMBERS.len())];
                out.push(format!("{}{odd}{}", &spec[..start], &spec[end..]));
            }
        }
        out
    }

    /// A spec parser's answer: a value, or a configuration error naming
    /// the spec. Any other error fails the test, as a panic does.
    fn config<T>(result: Result<T>, spec: &str) -> Option<T> {
        match result {
            Ok(value) => Some(value),
            Err(Error::InvalidConfig(_)) => None,
            Err(other) => panic!("{spec:?}: not a configuration error: {other:?}"),
        }
    }

    #[test]
    fn spec_mutants_cover_every_kind() {
        let mut rng = SplitMix64::new(3);
        let mutants = spec_mutants("flaky:p=0.1,spike=0.05x4", "three-tier:0.1,0.25", &mut rng);
        assert_eq!(number_runs("outage:0@10..20"), [(7, 8), (9, 11), (13, 15)]);
        assert!(mutants.iter().any(|m| m == "flaky:p=0.1,spike=0.05x"));
        assert!(mutants.iter().any(|m| m == "flaky:0.1,0.25"));
        assert!(mutants.iter().any(|m| ODD_NUMBERS
            .iter()
            .any(|odd| !odd.is_empty() && m.contains(odd))));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Mutated `--faults` and `--topology` specs, and the fault
        /// model of each scoped to a `--fault-link`, end in `Ok` or
        /// `InvalidConfig`, whatever the server count, the cost
        /// multipliers or the link.
        #[test]
        fn mutated_specs_end_in_ok_or_invalid_config(seed in proptest::prelude::any::<u64>()) {
            let mut rng = SplitMix64::new(seed);
            let spec = GOOD_SPECS[pick(&mut rng, GOOD_SPECS.len())];
            let other = GOOD_SPECS[pick(&mut rng, GOOD_SPECS.len())];
            for text in spec_mutants(spec, other, &mut rng) {
                let servers = [0, 1, 2, u32::MAX][pick(&mut rng, 4)];
                let faults = config(parse_faults(&text, seed, servers), &text).flatten();
                let multipliers = match pick(&mut rng, 3) {
                    0 => None,
                    1 => Some(vec![1.0, 2.0]),
                    _ => Some(vec![f64::NAN, -1.0, f64::INFINITY]),
                };
                let topology = config(parse_topology(&text, &multipliers), &text).flatten();
                let depth = topology.map_or(1, |t| t.depth());
                let link = [None, Some(0), Some(1), Some(2), Some(u32::MAX)][pick(&mut rng, 5)];
                config(scope_faults(faults, link, depth), &text);
            }
        }
    }

    /// A valid argv of every subcommand, as the tests above spell them.
    const GOOD_ARGVS: [&[&str]; 13] = [
        &["help"],
        &[
            "gen-trace",
            "edr",
            "--out",
            "t.jsonl",
            "--seed",
            "9",
            "--scale",
            "0.03",
            "--queries",
            "100",
        ],
        &[
            "run",
            "edr",
            "--policy",
            "gds",
            "--granularity",
            "table",
            "--cache-fraction",
            "0.3",
            "--scale",
            "0.001",
        ],
        &[
            "run",
            "edr",
            "--policy",
            "gds",
            "--cost-multipliers",
            "1,2,4,8",
        ],
        &[
            "sweep",
            "edr",
            "--servers",
            "2",
            "--cost-multipliers",
            "1,3",
        ],
        &[
            "run",
            "edr",
            "--policy",
            "gds",
            "--trace-events",
            "events.ndjson",
            "--metrics",
            "metrics.json",
            "--metrics-format",
            "json",
        ],
        &[
            "run",
            "edr",
            "--policy",
            "gds",
            "--faults",
            "flaky:p=0.01,spike=0.05x4",
            "--retry",
            "3",
            "--fault-seed",
            "7",
            "--degrade",
            "fail",
        ],
        &[
            "run",
            "edr",
            "--policy",
            "lru",
            "--topology",
            "three-tier:0.1,0.25",
            "--faults",
            "outage:0@10..20",
            "--fault-link",
            "2",
        ],
        &[
            "run",
            "edr",
            "--policy",
            "gds",
            "--trace-spans",
            "spans.json",
            "--metrics-every",
            "64",
            "--flight-recorder",
            "8",
        ],
        &["sweep", "edr", "--metrics", "sweep.prom"],
        &[
            "sweep",
            "edr",
            "--topology",
            "two-tier",
            "--fault-link",
            "0",
        ],
        &["analyze", "dr1", "--scale", "0.5", "--seed", "3"],
        &["analyze", "trace.jsonl"],
    ];

    /// Values no flag should take as they are: empty, negative, zero,
    /// not a number, infinite, past every float and every u64, junk, and
    /// another flag's name.
    const ODD_VALUES: [&str; 9] = [
        "",
        "-1",
        "0",
        "NaN",
        "inf",
        "1e400",
        "18446744073709551616",
        "junk",
        "--policy",
    ];

    /// Corrupted copies of the valid `argv`: every truncation; each flag
    /// dropped, duplicated, left without its value, swapped with another
    /// flag (with its value, or its name only) and swapped with its own
    /// value; each value replaced by an odd one.
    fn argv_mutants(argv: &[&str], rng: &mut SplitMix64) -> Vec<Vec<String>> {
        let argv = args(argv);
        let mut out: Vec<Vec<String>> = (0..=argv.len()).map(|n| argv[..n].to_vec()).collect();
        // Each flag's position: after the subcommand and its positional
        // argument, flags and values alternate.
        let flags: Vec<usize> = (2..argv.len().saturating_sub(1)).step_by(2).collect();
        for &i in &flags {
            let mut dropped = argv.clone();
            dropped.drain(i..i + 2);
            out.push(dropped);
            let mut twice = argv.clone();
            twice.extend_from_slice(&argv[i..i + 2]);
            out.push(twice);
            let mut bare = argv.clone();
            bare.remove(i + 1);
            out.push(bare);
            let mut inverted = argv.clone();
            inverted.swap(i, i + 1);
            out.push(inverted);
            let j = flags[pick(rng, flags.len())];
            let mut swapped = argv.clone();
            swapped.swap(i, j);
            swapped.swap(i + 1, j + 1);
            out.push(swapped);
            let mut renamed = argv.clone();
            renamed.swap(i, j);
            out.push(renamed);
            for _ in 0..3 {
                let mut odd = argv.clone();
                odd[i + 1] = ODD_VALUES[pick(rng, ODD_VALUES.len())].to_string();
                out.push(odd);
            }
        }
        out
    }

    #[test]
    fn argv_mutants_cover_every_kind() {
        let mut rng = SplitMix64::new(5);
        let argv = ["sweep", "edr", "--servers", "2", "--retry", "3"];
        let mutants = argv_mutants(&argv, &mut rng);
        let has = |want: &[&str]| mutants.iter().any(|m| m == &args(want));
        assert!(has(&["sweep", "edr", "--servers"]));
        assert!(has(&["sweep", "edr", "--retry", "3"]));
        assert!(has(&[
            "sweep",
            "edr",
            "--servers",
            "2",
            "--retry",
            "3",
            "--servers",
            "2"
        ]));
        assert!(has(&["sweep", "edr", "--servers", "--retry", "3"]));
        assert!(has(&["sweep", "edr", "2", "--servers", "--retry", "3"]));
        assert!(mutants
            .iter()
            .any(|m| m.get(3).is_some_and(|v| ODD_VALUES.contains(&v.as_str()))));
        for argv in GOOD_ARGVS {
            assert!(parse_args(&args(argv)).is_ok(), "{argv:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Mutated argv of every subcommand ends in `Ok` or
        /// `InvalidConfig` and never panics. Only `parse_args` runs, so a
        /// mutated `--queries` or `--scale` generates nothing.
        #[test]
        fn mutated_argv_ends_in_ok_or_invalid_config(seed in proptest::prelude::any::<u64>()) {
            let mut rng = SplitMix64::new(seed);
            for argv in GOOD_ARGVS {
                for mutant in argv_mutants(argv, &mut rng) {
                    config(parse_args(&mutant), &format!("{mutant:?}"));
                }
            }
        }
    }

    #[test]
    fn flat_topology_flag_output_matches_no_flag() {
        // `--topology flat` is the flat single-tier WAN itself, so
        // outputs are byte-identical.
        let run = |extra: &[&str]| {
            let mut argv = vec!["run", "edr", "--policy", "gds", "--scale", "0.001"];
            argv.extend_from_slice(extra);
            run_command(parse_args(&args(&argv)).unwrap()).unwrap()
        };
        assert_eq!(run(&[]), run(&["--topology", "flat"]));
    }

    #[test]
    fn three_tier_compiled_run_exports_per_tier_metrics() {
        // A three-tier SDSS replay runs end-to-end from the CLI and
        // emits per-tier hit-rate and WAN-cost columns in both export
        // formats.
        let dir = std::env::temp_dir();
        let prom = dir.join(format!("byc-cli-tier-{}.prom", std::process::id()));
        let json = dir.join(format!("byc-cli-tier-{}.json", std::process::id()));
        let run = |path: &std::path::Path, format: MetricsFormat| {
            run_command(Command::Run {
                replay: ReplayArgs {
                    granularity: "table".into(),
                    scale: 0.001,
                    seed: 11,
                    servers: 2,
                    multipliers: Some(vec![1.0, 2.0]),
                    topology: Some("three-tier".into()),
                    metrics: Some(path.to_path_buf()),
                    metrics_format: format,
                    ..ReplayArgs::new("dr1")
                },
                policy: "rate-profile".into(),
                cache_fraction: 0.05,
                trace_events: None,
            })
            .unwrap()
        };
        let out = run(&prom, MetricsFormat::Prometheus);
        assert!(out.contains("three-tier topology"), "{out}");
        assert!(out.contains("per-tier breakdown"), "{out}");
        assert!(out.contains("site"), "{out}");
        assert!(out.contains("regional"), "{out}");
        assert!(out.contains("national"), "{out}");
        let text = std::fs::read_to_string(&prom).unwrap();
        assert!(text.contains("byc_relay_cost_bytes_total"), "{text}");
        assert!(text.contains("tier=\"0\""), "{text}");
        assert!(
            text.contains("tier=\"1\"") || text.contains("tier=\"2\""),
            "upper tiers should appear in the export: {text}"
        );

        let out = run(&json, MetricsFormat::Json);
        assert!(out.contains("wrote metrics (json)"), "{out}");
        let text = std::fs::read_to_string(&json).unwrap();
        let value = byc_types::json::Value::parse(&text).unwrap();
        let mut tiers_seen = std::collections::BTreeSet::new();
        for policy in value["policies"].as_array().unwrap() {
            for series in policy["series"].as_array().unwrap() {
                tiers_seen.insert(series["tier"].as_u64().unwrap());
                assert!(series["byc_relay_cost_bytes_total"].as_u64().is_some());
                assert!(series["byc_hits_total"].as_u64().is_some());
            }
        }
        assert!(
            tiers_seen.len() > 1,
            "expected multiple tiers: {tiers_seen:?}"
        );

        std::fs::remove_file(&prom).ok();
        std::fs::remove_file(&json).ok();
    }

    #[test]
    fn two_tier_sweep_labels_carry_topology_name() {
        let dir = std::env::temp_dir();
        let trace = dir.join(format!("byc-cli-topo-sweep-{}.jsonl", std::process::id()));
        let metrics = dir.join(format!("byc-cli-topo-sweep-{}.prom", std::process::id()));
        run_command(Command::GenTrace {
            release: "edr".into(),
            out: trace.clone(),
            seed: 5,
            scale: 0.001,
            queries: 150,
        })
        .unwrap();
        let out = run_command(Command::Sweep(ReplayArgs {
            granularity: "table".into(),
            scale: 0.001,
            seed: 5,
            topology: Some("two-tier".into()),
            metrics: Some(metrics.clone()),
            ..ReplayArgs::new(trace.to_string_lossy().into_owned())
        }))
        .unwrap();
        assert!(out.contains("two-tier topology"), "{out}");
        let text = std::fs::read_to_string(&metrics).unwrap();
        assert!(
            text.contains("@two-tier"),
            "labels should carry the topology name"
        );
        std::fs::remove_file(&trace).ok();
        std::fs::remove_file(&metrics).ok();
    }

    #[test]
    fn observability_flags_parse_and_reject_zero() {
        let cmd = parse_args(&args(&[
            "run",
            "edr",
            "--policy",
            "gds",
            "--trace-spans",
            "spans.json",
            "--metrics-every",
            "64",
            "--flight-recorder",
            "8",
        ]))
        .unwrap();
        match cmd {
            Command::Run {
                replay:
                    ReplayArgs {
                        trace_spans,
                        metrics_every,
                        flight_recorder,
                        ..
                    },
                ..
            } => {
                assert_eq!(trace_spans, Some(PathBuf::from("spans.json")));
                assert_eq!(metrics_every, Some(64));
                assert_eq!(flight_recorder, Some(8));
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse_args(&args(&["sweep", "edr", "--metrics-every", "128"])).unwrap();
        match cmd {
            Command::Sweep(ReplayArgs { metrics_every, .. }) => {
                assert_eq!(metrics_every, Some(128))
            }
            other => panic!("unexpected {other:?}"),
        }
        // Zero windows / zero ring depth are configuration errors.
        for flag in ["--metrics-every", "--flight-recorder"] {
            let cmd = parse_args(&args(&[
                "run", "edr", "--policy", "gds", "--scale", "0.001", flag, "0",
            ]))
            .unwrap();
            let err = run_command(cmd).unwrap_err();
            assert!(err.to_string().contains("must be positive"), "{err}");
        }
        // The flags are unknown outside run/sweep.
        assert!(parse_args(&args(&["analyze", "edr", "--trace-spans", "x"])).is_err());
    }

    #[test]
    fn run_writes_span_trace_and_window_table() {
        let dir = std::env::temp_dir();
        let spans = dir.join(format!("byc-cli-spans-{}.json", std::process::id()));
        let run = || {
            run_command(Command::Run {
                replay: ReplayArgs {
                    granularity: "table".into(),
                    scale: 0.001,
                    seed: 9,
                    trace_spans: Some(spans.clone()),
                    metrics_every: Some(64),
                    ..ReplayArgs::new("edr")
                },
                policy: "gds".into(),
                cache_fraction: 0.3,
                trace_events: None,
            })
            .unwrap()
        };
        let out = run();
        assert!(out.contains("wrote span trace to"), "{out}");
        assert!(out.contains("replay phase spans"), "{out}");
        assert!(out.contains("parse trace"), "{out}");
        assert!(out.contains("replay GDS"), "{out}");
        assert!(
            out.contains("windowed telemetry (every 64 queries"),
            "{out}"
        );
        assert!(out.contains("0..64"), "{out}");
        assert!(out.contains("total"), "{out}");

        // The exported file is valid Chrome trace-event JSON with the
        // span schema stamped into otherData.
        let text = std::fs::read_to_string(&spans).unwrap();
        let value = byc_types::json::Value::parse(&text).unwrap();
        assert!(!value["traceEvents"].as_array().unwrap().is_empty());
        assert_eq!(
            value["otherData"]["schema"].as_str(),
            Some("byc.telemetry.spans")
        );

        // Deterministic: an identical run rewrites identical bytes.
        let out2 = run();
        assert_eq!(out, out2);
        assert_eq!(text, std::fs::read_to_string(&spans).unwrap());
        std::fs::remove_file(&spans).ok();
    }

    #[test]
    fn run_flight_recorder_dumps_postmortems() {
        let out = run_command(Command::Run {
            replay: ReplayArgs {
                granularity: "table".into(),
                scale: 0.001,
                seed: 5,
                faults: Some("outage:0@0..50".into()),
                degrade: "fail".into(),
                flight_recorder: Some(4),
                ..ReplayArgs::new("edr")
            },
            policy: "nocache".into(),
            cache_fraction: 0.3,
            trace_events: None,
        })
        .unwrap();
        assert!(out.contains("postmortem: query"), "{out}");
        // The context line names the configured fault process.
        assert!(out.contains("outage: server 0 down [0, 50)"), "{out}");
        assert!(out.contains("on exhaustion fail"), "{out}");
        assert!(out.contains("FAILED"), "{out}");
    }

    #[test]
    fn sweep_with_observability_flags_writes_one_lane_per_job() {
        let dir = std::env::temp_dir();
        let trace = dir.join(format!("byc-cli-obs-sweep-{}.jsonl", std::process::id()));
        let spans = dir.join(format!("byc-cli-obs-sweep-{}.json", std::process::id()));
        run_command(Command::GenTrace {
            release: "edr".into(),
            out: trace.clone(),
            seed: 5,
            scale: 0.001,
            queries: 120,
        })
        .unwrap();
        let out = run_command(Command::Sweep(ReplayArgs {
            granularity: "table".into(),
            scale: 0.001,
            seed: 5,
            trace_spans: Some(spans.clone()),
            metrics_every: Some(50),
            ..ReplayArgs::new(trace.to_string_lossy().into_owned())
        }))
        .unwrap();
        assert!(out.contains("wrote span trace"), "{out}");
        assert!(out.contains("sweep jobs"), "{out}");

        // Every (policy, fraction) job exported its own thread lane.
        let text = std::fs::read_to_string(&spans).unwrap();
        let value = byc_types::json::Value::parse(&text).unwrap();
        let mut lanes = std::collections::BTreeSet::new();
        for event in value["traceEvents"].as_array().unwrap() {
            // Only complete spans; metadata events name the process on
            // tid 0, which is reserved for `run`'s pipeline lane.
            if event["ph"].as_str() == Some("X") {
                lanes.insert(event["tid"].as_u64().unwrap());
            }
        }
        let jobs = byc_federation::policy_roster().len() * 7;
        assert_eq!(lanes.len(), jobs, "{lanes:?}");
        assert!(text.contains("replay GDS@0.10"), "{text}");

        std::fs::remove_file(&trace).ok();
        std::fs::remove_file(&spans).ok();
    }

    #[test]
    fn two_tier_sweep_spans_resolve_tiers_in_every_job_lane() {
        let dir = std::env::temp_dir();
        let trace = dir.join(format!("byc-cli-tier-spans-{}.jsonl", std::process::id()));
        let spans = dir.join(format!("byc-cli-tier-spans-{}.json", std::process::id()));
        run_command(Command::GenTrace {
            release: "edr".into(),
            out: trace.clone(),
            seed: 5,
            scale: 0.001,
            queries: 120,
        })
        .unwrap();
        run_command(Command::Sweep(ReplayArgs {
            granularity: "table".into(),
            scale: 0.001,
            seed: 5,
            topology: Some("two-tier".into()),
            trace_spans: Some(spans.clone()),
            ..ReplayArgs::new(trace.to_string_lossy())
        }))
        .unwrap();

        // `--trace-spans` records per-tier resolve on topologies: every
        // job lane carries a `tier 0 resolve` span.
        let text = std::fs::read_to_string(&spans).unwrap();
        let value = byc_types::json::Value::parse(&text).unwrap();
        let mut lanes = std::collections::BTreeSet::new();
        let mut resolved = std::collections::BTreeSet::new();
        for event in value["traceEvents"].as_array().unwrap() {
            if event["ph"].as_str() == Some("X") {
                let tid = event["tid"].as_u64().unwrap();
                lanes.insert(tid);
                if event["name"].as_str() == Some("tier 0 resolve") {
                    resolved.insert(tid);
                }
            }
        }
        assert_eq!(lanes.len(), policy_roster().len() * 7, "{lanes:?}");
        assert_eq!(resolved, lanes);

        std::fs::remove_file(&trace).ok();
        std::fs::remove_file(&spans).ok();
    }

    #[test]
    fn sweep_metrics_label_carries_fault_name() {
        let dir = std::env::temp_dir();
        let trace = dir.join(format!("byc-cli-fault-sweep-{}.jsonl", std::process::id()));
        let metrics = dir.join(format!("byc-cli-fault-sweep-{}.prom", std::process::id()));
        run_command(Command::GenTrace {
            release: "edr".into(),
            out: trace.clone(),
            seed: 5,
            scale: 0.001,
            queries: 200,
        })
        .unwrap();
        let out = run_command(Command::Sweep(ReplayArgs {
            granularity: "table".into(),
            scale: 0.001,
            seed: 5,
            metrics: Some(metrics.clone()),
            faults: Some("flaky:p=0.05".into()),
            retry: 2,
            fault_seed: Some(11),
            ..ReplayArgs::new(trace.to_string_lossy().into_owned())
        }))
        .unwrap();
        assert!(out.contains("wrote metrics"), "{out}");
        let text = std::fs::read_to_string(&metrics).unwrap();
        assert!(
            text.contains("@flaky"),
            "labels should carry the fault name"
        );
        std::fs::remove_file(&trace).ok();
        std::fs::remove_file(&metrics).ok();
    }

    /// A minimal flat `run` invocation over `trace` with every optional
    /// knob off; tests mutate the fields they exercise.
    fn base_run(trace: &str) -> Command {
        Command::Run {
            replay: ReplayArgs {
                scale: 0.001,
                seed: 11,
                ..ReplayArgs::new(trace)
            },
            policy: "gds".into(),
            cache_fraction: 0.25,
            trace_events: None,
        }
    }

    #[test]
    fn fault_specs_that_do_nothing_are_rejected() {
        // (spec, --servers, --fault-link, what the error names)
        let table: &[(&str, u32, Option<u32>, &str)] = &[
            ("flaky:p=2", 1, None, "probability"),
            ("flaky:p=-1", 1, None, "probability"),
            ("flaky:p=nan", 1, None, "probability"),
            ("flaky:p=0.1,spike=2x4", 1, None, "probability"),
            ("flaky:p=0.1,spike=0.5x0", 1, None, "multiplier"),
            ("flaky:p=0.1,spike=0.5xinf", 1, None, "multiplier"),
            ("outage:0@5..2", 1, None, "empty"),
            ("outage:0@5..5", 1, None, "empty"),
            ("outage:99@1..2", 1, None, "--servers"),
            ("outage:1@1..2", 1, None, "--servers"),
            ("flaky:p=0.5", 1, Some(5), "--fault-link"),
            ("flaky:p=0.5", 1, Some(1), "--fault-link"),
        ];
        for &(spec, servers, link, what) in table {
            let err = parse_faults(spec, 7, servers)
                .and_then(|model| scope_faults(model, link, 1))
                .map(|_| ())
                .unwrap_err();
            assert!(
                matches!(err, Error::InvalidConfig(_)) && err.to_string().contains(what),
                "{spec} (servers {servers}, link {link:?}): {err}"
            );
        }
        // The boundaries themselves are fine.
        for spec in ["flaky:p=0", "flaky:p=1,spike=1x1", "outage:1@0..1"] {
            assert!(parse_faults(spec, 7, 2).is_ok(), "{spec}");
        }
        let two_tier = Topology::two_tier(0.25, Box::new(Uniform)).unwrap();
        let model = parse_faults("flaky:p=0.5", 7, 1).unwrap();
        assert!(scope_faults(model, Some(1), two_tier.depth()).is_ok());
    }

    /// Every invalid `--scale` value: the catalog builder would panic on
    /// the first five, and at 1e8 the catalog's byte counts overflow.
    const BAD_SCALES: [&str; 6] = ["0", "-1", "nan", "inf", "-0", "1e8"];

    fn assert_bad_scales_rejected(prefix: &[&str]) {
        for bad in BAD_SCALES {
            let mut argv = prefix.to_vec();
            argv.extend(["--scale", bad]);
            let err = parse_args(&args(&argv)).unwrap_err();
            assert!(
                matches!(err, Error::InvalidConfig(_)) && err.to_string().contains("--scale"),
                "{argv:?}: {err}"
            );
        }
    }

    #[test]
    fn gen_trace_rejects_non_positive_scale() {
        assert_bad_scales_rejected(&["gen-trace", "edr", "--out", "t.jsonl"]);
    }

    #[test]
    fn run_rejects_non_positive_scale() {
        assert_bad_scales_rejected(&["run", "edr", "--policy", "gds"]);
        assert_bad_scales_rejected(&["run", "trace.jsonl", "--policy", "gds"]);
    }

    #[test]
    fn sweep_rejects_non_positive_scale() {
        assert_bad_scales_rejected(&["sweep", "edr"]);
    }

    #[test]
    fn analyze_rejects_non_positive_scale() {
        assert_bad_scales_rejected(&["analyze", "edr"]);
    }

    #[test]
    fn overflowing_scale_names_the_largest_accepted_value() {
        // DR1 is twice EDR, so its limit is half of EDR's.
        let dr1_max = sdss::max_scale(SdssRelease::Dr1);
        let err = parse_args(&args(&["analyze", "dr1", "--scale", "2e7"])).unwrap_err();
        assert!(err.to_string().contains(&format!("{dr1_max:e}")), "{err}");
        assert!(parse_args(&args(&["analyze", "edr", "--scale", "2e7"])).is_ok());
        let at_max = format!("{dr1_max:e}");
        assert!(parse_args(&args(&["analyze", "dr1", "--scale", &at_max])).is_ok());
    }

    /// Everything one grid point's observer bundle produced, and its
    /// point's report and warnings, for comparison.
    fn point_outputs(
        report: &byc_federation::CostReport,
        warnings: &[String],
        observers: Observers,
    ) -> String {
        let postmortems = observers.postmortems();
        let (snapshot, io) = observers.telemetry.unwrap().into_parts();
        io.unwrap();
        let mut registry = MetricsRegistry::new();
        registry.absorb(snapshot);
        format!(
            "{report:?}\n{warnings:?}\n{}\n{}\n{:?}\n{:?}\n{postmortems:?}",
            byc_telemetry::json_snapshot(&registry),
            byc_telemetry::prometheus_text(&registry),
            observers.spans.unwrap().into_tracer().spans(),
            observers.windows.unwrap().breakdown().windows(),
        )
    }

    /// With every observer flag, a sweep, which replays NoCache once for
    /// all its fractions, gives each grid point the report, warnings,
    /// metrics, spans, windows and postmortems of a replay of that point
    /// alone, on a faulted three-tier federation.
    #[test]
    fn swept_observer_bundles_equal_one_run_per_point() {
        let argv = [
            "sweep",
            "edr",
            "--topology",
            "three-tier",
            "--faults",
            "flaky:p=0.2",
            "--degrade",
            "fail",
            "--metrics",
            "unused.json",
            "--trace-spans",
            "unused-spans.json",
            "--metrics-every",
            "50",
            "--flight-recorder",
            "2",
        ];
        let Command::Sweep(replay_args) = parse_args(&args(&argv)).unwrap() else {
            panic!("a sweep command");
        };
        let setup = Setup::new(&replay_args).unwrap();
        let catalog = sdss::build(SdssRelease::Edr, 1e-3, 1);
        let trace = generate(&catalog, &WorkloadConfig::smoke(71, 300)).unwrap();
        let objects = ObjectCatalog::uniform(&catalog, setup.granularity);
        let replay = ReplayTrace::from_trace(&trace, &objects);
        let demands = WorkloadStats::of_replay(&replay, &objects).demands;
        let policies = policy_roster();
        let fractions = [0.1, 0.5, 1.0];
        let bundle = |kind: PolicyKind, fraction: f64| {
            let lane = policies.iter().position(|k| *k == kind).unwrap() * fractions.len()
                + fractions.iter().position(|f| *f == fraction).unwrap()
                + 1;
            let label = format!("{}@{fraction:.2}", kind.label());
            Observers::new(&replay_args, &setup, &label, u32::try_from(lane).unwrap())
        };
        let mut swept = Vec::new();
        let options =
            SweepOptions::new(&policies, &fractions, &demands, 3).observe(&bundle, &mut swept);
        let points = setup
            .configure(ReplaySession::new(&replay, &objects))
            .sweep(options)
            .unwrap();
        assert_eq!(points.len(), swept.len());
        let db = objects.total_size();
        let scales: Vec<f64> = setup
            .topology
            .as_ref()
            .unwrap()
            .tiers()
            .iter()
            .map(|t| t.capacity_scale)
            .collect();
        let mut truncated = 0;
        for (point, observers) in points.iter().zip(swept) {
            let kind = policies
                .iter()
                .copied()
                .find(|k| k.label() == point.policy)
                .unwrap();
            let mut alone = bundle(kind, point.cache_fraction);
            let mut tiers: Vec<_> = scales
                .iter()
                .map(|s| build_policy(kind, db.scale(point.cache_fraction * s), &demands, 3))
                .collect();
            let mut session = setup
                .configure(ReplaySession::new(&replay, &objects))
                .observe(&mut alone);
            for p in tiers.iter_mut() {
                session = session.policy(p.as_mut());
            }
            let run = session.run().unwrap();
            truncated += usize::from(!run.warnings.is_empty());
            assert_eq!(
                point_outputs(&point.report, &point.warnings, observers),
                point_outputs(&run.report, &run.warnings, alone),
                "{}@{}",
                point.policy,
                point.cache_fraction
            );
        }
        // The recorder warned about truncated postmortems somewhere.
        assert!(truncated > 0);
    }

    /// `byc sweep` folds NoCache's telemetry once, at its first fraction,
    /// and exports a relabelled copy at the others. In both formats every
    /// `NoCache@F@flaky@three-tier` entry equals the first fraction's
    /// apart from its label, and equals the export of a NoCache replay at
    /// `F` with its own `TelemetryObserver`.
    #[test]
    fn swept_nocache_telemetry_is_folded_once_and_relabelled() {
        let dir = std::env::temp_dir();
        let tag = format!("byc-cli-shared-fold-{}", std::process::id());
        let trace = dir.join(format!("{tag}.jsonl"));
        run_command(Command::GenTrace {
            release: "edr".into(),
            out: trace.clone(),
            seed: 5,
            scale: 0.001,
            queries: 300,
        })
        .unwrap();
        let args = ReplayArgs {
            granularity: "table".into(),
            scale: 0.001,
            seed: 5,
            topology: Some("three-tier".into()),
            faults: Some("flaky:p=0.05,spike=0.05x4".into()),
            retry: 3,
            ..ReplayArgs::new(trace.to_string_lossy())
        };
        let fractions = [0.1, 0.2, 0.3, 0.4, 0.5, 0.75, 1.0];
        let labels: Vec<String> = fractions
            .iter()
            .map(|f| format!("NoCache@{f:.2}@flaky@three-tier"))
            .collect();

        // NoCache replayed alone at each fraction, each with its own
        // observer, exported under the sweep's labels.
        let setup = Setup::new(&args).unwrap();
        let (_, objects, replay) =
            load_replay(&args.trace, args.scale, args.seed, 1, setup.granularity).unwrap();
        let topology = setup.topology.as_ref().unwrap();
        let mut alone = MetricsRegistry::new();
        for (f, label) in fractions.iter().zip(&labels) {
            let mut tiers: Vec<_> = topology
                .tiers()
                .iter()
                .map(|t| {
                    let capacity = objects.total_size().scale(f * t.capacity_scale);
                    build_policy(PolicyKind::NoCache, capacity, &[], 5)
                })
                .collect();
            let mut observer = TelemetryObserver::new(label);
            let mut session = setup
                .configure(ReplaySession::new(&replay, &objects))
                .observe(&mut observer);
            for p in tiers.iter_mut() {
                session = session.policy(p.as_mut());
            }
            session.run().unwrap();
            let (snapshot, io) = observer.into_parts();
            io.unwrap();
            alone.absorb(snapshot);
        }

        // An export's NoCache entries by label, with the label taken out
        // of the entry.
        let entries = |format: MetricsFormat, text: &str| -> Vec<(String, String)> {
            let mut entries: Vec<(String, String)> = Vec::new();
            match format {
                MetricsFormat::Json => {
                    let value = byc_types::json::Value::parse(text).unwrap();
                    for p in value["policies"].as_array().unwrap() {
                        let name = p["policy"].as_str().unwrap().to_string();
                        let byc_types::json::Value::Object(members) = p else {
                            panic!("{name} is not an object");
                        };
                        let rest = members.iter().filter(|(k, _)| k != "policy").cloned();
                        let rest = byc_types::json::Value::Object(rest.collect());
                        if name.starts_with("NoCache@") {
                            entries.push((name, rest.to_string()));
                        }
                    }
                }
                MetricsFormat::Prometheus => {
                    for line in text.lines().filter(|l| !l.starts_with('#')) {
                        let Some((_, rest)) = line.split_once("policy=\"NoCache@") else {
                            continue;
                        };
                        let name = format!("NoCache@{}", rest.split('"').next().unwrap());
                        let line = line.replace(&name, "POLICY");
                        match entries.iter_mut().find(|(n, _)| *n == name) {
                            Some((_, lines)) => lines.push_str(&line),
                            None => entries.push((name, line)),
                        }
                    }
                }
            }
            entries
        };
        for (format, ext) in [
            (MetricsFormat::Json, "json"),
            (MetricsFormat::Prometheus, "prom"),
        ] {
            let path = dir.join(format!("{tag}.{ext}"));
            write_metrics(&alone, format, &path).unwrap();
            let want = entries(format, &std::fs::read_to_string(&path).unwrap());
            run_command(Command::Sweep(ReplayArgs {
                metrics: Some(path.clone()),
                metrics_format: format,
                ..args.clone()
            }))
            .unwrap();
            let have = entries(format, &std::fs::read_to_string(&path).unwrap());
            std::fs::remove_file(&path).ok();
            let names: Vec<&String> = have.iter().map(|(n, _)| n).collect();
            assert_eq!(names, labels.iter().collect::<Vec<_>>(), "{ext}");
            let (_, first) = &have[0];
            assert!(!first.is_empty(), "{ext}");
            for (name, entry) in &have {
                assert_eq!(entry, first, "{ext}: {name} against the first");
            }
            assert_eq!(have, want, "{ext}: against NoCache replayed alone");
        }
        std::fs::remove_file(&trace).ok();
    }

    /// At `--scale 3e7`, below EDR's limit, the catalog's sizes fit a u64
    /// but the trace's total yield does not: `analyze`, `run` and `sweep`
    /// refuse it, naming the scale, whether the trace is synthesized or a
    /// file, resident or streamed.
    #[test]
    fn a_saturated_trace_total_is_refused() {
        let refused = |argv: &[&str]| {
            let err = parse_args(&args(argv)).and_then(run_command).unwrap_err();
            assert!(
                matches!(err, Error::InvalidConfig(_))
                    && err
                        .to_string()
                        .contains("at --scale 3e7 the trace's total yield"),
                "{argv:?}: {err}"
            );
        };
        refused(&["analyze", "edr", "--scale", "3e7"]);
        refused(&["run", "edr", "--policy", "nocache", "--scale", "3e7"]);
        refused(&["sweep", "edr", "--scale", "3e7"]);
        let path = std::env::temp_dir().join(format!("byc-cli-3e7-{}.jsonl", std::process::id()));
        let file = path.to_str().unwrap();
        let gen = ["gen-trace", "edr", "--out", file, "--scale", "3e7"];
        parse_args(&args(&gen)).and_then(run_command).unwrap();
        refused(&["analyze", file, "--scale", "3e7"]);
        refused(&["run", file, "--policy", "nocache", "--scale", "3e7"]);
        refused(&["run", file, "--policy", "static", "--scale", "3e7"]);
        refused(&["sweep", file, "--scale", "3e7"]);
        // Refused halfway through the stream, the run leaves no decision
        // log behind.
        let events = path.with_extension("events.ndjson");
        let log = events.to_str().unwrap();
        let argv = ["run", file, "--policy", "nocache", "--scale", "3e7"];
        refused(&[&argv[..], &["--trace-events", log]].concat());
        assert!(!events.exists(), "a refused run left its decision log");
        std::fs::remove_file(&path).ok();
    }

    /// A streamed run refuses the chunk in which the total yield
    /// overflows before serving any query of it, and reads no chunk
    /// after it: the replay stops where the whole-file sum, taken here
    /// in u128, first passes a u64, about halfway through the file.
    #[test]
    fn a_saturating_chunk_is_refused_before_its_replay() {
        struct Served(usize);
        impl Observer for Served {
            fn on_query_start(&mut self, _index: usize, _query: &TraceQuery) {
                self.0 += 1;
            }
            fn wants_accesses(&self) -> bool {
                false
            }
        }
        let path = std::env::temp_dir().join(format!("byc-cli-chunk-{}.jsonl", std::process::id()));
        let file = path.to_str().unwrap();
        let gen = ["gen-trace", "edr", "--out", file, "--scale", "3e7"];
        parse_args(&args(&gen)).and_then(run_command).unwrap();
        let catalog = sdss::build(SdssRelease::Edr, 3e7, 1);
        let objects = ObjectCatalog::uniform(&catalog, Granularity::Column);
        let trace = trace_io::read_trace(&path).unwrap();
        let mut sum = 0u128;
        let first_over = trace
            .queries
            .iter()
            .position(|q| {
                sum += u128::from(q.total_yield.raw());
                sum > u128::from(u64::MAX)
            })
            .unwrap();
        assert!(
            (trace.queries.len() / 4..trace.queries.len() * 3 / 4).contains(&first_over),
            "{first_over} of {}",
            trace.queries.len()
        );

        // The streamed run's session, as `run` builds it, with an
        // observer counting the queries served.
        let mut reader = TraceReader::open(&path).unwrap();
        let mut sample = ReplayTrace::new(reader.name(), &objects);
        sample.refill(&mut reader, &objects, SCALE_SAMPLE).unwrap();
        let mut tally = YieldTally::new(3e7);
        let mut chunks = Vec::new();
        let mut check = |chunk: &ReplayTrace| {
            chunks.push(chunk.len());
            tally.add(chunk)
        };
        let mut served = Served(0);
        let mut policy = build_policy(PolicyKind::NoCache, Bytes::new(1), &[], 1);
        let err = ReplaySession::from_reader(&mut reader, &mut sample, &objects)
            .check_chunks(&mut check)
            .observe(&mut served)
            .policy(policy.as_mut())
            .run()
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("at --scale 3e7 the trace's total yield overflows"),
            "{err}"
        );
        // Every chunk before the refused one was served whole, and none
        // of the refused one: it holds the first query past the limit.
        let (refused, accepted) = chunks.split_last().unwrap();
        let before: usize = accepted.iter().sum();
        assert_eq!(served.0, before);
        assert_eq!(tally.queries, before);
        assert!(
            (before..before + refused).contains(&first_over),
            "{chunks:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    /// A tenth of that scale fits, and prints what it always printed.
    #[test]
    fn a_total_that_fits_prints_as_before() {
        let out = |argv: &[&str]| parse_args(&args(argv)).and_then(run_command).unwrap();
        let analyze = out(&["analyze", "edr", "--scale", "3e6"]);
        assert!(
            analyze.starts_with("trace EDR: 27663 queries, sequence cost 3397338277.88 GiB\n"),
            "{analyze}"
        );
        let run = out(&["run", "edr", "--policy", "nocache", "--scale", "3e6"]);
        assert_eq!(
            run,
            "NoCache on EDR (column caching, cache 15% = 251349815.59 GiB)\n\
             Data Set Version   Queries  Seq Cost (GB) Algorithm           Bypass (GB)   Fetch (GB)   Total (GB)\n\
             ----------------------------------------------------------------------------------------------------\n\
             Set 1    EDR         27663  3647864199.24 NoCache            3647864199.24         0.00 3647864199.24\n\
             hits 0 | bypasses 125029 | loads 0 | evictions 0 | traffic reduction 1.0x | byte hit rate 0.0%\n"
        );
    }

    #[test]
    fn removed_kernel_flags_are_unknown() {
        for flag in ["--compiled", "--streaming", "--chunk-size", "--shards"] {
            for sub in [
                &["run", "edr", "--policy", "gds"][..],
                &["sweep", "edr"][..],
            ] {
                let mut argv = sub.to_vec();
                argv.extend([flag, "2"]);
                let err = parse_args(&args(&argv)).unwrap_err();
                assert!(err.to_string().contains("unknown flag"), "{argv:?}: {err}");
            }
        }
    }

    /// `run` and `sweep` refuse each of `values` for `flag`, naming the
    /// flag, instead of wrapping or clamping it.
    fn assert_u32_flag_rejected(flag: &str, values: &[&str]) {
        for sub in [
            &["run", "edr", "--policy", "gds"][..],
            &["sweep", "edr"][..],
        ] {
            for value in values {
                let mut argv = sub.to_vec();
                argv.extend([flag, value]);
                let err = parse_args(&args(&argv)).unwrap_err();
                assert!(
                    matches!(err, Error::InvalidConfig(_)) && err.to_string().contains(flag),
                    "{argv:?}: {err}"
                );
            }
        }
    }

    #[test]
    fn servers_flag_rejects_zero_and_out_of_range() {
        // 2^32 + 1 would wrap to one server through a plain cast.
        assert_u32_flag_rejected("--servers", &["0", "4294967297"]);
    }

    #[test]
    fn retry_flag_rejects_zero_and_out_of_range() {
        // 2^32 + 2 would wrap to two attempts through a plain cast.
        assert_u32_flag_rejected("--retry", &["0", "4294967298"]);
    }

    #[test]
    fn fault_link_flag_rejects_out_of_range() {
        // 2^32 would wrap to link 0; link 0 itself is a valid scope.
        assert_u32_flag_rejected("--fault-link", &["4294967296"]);
        let cmd = parse_args(&args(&["sweep", "edr", "--fault-link", "0"])).unwrap();
        assert!(
            matches!(
                cmd,
                Command::Sweep(ReplayArgs {
                    fault_link: Some(0),
                    ..
                })
            ),
            "{cmd:?}"
        );
    }
}
