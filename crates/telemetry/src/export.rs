//! Exporters over the [`MetricsRegistry`]: Prometheus text exposition
//! and JSON snapshots.
//!
//! Both renderers walk the registry in the same deterministic order and
//! read the same fields, so the two exports of one run agree on every
//! counter — a property the test suite asserts rather than assumes.

use crate::metrics::{Gauge, Histogram, MetricsRegistry, PolicyMetrics};
use byc_types::json::Value;
use byc_types::{Error, Result};
use std::fmt::Write as _;
use std::path::Path;

/// The export formats the CLI can write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Prometheus text exposition (`.prom`).
    Prometheus,
    /// A single JSON document.
    Json,
}

impl MetricsFormat {
    /// Parse a CLI flag value (`prom` / `json`).
    pub fn parse(s: &str) -> Option<MetricsFormat> {
        match s {
            "prom" | "prometheus" => Some(MetricsFormat::Prometheus),
            "json" => Some(MetricsFormat::Json),
            _ => None,
        }
    }

    /// The flag spelling.
    pub const fn label(self) -> &'static str {
        match self {
            MetricsFormat::Prometheus => "prom",
            MetricsFormat::Json => "json",
        }
    }
}

/// One exported counter column: `(metric name, help text, extractor)`
/// over a [`QueryWindow`](byc_federation::QueryWindow).
pub type WindowColumn = (
    &'static str,
    &'static str,
    fn(&byc_federation::QueryWindow) -> u64,
);

/// The counter columns every export emits, in one place so the renderers
/// cannot drift. The Prometheus and JSON snapshots, and the windowed
/// NDJSON stream ([`crate::windows`]), all read exactly these fields
/// under exactly these names.
pub const WINDOW_COLUMNS: [WindowColumn; 15] = [
    ("byc_hits_total", "Hit decisions.", |w| w.hits),
    ("byc_bypasses_total", "Bypass decisions.", |w| w.bypasses),
    ("byc_loads_total", "Load decisions.", |w| w.loads),
    ("byc_evictions_total", "Objects evicted.", |w| w.evictions),
    (
        "byc_delivered_bytes_total",
        "Raw result bytes delivered to clients (D_A share).",
        |w| w.delivered.raw(),
    ),
    (
        "byc_bypass_served_bytes_total",
        "Raw result bytes shipped from servers (bypassed).",
        |w| w.bypass_served.raw(),
    ),
    (
        "byc_bypass_cost_bytes_total",
        "WAN cost of bypassed slices (D_S share, network-priced).",
        |w| w.bypass_cost.raw(),
    ),
    (
        "byc_fetch_cost_bytes_total",
        "WAN cost of cache loads (D_L share, network-priced).",
        |w| w.fetch_cost.raw(),
    ),
    (
        "byc_relay_cost_bytes_total",
        "WAN cost of relaying slices over inner topology links (network-priced).",
        |w| w.relay_cost.raw(),
    ),
    (
        "byc_cache_served_bytes_total",
        "Raw result bytes served out of the cache (D_C share).",
        |w| w.cache_served.raw(),
    ),
    (
        "byc_retried_bytes_total",
        "WAN bytes wasted on failed transfer attempts (network-priced).",
        |w| w.retried_bytes.raw(),
    ),
    (
        "byc_failed_bytes_total",
        "Raw result bytes that failed to deliver (failed slices).",
        |w| w.failed_bytes.raw(),
    ),
    ("byc_retries_total", "Failed transfer attempts.", |w| {
        w.retries
    }),
    (
        "byc_failed_slices_total",
        "Slices that delivered nothing after exhausting retries.",
        |w| w.failed_slices,
    ),
    (
        "byc_degraded_slices_total",
        "Slices served from a stale local copy after exhausting retries.",
        |w| w.degraded_slices,
    ),
];

/// One exported occupancy gauge column: `(metric name, help text,
/// extractor)`.
type GaugeColumn = (&'static str, &'static str, fn(&Gauge) -> u64);

/// The occupancy gauge columns of the Prometheus export.
const GAUGE_COLUMNS: [GaugeColumn; 2] = [
    (
        "byc_cache_occupancy_bytes",
        "Cache occupancy after the last decision.",
        |g| g.last,
    ),
    (
        "byc_cache_occupancy_peak_bytes",
        "Highest cache occupancy observed.",
        |g| g.peak,
    ),
];

/// Escape a label value per the Prometheus text exposition rules:
/// backslash, double quote, and line feed become `\\`, `\"`, and `\n`.
/// Values without those characters come back unchanged (no allocation
/// beyond the copy).
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn prom_histogram(out: &mut String, name: &str, help: &str, labels: &str, h: &Histogram) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    let sep = if labels.is_empty() { "" } else { "," };
    for (i, &bound) in h.bounds().iter().enumerate() {
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"{bound}\"}} {}",
            h.cumulative(i)
        );
    }
    let _ = writeln!(
        out,
        "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}",
        h.count()
    );
    let _ = writeln!(out, "{name}_sum{{{labels}}} {}", h.sum());
    let _ = writeln!(out, "{name}_count{{{labels}}} {}", h.count());
}

/// Render the registry as Prometheus text exposition.
///
/// Counters carry `{policy, server, class, tier}` labels (one series per
/// registry cell); per-policy histograms carry `{policy}`, and so do the
/// occupancy gauges, plus a `tier` label on a multi-tier topology.
/// Output is fully deterministic: same registry, same bytes.
pub fn prometheus_text(registry: &MetricsRegistry) -> String {
    let mut out = String::new();
    for (name, help, extract) in WINDOW_COLUMNS {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        for policy in registry.iter() {
            let label = escape_label(&policy.policy);
            for (key, series) in &policy.series {
                let _ = writeln!(
                    out,
                    "{name}{{policy=\"{label}\",server=\"{}\",class=\"{}\",tier=\"{}\"}} {}",
                    key.server.raw(),
                    key.class.label(),
                    key.tier,
                    extract(&series.window)
                );
            }
        }
    }

    let _ = writeln!(out, "# HELP byc_queries_total Queries replayed.");
    let _ = writeln!(out, "# TYPE byc_queries_total counter");
    for p in registry.iter() {
        let _ = writeln!(
            out,
            "byc_queries_total{{policy=\"{}\"}} {}",
            escape_label(&p.policy),
            p.queries
        );
    }
    let _ = writeln!(out, "# HELP byc_accesses_total Object slices served.");
    let _ = writeln!(out, "# TYPE byc_accesses_total counter");
    for p in registry.iter() {
        let _ = writeln!(
            out,
            "byc_accesses_total{{policy=\"{}\"}} {}",
            escape_label(&p.policy),
            p.accesses
        );
    }

    for (name, help, read) in GAUGE_COLUMNS {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} gauge");
        for p in registry.iter() {
            let policy = escape_label(&p.policy);
            for (tier, gauge) in p.occupancy_by_tier() {
                let tier = tier.map(|t| format!(",tier=\"{t}\"")).unwrap_or_default();
                let _ = writeln!(out, "{name}{{policy=\"{policy}\"{tier}}} {}", read(&gauge));
            }
        }
    }

    for p in registry.iter() {
        let labels = format!("policy=\"{}\"", escape_label(&p.policy));
        prom_histogram(
            &mut out,
            "byc_slices_per_query",
            "Cacheable object slices per query.",
            &labels,
            &p.slices_per_query,
        );
        prom_histogram(
            &mut out,
            "byc_reuse_gap_queries",
            "Queries between consecutive accesses to the same object.",
            &labels,
            &p.reuse_gap,
        );
    }
    out
}

fn json_histogram(h: &Histogram) -> Value {
    Value::Object(vec![
        ("count".into(), Value::u64(h.count())),
        ("sum".into(), Value::u64(h.sum())),
        (
            "bounds".into(),
            Value::Array(h.bounds().iter().map(|&b| Value::u64(b)).collect()),
        ),
        (
            "buckets".into(),
            Value::Array(h.bucket_counts().iter().map(|&c| Value::u64(c)).collect()),
        ),
        ("p50".into(), Value::u64(h.quantile(0.5))),
        ("p90".into(), Value::u64(h.quantile(0.9))),
        ("p99".into(), Value::u64(h.quantile(0.99))),
    ])
}

fn json_policy(p: &PolicyMetrics) -> Value {
    let mut series = Vec::new();
    for (key, s) in &p.series {
        let mut fields = vec![
            ("server".into(), Value::u64(u64::from(key.server.raw()))),
            ("class".into(), Value::str(key.class.label())),
            ("tier".into(), Value::u64(u64::from(key.tier))),
        ];
        for (name, _, extract) in WINDOW_COLUMNS {
            fields.push((name.into(), Value::u64(extract(&s.window))));
        }
        fields.push(("delivered_hist".into(), json_histogram(&s.delivered)));
        fields.push(("wan_hist".into(), json_histogram(&s.wan)));
        series.push(Value::Object(fields));
    }
    let episodes = p
        .episodes
        .episodes()
        .iter()
        .map(|e| {
            Value::Object(vec![
                ("queries".into(), Value::u64(e.queries)),
                ("slices".into(), Value::u64(e.slices)),
                ("decisions".into(), Value::u64(e.decisions)),
                ("evictions".into(), Value::u64(e.evictions)),
            ])
        })
        .collect();
    let gauge = |tier: Option<u32>, g: &Gauge| {
        let tier = tier.map(|t| ("tier".into(), Value::u64(u64::from(t))));
        let mut fields: Vec<(String, Value)> = tier.into_iter().collect();
        fields.push(("last".into(), Value::u64(g.last)));
        fields.push(("peak".into(), Value::u64(g.peak)));
        Value::Object(fields)
    };
    // A flat policy's one gauge is an object; a topology's, an array of
    // them, one per tier.
    let occupancy = match p.occupancy_by_tier().as_slice() {
        [(None, flat)] => gauge(None, flat),
        tiers => Value::Array(tiers.iter().map(|(t, g)| gauge(*t, g)).collect()),
    };
    Value::Object(vec![
        ("policy".into(), Value::str(&p.policy)),
        ("queries".into(), Value::u64(p.queries)),
        ("accesses".into(), Value::u64(p.accesses)),
        ("occupancy".into(), occupancy),
        ("series".into(), Value::Array(series)),
        (
            "slices_per_query".into(),
            json_histogram(&p.slices_per_query),
        ),
        ("reuse_gap".into(), json_histogram(&p.reuse_gap)),
        ("episodes".into(), Value::Array(episodes)),
    ])
}

/// Render the registry as one JSON document. Same walk order and fields
/// as [`prometheus_text`], so the exports agree counter for counter.
pub fn json_snapshot(registry: &MetricsRegistry) -> Value {
    Value::Object(vec![
        ("schema".into(), Value::str("byc.telemetry.metrics")),
        (
            "version".into(),
            Value::u64(crate::events::EVENT_SCHEMA_VERSION),
        ),
        (
            "policies".into(),
            Value::Array(registry.iter().map(json_policy).collect()),
        ),
    ])
}

/// Write the registry to `path` in `format`.
///
/// # Errors
///
/// [`Error::Io`] on write failure.
pub fn write_metrics(registry: &MetricsRegistry, format: MetricsFormat, path: &Path) -> Result<()> {
    let text = match format {
        MetricsFormat::Prometheus => prometheus_text(registry),
        MetricsFormat::Json => format!("{}\n", json_snapshot(registry)),
    };
    std::fs::write(path, text).map_err(Error::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{ObjectClass, SeriesKey};
    use byc_types::{Bytes, ServerId};

    fn sample_registry() -> MetricsRegistry {
        let mut p = PolicyMetrics::new("GDS");
        p.queries = 7;
        p.accesses = 21;
        let mut gauge = Gauge::default();
        gauge.set(12_345);
        p.occupancy.push(gauge);
        for (server, class, hits, bytes) in [
            (0u32, ObjectClass::Tiny, 5u64, 1_000u64),
            (1, ObjectClass::Large, 2, 9_000_000),
        ] {
            let key = SeriesKey {
                server: ServerId::new(server),
                class,
                tier: 0,
            };
            let s = p.series.entry(key).or_default();
            s.window.hits = hits;
            s.window.bypasses = 3;
            s.window.delivered = Bytes::new(bytes);
            s.window.bypass_cost = Bytes::new(bytes / 2);
            s.delivered.record(bytes);
            s.wan.record(bytes / 2);
        }
        p.slices_per_query.record(3);
        p.reuse_gap.record(10);
        let mut reg = MetricsRegistry::new();
        reg.absorb(p);
        reg
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        let text = prometheus_text(&sample_registry());
        assert!(text.contains("# TYPE byc_hits_total counter"));
        assert!(text
            .contains("byc_hits_total{policy=\"GDS\",server=\"0\",class=\"tiny\",tier=\"0\"} 5"));
        assert!(text
            .contains("byc_hits_total{policy=\"GDS\",server=\"1\",class=\"large\",tier=\"0\"} 2"));
        assert!(text.contains("byc_queries_total{policy=\"GDS\"} 7"));
        assert!(text.contains("byc_cache_occupancy_bytes{policy=\"GDS\"} 12345"));
        assert!(text.contains("le=\"+Inf\""));
        // Every non-comment line is `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name_labels, value) = line.rsplit_once(' ').unwrap();
            assert!(name_labels.contains('{'), "{line}");
            assert!(value.parse::<u64>().is_ok(), "{line}");
        }
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("GDS"), "GDS");
        assert_eq!(escape_label("a\"b"), "a\\\"b");
        assert_eq!(escape_label("a\\b"), "a\\\\b");
        assert_eq!(escape_label("a\nb"), "a\\nb");

        let mut p = PolicyMetrics::new("GD\"S\\v1\n");
        p.queries = 1;
        let mut reg = MetricsRegistry::new();
        reg.absorb(p);
        let text = prometheus_text(&reg);
        assert!(
            text.contains("byc_queries_total{policy=\"GD\\\"S\\\\v1\\n\"} 1"),
            "{text}"
        );
        // Escaping must keep the exposition line-oriented: every
        // non-comment line still parses as `name{{labels}} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name_labels, value) = line.rsplit_once(' ').unwrap();
            assert!(name_labels.contains('{'), "{line}");
            assert!(value.parse::<u64>().is_ok(), "{line}");
        }
    }

    #[test]
    fn exports_agree_on_every_counter() {
        let reg = sample_registry();
        let prom = prometheus_text(&reg);
        let snap = json_snapshot(&reg);
        for policy in snap["policies"].as_array().unwrap() {
            let label = policy["policy"].as_str().unwrap();
            for series in policy["series"].as_array().unwrap() {
                let server = series["server"].as_u64().unwrap();
                let class = series["class"].as_str().unwrap();
                let tier = series["tier"].as_u64().unwrap();
                for (name, _, _) in WINDOW_COLUMNS {
                    let expected = format!(
                        "{name}{{policy=\"{label}\",server=\"{server}\",class=\"{class}\",tier=\"{tier}\"}} {}",
                        series[name].as_u64().unwrap()
                    );
                    assert!(prom.contains(&expected), "missing: {expected}");
                }
            }
            let q = format!(
                "byc_queries_total{{policy=\"{label}\"}} {}",
                policy["queries"].as_u64().unwrap()
            );
            assert!(prom.contains(&q), "missing: {q}");
        }
    }

    /// A topology's gauges carry a `tier` label in Prometheus and a
    /// `tier` member in JSON, and the two exports agree tier by tier; a
    /// flat policy's one gauge carries neither.
    #[test]
    fn tiered_occupancy_is_labelled_by_tier_in_both_exports() {
        let mut p = PolicyMetrics::new("GDS@three-tier");
        for (peak, last) in [(9, 5), (3, 0), (7, 7)] {
            let mut gauge = Gauge::default();
            gauge.set(peak);
            gauge.set(last);
            p.occupancy.push(gauge);
        }
        let mut reg = sample_registry();
        reg.absorb(p);
        let prom = prometheus_text(&reg);
        let snap = json_snapshot(&reg);
        let policies = snap["policies"].as_array().unwrap();
        assert_eq!(policies[0]["occupancy"]["last"].as_u64(), Some(12_345));
        assert!(prom.contains("byc_cache_occupancy_bytes{policy=\"GDS\"} 12345"));
        let tiers = policies[1]["occupancy"].as_array().unwrap();
        assert_eq!(tiers.len(), 3);
        for (t, gauge) in tiers.iter().enumerate() {
            assert_eq!(gauge["tier"].as_u64(), Some(t as u64));
            let cell = format!("{{policy=\"GDS@three-tier\",tier=\"{t}\"}}");
            for (name, key) in [
                ("byc_cache_occupancy_bytes", "last"),
                ("byc_cache_occupancy_peak_bytes", "peak"),
            ] {
                let line = format!("{name}{cell} {}", gauge[key].as_u64().unwrap());
                assert!(prom.contains(&line), "missing: {line}");
            }
        }
        assert_eq!(tiers[0]["last"].as_u64(), Some(5));
        assert_eq!(tiers[0]["peak"].as_u64(), Some(9));
        assert!(!prom.contains("byc_cache_occupancy_bytes{policy=\"GDS@three-tier\"}"));
    }

    #[test]
    fn json_snapshot_roundtrips_through_parser() {
        let snap = json_snapshot(&sample_registry());
        let back = Value::parse(&snap.to_string()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back["schema"], "byc.telemetry.metrics");
    }

    #[test]
    fn format_parses_flag_spellings() {
        assert_eq!(
            MetricsFormat::parse("prom"),
            Some(MetricsFormat::Prometheus)
        );
        assert_eq!(
            MetricsFormat::parse("prometheus"),
            Some(MetricsFormat::Prometheus)
        );
        assert_eq!(MetricsFormat::parse("json"), Some(MetricsFormat::Json));
        assert_eq!(MetricsFormat::parse("xml"), None);
        assert_eq!(MetricsFormat::Prometheus.label(), "prom");
    }
}
