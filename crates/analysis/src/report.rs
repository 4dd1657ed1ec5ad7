//! Paper-style report rendering and CSV export.

use byc_federation::{CostReport, QueryWindow, SeriesPoint, SweepPoint};
use byc_types::{Result, ServerId};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::ops::Range;
use std::path::Path;

/// Render cost reports in the layout of the paper's Tables 1–2:
/// one row per (trace, algorithm) with bypass / fetch / total costs in GB.
pub fn render_cost_table(title: &str, reports: &[CostReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:<8} {:<8} {:>8} {:>14} {:<18} {:>12} {:>12} {:>12}",
        "Data Set",
        "Version",
        "Queries",
        "Seq Cost (GB)",
        "Algorithm",
        "Bypass (GB)",
        "Fetch (GB)",
        "Total (GB)"
    );
    let _ = writeln!(out, "{}", "-".repeat(100));
    let mut last_trace: Option<&str> = None;
    let mut set = 0;
    for r in reports {
        let first_of_trace = last_trace != Some(r.trace.as_str());
        if first_of_trace {
            set += 1;
            last_trace = Some(r.trace.as_str());
        }
        let (ds, ver, q, seq) = if first_of_trace {
            (
                format!("Set {set}"),
                r.trace.clone(),
                r.queries.to_string(),
                format!("{:.2}", gb(r.sequence_cost.as_f64())),
            )
        } else {
            (String::new(), String::new(), String::new(), String::new())
        };
        let _ = writeln!(
            out,
            "{:<8} {:<8} {:>8} {:>14} {:<18} {:>12.2} {:>12.2} {:>12.2}",
            ds,
            ver,
            q,
            seq,
            r.policy,
            gb(r.bypass_cost.as_f64()),
            gb(r.fetch_cost.as_f64()),
            gb(r.total_cost().as_f64()),
        );
    }
    out
}

fn gb(bytes: f64) -> f64 {
    bytes / 1e9
}

/// Render a per-server WAN breakdown (the BYHR view): one row per
/// back-end server with delivered / bypass / fetch / WAN traffic in GB,
/// plus a totals row merging every server. `delivered` is raw result
/// bytes; `bypass` and `fetch` are network-priced, so on non-uniform
/// federations the rows show which links actually carry the cost. Rows
/// come from a [`Breakdown`](byc_federation::Breakdown)'s server view.
pub fn render_server_table(title: &str, servers: &[(ServerId, QueryWindow)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:<8} {:>14} {:>12} {:>12} {:>12} {:>9} {:>9} {:>7}",
        "Server",
        "Delivered (GB)",
        "Bypass (GB)",
        "Fetch (GB)",
        "WAN (GB)",
        "Hits",
        "Bypasses",
        "Loads"
    );
    let _ = writeln!(out, "{}", "-".repeat(90));
    let mut total = QueryWindow::default();
    let mut row = |label: String, w: &QueryWindow| {
        let _ = writeln!(
            out,
            "{:<8} {:>14.2} {:>12.2} {:>12.2} {:>12.2} {:>9} {:>9} {:>7}",
            label,
            gb(w.delivered.as_f64()),
            gb(w.bypass_cost.as_f64()),
            gb(w.fetch_cost.as_f64()),
            gb(w.wan_cost().as_f64()),
            w.hits,
            w.bypasses,
            w.loads,
        );
    };
    for (server, w) in servers {
        total.merge(w);
        row(format!("S{}", server.raw()), w);
    }
    row("total".to_string(), &total);
    out
}

/// Render a per-tier breakdown of a tiered-topology replay: one row per
/// caching tier (bottom-up, site first) with the decision mix, the
/// tier's hit rate, and its WAN cost split — the relay column is the
/// forwarding traffic the tier's inner link carried for slices resolved
/// above it. Rows come from a
/// [`Breakdown`](byc_federation::Breakdown)'s tier view zipped with the
/// topology's tier names.
pub fn render_tier_table(title: &str, tiers: &[(String, QueryWindow)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>9} {:>7} {:>9} {:>11} {:>12} {:>12} {:>10}",
        "Tier",
        "Hits",
        "Bypasses",
        "Loads",
        "Hit rate",
        "Relay (GB)",
        "Bypass (GB)",
        "Fetch (GB)",
        "WAN (GB)"
    );
    let _ = writeln!(out, "{}", "-".repeat(96));
    for (name, w) in tiers {
        let decisions = w.hits + w.bypasses + w.loads;
        let hit_rate = if decisions > 0 {
            w.hits as f64 / decisions as f64 * 100.0
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>9} {:>7} {:>8.1}% {:>11.2} {:>12.2} {:>12.2} {:>10.2}",
            name,
            w.hits,
            w.bypasses,
            w.loads,
            hit_rate,
            gb(w.relay_cost.as_f64()),
            gb(w.bypass_cost.as_f64()),
            gb(w.fetch_cost.as_f64()),
            gb(w.wan_cost().as_f64()),
        );
    }
    out
}

/// Render a recorded span tree as an indented phase table: one row per
/// [`Span`](byc_telemetry::Span) in open order, indented by nesting
/// depth, with the tick range each phase covered and its numeric
/// annotations. The terminal-side companion to the Chrome trace-event
/// export — same spans, same ticks — for when loading Perfetto is
/// overkill.
pub fn render_span_table(title: &str, spans: &[byc_telemetry::Span]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:<40} {:<10} {:>10} {:>10} {:>8}  Args",
        "Span", "Cat", "Start", "End", "Ticks"
    );
    let _ = writeln!(out, "{}", "-".repeat(96));
    for span in spans {
        let mut args = String::new();
        for (key, value) in &span.args {
            if !args.is_empty() {
                args.push(' ');
            }
            let _ = write!(args, "{key}={value}");
        }
        let indented = format!("{}{}", "  ".repeat(span.depth as usize), span.name);
        let _ = writeln!(
            out,
            "{:<40} {:<10} {:>10} {:>10} {:>8}  {}",
            indented,
            span.cat,
            span.start,
            span.end,
            span.end - span.start,
            args,
        );
    }
    out
}

/// Render a windowed-telemetry stream as a trajectory table: one row per
/// window — its query range and counters — with the decision mix, hit
/// rate, and WAN cost split, plus a totals row merging every window.
/// Rows come from the same [`Breakdown`](byc_federation::Breakdown)
/// windows the NDJSON stream serialises, so the table and the stream
/// cannot disagree.
pub fn render_window_table(title: &str, windows: &[(Range<usize>, QueryWindow)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:<14} {:>8} {:>9} {:>7} {:>9} {:>12} {:>12} {:>10} {:>7} {:>9}",
        "Queries",
        "Hits",
        "Bypasses",
        "Loads",
        "Hit rate",
        "Bypass (GB)",
        "Fetch (GB)",
        "WAN (GB)",
        "Failed",
        "Degraded"
    );
    let _ = writeln!(out, "{}", "-".repeat(106));
    let mut total = QueryWindow::default();
    let mut row = |label: String, w: &QueryWindow| {
        let hit_rate = if w.decisions() > 0 {
            w.hits as f64 / w.decisions() as f64 * 100.0
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:<14} {:>8} {:>9} {:>7} {:>8.1}% {:>12.2} {:>12.2} {:>10.2} {:>7} {:>9}",
            label,
            w.hits,
            w.bypasses,
            w.loads,
            hit_rate,
            gb(w.bypass_cost.as_f64()),
            gb(w.fetch_cost.as_f64()),
            gb(w.wan_cost().as_f64()),
            w.failed_slices,
            w.degraded_slices,
        );
    };
    for (queries, w) in windows {
        total.merge(w);
        row(format!("{}..{}", queries.start, queries.end), w);
    }
    row("total".to_string(), &total);
    out
}

/// Render a telemetry [`MetricsRegistry`](byc_telemetry::MetricsRegistry)
/// as a human-readable table: one row per `(policy, server, class)`
/// series with the decision mix and the `D_S`/`D_L`/`D_C` byte split,
/// plus a totals row per policy. The terminal-side companion to the
/// Prometheus/JSON exports — same registry, same numbers.
pub fn render_metrics_table(title: &str, registry: &byc_telemetry::MetricsRegistry) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:<18} {:<8} {:<8} {:>8} {:>9} {:>7} {:>12} {:>12} {:>12}",
        "Policy",
        "Server",
        "Class",
        "Hits",
        "Bypasses",
        "Loads",
        "Bypass (GB)",
        "Fetch (GB)",
        "Cached (GB)"
    );
    let _ = writeln!(out, "{}", "-".repeat(102));
    for policy in registry.iter() {
        for (key, series) in &policy.series {
            let w = &series.window;
            let _ = writeln!(
                out,
                "{:<18} {:<8} {:<8} {:>8} {:>9} {:>7} {:>12.2} {:>12.2} {:>12.2}",
                policy.policy,
                format!("S{}", key.server.raw()),
                key.class.label(),
                w.hits,
                w.bypasses,
                w.loads,
                gb(w.bypass_cost.as_f64()),
                gb(w.fetch_cost.as_f64()),
                gb(w.cache_served.as_f64()),
            );
        }
        let t = policy.totals();
        let _ = writeln!(
            out,
            "{:<18} {:<8} {:<8} {:>8} {:>9} {:>7} {:>12.2} {:>12.2} {:>12.2}",
            policy.policy,
            "total",
            "",
            t.hits,
            t.bypasses,
            t.loads,
            gb(t.bypass_cost.as_f64()),
            gb(t.fetch_cost.as_f64()),
            gb(t.cache_served.as_f64()),
        );
        // One peak on the flat network, one per tier on a topology.
        let peaks: Vec<String> = policy
            .occupancy_by_tier()
            .into_iter()
            .map(|(tier, g)| {
                let peak = gb(g.peak as f64);
                match tier {
                    None => format!("{peak:.2}"),
                    Some(t) => format!("tier{t}:{peak:.2}"),
                }
            })
            .collect();
        let _ = writeln!(
            out,
            "{:<18} queries={} accesses={} occupancy_peak_gb={} reuse_gap_p50={} p90={}",
            policy.policy,
            policy.queries,
            policy.accesses,
            peaks.join(","),
            policy.reuse_gap.quantile(0.5),
            policy.reuse_gap.quantile(0.9),
        );
    }
    out
}

/// Write cumulative-cost series (Figs 7–8) as CSV: one column per policy.
///
/// # Errors
///
/// I/O errors from file creation or writing.
pub fn write_series_csv(path: &Path, series: &[(String, Vec<SeriesPoint>)]) -> Result<()> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    write!(w, "query")?;
    for (name, _) in series {
        write!(w, ",{name}_gb")?;
    }
    writeln!(w)?;
    let rows = series.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
    for i in 0..rows {
        let query = series
            .iter()
            .filter_map(|(_, s)| s.get(i))
            .map(|p| p.query)
            .next()
            .unwrap_or(0);
        write!(w, "{query}")?;
        for (_, s) in series {
            match s.get(i) {
                Some(p) => write!(w, ",{:.3}", gb(p.cumulative_cost.as_f64()))?,
                None => write!(w, ",")?,
            }
        }
        writeln!(w)?;
    }
    w.flush()?;
    Ok(())
}

/// Write a cache-size sweep (Figs 9–10) as CSV: policy, fraction, costs.
///
/// # Errors
///
/// I/O errors from file creation or writing.
pub fn write_sweep_csv(path: &Path, points: &[SweepPoint]) -> Result<()> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    writeln!(
        w,
        "policy,cache_fraction,capacity_gb,bypass_gb,fetch_gb,total_gb,reduction_factor"
    )?;
    for p in points {
        writeln!(
            w,
            "{},{:.2},{:.3},{:.3},{:.3},{:.3},{:.3}",
            p.policy,
            p.cache_fraction,
            gb(p.capacity.as_f64()),
            gb(p.report.bypass_cost.as_f64()),
            gb(p.report.fetch_cost.as_f64()),
            gb(p.report.total_cost().as_f64()),
            p.report.reduction_factor(),
        )?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use byc_types::Bytes;

    fn report(trace: &str, policy: &str, bypass: u64, fetch: u64) -> CostReport {
        CostReport {
            policy: policy.into(),
            trace: trace.into(),
            granularity: "table".into(),
            queries: 100,
            sequence_cost: Bytes::new(100_000_000_000),
            bypass_served: Bytes::new(bypass),
            bypass_cost: Bytes::new(bypass),
            fetch_cost: Bytes::new(fetch),
            cache_served: Bytes::new(100_000_000_000 - bypass),
            hits: 0,
            bypasses: 0,
            loads: 0,
            evictions: 0,
            ..Default::default()
        }
    }

    #[test]
    fn table_layout_matches_paper() {
        let rows = vec![
            report("EDR", "Rate-Profile", 4_120_000_000, 80_126_000_000),
            report("EDR", "OnlineBY", 1_090_000_000, 86_970_000_000),
            report("DR1", "Rate-Profile", 73_650_000_000, 43_910_000_000),
        ];
        let table = render_cost_table("Cost breakdown (GB)", &rows);
        assert!(table.contains("Set 1"));
        assert!(table.contains("Set 2"));
        assert!(table.contains("Rate-Profile"));
        assert!(table.contains("4.12"));
        assert!(table.contains("80.13"));
        // Trace header printed once per set.
        assert_eq!(table.matches("EDR").count(), 1);
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("byc-analysis-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn series_csv_roundtrip() {
        let series = vec![
            (
                "Rate-Profile".to_string(),
                vec![
                    SeriesPoint {
                        query: 100,
                        cumulative_cost: Bytes::new(1_000_000_000),
                    },
                    SeriesPoint {
                        query: 200,
                        cumulative_cost: Bytes::new(2_000_000_000),
                    },
                ],
            ),
            (
                "GDS".to_string(),
                vec![SeriesPoint {
                    query: 100,
                    cumulative_cost: Bytes::new(5_000_000_000),
                }],
            ),
        ];
        let path = tmp("series.csv");
        write_series_csv(&path, &series).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next().unwrap(), "query,Rate-Profile_gb,GDS_gb");
        assert_eq!(lines.next().unwrap(), "100,1.000,5.000");
        assert_eq!(lines.next().unwrap(), "200,2.000,");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn server_table_rows_and_totals() {
        let mut near = QueryWindow::default();
        near.delivered = Bytes::new(2_000_000_000);
        near.bypass_cost = Bytes::new(1_000_000_000);
        near.fetch_cost = Bytes::new(500_000_000);
        near.hits = 3;
        near.bypasses = 4;
        near.loads = 1;
        let mut far = QueryWindow::default();
        far.delivered = Bytes::new(1_000_000_000);
        far.bypass_cost = Bytes::new(4_000_000_000);
        far.fetch_cost = Bytes::new(0);
        far.bypasses = 2;
        let table = render_server_table(
            "per-server WAN",
            &[(ServerId::new(0), near), (ServerId::new(1), far)],
        );
        assert!(table.contains("per-server WAN"));
        assert!(table.contains("S0"));
        assert!(table.contains("S1"));
        // Totals row sums WAN = (1.0 + 0.5) + (4.0 + 0.0) GB.
        assert!(table.contains("total"));
        assert!(table.contains("5.50"), "{table}");
    }

    #[test]
    fn metrics_table_rows_and_totals() {
        use byc_telemetry::{MetricsRegistry, ObjectClass, PolicyMetrics, SeriesKey};
        use byc_types::ServerId;
        let mut p = PolicyMetrics::new("GDS");
        p.queries = 12;
        p.accesses = 30;
        for (server, class, hits) in [(0u32, ObjectClass::Tiny, 5u64), (1, ObjectClass::Large, 2)] {
            let key = SeriesKey {
                server: ServerId::new(server),
                class,
                tier: 0,
            };
            let s = p.series.entry(key).or_default();
            s.window.hits = hits;
            s.window.bypass_cost = Bytes::new(1_000_000_000);
        }
        let mut reg = MetricsRegistry::new();
        reg.absorb(p);
        let table = render_metrics_table("telemetry", &reg);
        assert!(table.contains("telemetry"));
        assert!(table.contains("S0"));
        assert!(table.contains("tiny"));
        assert!(table.contains("large"));
        // Totals row: 5 + 2 hits, 1.0 + 1.0 GB bypass.
        assert!(table.contains("total"));
        assert!(table.contains("2.00"), "{table}");
        assert!(table.contains("queries=12 accesses=30"));
    }

    #[test]
    fn tier_table_rows_and_hit_rates() {
        let mut site = QueryWindow::default();
        site.hits = 6;
        site.bypasses = 2;
        site.loads = 2;
        site.relay_cost = Bytes::new(500_000_000);
        site.bypass_cost = Bytes::new(1_000_000_000);
        let mut regional = QueryWindow::default();
        regional.loads = 2;
        regional.fetch_cost = Bytes::new(4_000_000_000);
        let table = render_tier_table(
            "per-tier breakdown",
            &[("site".into(), site), ("regional".into(), regional)],
        );
        assert!(table.contains("per-tier breakdown"));
        assert!(table.contains("site"));
        assert!(table.contains("regional"));
        // 6 of 10 site decisions were hits.
        assert!(table.contains("60.0%"), "{table}");
        // A tier with no decisions renders a 0% rate, not NaN.
        let empty = render_tier_table("t", &[("idle".into(), QueryWindow::default())]);
        assert!(empty.contains("0.0%"), "{empty}");
    }

    #[test]
    fn span_table_indents_by_depth_and_shows_args() {
        use byc_telemetry::Span;
        let spans = vec![
            Span {
                name: "replay GDS".into(),
                cat: "replay".into(),
                start: 0,
                end: 800,
                depth: 0,
                args: vec![("queries".into(), 800)],
            },
            Span {
                name: "queries 0..256".into(),
                cat: "replay".into(),
                start: 0,
                end: 256,
                depth: 1,
                args: vec![("hits".into(), 40)],
            },
        ];
        let table = render_span_table("spans: replay GDS", &spans);
        assert!(table.contains("spans: replay GDS"));
        assert!(table.contains("replay GDS"));
        // Children indent under their parent.
        assert!(table.contains("  queries 0..256"), "{table}");
        assert!(table.contains("queries=800"));
        assert!(table.contains("hits=40"), "{table}");
        assert!(table.contains("256"), "{table}");
    }

    #[test]
    fn window_table_rows_and_totals() {
        let mut early = QueryWindow::default();
        early.hits = 6;
        early.bypasses = 2;
        early.loads = 2;
        early.bypass_cost = Bytes::new(1_000_000_000);
        let mut late = QueryWindow::default();
        late.loads = 2;
        late.fetch_cost = Bytes::new(4_000_000_000);
        late.failed_slices = 3;
        let windows = vec![(0..256, early), (256..500, late)];
        let table = render_window_table("windowed trajectory", &windows);
        assert!(table.contains("windowed trajectory"));
        assert!(table.contains("0..256"));
        assert!(table.contains("256..500"));
        // 6 of 10 decisions in the first window were hits.
        assert!(table.contains("60.0%"), "{table}");
        // The totals row merges both windows: 1.0 + 4.0 GB of WAN.
        assert!(table.contains("total"));
        assert!(table.contains("5.00"), "{table}");
        // A window with no decisions renders 0%, not NaN.
        let empty = render_window_table("t", &[(0..0, QueryWindow::default())]);
        assert!(empty.contains("0.0%"), "{empty}");
    }

    #[test]
    fn sweep_csv_layout() {
        let points = vec![byc_federation::SweepPoint {
            policy: "GDS".into(),
            cache_fraction: 0.1,
            capacity: Bytes::new(1_000_000_000),
            report: report("EDR", "GDS", 2_000_000_000, 3_000_000_000),
            warnings: Vec::new(),
        }];
        let path = tmp("sweep.csv");
        write_sweep_csv(&path, &points).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("policy,cache_fraction"));
        assert!(text.contains("GDS,0.10,1.000,2.000,3.000,5.000,20.000"));
        std::fs::remove_file(&path).ok();
    }
}
