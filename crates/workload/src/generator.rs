//! The trace generator: sessions of template-shaped queries.
//!
//! A trace is a sequence of *sessions*. Each session picks a template
//! (Zipf over [`ALL_TEMPLATES`]), a small Zipf-skewed subset of the
//! template's projection pool, and a base selectivity (log-normal around
//! the template's median), then emits a geometric number of queries that
//! sweep fresh regions. This produces exactly the workload signature the
//! paper measures: heavy, long-lived column/table reuse (Figs 5–6) with
//! negligible data-item reuse (Fig 4) and bursty per-object traffic.

use crate::templates::{Session, TemplateKind, ALL_TEMPLATES};
use crate::trace::{Trace, TraceQuery};
use byc_catalog::Catalog;
use byc_engine::YieldModel;
use byc_sql::analyze;
use byc_types::{Error, QueryId, Result, SplitMix64, Zipf};

/// Generator configuration.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Trace name (propagated to reports).
    pub name: String,
    /// Number of queries to generate.
    pub query_count: usize,
    /// RNG seed: traces are bit-reproducible per seed.
    pub seed: u64,
    /// Zipf exponent over templates (≥ 0; higher = more skew).
    pub template_zipf: f64,
    /// Zipf exponent over each template's projection pool.
    pub column_zipf: f64,
    /// Mean session length in queries (geometric distribution).
    pub mean_session_len: f64,
    /// σ of the log-normal around each template's median selectivity.
    pub selectivity_sigma: f64,
    /// Global multiplier on selectivities (calibration knob).
    pub selectivity_scale: f64,
    /// Number of concurrently active sessions. The mediator serves many
    /// users at once, so queries from different sessions interleave —
    /// which is precisely what defeats in-line caching on these
    /// workloads (the instantaneous working set of all active sessions
    /// exceeds the cache, and GDS-style load-on-miss churns).
    pub concurrency: usize,
}

impl WorkloadConfig {
    /// The EDR trace preset ("Set 1": 27 663 queries, ≈1.2 TB sequence
    /// cost at full catalog scale).
    pub fn edr(seed: u64) -> Self {
        Self {
            name: "EDR".into(),
            query_count: 27_663,
            seed,
            template_zipf: 0.9,
            column_zipf: 1.1,
            mean_session_len: 40.0,
            concurrency: 8,
            selectivity_sigma: 1.0,
            // Calibrated so the full-scale EDR trace lands near the
            // paper's 1216.94 GB sequence cost (see EXPERIMENTS.md).
            selectivity_scale: 0.885,
        }
    }

    /// The DR1 trace preset ("Set 2": 24 567 queries, ≈2.0 TB sequence
    /// cost — fewer queries against twice the data).
    pub fn dr1(seed: u64) -> Self {
        Self {
            name: "DR1".into(),
            query_count: 24_567,
            ..Self::edr(seed)
        }
    }

    /// A small smoke-test preset.
    pub fn smoke(seed: u64, queries: usize) -> Self {
        Self {
            name: format!("smoke-{queries}"),
            query_count: queries,
            ..Self::edr(seed)
        }
    }
}

/// Draw a geometric session length with the given mean, clamped to
/// `[1, 10·mean]`.
// The cast saturates: a length past usize::MAX is a session that never
// ends, which is what such a mean asks for.
#[allow(clippy::cast_possible_truncation)]
fn geometric_len(rng: &mut SplitMix64, mean: f64) -> usize {
    let p = (1.0 / mean.max(1.0)).clamp(1e-6, 1.0);
    let u = rng.next_f64().max(f64::MIN_POSITIVE);
    let len = (u.ln() / (1.0 - p).ln()).ceil();
    (len.max(1.0).min(mean * 10.0)) as usize
}

/// Zipf-sample `k` distinct ranks from `0..n` (at most `n`).
fn zipf_subset(rng: &mut SplitMix64, zipf: &Zipf, k: usize) -> Vec<usize> {
    let mut chosen = Vec::new();
    let mut guard = 0;
    while chosen.len() < k.min(zipf.len()) && guard < 10_000 {
        let r = zipf.sample(rng);
        if !chosen.contains(&r) {
            chosen.push(r);
        }
        guard += 1;
    }
    chosen
}

/// Generate a trace against `catalog` (must contain the SDSS-like schema
/// from [`byc_catalog::sdss`]), delivering each query to `sink` as it is
/// produced. Nothing is buffered here, so a sink that writes straight to
/// disk (see [`crate::io::TraceWriter`]) generates arbitrarily long
/// traces in constant memory. The query stream is bit-identical to
/// [`generate`] for the same config: the RNG call sequence is shared.
///
/// # Errors
///
/// [`Error::InvalidConfig`] for an empty query count; catalog or analysis
/// errors surface if the catalog lacks the template tables; sink errors
/// abort generation.
pub fn generate_with(
    catalog: &Catalog,
    config: &WorkloadConfig,
    mut sink: impl FnMut(TraceQuery) -> Result<()>,
) -> Result<()> {
    if config.query_count == 0 {
        return Err(Error::InvalidConfig("query_count must be positive".into()));
    }
    let mut rng = SplitMix64::new(config.seed);
    let template_dist = Zipf::new(ALL_TEMPLATES.len(), config.template_zipf);
    let model = YieldModel::new(catalog);

    let concurrency = config.concurrency.max(1);
    let new_session = |rng: &mut SplitMix64| -> (Session, usize) {
        let kind = ALL_TEMPLATES[template_dist.sample(rng)];
        let table = if kind == TemplateKind::TailScan {
            *rng.pick(byc_catalog::sdss::TAIL_TABLES)
        } else {
            kind.table()
        };
        let pool = kind.projection_pool();
        let col_dist = Zipf::new(pool.len(), config.column_zipf);
        // In 2..6.
        #[allow(clippy::cast_possible_truncation)]
        let want = rng.next_range(2, 6) as usize;
        let columns: Vec<&'static str> = zipf_subset(rng, &col_dist, want)
            .into_iter()
            .map(|i| pool[i])
            .collect();
        let base = (kind.median_selectivity()
            * config.selectivity_scale
            * rng.next_lognormal(0.0, config.selectivity_sigma))
        .clamp(1e-9, 0.5);
        let len = geometric_len(rng, config.mean_session_len * kind.session_len_factor());
        (
            Session {
                kind,
                table,
                columns,
                base_selectivity: base,
                cursor: rng.next_f64(),
                step: 0.002 + rng.next_f64() * 0.01,
            },
            len,
        )
    };

    let mut emitted = 0usize;
    let mut sessions: Vec<(Session, usize)> =
        (0..concurrency).map(|_| new_session(&mut rng)).collect();

    while emitted < config.query_count {
        // Each arriving query belongs to one of the concurrent users.
        // Below `concurrency`, a usize.
        #[allow(clippy::cast_possible_truncation)]
        let slot = rng.next_bounded(concurrency as u64) as usize;
        let (sess, remaining) = &mut sessions[slot];

        let built = sess.next_query(&mut rng);
        let template = sess.kind.index();
        *remaining -= 1;
        if *remaining == 0 {
            sessions[slot] = new_session(&mut rng);
        }

        let resolved = analyze(catalog, &built.query)?;
        let breakdown = model.estimate(&resolved);
        let id = u32::try_from(emitted).map(QueryId::new).map_err(|_| {
            Error::InvalidConfig(format!("query ids are u32: {emitted} is out of range"))
        })?;
        sink(TraceQuery {
            id,
            sql: built.query.to_string(),
            template,
            data_keys: built.data_keys,
            tables: resolved.table_ids().collect(),
            columns: resolved.column_ids().collect(),
            total_yield: breakdown.total,
            table_yields: breakdown.per_table,
            column_yields: breakdown.per_column,
        })?;
        emitted += 1;
    }

    Ok(())
}

/// Generate a trace against `catalog` (must contain the SDSS-like schema
/// from [`byc_catalog::sdss`]).
///
/// # Errors
///
/// [`Error::InvalidConfig`] for an empty query count; catalog or analysis
/// errors surface if the catalog lacks the template tables.
pub fn generate(catalog: &Catalog, config: &WorkloadConfig) -> Result<Trace> {
    let mut queries = Vec::with_capacity(config.query_count);
    generate_with(catalog, config, |q| {
        queries.push(q);
        Ok(())
    })?;
    Ok(Trace {
        name: config.name.clone(),
        seed: config.seed,
        queries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use byc_catalog::sdss::{build, SdssRelease};
    use std::collections::HashSet;

    fn small_catalog() -> Catalog {
        build(SdssRelease::Edr, 1e-3, 1)
    }

    #[test]
    fn deterministic_per_seed() {
        let cat = small_catalog();
        let cfg = WorkloadConfig::smoke(7, 200);
        let a = generate(&cat, &cfg).unwrap();
        let b = generate(&cat, &cfg).unwrap();
        assert_eq!(a, b);
        let c = generate(&cat, &WorkloadConfig::smoke(8, 200)).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn generates_requested_count() {
        let cat = small_catalog();
        let t = generate(&cat, &WorkloadConfig::smoke(1, 500)).unwrap();
        assert_eq!(t.len(), 500);
        for (i, q) in t.queries.iter().enumerate() {
            assert_eq!(q.id.index(), i);
        }
    }

    #[test]
    fn zero_queries_rejected() {
        let cat = small_catalog();
        assert!(generate(&cat, &WorkloadConfig::smoke(1, 0)).is_err());
    }

    #[test]
    fn streaming_sink_matches_materialized() {
        let cat = small_catalog();
        let cfg = WorkloadConfig::smoke(23, 300);
        let whole = generate(&cat, &cfg).unwrap();
        let mut streamed = Vec::new();
        generate_with(&cat, &cfg, |q| {
            streamed.push(q);
            Ok(())
        })
        .unwrap();
        assert_eq!(whole.queries, streamed);
    }

    #[test]
    fn sink_error_aborts_generation() {
        let cat = small_catalog();
        let cfg = WorkloadConfig::smoke(23, 300);
        let mut seen = 0usize;
        let err = generate_with(&cat, &cfg, |_| {
            seen += 1;
            if seen == 5 {
                Err(Error::InvalidConfig("sink full".into()))
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert!(err.to_string().contains("sink full"));
        assert_eq!(seen, 5);
    }

    #[test]
    fn all_sql_reparses_and_analyzes() {
        let cat = small_catalog();
        let t = generate(&cat, &WorkloadConfig::smoke(3, 300)).unwrap();
        for q in &t.queries {
            let parsed = byc_sql::parse(&q.sql).unwrap_or_else(|e| panic!("{}: {e}", q.sql));
            let resolved = analyze(&cat, &parsed).unwrap();
            let tables: Vec<_> = resolved.table_ids().collect();
            assert_eq!(tables, q.tables, "table set drifted for {}", q.sql);
        }
    }

    #[test]
    fn yields_decompose_consistently() {
        let cat = small_catalog();
        let t = generate(&cat, &WorkloadConfig::smoke(5, 300)).unwrap();
        for q in &t.queries {
            let table_sum: u64 = q.table_yields.iter().map(|&(_, y)| y.raw()).sum();
            let col_sum: u64 = q.column_yields.iter().map(|&(_, y)| y.raw()).sum();
            assert_eq!(table_sum, q.total_yield.raw(), "{}", q.sql);
            assert_eq!(col_sum, q.total_yield.raw(), "{}", q.sql);
        }
    }

    #[test]
    fn exhibits_schema_locality() {
        // A small set of columns should account for most references.
        let cat = small_catalog();
        let t = generate(&cat, &WorkloadConfig::smoke(11, 2000)).unwrap();
        let mut counts = std::collections::HashMap::new();
        let mut total = 0usize;
        for q in &t.queries {
            for &c in &q.columns {
                *counts.entry(c).or_insert(0usize) += 1;
                total += 1;
            }
        }
        let mut freq: Vec<usize> = counts.values().copied().collect();
        freq.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = freq.iter().take(10).sum();
        assert!(
            top10 as f64 > total as f64 * 0.5,
            "top-10 columns cover {top10}/{total}"
        );
        // But the universe of referenced columns is much wider.
        assert!(counts.len() > 20, "only {} distinct columns", counts.len());
    }

    #[test]
    fn exhibits_low_data_reuse() {
        let cat = small_catalog();
        let t = generate(&cat, &WorkloadConfig::smoke(13, 2000)).unwrap();
        let mut seen = HashSet::new();
        let mut reused = 0usize;
        let mut total = 0usize;
        for q in &t.queries {
            for &k in &q.data_keys {
                total += 1;
                if !seen.insert(k) {
                    reused += 1;
                }
            }
        }
        let rate = reused as f64 / total as f64;
        assert!(rate < 0.5, "data-key reuse rate {rate} too high");
    }

    #[test]
    fn sessions_produce_bursts() {
        // With a single user, consecutive queries share a template far
        // more often than chance: sessions are bursts.
        let cat = small_catalog();
        let mut cfg = WorkloadConfig::smoke(17, 2000);
        cfg.concurrency = 1;
        let t = generate(&cat, &cfg).unwrap();
        let same: usize = t
            .queries
            .windows(2)
            .filter(|w| w[0].template == w[1].template)
            .count();
        let rate = same as f64 / (t.len() - 1) as f64;
        assert!(rate > 0.8, "burst rate {rate}");
    }

    #[test]
    fn concurrency_interleaves_sessions() {
        // With the default concurrent users, adjacent queries usually
        // come from different sessions — the interleaving that defeats
        // in-line caching.
        let cat = small_catalog();
        let t = generate(&cat, &WorkloadConfig::smoke(17, 2000)).unwrap();
        let same: usize = t
            .queries
            .windows(2)
            .filter(|w| w[0].template == w[1].template)
            .count();
        let rate = same as f64 / (t.len() - 1) as f64;
        assert!(rate < 0.7, "interleave rate {rate}");
    }

    #[test]
    fn multiple_templates_appear() {
        let cat = small_catalog();
        let t = generate(&cat, &WorkloadConfig::smoke(19, 3000)).unwrap();
        let templates: HashSet<u32> = t.queries.iter().map(|q| q.template).collect();
        assert!(templates.len() >= 5, "only {templates:?}");
    }

    #[test]
    fn geometric_len_bounds() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..1000 {
            let l = geometric_len(&mut rng, 60.0);
            assert!((1..=600).contains(&l));
        }
        // Mean roughly matches.
        let mean: f64 = (0..5000)
            .map(|_| geometric_len(&mut rng, 60.0) as f64)
            .sum::<f64>()
            / 5000.0;
        assert!((40.0..80.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn zipf_subset_distinct() {
        let mut rng = SplitMix64::new(2);
        let z = Zipf::new(10, 1.0);
        for _ in 0..100 {
            let s = zipf_subset(&mut rng, &z, 4);
            let set: HashSet<usize> = s.iter().copied().collect();
            assert_eq!(set.len(), s.len());
            assert_eq!(s.len(), 4);
        }
        // Asking for more than available caps at pool size.
        let s = zipf_subset(&mut rng, &z, 50);
        assert_eq!(s.len(), 10);
    }
}
