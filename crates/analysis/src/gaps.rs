//! Inter-access gap analysis: the empirical basis for episode cutoffs.
//!
//! Rate-Profile's episode heuristic (paper §4.3) closes an episode after
//! `k` queries without an access. A good `k` separates *within-burst*
//! gaps (which must not close an episode, or the load investment keeps
//! resetting) from *between-burst* gaps (which should, so stale history
//! ages out). This module measures the gap distribution per object so
//! that choice can be made from data — it is how this repo's default of
//! `k = 5000` (vs the paper's 1000) was validated; see DESIGN.md §7.

use byc_catalog::{Granularity, ObjectCatalog};
use byc_workload::Trace;

/// Distribution summary of inter-access gaps across all objects.
#[derive(Clone, Debug, PartialEq)]
pub struct GapReport {
    /// Granularity label ("table" / "column").
    pub granularity: String,
    /// Number of gaps measured (accesses minus first-touches).
    pub gaps: u64,
    /// Median gap in queries.
    pub p50: u64,
    /// 90th percentile gap.
    pub p90: u64,
    /// 99th percentile gap.
    pub p99: u64,
    /// Largest observed gap.
    pub max: u64,
    /// Fraction of gaps that a cutoff of 1000 queries (the paper's `k`)
    /// would split an episode on.
    pub beyond_1000: f64,
    /// Fraction of gaps beyond this repo's default cutoff of 5000.
    pub beyond_5000: f64,
}

impl GapReport {
    /// The smallest cutoff from a standard menu (500, 1000, 2000, 5000,
    /// 10000) that keeps episode splits below `tolerance` (a fraction of
    /// all gaps). Returns `None` if even 10 000 splits too often.
    pub fn recommended_cutoff(&self, sorted_gaps: &[u64], tolerance: f64) -> Option<u64> {
        for &cutoff in &[500u64, 1000, 2000, 5000, 10_000] {
            let beyond = sorted_gaps.partition_point(|&g| g <= cutoff);
            let frac = 1.0 - beyond as f64 / sorted_gaps.len().max(1) as f64;
            if frac <= tolerance {
                return Some(cutoff);
            }
        }
        None
    }
}

/// Measure per-object inter-access gaps of `trace` at the granularity of
/// `objects`. Returns the report and the sorted gap list (for custom
/// percentiles or [`GapReport::recommended_cutoff`]).
pub fn gap_analysis(trace: &Trace, objects: &ObjectCatalog) -> (GapReport, Vec<u64>) {
    let mut last_seen: Vec<Option<usize>> = vec![None; objects.len()];
    let mut gaps: Vec<u64> = Vec::new();
    for (qi, q) in trace.queries.iter().enumerate() {
        let ids: Vec<usize> = match objects.granularity() {
            Granularity::Table => q
                .tables
                .iter()
                .filter_map(|&t| objects.object_for_table(t).ok())
                .map(|o| o.index())
                .collect(),
            Granularity::Column => q
                .columns
                .iter()
                .filter_map(|&c| objects.object_for_column(c).ok())
                .map(|o| o.index())
                .collect(),
        };
        for idx in ids {
            if let Some(prev) = last_seen[idx] {
                gaps.push((qi - prev) as u64);
            }
            last_seen[idx] = Some(qi);
        }
    }
    gaps.sort_unstable();
    // `p` is a fraction in [0, 1], so the scaled rank lies in
    // `0..gaps.len()`: truncating it is the floor the rank index wants.
    #[allow(clippy::cast_possible_truncation)]
    let pct = |p: f64| -> u64 {
        if gaps.is_empty() {
            0
        } else {
            gaps[((gaps.len() - 1) as f64 * p) as usize]
        }
    };
    let beyond = |cutoff: u64| -> f64 {
        if gaps.is_empty() {
            0.0
        } else {
            let below = gaps.partition_point(|&g| g <= cutoff);
            1.0 - below as f64 / gaps.len() as f64
        }
    };
    let report = GapReport {
        granularity: objects.granularity().label().to_string(),
        gaps: gaps.len() as u64,
        p50: pct(0.5),
        p90: pct(0.9),
        p99: pct(0.99),
        max: gaps.last().copied().unwrap_or(0),
        beyond_1000: beyond(1000),
        beyond_5000: beyond(5000),
    };
    (report, gaps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use byc_catalog::sdss::{build, SdssRelease};
    use byc_workload::{generate, WorkloadConfig};

    fn setup() -> (Trace, ObjectCatalog) {
        let cat = build(SdssRelease::Edr, 1e-3, 1);
        let trace = generate(&cat, &WorkloadConfig::smoke(131, 8000)).unwrap();
        (trace, ObjectCatalog::uniform(&cat, Granularity::Column))
    }

    #[test]
    fn percentiles_are_ordered() {
        let (trace, objects) = setup();
        let (r, gaps) = gap_analysis(&trace, &objects);
        assert!(r.gaps > 0);
        assert!(r.p50 <= r.p90);
        assert!(r.p90 <= r.p99);
        assert!(r.p99 <= r.max);
        assert_eq!(gaps.len() as u64, r.gaps);
        assert!(gaps.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn hot_columns_have_short_median_gaps() {
        let (trace, objects) = setup();
        let (r, _) = gap_analysis(&trace, &objects);
        // Schema locality: the typical re-reference happens within tens
        // of queries.
        assert!(r.p50 < 100, "median gap {}", r.p50);
    }

    #[test]
    fn beyond_fractions_monotone() {
        let (trace, objects) = setup();
        let (r, _) = gap_analysis(&trace, &objects);
        assert!(r.beyond_5000 <= r.beyond_1000);
        assert!((0.0..=1.0).contains(&r.beyond_1000));
    }

    #[test]
    fn recommended_cutoff_respects_tolerance() {
        let (trace, objects) = setup();
        let (r, gaps) = gap_analysis(&trace, &objects);
        if let Some(cutoff) = r.recommended_cutoff(&gaps, 0.01) {
            let below = gaps.partition_point(|&g| g <= cutoff);
            let frac = 1.0 - below as f64 / gaps.len() as f64;
            assert!(frac <= 0.01, "cutoff {cutoff} leaves {frac}");
        }
        // A tolerance of 1 accepts the smallest cutoff.
        assert_eq!(r.recommended_cutoff(&gaps, 1.0), Some(500));
    }

    #[test]
    fn empty_trace_reports_zeroes() {
        let cat = build(SdssRelease::Edr, 1e-4, 1);
        let objects = ObjectCatalog::uniform(&cat, Granularity::Table);
        let empty = Trace {
            name: "e".into(),
            seed: 0,
            queries: vec![],
        };
        let (r, gaps) = gap_analysis(&empty, &objects);
        assert_eq!(r.gaps, 0);
        assert_eq!(r.max, 0);
        assert!(gaps.is_empty());
    }
}
