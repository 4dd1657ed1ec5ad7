//! Parsers for the text `byc run` and `byc sweep` print, and the checks
//! every printed table must pass.

use crate::stats::geometric_mean;

/// The cost table and counts line `byc run` prints.
#[derive(Clone, Debug, PartialEq)]
pub struct RunTable {
    /// Queries replayed.
    pub queries: u64,
    /// Sequence cost (the no-caching WAN cost), GB.
    pub seq_gb: f64,
    /// Bypass traffic, GB.
    pub bypass_gb: f64,
    /// Cache-load traffic, GB.
    pub fetch_gb: f64,
    /// Total WAN cost, GB.
    pub total_gb: f64,
    /// `[hits, bypasses, loads, evictions]`.
    pub counts: [u64; 4],
}

impl RunTable {
    /// Sequence cost over WAN cost, from the table's printed values.
    pub fn wan_reduction_x(&self) -> f64 {
        self.seq_gb / self.total_gb
    }

    /// Problems with the table: a fault-free flat run's Total must equal
    /// Bypass + Fetch to the printed two decimals (each value carries up
    /// to half a unit of rounding).
    pub fn problems(&self, expected_queries: u64) -> Vec<String> {
        let mut out = Vec::new();
        if (self.total_gb - (self.bypass_gb + self.fetch_gb)).abs() > 0.015 + 1e-9 {
            out.push(format!(
                "cost table: Total {:.2} != Bypass {:.2} + Fetch {:.2}",
                self.total_gb, self.bypass_gb, self.fetch_gb
            ));
        }
        if self.queries != expected_queries {
            out.push(format!(
                "cost table: {} queries replayed, expected {expected_queries}",
                self.queries
            ));
        }
        if self.total_gb.is_nan() || self.total_gb <= 0.0 {
            out.push("cost table: zero WAN cost".into());
        }
        out
    }
}

/// Parse `byc run` output: the first data row under the cost table's
/// dashed rule, and the `hits N | bypasses N | ...` line.
pub fn parse_run(out: &str) -> Result<RunTable, String> {
    let mut lines = out.lines();
    lines
        .by_ref()
        .find(|l| l.starts_with("----"))
        .ok_or("no cost table in `byc run` output")?;
    let row: Vec<&str> = lines
        .next()
        .ok_or("cost table has no rows")?
        .split_whitespace()
        .collect();
    // Set N  VERSION  QUERIES  SEQ  POLICY  BYPASS  FETCH  TOTAL
    let num = |i: usize| -> Result<f64, String> {
        row.get(i)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("cost table row {row:?}: no number at column {i}"))
    };
    if row.len() != 9 {
        return Err(format!(
            "cost table row {row:?} has {} columns, expected 9",
            row.len()
        ));
    }
    let counts_line = out
        .lines()
        .find(|l| l.starts_with("hits "))
        .ok_or("no `hits ... | evictions ...` line in `byc run` output")?;
    let count = |key: &str| -> Result<u64, String> {
        counts_line
            .split(" | ")
            .find_map(|part| part.strip_prefix(key)?.strip_prefix(' ')?.parse().ok())
            .ok_or_else(|| format!("counts line {counts_line:?} lacks {key}"))
    };
    Ok(RunTable {
        queries: num(3)? as u64,
        seq_gb: num(4)?,
        bypass_gb: num(6)?,
        fetch_gb: num(7)?,
        total_gb: num(8)?,
        counts: [
            count("hits")?,
            count("bypasses")?,
            count("loads")?,
            count("evictions")?,
        ],
    })
}

/// The policy × cache-fraction grid of total WAN cost `byc sweep`
/// prints, in GB to one decimal.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepTable {
    /// Cache fractions, one per column.
    pub fractions: Vec<f64>,
    /// `(policy label, total GB per fraction)`, in printed order.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl SweepTable {
    /// Number of replays the grid stands for.
    pub fn cells(&self) -> usize {
        self.rows.len() * self.fractions.len()
    }

    /// The printed cell for `policy` at `fraction`.
    pub fn cell(&self, policy: &str, fraction: f64) -> Option<f64> {
        let col = self
            .fractions
            .iter()
            .position(|f| (f - fraction).abs() < 1e-9)?;
        let (_, row) = self.rows.iter().find(|(p, _)| p == policy)?;
        row.get(col).copied()
    }

    fn no_cache(&self) -> Option<&[f64]> {
        self.rows
            .iter()
            .find(|(p, _)| p == "NoCache")
            .map(|(_, r)| r.as_slice())
    }

    /// Geometric mean over every caching cell of NoCache's cost over the
    /// cell's cost. Cells printed as 0.0 cost under 0.05 GB and have no
    /// finite ratio; they are left out (only tiny smoke inputs have them).
    pub fn wan_reduction_x(&self) -> f64 {
        let Some(base) = self.no_cache() else {
            return f64::NAN;
        };
        let ratios: Vec<f64> = self
            .rows
            .iter()
            .filter(|(p, _)| p != "NoCache")
            .flat_map(|(_, row)| row.iter().zip(base))
            .filter(|(cost, _)| **cost > 0.0)
            .map(|(cost, seq)| seq / cost)
            .collect();
        geometric_mean(&ratios)
    }

    /// Problems with the grid: NoCache must be present and cost the
    /// same at every cache size, and some caching cell must be priced.
    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        match self.no_cache() {
            None => out.push("sweep table has no NoCache row".into()),
            Some(row) if row.iter().any(|c| c != &row[0]) => {
                out.push(format!(
                    "sweep table: NoCache cost varies with cache size: {row:?}"
                ));
            }
            Some(_) => {}
        }
        if self.rows.len() < 2 || !self.wan_reduction_x().is_finite() {
            out.push("sweep table: no priced caching cell".into());
        }
        out
    }
}

/// Parse `byc sweep` output: the `% of DB` header row and every policy
/// row under it.
pub fn parse_sweep(out: &str) -> Result<SweepTable, String> {
    let mut lines = out.lines();
    let header = lines
        .by_ref()
        .find_map(|l| l.strip_prefix("% of DB"))
        .ok_or("no `% of DB` header in `byc sweep` output")?;
    let fractions = header
        .split_whitespace()
        .map(|p| p.parse::<f64>().map(|p| p / 100.0))
        .collect::<Result<Vec<f64>, _>>()
        .map_err(|e| format!("sweep header {header:?}: {e}"))?;
    let mut rows = Vec::new();
    for line in lines {
        let mut fields = line.split_whitespace();
        let Some(policy) = fields.next() else { break };
        let Ok(costs) = fields.map(str::parse).collect::<Result<Vec<f64>, _>>() else {
            break;
        };
        if costs.len() != fractions.len() {
            break;
        }
        rows.push((policy.to_string(), costs));
    }
    if rows.is_empty() {
        return Err("sweep table has no policy rows".into());
    }
    Ok(SweepTable { fractions, rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUN: &str = "\
Rate-Profile on EDR (column caching, cache 15% = 857.94 MiB)
Data Set Version   Queries  Seq Cost (GB) Algorithm           Bypass (GB)   Fetch (GB)   Total (GB)
----------------------------------------------------------------------------------------------------
Set 1    EDR        100000          39.39 Rate-Profile               1.60         0.86         2.45
hits 410024 | bypasses 36498 | loads 62 | evictions 0 | traffic reduction 16.1x | byte hit rate 96.0%
";

    const SWEEP: &str = "\
total WAN cost (GB) vs cache size, column caching, trace EDR, three-tier topology
% of DB                 10        20        30        40        50        75       100
Rate-Profile           7.8       8.1       8.1       8.1       8.1       8.1       8.1
OnlineBY              14.3       6.0       6.0       6.0       6.0       6.0       6.0
SpaceEffBY            10.1       5.6       4.8       4.8       4.8       4.8       4.8
GDS                 5060.8     102.2      46.9      10.1       8.0       8.0       8.0
Static                 6.2       6.1       6.1       6.1       6.1       6.1       6.1
NoCache               84.0      84.0      84.0      84.0      84.0      84.0      84.0
wrote metrics (json) to results/benchmark/sweep.metrics.json
";

    #[test]
    fn parses_captured_run_output() {
        let t = parse_run(RUN).unwrap();
        assert_eq!(t.queries, 100_000);
        assert_eq!(
            (t.seq_gb, t.bypass_gb, t.fetch_gb, t.total_gb),
            (39.39, 1.60, 0.86, 2.45)
        );
        assert_eq!(t.counts, [410_024, 36_498, 62, 0]);
        assert!((t.wan_reduction_x() - 39.39 / 2.45).abs() < 1e-12);
        assert!(t.problems(100_000).is_empty());
        assert_eq!(t.problems(99).len(), 1);
    }

    #[test]
    fn run_total_must_add_up() {
        let broken = RUN.replace("2.45", "2.49");
        let t = parse_run(&broken).unwrap();
        assert!(t.problems(100_000)[0].contains("Total 2.49"));
    }

    #[test]
    fn run_parser_rejects_missing_parts() {
        assert!(parse_run("byc: unknown policy").is_err());
        let no_counts: String = RUN.lines().take(4).collect::<Vec<_>>().join("\n");
        assert!(parse_run(&no_counts).unwrap_err().contains("hits"));
    }

    #[test]
    fn parses_captured_sweep_output() {
        let t = parse_sweep(SWEEP).unwrap();
        assert_eq!(t.fractions, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.75, 1.0]);
        assert_eq!(t.rows.len(), 6);
        assert_eq!(t.cells(), 42);
        assert_eq!(t.cell("GDS", 0.1), Some(5060.8));
        assert_eq!(t.cell("Static", 0.75), Some(6.1));
        assert_eq!(t.cell("LRU", 0.1), None);
        assert!(t.problems().is_empty());
        let ratios: Vec<f64> = t.rows[..5]
            .iter()
            .flat_map(|(_, r)| r.iter().map(|c| 84.0 / c))
            .collect();
        assert!((t.wan_reduction_x() - geometric_mean(&ratios)).abs() < 1e-12);
    }

    #[test]
    fn sweep_checks_no_cache_row() {
        let varying = SWEEP.replace(
            "NoCache               84.0      84.0",
            "NoCache               84.0      84.1",
        );
        assert!(parse_sweep(&varying).unwrap().problems()[0].contains("varies"));
        let missing: String = SWEEP
            .lines()
            .filter(|l| !l.starts_with("NoCache"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(parse_sweep(&missing).unwrap().wan_reduction_x().is_nan());
        assert!(parse_sweep("no table").is_err());
    }

    #[test]
    fn zero_cells_leave_the_geometric_mean() {
        let t = SweepTable {
            fractions: vec![0.1, 1.0],
            rows: vec![
                ("Static".into(), vec![0.5, 0.0]),
                ("NoCache".into(), vec![2.0, 2.0]),
            ],
        };
        assert_eq!(t.wan_reduction_x(), 4.0);
    }
}
