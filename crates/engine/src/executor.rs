//! A deterministic synthetic row store that actually executes queries.
//!
//! The analytic [`YieldModel`](crate::YieldModel) is what the simulator
//! uses; this executor exists to *validate* it and to give the examples a
//! tangible query result. Values are synthesized on demand from a seed —
//! value `(table, row, column)` is a pure function — so a "database" of any
//! size costs no memory, and results are reproducible.
//!
//! Execution supports the same subset the parser accepts: conjunctive
//! filters, a single equi-join between two tables, projections, `TOP`, and
//! aggregates. It is intended for small row counts (tests, examples);
//! joins are hash joins but scans are always full scans.

use crate::yield_model::AGGREGATE_VALUE_WIDTH;
use byc_catalog::{Catalog, ColumnType};
use byc_sql::{Aggregate, CompareOp, Literal, Query, ResolvedPredicate, ResolvedQuery, SelectItem};
use byc_types::{Bytes, ColumnId, Error, Result, SplitMix64, TableId};
use std::collections::HashMap;

/// Result of executing a query: materialized projected values and the
/// measured wire size.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultSet {
    /// Number of result rows.
    pub rows: u64,
    /// Measured result size: rows × projected width (aggregates count
    /// [`AGGREGATE_VALUE_WIDTH`] each).
    pub bytes: Bytes,
    /// Projected values, row-major; aggregates produce a single row.
    pub values: Vec<Vec<f64>>,
}

/// Deterministic synthetic row store over a catalog.
#[derive(Clone, Copy, Debug)]
pub struct RowStore<'a> {
    catalog: &'a Catalog,
    seed: u64,
}

impl<'a> RowStore<'a> {
    /// Create a store; `seed` fixes every synthesized value.
    pub fn new(catalog: &'a Catalog, seed: u64) -> Self {
        Self { catalog, seed }
    }

    /// The synthesized value of `(table, row, column)`.
    ///
    /// Primary-key columns (ordinal 0) hold the row index so identity
    /// queries and primary-key joins behave like a real database. Other
    /// integer columns hold uniform integers over their domain; floats are
    /// uniform over their domain.
    pub fn value(&self, table: TableId, row: u64, column: ColumnId) -> f64 {
        let col = self.catalog.column(column);
        debug_assert_eq!(col.table, table, "column does not belong to table");
        if col.ordinal == 0 {
            return row as f64;
        }
        let mut rng = SplitMix64::new(
            self.seed
                ^ (table.raw() as u64).rotate_left(48)
                ^ (column.raw() as u64).rotate_left(24)
                ^ row,
        );
        // One warm-up step decorrelates nearby (row, column) seeds.
        rng.next_u64();
        let u = rng.next_f64();
        let v = col.min_value + u * (col.max_value - col.min_value);
        if col.ty.is_numeric() && !matches!(col.ty, ColumnType::Float | ColumnType::Real) {
            v.floor()
        } else {
            v
        }
    }

    fn filter_rows(&self, table: TableId, filters: &[ResolvedPredicate]) -> Vec<u64> {
        let rows = self.catalog.table(table).row_count;
        (0..rows)
            .filter(|&r| filters.iter().all(|f| self.eval_filter(table, r, f)))
            .collect()
    }

    fn eval_filter(&self, table: TableId, row: u64, pred: &ResolvedPredicate) -> bool {
        match pred {
            ResolvedPredicate::Between { column, lo, hi } => {
                let v = self.value(table, row, *column);
                *lo <= v && v <= *hi
            }
            ResolvedPredicate::Compare { column, op, value } => {
                let v = self.value(table, row, *column);
                let rhs = match value {
                    Literal::Number(n) => *n,
                    // Strings hash to a pseudo-value; text predicates are
                    // out of the validated subset.
                    Literal::Text => return true,
                };
                match op {
                    CompareOp::Eq => v == rhs,
                    CompareOp::Ne => v != rhs,
                    CompareOp::Lt => v < rhs,
                    CompareOp::Le => v <= rhs,
                    CompareOp::Gt => v > rhs,
                    CompareOp::Ge => v >= rhs,
                }
            }
        }
    }

    /// Execute `resolved` (the analysis of `query`) and materialize the
    /// projected result.
    ///
    /// # Errors
    ///
    /// [`Error::Semantic`] for shapes outside the executable subset (more
    /// than two tables, or multi-join queries).
    pub fn execute(&self, query: &Query<'_>, resolved: &ResolvedQuery) -> Result<ResultSet> {
        if resolved.tables.len() > 2 {
            return Err(Error::Semantic(
                "executor supports at most two tables".into(),
            ));
        }
        if resolved.joins.len() > 1 {
            return Err(Error::Semantic("executor supports at most one join".into()));
        }

        // Matching row combinations: (row in table 0, row in table 1).
        let combos: Vec<(u64, Option<u64>)> = if resolved.tables.len() == 1 {
            self.filter_rows(resolved.tables[0].table, &resolved.tables[0].filters)
                .into_iter()
                .map(|r| (r, None))
                .collect()
        } else {
            let t0 = &resolved.tables[0];
            let t1 = &resolved.tables[1];
            let rows0 = self.filter_rows(t0.table, &t0.filters);
            let rows1 = self.filter_rows(t1.table, &t1.filters);
            match resolved.joins.first() {
                Some(j) => {
                    // Orient the join columns to the FROM slots.
                    let (c0, c1) = if self.catalog.column(j.left).table == t0.table {
                        (j.left, j.right)
                    } else {
                        (j.right, j.left)
                    };
                    let mut index: HashMap<u64, Vec<u64>> = HashMap::new();
                    for &r1 in &rows1 {
                        let key = self.value(t1.table, r1, c1).to_bits();
                        index.entry(key).or_default().push(r1);
                    }
                    let mut combos = Vec::new();
                    for &r0 in &rows0 {
                        let key = self.value(t0.table, r0, c0).to_bits();
                        if let Some(matches) = index.get(&key) {
                            for &r1 in matches {
                                combos.push((r0, Some(r1)));
                            }
                        }
                    }
                    combos
                }
                None => {
                    // Cross product (rare; kept for completeness).
                    let mut combos = Vec::new();
                    for &r0 in &rows0 {
                        for &r1 in &rows1 {
                            combos.push((r0, Some(r1)));
                        }
                    }
                    combos
                }
            }
        };

        // Aggregate-only queries reduce to one row.
        if resolved.aggregate_only {
            let mut row = Vec::new();
            for item in &query.projection {
                if let SelectItem::Aggregate { func, arg, .. } = item {
                    let args = arg.as_ref().map(|a| self.arg_values(resolved, &combos, a));
                    row.push(self.aggregate(*func, args, combos.len()));
                }
            }
            let bytes = Bytes::new(row.len() as u64 * AGGREGATE_VALUE_WIDTH);
            return Ok(ResultSet {
                rows: 1,
                bytes,
                values: vec![row],
            });
        }

        // Plain projection.
        let limit = resolved
            .top
            .map_or(usize::MAX, |top| usize::try_from(top).unwrap_or(usize::MAX));
        let mut values = Vec::new();
        let mut width = 0u64;
        for access in &resolved.tables {
            for &cid in &access.projected {
                width += self.catalog.column(cid).width();
            }
        }
        for &(r0, r1) in combos.iter().take(limit) {
            let mut row = Vec::new();
            for (slot, access) in resolved.tables.iter().enumerate() {
                // Non-zero slots only exist for two-table combos, where
                // `r1` is always populated; fall back to `r0` defensively.
                let r = if slot == 0 { r0 } else { r1.unwrap_or(r0) };
                for &cid in &access.projected {
                    row.push(self.value(access.table, r, cid));
                }
            }
            values.push(row);
        }
        let rows = values.len() as u64;
        Ok(ResultSet {
            rows,
            bytes: Bytes::new(rows * width),
            values,
        })
    }

    fn arg_values(
        &self,
        resolved: &ResolvedQuery,
        combos: &[(u64, Option<u64>)],
        arg: &byc_sql::ColumnRef<'_>,
    ) -> Vec<f64> {
        // Locate the argument column in the resolved accesses by name.
        for (slot, access) in resolved.tables.iter().enumerate() {
            for &cid in &access.columns {
                if self.catalog.column(cid).name == arg.column {
                    return combos
                        .iter()
                        .map(|&(r0, r1)| {
                            let r = if slot == 0 { r0 } else { r1.unwrap_or(r0) };
                            self.value(access.table, r, cid)
                        })
                        .collect();
                }
            }
        }
        Vec::new()
    }

    fn aggregate(&self, func: Aggregate, args: Option<Vec<f64>>, count: usize) -> f64 {
        match func {
            Aggregate::Count => count as f64,
            Aggregate::Sum => args.map(|v| v.iter().sum()).unwrap_or(0.0),
            Aggregate::Avg => args
                .filter(|v| !v.is_empty())
                .map(|v| v.iter().sum::<f64>() / v.len() as f64)
                .unwrap_or(0.0),
            Aggregate::Min => args
                .and_then(|v| v.into_iter().reduce(f64::min))
                .unwrap_or(0.0),
            Aggregate::Max => args
                .and_then(|v| v.into_iter().reduce(f64::max))
                .unwrap_or(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::yield_model::YieldModel;
    use byc_catalog::{ColumnDef, TableDef};
    use byc_sql::{analyze, parse};
    use byc_types::ServerId;

    fn catalog(rows_a: u64, rows_b: u64) -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(TableDef {
            name: "A".into(),
            columns: vec![
                ColumnDef::new("id", ColumnType::BigInt).with_domain(0.0, rows_a as f64),
                ColumnDef::new("x", ColumnType::Float).with_domain(0.0, 100.0),
                ColumnDef::new("k", ColumnType::SmallInt).with_domain(0.0, 3.0),
            ],
            row_count: rows_a,
            server: ServerId::new(0),
        })
        .unwrap();
        cat.add_table(TableDef {
            name: "B".into(),
            columns: vec![
                ColumnDef::new("id", ColumnType::BigInt).with_domain(0.0, rows_b as f64),
                // Foreign key into A: uniform integers over A's row ids.
                ColumnDef::new("aId", ColumnType::BigInt).with_domain(0.0, rows_a as f64),
                ColumnDef::new("y", ColumnType::Float).with_domain(0.0, 1.0),
            ],
            row_count: rows_b,
            server: ServerId::new(0),
        })
        .unwrap();
        cat
    }

    fn run(cat: &Catalog, sql: &str) -> ResultSet {
        let q = parse(sql).unwrap();
        let r = analyze(cat, &q).unwrap();
        RowStore::new(cat, 42).execute(&q, &r).unwrap()
    }

    #[test]
    fn full_scan_returns_all_rows() {
        let cat = catalog(100, 10);
        let rs = run(&cat, "select x from A");
        assert_eq!(rs.rows, 100);
        assert_eq!(rs.bytes, Bytes::new(100 * 8));
        assert_eq!(rs.values.len(), 100);
    }

    #[test]
    fn values_are_deterministic() {
        let cat = catalog(50, 10);
        let a = run(&cat, "select x from A");
        let b = run(&cat, "select x from A");
        assert_eq!(a, b);
    }

    #[test]
    fn primary_key_is_row_index() {
        let cat = catalog(10, 10);
        let rs = run(&cat, "select id from A");
        for (i, row) in rs.values.iter().enumerate() {
            assert_eq!(row[0], i as f64);
        }
    }

    #[test]
    fn identity_query_returns_one_row() {
        let cat = catalog(100, 10);
        let rs = run(&cat, "select x from A where id = 7");
        assert_eq!(rs.rows, 1);
    }

    #[test]
    fn range_filter_fraction_close_to_selectivity() {
        let cat = catalog(2_000, 10);
        let rs = run(&cat, "select x from A where x between 0 and 25");
        let frac = rs.rows as f64 / 2_000.0;
        assert!((frac - 0.25).abs() < 0.05, "{frac}");
    }

    #[test]
    fn top_limits_rows() {
        let cat = catalog(100, 10);
        let rs = run(&cat, "select top 5 x from A");
        assert_eq!(rs.rows, 5);
    }

    #[test]
    fn count_star_matches_rows() {
        let cat = catalog(500, 10);
        let all = run(&cat, "select x from A where k = 1");
        let agg = run(&cat, "select count(*) from A where k = 1");
        assert_eq!(agg.rows, 1);
        assert_eq!(agg.values[0][0], all.rows as f64);
        assert_eq!(agg.bytes, Bytes::new(8));
    }

    #[test]
    fn min_max_avg_consistent() {
        let cat = catalog(300, 10);
        let rs = run(&cat, "select min(x), max(x), avg(x) from A");
        let (mn, mx, avg) = (rs.values[0][0], rs.values[0][1], rs.values[0][2]);
        assert!(mn <= avg && avg <= mx);
        assert!(mn >= 0.0 && mx <= 100.0);
    }

    #[test]
    fn pk_fk_join_row_count() {
        let cat = catalog(100, 400);
        // Every B row joins exactly one A row (aId uniform over A ids).
        let rs = run(&cat, "select a.x, b.y from A a, B b where a.id = b.aId");
        assert_eq!(rs.rows, 400);
        assert_eq!(rs.bytes, Bytes::new(400 * 16));
    }

    #[test]
    fn join_with_filter_reduces() {
        let cat = catalog(100, 400);
        let all = run(&cat, "select a.x from A a, B b where a.id = b.aId");
        let filt = run(
            &cat,
            "select a.x from A a, B b where a.id = b.aId and b.y < 0.5",
        );
        assert!(filt.rows < all.rows);
        assert!(filt.rows > 0);
    }

    #[test]
    fn three_tables_rejected() {
        let cat = catalog(10, 10);
        let q = parse("select a.x from A a, B b, A c").unwrap();
        // analyze rejects duplicate binding of A? No: alias differs, fine.
        let r = analyze(&cat, &q).unwrap();
        assert!(RowStore::new(&cat, 1).execute(&q, &r).is_err());
    }

    #[test]
    fn measured_bytes_track_analytic_yield() {
        let cat = catalog(5_000, 10);
        let sql = "select x from A where x between 10 and 60";
        let q = parse(sql).unwrap();
        let r = analyze(&cat, &q).unwrap();
        let measured = RowStore::new(&cat, 7).execute(&q, &r).unwrap();
        let estimated = YieldModel::new(&cat).estimate(&r);
        let ratio = measured.bytes.as_f64() / estimated.total.as_f64();
        assert!(
            (0.85..1.15).contains(&ratio),
            "measured {} vs estimated {} (ratio {ratio})",
            measured.bytes,
            estimated.total
        );
    }
}
