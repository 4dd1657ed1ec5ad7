//! Selectivity estimation over uniform-domain column statistics.
//!
//! Each catalog column carries a value domain `[min, max]`. We assume
//! values are uniform over the domain — the classic System-R assumptions
//! (uniformity, independence, inclusion). The workload generator draws
//! predicate ranges against the same domains, so estimated selectivities
//! are exact for range predicates, which dominate the SDSS workload.

use byc_catalog::{Catalog, Column, ColumnType};
use byc_sql::{CompareOp, Literal, ResolvedPredicate, TableAccess};

/// Selectivity assigned to equality on a string column (no string
/// histograms; matches the conventional 1/10 heuristic).
pub const TEXT_EQ_SELECTIVITY: f64 = 0.1;

/// Estimated number of distinct values in a column.
///
/// Integer columns are assumed dense over their domain (capped by the row
/// count); floating-point columns are assumed to have as many distinct
/// values as rows.
pub fn distinct_estimate(column: &Column, row_count: u64) -> f64 {
    let rows = row_count.max(1) as f64;
    match column.ty {
        ColumnType::BigInt | ColumnType::Int | ColumnType::SmallInt => {
            let span = (column.max_value - column.min_value).abs() + 1.0;
            span.min(rows).max(1.0)
        }
        ColumnType::Float | ColumnType::Real => rows,
        ColumnType::Char(_) => (rows / 10.0).max(1.0),
    }
}

fn domain_fraction(column: &Column, lo: f64, hi: f64) -> f64 {
    let span = column.max_value - column.min_value;
    if span <= 0.0 {
        // Degenerate single-point domain: any overlapping range selects all.
        return if lo <= column.min_value && hi >= column.max_value {
            1.0
        } else {
            0.0
        };
    }
    let lo_c = lo.max(column.min_value);
    let hi_c = hi.min(column.max_value);
    let fraction: f64 = (hi_c - lo_c) / span;
    fraction.clamp(0.0, 1.0)
}

/// Estimated selectivity of one resolved predicate.
pub fn predicate_selectivity(catalog: &Catalog, pred: &ResolvedPredicate) -> f64 {
    let column = catalog.column(pred.column());
    let rows = catalog.table(column.table).row_count;
    match pred {
        ResolvedPredicate::Between { lo, hi, .. } => domain_fraction(column, *lo, *hi),
        ResolvedPredicate::Compare { op, value, .. } => match (op, value) {
            (CompareOp::Eq, Literal::Number(_)) => 1.0 / distinct_estimate(column, rows),
            (CompareOp::Eq, Literal::Text) => TEXT_EQ_SELECTIVITY,
            (CompareOp::Ne, Literal::Number(_)) => 1.0 - 1.0 / distinct_estimate(column, rows),
            (CompareOp::Ne, Literal::Text) => 1.0 - TEXT_EQ_SELECTIVITY,
            (CompareOp::Lt, Literal::Number(v)) | (CompareOp::Le, Literal::Number(v)) => {
                domain_fraction(column, column.min_value, *v)
            }
            (CompareOp::Gt, Literal::Number(v)) | (CompareOp::Ge, Literal::Number(v)) => {
                domain_fraction(column, *v, column.max_value)
            }
            // Ordered comparison on text: fall back to an uninformative half.
            (_, Literal::Text) => 0.5,
        },
    }
}

/// Combined selectivity of all filters on one table, assuming predicate
/// independence (product rule). Clamped to a small positive floor so that
/// heavily-filtered estimates never round a nonempty result to zero rows.
pub fn table_selectivity(catalog: &Catalog, access: &TableAccess) -> f64 {
    let mut sel = 1.0;
    for f in &access.filters {
        sel *= predicate_selectivity(catalog, f);
    }
    sel.clamp(1e-12, 1.0)
}

/// Estimated selectivity of an equi-join between two columns: the standard
/// `1 / max(d_left, d_right)` rule.
pub fn join_selectivity(catalog: &Catalog, left: &Column, right: &Column) -> f64 {
    let dl = distinct_estimate(left, catalog.table(left.table).row_count);
    let dr = distinct_estimate(right, catalog.table(right.table).row_count);
    1.0 / dl.max(dr).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use byc_catalog::{ColumnDef, TableDef};
    use byc_sql::{analyze, parse};
    use byc_types::ServerId;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(TableDef {
            name: "T".into(),
            columns: vec![
                ColumnDef::new("id", ColumnType::BigInt).with_domain(0.0, 1e12),
                ColumnDef::new("ra", ColumnType::Float).with_domain(0.0, 360.0),
                ColumnDef::new("klass", ColumnType::SmallInt).with_domain(0.0, 7.0),
                ColumnDef::new("name", ColumnType::Char(16)),
            ],
            row_count: 10_000,
            server: ServerId::new(0),
        })
        .unwrap();
        cat
    }

    fn sel_of(cat: &Catalog, sql: &str) -> f64 {
        let q = parse(sql).unwrap();
        let r = analyze(cat, &q).unwrap();
        table_selectivity(cat, &r.tables[0])
    }

    #[test]
    fn between_is_domain_fraction() {
        let cat = catalog();
        let s = sel_of(&cat, "select ra from T where ra between 0 and 36");
        assert!((s - 0.1).abs() < 1e-9, "{s}");
    }

    #[test]
    fn open_ranges() {
        let cat = catalog();
        let s = sel_of(&cat, "select ra from T where ra > 180");
        assert!((s - 0.5).abs() < 1e-9);
        let s = sel_of(&cat, "select ra from T where ra <= 90");
        assert!((s - 0.25).abs() < 1e-9);
    }

    #[test]
    fn range_clamped_to_domain() {
        let cat = catalog();
        let s = sel_of(&cat, "select ra from T where ra between 300 and 999");
        assert!((s - 60.0 / 360.0).abs() < 1e-9);
        let s = sel_of(&cat, "select ra from T where ra > 400");
        assert_eq!(s, 1e-12); // clamped floor, empty range
    }

    #[test]
    fn equality_on_small_int_domain() {
        let cat = catalog();
        // klass has 8 distinct values (0..=7).
        let s = sel_of(&cat, "select ra from T where klass = 3");
        assert!((s - 1.0 / 8.0).abs() < 1e-9, "{s}");
    }

    #[test]
    fn inequality_complements_equality() {
        let cat = catalog();
        let eq = sel_of(&cat, "select ra from T where klass = 3");
        let ne = sel_of(&cat, "select ra from T where klass <> 3");
        assert!((eq + ne - 1.0).abs() < 1e-9);
    }

    #[test]
    fn text_equality_heuristic() {
        let cat = catalog();
        let s = sel_of(&cat, "select ra from T where name = 'X'");
        assert!((s - TEXT_EQ_SELECTIVITY).abs() < 1e-12);
    }

    #[test]
    fn conjunction_multiplies() {
        let cat = catalog();
        let s = sel_of(
            &cat,
            "select ra from T where ra between 0 and 36 and klass = 3",
        );
        assert!((s - 0.1 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn distinct_caps_at_rows() {
        let cat = catalog();
        let id = cat
            .column_by_name(cat.table_by_name("T").unwrap().id, "id")
            .unwrap();
        // Domain span 1e12 but only 10_000 rows.
        assert_eq!(distinct_estimate(id, 10_000), 10_000.0);
    }

    #[test]
    fn float_distinct_is_rows() {
        let cat = catalog();
        let ra = cat
            .column_by_name(cat.table_by_name("T").unwrap().id, "ra")
            .unwrap();
        assert_eq!(distinct_estimate(ra, 10_000), 10_000.0);
    }

    #[test]
    fn join_selectivity_uses_larger_side() {
        let cat = catalog();
        let t = cat.table_by_name("T").unwrap().id;
        let id = cat.column_by_name(t, "id").unwrap();
        let s = join_selectivity(&cat, id, id);
        assert!((s - 1.0 / 10_000.0).abs() < 1e-12);
    }

    #[test]
    fn no_filters_is_one() {
        let cat = catalog();
        let s = sel_of(&cat, "select ra from T");
        assert_eq!(s, 1.0);
    }
}
