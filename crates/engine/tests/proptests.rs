//! Property tests for the yield model: decompositions always sum to the
//! query yield, selectivities stay in [0, 1], and the executor agrees
//! with the analytic model on randomly generated range scans.

use byc_catalog::{Catalog, ColumnDef, ColumnType, TableDef};
use byc_engine::executor::RowStore;
use byc_engine::{table_selectivity, YieldModel};
use byc_sql::{analyze, parse};
use byc_types::ServerId;
use proptest::prelude::*;

fn test_catalog(rows: u64) -> Catalog {
    let mut cat = Catalog::new();
    cat.add_table(TableDef {
        name: "T".into(),
        columns: vec![
            ColumnDef::new("id", ColumnType::BigInt).with_domain(0.0, rows as f64),
            ColumnDef::new("x", ColumnType::Float).with_domain(0.0, 100.0),
            ColumnDef::new("y", ColumnType::Real).with_domain(-50.0, 50.0),
            ColumnDef::new("k", ColumnType::SmallInt).with_domain(0.0, 9.0),
            ColumnDef::new("w", ColumnType::Float).with_domain(0.0, 1.0),
        ],
        row_count: rows,
        server: ServerId::new(0),
    })
    .unwrap();
    cat
}

fn projection() -> impl Strategy<Value = Vec<&'static str>> {
    proptest::sample::subsequence(vec!["x", "y", "k", "w"], 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Per-table and per-column decompositions always sum exactly to the
    /// total, whatever the projection and range.
    #[test]
    fn decomposition_sums_to_total(
        cols in projection(),
        lo in 0.0..100.0f64,
        span in 0.0..100.0f64,
    ) {
        let cat = test_catalog(10_000);
        let hi = (lo + span).min(100.0);
        let sql = format!(
            "select {} from T where x between {lo} and {hi}",
            cols.join(", ")
        );
        let q = parse(&sql).unwrap();
        let r = analyze(&cat, &q).unwrap();
        let b = YieldModel::new(&cat).estimate(&r);
        let table_sum: u64 = b.per_table.iter().map(|&(_, y)| y.raw()).sum();
        let col_sum: u64 = b.per_column.iter().map(|&(_, y)| y.raw()).sum();
        prop_assert_eq!(table_sum, b.total.raw());
        prop_assert_eq!(col_sum, b.total.raw());
    }

    /// Selectivity estimates are probabilities, and wider ranges never
    /// select less.
    #[test]
    fn selectivity_monotone_in_range(
        lo in 0.0..100.0f64,
        span_a in 0.0..50.0f64,
        extra in 0.0..50.0f64,
    ) {
        let cat = test_catalog(1_000);
        let sel_of = |lo: f64, hi: f64| {
            let sql = format!("select x from T where x between {lo} and {hi}");
            let q = parse(&sql).unwrap();
            let r = analyze(&cat, &q).unwrap();
            table_selectivity(&cat, &r.tables[0])
        };
        let narrow = sel_of(lo, lo + span_a);
        let wide = sel_of(lo, lo + span_a + extra);
        prop_assert!((0.0..=1.0).contains(&narrow));
        prop_assert!((0.0..=1.0).contains(&wide));
        prop_assert!(wide + 1e-12 >= narrow);
    }

    /// Executor row counts agree with the analytic cardinality within
    /// binomial noise for uniform range scans.
    #[test]
    fn executor_tracks_cardinality(
        seed in any::<u64>(),
        lo in 0.0..80.0f64,
        span in 5.0..20.0f64,
    ) {
        let rows = 4_000u64;
        let cat = test_catalog(rows);
        let hi = (lo + span).min(100.0);
        let sql = format!("select x from T where x between {lo} and {hi}");
        let q = parse(&sql).unwrap();
        let r = analyze(&cat, &q).unwrap();
        let expected = YieldModel::new(&cat).cardinality(&r);
        let measured = RowStore::new(&cat, seed).execute(&q, &r).unwrap().rows as f64;
        // 5-sigma binomial envelope.
        let p = (expected / rows as f64).clamp(0.0, 1.0);
        let sigma = (rows as f64 * p * (1.0 - p)).sqrt();
        prop_assert!(
            (measured - expected).abs() <= 5.0 * sigma + 2.0,
            "measured {measured}, expected {expected}, sigma {sigma}"
        );
    }

    /// TOP always caps the result, and the yield scales with the cap.
    #[test]
    fn top_caps_yield(n in 1u64..500) {
        let cat = test_catalog(1_000);
        let sql = format!("select top {n} x, y from T");
        let q = parse(&sql).unwrap();
        let r = analyze(&cat, &q).unwrap();
        let b = YieldModel::new(&cat).estimate(&r);
        prop_assert!(b.result_rows <= n);
        prop_assert_eq!(b.total.raw(), b.result_rows * 12);
    }
}
