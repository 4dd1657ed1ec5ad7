//! The first yield decomposition: weights, shares and remainders in
//! lists of their own, the remainders sorted by a stable sort. Result
//! size and row width come from the shipped model, whose arithmetic is
//! unchanged.

use byc_catalog::Catalog;
use byc_engine::{YieldBreakdown, YieldModel};
use byc_sql::ResolvedQuery;
use byc_types::{Bytes, ColumnId};

/// Distribute `total` over weights using largest-remainder rounding, so
/// the shares sum exactly to `total`. Zero-total or all-zero-weight inputs
/// yield all-zero shares.
fn apportion(total: u64, weights: &[f64]) -> Vec<u64> {
    let wsum: f64 = weights.iter().sum();
    if total == 0 || wsum <= 0.0 {
        return vec![0; weights.len()];
    }
    let mut shares: Vec<u64> = Vec::with_capacity(weights.len());
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(weights.len());
    let mut assigned = 0u64;
    for (i, &w) in weights.iter().enumerate() {
        let exact = total as f64 * (w / wsum);
        let floor = exact.floor() as u64;
        shares.push(floor);
        assigned += floor;
        remainders.push((i, exact - floor as f64));
    }
    let mut leftover = total - assigned;
    remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    for (i, _) in remainders {
        if leftover == 0 {
            break;
        }
        shares[i] += 1;
        leftover -= 1;
    }
    shares
}

/// Estimate the yield of `query` and decompose it over tables and
/// columns. Only totals below 2^53 are in its domain: past that the
/// floors can overflow `assigned`.
pub fn estimate(catalog: &Catalog, query: &ResolvedQuery) -> YieldBreakdown {
    let model = YieldModel::new(catalog);
    let mut rows = if query.aggregate_only {
        1.0
    } else {
        model.cardinality(query)
    };
    if let Some(top) = query.top {
        rows = rows.min(top as f64);
    }
    let result_rows = rows.round().max(if rows > 0.0 { 1.0 } else { 0.0 }) as u64;
    let width = model.row_width(query);
    let total = result_rows.saturating_mul(width);

    let table_weights: Vec<f64> = query
        .tables
        .iter()
        .map(|a| a.columns.len() as f64)
        .collect();
    let table_shares = apportion(total, &table_weights);
    let per_table = query
        .tables
        .iter()
        .zip(table_shares)
        .map(|(a, s)| (a.table, Bytes::new(s)))
        .collect();

    let columns: Vec<ColumnId> = query
        .tables
        .iter()
        .flat_map(|a| a.columns.iter().copied())
        .collect();
    let col_weights: Vec<f64> = columns
        .iter()
        .map(|&c| catalog.column(c).width() as f64)
        .collect();
    let col_shares = apportion(total, &col_weights);
    let per_column = columns
        .into_iter()
        .zip(col_shares)
        .map(|(c, s)| (c, Bytes::new(s)))
        .collect();

    YieldBreakdown {
        total: Bytes::new(total),
        result_rows,
        per_table,
        per_column,
    }
}
