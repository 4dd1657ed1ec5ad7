//! Result-size estimation and per-object yield decomposition.
//!
//! The **yield** of a query is the number of bytes in its result (paper
//! §3). It prices both sides of the bypass decision: a bypassed query
//! ships its yield over the WAN; a query served in cache saves that
//! traffic. When a query touches several cacheable objects, the paper
//! decomposes its yield across them (§6):
//!
//! * **table granularity** — "yield for each table or view in a joined
//!   query is divided in proportion to the table's contribution to the
//!   unique attributes in the query";
//! * **column granularity** — "query yield is proportional to each
//!   attribute based on a ratio of storage size of the attribute to the
//!   total storage sizes of all columns referenced in the query".
//!
//! Decompositions use largest-remainder rounding so per-object yields sum
//! exactly to the query yield, for every yield up to `u64::MAX` — an
//! invariant the test suite checks. A query that references no column
//! (a bare `count(*)`) has no object to carry its yield.

use crate::selectivity::{join_selectivity, table_selectivity};
use byc_catalog::Catalog;
use byc_sql::ResolvedQuery;
use byc_types::{Bytes, ColumnId, TableId};

/// Width in bytes of one aggregate output value.
pub const AGGREGATE_VALUE_WIDTH: u64 = 8;

/// Items whose remainder order [`apportion`] sorts without allocating.
const INLINE_ITEMS: usize = 16;

/// A query's estimated yield and its decomposition over objects. The
/// default is the empty breakdown [`YieldModel::estimate_into`] refills.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct YieldBreakdown {
    /// Total result size on the wire.
    pub total: Bytes,
    /// Estimated result cardinality (after filters, joins, and `TOP`).
    pub result_rows: u64,
    /// Yield attributed to each referenced table (sums to `total`).
    pub per_table: Vec<(TableId, Bytes)>,
    /// Yield attributed to each referenced column (sums to `total`).
    pub per_column: Vec<(ColumnId, Bytes)>,
}

impl YieldBreakdown {
    /// Yield attributed to `table`, or zero if not referenced.
    pub fn table_yield(&self, table: TableId) -> Bytes {
        self.per_table
            .iter()
            .find(|(t, _)| *t == table)
            .map(|&(_, y)| y)
            .unwrap_or(Bytes::ZERO)
    }

    /// Yield attributed to `column`, or zero if not referenced.
    pub fn column_yield(&self, column: ColumnId) -> Bytes {
        self.per_column
            .iter()
            .find(|(c, _)| *c == column)
            .map(|&(_, y)| y)
            .unwrap_or(Bytes::ZERO)
    }
}

/// Distribute `total` over weighted items by largest-remainder rounding
/// into `shares`, one `(key, share)` per item in input order. The
/// shares sum exactly to `total`; zero-total or all-zero-weight inputs
/// give all-zero shares.
///
/// Each item's exact share is `total · w / Σw`. Its floor goes straight
/// into the output, and the leftover bytes go out in descending order of
/// the remainders, ties to the earlier item: `leftover / n` to every
/// item and one more to the first `leftover % n`. With integral weights
/// and totals below 2^52 the floors never overshoot `total` and the
/// leftover is at most the item count, so this is the classic rule: a
/// byte each to the largest remainders. Larger totals lose precision in
/// `f64`: the leftover can exceed the item count, and the floors alone
/// can overshoot `total`, so each floor is capped at what is still
/// unassigned.
///
/// The remainder order is sorted on the stack for up to
/// [`INLINE_ITEMS`] items, and in a list of its own past that.
// `as` saturates a share past `u64::MAX`, which the cap then absorbs.
#[allow(clippy::cast_possible_truncation)]
fn apportion<K: Copy>(
    total: u64,
    weights: impl Iterator<Item = (K, f64)> + Clone,
    shares: &mut Vec<(K, Bytes)>,
) {
    shares.clear();
    // Exactly: a fresh list is allocated at its length. Amortized growth
    // allocates at least four items, which measured slower on the one-
    // and two-item lists most queries have.
    shares.reserve_exact(weights.clone().count());
    let wsum: f64 = weights.clone().map(|(_, w)| w).sum();
    if total == 0 || wsum <= 0.0 {
        shares.extend(weights.map(|(key, _)| (key, Bytes::ZERO)));
        return;
    }
    let exact = |w: f64| {
        let fraction: f64 = w / wsum;
        total as f64 * fraction
    };
    let mut assigned = 0u64;
    for (key, w) in weights.clone() {
        let floor = (exact(w).floor() as u64).min(total - assigned);
        assigned += floor;
        shares.push((key, Bytes::new(floor)));
    }
    let leftover = total - assigned;
    if leftover == 0 {
        return;
    }
    let mut inline = [(0usize, 0.0f64); INLINE_ITEMS];
    let mut spilled = Vec::new();
    let order = match inline.get_mut(..shares.len()) {
        Some(order) => order,
        None => {
            spilled.resize(shares.len(), (0, 0.0));
            spilled.as_mut_slice()
        }
    };
    for (slot, (i, (_, w))) in order.iter_mut().zip(weights.enumerate()) {
        let exact = exact(w);
        *slot = (i, exact - (exact.floor() as u64) as f64);
    }
    // Stable: equal remainders keep item order.
    order.sort_by(|a, b| b.1.total_cmp(&a.1));
    let n = order.len() as u64;
    let (each, first) = (
        leftover.checked_div(n).unwrap_or(0),
        leftover.checked_rem(n).unwrap_or(0),
    );
    for (rank, &(i, _)) in (0u64..).zip(order.iter()) {
        if let Some((_, share)) = shares.get_mut(i) {
            *share += Bytes::new(each + u64::from(rank < first));
        }
    }
}

/// Analytic yield estimator over a catalog's statistics.
///
/// ```
/// use byc_catalog::sdss;
/// use byc_engine::YieldModel;
/// use byc_sql::{analyze, parse};
///
/// let catalog = sdss::build(sdss::SdssRelease::Edr, 1e-4, 1);
/// let query = parse("select g.objID, g.ra from Galaxy g \
///                    where g.ra between 10 and 46").unwrap();
/// let resolved = analyze(&catalog, &query).unwrap();
/// let breakdown = YieldModel::new(&catalog).estimate(&resolved);
/// // A 10% sky slice of two columns: yield = rows/10 × 16 bytes.
/// assert!(breakdown.total.raw() > 0);
/// let per_column: u64 = breakdown.per_column.iter().map(|&(_, y)| y.raw()).sum();
/// assert_eq!(per_column, breakdown.total.raw());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct YieldModel<'a> {
    catalog: &'a Catalog,
}

impl<'a> YieldModel<'a> {
    /// Create a model over `catalog`.
    pub fn new(catalog: &'a Catalog) -> Self {
        Self { catalog }
    }

    /// Estimated result cardinality of `query` before `TOP` and
    /// aggregation: product of filtered per-table cardinalities times the
    /// selectivity of each equi-join.
    pub fn cardinality(&self, query: &ResolvedQuery) -> f64 {
        let mut card = 1.0;
        for access in &query.tables {
            let rows = self.catalog.table(access.table).row_count as f64;
            card *= rows * table_selectivity(self.catalog, access);
        }
        for join in &query.joins {
            let left = self.catalog.column(join.left);
            let right = self.catalog.column(join.right);
            card *= join_selectivity(self.catalog, left, right);
        }
        card
    }

    /// Bytes per result row: widths of projected columns plus one slot per
    /// aggregate item.
    pub fn row_width(&self, query: &ResolvedQuery) -> u64 {
        let mut width = query.aggregate_items as u64 * AGGREGATE_VALUE_WIDTH;
        if !query.aggregate_only {
            for access in &query.tables {
                for &cid in &access.projected {
                    width += self.catalog.column(cid).width();
                }
            }
        }
        width
    }

    /// Estimate the yield of `query` and decompose it over tables and
    /// columns into a fresh [`YieldBreakdown`].
    pub fn estimate(&self, query: &ResolvedQuery) -> YieldBreakdown {
        let mut breakdown = YieldBreakdown::default();
        self.estimate_into(query, &mut breakdown);
        breakdown
    }

    /// Estimate the yield of `query` and decompose it over tables and
    /// columns into `out`, refilling its two lists in place: a caller
    /// that estimates many queries into one breakdown allocates only
    /// when a query references more objects than every one before it.
    pub fn estimate_into(&self, query: &ResolvedQuery, out: &mut YieldBreakdown) {
        let mut rows = if query.aggregate_only {
            1.0
        } else {
            self.cardinality(query)
        };
        if let Some(top) = query.top {
            rows = rows.min(top as f64);
        }
        // `as` saturates: a cross join too large for `u64` rows clamps.
        #[allow(clippy::cast_possible_truncation)]
        let result_rows = rows.round().max(if rows > 0.0 { 1.0 } else { 0.0 }) as u64;
        let width = self.row_width(query);
        let total = result_rows.saturating_mul(width);
        out.total = Bytes::new(total);
        out.result_rows = result_rows;

        // Table decomposition: weight = number of unique attributes the
        // table contributes to the query (paper §6 example: a two-table
        // join referencing four columns of each table splits 50/50).
        apportion(
            total,
            query
                .tables
                .iter()
                .map(|a| (a.table, a.columns.len() as f64)),
            &mut out.per_table,
        );

        // Column decomposition: weight = storage width of each referenced
        // column (paper §6: p.objID is 8 of 46 bytes → yield 8/46 · Y).
        apportion(
            total,
            query
                .tables
                .iter()
                .flat_map(|a| &a.columns)
                .map(|&c| (c, self.catalog.column(c).width() as f64)),
            &mut out.per_column,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byc_catalog::{ColumnDef, ColumnType, TableDef};
    use byc_sql::{analyze, parse};
    use byc_types::{Result, ServerId};

    fn catalog() -> Result<Catalog> {
        let mut cat = Catalog::new();
        cat.add_table(TableDef {
            name: "PhotoObj".into(),
            columns: vec![
                ColumnDef::new("objID", ColumnType::BigInt).with_domain(0.0, 1e12),
                ColumnDef::new("ra", ColumnType::Float).with_domain(0.0, 360.0),
                ColumnDef::new("dec", ColumnType::Float).with_domain(-90.0, 90.0),
                ColumnDef::new("modelMag_g", ColumnType::Real).with_domain(10.0, 28.0),
            ],
            row_count: 100_000,
            server: ServerId::new(0),
        })?;
        cat.add_table(TableDef {
            name: "SpecObj".into(),
            columns: vec![
                ColumnDef::new("specObjID", ColumnType::BigInt).with_domain(0.0, 1e12),
                ColumnDef::new("objID", ColumnType::BigInt).with_domain(0.0, 1e12),
                ColumnDef::new("z", ColumnType::Real).with_domain(0.0, 6.0),
                ColumnDef::new("zConf", ColumnType::Real).with_domain(0.0, 1.0),
            ],
            row_count: 1_000,
            server: ServerId::new(0),
        })?;
        Ok(cat)
    }

    fn breakdown(cat: &Catalog, sql: &str) -> Result<YieldBreakdown> {
        let q = parse(sql)?;
        let r = analyze(cat, &q)?;
        Ok(YieldModel::new(cat).estimate(&r))
    }

    #[test]
    fn full_scan_yield_is_projection_width_times_rows() -> Result<()> {
        let cat = catalog()?;
        let b = breakdown(&cat, "select ra, dec from PhotoObj")?;
        assert_eq!(b.result_rows, 100_000);
        assert_eq!(b.total, Bytes::new(100_000 * 16));
        Ok(())
    }

    #[test]
    fn range_scales_rows() -> Result<()> {
        let cat = catalog()?;
        let b = breakdown(&cat, "select ra from PhotoObj where ra between 0 and 36")?;
        assert_eq!(b.result_rows, 10_000);
        assert_eq!(b.total, Bytes::new(10_000 * 8));
        Ok(())
    }

    #[test]
    fn top_caps_rows() -> Result<()> {
        let cat = catalog()?;
        let b = breakdown(&cat, "select top 50 ra from PhotoObj")?;
        assert_eq!(b.result_rows, 50);
        assert_eq!(b.total, Bytes::new(50 * 8));
        Ok(())
    }

    #[test]
    fn aggregate_only_single_row() -> Result<()> {
        let cat = catalog()?;
        let b = breakdown(&cat, "select count(*), max(ra) from PhotoObj")?;
        assert_eq!(b.result_rows, 1);
        assert_eq!(b.total, Bytes::new(2 * AGGREGATE_VALUE_WIDTH));
        Ok(())
    }

    #[test]
    fn join_cardinality_uses_join_selectivity() -> Result<()> {
        let cat = catalog()?;
        // |Photo| * |Spec| / max(d_photo.objID, d_spec.objID)
        //   = 1e5 * 1e3 / 1e5 = 1e3 rows.
        let b = breakdown(
            &cat,
            "select p.ra, s.z from PhotoObj p, SpecObj s where p.objID = s.objID",
        )?;
        assert_eq!(b.result_rows, 1_000);
        assert_eq!(b.total, Bytes::new(1_000 * 12));
        Ok(())
    }

    #[test]
    fn table_decomposition_by_unique_attributes() -> Result<()> {
        let cat = catalog()?;
        // Photo references objID, ra (2 cols); Spec references objID, z (2
        // cols): equal split, like the paper's four-and-four example.
        let b = breakdown(
            &cat,
            "select p.ra, s.z from PhotoObj p, SpecObj s where p.objID = s.objID",
        )?;
        let photo = cat.table_by_name("PhotoObj")?.id;
        let spec = cat.table_by_name("SpecObj")?.id;
        assert_eq!(b.table_yield(photo), b.table_yield(spec));
        let sum: Bytes = b.per_table.iter().map(|&(_, y)| y).sum();
        assert_eq!(sum, b.total);
        Ok(())
    }

    #[test]
    fn table_decomposition_weights_differ() -> Result<()> {
        let cat = catalog()?;
        // Photo references 3 columns, Spec references 1 (via join: objID
        // on both sides counts for each table).
        let b = breakdown(
            &cat,
            "select p.ra, p.dec from PhotoObj p, SpecObj s where p.objID = s.objID",
        )?;
        let photo = cat.table_by_name("PhotoObj")?.id;
        let spec = cat.table_by_name("SpecObj")?.id;
        // Photo: ra, dec, objID = 3; Spec: objID = 1.
        let py = b.table_yield(photo).as_f64();
        let sy = b.table_yield(spec).as_f64();
        assert!((py / (py + sy) - 0.75).abs() < 1e-6);
        Ok(())
    }

    #[test]
    fn column_decomposition_by_width() -> Result<()> {
        let cat = catalog()?;
        let b = breakdown(
            &cat,
            "select ra from PhotoObj where modelMag_g > 17.0 and dec > 0",
        )?;
        // Referenced: ra (8), modelMag_g (4), dec (8) — total 20 bytes.
        let t = cat.table_by_name("PhotoObj")?.id;
        let ra = cat.column_by_name(t, "ra")?.id;
        let mag = cat.column_by_name(t, "modelMag_g")?.id;
        let dec = cat.column_by_name(t, "dec")?.id;
        let total = b.total.as_f64();
        assert!(total > 1e4, "need a large yield for tight ratios: {total}");
        assert!((b.column_yield(ra).as_f64() / total - 8.0 / 20.0).abs() < 1e-3);
        assert!((b.column_yield(mag).as_f64() / total - 4.0 / 20.0).abs() < 1e-3);
        assert!((b.column_yield(dec).as_f64() / total - 8.0 / 20.0).abs() < 1e-3);
        let sum: Bytes = b.per_column.iter().map(|&(_, y)| y).sum();
        assert_eq!(sum, b.total);
        Ok(())
    }

    #[test]
    fn paper_example_column_ratio() -> Result<()> {
        // "Storage of p.objid is 8 bytes ... total storage of all columns
        // is 46 bytes, so its yield is 8/46 * Y."
        let cat = catalog()?;
        let b = breakdown(
            &cat,
            "select p.objID, p.ra, p.dec, p.modelMag_g, s.z \
             from SpecObj s, PhotoObj p \
             where p.objID = s.objID and s.zConf > 0.95 and p.modelMag_g > 17.0",
        )?;
        // Referenced: p.objID 8, p.ra 8, p.dec 8, p.modelMag_g 4,
        //             s.z 4, s.objID 8, s.zConf 4  → 44 bytes total.
        let photo = cat.table_by_name("PhotoObj")?.id;
        let oid = cat.column_by_name(photo, "objID")?.id;
        let frac = b.column_yield(oid).as_f64() / b.total.as_f64();
        // Largest-remainder rounding leaves sub-byte granularity error.
        assert!((frac - 8.0 / 44.0).abs() < 1e-3, "{frac}");
        Ok(())
    }

    #[test]
    fn zero_yield_decomposes_to_zero() -> Result<()> {
        let cat = catalog()?;
        let b = breakdown(&cat, "select ra from PhotoObj where ra > 9999")?;
        // Selectivity floor gives ~0 rows; rounded to 1 row minimum when
        // positive, so check decomposition consistency instead of zero.
        let sum: Bytes = b.per_table.iter().map(|&(_, y)| y).sum();
        assert_eq!(sum, b.total);
        Ok(())
    }

    #[test]
    fn estimate_into_refills_in_place() -> Result<()> {
        let cat = catalog()?;
        let wide = parse(
            "select p.ra, p.dec, s.z from PhotoObj p, SpecObj s \
             where p.objID = s.objID and s.zConf > 0.95",
        )?;
        let narrow = parse("select ra from PhotoObj where ra between 0 and 36")?;
        let (wide, narrow) = (analyze(&cat, &wide)?, analyze(&cat, &narrow)?);
        let model = YieldModel::new(&cat);
        let mut b = YieldBreakdown::default();
        model.estimate_into(&wide, &mut b);
        let capacities = (b.per_table.capacity(), b.per_column.capacity());
        for r in [&narrow, &wide, &narrow] {
            model.estimate_into(r, &mut b);
            assert_eq!(b, model.estimate(r));
            assert_eq!(
                (b.per_table.capacity(), b.per_column.capacity()),
                capacities
            );
        }
        Ok(())
    }

    #[test]
    fn apportion_spills_past_the_inline_order() {
        // One more item than sorts on the stack, with bytes left over.
        let weights = [3.0; INLINE_ITEMS + 1];
        let s = shares(100, &weights);
        assert_eq!(s.iter().sum::<u64>(), 100);
        // 100 = 17 · 5 + 15: the first 15 items take the spare bytes.
        assert_eq!(s.iter().filter(|&&x| x == 6).count(), 15);
        assert!(s[..15].iter().all(|&x| x == 6) && s[15..].iter().all(|&x| x == 5));
    }

    /// `apportion` over plain weights, keyed by position.
    fn shares(total: u64, weights: &[f64]) -> Vec<u64> {
        let mut shares = Vec::new();
        apportion(total, weights.iter().map(|&w| ((), w)), &mut shares);
        shares.into_iter().map(|(_, s)| s.raw()).collect()
    }

    #[test]
    fn cross_join_decompositions_sum_to_total() -> Result<()> {
        // On the benchmark's catalog three copies already saturate the
        // total at `u64::MAX`; four push the floors of the exact shares
        // past it.
        let cat = byc_catalog::sdss::build(byc_catalog::sdss::SdssRelease::Edr, 0.01, 1);
        for sql in [
            "select * from PhotoObj a, PhotoObj b, PhotoObj c",
            "select * from PhotoObj a, PhotoObj b, PhotoObj c, PhotoObj d",
        ] {
            let b = breakdown(&cat, sql)?;
            assert_eq!(b.total, Bytes::new(u64::MAX), "{sql}");
            let tables: u128 = b.per_table.iter().map(|&(_, y)| u128::from(y.raw())).sum();
            let columns: u128 = b.per_column.iter().map(|&(_, y)| u128::from(y.raw())).sum();
            assert_eq!(tables, u128::from(b.total.raw()), "{sql}");
            assert_eq!(columns, u128::from(b.total.raw()), "{sql}");
        }
        Ok(())
    }

    #[test]
    fn apportion_sums_exactly() {
        let s = shares(100, &[1.0, 1.0, 1.0]);
        assert_eq!(s.iter().sum::<u64>(), 100);
        // Equal remainders: the earlier item takes the spare byte.
        assert_eq!(s, vec![34, 33, 33]);
        let s = shares(7, &[3.0, 2.0, 2.0]);
        assert_eq!(s.iter().sum::<u64>(), 7);
        assert_eq!(s[0], 3);
        // The largest remainder wins: 10 · 0.25 and 10 · 0.75.
        assert_eq!(shares(10, &[1.0, 3.0]), vec![3, 7]);
    }

    #[test]
    fn apportion_edge_cases() {
        assert_eq!(shares(0, &[1.0, 2.0]), vec![0, 0]);
        assert_eq!(shares(10, &[0.0, 0.0]), vec![0, 0]);
        assert_eq!(shares(10, &[]), Vec::<u64>::new());
        assert_eq!(shares(10, &[5.0]), vec![10]);
    }

    #[test]
    fn apportion_is_exact_for_every_total() {
        let weights = [8.0, 8.0, 4.0, 4.0, 2.0, 8.0, 4.0, 1.0, 16.0];
        for total in [
            u64::MAX,
            u64::MAX - 1,
            u64::MAX / 3,
            1 << 63,
            (1 << 53) + 1,
            (1 << 53) - 1,
            12_345_678_901,
        ] {
            for n in 1..=weights.len() {
                let s = shares(total, &weights[..n]);
                let sum: u128 = s.iter().map(|&x| u128::from(x)).sum();
                assert_eq!(sum, u128::from(total), "total {total}, {n} items: {s:?}");
            }
        }
    }
}
