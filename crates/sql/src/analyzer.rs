//! Semantic analysis: resolve a parsed [`Query`] against a [`Catalog`].
//!
//! The analyzer produces the flat, id-based view of a query that the
//! engine's yield model and the workload analyses consume: which tables are
//! touched, which columns of each table are referenced (projection +
//! predicates), the filter predicates per table, and the equi-join pairs.
//! Qualifiers resolve against the query's own `FROM` list and column
//! names against the catalog's per-table index. The result borrows
//! nothing, so [`analyze_into`] can refill one [`ResolvedQuery`] for
//! query after query without allocating once its lists are wide enough.

use crate::ast::{ColumnRef, CompareOp, Predicate, Query, SelectItem, TableRef, Value};
use byc_catalog::Catalog;
use byc_types::{ColumnId, Error, Result, TableId};

/// A filter's literal as the yield model reads it: a number's value,
/// and of a string only that it is one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Literal {
    /// Numeric literal.
    Number(f64),
    /// String literal.
    Text,
}

/// A resolved single-table filter predicate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ResolvedPredicate {
    /// `column OP literal`.
    Compare {
        /// Constrained column.
        column: ColumnId,
        /// Operator.
        op: CompareOp,
        /// Literal value.
        value: Literal,
    },
    /// `column BETWEEN lo AND hi`.
    Between {
        /// Constrained column.
        column: ColumnId,
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
}

impl ResolvedPredicate {
    /// The column this predicate constrains.
    pub fn column(&self) -> ColumnId {
        match self {
            ResolvedPredicate::Compare { column, .. } => *column,
            ResolvedPredicate::Between { column, .. } => *column,
        }
    }
}

/// Everything the query touches in one table.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TableAccess {
    /// The table.
    pub table: TableId,
    /// All columns of this table the query references, deduplicated, in
    /// first-reference order (projection, then predicates, then joins).
    pub columns: Vec<ColumnId>,
    /// Columns of this table that appear in the projection (wildcards
    /// expanded; aggregate arguments included).
    pub projected: Vec<ColumnId>,
    /// Filter predicates on this table.
    pub filters: Vec<ResolvedPredicate>,
}

impl TableAccess {
    fn touch(&mut self, col: ColumnId) {
        if !self.columns.contains(&col) {
            self.columns.push(col);
        }
    }

    fn project(&mut self, col: ColumnId) {
        self.touch(col);
        if !self.projected.contains(&col) {
            self.projected.push(col);
        }
    }

    fn add_filter(&mut self, pred: ResolvedPredicate) {
        self.touch(pred.column());
        self.filters.push(pred);
    }
}

/// An equi-join between columns of two different tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JoinPair {
    /// Column on one side.
    pub left: ColumnId,
    /// Column on the other side.
    pub right: ColumnId,
}

/// The resolved, id-based view of a query.
///
/// Two resolutions are equal when their public fields are: the entries
/// a narrower refill parked for reuse are not part of the value.
#[derive(Clone, Debug, Default)]
pub struct ResolvedQuery {
    /// Per-table access information, in `FROM` order.
    pub tables: Vec<TableAccess>,
    /// Cross-table equi-joins.
    pub joins: Vec<JoinPair>,
    /// True iff every projection item is an aggregate (single-row result).
    pub aggregate_only: bool,
    /// Number of aggregate items in the projection (each contributes one
    /// 8-byte value per result row to the yield model).
    pub aggregate_items: u32,
    /// `TOP n` limit, if present.
    pub top: Option<u64>,
    /// Table entries past the last refill's `FROM` list, kept with their
    /// lists for the next wider one, the nearest slot's last.
    spare: Vec<TableAccess>,
}

impl PartialEq for ResolvedQuery {
    fn eq(&self, other: &Self) -> bool {
        self.tables == other.tables
            && self.joins == other.joins
            && self.aggregate_only == other.aggregate_only
            && self.aggregate_items == other.aggregate_items
            && self.top == other.top
    }
}

impl ResolvedQuery {
    /// Ids of all referenced tables, in `FROM` order.
    pub fn table_ids(&self) -> impl Iterator<Item = TableId> + '_ {
        self.tables.iter().map(|t| t.table)
    }

    /// Ids of all referenced columns across all tables.
    pub fn column_ids(&self) -> impl Iterator<Item = ColumnId> + '_ {
        self.tables.iter().flat_map(|t| t.columns.iter().copied())
    }

    /// The access entry for `table`, if referenced.
    pub fn access(&self, table: TableId) -> Option<&TableAccess> {
        self.tables.iter().find(|t| t.table == table)
    }

    /// Empty every list for a query of `tables` `FROM` entries, keeping
    /// the buffers: entries past `tables` are parked in `spare`, and a
    /// slot is filled from there before a new entry is made, so each
    /// slot keeps its own lists.
    fn reset(&mut self, tables: usize) {
        if self.tables.len() > tables {
            self.spare.extend(self.tables.drain(tables..).rev());
        }
        let spare = &mut self.spare;
        // Exactly, as the yield model's lists: a fresh resolution's table
        // list is allocated at its length.
        self.tables
            .reserve_exact(tables.saturating_sub(self.tables.len()));
        self.tables
            .resize_with(tables, || spare.pop().unwrap_or_default());
        for access in &mut self.tables {
            access.columns.clear();
            access.projected.clear();
            access.filters.clear();
        }
        self.joins.clear();
    }
}

/// What a column reference resolves against: the catalog and the
/// query's `FROM` entries.
struct Scope<'q, 'a> {
    catalog: &'q Catalog,
    from: &'q [TableRef<'a>],
}

impl Scope<'_, '_> {
    /// Resolve a column reference to (FROM position, column id);
    /// `accesses` holds the `FROM` entries' tables, in order.
    fn resolve(&self, accesses: &[TableAccess], r: &ColumnRef<'_>) -> Result<(usize, ColumnId)> {
        let mut bound = self.from.iter().zip(accesses).enumerate();
        match r.qualifier {
            Some(q) => {
                let (slot, access) = bound
                    .find_map(|(slot, (t, access))| {
                        (t.binding_name() == q).then_some((slot, access))
                    })
                    .ok_or_else(|| {
                        Error::Semantic(format!("unknown table or alias {q:?} in {r}"))
                    })?;
                let col = self.catalog.column_by_name(access.table, r.column)?;
                Ok((slot, col.id))
            }
            None => {
                let mut found: Option<(usize, TableId, ColumnId)> = None;
                for (slot, (_, access)) in bound {
                    let Some(col) = self.catalog.find_column(access.table, r.column) else {
                        continue;
                    };
                    if let Some((_, prev, _)) = found {
                        return Err(Error::Semantic(format!(
                            "ambiguous column {:?}: in both {} and {}",
                            r.column,
                            self.catalog.table(prev).name,
                            self.catalog.table(access.table).name
                        )));
                    }
                    found = Some((slot, access.table, col.id));
                }
                found
                    .map(|(slot, _, col)| (slot, col))
                    .ok_or_else(|| Error::Semantic(format!("unknown column {:?}", r.column)))
            }
        }
    }
}

/// Resolve `query` against `catalog` into a fresh [`ResolvedQuery`].
///
/// # Errors
///
/// As [`analyze_into`].
pub fn analyze(catalog: &Catalog, query: &Query<'_>) -> Result<ResolvedQuery> {
    let mut resolved = ResolvedQuery::default();
    analyze_into(catalog, query, &mut resolved)?;
    Ok(resolved)
}

/// Resolve `query` against `catalog` into `out`, refilling its lists in
/// place. A caller that resolves many queries into one `ResolvedQuery`
/// allocates only when a query is wider than every one before it. On an
/// error `out` holds part of a resolution; the next call overwrites it.
///
/// # Errors
///
/// [`Error::Semantic`] on unknown tables or columns, ambiguous unqualified
/// references, duplicate bindings, or aggregates mixed with joins in ways
/// the yield model cannot attribute. Catalog lookups may also surface
/// [`Error::UnknownName`].
pub fn analyze_into(catalog: &Catalog, query: &Query<'_>, out: &mut ResolvedQuery) -> Result<()> {
    out.reset(query.from.len());
    // Bind FROM entries: a binding name (alias, else table name) may be
    // used once, and a qualifier names the one entry it binds.
    for (slot, (tref, access)) in query.from.iter().zip(&mut out.tables).enumerate() {
        let table = catalog.table_by_name(tref.table)?;
        let name = tref.binding_name();
        let earlier = query.from.get(..slot).unwrap_or_default();
        if earlier.iter().any(|t| t.binding_name() == name) {
            return Err(Error::Semantic(format!("duplicate table binding {name:?}")));
        }
        access.table = table.id;
    }
    let scope = Scope {
        catalog,
        from: &query.from,
    };
    let accesses = &mut out.tables;

    // Projection.
    for item in &query.projection {
        let column = match item {
            SelectItem::Wildcard => {
                for access in accesses.iter_mut() {
                    for &cid in &catalog.table(access.table).columns {
                        access.project(cid);
                    }
                }
                continue;
            }
            SelectItem::Column { column, .. } => column,
            SelectItem::Aggregate {
                arg: Some(column), ..
            } => column,
            SelectItem::Aggregate { arg: None, .. } => continue,
        };
        let (slot, cid) = scope.resolve(accesses, column)?;
        if let Some(access) = accesses.get_mut(slot) {
            access.project(cid);
        }
    }

    // Predicates.
    for pred in &query.predicates {
        let (slot, filter) = match *pred {
            Predicate::Compare { column, op, value } => {
                let (slot, column) = scope.resolve(accesses, &column)?;
                let value = match value {
                    Value::Number(n) => Literal::Number(n),
                    Value::Text(_) => Literal::Text,
                };
                (slot, ResolvedPredicate::Compare { column, op, value })
            }
            Predicate::Between { column, lo, hi } => {
                let (slot, column) = scope.resolve(accesses, &column)?;
                (slot, ResolvedPredicate::Between { column, lo, hi })
            }
            Predicate::Join { left, right } => {
                let (lslot, lcid) = scope.resolve(accesses, &left)?;
                let (rslot, rcid) = scope.resolve(accesses, &right)?;
                for (slot, cid) in [(lslot, lcid), (rslot, rcid)] {
                    if let Some(access) = accesses.get_mut(slot) {
                        access.touch(cid);
                    }
                }
                if lslot != rslot {
                    out.joins.push(JoinPair {
                        left: lcid,
                        right: rcid,
                    });
                    continue;
                }
                // Same-table column equality: treat as an equality
                // filter for selectivity purposes.
                let filter = ResolvedPredicate::Compare {
                    column: lcid,
                    op: CompareOp::Eq,
                    value: Literal::Number(0.0),
                };
                (lslot, filter)
            }
        };
        if let Some(access) = accesses.get_mut(slot) {
            access.add_filter(filter);
        }
    }

    let aggregate_items = query
        .projection
        .iter()
        .filter(|i| matches!(i, SelectItem::Aggregate { .. }))
        .count();
    out.aggregate_items = u32::try_from(aggregate_items)
        .map_err(|_| Error::Semantic(format!("{aggregate_items} aggregates in one query")))?;
    out.aggregate_only = query.is_aggregate_only();
    out.top = query.top;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use byc_catalog::{ColumnDef, ColumnType, TableDef};
    use byc_types::ServerId;

    fn catalog() -> Result<Catalog> {
        let mut cat = Catalog::new();
        cat.add_table(TableDef {
            name: "PhotoObj".into(),
            columns: vec![
                ColumnDef::new("objID", ColumnType::BigInt),
                ColumnDef::new("ra", ColumnType::Float).with_domain(0.0, 360.0),
                ColumnDef::new("dec", ColumnType::Float).with_domain(-90.0, 90.0),
                ColumnDef::new("modelMag_g", ColumnType::Real).with_domain(10.0, 28.0),
            ],
            row_count: 1000,
            server: ServerId::new(0),
        })?;
        cat.add_table(TableDef {
            name: "SpecObj".into(),
            columns: vec![
                ColumnDef::new("specObjID", ColumnType::BigInt),
                ColumnDef::new("objID", ColumnType::BigInt),
                ColumnDef::new("z", ColumnType::Real).with_domain(0.0, 6.0),
                ColumnDef::new("zConf", ColumnType::Real).with_domain(0.0, 1.0),
                ColumnDef::new("specClass", ColumnType::SmallInt).with_domain(0.0, 6.0),
            ],
            row_count: 100,
            server: ServerId::new(0),
        })?;
        Ok(cat)
    }

    /// Invert an analysis result: succeed with the error, fail if the
    /// analysis unexpectedly succeeded.
    fn expect_err<T>(r: Result<T>) -> Result<Error> {
        match r {
            Ok(_) => Err(Error::Semantic("analysis unexpectedly succeeded".into())),
            Err(e) => Ok(e),
        }
    }

    #[test]
    fn resolves_paper_query() -> Result<()> {
        let cat = catalog()?;
        let q = parse(
            "select p.objID, p.ra, p.dec, p.modelMag_g, s.z as redshift \
             from SpecObj s, PhotoObj p \
             where p.objID = s.objID and s.specClass = 2 and s.zConf > 0.95 \
             and p.modelMag_g > 17.0 and s.z < 0.01",
        )?;
        let r = analyze(&cat, &q)?;
        assert_eq!(r.tables.len(), 2);
        let spec = &r.tables[0];
        let photo = &r.tables[1];
        assert_eq!(cat.table(spec.table).name, "SpecObj");
        assert_eq!(cat.table(photo.table).name, "PhotoObj");
        // PhotoObj: objID, ra, dec, modelMag_g referenced (4 columns).
        assert_eq!(photo.columns.len(), 4);
        // SpecObj: z projected; specClass, zConf filters; objID join. 4 columns.
        assert_eq!(spec.columns.len(), 4);
        assert_eq!(r.joins.len(), 1);
        assert_eq!(spec.filters.len(), 3);
        assert_eq!(photo.filters.len(), 1);
        assert!(!r.aggregate_only);
        Ok(())
    }

    #[test]
    fn wildcard_expands_all_tables() -> Result<()> {
        let cat = catalog()?;
        let q = parse("select * from PhotoObj, SpecObj s")?;
        let r = analyze(&cat, &q)?;
        assert_eq!(r.tables[0].projected.len(), 4);
        assert_eq!(r.tables[1].projected.len(), 5);
        Ok(())
    }

    #[test]
    fn unqualified_unique_column_resolves() -> Result<()> {
        let cat = catalog()?;
        let q = parse("select ra from PhotoObj where dec > 0")?;
        let r = analyze(&cat, &q)?;
        assert_eq!(r.tables[0].columns.len(), 2);
        Ok(())
    }

    #[test]
    fn ambiguous_unqualified_column_errors() -> Result<()> {
        let cat = catalog()?;
        let q = parse("select objID from PhotoObj, SpecObj")?;
        let err = expect_err(analyze(&cat, &q))?;
        assert!(err.to_string().contains("ambiguous"));
        Ok(())
    }

    #[test]
    fn unknown_table_errors() -> Result<()> {
        let cat = catalog()?;
        let q = parse("select x from Nope")?;
        expect_err(analyze(&cat, &q))?;
        Ok(())
    }

    #[test]
    fn unknown_column_errors() -> Result<()> {
        let cat = catalog()?;
        let q = parse("select p.nope from PhotoObj p")?;
        expect_err(analyze(&cat, &q))?;
        Ok(())
    }

    #[test]
    fn unknown_alias_errors() -> Result<()> {
        let cat = catalog()?;
        let q = parse("select q.ra from PhotoObj p")?;
        let err = expect_err(analyze(&cat, &q))?;
        assert!(err.to_string().contains("unknown table or alias"));
        Ok(())
    }

    #[test]
    fn duplicate_binding_errors() -> Result<()> {
        let cat = catalog()?;
        let q = parse("select p.ra from PhotoObj p, SpecObj p")?;
        expect_err(analyze(&cat, &q))?;
        Ok(())
    }

    #[test]
    fn aggregate_only_flag() -> Result<()> {
        let cat = catalog()?;
        let q = parse("select count(*) from PhotoObj where ra between 100 and 110")?;
        let r = analyze(&cat, &q)?;
        assert!(r.aggregate_only);
        assert_eq!(r.aggregate_items, 1);
        assert!(r.tables[0].projected.is_empty());
        assert_eq!(r.tables[0].filters.len(), 1);
        Ok(())
    }

    #[test]
    fn aggregate_arg_is_projected() -> Result<()> {
        let cat = catalog()?;
        let q = parse("select max(s.z) from SpecObj s")?;
        let r = analyze(&cat, &q)?;
        assert_eq!(r.tables[0].projected.len(), 1);
        Ok(())
    }

    #[test]
    fn same_table_join_becomes_filter() -> Result<()> {
        let cat = catalog()?;
        let q = parse("select p.ra from PhotoObj p where p.objID = p.objID")?;
        let r = analyze(&cat, &q)?;
        assert!(r.joins.is_empty());
        assert_eq!(r.tables[0].filters.len(), 1);
        Ok(())
    }

    #[test]
    fn columns_deduplicated() -> Result<()> {
        let cat = catalog()?;
        let q = parse("select p.ra, p.ra from PhotoObj p where p.ra > 10 and p.ra < 20")?;
        let r = analyze(&cat, &q)?;
        assert_eq!(r.tables[0].columns.len(), 1);
        assert_eq!(r.tables[0].projected.len(), 1);
        assert_eq!(r.tables[0].filters.len(), 2);
        Ok(())
    }

    /// Every list of `r`, parked entries' included, as (address,
    /// capacity).
    fn buffers(r: &ResolvedQuery) -> Vec<(usize, usize)> {
        fn of<T>(v: &[T], capacity: usize) -> (usize, usize) {
            (v.as_ptr().addr(), capacity)
        }
        let mut out = vec![
            of(&r.tables, r.tables.capacity()),
            of(&r.joins, r.joins.capacity()),
        ];
        for a in r.tables.iter().chain(r.spare.iter().rev()) {
            out.push(of(&a.columns, a.columns.capacity()));
            out.push(of(&a.projected, a.projected.capacity()));
            out.push(of(&a.filters, a.filters.capacity()));
        }
        out
    }

    #[test]
    fn refills_keep_every_list() -> Result<()> {
        let cat = catalog()?;
        let join = parse(
            "select p.ra, s.z from PhotoObj p, SpecObj s \
             where p.objID = s.objID and s.zConf > 0.5 and p.dec > 0",
        )?;
        let narrow = parse("select ra from PhotoObj where dec > 0")?;
        let mut r = ResolvedQuery::default();
        analyze_into(&cat, &join, &mut r)?;
        assert_eq!(r, analyze(&cat, &join)?);
        let wide = buffers(&r);
        assert!(wide.iter().all(|&(_, cap)| cap > 0), "{wide:?}");
        // The join's second table is parked with its lists, not freed,
        // and comes back to the same slot.
        analyze_into(&cat, &narrow, &mut r)?;
        assert_eq!(r, analyze(&cat, &narrow)?);
        assert_eq!(r.spare.len(), 1);
        assert_eq!(buffers(&r), wide);
        analyze_into(&cat, &join, &mut r)?;
        assert_eq!(r, analyze(&cat, &join)?);
        assert_eq!(buffers(&r), wide);
        // A refusal part-way leaves nothing the next refill can see.
        assert!(analyze_into(&cat, &parse("select p.nope from PhotoObj p")?, &mut r).is_err());
        analyze_into(&cat, &narrow, &mut r)?;
        assert_eq!(r, analyze(&cat, &narrow)?);
        Ok(())
    }

    #[test]
    fn text_literals_resolve_to_their_kind() -> Result<()> {
        let cat = catalog()?;
        let q = parse("select ra from PhotoObj where objID = 'x' and ra < 3")?;
        let r = analyze(&cat, &q)?;
        let values: Vec<Literal> = r.tables[0]
            .filters
            .iter()
            .filter_map(|f| match *f {
                ResolvedPredicate::Compare { value, .. } => Some(value),
                ResolvedPredicate::Between { .. } => None,
            })
            .collect();
        assert_eq!(values, [Literal::Text, Literal::Number(3.0)]);
        Ok(())
    }

    #[test]
    fn accessors() -> Result<()> {
        let cat = catalog()?;
        let q = parse("select p.ra from PhotoObj p")?;
        let r = analyze(&cat, &q)?;
        let tid = r
            .table_ids()
            .next()
            .ok_or_else(|| Error::Semantic("no tables resolved".into()))?;
        assert!(r.access(tid).is_some());
        assert_eq!(r.column_ids().count(), 1);
        Ok(())
    }
}
