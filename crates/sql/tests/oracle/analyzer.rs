//! Semantic analysis: resolve a parsed [`Query`] against a [`Catalog`].
//!
//! The analyzer produces the flat, id-based view of a query that the
//! engine's yield model and the workload analyses consume: which tables are
//! touched, which columns of each table are referenced (projection +
//! predicates), the filter predicates per table, and the equi-join pairs.

use super::ast::{ColumnRef, CompareOp, Predicate, Query, SelectItem, Value};
use byc_catalog::Catalog;
use byc_types::{ColumnId, Error, Result, TableId};
use std::collections::HashMap;

/// A resolved single-table filter predicate.
#[derive(Clone, Debug, PartialEq)]
pub enum ResolvedPredicate {
    /// `column OP literal`.
    Compare {
        /// Constrained column.
        column: ColumnId,
        /// Operator.
        op: CompareOp,
        /// Literal value.
        value: Value,
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
#[derive(Clone, Debug, PartialEq)]
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

/// An equi-join between columns of two different tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JoinPair {
    /// Column on one side.
    pub left: ColumnId,
    /// Column on the other side.
    pub right: ColumnId,
}

/// The resolved, id-based view of a query.
#[derive(Clone, Debug, PartialEq)]
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
}

struct Resolver<'a> {
    catalog: &'a Catalog,
    /// binding name → FROM position.
    bindings: HashMap<String, usize>,
    /// FROM position → table id.
    tables: Vec<TableId>,
}

impl<'a> Resolver<'a> {
    /// Resolve a column reference to (FROM position, column id).
    fn resolve(&self, r: &ColumnRef) -> Result<(usize, ColumnId)> {
        match &r.qualifier {
            Some(q) => {
                let &slot = self.bindings.get(q).ok_or_else(|| {
                    Error::Semantic(format!("unknown table or alias {q:?} in {r}"))
                })?;
                let col = self.catalog.column_by_name(self.tables[slot], &r.column)?;
                Ok((slot, col.id))
            }
            None => {
                let mut found: Option<(usize, ColumnId)> = None;
                for (slot, &tid) in self.tables.iter().enumerate() {
                    if let Ok(col) = self.catalog.column_by_name(tid, &r.column) {
                        if let Some((prev_slot, _)) = found {
                            return Err(Error::Semantic(format!(
                                "ambiguous column {:?}: in both {} and {}",
                                r.column,
                                self.catalog.table(self.tables[prev_slot]).name,
                                self.catalog.table(tid).name
                            )));
                        }
                        found = Some((slot, col.id));
                    }
                }
                found.ok_or_else(|| Error::Semantic(format!("unknown column {:?}", r.column)))
            }
        }
    }
}

/// Resolve `query` against `catalog`.
///
/// # Errors
///
/// [`Error::Semantic`] on unknown tables or columns, ambiguous unqualified
/// references, duplicate bindings, or aggregates mixed with joins in ways
/// the yield model cannot attribute. Catalog lookups may also surface
/// [`Error::UnknownName`].
pub fn analyze(catalog: &Catalog, query: &Query) -> Result<ResolvedQuery> {
    // Bind FROM entries.
    let mut bindings = HashMap::new();
    let mut table_ids = Vec::with_capacity(query.from.len());
    for (slot, tref) in query.from.iter().enumerate() {
        let table = catalog.table_by_name(&tref.table)?;
        let name = tref.binding_name().to_string();
        if bindings.insert(name.clone(), slot).is_some() {
            return Err(Error::Semantic(format!("duplicate table binding {name:?}")));
        }
        // The bare table name also resolves when aliased tables are unique.
        table_ids.push(table.id);
    }
    let resolver = Resolver {
        catalog,
        bindings,
        tables: table_ids.clone(),
    };

    let mut accesses: Vec<TableAccess> = table_ids
        .iter()
        .map(|&table| TableAccess {
            table,
            columns: Vec::new(),
            projected: Vec::new(),
            filters: Vec::new(),
        })
        .collect();

    let touch = |accesses: &mut Vec<TableAccess>, slot: usize, col: ColumnId| {
        let a = &mut accesses[slot];
        if !a.columns.contains(&col) {
            a.columns.push(col);
        }
    };

    // Projection.
    for item in &query.projection {
        match item {
            SelectItem::Wildcard => {
                for (slot, &tid) in resolver.tables.iter().enumerate() {
                    for &cid in &catalog.table(tid).columns {
                        touch(&mut accesses, slot, cid);
                        if !accesses[slot].projected.contains(&cid) {
                            accesses[slot].projected.push(cid);
                        }
                    }
                }
            }
            SelectItem::Column { column, .. } => {
                let (slot, cid) = resolver.resolve(column)?;
                touch(&mut accesses, slot, cid);
                if !accesses[slot].projected.contains(&cid) {
                    accesses[slot].projected.push(cid);
                }
            }
            SelectItem::Aggregate { arg, .. } => {
                if let Some(column) = arg {
                    let (slot, cid) = resolver.resolve(column)?;
                    touch(&mut accesses, slot, cid);
                    if !accesses[slot].projected.contains(&cid) {
                        accesses[slot].projected.push(cid);
                    }
                }
            }
        }
    }

    // Predicates.
    let mut joins = Vec::new();
    for pred in &query.predicates {
        match pred {
            Predicate::Compare { column, op, value } => {
                let (slot, cid) = resolver.resolve(column)?;
                touch(&mut accesses, slot, cid);
                accesses[slot].filters.push(ResolvedPredicate::Compare {
                    column: cid,
                    op: *op,
                    value: value.clone(),
                });
            }
            Predicate::Between { column, lo, hi } => {
                let (slot, cid) = resolver.resolve(column)?;
                touch(&mut accesses, slot, cid);
                accesses[slot].filters.push(ResolvedPredicate::Between {
                    column: cid,
                    lo: *lo,
                    hi: *hi,
                });
            }
            Predicate::Join { left, right } => {
                let (lslot, lcid) = resolver.resolve(left)?;
                let (rslot, rcid) = resolver.resolve(right)?;
                touch(&mut accesses, lslot, lcid);
                touch(&mut accesses, rslot, rcid);
                if lslot == rslot {
                    // Same-table column equality: treat as an equality
                    // filter for selectivity purposes.
                    accesses[lslot].filters.push(ResolvedPredicate::Compare {
                        column: lcid,
                        op: CompareOp::Eq,
                        value: Value::Number(0.0),
                    });
                } else {
                    joins.push(JoinPair {
                        left: lcid,
                        right: rcid,
                    });
                }
            }
        }
    }

    let aggregate_items = query
        .projection
        .iter()
        .filter(|i| matches!(i, SelectItem::Aggregate { .. }))
        .count();
    let aggregate_items = u32::try_from(aggregate_items)
        .map_err(|_| Error::Semantic(format!("{aggregate_items} aggregates in one query")))?;

    Ok(ResolvedQuery {
        tables: accesses,
        joins,
        aggregate_only: query.is_aggregate_only(),
        aggregate_items,
        top: query.top,
    })
}
