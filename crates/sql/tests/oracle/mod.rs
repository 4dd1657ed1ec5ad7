//! The reference the SQL front end is checked against: the first
//! tokenizer, parser, AST and analyzer, kept verbatim in their rules,
//! and the first yield decomposition.
//!
//! * [`token::tokenize`] — the whole text to an owned `Vec<Token>`, an
//!   owned `String` per identifier and literal, before any parsing;
//! * [`parser::parse`] — recursive descent over that vector, cloning
//!   each token it peeks, into an [`ast::Query`] that owns its names;
//! * [`analyzer::analyze`] — resolution through a `HashMap` of binding
//!   names;
//! * [`yield_model::estimate`] — the decomposition through separate
//!   weight, share and remainder lists;
//! * [`pull::parser::parse`] — the borrowing pull lexer and parser that
//!   came second, a `Result` per token, which give the shipped AST types
//!   directly: a shipped parse must equal it, errors included.
//!
//! [`owned`], [`borrowed`] and [`owned_resolved`] translate between
//! these types and the shipped borrowing ones, so results compare field
//! for field. A shipped resolution keeps of a string literal only that it
//! is one, so resolutions compare after [`without_text`].

#![allow(dead_code)]

pub mod analyzer;
pub mod ast;
pub mod parser;
pub mod pull;
pub mod token;
pub mod yield_model;

/// A shipped column reference, owning its names.
fn owned_column(c: &byc_sql::ColumnRef<'_>) -> ast::ColumnRef {
    ast::ColumnRef {
        qualifier: c.qualifier.map(str::to_string),
        column: c.column.to_string(),
    }
}

fn borrowed_column(c: &ast::ColumnRef) -> byc_sql::ColumnRef<'_> {
    byc_sql::ColumnRef {
        qualifier: c.qualifier.as_deref(),
        column: &c.column,
    }
}

fn owned_value(v: &byc_sql::Value<'_>) -> ast::Value {
    match *v {
        byc_sql::Value::Number(n) => ast::Value::Number(n),
        byc_sql::Value::Text(s) => ast::Value::Text(s.to_string()),
    }
}

/// A shipped query as the oracle's owning AST.
pub fn owned(q: &byc_sql::Query<'_>) -> ast::Query {
    use byc_sql::{Predicate as P, SelectItem as S};
    ast::Query {
        top: q.top,
        projection: q
            .projection
            .iter()
            .map(|item| match item {
                S::Wildcard => ast::SelectItem::Wildcard,
                S::Column { column, alias } => ast::SelectItem::Column {
                    column: owned_column(column),
                    alias: alias.map(str::to_string),
                },
                S::Aggregate { func, arg, alias } => ast::SelectItem::Aggregate {
                    func: *func,
                    arg: arg.as_ref().map(owned_column),
                    alias: alias.map(str::to_string),
                },
            })
            .collect(),
        from: q
            .from
            .iter()
            .map(|t| ast::TableRef {
                table: t.table.to_string(),
                alias: t.alias.map(str::to_string),
            })
            .collect(),
        predicates: q
            .predicates
            .iter()
            .map(|p| match p {
                P::Compare { column, op, value } => ast::Predicate::Compare {
                    column: owned_column(column),
                    op: *op,
                    value: owned_value(value),
                },
                P::Between { column, lo, hi } => ast::Predicate::Between {
                    column: owned_column(column),
                    lo: *lo,
                    hi: *hi,
                },
                P::Join { left, right } => ast::Predicate::Join {
                    left: owned_column(left),
                    right: owned_column(right),
                },
            })
            .collect(),
    }
}

/// An oracle query as a shipped one, borrowing its names.
pub fn borrowed(q: &ast::Query) -> byc_sql::Query<'_> {
    use ast::{Predicate as P, SelectItem as S};
    byc_sql::Query {
        top: q.top,
        projection: q
            .projection
            .iter()
            .map(|item| match item {
                S::Wildcard => byc_sql::SelectItem::Wildcard,
                S::Column { column, alias } => byc_sql::SelectItem::Column {
                    column: borrowed_column(column),
                    alias: alias.as_deref(),
                },
                S::Aggregate { func, arg, alias } => byc_sql::SelectItem::Aggregate {
                    func: *func,
                    arg: arg.as_ref().map(borrowed_column),
                    alias: alias.as_deref(),
                },
            })
            .collect(),
        from: q
            .from
            .iter()
            .map(|t| byc_sql::TableRef {
                table: &t.table,
                alias: t.alias.as_deref(),
            })
            .collect(),
        predicates: q
            .predicates
            .iter()
            .map(|p| match p {
                P::Compare { column, op, value } => byc_sql::Predicate::Compare {
                    column: borrowed_column(column),
                    op: *op,
                    value: match value {
                        ast::Value::Number(n) => byc_sql::Value::Number(*n),
                        ast::Value::Text(s) => byc_sql::Value::Text(s),
                    },
                },
                P::Between { column, lo, hi } => byc_sql::Predicate::Between {
                    column: borrowed_column(column),
                    lo: *lo,
                    hi: *hi,
                },
                P::Join { left, right } => byc_sql::Predicate::Join {
                    left: borrowed_column(left),
                    right: borrowed_column(right),
                },
            })
            .collect(),
    }
}

/// A shipped resolved query as the oracle's owning one: a number keeps
/// its value, and a string literal, of which the shipped analyzer keeps
/// only that it is one, becomes the empty text.
pub fn owned_resolved(r: &byc_sql::ResolvedQuery) -> analyzer::ResolvedQuery {
    use byc_sql::ResolvedPredicate as P;
    analyzer::ResolvedQuery {
        tables: r
            .tables
            .iter()
            .map(|a| analyzer::TableAccess {
                table: a.table,
                columns: a.columns.clone(),
                projected: a.projected.clone(),
                filters: a
                    .filters
                    .iter()
                    .map(|f| match f {
                        P::Compare { column, op, value } => analyzer::ResolvedPredicate::Compare {
                            column: *column,
                            op: *op,
                            value: match *value {
                                byc_sql::Literal::Number(n) => ast::Value::Number(n),
                                byc_sql::Literal::Text => ast::Value::Text(String::new()),
                            },
                        },
                        P::Between { column, lo, hi } => analyzer::ResolvedPredicate::Between {
                            column: *column,
                            lo: *lo,
                            hi: *hi,
                        },
                    })
                    .collect(),
            })
            .collect(),
        joins: r
            .joins
            .iter()
            .map(|j| analyzer::JoinPair {
                left: j.left,
                right: j.right,
            })
            .collect(),
        aggregate_only: r.aggregate_only,
        aggregate_items: r.aggregate_items,
        top: r.top,
    }
}

/// The oracle's resolution with every string literal emptied, as
/// [`owned_resolved`] renders a shipped one.
pub fn without_text(mut r: analyzer::ResolvedQuery) -> analyzer::ResolvedQuery {
    for filter in r.tables.iter_mut().flat_map(|a| &mut a.filters) {
        if let analyzer::ResolvedPredicate::Compare {
            value: ast::Value::Text(text),
            ..
        } = filter
        {
            text.clear();
        }
    }
    r
}

/// True when a query the oracle accepted holds a literal that is not
/// finite: the oracle lexed `1e309` as infinity, the shipped lexer
/// refuses it.
pub fn has_non_finite(q: &ast::Query) -> bool {
    q.predicates.iter().any(|p| match p {
        ast::Predicate::Compare {
            value: ast::Value::Number(n),
            ..
        } => !n.is_finite(),
        ast::Predicate::Between { lo, hi, .. } => !lo.is_finite() || !hi.is_finite(),
        _ => false,
    })
}
