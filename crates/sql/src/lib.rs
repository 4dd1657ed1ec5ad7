//! SQL substrate: tokenizer, parser, AST, and semantic analyzer for the
//! SELECT subset that appears in SDSS SkyServer traces.
//!
//! The bypass-yield cache sits in the mediator and must understand enough
//! of each query to (a) determine which tables and columns it touches and
//! (b) decompose its yield across those objects (paper §6). The traces the
//! paper replays are dominated by conjunctive select-project-join queries
//! of the form quoted in §6:
//!
//! ```sql
//! SELECT p.objID, p.ra, p.dec, p.modelMag_g, s.z AS redshift
//! FROM SpecObj s, PhotoObj p
//! WHERE p.objID = s.objID AND s.specClass = 2 AND s.zConf > 0.95
//!   AND p.modelMag_g > 17.0 AND s.z < 0.01
//! ```
//!
//! This crate implements exactly that subset: `SELECT [TOP n]` of columns,
//! `*`, or aggregates (`COUNT`, `SUM`, `AVG`, `MIN`, `MAX`); comma-join
//! `FROM` lists with aliases; and a conjunctive `WHERE` clause of
//! comparison, `BETWEEN`, and equi-join predicates. Disjunction is not in
//! the trace grammar and is rejected with a clear error.
//!
//! # Modules
//!
//! * [`token`] — hand-written tokenizer with byte offsets for errors.
//! * [`ast`] — the query AST, with a `Display` impl that renders back to
//!   SQL (used to make synthesized traces human-readable).
//! * [`parser`] — recursive-descent parser.
//! * [`analyzer`] — name resolution against a
//!   [`Catalog`](byc_catalog::Catalog), producing a [`analyzer::ResolvedQuery`]
//!   with referenced tables/columns and per-table predicate lists.
//!
//! [`parse_into`] and [`analyze_into`] refill a caller's [`Query`] and
//! [`ResolvedQuery`] in place; [`parse`] and [`analyze`] fill fresh ones.

#![warn(missing_docs)]

pub mod analyzer;
pub mod ast;
pub mod parser;
pub mod token;

pub use analyzer::{analyze, analyze_into, Literal, ResolvedPredicate, ResolvedQuery, TableAccess};
pub use ast::{Aggregate, ColumnRef, CompareOp, Predicate, Query, SelectItem, TableRef, Value};
pub use parser::{parse, parse_into};
