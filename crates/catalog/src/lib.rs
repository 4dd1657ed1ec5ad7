//! Relational schema catalog for the bypass-yield federation.
//!
//! The catalog is the source of truth for the *sizes* that drive the whole
//! cost model: column storage widths, table row counts, and — derived from
//! those — the size and fetch cost of every cacheable object.
//!
//! # Modules
//!
//! * [`schema`] — column types, column and table definitions, and the
//!   [`schema::Catalog`] registry with name resolution.
//! * [`objects`] — the cacheable-object view of a catalog at a chosen
//!   [`objects::Granularity`] (whole tables or single columns, the two
//!   granularities compared in paper §6.1).
//! * [`placement`] — the round-robin table→server [`placement::round_robin`]
//!   rule for multi-server federations.
//! * [`sdss`] — builders for the synthetic SDSS-like schemas (EDR and DR1
//!   releases) used by the experiments.

#![warn(missing_docs)]

pub mod objects;
pub mod placement;
pub mod schema;
pub mod sdss;

pub use objects::{Granularity, ObjectCatalog, ObjectInfo, ObjectKind};
pub use schema::{Catalog, Column, ColumnDef, ColumnType, Table, TableDef};
