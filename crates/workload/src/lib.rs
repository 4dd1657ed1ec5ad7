//! Workload substrate: SDSS-like trace synthesis, trace serialization,
//! the compact replay input, and workload statistics.
//!
//! The paper replays SQL traces logged at the largest SkyQuery node for
//! two SDSS data releases (EDR: 27 663 queries; DR1: 24 567 queries; each
//! about 1–2 TB of result traffic). Those logs are not redistributable,
//! so this crate synthesizes traces with the distributional properties
//! the paper measures and exploits:
//!
//! * **schema locality without query locality** (§6.1, Figs 4–6): queries
//!   arrive in *sessions* that reuse a template and a small, Zipf-skewed
//!   set of columns while sweeping fresh sky regions — "conducting
//!   queries with similar schema against different data";
//! * **episodic bursts**: session lengths are geometric, so per-object
//!   access patterns cluster in time (what Rate-Profile's episodes model);
//! * **yields comparable to object sizes**: range selectivities are
//!   log-normal, pushing mean per-query yields to tens of megabytes.
//!
//! Every synthesized query is genuine SQL: the generator builds an AST,
//! renders it, re-parses and analyzes it against the catalog, and computes
//! its yield with the engine's model — so the trace file doubles as a
//! corpus for the SQL substrate, and externally collected real traces can
//! replace it without touching the simulator.

#![warn(missing_docs)]

pub mod generator;
pub mod io;
pub mod replay;
pub mod spec;
pub mod stats;
pub mod templates;
pub mod trace;

pub use generator::{generate, generate_with, WorkloadConfig};
pub use io::{TraceReader, TraceWriter};
pub use replay::{for_each_slice, ReplayQuery, ReplayTrace, Unresolved};
pub use spec::{TraceSpec, TraceSummary};
pub use stats::WorkloadStats;
pub use trace::{Trace, TraceQuery};
