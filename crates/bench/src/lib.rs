//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§6) from synthesized traces.
//!
//! Each `fig*`/`tab*` function reproduces one artifact, writes its data as
//! CSV/text under an output directory, and returns a human-readable
//! summary. The `experiments` binary drives them.
//!
//! End-to-end and per-layer speed is measured by the standalone
//! benchmark in `benchmark/` (BENCHMARK.json). The crate's three
//! Criterion targets in `benches/` each back one gate or claim:
//! `policy_hot_path` (CI's perf-smoke floor), `telemetry_overhead`
//! (DESIGN.md §11.4, §16.4) and `fault_overhead` (DESIGN.md §12).
//!
//! | id   | paper artifact | function |
//! |------|----------------|----------|
//! | fig4 | query containment scatter | [`experiments::fig4`] |
//! | fig5 | column locality scatter | [`experiments::fig5`] |
//! | fig6 | table locality scatter | [`experiments::fig6`] |
//! | fig7 | cumulative network cost, table caching | [`experiments::fig7`] |
//! | fig8 | cumulative network cost, column caching | [`experiments::fig8`] |
//! | fig9 | cost vs cache size, table caching | [`experiments::fig9`] |
//! | fig10| cost vs cache size, column caching | [`experiments::fig10`] |
//! | tab1 | cost breakdown, column caching | [`experiments::tab1`] |
//! | tab2 | cost breakdown, table caching | [`experiments::tab2`] |
//! | ablations | design-choice ablations (DESIGN.md §5) | [`experiments::ablations`] |

pub mod experiments;

pub use experiments::{ExperimentContext, ExperimentOutput};
