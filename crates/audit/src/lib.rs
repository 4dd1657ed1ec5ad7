//! `byc-audit`: the workspace static-analysis engine.
//!
//! The workspace has invariants that `rustc` and `clippy` cannot express
//! precisely enough — *library* code must not panic while test code may,
//! accounting paths must be deterministic, `byc-core` must not move byte
//! counts through raw `as` casts, and every shipped policy type must
//! plug into the [`CachePolicy`] hierarchy. This crate enforces them
//! over a real token tree and item parse of every source file:
//!
//! ```text
//! cargo run -p byc-audit -- lint                 # text, local default
//! cargo run -p byc-audit -- lint --format sarif  # SARIF 2.1.0, for CI
//! ```
//!
//! exits non-zero when any rule fires outside the checked-in
//! `audit.toml` allowlist (exact per-rule counts — fewer findings than
//! allowed is also an error, so paid-off debt shrinks the allowlist).
//!
//! The stack, bottom to top:
//!
//! * [`ast`] — a dependency-free lexer, token-tree builder, and item
//!   parser (the auditor must build offline, before anything else, so
//!   it cannot use `syn`). String/comment contents are dropped during
//!   lexing and `#[cfg(test)]` extents are item-structural, which kills
//!   the regex-era false-positive classes outright.
//! * [`callgraph`] — an intra-workspace call graph with a deliberate
//!   over-approximation for method calls (dyn dispatch), used for
//!   reachability from the replay entry points.
//! * [`passes`] — the four analysis passes: direct style rules,
//!   panic-reachability, determinism dataflow, concurrency readiness.
//! * [`sarif`] — SARIF 2.1.0 emission over `byc_types::json`.
//!
//! The runtime half of the audit story — the decision-stream checks of
//! `byc_core::audit` — lives in `byc-core`, so they can run inside
//! replays without a dependency cycle: every audited replay and every
//! audited mediator feeds a `DecisionAuditor` from the replay kernel's
//! events.
//!
//! [`CachePolicy`]: ../byc_core/policy/trait.CachePolicy.html

#![warn(missing_docs)]

pub mod ast;
pub mod callgraph;
pub mod config;
pub mod passes;
pub mod report;
pub mod sarif;
pub mod source;

use std::path::Path;

/// Everything one lint run produces.
pub struct LintOutcome {
    /// Findings surviving the allowlist, plus allowlist hygiene
    /// problems. Empty means the tree is clean.
    pub findings: Vec<report::Finding>,
    /// Headline numbers for the summary line.
    pub summary: passes::Summary,
}

/// Run the full lint pass over the workspace rooted at `root`.
///
/// # Errors
///
/// An I/O or allowlist-syntax error as a human-readable message.
pub fn lint_workspace(root: &Path, allowlist: &Path) -> Result<LintOutcome, String> {
    let config = config::Allowlist::load(allowlist)?;
    let files = source::scan_workspace(root)?;
    let analysis = passes::analyze(files);
    Ok(LintOutcome {
        findings: report::apply_allowlist(analysis.findings, &config),
        summary: analysis.summary,
    })
}
