//! The analysis passes, and the shared analyzed-workspace context.
//!
//! Pipeline: raw sources → parse ([`crate::ast`]) → call graph
//! ([`crate::callgraph`]) → four passes, each a pure function from the
//! analyzed workspace to findings:
//!
//! 1. [`style`] — the direct rules (no-panic, no-nondeterminism,
//!    no-raw-cast, policy-impl), now token-accurate.
//! 2. [`panic_reach`] — panic sites in functions reachable from the
//!    replay entry points, with shortest call chains.
//! 3. [`determinism`] — nondeterminism *dataflow*: hash-container
//!    iteration, float ordering, and clock/RNG calls in functions that
//!    feed `CostReport`/`Decision` streams.
//! 4. [`concurrency`] — `byc-serve` readiness: interior mutability in
//!    state types and `Send + Sync` assertion coverage.
//! 5. [`hot_path`] — container scans reachable from the per-access
//!    policy mouths (`on_access`/`on_request`) in `byc-core`.

pub mod concurrency;
pub mod determinism;
pub mod hot_path;
pub mod panic_reach;
pub mod style;

use crate::ast::parse::{parse_file, ParsedFile};
use crate::callgraph::{CallGraph, GraphFile, REPLAY_ENTRY_POINTS};
use crate::report::Finding;
use crate::source::{FileKind, SourceFile};
use std::collections::BTreeSet;

/// One parsed file plus its raw lines (for snippets).
pub struct AnalyzedFile {
    /// The scanned source.
    pub source: SourceFile,
    /// Its parse (empty on parse error — the error is a finding).
    pub parsed: ParsedFile,
    /// Raw lines, for snippet extraction.
    pub lines: Vec<String>,
}

impl AnalyzedFile {
    /// The trimmed source line at 1-based `line` (empty if out of
    /// range).
    pub fn snippet(&self, line: usize) -> String {
        self.lines
            .get(line.wrapping_sub(1))
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }
}

/// The fully analyzed workspace every pass consumes.
pub struct Workspace {
    /// All files, in deterministic path order.
    pub files: Vec<AnalyzedFile>,
    /// The call graph over non-test functions of non-`tests/` files.
    /// `FnNode::file` indexes into [`Self::files`].
    pub graph: CallGraph,
}

/// Headline numbers for the CLI summary.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    /// Files scanned.
    pub files: usize,
    /// Functions in the call graph.
    pub functions: usize,
    /// Resolved call edges.
    pub edges: usize,
    /// Functions reachable from any replay entry point.
    pub reachable: usize,
    /// Panic sites (all kinds, pre-allowlist) in functions reachable
    /// from `ReplayEngine::serve` (the per-query kernel) specifically — the number
    /// the acceptance gate drives to zero-or-justified.
    pub replay_report_sites: usize,
}

/// Findings plus summary.
pub struct Analysis {
    /// Raw findings, before allowlist reconciliation.
    pub findings: Vec<Finding>,
    /// Headline numbers.
    pub summary: Summary,
}

/// Parse every file and run all passes.
pub fn analyze(sources: Vec<SourceFile>) -> Analysis {
    let mut findings = Vec::new();
    let mut files = Vec::with_capacity(sources.len());
    for source in sources {
        let parsed = match parse_file(&source.text) {
            Ok(p) => p,
            Err(e) => {
                findings.push(Finding::new(
                    "parse-error",
                    &source.rel_path,
                    0,
                    format!("file does not tokenize: {e}"),
                ));
                ParsedFile::default()
            }
        };
        let lines = source.text.lines().map(str::to_string).collect();
        files.push(AnalyzedFile {
            source,
            parsed,
            lines,
        });
    }

    // The call graph covers src files only; integration tests are
    // parsed for the concurrency pass but never linted or graphed.
    let graph_fns: Vec<Vec<_>> = files
        .iter()
        .map(|f| {
            if f.source.kind == FileKind::IntegrationTest {
                Vec::new()
            } else {
                f.parsed
                    .fns
                    .iter()
                    .filter(|d| !d.is_test && d.body.is_some())
                    .cloned()
                    .collect()
            }
        })
        .collect();
    let qualifiers: Vec<BTreeSet<String>> = files
        .iter()
        .map(|f| {
            let mut q = BTreeSet::new();
            for t in &f.parsed.types {
                q.insert(t.name.clone());
            }
            for i in &f.parsed.impls {
                q.insert(i.self_type.clone());
            }
            q
        })
        .collect();
    let graph_files: Vec<GraphFile<'_>> = files
        .iter()
        .zip(graph_fns.iter())
        .zip(qualifiers.iter())
        .map(|((f, fns), qualifiers)| GraphFile {
            source: &f.source,
            fns,
            qualifiers,
        })
        .collect();
    let graph = CallGraph::build(&graph_files);
    drop(graph_files);

    let workspace = Workspace { files, graph };

    findings.extend(style::run(&workspace));
    let panic = panic_reach::run(&workspace);
    findings.extend(panic.findings);
    findings.extend(determinism::run(&workspace));
    findings.extend(concurrency::run(&workspace));
    findings.extend(hot_path::run(&workspace));

    let roots = workspace.graph.entry_nodes(REPLAY_ENTRY_POINTS);
    let pred = workspace.graph.reachable_from(&roots);
    let summary = Summary {
        files: workspace.files.len(),
        functions: workspace.graph.nodes.len(),
        edges: workspace.graph.nodes.iter().map(|n| n.callees.len()).sum(),
        reachable: pred.iter().filter(|p| p.is_some()).count(),
        replay_report_sites: panic.replay_report_sites,
    };
    Analysis { findings, summary }
}
