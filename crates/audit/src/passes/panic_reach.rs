//! Panic-reachability: walk the call graph from the replay entry
//! points and flag every construct that can abort a sweep.
//!
//! The style pass bans `unwrap()`-style constructs *textually* in the
//! no-panic crates; this pass is the stronger, path-sensitive gate. It
//! additionally covers constructs too noisy for a blanket ban —
//! indexing, division, `assert!`/`unreachable!` — but only where they
//! matter: in functions transitively callable from
//! `ReplayEngine::serve` and the other replay mouths, where a
//! panic aborts a sweep that may have been running for hours. Every
//! finding carries the shortest call chain from an entry point, so the
//! fix site is obvious.

use super::style::{is_own_expect, self_expect_qualifiers};
use super::Workspace;
use crate::ast::scan::{panic_sites_in, PanicKind};
use crate::callgraph::REPLAY_ENTRY_POINTS;
use crate::report::Finding;
use crate::source::FileKind;

/// Findings plus the headline count for the summary line.
pub struct Outcome {
    /// The findings.
    pub findings: Vec<Finding>,
    /// Panic sites (all kinds) in functions reachable from
    /// `ReplayEngine::serve` (the per-query kernel) specifically.
    pub replay_report_sites: usize,
}

/// Truncate `what` for messages (index expressions can be long).
fn short(what: &str) -> String {
    if what.chars().count() > 40 {
        let head: String = what.chars().take(37).collect();
        format!("{head}…")
    } else {
        what.to_string()
    }
}

/// Run the pass.
pub fn run(ws: &Workspace) -> Outcome {
    let own_expect = self_expect_qualifiers(ws);
    let roots = ws.graph.entry_nodes(REPLAY_ENTRY_POINTS);
    let pred = ws.graph.reachable_from(&roots);
    let report_roots = ws.graph.entry_nodes(&[("ReplayEngine", "serve")]);
    let report_pred = ws.graph.reachable_from(&report_roots);

    let mut findings = Vec::new();
    let mut replay_report_sites = 0usize;
    for (i, node) in ws.graph.nodes.iter().enumerate() {
        if pred[i].is_none() {
            continue;
        }
        let file = &ws.files[node.file];
        if file.source.kind != FileKind::Library {
            continue; // binaries are never linked into the replay path
        }
        let Some(body) = &node.def.body else { continue };
        let chain = ws.graph.chain_to(&pred, i);
        for site in panic_sites_in(body) {
            if is_own_expect(
                site.kind,
                site.receiver_is_self,
                node.def.qualifier.as_deref(),
                &own_expect,
            ) {
                continue;
            }
            let (rule, noun) = match site.kind {
                PanicKind::Unwrap | PanicKind::Expect | PanicKind::Macro => {
                    ("panic-reachable", "panicking call")
                }
                PanicKind::Index => ("panic-reach-index", "indexing (can panic out of bounds)"),
                PanicKind::DivRem => (
                    "panic-reach-arith",
                    "division/remainder (panics on zero divisor)",
                ),
            };
            if report_pred[i].is_some() {
                replay_report_sites += 1;
            }
            findings.push(Finding::spanned(
                rule,
                &file.source.rel_path,
                site.span.line,
                site.span.col,
                format!(
                    "`{}`: {noun} on the replay path: {chain}",
                    short(&site.what)
                ),
                file.snippet(site.span.line),
            ));
        }
    }
    Outcome {
        findings,
        replay_report_sites,
    }
}

#[cfg(test)]
mod tests {
    use crate::passes::analyze;
    use crate::source::{FileKind, SourceFile};

    fn file(crate_name: &str, rel: &str, src: &str) -> SourceFile {
        SourceFile {
            rel_path: rel.to_string(),
            crate_name: crate_name.to_string(),
            kind: FileKind::Library,
            text: src.to_string(),
        }
    }

    #[test]
    fn flags_reachable_panics_with_chain() {
        // `workload` is outside the no-panic crates, so the blanket rule
        // stays silent — only reachability fires, proving the pass is
        // path-sensitive, not crate-scoped.
        let trace = file(
            "federation",
            "crates/federation/src/engine.rs",
            "pub struct ReplayEngine;\n\
             impl ReplayEngine { pub fn serve(&self) { step(); } }\n\
             fn step() { helper(); }",
        );
        let helper = file(
            "workload",
            "crates/workload/src/gen.rs",
            "pub fn helper() { let x = items[3]; opt.unwrap(); }\n\
             pub fn unrelated() { other.unwrap(); }",
        );
        let f = analyze(vec![trace, helper]).findings;
        let reach: Vec<_> = f
            .iter()
            .filter(|f| f.rule.starts_with("panic-reach"))
            .collect();
        assert_eq!(reach.len(), 2, "{f:?}");
        assert!(reach.iter().any(|f| f.rule == "panic-reach-index"));
        assert!(reach
            .iter()
            .all(|f| f.message.contains("ReplayEngine::serve → step → helper")));
        assert!(
            !f.iter().any(|f| f.message.contains("unrelated")),
            "unreachable fn not flagged"
        );
    }

    #[test]
    fn assert_is_reach_only_not_blanket() {
        let src = file(
            "federation",
            "crates/federation/src/session.rs",
            "pub struct ReplaySession;\n\
             impl ReplaySession { pub fn run(&self) { assert!(self.ok()); debug_assert!(true); } \
             fn ok(&self) -> bool { true } }",
        );
        let f = analyze(vec![src]).findings;
        assert!(f
            .iter()
            .any(|f| f.rule == "panic-reachable" && f.message.contains("assert!")));
        assert!(!f.iter().any(|f| f.message.contains("debug_assert")));
        assert!(
            !f.iter().any(|f| f.rule == "no-panic"),
            "assert! is not blanket-banned: {f:?}"
        );
    }

    #[test]
    fn division_by_variable_on_replay_path() {
        let src = file(
            "engine",
            "crates/engine/src/x.rs",
            "pub struct ReplayEngine;\n\
             impl ReplayEngine { pub fn serve(&self, n: u64, d: u64) -> u64 { n / d } }",
        );
        let f = analyze(vec![src]).findings;
        assert_eq!(
            f.iter().filter(|f| f.rule == "panic-reach-arith").count(),
            1,
            "{f:?}"
        );
    }
}
