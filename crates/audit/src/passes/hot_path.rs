//! Per-access scan detection: container walks inside the policy
//! decision hot path.
//!
//! The policy hot path (DESIGN.md §18) keeps every policy's
//! steady-state decision cheap: utilities live in heaps and eviction
//! planning pops candidates instead of rescanning the cache. This pass
//! keeps it that way. Starting from every `on_access`/`on_request`
//! implementation in `byc-core` — the per-access mouths of the policy
//! layer — it walks the call graph and flags any whole-container
//! traversal (`.iter()`, `.values_mut()`, `.sort_by(...)`, …) in a
//! reachable `byc-core` function. A scan that runs on every access
//! turns the decision path back into O(n); the few deliberate
//! exceptions (amortized phase rebuilds, Rate-Profile's victim pass on
//! a miss that could load but does not fit) are carried in
//! `audit.toml` with reasons, so a new scan cannot land silently.

use super::Workspace;
use crate::ast::scan::calls_in;
use crate::report::Finding;
use crate::source::FileKind;

/// Method names that traverse a whole container. Names, not receivers:
/// the point is to surface every candidate site and force a reasoned
/// allowlist entry for the ones that are genuinely amortized or
/// debug-only.
const SCAN_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "values",
    "values_mut",
    "keys",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "retain",
];

/// Run the pass.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    // Roots: every per-access decision entry point the core policy
    // layer defines (trait impls and inherent methods alike).
    let roots: Vec<usize> = ws
        .graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| {
            matches!(n.def.name.as_str(), "on_access" | "on_request")
                && n.def.qualifier.is_some()
                && ws.files[n.file].source.crate_name == "core"
        })
        .map(|(i, _)| i)
        .collect();
    let pred = ws.graph.reachable_from(&roots);

    let mut findings = Vec::new();
    for (i, node) in ws.graph.nodes.iter().enumerate() {
        if pred[i].is_none() {
            continue;
        }
        let file = &ws.files[node.file];
        // Scope to byc-core library code: the policy layer owns the
        // per-access budget; callers in other crates pay per replay,
        // not per access.
        if file.source.kind != FileKind::Library || file.source.crate_name != "core" {
            continue;
        }
        let Some(body) = &node.def.body else { continue };
        let chain = ws.graph.chain_to(&pred, i);
        for call in calls_in(body) {
            if !call.is_method {
                continue;
            }
            let name = call.path.last().map(String::as_str).unwrap_or("");
            if !SCAN_METHODS.contains(&name) {
                continue;
            }
            findings.push(Finding::spanned(
                "per-access-scan",
                &file.source.rel_path,
                call.span.line,
                call.span.col,
                format!("`.{name}()`: container scan on the per-access decision path: {chain}"),
                file.snippet(call.span.line),
            ));
        }
    }
    findings
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
    fn flags_scans_reachable_from_on_access() {
        let src = file(
            "core",
            "crates/core/src/p.rs",
            "pub struct P;\n\
             impl P { pub fn on_access(&mut self) { self.rescan(); } \
             fn rescan(&mut self) { for x in self.items.iter() { touch(x); } } \
             fn cold(&mut self) { self.items.iter_mut().count(); } }",
        );
        let f = analyze(vec![src]).findings;
        let scans: Vec<_> = f.iter().filter(|f| f.rule == "per-access-scan").collect();
        assert_eq!(scans.len(), 1, "{f:?}");
        assert!(scans[0].message.contains("P::on_access → P::rescan"));
        assert!(
            !f.iter().any(|f| f.message.contains("cold")),
            "unreachable fn not flagged: {f:?}"
        );
    }

    #[test]
    fn other_crates_and_sorts_scope_correctly() {
        // A sort inside the access chain fires; the same call in a
        // non-core crate does not — replay-level code pays per replay.
        let core = file(
            "core",
            "crates/core/src/q.rs",
            "pub struct Q;\n\
             impl Q { pub fn on_request(&mut self) { self.pick(); } \
             fn pick(&mut self) { self.v.sort_by(|a, b| a.cmp(b)); } }",
        );
        let fed = file(
            "federation",
            "crates/federation/src/r.rs",
            "pub fn report(v: &mut Vec<u32>) { v.sort_by(|a, b| a.cmp(b)); }",
        );
        let f = analyze(vec![core, fed]).findings;
        let scans: Vec<_> = f.iter().filter(|f| f.rule == "per-access-scan").collect();
        assert_eq!(scans.len(), 1, "{f:?}");
        assert!(scans[0].file.contains("crates/core"));
        assert!(scans[0].message.contains("sort_by"));
    }
}
