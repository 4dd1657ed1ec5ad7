//! Concurrency readiness for the planned `byc-serve` daemon.
//!
//! The roadmap's next tentpole shares policy/cache/session state across
//! concurrent sessions. This pass gates the two things that would make
//! that migration painful if they crept in now:
//!
//! * `concurrency-ready` — non-`Sync` building blocks in the state
//!   types (`Rc`, `RefCell`, `Cell`, `UnsafeCell`, raw pointers) plus
//!   `static mut` and `thread_local!` anywhere in library code;
//! * `send-sync-assert` — every shareable state type (`CacheState`,
//!   `ReplayTrace`, every `CachePolicy`/`BypassObjectAlgorithm`
//!   implementor) must appear in the compile-time `Send + Sync`
//!   assertion test, so a non-`Sync` field shows up as a build break in
//!   the same change that introduces it.

use super::Workspace;
use crate::ast::lex::Tree;
use crate::ast::{lex, Span};
use crate::report::Finding;
use crate::source::FileKind;
use std::collections::BTreeSet;

/// Crates whose types are shared state under `byc-serve`.
const STATE_CRATES: &[&str] = &["core", "federation", "engine"];

/// Traits whose implementors are policy state shared across sessions.
/// (`UtilityRule` implementors ride inside `InlineCache<R>` assertions,
/// so they are checked compositionally, not by name.)
const SHARED_TRAITS: &[&str] = &["CachePolicy", "BypassObjectAlgorithm"];

/// Types that must always be asserted, beyond trait implementors: the
/// cache state, and the replay trace every sweep worker reads.
const ALWAYS_SHARED: &[&str] = &["CacheState", "ReplayTrace"];

/// Field-type path segments that are not `Sync` (or not `Send`).
const NON_SYNC_SEGMENTS: &[&str] = &["Rc", "RefCell", "Cell", "UnsafeCell"];

/// Workspace-relative path of the assertion test.
pub const ASSERT_FILE: &str = "crates/federation/tests/concurrency_readiness.rs";

/// Run the pass.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();

    for file in &ws.files {
        if !file.source.is_library() {
            continue;
        }
        let in_state_crate = STATE_CRATES.contains(&file.source.crate_name.as_str());
        if in_state_crate {
            for ty in &file.parsed.types {
                if ty.is_test {
                    continue;
                }
                for field in &ty.fields {
                    if let Some(seg) = non_sync_segment(&field.ty) {
                        push(
                            &mut out,
                            file,
                            field.span,
                            format!(
                                "field `{}.{}`: `{seg}` is not thread-shareable; \
                                 byc-serve shares this state across sessions",
                                ty.name, field.name
                            ),
                        );
                    }
                }
            }
        }
        for st in &file.parsed.statics {
            if st.is_mut && !st.is_test {
                push(
                    &mut out,
                    file,
                    st.span,
                    format!("`static mut {}`: unsynchronized global state", st.name),
                );
            }
        }
        for mac in &file.parsed.macro_uses {
            if mac.name == "thread_local" && !mac.is_test {
                push(
                    &mut out,
                    file,
                    mac.span,
                    "`thread_local!`: per-thread state diverges across a session pool".to_string(),
                );
            }
        }
    }

    send_sync_coverage(ws, &mut out);
    out
}

fn push(out: &mut Vec<Finding>, file: &super::AnalyzedFile, span: Span, message: String) {
    out.push(Finding::spanned(
        "concurrency-ready",
        &file.source.rel_path,
        span.line,
        span.col,
        message,
        file.snippet(span.line),
    ));
}

/// The first non-`Sync` path segment in a rendered field type, if any.
fn non_sync_segment(ty: &str) -> Option<&'static str> {
    for seg in ty.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
        if let Some(hit) = NON_SYNC_SEGMENTS.iter().find(|s| **s == seg) {
            return Some(hit);
        }
    }
    if ty.contains("*mut ") || ty.contains("*const ") {
        return Some("raw pointer");
    }
    None
}

/// Verify every shareable type is asserted `Send + Sync` in
/// [`ASSERT_FILE`].
fn send_sync_coverage(ws: &Workspace, out: &mut Vec<Finding>) {
    // Required: impl targets of the shared traits (non-test), plus the
    // always-shared types — but only types the workspace actually
    // defines (fixture runs in unit tests define none).
    let mut defined: BTreeSet<&str> = BTreeSet::new();
    let mut required: BTreeSet<&str> = BTreeSet::new();
    for file in &ws.files {
        if file.source.kind == FileKind::IntegrationTest {
            continue;
        }
        for ty in &file.parsed.types {
            if !ty.is_test {
                defined.insert(&ty.name);
            }
        }
        for imp in &file.parsed.impls {
            if imp.is_test {
                continue;
            }
            if imp
                .trait_name
                .as_deref()
                .is_some_and(|t| SHARED_TRAITS.contains(&t))
            {
                required.insert(&imp.self_type);
            }
        }
    }
    for name in ALWAYS_SHARED {
        if defined.contains(name) {
            required.insert(name);
        }
    }
    required.retain(|n| defined.contains(n));
    if required.is_empty() {
        return;
    }

    let assert_file = ws.files.iter().find(|f| f.source.rel_path == ASSERT_FILE);
    let Some(assert_file) = assert_file else {
        out.push(Finding::new(
            "send-sync-assert",
            ASSERT_FILE,
            0,
            format!(
                "missing Send + Sync assertion test covering {} shareable type(s)",
                required.len()
            ),
        ));
        return;
    };
    let asserted = asserted_types(&assert_file.source.text);
    for name in required {
        if !asserted.contains(name) {
            // Anchor at the type's definition so the fix site is local.
            let (file, span) = ws
                .files
                .iter()
                .find_map(|f| {
                    f.parsed
                        .types
                        .iter()
                        .find(|t| t.name == name && !t.is_test)
                        .map(|t| (f, t.span))
                })
                .unwrap_or((assert_file, Span { line: 0, col: 0 }));
            out.push(Finding::spanned(
                "send-sync-assert",
                &file.source.rel_path,
                span.line,
                span.col,
                format!("shareable type `{name}` has no Send + Sync assertion in {ASSERT_FILE}"),
                file.snippet(span.line),
            ));
        }
    }
}

/// Type names appearing in `assert_send_sync::<...>()` turbofish
/// arguments anywhere in the assertion file.
fn asserted_types(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let Ok(trees) = lex(text) else { return out };
    collect_asserted(&trees, &mut out);
    out
}

fn collect_asserted(trees: &[Tree], out: &mut BTreeSet<String>) {
    for (i, tree) in trees.iter().enumerate() {
        if let Tree::Group(g) = tree {
            collect_asserted(&g.trees, out);
            continue;
        }
        let is_assert = tree
            .leaf()
            .and_then(|t| t.kind.ident())
            .is_some_and(|n| n == "assert_send_sync");
        if !is_assert {
            continue;
        }
        // `assert_send_sync :: < ...idents... > ( )` — collect idents
        // until the angle nesting closes.
        let mut j = i + 1;
        let mut depth = 0i32;
        let mut seen_open = false;
        while let Some(t) = trees.get(j).and_then(Tree::leaf) {
            match &t.kind {
                crate::ast::lex::TokenKind::Punct { ch: '<', .. } => {
                    depth += 1;
                    seen_open = true;
                }
                crate::ast::lex::TokenKind::Punct { ch: '>', .. } => {
                    depth -= 1;
                    if seen_open && depth <= 0 {
                        break;
                    }
                }
                crate::ast::lex::TokenKind::Ident(w) if seen_open => {
                    out.insert(w.clone());
                }
                _ => {}
            }
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::analyze;
    use crate::source::{FileKind, SourceFile};

    fn file(crate_name: &str, rel: &str, kind: FileKind, src: &str) -> SourceFile {
        SourceFile {
            rel_path: rel.to_string(),
            crate_name: crate_name.to_string(),
            kind,
            text: src.to_string(),
        }
    }

    #[test]
    fn interior_mutability_in_state_types_flagged() {
        let src = "pub struct CacheState { entries: Rc<RefCell<Vec<u8>>>, used: u64 }\n\
                   struct Scratch { c: Cell<u32> }\n\
                   #[cfg(test)] struct TestOnly { c: Cell<u32> }";
        let f = analyze(vec![file(
            "core",
            "crates/core/src/cache.rs",
            FileKind::Library,
            src,
        )])
        .findings;
        let cr: Vec<_> = f.iter().filter(|f| f.rule == "concurrency-ready").collect();
        assert_eq!(
            cr.len(),
            2,
            "Rc (first hit per field) + Cell, not test: {f:?}"
        );
    }

    #[test]
    fn static_mut_and_thread_local_flagged() {
        let src = "static mut COUNTER: u64 = 0;\n\
                   static FINE: u64 = 0;\n\
                   thread_local! { static TL: u32 = 7; }";
        let f = analyze(vec![file(
            "workload",
            "crates/workload/src/state.rs",
            FileKind::Library,
            src,
        )])
        .findings;
        let cr: Vec<_> = f.iter().filter(|f| f.rule == "concurrency-ready").collect();
        assert_eq!(cr.len(), 2, "{f:?}");
    }

    #[test]
    fn missing_assertion_file_reported_once() {
        let src = "pub struct NoCache;\nimpl CachePolicy for NoCache { }";
        let f = analyze(vec![file(
            "core",
            "crates/core/src/cache.rs",
            FileKind::Library,
            src,
        )])
        .findings;
        let ss: Vec<_> = f.iter().filter(|f| f.rule == "send-sync-assert").collect();
        assert_eq!(ss.len(), 1, "{f:?}");
        assert!(ss[0].message.contains("missing"));
    }

    #[test]
    fn covered_types_satisfy_the_gate() {
        let lib = file(
            "core",
            "crates/core/src/cache.rs",
            FileKind::Library,
            "pub struct NoCache;\nimpl CachePolicy for NoCache { }\n\
             pub struct Orphan;\nimpl CachePolicy for Orphan { }",
        );
        let test = file(
            "federation",
            ASSERT_FILE,
            FileKind::IntegrationTest,
            "fn assert_send_sync<T: Send + Sync>() {}\n\
             #[test] fn gate() { assert_send_sync::<NoCache>(); }",
        );
        let f = analyze(vec![lib, test]).findings;
        let ss: Vec<_> = f.iter().filter(|f| f.rule == "send-sync-assert").collect();
        assert_eq!(ss.len(), 1, "only Orphan uncovered: {f:?}");
        assert!(ss[0].message.contains("Orphan"));
        assert_eq!(
            ss[0].file, "crates/core/src/cache.rs",
            "anchored at definition"
        );
    }

    #[test]
    fn non_sync_segment_matches_whole_segments() {
        assert_eq!(non_sync_segment("Rc<RefCell<u32>>"), Some("Rc"));
        assert_eq!(non_sync_segment("Cell<u8>"), Some("Cell"));
        assert_eq!(non_sync_segment("MyCellar<u8>"), None);
        assert_eq!(non_sync_segment("*mut u8"), Some("raw pointer"));
        assert_eq!(non_sync_segment("Vec<Price>"), None);
    }
}
