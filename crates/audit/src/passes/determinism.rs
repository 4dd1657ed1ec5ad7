//! Determinism dataflow: nondeterminism sources in functions that feed
//! the replay report/decision streams.
//!
//! The style pass bans clocks and OS RNGs blanket-wide in library
//! crates. This pass is the *dataflow* complement: it computes the set
//! of functions whose output can reach a `CostReport`, `CostEvent`,
//! `Decision`, or `QueryWindow` — reachability from the replay entry
//! points, plus any function that names those types in its signature or
//! body — and inside that set flags the subtler order leaks:
//!
//! * `hash-iter` — iterating a `HashMap`/`HashSet` (SipHash order leaks
//!   straight into serialized output and tie-breaking);
//! * `float-ord` — `partial_cmp` used for ordering (NaN makes the
//!   comparison non-total, and `sort_by(partial_cmp.unwrap())` is both
//!   a panic and an order bug);
//! * `determinism-flow` — clock/RNG calls in report-feeding functions
//!   of crates the blanket rule exempts (`cli`, `bench`).

use super::style::nondet_call;
use super::{AnalyzedFile, Workspace};
use crate::ast::lex::{Delim, Group, TokenKind, Tree};
use crate::ast::scan::{calls_in, mentions_ident};
use crate::callgraph::REPLAY_ENTRY_POINTS;
use crate::report::Finding;
use crate::source::FileKind;
use std::collections::BTreeSet;

/// Types whose values are (or directly populate) the replay output
/// stream. A function mentioning one of these feeds the report.
const REPORT_TYPES: &[&str] = &["CostReport", "CostEvent", "Decision", "QueryWindow"];

/// Methods that expose container iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
];

/// Run the pass.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let roots = ws.graph.entry_nodes(REPLAY_ENTRY_POINTS);
    let pred = ws.graph.reachable_from(&roots);

    let mut out = Vec::new();
    for (i, node) in ws.graph.nodes.iter().enumerate() {
        let file = &ws.files[node.file];
        if file.source.kind == FileKind::IntegrationTest {
            continue;
        }
        let Some(body) = &node.def.body else { continue };
        let reachable = pred[i].is_some();
        let feeds_report = reachable
            || REPORT_TYPES
                .iter()
                .any(|t| mentions_ident(&node.def.signature, t) || mentions_ident(&body.trees, t));
        if !feeds_report {
            continue;
        }
        let why = if reachable {
            ws.graph.chain_to(&pred, i)
        } else {
            format!("{} names a report type", node.def.name)
        };

        // Clock/RNG in the crates the blanket rule exempts.
        let blanket_exempt = file.source.crate_name == "bench" || file.source.crate_name == "cli";
        if blanket_exempt && file.source.kind == FileKind::Library {
            for call in calls_in(body) {
                if let Some(what) = nondet_call(&call) {
                    push(
                        &mut out,
                        file,
                        "determinism-flow",
                        call.span,
                        format!("`{what}` in a report-feeding function ({why})"),
                    );
                }
            }
        }

        // Hash-container iteration.
        let hash_names = hash_bound_names(file, body);
        for site in iteration_sites(body, &hash_names) {
            push(
                &mut out,
                file,
                "hash-iter",
                site.1,
                format!(
                    "iterating hash container `{}` feeds replay output ({why}); \
                     use DenseMap/BTreeMap or sort first",
                    site.0
                ),
            );
        }

        // Float ordering.
        for call in calls_in(body) {
            if call.path.last().is_some_and(|n| n == "partial_cmp") {
                push(
                    &mut out,
                    file,
                    "float-ord",
                    call.span,
                    format!(
                        "`partial_cmp` for ordering in a report-feeding function ({why}); \
                         use total_cmp"
                    ),
                );
            }
        }
    }
    out
}

fn push(
    out: &mut Vec<Finding>,
    file: &AnalyzedFile,
    rule: &str,
    span: crate::ast::Span,
    message: String,
) {
    out.push(Finding::spanned(
        rule,
        &file.source.rel_path,
        span.line,
        span.col,
        message,
        file.snippet(span.line),
    ));
}

/// Names bound to hash containers visible to this body: struct fields
/// of hash type declared in the same file, plus `let` locals whose
/// statement mentions `HashMap`/`HashSet` (type ascription or
/// constructor).
fn hash_bound_names(file: &AnalyzedFile, body: &Group) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for ty in &file.parsed.types {
        for field in &ty.fields {
            if is_hash_ty(&field.ty) {
                names.insert(field.name.clone());
            }
        }
    }
    collect_hash_lets(&body.trees, &mut names);
    names
}

/// True when a rendered type mentions `HashMap`/`HashSet` as a path
/// segment.
fn is_hash_ty(ty: &str) -> bool {
    ty.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .any(|seg| seg == "HashMap" || seg == "HashSet")
}

fn collect_hash_lets(trees: &[Tree], out: &mut BTreeSet<String>) {
    let mut i = 0usize;
    while i < trees.len() {
        if let Tree::Group(g) = &trees[i] {
            collect_hash_lets(&g.trees, out);
            i += 1;
            continue;
        }
        let is_let = trees[i]
            .leaf()
            .and_then(|t| t.kind.ident())
            .is_some_and(|w| w == "let");
        if !is_let {
            i += 1;
            continue;
        }
        // Statement extent: up to the `;` at this level.
        let start = i + 1;
        let mut end = start;
        while end < trees.len() {
            if trees[end].leaf().is_some_and(|t| t.kind.is_punct(';')) {
                break;
            }
            end += 1;
        }
        let stmt = &trees[start..end.min(trees.len())];
        // Bound name: first ident, skipping `mut`.
        let name = stmt.iter().find_map(|t| {
            t.leaf()
                .and_then(|t| t.kind.ident())
                .filter(|w| *w != "mut")
        });
        if let Some(name) = name {
            if mentions_ident(stmt, "HashMap") || mentions_ident(stmt, "HashSet") {
                out.insert(name.to_string());
            }
        }
        i = end + 1;
    }
}

/// `(name, span)` of iteration sites over names in `hash_names`:
/// `name.iter()`-family method calls and `for _ in name`/
/// `for _ in &name` loops (direct or through `self.name`).
fn iteration_sites(body: &Group, hash_names: &BTreeSet<String>) -> Vec<(String, crate::ast::Span)> {
    let mut out = Vec::new();
    if hash_names.is_empty() {
        return out;
    }
    walk_iter_sites(&body.trees, hash_names, &mut out);
    out
}

fn walk_iter_sites(
    trees: &[Tree],
    hash_names: &BTreeSet<String>,
    out: &mut Vec<(String, crate::ast::Span)>,
) {
    for (i, tree) in trees.iter().enumerate() {
        match tree {
            Tree::Group(g) => walk_iter_sites(&g.trees, hash_names, out),
            Tree::Leaf(tok) => {
                let Some(name) = tok.kind.ident() else {
                    continue;
                };
                // `recv.iter_method(...)`
                if ITER_METHODS.contains(&name) {
                    let prev_dot = i
                        .checked_sub(1)
                        .and_then(|j| trees.get(j))
                        .and_then(Tree::leaf)
                        .is_some_and(|t| t.kind.is_punct('.'));
                    let next_paren = trees
                        .get(i + 1)
                        .and_then(Tree::group)
                        .is_some_and(|g| g.delim == Delim::Paren);
                    let recv = i
                        .checked_sub(2)
                        .and_then(|j| trees.get(j))
                        .and_then(Tree::leaf)
                        .and_then(|t| t.kind.ident());
                    if prev_dot && next_paren {
                        if let Some(recv) = recv {
                            if hash_names.contains(recv) {
                                out.push((recv.to_string(), tok.span));
                            }
                        }
                    }
                    continue;
                }
                // `for pat in [&][mut] path { ... }`
                if name == "in" {
                    let mut j = i + 1;
                    let mut last_ident: Option<(&str, crate::ast::Span)> = None;
                    while let Some(t) = trees.get(j) {
                        match t {
                            Tree::Leaf(l) => match &l.kind {
                                TokenKind::Ident(w) if w != "mut" && w != "self" && w != "ref" => {
                                    last_ident = Some((w, l.span));
                                    j += 1;
                                }
                                TokenKind::Ident(_) => j += 1,
                                TokenKind::Punct { ch, .. }
                                    if *ch == '&' || *ch == '.' || *ch == ':' =>
                                {
                                    j += 1;
                                }
                                _ => break,
                            },
                            Tree::Group(g) if g.delim == Delim::Brace => break,
                            Tree::Group(_) => break, // `in f(x) {` — a call, handled above
                        }
                    }
                    let body_follows = trees
                        .get(j)
                        .and_then(Tree::group)
                        .is_some_and(|g| g.delim == Delim::Brace);
                    if body_follows {
                        if let Some((w, span)) = last_ident {
                            if hash_names.contains(w) {
                                out.push((w.to_string(), span));
                            }
                        }
                    }
                }
            }
        }
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
    fn hash_iteration_in_report_feeding_fn() {
        let src = "use std::collections::HashMap;\n\
                   pub fn summarize(report: &CostReport) {\n\
                       let mut acc: HashMap<u64, u64> = HashMap::new();\n\
                       for (k, v) in &acc { emit(k, v); }\n\
                       let spill = acc.iter().count();\n\
                   }\n\
                   pub fn elsewhere() { let mut m: HashMap<u64, u64> = HashMap::new(); \
                       for x in &m { } }";
        let f = analyze(vec![file(
            "workload",
            "crates/workload/src/summary.rs",
            src,
        )])
        .findings;
        let hi: Vec<_> = f.iter().filter(|f| f.rule == "hash-iter").collect();
        assert_eq!(
            hi.len(),
            2,
            "for-loop + .iter(), not the non-report fn: {f:?}"
        );
        assert!(hi[0].message.contains("names a report type"));
    }

    #[test]
    fn hash_iteration_via_replay_reachability() {
        let src = "pub struct ReplayEngine { index: std::collections::HashMap<u64, u64> }\n\
                   impl ReplayEngine {\n\
                       pub fn serve(&self) { for k in self.index.keys() { use_it(k); } }\n\
                   }";
        let f = analyze(vec![file("engine", "crates/engine/src/replay.rs", src)]).findings;
        assert!(
            f.iter()
                .any(|f| f.rule == "hash-iter" && f.message.contains("ReplayEngine::serve")),
            "{f:?}"
        );
    }

    #[test]
    fn float_ord_only_in_report_feeding_fns() {
        let src = "pub fn rank(xs: &mut Vec<(f64, Decision)>) {\n\
                       xs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());\n\
                   }\n\
                   pub fn unrelated(a: f64, b: f64) -> bool { a.partial_cmp(&b).is_some() }";
        let f = analyze(vec![file("workload", "crates/workload/src/rank.rs", src)]).findings;
        let fo: Vec<_> = f.iter().filter(|f| f.rule == "float-ord").collect();
        assert_eq!(fo.len(), 1, "{f:?}");
        assert_eq!(fo[0].line, 2);
    }

    #[test]
    fn clock_in_cli_report_path_flagged_by_dataflow() {
        let src = "pub fn render(report: &CostReport) { let t = Instant::now(); show(t); }\n\
                   pub fn prompt() { let t = Instant::now(); }";
        let f = analyze(vec![file("cli", "crates/cli/src/render.rs", src)]).findings;
        let df: Vec<_> = f.iter().filter(|f| f.rule == "determinism-flow").collect();
        assert_eq!(df.len(), 1, "only the report-feeding fn: {f:?}");
        assert!(
            f.iter().all(|f| f.rule != "no-nondeterminism"),
            "cli is blanket-exempt"
        );
    }
}
