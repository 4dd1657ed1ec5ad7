//! Body walkers: call sites, panic sites, identifier queries.
//!
//! These operate on token trees, recursing through every group —
//! blocks, closures, macro arguments — so a call inside
//! `debug_assert!(...)` or a `vec![...]` still produces a call-graph
//! edge. Item boundaries were already handled by the parser; the
//! walkers only see bodies.

use super::lex::{Delim, Group, Span, TokenKind, Tree};

/// One call site found in a function body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallRef {
    /// Path segments. For a method call this is the bare method name;
    /// for `Tick::new(...)` it is `["Tick", "new"]`.
    pub path: Vec<String>,
    /// True for `.name(...)` receiver syntax.
    pub is_method: bool,
    /// Span of the called name.
    pub span: Span,
}

/// How a panic can be reached at a site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PanicKind {
    /// `.unwrap()`.
    Unwrap,
    /// `.expect(...)` — may be re-classified as a plain method call by
    /// the pass when the receiver is `self` and the enclosing impl
    /// defines its own `expect` (see `byc_types::json`'s parser).
    Expect,
    /// `panic!` / `unreachable!` / `unimplemented!` / `todo!` /
    /// `assert!`-family (not `debug_assert!`, which release replays
    /// compile out).
    Macro,
    /// An index expression `expr[...]` (slice/array indexing panics
    /// out of bounds).
    Index,
    /// `/` or `%` with a non-literal divisor (division by zero panics
    /// even in release builds).
    DivRem,
}

/// One potential panic site.
#[derive(Clone, Debug)]
pub struct PanicSite {
    /// How it panics.
    pub kind: PanicKind,
    /// Where.
    pub span: Span,
    /// The construct, for messages (`unwrap()`, `panic!`, `[...]`,
    /// `/ divisor`).
    pub what: String,
    /// For [`PanicKind::Unwrap`]/[`PanicKind::Expect`]: the receiver
    /// is the literal token `self`.
    pub receiver_is_self: bool,
}

/// Macros whose expansion panics unconditionally or on a failed check
/// that survives into release builds.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "unimplemented",
    "todo",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Keywords that can directly precede a `[` without forming an index
/// expression (`let [a, b] = ...`, `return [x]`, `in [..]`…).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "in", "return", "break", "continue", "else", "match", "if", "while", "loop", "move",
    "mut", "ref", "as", "impl", "fn", "use", "pub", "const", "static", "where", "for", "dyn",
    "box", "await", "yield", "unsafe", "async",
];

/// Extract every call site in `body`, recursively.
pub fn calls_in(body: &Group) -> Vec<CallRef> {
    let mut out = Vec::new();
    walk_calls(&body.trees, &mut out);
    out
}

fn walk_calls(trees: &[Tree], out: &mut Vec<CallRef>) {
    for (i, tree) in trees.iter().enumerate() {
        if let Tree::Group(g) = tree {
            walk_calls(&g.trees, out);
            continue;
        }
        let Some(tok) = tree.leaf() else { continue };
        let Some(name) = tok.kind.ident() else {
            continue;
        };
        // `name (args)` or `name ! (args)` or `name :: ...`.
        let next_is = |j: usize, ch: char| {
            trees
                .get(j)
                .and_then(Tree::leaf)
                .is_some_and(|t| t.kind.is_punct(ch))
        };
        let group_at = |j: usize| trees.get(j).and_then(Tree::group);

        let prev_leaf = i
            .checked_sub(1)
            .and_then(|j| trees.get(j))
            .and_then(Tree::leaf);
        let prev_is_dot = prev_leaf.is_some_and(|t| t.kind.is_punct('.'));
        let prev_is_fn = prev_leaf.and_then(|t| t.kind.ident()) == Some("fn");
        let prev_is_pathsep = prev_leaf.is_some_and(|t| t.kind.is_punct(':'));

        if next_is(i + 1, '!') && group_at(i + 2).is_some() {
            // Macro call: record nothing as a call edge (macros are
            // handled by panic/nondeterminism checks); arguments are
            // walked by the group recursion above when we reach them.
            continue;
        }

        let direct_call = group_at(i + 1).is_some_and(|g| g.delim == Delim::Paren);
        // Turbofish `name::<T>(...)`: name, ::, <, ... >, (args).
        let turbofish_call = next_is(i + 1, ':') && {
            // Find the paren group after the generic args on this level.
            // Cheap check: `::<` follows.
            next_is(i + 2, ':')
                && trees
                    .get(i + 3)
                    .and_then(Tree::leaf)
                    .is_some_and(|t| t.kind.is_punct('<'))
        };
        if !direct_call && !turbofish_call {
            continue;
        }
        if prev_is_fn {
            continue; // a definition, not a call
        }
        if prev_is_dot {
            out.push(CallRef {
                path: vec![name.to_string()],
                is_method: true,
                span: tok.span,
            });
            continue;
        }
        if prev_is_pathsep {
            // Middle/last of a `a::b::c(...)` path — collect backwards.
            let mut segs = vec![name.to_string()];
            let mut j = i;
            while j >= 2 {
                let sep = trees
                    .get(j - 1)
                    .and_then(Tree::leaf)
                    .is_some_and(|t| t.kind.is_punct(':'))
                    && trees.get(j - 2).and_then(Tree::leaf).is_some_and(|t| {
                        matches!(
                            t.kind,
                            TokenKind::Punct {
                                ch: ':',
                                joint: true
                            }
                        )
                    });
                if !sep {
                    break;
                }
                let Some(seg) = j
                    .checked_sub(3)
                    .and_then(|k| trees.get(k))
                    .and_then(Tree::leaf)
                    .and_then(|t| t.kind.ident())
                else {
                    break;
                };
                segs.insert(0, seg.to_string());
                j -= 3;
            }
            out.push(CallRef {
                path: segs,
                is_method: false,
                span: tok.span,
            });
            continue;
        }
        out.push(CallRef {
            path: vec![name.to_string()],
            is_method: false,
            span: tok.span,
        });
    }
}

/// Find every potential panic site in `body`, recursively.
pub fn panic_sites_in(body: &Group) -> Vec<PanicSite> {
    let mut out = Vec::new();
    walk_panics(&body.trees, &mut out);
    out
}

#[allow(clippy::too_many_lines)]
fn walk_panics(trees: &[Tree], out: &mut Vec<PanicSite>) {
    for (i, tree) in trees.iter().enumerate() {
        match tree {
            Tree::Group(g) => {
                // Index expression: a bracket group directly after an
                // expression-ending token.
                if g.delim == Delim::Bracket {
                    if let Some(prev) = i.checked_sub(1).and_then(|j| trees.get(j)) {
                        let indexable = match prev {
                            Tree::Leaf(t) => match &t.kind {
                                TokenKind::Ident(w) => !NON_INDEX_KEYWORDS.contains(&w.as_str()),
                                TokenKind::Int(_) => false,
                                _ => false,
                            },
                            Tree::Group(pg) => pg.delim != Delim::Brace,
                        };
                        if indexable {
                            out.push(PanicSite {
                                kind: PanicKind::Index,
                                span: g.open,
                                what: format!("[{}]", super::parse::render(&g.trees)),
                                receiver_is_self: false,
                            });
                        }
                    }
                }
                walk_panics(&g.trees, out);
            }
            Tree::Leaf(tok) => match &tok.kind {
                TokenKind::Ident(name) => {
                    let next_bang = trees
                        .get(i + 1)
                        .and_then(Tree::leaf)
                        .is_some_and(|t| t.kind.is_punct('!'));
                    let has_args = trees.get(i + 2).and_then(Tree::group).is_some();
                    if next_bang && has_args && PANIC_MACROS.contains(&name.as_str()) {
                        out.push(PanicSite {
                            kind: PanicKind::Macro,
                            span: tok.span,
                            what: format!("{name}!"),
                            receiver_is_self: false,
                        });
                        continue;
                    }
                    if name != "unwrap" && name != "expect" {
                        continue;
                    }
                    let prev_is_dot = i
                        .checked_sub(1)
                        .and_then(|j| trees.get(j))
                        .and_then(Tree::leaf)
                        .is_some_and(|t| t.kind.is_punct('.'));
                    let next_is_paren = trees
                        .get(i + 1)
                        .and_then(Tree::group)
                        .is_some_and(|g| g.delim == Delim::Paren);
                    if !(prev_is_dot && next_is_paren) {
                        continue;
                    }
                    let receiver_is_self = i
                        .checked_sub(2)
                        .and_then(|j| trees.get(j))
                        .and_then(Tree::leaf)
                        .and_then(|t| t.kind.ident())
                        == Some("self");
                    out.push(PanicSite {
                        kind: if name == "unwrap" {
                            PanicKind::Unwrap
                        } else {
                            PanicKind::Expect
                        },
                        span: tok.span,
                        what: format!("{name}()"),
                        receiver_is_self,
                    });
                }
                TokenKind::Punct { ch, .. } if *ch == '/' || *ch == '%' => {
                    // Binary `/`, `%`, `/=`, `%=`. Only *integer*
                    // division panics on a zero divisor; float division
                    // yields inf/NaN. Types are unknown here, so use
                    // statement-local evidence: a float literal or an
                    // `f64`/`f32`/`as_f64` mention between the nearest
                    // `;` boundaries means the arithmetic is floating
                    // point and the site is skipped.
                    if float_evidence_around(trees, i) {
                        continue;
                    }
                    // The divisor is the next leaf (past an `=` for
                    // compound assignment).
                    let mut j = i + 1;
                    if trees
                        .get(j)
                        .and_then(Tree::leaf)
                        .is_some_and(|t| t.kind.is_punct('='))
                    {
                        j += 1;
                    }
                    let divisor = trees.get(j);
                    let literal_divisor = matches!(
                        divisor.and_then(Tree::leaf).map(|t| &t.kind),
                        Some(TokenKind::Int(_)) | Some(TokenKind::Float(_))
                    );
                    // `|` closures and `<`/`>` generics never produce
                    // stray `/`; comments are gone; a missing divisor
                    // (end of level) is not a division.
                    if divisor.is_some() && !literal_divisor {
                        let what = match divisor {
                            Some(Tree::Leaf(t)) => match &t.kind {
                                TokenKind::Ident(w) => format!("{ch} {w}"),
                                _ => format!("{ch} …"),
                            },
                            _ => format!("{ch} …"),
                        };
                        out.push(PanicSite {
                            kind: PanicKind::DivRem,
                            span: tok.span,
                            what,
                            receiver_is_self: false,
                        });
                    }
                }
                _ => {}
            },
        }
    }
}

/// Identifiers whose presence in a statement marks the arithmetic as
/// floating point.
const FLOAT_MARKERS: &[&str] = &["f64", "f32", "as_f64", "as_f32"];

/// True when the statement containing position `i` (between the nearest
/// `;` leaves at this level) shows float evidence — a float literal or a
/// [`FLOAT_MARKERS`] identifier, at any nesting depth.
fn float_evidence_around(trees: &[Tree], i: usize) -> bool {
    let start = trees[..i]
        .iter()
        .rposition(|t| t.leaf().is_some_and(|t| t.kind.is_punct(';')))
        .map_or(0, |p| p + 1);
    let end = trees[i..]
        .iter()
        .position(|t| t.leaf().is_some_and(|t| t.kind.is_punct(';')))
        .map_or(trees.len(), |p| i + p);
    fn has_float(trees: &[Tree]) -> bool {
        trees.iter().any(|t| match t {
            Tree::Leaf(tok) => match &tok.kind {
                TokenKind::Float(_) => true,
                TokenKind::Ident(w) => FLOAT_MARKERS.contains(&w.as_str()),
                _ => false,
            },
            Tree::Group(g) => has_float(&g.trees),
        })
    }
    has_float(&trees[start..end])
}

/// Collect every identifier occurrence outside test code.
///
/// Walks item trees, skipping any item (through its terminating `;` or
/// brace group) that carries a `#[test]`/`#[cfg(test)]`-style attribute.
/// Used by rules that must see non-item tokens too (`use` statements,
/// `const` initializers), which the item parser does not retain.
pub fn non_test_idents(trees: &[Tree]) -> Vec<(String, Span)> {
    let mut out = Vec::new();
    walk_non_test(trees, &mut out);
    out
}

fn walk_non_test(trees: &[Tree], out: &mut Vec<(String, Span)>) {
    let mut i = 0usize;
    while i < trees.len() {
        // `#` (maybe `!`) + bracket group mentioning `test`: skip the
        // attached item, i.e. everything up to and including the next
        // `;` leaf or brace group at this level.
        if trees[i].leaf().is_some_and(|t| t.kind.is_punct('#')) {
            let mut j = i + 1;
            if trees
                .get(j)
                .and_then(Tree::leaf)
                .is_some_and(|t| t.kind.is_punct('!'))
            {
                j += 1;
            }
            if let Some(g) = trees.get(j).and_then(Tree::group) {
                if g.delim == Delim::Bracket {
                    if mentions_ident(&g.trees, "test") {
                        i = j + 1;
                        while i < trees.len() {
                            let done = match &trees[i] {
                                Tree::Leaf(t) => t.kind.is_punct(';'),
                                Tree::Group(g) => g.delim == Delim::Brace,
                            };
                            i += 1;
                            if done {
                                break;
                            }
                        }
                        continue;
                    }
                    i = j + 1; // non-test attribute: drop its tokens
                    continue;
                }
            }
        }
        match &trees[i] {
            Tree::Leaf(tok) => {
                if let TokenKind::Ident(s) = &tok.kind {
                    out.push((s.clone(), tok.span));
                }
            }
            Tree::Group(g) => walk_non_test(&g.trees, out),
        }
        i += 1;
    }
}

/// True when `body` mentions identifier `name` anywhere (type
/// positions included).
pub fn mentions_ident(trees: &[Tree], name: &str) -> bool {
    trees.iter().any(|t| match t {
        Tree::Leaf(tok) => tok.kind.ident() == Some(name),
        Tree::Group(g) => mentions_ident(&g.trees, name),
    })
}

/// Collect `(ident, span)` pairs for every identifier occurrence.
pub fn idents_with_spans(trees: &[Tree], out: &mut Vec<(String, Span)>) {
    for t in trees {
        match t {
            Tree::Leaf(tok) => {
                if let TokenKind::Ident(s) = &tok.kind {
                    out.push((s.clone(), tok.span));
                }
            }
            Tree::Group(g) => idents_with_spans(&g.trees, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse::parse_file;

    fn body_of(src: &str) -> Group {
        let f = parse_file(src).unwrap();
        f.fns[0].body.clone().expect("fn body")
    }

    #[test]
    fn extracts_method_and_path_calls() {
        let body = body_of("fn f() { policy.on_access(&a); Tick::new(3); helper(x); }");
        let calls = calls_in(&body);
        assert_eq!(calls.len(), 3);
        assert_eq!(calls[0].path, vec!["on_access"]);
        assert!(calls[0].is_method);
        assert_eq!(calls[1].path, vec!["Tick", "new"]);
        assert!(!calls[1].is_method);
        assert_eq!(calls[2].path, vec!["helper"]);
    }

    #[test]
    fn long_paths_collect_all_segments() {
        let body = body_of("fn f() { crate::engine::serve_slice(a, b); }");
        let calls = calls_in(&body);
        assert_eq!(calls[0].path, vec!["crate", "engine", "serve_slice"]);
    }

    #[test]
    fn calls_inside_macros_and_closures_found() {
        let body =
            body_of("fn f() { debug_assert!(r.conserves_delivery()); v.map(|x| price(x)); }");
        let calls = calls_in(&body);
        let names: Vec<&str> = calls
            .iter()
            .map(|c| c.path.last().unwrap().as_str())
            .collect();
        assert!(names.contains(&"conserves_delivery"));
        assert!(names.contains(&"price"));
        assert!(names.contains(&"map"));
    }

    #[test]
    fn unwrap_and_expect_sites() {
        let body = body_of("fn f() { x.unwrap(); y.expect(\"msg\"); self.expect(b); }");
        let sites = panic_sites_in(&body);
        assert_eq!(sites.len(), 3);
        assert_eq!(sites[0].kind, PanicKind::Unwrap);
        assert_eq!(sites[1].kind, PanicKind::Expect);
        assert!(!sites[1].receiver_is_self);
        assert!(sites[2].receiver_is_self);
    }

    #[test]
    fn expected_identifier_is_not_expect() {
        let body = body_of("fn f(expected: u32) { let expectation = expected; g(expected) }");
        assert!(panic_sites_in(&body).is_empty());
    }

    #[test]
    fn panic_family_macros() {
        let body = body_of(
            "fn f() { panic!(\"x\"); unreachable!(); assert_eq!(a, b); debug_assert!(c); }",
        );
        let sites = panic_sites_in(&body);
        let whats: Vec<&str> = sites.iter().map(|s| s.what.as_str()).collect();
        assert_eq!(whats, vec!["panic!", "unreachable!", "assert_eq!"]);
    }

    #[test]
    fn index_expressions_but_not_patterns_or_types() {
        let body = body_of(
            "fn f() { let [a, b] = pair; let _: [u8; 4] = arr; x[i] = items[j]; f()[0]; #[cfg(x)] let y = 2; }",
        );
        let sites = panic_sites_in(&body);
        let idx: Vec<&PanicSite> = sites
            .iter()
            .filter(|s| s.kind == PanicKind::Index)
            .collect();
        assert_eq!(idx.len(), 3, "x[i], items[j], f()[0]: {sites:?}");
    }

    #[test]
    fn array_literal_after_operators_not_flagged() {
        let body = body_of("fn f() { let v = [1, 2]; g(&[3, 4]); h([5]); }");
        // `h([5])` — the bracket group's previous tree is the paren
        // *content* boundary, not an expression; only groups directly
        // preceded by an expression count. Inside `h(...)`'s args the
        // bracket is first, so no index.
        let sites = panic_sites_in(&body);
        assert!(
            sites.iter().all(|s| s.kind != PanicKind::Index),
            "{sites:?}"
        );
    }

    #[test]
    fn division_by_non_literal_flagged() {
        let body = body_of("fn f() { let a = x / y; let b = x / 2; let c = x % n; x /= m; }");
        let sites = panic_sites_in(&body);
        let divs: Vec<&str> = sites
            .iter()
            .filter(|s| s.kind == PanicKind::DivRem)
            .map(|s| s.what.as_str())
            .collect();
        assert_eq!(divs, vec!["/ y", "% n", "/ m"]);
    }

    #[test]
    fn float_division_not_flagged() {
        let body = body_of(
            "fn f() { let a = cost.as_f64() / s; let b = 1.0 / n; \
             let c = x as f64 / y; let d = k / m; }",
        );
        let sites = panic_sites_in(&body);
        let divs: Vec<&str> = sites
            .iter()
            .filter(|s| s.kind == PanicKind::DivRem)
            .map(|s| s.what.as_str())
            .collect();
        assert_eq!(divs, vec!["/ m"], "only the integer division survives");
    }

    #[test]
    fn non_test_idents_skip_test_items() {
        let trees = crate::ast::lex(
            "use std::collections::HashMap;\n\
             #[cfg(test)]\nmod tests { use std::collections::HashSet; fn t() {} }\n\
             fn live() { let x = HashMap::new(); }",
        )
        .unwrap();
        let names: Vec<String> = non_test_idents(&trees)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert!(names.iter().any(|n| n == "HashMap"));
        assert!(!names.iter().any(|n| n == "HashSet"), "{names:?}");
        assert!(names.iter().any(|n| n == "live"));
    }

    #[test]
    fn index_in_nested_group_found() {
        let body = body_of("fn f() { g(h(items[k])); }");
        let sites = panic_sites_in(&body);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].kind, PanicKind::Index);
    }
}
