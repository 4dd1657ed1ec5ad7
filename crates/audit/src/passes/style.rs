//! The direct (non-reachability) rules, now token-accurate.
//!
//! These are the four original textual rules, re-expressed over the
//! AST: `no-panic`, `no-nondeterminism`, `no-raw-cast`, and
//! `policy-impl`. String literals and comments no longer exist at this
//! layer (the lexer drops their contents), and `#[cfg(test)]` extents
//! are item-structural, so the regex-era false positives are gone by
//! construction.

use super::Workspace;
use crate::ast::scan::{calls_in, non_test_idents, panic_sites_in, CallRef, PanicKind};
use crate::ast::{lex, Span};
use crate::report::Finding;
use std::collections::BTreeSet;

/// Crates whose library code must never panic: the simulation substrate,
/// the caching algorithms, the telemetry riding inside replays — and
/// `types`, whose operator impls (`Bytes + Bytes`) the call graph cannot
/// see (operator overloads produce no edges), so it is covered by this
/// direct scan instead.
pub const NO_PANIC_CRATES: &[&str] = &[
    "core",
    "engine",
    "federation",
    "sql",
    "catalog",
    "telemetry",
    "types",
];

/// Panic macros forbidden outright in [`NO_PANIC_CRATES`] (the
/// reachability pass additionally flags `unreachable!`/`assert!*` on
/// the replay path).
const FORBIDDEN_MACROS: &[&str] = &["panic!", "unimplemented!", "todo!"];

/// Files on the accounting/reporting path, where even *iteration order*
/// must be deterministic because it feeds serialized reports and
/// tie-breaking. Hash-based containers are banned here outright;
/// ordered structures (`Vec`, `BTreeMap`) replace them.
const ACCOUNTING_FILES: &[&str] = &["accounting.rs", "metrics.rs", "report.rs", "json.rs"];

/// `byc-core` files holding per-object policy state. These migrated from
/// `HashMap<ObjectId, _>` to `DenseMap` (vec-backed, raw-id indexed,
/// deterministic iteration): eviction tie-breaking and scan order feed
/// replay decisions, so SipHash iteration order must never creep back
/// in. `offline.rs` is absent: it keeps no per-object state.
const POLICY_STATE_FILES: &[&str] = &[
    "cache.rs",
    "bypass_object.rs",
    "inline.rs",
    "online.rs",
    "rate_profile.rs",
    "static_opt.rs",
    "spaceeff.rs",
];

/// Integer cast targets forbidden in `byc-core` library code: byte and
/// count quantities must move through `From`/`TryFrom`/`Bytes` instead
/// of truncating `as` casts.
const INT_CAST_TARGETS: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// The policy hierarchy traits (shared with the concurrency pass).
pub const POLICY_TRAITS: &[&str] = &["CachePolicy", "UtilityRule", "BypassObjectAlgorithm"];

/// Modules in `byc-core` whose public structs must plug into the policy
/// hierarchy.
const POLICY_MODULES: &[&str] = &[
    "online.rs",
    "spaceeff.rs",
    "inline.rs",
    "rate_profile.rs",
    "static_opt.rs",
    "bypass_object.rs",
];

/// Impl-target types that define their own `expect` method, so
/// `self.expect(...)` inside them is a plain recursive call, not
/// `Option::expect` (the json parser does this).
pub fn self_expect_qualifiers(ws: &Workspace) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for file in &ws.files {
        for def in &file.parsed.fns {
            if def.name == "expect" && !def.is_test {
                if let Some(q) = &def.qualifier {
                    out.insert(q.clone());
                }
            }
        }
    }
    out
}

/// True when this site is a `self.expect(...)` call on a type with its
/// own `expect` method.
pub fn is_own_expect(
    kind: PanicKind,
    receiver_is_self: bool,
    qualifier: Option<&str>,
    own_expect: &BTreeSet<String>,
) -> bool {
    kind == PanicKind::Expect
        && receiver_is_self
        && qualifier.is_some_and(|q| own_expect.contains(q))
}

/// True when `call` is one of the nondeterminism sources: wall clocks
/// and OS-seeded RNGs. Replays must be bit-for-bit reproducible from a
/// seed.
pub fn nondet_call(call: &CallRef) -> Option<&'static str> {
    let name = call.path.last().map(String::as_str)?;
    let qual = call
        .path
        .len()
        .checked_sub(2)
        .map(|i| call.path[i].as_str());
    match (qual, name) {
        (Some("Instant"), "now") => Some("Instant::now"),
        (Some("SystemTime"), "now") => Some("SystemTime::now"),
        (_, "thread_rng") => Some("thread_rng"),
        (Some("rand"), "random") => Some("rand::random"),
        _ => None,
    }
}

/// Run the direct rules over every library file.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let own_expect = self_expect_qualifiers(ws);
    let mut out = Vec::new();

    for file in &ws.files {
        if !file.source.is_library() {
            continue;
        }
        no_panic(file, &own_expect, &mut out);
        no_nondeterminism(file, &mut out);
        no_raw_int_cast(file, &mut out);
    }
    policy_coverage(ws, &mut out);
    out
}

fn push(
    out: &mut Vec<Finding>,
    file: &super::AnalyzedFile,
    rule: &str,
    span: Span,
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

fn no_panic(file: &super::AnalyzedFile, own_expect: &BTreeSet<String>, out: &mut Vec<Finding>) {
    if !NO_PANIC_CRATES.contains(&file.source.crate_name.as_str()) {
        return;
    }
    for def in &file.parsed.fns {
        if def.is_test {
            continue;
        }
        let Some(body) = &def.body else { continue };
        for site in panic_sites_in(body) {
            let flagged = match site.kind {
                PanicKind::Unwrap => true,
                PanicKind::Expect => !is_own_expect(
                    site.kind,
                    site.receiver_is_self,
                    def.qualifier.as_deref(),
                    own_expect,
                ),
                PanicKind::Macro => FORBIDDEN_MACROS.contains(&site.what.as_str()),
                PanicKind::Index | PanicKind::DivRem => false, // reachability pass territory
            };
            if flagged {
                push(
                    out,
                    file,
                    "no-panic",
                    site.span,
                    format!(
                        "`{}` in library code (return byc_types::Result instead)",
                        site.what
                    ),
                );
            }
        }
    }
}

fn no_nondeterminism(file: &super::AnalyzedFile, out: &mut Vec<Finding>) {
    // Benchmarks time things and the CLI talks to a human; the blanket
    // determinism contract covers the simulation library crates. (The
    // dataflow pass separately covers report-feeding functions even in
    // the exempt crates.)
    let exempt = file.source.crate_name == "bench" || file.source.crate_name == "cli";
    if !exempt {
        for def in &file.parsed.fns {
            if def.is_test {
                continue;
            }
            let Some(body) = &def.body else { continue };
            for call in calls_in(body) {
                if let Some(what) = nondet_call(&call) {
                    push(
                        out,
                        file,
                        "no-nondeterminism",
                        call.span,
                        format!("`{what}`: replays must be reproducible from a seed"),
                    );
                }
            }
        }
    }

    let on_accounting = ACCOUNTING_FILES.contains(&file.source.file_name());
    let on_policy_state =
        file.source.crate_name == "core" && POLICY_STATE_FILES.contains(&file.source.file_name());
    if !on_accounting && !on_policy_state {
        return;
    }
    // Token-level scan: `use` statements and type positions count too.
    let Ok(trees) = lex(&file.source.text) else {
        return; // unparseable — already a parse-error finding
    };
    for (name, span) in non_test_idents(&trees) {
        if name != "HashMap" && name != "HashSet" {
            continue;
        }
        let message = if on_accounting {
            format!("`{name}` on the accounting/report path: iteration order feeds output")
        } else {
            format!(
                "`{name}` in policy state: use DenseMap (deterministic iteration \
                 feeds eviction tie-breaking)"
            )
        };
        push(out, file, "no-nondeterminism", span, message);
    }
}

fn no_raw_int_cast(file: &super::AnalyzedFile, out: &mut Vec<Finding>) {
    if file.source.crate_name != "core" {
        return;
    }
    let Ok(trees) = lex(&file.source.text) else {
        return;
    };
    let idents = non_test_idents(&trees);
    for pair in idents.windows(2) {
        let [(a, _), (b, span)] = pair else { continue };
        if a == "as" && INT_CAST_TARGETS.contains(&b.as_str()) {
            push(
                out,
                file,
                "no-raw-cast",
                *span,
                format!("raw `as {b}` cast in byc-core (use From/TryFrom or Bytes)"),
            );
        }
    }
}

/// The structural rule: every public policy-like type in `byc-core`'s
/// policy modules must plug into the policy hierarchy — it must be the
/// target of an `impl CachePolicy`, `impl UtilityRule`, or
/// `impl BypassObjectAlgorithm` somewhere in the workspace. A public
/// struct in a policy module that implements none of these is either
/// dead weight or an algorithm the replay harness cannot drive.
fn policy_coverage(ws: &Workspace, out: &mut Vec<Finding>) {
    let mut implemented: BTreeSet<&str> = BTreeSet::new();
    for file in &ws.files {
        for imp in &file.parsed.impls {
            if imp
                .trait_name
                .as_deref()
                .is_some_and(|t| POLICY_TRAITS.contains(&t))
            {
                implemented.insert(&imp.self_type);
            }
        }
    }
    for file in &ws.files {
        if file.source.crate_name != "core" || !POLICY_MODULES.contains(&file.source.file_name()) {
            continue;
        }
        for ty in &file.parsed.types {
            if ty.is_test || !ty.is_pub || implemented.contains(ty.name.as_str()) {
                continue;
            }
            if ty.kind != crate::ast::parse::TypeKind::Struct {
                continue;
            }
            push(
                out,
                file,
                "policy-impl",
                ty.span,
                format!(
                    "public type `{}` in a policy module implements none of \
                     CachePolicy/UtilityRule/BypassObjectAlgorithm",
                    ty.name
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::passes::analyze;
    use crate::source::{FileKind, SourceFile};

    fn file(crate_name: &str, rel: &str, src: &str) -> SourceFile {
        let file_name = rel.rsplit('/').next().unwrap_or("");
        SourceFile {
            rel_path: rel.to_string(),
            crate_name: crate_name.to_string(),
            kind: if file_name == "main.rs" {
                FileKind::BinMain
            } else {
                FileKind::Library
            },
            text: src.to_string(),
        }
    }

    fn findings_of(files: Vec<SourceFile>) -> Vec<crate::report::Finding> {
        analyze(files).findings
    }

    #[test]
    fn flags_unwrap_in_core_library_code() {
        let f = findings_of(vec![file(
            "core",
            "crates/core/src/cache.rs",
            "fn f() { x.unwrap(); }",
        )]);
        let np: Vec<_> = f.iter().filter(|f| f.rule == "no-panic").collect();
        assert_eq!(np.len(), 1);
        assert_eq!(np[0].line, 1);
        assert!(np[0].col > 0, "span-anchored");
        assert!(np[0].snippet.contains("unwrap"));
    }

    #[test]
    fn ignores_unwrap_in_tests_comments_strings() {
        let src = "// x.unwrap()\n\
                   fn f() { let s = \"unwrap() panic!(\"; g(s); }\n\
                   #[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }";
        assert!(findings_of(vec![file("core", "crates/core/src/cache.rs", src)]).is_empty());
    }

    #[test]
    fn ignores_unwrap_in_exempt_crate_and_main() {
        assert!(findings_of(vec![file(
            "workload",
            "crates/workload/src/gen.rs",
            "fn f() { x.unwrap(); }",
        )])
        .is_empty());
        assert!(findings_of(vec![file(
            "core",
            "crates/core/src/main.rs",
            "fn main() { x.unwrap(); }",
        )])
        .is_empty());
    }

    #[test]
    fn own_expect_method_is_not_option_expect() {
        let src = "struct P; impl P {\n\
                   fn expect(&mut self, b: u8) -> Result<(), E> { Ok(()) }\n\
                   fn parse(&mut self) { self.expect(b':'); }\n\
                   }\n\
                   fn other(p: &mut P, o: Option<u8>) { o.expect(\"x\"); }";
        let f = findings_of(vec![file("types", "crates/types/src/json.rs", src)]);
        let np: Vec<_> = f.iter().filter(|f| f.rule == "no-panic").collect();
        assert_eq!(np.len(), 1, "only the Option::expect: {np:?}");
        assert_eq!(np[0].line, 5);
    }

    #[test]
    fn flags_wall_clock_everywhere_but_cli_bench() {
        let f = findings_of(vec![file(
            "workload",
            "crates/workload/src/gen.rs",
            "fn f() { let t = Instant::now(); }",
        )]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-nondeterminism");
        assert!(findings_of(vec![file(
            "cli",
            "crates/cli/src/commands.rs",
            "fn f() { let t = Instant::now(); }",
        )])
        .is_empty());
    }

    #[test]
    fn flags_hash_containers_only_on_accounting_path() {
        let acct = file(
            "federation",
            "crates/federation/src/accounting.rs",
            "use std::collections::HashMap;",
        );
        assert_eq!(findings_of(vec![acct]).len(), 1);
        let other = file(
            "federation",
            "crates/federation/src/mediator.rs",
            "use std::collections::HashMap;",
        );
        assert!(findings_of(vec![other]).is_empty());
    }

    #[test]
    fn flags_hash_containers_in_core_policy_state() {
        let f = findings_of(vec![file(
            "core",
            "crates/core/src/cache.rs",
            "use std::collections::HashMap;",
        )]);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("DenseMap"));
        // offline.rs is exempt; same name outside core is out of scope.
        assert!(findings_of(vec![file(
            "core",
            "crates/core/src/offline.rs",
            "use std::collections::HashMap;",
        )])
        .is_empty());
        assert!(findings_of(vec![file(
            "federation",
            "crates/federation/src/cache.rs",
            "use std::collections::HashMap;",
        )])
        .is_empty());
    }

    #[test]
    fn flags_int_casts_only_in_core() {
        let f = findings_of(vec![file(
            "core",
            "crates/core/src/cache.rs",
            "fn f(x: u64) -> usize { x as usize }",
        )]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-raw-cast");
        assert!(findings_of(vec![file(
            "engine",
            "crates/engine/src/rows.rs",
            "fn f(x: u64) -> usize { x as usize }",
        )])
        .is_empty());
        // Float casts are out of scope for this rule.
        assert!(findings_of(vec![file(
            "core",
            "crates/core/src/x.rs",
            "fn f(x: u64) -> f64 { x as f64 }",
        )])
        .is_empty());
    }

    #[test]
    fn policy_coverage_requires_trait_impl() {
        let covered = file(
            "core",
            "crates/core/src/inline.rs",
            "pub struct GdsRule;\nimpl UtilityRule for GdsRule { }",
        );
        assert!(findings_of(vec![covered]).is_empty());
        let uncovered = file("core", "crates/core/src/inline.rs", "pub struct Orphan;");
        let f = findings_of(vec![uncovered]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "policy-impl");
    }

    #[test]
    fn policy_coverage_sees_cross_file_impls() {
        let decl = file("core", "crates/core/src/online.rs", "pub struct OnlineBY;");
        let imp = file(
            "federation",
            "crates/federation/src/policies.rs",
            "impl CachePolicy for OnlineBY { }",
        );
        // (The concurrency pass separately wants a Send+Sync assertion
        // for OnlineBY; only the policy hierarchy rule is under test.)
        let f = findings_of(vec![decl, imp]);
        assert!(f.iter().all(|f| f.rule != "policy-impl"), "{f:?}");
    }
}
