//! Fixture-based lint suite: every rule gets a known-bad file (exact
//! finding counts and spans) and a known-clean file (zero findings).
//!
//! The fixtures live in `tests/fixtures/` — cargo does not compile
//! them; they enter the analyzer as synthetic [`SourceFile`]s with the
//! workspace-relative paths the rules scope themselves by.

use std::collections::BTreeMap;

use byc_audit::passes::{analyze, Analysis};
use byc_audit::report::Finding;
use byc_audit::source::{FileKind, SourceFile};

fn lib(rel: &str, text: &str) -> SourceFile {
    let crate_name = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("")
        .to_string();
    SourceFile {
        rel_path: rel.to_string(),
        crate_name,
        kind: FileKind::Library,
        text: text.to_string(),
    }
}

fn test_file(rel: &str, text: &str) -> SourceFile {
    SourceFile {
        kind: FileKind::IntegrationTest,
        ..lib(rel, text)
    }
}

fn by_rule(findings: &[Finding]) -> BTreeMap<&str, usize> {
    let mut out = BTreeMap::new();
    for f in findings {
        *out.entry(f.rule.as_str()).or_insert(0) += 1;
    }
    out
}

fn bad_workspace() -> Analysis {
    analyze(vec![
        lib(
            "crates/core/src/work.rs",
            include_str!("fixtures/bad_no_panic.rs"),
        ),
        lib(
            "crates/core/src/sched.rs",
            include_str!("fixtures/bad_nondet.rs"),
        ),
        lib(
            "crates/core/src/report.rs",
            include_str!("fixtures/bad_hash.rs"),
        ),
        lib(
            "crates/core/src/size.rs",
            include_str!("fixtures/bad_cast.rs"),
        ),
        lib(
            "crates/core/src/online.rs",
            include_str!("fixtures/bad_policy.rs"),
        ),
        lib(
            "crates/core/src/state.rs",
            include_str!("fixtures/bad_concurrency.rs"),
        ),
        lib(
            "crates/federation/src/engine.rs",
            include_str!("fixtures/bad_reach.rs"),
        ),
        lib(
            "crates/federation/src/rollup.rs",
            include_str!("fixtures/bad_determinism.rs"),
        ),
        lib(
            "crates/cli/src/run.rs",
            include_str!("fixtures/bad_flow.rs"),
        ),
    ])
}

fn clean_workspace() -> Analysis {
    analyze(vec![
        lib(
            "crates/core/src/clean.rs",
            include_str!("fixtures/clean_no_panic.rs"),
        ),
        lib(
            "crates/core/src/sched.rs",
            include_str!("fixtures/clean_nondet.rs"),
        ),
        lib(
            "crates/core/src/report.rs",
            include_str!("fixtures/clean_hash.rs"),
        ),
        lib(
            "crates/core/src/size.rs",
            include_str!("fixtures/clean_cast.rs"),
        ),
        lib(
            "crates/core/src/online.rs",
            include_str!("fixtures/clean_policy.rs"),
        ),
        lib(
            "crates/core/src/state.rs",
            include_str!("fixtures/clean_concurrency.rs"),
        ),
        lib(
            "crates/federation/src/engine.rs",
            include_str!("fixtures/clean_reach.rs"),
        ),
        lib(
            "crates/federation/src/rollup.rs",
            include_str!("fixtures/clean_determinism.rs"),
        ),
        lib(
            "crates/cli/src/run.rs",
            include_str!("fixtures/clean_flow.rs"),
        ),
        test_file(
            "crates/federation/tests/concurrency_readiness.rs",
            include_str!("fixtures/clean_assert.rs"),
        ),
    ])
}

#[test]
fn bad_fixtures_fire_every_rule_exactly() {
    let analysis = bad_workspace();
    let counts = by_rule(&analysis.findings);
    let expected: BTreeMap<&str, usize> = [
        ("no-panic", 4),
        ("no-nondeterminism", 3),
        ("no-raw-cast", 1),
        ("policy-impl", 1),
        ("panic-reachable", 1),
        ("panic-reach-index", 1),
        ("panic-reach-arith", 1),
        ("determinism-flow", 1),
        ("hash-iter", 1),
        ("float-ord", 1),
        ("concurrency-ready", 5),
        ("send-sync-assert", 1),
    ]
    .into_iter()
    .collect();
    assert_eq!(counts, expected, "findings: {:#?}", analysis.findings);
}

#[test]
fn bad_fixture_spans_are_exact() {
    let analysis = bad_workspace();
    let find = |rule: &str, file: &str| {
        analysis
            .findings
            .iter()
            .find(|f| f.rule == rule && f.file == file)
            .unwrap_or_else(|| panic!("no {rule} finding in {file}"))
    };

    // `.unwrap()` on line 4 of bad_no_panic.rs; the column anchors the
    // method name itself.
    let unwrap = analysis
        .findings
        .iter()
        .find(|f| f.rule == "no-panic" && f.snippet.contains("unwrap"))
        .expect("unwrap finding");
    assert_eq!((unwrap.line, unwrap.col), (4, 27));
    assert_eq!(unwrap.snippet, "let first = v.first().unwrap();");

    let index = find("panic-reach-index", "crates/federation/src/engine.rs");
    assert_eq!(index.line, 14);
    assert!(index.message.contains("replay path"), "{}", index.message);
    assert!(
        index.message.contains("ReplayEngine::serve"),
        "chain names the entry point: {}",
        index.message
    );

    let arith = find("panic-reach-arith", "crates/federation/src/engine.rs");
    assert_eq!(arith.line, 20);
    assert_eq!(arith.snippet, "100 / d");

    let hash_iter = find("hash-iter", "crates/federation/src/rollup.rs");
    assert_eq!(hash_iter.line, 16);

    let static_mut = analysis
        .findings
        .iter()
        .find(|f| f.rule == "concurrency-ready" && f.message.contains("static mut"))
        .expect("static mut finding");
    assert_eq!(static_mut.line, 13);
}

#[test]
fn bad_fixture_counts_replay_report_sites() {
    let analysis = bad_workspace();
    // slots[i], .expect("non-empty"), and 100 / d all sit under
    // ReplayEngine::serve.
    assert_eq!(analysis.summary.replay_report_sites, 3);
}

#[test]
fn clean_fixtures_produce_zero_findings() {
    let analysis = clean_workspace();
    assert!(
        analysis.findings.is_empty(),
        "clean fixtures must not fire: {:#?}",
        analysis.findings
    );
    assert_eq!(analysis.summary.replay_report_sites, 0);
}

#[test]
fn missing_assert_file_is_one_finding_for_all_types() {
    let analysis = bad_workspace();
    let f = analysis
        .findings
        .iter()
        .find(|f| f.rule == "send-sync-assert")
        .expect("send-sync-assert finding");
    // CacheState (always-shared) and ReplayTrace (always-shared) are
    // defined; LonePolicy implements no shared trait.
    assert!(f.message.contains("2 shareable type(s)"), "{}", f.message);
}
