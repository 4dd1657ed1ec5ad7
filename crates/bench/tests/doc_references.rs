//! Every Criterion target the docs name exists.
//!
//! README.md, DESIGN.md and EXPERIMENTS.md point readers at bench
//! targets as `benches/NAME.rs`, `--bench NAME` or ``bench `NAME` ``.
//! Each such NAME must be a `[[bench]]` of this crate, so a target
//! cannot be deleted, or a doc written, without the two agreeing.

use std::path::Path;

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `[[bench]]` names this crate's manifest declares.
fn declared_benches() -> Vec<String> {
    let manifest = read(&Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml"));
    let mut names = Vec::new();
    let mut in_bench = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_bench = line == "[[bench]]";
        } else if let Some(name) = line.strip_prefix("name = ").filter(|_| in_bench) {
            names.push(name.trim_matches('"').to_string());
        }
    }
    names
}

/// Every bench target `text` names, form by form in text order.
fn referenced_benches(text: &str) -> Vec<String> {
    // The text before and after the name in each form.
    const FORMS: [(&str, &str); 3] = [("benches/", ".rs"), ("--bench ", ""), ("bench `", "`")];
    // A mention may wrap across lines.
    let text = text.split_whitespace().collect::<Vec<_>>().join(" ");
    let mut names = Vec::new();
    for (before, after) in FORMS {
        for (at, _) in text.match_indices(before) {
            let rest = &text[at + before.len()..];
            let len = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            if len > 0 && rest[len..].starts_with(after) {
                names.push(rest[..len].to_string());
            }
        }
    }
    names
}

#[test]
fn scan_finds_every_form() {
    let text = "see `benches/a_b.rs`, run `cargo bench --bench c1` or bench `d`; \
                not benches/ alone, nor `cargo bench --no-run`; `cargo bench --bench\n   e`";
    assert_eq!(referenced_benches(text), ["a_b", "c1", "e", "d"]);
}

#[test]
fn docs_name_only_declared_bench_targets() {
    let declared = declared_benches();
    assert!(
        declared.iter().any(|n| n == "policy_hot_path"),
        "manifest scan found {declared:?}"
    );
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut mentions = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        for name in referenced_benches(&read(&root.join(doc))) {
            mentions += 1;
            if !declared.contains(&name) {
                missing.push(format!("{doc}: {name}"));
            }
        }
    }
    assert!(mentions > 0, "the docs name no bench target at all");
    assert!(
        missing.is_empty(),
        "docs name bench targets crates/bench/Cargo.toml does not declare: {missing:?}"
    );
}
