//! CLI entry point: `cargo run -p byc-audit -- lint [--format sarif]`.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: byc-audit lint [--root DIR] [--allowlist FILE] \
[--format text|sarif] [--output FILE]

Runs the workspace static-analysis passes (see crates/audit/src/passes/):
  style         no-panic, no-nondeterminism, no-raw-cast, policy-impl
  panic-reach   panic/index/divide sites reachable from the replay entry
                points, with shortest call chains
  determinism   hash-iteration order, partial_cmp ordering, and clock/RNG
                dataflow into CostReport/Decision streams
  concurrency   non-Sync state fields, static mut, thread_local!, and
                Send + Sync assertion coverage for byc-serve readiness
  hot-path      container scans (iter/values/sort) reachable from the
                per-access policy mouths (on_access/on_request) in
                byc-core

--format text   human-readable findings + summary (default)
--format sarif  SARIF 2.1.0 log on stdout (or --output FILE)

Exit status: 0 clean, 1 findings, 2 usage or I/O error.
Tolerated findings are declared in audit.toml at the workspace root;
entries are exact counts, so fixing a finding without shrinking its
entry also fails (stale-allowlist).";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = None;
    let mut root = PathBuf::from(".");
    let mut allowlist: Option<PathBuf> = None;
    let mut format = "text".to_string();
    let mut output: Option<PathBuf> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "lint" if command.is_none() => command = Some("lint"),
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => root = PathBuf::from(dir),
                    None => return usage_error("--root needs a directory"),
                }
            }
            "--allowlist" => {
                i += 1;
                match args.get(i) {
                    Some(file) => allowlist = Some(PathBuf::from(file)),
                    None => return usage_error("--allowlist needs a file"),
                }
            }
            "--format" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some(f @ ("text" | "sarif")) => format = f.to_string(),
                    Some(other) => return usage_error(&format!("unknown format {other:?}")),
                    None => return usage_error("--format needs text|sarif"),
                }
            }
            "--output" => {
                i += 1;
                match args.get(i) {
                    Some(file) => output = Some(PathBuf::from(file)),
                    None => return usage_error("--output needs a file"),
                }
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }

    if command != Some("lint") {
        return usage_error("expected the `lint` subcommand");
    }
    // Default the root to the workspace the binary was built from, so
    // `cargo run -p byc-audit -- lint` works from any subdirectory.
    if root.as_os_str() == "." && !root.join("crates").is_dir() {
        if let Some(manifest_root) = option_env!("CARGO_MANIFEST_DIR") {
            let workspace = PathBuf::from(manifest_root).join("../..");
            if workspace.join("crates").is_dir() {
                root = workspace;
            }
        }
    }
    let allowlist = allowlist.unwrap_or_else(|| root.join("audit.toml"));

    let outcome = match byc_audit::lint_workspace(&root, &allowlist) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("byc-audit: {e}");
            return ExitCode::from(2);
        }
    };

    if format == "sarif" {
        let log = byc_audit::sarif::to_sarif(&outcome.findings).to_string();
        if let Some(path) = output {
            if let Err(e) = std::fs::write(&path, format!("{log}\n")) {
                eprintln!("byc-audit: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
        } else {
            println!("{log}");
        }
        return if outcome.findings.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let s = outcome.summary;
    for f in &outcome.findings {
        println!("{f}");
    }
    println!(
        "byc-audit: {} files, {} functions, {} call edges, {} reachable from replay entries; \
         {} panic site(s) under ReplayEngine::serve",
        s.files, s.functions, s.edges, s.reachable, s.replay_report_sites
    );
    if outcome.findings.is_empty() {
        println!("byc-audit: clean");
        ExitCode::SUCCESS
    } else {
        println!("byc-audit: {} finding(s)", outcome.findings.len());
        ExitCode::FAILURE
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("byc-audit: {message}\n{USAGE}");
    ExitCode::from(2)
}
