//! Trace serialization across the full pipeline: a trace written to disk
//! and read back must replay to identical results, byte for byte.

use byc_catalog::sdss::{build, SdssRelease};
use byc_catalog::{Granularity, ObjectCatalog};
use byc_federation::{build_policy, PolicyKind, ReplaySession};
use byc_workload::io::{read_trace, write_trace};
use byc_workload::{generate, WorkloadConfig, WorkloadStats};
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("byc-int-io-{}-{name}", std::process::id()));
    p
}

#[test]
fn persisted_trace_replays_identically() {
    let cat = build(SdssRelease::Edr, 1e-3, 1);
    let trace = generate(&cat, &WorkloadConfig::smoke(97, 1500)).unwrap();
    let path = tmp("replay.jsonl");
    write_trace(&trace, &path).unwrap();
    let reloaded = read_trace(&path).unwrap();
    assert_eq!(trace, reloaded);

    let objects = ObjectCatalog::uniform(&cat, Granularity::Column);
    let stats = WorkloadStats::compute(&trace, &objects);
    let capacity = objects.total_size().scale(0.3);
    let run = |t: &byc_workload::Trace| {
        let mut p = build_policy(PolicyKind::RateProfile, capacity, &stats.demands, 3);
        ReplaySession::new(t, &objects)
            .policy(p.as_mut())
            .run()
            .expect("policy configured")
            .report
    };
    assert_eq!(run(&trace), run(&reloaded));
    std::fs::remove_file(&path).ok();
}

#[test]
fn trace_files_are_line_delimited_json() {
    // The format promise: external tooling can process traces with
    // ordinary line-oriented tools.
    let cat = build(SdssRelease::Edr, 1e-4, 1);
    let trace = generate(&cat, &WorkloadConfig::smoke(101, 50)).unwrap();
    let path = tmp("jsonl.jsonl");
    write_trace(&trace, &path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 51); // header + 50 queries
    for line in lines {
        let value = byc_types::json::Value::parse(line).expect("each line is JSON");
        assert!(value.is_object());
    }
    // The header carries the metadata.
    let header = byc_types::json::Value::parse(text.lines().next().unwrap()).unwrap();
    assert_eq!(header["query_count"], 50);
    assert_eq!(header["seed"], 101);
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_trace_file_is_rejected() {
    let cat = build(SdssRelease::Edr, 1e-4, 1);
    let trace = generate(&cat, &WorkloadConfig::smoke(103, 20)).unwrap();
    let path = tmp("truncated.jsonl");
    write_trace(&trace, &path).unwrap();
    // Drop the last line.
    let text = std::fs::read_to_string(&path).unwrap();
    let truncated: String = text.lines().take(20).map(|l| format!("{l}\n")).collect();
    std::fs::write(&path, truncated).unwrap();
    let err = read_trace(&path).unwrap_err();
    assert!(err.to_string().contains("promises"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupted_query_line_reports_line_number() {
    let cat = build(SdssRelease::Edr, 1e-4, 1);
    let trace = generate(&cat, &WorkloadConfig::smoke(107, 10)).unwrap();
    let path = tmp("corrupt.jsonl");
    write_trace(&trace, &path).unwrap();
    let mut lines: Vec<String> = std::fs::read_to_string(&path)
        .unwrap()
        .lines()
        .map(String::from)
        .collect();
    lines[5] = "{\"not\": \"a query\"}".to_string();
    std::fs::write(&path, lines.join("\n")).unwrap();
    let err = read_trace(&path).unwrap_err();
    assert!(err.to_string().contains("line 6"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn cli_gen_and_run_compose() {
    // The CLI's gen-trace output feeds its own run command.
    let path = tmp("cli.jsonl");
    let gen = byc_cli::commands::Command::GenTrace {
        release: "edr".into(),
        out: path.clone(),
        seed: 11,
        scale: 1e-3,
        queries: 300,
    };
    byc_cli::commands::run_command(gen).unwrap();
    let run = byc_cli::commands::Command::Run {
        replay: byc_cli::commands::ReplayArgs {
            granularity: "table".into(),
            scale: 1e-3,
            seed: 11,
            ..byc_cli::commands::ReplayArgs::new(path.to_string_lossy().into_owned())
        },
        policy: "gds".into(),
        cache_fraction: 0.5,
        trace_events: None,
    };
    let out = byc_cli::commands::run_command(run).unwrap();
    assert!(out.contains("GDS"), "{out}");
    std::fs::remove_file(&path).ok();
}
