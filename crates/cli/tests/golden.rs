//! Golden outputs: `byc run` and `byc sweep` on a small fixed trace must
//! render byte-identical reports, metrics exports, decision logs and
//! span traces to the files under `tests/golden/`.
//!
//! The goldens were rendered by the `byc` binary (stdout, one trailing
//! newline) with every path relative to the working directory, from
//! these commands:
//!
//! ```text
//! byc gen-trace edr --out trace.jsonl --scale 0.05 --queries 500 --seed 7
//! byc gen-trace edr --out small.jsonl --scale 0.05 --queries 100 --seed 11
//! ```
//!
//! then the `run`/`sweep` invocations of each test below. Any drift in a
//! cost, a counter, or a rendered byte fails here.

use byc_cli::commands::{parse_args, run_command};
use std::path::{Path, PathBuf};

/// A scratch directory holding the traces and every file a command
/// writes; removed on drop.
struct Workdir(PathBuf);

impl Workdir {
    /// A fresh directory with both golden traces generated into it.
    fn new(tag: &str) -> Workdir {
        let dir = std::env::temp_dir().join(format!("byc-golden-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dir = Workdir(dir);
        let gen = [
            dir.byc(&[
                "gen-trace",
                "edr",
                "--out",
                "trace.jsonl",
                "--scale",
                "0.05",
                "--queries",
                "500",
                "--seed",
                "7",
            ]),
            dir.byc(&[
                "gen-trace",
                "edr",
                "--out",
                "small.jsonl",
                "--scale",
                "0.05",
                "--queries",
                "100",
                "--seed",
                "11",
            ]),
        ];
        assert_eq!(gen.concat(), golden("gen.txt"));
        dir
    }

    /// Run one `byc` command with file arguments inside the directory,
    /// returning stdout as the binary prints it, paths made relative.
    fn byc(&self, argv: &[&str]) -> String {
        let is_file = |a: &str| {
            [".jsonl", ".json", ".ndjson"]
                .iter()
                .any(|e| a.ends_with(e))
        };
        let args: Vec<String> = argv
            .iter()
            .map(|a| match is_file(a) {
                true => self.0.join(a).display().to_string(),
                false => a.to_string(),
            })
            .collect();
        let out = run_command(parse_args(&args).unwrap()).unwrap();
        format!("{out}\n").replace(&format!("{}/", self.0.display()), "")
    }

    /// A file a command wrote.
    fn read(&self, name: &str) -> String {
        std::fs::read_to_string(self.0.join(name)).unwrap()
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Compare whole files, reporting the first differing line on failure.
fn assert_golden(actual: &str, name: &str) {
    let expected = golden(name);
    if actual != expected {
        let line = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        panic!(
            "{name} differs from its golden at line {}\n--- actual ---\n{actual}",
            line + 1
        );
    }
}

const SEED: [&str; 4] = ["--scale", "0.05", "--seed", "7"];

fn argv<'a>(head: &[&'a str], tail: &[&'a str]) -> Vec<&'a str> {
    let mut v = head.to_vec();
    v.extend_from_slice(&SEED);
    v.extend_from_slice(tail);
    v
}

#[test]
fn run_outputs_match_golden() {
    let dir = Workdir::new("run");
    let run = ["run", "trace.jsonl", "--policy", "rate-profile"];
    assert_golden(&dir.byc(&argv(&run, &[])), "run_flat.txt");
    assert_golden(
        &dir.byc(&argv(&run, &["--topology", "two-tier"])),
        "run_two_tier.txt",
    );
    let flaky = [
        "--servers",
        "2",
        "--cost-multipliers",
        "1,3",
        "--faults",
        "flaky:p=0.2,spike=0.1x4",
        "--retry",
        "3",
        "--degrade",
        "fail",
    ];
    assert_golden(&dir.byc(&argv(&run, &flaky)), "run_flaky.txt");
    let static_run = ["run", "trace.jsonl", "--policy", "static"];
    assert_golden(&dir.byc(&argv(&static_run, &[])), "run_static.txt");
    let recorder = [
        "--faults",
        "outage:0@100..300",
        "--retry",
        "2",
        "--degrade",
        "fail",
        "--flight-recorder",
        "3",
        "--metrics-every",
        "250",
    ];
    let gds = ["run", "trace.jsonl", "--policy", "gds"];
    assert_golden(&dir.byc(&argv(&gds, &recorder)), "run_recorder.txt");
}

#[test]
fn traced_run_outputs_match_golden() {
    let dir = Workdir::new("traced");
    let traced = [
        "--granularity",
        "table",
        "--trace-events",
        "run_traced.events.ndjson",
        "--trace-spans",
        "run_traced.spans.json",
    ];
    let run = ["run", "small.jsonl", "--policy", "gds"];
    assert_golden(&dir.byc(&argv(&run, &traced)), "run_traced.txt");
    assert_golden(
        &dir.read("run_traced.events.ndjson"),
        "run_traced.events.ndjson",
    );
    assert_golden(&dir.read("run_traced.spans.json"), "run_traced.spans.json");
}

#[test]
fn sweep_outputs_match_golden() {
    let dir = Workdir::new("sweep");
    let sweep = ["sweep", "trace.jsonl"];
    assert_golden(&dir.byc(&argv(&sweep, &[])), "sweep_flat.txt");
    let three_tier = [
        "--granularity",
        "table",
        "--topology",
        "three-tier",
        "--metrics",
        "sweep_three_tier.metrics.json",
        "--metrics-format",
        "json",
    ];
    assert_golden(&dir.byc(&argv(&sweep, &three_tier)), "sweep_three_tier.txt");
    assert_golden(
        &dir.read("sweep_three_tier.metrics.json"),
        "sweep_three_tier.metrics.json",
    );
    let recorder = [
        "--faults",
        "outage:0@40..42",
        "--retry",
        "2",
        "--degrade",
        "fail",
        "--flight-recorder",
        "2",
        "--trace-spans",
        "sweep_recorder.spans.json",
    ];
    let small = ["sweep", "small.jsonl"];
    assert_golden(&dir.byc(&argv(&small, &recorder)), "sweep_recorder.txt");
    assert_golden(
        &dir.read("sweep_recorder.spans.json"),
        "sweep_recorder.spans.json",
    );
}

/// The per-server table's `total` row is the whole replay's WAN: on a
/// tiered multi-server run it carries the inner link's relay traffic
/// too, so it equals the report's `Total (GB)`.
#[test]
fn tiered_server_table_total_matches_report_total() {
    let dir = Workdir::new("relay");
    let run = ["run", "trace.jsonl", "--policy", "rate-profile"];
    let out = dir.byc(&argv(&run, &["--servers", "3", "--topology", "two-tier"]));
    // The report row ends in `Total (GB)`; the server table's total row
    // reads `total DELIVERED BYPASS FETCH WAN HITS BYPASSES LOADS`.
    let report_row = out.lines().find(|l| l.starts_with("Set 1"));
    let report_total = report_row.and_then(|l| l.split_whitespace().last());
    let servers = out.split("per-server WAN breakdown").nth(1).unwrap_or("");
    let server_row = servers.lines().find(|l| l.starts_with("total"));
    let server_total = server_row.and_then(|l| l.split_whitespace().nth(4));
    assert!(report_total.is_some(), "{out}");
    assert_eq!(server_total, report_total, "{out}");
}
