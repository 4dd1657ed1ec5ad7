//! `--smoke` runs (every input at 1/5 size) of the benchmark binary:
//! every metric BENCHMARK.json names is printed with its unit, and every
//! output check passes.

use byc_types::json::Value;
use std::fs::File;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::{Duration, Instant};

/// Longest any benchmark run in these tests may take.
const LIMIT: Duration = Duration::from_secs(120);

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits next to benchmark/");
    Value::parse(&text).expect("BENCHMARK.json is JSON")
}

fn list<'v>(v: &'v Value, key: &str) -> &'v [Value] {
    v.get(key).and_then(Value::as_array).unwrap_or(&[])
}

fn text<'v>(v: &'v Value, key: &str) -> &'v str {
    v.get(key).and_then(Value::as_str).unwrap_or_default()
}

/// Run the benchmark binary with `--out` under the test directory `out`;
/// kill it and fail if it runs longer than [`LIMIT`].
fn bench(args: &[&str], out: &str) -> Output {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(out);
    std::fs::create_dir_all(&dir).expect("a test directory");
    // Files, not pipes: a full pipe would stall the benchmark.
    let log = |name: &str| dir.join(format!("{}.{name}", std::process::id()));
    let (stdout, stderr) = (log("stdout"), log("stderr"));
    let file = |p: &PathBuf| File::create(p).expect("a log file");
    let mut child = Command::new(env!("CARGO_BIN_EXE_byc-benchmark"))
        .args(args)
        .arg("--out")
        .arg(&dir)
        .stdout(file(&stdout))
        .stderr(file(&stderr))
        .spawn()
        .expect("the benchmark binary runs");
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("the benchmark can be waited on") {
            break status;
        }
        if start.elapsed() > LIMIT {
            child.kill().ok();
            child.wait().ok();
            panic!("{args:?} still running after {LIMIT:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let read = |p: &PathBuf| std::fs::read(p).expect("the log file");
    Output {
        status,
        stdout: read(&stdout),
        stderr: read(&stderr),
    }
}

#[test]
fn every_workload_prints_every_metric_and_passes_every_check() {
    let spec = spec();
    for w in list(&spec, "workloads") {
        let name = text(w, "name");
        for (trace, metrics) in [("0", "end_to_end"), ("1", "per_layer")] {
            let args = [
                "--workload",
                name,
                "--seed",
                "5",
                "--seconds",
                "0",
                "--trace",
                trace,
                "--smoke",
            ];
            let output = bench(&args, "smoke");
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "{name} --trace {trace}: {stdout}\n{}",
                String::from_utf8_lossy(&output.stderr)
            );
            let last = stdout.lines().last().unwrap_or_default();
            let result = Value::parse(last).expect("the last line is one JSON object");
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{name}: {last}"
            );
            assert_eq!(
                result.get("failed").and_then(Value::as_u64),
                Some(0),
                "{name}"
            );
            assert!(
                result.get("attempted").and_then(Value::as_u64) >= Some(1),
                "{name}"
            );
            let printed = result.get("metrics").expect("a metrics object");
            let expected = list(&spec, metrics);
            match printed {
                Value::Object(fields) => assert_eq!(fields.len(), expected.len(), "{name}: {last}"),
                other => panic!("{name}: metrics is {other:?}"),
            }
            for m in expected {
                let metric = text(m, "name");
                let got = printed
                    .get(metric)
                    .unwrap_or_else(|| panic!("{name} lacks {metric}"));
                assert_eq!(text(got, "unit"), text(m, "unit"), "{name} {metric}");
                let value = got.get("value").and_then(Value::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{name} {metric} = {value:?}"
                );
            }
        }
    }
}

#[test]
fn suite_interleaves_two_sets_and_reports_agreement() {
    let output = bench(
        &["--seed", "6", "--sets", "2", "--trace", "--smoke"],
        "suite",
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{stdout}");
    assert!(
        stdout.contains("== agreement of set 2 against set 1"),
        "{stdout}"
    );
    assert!(!stdout.contains("CHECK FAILED"), "{stdout}");
    for w in list(&spec(), "workloads") {
        assert!(
            stdout.contains(&format!("{} per layer", text(w, "name"))),
            "{stdout}"
        );
    }
}

#[test]
fn a_failing_child_ends_the_run_with_a_failed_result() {
    // A directory where the faulted sweep writes its metrics export makes
    // every `byc sweep` child fail.
    let workload = "sweep-tiered-faults-25k";
    let out = "failing";
    let export = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(out)
        .join(format!("{workload}.metrics.json"));
    std::fs::create_dir_all(export).expect("a directory in the export's place");
    for trace in ["0", "1"] {
        let args = [
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "60",
            "--trace",
            trace,
            "--smoke",
        ];
        let output = bench(&args, out);
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert_eq!(output.status.code(), Some(1), "--trace {trace}: {stdout}");
        let last = stdout.lines().last().unwrap_or_default();
        let result = Value::parse(last).expect("the last line is one JSON object");
        assert_eq!(result.get("correct"), Some(&Value::Bool(false)), "{last}");
        assert_eq!(
            result.get("attempted").and_then(Value::as_u64),
            Some(1),
            "{last}"
        );
        assert_eq!(
            result.get("failed").and_then(Value::as_u64),
            Some(1),
            "{last}"
        );
        assert!(stdout.contains("CHECK FAILED"), "{stdout}");
    }
}

#[test]
fn unknown_workload_fails_without_a_result() {
    let output = bench(
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        "none",
    );
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
