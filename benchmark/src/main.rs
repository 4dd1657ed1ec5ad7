//! `byc-benchmark`: measures `byc` end to end and layer by layer.
//!
//! ```text
//! byc-benchmark [--sets N] [--trace] [--smoke] [--out DIR]
//!     every workload, 5 repetitions each (1 with --smoke) interleaved
//!     round-robin; prints each end-to-end metric (median and quartiles)
//!     per set, and with --sets 2 each metric's agreement against its bound
//! byc-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
//!     one workload for S seconds; the last line of output is one JSON
//!     object with the end-to-end (--trace 0) or per-layer (--trace 1)
//!     metrics BENCHMARK.json lists
//! ```
//!
//! Every repetition runs in a fresh child process (this executable,
//! re-run with `--child`), one at a time, so its peak RSS and CPU time
//! are its own. Inputs are made under `--out` (default
//! `results/benchmark`) from one fixed seed (see `workload`), so
//! `--seed` is checked and otherwise ignored. A failed check makes the
//! exit code 1; a one-workload run stops at the first one.

mod calibrate;
mod child;
mod measure;
mod parse;
mod procfs;
mod stats;
mod traced;
mod workload;

use byc_types::json::Value;
use byc_types::{Error, Result};
use child::obj;
use measure::{spec, Spec, WorkloadRun};
use stats::quartiles;
use std::path::PathBuf;
use std::time::Instant;
use workload::{Workload, WORKLOADS};

/// Repetitions of each workload per set in the all-workload mode.
const REPS: usize = 5;
/// Fewest untraced repetitions a timed run makes.
const MIN_REPS: usize = 3;
/// Fewest traced repetitions a `--trace 1` run makes.
const MIN_TRACED: usize = 2;

#[derive(Debug)]
struct Options {
    workload: Option<String>,
    seconds: f64,
    trace: bool,
    sets: usize,
    smoke: bool,
    out: PathBuf,
    child: Option<String>,
    cpu: Option<usize>,
}

fn parse_options(args: &[String]) -> Result<Options> {
    let mut o = Options {
        workload: None,
        seconds: 10.0,
        trace: false,
        sets: 1,
        smoke: false,
        out: PathBuf::from("results/benchmark"),
        child: None,
        cpu: None,
    };
    let mut it = args.iter().peekable();
    let bad = |msg: String| Error::InvalidConfig(msg);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| bad(format!("{name} needs a value")))
        };
        let number = |name: &str, v: String| -> Result<f64> {
            v.parse::<f64>()
                .ok()
                .filter(|n| n.is_finite() && *n >= 0.0)
                .ok_or_else(|| bad(format!("{name} expects a non-negative number, got {v:?}")))
        };
        match flag.as_str() {
            "--workload" => o.workload = Some(value(flag)?),
            "--seed" => {
                let v = value(flag)?;
                v.parse::<u64>()
                    .map_err(|_| bad(format!("--seed expects an integer, got {v:?}")))?;
            }
            "--seconds" => o.seconds = number(flag, value(flag)?)?,
            "--sets" => o.sets = number(flag, value(flag)?)?.max(1.0) as usize,
            "--out" => o.out = PathBuf::from(value(flag)?),
            "--child" => o.child = Some(value(flag)?),
            "--cpu" => o.cpu = Some(number(flag, value(flag)?)? as usize),
            "--smoke" => o.smoke = true,
            "--trace" => {
                o.trace = match it.next_if(|v| v.as_str() == "0" || v.as_str() == "1") {
                    Some(v) => v == "1",
                    None => true,
                };
            }
            other => return Err(bad(format!("unknown argument {other:?}"))),
        }
    }
    Ok(o)
}

fn find(name: &str) -> Result<&'static Workload> {
    Workload::find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        Error::InvalidConfig(format!(
            "unknown workload {name:?} (expected one of {names:?})"
        ))
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_options(&args).and_then(run) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("byc-benchmark: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// Dispatch on the mode; `Ok(false)` when a check failed.
fn run(o: Options) -> Result<bool> {
    let spec = spec()?;
    if let Some(mode) = &o.child {
        if let Some(cpu) = o.cpu {
            if !calibrate::pin(cpu) {
                return Err(Error::InvalidConfig(format!("cannot pin to cpu {cpu}")));
            }
        }
        let w = find(o.workload.as_deref().unwrap_or_default())?;
        let files = w.files(&o.out);
        match mode.as_str() {
            "untraced" => child::untraced(w, &files)?,
            "traced" => child::print_result(traced::run(w, &files)?)?,
            other => {
                return Err(Error::InvalidConfig(format!(
                    "unknown child mode {other:?}"
                )))
            }
        }
        return Ok(true);
    }
    match &o.workload {
        Some(name) => single(&o, find(name)?, &spec),
        None => suite(&o, &spec),
    }
}

/// One workload for `--seconds`, ending with the JSON result line. Every
/// repetition either adds a sample or records a failed check, and the
/// first failed check ends the run, so the loops always end.
fn single(o: &Options, w: &'static Workload, spec: &Spec) -> Result<bool> {
    let mut run = WorkloadRun::prepare(w, &o.out, o.smoke)?;
    let start = Instant::now();
    let metrics = if o.trace {
        // Alternate untraced and traced repetitions so both see the
        // same host conditions.
        loop {
            run.rep()?;
            if run.problems.is_empty() {
                run.traced_rep()?;
            }
            let done =
                run.traced_reps() >= MIN_TRACED && start.elapsed().as_secs_f64() >= o.seconds;
            if done || !run.problems.is_empty() {
                break;
            }
        }
        let layers = run.per_layer();
        print_layers(&run, &layers, spec);
        spec.per_layer
            .iter()
            .map(|m| {
                (
                    m,
                    layers
                        .iter()
                        .find(|(n, _)| *n == m.name)
                        .map_or(f64::NAN, |l| l.1),
                )
            })
            .collect::<Vec<_>>()
    } else {
        loop {
            let last = run.rep()?;
            let elapsed = start.elapsed().as_secs_f64();
            let done = run.reps() >= MIN_REPS && elapsed + last > o.seconds;
            if done || !run.problems.is_empty() {
                break;
            }
        }
        print_end_to_end(&run, spec);
        spec.end_to_end
            .iter()
            .map(|m| (m, run.end_to_end(&m.name)))
            .collect()
    };
    for p in &run.problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = run.problems.is_empty();
    let metrics = metrics
        .into_iter()
        .map(|(m, v)| {
            let v = obj(vec![
                ("value", Value::f64(v)),
                ("unit", Value::str(&m.unit)),
            ]);
            (m.name.clone(), v)
        })
        .collect();
    println!(
        "{}",
        obj(vec![
            ("correct", Value::Bool(correct)),
            ("attempted", Value::u64(run.attempted.max(1))),
            ("failed", Value::u64(run.failed)),
            ("metrics", Value::Object(metrics)),
        ])
    );
    Ok(correct)
}

/// Every workload, [`REPS`] repetitions each, interleaved round-robin so
/// a slow period on the host hits all of them; `--sets` times over.
fn suite(o: &Options, spec: &Spec) -> Result<bool> {
    let reps = if o.smoke { 1 } else { REPS };
    let mut sets: Vec<Vec<WorkloadRun>> = Vec::new();
    for set in 0..o.sets {
        let mut runs = WORKLOADS
            .iter()
            .map(|w| WorkloadRun::prepare(w, &o.out, o.smoke))
            .collect::<Result<Vec<_>>>()?;
        for _ in 0..reps {
            for run in runs.iter_mut() {
                run.rep()?;
            }
        }
        if o.trace && set + 1 == o.sets {
            for run in runs.iter_mut() {
                run.traced_rep()?;
                print_layers(run, &run.per_layer(), spec);
            }
        }
        println!("\n== set {} of {} ==", set + 1, o.sets);
        for run in &runs {
            print_end_to_end(run, spec);
        }
        sets.push(runs);
    }
    let problems: Vec<&String> = sets.iter().flatten().flat_map(|r| &r.problems).collect();
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    let mut correct = problems.is_empty();
    if let [first, second, ..] = sets.as_slice() {
        print_agreement(first, second, spec);
        // Deterministic metrics must agree exactly across sets.
        for (a, b) in first.iter().zip(second) {
            if a.end_to_end("wan_reduction_x") != b.end_to_end("wan_reduction_x") {
                println!(
                    "CHECK FAILED: {}: wan_reduction_x differs between sets",
                    a.w.name
                );
                correct = false;
            }
        }
    }
    Ok(correct)
}

fn print_end_to_end(run: &WorkloadRun, spec: &Spec) {
    println!(
        "\n{} ({} repetitions, {} attempted, {} failed)",
        run.w.name,
        run.reps(),
        run.attempted,
        run.failed
    );
    println!(
        "  reference kernel: {:.3} ms here, {:.3} ms on the reference host; times are scaled to it",
        run.host_s() * 1e3,
        calibrate::REFERENCE_S * 1e3
    );
    println!(
        "  {:<18} {:>10} {:>14} {:>14} {:>14}",
        "metric", "unit", "value", "q1", "q3"
    );
    for m in &spec.end_to_end {
        let (q1, q3) = quartiles(&run.samples(&m.name));
        println!(
            "  {:<18} {:>10} {:>14.4} {:>14.4} {:>14.4}",
            m.name,
            m.unit,
            run.end_to_end(&m.name),
            q1,
            q3
        );
    }
}

fn print_layers(run: &WorkloadRun, layers: &[(String, f64)], spec: &Spec) {
    println!(
        "\n{} per layer ({} traced repetitions)",
        run.w.name,
        run.traced_reps()
    );
    for (name, value) in layers {
        let unit = spec
            .per_layer
            .iter()
            .find(|m| m.name == *name)
            .map_or("", |m| m.unit.as_str());
        println!("  {name:<34} {value:>16.4} {unit}");
    }
}

fn print_agreement(first: &[WorkloadRun], second: &[WorkloadRun], spec: &Spec) {
    println!("\n== agreement of set 2 against set 1 (worsening as a share of set 1) ==");
    for (a, b) in first.iter().zip(second) {
        for m in &spec.end_to_end {
            let (x, y) = (a.end_to_end(&m.name), b.end_to_end(&m.name));
            let worse = if m.higher_is_better {
                (x - y) / x
            } else {
                (y - x) / x
            };
            let bound = m.bound.unwrap_or(0.0);
            let verdict = if worse <= bound {
                "ok"
            } else {
                "OUTSIDE BOUND"
            };
            println!(
                "  {:<26} {:<18} {x:>14.4} {y:>14.4} {:>+8.2}% (bound {:.0}%) {verdict}",
                a.w.name,
                m.name,
                worse * 100.0,
                bound * 100.0
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn one_workload_arguments_parse() {
        let o = parse_options(&args(
            "--workload run-file-50k --seed 7 --seconds 10 --trace 0",
        ))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("run-file-50k"));
        assert_eq!((o.seconds, o.trace), (10.0, false));
        let o = parse_options(&args("--trace 1 --smoke")).unwrap();
        assert!(o.trace && o.smoke);
        let o = parse_options(&args("--trace --sets 2")).unwrap();
        assert!(o.trace);
        assert_eq!(o.sets, 2);
        assert!(parse_options(&args("--seed x")).is_err());
        assert!(parse_options(&args("--seconds")).is_err());
        assert!(parse_options(&args("--bogus")).is_err());
    }

    #[test]
    fn spec_lists_every_metric_the_benchmark_computes() {
        let spec = spec().unwrap();
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s" && m.unit == "s")
            .and_then(|m| m.bound)
            .unwrap();
        for m in &spec.end_to_end {
            let bound = m.bound.unwrap();
            assert!(bound > 0.0 && bound <= setup && setup <= 0.25, "{}", m.name);
        }
        // Exact on the fixed inputs: any decision change that costs WAN
        // traffic is a regression.
        let wan = spec.end_to_end.iter().find(|m| m.name == "wan_reduction_x");
        assert!(wan.and_then(|m| m.bound) <= Some(0.01));
    }
}
