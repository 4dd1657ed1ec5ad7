//! The measured child process: one untraced repetition of a workload,
//! run in a fresh process so its peak RSS and CPU time are its own.
//!
//! The child prints whatever `byc` printed, then one result line:
//! [`RESULT_PREFIX`] followed by a JSON object.

use crate::calibrate::{host_sample, REFERENCE_S};
use crate::procfs::self_usage;
use crate::stats::{nearest_rank, sorted};
use crate::workload::{Files, Workload, CACHE_FRACTION, INPUT_SEED, SCALE};
use byc_catalog::sdss::{self, SdssRelease};
use byc_catalog::{Granularity, ObjectCatalog};
use byc_cli::commands::{parse_args, run_command};
use byc_core::policy::Decision;
use byc_federation::mediator::ServedQuery;
use byc_federation::{build_policy, Mediator, PolicyKind};
use byc_types::json::Value;
use byc_types::{Bytes, Error, Result};
use byc_workload::{io::read_trace, WorkloadStats};
use std::time::Instant;

/// Mediator calls between two host samples.
const SEGMENT: usize = 10_000;
/// Kernel runs per host sample between mediator segments.
const SEGMENT_RUNS: usize = 2;

/// Marks the child's result line on its standard output.
const RESULT_PREFIX: &str = "@@result ";

/// A JSON object from `(key, value)` pairs.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Split a child's standard output into what `byc` printed and the
/// parsed result object.
pub fn split_result(stdout: &str) -> std::result::Result<(&str, Value), String> {
    let at = stdout
        .rfind(RESULT_PREFIX)
        .ok_or("child printed no result line")?;
    let line = stdout[at + RESULT_PREFIX.len()..].trim_end();
    let value = Value::parse(line).map_err(|e| format!("bad child result line: {e}"))?;
    Ok((&stdout[..at], value))
}

/// Print `result`, stamped with this process's peak RSS and CPU time,
/// as the result line.
pub fn print_result(result: Value) -> Result<()> {
    print_with_usage(result, self_usage()?)
}

/// Print `result`, stamped with `(hwm_kib, cpu_s)`, as the result line.
fn print_with_usage(result: Value, (hwm_kib, cpu_s): (u64, f64)) -> Result<()> {
    let Value::Object(mut fields) = result else {
        return Err(Error::InvalidConfig(
            "child result must be an object".into(),
        ));
    };
    fields.push(("hwm_kib".into(), Value::u64(hwm_kib)));
    fields.push(("cpu_s".into(), Value::f64(cpu_s)));
    println!("{RESULT_PREFIX}{}", Value::Object(fields));
    Ok(())
}

/// Run one untraced repetition of `w` and print its result.
///
/// # Errors
///
/// Any error `byc` or the mediator returns, and I/O errors.
pub fn untraced(w: &Workload, files: &Files) -> Result<()> {
    let Some(args) = w.byc_args(files) else {
        return print_result(serve_sql_lines(files)?);
    };
    // Exactly what `byc`'s `main` does.
    let start = Instant::now();
    let output = parse_args(&args).and_then(run_command)?;
    let byc_s = start.elapsed().as_secs_f64();
    println!("{output}");
    // `byc`'s own peak RSS and CPU time, read before its set-up is
    // timed again below.
    let usage = self_usage()?;
    let setup_s = time_setup(files)?;
    print_with_usage(
        obj(vec![
            ("byc_s", Value::f64(byc_s)),
            ("setup_s", Value::f64(setup_s)),
        ]),
        usage,
    )
}

/// Seconds `byc run` and `byc sweep` spend before their first replay on
/// a trace file: decode the trace, build the catalog and its objects,
/// and compute the workload statistics. `run_command` does all of it in
/// one call, so it is repeated here, on its own.
fn time_setup(files: &Files) -> Result<f64> {
    let start = Instant::now();
    let trace = read_trace(&files.trace)?;
    let objects = ObjectCatalog::uniform(
        &sdss::build(SdssRelease::Edr, SCALE, 1),
        Granularity::Column,
    );
    let stats = WorkloadStats::compute(&trace, &objects);
    let setup_s = start.elapsed().as_secs_f64();
    std::hint::black_box((trace, objects, stats));
    Ok(setup_s)
}

/// Decision and byte tallies over a stream of served queries.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Tally {
    /// Calls that returned an error.
    pub failed: u64,
    /// Calls whose delivered bytes were not cache plus server bytes.
    pub unbalanced: u64,
    /// `[hits, bypasses, loads, evictions]` over every object slice.
    pub decisions: [u64; 4],
    /// Result bytes delivered.
    pub delivered: Bytes,
    /// Result bytes served from the cache.
    pub cache_served: Bytes,
    /// Σ `wan_cost()`.
    pub wan: Bytes,
}

impl Tally {
    /// Fold one call's outcome in.
    pub fn add(&mut self, served: Result<ServedQuery>) {
        let Ok(s) = served else {
            self.failed += 1;
            return;
        };
        if s.delivered != s.from_cache + s.from_servers {
            self.unbalanced += 1;
        }
        for o in &s.outcomes {
            match &o.decision {
                Decision::Hit => self.decisions[0] += 1,
                Decision::Bypass => self.decisions[1] += 1,
                Decision::Load { evictions } => {
                    self.decisions[2] += 1;
                    self.decisions[3] += evictions.len() as u64;
                }
            }
        }
        self.delivered += s.delivered;
        self.cache_served += s.from_cache;
        self.wan += s.wan_cost();
    }

    /// The tally as result-line fields.
    pub fn fields(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("failed", Value::u64(self.failed)),
            ("unbalanced", Value::u64(self.unbalanced)),
            ("hits", Value::u64(self.decisions[0])),
            ("bypasses", Value::u64(self.decisions[1])),
            ("loads", Value::u64(self.decisions[2])),
            ("evictions", Value::u64(self.decisions[3])),
            ("delivered", Value::u64(self.delivered.raw())),
            ("cache_served", Value::u64(self.cache_served.raw())),
            ("wan", Value::u64(self.wan.raw())),
        ]
    }
}

/// Build the mediator the way a deployment would: the EDR catalog and a
/// Rate-Profile policy holding `CACHE_FRACTION` of the database.
pub fn build_mediator(
    wrap: impl FnOnce(Box<dyn byc_core::CachePolicy + Send + Sync>) -> Box<dyn byc_core::CachePolicy>,
) -> Mediator {
    let catalog = sdss::build(SdssRelease::Edr, SCALE, 1);
    let capacity = catalog.database_size().scale(CACHE_FRACTION);
    let policy = build_policy(PolicyKind::RateProfile, capacity, &[], INPUT_SEED);
    Mediator::new(catalog, Granularity::Column, wrap(policy))
}

/// The mediator workload: build the mediator (the timed set-up), then
/// send every SQL line through `serve_sql` from one closed-loop client,
/// timing each call.
///
/// The host flips between fast and slow states within a repetition, and
/// a percentile over calls made in both states jumps with their mix. So
/// calls are served in segments of [`SEGMENT`], with a host sample
/// between segments, and each segment's serving time and call latencies
/// are scaled to the reference host by the samples on either side of it
/// (see `calibrate`). The result includes the seconds spent sampling.
fn serve_sql_lines(files: &Files) -> Result<Value> {
    let text = std::fs::read_to_string(&files.sql)?;
    let setup = Instant::now();
    let mut mediator = build_mediator(|p| p);
    let setup_s = setup.elapsed().as_secs_f64();
    let lines: Vec<&str> = text.lines().collect();
    let mut latency_s = Vec::with_capacity(lines.len());
    let mut serve_s = 0.0;
    let mut tally = Tally::default();
    let mut sampling_s = 0.0;
    let mut sample = || {
        let start = Instant::now();
        let s = host_sample(SEGMENT_RUNS);
        sampling_s += start.elapsed().as_secs_f64();
        s
    };
    let mut before = sample();
    for segment in lines.chunks(SEGMENT) {
        let first = latency_s.len();
        let serving = Instant::now();
        for sql in segment {
            let call = Instant::now();
            let served = mediator.serve_sql(sql);
            latency_s.push(call.elapsed().as_secs_f64());
            tally.add(served);
        }
        let segment_s = serving.elapsed().as_secs_f64();
        let after = sample();
        let to_reference = REFERENCE_S / ((before + after) / 2.0);
        serve_s += segment_s * to_reference;
        for l in &mut latency_s[first..] {
            *l *= to_reference;
        }
        before = after;
    }
    let latency_s = sorted(&latency_s);
    let mut fields = vec![
        ("setup_s", Value::f64(setup_s)),
        ("ref_serve_s", Value::f64(serve_s)),
        ("calls", Value::u64(latency_s.len() as u64)),
        (
            "ref_p50_us",
            Value::f64(nearest_rank(&latency_s, 0.5) * 1e6),
        ),
        (
            "ref_p99_us",
            Value::f64(nearest_rank(&latency_s, 0.99) * 1e6),
        ),
        ("wan_total", Value::u64(mediator.wan_total().raw())),
        ("sampling_s", Value::f64(sampling_s)),
    ];
    fields.extend(tally.fields());
    Ok(obj(fields))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let stdout = format!(
            "table\n@@x\n{RESULT_PREFIX}{}\n",
            obj(vec![("a", Value::u64(3))])
        );
        let (before, v) = split_result(&stdout).unwrap();
        assert_eq!(before, "table\n@@x\n");
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(3));
        assert!(split_result("no marker").is_err());
    }
}
