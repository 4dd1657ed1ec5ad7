//! The four workloads: what `byc` is asked to do, on which inputs, and
//! how those inputs are made.
//!
//! Every workload uses the EDR preset at one catalog scale with column
//! granularity: file replays always price against the EDR catalog, so
//! traces must come from it. Workloads pass `byc` only input and
//! configuration flags, never a kernel-selection flag, so the benchmark
//! measures whatever `byc` does by default.
//!
//! Every input is made from [`INPUT_SEED`], whatever the benchmark's
//! `--seed`: the trace, `byc`'s `--seed` (fault draws, SpaceEffBY) and
//! the mediator's policy. With the seed free, `wan_reduction_x` moved by
//! 5-9% from one trace seed to the next, and by 2% (flat sweep) and 10%
//! (faulted sweep) from one `byc` seed to the next. That would hide any
//! decision change smaller than those; on fixed inputs it is a fixed
//! number that only a decision moves, and runs differ only by the host.

use byc_catalog::sdss::SdssRelease;
use byc_types::{Error, Result};
use byc_workload::{TraceReader, TraceSpec};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seed of every input.
pub const INPUT_SEED: u64 = 1;
/// Catalog scale of every workload.
pub const SCALE: f64 = 0.01;
/// Cache size of `run` and the mediator, as a share of the database.
pub const CACHE_FRACTION: f64 = 0.15;
/// Per-attempt failure probability of the faulted sweep.
pub const FLAKY_P: f64 = 0.02;
/// Cost-spike probability and multiplier of the faulted sweep.
pub const SPIKE: (f64, f64) = (0.05, 4.0);
/// Transfer attempts per slice on the faulted sweep.
pub const RETRY: u32 = 3;
/// Smoke runs shrink every input by this factor. Smaller inputs finish
/// `byc` within one 10 ms CPU-time tick, and the per-layer shares of
/// CPU time come out as 0 ÷ 0.
const SMOKE_DIVISOR: usize = 5;

/// What a workload asks of `byc`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `byc run` on a trace file: decode-bound.
    Run,
    /// `byc sweep` on a trace file over the flat WAN: replay-bound.
    SweepFlat,
    /// `byc sweep` over a three-tier topology with flaky links, retries
    /// and a JSON metrics export.
    SweepTieredFaults,
    /// One closed-loop client sending SQL text to `Mediator::serve_sql`.
    Mediator,
}

/// One named workload.
#[derive(Debug)]
pub struct Workload {
    /// Name, as BENCHMARK.json lists it.
    pub name: &'static str,
    /// What it runs.
    pub shape: Shape,
    /// Queries in its input at full size.
    pub queries: usize,
}

/// Every workload, in the order a suite run interleaves them.
pub static WORKLOADS: [Workload; 4] = [
    Workload {
        name: "run-file-50k",
        shape: Shape::Run,
        queries: 50_000,
    },
    Workload {
        name: "sweep-flat-40k",
        shape: Shape::SweepFlat,
        queries: 40_000,
    },
    Workload {
        name: "sweep-tiered-faults-25k",
        shape: Shape::SweepTieredFaults,
        queries: 25_000,
    },
    Workload {
        name: "mediator-sql-200k",
        shape: Shape::Mediator,
        queries: 200_000,
    },
];

/// The files one workload reads and writes under the output directory.
#[derive(Clone, Debug)]
pub struct Files {
    /// The JSON-lines trace.
    pub trace: PathBuf,
    /// The mediator's SQL text, one query per line.
    pub sql: PathBuf,
    /// `byc sweep --metrics` export of the untraced run.
    pub metrics: PathBuf,
    /// The same export, written by the traced pipeline.
    pub traced_metrics: PathBuf,
    /// Chrome-trace JSON of the traced run's spans.
    pub spans: PathBuf,
}

impl Workload {
    /// The workload called `name`.
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Queries in the input (calls, for the mediator).
    pub fn size(&self, smoke: bool) -> usize {
        if smoke {
            (self.queries / SMOKE_DIVISOR).max(1)
        } else {
            self.queries
        }
    }

    /// Whether the untraced run is a `byc` command (not the mediator).
    pub fn is_cli(&self) -> bool {
        self.shape != Shape::Mediator
    }

    /// Whether the untraced run uses more than one thread (the sweeps).
    pub fn is_parallel(&self) -> bool {
        matches!(self.shape, Shape::SweepFlat | Shape::SweepTieredFaults)
    }

    /// The workload's files under `out`.
    pub fn files(&self, out: &Path) -> Files {
        let file = |suffix: &str| out.join(format!("{}.{suffix}", self.name));
        Files {
            trace: file("jsonl"),
            sql: file("sql"),
            metrics: file("metrics.json"),
            traced_metrics: file("traced.metrics.json"),
            spans: file("spans.json"),
        }
    }

    /// The `byc` argv of a CLI workload (`None` for the mediator).
    pub fn byc_args(&self, files: &Files) -> Option<Vec<String>> {
        let trace = files.trace.display().to_string();
        let common = [
            "--granularity".to_string(),
            "column".into(),
            "--scale".into(),
            SCALE.to_string(),
            "--seed".into(),
            INPUT_SEED.to_string(),
        ];
        let mut args: Vec<String> = match self.shape {
            Shape::Run => vec![
                "run".into(),
                trace,
                "--policy".into(),
                "rate-profile".into(),
                "--cache-fraction".into(),
                CACHE_FRACTION.to_string(),
            ],
            Shape::SweepFlat | Shape::SweepTieredFaults => vec!["sweep".into(), trace],
            Shape::Mediator => return None,
        };
        args.extend(common);
        if self.shape == Shape::SweepTieredFaults {
            args.extend([
                "--topology".to_string(),
                "three-tier".into(),
                "--faults".into(),
                format!("flaky:p={FLAKY_P},spike={}x{}", SPIKE.0, SPIKE.1),
                "--retry".into(),
                RETRY.to_string(),
                "--metrics".into(),
                files.metrics.display().to_string(),
                "--metrics-format".into(),
                "json".into(),
            ]);
        }
        Some(args)
    }
}

/// Make the inputs of a `queries`-query workload: its trace, and for the
/// mediator its SQL lines. A trace whose header already names
/// [`INPUT_SEED`] and `queries` is reused; otherwise both are written.
/// Returns the seconds spent writing, `None` when everything was reused.
///
/// Each file is written under a temporary name and renamed into place,
/// so a file at its final path is always complete.
///
/// # Errors
///
/// Generation, I/O and trace-format errors.
pub fn make_inputs(files: &Files, queries: usize, sql: bool) -> Result<Option<f64>> {
    let reusable = TraceReader::open(&files.trace)
        .is_ok_and(|r| r.seed() == INPUT_SEED && r.query_count() == queries);
    if reusable && (!sql || files.sql.exists()) {
        return Ok(None);
    }
    let start = Instant::now();
    if !reusable {
        // SQL lines left from another trace must not outlive it.
        if files.sql.exists() {
            std::fs::remove_file(&files.sql)?;
        }
        in_place(&files.trace, |tmp| {
            TraceSpec::new(SdssRelease::Edr)
                .scale(SCALE)
                .seed(INPUT_SEED)
                .queries(queries)
                .out(tmp)
                .write()
                .map(drop)
        })?;
    }
    if sql {
        in_place(&files.sql, |tmp| write_sql(&files.trace, tmp))?;
    }
    Ok(Some(start.elapsed().as_secs_f64()))
}

/// Write `path` through `write` under a temporary name, then rename it.
fn in_place(path: &Path, write: impl FnOnce(&Path) -> Result<()>) -> Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".partial");
    let tmp = PathBuf::from(tmp);
    write(&tmp)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Copy the SQL text of every query in the trace at `trace` into `sql`,
/// one query per line.
///
/// # Errors
///
/// I/O and trace-format errors; [`Error::InvalidConfig`] for SQL text
/// that spans lines.
fn write_sql(trace: &Path, sql: &Path) -> Result<()> {
    let mut reader = TraceReader::open(trace)?;
    let mut out = std::io::BufWriter::new(std::fs::File::create(sql)?);
    loop {
        let chunk = reader.next_chunk(8192)?;
        if chunk.is_empty() {
            break;
        }
        for q in chunk {
            if q.sql.contains('\n') {
                return Err(Error::InvalidConfig(format!("query {} spans lines", q.id)));
            }
            writeln!(out, "{}", q.sql)?;
        }
    }
    out.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_found() {
        for w in &WORKLOADS {
            assert!(std::ptr::eq(Workload::find(w.name).unwrap(), w));
        }
        assert!(Workload::find("nope").is_none());
    }

    #[test]
    fn cli_argv_carries_no_kernel_flags() {
        let files = WORKLOADS[0].files(Path::new("out"));
        for w in WORKLOADS.iter().filter(|w| w.is_cli()) {
            let args = w.byc_args(&files).unwrap();
            for flag in ["--compiled", "--streaming", "--chunk-size", "--shards"] {
                assert!(!args.iter().any(|a| a == flag), "{} passes {flag}", w.name);
            }
            byc_cli::commands::parse_args(&args).unwrap();
        }
        assert!(Workload::find("mediator-sql-200k")
            .unwrap()
            .byc_args(&files)
            .is_none());
    }

    #[test]
    fn inputs_are_reused_only_when_the_header_matches() {
        let dir = std::env::temp_dir().join(format!("byc-benchmark-inputs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let files = Workload::find("mediator-sql-200k").unwrap().files(&dir);
        assert!(make_inputs(&files, 30, true).unwrap().is_some());
        let lines = |p: &Path| std::fs::read_to_string(p).unwrap().lines().count();
        assert_eq!(lines(&files.sql), 30);
        assert!(make_inputs(&files, 30, true).unwrap().is_none());
        // Another size rewrites the trace and its SQL lines.
        assert!(make_inputs(&files, 40, true).unwrap().is_some());
        assert_eq!(lines(&files.sql), 40);
        // Missing SQL lines are remade from the reused trace.
        std::fs::remove_file(&files.sql).unwrap();
        assert!(make_inputs(&files, 40, true).unwrap().is_some());
        assert_eq!(lines(&files.sql), 40);
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names.len(), 2, "{names:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn faulted_sweep_argv_spells_the_fault_spec() {
        let w = Workload::find("sweep-tiered-faults-25k").unwrap();
        let args = w.byc_args(&w.files(Path::new("o"))).unwrap();
        assert!(
            args.contains(&"flaky:p=0.02,spike=0.05x4".to_string()),
            "{args:?}"
        );
    }
}
