//! Repetitions of one workload in fresh child processes, the checks on
//! every output, and the metrics summarized from them.

use crate::calibrate::{per_cpu_sample, REFERENCE_S};
use crate::child::split_result;
use crate::parse::{parse_run, parse_sweep, RunTable, SweepTable};
use crate::stats::{mean, median};
use crate::workload::{make_inputs, Files, Shape, Workload};
use byc_types::json::Value;
use byc_types::{Error, Result};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// One metric as BENCHMARK.json declares it.
#[derive(Clone, Debug)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Share of the baseline median it may worsen by (end-to-end only).
    pub bound: Option<f64>,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
}

/// The end-to-end and per-layer metrics BENCHMARK.json declares.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Printed by untraced runs.
    pub end_to_end: Vec<MetricSpec>,
    /// Printed by traced runs.
    pub per_layer: Vec<MetricSpec>,
}

/// The metric lists of the benchmark's own BENCHMARK.json.
///
/// # Errors
///
/// [`Error::InvalidConfig`] for a malformed document.
pub fn spec() -> Result<Spec> {
    let bad = |what: String| Error::InvalidConfig(format!("BENCHMARK.json: {what}"));
    let doc = Value::parse(include_str!("../../BENCHMARK.json")).map_err(bad)?;
    let list = |key: &str| -> Result<Vec<MetricSpec>> {
        let items = doc
            .get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| bad(format!("no {key} list")))?;
        items
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| bad(format!("{key} entry without {k}")))
                };
                Ok(MetricSpec {
                    name: field("name")?,
                    unit: field("unit")?,
                    bound: m.get("bound").and_then(Value::as_f64),
                    higher_is_better: field("better")? == "higher",
                })
            })
            .collect()
    };
    Ok(Spec {
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
    })
}

/// One untraced repetition, as the parent saw it. Throughput, set-up
/// and latency are scaled to the reference host (see `calibrate`); the
/// wall and CPU times are as measured.
#[derive(Clone, Debug)]
struct Rep {
    /// Wall seconds of the `byc` command, timed inside the child; spawn
    /// to exit for the mediator.
    wall_s: f64,
    /// Child CPU seconds.
    cpu_s: f64,
    /// Child peak RSS, MiB.
    rss_mib: f64,
    /// Queries (times replays) per second.
    qps: f64,
    /// Set-up seconds, timed inside the child.
    setup_s: f64,
    /// Request latency `(p50, p99)` in µs. A CLI request is one whole
    /// command, so both are its wall time.
    latency_us: (f64, f64),
    /// Sequence cost over WAN cost.
    wan_reduction_x: f64,
    /// Mean seconds of one reference kernel run, sampled right before
    /// and right after the child.
    host_s: f64,
    /// Everything that must repeat exactly across repetitions.
    fingerprint: String,
    /// What the untraced run printed, parsed.
    table: Table,
    /// The child's result object.
    result: Value,
}

#[derive(Clone, Debug)]
enum Table {
    Run(RunTable),
    Sweep(SweepTable),
    None,
}

/// A finished child process.
struct Child {
    wall_s: f64,
    stdout: String,
    ok: bool,
    stderr: String,
}

/// Run this executable as a child in `mode` on `w`, one at a time,
/// pinned to `cpu` if one is given.
fn spawn(mode: &str, w: &Workload, out: &Path, cpu: Option<usize>) -> Result<Child> {
    let exe = std::env::current_exe()?;
    let start = Instant::now();
    let mut command = Command::new(exe);
    command
        .args(["--child", mode, "--workload", w.name, "--out"])
        .arg(out);
    if let Some(cpu) = cpu {
        command.args(["--cpu", &cpu.to_string()]);
    }
    let output = command.stdin(Stdio::null()).output()?;
    Ok(Child {
        wall_s: start.elapsed().as_secs_f64(),
        stdout: String::from_utf8_lossy(&output.stdout).into_owned(),
        ok: output.status.success(),
        stderr: String::from_utf8_lossy(&output.stderr).into_owned(),
    })
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

/// All measurements and check results of one workload in one run.
pub struct WorkloadRun {
    /// The workload.
    pub w: &'static Workload,
    files: Files,
    out: std::path::PathBuf,
    queries: usize,
    reps: Vec<Rep>,
    traced: Vec<Value>,
    /// Every failed check, in order.
    pub problems: Vec<String>,
    /// Jobs (CLI) or calls (mediator) attempted.
    pub attempted: u64,
    /// Jobs or calls that failed or failed a check.
    pub failed: u64,
}

impl WorkloadRun {
    /// Make or reuse the inputs of `w` under `out`. Generation time is
    /// printed and kept out of every metric.
    ///
    /// # Errors
    ///
    /// Generation and I/O errors.
    pub fn prepare(w: &'static Workload, out: &Path, smoke: bool) -> Result<WorkloadRun> {
        std::fs::create_dir_all(out)?;
        let files = w.files(out);
        let queries = w.size(smoke);
        match make_inputs(&files, queries, !w.is_cli())? {
            Some(s) => println!("# {}: {queries}-query inputs written in {s:.2} s", w.name),
            None => println!("# {}: {queries}-query inputs reused", w.name),
        }
        Ok(WorkloadRun {
            w,
            files,
            out: out.to_path_buf(),
            queries,
            reps: Vec::new(),
            traced: Vec::new(),
            problems: Vec::new(),
            attempted: 0,
            failed: 0,
        })
    }

    /// Number of untraced repetitions so far.
    pub fn reps(&self) -> usize {
        self.reps.len()
    }

    /// Number of traced repetitions so far.
    pub fn traced_reps(&self) -> usize {
        self.traced.len()
    }

    fn fail(&mut self, attempted: u64, failed: u64, problem: String) {
        self.attempted += attempted;
        self.failed += failed;
        self.problems.push(format!("{}: {problem}", self.w.name));
    }

    /// Run one untraced repetition, with a host sample on either side,
    /// and check it; returns the seconds it took.
    ///
    /// A single-threaded child is pinned to the CPU whose kernel ran
    /// fastest just before, and scaled by that CPU's samples. A sweep
    /// runs on every CPU and is scaled by their mean.
    pub fn rep(&mut self) -> Result<f64> {
        let start = Instant::now();
        let before = per_cpu_sample();
        let cpu = self.cpu_for(&before);
        let child = spawn("untraced", self.w, &self.out, cpu)?;
        let after = per_cpu_sample();
        let on = |sample: &[(usize, f64)]| {
            mean(
                &sample
                    .iter()
                    .filter(|(c, _)| cpu.is_none_or(|pinned| pinned == *c))
                    .map(|s| s.1)
                    .collect::<Vec<_>>(),
            )
        };
        let host_s = (on(&before) + on(&after)) / 2.0;
        match self.read_rep(&child, host_s) {
            Ok(rep) => {
                println!(
                    "# {} repetition {}: cpu {}, kernel {:.2} ms, wall {:.3} s",
                    self.w.name,
                    self.reps.len() + 1,
                    cpu.map_or("all".to_string(), |c| c.to_string()),
                    host_s * 1e3,
                    rep.wall_s
                );
                self.check_rep(rep);
            }
            Err(e) => self.fail(1, 1, e),
        }
        Ok(start.elapsed().as_secs_f64())
    }

    /// The CPU to pin a single-threaded child to: the one whose kernel
    /// ran fastest in `sample`. `None` for the sweeps.
    fn cpu_for(&self, sample: &[(usize, f64)]) -> Option<usize> {
        (!self.w.is_parallel())
            .then(|| sample.iter().min_by(|a, b| a.1.total_cmp(&b.1)))
            .flatten()
            .map(|&(cpu, _)| cpu)
    }

    fn read_rep(&self, child: &Child, host_s: f64) -> std::result::Result<Rep, String> {
        if !child.ok {
            return Err(format!("child failed: {}", child.stderr.trim()));
        }
        let (printed, result) = split_result(&child.stdout)?;
        let to_reference = REFERENCE_S / host_s;
        let wall_s = num(&result, "byc_s");
        let ref_wall_s = wall_s * to_reference;
        let mut rep = Rep {
            wall_s,
            cpu_s: num(&result, "cpu_s"),
            rss_mib: num(&result, "hwm_kib") / 1024.0,
            qps: f64::NAN,
            setup_s: num(&result, "setup_s") * to_reference,
            latency_us: (ref_wall_s * 1e6, ref_wall_s * 1e6),
            wan_reduction_x: f64::NAN,
            host_s,
            fingerprint: printed.to_string(),
            table: Table::None,
            result: Value::Null,
        };
        match self.w.shape {
            Shape::Run => {
                let t = parse_run(printed)?;
                rep.qps = self.queries as f64 / ref_wall_s;
                rep.wan_reduction_x = t.wan_reduction_x();
                rep.table = Table::Run(t);
            }
            Shape::SweepFlat | Shape::SweepTieredFaults => {
                let t = parse_sweep(printed)?;
                rep.qps = (self.queries * t.cells()) as f64 / ref_wall_s;
                rep.wan_reduction_x = t.wan_reduction_x();
                if self.w.shape == Shape::SweepTieredFaults {
                    let metrics = std::fs::read_to_string(&self.files.metrics)
                        .map_err(|e| format!("no metrics export: {e}"))?;
                    rep.fingerprint.push_str(&metrics);
                }
                rep.table = Table::Sweep(t);
            }
            Shape::Mediator => {
                // The child scales serving time and call latencies itself,
                // segment by segment. It is pinned and single-threaded,
                // so its host samples took as much CPU as wall time, and
                // neither is the mediator's.
                let sampling_s = num(&result, "sampling_s");
                rep.wall_s = child.wall_s - sampling_s;
                rep.cpu_s -= sampling_s;
                rep.qps = num(&result, "calls") / num(&result, "ref_serve_s");
                rep.latency_us = (num(&result, "ref_p50_us"), num(&result, "ref_p99_us"));
                rep.wan_reduction_x = num(&result, "delivered") / num(&result, "wan");
                rep.fingerprint = ["hits", "bypasses", "loads", "evictions", "delivered", "wan"]
                    .map(|k| format!("{k}={}", num(&result, k)))
                    .join(" ");
            }
        }
        rep.result = result;
        Ok(rep)
    }

    fn check_rep(&mut self, rep: Rep) {
        let mut problems = match &rep.table {
            Table::Run(t) => t.problems(self.queries as u64),
            Table::Sweep(t) => t.problems(),
            Table::None => Vec::new(),
        };
        let (mut attempted, mut failed) = (1, 0);
        if self.w.shape == Shape::Mediator {
            let r = &rep.result;
            attempted = num(r, "calls") as u64;
            failed = (num(r, "failed") + num(r, "unbalanced")) as u64;
            if attempted != self.queries as u64 {
                problems.push(format!(
                    "{attempted} calls served, expected {}",
                    self.queries
                ));
            }
            if failed > 0 {
                problems.push(format!(
                    "{} failed calls, {} with delivered != from_cache + from_servers",
                    num(r, "failed"),
                    num(r, "unbalanced")
                ));
            }
            if num(r, "wan") != num(r, "wan_total") {
                problems.push("sum of wan_cost() != Mediator::wan_total()".into());
            }
        }
        for (name, v) in [
            ("WAN reduction", rep.wan_reduction_x),
            ("throughput", rep.qps),
            ("set-up time", rep.setup_s),
        ] {
            if !(v.is_finite() && v > 0.0) {
                problems.push(format!("no positive {name} ({v})"));
            }
        }
        if let Some(first) = self.reps.first() {
            if first.fingerprint != rep.fingerprint {
                problems.push("output differs from the first repetition's".into());
            }
        }
        if problems.is_empty() {
            self.attempted += attempted;
            self.failed += failed;
        } else {
            self.fail(attempted, failed.max(1), problems.join("; "));
        }
        self.reps.push(rep);
    }

    /// Run one traced repetition and check that it followed `byc`:
    /// its counts must equal the first untraced repetition's output.
    /// It is pinned like an untraced one, so that its CPU time compares
    /// with theirs.
    pub fn traced_rep(&mut self) -> Result<()> {
        let cpu = self.cpu_for(&per_cpu_sample());
        let child = spawn("traced", self.w, &self.out, cpu)?;
        let checked = if child.ok {
            split_result(&child.stdout).and_then(|(_, r)| self.cross_check(&r).map(|()| r))
        } else {
            Err(format!("traced child failed: {}", child.stderr.trim()))
        };
        match checked {
            Ok(result) => {
                self.attempted += 1;
                self.traced.push(result);
            }
            Err(e) => self.fail(1, 1, e),
        }
        Ok(())
    }

    fn cross_check(&self, traced: &Value) -> std::result::Result<(), String> {
        let reference = self
            .reps
            .first()
            .ok_or("no untraced repetition to check against")?;
        let count = |k: &str| num(traced, k);
        let cells = traced.get("cells").and_then(Value::as_array).unwrap_or(&[]);
        let cell_gb = |c: &Value| -> Option<(String, f64, f64)> {
            match c.as_array()? {
                [p, f, gb] => Some((p.as_str()?.to_string(), f.as_f64()?, gb.as_f64()?)),
                _ => None,
            }
        };
        match &reference.table {
            Table::Run(t) => {
                let traced_counts =
                    ["hits", "bypasses", "loads", "evictions"].map(|k| count(k) as u64);
                let total = cells.first().and_then(cell_gb).map(|c| c.2);
                if traced_counts != t.counts
                    || total.map(|g| format!("{g:.2}")) != Some(format!("{:.2}", t.total_gb))
                {
                    return Err(format!(
                        "traced run counts {traced_counts:?} / total {total:?} GB differ from \
                         byc's {:?} / {:.2} GB",
                        t.counts, t.total_gb
                    ));
                }
            }
            Table::Sweep(t) => {
                if cells.len() != t.cells() {
                    return Err(format!(
                        "traced sweep has {} cells, byc printed {}",
                        cells.len(),
                        t.cells()
                    ));
                }
                for (policy, fraction, gb) in cells.iter().filter_map(cell_gb) {
                    let printed = t.cell(&policy, fraction).map(|c| format!("{c:.1}"));
                    if printed != Some(format!("{gb:.1}")) {
                        return Err(format!(
                            "traced {policy}@{fraction} costs {gb:.1} GB, byc printed {printed:?}"
                        ));
                    }
                }
                if self.w.shape == Shape::SweepTieredFaults {
                    let read =
                        |p: &Path| std::fs::read(p).map_err(|e| format!("{}: {e}", p.display()));
                    if read(&self.files.metrics)? != read(&self.files.traced_metrics)? {
                        return Err("traced metrics export differs from byc's".into());
                    }
                }
            }
            Table::None => {
                for k in ["hits", "bypasses", "loads", "evictions", "delivered", "wan"] {
                    if count(k) != num(&reference.result, k) {
                        return Err(format!(
                            "traced mediator {k} = {} differs from serve_sql's {}",
                            count(k),
                            num(&reference.result, k)
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Per-repetition samples of end-to-end metric `name`.
    pub fn samples(&self, name: &str) -> Vec<f64> {
        let reps = self.reps.iter();
        match name {
            "qps" => reps.map(|r| r.qps).collect(),
            "peak_rss_mb" => reps.map(|r| r.rss_mib).collect(),
            "wan_reduction_x" => reps.map(|r| r.wan_reduction_x).collect(),
            "setup_s" => reps.map(|r| r.setup_s).collect(),
            "latency_p50_us" => reps.map(|r| r.latency_us.0).collect(),
            "latency_p99_us" => reps.map(|r| r.latency_us.1).collect(),
            _ => Vec::new(),
        }
    }

    /// Median seconds of one reference kernel run around the repetitions.
    pub fn host_s(&self) -> f64 {
        median(&self.reps.iter().map(|r| r.host_s).collect::<Vec<_>>())
    }

    /// End-to-end metric `name`: the median over repetitions.
    pub fn end_to_end(&self, name: &str) -> f64 {
        median(&self.samples(name))
    }

    /// Per-layer metrics (name, value), medians over traced repetitions,
    /// including the details BENCHMARK.json does not list. Untraced CPU
    /// and wall time are means: CPU time comes in 10 ms ticks.
    pub fn per_layer(&self) -> Vec<(String, f64)> {
        let cpu = mean(&self.reps.iter().map(|r| r.cpu_s).collect::<Vec<_>>());
        let wall = mean(&self.reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
        let mut push = |name: &str, v: f64| match rows.iter_mut().find(|(n, _)| n == name) {
            Some((_, vs)) => vs.push(v),
            None => rows.push((name.to_string(), vec![v])),
        };
        for t in &self.traced {
            let layers = t.get("layers");
            let layer = |k: &str| layers.map_or(0.0, |l| num(l, k));
            let details = t.get("details");
            let detail = |k: &str| details.map_or(0.0, |d| num(d, k));
            let accesses = detail("accesses");
            let queries = detail("queries");
            let sum: f64 = match layers {
                Some(Value::Object(fields)) => fields.iter().filter_map(|(_, v)| v.as_f64()).sum(),
                _ => 0.0,
            };
            push("frontend.ns_per_query", layer("frontend") / queries * 1e9);
            push("catalog.build_s", layer("catalog"));
            push(
                "core.decide_ns_per_access",
                detail("decide_s") / accesses * 1e9,
            );
            push("core.accesses", accesses);
            for k in ["hits", "bypasses", "loads", "evictions"] {
                push(&format!("core.{k}"), num(t, k));
            }
            push(
                "core.byte_hit_rate",
                num(t, "cache_served") / num(t, "delivered"),
            );
            push(
                "federation.self_ns_per_access",
                layer("federation") / accesses * 1e9,
            );
            push("federation.retries", num(t, "retries"));
            push("process.cpu_s", cpu);
            push("process.parallelism", cpu / wall);
            push("process.residual_s", cpu - sum);
            push("trace.overhead_pct", (num(t, "cpu_s") - cpu) / cpu * 100.0);
            push("trace.coverage_pct", sum / cpu * 100.0);
            // Details: printed, not listed in BENCHMARK.json.
            for (prefix, map) in [("layer_s", layers), ("detail", details)] {
                if let Some(Value::Object(fields)) = map {
                    for (k, v) in fields {
                        push(&format!("{prefix}.{k}"), v.as_f64().unwrap_or(f64::NAN));
                    }
                }
            }
            if self.w.shape == Shape::Mediator {
                for (k, d) in [
                    ("sql.parse", "parse_s"),
                    ("sql.analyze", "analyze_s"),
                    ("engine.yield", "yield_s"),
                ] {
                    push(&format!("{k}_ns_per_query"), detail(d) / queries * 1e9);
                }
            } else {
                push(
                    "workload.decode_mb_per_s",
                    detail("trace_mb") / layer("frontend"),
                );
            }
            if self.w.shape == Shape::SweepTieredFaults {
                push(
                    "telemetry.observe_ns_per_event",
                    detail("observe_s") / detail("events") * 1e9,
                );
                push("federation.degraded_queries", num(t, "degraded"));
                push("federation.failed_queries", num(t, "failed_queries"));
            }
        }
        rows.into_iter().map(|(n, vs)| (n, median(&vs))).collect()
    }
}
