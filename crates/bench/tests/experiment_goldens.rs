//! Golden summaries of the two experiments whose replay wiring is not a
//! plain `ReplaySession::run`: `semantic` prices its query-level
//! hit-or-ship outcome itself, and `fig10` runs a `ReplaySession::sweep`
//! grid. Both run on `ExperimentContext::scaled(_, 0.01, 0.2)`, the
//! configuration of `experiments --scale 0.01 --queries 0.2`, which
//! rendered the files under `tests/golden/`. Any drift in a byte fails
//! here.

use byc_bench::experiments::{self, ExperimentContext};
use std::path::{Path, PathBuf};

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A scratch output directory for one test, removed on drop.
struct OutDir(PathBuf);

impl OutDir {
    fn new(tag: &str) -> OutDir {
        OutDir(std::env::temp_dir().join(format!("byc-exp-golden-{tag}-{}", std::process::id())))
    }
}

impl Drop for OutDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn semantic_summary_matches_golden() {
    let out = OutDir::new("semantic");
    let mut ctx = ExperimentContext::scaled(&out.0, 0.01, 0.2);
    let result = experiments::semantic(&mut ctx).unwrap();
    assert_eq!(result.summary, golden("semantic.txt"));
}

#[test]
fn fig10_summary_and_grid_match_golden() {
    let out = OutDir::new("fig10");
    let mut ctx = ExperimentContext::scaled(&out.0, 0.01, 0.2);
    let result = experiments::fig10(&mut ctx).unwrap();
    assert_eq!(result.summary, golden("fig10.txt"));
    let grid = std::fs::read_to_string(out.0.join("fig10_column_sweep.csv")).unwrap();
    assert_eq!(grid, golden("fig10_column_sweep.csv"));
}
