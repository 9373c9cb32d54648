//! # upsilon-scenario
//!
//! The scenario registry and experiment matrix runner: one declarative
//! `.toml` format (parsed by the dependency-free
//! [`upsilon_scenario_schema`] crate) drives the exhaustive checker, the
//! coverage-guided fuzzer, the E9–E11 experiment loops and the swarm
//! executor from a single source of truth under `scenarios/`.
//!
//! The pipeline:
//!
//! 1. [`load`] / [`load_all`] read checked-in scenario files and validate
//!    them via [`ScenarioDoc::parse`];
//! 2. [`ScenarioDoc::expand`] turns the axis declarations and variant arms
//!    into concrete [`Cell`]s;
//! 3. [`registry::resolve_check`] / [`registry::resolve_fuzz`] map each
//!    cell's protocol name onto the sample constructors in
//!    [`upsilon_check::samples`] with strict binding validation;
//! 4. [`matrix::run_matrix`] fans `cells × seeds × repeats` over
//!    the deterministic batch pool and merges the evidence stream in job
//!    order, yielding [`matrix::EvidenceRecord`]s, JSONL snapshots
//!    ([`matrix::to_jsonl`]) and per-arm A/B summaries
//!    ([`matrix::arm_summaries`]).
//!
//! The `upsilon-scenario` binary is the workspace's one command line: it
//! exposes the same pipeline (`validate`, `expand`, `run`, `ab`) and runs
//! `check`, `fuzz` and `swarm` calls as one-cell scenarios through the
//! registry; `experiments` prints the E1–E16 tables of EXPERIMENTS.md
//! ([`experiment::tables::render`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod matrix;
pub mod registry;

use std::path::{Path, PathBuf};

pub use upsilon_scenario_schema::{
    Cell, Diag, Expect, Kind, Scalar, ScenarioDoc, KNOWN_PROTOCOLS, REQUIRED_SAMPLES,
};

pub use matrix::{arm_summaries, run_matrix, to_jsonl, EvidenceRecord, MatrixReport};
pub use registry::{resolve_check, resolve_fuzz, resolve_swarm, AnyCheck, AnyFuzz};

/// The checked-in scenario directory at the repository root.
pub fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("scenarios")
}

/// Loads and validates one scenario file, and checks that the document's
/// `name` matches the file stem (that is how orphaned or renamed files are
/// caught); errors carry the file path and the span-bearing diagnostic.
pub fn load_file(path: &Path) -> Result<ScenarioDoc, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = ScenarioDoc::parse(&text).map_err(|d| format!("{}: {d}", path.display()))?;
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or_default();
    if doc.name != stem {
        return Err(format!(
            "{}: scenario name `{}` does not match file stem `{stem}`",
            path.display(),
            doc.name
        ));
    }
    Ok(doc)
}

/// Loads `scenarios/<name>.toml` from the checked-in registry (see
/// [`load_file`]).
pub fn load(name: &str) -> Result<ScenarioDoc, String> {
    load_file(&scenarios_dir().join(format!("{name}.toml")))
}

/// Loads every `.toml` under the checked-in registry, sorted by file name.
/// A scenario whose `name` differs from its file stem is an error.
pub fn load_all() -> Result<Vec<(PathBuf, ScenarioDoc)>, String> {
    load_all_in(&scenarios_dir())
}

/// [`load_all`] over an arbitrary directory, for tests and the driver.
pub fn load_all_in(dir: &Path) -> Result<Vec<(PathBuf, ScenarioDoc)>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "toml"))
        .collect();
    paths.sort();
    let mut docs = Vec::with_capacity(paths.len());
    for path in paths {
        let doc = load_file(&path)?;
        docs.push((path, doc));
    }
    Ok(docs)
}
