//! `upsilon-conform`: the repository's source analyzer — the §3.1 model
//! rules and the determinism rules, on one front end.
//!
//! Every correctness claim in this repository is a claim *about the model*:
//! processes advance in atomic steps, each step performs at most one
//! shared-memory or failure-detector operation, and wait-free routines
//! (Theorems 2, 6, 10) take a bounded number of steps per invocation; and
//! every run must replay from its schedule, failure pattern and detector
//! history. The one-operation-per-step contract is a type: every `Ctx`
//! operation borrows the context mutably, so the compiler rejects two
//! operations behind one await or an operation on an aliased context, and
//! the simulator grants one step per poll. What the type cannot see —
//! reading the host clock, or helping in an unbounded loop while claiming
//! wait-freedom — this crate checks in source.
//!
//! It lexes and bracket-parses the sources with a purpose-built,
//! dependency-free front end (no full Rust grammar — just enough structure
//! to see items, bodies, postfix chains, imports and `.await` points) and
//! enforces:
//!
//! * the **determinism rules** ([`determinism::ROWS`]) over every file of
//!   [`SCANNED_TREES`]: no hash collections, wall clocks or OS entropy, no
//!   threads spawned outside tests, no bare `unwrap()` in the simulator,
//!   and **C2** — no host threads, I/O or sleeping in algorithm bodies;
//! * **C4**, the model rule — every routine annotated
//!   `// #[conform(wait_free)]` has a static per-invocation step bound,
//!   computed over the await graph with loop bounds taken from
//!   `// #[conform(bound = "…")]` annotations.
//!
//! C2 and C4 check the algorithm files: the `src/` trees of
//! [`ALGORITHM_CRATES`]. Findings are reported with file, line, rule id and
//! a suggested fix, rendered either human-readably or as deterministic
//! JSON (suitable for golden-file tests). Audited exceptions live in an
//! [`Allowlist`] (`<rule-id> <path>` per line), the one allowlist type the
//! static passes share.
//!
//! The analyzer runs through `analyze conform`, the `upsilon-analysis`
//! binary, and CI; the `crates/conform/fixtures` crate holds deliberately
//! nonconforming algorithms that pin down each algorithm-file rule as a
//! negative golden test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod allow;
pub mod awaitgraph;
pub mod bound;
pub mod determinism;
pub mod diag;
pub mod lexer;
pub mod model;
pub mod tree;

pub use allow::Allowlist;
pub use awaitgraph::FnIndex;
pub use bound::{parse_expr, Expr};
pub use diag::{BoundRow, ConformReport, Finding, RuleId};
pub use model::{model_file, FileModel};

use std::fs;
use std::io;
use std::path::Path;

/// Crate directories under `crates/` whose `src/` trees hold algorithm
/// code governed by the §3.1 contract, which C2 and C4 check.
///
/// `mem` is included beyond the protocol crates because the base-object
/// routines (`Register::read`, the Afek et al. snapshot, …) are the very
/// algorithm code the bounds of composite routines rest on; `sim` and
/// `analysis` are harness code, which only the determinism rules check.
pub const ALGORITHM_CRATES: &[&str] = &["agreement", "check", "converge", "extract", "fd", "mem"];

/// Repository-relative directories whose every `.rs` file the analyzer
/// reads: the workspace crates and the root package's `src/`, `tests/` and
/// `examples/`, except [`UNSCANNED`].
pub const SCANNED_TREES: &[&str] = &["crates", "examples", "src", "tests"];

/// The negative golden of C2 and C4, which must trip them.
pub const UNSCANNED: &str = "crates/conform/fixtures/";

/// All known rule identifiers, for allowlist validation.
pub fn known_rule_ids() -> Vec<&'static str> {
    RuleId::ALL.iter().map(|r| r.id()).collect()
}

/// Analyzes already-loaded `(repo-relative path, source)` pairs: every
/// rule over the `algorithm` files, the determinism rules over the
/// `other` files.
///
/// This is the core entry point; [`scan_workspace`] reads the files of
/// [`SCANNED_TREES`] and delegates here, and tests feed fixture sources
/// directly.
pub fn check_sources(
    algorithm: &[(String, String)],
    other: &[(String, String)],
    allow: &Allowlist,
) -> ConformReport {
    let mut report = ConformReport {
        algorithm_files: algorithm.len(),
        ..ConformReport::default()
    };
    let mut models: Vec<FileModel> = Vec::new();
    let mut findings: Vec<Finding> = Vec::new();
    let files = algorithm.iter().map(|s| (s, true));
    for ((rel, src), is_algorithm) in files.chain(other.iter().map(|s| (s, false))) {
        report.files.push(rel.clone());
        let (tree, mut errors) = match tree::parse(lexer::lex(src)) {
            Ok(tree) => (tree, Vec::new()),
            Err(error) => (Vec::new(), vec![error]),
        };
        let model = is_algorithm.then(|| model::model_tree(rel, &tree));
        errors.extend(model.iter().flat_map(|m| m.errors.iter().cloned()));
        for (line, message) in errors {
            findings.push(Finding {
                rule: RuleId::Parse,
                file: rel.clone(),
                line,
                message,
                suggestion: "fix the file (or the annotation) so it can be analyzed; \
                             an unparsable file cannot be certified"
                    .to_string(),
            });
        }
        determinism::check_file(rel, &tree, model.as_ref(), &mut findings);
        models.extend(model);
    }
    let index = FnIndex::build(&models);
    let (bounds, c4) = awaitgraph::compute(&models, &index);
    findings.extend(c4);
    report.bounds = bounds;
    for f in findings {
        if allow.permits(f.rule.id(), &f.file) {
            report.suppressed.push(f);
        } else {
            report.findings.push(f);
        }
    }
    report.normalize();
    report
}

/// Scans every `.rs` file of the [`SCANNED_TREES`] under `root`: the
/// determinism rules over all of them, C2 and C4 over the algorithm
/// files.
///
/// # Errors
///
/// Propagates filesystem errors; a missing directory is an error (the
/// analyzer must not silently pass because it looked in the wrong place).
pub fn scan_workspace(root: &Path, allow: &Allowlist) -> io::Result<ConformReport> {
    let mut algorithm = Vec::new();
    let mut other = Vec::new();
    for dir in SCANNED_TREES {
        for file in read_tree(root, dir)? {
            let path = &file.0;
            if path.starts_with(UNSCANNED) {
                continue;
            }
            if ALGORITHM_CRATES
                .iter()
                .any(|k| path.starts_with(&format!("crates/{k}/src/")))
            {
                algorithm.push(file);
            } else {
                other.push(file);
            }
        }
    }
    Ok(check_sources(&algorithm, &other, allow))
}

/// Reads every `.rs` file under `root/crates/<krate>/src` for each of
/// `crates`, as `(repo-relative path, source)` pairs in path order: the
/// input of the commute analyzer.
///
/// # Errors
///
/// Propagates filesystem errors; a missing crate directory is an error
/// (an analyzer must not silently pass because it looked in the wrong
/// place).
pub fn read_sources(root: &Path, crates: &[&str]) -> io::Result<Vec<(String, String)>> {
    let mut sources = Vec::new();
    for krate in crates {
        sources.extend(read_tree(root, &format!("crates/{krate}/src"))?);
    }
    Ok(sources)
}

/// Reads every `.rs` file under `root/dir`, in path order.
fn read_tree(root: &Path, dir: &str) -> io::Result<Vec<(String, String)>> {
    let dir = root.join(dir);
    if !dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("scanned source directory missing: {}", dir.display()),
        ));
    }
    let mut files = Vec::new();
    collect_rust_files(&dir, &mut files)?;
    files.sort();
    files
        .into_iter()
        .map(|path| Ok((relative_path(root, &path), fs::read_to_string(&path)?)))
        .collect()
}

fn collect_rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_rule_ids_cover_all_rules() {
        let ids = known_rule_ids();
        assert_eq!(ids.len(), RuleId::ALL.len());
        for r in RuleId::ALL {
            assert!(ids.contains(&r.id()));
        }
    }

    #[test]
    fn check_sources_cross_file_composition() {
        // A routine in one file calls a routine defined in another; the
        // index resolves it and the bound composes.
        let lib = "
pub async fn base(ctx: &mut Ctx<()>) -> u64 { ctx.invoke(0).await }
"
        .to_string();
        let user = "
// #[conform(wait_free)]
pub async fn twice(ctx: &mut Ctx<()>) -> u64 {
    let a = base(ctx).await;
    let b = base(ctx).await;
    a + b
}
"
        .to_string();
        let report = check_sources(
            &[
                ("crates/mem/src/lib.rs".to_string(), lib),
                ("crates/agreement/src/user.rs".to_string(), user),
            ],
            &[],
            &Allowlist::empty(),
        );
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        let row = report.bound_for("user.rs", "twice").expect("row");
        assert_eq!(row.bound.as_deref(), Some("2"));
        assert!(row.wait_free);
    }

    #[test]
    fn parse_errors_become_parse_findings() {
        let report = check_sources(
            &[(
                "crates/mem/src/bad.rs".to_string(),
                "fn f() {\n".to_string(),
            )],
            &[],
            &Allowlist::empty(),
        );
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert_eq!(report.findings[0].rule, RuleId::Parse);
    }

    #[test]
    fn allowlist_moves_findings_to_suppressed() {
        let src = "
async fn bad(ctx: &mut Ctx<()>) {
    let v = std::env::var(\"N\");
    ctx.yield_step().await
}
"
        .to_string();
        let allow = Allowlist::parse("C2 crates/mem/src/t.rs", &known_rule_ids()).expect("valid");
        let report = check_sources(&[("crates/mem/src/t.rs".to_string(), src)], &[], &allow);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.suppressed.len(), 1);
        assert_eq!(report.suppressed[0].rule, RuleId::C2);
    }
}
