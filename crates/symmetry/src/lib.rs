//! `upsilon-symmetry`: static process-symmetry analysis of the algorithm
//! bodies, and the generated orbit-class table for the explorer.
//!
//! The paper's system is `n + 1` crash-prone processes running *identical*
//! pid-parameterized code, so the explorer's state space is massively
//! redundant under process permutation. Exploiting that redundancy is only
//! sound for protocols that really are pid-parametric — a property of the
//! *source*, which this crate audits. It reuses the `upsilon-conform`
//! front end (lexer + bracket tree), extracts every ctx-taking routine and
//! `algo(...)` closure in the scanned crates, and:
//!
//! 1. **audits** each routine body (plus the same-file helpers it reaches)
//!    against the pid-parametricity rules `S1`–`S4` ([`rules`]),
//! 2. computes an allowlist-independent **symmetry verdict** per routine
//!    ([`report::RoutineVerdict`]),
//! 3. derives a per-sample **orbit class** for the `upsilon-check` sample
//!    portfolio ([`orbits`]) and emits it as the generated
//!    `upsilon_sim::symmetry` module ([`emit::render`]); CI diffs the
//!    emitted text against the checked-in file.
//!
//! The crate is a library; `cargo run -p upsilon-analysis --bin analyze --
//! symmetry [--json | --emit]` runs the audit and prints the report or the
//! generated module.
//!
//! Everything the analyzer cannot model is treated as symmetry-breaking —
//! an unrecognized construct can cost reduction (the sample degrades to
//! the trivial orbit), never soundness. Unlike the conform/commute audits,
//! a finding here is not necessarily a bug: some protocols *intentionally*
//! break symmetry (smallest-id election, seeded-fault knobs). The
//! checked-in allowlist documents those; it silences diagnostics but never
//! restores verdicts (see [`report`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod emit;
pub mod orbits;
pub mod report;
pub mod routines;
pub mod rules;

pub use report::{Finding, OrbitKind, RoutineVerdict, RuleId, SampleOrbit, SymmetryReport};
pub use upsilon_conform::Allowlist;

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;

/// Crate directories under `crates/` whose `src/` trees are scanned for
/// routines.
///
/// The four protocol crates plus `check`: the sample constructors in
/// `crates/check/src/samples.rs` build `algo(...)` closures of their own,
/// and the orbit table is derived from exactly those constructors.
pub const SCANNED_CRATES: &[&str] = &["agreement", "check", "converge", "extract", "fd"];

/// All known rule identifiers, for allowlist validation.
pub fn known_rule_ids() -> Vec<&'static str> {
    RuleId::ALL.iter().map(|r| r.id()).collect()
}

/// Analyzes a set of already-loaded `(repo-relative path, source)` pairs.
///
/// This is the core entry point; [`scan_workspace`] reads the files of
/// [`SCANNED_CRATES`] and delegates here, and tests feed fixture sources
/// directly.
pub fn check_sources(sources: &[(String, String)], allow: &Allowlist) -> SymmetryReport {
    let mut report = SymmetryReport::default();
    let mut findings: Vec<Finding> = Vec::new();
    for (rel, src) in sources {
        report.files.push(rel.clone());
        let m = upsilon_conform::model::model_file(rel, src);
        for (line, msg) in &m.errors {
            findings.push(Finding {
                rule: RuleId::Parse,
                file: rel.clone(),
                line: *line,
                message: msg.clone(),
                suggestion: "fix the file so it can be analyzed; an unparsable file \
                             cannot be certified"
                    .to_string(),
            });
        }

        // Per-function raw findings and bodies, by name, for the same-file
        // call-graph closure. Same-name functions (methods of different
        // impls) are merged — conservative in the right direction.
        let mut fn_findings: BTreeMap<&str, Vec<Finding>> = BTreeMap::new();
        let mut fn_callees: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
        for f in &m.fns {
            if f.body.is_empty() {
                continue;
            }
            fn_findings
                .entry(f.name.as_str())
                .or_default()
                .extend(rules::scan_body(&f.body, &f.name, rel));
            let mut called = BTreeSet::new();
            routines::called_names(&f.body, &mut called);
            fn_callees
                .entry(f.name.as_str())
                .or_default()
                .extend(called);
        }

        let mut verdicts = Vec::new();
        for r in routines::routines_of(&m, rel) {
            let mut reached = rules::scan_body(&r.body, &r.name, rel);
            // Fixpoint over same-file callees: a routine inherits every
            // finding of every helper it transitively reaches by name.
            let mut frontier = BTreeSet::new();
            routines::called_names(&r.body, &mut frontier);
            let mut visited: BTreeSet<String> = BTreeSet::new();
            visited.insert(r.name.clone());
            while let Some(name) = frontier.pop_first() {
                if !visited.insert(name.clone()) {
                    continue;
                }
                if let Some(fs) = fn_findings.get(name.as_str()) {
                    reached.extend(fs.iter().cloned());
                }
                if let Some(callees) = fn_callees.get(name.as_str()) {
                    frontier.extend(callees.iter().cloned());
                }
            }
            verdicts.push(RoutineVerdict {
                file: rel.clone(),
                name: r.name,
                line: r.line,
                symmetric: reached.is_empty(),
            });
            findings.extend(reached);
        }

        if rel.ends_with("check/src/samples.rs") {
            report
                .orbits
                .extend(orbits::derive_orbits(&m, rel, &verdicts));
        }
        report.routines.extend(verdicts);
    }
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

/// Scans every non-test `.rs` file of the [`SCANNED_CRATES`] under
/// `root/crates` and audits each routine.
///
/// `tests/` and `benches/` trees are excluded, and `#[cfg(test)] mod`
/// regions inside `src/` files are excluded by the model walk itself.
///
/// # Errors
///
/// Propagates filesystem errors; a missing crate directory is an error
/// (the analyzer must not silently pass because it looked in the wrong
/// place).
pub fn scan_workspace(root: &Path, allow: &Allowlist) -> io::Result<SymmetryReport> {
    Ok(check_sources(
        &upsilon_conform::read_sources(root, SCANNED_CRATES)?,
        allow,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const HELPERS: &str = "
fn least_active(u: &ProcessSet, stamps: &[u64]) -> ProcessId {
    ProcessId(smallest(u, stamps))
}
pub async fn extraction_loop(ctx: &Ctx<ProcessSet>) -> Result<(), Crashed> {
    let u = ctx.query_fd().await?;
    let _leader = least_active(&u, &[0]);
    ctx.yield_step().await
}
";

    #[test]
    fn helper_findings_flow_into_caller_verdicts() {
        let report = check_sources(
            &[("crates/extract/src/l.rs".to_string(), HELPERS.to_string())],
            &Allowlist::empty(),
        );
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert_eq!(report.findings[0].rule, RuleId::S2);
        let v = report
            .routines
            .iter()
            .find(|v| v.name == "extraction_loop")
            .expect("routine present");
        assert!(!v.symmetric, "verdict must see the helper's S2");
    }

    #[test]
    fn allowlist_suppresses_diagnostics_but_not_verdicts() {
        let allow =
            Allowlist::parse("S2 crates/extract/src/l.rs", &known_rule_ids()).expect("valid");
        let report = check_sources(
            &[("crates/extract/src/l.rs".to_string(), HELPERS.to_string())],
            &allow,
        );
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.suppressed.len(), 1);
        let v = report
            .routines
            .iter()
            .find(|v| v.name == "extraction_loop")
            .expect("routine present");
        assert!(!v.symmetric, "allowlist must not restore the verdict");
    }

    #[test]
    fn parse_errors_become_parse_findings() {
        let report = check_sources(
            &[(
                "crates/fd/src/bad.rs".to_string(),
                "pub async fn f(ctx: &Ctx<()>) {\n".to_string(),
            )],
            &Allowlist::empty(),
        );
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert_eq!(report.findings[0].rule, RuleId::Parse);
    }
}
