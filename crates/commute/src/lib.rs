//! `upsilon-commute`: static commutativity analysis of the shared-object
//! implementations, and the DPOR-soundness audit of their `access()`
//! classifications.
//!
//! The sleep-set explorer in `upsilon-check` prunes schedules using a
//! conflict relation over shared-object operations. That relation has two
//! static sources, and both are *claims about `invoke()` bodies*:
//!
//! * the hand-written `access()` method of each
//!   [`ObjectType`](../upsilon_sim/trait.ObjectType.html) impl (the coarse
//!   3-value `Access` lattice), and
//! * the generated per-op-pair commutativity matrix
//!   (`crates/sim/src/commute.rs`), which refines the lattice by *removing*
//!   conflicts for pairs that provably commute in every state.
//!
//! This crate derives both claims from the `invoke()` source itself. It
//! reuses the `upsilon-conform` front end (lexer + bracket tree), extracts
//! every `impl ObjectType for T` in the scanned crates, computes a
//! conservative per-variant state footprint ([`effects::Footprint`]), and
//! then:
//!
//! 1. **audits** each `access()` arm against the footprint (rules
//!    `M1`–`M4`; an unjustifiable classification is a soundness hole in
//!    every DPOR run), and
//! 2. **derives** the pair matrix ([`audit::derive`]) and emits it as the
//!    generated `upsilon_sim::commute` module ([`emit::render`]); CI diffs
//!    the emitted text against the checked-in file.
//!
//! The crate is a library; `cargo run -p upsilon-analysis --bin analyze --
//! commute [--json | --emit]` runs the audit and prints the report or the
//! generated module.
//!
//! Everything the analyzer cannot model is treated as conflicting — an
//! unrecognized construct can cost reduction, never soundness. The matrix's
//! own soundness rests additionally on faithful `Debug` renderings of op
//! values (see `upsilon_sim::opsig`), which the dynamic reorder cross-check
//! in `tests/reorder.rs` exercises end to end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
pub mod effects;
pub mod emit;
pub mod model;
pub mod report;

pub use audit::{derive, DerivedImpl, Verdict};
pub use report::{CommuteReport, Finding, RuleId};
pub use upsilon_conform::Allowlist;

use std::io;
use std::path::Path;

/// Crate directories under `crates/` whose `src/` trees are scanned for
/// `ObjectType` implementations.
///
/// Only `mem` today: it holds every shared object the protocol crates use.
/// Object types defined elsewhere (test doubles, doc examples) simply have
/// no matrix entry and fall back to the `Access` lattice — a sound default,
/// not a gap.
pub const SCANNED_CRATES: &[&str] = &["mem"];

/// All known rule identifiers, for allowlist validation.
pub fn known_rule_ids() -> Vec<&'static str> {
    RuleId::ALL.iter().map(|r| r.id()).collect()
}

/// Analyzes a set of already-loaded `(repo-relative path, source)` pairs.
///
/// This is the core entry point; [`scan_workspace`] reads the files of
/// [`SCANNED_CRATES`] and delegates here, and tests feed fixture sources
/// directly.
pub fn check_sources(sources: &[(String, String)], allow: &Allowlist) -> CommuteReport {
    let mut report = CommuteReport::default();
    let mut findings: Vec<Finding> = Vec::new();
    for (rel, src) in sources {
        report.files.push(rel.clone());
        let m = model::model_file(rel, src);
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
        for object in m.impls {
            audit::audit(&object, &mut findings);
            report.impls.push(audit::derive(object));
        }
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
/// `root/crates` and audits each `ObjectType` impl.
///
/// `tests/` and `benches/` trees are excluded, and `#[cfg(test)] mod`
/// regions inside `src/` files are excluded by the model walk itself.
///
/// # Errors
///
/// Propagates filesystem errors; a missing crate directory is an error
/// (the analyzer must not silently pass because it looked in the wrong
/// place).
pub fn scan_workspace(root: &Path, allow: &Allowlist) -> io::Result<CommuteReport> {
    Ok(check_sources(
        &upsilon_conform::read_sources(root, SCANNED_CRATES)?,
        allow,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const REGISTER: &str = r#"
impl<T: Value> ObjectType for RegisterObject<T> {
    type Op = RegOp<T>;
    type Resp = RegResp<T>;

    fn invoke(&mut self, _caller: ProcessId, op: RegOp<T>) -> RegResp<T> {
        match op {
            RegOp::Read => RegResp::Value(self.value.clone()),
            RegOp::Write(v) => {
                self.value = v;
                RegResp::Ack
            }
        }
    }

    fn access(op: &RegOp<T>) -> Access {
        match op {
            RegOp::Read => Access::Read,
            RegOp::Write(_) => Access::Write(0),
        }
    }
}
"#;

    #[test]
    fn register_impl_is_clean_and_derives_the_expected_matrix() {
        let report = check_sources(
            &[(
                "crates/mem/src/register.rs".to_string(),
                REGISTER.to_string(),
            )],
            &Allowlist::empty(),
        );
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.impls.len(), 1);
        let pairs = &report.impls[0].pairs;
        let get = |a: &str, b: &str| {
            pairs
                .iter()
                .find(|(x, y, _)| x == a && y == b)
                .map(|(_, _, v)| *v)
                .expect("pair present")
        };
        assert_eq!(get("Read", "Read"), Verdict::Commute);
        assert_eq!(get("Read", "Write"), Verdict::Conflict);
        assert_eq!(get("Write", "Read"), Verdict::Conflict);
        assert_eq!(
            get("Write", "Write"),
            Verdict::CommuteIf {
                distinct_cell: false,
                equal_args: true
            }
        );
    }

    #[test]
    fn allowlist_moves_findings_to_suppressed() {
        let bad = REGISTER.replace("Access::Write(0)", "Access::Read");
        let allow =
            Allowlist::parse("M1 crates/mem/src/register.rs", &known_rule_ids()).expect("valid");
        let report = check_sources(&[("crates/mem/src/register.rs".to_string(), bad)], &allow);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.suppressed.len(), 1);
        assert_eq!(report.suppressed[0].rule, RuleId::M1);
    }

    #[test]
    fn parse_errors_become_parse_findings() {
        let report = check_sources(
            &[(
                "crates/mem/src/bad.rs".to_string(),
                "impl ObjectType for X {\n".to_string(),
            )],
            &Allowlist::empty(),
        );
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert_eq!(report.findings[0].rule, RuleId::Parse);
    }
}
