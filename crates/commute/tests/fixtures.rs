//! Negative golden tests: every fixture in `crates/commute/fixtures` must
//! trip its intended audit rule — and *only* that rule. An analyzer that
//! stays silent on these files proves nothing about the clean workspace
//! scan.
//!
//! Also the positive gates: the real workspace scan is clean, and the
//! emitter's output is byte-identical to the checked-in
//! `crates/sim/src/commute.rs`.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use upsilon_commute::{check_sources, emit, scan_workspace, Allowlist, CommuteReport, RuleId};

/// Loads one fixture file under the repo-relative path the scanner would
/// report for it, and checks it in isolation.
fn check_fixture(file: &str) -> CommuteReport {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures/src")
        .join(file);
    let src = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()));
    let rel = format!("crates/commute/fixtures/src/{file}");
    check_sources(&[(rel, src)], &Allowlist::empty())
}

/// Asserts the report contains at least `min` findings, all of rule
/// `expected` and none of any other rule.
fn assert_trips_only(report: &CommuteReport, expected: RuleId, min: usize) {
    assert!(
        report.findings.len() >= min,
        "expected at least {min} {expected:?} findings, got {:?}",
        report.findings
    );
    let rules: BTreeSet<&str> = report.findings.iter().map(|f| f.rule.id()).collect();
    assert_eq!(
        rules,
        BTreeSet::from([expected.id()]),
        "fixture must trip only {expected:?}: {:?}",
        report.findings
    );
    assert!(report.suppressed.is_empty(), "nothing may be allowlisted");
}

#[test]
fn m1_fixture_trips_only_m1() {
    let report = check_fixture("m1_read_writes.rs");
    assert_trips_only(&report, RuleId::M1, 1);
    assert!(
        report.findings[0].message.contains("Probe"),
        "the mis-classified variant must be named: {:?}",
        report.findings
    );
}

#[test]
fn m2_fixture_trips_only_m2() {
    let report = check_fixture("m2_write_escapes.rs");
    assert_trips_only(&report, RuleId::M2, 1);
    assert!(
        report.findings[0]
            .message
            .contains("response depends on prior state"),
        "the violation reason must be stated: {:?}",
        report.findings
    );
}

#[test]
fn m3_fixture_trips_only_m3() {
    let report = check_fixture("m3_unknown_claim.rs");
    assert_trips_only(&report, RuleId::M3, 1);
}

#[test]
fn m4_fixture_trips_only_m4() {
    let report = check_fixture("m4_arm_mismatch.rs");
    assert_trips_only(&report, RuleId::M4, 1);
    assert!(
        report.findings[0].message.contains("Vent"),
        "the unauditable variant must be named: {:?}",
        report.findings
    );
}

#[test]
fn fixtures_are_disjoint_per_rule() {
    let files = [
        "m1_read_writes.rs",
        "m2_write_escapes.rs",
        "m3_unknown_claim.rs",
        "m4_arm_mismatch.rs",
    ];
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|f| {
            let src = fs::read_to_string(manifest.join("fixtures/src").join(f)).expect("fixture");
            (format!("crates/commute/fixtures/src/{f}"), src)
        })
        .collect();
    let report = check_sources(&sources, &Allowlist::empty());
    for (file, rule) in files
        .iter()
        .zip([RuleId::M1, RuleId::M2, RuleId::M3, RuleId::M4])
    {
        let per_file: BTreeSet<&str> = report
            .findings
            .iter()
            .filter(|f| f.file.ends_with(file))
            .map(|f| f.rule.id())
            .collect();
        assert_eq!(
            per_file,
            BTreeSet::from([rule.id()]),
            "{file} must trip only {rule:?}"
        );
    }
}

/// Workspace root, from the crate manifest dir (`crates/commute`).
fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

#[test]
fn workspace_scan_is_clean() {
    let report = scan_workspace(&workspace_root(), &Allowlist::empty()).expect("scan");
    assert!(
        report.findings.is_empty(),
        "the shared objects in crates/mem must audit clean: {:?}",
        report.findings
    );
    assert!(
        report.impls.len() >= 3,
        "all ObjectType impls must be analyzed (register, snapshot, consensus): {}",
        report.impls.len()
    );
}

#[test]
fn emitted_matrix_matches_checked_in_file() {
    let root = workspace_root();
    let report = scan_workspace(&root, &Allowlist::empty()).expect("scan");
    assert!(report.is_clean(), "cannot emit from a failing audit");
    let emitted = emit::render(&report.impls);
    let checked_in = fs::read_to_string(root.join("crates/sim/src/commute.rs"))
        .expect("checked-in generated file");
    assert_eq!(
        emitted, checked_in,
        "crates/sim/src/commute.rs has drifted from the analyzer's output; \
         regenerate with `cargo run -p upsilon-analysis --bin analyze -- commute --emit > crates/sim/src/commute.rs`"
    );
}
