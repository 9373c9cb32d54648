//! Negative golden tests: every fixture in `crates/symmetry/fixtures` must
//! trip its intended pid-parametricity rule — and *only* that rule. An
//! analyzer that stays silent on these files proves nothing about the
//! workspace audit.
//!
//! Also the positive gates: the real workspace scan is quiet under the
//! checked-in allowlist (unlike conform/commute, symmetry runs its clean
//! gate *with* the allowlist — intentional symmetry breaks are part of the
//! portfolio, and the allowlist never weakens a verdict), and the
//! emitter's output is byte-identical to the checked-in
//! `crates/sim/src/symmetry.rs` orbit table.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use upsilon_symmetry::{
    check_sources, emit, known_rule_ids, scan_workspace, Allowlist, RuleId, SymmetryReport,
};

/// Loads one fixture file under the repo-relative path the scanner would
/// report for it, and checks it in isolation with an empty allowlist.
fn check_fixture(file: &str) -> SymmetryReport {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures/src")
        .join(file);
    let src = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()));
    let rel = format!("crates/symmetry/fixtures/src/{file}");
    check_sources(&[(rel, src)], &Allowlist::empty())
}

/// Asserts the report contains at least `min` findings, all of rule
/// `expected` and none of any other rule — and that the fixture's routine
/// verdict is asymmetric.
fn assert_trips_only(report: &SymmetryReport, expected: RuleId, min: usize) {
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
    assert!(
        report.routines.iter().any(|v| !v.symmetric),
        "a tripped fixture must also flip its routine verdict: {:?}",
        report.routines
    );
}

#[test]
fn s1_fixture_trips_only_s1() {
    let report = check_fixture("s1_concrete_pid.rs");
    assert_trips_only(&report, RuleId::S1, 1);
    assert!(
        report.findings[0].message.contains("zero_takes_extra_step"),
        "the offending routine must be named: {:?}",
        report.findings
    );
}

#[test]
fn s2_fixture_trips_only_s2() {
    let report = check_fixture("s2_role_split.rs");
    assert_trips_only(&report, RuleId::S2, 1);
    assert!(
        report.findings[0].message.contains("defer_to_smaller_ids"),
        "the offending routine must be named: {:?}",
        report.findings
    );
}

#[test]
fn s3_fixture_trips_only_s3() {
    let report = check_fixture("s3_pid_keyed_object.rs");
    assert_trips_only(&report, RuleId::S3, 1);
}

#[test]
fn s4_fixture_trips_only_s4() {
    let report = check_fixture("s4_pid_valued_data.rs");
    assert_trips_only(&report, RuleId::S4, 1);
}

#[test]
fn fixtures_are_disjoint_per_rule() {
    let files = [
        "s1_concrete_pid.rs",
        "s2_role_split.rs",
        "s3_pid_keyed_object.rs",
        "s4_pid_valued_data.rs",
    ];
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|f| {
            let src = fs::read_to_string(manifest.join("fixtures/src").join(f)).expect("fixture");
            (format!("crates/symmetry/fixtures/src/{f}"), src)
        })
        .collect();
    let report = check_sources(&sources, &Allowlist::empty());
    for (file, rule) in files
        .iter()
        .zip([RuleId::S1, RuleId::S2, RuleId::S3, RuleId::S4])
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

/// Workspace root, from the crate manifest dir (`crates/symmetry`).
fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

fn checked_in_allowlist(root: &Path) -> Allowlist {
    Allowlist::load(
        &root.join("crates/analysis/symmetry-allowlist.txt"),
        &known_rule_ids(),
    )
    .expect("allowlist")
}

#[test]
fn workspace_scan_is_quiet_under_checked_in_allowlist() {
    let root = workspace_root();
    let allow = checked_in_allowlist(&root);
    let report = scan_workspace(&root, &allow).expect("scan");
    assert!(
        report.findings.is_empty(),
        "every intentional symmetry break must carry an allowlist entry: {:?}",
        report.findings
    );
    assert!(
        !report.suppressed.is_empty(),
        "the portfolio's seeded-bug samples are known symmetry breaks; an \
         empty suppression set means the allowlist or the scanner regressed"
    );
    assert!(
        report.routines.len() >= 20,
        "all protocol routines must be analyzed: {}",
        report.routines.len()
    );
    assert!(
        report.orbits.len() >= 8,
        "every sample constructor must receive an orbit: {:?}",
        report.orbits
    );
    // The whole point: at least one sample must be certified non-trivial,
    // or the reduction is dead code.
    assert!(
        report
            .orbits
            .iter()
            .any(|o| o.orbit != upsilon_symmetry::OrbitKind::Trivial),
        "no sample earned a non-trivial orbit: {:?}",
        report.orbits
    );
}

#[test]
fn emitted_orbit_table_matches_checked_in_file() {
    let root = workspace_root();
    let allow = checked_in_allowlist(&root);
    let report = scan_workspace(&root, &allow).expect("scan");
    assert!(
        report.findings.is_empty(),
        "cannot emit from a failing audit"
    );
    let emitted = emit::render(&report.orbits);
    let checked_in = fs::read_to_string(root.join("crates/sim/src/symmetry.rs"))
        .expect("checked-in generated file");
    assert_eq!(
        emitted, checked_in,
        "crates/sim/src/symmetry.rs has drifted from the analyzer's output; \
         regenerate with `cargo run -p upsilon-analysis --bin analyze -- symmetry --emit > crates/sim/src/symmetry.rs`"
    );
}

/// The generated table and the live analyzer must agree sample by sample —
/// the drift gate above pins bytes; this pins semantics through the real
/// `upsilon_sim::symmetry::sample_orbit` entry point the explorer calls.
#[test]
fn generated_sample_orbit_agrees_with_analysis() {
    let root = workspace_root();
    let allow = checked_in_allowlist(&root);
    let report = scan_workspace(&root, &allow).expect("scan");
    for orbit in &report.orbits {
        let live = upsilon_sim::symmetry::sample_orbit(&orbit.sample);
        assert_eq!(
            format!("{live:?}"),
            orbit.orbit.variant(),
            "sample {}: generated table disagrees with the analysis",
            orbit.sample
        );
    }
}
