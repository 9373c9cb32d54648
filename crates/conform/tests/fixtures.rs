//! Negative golden tests: every fixture in `crates/conform/fixtures` must
//! trip its intended rule — and *only* that rule. A checker that stays
//! silent on these files proves nothing about the clean workspace scan.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use upsilon_conform::{check_sources, Allowlist, ConformReport, RuleId};

/// Loads one fixture file under the repo-relative path the scanner would
/// report for it, and checks it in isolation.
fn check_fixture(file: &str) -> ConformReport {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures/src")
        .join(file);
    let src = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()));
    let rel = format!("crates/conform/fixtures/src/{file}");
    check_sources(&[(rel, src)], &[], &Allowlist::empty())
}

/// Asserts the report contains at least `min` findings, of exactly the
/// rules `expected`.
fn assert_trips_only(report: &ConformReport, expected: &[RuleId], min: usize) {
    assert!(
        report.findings.len() >= min,
        "expected at least {min} {expected:?} findings, got {:?}",
        report.findings
    );
    let rules: BTreeSet<RuleId> = report.findings.iter().map(|f| f.rule).collect();
    assert_eq!(
        rules,
        BTreeSet::from_iter(expected.iter().copied()),
        "fixture must trip only {expected:?}: {:?}",
        report.findings
    );
    assert!(report.suppressed.is_empty(), "nothing may be allowlisted");
}

#[test]
fn c2_fixture_trips_only_c2() {
    let report = check_fixture("c2_banned_api.rs");
    // std::thread and sleep in one algorithm body are C2; the clock read
    // there is a wall-clock finding, as it is in any file.
    assert_trips_only(&report, &[RuleId::C2, RuleId::WallClock], 3);
    let clock = report
        .findings
        .iter()
        .find(|f| f.rule == RuleId::WallClock)
        .expect("a wall-clock finding");
    assert!(
        clock.message.contains("Instant"),
        "wall clock must be named: {clock:?}"
    );
}

#[test]
fn c4_fixture_trips_only_c4() {
    let report = check_fixture("c4_unbounded_helping.rs");
    assert_trips_only(&report, &[RuleId::C4], 1);
    // The unbounded routine must still get a (boundless) report row.
    let row = report
        .bound_for("c4_unbounded_helping.rs", "helping_wait")
        .expect("bound row for the claimed routine");
    assert!(row.wait_free, "the fixture claims wait-freedom");
    assert!(row.bound.is_none(), "no bound may be derived: {row:?}");
}

#[test]
fn fixtures_are_disjoint_per_rule() {
    // The whole fixture set, checked together, yields exactly the union of
    // the per-file rule sets — no cross-file interference.
    let files = ["c2_banned_api.rs", "c4_unbounded_helping.rs"];
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|f| {
            let src = fs::read_to_string(manifest.join("fixtures/src").join(f)).expect("fixture");
            (format!("crates/conform/fixtures/src/{f}"), src)
        })
        .collect();
    let report = check_sources(&sources, &[], &Allowlist::empty());
    let expected: [&[RuleId]; 2] = [&[RuleId::C2, RuleId::WallClock], &[RuleId::C4]];
    for (file, rules) in files.iter().zip(expected) {
        let per_file: BTreeSet<RuleId> = report
            .findings
            .iter()
            .filter(|f| f.file.ends_with(file))
            .map(|f| f.rule)
            .collect();
        assert_eq!(
            per_file,
            BTreeSet::from_iter(rules.iter().copied()),
            "{file} must trip only {rules:?}"
        );
    }
}
