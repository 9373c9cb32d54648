//! Golden JSON-diagnostic snapshots for the static analyzers.
//!
//! The JSON renderings of `upsilon-conform` (the model and determinism
//! rules) and `upsilon-commute` are consumed by CI and by external
//! tooling; their shape and ordering must not drift silently. Each test
//! renders a report over *fixed* inputs (the deliberately nonconforming /
//! mis-classified fixture crates, and a synthetic simulator source) and
//! compares it byte-for-byte against a checked-in golden file.
//!
//! To regenerate after an intentional format change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test conform_golden
//! ```

mod common;

use common::assert_golden;
use std::fs;
use std::path::PathBuf;
use upsilon_conform::{check_sources, known_rule_ids, Allowlist};

#[test]
fn conform_fixture_report_matches_golden_json() {
    let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates/conform/fixtures/src");
    let mut sources: Vec<(String, String)> = ["c2_banned_api.rs", "c4_unbounded_helping.rs"]
        .iter()
        .map(|f| {
            let src = fs::read_to_string(fixtures.join(f)).expect("fixture readable");
            (format!("crates/conform/fixtures/src/{f}"), src)
        })
        .collect();
    sources.sort();
    let report = check_sources(&sources, &[], &Allowlist::empty());
    assert_golden("conform_fixtures.json", &report.to_json());
}

#[test]
fn commute_fixture_report_matches_golden_json() {
    let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates/commute/fixtures/src");
    let mut sources: Vec<(String, String)> = [
        "m1_read_writes.rs",
        "m2_write_escapes.rs",
        "m3_unknown_claim.rs",
        "m4_arm_mismatch.rs",
    ]
    .iter()
    .map(|f| {
        let src = fs::read_to_string(fixtures.join(f)).expect("fixture readable");
        (format!("crates/commute/fixtures/src/{f}"), src)
    })
    .collect();
    sources.sort();
    let report = upsilon_commute::check_sources(&sources, &upsilon_commute::Allowlist::empty());
    assert_golden("commute_fixtures.json", &report.to_json());
}

#[test]
fn lint_report_matches_golden_json() {
    // A synthetic source hitting several determinism rules at fixed lines;
    // one is suppressed through an allowlist entry so both report sections
    // are pinned.
    let src = "\
use std::collections::HashMap;
use std::time::Instant;

fn noise() -> u64 {
    let m: HashMap<u32, u32> = HashMap::new();
    let t = Instant::now();
    m.len() as u64 + t.elapsed().as_secs()
}

fn risky(v: Option<u32>) -> u32 {
    v.unwrap()
}
";
    // The simulator-crate path puts the source in bare-unwrap's scope, so
    // the allowlisted suppression is exercised too.
    let allow = Allowlist::parse(
        "bare-unwrap crates/sim/src/demo.rs # pinned suppression",
        &known_rule_ids(),
    )
    .expect("valid allowlist");
    let sources = [("crates/sim/src/demo.rs".to_string(), src.to_string())];
    let report = check_sources(&[], &sources, &allow);
    assert!(
        !report.findings.is_empty(),
        "the synthetic source must trip rules"
    );
    assert_golden("lint_demo.json", &report.to_json());
}
