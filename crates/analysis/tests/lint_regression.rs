//! End-to-end determinism regression test: seed a determinism violation
//! into a synthetic workspace and require [`scan_workspace`] to flag it,
//! exactly as CI runs `analyze conform` against the real tree.

use std::fs;
use std::path::PathBuf;
use upsilon_conform::{known_rule_ids, scan_workspace, Allowlist, RuleId, SCANNED_TREES};

/// Builds a throwaway workspace skeleton under the test target dir and
/// returns its root. Each test gets its own directory to stay independent.
fn fake_workspace(tag: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("lint-{tag}"));
    if root.exists() {
        fs::remove_dir_all(&root).expect("clean stale fixture");
    }
    for dir in SCANNED_TREES {
        fs::create_dir_all(root.join(dir)).expect("create fixture dir");
    }
    for dir in ["crates/sim/src", "crates/mem/src"] {
        fs::create_dir_all(root.join(dir)).expect("create fixture crate dir");
    }
    root
}

#[test]
fn seeded_hashmap_in_sim_fails_the_pass() {
    let root = fake_workspace("seeded-hashmap");
    fs::write(
        root.join("crates/sim/src/lib.rs"),
        "use std::collections::HashMap;\npub fn f() -> HashMap<u32, u32> { HashMap::new() }\n",
    )
    .expect("seed violation");

    let report = scan_workspace(&root, &Allowlist::empty()).expect("scan");
    assert!(
        !report.findings.is_empty(),
        "seeded HashMap must fail the pass"
    );
    assert!(report
        .findings
        .iter()
        .all(|f| f.rule == RuleId::HashCollections && f.file == "crates/sim/src/lib.rs"));
}

#[test]
fn allowlisted_violation_is_suppressed_but_counted() {
    let root = fake_workspace("allowlisted");
    fs::write(
        root.join("crates/mem/src/lib.rs"),
        "use std::time::Instant;\npub fn t() { let _ = Instant::now(); }\n",
    )
    .expect("seed violation");

    let allow = Allowlist::parse(
        "# audited: fixture exception\nwall-clock crates/mem/src/lib.rs # fixture justification\n",
        &known_rule_ids(),
    )
    .expect("parse allowlist");
    let report = scan_workspace(&root, &allow).expect("scan");
    assert!(
        report.findings.is_empty(),
        "allowlisted finding must not fail"
    );
    let lines: Vec<u32> = report.suppressed.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![1, 2], "the import and the Instant::now use");
}

#[test]
fn clean_fixture_tree_passes() {
    let root = fake_workspace("clean");
    fs::write(
        root.join("crates/sim/src/lib.rs"),
        "use std::collections::BTreeMap;\npub fn f() -> BTreeMap<u32, u32> { BTreeMap::new() }\n",
    )
    .expect("write clean file");
    let report = scan_workspace(&root, &Allowlist::empty()).expect("scan");
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.files.len(), 1);
}

/// The real repository must be clean with the checked-in allowlist — the
/// same invariant CI enforces via `analyze conform`.
#[test]
fn real_tree_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let allow = Allowlist::load(
        &root.join("crates/analysis/conform-allowlist.txt"),
        &known_rule_ids(),
    )
    .expect("checked-in allowlist parses");
    let report = scan_workspace(&root, &allow).expect("scan real tree");
    assert!(
        report.findings.is_empty(),
        "analyzer findings:\n{}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
