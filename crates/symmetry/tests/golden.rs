//! Golden snapshot of the workspace symmetry audit: the `--json` report
//! over the real protocol crates is byte-stable across refactors, pinning
//! every routine verdict and every derived orbit. Regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p upsilon-symmetry --test golden
//! ```

use std::path::PathBuf;
use upsilon_symmetry::{known_rule_ids, scan_workspace, Allowlist};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

#[test]
fn workspace_report_is_golden() {
    let root = workspace_root();
    let allow = Allowlist::load(
        &root.join("crates/analysis/symmetry-allowlist.txt"),
        &known_rule_ids(),
    )
    .expect("allowlist");
    let report = scan_workspace(&root, &allow).expect("scan");
    let got = report.to_json();

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("workspace.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (run with UPDATE_GOLDEN=1 to create)",
            path.display()
        )
    });
    assert_eq!(
        got,
        want,
        "symmetry report drifted from {} (UPDATE_GOLDEN=1 regenerates; \
         remember to re-emit crates/sim/src/symmetry.rs if orbits changed)",
        path.display()
    );
}
