//! Contract of the `analyze` binary: exit status 0 when a pass is clean,
//! 1 on findings, 2 on usage or I/O errors; `commute --emit` prints exactly
//! the checked-in generated module and prints nothing from a failing audit.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

fn analyze(root: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_analyze"))
        .args(args)
        .arg("--root")
        .arg(root)
        .output()
        .expect("spawn analyze")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("analyze exits with a status")
}

/// A fresh directory under the test target dir.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{tag}"));
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clean stale fixture");
    }
    fs::create_dir_all(&dir).expect("create fixture dir");
    dir
}

#[test]
fn every_static_pass_is_clean_on_the_workspace() {
    let root = workspace_root();
    for mode in ["lint", "conform", "commute"] {
        let out = analyze(&root, &[mode]);
        assert_eq!(
            code(&out),
            0,
            "analyze {mode}: {}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn emit_prints_the_checked_in_generated_modules() {
    let root = workspace_root();
    let out = analyze(&root, &["commute", "--emit"]);
    assert_eq!(code(&out), 0, "analyze commute --emit");
    let checked_in =
        fs::read_to_string(root.join("crates/sim/src/commute.rs")).expect("checked-in module");
    assert!(
        out.stdout == checked_in.as_bytes(),
        "analyze commute --emit drifted from crates/sim/src/commute.rs"
    );
}

/// A misclassified `ObjectType` (an M1 fixture: a `Read` claim on an op
/// that writes) fails the commute audit, so `--emit` must refuse and leave
/// stdout empty.
#[test]
fn emit_refuses_a_failing_audit() {
    let repo = workspace_root();
    let root = temp_dir("emit-commute");
    fs::create_dir_all(root.join("crates/mem/src")).expect("crate dir");
    fs::copy(
        repo.join("crates/commute/fixtures/src/m1_read_writes.rs"),
        root.join("crates/mem/src/m1_read_writes.rs"),
    )
    .expect("copy fixture");

    let out = analyze(&root, &["commute", "--emit"]);
    assert_eq!(code(&out), 1, "analyze commute --emit over a failing audit");
    assert!(out.stdout.is_empty(), "nothing may be emitted");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("refusing to emit"), "{stderr}");
}

#[test]
fn malformed_allowlist_is_a_usage_error() {
    let dir = temp_dir("bad-allowlist");
    let root = workspace_root();
    for (mode, text) in [
        (
            "lint",
            "wall-clock crates/check/src/main.rs unmarked justification\n",
        ),
        ("conform", "C9 crates/mem/src/lib.rs\n"),
        ("commute", "M1\n"),
    ] {
        let path = dir.join(format!("{mode}.txt"));
        fs::write(&path, text).expect("write allowlist");
        let out = analyze(
            &root,
            &[mode, "--allowlist", path.to_str().expect("utf-8 path")],
        );
        assert_eq!(code(&out), 2, "analyze {mode} with allowlist {text:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("bad allowlist"), "{stderr}");
    }
}

#[test]
fn unknown_modes_and_misplaced_emit_are_usage_errors() {
    let root = workspace_root();
    for args in [
        &["bogus"][..],
        &["symmetry"],
        &["lint", "--emit"],
        &["conform", "--emit"],
        &["scenario", "--emit"],
        &["commute", "--bogus"],
    ] {
        let out = analyze(&root, args);
        assert_eq!(code(&out), 2, "analyze {args:?}");
        assert!(out.stdout.is_empty(), "analyze {args:?} printed to stdout");
    }
}
