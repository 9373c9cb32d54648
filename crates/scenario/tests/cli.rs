//! The `upsilon-scenario` binary writes through a fallible sink: a closed
//! stdout ends the run with exit code 1 and a message, never a panic. A
//! removed flag or an unknown experiment id is a bad command line (exit
//! 2), a scenario file with an unresolvable cell or a name other than its
//! file stem fails `validate`, and a sharded campaign waits for every shard
//! and names each one that failed.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_is_an_error_not_a_panic() {
    for args in [
        &["validate"][..],
        &["--help"],
        &["check", "fig1", "n_plus_1=2", "depth=3"],
        &["swarm", "run", "instances=8", "--workers", "1"],
    ] {
        // The read end is gone before the child starts, so its first
        // write to stdout fails, whatever the timing.
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_upsilon-scenario"))
            .args(args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_ne!(out.status.code(), Some(101), "{args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("writing output"), "{args:?}: {stderr}");
    }
}

#[test]
fn removed_flags_are_usage_errors() {
    let out = Command::new(env!("CARGO_BIN_EXE_upsilon-scenario"))
        .args(["check", "fig1", "n_plus_1=2", "depth=3", "--no-turbo"])
        .output()
        .expect("spawns");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag \"--no-turbo\""), "{stderr}");
}

/// `validate` resolves every cell, so a file that parses but names an
/// out-of-range axis value fails, and the failure names the file.
#[test]
fn validate_fails_on_an_out_of_range_axis_and_names_the_file() {
    let dir = std::env::temp_dir().join(format!("upsilon-cli-validate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("bad-range.toml");
    std::fs::write(
        &file,
        "name = \"bad-range\"\nkind = \"check\"\nprotocol = \"fig1\"\n\n\
         [params]\nn_plus_1 = [3, 1]\ndepth = 6\n",
    )
    .expect("scenario file");
    let out = Command::new(env!("CARGO_BIN_EXE_upsilon-scenario"))
        .arg("validate")
        .arg(&file)
        .output()
        .expect("spawns");
    std::fs::remove_dir_all(&dir).expect("clean up");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let fail = stderr
        .lines()
        .find(|l| l.starts_with("FAIL:"))
        .unwrap_or_else(|| panic!("no failure line: {stderr}"));
    assert!(
        fail.contains(&file.display().to_string()) && fail.contains("n_plus_1=1"),
        "{fail}"
    );
    assert!(out.stdout.is_empty(), "no file validated");
}

/// Runs `upsilon-scenario <sub> renamed.toml` on a copy of
/// `scenarios/fig1.toml` (whose `name` is `fig1`), and returns the exit
/// code and stderr.
fn on_a_renamed_fig1(sub: &str) -> (Option<i32>, String) {
    let dir = std::env::temp_dir().join(format!("upsilon-cli-{sub}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("renamed.toml");
    let fig1 = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/fig1.toml");
    std::fs::copy(&fig1, &file).expect("copy of fig1.toml");
    let out = Command::new(env!("CARGO_BIN_EXE_upsilon-scenario"))
        .arg(sub)
        .arg(&file)
        .output()
        .expect("spawns");
    std::fs::remove_dir_all(&dir).expect("clean up");
    assert!(
        out.stdout.is_empty(),
        "{sub}: nothing may be validated or run"
    );
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A scenario's `name` must match its file stem, for an explicit path as
/// for the checked-in registry.
#[test]
fn a_file_whose_name_is_not_its_stem_fails_validate_and_run() {
    for sub in ["validate", "run"] {
        let (code, stderr) = on_a_renamed_fig1(sub);
        assert_eq!(code, Some(1), "{sub}: {stderr}");
        assert!(
            stderr
                .contains("renamed.toml: scenario name `fig1` does not match file stem `renamed`"),
            "{sub}: {stderr}"
        );
    }
}

#[test]
fn experiments_print_the_named_tables_and_reject_unknown_ids() {
    let run = |id: &str| {
        Command::new(env!("CARGO_BIN_EXE_upsilon-scenario"))
            .args(["experiments", id])
            .output()
            .expect("spawns")
    };
    let out = run("E13");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("\n## E13 — "), "{stdout}");
    assert!(!stdout.contains("## E12"), "{stdout}");

    let out = run("E99");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("E1 E2") && stderr.contains("E16"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "no table runs");
}

#[test]
fn a_campaign_names_every_failed_shard() {
    // The store lies under a regular file, so neither shard can save its
    // record.
    let dir = std::env::temp_dir().join(format!("upsilon-cli-shards-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("not-a-dir");
    std::fs::write(&file, "").expect("regular file");
    let out = Command::new(env!("CARGO_BIN_EXE_upsilon-scenario"))
        .args(["swarm", "campaign", "mix=echo:1", "instances=4"])
        .args(["--shards", "2", "--workers", "1", "--store"])
        .arg(file.join("store"))
        .output()
        .expect("spawns");
    std::fs::remove_dir_all(&dir).expect("clean up");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let fail = stderr
        .lines()
        .find(|l| l.starts_with("FAIL: swarm campaign:"))
        .unwrap_or_else(|| panic!("no campaign failure line: {stderr}"));
    assert!(
        fail.contains("shard 0 failed") && fail.contains("shard 1 failed"),
        "{fail}"
    );
}
