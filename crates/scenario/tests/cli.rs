//! The `upsilon-scenario` binary writes through a fallible sink: a closed
//! stdout ends the run with exit code 1 and a message, never a panic.

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
