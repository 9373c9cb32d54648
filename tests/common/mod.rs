//! Golden-file comparison shared by the snapshot tests.
//!
//! To regenerate every golden file after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// Compares `actual` against `tests/golden/<name>`, or rewrites the file
/// when `UPDATE_GOLDEN` is set. A mismatch names every differing line.
pub fn assert_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); run with UPDATE_GOLDEN=1"));
    if actual == expected {
        return;
    }
    let mut drift = String::new();
    for (i, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        if want != got {
            let _ = write!(
                drift,
                "\nline {}:\n  golden: {want}\n  actual: {got}",
                i + 1
            );
        }
    }
    panic!(
        "{name} drifted ({} golden lines, {} actual); if intentional, regenerate with \
         UPDATE_GOLDEN=1{drift}",
        expected.lines().count(),
        actual.lines().count(),
    );
}
