//! The one rule/path allowlist, shared by all four static passes: the
//! conformance checker, the commutativity and symmetry analyzers, and the
//! determinism lint in `upsilon-analysis`.
//!
//! Format: one `<rule-id> <path>` pair per line; `#` starts a comment.
//! Paths are repository-relative and matched exactly.

use std::fs;
use std::io;
use std::path::Path;

/// A parsed allowlist.
#[derive(Clone, Default, Debug)]
pub struct Allowlist {
    entries: Vec<(String, String)>,
}

impl Allowlist {
    /// An empty allowlist (suppresses nothing).
    pub fn empty() -> Allowlist {
        Allowlist::default()
    }

    /// Parses allowlist text, validating rule ids against `known`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed or unknown-rule line.
    pub fn parse(text: &str, known: &[&str]) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let n = idx + 1;
            let mut parts = line.split_whitespace();
            let (Some(rule_id), Some(path), None) = (parts.next(), parts.next(), parts.next())
            else {
                return Err(format!("allowlist line {n}: expected '<rule-id> <path>'"));
            };
            if !known.contains(&rule_id) {
                return Err(format!(
                    "allowlist line {n}: unknown rule '{rule_id}' (known: {})",
                    known.join(", ")
                ));
            }
            entries.push((rule_id.to_string(), path.to_string()));
        }
        Ok(Allowlist { entries })
    }

    /// Loads and parses an allowlist file, validating rule ids against
    /// `known`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; malformed entries surface as
    /// [`io::ErrorKind::InvalidData`].
    pub fn load(path: &Path, known: &[&str]) -> io::Result<Allowlist> {
        let text = fs::read_to_string(path)?;
        Allowlist::parse(&text, known).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Whether `(rule_id, file)` is suppressed.
    pub fn permits(&self, rule_id: &str, file: &str) -> bool {
        self.entries.iter().any(|(r, p)| r == rule_id && p == file)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the allowlist has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KNOWN: &[&str] = &["C1", "C2", "wall-clock"];

    #[test]
    fn parses_entries_and_comments() {
        let a = Allowlist::parse(
            "# header\nC1 crates/a/src/x.rs\nwall-clock crates/b/src/main.rs # timing\n",
            KNOWN,
        )
        .expect("valid");
        assert_eq!(a.len(), 2);
        assert!(a.permits("C1", "crates/a/src/x.rs"));
        assert!(a.permits("wall-clock", "crates/b/src/main.rs"));
        assert!(!a.permits("C2", "crates/a/src/x.rs"));
        assert!(!a.permits("C1", "crates/a/src/y.rs"));
    }

    #[test]
    fn rejects_unknown_rules_and_bad_shapes() {
        let err = Allowlist::parse("C9 path.rs", KNOWN).expect_err("unknown rule");
        assert!(err.contains("unknown rule 'C9'"), "{err}");
        assert!(err.contains("known: C1, C2, wall-clock"), "{err}");
        let err = Allowlist::parse("C1", KNOWN).expect_err("missing path");
        assert!(err.contains("expected '<rule-id> <path>'"), "{err}");
        let err = Allowlist::parse("C1 a.rs extra", KNOWN).expect_err("extra field");
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn empty_is_empty() {
        assert!(Allowlist::empty().is_empty());
        assert_eq!(Allowlist::empty().len(), 0);
    }
}
