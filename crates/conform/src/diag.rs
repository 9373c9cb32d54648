//! Diagnostics: rule identifiers, findings, and the machine-readable
//! report.
//!
//! The JSON emitter is hand-rolled (the analyzer is dependency-free) and
//! deterministic: findings are sorted by `(file, line, rule)`, bound rows
//! by `(file, line)`, and all maps are ordered, so the output is stable
//! across runs and suitable for golden-file tests.

use std::fmt;

/// A rule: the §3.1 model rule C4, a determinism rule (one or more rows
/// of [`crate::determinism::ROWS`], C2 among them), or `parse`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum RuleId {
    /// No host APIs (threads, I/O, sleeping) inside algorithm bodies.
    C2,
    /// Every routine claiming `wait_free` has a static per-invocation step
    /// bound (annotated loop bounds, acyclic await graph).
    C4,
    /// The file could not be analyzed (unbalanced delimiters, malformed
    /// annotation).
    Parse,
    /// `HashMap`/`HashSet`: iteration order depends on the hasher seed.
    HashCollections,
    /// `Instant`/`SystemTime`: wall clocks vary between runs.
    WallClock,
    /// `thread_rng` and other unseeded randomness.
    ThreadRng,
    /// `std::thread::spawn`/`thread::Builder` in non-test code.
    ThreadSpawn,
    /// Bare `.unwrap()` in non-test simulator code.
    BareUnwrap,
}

impl RuleId {
    /// All rules, in report order.
    pub const ALL: [RuleId; 8] = [
        RuleId::C2,
        RuleId::C4,
        RuleId::Parse,
        RuleId::HashCollections,
        RuleId::WallClock,
        RuleId::ThreadRng,
        RuleId::ThreadSpawn,
        RuleId::BareUnwrap,
    ];

    /// The stable identifier used in reports and allowlists.
    pub fn id(self) -> &'static str {
        match self {
            RuleId::C2 => "C2",
            RuleId::C4 => "C4",
            RuleId::Parse => "parse",
            RuleId::HashCollections => "hash-collections",
            RuleId::WallClock => "wall-clock",
            RuleId::ThreadRng => "thread-rng",
            RuleId::ThreadSpawn => "thread-spawn",
            RuleId::BareUnwrap => "bare-unwrap",
        }
    }

    /// Parses a stable identifier back into a rule.
    pub fn from_id(id: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.id() == id)
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One diagnostic.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Finding {
    /// The violated rule.
    pub rule: RuleId,
    /// Repository-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub suggestion: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {} (fix: {})",
            self.file,
            self.line,
            self.rule.id(),
            self.message,
            self.suggestion
        )
    }
}

/// A static step bound (or the reason none exists) for one routine.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BoundRow {
    /// Routine name (`<algo>` for anonymous algorithm closures).
    pub name: String,
    /// Repository-relative file path.
    pub file: String,
    /// Line of the routine.
    pub line: u32,
    /// Whether the routine claims `wait_free`.
    pub wait_free: bool,
    /// The bound expression, rendered, if one was computed.
    pub bound: Option<String>,
    /// Free parameters of the bound, sorted.
    pub params: Vec<String>,
    /// Why no bound exists, when `bound` is `None`.
    pub unbounded: Option<String>,
}

/// The complete analyzer output.
#[derive(Clone, Default, Debug)]
pub struct ConformReport {
    /// Violations not covered by the allowlist.
    pub findings: Vec<Finding>,
    /// Violations suppressed by the allowlist.
    pub suppressed: Vec<Finding>,
    /// Static step bounds for every algorithm routine.
    pub bounds: Vec<BoundRow>,
    /// Files scanned, sorted.
    pub files: Vec<String>,
    /// How many of the scanned files hold algorithm code, which C2 and C4
    /// check too.
    pub algorithm_files: usize,
}

impl ConformReport {
    /// Sorts all sections into report order.
    pub fn normalize(&mut self) {
        let key = |f: &Finding| (f.file.clone(), f.line, f.rule, f.message.clone());
        self.findings.sort_by_key(key);
        self.suppressed.sort_by_key(key);
        self.bounds
            .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        self.files.sort();
    }

    /// Looks up the bound row for a routine by file suffix and name.
    pub fn bound_for(&self, file_suffix: &str, name: &str) -> Option<&BoundRow> {
        self.bounds
            .iter()
            .find(|b| b.name == name && b.file.ends_with(file_suffix))
    }

    /// Renders the report as deterministic JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"findings\": [");
        push_findings(&mut out, &self.findings);
        out.push_str("],\n  \"suppressed\": [");
        push_findings(&mut out, &self.suppressed);
        out.push_str("],\n  \"bounds\": [");
        for (i, b) in self.bounds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!(
                "\"name\": {}, \"file\": {}, \"line\": {}, \"wait_free\": {}",
                json_string(&b.name),
                json_string(&b.file),
                b.line,
                b.wait_free
            ));
            match &b.bound {
                Some(e) => out.push_str(&format!(", \"bound\": {}", json_string(e))),
                None => out.push_str(", \"bound\": null"),
            }
            out.push_str(", \"params\": [");
            for (j, p) in b.params.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_string(p));
            }
            out.push(']');
            if let Some(u) = &b.unbounded {
                out.push_str(&format!(", \"unbounded\": {}", json_string(u)));
            }
            out.push('}');
        }
        if !self.bounds.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"files_scanned\": ");
        out.push_str(&self.files.len().to_string());
        out.push_str("\n}\n");
        out
    }
}

fn push_findings(out: &mut String, findings: &[Finding]) {
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!(
            "\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \"suggestion\": {}",
            json_string(f.rule.id()),
            json_string(&f.file),
            f.line,
            json_string(&f.message),
            json_string(&f.suggestion)
        ));
        out.push('}');
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
}

/// Escapes a string for JSON output.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_round_trip() {
        for r in RuleId::ALL {
            assert_eq!(RuleId::from_id(r.id()), Some(r));
        }
        assert_eq!(RuleId::from_id("C9"), None);
    }

    #[test]
    fn json_is_deterministic_and_escaped() {
        let mut report = ConformReport {
            findings: vec![Finding {
                rule: RuleId::C2,
                file: "b.rs".into(),
                line: 3,
                message: "uses \"Instant::now\"".into(),
                suggestion: "use ctx.now()".into(),
            }],
            bounds: vec![BoundRow {
                name: "propose".into(),
                file: "a.rs".into(),
                line: 10,
                wait_free: true,
                bound: Some("3 * R".into()),
                params: vec!["R".into()],
                unbounded: None,
            }],
            ..ConformReport::default()
        };
        report.normalize();
        let json = report.to_json();
        assert!(json.contains("\\\"Instant::now\\\""), "{json}");
        assert!(json.contains("\"bound\": \"3 * R\""), "{json}");
        assert_eq!(json, {
            let mut r2 = report.clone();
            r2.normalize();
            r2.to_json()
        });
    }

    #[test]
    fn findings_sort_by_file_then_line() {
        let f = |file: &str, line| Finding {
            rule: RuleId::C4,
            file: file.into(),
            line,
            message: String::new(),
            suggestion: String::new(),
        };
        let mut report = ConformReport {
            findings: vec![f("b.rs", 1), f("a.rs", 9), f("a.rs", 2)],
            ..ConformReport::default()
        };
        report.normalize();
        let order: Vec<(String, u32)> = report
            .findings
            .iter()
            .map(|f| (f.file.clone(), f.line))
            .collect();
        assert_eq!(
            order,
            vec![("a.rs".into(), 2), ("a.rs".into(), 9), ("b.rs".into(), 1)]
        );
    }
}
