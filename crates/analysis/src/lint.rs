//! Pass 1: the determinism lint.
//!
//! Everything this repository claims — replayable runs, seed-indexed
//! schedules, histories that are functions of `(p, t)` — rests on the
//! simulator crates being free of hidden nondeterminism. This pass scans
//! their sources line by line for the constructs that break that property:
//!
//! * `HashMap`/`HashSet` (randomized iteration order; use `BTreeMap`,
//!   `BTreeSet` or a seeded hasher),
//! * `Instant::now` / `SystemTime` (wall clocks; simulated [`Time`] only),
//! * `rand::thread_rng` (OS entropy; every generator must be seeded),
//! * `std::thread::spawn` outside the lockstep runtime in `upsilon-sim`,
//! * bare `unwrap()` in non-test simulator code (panics without an
//!   invariant message).
//!
//! Audited exceptions live in an [`Allowlist`] file (one `<rule-id> <path>`
//! entry per line, `#` starts a comment), the same format and type every
//! static pass uses.
//!
//! [`Time`]: upsilon_sim::Time

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

pub use upsilon_conform::Allowlist;

/// Crate directories under `crates/` that the lint scans.
///
/// `conform` is absent for the same reason `analysis` exempts its own
/// pattern tables (`PATTERN_EXEMPT`): its rule tables name the banned
/// constructs as string patterns (and it is itself a source analyzer with
/// its own test gauntlet).
pub const SCANNED_CRATES: &[&str] = &[
    "sim",
    "mem",
    "fd",
    "agreement",
    "converge",
    "extract",
    "core",
    "check",
    "fuzz",
    "analysis",
    "commute",
    "symmetry",
    "scenario",
    "swarm",
    "bench",
];

/// Files exempt from the whole scan because they *name* the banned
/// constructs as string patterns: the lint's own pattern table and its
/// regression tests. Scanning them would flag the scanner.
const PATTERN_EXEMPT: &[&str] = &[
    "crates/analysis/src/lint.rs",
    "crates/analysis/tests/lint_regression.rs",
];

/// Files exempt from [`Rule::ThreadSpawn`]: the thread-lockstep engine
/// (one sanctioned spawn site per process). The worker pools use scoped
/// threads, which the rule does not match.
const SPAWN_EXEMPT: &[&str] = &["crates/sim/src/engine.rs"];

/// The individual determinism rules.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Rule {
    /// `std::collections::HashMap`/`HashSet`: randomized iteration order.
    HashCollections,
    /// `Instant::now` / `SystemTime`: wall-clock reads.
    WallClock,
    /// `rand::thread_rng`: OS-entropy generator.
    ThreadRng,
    /// `std::thread::spawn` outside `upsilon-sim`'s runtime.
    ThreadSpawn,
    /// Bare `.unwrap()` in non-test simulator code.
    BareUnwrap,
}

impl Rule {
    /// All rules, in reporting order.
    pub const ALL: [Rule; 5] = [
        Rule::HashCollections,
        Rule::WallClock,
        Rule::ThreadRng,
        Rule::ThreadSpawn,
        Rule::BareUnwrap,
    ];

    /// Stable identifier used in reports and allowlist entries.
    pub fn id(self) -> &'static str {
        match self {
            Rule::HashCollections => "hash-collections",
            Rule::WallClock => "wall-clock",
            Rule::ThreadRng => "thread-rng",
            Rule::ThreadSpawn => "thread-spawn",
            Rule::BareUnwrap => "bare-unwrap",
        }
    }

    /// One-line rationale shown with findings.
    pub fn why(self) -> &'static str {
        match self {
            Rule::HashCollections => {
                "iteration order depends on the hasher seed; use BTreeMap/BTreeSet \
                 or a seeded hasher"
            }
            Rule::WallClock => "wall clocks vary between runs; use simulated upsilon_sim::Time",
            Rule::ThreadRng => "thread_rng draws OS entropy; seed every generator explicitly",
            Rule::ThreadSpawn => {
                "threads outside the lockstep runtime race the scheduler; \
                 only upsilon-sim's builder/runtime may spawn"
            }
            Rule::BareUnwrap => {
                "bare unwrap() panics without an invariant message; use \
                 expect(\"...\") or propagate the error"
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// All known rule identifiers, for allowlist validation.
pub fn known_rule_ids() -> Vec<&'static str> {
    Rule::ALL.iter().map(|r| r.id()).collect()
}

/// One matched occurrence of a banned construct.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Finding {
    /// The rule that matched.
    pub rule: Rule,
    /// Repository-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {} — {}",
            self.file,
            self.line,
            self.rule,
            self.excerpt,
            self.rule.why()
        )
    }
}

/// Outcome of a workspace scan.
#[derive(Clone, Default, Debug)]
pub struct LintReport {
    /// Findings not covered by the allowlist — these fail the build.
    pub violations: Vec<Finding>,
    /// Findings suppressed by allowlist entries.
    pub suppressed: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// Whether the scan is clean (no unsuppressed findings).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the report as deterministic JSON (findings are already
    /// sorted by the scan), mirroring the conformance checker's format.
    pub fn to_json(&self) -> String {
        use upsilon_conform::diag::json_string;
        let push_findings = |out: &mut String, findings: &[Finding]| {
            for (i, f) in findings.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("\n    {");
                out.push_str(&format!(
                    "\"rule\": {}, \"file\": {}, \"line\": {}, \"excerpt\": {}, \"why\": {}",
                    json_string(f.rule.id()),
                    json_string(&f.file),
                    f.line,
                    json_string(&f.excerpt),
                    json_string(f.rule.why())
                ));
                out.push('}');
            }
            if !findings.is_empty() {
                out.push_str("\n  ");
            }
        };
        let mut out = String::from("{\n  \"violations\": [");
        push_findings(&mut out, &self.violations);
        out.push_str("],\n  \"suppressed\": [");
        push_findings(&mut out, &self.suppressed);
        out.push_str("],\n  \"files_scanned\": ");
        out.push_str(&self.files_scanned.to_string());
        out.push_str("\n}\n");
        out
    }
}

/// Scans every `.rs` file of the [`SCANNED_CRATES`] under `root/crates`.
///
/// # Errors
///
/// Propagates filesystem errors; a missing crate directory is an error (the
/// lint must not silently pass because it looked in the wrong place).
pub fn scan_workspace(root: &Path, allow: &Allowlist) -> io::Result<LintReport> {
    let mut report = LintReport::default();
    for krate in SCANNED_CRATES {
        let dir = root.join("crates").join(krate);
        if !dir.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("scanned crate directory missing: {}", dir.display()),
            ));
        }
        let mut files = Vec::new();
        collect_rust_files(&dir, &mut files)?;
        files.sort();
        for path in files {
            let rel = relative_path(root, &path);
            let source = fs::read_to_string(&path)?;
            report.files_scanned += 1;
            for finding in scan_source(&rel, &source) {
                if allow.permits(finding.rule.id(), &finding.file) {
                    report.suppressed.push(finding);
                } else {
                    report.violations.push(finding);
                }
            }
        }
    }
    report
        .violations
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
        .suppressed
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

fn collect_rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Tracks whether the scanner is inside a `#[cfg(test)] mod` region.
#[derive(Clone, Copy, Debug)]
enum TestRegion {
    Outside,
    /// Saw `#[cfg(test)]`; waiting for the `mod` item it gates.
    Pending,
    /// Inside the gated module; holds the brace depth at its `mod` line.
    Inside(i64),
}

/// Scans one file's source. `rel_file` is the repository-relative path and
/// selects per-file rule applicability (sim-only rules, spawn exemptions,
/// `tests/`/`benches/` relaxations).
pub fn scan_source(rel_file: &str, source: &str) -> Vec<Finding> {
    if PATTERN_EXEMPT.contains(&rel_file) {
        return Vec::new();
    }
    let is_test_file = rel_file.contains("/tests/") || rel_file.contains("/benches/");
    let in_sim = rel_file.starts_with("crates/sim/src/");
    let spawn_exempt = SPAWN_EXEMPT.contains(&rel_file);

    let mut findings = Vec::new();
    let mut in_block_comment = false;
    let mut depth: i64 = 0;
    let mut region = TestRegion::Outside;

    for (idx, raw) in source.lines().enumerate() {
        let code = strip_comments(raw, &mut in_block_comment);
        let trimmed = code.trim();

        // `#[cfg(test)]`-gated module tracking (before depth update, so the
        // `mod tests {` line itself already counts as test code).
        if trimmed.contains("#[cfg(test)]") {
            region = if trimmed.contains("mod ") {
                TestRegion::Inside(depth)
            } else {
                TestRegion::Pending
            };
        } else if matches!(region, TestRegion::Pending) && !trimmed.is_empty() {
            region = if trimmed.contains("mod ") {
                TestRegion::Inside(depth)
            } else if trimmed.starts_with("#[") {
                TestRegion::Pending
            } else {
                TestRegion::Outside
            };
        }
        let in_test = is_test_file || matches!(region, TestRegion::Inside(_) | TestRegion::Pending);

        let mut push = |rule: Rule| {
            findings.push(Finding {
                rule,
                file: rel_file.to_string(),
                line: idx + 1,
                excerpt: trimmed.chars().take(120).collect(),
            });
        };

        if trimmed.contains("HashMap") || trimmed.contains("HashSet") {
            push(Rule::HashCollections);
        }
        if trimmed.contains("Instant::now") || trimmed.contains("SystemTime") {
            push(Rule::WallClock);
        }
        if trimmed.contains("thread_rng") {
            push(Rule::ThreadRng);
        }
        if !spawn_exempt
            && !in_test
            && (trimmed.contains("thread::spawn") || trimmed.contains("thread::Builder"))
        {
            push(Rule::ThreadSpawn);
        }
        if in_sim && !in_test && trimmed.contains(".unwrap()") {
            push(Rule::BareUnwrap);
        }

        depth += i64::try_from(code.matches('{').count()).unwrap_or(0);
        depth -= i64::try_from(code.matches('}').count()).unwrap_or(0);
        if let TestRegion::Inside(entry) = region {
            if depth <= entry {
                region = TestRegion::Outside;
            }
        }
    }
    findings
}

/// Removes `//` line comments and `/* */` block comments from one line,
/// carrying block-comment state across lines. String literals are not
/// parsed — a `//` inside a string would truncate the line — which is
/// acceptable for this codebase and keeps the scanner simple.
fn strip_comments(line: &str, in_block: &mut bool) -> String {
    let mut out = String::new();
    let mut rest = line;
    loop {
        if *in_block {
            match rest.find("*/") {
                Some(i) => {
                    rest = &rest[i + 2..];
                    *in_block = false;
                }
                None => return out,
            }
        } else {
            match (rest.find("//"), rest.find("/*")) {
                (Some(l), Some(b)) if l < b => {
                    out.push_str(&rest[..l]);
                    return out;
                }
                (_, Some(b)) => {
                    out.push_str(&rest[..b]);
                    rest = &rest[b + 2..];
                    *in_block = true;
                }
                (Some(l), None) => {
                    out.push_str(&rest[..l]);
                    return out;
                }
                (None, None) => {
                    out.push_str(rest);
                    return out;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(findings: &[Finding]) -> Vec<Rule> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn flags_hash_collections_anywhere() {
        let src = "use std::collections::HashMap;\nfn f() { let s: HashSet<u8> = x; }\n";
        let f = scan_source("crates/mem/src/foo.rs", src);
        assert_eq!(
            rules_of(&f),
            vec![Rule::HashCollections, Rule::HashCollections]
        );
        assert_eq!(f[0].line, 1);
        assert_eq!(f[1].line, 2);
    }

    #[test]
    fn flags_wall_clock_and_thread_rng() {
        let src =
            "let t = Instant::now();\nlet s = SystemTime::now();\nlet r = rand::thread_rng();\n";
        let f = scan_source("crates/fd/src/foo.rs", src);
        assert_eq!(
            rules_of(&f),
            vec![Rule::WallClock, Rule::WallClock, Rule::ThreadRng]
        );
    }

    #[test]
    fn spawn_flagged_except_in_runtime() {
        let src = "std::thread::spawn(|| {});\n";
        assert_eq!(
            rules_of(&scan_source("crates/mem/src/foo.rs", src)),
            vec![Rule::ThreadSpawn]
        );
        assert!(scan_source("crates/sim/src/engine.rs", src).is_empty());
        assert_eq!(
            rules_of(&scan_source("crates/sim/src/batch.rs", src)),
            vec![Rule::ThreadSpawn]
        );
    }

    #[test]
    fn bare_unwrap_only_in_sim_non_test() {
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(
            rules_of(&scan_source("crates/sim/src/object.rs", src)),
            vec![Rule::BareUnwrap]
        );
        assert!(scan_source("crates/mem/src/foo.rs", src).is_empty());
        assert!(scan_source("crates/sim/tests/foo.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_module_is_exempt_from_test_only_rules() {
        let src = "\
fn prod() { y.expect(\"ok\"); }
#[cfg(test)]
mod tests {
    fn t() { x.unwrap(); std::thread::spawn(|| {}); }
}
fn after() { z.unwrap(); }
";
        let f = scan_source("crates/sim/src/foo.rs", src);
        assert_eq!(rules_of(&f), vec![Rule::BareUnwrap]);
        assert_eq!(f[0].line, 6, "only the unwrap after the test mod");
    }

    #[test]
    fn hash_collections_flagged_even_in_test_mods() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n}\n";
        let f = scan_source("crates/fd/src/foo.rs", src);
        assert_eq!(rules_of(&f), vec![Rule::HashCollections]);
    }

    #[test]
    fn comments_and_doc_comments_do_not_match() {
        let src = "\
// HashMap in a comment
/// Instant::now in docs
/* thread_rng in a
   block HashSet comment */ let ok = 1;
fn f() {} // trailing .unwrap() comment
";
        assert!(scan_source("crates/sim/src/foo.rs", src).is_empty());
    }

    #[test]
    fn allowlist_suppression_and_parsing() {
        let known = known_rule_ids();
        let allow = Allowlist::parse(
            "# audited exceptions\n\nhash-collections crates/mem/src/foo.rs # keeps a cache\n",
            &known,
        )
        .expect("parses");
        assert_eq!(allow.len(), 1);
        assert!(allow.permits(Rule::HashCollections.id(), "crates/mem/src/foo.rs"));
        assert!(!allow.permits(Rule::HashCollections.id(), "crates/mem/src/bar.rs"));
        assert!(!allow.permits(Rule::WallClock.id(), "crates/mem/src/foo.rs"));
        assert!(Allowlist::parse("no-such-rule crates/x.rs\n", &known).is_err());
        assert!(Allowlist::parse("hash-collections\n", &known).is_err());
        for rule in Rule::ALL {
            let allow = Allowlist::parse(&format!("{rule} crates/x.rs"), &known).expect("known id");
            assert!(allow.permits(rule.id(), "crates/x.rs"), "{rule}");
        }
    }
}
