//! The determinism rules: banned constructs, matched as tokens.
//!
//! A run must be a function of the schedule, the failure pattern `F(t)`
//! and the detector history `H(p, t)` alone. Each row of [`ROWS`] bans a
//! construct that brings in anything else, within its [`Scope`]. Rows
//! match on the crate's lexer and bracket tree, so literals and comments
//! never match, and imports resolve: after `use std::thread as th` (or
//! `use std::thread::{self as th}`), `th::spawn` is a path through
//! `thread`. Test code — files under a `tests/` or `benches/` directory,
//! and items under an attribute that `cfg`-selects `test`, such as
//! `#[cfg(all(test, …))]` — is exempt from the non-test scopes.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::{Finding, RuleId};
use crate::model::{is_cfg_test, FileModel};
use crate::tree::{Delim, Spanned, Tok};

/// Where a row's ban holds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scope {
    /// Every scanned file, test code included.
    Everywhere,
    /// Code outside test files and `cfg(test)` items.
    NonTest,
    /// Non-test code under `crates/sim/src`.
    SimNonTest,
    /// The `ctx`-taking `fn`s and `algo(...)` closures of algorithm files.
    AlgorithmBody,
}

/// How a row recognizes its construct at an identifier, whose `name` is
/// resolved through the file's imports.
#[derive(Clone, Copy, Debug)]
pub enum Pattern {
    /// Any mention of one of these names (the whole identifier, so
    /// `InstantReplay` is not `Instant`).
    Named(&'static [&'static str]),
    /// A path through one of these names: `name::…`.
    PathThrough(&'static [&'static str]),
    /// A path `head::tail` whose `tail` is (`true`) or is not (`false`) one
    /// of these.
    PathTo(&'static str, &'static [&'static str], bool),
    /// A call `name(…)` of one of these names.
    Call(&'static [&'static str]),
    /// A method call without arguments: `.name()`.
    Method(&'static str),
}

/// One banned construct.
#[derive(Debug)]
pub struct Row {
    /// The rule id its findings and allowlist entries carry.
    pub rule: RuleId,
    /// The construct, matched at any one of these patterns.
    pub patterns: &'static [Pattern],
    /// Where the ban holds.
    pub scope: Scope,
    /// What the construct is, for the message.
    pub what: &'static str,
    /// How to fix a finding.
    pub fix: &'static str,
}

const THREAD_SPAWNERS: &[&str] = &["spawn", "Builder"];

/// The rule table. The patterns of two rows never match at one identifier,
/// so each construct is reported once.
pub const ROWS: &[Row] = &[
    Row {
        rule: RuleId::HashCollections,
        patterns: &[Pattern::Named(&["HashMap", "HashSet"])],
        scope: Scope::Everywhere,
        what: "hash collection",
        fix: "use BTreeMap/BTreeSet or a seeded hasher",
    },
    Row {
        rule: RuleId::WallClock,
        patterns: &[Pattern::Named(&["Instant", "SystemTime"])],
        scope: Scope::Everywhere,
        what: "host clock",
        fix: "use simulated upsilon_sim::Time (ctx.now() in an algorithm)",
    },
    Row {
        rule: RuleId::ThreadRng,
        patterns: &[Pattern::Named(&["thread_rng"])],
        scope: Scope::Everywhere,
        what: "OS-entropy generator",
        fix: "seed every generator explicitly",
    },
    Row {
        rule: RuleId::ThreadRng,
        patterns: &[
            Pattern::PathThrough(&["rand", "random"]),
            Pattern::Call(&["random"]),
        ],
        scope: Scope::AlgorithmBody,
        what: "unseeded randomness",
        fix: "take randomness from the seeded simulator configuration",
    },
    Row {
        rule: RuleId::ThreadSpawn,
        patterns: &[Pattern::PathTo("thread", THREAD_SPAWNERS, true)],
        scope: Scope::NonTest,
        what: "thread spawn",
        fix: "run a process's steps on the simulator's one thread; \
              run_batch's scoped workers parallelize between runs",
    },
    Row {
        rule: RuleId::BareUnwrap,
        patterns: &[Pattern::Method("unwrap")],
        scope: Scope::SimNonTest,
        what: "panic without a message",
        fix: "use expect(\"...\") with the invariant, or propagate the error",
    },
    Row {
        rule: RuleId::C2,
        patterns: &[Pattern::PathTo("thread", THREAD_SPAWNERS, false)],
        scope: Scope::AlgorithmBody,
        what: "std::thread",
        fix: "the model is one deterministic step stream per process; \
              express concurrency as separate algorithm processes",
    },
    Row {
        rule: RuleId::C2,
        patterns: &[
            Pattern::PathThrough(&[
                "File",
                "TcpStream",
                "TcpListener",
                "UdpSocket",
                "fs",
                "net",
                "Command",
                "env",
            ]),
            Pattern::Call(&["stdin", "stdout", "stderr"]),
        ],
        scope: Scope::AlgorithmBody,
        what: "host I/O",
        fix: "algorithms may only interact through ctx-mediated shared objects \
              and their own parameters",
    },
    Row {
        rule: RuleId::C2,
        patterns: &[Pattern::Call(&["sleep"])],
        scope: Scope::AlgorithmBody,
        what: "host sleeping",
        fix: "waiting is expressed as bounded retries over granted steps",
    },
];

/// Runs every row over one parsed file. `model` is the file's model when
/// it is an algorithm file; its algorithm bodies get the
/// [`Scope::AlgorithmBody`] rows.
pub fn check_file(
    file: &str,
    tree: &[Spanned],
    model: Option<&FileModel>,
    findings: &mut Vec<Finding>,
) {
    let mut imports = BTreeMap::new();
    collect_imports(tree, &mut imports);
    let test_file = file
        .split('/')
        .any(|dir| dir == "tests" || dir == "benches");
    let mut scan = FileScan {
        file,
        sim: file.starts_with("crates/sim/src/"),
        imports,
        seen: BTreeSet::new(),
        findings,
    };
    scan.walk(tree, test_file, false);
    if let Some(m) = model {
        let fns = m.fns.iter().filter(|f| f.takes_ctx).map(|f| &f.body);
        for body in fns.chain(m.algos.iter().map(|a| &a.body)) {
            scan.walk(body, false, true);
        }
    }
}

struct FileScan<'a> {
    file: &'a str,
    sim: bool,
    /// Every name a `use` binds, with the path it stands for.
    imports: BTreeMap<String, Vec<String>>,
    /// `(line, row)` pairs already reported: one finding per row and line.
    seen: BTreeSet<(u32, usize)>,
    findings: &'a mut Vec<Finding>,
}

impl FileScan<'_> {
    /// Checks the rows over `toks`, skipping attributes and tracking
    /// `cfg(test)` items: the [`Scope::AlgorithmBody`] rows when `toks` is
    /// an `algorithm` body, the others when it is a whole file.
    fn walk(&mut self, toks: &[Spanned], mut in_test: bool, algorithm: bool) {
        let sim = self.sim;
        let mut test_item = false;
        let mut i = 0;
        while i < toks.len() {
            if toks[i].is_punct('#') {
                let inner = toks.get(i + 1).is_some_and(|t| t.is_punct('!'));
                let at = i + 1 + usize::from(inner);
                if let Some(Tok::Group(Delim::Bracket, attr, _)) = toks.get(at).map(|t| &t.tok) {
                    if is_cfg_test(attr) {
                        // `#![cfg(test)]` gates the rest of the enclosing
                        // item, `#[cfg(test)]` the next item.
                        if inner {
                            in_test = true;
                        } else {
                            test_item = true;
                        }
                    }
                    i = at + 1;
                    continue;
                }
            }
            let test = in_test || test_item;
            match &toks[i].tok {
                Tok::Ident(_) => self.check(toks, i, |scope| match scope {
                    Scope::AlgorithmBody => algorithm,
                    _ if algorithm => false,
                    Scope::Everywhere => true,
                    Scope::NonTest => !test,
                    Scope::SimNonTest => sim && !test,
                }),
                Tok::Group(_, children, _) => self.walk(children, test, algorithm),
                _ => {}
            }
            if toks[i].is_punct(';') || matches!(toks[i].tok, Tok::Group(Delim::Brace, ..)) {
                test_item = false;
            }
            i += 1;
        }
    }

    /// Reports every row in an applicable scope whose pattern matches at
    /// the identifier `toks[i]`.
    fn check(&mut self, toks: &[Spanned], i: usize, applies: impl Fn(Scope) -> bool) {
        let Some(tok) = toks[i].ident() else { return };
        let after = |c: char, back: usize| i >= back && toks[i - back].is_punct(c);
        let after_dot = after('.', 1);
        let head = !(after_dot || after(':', 1) && after(':', 2));
        let (segs, anchor, end) = self.path_at(toks, i, head);
        let called = matches!(
            toks.get(end).map(|t| &t.tok),
            Some(Tok::Group(Delim::Paren, ..))
        );
        for (r, row) in ROWS.iter().enumerate() {
            if !applies(row.scope) {
                continue;
            }
            let hit = row.patterns.iter().any(|p| match *p {
                Pattern::Named(names) => names.contains(&segs[anchor].as_str()),
                Pattern::PathThrough(names) => {
                    (0..=anchor).any(|k| names.contains(&segs[k].as_str()) && k + 1 < segs.len())
                }
                Pattern::PathTo(head, tails, is) => (0..=anchor).any(|k| {
                    segs[k] == head
                        && segs
                            .get(k + 1)
                            .is_some_and(|t| tails.contains(&t.as_str()) == is)
                }),
                Pattern::Call(names) => {
                    anchor + 1 == segs.len() && called && names.contains(&segs[anchor].as_str())
                }
                Pattern::Method(name) => {
                    after_dot
                        && tok == name
                        && matches!(
                            toks.get(i + 1).map(|t| &t.tok),
                            Some(Tok::Group(Delim::Paren, args, _)) if args.is_empty()
                        )
                }
            });
            let line = toks[i].line;
            if hit && self.seen.insert((line, r)) {
                let place = match row.scope {
                    Scope::Everywhere => "",
                    Scope::NonTest => " in non-test code",
                    Scope::SimNonTest => " in non-test simulator code",
                    Scope::AlgorithmBody => " in algorithm body",
                };
                self.findings.push(Finding {
                    rule: row.rule,
                    file: self.file.to_string(),
                    line,
                    message: format!("banned {} (`{tok}`){place}", row.what),
                    suggestion: row.fix.to_string(),
                });
            }
        }
    }

    /// The path at the identifier `toks[i]`: its segments, with an
    /// imported name resolved when `toks[i]` is the `head` of a path, the
    /// index of `toks[i]`'s own segment, and the index of the token after
    /// the path.
    fn path_at(&self, toks: &[Spanned], i: usize, head: bool) -> (Vec<String>, usize, usize) {
        let tok = toks[i].ident().expect("path_at starts at an identifier");
        let mut segs = match self.imports.get(tok) {
            Some(path) if head => path.clone(),
            _ => vec![tok.to_string()],
        };
        let anchor = segs.len() - 1;
        let mut end = i + 1;
        while toks.get(end).is_some_and(|t| t.is_punct(':'))
            && toks.get(end + 1).is_some_and(|t| t.is_punct(':'))
        {
            let Some(next) = toks.get(end + 2).and_then(Spanned::ident) else {
                break;
            };
            segs.push(next.to_string());
            end += 3;
        }
        (segs, anchor, end)
    }
}

/// Records the names every `use` declaration in `toks` binds.
fn collect_imports(toks: &[Spanned], imports: &mut BTreeMap<String, Vec<String>>) {
    let mut i = 0;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Ident(s) if s == "use" => {
                let end = toks[i..]
                    .iter()
                    .position(|t| t.is_punct(';'))
                    .map_or(toks.len(), |p| i + p);
                use_tree(&toks[i + 1..end], &[], imports);
                i = end;
            }
            Tok::Group(_, children, _) => collect_imports(children, imports),
            _ => {}
        }
        i += 1;
    }
}

/// Binds the names of one use tree under `prefix`: `a::b` binds `b`,
/// `a::b as c` binds `c`, and `a::{self, b}` binds `a` and `b`.
fn use_tree(toks: &[Spanned], prefix: &[String], imports: &mut BTreeMap<String, Vec<String>>) {
    let mut path = prefix.to_vec();
    let mut rename = None;
    for (i, t) in toks.iter().enumerate() {
        match &t.tok {
            Tok::Ident(s) if s == "as" => {
                rename = toks.get(i + 1).and_then(Spanned::ident);
                break;
            }
            Tok::Ident(s) => path.push(s.clone()),
            Tok::Group(Delim::Brace, children, _) => {
                for part in children.split(|t| t.is_punct(',')) {
                    use_tree(part, &path, imports);
                }
                return;
            }
            _ => {}
        }
    }
    if path.len() == prefix.len() {
        return; // an empty group entry
    }
    if path.last().is_some_and(|s| s == "self") {
        path.pop();
    }
    let name = rename
        .or(path.last().map(String::as_str))
        .map(str::to_string);
    if let Some(name) = name.filter(|n| n != "_") {
        imports.insert(name, path);
    }
}

#[cfg(test)]
mod tests {
    use crate::{check_sources, known_rule_ids, Allowlist, RuleId};

    /// `(rule, line)` of every finding the rows report on one non-algorithm
    /// file.
    fn scan(file: &str, src: &str) -> Vec<(RuleId, u32)> {
        let sources = [(file.to_string(), src.to_string())];
        let report = check_sources(&[], &sources, &Allowlist::empty());
        report.findings.iter().map(|f| (f.rule, f.line)).collect()
    }

    #[test]
    fn flags_hash_collections_anywhere() {
        let src = "use std::collections::HashMap;\nfn f() { let s: HashSet<u8> = x; }\n";
        assert_eq!(
            scan("crates/mem/src/foo.rs", src),
            vec![(RuleId::HashCollections, 1), (RuleId::HashCollections, 2)]
        );
    }

    #[test]
    fn flags_wall_clock_and_os_entropy() {
        let src = "fn f() {\nlet t = Instant::now();\nlet s = SystemTime::now();\n\
                   let r = rand::thread_rng();\n}\n";
        assert_eq!(
            scan("crates/fd/src/foo.rs", src),
            vec![
                (RuleId::WallClock, 2),
                (RuleId::WallClock, 3),
                (RuleId::ThreadRng, 4)
            ]
        );
    }

    #[test]
    fn spawn_flagged_everywhere_outside_tests() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        // No file is exempt, the step engine and the worker pool included.
        for file in [
            "crates/mem/src/foo.rs",
            "crates/sim/src/engine.rs",
            "crates/sim/src/batch.rs",
        ] {
            assert_eq!(scan(file, src), vec![(RuleId::ThreadSpawn, 1)], "{file}");
        }
        assert!(scan("crates/mem/tests/foo.rs", src).is_empty());
        assert!(scan("tests/foo.rs", src).is_empty());
    }

    #[test]
    fn bare_unwrap_only_in_sim_non_test() {
        let src = "fn f() { x.unwrap(); y.unwrap_or(0); }\n";
        assert_eq!(
            scan("crates/sim/src/object.rs", src),
            vec![(RuleId::BareUnwrap, 1)]
        );
        assert!(scan("crates/mem/src/foo.rs", src).is_empty());
        assert!(scan("crates/sim/tests/foo.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_items_are_exempt_from_test_only_rules() {
        let src = "\
fn prod() { y.expect(\"ok\"); }
#[cfg(test)]
mod tests {
    fn t() { x.unwrap(); std::thread::spawn(|| {}); }
}
#[cfg(all(test, debug_assertions))]
fn helper() { x.unwrap(); }
#[cfg(not(test))]
fn after() { z.unwrap(); }
";
        assert_eq!(
            scan("crates/sim/src/foo.rs", src),
            vec![(RuleId::BareUnwrap, 9)],
            "only the unwrap under cfg(not(test))"
        );
    }

    #[test]
    fn hash_collections_flagged_even_in_test_mods() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n}\n";
        assert_eq!(
            scan("crates/fd/src/foo.rs", src),
            vec![(RuleId::HashCollections, 3)]
        );
    }

    #[test]
    fn comments_and_literals_do_not_match() {
        let src = "\
// HashMap in a comment
/// Instant::now in docs
/* thread_rng in a
   block HashSet comment */ fn ok() {}
fn f() -> &'static str { \"SystemTime\" } // trailing .unwrap() comment
";
        assert!(scan("crates/sim/src/foo.rs", src).is_empty());
    }

    #[test]
    fn grouped_imports_resolve() {
        let src = "\
use std::thread::{self as t2, spawn};
fn f() { t2::spawn(|| {}); spawn(|| {}); }
fn g() { t2::Builder::new(); }
";
        assert_eq!(
            scan("crates/core/src/foo.rs", src),
            vec![
                (RuleId::ThreadSpawn, 1),
                (RuleId::ThreadSpawn, 2),
                (RuleId::ThreadSpawn, 3)
            ],
            "the imported `spawn` is flagged where it is imported and called"
        );
    }

    #[test]
    fn host_apis_in_algorithm_bodies_trip_c2_once() {
        let src = "
async fn bad(ctx: &mut Ctx<()>) {
    let t = Instant::now();
    std::thread::sleep(t);
    let _ = std::fs::read(\"x\");
    ctx.yield_step().await
}
fn harness() { std::thread::sleep(d); }
"
        .to_string();
        let report = check_sources(
            &[("crates/mem/src/t.rs".to_string(), src)],
            &[],
            &Allowlist::empty(),
        );
        let found: Vec<(RuleId, u32, &str)> = report
            .findings
            .iter()
            .map(|f| (f.rule, f.line, f.message.as_str()))
            .collect();
        // The clock is a wall-clock finding, reported once; `std::thread`
        // and `sleep` are two C2 constructs; outside an algorithm body
        // neither is banned.
        assert_eq!(
            found,
            vec![
                (RuleId::WallClock, 3, "banned host clock (`Instant`)"),
                (
                    RuleId::C2,
                    4,
                    "banned host sleeping (`sleep`) in algorithm body"
                ),
                (
                    RuleId::C2,
                    4,
                    "banned std::thread (`thread`) in algorithm body"
                ),
                (RuleId::C2, 5, "banned host I/O (`fs`) in algorithm body"),
            ]
        );
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
        assert!(allow.permits("hash-collections", "crates/mem/src/foo.rs"));
        assert!(!allow.permits("hash-collections", "crates/mem/src/bar.rs"));
        assert!(!allow.permits("wall-clock", "crates/mem/src/foo.rs"));
        assert!(Allowlist::parse("no-such-rule crates/x.rs\n", &known).is_err());
        assert!(Allowlist::parse("hash-collections\n", &known).is_err());
        for rule in RuleId::ALL {
            let allow = Allowlist::parse(&format!("{rule} crates/x.rs"), &known).expect("known id");
            assert!(allow.permits(rule.id(), "crates/x.rs"), "{rule}");
        }
    }
}
