//! Unified analysis driver: one entry point for every static and dynamic
//! pass the repository ships.
//!
//! ```text
//! cargo run -p upsilon-analysis --bin analyze -- lint [--json]
//! cargo run -p upsilon-analysis --bin analyze -- conform [--json]
//! cargo run -p upsilon-analysis --bin analyze -- commute [--json | --emit]
//! cargo run -p upsilon-analysis --bin analyze -- run-conditions [--json] \
//!     [--seeds <count>] [--procs <n+1>]
//! cargo run -p upsilon-analysis --bin analyze -- scenario [--json]
//! ```
//!
//! `lint`, `conform` and `commute` are the static passes (determinism
//! lint over the simulator crates, §3.1 conformance over the algorithm
//! crates, and DPOR-soundness audit of the shared objects' `access()`
//! classifications). They share one path: load the allowlist
//! (`--allowlist`, default `crates/analysis/<mode>-allowlist.txt`; a
//! missing file counts as empty), scan, print the human or `--json`
//! report, and exit 0 when clean, 1 on findings, 2 on usage or I/O
//! errors. `commute --emit` instead prints the generated
//! `crates/sim/src/commute.rs`, and refuses (exit 1, nothing on stdout)
//! when the audit fails. `run-conditions` is the
//! dynamic pass: it drives a built-in leader workload over a seed sweep
//! and validates every recorded run against the §3.3 run conditions with
//! [`upsilon_analysis::check_run_for`]. `scenario` is the declarative-layer
//! pass: it parses every `scenarios/*.toml` with the dependency-free schema
//! crate (analysis sits below the runner), reports axis cardinalities and
//! cell counts, and fails on orphans — parse failures or files whose `name`
//! does not match the stem — and on missing required check samples.

use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use upsilon_analysis::{check_run_for, lint, RunStats};
use upsilon_commute::known_rule_ids as known_commute;
use upsilon_conform::{known_rule_ids as known_conform, Allowlist};
use upsilon_mem::{RegOp, RegResp, RegisterObject};
use upsilon_sim::{
    algo, run_batch, DummyOracle, FailurePattern, Key, ProcessId, SeededRandom, SimBuilder, Time,
};

fn usage() -> ! {
    eprintln!(
        "usage: analyze <lint|conform|commute|run-conditions|scenario> [options]\n\
         \n\
         common options:\n\
         \x20 --root <dir>        workspace root (default .)\n\
         \x20 --json              machine-readable output\n\
         \n\
         lint / conform / commute options:\n\
         \x20 --allowlist <file>  audited-exception file\n\
         \x20                     (default crates/analysis/<mode>-allowlist.txt)\n\
         \n\
         commute options:\n\
         \x20 --emit              print the generated crates/sim/src/commute.rs\n\
         \n\
         run-conditions options:\n\
         \x20 --seeds <count>     schedules per pattern (default 16)\n\
         \x20 --procs <n+1>       processes, half of them also run a crashy pattern (default 3)\n\
         \n\
         scenario: validates <root>/scenarios/*.toml against the schema"
    );
    std::process::exit(2);
}

#[derive(Default)]
struct Opts {
    root: PathBuf,
    allowlist: Option<PathBuf>,
    json: bool,
    emit: bool,
    seeds: u64,
    procs: usize,
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mode = args.next().unwrap_or_else(|| usage());

    let mut opts = Opts {
        root: PathBuf::from("."),
        seeds: 16,
        procs: 3,
        ..Opts::default()
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => opts.root = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            "--allowlist" => {
                opts.allowlist = Some(PathBuf::from(args.next().unwrap_or_else(|| usage())));
            }
            "--json" => opts.json = true,
            "--emit" => opts.emit = true,
            "--seeds" => {
                opts.seeds = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--procs" => {
                opts.procs = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }
    if opts.emit && mode != "commute" {
        eprintln!("--emit applies only to commute");
        usage();
    }

    match mode.as_str() {
        "lint" => run_static(&opts, "lint", &lint::known_rule_ids(), lint_scan),
        "conform" => run_static(&opts, "conform", &known_conform(), conform_scan),
        "commute" => run_static(&opts, "commute", &known_commute(), commute_scan),
        "run-conditions" => run_conditions(&opts),
        "scenario" => scenario(&opts),
        "--help" | "-h" => usage(),
        other => {
            eprintln!("unknown mode: {other}");
            usage();
        }
    }
}

/// A static pass's scan, rendered for the shared print-and-exit path.
struct Scan {
    /// Whether no unsuppressed finding remains.
    clean: bool,
    /// Unsuppressed findings, one human-readable line each.
    findings: Vec<String>,
    /// Human lines printed after the findings: per-item rows, then the
    /// summary line.
    rows: Vec<String>,
    /// The deterministic JSON report.
    json: String,
    /// The generated module `--emit` prints (commute only).
    generated: Option<String>,
}

/// The path every static pass shares: load the allowlist (a missing file
/// counts as empty), scan, then print and exit 0/1/2.
fn run_static(
    opts: &Opts,
    name: &str,
    known: &[&str],
    scan: impl FnOnce(&Path, &Allowlist) -> io::Result<Scan>,
) -> ExitCode {
    let path = opts.allowlist.clone().unwrap_or_else(|| {
        opts.root
            .join(format!("crates/analysis/{name}-allowlist.txt"))
    });
    let allow = if path.exists() {
        match Allowlist::load(&path, known) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("analyze: bad allowlist {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    } else {
        Allowlist::empty()
    };
    let scan = match scan(&opts.root, &allow) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("analyze {name}: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.emit {
        // A generated module is only ever produced from a clean audit: an
        // unjustified classification would otherwise be baked into the
        // explorer's tables.
        if !scan.clean {
            for finding in &scan.findings {
                eprintln!("{finding}");
            }
            eprintln!("analyze {name}: refusing to emit from a failing audit");
            return ExitCode::FAILURE;
        }
        let module = scan
            .generated
            .expect("main admits --emit only for generating passes");
        print!("{module}");
        return ExitCode::SUCCESS;
    }
    if opts.json {
        print!("{}", scan.json);
    } else {
        for line in scan.findings.iter().chain(&scan.rows) {
            println!("{line}");
        }
    }
    pass_fail(scan.clean)
}

fn lint_scan(root: &Path, allow: &Allowlist) -> io::Result<Scan> {
    let r = lint::scan_workspace(root, allow)?;
    let summary = format!(
        "lint: {} files scanned, {} violations, {} allowlisted",
        r.files_scanned,
        r.violations.len(),
        r.suppressed.len()
    );
    Ok(Scan {
        clean: r.is_clean(),
        findings: r.violations.iter().map(ToString::to_string).collect(),
        rows: vec![summary],
        json: r.to_json(),
        generated: None,
    })
}

fn conform_scan(root: &Path, allow: &Allowlist) -> io::Result<Scan> {
    let r = upsilon_conform::scan_workspace(root, allow)?;
    let mut rows: Vec<String> = r
        .bounds
        .iter()
        .filter_map(|row| match (&row.bound, &row.unbounded) {
            (Some(b), _) => Some(format!(
                "bound: {}:{} {} ≤ {b}{}",
                row.file,
                row.line,
                row.name,
                if row.wait_free { "  [wait_free]" } else { "" }
            )),
            (None, Some(why)) => Some(format!(
                "bound: {}:{} {} unbounded ({why})",
                row.file, row.line, row.name
            )),
            (None, None) => None,
        })
        .collect();
    rows.push(format!(
        "conform: {} files scanned, {} findings, {} allowlisted, {} routines bounded",
        r.files.len(),
        r.findings.len(),
        r.suppressed.len(),
        r.bounds.iter().filter(|b| b.bound.is_some()).count()
    ));
    Ok(Scan {
        clean: r.findings.is_empty(),
        findings: r.findings.iter().map(ToString::to_string).collect(),
        rows,
        json: r.to_json(),
        generated: None,
    })
}

fn commute_scan(root: &Path, allow: &Allowlist) -> io::Result<Scan> {
    let r = upsilon_commute::scan_workspace(root, allow)?;
    let summary = format!(
        "commute: {} files scanned, {} impls analyzed, {} findings, {} allowlisted",
        r.files.len(),
        r.impls.len(),
        r.findings.len(),
        r.suppressed.len()
    );
    Ok(Scan {
        clean: r.is_clean(),
        findings: r.findings.iter().map(ToString::to_string).collect(),
        rows: vec![summary],
        json: r.to_json(),
        generated: Some(upsilon_commute::emit::render(&r.impls)),
    })
}

/// The declarative-layer pass: schema-validate every checked-in scenario
/// file and report each matrix's cardinalities. Orphans — files that fail
/// to parse or whose `name` disagrees with the stem — and missing required
/// check samples fail the pass. Only the dependency-free schema crate is
/// used: analysis sits below the check/fuzz layer, so it validates the
/// documents without being able to run them.
fn scenario(opts: &Opts) -> ExitCode {
    use upsilon_conform::diag::json_string;
    use upsilon_scenario_schema::{Kind, ScenarioDoc, REQUIRED_SAMPLES};

    let dir = opts.root.join("scenarios");
    let mut paths: Vec<PathBuf> = match std::fs::read_dir(&dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "toml"))
            .collect(),
        Err(e) => {
            eprintln!("analyze scenario: {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    };
    paths.sort();

    let mut docs: Vec<(PathBuf, ScenarioDoc)> = Vec::new();
    let mut orphans: Vec<(PathBuf, String)> = Vec::new();
    for path in paths {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                orphans.push((path, e.to_string()));
                continue;
            }
        };
        match ScenarioDoc::parse(&text) {
            Ok(doc) => {
                let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
                if doc.name == stem {
                    docs.push((path, doc));
                } else {
                    let msg = format!("name {:?} does not match the file stem {stem:?}", doc.name);
                    orphans.push((path, msg));
                }
            }
            Err(d) => orphans.push((path, d.to_string())),
        }
    }
    let missing: Vec<&str> = REQUIRED_SAMPLES
        .iter()
        .copied()
        .filter(|r| {
            !docs
                .iter()
                .any(|(_, d)| d.name == *r && d.kind == Kind::Check)
        })
        .collect();
    let clean = orphans.is_empty() && missing.is_empty();

    if opts.json {
        let mut out = String::from("{\n  \"scenarios\": [");
        for (i, (path, doc)) in docs.iter().enumerate() {
            let s = doc.summary();
            let axes: Vec<String> = s
                .axes
                .iter()
                .map(|(name, card)| format!("{}: {card}", json_string(name)))
                .collect();
            out.push_str(&format!(
                "{}\n    {{\"name\": {}, \"path\": {}, \"kind\": {}, \"protocol\": {}, \
                 \"arms\": {}, \"axes\": {{{}}}, \"cells\": {}, \"seeds\": {}, \
                 \"repeats\": {}, \"total_runs\": {}}}",
                if i > 0 { "," } else { "" },
                json_string(&doc.name),
                json_string(&path.display().to_string()),
                json_string(doc.kind.as_str()),
                json_string(&doc.protocol),
                s.arms,
                axes.join(", "),
                s.cells,
                s.seeds,
                s.repeats,
                s.total_runs,
            ));
        }
        if !docs.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"orphans\": [");
        for (i, (path, err)) in orphans.iter().enumerate() {
            out.push_str(&format!(
                "{}\n    {{\"path\": {}, \"error\": {}}}",
                if i > 0 { "," } else { "" },
                json_string(&path.display().to_string()),
                json_string(err),
            ));
        }
        if !orphans.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"missing_required\": [");
        let quoted: Vec<String> = missing.iter().map(|m| json_string(m)).collect();
        out.push_str(&quoted.join(", "));
        out.push_str(&format!("],\n  \"ok\": {clean}\n}}\n"));
        print!("{out}");
    } else {
        for (path, doc) in &docs {
            let s = doc.summary();
            let axes: Vec<String> = s
                .axes
                .iter()
                .map(|(name, card)| format!("{name}={card}"))
                .collect();
            println!(
                "scenario: {} ({}, {}) — {} arm(s), axes [{}], {} cells x {} seeds x {} \
                 repeats = {} runs — {}",
                doc.name,
                doc.kind.as_str(),
                doc.protocol,
                s.arms,
                axes.join(", "),
                s.cells,
                s.seeds,
                s.repeats,
                s.total_runs,
                path.display()
            );
        }
        for (path, err) in &orphans {
            println!("scenario: ORPHAN {}: {err}", path.display());
        }
        for m in &missing {
            println!("scenario: MISSING required check sample {m}");
        }
        println!(
            "scenario: {} valid, {} orphaned, {} required missing",
            docs.len(),
            orphans.len(),
            missing.len()
        );
    }
    pass_fail(clean)
}

/// One seeded workload execution, producing (seed, crashy?, validated stats).
type RunJob = Box<dyn FnOnce() -> (u64, bool, Result<RunStats, String>) + Send>;

/// The dynamic pass: drive the built-in leader workload over failure-free
/// and crashy patterns for a seed sweep and validate every run against the
/// §3.3 run conditions.
fn run_conditions(opts: &Opts) -> ExitCode {
    let n_plus_1 = opts.procs.max(2);
    let mut jobs: Vec<RunJob> = Vec::new();
    for seed in 0..opts.seeds {
        jobs.push(Box::new(move || {
            let pattern = FailurePattern::failure_free(n_plus_1);
            let outcome = leader_workload(pattern, seed);
            (
                seed,
                false,
                check_run_for(&outcome.run).map_err(|v| v.to_string()),
            )
        }));
        jobs.push(Box::new(move || {
            // Crash the highest-numbered process partway through.
            let pattern = FailurePattern::builder(n_plus_1)
                .crash(ProcessId(n_plus_1 - 1), Time(4))
                .build();
            let outcome = leader_workload(pattern, seed);
            (
                seed,
                true,
                check_run_for(&outcome.run).map_err(|v| v.to_string()),
            )
        }));
    }
    let results = run_batch(jobs, 4);

    let mut failures: Vec<(u64, bool, String)> = Vec::new();
    let mut decisions = 0u64;
    for (seed, crashy, res) in results {
        match res {
            Ok(stats) => decisions += stats.decisions as u64,
            Err(v) => failures.push((seed, crashy, v)),
        }
    }
    failures.sort();

    if opts.json {
        use upsilon_conform::diag::json_string;
        let mut out = String::from("{\n  \"violations\": [");
        for (i, (seed, crashy, v)) in failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"seed\": {seed}, \"crashy\": {crashy}, \"violation\": {}}}",
                json_string(v)
            ));
        }
        if !failures.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(&format!(
            "],\n  \"runs_checked\": {},\n  \"decisions\": {decisions}\n}}\n",
            opts.seeds * 2
        ));
        print!("{out}");
    } else {
        for (seed, crashy, v) in &failures {
            println!(
                "run-conditions: seed {seed} ({}): {v}",
                if *crashy { "crashy" } else { "failure-free" }
            );
        }
        println!(
            "run-conditions: {} runs checked ({} seeds x 2 patterns, n+1={n_plus_1}), \
             {} violations, {decisions} decisions observed",
            opts.seeds * 2,
            opts.seeds,
            failures.len()
        );
    }
    pass_fail(failures.is_empty())
}

/// The same consensus-like workload the validator's mutation tests drive:
/// every process writes its proposal, queries the detector, then spins
/// reading the designated leader's register until it can decide.
fn leader_workload(pattern: FailurePattern, seed: u64) -> upsilon_sim::SimOutcome<u64> {
    SimBuilder::<u64>::new(pattern)
        .oracle(DummyOracle::new(0u64))
        .adversary(SeededRandom::new(seed))
        .spawn_all(move |pid| {
            algo(move |ctx| async move {
                let me = pid.index() as u64;
                let mine = Key::new("reg").at(me);
                ctx.invoke(&mine, || RegisterObject::new(u64::MAX), RegOp::Write(me))
                    .await?;
                let leader = ctx.query_fd().await?;
                loop {
                    let resp = ctx
                        .invoke(
                            &Key::new("reg").at(leader),
                            || RegisterObject::new(u64::MAX),
                            RegOp::Read,
                        )
                        .await?;
                    if let RegResp::Value(v) = resp {
                        if v != u64::MAX {
                            ctx.decide(v).await?;
                            return Ok(());
                        }
                    }
                    ctx.yield_step().await?;
                }
            })
        })
        .run()
}

fn pass_fail(clean: bool) -> ExitCode {
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
