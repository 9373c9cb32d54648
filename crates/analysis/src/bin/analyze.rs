//! `analyze`: one entry point for the two static passes.
//!
//! ```text
//! cargo run -p upsilon-analysis --bin analyze -- conform [--json]
//! cargo run -p upsilon-analysis --bin analyze -- commute [--json | --emit]
//! ```
//!
//! `conform` runs the determinism rules over the workspace sources plus the
//! §3.1 model rule C4 over the algorithm crates; `commute` audits the shared
//! objects' `access()` classifications for DPOR soundness. Both share one
//! path: load the allowlist (`--allowlist`, default
//! `crates/analysis/<mode>-allowlist.txt`; a missing file counts as empty),
//! scan, print the human or `--json` report, and exit 0 when clean, 1 on
//! findings or on an allowlist entry that suppresses no finding, 2 on usage
//! or I/O errors. `commute --emit` instead prints the generated
//! `crates/sim/src/commute.rs`, and refuses (exit 1, nothing on stdout)
//! when the audit fails.

use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use upsilon_commute::known_rule_ids as known_commute;
use upsilon_conform::{known_rule_ids as known_conform, Allowlist};

fn usage() -> ! {
    eprintln!(
        "usage: analyze <conform|commute> [options]\n\
         \n\
         options:\n\
         \x20 --root <dir>        workspace root (default .)\n\
         \x20 --json              machine-readable output\n\
         \x20 --allowlist <file>  audited-exception file\n\
         \x20                     (default crates/analysis/<mode>-allowlist.txt)\n\
         \x20 --emit              commute only: print the generated crates/sim/src/commute.rs"
    );
    std::process::exit(2);
}

#[derive(Default)]
struct Opts {
    root: PathBuf,
    allowlist: Option<PathBuf>,
    json: bool,
    emit: bool,
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mode = args.next().unwrap_or_else(|| usage());

    let mut opts = Opts {
        root: PathBuf::from("."),
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
        "conform" => run_static(&opts, "conform", &known_conform(), conform_scan),
        "commute" => run_static(&opts, "commute", &known_commute(), commute_scan),
        "--help" | "-h" => usage(),
        other => {
            eprintln!("unknown mode: {other}");
            usage();
        }
    }
}

/// A static pass's scan, rendered for the shared print-and-exit path.
struct Scan {
    /// Unsuppressed findings, one human-readable line each.
    findings: Vec<String>,
    /// Human lines printed after the findings: per-item rows, then the
    /// summary line.
    rows: Vec<String>,
    /// The deterministic JSON report.
    json: String,
    /// The generated module `--emit` prints (commute only).
    generated: Option<String>,
    /// `(rule id, file)` of every suppressed finding.
    suppressed: Vec<(&'static str, String)>,
}

/// The path every static pass shares: load the allowlist (a missing file
/// counts as empty), scan, then print and exit 0/1/2. An allowlist entry
/// that suppresses no finding fails the pass.
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
    let stale = allow.stale(scan.suppressed.iter().map(|(r, f)| (*r, f.as_str())));
    for entry in &stale {
        eprintln!("analyze {name}: {entry} ({})", path.display());
    }
    let clean = scan.findings.is_empty() && stale.is_empty();
    if opts.emit {
        // A generated module is only ever produced from a clean audit: an
        // unjustified classification would otherwise be baked into the
        // explorer's tables.
        if !clean {
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
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
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
        "conform: {} files scanned, {} algorithm files, {} findings, {} allowlisted, \
         {} routines bounded",
        r.files.len(),
        r.algorithm_files,
        r.findings.len(),
        r.suppressed.len(),
        r.bounds.iter().filter(|b| b.bound.is_some()).count()
    ));
    Ok(Scan {
        findings: r.findings.iter().map(ToString::to_string).collect(),
        rows,
        json: r.to_json(),
        generated: None,
        suppressed: r
            .suppressed
            .iter()
            .map(|f| (f.rule.id(), f.file.clone()))
            .collect(),
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
        findings: r.findings.iter().map(ToString::to_string).collect(),
        rows: vec![summary],
        json: r.to_json(),
        generated: Some(upsilon_commute::emit::render(&r.impls)),
        suppressed: r
            .suppressed
            .iter()
            .map(|f| (f.rule.id(), f.file.clone()))
            .collect(),
    })
}
