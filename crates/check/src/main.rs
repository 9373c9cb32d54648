//! Command-line front end: `cargo run -p upsilon-check -- --depth 8`.
//!
//! Explores one of the sample configurations, prints the search counters
//! and every counterexample token, and optionally enforces expectations
//! (used by CI): `--expect clean`, `--expect violation`, and a
//! `--min-states-per-sec` floor.

use std::process::ExitCode;
use std::time::Instant;
use upsilon_check::{check, samples, CheckConfig, CheckReport};
use upsilon_sim::FdValue;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Expect {
    Clean,
    Violation,
}

#[derive(Clone, Debug)]
struct Args {
    config: String,
    n: usize,
    depth: usize,
    faults: Option<usize>,
    k: Option<usize>,
    naive: bool,
    no_turbo: bool,
    workers: usize,
    split: usize,
    max_violations: usize,
    no_shrink: bool,
    expect: Option<Expect>,
    min_states_per_sec: f64,
    json: Option<String>,
}

const USAGE: &str = "usage: upsilon-check [options]
  --config NAME        fig1 | fig1-mutating | fig2 | pinned | commit-sound | commit-buggy (default fig1)
  --n N                number of processes (default 3)
  --depth N            schedule-length bound (default 6)
  --faults N           crash-injection budget (default 0; 1 for pinned)
  --k N                agreement parameter for commit configs (default n-1)
  --naive              disable the sleep-set reduction
  --no-turbo           disable snapshot-resume execution (replay from root)
  --split N            fan subtrees out at path length N (default 0 = serial)
  --workers N          worker threads for --split (default 0 = auto)
  --max-violations N   stop after N counterexamples (default 16)
  --no-shrink          skip counterexample minimization
  --expect WHAT        clean | violation; exit 1 when not met
  --min-states-per-sec F  exit 1 when exploration throughput falls below F
  --json PATH          write a machine-readable report
  --help               this text";

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        config: "fig1".to_string(),
        n: 3,
        depth: 6,
        faults: None,
        k: None,
        naive: false,
        no_turbo: false,
        workers: 0,
        split: 0,
        max_violations: 16,
        no_shrink: false,
        expect: None,
        min_states_per_sec: 0.0,
        json: None,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--config" => args.config = value("--config")?,
            "--n" => args.n = value("--n")?.parse().map_err(|e| format!("--n: {e}"))?,
            "--depth" => {
                args.depth = value("--depth")?
                    .parse()
                    .map_err(|e| format!("--depth: {e}"))?
            }
            "--faults" => {
                args.faults = Some(
                    value("--faults")?
                        .parse()
                        .map_err(|e| format!("--faults: {e}"))?,
                )
            }
            "--k" => args.k = Some(value("--k")?.parse().map_err(|e| format!("--k: {e}"))?),
            "--naive" => args.naive = true,
            "--no-turbo" => args.no_turbo = true,
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--split" => {
                args.split = value("--split")?
                    .parse()
                    .map_err(|e| format!("--split: {e}"))?
            }
            "--max-violations" => {
                args.max_violations = value("--max-violations")?
                    .parse()
                    .map_err(|e| format!("--max-violations: {e}"))?
            }
            "--no-shrink" => args.no_shrink = true,
            "--expect" => {
                args.expect = Some(match value("--expect")?.as_str() {
                    "clean" => Expect::Clean,
                    "violation" => Expect::Violation,
                    other => return Err(format!("--expect: unknown expectation {other:?}")),
                })
            }
            "--min-states-per-sec" => {
                args.min_states_per_sec = value("--min-states-per-sec")?
                    .parse()
                    .map_err(|e| format!("--min-states-per-sec: {e}"))?
            }
            "--json" => args.json = Some(value("--json")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn tune<D: FdValue>(mut cfg: CheckConfig<D>, args: &Args) -> CheckConfig<D> {
    cfg.reduction = !args.naive;
    cfg.turbo = !args.no_turbo;
    cfg.workers = args.workers;
    cfg.split_depth = args.split;
    cfg.max_violations = args.max_violations;
    cfg.shrink = !args.no_shrink;
    cfg
}

/// Tunes a validated sample and explores it.
fn run<D: FdValue>(cfg: CheckConfig<D>, args: &Args) -> Result<CheckReport, String> {
    let cfg = tune(cfg, args);
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(check(&cfg))
}

/// Builds the `--config` sample from the flags and explores it; axes out
/// of range come back as an error, before any sample is built.
fn explore(args: &Args) -> Result<CheckReport, String> {
    let n = args.n;
    let faults = args.faults.unwrap_or(0);
    let k = args.k.unwrap_or(n.saturating_sub(1));
    let f = args.faults.unwrap_or(1).max(1);
    let agreement = match args.config.as_str() {
        "fig1" | "fig1-mutating" => None,
        "fig2" | "pinned" => Some(("f", f)),
        "commit-sound" | "commit-buggy" => Some(("k", k)),
        other => return Err(format!("unknown config {other:?}")),
    };
    samples::shape(n, agreement).map_err(|e| e.to_string())?;
    match args.config.as_str() {
        "fig1" => run(samples::fig1(n, args.depth, faults), args),
        "fig1-mutating" => run(samples::fig1_mutating(n, args.depth, faults, 1), args),
        "fig2" => run(samples::fig2(n, f, args.depth, f), args),
        "pinned" => run(samples::pinned_upsilon(n, f, args.depth), args),
        "commit-sound" => run(samples::snapshot_commit(n, k, args.depth, false), args),
        "commit-buggy" => run(samples::snapshot_commit(n, k, args.depth, true), args),
        _ => unreachable!("matched above"),
    }
}

fn json_report(report: &CheckReport, states_per_sec: f64) -> String {
    let violations: Vec<String> = report
        .violations
        .iter()
        .map(|v| {
            format!(
                "{{\"spec\":{:?},\"token\":{:?},\"raw_token\":{:?},\"shrink_evals\":{},\"shrink_removed\":{}}}",
                v.spec,
                v.token.encode(),
                v.raw_token.encode(),
                v.shrink_evals,
                v.shrink_removed
            )
        })
        .collect();
    format!(
        "{{\n  \"nodes\": {},\n  \"sleep_pruned\": {},\n  \"crash_nodes\": {},\n  \"fd_variant_nodes\": {},\n  \"depth_leaves\": {},\n  \"truncated\": {},\n  \"frontier_jobs\": {},\n  \"states_per_sec\": {:.1},\n  \"violations\": [{}]\n}}\n",
        report.stats.nodes,
        report.stats.sleep_pruned,
        report.stats.crash_nodes,
        report.stats.fd_variant_nodes,
        report.stats.depth_leaves,
        report.stats.truncated,
        report.frontier_jobs,
        states_per_sec,
        violations.join(",")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let started = Instant::now();
    let report = match explore(&args) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    let states_per_sec = report.stats.nodes as f64 / elapsed;

    println!(
        "config={} n={} depth={} reduction={}",
        args.config, args.n, args.depth, !args.naive
    );
    println!(
        "nodes={} sleep_pruned={} crash_nodes={} fd_variants={} depth_leaves={} truncated={} \
         frontier_jobs={} states/sec={:.0}",
        report.stats.nodes,
        report.stats.sleep_pruned,
        report.stats.crash_nodes,
        report.stats.fd_variant_nodes,
        report.stats.depth_leaves,
        report.stats.truncated,
        report.frontier_jobs,
        states_per_sec
    );
    for v in &report.violations {
        println!("violation[{}]: {}", v.spec, v.message);
        println!("  token     = {}", v.token);
        println!(
            "  raw_token = {} (shrunk by {} choices in {} evals)",
            v.raw_token, v.shrink_removed, v.shrink_evals
        );
    }
    if report.ok() {
        println!("no violations");
    }

    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, json_report(&report, states_per_sec)) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::from(2);
        }
    }

    let mut failed = false;
    match args.expect {
        Some(Expect::Clean) if !report.ok() => {
            eprintln!("FAIL: expected a clean exploration, found a violation");
            failed = true;
        }
        Some(Expect::Violation) if report.ok() => {
            eprintln!("FAIL: expected a counterexample, exploration came back clean");
            failed = true;
        }
        _ => {}
    }
    if args.min_states_per_sec > 0.0 && states_per_sec < args.min_states_per_sec {
        eprintln!(
            "FAIL: {:.0} states/sec below the floor of {:.0}",
            states_per_sec, args.min_states_per_sec
        );
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(flags: &[&str]) -> Args {
        parse_args(flags.iter().map(|f| f.to_string())).expect("valid flags")
    }

    #[test]
    fn reduction_flags_only_turn_reductions_on() {
        let plain = args(&[]);
        let cfg = tune(samples::fig1(3, 6, 0), &plain);
        assert!(!cfg.use_matrix);
        // A sample that opts in keeps the matrix without any flag.
        let cfg = tune(samples::pinned_upsilon(3, 1, 6), &plain);
        assert!(cfg.use_matrix);
        assert!(parse_args(["--bogus".to_string()]).is_err());
    }

    #[test]
    fn out_of_range_axes_are_errors_naming_the_axis() {
        for (flags, axis) in [
            (&["--n", "0"][..], "`n_plus_1`"),
            (&["--n", "1"][..], "`n_plus_1`"),
            (
                &["--config", "fig2", "--n", "2", "--faults", "5"][..],
                "`f`",
            ),
            (
                &["--config", "commit-sound", "--n", "3", "--k", "0"][..],
                "`k`",
            ),
            (
                &["--config", "commit-buggy", "--n", "3", "--k", "3"][..],
                "`k`",
            ),
            (&["--config", "pinned", "--n", "1"][..], "`n_plus_1`"),
            (&["--n", "3", "--faults", "3"][..], "`max_faults`"),
        ] {
            let err = explore(&args(flags)).expect_err("out of range");
            assert!(err.contains(axis), "{flags:?}: {err}");
        }
        let report = explore(&args(&["--n", "2", "--depth", "0"])).expect("depth 0 is a root");
        assert!(report.ok());
    }
}
