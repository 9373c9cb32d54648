//! Command-line front end: `cargo run -p upsilon-fuzz -- --rounds 4`.
//!
//! Runs one fuzzing campaign over a sample configuration, prints the
//! campaign counters and every (shrunk) counterexample token, and
//! optionally enforces expectations for CI: `--expect clean`,
//! `--expect violation`, and a `--min-execs-per-sec` floor. With
//! `--corpus DIR` the campaign seeds from — and saves new entries back
//! to — a persistent on-disk corpus.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use upsilon_check::{samples, CheckConfig};
use upsilon_fuzz::{fuzz, load_corpus, save_corpus_entry, FuzzConfig, FuzzReport};
use upsilon_sim::{FdValue, ProcessId};

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
    seed: u64,
    rounds: usize,
    execs: u64,
    chunk: u64,
    workers: usize,
    pct_share: u32,
    pct_depth: usize,
    mutate_share: u32,
    window: usize,
    max_violations: usize,
    no_shrink: bool,
    corpus: Option<PathBuf>,
    expect: Option<Expect>,
    min_execs_per_sec: f64,
    json: Option<String>,
}

const USAGE: &str = "usage: upsilon-fuzz [options]
  --config NAME        fig1 | fig1-mutating | fig2 | pinned | commit-sound | commit-buggy |
                       converge-offby1 | fig2-dropped (default fig1)
  --n N                number of processes (default 3)
  --depth N            schedule horizon per execution (default 24)
  --faults N           crash-injection budget (default 0; 1 for pinned/fig2)
  --k N                agreement parameter for commit/converge configs (default n-1)
  --seed N             campaign seed (default 0)
  --rounds N           mutation rounds (default 4)
  --execs N            executions per round (default 1024)
  --chunk N            executions per parallel job (default 256)
  --workers N          worker threads (default 0 = auto)
  --pct-share P        percent of fresh runs using the PCT scheduler (default 60)
  --pct-depth D        max PCT bug depth (default 3)
  --mutate-share P     percent of runs mutating a corpus entry (default 40)
  --window W           conflict-pair coverage window (default 4)
  --max-violations N   stop after N counterexamples (default 4)
  --no-shrink          skip counterexample minimization
  --corpus DIR         load seeds from and save new entries to DIR
  --expect WHAT        clean | violation; exit 1 when not met
  --min-execs-per-sec F  exit 1 when throughput falls below F
  --json PATH          write a machine-readable report
  --help               this text";

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        config: "fig1".to_string(),
        n: 3,
        depth: 24,
        faults: None,
        k: None,
        seed: 0,
        rounds: 4,
        execs: 1024,
        chunk: 256,
        workers: 0,
        pct_share: 60,
        pct_depth: 3,
        mutate_share: 40,
        window: 4,
        max_violations: 4,
        no_shrink: false,
        corpus: None,
        expect: None,
        min_execs_per_sec: 0.0,
        json: None,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        fn num<T: std::str::FromStr>(name: &str, v: String) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            v.parse().map_err(|e| format!("{name}: {e}"))
        }
        match flag.as_str() {
            "--config" => args.config = value("--config")?,
            "--n" => args.n = num("--n", value("--n")?)?,
            "--depth" => args.depth = num("--depth", value("--depth")?)?,
            "--faults" => args.faults = Some(num("--faults", value("--faults")?)?),
            "--k" => args.k = Some(num("--k", value("--k")?)?),
            "--seed" => args.seed = num("--seed", value("--seed")?)?,
            "--rounds" => args.rounds = num("--rounds", value("--rounds")?)?,
            "--execs" => args.execs = num("--execs", value("--execs")?)?,
            "--chunk" => args.chunk = num("--chunk", value("--chunk")?)?,
            "--workers" => args.workers = num("--workers", value("--workers")?)?,
            "--pct-share" => args.pct_share = num("--pct-share", value("--pct-share")?)?,
            "--pct-depth" => args.pct_depth = num("--pct-depth", value("--pct-depth")?)?,
            "--mutate-share" => {
                args.mutate_share = num("--mutate-share", value("--mutate-share")?)?
            }
            "--window" => args.window = num("--window", value("--window")?)?,
            "--max-violations" => {
                args.max_violations = num("--max-violations", value("--max-violations")?)?
            }
            "--no-shrink" => args.no_shrink = true,
            "--corpus" => args.corpus = Some(PathBuf::from(value("--corpus")?)),
            "--expect" => {
                args.expect = Some(match value("--expect")?.as_str() {
                    "clean" => Expect::Clean,
                    "violation" => Expect::Violation,
                    other => return Err(format!("--expect: unknown expectation {other:?}")),
                })
            }
            "--min-execs-per-sec" => {
                args.min_execs_per_sec = num("--min-execs-per-sec", value("--min-execs-per-sec")?)?
            }
            "--json" => args.json = Some(value("--json")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn tune<D: FdValue>(target: CheckConfig<D>, args: &Args) -> FuzzConfig<D> {
    let mut cfg = FuzzConfig::new(target)
        .seed(args.seed)
        .budget(args.rounds, args.execs)
        .workers(args.workers)
        .max_violations(args.max_violations);
    cfg.chunk = args.chunk;
    cfg.pct_share = args.pct_share;
    cfg.pct_depth = args.pct_depth;
    cfg.mutate_share = args.mutate_share;
    cfg.window = args.window;
    cfg.shrink = !args.no_shrink;
    cfg
}

fn run_campaign<D: FdValue>(
    args: &Args,
    target: FuzzConfig<D>,
    seeds: &mut Vec<String>,
) -> Result<FuzzReport, String> {
    target.validate().map_err(|e| e.to_string())?;
    let loaded = match &args.corpus {
        Some(dir) => load_corpus(dir).map_err(|e| format!("--corpus: {e}"))?,
        None => Vec::new(),
    };
    let report = fuzz(&target, &loaded);
    if let Some(dir) = &args.corpus {
        for tok in &report.corpus {
            save_corpus_entry(dir, tok).map_err(|e| format!("--corpus: {e}"))?;
        }
    }
    *seeds = loaded.iter().map(|t| t.encode()).collect();
    Ok(report)
}

/// Builds the `--config` sample from the flags and runs the campaign;
/// axes out of range come back as an error, before any sample is built.
fn campaign(args: &Args, seeds: &mut Vec<String>) -> Result<FuzzReport, String> {
    let n = args.n;
    let faults = args.faults.unwrap_or(0);
    let k = args.k.unwrap_or(n.saturating_sub(1));
    let agreement = match args.config.as_str() {
        "fig1" | "fig1-mutating" => None,
        "fig2" | "pinned" | "fig2-dropped" => Some(("f", args.faults.unwrap_or(1).max(1))),
        "commit-sound" | "commit-buggy" | "converge-offby1" => Some(("k", k)),
        other => return Err(format!("unknown config {other:?}")),
    };
    samples::shape(n, agreement).map_err(|e| e.to_string())?;
    match args.config.as_str() {
        "fig1" => run_campaign(
            args,
            tune(samples::fig1(n, args.depth, faults), args),
            seeds,
        ),
        "fig1-mutating" => run_campaign(
            args,
            tune(samples::fig1_mutating(n, args.depth, faults, 1), args),
            seeds,
        ),
        "fig2" => {
            let f = args.faults.unwrap_or(1).max(1);
            run_campaign(args, tune(samples::fig2(n, f, args.depth, f), args), seeds)
        }
        "pinned" => {
            let f = args.faults.unwrap_or(1).max(1);
            run_campaign(
                args,
                tune(samples::pinned_upsilon(n, f, args.depth), args),
                seeds,
            )
        }
        "commit-sound" => run_campaign(
            args,
            tune(samples::snapshot_commit(n, k, args.depth, false), args),
            seeds,
        ),
        "commit-buggy" => run_campaign(
            args,
            tune(samples::snapshot_commit(n, k, args.depth, true), args),
            seeds,
        ),
        "converge-offby1" => run_campaign(
            args,
            tune(samples::converge_offby1(n, k, args.depth, 1), args),
            seeds,
        ),
        "fig2-dropped" => {
            let f = args.faults.unwrap_or(1).max(1);
            run_campaign(
                args,
                tune(
                    samples::fig2_dropped_write(n, f, args.depth, 0, Some(ProcessId(n - 1))),
                    args,
                ),
                seeds,
            )
        }
        _ => unreachable!("matched above"),
    }
}

fn json_report(report: &FuzzReport, execs_per_sec: f64) -> String {
    let violations: Vec<String> = report
        .violations
        .iter()
        .map(|v| {
            format!(
                "{{\"spec\":{:?},\"token\":{:?},\"raw_token\":{:?},\"shrink_evals\":{},\"shrink_removed\":{},\"exec\":{}}}",
                v.spec,
                v.token.encode(),
                v.raw_token.encode(),
                v.shrink_evals,
                v.shrink_removed,
                v.exec
            )
        })
        .collect();
    let growth: Vec<String> = report
        .growth
        .iter()
        .map(|g| format!("{{\"execs\":{},\"coverage\":{}}}", g.execs, g.coverage))
        .collect();
    format!(
        "{{\n  \"execs\": {},\n  \"coverage\": {},\n  \"corpus\": {},\n  \"truncated\": {},\n  \"execs_per_sec\": {:.1},\n  \"growth\": [{}],\n  \"violations\": [{}]\n}}\n",
        report.execs,
        report.coverage_hashes.len(),
        report.corpus.len(),
        report.truncated,
        execs_per_sec,
        growth.join(","),
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
    let mut seeds = Vec::new();
    let report = match campaign(&args, &mut seeds) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    let execs_per_sec = report.execs as f64 / elapsed;

    println!(
        "config={} n={} depth={} seed={} rounds={} execs/round={}",
        args.config, args.n, args.depth, args.seed, args.rounds, args.execs
    );
    println!(
        "execs={} coverage={} corpus={} (+{} seeds) truncated={} execs/sec={:.0}",
        report.execs,
        report.coverage_hashes.len(),
        report.corpus.len(),
        seeds.len(),
        report.truncated,
        execs_per_sec
    );
    for g in &report.growth {
        println!("  growth: execs={} coverage={}", g.execs, g.coverage);
    }
    for v in &report.violations {
        println!("violation[{}] @exec {}: {}", v.spec, v.exec, v.message);
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
        if let Err(e) = std::fs::write(path, json_report(&report, execs_per_sec)) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::from(2);
        }
    }

    let mut failed = false;
    match args.expect {
        Some(Expect::Clean) if !report.ok() => {
            eprintln!("FAIL: expected a clean campaign, found a violation");
            failed = true;
        }
        Some(Expect::Violation) if report.ok() => {
            eprintln!("FAIL: expected a counterexample, campaign came back clean");
            failed = true;
        }
        _ => {}
    }
    if args.min_execs_per_sec > 0.0 && execs_per_sec < args.min_execs_per_sec {
        eprintln!(
            "FAIL: {:.0} execs/sec below the floor of {:.0}",
            execs_per_sec, args.min_execs_per_sec
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

    #[test]
    fn out_of_range_axes_are_errors_naming_the_axis() {
        for (flags, axis) in [
            (&["--n", "0"][..], "`n_plus_1`"),
            (
                &["--config", "fig2", "--n", "2", "--faults", "5"][..],
                "`f`",
            ),
            (&["--config", "commit-sound", "--k", "0"][..], "`k`"),
            (&["--config", "pinned", "--n", "1"][..], "`n_plus_1`"),
            (&["--config", "fig2-dropped", "--n", "0"][..], "`n_plus_1`"),
            (&["--faults", "3"][..], "`max_faults`"),
            (&["--execs", "0"][..], "`execs_per_round`"),
            (&["--chunk", "0"][..], "`chunk`"),
            (&["--window", "0"][..], "`window`"),
            (&["--depth", "0"][..], "`depth`"),
        ] {
            let argv = flags.iter().map(|f| f.to_string());
            let args = parse_args(argv).expect("valid flags");
            let err = campaign(&args, &mut Vec::new()).expect_err("out of range");
            assert!(err.contains(axis), "{flags:?}: {err}");
        }
    }
}
