//! `upsilon-scenario`: the one command-line front door to the checker, the
//! fuzzer, the swarm executor and the scenario matrix. Run it with
//! `--help` for the full flag list.
//!
//! `check`, `fuzz` and `swarm` take a protocol and its axes in scenario
//! vocabulary, e.g. `check snapshot-commit n_plus_1=2 k=1 depth=9
//! buggy=true --expect violation`. The call becomes a one-cell
//! [`ScenarioDoc`], built by the schema's own parser and resolved by the
//! registry, so a command line names a configuration exactly as a
//! scenario file does and gets the same errors for a typo or an
//! out-of-range axis. `run`, `ab`, `validate` and `expand` take scenario
//! files; `experiments` takes experiment ids (E1–E16) and prints their
//! EXPERIMENTS.md tables.
//!
//! Exit codes: 0 when the run met every expectation, 1 when it ran and
//! missed one (or could not write its output), 2 when the command line is
//! wrong.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use upsilon_check::{CheckConfig, CounterExample};
use upsilon_core::table::Table;
use upsilon_fuzz::{load_corpus, save_corpus_entry};
use upsilon_scenario::experiment::tables::render;
use upsilon_scenario::matrix::{arm_summaries, run_matrix, to_jsonl, validate_cells, Verdict};
use upsilon_scenario::registry::check_protocols;
use upsilon_scenario::{
    load_all, load_file, resolve_check, resolve_fuzz, resolve_swarm, AnyCheck, AnyFuzz, Cell, Kind,
    Scalar, ScenarioDoc,
};
use upsilon_scenario_schema::FUZZ_KEYS;
use upsilon_sim::FdValue;
use upsilon_swarm::{
    campaign_shard_range, load_records, merge_records, mix_to_string, run_swarm, save_record,
    ShardRecord, SwarmConfig, SwarmReport,
};

/// The subcommands.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
enum Sub {
    Check,
    Fuzz,
    Swarm(Action),
    Run,
    Ab,
    Validate,
    Expand,
    Experiments,
    #[default]
    Help,
}

/// What `swarm` does with its campaign (see `cmd_swarm`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Action {
    Run,
    Shard,
    Campaign,
    Merge,
}

/// Every flag: its name, its value (empty for a switch), the subcommands
/// that take it and its `--help` line.
#[rustfmt::skip]
const FLAGS: &[(&str, &str, &str, &str)] = &[
    ("--expect", "pass|violation", "check fuzz swarm", "exit 1 unless the verdict is this"),
    ("--expect", "", "run ab", "exit 1 unless every cell meets its expect"),
    ("--json", "PATH", "check fuzz run ab", "write the report (run/ab: JSONL evidence)"),
    ("--workers", "N", "check fuzz swarm run ab", "worker threads (0 = auto)"),
    ("--split", "N", "check", "fan subtrees out at path length N (0 = serial)"),
    ("--naive", "", "check", "disable the sleep-set reduction"),
    ("--max-violations", "N", "check", "stop after N counterexamples (default 16)"),
    ("--no-shrink", "", "check", "skip counterexample minimization"),
    ("--min-states-per-sec", "F", "check", "exit 1 below F explored states/sec"),
    ("--corpus", "DIR", "fuzz", "load seeds from and save new entries to DIR"),
    ("--min-execs-per-sec", "F", "fuzz", "exit 1 below F executions/sec"),
    ("--range", "LO..HI", "swarm", "run only campaign indices [LO, HI)"),
    ("--shard", "I/T", "swarm", "run as shard I of T"),
    ("--shards", "T", "swarm", "child shard processes to spawn (default 2)"),
    ("--store", "DIR", "swarm", "shard-record store directory"),
];

/// A parsed command line. Nothing has run yet: `check`, `fuzz` and
/// `swarm` carry their one-cell scenario, already through the schema.
#[derive(Clone, Debug, Default)]
struct Cli {
    sub: Sub,
    cell: Option<(ScenarioDoc, Cell)>,
    /// Scenario files, or experiment ids for `experiments`.
    files: Vec<PathBuf>,
    /// `--expect` was given: a missed expectation fails the run.
    gate: bool,
    json: Option<PathBuf>,
    workers: usize,
    split: usize,
    naive: bool,
    max_violations: Option<usize>,
    no_shrink: bool,
    /// `--min-states-per-sec` (check) or `--min-execs-per-sec` (fuzz).
    min_rate: f64,
    corpus: Option<PathBuf>,
    range: Option<(u64, u64)>,
    shard: Option<(u64, u64)>,
    shards: Option<u64>,
    store: Option<PathBuf>,
}

impl Cli {
    /// The run-only check knobs, applied after the registry resolved the
    /// configuration.
    fn tune<D: FdValue>(&self, cfg: &mut CheckConfig<D>) {
        cfg.reduction = !self.naive;
        cfg.workers = self.workers;
        cfg.split_depth = self.split;
        cfg.max_violations = self.max_violations.unwrap_or(16);
        cfg.shrink = !self.no_shrink;
    }

    fn one_cell(&self) -> (&ScenarioDoc, &Cell) {
        let cell = self.cell.as_ref().expect("parse builds the cell of a run");
        (&cell.0, &cell.1)
    }
}

fn usage() -> String {
    let mut s = format!(
        "usage: upsilon-scenario <command> ...
  check PROTOCOL AXIS=VALUE... [flags]   exhaustive bounded exploration of one cell
  fuzz PROTOCOL AXIS=VALUE... [flags]    one coverage-guided campaign over one cell
  swarm run|shard|campaign|merge [AXIS=VALUE...] [flags]
                                         a packed campaign (axes: mix, instances,
                                         batch, window, seeds)
  run FILE [flags]                       run a scenario matrix, print its evidence
  ab FILE [flags]                        run, then compare the variant arms
  validate [FILE...]                     resolve every cell (default: scenarios/)
  expand FILE                            print a scenario's cells
  experiments [ID...]                    print EXPERIMENTS.md's tables (ID: E1..E16;
                                         default: all)

PROTOCOL: {}
AXIS: a scenario's [params] keys (n_plus_1, depth, f, k, max_faults, buggy, ...);
fuzz and swarm also take `seeds` (one seed); fuzz takes the [fuzz] keys
({}).

flags:
",
        check_protocols().collect::<Vec<_>>().join(" | "),
        FUZZ_KEYS.join(", ")
    );
    for (name, value, subs, help) in FLAGS {
        let head = format!("{name} {value}");
        s.push_str(&format!("  {head:<28} {help} [{subs}]\n"));
    }
    s + "  --help                       this text"
}

/// Why a command stopped early.
#[derive(Debug)]
enum Stop {
    /// The command line is wrong: exit 2.
    Usage(String),
    /// The command ran and failed, or could not write its output: exit 1.
    Failed(String),
}

impl From<io::Error> for Stop {
    fn from(e: io::Error) -> Self {
        Stop::Failed(format!("writing output: {e}"))
    }
}

fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e| format!("{flag}: {e}"))
}

fn pair(flag: &str, v: &str, sep: &str) -> Result<(u64, u64), String> {
    let (a, b) = v
        .split_once(sep)
        .ok_or_else(|| format!("{flag}: expected A{sep}B, got `{v}`"))?;
    Ok((number(flag, a)?, number(flag, b)?))
}

/// Parses an argument vector (without the program name). Never panics and
/// never starts a run.
fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut it = argv.iter();
    let word = argv.first().map_or("help", String::as_str);
    let sub = match it.next().map(String::as_str) {
        None | Some("help" | "--help" | "-h") => Sub::Help,
        Some("check") => Sub::Check,
        Some("fuzz") => Sub::Fuzz,
        Some("swarm") => Sub::Swarm(match it.next().map(String::as_str) {
            Some("run") => Action::Run,
            Some("shard") => Action::Shard,
            Some("campaign") => Action::Campaign,
            Some("merge") => Action::Merge,
            other => {
                return Err(format!(
                    "swarm needs an action (run | shard | campaign | merge), got {other:?}"
                ))
            }
        }),
        Some("run") => Sub::Run,
        Some("ab") => Sub::Ab,
        Some("validate") => Sub::Validate,
        Some("expand") => Sub::Expand,
        Some("experiments") => Sub::Experiments,
        Some(other) => return Err(format!("unknown command {other:?}")),
    };
    let mut cli = Cli {
        sub,
        ..Cli::default()
    };
    if sub == Sub::Help {
        return Ok(cli);
    }
    let kind = match sub {
        Sub::Check => Kind::Check,
        Sub::Fuzz => Kind::Fuzz,
        Sub::Swarm(_) => Kind::Swarm,
        _ => Kind::Experiment,
    };
    let one_cell = kind != Kind::Experiment;
    let mut protocol = None;
    let mut expect = "pass";
    let mut bindings = Vec::new();
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            return Ok(Cli::default());
        }
        if !arg.starts_with("--") {
            match arg.split_once('=') {
                _ if !one_cell => cli.files.push(PathBuf::from(arg)),
                Some((key, value)) => bindings.push((key, value)),
                None if kind != Kind::Swarm && protocol.is_none() => protocol = Some(arg.as_str()),
                None => return Err(format!("expected AXIS=VALUE, got `{arg}`")),
            }
            continue;
        }
        let (_, value, _, _) = FLAGS
            .iter()
            .find(|(name, _, subs, _)| name == arg && subs.split(' ').any(|s| s == word))
            .ok_or_else(|| match FLAGS.iter().any(|(name, ..)| name == arg) {
                true => format!("{arg} does not apply to `{word}`"),
                false => format!("unknown flag {arg:?}"),
            })?;
        let v = match *value {
            "" => "",
            _ => it.next().ok_or_else(|| format!("{arg} needs a value"))?,
        };
        match arg.as_str() {
            "--expect" => {
                cli.gate = true;
                if one_cell {
                    expect = v;
                }
            }
            "--json" => cli.json = Some(PathBuf::from(v)),
            "--workers" => cli.workers = number(arg, v)?,
            "--split" => cli.split = number(arg, v)?,
            "--naive" => cli.naive = true,
            "--max-violations" => cli.max_violations = Some(number(arg, v)?),
            "--no-shrink" => cli.no_shrink = true,
            "--min-states-per-sec" | "--min-execs-per-sec" => cli.min_rate = number(arg, v)?,
            "--corpus" => cli.corpus = Some(PathBuf::from(v)),
            "--range" => cli.range = Some(pair(arg, v, "..")?),
            "--shard" => cli.shard = Some(pair(arg, v, "/")?),
            "--shards" => cli.shards = Some(number(arg, v)?),
            "--store" => cli.store = Some(PathBuf::from(v)),
            _ => unreachable!("every FLAGS entry is handled"),
        }
    }
    if !one_cell {
        return Ok(cli);
    }
    // The swarm executor is the one protocol of its runner.
    if kind == Kind::Swarm {
        protocol = Some("swarm");
    }
    let protocol = protocol.ok_or_else(|| {
        format!(
            "`{word}` needs a protocol: {}",
            check_protocols().collect::<Vec<_>>().join(" | ")
        )
    })?;
    cli.cell = Some(one_cell_doc(kind, protocol, expect, &bindings)?);
    Ok(cli)
}

/// A command-line value as the scenario scalar it spells.
fn scalar(raw: &str) -> Scalar {
    match raw {
        "true" => Scalar::Bool(true),
        "false" => Scalar::Bool(false),
        _ => raw
            .parse()
            .map_or_else(|_| Scalar::Str(raw.to_string()), Scalar::Int),
    }
}

/// Writes the one-cell scenario a `check`/`fuzz`/`swarm` call describes
/// and reads it back through [`ScenarioDoc::parse`], so an unknown
/// protocol, a duplicated axis or a mistyped knob gets the schema's own
/// error. `seeds` is the scenario's (one) seed; for `fuzz` the
/// `[fuzz]` keys become the campaign knobs; every other binding is an
/// axis, which the registry checks when it resolves the cell.
fn one_cell_doc(
    kind: Kind,
    protocol: &str,
    expect: &str,
    bindings: &[(&str, &str)],
) -> Result<(ScenarioDoc, Cell), String> {
    let mut root = format!(
        "name = \"{kind}\"\nkind = \"{kind}\"\nprotocol = {}\nexpect = {}\n",
        Scalar::Str(protocol.to_string()),
        Scalar::Str(expect.to_string())
    );
    let mut params = String::from("[params]\n");
    let mut knobs = String::from("[fuzz]\n");
    for &(key, raw) in bindings {
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!("`{key}` is not an axis name"));
        }
        let line = format!("{key} = {}\n", scalar(raw));
        match key {
            "seeds" => root.push_str(&line),
            _ if kind == Kind::Fuzz && FUZZ_KEYS.contains(&key) => knobs.push_str(&line),
            _ => params.push_str(&line),
        }
    }
    if kind == Kind::Fuzz {
        params.push_str(&knobs);
    }
    let doc = ScenarioDoc::parse(&format!("{root}{params}")).map_err(|d| d.msg)?;
    let mut cells = doc.expand();
    if cells.len() != 1 || doc.seeds.len() != 1 {
        return Err(format!(
            "a command line binds one value per axis and one seed, not {} cells × {} seeds",
            cells.len(),
            doc.seeds.len()
        ));
    }
    Ok((doc, cells.remove(0)))
}

/// The one place a verdict meets its expectation: under `--expect`, a
/// missed one is a failure message.
fn missed(cli: &Cli, cell: &Cell, clean: bool) -> Option<String> {
    let verdict = Verdict::of(clean);
    (cli.gate && !verdict.matches(cell.expect))
        .then(|| format!("expected verdict `{}`, got `{verdict}`", cell.expect))
}

fn floor(cli: &Cli, rate: f64, unit: &str) -> Option<String> {
    (cli.min_rate > 0.0 && rate < cli.min_rate)
        .then(|| format!("{rate:.0} {unit} below the floor of {:.0}", cli.min_rate))
}

fn verdict(failures: impl IntoIterator<Item = Option<String>>) -> Result<(), Stop> {
    let failures: Vec<String> = failures.into_iter().flatten().collect();
    match failures.is_empty() {
        true => Ok(()),
        false => Err(Stop::Failed(failures.join("; "))),
    }
}

fn write_json(path: &Path, text: &str) -> Result<(), Stop> {
    std::fs::write(path, text).map_err(|e| Stop::Failed(format!("writing {}: {e}", path.display())))
}

/// Prints one counterexample and returns its `--json` object; `exec` is
/// the fuzz execution that found it.
fn counterexample(
    out: &mut dyn Write,
    v: &CounterExample,
    exec: Option<u64>,
) -> io::Result<String> {
    let at = exec.map_or(String::new(), |e| format!(" @exec {e}"));
    writeln!(out, "violation[{}]{at}: {}", v.spec, v.message)?;
    writeln!(out, "  token     = {}", v.token)?;
    writeln!(
        out,
        "  raw_token = {} (shrunk by {} choices in {} evals)",
        v.raw_token, v.shrink_removed, v.shrink_evals
    )?;
    Ok(format!(
        "{{\"spec\":{:?},\"token\":{:?},\"raw_token\":{:?},\"shrink_evals\":{},\"shrink_removed\":{}{}}}",
        v.spec,
        v.token.encode(),
        v.raw_token.encode(),
        v.shrink_evals,
        v.shrink_removed,
        exec.map_or(String::new(), |e| format!(",\"exec\":{e}"))
    ))
}

/// Prints a report's counters as one `key=value` line and, under
/// `--json`, writes them as the report object, its arrays last.
fn report(
    cli: &Cli,
    out: &mut dyn Write,
    fields: &[(&str, String)],
    arrays: &[(&str, Vec<String>)],
) -> Result<(), Stop> {
    let line: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
    writeln!(out, "{}", line.join(" "))?;
    let Some(path) = &cli.json else {
        return Ok(());
    };
    let fields: String = fields
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v},\n"))
        .collect();
    let arrays: Vec<String> = arrays
        .iter()
        .map(|(k, items)| format!("  \"{k}\": [{}]", items.join(",")))
        .collect();
    write_json(path, &format!("{{\n{fields}{}\n}}\n", arrays.join(",\n")))
}

fn cmd_check(cli: &Cli, out: &mut dyn Write) -> Result<(), Stop> {
    let (_, cell) = cli.one_cell();
    let mut cfg = resolve_check(cell).map_err(Stop::Usage)?;
    match &mut cfg {
        AnyCheck::Set(c) => cli.tune(c),
        AnyCheck::Unit(c) => cli.tune(c),
    }
    let started = Instant::now();
    let r = cfg.check();
    let rate = r.stats.nodes as f64 / started.elapsed().as_secs_f64().max(1e-9);
    writeln!(out, "{} reduction={}", cell.label(), !cli.naive)?;
    let violations = r
        .violations
        .iter()
        .map(|v| counterexample(out, v, None))
        .collect::<io::Result<Vec<_>>>()?;
    let s = &r.stats;
    report(
        cli,
        out,
        &[
            ("nodes", s.nodes.to_string()),
            ("sleep_pruned", s.sleep_pruned.to_string()),
            ("crash_nodes", s.crash_nodes.to_string()),
            ("fd_variant_nodes", s.fd_variant_nodes.to_string()),
            ("depth_leaves", s.depth_leaves.to_string()),
            ("truncated", s.truncated.to_string()),
            ("frontier_jobs", r.frontier_jobs.to_string()),
            ("states_per_sec", format!("{rate:.1}")),
        ],
        &[("violations", violations)],
    )?;
    let found = Verdict::try_from(&r).map_err(Stop::Failed)?;
    if r.ok() {
        writeln!(out, "no violations")?;
    }
    verdict([
        missed(cli, cell, found == Verdict::Pass),
        floor(cli, rate, "states/sec"),
    ])
}

fn cmd_fuzz(cli: &Cli, out: &mut dyn Write) -> Result<(), Stop> {
    let (doc, cell) = cli.one_cell();
    let seed = doc.seeds[0];
    let mut target = resolve_fuzz(doc, cell, seed).map_err(Stop::Usage)?;
    match &mut target {
        AnyFuzz::Set(c) => c.workers = cli.workers,
        AnyFuzz::Unit(c) => c.workers = cli.workers,
    }
    let corpus_err = |e: io::Error| Stop::Failed(format!("--corpus: {e}"));
    let started = Instant::now();
    let seeds = match &cli.corpus {
        Some(dir) => load_corpus(dir).map_err(corpus_err)?,
        None => Vec::new(),
    };
    let r = target.fuzz(&seeds);
    if let Some(dir) = &cli.corpus {
        for tok in &r.corpus {
            save_corpus_entry(dir, tok).map_err(corpus_err)?;
        }
    }
    let rate = r.execs as f64 / started.elapsed().as_secs_f64().max(1e-9);
    let knobs: String = doc
        .fuzz
        .iter()
        .flat_map(|f| &f.entries)
        .map(|(k, v)| format!(" {k}={v}"))
        .collect();
    writeln!(
        out,
        "{} seeds={seed}{knobs} corpus_seeds={}",
        cell.label(),
        seeds.len()
    )?;
    let growth = r
        .growth
        .iter()
        .map(|g| format!("{{\"execs\":{},\"coverage\":{}}}", g.execs, g.coverage))
        .collect();
    let violations = r
        .violations
        .iter()
        .map(|v| {
            let found = CounterExample {
                spec: v.spec.clone(),
                message: v.message.clone(),
                token: v.token.clone(),
                raw_token: v.raw_token.clone(),
                shrink_evals: v.shrink_evals,
                shrink_removed: v.shrink_removed,
            };
            counterexample(out, &found, Some(v.exec))
        })
        .collect::<io::Result<Vec<_>>>()?;
    report(
        cli,
        out,
        &[
            ("execs", r.execs.to_string()),
            ("coverage", r.coverage_hashes.len().to_string()),
            ("corpus", r.corpus.len().to_string()),
            ("truncated", r.truncated.to_string()),
            ("execs_per_sec", format!("{rate:.1}")),
        ],
        &[("growth", growth), ("violations", violations)],
    )?;
    if r.ok() {
        writeln!(out, "no violations")?;
    }
    verdict([missed(cli, cell, r.ok()), floor(cli, rate, "execs/sec")])
}

/// The swarm campaign the one cell resolves to, with the run-only knobs
/// (workers, range) applied.
fn swarm_config(cli: &Cli) -> Result<SwarmConfig, Stop> {
    let (doc, cell) = cli.one_cell();
    let mut cfg = resolve_swarm(doc, cell, doc.seeds[0]).map_err(Stop::Usage)?;
    cfg.workers = match cli.workers {
        0 => upsilon_sim::default_workers(),
        w => w,
    };
    cfg.range = cli.range;
    Ok(cfg)
}

fn print_swarm(out: &mut dyn Write, prefix: &str, r: &SwarmReport) -> io::Result<()> {
    writeln!(
        out,
        "{prefix}: instances={} finished={} spec_ok={} run_cond_ok={} decisions={}\n\
         {prefix}: steps={} fd_queries={} packed_bytes={} arena_bytes={} bytes/instance={}",
        r.instances,
        r.finished,
        r.spec_ok,
        r.run_cond_ok,
        r.decisions,
        r.total_steps,
        r.fd_queries,
        r.packed_bytes,
        r.arena_bytes,
        r.bytes_per_instance()
    )
}

fn store(cli: &Cli, action: &str) -> Result<PathBuf, Stop> {
    cli.store
        .clone()
        .ok_or_else(|| Stop::Usage(format!("swarm {action}: --store DIR is required")))
}

fn cmd_swarm(cli: &Cli, action: Action, out: &mut dyn Write) -> Result<(), Stop> {
    let (_, cell) = cli.one_cell();
    let report = match action {
        Action::Run => {
            let cfg = swarm_config(cli)?;
            writeln!(
                out,
                "run: {} range={:?} batch={} workers={}",
                cfg.campaign_key(),
                cfg.effective_range(),
                cfg.batch,
                cfg.workers
            )?;
            let report = run_swarm(&cfg);
            print_swarm(out, "run", &report)?;
            report
        }
        Action::Shard => {
            let (index, total) = cli
                .shard
                .ok_or_else(|| Stop::Usage("swarm shard: --shard I/T is required".into()))?;
            if total == 0 || index >= total {
                return Err(Stop::Usage(format!(
                    "swarm shard: bad --shard {index}/{total}"
                )));
            }
            let store = store(cli, "shard")?;
            let mut cfg = swarm_config(cli)?;
            let (lo, hi) = campaign_shard_range(cfg.instances, total, index);
            cfg.range = Some((lo, hi));
            let report = run_swarm(&cfg);
            let record = ShardRecord {
                mix: mix_to_string(&cfg.mix),
                instances: cfg.instances,
                campaign_seed: cfg.campaign_seed,
                shard_index: index,
                shards: total,
                lo,
                hi,
                batch: cfg.batch,
                workers: cfg.workers as u64,
                report,
            };
            let path = save_record(&store, &record)
                .map_err(|e| Stop::Failed(format!("swarm shard: --store: {e}")))?;
            writeln!(
                out,
                "shard {index}/{total}: [{lo}, {hi}) -> {}",
                path.display()
            )?;
            print_swarm(out, &format!("shard {index}/{total}"), &report)?;
            report
        }
        Action::Campaign => {
            let store = store(cli, "campaign")?;
            let shards = cli.shards.unwrap_or(2);
            if shards == 0 {
                return Err(Stop::Usage(
                    "swarm campaign: --shards must be positive".into(),
                ));
            }
            let cfg = swarm_config(cli)?;
            spawn_shards(cli, shards, &cfg, &store)?;
            merge(&store, out)?
        }
        Action::Merge => merge(&store(cli, "merge")?, out)?,
    };
    verdict([missed(cli, cell, report.all_ok())])
}

/// Runs `--shards` child `swarm shard` processes of this binary over the
/// resolved campaign. Every child that started is waited for, so none
/// outlives the campaign, and every shard that failed is named in the
/// error. A failed spawn starts no further shard.
fn spawn_shards(cli: &Cli, shards: u64, cfg: &SwarmConfig, store: &Path) -> Result<(), Stop> {
    let failed = |what: String| Stop::Failed(format!("swarm campaign: {what}"));
    let exe = std::env::current_exe().map_err(|e| failed(format!("current_exe: {e}")))?;
    let mut children = Vec::new();
    let mut spawn_error = None;
    for index in 0..shards {
        let spawned = std::process::Command::new(&exe)
            .args(["swarm", "shard"])
            .arg(format!("mix={}", mix_to_string(&cfg.mix)))
            .arg(format!("instances={}", cfg.instances))
            .arg(format!("seeds={}", cfg.campaign_seed))
            .arg(format!("batch={}", cfg.batch))
            .arg(format!("window={}", cfg.window.unwrap_or(0)))
            .args(["--workers", &cli.workers.to_string()])
            .args(["--shard", &format!("{index}/{shards}")])
            .arg("--store")
            .arg(store)
            .spawn();
        match spawned {
            Ok(child) => children.push((index, child)),
            Err(e) => {
                spawn_error = Some(format!("spawning shard {index}: {e}"));
                break;
            }
        }
    }
    let mut failures = Vec::new();
    for (index, mut child) in children {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => failures.push(format!("shard {index} failed: {status}")),
            Err(e) => failures.push(format!("waiting on shard {index}: {e}")),
        }
    }
    failures.extend(spawn_error);
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failed(failures.join("; ")))
    }
}

fn merge(store: &Path, out: &mut dyn Write) -> Result<SwarmReport, Stop> {
    let records =
        load_records(store).map_err(|e| Stop::Failed(format!("swarm merge: --store: {e}")))?;
    writeln!(
        out,
        "merge: {} record(s) in {}",
        records.len(),
        store.display()
    )?;
    let report = merge_records(&records).map_err(Stop::Failed)?;
    print_swarm(out, "merge", &report)?;
    Ok(report)
}

fn one_file(files: &[PathBuf]) -> Result<(PathBuf, ScenarioDoc), Stop> {
    match files {
        [path] => Ok((path.clone(), load_file(path).map_err(Stop::Failed)?)),
        _ => Err(Stop::Usage("expected exactly one scenario file".into())),
    }
}

fn cmd_validate(files: &[PathBuf], out: &mut dyn Write) -> Result<(), Stop> {
    let docs = if files.is_empty() {
        load_all().map_err(Stop::Failed)?
    } else {
        files
            .iter()
            .map(|path| Ok((path.clone(), load_file(path).map_err(Stop::Failed)?)))
            .collect::<Result<Vec<_>, Stop>>()?
    };
    let mut failures = Vec::new();
    for (path, doc) in &docs {
        match validate_cells(doc) {
            Ok(cells) => {
                let s = doc.summary();
                writeln!(
                    out,
                    "ok {} ({}, {} arm{}, {} cells, {} runs) — {}",
                    doc.name,
                    doc.kind,
                    s.arms,
                    if s.arms == 1 { "" } else { "s" },
                    cells.len(),
                    s.total_runs,
                    path.display()
                )?;
            }
            Err(e) => failures.push(Some(format!("{}: {e}", path.display()))),
        }
    }
    verdict(failures)
}

fn cmd_expand(files: &[PathBuf], out: &mut dyn Write) -> Result<(), Stop> {
    let (path, doc) = one_file(files)?;
    let cells =
        validate_cells(&doc).map_err(|e| Stop::Failed(format!("{}: {e}", path.display())))?;
    let s = doc.summary();
    writeln!(
        out,
        "{}: {} cells × {} seeds × {} repeats = {} runs",
        doc.name,
        cells.len(),
        s.seeds,
        s.repeats,
        s.total_runs
    )?;
    for (i, cell) in cells.iter().enumerate() {
        writeln!(out, "  [{i}] {} (expect {})", cell.label(), cell.expect)?;
    }
    Ok(())
}

fn cmd_experiments(ids: &[PathBuf], out: &mut dyn Write) -> Result<(), Stop> {
    let ids: Vec<_> = ids.iter().map(|id| id.to_string_lossy()).collect();
    Ok(write!(out, "{}", render(&ids).map_err(Stop::Usage)?)?)
}

fn cmd_run(cli: &Cli, out: &mut dyn Write) -> Result<(), Stop> {
    let (path, doc) = one_file(&cli.files)?;
    let started = Instant::now();
    let report = run_matrix(&doc, cli.workers)
        .map_err(|e| Stop::Failed(format!("{}: {e}", path.display())))?;
    let elapsed = started.elapsed().as_secs_f64();
    if let Some(json) = &cli.json {
        write_json(json, &to_jsonl(&report.records))?;
    }
    let mut t = Table::new(
        format!("scenario {} — evidence", report.scenario),
        &["cell", "seed", "verdict", "expected", "states", "token"],
    );
    for r in &report.records {
        t.row([
            format!("{}/{}", r.arm, r.cell),
            r.seed.to_string(),
            r.verdict.to_string(),
            r.expected.to_string(),
            r.out.states.to_string(),
            r.out.token.clone().unwrap_or_else(|| "-".into()),
        ]);
    }
    writeln!(out, "{t}")?;
    if cli.sub == Sub::Ab {
        let mut t = Table::new(
            format!("scenario {} — A/B arms", report.scenario),
            &["arm", "runs", "matched", "violations", "mean states"],
        );
        for a in arm_summaries(&report.records) {
            t.row([
                a.arm.clone(),
                a.runs.to_string(),
                format!("{}/{}", a.matched, a.runs),
                a.violations.to_string(),
                format!("{:.1}", a.mean_states),
            ]);
        }
        writeln!(out, "{t}")?;
    }
    let states: u64 = report.records.iter().map(|r| r.out.states).sum();
    warn(&format!(
        "{} runs, {} states/execs in {:.2}s ({:.0}/s), deterministic = {}, ok = {}",
        report.records.len(),
        states,
        elapsed,
        states as f64 / elapsed.max(1e-9),
        report.deterministic,
        report.ok
    ));
    verdict([(cli.gate && !report.ok)
        .then(|| "a cell missed its expected verdict, or a repeat disagreed".to_string())])
}

fn execute(cli: &Cli, out: &mut dyn Write) -> Result<(), Stop> {
    match cli.sub {
        Sub::Check => cmd_check(cli, out),
        Sub::Fuzz => cmd_fuzz(cli, out),
        Sub::Swarm(action) => cmd_swarm(cli, action, out),
        Sub::Run | Sub::Ab => cmd_run(cli, out),
        Sub::Validate => cmd_validate(&cli.files, out),
        Sub::Expand => cmd_expand(&cli.files, out),
        Sub::Experiments => cmd_experiments(&cli.files, out),
        Sub::Help => Ok(writeln!(out, "{}", usage())?),
    }
}

/// Writes to stderr, ignoring a closed stream.
fn warn(msg: &str) {
    let _ = writeln!(io::stderr(), "{msg}");
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args_os()
        .skip(1)
        .map(|a| a.to_string_lossy().into_owned())
        .collect();
    let mut out = io::stdout().lock();
    let run = parse(&argv).map_err(Stop::Usage);
    match run.and_then(|cli| execute(&cli, &mut out).and_then(|()| Ok(out.flush()?))) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Stop::Usage(msg)) => {
            warn(&format!("error: {msg}\n(see `upsilon-scenario --help`)"));
            ExitCode::from(2)
        }
        Err(Stop::Failed(msg)) => {
            warn(&format!("FAIL: {msg}"));
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn argv(words: &str) -> Vec<String> {
        words.split_whitespace().map(str::to_string).collect()
    }

    fn cli(words: &str) -> Cli {
        parse(&argv(words)).unwrap_or_else(|e| panic!("{words}: {e}"))
    }

    /// Resolves a parsed `check`/`fuzz` call without running it.
    fn resolve(cli: &Cli) -> Result<(), String> {
        let (doc, cell) = cli.cell.as_ref().expect("a one-cell command");
        match cli.sub {
            Sub::Check => resolve_check(cell).map(drop),
            Sub::Fuzz => resolve_fuzz(doc, cell, doc.seeds[0]).map(drop),
            _ => resolve_swarm(doc, cell, doc.seeds[0]).map(drop),
        }
    }

    #[test]
    fn reduction_flags_only_turn_reductions_on() {
        let tuned = |words: &str| {
            let cli = cli(words);
            let Ok(AnyCheck::Set(mut cfg)) = resolve_check(cli.one_cell().1) else {
                panic!("{words}: a ProcessSet sample")
            };
            cli.tune(&mut cfg);
            cfg
        };
        assert!(!tuned("check fig1 n_plus_1=3 depth=6").use_matrix);
        // A sample that opts in keeps the matrix without any flag.
        assert!(tuned("check pinned-upsilon n_plus_1=3 f=1 depth=6").use_matrix);
        let naive = tuned("check fig1 n_plus_1=3 depth=6 --naive");
        assert!(!naive.reduction && naive.max_violations == 16);
        for flag in ["--bogus", "--no-turbo"] {
            let err = parse(&argv(&format!("check fig1 n_plus_1=3 depth=6 {flag}"))).unwrap_err();
            assert!(err.contains("unknown flag"), "{flag}: {err}");
        }
        assert!(parse(&argv("fuzz fig1 n_plus_1=3 depth=6 --split 2")).is_err());
    }

    #[test]
    fn out_of_range_axes_are_errors_naming_the_axis() {
        for (words, axis) in [
            ("check fig1 n_plus_1=0 depth=6", "`n_plus_1`"),
            ("check fig1 n_plus_1=1 depth=6", "`n_plus_1`"),
            ("check fig2 n_plus_1=2 f=5 depth=6", "`f`"),
            ("check snapshot-commit n_plus_1=3 k=0 depth=6", "`k`"),
            (
                "check snapshot-commit n_plus_1=3 k=3 depth=6 buggy=true",
                "`k`",
            ),
            ("check pinned-upsilon n_plus_1=1 f=1 depth=3", "`n_plus_1`"),
            ("check fig1 n_plus_1=3 depth=6 max_faults=3", "`max_faults`"),
            ("check fig2 n_plus_1=3 depth=6", "`f`"),
            ("check fig1 n_plus_1=3 depth=6 faults=1", "`faults`"),
            ("check fig1 n_plus_1=3 depth=-1", "`depth`"),
            ("fuzz fig1 n_plus_1=0 depth=24", "`n_plus_1`"),
            ("fuzz fig2 n_plus_1=2 f=5 depth=24", "`f`"),
            ("fuzz snapshot-commit n_plus_1=3 k=0 depth=24", "`k`"),
            ("fuzz pinned-upsilon n_plus_1=1 f=1 depth=24", "`n_plus_1`"),
            ("fuzz fig2-dropped n_plus_1=0 f=1 depth=24", "`n_plus_1`"),
            ("fuzz fig1 n_plus_1=3 depth=24 max_faults=3", "`max_faults`"),
            (
                "fuzz fig1 n_plus_1=3 depth=24 execs_per_round=0",
                "`execs_per_round`",
            ),
            ("fuzz fig1 n_plus_1=3 depth=24 chunk=0", "`chunk`"),
            ("fuzz fig1 n_plus_1=3 depth=24 window=0", "`window`"),
            ("fuzz fig1 n_plus_1=3 depth=0", "`depth`"),
            ("fuzz fig1 n_plus_1=3 depth=24 shrink=1", "`shrink`"),
            ("swarm run instances=-1", "`instances`"),
        ] {
            let err = resolve(&cli(words)).expect_err(words);
            assert!(err.contains(axis), "{words}: {err}");
        }
        for (words, what) in [
            ("check fgi1 n_plus_1=3 depth=6", "unknown protocol"),
            ("check e9-baseline crashes=0", "not a check protocol"),
            ("check fig1 n_plus_1=3 depth=6 depth=7", "duplicate"),
            ("check fig1 n_plus_1=3 depth=4..6", "one value per axis"),
            ("fuzz fig1 n_plus_1=3 depth=24 seeds=0..2", "one seed"),
            (
                "check fig1 n_plus_1=3 depth=6 --expect clean",
                "unknown expect",
            ),
            ("swarm run mix=warble", "warble"),
        ] {
            let err = parse(&argv(words))
                .and_then(|c| resolve(&c))
                .expect_err(words);
            assert!(err.contains(what), "{words}: {err}");
        }
        // Depth 0 explores the root alone.
        let cli = cli("check fig1 n_plus_1=2 depth=0");
        cmd_check(&cli, &mut Vec::new()).expect("depth 0 is a clean root");
    }

    #[test]
    fn a_call_is_the_cell_its_scenario_file_would_expand_to() {
        let fuzz = cli(
            "fuzz snapshot-commit n_plus_1=2 k=1 depth=12 buggy=true seeds=1 rounds=1 \
             execs_per_round=256 --expect violation",
        );
        let file = upsilon_scenario::load("fuzz-commit").expect("checked-in scenario");
        let (doc, cell) = fuzz.cell.as_ref().expect("one cell");
        assert_eq!(doc.seeds, file.seeds);
        assert_eq!(doc.fuzz, file.fuzz);
        assert_eq!(cell, &file.expand()[0]);
        assert!(fuzz.gate);
        let swarm = cli("swarm campaign mix=echo:2,fig1:1 instances=10 --shards 3");
        let (doc, cell) = swarm.cell.as_ref().expect("one cell");
        assert_eq!(cell.protocol, "swarm");
        assert_eq!(resolve_swarm(doc, cell, 0).expect("resolves").instances, 10);
        assert_eq!(swarm.shards, Some(3));
    }

    #[test]
    fn help_lists_every_check_protocol_and_flag() {
        assert_eq!(cli("").sub, Sub::Help);
        assert_eq!(cli("check fig1 --help").sub, Sub::Help);
        let text = usage();
        for p in check_protocols() {
            assert!(text.contains(p), "{p}");
        }
        for (name, ..) in FLAGS {
            assert!(text.contains(name), "{name}");
        }
    }

    /// Words the parser knows besides the flags, so random vectors reach
    /// deep branches.
    #[rustfmt::skip]
    const WORDS: &[&str] = &[
        "check", "fuzz", "swarm", "run", "ab", "validate", "expand", "experiments", "shard",
        "campaign", "merge",
        "fig1", "fig2", "snapshot-commit", "n_plus_1=3", "depth=2", "f=1", "k=1", "seeds=4",
        "rounds=1", "mix=echo", "window=0", "x=", "=1", "a b=c", "pass", "violation", "1/2",
        "0..3", "-1", "1e9", "--", "-", "\"", "\n", "[fuzz]", "depth=\"1\"\nkind=1", "é=1",
    ];

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

        #[test]
        fn parse_never_panics_on_arbitrary_argv(
            words in proptest::collection::vec(
                (0usize..WORDS.len() + FLAGS.len() + 4, proptest::collection::vec(0u8..=255, 0..8)),
                0..8,
            )
        ) {
            let argv: Vec<String> = words
                .iter()
                .map(|(i, bytes)| match WORDS.iter().chain(FLAGS.iter().map(|f| &f.0)).nth(*i) {
                    Some(w) => w.to_string(),
                    None => String::from_utf8_lossy(bytes).into_owned(),
                })
                .collect();
            if let Ok(cli) = parse(&argv) {
                if cli.cell.is_some() {
                    let _ = resolve(&cli);
                }
            }
        }
    }
}
