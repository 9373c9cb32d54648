//! Command-line front end for swarm campaigns:
//! `cargo run -p upsilon-swarm -- run --mix converge-pair --instances 100000`.
//!
//! Subcommands:
//!
//! * `run` — pack and sweep a campaign (or a `--range` slice) in this
//!   process and print the aggregate report;
//! * `shard` — run one OS-level shard (`--shard I/T`) and write its
//!   record into a content-addressed `--store` directory;
//! * `campaign` — spawn `--shards` child `shard` processes of this same
//!   binary, wait for them, then merge the store;
//! * `merge` — merge the records already in a store.
//!
//! The CLI prints counters only — never wall-clock rates; timing lives in
//! `paperbench`'s `swarm-paper` workload, outside the workspace.

use std::path::PathBuf;
use std::process::ExitCode;
use upsilon_swarm::{
    campaign_shard_range, load_records, merge_records, mix_to_string, parse_mix, run_swarm,
    save_record, swarm_default_workers, ShardRecord, SwarmConfig, SwarmReport,
};

const USAGE: &str = "usage: upsilon-swarm <run|shard|campaign|merge> [options]
  --mix LIST          comma-separated name[:weight] templates
                      (echo, converge-pair, converge, converge-wide,
                       converge-crash, fig1, fig1-crash, fig2;
                       default converge-pair)
  --instances N       total campaign instances (default 1024)
  --seed N            campaign seed (default 0)
  --batch N           step quota per cell per sweep (default 64)
  --window N          max live cells per worker (0 = pack all up front;
                      streaming admission otherwise; default 0)
  --workers N         worker threads per process (default 0 = auto)
  --range LO..HI      run only campaign indices [LO, HI) (run)
  --shard I/T         this process is shard I of T (shard)
  --shards T          child shard processes to spawn (campaign, default 2)
  --store DIR         shard-record store directory (shard/campaign/merge)
  --expect-ok         exit 1 unless every instance finished clean
  --help              this text";

#[derive(Clone, Debug)]
struct Args {
    mix: Vec<(String, u32)>,
    instances: u64,
    seed: u64,
    batch: u64,
    window: u64,
    workers: usize,
    range: Option<(u64, u64)>,
    shard: Option<(u64, u64)>,
    shards: u64,
    store: Option<PathBuf>,
    expect_ok: bool,
}

fn parse_args(it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        mix: vec![("converge-pair".to_string(), 1)],
        instances: 1024,
        seed: 0,
        batch: 64,
        window: 0,
        workers: 0,
        range: None,
        shard: None,
        shards: 2,
        store: None,
        expect_ok: false,
    };
    let mut it = it.peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        fn num<T: std::str::FromStr>(name: &str, v: String) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            v.parse().map_err(|e| format!("{name}: {e}"))
        }
        fn pair(name: &str, v: &str, sep: &str) -> Result<(u64, u64), String> {
            let (a, b) = v
                .split_once(sep)
                .ok_or_else(|| format!("{name}: expected A{sep}B, got `{v}`"))?;
            Ok((
                a.parse().map_err(|_| format!("{name}: bad number `{a}`"))?,
                b.parse().map_err(|_| format!("{name}: bad number `{b}`"))?,
            ))
        }
        match flag.as_str() {
            "--mix" => args.mix = parse_mix(&value("--mix")?)?,
            "--instances" => args.instances = num("--instances", value("--instances")?)?,
            "--seed" => args.seed = num("--seed", value("--seed")?)?,
            "--batch" => args.batch = num("--batch", value("--batch")?)?,
            "--window" => args.window = num("--window", value("--window")?)?,
            "--workers" => args.workers = num("--workers", value("--workers")?)?,
            "--range" => args.range = Some(pair("--range", &value("--range")?, "..")?),
            "--shard" => args.shard = Some(pair("--shard", &value("--shard")?, "/")?),
            "--shards" => args.shards = num("--shards", value("--shards")?)?,
            "--store" => args.store = Some(PathBuf::from(value("--store")?)),
            "--expect-ok" => args.expect_ok = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn config(args: &Args) -> SwarmConfig {
    SwarmConfig {
        mix: args.mix.clone(),
        instances: args.instances,
        campaign_seed: args.seed,
        batch: args.batch.max(1),
        window: (args.window > 0).then_some(args.window as usize),
        workers: if args.workers == 0 {
            swarm_default_workers()
        } else {
            args.workers
        },
        range: args.range,
    }
}

fn print_report(prefix: &str, report: &SwarmReport) {
    println!(
        "{prefix}: instances={} finished={} spec_ok={} run_cond_ok={} decisions={}",
        report.instances, report.finished, report.spec_ok, report.run_cond_ok, report.decisions
    );
    println!(
        "{prefix}: steps={} fd_queries={} packed_bytes={} arena_bytes={} bytes/instance={}",
        report.total_steps,
        report.fd_queries,
        report.packed_bytes,
        report.arena_bytes,
        report.bytes_per_instance()
    );
}

fn verdict(args: &Args, report: &SwarmReport) -> Result<(), String> {
    if args.expect_ok && !report.all_ok() {
        return Err(format!(
            "expected every instance clean: {}/{} finished, {}/{} spec_ok, {}/{} run_cond_ok",
            report.finished,
            report.instances,
            report.spec_ok,
            report.instances,
            report.run_cond_ok,
            report.instances
        ));
    }
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let cfg = config(args);
    println!(
        "run: {} range={:?} batch={} workers={}",
        cfg.campaign_key(),
        cfg.effective_range(),
        cfg.batch,
        cfg.workers
    );
    let report = run_swarm(&cfg);
    print_report("run", &report);
    verdict(args, &report)
}

fn cmd_shard(args: &Args) -> Result<(), String> {
    let (index, total) = args.shard.ok_or("shard: --shard I/T is required")?;
    if total == 0 || index >= total {
        return Err(format!("shard: bad --shard {index}/{total}"));
    }
    let store = args.store.clone().ok_or("shard: --store DIR is required")?;
    let (lo, hi) = campaign_shard_range(args.instances, total, index);
    let mut cfg = config(args);
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
    let path = save_record(&store, &record).map_err(|e| format!("shard: --store: {e}"))?;
    println!("shard {index}/{total}: [{lo}, {hi}) -> {}", path.display());
    print_report(&format!("shard {index}/{total}"), &report);
    verdict(args, &report)
}

fn cmd_merge(args: &Args) -> Result<(), String> {
    let store = args.store.clone().ok_or("merge: --store DIR is required")?;
    let records = load_records(&store).map_err(|e| format!("merge: --store: {e}"))?;
    println!("merge: {} record(s) in {}", records.len(), store.display());
    let report = merge_records(&records)?;
    print_report("merge", &report);
    verdict(args, &report)
}

fn cmd_campaign(args: &Args) -> Result<(), String> {
    let store = args
        .store
        .clone()
        .ok_or("campaign: --store DIR is required")?;
    if args.shards == 0 {
        return Err("campaign: --shards must be positive".to_string());
    }
    let exe = std::env::current_exe().map_err(|e| format!("campaign: current_exe: {e}"))?;
    let mix = mix_to_string(&args.mix);
    let mut children = Vec::new();
    for index in 0..args.shards {
        let child = std::process::Command::new(&exe)
            .arg("shard")
            .args(["--mix", &mix])
            .args(["--instances", &args.instances.to_string()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--batch", &args.batch.to_string()])
            .args(["--window", &args.window.to_string()])
            .args(["--workers", &args.workers.to_string()])
            .args(["--shard", &format!("{index}/{}", args.shards)])
            .arg("--store")
            .arg(&store)
            .spawn()
            .map_err(|e| format!("campaign: spawning shard {index}: {e}"))?;
        children.push((index, child));
    }
    for (index, mut child) in children {
        let status = child
            .wait()
            .map_err(|e| format!("campaign: waiting on shard {index}: {e}"))?;
        if !status.success() {
            return Err(format!("campaign: shard {index} failed: {status}"));
        }
    }
    cmd_merge(args)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let sub = argv.next().unwrap_or_else(|| "--help".to_string());
    let args = match parse_args(argv) {
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
    let result = match sub.as_str() {
        "run" => cmd_run(&args),
        "shard" => cmd_shard(&args),
        "campaign" => cmd_campaign(&args),
        "merge" => cmd_merge(&args),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown subcommand {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
