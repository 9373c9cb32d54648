//! The paper-workload benchmark: one command that runs a workload through
//! the public APIs of the checker, the fuzzer, the swarm executor and the
//! Fig. 3 extraction harness, checks every verdict against its known
//! answer, and prints its metrics as one JSON line. Timings are scaled to
//! an undisturbed host by a fixed reference computation timed around every
//! round (see [`Reference`]). Times are therefore in host-normalised
//! seconds (`host_s`): wall seconds on a host running the reference at
//! its nominal speed.
//!
//! ```text
//! cargo run --release --manifest-path paperbench/Cargo.toml -- \
//!     --workload check-paper --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` runs each round untraced and then traced, checks that both
//! report the same deterministic counts, times each layer, and prints the
//! per-layer metrics. See `README.md` beside this file.

mod check_paper;
mod extract_fig3;
mod fuzz_paper;
mod report;
mod swarm_paper;
mod trace;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use report::{json_str, median, Metric};
use trace::Tracer;

/// Workload names, as `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["check-paper", "fuzz-paper", "swarm-paper", "extract-fig3"];

/// About the reference computation's duration (1.2 ms) when the 2-core
/// x86-64 host the benchmark was tuned on is quiet. Timings are scaled by
/// this over the reference's duration measured around them, to the power
/// `REFERENCE_ELASTICITY` (see [`Reference`]).
const REFERENCE_NOMINAL_S: f64 = 1.2e-3;

/// How much more than the reference a round slows when neighbours load
/// the host, as an exponent: on the host the benchmark was tuned on, a
/// neighbour that slowed the reference by a factor `s` slowed rounds of
/// every workload by about `s` to the power 1.4–2.1 (a tight loop is
/// spared much of the interference that slows a large program); this is
/// the middle of that range. Timings are scaled by
/// `(REFERENCE_NOMINAL_S / reference)` to this power.
const REFERENCE_ELASTICITY: f64 = 1.75;

/// Words in the reference computation's table (256 KiB, so its cost does
/// not hang on where one process's pages land in a shared cache) and steps
/// it takes over them.
const REFERENCE_WORDS: usize = 32 * 1024;
const REFERENCE_STEPS: u32 = 60_000;
/// Words in the reference computation's log (384 KiB), written round and
/// round.
const REFERENCE_LOG_WORDS: usize = 48 * 1024;

/// Worker count of the pooled workloads, `fuzz-paper` and `swarm-paper`.
const POOL_WORKERS: usize = 2;

/// Set-ups timed together per sample, so one sample outlasts the clock's
/// resolution even where set-up is nearly empty.
const SETUP_BATCH: usize = 8;

/// Fewest rounds a trace-1 run makes, each once untraced and once traced.
const TRACED_ROUNDS_MIN: u64 = 3;

/// The end-to-end metrics, in output order: `(name, unit)`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("verdict_s", "host_s"),
    ("states_per_sec", "1/host_s"),
    ("execs_per_sec", "1/host_s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, in output order: `(name, unit)`. A workload
/// that does not exercise a layer reports it as 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("scenario.resolve_s", "s"),
    ("check.nodes", "count"),
    ("check.sleep_pruned", "count"),
    ("check.dedup_pruned", "count"),
    ("check.symmetry_pruned", "count"),
    ("check.prune_yield", "ratio"),
    ("check.self_s", "s"),
    ("check.menu_calls", "count"),
    ("check.menu_s", "s"),
    ("check.world_builds", "count"),
    ("check.world_build_s", "s"),
    ("check.shrink_evals", "count"),
    ("check.shrink_s", "s"),
    ("check.replay_ns", "ns"),
    ("analysis.spec_calls", "count"),
    ("analysis.spec_s", "s"),
    ("analysis.spec_ns", "ns"),
    ("analysis.k-set-agreement.spec_ns", "ns"),
    ("analysis.run-conditions.spec_ns", "ns"),
    ("sim.session.step_ns", "ns"),
    ("sim.session.save_ns", "ns"),
    ("sim.session.restore_ns", "ns"),
    ("sim.fingerprint_ns", "ns"),
    ("sim.opsig_ns", "ns"),
    ("sim.trace_full_ns", "ns"),
    ("sim.run_step_ns", "ns"),
    ("sim.coverage_ns", "ns"),
    ("sim.pool.parallel_efficiency", "ratio"),
    ("sim.pool.idle_s", "s"),
    ("fuzz.execs", "count"),
    ("fuzz.corpus", "count"),
    ("fuzz.admit_ratio", "ratio"),
    ("fuzz.self_s", "s"),
    ("fuzz.coverage", "count"),
    ("fuzz.counterexample_s", "s"),
    ("swarm.pack_ns", "ns"),
    ("swarm.step_ns", "ns"),
    ("swarm.fold_ns", "ns"),
    ("swarm.total_steps", "count"),
    ("swarm.fd_queries", "count"),
    ("swarm.arena_bytes", "bytes"),
    ("swarm.decisions_per_sec", "1/s"),
    ("swarm.bytes_per_instance", "bytes"),
    ("extract.steps", "count"),
    ("extract.publishes", "count"),
    ("extract.run_s", "s"),
    ("fd.upsilon_check_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.model_error", "ratio"),
];

/// One round of a workload: its fixed job list, run once.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Wall time from the first job's start to the last verdict.
    pub verdict_s: f64,
    /// Mean duration of the reference computations run just before and
    /// just after the round.
    pub reference_s: f64,
    /// Model states reached: DPOR nodes for the checker, scheduler steps
    /// elsewhere.
    pub states: u64,
    /// Complete runs whose verdict was judged.
    pub execs: u64,
    /// Jobs attempted.
    pub jobs: u64,
    /// One message per job with a wrong verdict or a panic.
    pub failures: Vec<String>,
    /// Deterministic counts; the traced round must reproduce them exactly.
    pub counts: Vec<(&'static str, u64)>,
    /// Per-round figures for the per-layer report (times from traced
    /// rounds, workload figures such as coverage from untraced ones).
    pub figures: Vec<(&'static str, f64)>,
}

impl Round {
    /// The round's wall time, scaled to an undisturbed host.
    pub fn normalized_s(&self) -> f64 {
        self.verdict_s * host_scale(self.reference_s)
    }

    /// The figure named `name`, 0 if absent.
    pub fn figure(&self, name: &str) -> f64 {
        self.figures
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// The count named `name`, 0 if absent.
    pub fn count(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Runs one job, turning a panic into a failure. Returns `None` when
    /// the job panicked.
    pub fn job<R>(&mut self, label: &str, f: impl FnOnce() -> R) -> Option<R> {
        self.jobs += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(r) => Some(r),
            Err(e) => {
                let msg = e
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                self.failures.push(format!("{label}: panicked: {msg}"));
                None
            }
        }
    }

    /// Records a wrong verdict unless `ok`.
    pub fn expect(&mut self, ok: bool, label: &str, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(format!("{label}: {}", what()));
        }
    }
}

/// What a workload's traced run contributes beyond its rounds.
#[derive(Debug, Default)]
pub struct Layers {
    /// Per-layer metric values by name.
    pub values: Vec<(&'static str, f64)>,
    /// Predicted seconds per round: Σ(count × isolated per-call cost) plus
    /// the wrapped busy time, for `trace.model_error`.
    pub model_s: f64,
}

/// A benchmark workload.
pub trait Workload {
    /// Runs round `index` (its seeds derive from the run seed and the
    /// index), traced when `tracer` is given.
    fn round(&self, index: u64, tracer: Option<&Arc<Tracer>>) -> Round;

    /// Derives the per-layer values from matching untraced and traced
    /// rounds, adding isolated per-call probes of the layers' functions.
    fn layers(&self, plain: &[Round], traced: &[Round], tracer: &Arc<Tracer>) -> Layers;
}

/// A workload after set-up, with the time the scenario registry took.
pub struct Setup {
    pub workload: Box<dyn Workload>,
    pub resolve_s: f64,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(0),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn setup(workload: &str, seed: u64, workers: usize) -> Result<Setup, String> {
    match workload {
        "check-paper" => check_paper::setup(),
        "fuzz-paper" => fuzz_paper::setup(seed, workers),
        "swarm-paper" => swarm_paper::setup(seed, workers),
        "extract-fig3" => extract_fig3::setup(seed),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// The factor that scales a timing taken beside a reference of
/// `reference_s` seconds to an undisturbed host.
fn host_scale(reference_s: f64) -> f64 {
    (REFERENCE_NOMINAL_S / reference_s).powf(REFERENCE_ELASTICITY)
}

/// The reference computation's table of pseudo-random words, built once.
fn reference_table() -> &'static [u64] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<Vec<u64>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..REFERENCE_WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect()
    })
}

/// Buckets in the reference computation's fixed hash table, and entries
/// each bucket holds before it wraps.
const REFERENCE_BUCKETS: usize = 512;
const REFERENCE_BUCKET_CAP: usize = 12;

/// What one copy of the reference computation writes into, allocated once
/// per run, so the heap state a round leaves behind cannot change the
/// reference's cost.
struct ReferenceScratch {
    log: Vec<u64>,
    buckets: Vec<(usize, [u32; REFERENCE_BUCKET_CAP])>,
}

impl ReferenceScratch {
    fn new() -> Self {
        ReferenceScratch {
            log: vec![0; REFERENCE_LOG_WORDS],
            buckets: vec![(0, [0; REFERENCE_BUCKET_CAP]); REFERENCE_BUCKETS],
        }
    }
}

/// A fixed reference computation written against the standard library
/// only — dependent loads scattered over a 256 KiB table, a log filled in
/// order (as a trace grows) and branchy updates of a fixed hash table —
/// that allocates nothing, so no change to the program changes its cost.
/// Other tenants of a shared host slow it too, if less than they slow the
/// rounds around it; the host scale divides that out. Returns its duration
/// in seconds.
fn reference_kernel_s(scratch: &mut ReferenceScratch) -> f64 {
    let table = reference_table();
    let start = Instant::now();
    let ReferenceScratch { log, buckets } = scratch;
    for bucket in buckets.iter_mut() {
        bucket.0 = 0;
    }
    let (mut acc, mut at) = (0u64, 0usize);
    for i in 0..REFERENCE_STEPS {
        at = (table[at] as usize ^ i as usize) % table.len();
        let v = table[at];
        let slot = (2 * i as usize) % REFERENCE_LOG_WORDS;
        log[slot] = v;
        log[slot + 1] = table[(at + 1) % table.len()];
        let (len, items) = &mut buckets[(v % REFERENCE_BUCKETS as u64) as usize];
        if v.is_multiple_of(3) {
            if *len == REFERENCE_BUCKET_CAP {
                *len = 0;
            }
            items[*len] = i;
            *len += 1;
        } else if *len > 0 {
            acc = acc.wrapping_add(u64::from(items[*len - 1]) + *len as u64);
            if *len > 8 {
                *len = 0;
            }
        }
        acc = acc.rotate_left(5) ^ v;
    }
    std::hint::black_box((acc, &*log));
    start.elapsed().as_secs_f64()
}

/// The reference computation as the workload's workers would feel it: one
/// copy per worker, run side by side, each with its own scratch; the
/// slowest copy's duration. A neighbour slowing either core slows a pooled
/// round, so the reference must be able to see it.
struct Reference {
    copies: Vec<ReferenceScratch>,
}

impl Reference {
    fn new(workers: usize) -> Self {
        Reference {
            copies: (0..workers.max(1))
                .map(|_| ReferenceScratch::new())
                .collect(),
        }
    }

    fn measure_s(&mut self) -> f64 {
        if let [only] = self.copies.as_mut_slice() {
            return reference_kernel_s(only);
        }
        std::thread::scope(|s| {
            let copies: Vec<_> = self
                .copies
                .iter_mut()
                .map(|c| s.spawn(move || reference_kernel_s(c)))
                .collect();
            copies
                .into_iter()
                .map(|c| c.join().expect("the reference computation panicked"))
                .fold(0.0, f64::max)
        })
    }
}

/// FNV-1a over `(a, b)`: the seed of round `b` of a run seeded `a`.
pub fn mix_seed(a: u64, b: u64) -> u64 {
    let mut h = upsilon_sim::Fnv64::new();
    h.write_u64(a);
    h.write_u64(b);
    h.finish()
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The commit of the checkout, read from `.git` in the working directory
/// without leaving it; `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("paperbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The checker (the CLI's serial default) and the extraction runs use
    // one thread; the fuzzer's and the swarm's pools use two workers.
    let pooled = matches!(args.workload.as_str(), "fuzz-paper" | "swarm-paper");
    let workers = if pooled { POOL_WORKERS } else { 1 };
    if workers > nproc {
        eprintln!(
            "paperbench: {workers} workers on {nproc} processors; \
             refusing to report oversubscription as scaling"
        );
        return ExitCode::from(2);
    }
    match run(&args, workers, nproc) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("paperbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the benchmark and prints its result lines; `Ok(false)` when a
/// verdict was wrong or the traced run disagreed with the untraced one.
fn run(args: &Args, workers: usize, nproc: usize) -> Result<bool, String> {
    // Set-up: resolve every configuration through the scenario registry.
    // It is repeated before every measured round as well, so its samples
    // spread over the whole run; the first set-up's workload is kept.
    let workload = setup(&args.workload, args.seed, workers)?.workload;

    let mut attempted = 0u64;
    let mut failures: Vec<String> = Vec::new();
    let mut tally = |r: &Round| {
        attempted += r.jobs;
        failures.extend(r.failures.iter().cloned());
    };

    // One untimed warm-up round fills caches and finishes lazy set-up; its
    // verdicts count like any other.
    let warm = workload.round(u64::MAX, None);
    tally(&warm);

    // The measured loop. The reference computation runs between every two
    // rounds; a round's host scale is the nominal reference time over the
    // mean of the two references around it. A traced run alternates each
    // untraced round with its traced twin.
    let tracer = args.trace.then(|| Arc::new(Tracer::new()));
    let min_rounds = if args.trace { TRACED_ROUNDS_MIN } else { 1 };
    let budget = args.seconds as f64;
    let mut setup_norm = Vec::new();
    let mut resolve_times = Vec::new();
    let mut plain: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let mut mismatches = Vec::new();
    let mut reference = Reference::new(workers);
    let mut last_ref = reference.measure_s();
    let mut measure = |r: &mut Round| {
        let next = reference.measure_s();
        r.reference_s = (last_ref + next) / 2.0;
        last_ref = next;
    };
    let loop_start = Instant::now();
    let mut index = 0u64;
    while (plain.len() as u64) < min_rounds || loop_start.elapsed().as_secs_f64() < budget {
        let start = Instant::now();
        for _ in 0..SETUP_BATCH {
            resolve_times.push(setup(&args.workload, args.seed, workers)?.resolve_s);
        }
        let setup_s = start.elapsed().as_secs_f64() / SETUP_BATCH as f64;
        let mut p = workload.round(index, None);
        measure(&mut p);
        setup_norm.push(setup_s * host_scale(p.reference_s));
        tally(&p);
        if let Some(tracer) = &tracer {
            let (mut t, _) = tracer.span("round", || workload.round(index, Some(tracer)));
            measure(&mut t);
            tally(&t);
            if t.counts != p.counts {
                mismatches.push(format!(
                    "round {index}: traced counts {:?} differ from untraced {:?}",
                    t.counts, p.counts
                ));
            }
            traced.push(t);
        }
        plain.push(p);
        index += 1;
    }
    let mut metrics: Vec<Metric> = Vec::new();
    let mut spans_written = String::new();
    if let Some(tracer) = &tracer {
        let layers = workload.layers(&plain, &traced, tracer);
        let wall_s = median(plain.iter().map(|r| r.verdict_s));
        let mut values = layers.values;
        values.push(("scenario.resolve_s", median(resolve_times.iter().copied())));
        values.push((
            "trace.overhead",
            median(traced.iter().map(Round::normalized_s))
                / median(plain.iter().map(Round::normalized_s)),
        ));
        values.push((
            "trace.model_error",
            (layers.model_s - wall_s).abs() / wall_s,
        ));
        for &(name, unit) in PER_LAYER {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            metrics.push(Metric { name, unit, value });
        }
        spans_written = write_spans(&args.workload, args.seed, tracer)?;
    } else {
        let rate =
            |f: fn(&Round) -> u64| median(plain.iter().map(|r| f(r) as f64 / r.normalized_s()));
        let values = [
            median(setup_norm.iter().copied()),
            median(plain.iter().map(Round::normalized_s)),
            rate(|r| r.states),
            rate(|r| r.execs),
            peak_rss_mb()?,
        ];
        for (&(name, unit), value) in END_TO_END.iter().zip(values) {
            metrics.push(Metric { name, unit, value });
        }
    }

    for f in &failures {
        eprintln!("paperbench: FAILED {f}");
    }
    for m in &mismatches {
        eprintln!("paperbench: MISMATCH {m}");
    }
    let correct = failures.is_empty() && mismatches.is_empty();

    // Provenance, the raw wall-clock and reference quartiles, and the
    // deterministic counts of the first round, on a line of their own; the
    // contract line comes last.
    let counts = plain[0]
        .counts
        .iter()
        .map(|(n, v)| format!("{}:{v}", json_str(n)))
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"workers\":{workers},\
         \"nproc\":{nproc},\"git_commit\":{},\"rustc\":{},\"profile\":{},\
         \"rounds\":{},\"round_wall_s\":{},\"reference_s\":{},\
         \"failed_share\":{},\"spans\":{},\"first_round_counts\":{{{counts}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&git_commit()),
        json_str(env!("PAPERBENCH_RUSTC")),
        json_str(env!("PAPERBENCH_PROFILE")),
        plain.len(),
        report::quartiles_json(plain.iter().map(|r| r.verdict_s)),
        report::quartiles_json(plain.iter().map(|r| r.reference_s)),
        failures.len() as f64 / attempted.max(1) as f64,
        json_str(&spans_written),
    );
    println!(
        "{}",
        report::result_line(correct, attempted, failures.len() as u64, &metrics)
    );
    Ok(correct)
}

/// Writes the traced run's spans as JSON lines under `.paperbench/` in the
/// working directory; returns the path written.
fn write_spans(workload: &str, seed: u64, tracer: &Tracer) -> Result<String, String> {
    use std::io::Write as _;
    let dir = std::path::Path::new(".paperbench");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{workload}-{seed}.jsonl"));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    for s in tracer.spans() {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            json_str(&s.name),
            s.start_ns,
            s.end_ns
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    out.flush()
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}
