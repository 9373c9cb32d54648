//! `fuzz-paper`: coverage-guided campaigns on Fig. 1 and Fig. 2 at depth
//! 24, plus hunts on the seeded mutants `commit-buggy`, `converge-offby1`
//! and `fig2-dropped`. Campaigns must come back clean; every hunt must
//! return a violation whose shrunk token replays to the same spec failure.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use upsilon_check::{replay_token, shrink_violation, MenuOracle, RunConditionsSpec, RunSpec};
use upsilon_fuzz::{fuzz, FuzzConfig};
use upsilon_scenario::{resolve_fuzz, AnyFuzz, ScenarioDoc};
use upsilon_sim::{
    conflict_coverage, EngineKind, FailurePattern, FdValue, Fnv64, ProcessId, ProcessSet,
    SeededRandom, SimBuilder,
};

use crate::report::median;
use crate::trace::{count_steps, Tracer};
use crate::{mix_seed, Layers, Round, Setup, Workload};

/// Clean campaigns at a fixed execution budget.
const CAMPAIGNS: &[&str] = &[
    r#"
name = "paperbench-fuzz-fig1"
kind = "fuzz"
protocol = "fig1"
expect = "pass"
[params]
n_plus_1 = 3
depth = 24
max_faults = 1
[fuzz]
rounds = 2
execs_per_round = 1024
chunk = 128
"#,
    r#"
name = "paperbench-fuzz-fig2"
kind = "fuzz"
protocol = "fig2"
expect = "pass"
[params]
n_plus_1 = 3
f = 1
depth = 24
max_faults = 1
[fuzz]
rounds = 2
execs_per_round = 1024
chunk = 128
"#,
];

/// Hunts on the seeded mutants: short rounds, so a campaign stops soon
/// after its first counterexample.
const HUNTS: &[&str] = &[
    r#"
name = "paperbench-hunt-commit-buggy"
kind = "fuzz"
protocol = "snapshot-commit"
expect = "violation"
[params]
n_plus_1 = 2
k = 1
depth = 12
buggy = true
[fuzz]
rounds = 64
execs_per_round = 32
chunk = 16
max_violations = 1
"#,
    r#"
name = "paperbench-hunt-converge-offby1"
kind = "fuzz"
protocol = "converge-offby1"
expect = "violation"
[params]
n_plus_1 = 3
k = 1
depth = 12
slack = 1
[fuzz]
rounds = 64
execs_per_round = 32
chunk = 16
max_violations = 1
"#,
    r#"
name = "paperbench-hunt-fig2-dropped"
kind = "fuzz"
protocol = "fig2-dropped"
expect = "violation"
[params]
n_plus_1 = 2
f = 1
depth = 16
dropper = 1
[fuzz]
rounds = 64
execs_per_round = 32
chunk = 16
max_violations = 1
"#,
];

/// Seeds of the isolated run and coverage probes.
const PROBE_RUNS: u64 = 300;

#[derive(Clone)]
enum Target {
    Set(FuzzConfig<ProcessSet>),
    Unit(FuzzConfig<()>),
}

pub struct FuzzPaper {
    seed: u64,
    workers: usize,
    campaigns: Vec<(String, Target)>,
    hunts: Vec<(String, Target)>,
}

fn resolve(texts: &[&str], seed: u64, workers: usize) -> Result<Vec<(String, Target)>, String> {
    let mut out = Vec::new();
    for text in texts {
        let doc = ScenarioDoc::parse(text).map_err(|d| d.to_string())?;
        for cell in doc.expand() {
            let target = match resolve_fuzz(&doc, &cell, seed)? {
                AnyFuzz::Set(cfg) => Target::Set(cfg.workers(workers)),
                AnyFuzz::Unit(cfg) => Target::Unit(cfg.workers(workers)),
            };
            out.push((
                doc.name.trim_start_matches("paperbench-").to_string(),
                target,
            ));
        }
    }
    Ok(out)
}

pub fn setup(seed: u64, workers: usize) -> Result<Setup, String> {
    let start = Instant::now();
    let campaigns = resolve(CAMPAIGNS, seed, workers)?;
    let hunts = resolve(HUNTS, seed, workers)?;
    let resolve_s = start.elapsed().as_secs_f64();
    Ok(Setup {
        workload: Box::new(FuzzPaper {
            seed,
            workers,
            campaigns,
            hunts,
        }),
        resolve_s,
    })
}

fn fnv_str(h: &mut Fnv64, s: &str) {
    h.write(s.as_bytes());
    h.write_u64(s.len() as u64);
}

/// Per-round totals across jobs.
#[derive(Default)]
struct Totals {
    coverage: u64,
    coverage_hash: Fnv64,
    corpus: u64,
    corpus_hash: Fnv64,
    execs: u64,
    found_at: u64,
    token_hash: Fnv64,
    shrink_evals: u64,
    campaign_s: f64,
    counterexample_s: f64,
    shrink_s: f64,
    replay_s: f64,
    replays: u64,
}

fn campaign<D: FdValue>(
    base: &FuzzConfig<D>,
    seed: u64,
    tracer: Option<&Arc<Tracer>>,
    label: &str,
    r: &mut Round,
    tot: &mut Totals,
) {
    let mut cfg = base.clone();
    cfg.seed = seed;
    let (steps, runs) = count_steps(&mut cfg.target);
    if let Some(t) = tracer {
        cfg.target = t.wrap(&cfg.target);
    }
    let start = Instant::now();
    let report = match tracer {
        None => r.job(label, || fuzz(&cfg, &[])),
        Some(t) => r.job(label, || t.span(label, || fuzz(&cfg, &[])).0),
    };
    tot.campaign_s += start.elapsed().as_secs_f64();
    r.states += steps.load(Ordering::Relaxed);
    r.execs += runs.load(Ordering::Relaxed);
    let Some(report) = report else { return };
    r.expect(report.ok() && !report.truncated, label, || {
        format!(
            "expected a clean campaign; got {} violations",
            report.violations.len()
        )
    });
    tot.coverage += report.coverage_hashes.len() as u64;
    for h in &report.coverage_hashes {
        tot.coverage_hash.write_u64(*h);
    }
    tot.corpus += report.corpus.len() as u64;
    for t in &report.corpus {
        fnv_str(&mut tot.corpus_hash, &t.encode());
    }
    tot.execs += report.execs;
}

fn hunt<D: FdValue>(
    base: &FuzzConfig<D>,
    seed: u64,
    tracer: Option<&Arc<Tracer>>,
    label: &str,
    r: &mut Round,
    tot: &mut Totals,
) {
    let mut cfg = base.clone();
    cfg.seed = seed;
    let (steps, runs) = count_steps(&mut cfg.target);
    if let Some(t) = tracer {
        cfg.target = t.wrap(&cfg.target);
        // The traced hunt shrinks outside the campaign, to time it.
        cfg.shrink = false;
    }
    let start = Instant::now();
    let found = r.job(label, || {
        let report = match tracer {
            None => fuzz(&cfg, &[]),
            Some(t) => t.span(label, || fuzz(&cfg, &[])).0,
        };
        let v = report.violations.first()?.clone();
        let (token, evals) = match tracer {
            None => (v.token.clone(), v.shrink_evals),
            Some(t) => {
                let (s, secs) = t.span("shrink", || {
                    shrink_violation(&cfg.target, &v.raw_token, &v.spec)
                });
                tot.shrink_s += secs;
                (s.token, s.evals)
            }
        };
        let replay_start = Instant::now();
        let replay = replay_token(&cfg.target, &token, EngineKind::Inline);
        tot.replay_s += replay_start.elapsed().as_secs_f64();
        tot.replays += 1;
        let reproduces = replay
            .verdicts
            .iter()
            .any(|(name, verdict)| *name == v.spec && verdict.is_err());
        Some((report.execs, v.exec, token, evals, reproduces))
    });
    tot.counterexample_s += start.elapsed().as_secs_f64();
    r.states += steps.load(Ordering::Relaxed);
    r.execs += runs.load(Ordering::Relaxed);
    let Some(found) = found else { return };
    let Some((execs, at, token, evals, reproduces)) = found else {
        r.expect(false, label, || {
            "expected a violation; the hunt found none".into()
        });
        return;
    };
    r.expect(reproduces, label, || {
        format!("shrunk token {token} does not replay to the spec failure")
    });
    tot.execs += execs;
    tot.found_at += at;
    fnv_str(&mut tot.token_hash, &token.encode());
    tot.shrink_evals += evals;
}

impl Workload for FuzzPaper {
    fn round(&self, index: u64, tracer: Option<&Arc<Tracer>>) -> Round {
        let mut r = Round::default();
        let mut tot = Totals::default();
        let round_seed = mix_seed(self.seed, index);
        let before = tracer.map(|t| t.busy());
        let start = Instant::now();
        let jobs = self
            .campaigns
            .iter()
            .map(|j| (j, false))
            .chain(self.hunts.iter().map(|j| (j, true)));
        for (job, ((label, target), is_hunt)) in jobs.enumerate() {
            let seed = mix_seed(round_seed, job as u64);
            let (r, tot) = (&mut r, &mut tot);
            match (target, is_hunt) {
                (Target::Set(c), false) => campaign(c, seed, tracer, label, r, tot),
                (Target::Unit(c), false) => campaign(c, seed, tracer, label, r, tot),
                (Target::Set(c), true) => hunt(c, seed, tracer, label, r, tot),
                (Target::Unit(c), true) => hunt(c, seed, tracer, label, r, tot),
            }
        }
        r.verdict_s = start.elapsed().as_secs_f64();
        r.counts = vec![
            ("fuzz.coverage", tot.coverage),
            ("fuzz.coverage_hash", tot.coverage_hash.finish()),
            ("fuzz.corpus", tot.corpus),
            ("fuzz.corpus_hash", tot.corpus_hash.finish()),
            ("fuzz.execs", tot.execs),
            ("fuzz.found_at", tot.found_at),
            ("fuzz.token_hash", tot.token_hash.finish()),
            ("check.shrink_evals", tot.shrink_evals),
            ("sim.steps", r.states),
            ("sim.runs", r.execs),
        ];
        r.figures = vec![
            ("campaign_s", tot.campaign_s),
            ("counterexample_s", tot.counterexample_s),
            ("shrink_s", tot.shrink_s),
            ("replay_ns", tot.replay_s * 1e9 / tot.replays.max(1) as f64),
        ];
        if let (Some(t), Some(before)) = (tracer, before) {
            r.figures.extend(t.busy().figures_since(&before));
        }
        r
    }

    fn layers(&self, plain: &[Round], traced: &[Round], tracer: &Arc<Tracer>) -> Layers {
        let fig = |rounds: &[Round], name: &str| median(rounds.iter().map(|r| r.figure(name)));
        let cnt = |name: &str| median(plain.iter().map(|r| r.count(name) as f64));
        let w = self.workers as f64;
        let (kset_n, kset_ns) = tracer.spec_read("k-set-agreement");
        let spec_calls = fig(traced, "spec_calls");
        let spec_s = fig(traced, "spec_s");
        let menu_s = fig(traced, "menu_s");
        let build_s = fig(traced, "world_build_s");
        let busy = spec_s + menu_s + build_s;
        let probe = self.run_probe();
        let pool = self.pool_probe();
        let execs = cnt("fuzz.execs");
        let values = vec![
            ("check.menu_calls", fig(traced, "menu_calls")),
            ("check.menu_s", menu_s),
            ("check.world_builds", fig(traced, "world_builds")),
            ("check.world_build_s", build_s),
            ("check.shrink_evals", cnt("check.shrink_evals")),
            ("check.shrink_s", fig(traced, "shrink_s")),
            ("check.replay_ns", fig(plain, "replay_ns")),
            ("analysis.spec_calls", spec_calls),
            ("analysis.spec_s", spec_s),
            ("analysis.spec_ns", spec_s * 1e9 / spec_calls.max(1.0)),
            (
                "analysis.k-set-agreement.spec_ns",
                kset_ns as f64 / kset_n.max(1) as f64,
            ),
            ("analysis.run-conditions.spec_ns", probe.run_conditions_ns),
            ("sim.run_step_ns", probe.step_ns),
            ("sim.coverage_ns", probe.coverage_ns),
            ("sim.pool.parallel_efficiency", pool.0),
            ("sim.pool.idle_s", pool.1),
            ("fuzz.execs", execs),
            ("fuzz.corpus", cnt("fuzz.corpus")),
            ("fuzz.admit_ratio", cnt("fuzz.corpus") / execs.max(1.0)),
            (
                "fuzz.self_s",
                median(traced.iter().map(|r| r.verdict_s)) - busy / w,
            ),
            ("fuzz.coverage", cnt("fuzz.coverage")),
            ("fuzz.counterexample_s", fig(plain, "counterexample_s")),
        ];
        // Every judged run: its steps, one coverage hash, the built-in
        // run-condition check; plus the wrapped busy time; spread over the
        // pool's workers.
        let runs = cnt("sim.runs");
        let model_s = (cnt("sim.steps") * probe.step_ns
            + runs * (probe.coverage_ns + probe.run_conditions_ns))
            * 1e-9
            / w
            + busy / w;
        Layers { values, model_s }
    }
}

/// Isolated per-call costs of a fresh run, its coverage hash and its
/// run-condition check.
struct RunProbe {
    step_ns: f64,
    coverage_ns: f64,
    run_conditions_ns: f64,
}

impl FuzzPaper {
    /// Times `SimBuilder::run` and `conflict_coverage` on the first
    /// campaign's target under seeded-random schedules.
    fn run_probe(&self) -> RunProbe {
        let Target::Set(cfg) = &self.campaigns[0].1 else {
            unreachable!("the Fig. 1 campaign is Υ-based")
        };
        let target = &cfg.target;
        let n = target.n_plus_1;
        let (mut run_ns, mut steps, mut cov_ns, mut rc_ns) = (0u128, 0u64, 0u128, 0u128);
        for i in 0..PROBE_RUNS {
            let oracle = MenuOracle::new(Arc::clone(&target.menu), n, vec![Vec::new(); n]);
            let mut b = SimBuilder::new(FailurePattern::failure_free(n))
                .oracle(oracle)
                .adversary(SeededRandom::new(mix_seed(self.seed, i)))
                .max_steps(target.depth as u64)
                .record_op_sigs(target.use_matrix);
            for (p, a) in (target.algos)().into_iter().enumerate() {
                if let Some(a) = a {
                    b = b.spawn(ProcessId(p), a);
                }
            }
            let start = Instant::now();
            let out = b.run();
            run_ns += start.elapsed().as_nanos();
            steps += out.run.total_steps();
            let start = Instant::now();
            std::hint::black_box(conflict_coverage(&out.run, &out.memory, cfg.window));
            cov_ns += start.elapsed().as_nanos();
            let start = Instant::now();
            std::hint::black_box(
                RunSpec::<ProcessSet>::check(&RunConditionsSpec, &out.run).is_ok(),
            );
            rc_ns += start.elapsed().as_nanos();
        }
        let per = |ns: u128| ns as f64 / PROBE_RUNS as f64;
        RunProbe {
            step_ns: run_ns as f64 / steps.max(1) as f64,
            coverage_ns: per(cov_ns),
            run_conditions_ns: per(rc_ns),
        }
    }

    /// The first campaign at one worker and at the workload's worker
    /// count: `(parallel efficiency, idle worker-seconds)`.
    fn pool_probe(&self) -> (f64, f64) {
        let Target::Set(cfg) = &self.campaigns[0].1 else {
            unreachable!("the Fig. 1 campaign is Υ-based")
        };
        let time = |workers: usize| {
            let cfg = cfg.clone().seed(self.seed).workers(workers);
            let start = Instant::now();
            std::hint::black_box(fuzz(&cfg, &[]));
            start.elapsed().as_secs_f64()
        };
        let serial = median((0..3).map(|_| time(1)));
        let parallel = median((0..3).map(|_| time(self.workers)));
        let w = self.workers as f64;
        (serial / (w * parallel), w * parallel - serial)
    }
}
