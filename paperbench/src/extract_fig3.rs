//! `extract-fig3`: seeded Fig. 3 extraction runs from Ω, Ω_k, P and ◇P
//! under crash patterns drawn from the seed. Every run must emulate Υ^f.
//!
//! Set-up builds the job list: the crash pattern, seed and label of every
//! extraction for [`ROUND_POOL`] rounds; round `i` runs the jobs of pool
//! entry `i mod ROUND_POOL`.
//!
//! The untraced round calls `run_fig3`. The traced round builds the same
//! run from its public parts (the source oracle, `extraction_algorithm`,
//! `SimBuilder::run`, `leader_set_samples`, `check_upsilon_f`), timing the
//! run and the Υ^f check apart, and must reproduce `run_fig3`'s steps and
//! publishes exactly.

use std::sync::Arc;
use std::time::Instant;

use upsilon_core::experiment::{leader_set_samples, run_fig3, StableSource};
use upsilon_core::extract::{extraction_algorithm, phi_omega, phi_omega_k, phi_perfect};
use upsilon_core::fd::{
    check_upsilon_f, EventuallyPerfectOracle, LeaderChoice, OmegaKChoice, OmegaKOracle,
    OmegaOracle, PerfectOracle,
};
use upsilon_sim::{FailurePattern, ProcessId, ProcessSet, Run, SeededRandom, SimBuilder, Time};

use crate::report::median;
use crate::trace::Tracer;
use crate::{mix_seed, Layers, Round, Setup, Workload};

/// System size of every extraction run.
const N_PLUS_1: usize = 4;
/// Steps granted per run.
const MAX_STEPS: u64 = 40_000;
/// When the source detector stabilizes.
const STABILIZE_AT: Time = Time(150);
/// Crash times are drawn from `[CRASH_MIN, CRASH_MIN + CRASH_SPAN)`.
const CRASH_MIN: u64 = 50;
const CRASH_SPAN: u64 = 10_000;

/// Rounds whose jobs set-up builds; later rounds repeat them in turn.
const ROUND_POOL: u64 = 16;

/// The sources, each with the `f` its emulated output is checked against.
fn sources() -> [(StableSource, usize); 4] {
    [
        (StableSource::Omega(LeaderChoice::MinCorrect), N_PLUS_1 - 1),
        (StableSource::OmegaK(2, OmegaKChoice::default()), 2),
        (StableSource::Perfect, N_PLUS_1 - 1),
        (StableSource::EventuallyPerfect, N_PLUS_1 - 1),
    ]
}

/// One extraction run of a round.
struct Job {
    source: StableSource,
    f: usize,
    seed: u64,
    pattern: FailurePattern,
    label: String,
}

pub struct ExtractFig3 {
    seed: u64,
    rounds: Vec<Vec<Job>>,
}

pub fn setup(seed: u64) -> Result<Setup, String> {
    // No scenario kind describes an extraction run: the jobs come straight
    // from the experiment harness's `StableSource`s and crash patterns
    // built from the seed.
    let start = Instant::now();
    let rounds = (0..ROUND_POOL)
        .map(|index| {
            let round_seed = mix_seed(seed, index);
            sources()
                .into_iter()
                .enumerate()
                .map(|(job, (source, f))| {
                    let seed = mix_seed(round_seed, job as u64);
                    let pattern = pattern(seed);
                    let label = format!("{} f={f} {pattern}", source.label());
                    Job {
                        source,
                        f,
                        seed,
                        pattern,
                        label,
                    }
                })
                .collect()
        })
        .collect();
    Ok(Setup {
        workload: Box::new(ExtractFig3 { seed, rounds }),
        resolve_s: start.elapsed().as_secs_f64(),
    })
}

/// The crash pattern of job `seed`: failure-free, or one process crashing
/// at a seeded time.
fn pattern(seed: u64) -> FailurePattern {
    let who = seed % (N_PLUS_1 as u64 + 1);
    if who == N_PLUS_1 as u64 {
        return FailurePattern::failure_free(N_PLUS_1);
    }
    let at = CRASH_MIN + (seed >> 8) % CRASH_SPAN;
    FailurePattern::builder(N_PLUS_1)
        .crash(ProcessId(who as usize), Time(at))
        .build()
}

/// One extraction, decomposed: `(steps, publishes, verdict, run_s, check_s)`.
fn traced_extraction(
    pattern: &FailurePattern,
    source: StableSource,
    f: usize,
    seed: u64,
) -> (u64, usize, Result<(), String>, f64, f64) {
    fn build<D: upsilon_sim::FdValue + Eq + std::hash::Hash>(
        pattern: &FailurePattern,
        oracle: impl upsilon_sim::Oracle<D> + 'static,
        phi: upsilon_core::extract::PhiMap<D>,
        seed: u64,
    ) -> (Run<D>, f64) {
        let builder = SimBuilder::<D>::new(pattern.clone())
            .oracle(oracle)
            .adversary(SeededRandom::new(seed))
            .max_steps(MAX_STEPS)
            .spawn_all(|_| extraction_algorithm(phi.clone()));
        let start = Instant::now();
        let run = builder.run().run;
        (run, start.elapsed().as_secs_f64())
    }
    let (samples, steps, run_s) = match source {
        StableSource::Omega(choice) => {
            let oracle = OmegaOracle::new(pattern, choice, STABILIZE_AT, seed);
            let (run, s) = build(pattern, oracle, phi_omega(N_PLUS_1), seed);
            (leader_set_samples(&run), run.total_steps(), s)
        }
        StableSource::OmegaK(k, choice) => {
            let oracle = OmegaKOracle::new(pattern, k, choice, STABILIZE_AT, seed);
            let (run, s) = build::<ProcessSet>(pattern, oracle, phi_omega_k(N_PLUS_1), seed);
            (leader_set_samples(&run), run.total_steps(), s)
        }
        StableSource::Perfect => {
            let oracle = PerfectOracle::new(pattern);
            let (run, s) = build::<ProcessSet>(pattern, oracle, phi_perfect(N_PLUS_1), seed);
            (leader_set_samples(&run), run.total_steps(), s)
        }
        StableSource::EventuallyPerfect => {
            let oracle = EventuallyPerfectOracle::new(pattern, STABILIZE_AT, seed);
            let (run, s) = build::<ProcessSet>(pattern, oracle, phi_perfect(N_PLUS_1), seed);
            (leader_set_samples(&run), run.total_steps(), s)
        }
    };
    let start = Instant::now();
    let verdict = check_upsilon_f(pattern, f, &samples, 1)
        .map(|_| ())
        .map_err(|e| e.to_string());
    let check_s = start.elapsed().as_secs_f64();
    let publishes = samples.len().saturating_sub(N_PLUS_1);
    (steps, publishes, verdict, run_s, check_s)
}

impl Workload for ExtractFig3 {
    fn round(&self, index: u64, tracer: Option<&Arc<Tracer>>) -> Round {
        let mut r = Round::default();
        let jobs = &self.rounds[(index % ROUND_POOL) as usize];
        let (mut steps, mut publishes, mut run_s, mut check_s) = (0u64, 0u64, 0.0, 0.0);
        let start = Instant::now();
        for job in jobs {
            let Job {
                source,
                f,
                seed,
                ref pattern,
                ref label,
            } = *job;
            let out = match tracer {
                None => r.job(label, || {
                    let out = run_fig3(pattern, source, f, STABILIZE_AT, seed, MAX_STEPS);
                    let verdict = out.report.map(|_| ()).map_err(|e| e.to_string());
                    (out.total_steps, out.publishes, verdict, 0.0, 0.0)
                }),
                Some(t) => r.job(label, || {
                    t.span("extract", || traced_extraction(pattern, source, f, seed))
                        .0
                }),
            };
            let Some((s, p, verdict, rs, cs)) = out else {
                continue;
            };
            r.expect(verdict.is_ok(), label, || {
                format!("expected Υ^{f} to hold: {}", verdict.clone().unwrap_err())
            });
            steps += s;
            publishes += p as u64;
            run_s += rs;
            check_s += cs;
            r.execs += 1;
        }
        r.verdict_s = start.elapsed().as_secs_f64();
        r.states = steps;
        r.counts = vec![("extract.steps", steps), ("extract.publishes", publishes)];
        r.figures = vec![("run_s", run_s), ("check_s", check_s)];
        r
    }

    fn layers(&self, plain: &[Round], traced: &[Round], _tracer: &Arc<Tracer>) -> Layers {
        let steps = median(plain.iter().map(|r| r.count("extract.steps") as f64));
        let publishes = median(plain.iter().map(|r| r.count("extract.publishes") as f64));
        let run_s = median(traced.iter().map(|r| r.figure("run_s")));
        let check_s = median(traced.iter().map(|r| r.figure("check_s")));
        let (step_ns, check_ns_per_step) = self.probe();
        let values = vec![
            ("sim.run_step_ns", step_ns),
            ("extract.steps", steps),
            ("extract.publishes", publishes),
            ("extract.run_s", run_s),
            ("fd.upsilon_check_s", check_s),
        ];
        let model_s = steps * (step_ns + check_ns_per_step) * 1e-9;
        Layers { values, model_s }
    }
}

impl ExtractFig3 {
    /// Isolated costs on one seeded P-sourced extraction: nanoseconds per
    /// `SimBuilder::run` step, and `check_upsilon_f` nanoseconds per step
    /// of the run it checks.
    fn probe(&self) -> (f64, f64) {
        let seed = mix_seed(self.seed, u64::MAX - 1);
        let pattern = pattern(seed);
        let (mut run_ns, mut check_ns, mut steps) = (Vec::new(), Vec::new(), 0u64);
        for i in 0..5 {
            let (s, _, _, rs, cs) = traced_extraction(
                &pattern,
                StableSource::Perfect,
                N_PLUS_1 - 1,
                mix_seed(seed, i),
            );
            steps = s;
            run_ns.push(rs * 1e9 / s.max(1) as f64);
            check_ns.push(cs * 1e9 / s.max(1) as f64);
        }
        std::hint::black_box(steps);
        (median(run_ns.into_iter()), median(check_ns.into_iter()))
    }
}
