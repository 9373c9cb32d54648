//! Golden traces of the simulator over a corpus of 50+ seeded configs.
//!
//! Every configuration in the corpus below runs on the step engine, and
//! its trace must match the line pinned for it in
//! `tests/golden/engine_traces.jsonl`: the step count, the stop reason
//! and the FNV-1a digest of the full run (events, schedule, FD samples,
//! outputs, stop reason) together with its §3.3 run-condition verdict.
//! The file was recorded while a second, thread-per-process engine still
//! existed and produced bit-identical runs on the whole corpus, so any
//! change to what a run records fails here.
//!
//! The corpus spans every algorithm family in the workspace (k-converge,
//! Fig. 1, Fig. 2, Ω-consensus, boosting, both FD extraction loops, and
//! raw register/snapshot workloads) across failure patterns, oracle
//! choices, snapshot flavors and adversary seeds. All configs are
//! panic-free; panicking algorithms are pinned in `tests/engine_panics.rs`.
//!
//! To regenerate after an intentional change to the simulator's traces:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test engine_differential
//! ```

mod common;

use common::assert_golden;
use std::fmt::Write as _;
use upsilon_analysis::check_run_for;
use weakest_failure_detector::agreement::boost::BoostConfig;
use weakest_failure_detector::agreement::{
    boost, consensus, fig1, fig2, Fig1Config, Fig2Config, OmegaConsensusConfig,
};
use weakest_failure_detector::converge::ConvergeInstance;
use weakest_failure_detector::extract::{
    upsilon1_to_omega_algorithm, upsilon_to_anti_omega_algorithm,
};
use weakest_failure_detector::fd::{
    LeaderChoice, OmegaKChoice, OmegaKOracle, OmegaOracle, UpsilonChoice, UpsilonOracle,
};
use weakest_failure_detector::mem::{FlavoredSnapshot, RegisterArray, Snapshot, SnapshotFlavor};
use weakest_failure_detector::sim::{
    algo, run_batch, FailurePattern, FdValue, Fnv64, Key, Output, ProcessId, Run, SeededRandom,
    SimBuilder, StopReason, Time,
};

/// What the golden file pins for one run.
#[derive(Clone, PartialEq, Debug)]
struct Trace {
    total_steps: u64,
    stop: StopReason,
    /// FNV-1a of the full `Debug` rendering of the run (`Run` carries the
    /// whole trace) followed by the §3.3 run-condition verdict.
    digest: u64,
}

fn trace<D: FdValue>(run: &Run<D>) -> Trace {
    let mut h = Fnv64::new();
    let _ = write!(h, "{run:?}\n{:?}", check_run_for(run));
    Trace {
        total_steps: run.total_steps(),
        stop: run.stop_reason(),
        digest: h.finish(),
    }
}

/// A named corpus entry: runs the config and returns its trace.
type Job = (String, Box<dyn Fn() -> Trace + Send + Sync>);

fn job(name: String, f: impl Fn() -> Trace + Send + Sync + 'static) -> Job {
    (name, Box::new(f))
}

fn one_crash(n_plus_1: usize, who: usize, at: u64) -> FailurePattern {
    FailurePattern::builder(n_plus_1)
        .crash(ProcessId(who), Time(at))
        .build()
}

/// k-converge on distinct inputs; each process decides its picked value so
/// the result lands in the trace.
fn converge_jobs(corpus: &mut Vec<Job>) {
    let input_sets: [&[u64]; 3] = [&[5, 3, 8], &[1, 1, 2, 9], &[4, 7]];
    for (si, inputs) in input_sets.iter().enumerate() {
        for flavor in [SnapshotFlavor::Native, SnapshotFlavor::RegisterBased] {
            for seed in [11u64, 42] {
                let inputs: Vec<u64> = inputs.to_vec();
                let k = 1 + si % 2;
                corpus.push(job(
                    format!("converge/set{si}/k{k}/{flavor:?}/seed{seed}"),
                    move || {
                        let n = inputs.len();
                        let inputs = inputs.clone();
                        let run = SimBuilder::<()>::new(FailurePattern::failure_free(n))
                            .adversary(SeededRandom::new(seed))
                            .spawn_all(move |pid| {
                                let v = inputs[pid.index()];
                                algo(move |mut ctx| async move {
                                    let inst = ConvergeInstance::new(
                                        Key::new("cv"),
                                        ctx.n_plus_1(),
                                        flavor,
                                    );
                                    let (picked, committed) = inst.converge(&mut ctx, k, v).await;
                                    ctx.decide(picked * 2 + u64::from(committed)).await;
                                })
                            })
                            .run()
                            .run;
                        trace(&run)
                    },
                ));
            }
        }
    }
}

/// Fig. 1 (Υ-based n-set agreement) across patterns, Υ policies and seeds.
fn fig1_jobs(corpus: &mut Vec<Job>) {
    let patterns = [
        ("ff3", FailurePattern::failure_free(3)),
        ("crash0@40of4", one_crash(4, 0, 40)),
    ];
    for (pname, pattern) in patterns {
        for choice in [UpsilonChoice::ComplementOfCorrect, UpsilonChoice::All] {
            for seed in [1u64, 9] {
                let pattern = pattern.clone();
                corpus.push(job(
                    format!("fig1/{pname}/{choice:?}/seed{seed}"),
                    move || {
                        let n_plus_1 = pattern.n_plus_1();
                        let proposals: Vec<Option<u64>> =
                            (0..n_plus_1).map(|i| Some(i as u64 + 1)).collect();
                        let oracle = UpsilonOracle::wait_free(&pattern, choice, Time(60), seed);
                        let mut builder = SimBuilder::new(pattern.clone())
                            .oracle(oracle)
                            .adversary(SeededRandom::new(seed))
                            .max_steps(600_000);
                        for (pid, a) in fig1::algorithms(Fig1Config::default(), &proposals) {
                            builder = builder.spawn(pid, a);
                        }
                        trace(&builder.run().run)
                    },
                ));
            }
        }
    }
}

/// Fig. 2 (Υ^f-based f-set agreement) for f ∈ {1, 2}.
fn fig2_jobs(corpus: &mut Vec<Job>) {
    for f in [1usize, 2] {
        for seed in [2u64, 5, 13] {
            corpus.push(job(format!("fig2/f{f}/seed{seed}"), move || {
                let pattern = one_crash(4, 1, 25);
                assert!(pattern.in_environment(f));
                let proposals: Vec<Option<u64>> = (0..4).map(|i| Some(i + 1)).collect();
                let oracle =
                    UpsilonOracle::new(&pattern, f, UpsilonChoice::default(), Time(80), seed);
                let mut builder = SimBuilder::new(pattern.clone())
                    .oracle(oracle)
                    .adversary(SeededRandom::new(seed))
                    .max_steps(800_000);
                for (pid, a) in fig2::algorithms(Fig2Config::new(f), &proposals) {
                    builder = builder.spawn(pid, a);
                }
                trace(&builder.run().run)
            }));
        }
    }
}

/// Ω-based consensus across patterns and seeds.
fn consensus_jobs(corpus: &mut Vec<Job>) {
    let patterns = [
        ("ff3", FailurePattern::failure_free(3)),
        ("crash2@15of3", one_crash(3, 2, 15)),
    ];
    for (pname, pattern) in patterns {
        for seed in [3u64, 7, 21] {
            let pattern = pattern.clone();
            corpus.push(job(format!("consensus/{pname}/seed{seed}"), move || {
                let proposals = [Some(10), Some(20), Some(30)];
                let oracle = OmegaOracle::new(&pattern, LeaderChoice::MinCorrect, Time(30), seed);
                let mut builder = SimBuilder::new(pattern.clone())
                    .oracle(oracle)
                    .adversary(SeededRandom::new(seed))
                    .max_steps(400_000);
                for (pid, a) in consensus::algorithms(OmegaConsensusConfig::default(), &proposals) {
                    builder = builder.spawn(pid, a);
                }
                trace(&builder.run().run)
            }));
        }
    }
}

/// Corollary 4 boosting: (n+1)-consensus from n-process objects and Ω_n.
fn boost_jobs(corpus: &mut Vec<Job>) {
    for seed in [4u64, 8, 15] {
        corpus.push(job(format!("boost/ff3/seed{seed}"), move || {
            let pattern = FailurePattern::failure_free(3);
            let proposals = [Some(1), Some(2), Some(3)];
            let oracle = OmegaKOracle::new(
                &pattern,
                pattern.n(),
                OmegaKChoice::default(),
                Time(40),
                seed,
            );
            let mut builder = SimBuilder::new(pattern.clone())
                .oracle(oracle)
                .adversary(SeededRandom::new(seed))
                .max_steps(400_000);
            for (pid, a) in boost::algorithms(BoostConfig::default(), &proposals) {
                builder = builder.spawn(pid, a);
            }
            trace(&builder.run().run)
        }));
    }
}

/// The two FD extraction loops (infinite; bounded by `max_steps`).
fn extraction_jobs(corpus: &mut Vec<Job>) {
    for seed in [6u64, 12, 18] {
        corpus.push(job(format!("upsilon1-omega/seed{seed}"), move || {
            let pattern = one_crash(3, 0, 30);
            let oracle = UpsilonOracle::new(&pattern, 1, UpsilonChoice::default(), Time(90), seed);
            let run = SimBuilder::new(pattern.clone())
                .oracle(oracle)
                .adversary(SeededRandom::new(seed))
                .max_steps(10_000)
                .spawn_all(|_| upsilon1_to_omega_algorithm())
                .run()
                .run;
            trace(&run)
        }));
        corpus.push(job(format!("anti-omega/seed{seed}"), move || {
            let pattern = one_crash(3, 0, 30);
            let oracle = UpsilonOracle::wait_free(&pattern, UpsilonChoice::All, Time(80), seed);
            let run = SimBuilder::new(pattern.clone())
                .oracle(oracle)
                .adversary(SeededRandom::new(seed))
                .max_steps(10_000)
                .spawn_all(|_| upsilon_to_anti_omega_algorithm())
                .run()
                .run;
            trace(&run)
        }));
    }
}

/// Raw shared-memory workloads with mid-run crashes: snapshot update/scan
/// rounds and register-array collect loops.
fn memory_jobs(corpus: &mut Vec<Job>) {
    for flavor in [SnapshotFlavor::Native, SnapshotFlavor::RegisterBased] {
        for seed in [16u64, 23, 99] {
            corpus.push(job(format!("snapshot/{flavor:?}/seed{seed}"), move || {
                let pattern = one_crash(4, 3, 12);
                let run = SimBuilder::<()>::new(pattern)
                    .adversary(SeededRandom::new(seed))
                    .max_steps(50_000)
                    .spawn_all(move |pid| {
                        algo(move |mut ctx| async move {
                            let snap = FlavoredSnapshot::<u64>::new(
                                flavor,
                                Key::new("ds"),
                                ctx.n_plus_1(),
                            );
                            for round in 0..4u64 {
                                snap.update(&mut ctx, round * 10 + pid.index() as u64).await;
                                let view = snap.scan(&mut ctx).await;
                                let sum: u64 = view.iter().flatten().sum();
                                ctx.output(Output::Value(sum)).await;
                            }
                        })
                    })
                    .run()
                    .run;
                trace(&run)
            }));
        }
    }
    for seed in [31u64, 44, 58, 71] {
        corpus.push(job(format!("registers/seed{seed}"), move || {
            let pattern = FailurePattern::builder(3)
                .crash(ProcessId(1), Time(8))
                .crash(ProcessId(2), Time(20))
                .build();
            let run = SimBuilder::<()>::new(pattern)
                .adversary(SeededRandom::new(seed))
                .max_steps(50_000)
                .spawn_all(move |pid| {
                    algo(move |mut ctx| async move {
                        let arr = RegisterArray::<u64>::new(Key::new("ra"), ctx.n_plus_1(), 0);
                        for ts in 1..=5u64 {
                            arr.write_mine(&mut ctx, ts * 100 + pid.index() as u64)
                                .await;
                            let seen = arr.collect(&mut ctx).await;
                            let top = seen.into_iter().max().unwrap_or(0);
                            ctx.output(Output::Value(top)).await;
                        }
                    })
                })
                .run()
                .run;
            trace(&run)
        }));
    }
}

fn corpus() -> Vec<Job> {
    let mut corpus = Vec::new();
    converge_jobs(&mut corpus);
    fig1_jobs(&mut corpus);
    fig2_jobs(&mut corpus);
    consensus_jobs(&mut corpus);
    boost_jobs(&mut corpus);
    extraction_jobs(&mut corpus);
    memory_jobs(&mut corpus);
    corpus
}

/// The JSONL line pinned for one corpus entry.
fn golden_line(name: &str, t: &Trace) -> String {
    format!(
        "{{\"name\":\"{name}\",\"total_steps\":{},\"stop_reason\":\"{:?}\",\"digest\":\"{:016x}\"}}\n",
        t.total_steps, t.stop, t.digest
    )
}

/// Every config of the corpus reproduces its golden trace. The corpus runs
/// through [`run_batch`], which also smoke-tests deterministic result
/// ordering: the batch results must come back in corpus order.
#[test]
fn whole_corpus_matches_the_golden_traces() {
    let corpus = corpus();
    assert!(
        corpus.len() >= 50,
        "the golden corpus must hold at least 50 configs, got {}",
        corpus.len()
    );
    let jobs: Vec<_> = corpus.iter().map(|(_, f)| move || f()).collect();
    let traces = run_batch(jobs, 4);
    assert_eq!(traces.len(), corpus.len());
    let jsonl: String = corpus
        .iter()
        .zip(&traces)
        .map(|((name, _), t)| golden_line(name, t))
        .collect();
    assert_golden("engine_traces.jsonl", &jsonl);
}

/// A single config trace is itself reproducible under the batch
/// executor regardless of worker count (including the degenerate 1-worker
/// pool): determinism is per-run, not per-pool.
#[test]
fn batch_worker_count_does_not_affect_results() {
    let corpus = corpus();
    let sample: Vec<&Job> = corpus.iter().take(6).collect();
    let fp_with = |workers: usize| -> Vec<Trace> {
        let jobs: Vec<_> = sample.iter().map(|(_, f)| move || f()).collect();
        run_batch(jobs, workers)
    };
    let one = fp_with(1);
    let four = fp_with(4);
    assert_eq!(one, four, "worker count changed batch results");
}
