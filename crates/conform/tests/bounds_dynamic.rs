//! Dynamic cross-check of the C4 static step bounds.
//!
//! The checker's wait-freedom certificates (`// #[conform(wait_free)]` plus
//! the await-graph bound) are *parametric*: R rounds, K sub-rounds, W wait
//! iterations and B heartbeat iterations are per-run quantities. These
//! tests close the loop for every paper-claimed wait-free routine (Fig. 1,
//! Fig. 2, k-converge, the Fig. 3 extraction client): run the routine in
//! the simulator, bind the parameters from *observable* run data (round-
//! keyed shared objects in the memory inventory, per-process query-step
//! counts), evaluate the static bound reported by `scan_workspace`, and
//! assert every process's recorded step count stays within it.
//!
//! The binding is deliberately conservative but never vacuous: B, K and R
//! track iteration *counts*, so the assertion checks that the static
//! per-iteration step cost really dominates the dynamic one.

use std::collections::BTreeMap;
use std::path::PathBuf;
use upsilon_agreement::fig1::{algorithms as fig1_algorithms, Fig1Config};
use upsilon_agreement::fig2::{algorithms as fig2_algorithms, Fig2Config};
use upsilon_conform::{parse_expr, scan_workspace, Allowlist, ConformReport};
use upsilon_converge::ConvergeInstance;
use upsilon_extract::{extraction_algorithm, phi_omega};
use upsilon_fd::{LeaderChoice, OmegaOracle, UpsilonChoice, UpsilonOracle};
use upsilon_mem::SnapshotFlavor;
use upsilon_sim::{
    algo, DummyOracle, FailurePattern, FdValue, Key, Memory, ProcessId, ProcessSet, Run,
    SeededRandom, SimBuilder, SimOutcome, StepKind, Time,
};

fn repo_report() -> ConformReport {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    scan_workspace(&root, &Allowlist::empty()).expect("workspace scan succeeds")
}

/// Evaluates the reported static bound of `(file, name)` under `params`.
fn eval_bound(report: &ConformReport, file: &str, name: &str, params: &[(&str, i64)]) -> i64 {
    let row = report
        .bound_for(file, name)
        .unwrap_or_else(|| panic!("no bound row for {file}::{name}"));
    assert!(
        row.wait_free,
        "{file}::{name} must carry the wait_free claim"
    );
    let text = row
        .bound
        .as_deref()
        .unwrap_or_else(|| panic!("{file}::{name} has no static bound: {row:?}"));
    let expr = parse_expr(text).unwrap_or_else(|e| panic!("bound `{text}` parses: {e}"));
    let env: BTreeMap<String, i64> = params.iter().map(|(k, v)| ((*k).to_string(), *v)).collect();
    expr.eval(&env)
        .unwrap_or_else(|e| panic!("eval `{text}`: {e}"))
}

/// The largest value of index `idx` among keys named `name` in memory —
/// the round/sub-round high-water mark of round-keyed shared objects.
fn max_key_index(memory: &Memory, name: &str, idx: usize) -> i64 {
    memory
        .inventory()
        .filter(|(_, key, _)| key.name() == name)
        .filter_map(|(_, key, _)| key.indices().get(idx).copied())
        .max()
        .unwrap_or(0) as i64
}

/// Query steps taken by `p` — in the extraction loops, exactly one per
/// iteration, so this observable bounds the iteration count.
fn queries_of<D: FdValue>(run: &Run<D>, p: ProcessId) -> i64 {
    run.events_of(p)
        .filter(|e| matches!(e.kind, StepKind::Query(_)))
        .count() as i64
}

fn assert_within(run_label: &str, steps_by: &[u64], bound: i64) {
    for (p, steps) in steps_by.iter().enumerate() {
        assert!(
            (*steps as i64) <= bound,
            "{run_label}: process {p} took {steps} steps, static bound evaluates to {bound}"
        );
    }
}

fn fig1_patterns() -> Vec<(FailurePattern, Time)> {
    vec![
        (FailurePattern::failure_free(3), Time(50)),
        (
            FailurePattern::builder(3)
                .crash(ProcessId(0), Time(40))
                .build(),
            Time(120),
        ),
    ]
}

#[test]
fn fig1_static_bound_dominates_recorded_runs() {
    let report = repo_report();
    let props = [Some(1), Some(2), Some(3)];
    for (pattern, stab) in fig1_patterns() {
        for seed in 0..3u64 {
            let oracle = UpsilonOracle::wait_free(&pattern, UpsilonChoice::default(), stab, seed);
            let mut builder = SimBuilder::<ProcessSet>::new(pattern.clone())
                .oracle(oracle)
                .adversary(SeededRandom::new(seed))
                .max_steps(400_000);
            for (pid, a) in fig1_algorithms(Fig1Config::default(), &props) {
                builder = builder.spawn(pid, a);
            }
            let outcome = builder.run();
            assert!(
                outcome.run.decisions().iter().flatten().count() >= 1,
                "the run must exercise the protocol"
            );
            // R: every entered round immediately invokes its round-opening
            // n-converge, materializing the `n-conv` object. K: gladiator
            // sub-round k creates `u-conv[r][k]` before any exit check; the
            // +1 covers a final citizen iteration that creates nothing.
            let r = max_key_index(&outcome.memory, "n-conv", 0).max(1);
            let k = max_key_index(&outcome.memory, "u-conv", 1) + 1;
            let bound = eval_bound(
                &report,
                "fig1.rs",
                "propose",
                &[("R", r), ("K", k), ("n_plus_1", 3)],
            );
            // +1: the algorithm wrapper's final decide step.
            assert_within(
                &format!("fig1 {pattern} seed {seed} (R={r}, K={k})"),
                outcome.run.steps_by(),
                bound + 1,
            );
        }
    }
}

#[test]
fn fig2_static_bound_dominates_recorded_runs() {
    let report = repo_report();
    let props = [Some(4), Some(5), Some(6)];
    // f = n: the snapshot-wait quorum is n+1−f = 1, satisfied by the
    // gladiator's own update, so the W loop takes exactly one iteration
    // and W = 1 is an exact observable binding.
    let cfg = Fig2Config::new(2);
    for (pattern, stab) in fig1_patterns() {
        for seed in 0..3u64 {
            let oracle = UpsilonOracle::wait_free(&pattern, UpsilonChoice::default(), stab, seed);
            let mut builder = SimBuilder::<ProcessSet>::new(pattern.clone())
                .oracle(oracle)
                .adversary(SeededRandom::new(seed))
                .max_steps(400_000);
            for (pid, a) in fig2_algorithms(cfg, &props) {
                builder = builder.spawn(pid, a);
            }
            let outcome = builder.run();
            assert!(
                outcome.run.decisions().iter().flatten().count() >= 1,
                "the run must exercise the protocol"
            );
            let r = max_key_index(&outcome.memory, "f-conv", 0).max(1);
            // A sub-round may leave through the wait-loop escapes before
            // creating `u-conv[r][k]`; at most one such iteration per round,
            // hence the +1.
            let k = max_key_index(&outcome.memory, "u-conv", 1) + 1;
            let bound = eval_bound(
                &report,
                "fig2.rs",
                "propose",
                &[("R", r), ("K", k), ("W", 1), ("n_plus_1", 3)],
            );
            assert_within(
                &format!("fig2 {pattern} seed {seed} (R={r}, K={k})"),
                outcome.run.steps_by(),
                bound + 1,
            );
        }
    }
}

#[test]
fn k_converge_static_bound_dominates_recorded_runs() {
    let report = repo_report();
    let n_plus_1 = 3usize;
    for flavor in [SnapshotFlavor::Native, SnapshotFlavor::RegisterBased] {
        for seed in 0..3u64 {
            let pattern = FailurePattern::failure_free(n_plus_1);
            let mut builder = SimBuilder::<()>::new(pattern)
                .oracle(DummyOracle::new(()))
                .adversary(SeededRandom::new(seed))
                .max_steps(100_000);
            for i in 0..n_plus_1 {
                let pid = ProcessId(i);
                builder = builder.spawn(
                    pid,
                    algo(move |mut ctx| async move {
                        let inst = ConvergeInstance::new(Key::new("kc"), n_plus_1, flavor);
                        let (picked, _committed) =
                            inst.converge(&mut ctx, 2, pid.index() as u64).await;
                        ctx.decide(picked).await;
                    }),
                );
            }
            let outcome: SimOutcome<()> = builder.run();
            // k-converge is straight-line: the bound is parametric in
            // n_plus_1 only (it already maximizes over snapshot flavors).
            let bound = eval_bound(
                &report,
                "converge/src/lib.rs",
                "converge",
                &[("n_plus_1", n_plus_1 as i64)],
            );
            assert_within(
                &format!("k-converge {flavor:?} seed {seed}"),
                outcome.run.steps_by(),
                bound + 1,
            );
        }
    }
}

#[test]
fn fig3_extraction_client_bound_dominates_recorded_runs() {
    let report = repo_report();
    let n_plus_1 = 3usize;
    for seed in 0..2u64 {
        let pattern = FailurePattern::failure_free(n_plus_1);
        let oracle = OmegaOracle::new(&pattern, LeaderChoice::MinCorrect, Time(100), seed);
        let phi = phi_omega(n_plus_1);
        let outcome = SimBuilder::new(pattern)
            .oracle(oracle)
            .adversary(SeededRandom::new(seed))
            .max_steps(9_000)
            .spawn_all(move |_| extraction_algorithm(phi.clone()))
            .run();
        // R: each round touches its `Unstable[round]` register inside the
        // heartbeat loop; +1 covers a budget-truncated tail round that has
        // not reached its first loop iteration yet.
        let r = max_key_index(&outcome.memory, "Unstable", 0) + 1;
        for i in 0..n_plus_1 {
            let pid = ProcessId(i);
            let steps = outcome.run.steps_by()[i] as i64;
            // Every heartbeat iteration (and every round prelude) performs
            // exactly one failure-detector query, so the query count of the
            // process bounds B, the per-round iteration count.
            let b = queries_of(&outcome.run, pid).max(1);
            let bound = eval_bound(
                &report,
                "fig3.rs",
                "extraction_loop",
                &[("R", r), ("B", b), ("n_plus_1", n_plus_1 as i64)],
            );
            assert!(
                steps <= bound,
                "fig3 seed {seed} p{i}: {steps} steps > bound {bound} (R={r}, B={b})"
            );
        }
    }
}
