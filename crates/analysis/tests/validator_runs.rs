//! Mutation tests for the §3.3 run-condition validator.
//!
//! Strategy: drive *real* simulator workloads (the same shapes as the
//! theorem harnesses — failure-detector queries, shared-object steps,
//! crashes, decisions), confirm the validator accepts the genuine runs,
//! then seed specific corruptions into the [`RunView`] and require each to
//! be rejected with the matching violation. A validator that accepts a
//! corrupted view would also accept a buggy simulator, so these tests are
//! what make the green path meaningful.

use upsilon_analysis::{check_fd_history, check_run, check_run_for, RunView, RunViolation};
use upsilon_mem::{RegOp, RegisterObject};
use upsilon_sim::{
    algo, DummyOracle, Event, FailurePattern, Key, MappedOracle, NullOracle, Output, ProcessId,
    SeededRandom, SimBuilder, StepKind, Time,
};

/// A consensus-like workload: every process queries the detector, writes
/// its proposal, reads the designated leader's register and decides.
fn leader_workload(pattern: FailurePattern, seed: u64) -> upsilon_sim::SimOutcome<u64> {
    let n_plus_1 = pattern.n_plus_1();
    SimBuilder::<u64>::new(pattern)
        // "Leader" detector: constantly points at process 0.
        .oracle(DummyOracle::new(0u64))
        .adversary(SeededRandom::new(seed))
        .spawn_all(move |pid| {
            algo(move |mut ctx| async move {
                let me = pid.index() as u64;
                let mine = Key::new("reg").at(me);
                ctx.invoke(&mine, || RegisterObject::new(u64::MAX), RegOp::Write(me))
                    .await;
                let leader = ctx.query_fd().await;
                loop {
                    let resp = ctx
                        .invoke(
                            &Key::new("reg").at(leader),
                            || RegisterObject::new(u64::MAX),
                            RegOp::Read,
                        )
                        .await;
                    if let upsilon_mem::RegResp::Value(v) = resp {
                        if v != u64::MAX {
                            ctx.decide(v).await;
                            return;
                        }
                    }
                    let _ = n_plus_1; // capture for symmetry with real harnesses
                    ctx.yield_step().await;
                }
            })
        })
        .run()
}

#[test]
fn genuine_failure_free_runs_pass() {
    for seed in [1u64, 7, 42] {
        let outcome = leader_workload(FailurePattern::failure_free(3), seed);
        let stats = check_run_for(&outcome.run)
            .unwrap_or_else(|v| panic!("seed {seed}: genuine run rejected: {v}"));
        assert_eq!(stats.decisions, 3, "all three processes decide");
        assert!(stats.queries >= 3, "every process queries the detector");
    }
}

#[test]
fn genuine_crashy_runs_pass() {
    // Process 2 crashes early; the survivors still decide on the leader's
    // value. The validator must accept the run even though the trace stops
    // scheduling p2.
    let pattern = FailurePattern::builder(3)
        .crash(ProcessId(2), Time(4))
        .build();
    let outcome = leader_workload(pattern, 99);
    let stats = check_run_for(&outcome.run).expect("genuine crashy run rejected");
    assert!(stats.decisions >= 2, "both correct processes decide");
}

#[test]
fn fd_history_replay_accepts_deterministic_oracle() {
    let outcome = leader_workload(FailurePattern::failure_free(3), 5);
    let view = RunView::of(&outcome.run);
    // The run used DummyOracle::new(0); a freshly built copy must replay
    // every sample (H is a function of (p, t), not of the schedule).
    let mut fresh = DummyOracle::new(0u64);
    check_fd_history(&view, &mut fresh).expect("deterministic oracle must replay");
    // A detector pointing elsewhere is immediately caught.
    let mut wrong = DummyOracle::new(1u64);
    assert!(matches!(
        check_fd_history(&view, &mut wrong),
        Err(RunViolation::FdHistoryMismatch { .. })
    ));
}

/// Seeded corruption: swap two event times so `T` is no longer increasing.
#[test]
fn corruption_reordered_times_is_rejected() {
    let outcome = leader_workload(FailurePattern::failure_free(2), 11);
    let mut view = RunView::of(&outcome.run);
    assert!(check_run(&view).is_ok(), "sanity: uncorrupted view passes");
    let t0 = view.events[0].time;
    let t1 = view.events[1].time;
    view.events[0].time = t1;
    view.events[1].time = t0;
    assert!(matches!(
        check_run(&view),
        Err(RunViolation::NonIncreasingTime { .. })
    ));
}

/// Seeded corruption: a step by a process after its crash time in `F(t)`.
#[test]
fn corruption_post_crash_step_is_rejected() {
    let pattern = FailurePattern::builder(3)
        .crash(ProcessId(2), Time(4))
        .build();
    let outcome = leader_workload(pattern, 99);
    let mut view = RunView::of(&outcome.run);
    assert!(check_run(&view).is_ok(), "sanity: uncorrupted view passes");
    let last_time = view.events.last().expect("nonempty run").time;
    view.events.push(Event {
        time: Time(last_time.0 + 1),
        pid: ProcessId(2),
        kind: StepKind::NoOp,
    });
    assert!(matches!(
        check_run(&view),
        Err(RunViolation::StepAfterCrash {
            pid: ProcessId(2),
            what: "step",
            ..
        })
    ));
}

/// Seeded corruption: flip a decision value after the fact.
#[test]
fn corruption_flipped_decision_is_rejected() {
    let outcome = leader_workload(FailurePattern::failure_free(2), 3);
    let mut view = RunView::of(&outcome.run);
    assert!(check_run(&view).is_ok(), "sanity: uncorrupted view passes");
    // Flip the decided value in the output list but not in the trace:
    // exactly the kind of recorder bug the cross-check exists to catch.
    let pos = view
        .outputs
        .iter()
        .position(|(_, _, o)| matches!(o, Output::Decide(_)))
        .expect("workload decides");
    view.outputs[pos].2 = Output::Decide(u64::MAX);
    assert!(matches!(
        check_run(&view),
        Err(RunViolation::OutputMismatch { .. })
    ));
}

/// Seeded corruption: a later, different decision by the same process.
#[test]
fn corruption_revoked_decision_is_rejected() {
    let outcome = leader_workload(FailurePattern::failure_free(2), 3);
    let mut view = RunView::of(&outcome.run);
    let (t, p, _) = *view
        .outputs
        .iter()
        .find(|(_, _, o)| matches!(o, Output::Decide(_)))
        .expect("workload decides");
    let t_after = Time(view.events.last().expect("nonempty").time.0 + 1);
    view.events.push(Event {
        time: t_after,
        pid: p,
        kind: StepKind::Output(Output::Decide(u64::MAX - 1)),
    });
    view.outputs
        .push((t_after, p, Output::Decide(u64::MAX - 1)));
    view.induced.sigma.push((p, Output::Decide(u64::MAX - 1)));
    view.induced.times.push(t_after);
    let _ = t;
    assert!(matches!(
        check_run(&view),
        Err(RunViolation::RevokedDecision { .. })
    ));
}

/// Seeded corruption: drop a failure-detector sample.
#[test]
fn corruption_dropped_sample_is_rejected() {
    let outcome = leader_workload(FailurePattern::failure_free(2), 21);
    let mut view = RunView::of(&outcome.run);
    view.fd_samples.pop();
    assert!(matches!(
        check_run(&view),
        Err(RunViolation::QueryCountMismatch { .. })
    ));
}

/// Seeded corruption: misalign the induced trace of §3.4.
#[test]
fn corruption_sigma_misalignment_is_rejected() {
    let outcome = leader_workload(FailurePattern::failure_free(2), 21);
    let mut view = RunView::of(&outcome.run);
    view.induced.sigma.reverse();
    let err = check_run(&view);
    assert!(
        matches!(
            err,
            Err(RunViolation::SigmaMisaligned { .. }) | Err(RunViolation::OutputMismatch { .. })
        ),
        "got {err:?}"
    );
}

/// The validator also works over mapped oracles (trivial reductions).
#[test]
fn mapped_oracle_runs_validate() {
    let outcome = SimBuilder::<u64>::new(FailurePattern::failure_free(2))
        .oracle(MappedOracle::new(NullOracle, |_p, _t, ()| 0u64))
        .adversary(SeededRandom::new(8))
        .spawn_all(|_pid| {
            algo(move |mut ctx| async move {
                let leader = ctx.query_fd().await;
                ctx.decide(leader).await;
            })
        })
        .run();
    let stats = check_run_for(&outcome.run).expect("mapped-oracle run");
    assert_eq!(stats.decisions, 2);
}
