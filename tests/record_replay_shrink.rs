//! The record / replay / minimize debugging loop, end to end:
//! 1. record the schedule of a run exhibiting a property,
//! 2. replay it deterministically,
//! 3. shrink it with ddmin to a minimal interleaving that still exhibits
//!    the property.

use weakest_failure_detector::converge::ConvergeInstance;
use weakest_failure_detector::mem::SnapshotFlavor;
use weakest_failure_detector::shrink::ddmin;
use weakest_failure_detector::sim::algo;
use weakest_failure_detector::sim::{
    FailurePattern, Key, ProcessId, Scripted, SeededRandom, SimBuilder,
};

/// A buggy "converge" that decides its own value regardless of commitment
/// (the commit-gate mutant from mutations.rs), run under an explicit
/// schedule with no fallback: processes that run out of scripted steps
/// simply stop.
fn distinct_decisions_under(schedule: &[ProcessId]) -> usize {
    let outcome = SimBuilder::<()>::new(FailurePattern::failure_free(3))
        .adversary(Scripted::new(schedule.to_vec()))
        .spawn_all(|pid| {
            algo(move |mut ctx| async move {
                let inst = ConvergeInstance::new(Key::new("cv"), 3, SnapshotFlavor::Native);
                let (picked, _ignored_commit) =
                    inst.converge(&mut ctx, 2, pid.index() as u64).await;
                ctx.decide(picked).await;
            })
        })
        .run();
    outcome.run.decided_values().len()
}

#[test]
fn record_replay_shrink_loop() {
    // 1. Record: find a random schedule under which two distinct values
    //    get decided (allowed by 2-converge; we shrink to the interleaving
    //    essence: two full 5-step executions).
    let schedule = (0..64u64)
        .map(|seed| {
            SimBuilder::<()>::new(FailurePattern::failure_free(3))
                .adversary(SeededRandom::new(seed))
                .spawn_all(|pid| {
                    algo(move |mut ctx| async move {
                        let inst = ConvergeInstance::new(Key::new("cv"), 3, SnapshotFlavor::Native);
                        let (picked, _c) = inst.converge(&mut ctx, 2, pid.index() as u64).await;
                        ctx.decide(picked).await;
                    })
                })
                .run()
                .run
                .schedule()
        })
        .find(|s| distinct_decisions_under(s) >= 2)
        .expect("some random schedule lets two values through");

    // 2. Replay determinism: the same script yields the same decisions.
    assert_eq!(
        distinct_decisions_under(&schedule),
        distinct_decisions_under(&schedule)
    );

    // 3. Shrink: the minimal schedule needs exactly two processes running
    //    to completion (5 scripted steps each: 4 converge steps + decide).
    let minimal = ddmin(&schedule, |s| distinct_decisions_under(s) >= 2);
    assert!(distinct_decisions_under(&minimal) >= 2);
    assert_eq!(minimal.len(), 10, "two full 5-step executions: {minimal:?}");
    // 1-minimality: dropping any single step loses the property.
    for i in 0..minimal.len() {
        let mut shorter = minimal.clone();
        shorter.remove(i);
        assert!(
            distinct_decisions_under(&shorter) < 2,
            "minimal schedule must be 1-minimal (index {i})"
        );
    }
}
