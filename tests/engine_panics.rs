//! Panic semantics of the step engine.
//!
//! A panicking algorithm must stop taking steps at exactly the step where
//! it panicked: the trace records every step up to (and excluding) the
//! panicking poll, the process is not marked finished, and — with
//! `propagate_panics` (the default) — the payload is re-raised to the
//! caller after the run completes.
//!
//! These tests use the deterministic [`RoundRobin`] adversary, and pin the
//! recorded per-process facts — event times and kinds, step counts,
//! finished flags, survivor decisions. The pinned values are the ones a
//! thread-per-process engine also produced while it existed.

use weakest_failure_detector::sim::{algo, FailurePattern, ProcessId, RoundRobin, Run, SimBuilder};

/// p1 panics after taking exactly `steps_before_panic` steps; p2 decides.
fn panicky_run(steps_before_panic: u64) -> Run<()> {
    SimBuilder::<()>::new(FailurePattern::failure_free(2))
        .adversary(RoundRobin::new())
        .propagate_panics(false)
        .spawn_all(move |pid| {
            algo(move |mut ctx| async move {
                if pid == ProcessId(0) {
                    for _ in 0..steps_before_panic {
                        ctx.yield_step().await;
                    }
                    panic!("deliberate test panic");
                }
                ctx.yield_step().await;
                ctx.yield_step().await;
                ctx.decide(7).await;
            })
        })
        .run()
        .run
}

#[test]
fn inline_panic_is_a_crash_at_the_exact_step() {
    let run = panicky_run(3);
    // The panicking poll consumed a grant but produced no step: exactly the
    // three pre-panic steps are on record.
    assert_eq!(run.steps_by()[0], 3, "steps recorded before the panic");
    assert!(
        !run.finished(ProcessId(0)),
        "a panicked process is not finished"
    );
    assert!(
        run.finished(ProcessId(1)),
        "the survivor runs to completion"
    );
    assert_eq!(run.decisions()[1], Some(7), "the survivor's decision lands");
}

/// Pinned per-process histories under round robin: the panicking poll
/// consumes a grant but records no step, and the survivor then runs alone
/// to its decision.
#[test]
fn panic_step_time_is_pinned() {
    // (steps_before_panic, p1's step times, p2's step times)
    let pinned: [(u64, &[u64], [u64; 3]); 4] = [
        (0, &[], [0, 1, 2]),
        (1, &[0], [1, 2, 3]),
        (3, &[0, 2, 4], [1, 3, 5]),
        (5, &[0, 2, 4, 6, 7], [1, 3, 5]),
    ];
    for (k, p1_times, p2_times) in pinned {
        let run = panicky_run(k);
        let history = |p: ProcessId| -> Vec<String> {
            run.events_of(p)
                .map(|e| format!("{:?}@{}", e.kind, e.time.0))
                .collect()
        };
        let p1: Vec<String> = p1_times.iter().map(|t| format!("NoOp@{t}")).collect();
        let p2 = vec![
            format!("NoOp@{}", p2_times[0]),
            format!("NoOp@{}", p2_times[1]),
            format!("Output(Decide(7))@{}", p2_times[2]),
        ];
        assert_eq!(history(ProcessId(0)), p1, "p1 at steps_before_panic={k}");
        assert_eq!(history(ProcessId(1)), p2, "p2 at steps_before_panic={k}");
        assert_eq!(
            run.steps_by(),
            [k, 3],
            "step counts at steps_before_panic={k}"
        );
        assert!(
            !run.finished(ProcessId(0)),
            "finished(p1) at steps_before_panic={k}"
        );
        assert!(
            run.finished(ProcessId(1)),
            "finished(p2) at steps_before_panic={k}"
        );
        assert_eq!(run.decisions(), vec![None, Some(7)]);
    }
}

#[test]
fn inline_panic_propagates_by_default() {
    let result = std::panic::catch_unwind(|| {
        SimBuilder::<()>::new(FailurePattern::failure_free(2))
            .adversary(RoundRobin::new())
            .spawn_all(|pid| {
                algo(move |mut ctx| async move {
                    ctx.yield_step().await;
                    if pid == ProcessId(1) {
                        panic!("deliberate inline panic");
                    }
                    ctx.yield_step().await;
                })
            })
            .run()
    });
    let payload = result.expect_err("panic must propagate from the engine");
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .unwrap_or_else(|| payload.downcast_ref::<String>().map_or("", |s| s));
    assert!(
        msg.contains("deliberate inline panic"),
        "the original payload is re-raised, got: {msg:?}"
    );
}
