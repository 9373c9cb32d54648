//! Snapshot/rewind tests for [`Session`], the step-at-a-time inline
//! engine behind the explorer.
//!
//! The contract under test is what makes snapshot-resume DPOR sound: after
//! `restore(save)`, the session must be **bit-identical** to one that never
//! left the save point — the same grants then produce the same events, the
//! same outputs, the same memory, and the same canonical fingerprint as an
//! uninterrupted run. The detour between `save` and `restore` may step any
//! processes, crash them, or finish them. Restore keeps the live future of
//! every process the detour left alone (a suspended future's state is a
//! function of its own step log) and marks the others *stale*; a stale
//! process is rebuilt at its next grant. Neither path may let any detour
//! state leak through, however restores, crashes and grants interleave.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use upsilon_sim::{
    algo, Access, Ctx, FailurePattern, Key, NullOracle, ObjectType, ProcessId, ReplayToken, Run,
    Session, SessionAlgos, SessionStep, SimBuilder, Time, TraceLevel,
};

/// A one-value register; `Write` overwrites, `Read` returns the content.
#[derive(Clone, Debug, Default)]
struct Cell(Option<u64>);

#[derive(Debug)]
enum Op {
    Write(u64),
    Read,
}

impl ObjectType for Cell {
    type Op = Op;
    type Resp = Option<u64>;
    fn invoke(&mut self, _p: ProcessId, op: Op) -> Option<u64> {
        match op {
            Op::Write(v) => {
                self.0 = Some(v);
                None
            }
            Op::Read => self.0,
        }
    }
    fn access(op: &Op) -> Access {
        match op {
            Op::Write(_) => Access::Write(0),
            Op::Read => Access::Read,
        }
    }
}

/// Ring process `i` of `n`: repeatedly publishes to its own cell and polls
/// its successor's; once it sees a value it decides it. Every step reads or
/// writes shared state, so any restore glitch changes the trace.
async fn ring_process(mut ctx: Ctx<()>, i: usize, n: usize, rounds: usize) {
    let me = i as u64;
    let next = ((i + 1) % n) as u64;
    for r in 0..rounds {
        ctx.invoke(
            &Key::new("c").at(me),
            Cell::default,
            Op::Write(10 * me + r as u64),
        )
        .await;
        let seen = ctx
            .invoke(&Key::new("c").at(next), Cell::default, Op::Read)
            .await;
        if let Some(v) = seen {
            ctx.decide(v).await;
            return;
        }
    }
}

/// `n` ring processes (see [`ring_process`]).
fn ring_algos(n: usize, rounds: usize) -> SessionAlgos<()> {
    Arc::new(move || {
        (0..n)
            .map(|i| Some(algo(move |ctx| ring_process(ctx, i, n, rounds))))
            .collect()
    })
}

fn new_session(n: usize, rounds: usize) -> Session<()> {
    Session::new(
        FailurePattern::failure_free(n),
        ring_algos(n, rounds),
        Box::new(NullOracle),
        TraceLevel::Full,
        true,
    )
}

/// Steps each scheduled process in turn, skipping ineligible ones (the
/// same convention the explorer uses for its path replays).
fn drive(session: &mut Session<()>, grants: &[usize]) {
    for &i in grants {
        let p = ProcessId(i);
        if session.eligible(p) {
            session.step(p);
        }
    }
}

/// The run's full observable state, byte for byte: the `Debug` rendering
/// covers pattern, every event (kind, op signature, response detail),
/// outputs, fd samples, and status vectors.
fn observed(session: &Session<()>) -> (String, u64) {
    (format!("{:?}", session.run()), session.fingerprint())
}

fn pid_schedule(n: usize, choices: &[u8]) -> Vec<usize> {
    choices.iter().map(|&c| c as usize % n).collect()
}

/// A three-process ring session whose factory counts, per process, how
/// many instances were started (the up-front one plus one per rebuild),
/// and how many times the factory itself was called.
fn counted_session(rounds: usize) -> (Session<()>, Arc<[AtomicU64; 3]>, Arc<AtomicU64>) {
    let starts: Arc<[AtomicU64; 3]> = Arc::new(Default::default());
    let calls = Arc::new(AtomicU64::new(0));
    let (s, c) = (Arc::clone(&starts), Arc::clone(&calls));
    let algos: SessionAlgos<()> = Arc::new(move || {
        c.fetch_add(1, Ordering::Relaxed);
        (0..3)
            .map(|i| {
                let s = Arc::clone(&s);
                Some(algo(move |ctx| {
                    s[i].fetch_add(1, Ordering::Relaxed);
                    ring_process(ctx, i, 3, rounds)
                }))
            })
            .collect()
    });
    let session = Session::new(
        FailurePattern::failure_free(3),
        algos,
        Box::new(NullOracle),
        TraceLevel::Full,
        true,
    );
    (session, starts, calls)
}

fn counts(starts: &[AtomicU64; 3]) -> [u64; 3] {
    starts.each_ref().map(|a| a.load(Ordering::Relaxed))
}

#[test]
#[should_panic(expected = "boom")]
fn a_panic_inside_a_step_is_raised_by_that_step() {
    let algos: SessionAlgos<()> = Arc::new(|| {
        vec![Some(algo(|mut ctx: Ctx<()>| async move {
            ctx.decide(1).await;
            panic!("boom");
        }))]
    });
    let mut session = Session::new(
        FailurePattern::failure_free(1),
        algos,
        Box::new(NullOracle),
        TraceLevel::Steps,
        false,
    );
    session.step(ProcessId(0));
}

#[test]
fn restore_resumes_bit_identically() {
    let schedule = [0usize, 1, 2, 0, 1, 2, 2, 1, 0, 0, 1, 2, 1, 2, 0];
    let (prefix, suffix) = schedule.split_at(6);

    let mut straight = new_session(3, 4);
    drive(&mut straight, &schedule);
    let want = observed(&straight);

    let mut resumed = new_session(3, 4);
    drive(&mut resumed, prefix);
    let save = resumed.save();
    // Detour: wander down a different subtree, then rewind.
    drive(&mut resumed, &[2, 2, 2, 0, 1, 0, 2]);
    resumed.restore(&save, Box::new(NullOracle));
    drive(&mut resumed, suffix);
    assert_eq!(observed(&resumed), want);
}

#[test]
fn restore_discards_a_crash_in_the_detour() {
    let schedule = [0usize, 1, 0, 1, 0, 1, 1, 0, 1, 0];
    let (prefix, suffix) = schedule.split_at(4);

    let mut straight = new_session(2, 4);
    drive(&mut straight, &schedule);
    let want = observed(&straight);

    let mut resumed = new_session(2, 4);
    drive(&mut resumed, prefix);
    let save = resumed.save();
    // Crash p1 mid-detour: the pattern itself is mutated, so restore must
    // also roll the failure pattern and liveness flags back.
    drive(&mut resumed, &[0, 0]);
    resumed.crash(ProcessId(1));
    drive(&mut resumed, &[0, 0, 0]);
    resumed.restore(&save, Box::new(NullOracle));
    assert!(resumed.eligible(ProcessId(1)), "crash must be rolled back");
    drive(&mut resumed, suffix);
    assert_eq!(observed(&resumed), want);
}

#[test]
fn nested_saves_restore_to_any_ancestor() {
    let schedule = [0usize, 1, 2, 1, 0, 2, 1, 1, 2, 0, 0, 1];
    let mut straight = new_session(3, 3);
    drive(&mut straight, &schedule);
    let want = observed(&straight);

    let mut resumed = new_session(3, 3);
    drive(&mut resumed, &schedule[..3]);
    let shallow = resumed.save();
    drive(&mut resumed, &schedule[3..7]);
    let deep = resumed.save();
    drive(&mut resumed, &[2, 2, 0]);
    // Rewind to the deeper save, detour again, then all the way back to
    // the shallow ancestor — the explorer's backtracking pattern.
    resumed.restore(&deep, Box::new(NullOracle));
    drive(&mut resumed, &[1, 1]);
    resumed.restore(&shallow, Box::new(NullOracle));
    drive(&mut resumed, &schedule[3..]);
    assert_eq!(observed(&resumed), want);
}

#[test]
fn stale_processes_are_rebuilt_once_and_only_when_granted() {
    let (mut session, starts, calls) = counted_session(4);
    drive(&mut session, &[0, 1, 2]);
    let save = session.save();
    // The detour moves p1 and p2; p3 stays put and keeps its live future.
    drive(&mut session, &[0, 1, 0, 1]);
    assert_eq!(
        (counts(&starts), calls.load(Ordering::Relaxed)),
        ([1, 1, 1], 1)
    );

    session.restore(&save, Box::new(NullOracle));
    // Restore itself rebuilds nothing.
    assert_eq!(
        (counts(&starts), calls.load(Ordering::Relaxed)),
        ([1, 1, 1], 1)
    );

    // Granting stale p1 rebuilds it once, however often it is granted;
    // p2 is never granted again, so it is never rebuilt, and p3 was never
    // stale.
    drive(&mut session, &[0, 2, 0, 2]);
    assert_eq!(
        (counts(&starts), calls.load(Ordering::Relaxed)),
        ([2, 1, 1], 2)
    );

    // A second rewind marks p1 and p3 stale again (p2 still is). The next
    // grants draw on the spares of the last factory call: p2's spare serves
    // its rebuild, p3's too, and only p1's needs a fresh call.
    session.restore(&save, Box::new(NullOracle));
    drive(&mut session, &[1, 2, 0, 1]);
    assert_eq!(
        (counts(&starts), calls.load(Ordering::Relaxed)),
        ([3, 2, 2], 3)
    );

    let mut straight = new_session(3, 4);
    drive(&mut straight, &[0, 1, 2, 1, 2, 0, 1]);
    assert_eq!(observed(&session), observed(&straight));
}

proptest! {
    /// Any prefix/detour/suffix split: the resumed run must match the
    /// uninterrupted one byte for byte.
    #[test]
    fn resumed_runs_match_uninterrupted_runs(
        sched in proptest::collection::vec(0u8..3, 6..20),
        detour in proptest::collection::vec(0u8..3, 0..10),
        cut in 0usize..6,
    ) {
        let schedule = pid_schedule(3, &sched);
        let detour = pid_schedule(3, &detour);
        let (prefix, suffix) = schedule.split_at(cut.min(schedule.len()));

        let mut straight = new_session(3, 4);
        drive(&mut straight, &schedule);
        let want = observed(&straight);

        let mut resumed = new_session(3, 4);
        drive(&mut resumed, prefix);
        let save = resumed.save();
        drive(&mut resumed, &detour);
        resumed.restore(&save, Box::new(NullOracle));
        drive(&mut resumed, suffix);
        prop_assert_eq!(observed(&resumed), want);
    }

    /// A save re-taken in place over an unrelated state, then rewound to
    /// with the live oracle kept — the explorer's reused save stack — must
    /// resume exactly like a fresh save and a restore.
    #[test]
    fn retaken_saves_rewind_like_fresh_ones(
        sched in proptest::collection::vec(0u8..3, 6..20),
        stale in proptest::collection::vec(0u8..3, 0..10),
        detour in proptest::collection::vec(0u8..3, 0..10),
        cut in 0usize..6,
    ) {
        let schedule = pid_schedule(3, &sched);
        let (stale, detour) = (pid_schedule(3, &stale), pid_schedule(3, &detour));
        let (prefix, suffix) = schedule.split_at(cut.min(schedule.len()));

        let mut straight = new_session(3, 4);
        drive(&mut straight, &schedule);
        let want = observed(&straight);

        let mut resumed = new_session(3, 4);
        let root = resumed.save();
        drive(&mut resumed, &stale);
        let mut save = resumed.save();
        resumed.rewind(&root);
        drive(&mut resumed, prefix);
        resumed.save_into(&mut save);
        drive(&mut resumed, &detour);
        resumed.rewind(&save);
        drive(&mut resumed, suffix);
        prop_assert_eq!(observed(&resumed), want);
    }

    /// Same, with a crash delivered mid-detour — the selective-restore
    /// path must rebuild exactly the processes the detour touched.
    #[test]
    fn crashes_in_the_detour_never_leak(
        sched in proptest::collection::vec(0u8..3, 6..20),
        detour in proptest::collection::vec(0u8..3, 0..8),
        cut in 0usize..6,
        victim in 0u8..3,
    ) {
        let schedule = pid_schedule(3, &sched);
        let detour = pid_schedule(3, &detour);
        let (prefix, suffix) = schedule.split_at(cut.min(schedule.len()));

        let mut straight = new_session(3, 4);
        drive(&mut straight, &schedule);
        let want = observed(&straight);

        let mut resumed = new_session(3, 4);
        drive(&mut resumed, prefix);
        let save = resumed.save();
        drive(&mut resumed, &detour);
        let p = ProcessId(victim as usize);
        if resumed.run().pattern().crash_time(p).is_none() {
            resumed.crash(p);
        }
        resumed.restore(&save, Box::new(NullOracle));
        drive(&mut resumed, suffix);
        prop_assert_eq!(observed(&resumed), want);
    }

    /// Two restores with no grant between them — to a deeper save and then
    /// to its ancestor, or twice to the same save: stale marks from the
    /// first must carry over to the second.
    #[test]
    fn back_to_back_restores_match_uninterrupted_runs(
        sched in proptest::collection::vec(0u8..3, 8..20),
        detour in proptest::collection::vec(0u8..3, 0..10),
        cuts in (0usize..5, 0usize..4),
        same in proptest::bool::ANY,
    ) {
        let schedule = pid_schedule(3, &sched);
        let detour = pid_schedule(3, &detour);
        let shallow_at = cuts.0;
        let deep_at = shallow_at + cuts.1;

        let mut straight = new_session(3, 4);
        drive(&mut straight, &schedule);
        let want = observed(&straight);

        let mut resumed = new_session(3, 4);
        drive(&mut resumed, &schedule[..shallow_at]);
        let shallow = resumed.save();
        drive(&mut resumed, &schedule[shallow_at..deep_at]);
        let deep = resumed.save();
        drive(&mut resumed, &detour);
        let first = if same { &shallow } else { &deep };
        resumed.restore(first, Box::new(NullOracle));
        resumed.restore(&shallow, Box::new(NullOracle));
        drive(&mut resumed, &schedule[shallow_at..]);
        prop_assert_eq!(observed(&resumed), want);
    }

    /// A restore leaves the detour's processes stale; crashing one of them
    /// before it is granted again must act exactly like the same crash in
    /// a run that never left the save point — and a later rewind past the
    /// crash must revive it.
    #[test]
    fn crashing_a_stale_process_matches_uninterrupted_runs(
        sched in proptest::collection::vec(0u8..3, 6..20),
        detour in proptest::collection::vec(0u8..3, 1..10),
        cut in 0usize..6,
        victim in 0u8..3,
        tail in proptest::collection::vec(0u8..3, 0..6),
    ) {
        let schedule = pid_schedule(3, &sched);
        let detour = pid_schedule(3, &detour);
        let tail = pid_schedule(3, &tail);
        let cut = cut.min(schedule.len());
        let victim = victim as usize;

        let mut resumed = new_session(3, 4);
        drive(&mut resumed, &schedule[..cut]);
        let save = resumed.save();
        drive(&mut resumed, &detour);
        resumed.restore(&save, Box::new(NullOracle));
        resumed.crash(ProcessId(victim));
        drive(&mut resumed, &schedule[cut..]);
        let mut straight = new_session(3, 4);
        drive(&mut straight, &schedule[..cut]);
        straight.crash(ProcessId(victim));
        drive(&mut straight, &schedule[cut..]);
        prop_assert_eq!(observed(&resumed), observed(&straight));

        resumed.restore(&save, Box::new(NullOracle));
        drive(&mut resumed, &tail);
        let mut straight = new_session(3, 4);
        drive(&mut straight, &schedule[..cut]);
        drive(&mut straight, &tail);
        prop_assert_eq!(observed(&resumed), observed(&straight));
    }

    /// A detour long enough that every process finishes its protocol: the
    /// restore must revive each process that finished in it.
    #[test]
    fn processes_finished_in_the_detour_are_revived(
        sched in proptest::collection::vec(0u8..3, 6..20),
        cut in 0usize..6,
        rot in 0usize..3,
    ) {
        let schedule = pid_schedule(3, &sched);
        let cut = cut.min(schedule.len());
        let detour: Vec<usize> = (0..30).map(|j| (j + rot) % 3).collect();

        let mut straight = new_session(3, 2);
        drive(&mut straight, &schedule);
        let want = observed(&straight);

        let mut resumed = new_session(3, 2);
        drive(&mut resumed, &schedule[..cut]);
        let save = resumed.save();
        drive(&mut resumed, &detour);
        prop_assert!(
            (0..3).all(|i| !resumed.eligible(ProcessId(i))),
            "the detour finishes every process"
        );
        resumed.restore(&save, Box::new(NullOracle));
        drive(&mut resumed, &schedule[cut..]);
        prop_assert_eq!(observed(&resumed), want);
    }

    /// A session driven through random grants and mid-run crashes records
    /// the run a one-shot replay of the equivalent token records, at the
    /// same trace level. Only processes that have not finished are granted
    /// (as in the explorer, no node ends on an unused grant), and at least
    /// one process stays correct.
    #[test]
    fn sessions_record_the_run_their_token_replays(
        actions in proptest::collection::vec((0u8..3, 0u8..6), 0..40),
    ) {
        let mut session = new_session(3, 4);
        let mut crashes = 0;
        for (who, what) in actions {
            let p = ProcessId(usize::from(who));
            if what == 0 {
                if crashes < 2 && session.run().pattern().crash_time(p).is_none() {
                    session.crash(p);
                    crashes += 1;
                }
            } else if session.eligible(p) && !session.run().finished(p) {
                session.step(p);
            }
        }
        let run = session.run();
        let token = ReplayToken {
            n_plus_1: 3,
            crashes: (0..3).map(|i| run.pattern().crash_time(ProcessId(i))).collect(),
            fd_choices: vec![Vec::new(); 3],
            schedule: run.events().iter().map(|e| e.pid).collect(),
        };
        let mut replay = SimBuilder::<()>::replay(&token)
            .trace_level(TraceLevel::Full)
            .record_op_sigs(true);
        for (i, a) in ring_algos(3, 4)().into_iter().enumerate() {
            if let Some(a) = a {
                replay = replay.spawn(ProcessId(i), a);
            }
        }
        prop_assert_eq!(format!("{:?}", run), format!("{:?}", replay.run().run));
    }
}

/// [`ring_algos`] with process `absent` (if any) left without an algorithm.
fn partial_ring(n: usize, rounds: usize, absent: Option<usize>) -> SessionAlgos<()> {
    Arc::new(move || {
        (0..n)
            .map(|i| (Some(i) != absent).then(|| algo(move |ctx| ring_process(ctx, i, n, rounds))))
            .collect()
    })
}

/// Everything a recorded run holds except its stop reason, which a replay
/// reads differently once a grant went unused (see below).
fn record(run: &Run<()>) -> String {
    let n = run.n_plus_1();
    format!(
        "{:?} {:?} {:?} {:?} {:?} {} {:?} {:?}",
        run.pattern(),
        run.events(),
        run.outputs(),
        run.fd_samples(),
        run.steps_by(),
        run.total_steps(),
        (0..n)
            .map(|i| run.finished(ProcessId(i)))
            .collect::<Vec<_>>(),
        (0..n)
            .map(|i| run.crash_observed(ProcessId(i)))
            .collect::<Vec<_>>(),
    )
}

proptest! {
    /// Steps (including unused grants to finished processes), mid-run
    /// crashes, saves and rewinds to random ancestors, over a pattern that
    /// may crash one process later in the run. After every operation a
    /// process is eligible exactly when it has an algorithm, its crash is
    /// not due by now, and no grant to it went unused — the last tracked
    /// beside the session and rolled back with each rewind — and the
    /// recorded run is the one-shot replay of its own schedule.
    #[test]
    fn session_liveness_matches_the_run(
        absent in proptest::option::of(0usize..3),
        pattern_crash in proptest::option::of((0usize..3, 0u64..30)),
        ops in proptest::collection::vec((0u8..10, 0usize..3, 0usize..8), 0..60),
    ) {
        let n = 3;
        let mut pattern = FailurePattern::builder(n);
        if let Some((p, t)) = pattern_crash {
            pattern = pattern.crash(ProcessId(p), Time(t));
        }
        let mut session = Session::new(
            pattern.build(),
            partial_ring(n, 3, absent),
            Box::new(NullOracle),
            TraceLevel::Full,
            true,
        );
        let mut unused = [false; 3];
        let mut saves = Vec::new();
        for (what, who, arg) in ops {
            let p = ProcessId(who);
            match what {
                0 => {
                    let run = session.run();
                    let crashed = (0..n)
                        .filter(|&i| run.pattern().crash_time(ProcessId(i)).is_some())
                        .count();
                    if crashed < n - 1 && run.pattern().crash_time(p).is_none() {
                        session.crash(p);
                    }
                }
                1 => saves.push((session.save(), unused)),
                2 if !saves.is_empty() => {
                    let keep = arg % saves.len() + 1;
                    saves.truncate(keep);
                    let (save, at_save) = &saves[keep - 1];
                    session.rewind(save);
                    unused = *at_save;
                }
                _ => {
                    if session.eligible(p) && session.step(p) == SessionStep::NoStep {
                        unused[who] = true;
                    }
                }
            }
            let run = session.run();
            let now = Time(run.total_steps());
            for (i, &went_unused) in unused.iter().enumerate() {
                let q = ProcessId(i);
                let crashed = run.pattern().is_crashed_at(q, now);
                prop_assert_eq!(run.crash_observed(q).is_some(), crashed);
                let expect = Some(i) != absent && !crashed && !went_unused;
                prop_assert_eq!(session.eligible(q), expect);
            }
            let token = ReplayToken {
                n_plus_1: n,
                crashes: (0..n).map(|i| run.pattern().crash_time(ProcessId(i))).collect(),
                fd_choices: vec![Vec::new(); n],
                schedule: run.schedule(),
            };
            let mut replay = SimBuilder::<()>::replay(&token)
                .trace_level(TraceLevel::Full)
                .record_op_sigs(true);
            for (i, a) in partial_ring(n, 3, absent)().into_iter().enumerate() {
                if let Some(a) = a {
                    replay = replay.spawn(ProcessId(i), a);
                }
            }
            let replayed = replay.run().run;
            prop_assert_eq!(record(run), record(&replayed));
            // A replay never grants a finished process, so it reads the same
            // stop reason whenever no grant of the session went unused.
            if !unused.iter().any(|&u| u) {
                prop_assert_eq!(run.stop_reason(), replayed.stop_reason());
            }
        }
    }
}
