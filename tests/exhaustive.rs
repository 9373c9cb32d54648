//! Bounded model checking: the k-converge properties and snapshot
//! containment verified over **every** interleaving of small
//! configurations — not a sample, the whole space.
//!
//! The large sweeps fan their (fully independent, each single-threaded)
//! runs across the [`run_batch`] worker pool; results come back in
//! schedule order, so the assertions and failure messages are identical
//! to the sequential loops they replaced.

use std::sync::{Arc, Mutex};
use weakest_failure_detector::converge::ConvergeInstance;
use weakest_failure_detector::exhaustive::{count_interleavings, interleavings};
use weakest_failure_detector::mem::{scan_contained_in, NativeSnapshot, Snapshot, SnapshotFlavor};
use weakest_failure_detector::sim::algo;
use weakest_failure_detector::sim::{
    default_workers, run_batch, FailurePattern, Key, ProcessId, RoundRobin, Scripted, SimBuilder,
};

/// Shared per-process (picked, committed) results of a converge run.
type SharedResults = std::sync::Arc<std::sync::Mutex<Vec<Option<(u64, bool)>>>>;

/// Runs one k-converge instance under an explicit schedule; the scripted
/// prefix covers the whole routine (4 steps per process on native
/// snapshots), with a round-robin tail as a safety net.
fn run_converge_scripted(
    inputs: &[u64],
    k: usize,
    schedule: Vec<ProcessId>,
) -> Vec<Option<(u64, bool)>> {
    let n = inputs.len();
    let results: SharedResults = Arc::new(Mutex::new(vec![None; n]));
    let results2 = Arc::clone(&results);
    let inputs = inputs.to_vec();
    let _ = SimBuilder::<()>::new(FailurePattern::failure_free(n))
        .adversary(Scripted::then(schedule, RoundRobin::new()))
        .spawn_all(move |pid| {
            let results = Arc::clone(&results2);
            let v = inputs[pid.index()];
            algo(move |ctx| async move {
                let inst =
                    ConvergeInstance::new(Key::new("cv"), ctx.n_plus_1(), SnapshotFlavor::Native);
                let out = inst.converge(&ctx, k, v).await;
                let mut slot = results.lock().unwrap();
                slot[pid.index()] = Some(out);
            })
        })
        .run();
    Arc::try_unwrap(results).unwrap().into_inner().unwrap()
}

fn assert_converge_properties(
    inputs: &[u64],
    k: usize,
    outs: &[Option<(u64, bool)>],
    schedule_id: usize,
) {
    assert!(
        outs.iter().all(|o| o.is_some()),
        "C-Termination, schedule {schedule_id}"
    );
    let picked: Vec<u64> = outs.iter().flatten().map(|(v, _)| *v).collect();
    for v in &picked {
        assert!(inputs.contains(v), "C-Validity, schedule {schedule_id}");
    }
    if outs.iter().flatten().any(|(_, c)| *c) {
        let mut d = picked.clone();
        d.sort_unstable();
        d.dedup();
        assert!(
            d.len() <= k,
            "C-Agreement, schedule {schedule_id}: {d:?} (k={k})"
        );
    }
    let mut di = inputs.to_vec();
    di.sort_unstable();
    di.dedup();
    if di.len() <= k {
        assert!(
            outs.iter().flatten().all(|(_, c)| *c),
            "Convergence, schedule {schedule_id}"
        );
    }
}

/// Commit–adopt (1-converge) between two processes: all 70 interleavings of
/// its 8 steps, for agreeing and disagreeing inputs.
#[test]
fn commit_adopt_two_processes_every_interleaving() {
    for inputs in [[5u64, 5], [1, 2]] {
        let schedules = interleavings(&[4, 4]);
        assert_eq!(schedules.len(), 70);
        for (i, schedule) in schedules.into_iter().enumerate() {
            let outs = run_converge_scripted(&inputs, 1, schedule);
            assert_converge_properties(&inputs, 1, &outs, i);
            // The classic commit-adopt corollary: a commit forces unanimity.
            let committed: Vec<u64> = outs
                .iter()
                .flatten()
                .filter(|(_, c)| *c)
                .map(|(v, _)| *v)
                .collect();
            if let Some(&v) = committed.first() {
                assert!(outs.iter().flatten().all(|(w, _)| *w == v), "schedule {i}");
            }
        }
    }
}

/// In debug builds the 34 650-schedule sweeps are strided (every 9th
/// schedule) to keep `cargo test` snappy; release builds (`cargo test
/// --release`) check every single interleaving.
fn stride() -> usize {
    if cfg!(debug_assertions) {
        9
    } else {
        1
    }
}

/// 2-converge among three processes with three distinct inputs: all 34 650
/// interleavings of its 12 steps. This is the exact sub-routine Fig. 1's
/// gladiators run with |U| = 3.
#[test]
fn two_converge_three_processes_every_interleaving() {
    let inputs = [1u64, 2, 3];
    let schedules = interleavings(&[4, 4, 4]);
    assert_eq!(schedules.len() as u64, count_interleavings(&[4, 4, 4]));
    let jobs: Vec<_> = schedules
        .into_iter()
        .enumerate()
        .step_by(stride())
        .map(|(i, schedule)| move || (i, run_converge_scripted(&inputs, 2, schedule)))
        .collect();
    for (i, outs) in run_batch(jobs, default_workers()) {
        assert_converge_properties(&inputs, 2, &outs, i);
    }
}

/// 1-converge among three processes with two distinct inputs — the mixed
/// case where commits are schedule-dependent but never unsafe.
#[test]
fn one_converge_three_processes_every_interleaving() {
    let inputs = [7u64, 7, 9];
    let mut commits_seen = false;
    let mut non_commits_seen = false;
    let jobs: Vec<_> = interleavings(&[4, 4, 4])
        .into_iter()
        .enumerate()
        .step_by(stride())
        .map(|(i, schedule)| move || (i, run_converge_scripted(&inputs, 1, schedule)))
        .collect();
    for (i, outs) in run_batch(jobs, default_workers()) {
        assert_converge_properties(&inputs, 1, &outs, i);
        let any_commit = outs.iter().flatten().any(|(_, c)| *c);
        commits_seen |= any_commit;
        non_commits_seen |= !any_commit;
    }
    assert!(commits_seen, "some interleaving lets the routine commit");
    assert!(
        non_commits_seen,
        "some interleaving (lock-step) prevents commitment — both behaviours exist"
    );
}

/// Snapshot containment across every interleaving of one update+scan round
/// of three processes (90 schedules).
#[test]
fn snapshot_containment_every_interleaving() {
    for (i, schedule) in interleavings(&[2, 2, 2]).into_iter().enumerate() {
        let scans: Arc<Mutex<Vec<Vec<Option<u64>>>>> = Arc::new(Mutex::new(Vec::new()));
        let scans2 = Arc::clone(&scans);
        let _ = SimBuilder::<()>::new(FailurePattern::failure_free(3))
            .adversary(Scripted::then(schedule, RoundRobin::new()))
            .spawn_all(move |pid| {
                let scans = Arc::clone(&scans2);
                algo(move |ctx| async move {
                    let snap = NativeSnapshot::<u64>::new(Key::new("S"), 3);
                    snap.update(&ctx, pid.index() as u64 + 1).await;
                    let s = snap.scan(&ctx).await;
                    let mut shared = scans.lock().unwrap();
                    shared.push(s);
                })
            })
            .run();
        let scans = scans.lock().unwrap();
        assert_eq!(scans.len(), 3);
        for a in scans.iter() {
            for b in scans.iter() {
                assert!(
                    scan_contained_in(a, b) || scan_contained_in(b, a),
                    "schedule {i}: {a:?} vs {b:?}"
                );
            }
        }
        // Every scan contains the scanner's own value (own update precedes
        // own scan in every interleaving).
        assert!(scans.iter().any(|s| s.iter().flatten().count() >= 1));
    }
}

/// Runs one k-converge instance under a script-only schedule (no fallback):
/// processes whose scripted steps run out simply stop — modelling a crash
/// or an arbitrarily long stall at that exact point.
fn run_converge_script_only(
    inputs: &[u64],
    k: usize,
    schedule: Vec<ProcessId>,
) -> Vec<Option<(u64, bool)>> {
    let n = inputs.len();
    let results: SharedResults = Arc::new(Mutex::new(vec![None; n]));
    let results2 = Arc::clone(&results);
    let inputs = inputs.to_vec();
    let _ = SimBuilder::<()>::new(FailurePattern::failure_free(n))
        .adversary(Scripted::new(schedule))
        .spawn_all(move |pid| {
            let results = Arc::clone(&results2);
            let v = inputs[pid.index()];
            algo(move |ctx| async move {
                let inst =
                    ConvergeInstance::new(Key::new("cv"), ctx.n_plus_1(), SnapshotFlavor::Native);
                let out = inst.converge(&ctx, k, v).await;
                let mut slot = results.lock().unwrap();
                slot[pid.index()] = Some(out);
            })
        })
        .run();
    Arc::try_unwrap(results).unwrap().into_inner().unwrap()
}

/// Wait-freedom of commit–adopt, exhaustively: for every interleaving of
/// the two processes' 8 steps AND every prefix length at which p1 stops
/// (a crash / unbounded stall at that exact point), p2 still picks, and
/// the safety properties hold among whatever outputs exist.
#[test]
fn commit_adopt_every_interleaving_every_crash_point() {
    let inputs = [4u64, 9];
    let jobs: Vec<_> = interleavings(&[4, 4])
        .into_iter()
        .flat_map(|schedule| (0..=schedule.len()).map(move |cut| (schedule.clone(), cut)))
        .map(|(schedule, cut)| {
            move || {
                // Drop p1's steps at positions ≥ cut: p1 stops there; p2 gets
                // a tail so it always finishes (its own 5th step is the
                // decide).
                let truncated: Vec<ProcessId> = schedule
                    .iter()
                    .enumerate()
                    .filter(|(i, p)| p.index() != 0 || *i < cut)
                    .map(|(_, p)| *p)
                    .chain(std::iter::repeat_n(ProcessId(1), 4))
                    .collect();
                (
                    schedule,
                    cut,
                    run_converge_script_only(&inputs, 1, truncated),
                )
            }
        })
        .collect();
    for (schedule, cut, outs) in run_batch(jobs, default_workers()) {
        assert!(
            outs[1].is_some(),
            "wait-freedom: p2 must pick despite p1 stopping at {cut} in {schedule:?}"
        );
        // Safety among the outputs that exist: C-Validity and
        // C-Agreement (commit ⇒ one value picked overall).
        let picked: Vec<u64> = outs.iter().flatten().map(|(v, _)| *v).collect();
        assert!(picked.iter().all(|v| inputs.contains(v)));
        if outs.iter().flatten().any(|(_, c)| *c) {
            let mut d = picked.clone();
            d.sort_unstable();
            d.dedup();
            assert!(d.len() <= 1, "cut={cut}: {outs:?}");
        }
    }
}
