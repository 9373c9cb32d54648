//! Dynamic reorder cross-check of the generated commutativity matrix.
//!
//! The static analyzer promises that matrix-commuting operation pairs
//! yield identical object state and identical responses in either order,
//! from *every* starting state. This harness audits that promise on real
//! executions: it records runs over the actual `crates/mem` objects (op
//! signatures on, full trace detail), finds every adjacent pair of steps
//! by different processes whose recorded signatures the matrix calls
//! commuting, swaps exactly that pair in the schedule, replays, and
//! asserts the two runs are indistinguishable — bit-identical memory
//! fingerprint, identical induced trace, and event-for-event identical
//! step details (with only the swapped pair transposed).
//!
//! This is the end-to-end backstop for the one soundness assumption the
//! static side cannot discharge alone: that `Debug` renderings are
//! faithful witnesses of argument equality (see `upsilon_sim::opsig`).

use upsilon_mem::{ConsensusObject, Propose, RegOp, RegisterObject, SnapOp, SnapshotObject};
use upsilon_sim::{
    algo, sigs_commute, Key, ProcessId, ProcessSet, Scripted, SimBuilder, SimOutcome, StepKind,
    TraceLevel,
};

const N_PLUS_1: usize = 3;

/// Builds and runs one workload; `schedule` scripts the adversary (the
/// default round-robin is used for the base run).
type Workload = fn(Option<Vec<ProcessId>>) -> SimOutcome<()>;

fn builder(schedule: Option<Vec<ProcessId>>) -> SimBuilder<()> {
    let b = SimBuilder::<()>::new(upsilon_sim::FailurePattern::failure_free(N_PLUS_1))
        .trace_level(TraceLevel::Full)
        .record_op_sigs(true);
    match schedule {
        Some(s) => b.adversary(Scripted::new(s)),
        None => b,
    }
}

/// Same-value register writes racing with reads: `Write(7) ~ Write(7)`
/// commutes under `CommuteIf { equal_args }`.
fn register_workload(schedule: Option<Vec<ProcessId>>) -> SimOutcome<()> {
    builder(schedule)
        .spawn_all(|_pid| {
            algo(move |mut ctx| async move {
                let k = Key::new("reg");
                let init = || RegisterObject::new(0u64);
                ctx.invoke(&k, init, RegOp::Write(7)).await;
                ctx.invoke(&k, init, RegOp::Read).await;
                ctx.invoke(&k, init, RegOp::Write(7)).await;
            })
        })
        .run()
}

/// Per-process snapshot cells: `Update(i, v) ~ Update(j, v)` commutes for
/// `i != j` (distinct cell) and for `i == j` with equal payloads.
fn snapshot_workload(schedule: Option<Vec<ProcessId>>) -> SimOutcome<()> {
    builder(schedule)
        .spawn_all(|pid| {
            algo(move |mut ctx| async move {
                let k = Key::new("snap");
                let init = || SnapshotObject::new(N_PLUS_1);
                ctx.invoke(&k, init, SnapOp::Update(pid.index(), 5u64))
                    .await;
                ctx.invoke(&k, init, SnapOp::Scan).await;
                ctx.invoke(&k, init, SnapOp::Update(pid.index(), 5u64))
                    .await;
            })
        })
        .run()
}

/// Equal proposals to one consensus object: `Propose(9) ~ Propose(9)`
/// commutes (first-propose-wins leaves the same slot and response).
fn consensus_workload(schedule: Option<Vec<ProcessId>>) -> SimOutcome<()> {
    builder(schedule)
        .spawn_all(|_pid| {
            algo(move |mut ctx| async move {
                let k = Key::new("cons");
                let init = || ConsensusObject::new(ProcessSet::all(N_PLUS_1));
                ctx.invoke(&k, init, Propose(9)).await;
            })
        })
        .run()
}

/// A mixed workload touching all three object kinds in one run.
fn mixed_workload(schedule: Option<Vec<ProcessId>>) -> SimOutcome<()> {
    builder(schedule)
        .spawn_all(|pid| {
            algo(move |mut ctx| async move {
                let reg = Key::new("reg");
                let snap = Key::new("snap");
                let cons = Key::new("cons");
                let reg_init = || RegisterObject::new(0u64);
                let snap_init = || SnapshotObject::new(N_PLUS_1);
                let cons_init = || ConsensusObject::new(ProcessSet::all(N_PLUS_1));
                ctx.invoke(&snap, snap_init, SnapOp::Update(pid.index(), 1u64))
                    .await;
                ctx.invoke(&reg, reg_init, RegOp::Write(3)).await;
                ctx.invoke(&cons, cons_init, Propose(4)).await;
                ctx.invoke(&snap, snap_init, SnapOp::Scan).await;
                ctx.invoke(&reg, reg_init, RegOp::Read).await;
            })
        })
        .run()
}

/// Swaps every matrix-commuting adjacent pair of the base run, replays,
/// and asserts indistinguishability. Returns the number of swaps audited.
fn cross_check(workload: Workload) -> usize {
    let base = workload(None);
    let schedule = base.run.schedule();
    let base_fp = base.memory.state_fingerprint();
    let base_sigma = base.run.induced_trace();
    let events = base.run.events();
    let mut swaps = 0usize;

    for i in 0..events.len().saturating_sub(1) {
        let (e1, e2) = (&events[i], &events[i + 1]);
        if e1.pid == e2.pid {
            continue;
        }
        let (StepKind::Op { object: o1, .. }, StepKind::Op { object: o2, .. }) =
            (&e1.kind, &e2.kind)
        else {
            continue;
        };
        let (s1, s2) = (e1.kind.sig(), e2.kind.sig());
        // The matrix speaks about pairs on one object; steps on different
        // objects commute trivially and are not its claim.
        if o1 != o2 || !sigs_commute(s1, s2) {
            continue;
        }
        swaps += 1;

        let mut swapped = schedule.clone();
        swapped.swap(i, i + 1);
        let alt = workload(Some(swapped));

        assert_eq!(
            alt.memory.state_fingerprint(),
            base_fp,
            "swap at {i} changed final memory: {:?} ~ {:?}",
            s1,
            s2
        );
        assert!(
            alt.run.induced_trace().same_sigma(&base_sigma),
            "swap at {i} changed the induced trace: {:?} ~ {:?}",
            s1,
            s2
        );
        // Event-for-event: the replay must be the base run with exactly
        // the swapped pair transposed (times differ; pid and full step
        // detail — op and response renderings — must match).
        let alt_events = alt.run.events();
        assert_eq!(alt_events.len(), events.len(), "swap at {i} changed length");
        for (j, alt_ev) in alt_events.iter().enumerate() {
            let expect = if j == i {
                &events[i + 1]
            } else if j == i + 1 {
                &events[i]
            } else {
                &events[j]
            };
            assert_eq!(
                (alt_ev.pid, &alt_ev.kind),
                (expect.pid, &expect.kind),
                "swap at {i} diverged at event {j}"
            );
        }
    }
    swaps
}

#[test]
fn register_same_value_writes_reorder_cleanly() {
    let swaps = cross_check(register_workload);
    assert!(
        swaps >= 2,
        "workload must exercise the matrix: {swaps} swaps"
    );
}

#[test]
fn snapshot_distinct_cells_reorder_cleanly() {
    let swaps = cross_check(snapshot_workload);
    assert!(
        swaps >= 2,
        "workload must exercise the matrix: {swaps} swaps"
    );
}

#[test]
fn consensus_equal_proposals_reorder_cleanly() {
    let swaps = cross_check(consensus_workload);
    assert!(
        swaps >= 1,
        "workload must exercise the matrix: {swaps} swaps"
    );
}

#[test]
fn mixed_workload_reorders_cleanly() {
    let swaps = cross_check(mixed_workload);
    assert!(
        swaps >= 1,
        "workload must exercise the matrix: {swaps} swaps"
    );
}

/// The matrix must never contradict the lattice: a pair the lattice calls
/// non-conflicting must never be "un-commuted" by the matrix. (The
/// refinement only removes conflicts.) Checked over every signature pair
/// observed in the mixed workload.
#[test]
fn matrix_only_refines_the_lattice() {
    let base = mixed_workload(None);
    let sigs: Vec<_> = base
        .run
        .events()
        .iter()
        .filter_map(|e| match &e.kind {
            StepKind::Op { access, .. } => e.kind.sig().map(|s| (*access, s.clone())),
            _ => None,
        })
        .collect();
    assert!(!sigs.is_empty(), "op signatures must be recorded");
    for (ax, x) in &sigs {
        for (ay, y) in &sigs {
            if !ax.conflicts_with(*ay) {
                // Lattice already independent — the matrix's verdict is
                // irrelevant here; nothing to check.
                continue;
            }
            // If the matrix removes the conflict, the reorder tests above
            // are the witness that the removal is justified. Here we only
            // assert symmetry of the refined relation.
            assert_eq!(
                sigs_commute(Some(x), Some(y)),
                sigs_commute(Some(y), Some(x)),
                "sigs_commute must be symmetric: {x:?} ~ {y:?}"
            );
        }
    }
}
