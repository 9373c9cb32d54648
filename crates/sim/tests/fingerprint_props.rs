//! Property tests for [`trace_fingerprint`], the canonical digest of a run
//! prefix.
//!
//! The contract a fingerprint comparison relies on:
//!
//! * **Mazurkiewicz invariance** — two interleavings of the same
//!   per-process operation sequences over *disjoint* objects (every
//!   reordering of which is a sequence of commuting swaps) fingerprint
//!   identically, even though step times and object-id assignment differ;
//! * **conflict sensitivity** — swapping two *conflicting* steps (a write
//!   past a read, or two writes to one register) changes either a
//!   process's observation or the final memory, and the fingerprint moves
//!   with it;
//! * **state sensitivity** — runs that differ only in a written value
//!   fingerprint differently;
//! * **engine independence** — the inline and threads engines produce the
//!   same fingerprint for the same scripted schedule.
//!
//! Runs are recorded at [`TraceLevel::Full`] throughout, so responses are
//! part of the per-process digests.

use proptest::prelude::*;
use upsilon_sim::{
    algo, trace_fingerprint, Access, EngineKind, FailurePattern, Key, ObjectType, ProcessId,
    RoundRobin, Scripted, SimBuilder, TraceLevel,
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

/// One scripted operation for a process: `(key index, write value)` —
/// `None` reads, `Some(v)` writes `v`.
type PlannedOp = (u64, Option<u64>);

/// Runs `n` processes, each executing its own fixed op list, under the
/// scripted grant order, and returns the run's canonical fingerprint.
fn fingerprint_of(n: usize, plans: &[Vec<PlannedOp>], script: &[usize], engine: EngineKind) -> u64 {
    let script: Vec<ProcessId> = script.iter().map(|&i| ProcessId(i)).collect();
    let mut builder = SimBuilder::<()>::new(FailurePattern::failure_free(n))
        .adversary(Scripted::then(script, RoundRobin::new()))
        .engine(engine)
        .trace_level(TraceLevel::Full)
        .max_steps(64);
    for (i, plan) in plans.iter().enumerate() {
        let plan = plan.clone();
        builder = builder.spawn(
            ProcessId(i),
            algo(move |ctx| {
                let plan = plan.clone();
                async move {
                    for (key, write) in plan {
                        let op = match write {
                            Some(v) => Op::Write(v),
                            None => Op::Read,
                        };
                        ctx.invoke(&Key::new("r").at(key), Cell::default, op)
                            .await?;
                    }
                    Ok(())
                }
            }),
        );
    }
    let outcome = builder.run();
    trace_fingerprint(&outcome.run, &outcome.memory)
}

/// Splices two per-process op counts into an interleaving: `choices[k]`
/// picks which process takes the next step (falling back to whichever
/// still has steps left).
fn interleave(len0: usize, len1: usize, choices: &[bool]) -> Vec<usize> {
    let (mut a, mut b) = (0, 0);
    let mut script = Vec::with_capacity(len0 + len1);
    for k in 0..(len0 + len1) {
        let pick0 = choices.get(k).copied().unwrap_or(k % 2 == 0);
        if (pick0 && a < len0) || b >= len1 {
            a += 1;
            script.push(0);
        } else {
            b += 1;
            script.push(1);
        }
    }
    script
}

proptest! {
    /// Disjoint objects: every interleaving of the two processes is a
    /// chain of commuting swaps away from every other, so all of them
    /// must fingerprint identically.
    #[test]
    fn disjoint_interleavings_fingerprint_identically(
        vals0 in proptest::collection::vec(0u64..8, 1..4),
        vals1 in proptest::collection::vec(0u64..8, 1..4),
        choices_a in proptest::collection::vec(proptest::bool::ANY, 8),
        choices_b in proptest::collection::vec(proptest::bool::ANY, 8),
    ) {
        // Process i touches only key r[i]: writes, then one read-back.
        let plan = |pid: u64, vals: &[u64]| -> Vec<PlannedOp> {
            let mut ops: Vec<PlannedOp> = vals.iter().map(|&v| (pid, Some(v))).collect();
            ops.push((pid, None));
            ops
        };
        let plans = vec![plan(0, &vals0), plan(1, &vals1)];
        let (l0, l1) = (plans[0].len(), plans[1].len());
        let sa = interleave(l0, l1, &choices_a);
        let sb = interleave(l0, l1, &choices_b);
        let fa = fingerprint_of(2, &plans, &sa, EngineKind::Inline);
        let fb = fingerprint_of(2, &plans, &sb, EngineKind::Inline);
        prop_assert_eq!(fa, fb);
    }

    /// Conflicting write/read on one register: the read observes the
    /// write in one order and misses it in the other, so the two
    /// interleavings must fingerprint differently.
    #[test]
    fn conflicting_swap_changes_fingerprint(v in 1u64..64) {
        let plans = vec![vec![(0, Some(v))], vec![(0, None)]];
        let write_first = fingerprint_of(2, &plans, &[0, 1], EngineKind::Inline);
        let read_first = fingerprint_of(2, &plans, &[1, 0], EngineKind::Inline);
        prop_assert!(write_first != read_first, "orders collide: {write_first:#x}");
    }

    /// Write/write conflict: the surviving value differs with the order,
    /// so the final-memory component must separate the fingerprints.
    #[test]
    fn write_order_on_shared_register_is_visible(
        v in 0u64..32,
        delta in 1u64..32,
    ) {
        let plans = vec![vec![(0, Some(v))], vec![(0, Some(v + delta))]];
        let a = fingerprint_of(2, &plans, &[0, 1], EngineKind::Inline);
        let b = fingerprint_of(2, &plans, &[1, 0], EngineKind::Inline);
        prop_assert!(a != b, "fingerprints collide: {a:#x}");
    }

    /// Distinct written values under the same schedule reach distinct
    /// states and must fingerprint differently.
    #[test]
    fn written_value_is_visible(v in 0u64..32, delta in 1u64..32) {
        let schedule = [0usize, 1];
        let a = fingerprint_of(
            2,
            &[vec![(0, Some(v))], vec![(1, Some(9))]],
            &schedule,
            EngineKind::Inline,
        );
        let b = fingerprint_of(
            2,
            &[vec![(0, Some(v + delta))], vec![(1, Some(9))]],
            &schedule,
            EngineKind::Inline,
        );
        prop_assert!(a != b, "fingerprints collide: {a:#x}");
    }

    /// Both engines produce the same fingerprint for the same script:
    /// the digest never depends on which engine recorded the run.
    #[test]
    fn engines_agree_on_fingerprints(
        vals0 in proptest::collection::vec(0u64..8, 1..3),
        vals1 in proptest::collection::vec(0u64..8, 1..3),
        choices in proptest::collection::vec(proptest::bool::ANY, 6),
    ) {
        let plans = vec![
            vals0.iter().map(|&v| (0, Some(v))).collect::<Vec<_>>(),
            vals1.iter().map(|&v| (0, Some(v))).collect::<Vec<_>>(),
        ];
        let script = interleave(plans[0].len(), plans[1].len(), &choices);
        let inline = fingerprint_of(2, &plans, &script, EngineKind::Inline);
        let threads = fingerprint_of(2, &plans, &script, EngineKind::Threads);
        prop_assert_eq!(inline, threads);
    }
}
