//! Wait-free atomic snapshot from registers only (Afek, Attiya, Dolev,
//! Gafni, Merritt, Shavit, *Atomic snapshots of shared memory*, JACM 1993 —
//! reference \[1\] of the paper).
//!
//! This is the substrate behind the paper's claim that its algorithms work
//! "in the 'weakest' shared memory model where processes communicate through
//! registers" (§7): every snapshot operation used by Fig. 2 can be replaced
//! by this implementation, which uses single-writer registers and nothing
//! else.
//!
//! The algorithm (unbounded-sequence-number variant with embedded scans):
//!
//! * `update(v)`: perform a `scan`, then write `(seq+1, v, scan)` to your
//!   register — the scan is *embedded* in the write.
//! * `scan()`: repeatedly collect all registers. If two successive collects
//!   are identical (no sequence number changed), the direct view is a valid
//!   snapshot. Otherwise, any process observed to move **twice** since the
//!   first collect performed a complete `update` — and hence a complete
//!   embedded scan — strictly inside this scan's interval; borrow it.
//!
//! Wait-freedom: after `n + 2` collects either some double collect was clean
//! or some process moved twice (pigeonhole), so a scan costs `O(n²)` reads.

use crate::register::{Register, Value};
use upsilon_sim::{Ctx, FdValue, Key};

/// The per-process register contents of the Afek et al. snapshot.
#[derive(Clone, PartialEq, Debug)]
pub struct AfekCell<T> {
    /// Number of updates this process has performed.
    pub seq: u64,
    /// The process's current datum (`None` = never written, the paper's ⊥).
    pub data: Option<T>,
    /// The scan embedded in the process's latest update.
    pub embedded: Vec<Option<T>>,
}

impl<T: Value> AfekCell<T> {
    fn initial(size: usize) -> Self {
        AfekCell {
            seq: 0,
            data: None,
            embedded: vec![None; size],
        }
    }
}

/// Handle to a register-only atomic snapshot object.
///
/// Implements the same [`Snapshot`](crate::Snapshot) interface as the native
/// object; equivalence is exercised by the E11 experiment (`upsilon-scenario
/// experiments E11`) and the property tests in this crate.
#[derive(Clone, Debug)]
pub struct AfekSnapshot<T: Value> {
    base: Key,
    size: usize,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Value> AfekSnapshot<T> {
    /// A handle to the snapshot named `base` with `size` positions.
    pub fn new(base: Key, size: usize) -> Self {
        AfekSnapshot {
            base,
            size,
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.size
    }

    /// Whether the object has zero positions.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    fn slot(&self, i: usize) -> Register<AfekCell<T>> {
        Register::new(self.base.at(i as u64), AfekCell::initial(self.size))
    }

    /// Reads all `size` registers, one step each.
    async fn collect<D: FdValue>(&self, ctx: &mut Ctx<D>) -> Vec<AfekCell<T>> {
        let mut out = Vec::with_capacity(self.size);
        // #[conform(bound = "n_plus_1")]
        for i in 0..self.size {
            out.push(self.slot(i).read(ctx).await);
        }
        out
    }
}

impl<T: Value> crate::snapshot::Snapshot<T> for AfekSnapshot<T> {
    // #[conform(wait_free)]
    async fn update<D: FdValue>(&self, ctx: &mut Ctx<D>, v: T) {
        let embedded = self.scan(ctx).await;
        let me = ctx.pid().index();
        let current = self.slot(me).read(ctx).await;
        self.slot(me)
            .write(
                ctx,
                AfekCell {
                    seq: current.seq + 1,
                    data: Some(v),
                    embedded,
                },
            )
            .await
    }

    // Pigeonhole (module docs): after n + 2 collects either some double
    // collect is clean or some process moved twice, so the retry loop runs
    // at most n_plus_1 + 1 times.
    // #[conform(wait_free)]
    async fn scan<D: FdValue>(&self, ctx: &mut Ctx<D>) -> Vec<Option<T>> {
        let mut first = self.collect(ctx).await;
        let mut moved = vec![false; self.size];
        // #[conform(bound = "n_plus_1 + 1")]
        loop {
            let second = self.collect(ctx).await;
            let mut changed = false;
            for j in 0..self.size {
                if second[j].seq != first[j].seq {
                    changed = true;
                    if moved[j] {
                        // p_j moved twice: its latest embedded scan happened
                        // entirely within our interval — it is our snapshot.
                        return second[j].embedded.clone();
                    }
                    moved[j] = true;
                }
            }
            if !changed {
                // Clean double collect: the direct view is atomic.
                return second.into_iter().map(|c| c.data).collect();
            }
            first = second;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{non_bot_count, scan_contained_in, Snapshot};
    use std::sync::{Arc, Mutex};
    use upsilon_sim::{algo, FailurePattern, ProcessId, SeededRandom, SimBuilder, Time};

    #[test]
    fn solo_update_and_scan() {
        let outcome = SimBuilder::<()>::new(FailurePattern::failure_free(1))
            .spawn_all(|_| {
                algo(move |mut ctx| async move {
                    let snap = AfekSnapshot::<u64>::new(Key::new("S"), 1);
                    assert_eq!(snap.scan(&mut ctx).await, vec![None]);
                    snap.update(&mut ctx, 7).await;
                    assert_eq!(snap.scan(&mut ctx).await, vec![Some(7)]);
                })
            })
            .run();
        assert!(outcome.run.all_correct_finished());
    }

    #[test]
    fn concurrent_updates_all_become_visible() {
        let outcome = SimBuilder::<()>::new(FailurePattern::failure_free(4))
            .adversary(SeededRandom::new(5))
            .spawn_all(|pid| {
                algo(move |mut ctx| async move {
                    let snap = AfekSnapshot::<u64>::new(Key::new("S"), 4);
                    snap.update(&mut ctx, pid.index() as u64 + 1).await;
                    loop {
                        let s = snap.scan(&mut ctx).await;
                        if non_bot_count(&s) == 4 {
                            ctx.decide(s.iter().flatten().sum()).await;
                            return;
                        }
                    }
                })
            })
            .run();
        assert_eq!(outcome.run.decided_values(), vec![10]);
    }

    #[test]
    fn scans_under_adversarial_schedules_are_containment_related() {
        for seed in 0..12u64 {
            let scans: Arc<Mutex<Vec<Vec<Option<u64>>>>> = Arc::new(Mutex::new(Vec::new()));
            let scans2 = Arc::clone(&scans);
            let _ = SimBuilder::<()>::new(FailurePattern::failure_free(3))
                .adversary(SeededRandom::new(seed))
                .spawn_all(move |pid| {
                    let scans = Arc::clone(&scans2);
                    algo(move |mut ctx| async move {
                        let snap = AfekSnapshot::<u64>::new(Key::new("S"), 3);
                        for round in 1..4u64 {
                            snap.update(&mut ctx, pid.index() as u64 * 10 + round).await;
                            let s = snap.scan(&mut ctx).await;
                            scans.lock().unwrap().push(s);
                        }
                    })
                })
                .run();
            let scans = scans.lock().unwrap();
            for a in scans.iter() {
                for b in scans.iter() {
                    assert!(
                        scan_contained_in(a, b) || scan_contained_in(b, a),
                        "seed {seed}: scans not containment-related: {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn scan_survives_crash_of_writer() {
        // A process that crashes mid-update must not block scanners
        // (wait-freedom).
        let pattern = FailurePattern::builder(2)
            .crash(ProcessId(0), Time(3))
            .build();
        let outcome = SimBuilder::<()>::new(pattern)
            .spawn_all(|pid| {
                algo(move |mut ctx| async move {
                    let snap = AfekSnapshot::<u64>::new(Key::new("S"), 2);
                    if pid.index() == 0 {
                        loop {
                            snap.update(&mut ctx, 1).await;
                        }
                    } else {
                        let s = snap.scan(&mut ctx).await;
                        ctx.decide(non_bot_count(&s) as u64).await;
                    }
                })
            })
            .run();
        assert!(
            outcome.run.finished(ProcessId(1)),
            "scanner must be wait-free"
        );
    }

    #[test]
    fn scan_step_cost_is_quadratic_not_unbounded() {
        // A lone scanner with no concurrent movement completes in exactly
        // 2·size reads (one clean double collect).
        let outcome = SimBuilder::<()>::new(FailurePattern::failure_free(3))
            .spawn(
                ProcessId(0),
                algo(move |mut ctx| async move {
                    let snap = AfekSnapshot::<u64>::new(Key::new("S"), 3);
                    let _ = snap.scan(&mut ctx).await;
                }),
            )
            .run();
        assert_eq!(
            outcome.run.steps_by()[0],
            6,
            "clean scan = two collects of 3 reads"
        );
    }
}
