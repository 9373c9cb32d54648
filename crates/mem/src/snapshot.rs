//! Atomic snapshot objects (Afek et al. \[1\], used by the paper in §5.3).
//!
//! "An atomic snapshot object has n+1 positions and exports two atomic
//! operations: update and snapshot. Operation update(i, v) writes value v in
//! position i, and snapshot() returns the content of the object. Note that
//! the results of every two snapshots are related by containment."
//!
//! Two implementations are provided:
//!
//! * [`NativeSnapshot`] — the object is a primitive of the simulator: `scan`
//!   is one atomic step. Justified because atomic snapshots are wait-free
//!   implementable from registers \[1\]; the paper's protocols remain
//!   register-only because the register-based implementation below is a
//!   drop-in replacement.
//! * [`AfekSnapshot`](crate::afek::AfekSnapshot) — the wait-free register-only
//!   implementation with embedded scans, so the repository actually contains
//!   the substrate the paper's "registers only" claim relies on.
//!
//! Both implement the [`Snapshot`] interface, and the protocol crates are
//! generic over it (selected with [`SnapshotFlavor`]).

use crate::register::Value;
use upsilon_sim::{Access, Ctx, FdValue, Key, ObjectType, ProcessId};

/// Common interface of atomic snapshot implementations.
///
/// `update` writes to the calling process's own position (all uses in the
/// paper are single-writer); `scan` returns the full contents, `None`
/// marking positions never written (the paper's `⊥`).
///
/// ```no_run
/// # use upsilon_mem::{NativeSnapshot, Snapshot};
/// # use upsilon_sim::{Ctx, Key};
/// # async fn algo(ctx: &mut Ctx<()>) {
/// let snap = NativeSnapshot::<u64>::new(Key::new("A"), 4);
/// snap.update(ctx, 7).await;                 // one atomic step
/// let contents = snap.scan(ctx).await;       // one atomic step (native)
/// assert_eq!(contents[ctx.pid().index()], Some(7));
/// # }
/// ```
#[allow(async_fn_in_trait)] // step futures are driven on one thread; no Send bound wanted
pub trait Snapshot<T: Value> {
    /// Writes `v` into the caller's position.
    async fn update<D: FdValue>(&self, ctx: &mut Ctx<D>, v: T);

    /// Returns the contents of all positions, atomically (every two scans
    /// are related by containment).
    async fn scan<D: FdValue>(&self, ctx: &mut Ctx<D>) -> Vec<Option<T>>;
}

/// Which snapshot implementation a protocol instantiates.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SnapshotFlavor {
    /// One-step atomic scans ([`NativeSnapshot`]); fast, used by default.
    #[default]
    Native,
    /// Register-only wait-free implementation ([`crate::afek::AfekSnapshot`]);
    /// slower (`O(n²)` reads per scan) but uses nothing beyond registers.
    RegisterBased,
}

/// State of the native snapshot object.
#[derive(Clone, Debug)]
pub struct SnapshotObject<T: Value> {
    cells: Vec<Option<T>>,
}

impl<T: Value> SnapshotObject<T> {
    /// An object with `size` empty positions.
    pub fn new(size: usize) -> Self {
        SnapshotObject {
            cells: vec![None; size],
        }
    }

    /// Post-run inspection of the contents.
    pub fn cells(&self) -> &[Option<T>] {
        &self.cells
    }
}

/// Operations on the native snapshot object.
#[derive(Clone, PartialEq, Debug)]
pub enum SnapOp<T> {
    /// `update(i, v)`.
    Update(usize, T),
    /// `snapshot()`.
    Scan,
}

/// Responses from the native snapshot object.
#[derive(Clone, PartialEq, Debug)]
pub enum SnapResp<T> {
    /// Acknowledgement of an update.
    Ack,
    /// The scanned contents.
    Snap(Vec<Option<T>>),
}

impl<T: Value> ObjectType for SnapshotObject<T> {
    type Op = SnapOp<T>;
    type Resp = SnapResp<T>;

    fn invoke(&mut self, _caller: ProcessId, op: SnapOp<T>) -> SnapResp<T> {
        match op {
            SnapOp::Update(i, v) => {
                assert!(i < self.cells.len(), "snapshot position out of bounds");
                self.cells[i] = Some(v);
                SnapResp::Ack
            }
            SnapOp::Scan => SnapResp::Snap(self.cells.clone()),
        }
    }

    fn access(op: &SnapOp<T>) -> Access {
        match op {
            SnapOp::Update(i, _) => Access::Write(*i as u32),
            SnapOp::Scan => Access::Read,
        }
    }
}

/// Handle to a named native atomic snapshot object.
#[derive(Clone, Debug)]
pub struct NativeSnapshot<T: Value> {
    key: Key,
    size: usize,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Value> NativeSnapshot<T> {
    /// A handle to the snapshot named `key` with `size` positions.
    pub fn new(key: Key, size: usize) -> Self {
        NativeSnapshot {
            key,
            size,
            _marker: std::marker::PhantomData,
        }
    }

    /// The object's key.
    pub fn key(&self) -> &Key {
        &self.key
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.size
    }

    /// Whether the object has zero positions.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }
}

impl<T: Value> Snapshot<T> for NativeSnapshot<T> {
    async fn update<D: FdValue>(&self, ctx: &mut Ctx<D>, v: T) {
        let size = self.size;
        let resp = ctx
            .invoke(
                &self.key,
                || SnapshotObject::new(size),
                SnapOp::Update(ctx.pid().index(), v),
            )
            .await;
        match resp {
            SnapResp::Ack => {}
            SnapResp::Snap(_) => unreachable!("update returns an ack"),
        }
    }

    async fn scan<D: FdValue>(&self, ctx: &mut Ctx<D>) -> Vec<Option<T>> {
        let size = self.size;
        let resp = ctx
            .invoke(&self.key, || SnapshotObject::new(size), SnapOp::Scan)
            .await;
        match resp {
            SnapResp::Snap(s) => s,
            SnapResp::Ack => unreachable!("scan returns contents"),
        }
    }
}

/// Counts the non-`⊥` entries of a scan (used by Fig. 2's "at least
/// `n + 1 − f` non-⊥ values" test).
pub fn non_bot_count<T>(scan: &[Option<T>]) -> usize {
    scan.iter().filter(|c| c.is_some()).count()
}

/// The distinct non-`⊥` values of a scan, sorted and deduplicated.
pub fn distinct_values<T: Value + Ord>(scan: &[Option<T>]) -> Vec<T> {
    let mut vals: Vec<T> = scan.iter().flatten().cloned().collect();
    vals.sort();
    vals.dedup();
    vals
}

/// The minimum non-`⊥` value of a scan, if any (Fig. 2 line 25 adoption).
pub fn min_value<T: Value + Ord>(scan: &[Option<T>]) -> Option<T> {
    scan.iter().flatten().min().cloned()
}

/// Whether scan `a` is contained in scan `b` position-wise: every written
/// position of `a` is also written in `b` (with single-writer usage and
/// monotone per-writer values this is the paper's containment relation).
pub fn scan_contained_in<T: Value>(a: &[Option<T>], b: &[Option<T>]) -> bool {
    a.iter().zip(b.iter()).all(|(x, y)| match (x, y) {
        (None, _) => true,
        (Some(_), None) => false,
        (Some(_), Some(_)) => true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use upsilon_sim::{algo, FailurePattern, SeededRandom, SimBuilder};

    #[test]
    fn native_snapshot_update_then_scan() {
        let outcome = SimBuilder::<()>::new(FailurePattern::failure_free(3))
            .spawn_all(|pid| {
                algo(move |mut ctx| async move {
                    let snap = NativeSnapshot::<u64>::new(Key::new("A"), 3);
                    snap.update(&mut ctx, pid.index() as u64 * 10).await;
                    loop {
                        let s = snap.scan(&mut ctx).await;
                        if non_bot_count(&s) == 3 {
                            ctx.decide(s.iter().flatten().sum()).await;
                            return;
                        }
                    }
                })
            })
            .run();
        assert_eq!(outcome.run.decided_values(), vec![30]);
    }

    #[test]
    fn scans_are_containment_related() {
        // Collect every scan taken by every process under a random schedule
        // and check pairwise containment.
        use std::sync::{Arc, Mutex};
        let scans: Arc<Mutex<Vec<Vec<Option<u64>>>>> = Arc::new(Mutex::new(Vec::new()));
        let scans2 = Arc::clone(&scans);
        let _ = SimBuilder::<()>::new(FailurePattern::failure_free(4))
            .adversary(SeededRandom::new(77))
            .spawn_all(move |pid| {
                let scans = Arc::clone(&scans2);
                algo(move |mut ctx| async move {
                    let snap = NativeSnapshot::<u64>::new(Key::new("A"), 4);
                    for round in 0..5u64 {
                        snap.update(&mut ctx, pid.index() as u64 * 100 + round)
                            .await;
                        let s = snap.scan(&mut ctx).await;
                        scans.lock().unwrap().push(s);
                    }
                })
            })
            .run();
        let scans = scans.lock().unwrap();
        assert!(scans.len() >= 20);
        for a in scans.iter() {
            for b in scans.iter() {
                assert!(
                    scan_contained_in(a, b) || scan_contained_in(b, a),
                    "two scans must be containment-related: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn helpers() {
        let scan = vec![Some(5u64), None, Some(2), Some(5)];
        assert_eq!(non_bot_count(&scan), 3);
        assert_eq!(distinct_values(&scan), vec![2, 5]);
        assert_eq!(min_value(&scan), Some(2));
        let empty: Vec<Option<u64>> = vec![None, None];
        assert_eq!(min_value(&empty), None);
        assert_eq!(distinct_values(&empty), Vec::<u64>::new());
    }

    #[test]
    fn containment_helper() {
        let a = vec![Some(1u64), None];
        let b = vec![Some(1u64), Some(2)];
        assert!(scan_contained_in(&a, &b));
        assert!(!scan_contained_in(&b, &a));
        assert!(scan_contained_in(&a, &a));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn update_position_bounds_checked() {
        let mut obj = SnapshotObject::<u64>::new(2);
        obj.invoke(ProcessId(0), SnapOp::Update(2, 1));
    }
}
