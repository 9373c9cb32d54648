//! The per-process execution context.
//!
//! Algorithms are written as ordinary sequential code over a [`Ctx`], made
//! resumable by the compiler: every `Ctx` operation is an `async fn` whose
//! future completes exactly when the scheduler grants the process its next
//! atomic step. The whole run executes on one thread. A step future that
//! finds no grant pending returns `Poll::Pending`, suspending the algorithm
//! *as data*; the scheduler resumes it with one `poll` per granted step.
//!
//! At most one grant is outstanding at any moment, so shared state is
//! accessed by at most one process at a time — each step is atomic as §3.3
//! requires — and the whole run is deterministic given the adversary's
//! choices.
//!
//! Every step-taking `Ctx` operation borrows the context mutably, and its
//! future holds that borrow until the step is taken. So a process has at
//! most one operation in flight — §3.1's one shared-memory or
//! failure-detector operation per atomic step — and the compiler, not a
//! source audit, rejects two operations behind one await.
//!
//! A crash drops the process's suspended future (crash-stop, §3.1): no code
//! of a crashed process runs again, so a `Ctx` operation only ever returns
//! the value of a step that was granted.

use crate::object::{Key, Memory, ObjectType};
use crate::opsig::OpSig;
use crate::oracle::{FdValue, Oracle};
use crate::process::ProcessId;
use crate::time::Time;
use crate::trace::{OpNote, Output, StepKind, TraceLevel};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::task::Poll;

/// The shared world: memory, oracle and trace configuration.
pub(crate) struct World<D: FdValue> {
    pub(crate) memory: Memory,
    pub(crate) oracle: Box<dyn Oracle<D>>,
    pub(crate) trace_level: TraceLevel,
    pub(crate) record_sigs: bool,
}

/// One step's result value, recorded so a suspended state machine can
/// later be rebuilt by replaying its completed steps (see
/// [`Session`](crate::Session)): the replayed step returns a clone of the
/// recorded value instead of re-running its closure against the world. The
/// session's log and every replay share the one allocation.
pub(crate) type Reply = Rc<dyn Any>;

/// Per-process mailbox: the scheduler deposits a grant (permission to take
/// exactly one step at the given time), the step future consumes it,
/// performs its operation and deposits the step report back.
///
/// The three extra slots drive session recording and fast-forward replay:
/// with `record` set, each completed step leaves its result in `recorded`
/// for the session to harvest; a value deposited in `replay`
/// makes the *next* step consume it as its result without touching the
/// world (and without depositing a step report — the caller already knows
/// what the step did).
pub(crate) struct ProcCell<D: FdValue> {
    pub(crate) grant: Cell<Option<Time>>,
    pub(crate) reply: RefCell<Option<StepKind<D>>>,
    pub(crate) record: Cell<bool>,
    pub(crate) recorded: Cell<Option<Reply>>,
    pub(crate) replay: Cell<Option<Reply>>,
}

impl<D: FdValue> ProcCell<D> {
    pub(crate) fn new() -> Self {
        ProcCell {
            grant: Cell::new(None),
            reply: RefCell::new(None),
            record: Cell::new(false),
            recorded: Cell::new(None),
            replay: Cell::new(None),
        }
    }

    /// Empties the grant, report and result slots — for a cell a rebuilt
    /// process takes over from the instance it replaces.
    pub(crate) fn clear(&self) {
        self.grant.set(None);
        self.reply.borrow_mut().take();
        self.recorded.set(None);
        self.replay.set(None);
    }
}

/// The per-process execution context handed to algorithm code.
///
/// All methods that take a step are `async`, take `&mut self` and return
/// the step's value. A process crashed by the failure pattern simply takes
/// no further step: the engine drops its suspended future, so the pending
/// operation never returns.
///
/// # The step contract is a borrow
///
/// A step future holds the context's one mutable borrow until its step is
/// taken, so two operations cannot share an await point — this does not
/// compile (E0499, `ctx` borrowed mutably twice):
///
/// ```compile_fail
/// use std::future::Future;
/// use upsilon_sim::{Ctx, ProcessId};
///
/// async fn both<A: Future, B: Future>(a: A, b: B) -> (A::Output, B::Output) {
///     (a.await, b.await)
/// }
///
/// async fn two_ops_one_await(ctx: &mut Ctx<ProcessId>) -> ProcessId {
///     let ((), leader) = both(ctx.yield_step(), ctx.query_fd()).await;
///     leader
/// }
/// ```
///
/// The same two operations, each behind its own await, do:
///
/// ```
/// use upsilon_sim::{Ctx, ProcessId};
///
/// async fn one_op_per_await(ctx: &mut Ctx<ProcessId>) -> ProcessId {
///     let ((), leader) = (ctx.yield_step().await, ctx.query_fd().await);
///     leader
/// }
/// ```
///
/// # Deadlock hazard: external locks across steps
///
/// Test harnesses often share an `Arc<Mutex<…>>` between process closures
/// to collect results. Never hold such a lock across an `.await`: every
/// `Ctx` method suspends the process until the scheduler grants it a step,
/// and in the meantime the scheduler polls other processes on the *same*
/// thread. If one of them calls `lock()` on the mutex the suspended process
/// still holds, that thread blocks forever (`std::sync::Mutex` is not
/// reentrant), and the run deadlocks. In particular beware receiver-first
/// evaluation order: `shared.lock().unwrap().push(ctx_op().await)`
/// acquires the lock *before* running `ctx_op`. Bind the step result to a
/// local first, then lock.
pub struct Ctx<D: FdValue> {
    pid: ProcessId,
    n_plus_1: usize,
    now: Time,
    cell: Rc<ProcCell<D>>,
    world: Rc<RefCell<World<D>>>,
}

impl<D: FdValue> std::fmt::Debug for Ctx<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("pid", &self.pid)
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl<D: FdValue> Ctx<D> {
    pub(crate) fn inline(
        pid: ProcessId,
        n_plus_1: usize,
        cell: Rc<ProcCell<D>>,
        world: Rc<RefCell<World<D>>>,
    ) -> Self {
        Ctx {
            pid,
            n_plus_1,
            now: Time::ZERO,
            cell,
            world,
        }
    }

    /// This process's identifier.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// The system size `n + 1`.
    pub fn n_plus_1(&self) -> usize {
        self.n_plus_1
    }

    /// `n`, the maximum number of failures in the wait-free case.
    pub fn n(&self) -> usize {
        self.n_plus_1 - 1
    }

    /// The time of the most recently granted step.
    ///
    /// Algorithms may read this between steps; it does not take a step.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Core step primitive: waits for a grant, runs `f` atomically against
    /// the shared world, reports the step, returns `f`'s result.
    ///
    /// The wait *is* `Pending`: the scheduler's next `poll` of this process
    /// delivers the grant through its [`ProcCell`].
    async fn step<R: Clone + 'static>(
        &mut self,
        f: impl FnOnce(&mut World<D>, ProcessId, Time) -> (StepKind<D>, R),
    ) -> R {
        let cell = &self.cell;
        let t =
            std::future::poll_fn(|_cx| cell.grant.take().map_or(Poll::Pending, Poll::Ready)).await;
        self.now = t;
        if let Some(prev) = cell.replay.take() {
            // Fast-forward replay: this step already happened in the run
            // being restored. Return its recorded result without re-running
            // `f` (no world mutation, no step report).
            return prev
                .downcast_ref::<R>()
                .expect("replayed step result has the recorded type")
                .clone();
        }
        let (kind, out) = f(&mut self.world.borrow_mut(), self.pid, t);
        if cell.record.get() {
            cell.recorded.set(Some(Rc::new(out.clone())));
        }
        *cell.reply.borrow_mut() = Some(kind);
        out
    }

    /// Applies `op` to the shared object of type `O` named `key`, creating
    /// it with `init` on first touch. One atomic step.
    pub async fn invoke<O: ObjectType>(
        &mut self,
        key: &Key,
        init: impl FnOnce() -> O,
        op: O::Op,
    ) -> O::Resp {
        self.step(move |world, pid, _t| {
            let id = world.memory.resolve::<O>(key, init);
            let access = O::access(&op);
            let sig = world
                .record_sigs
                .then(|| OpSig::new(std::any::type_name::<O>(), format!("{op:?}")));
            let detail_prefix = (world.trace_level == TraceLevel::Full).then(|| format!("{op:?}"));
            let resp = world.memory.invoke::<O>(id, pid, op);
            let detail = detail_prefix.map(|p| format!("{p} -> {resp:?}").into_boxed_str());
            // A run that records neither payload allocates nothing here.
            let note =
                (sig.is_some() || detail.is_some()).then(|| Box::new(OpNote { sig, detail }));
            (
                StepKind::Op {
                    object: id,
                    access,
                    note,
                },
                resp,
            )
        })
        .await
    }

    /// Queries this process's failure-detector module: returns `H(p, t)` for
    /// the current step's time `t`. One atomic step (a *query step*, §3.3).
    pub async fn query_fd(&mut self) -> D {
        self.step(|world, pid, t| {
            let v = world.oracle.output(pid, t);
            (StepKind::Query(v.clone()), v)
        })
        .await
    }

    /// Produces an application output (§3.3 item iii). One atomic step.
    ///
    /// Reduction algorithms use this to publish the current value of the
    /// emulated failure-detector variable (`D-output` of §3.5); agreement
    /// algorithms use it to decide.
    pub async fn output(&mut self, out: Output) {
        self.step(move |_world, _pid, _t| (StepKind::Output(out), ()))
            .await
    }

    /// Decides `v` — sugar for `output(Output::Decide(v))`.
    pub async fn decide(&mut self, v: u64) {
        self.output(Output::Decide(v)).await
    }

    /// Takes a step that touches nothing shared. Used to model idle spinning
    /// and to keep custom adversary constructions honest about step counts.
    pub async fn yield_step(&mut self) {
        self.step(|_world, _pid, _t| (StepKind::NoOp, ())).await
    }
}

/// How a process's algorithm ended. A crashed process has no outcome: its
/// future is dropped, not ended.
pub(crate) enum ProcOutcome {
    /// The algorithm returned — the process finished its protocol.
    FinishedOk,
    /// The algorithm panicked; the payload is re-raised by the runner.
    Panicked(Box<dyn std::any::Any + Send>),
}
