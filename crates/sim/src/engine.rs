//! The step engine behind [`SimBuilder`](crate::SimBuilder).
//!
//! The scheduler loop (in `builder.rs`) makes every scheduling decision,
//! records every trace event and evaluates every stop condition; the
//! engine's only job is to deliver grants to algorithm state machines and
//! report back the step each grant produced. The whole run executes on the
//! scheduler's own thread: each process is a suspended future that gets
//! exactly one `poll` per granted step. No channels, no locks, no spawns.

use crate::builder::AlgoFn;
use crate::oracle::FdValue;
use crate::process::ProcessId;
use crate::runtime::{Ctx, ProcCell, ProcOutcome, Reply, World};
use crate::time::Time;
use crate::trace::StepKind;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// The execution engine of a run. There is one: the single-threaded
/// resumable step engine, which drives each algorithm as a suspended
/// future, one `poll` per granted step. The type remains as the (ignored)
/// engine argument of `upsilon_check::replay_token`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EngineKind {
    /// The single-threaded resumable step engine.
    #[default]
    Inline,
}

/// Terminal state of the engine after [`InlineEngine::shutdown`].
pub(crate) struct EngineShutdown<D: FdValue> {
    pub(crate) world: World<D>,
    pub(crate) first_panic: Option<Box<dyn std::any::Any + Send>>,
}

struct InlineProc<D: FdValue> {
    cell: Rc<ProcCell<D>>,
    /// The algorithm's suspended state machine; `None` once it returned,
    /// panicked, or was dropped by a crash.
    fut: Option<crate::builder::AlgoFuture>,
    outcome: Option<ProcOutcome>,
}

/// The single-threaded resumable step engine: every process is a suspended
/// future, and a granted step is one `poll`.
pub(crate) struct InlineEngine<D: FdValue> {
    world: Rc<RefCell<World<D>>>,
    procs: Vec<Option<InlineProc<D>>>,
}

impl<D: FdValue> InlineEngine<D> {
    pub(crate) fn launch(world: World<D>, algos: Vec<Option<AlgoFn<D>>>) -> Self {
        let n_plus_1 = algos.len();
        let world = Rc::new(RefCell::new(world));
        let procs = algos
            .into_iter()
            .enumerate()
            .map(|(i, algo)| {
                algo.map(|algo| {
                    let cell = Rc::new(ProcCell::new());
                    let ctx =
                        Ctx::inline(ProcessId(i), n_plus_1, Rc::clone(&cell), Rc::clone(&world));
                    InlineProc {
                        cell,
                        fut: Some(algo(ctx)),
                        outcome: None,
                    }
                })
            })
            .collect();
        InlineEngine { world, procs }
    }

    /// Polls `p`'s future once (with a grant already deposited in its cell),
    /// recording the terminal outcome if the algorithm returns or panics.
    /// Returns the step the poll produced, if any.
    fn poll_proc(proc_: &mut InlineProc<D>) -> Option<StepKind<D>> {
        let fut = proc_.fut.as_mut()?;
        let mut cx = Context::from_waker(Waker::noop());
        match catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx))) {
            Ok(Poll::Pending) => {}
            Ok(Poll::Ready(())) => {
                proc_.fut = None;
                proc_.outcome = Some(ProcOutcome::FinishedOk);
            }
            Err(payload) => {
                // The panicking process stops taking steps; the payload is
                // re-raised by the runner after the run.
                proc_.fut = None;
                proc_.outcome = Some(ProcOutcome::Panicked(payload));
            }
        }
        // A consumed grant always leaves a step report; an unconsumed grant
        // (the algorithm returned without stepping) leaves none.
        let kind = proc_.cell.reply.borrow_mut().take();
        if kind.is_none() {
            proc_.cell.grant.set(None);
        }
        kind
    }

    // --- Scheduler-loop hooks ----------------------------------------------

    /// Crashes `p` (run condition 1): drops its suspended future, so it
    /// takes no step at or after this point and none of its code runs
    /// again. A no-op for a process without an algorithm.
    pub(crate) fn stop(&mut self, p: ProcessId) {
        if let Some(proc_) = self.procs[p.index()].as_mut() {
            proc_.fut = None;
        }
    }

    /// Lets `p` take one step at time `t`. Returns `Some(kind)` if the
    /// process took the step, `None` if its algorithm had already returned
    /// (the caller marks `p` finished and re-schedules).
    pub(crate) fn grant(&mut self, p: ProcessId, t: Time) -> Option<StepKind<D>> {
        let proc_ = self.procs[p.index()]
            .as_mut()
            .expect("eligible process has an algorithm");
        // Already returned: the grant goes unused.
        proc_.fut.as_ref()?;
        proc_.cell.grant.set(Some(t));
        Self::poll_proc(proc_)
    }

    /// Ends the run: drops every future still mid-protocol, and returns the
    /// world together with the first panic payload (if any).
    pub(crate) fn shutdown(self) -> EngineShutdown<D> {
        let mut first_panic = None;
        for proc_ in self.procs {
            // Taking the outcome drops the process, and with it any future
            // still mid-protocol.
            if let Some(ProcOutcome::Panicked(payload)) = proc_.and_then(|pr| pr.outcome) {
                first_panic.get_or_insert(payload);
            }
        }
        let world = Rc::try_unwrap(self.world)
            .unwrap_or_else(|_| panic!("world still shared after all futures dropped"))
            .into_inner();
        EngineShutdown { world, first_panic }
    }

    // --- Session hooks (see `crate::session`) ------------------------------

    pub(crate) fn world(&self) -> &Rc<RefCell<World<D>>> {
        &self.world
    }

    /// Replaces `p`'s algorithm with a fresh instance (recording on — only
    /// sessions rebuild processes, and session engines always record). The
    /// old future is dropped first, which releases its handle on the
    /// process cell, so the fresh instance reuses that cell. The caller
    /// fast-forwards it with [`replay_step`](Self::replay_step).
    pub(crate) fn replace_proc(&mut self, p: ProcessId, algo: AlgoFn<D>) {
        let n_plus_1 = self.procs.len();
        let proc_ = self.procs[p.index()]
            .as_mut()
            .expect("rebuilt process has an algorithm");
        proc_.fut = None;
        proc_.outcome = None;
        proc_.cell.clear();
        proc_.cell.record.set(true);
        let ctx = Ctx::inline(p, n_plus_1, Rc::clone(&proc_.cell), Rc::clone(&self.world));
        proc_.fut = Some(algo(ctx));
    }

    /// Turns per-step result recording on for every live process: each
    /// completed step leaves its result in the process cell for the session
    /// to harvest (the raw material of fast-forward rebuilds).
    pub(crate) fn set_recording(&mut self, on: bool) {
        for proc_ in self.procs.iter().flatten() {
            proc_.cell.record.set(on);
        }
    }

    /// Takes the recorded result of the step just granted to `p`.
    pub(crate) fn take_recorded(&mut self, p: ProcessId) -> Option<Reply> {
        self.procs[p.index()]
            .as_ref()
            .and_then(|pr| pr.cell.recorded.take())
    }

    /// Replays one already-completed step into `p`'s suspended future: the
    /// step consumes the recorded result without touching the world. Used to
    /// rebuild a suspended state machine from a fresh algorithm instance.
    pub(crate) fn replay_step(&mut self, p: ProcessId, t: Time, value: Reply) {
        let proc_ = self.procs[p.index()]
            .as_mut()
            .expect("replayed process has an algorithm");
        proc_.cell.replay.set(Some(value));
        proc_.cell.grant.set(Some(t));
        let stray = Self::poll_proc(proc_);
        debug_assert!(stray.is_none(), "a replayed step deposited a fresh report");
    }

    /// The terminal status of `p`, if its future has resolved.
    pub(crate) fn status_of(&self, p: ProcessId) -> ProcStatus {
        match self.procs[p.index()]
            .as_ref()
            .and_then(|pr| pr.outcome.as_ref())
        {
            None => ProcStatus::Running,
            Some(ProcOutcome::FinishedOk) => ProcStatus::FinishedOk,
            Some(ProcOutcome::Panicked(_)) => ProcStatus::Panicked,
        }
    }

    /// Takes the panic payload of `p` (clearing its outcome); the session
    /// re-raises it immediately.
    pub(crate) fn take_panic(&mut self, p: ProcessId) -> Option<Box<dyn std::any::Any + Send>> {
        let proc_ = self.procs[p.index()].as_mut()?;
        match proc_.outcome.take() {
            Some(ProcOutcome::Panicked(payload)) => Some(payload),
            other => {
                proc_.outcome = other;
                None
            }
        }
    }
}

/// Cloneable projection of [`ProcOutcome`] for session bookkeeping.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ProcStatus {
    Running,
    FinishedOk,
    Panicked,
}
