//! Incremental, snapshot-resumable execution — the engine room of the
//! explorer.
//!
//! [`SimBuilder::run`](crate::SimBuilder::run) executes a complete schedule
//! in one shot; a [`Session`] exposes the same drive loop *one step at a
//! time*, with three extra powers:
//!
//! * **In-place stepping** — [`Session::step`] grants exactly one step and
//!   records it through the one-shot loop's own bookkeeping (the
//!   crate-private `Drive` that [`RunCell`](crate::RunCell) steps), so
//!   `session.run()` after steps `s₁…s_k` equals the run a fresh replay of
//!   `s₁…s_k` would record, bit for bit. This file keeps only what a rewind
//!   needs: the step journal, stale marks, spares, query counts and
//!   save/rewind.
//! * **Mid-run crash injection** — [`Session::crash`] delivers a crash *now*
//!   with the same observable effects as a pattern that always contained it.
//! * **Snapshot/rewind** — [`Session::save`] captures the session state at
//!   a node ([`Memory`] is copy-on-write, so this is cheap), and
//!   [`Session::save_into`] re-takes a save in place without allocating;
//!   [`Session::rewind`] rewinds to any previously saved ancestor.
//!   Suspended algorithm state machines cannot be cloned (they are opaque
//!   futures), so a process that moved past the save point has to be
//!   rebuilt. A rewind only marks such a process *stale*; [`Session::step`]
//!   rebuilds a stale process right before its next grant: a fresh instance
//!   is *fast-forwarded* by replaying the process's recorded step results
//!   into its future — one poll per completed step, no shared-memory
//!   traffic, no step reports. Determinism of algorithms makes the rebuilt
//!   machine bit-identical to the lost one. A process that is never granted
//!   again before the next rewind is never rebuilt.
//!
//! A rewind keeps the live oracle, and the oracle contract mirrors the
//! replay-token contract: the caller puts the oracle back where it was at
//! the save point (oracles are deterministic functions of `(p, t)` or of
//! per-process query counts, so the checker moves its menu oracle back to
//! the counts [`Session::query_counts`] reads after the rewind).
//! [`Session::restore`] is a rewind that installs a fresh oracle instead,
//! positioned from [`SessionSave::query_counts`].

use crate::builder::{AlgoFn, Drive};
use crate::failure::FailurePattern;
use crate::fingerprint::trace_fingerprint;
use crate::object::Memory;
use crate::oracle::{FdValue, Oracle};
use crate::process::{ProcessId, ProcessSet};
use crate::runtime::Reply;
use crate::time::Time;
use crate::trace::{Event, Output, Run, RunArena, StepKind, StopReason, TraceLevel};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// A factory of algorithm instances, one optional slot per process: called
/// once at construction, then whenever a stale process is rebuilt and the
/// spares of the last call hold no instance for it (suspended futures
/// cannot be cloned, so rewinding re-instantiates and fast-forwards them).
/// One call therefore serves up to `n + 1` rebuilds.
pub type SessionAlgos<D> = Arc<dyn Fn() -> Vec<Option<AlgoFn<D>>> + Send + Sync>;

/// What one granted step produced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SessionStep {
    /// The process took the step; the run gained one event.
    Stepped,
    /// The algorithm had already returned — the grant was consumed without a
    /// step (the process is now *known finished* and no longer eligible).
    NoStep,
}

/// Per-process slice of a [`SessionSave`], packed into one vector.
#[derive(Clone, Copy, Debug)]
struct ProcSave {
    steps_by: u64,
    query_count: u64,
    log_len: usize,
    last_output: Option<Output>,
    crash_observed: Option<Time>,
    crash_at: Option<Time>,
    finished: bool,
}

/// The run-wide scalars of a [`SessionSave`].
#[derive(Clone, Copy, Debug)]
struct Mark {
    t: Time,
    crashed: ProcessSet,
    known_finished: ProcessSet,
    total_steps: u64,
    events_len: usize,
    outputs_len: usize,
    fd_len: usize,
    stop: StopReason,
}

/// A snapshot of session state at one node, sufficient to rewind back to it.
///
/// [`Session::save`] builds a new one: a copy-on-write [`Memory`] clone
/// (reference-count bumps; object state is physically copied only when
/// later steps mutate it) plus one vector of per-process records.
/// [`Session::save_into`] re-takes an existing save in place and reuses both
/// vectors, so a caller that keeps a stack of saves allocates nothing per
/// save once the stack has reached its depth.
#[derive(Clone, Debug)]
pub struct SessionSave {
    memory: Memory,
    mark: Mark,
    procs: Vec<ProcSave>,
}

impl SessionSave {
    /// Recorded failure-detector queries per process up to the save point —
    /// what a deterministic oracle needs to be re-positioned on restore.
    pub fn query_counts(&self) -> Vec<u64> {
        self.procs.iter().map(|p| p.query_count).collect()
    }
}

/// The one-step-at-a-time counterpart of [`SimBuilder::run`]: see the
/// module docs.
///
/// [`SimBuilder::run`]: crate::SimBuilder::run
pub struct Session<D: FdValue> {
    /// The run bookkeeping, shared with the one-shot drive loop.
    drive: Drive<D>,
    algos: SessionAlgos<D>,
    query_counts: Vec<u64>,
    /// Per-process journal of completed steps: `(time, result)` — the raw
    /// material a rebuild replays into a fresh future.
    logs: Vec<Vec<(Time, Reply)>>,
    /// Processes whose suspended future is out of date since a restore;
    /// [`Session::step`] rebuilds one before granting it.
    stale: Vec<bool>,
    /// Unused instances of the last factory call, one slot per process.
    spares: Vec<Option<AlgoFn<D>>>,
}

impl<D: FdValue> fmt::Debug for Session<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("t", &self.drive.t)
            .field("total_steps", &self.drive.run.total_steps)
            .field("stop", &self.drive.run.stop)
            .finish_non_exhaustive()
    }
}

impl<D: FdValue> Session<D> {
    /// Starts a session: instantiates the algorithms, delivers any time-zero
    /// crashes, and computes the initial stop status (the empty run).
    pub fn new(
        pattern: FailurePattern,
        algos: SessionAlgos<D>,
        oracle: Box<dyn Oracle<D>>,
        trace_level: TraceLevel,
        record_sigs: bool,
    ) -> Self {
        let n_plus_1 = pattern.n_plus_1();
        let instances = algos();
        assert_eq!(
            instances.len(),
            n_plus_1,
            "factory must yield one algorithm slot per process"
        );
        let mut drive = Drive::launch(
            pattern,
            oracle,
            trace_level,
            record_sigs,
            instances,
            &mut RunArena::new(),
        );
        drive.engine.set_recording(true);
        let mut session = Session {
            drive,
            algos,
            query_counts: vec![0; n_plus_1],
            logs: (0..n_plus_1).map(|_| Vec::new()).collect(),
            stale: vec![false; n_plus_1],
            spares: (0..n_plus_1).map(|_| None).collect(),
        };
        session.recompute_stop();
        session
    }

    /// The system size `n + 1`.
    pub fn n_plus_1(&self) -> usize {
        self.drive.run.pattern.n_plus_1()
    }

    /// The run as recorded so far. `stop` reflects the current state: if
    /// every process is finished, crashed or known-finished it reads
    /// [`StopReason::AllDone`], otherwise [`StopReason::BudgetExhausted`] —
    /// exactly what a fresh replay of the same schedule with this length as
    /// its budget would report.
    pub fn run(&self) -> &Run<D> {
        &self.drive.run
    }

    /// Whether `p` may be granted a step right now.
    pub fn eligible(&self, p: ProcessId) -> bool {
        self.drive.eligible_set().contains(p)
    }

    /// Runs `f` against the current shared memory.
    pub fn with_memory<R>(&self, f: impl FnOnce(&Memory) -> R) -> R {
        f(&self.drive.engine.world().borrow().memory)
    }

    /// The canonical fingerprint of the current run prefix:
    /// [`trace_fingerprint`] of the recorded run against the live memory.
    /// Op responses enter it only when the session records at
    /// [`TraceLevel::Full`].
    pub fn fingerprint(&self) -> u64 {
        self.with_memory(|memory| trace_fingerprint(&self.drive.run, memory))
    }

    /// Lets `p` take one step (`p` must be [`eligible`](Session::eligible)),
    /// recorded by the same bookkeeping as the one-shot drive loop, and
    /// journals the step's result. A process left stale by
    /// [`restore`](Session::restore) is rebuilt first. Panics raised inside
    /// the algorithm are re-raised here.
    pub fn step(&mut self, p: ProcessId) -> SessionStep {
        let i = p.index();
        assert!(self.eligible(p), "step() requires an eligible process");
        if self.stale[i] {
            self.rebuild(p);
        }
        let t = self.drive.t;
        let stepped = self.drive.grant(p);
        if stepped {
            let recorded = self
                .drive
                .engine
                .take_recorded(p)
                .expect("a recorded step leaves its result");
            self.logs[i].push((t, recorded));
            if let Some(Event {
                kind: StepKind::Query(_),
                ..
            }) = self.drive.run.events.last()
            {
                self.query_counts[i] += 1;
            }
        }
        if let Some(payload) = self.drive.engine.take_panic(p) {
            std::panic::resume_unwind(payload);
        }
        self.recompute_stop();
        if stepped {
            SessionStep::Stepped
        } else {
            SessionStep::NoStep
        }
    }

    /// Crashes `p` at the current time: identical observable effects to a
    /// pattern that carried `crash(p, now)` from the start. The caller must
    /// leave at least one process correct (the §3 environment invariant the
    /// explorer enforces via its fault budget).
    pub fn crash(&mut self, p: ProcessId) {
        let t = self.drive.t;
        let pattern = &mut self.drive.run.pattern;
        assert!(
            pattern.crash_time(p).is_none(),
            "process crashes at most once"
        );
        pattern.set_crash_at(p, t);
        self.drive.stop(p);
        self.drive.schedule_crashes();
        self.recompute_stop();
    }

    /// Captures the current state as a new restore point.
    pub fn save(&self) -> SessionSave {
        SessionSave {
            memory: self.with_memory(Memory::clone),
            mark: self.mark(),
            procs: (0..self.n_plus_1()).map(|i| self.proc_save(i)).collect(),
        }
    }

    /// Captures the current state into `save`, overwriting the restore point
    /// it held and reusing its storage: [`save`](Session::save) without the
    /// allocations.
    pub fn save_into(&self, save: &mut SessionSave) {
        self.with_memory(|memory| save.memory.clone_from(memory));
        save.mark = self.mark();
        save.procs.clear();
        save.procs
            .extend((0..self.n_plus_1()).map(|i| self.proc_save(i)));
    }

    /// Rewinds to `save`, which must be an ancestor of the current state
    /// (taken earlier on this session, with no intervening rewind past it),
    /// and keeps the live oracle: the caller re-positions it as it was at
    /// the save point (the explorer's menu oracle is moved back in place).
    /// Rewind rebuilds no future: a process whose future moved past the
    /// save point is marked stale, and [`step`](Session::step) rebuilds it
    /// at its next grant.
    pub fn rewind(&mut self, save: &SessionSave) {
        assert_eq!(save.procs.len(), self.n_plus_1());
        let d = &mut self.drive;
        d.engine
            .world()
            .borrow_mut()
            .memory
            .clone_from(&save.memory);
        // A suspended future's state is a function of its *own* step log
        // alone (steps are the only awaits), so only processes whose log or
        // liveness moved past the save point go stale; everyone else's
        // future already *is* the saved one. A process dead at the save
        // point is never granted again from it and needs no future.
        let m = save.mark;
        let halted_at_save = m.crashed.union(m.known_finished);
        let halted_now = d.crashed.union(d.known_finished);
        for (i, p) in save.procs.iter().enumerate() {
            let pid = ProcessId(i);
            assert!(
                self.logs[i].len() >= p.log_len,
                "rewind target must be an ancestor of the current state"
            );
            let dead_at_save = halted_at_save.contains(pid) || p.finished;
            let dead_now = halted_now.contains(pid) || d.run.finished[i];
            let untouched = self.logs[i].len() == p.log_len && dead_now == dead_at_save;
            self.logs[i].truncate(p.log_len);
            if d.participants.contains(pid) && !dead_at_save && !untouched {
                self.stale[i] = true;
            }
            d.run.pattern.restore_crash_time(pid, p.crash_at);
            d.run.steps_by[i] = p.steps_by;
            d.run.finished[i] = p.finished;
            d.run.crash_observed[i] = p.crash_observed;
            d.last_output[i] = p.last_output;
            self.query_counts[i] = p.query_count;
        }
        d.crashed = m.crashed;
        d.known_finished = m.known_finished;
        d.schedule_crashes();
        d.run.events.truncate(m.events_len);
        d.run.outputs.truncate(m.outputs_len);
        d.run.fd_samples.truncate(m.fd_len);
        d.run.total_steps = m.total_steps;
        d.run.stop = m.stop;
        d.t = m.t;
    }

    /// [`rewind`](Session::rewind)s to `save` and installs `oracle`, which
    /// must be a fresh oracle positioned as it was at the save point;
    /// [`SessionSave::query_counts`] carries what a deterministic oracle
    /// needs for that.
    pub fn restore(&mut self, save: &SessionSave, oracle: Box<dyn Oracle<D>>) {
        self.rewind(save);
        self.drive.engine.world().borrow_mut().oracle = oracle;
    }

    /// Recorded failure-detector queries per process so far — after a
    /// [`rewind`](Session::rewind), the counts at the save point.
    pub fn query_counts(&self) -> &[u64] {
        &self.query_counts
    }

    /// Ends the session, returning the run (with `finished` flags already
    /// maintained incrementally) — the counterpart of the one-shot loop's
    /// shutdown. Panic payloads were already re-raised at their step.
    pub fn finish(self) -> Run<D> {
        let Drive { engine, run, .. } = self.drive;
        if let Some(payload) = engine.shutdown().first_panic {
            std::panic::resume_unwind(payload);
        }
        run
    }

    fn mark(&self) -> Mark {
        let d = &self.drive;
        Mark {
            t: d.t,
            crashed: d.crashed,
            known_finished: d.known_finished,
            total_steps: d.run.total_steps,
            events_len: d.run.events.len(),
            outputs_len: d.run.outputs.len(),
            fd_len: d.run.fd_samples.len(),
            stop: d.run.stop,
        }
    }

    fn proc_save(&self, i: usize) -> ProcSave {
        let d = &self.drive;
        ProcSave {
            steps_by: d.run.steps_by[i],
            query_count: self.query_counts[i],
            log_len: self.logs[i].len(),
            last_output: d.last_output[i],
            crash_observed: d.run.crash_observed[i],
            crash_at: d.run.pattern.crash_time(ProcessId(i)),
            finished: d.run.finished[i],
        }
    }

    /// Rebuilds stale `p`: a fresh instance, taken from the spares of the
    /// last factory call (calling the factory again only when that slot is
    /// used up), fast-forwarded through `p`'s step log.
    fn rebuild(&mut self, p: ProcessId) {
        let i = p.index();
        if self.spares[i].is_none() {
            let fresh = (self.algos)();
            assert_eq!(
                fresh.len(),
                self.n_plus_1(),
                "factory must yield one algorithm slot per process"
            );
            self.spares = fresh;
        }
        let algo = self.spares[i]
            .take()
            .expect("factory yields an instance for every process with an algorithm");
        self.drive.engine.replace_proc(p, algo);
        for (t, value) in &self.logs[i] {
            self.drive.engine.replay_step(p, *t, Rc::clone(value));
        }
        self.stale[i] = false;
    }

    /// AllDone exactly when no process is eligible — what the one-shot loop
    /// would break with at this point (its budget equals the schedule
    /// length in every replay the explorer performs, so the only other
    /// reachable reason is an exhausted budget).
    fn recompute_stop(&mut self) {
        self.drive.run.stop = if self.drive.eligible_set().is_empty() {
            StopReason::AllDone
        } else {
            StopReason::BudgetExhausted
        };
    }
}
