//! Incremental, snapshot-resumable execution — the engine room of the turbo
//! explorer.
//!
//! [`SimBuilder::run`](crate::SimBuilder::run) executes a complete schedule
//! in one shot; a [`Session`] exposes the same drive loop *one step at a
//! time*, with three extra powers:
//!
//! * **In-place stepping** — [`Session::step`] grants exactly one step and
//!   maintains the [`Run`] bookkeeping identically to the one-shot loop, so
//!   `session.run()` after steps `s₁…s_k` equals the run a fresh replay of
//!   `s₁…s_k` would record (bit-for-bit; asserted by the differential
//!   suite).
//! * **Mid-run crash injection** — [`Session::crash`] delivers a crash *now*
//!   with the same observable effects as a pattern that always contained it.
//! * **Snapshot/restore** — [`Session::save`] captures the session state at
//!   a node ([`Memory`] is copy-on-write, so this is cheap);
//!   [`Session::restore`] rewinds to any previously saved ancestor.
//!   Suspended algorithm state machines cannot be cloned (they are opaque
//!   futures), so restore rebuilds them: fresh instances from the factory
//!   are *fast-forwarded* by replaying each process's recorded step results
//!   into its future — one poll per completed step, no shared-memory
//!   traffic, no step reports. Determinism of algorithms makes the rebuilt
//!   machine bit-identical to the lost one.
//!
//! The restore contract mirrors the replay-token contract: the caller
//! supplies a fresh [`Oracle`] positioned as it was at the save point
//! (oracles are deterministic functions of `(p, t)` or of per-process query
//! counts, so the checker reconstructs its menu oracle from recorded pick
//! counts). Sessions are inline-engine only — the thread engine's state
//! machines live on OS threads and cannot be rewound; callers that need the
//! thread engine keep using the stateless replay path.

use crate::builder::AlgoFn;
use crate::engine::{Engine as _, EngineShutdown, InlineEngine, ProcStatus};
use crate::failure::FailurePattern;
use crate::fingerprint::trace_fingerprint;
use crate::object::Memory;
use crate::oracle::{FdValue, Oracle};
use crate::process::ProcessId;
use crate::runtime::{AnyReply, World};
use crate::time::Time;
use crate::trace::{Event, Output, Run, StepKind, StopReason, TraceLevel};
use std::fmt;
use std::sync::Arc;

/// A factory of algorithm instances, one optional slot per process: called
/// once at construction and once per restore (suspended futures cannot be
/// cloned, so rewinding re-instantiates and fast-forwards them).
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

/// Per-process slice of a [`SessionSave`] — packed into one vector so a
/// save costs two allocations total (this and the memory's object table),
/// not one per bookkeeping field.
#[derive(Clone, Copy, Debug)]
struct ProcSave {
    steps_by: u64,
    query_count: u64,
    log_len: usize,
    last_output: Option<Output>,
    crash_observed: Option<Time>,
    crash_at: Option<Time>,
    known_finished: bool,
    stopped: bool,
    finished: bool,
}

/// A snapshot of session state at one node, sufficient to rewind back to it.
///
/// Taking one is two small allocations plus a copy-on-write [`Memory`]
/// clone (reference-count bumps); object state is physically copied only
/// when later steps mutate it.
#[derive(Clone, Debug)]
pub struct SessionSave {
    memory: Memory,
    t: Time,
    total_steps: u64,
    events_len: usize,
    outputs_len: usize,
    fd_len: usize,
    procs: Vec<ProcSave>,
    stop: StopReason,
}

impl SessionSave {
    /// Steps taken up to the save point.
    pub fn total_steps(&self) -> u64 {
        self.total_steps
    }

    /// Recorded failure-detector queries per process up to the save point —
    /// what a deterministic oracle needs to be re-positioned on restore.
    pub fn query_counts(&self) -> Vec<u64> {
        self.procs.iter().map(|p| p.query_count).collect()
    }
}

/// The one-step-at-a-time counterpart of [`SimBuilder::run`]
/// (inline engine only): see the module docs.
///
/// [`SimBuilder::run`]: crate::SimBuilder::run
pub struct Session<D: FdValue> {
    engine: InlineEngine<D>,
    algos: SessionAlgos<D>,
    has_algo: Vec<bool>,
    run: Run<D>,
    last_output: Vec<Option<Output>>,
    known_finished: Vec<bool>,
    stopped: Vec<bool>,
    query_counts: Vec<u64>,
    t: Time,
    /// Per-process journal of completed steps: `(time, result clone)` — the
    /// raw material fast-forward restore replays into fresh futures.
    logs: Vec<Vec<(Time, Box<dyn AnyReply>)>>,
}

impl<D: FdValue> fmt::Debug for Session<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("t", &self.t)
            .field("total_steps", &self.run.total_steps)
            .field("stop", &self.run.stop)
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
        let has_algo: Vec<bool> = instances.iter().map(Option::is_some).collect();
        let world = World {
            memory: Memory::new(),
            oracle,
            trace_level,
            record_sigs,
        };
        let mut engine = InlineEngine::launch(world, instances);
        engine.set_recording(true);
        let run = Run {
            pattern,
            events: Vec::new(),
            outputs: Vec::new(),
            fd_samples: Vec::new(),
            steps_by: vec![0; n_plus_1],
            finished: vec![false; n_plus_1],
            crash_observed: vec![None; n_plus_1],
            total_steps: 0,
            stop: StopReason::AllDone,
        };
        let mut session = Session {
            engine,
            algos,
            has_algo,
            run,
            last_output: vec![None; n_plus_1],
            known_finished: vec![false; n_plus_1],
            stopped: vec![false; n_plus_1],
            query_counts: vec![0; n_plus_1],
            t: Time::ZERO,
            logs: (0..n_plus_1).map(|_| Vec::new()).collect(),
        };
        session.settle_crashes();
        session.recompute_stop();
        session
    }

    /// The system size `n + 1`.
    pub fn n_plus_1(&self) -> usize {
        self.run.pattern.n_plus_1()
    }

    /// The time the next granted step would carry.
    pub fn now(&self) -> Time {
        self.t
    }

    /// The run as recorded so far. `stop` reflects the current state: if
    /// every process is finished, crashed or known-finished it reads
    /// [`StopReason::AllDone`], otherwise [`StopReason::BudgetExhausted`] —
    /// exactly what a fresh replay of the same schedule with this length as
    /// its budget would report.
    pub fn run(&self) -> &Run<D> {
        &self.run
    }

    /// Whether `p` may be granted a step right now.
    pub fn eligible(&self, p: ProcessId) -> bool {
        let i = p.index();
        self.has_algo[i] && !self.stopped[i] && !self.known_finished[i]
    }

    /// Runs `f` against the current shared memory.
    pub fn with_memory<R>(&self, f: impl FnOnce(&Memory) -> R) -> R {
        f(&self.engine.world().borrow().memory)
    }

    /// The canonical fingerprint of the current run prefix:
    /// [`trace_fingerprint`] of the recorded run against the live memory.
    /// Op responses enter it only when the session records at
    /// [`TraceLevel::Full`].
    pub fn fingerprint(&self) -> u64 {
        self.with_memory(|memory| trace_fingerprint(&self.run, memory))
    }

    /// Grants one step to `p` (which must be [`eligible`](Session::eligible))
    /// and performs the same bookkeeping as the one-shot drive loop. Panics
    /// raised inside the algorithm are re-raised here.
    pub fn step(&mut self, p: ProcessId) -> SessionStep {
        let i = p.index();
        assert!(self.eligible(p), "step() requires an eligible process");
        let t = self.t;
        let mut notice = |_q: ProcessId| {};
        let granted = self.engine.grant(p, t, &mut notice);
        match granted {
            Some(kind) => {
                let recorded = self
                    .engine
                    .take_recorded(p)
                    .expect("a recorded step leaves its result clone");
                self.logs[i].push((t, recorded));
                match &kind {
                    StepKind::Query(v) => {
                        self.run.fd_samples.push((t, p, v.clone()));
                        self.query_counts[i] += 1;
                    }
                    StepKind::Output(o) => {
                        self.run.outputs.push((t, p, *o));
                        self.last_output[i] = Some(*o);
                    }
                    StepKind::Op { .. } | StepKind::NoOp => {}
                }
                self.run.events.push(Event {
                    time: t,
                    pid: p,
                    kind,
                });
                self.run.steps_by[i] += 1;
                self.run.total_steps += 1;
                self.t = t.next();
                self.sync_status(p);
                self.settle_crashes();
                self.recompute_stop();
                SessionStep::Stepped
            }
            None => {
                self.known_finished[i] = true;
                self.sync_status(p);
                self.recompute_stop();
                SessionStep::NoStep
            }
        }
    }

    /// Crashes `p` at the current time: identical observable effects to a
    /// pattern that carried `crash(p, now)` from the start. The caller must
    /// leave at least one process correct (the §3 environment invariant the
    /// explorer enforces via its fault budget).
    pub fn crash(&mut self, p: ProcessId) {
        let i = p.index();
        assert!(
            self.run.pattern.crash_time(p).is_none(),
            "process crashes at most once"
        );
        self.run.pattern.set_crash_at(p, self.t);
        self.stopped[i] = true;
        self.run.crash_observed[i] = Some(self.t);
        if self.has_algo[i] {
            self.engine.stop(p);
            self.sync_status(p);
        }
        self.recompute_stop();
    }

    /// Captures the current state as a restore point.
    pub fn save(&self) -> SessionSave {
        let crash_at = self.run.pattern.crash_times();
        let procs = (0..self.n_plus_1())
            .map(|i| ProcSave {
                steps_by: self.run.steps_by[i],
                query_count: self.query_counts[i],
                log_len: self.logs[i].len(),
                last_output: self.last_output[i],
                crash_observed: self.run.crash_observed[i],
                crash_at: crash_at[i],
                known_finished: self.known_finished[i],
                stopped: self.stopped[i],
                finished: self.run.finished[i],
            })
            .collect();
        SessionSave {
            memory: self.with_memory(Memory::clone),
            t: self.t,
            total_steps: self.run.total_steps,
            events_len: self.run.events.len(),
            outputs_len: self.run.outputs.len(),
            fd_len: self.run.fd_samples.len(),
            procs,
            stop: self.run.stop,
        }
    }

    /// Rewinds to `save`, which must be an ancestor of the current state
    /// (taken earlier on this session, with no intervening restore past it).
    ///
    /// `oracle` must be a fresh oracle positioned as it was at the save
    /// point; [`SessionSave::query_counts`] carries what a deterministic
    /// oracle needs for that. Suspended futures are rebuilt from the factory
    /// and fast-forwarded from the recorded step results.
    pub fn restore(&mut self, save: &SessionSave, oracle: Box<dyn Oracle<D>>) {
        let n_plus_1 = self.n_plus_1();
        assert_eq!(save.procs.len(), n_plus_1);
        self.engine.reset_world(save.memory.clone(), oracle);
        // A suspended future's state is a function of its *own* step log
        // alone (steps are the only awaits), so only processes whose log or
        // liveness moved past the save point need the rebuild-and-replay
        // treatment; everyone else's future already *is* the saved one.
        let mut fresh: Option<Vec<Option<AlgoFn<D>>>> = None;
        for (i, p) in save.procs.iter().enumerate() {
            assert!(
                self.logs[i].len() >= p.log_len,
                "restore target must be an ancestor of the current state"
            );
            let dead_at_save = p.stopped || p.known_finished || p.finished;
            let dead_now = self.stopped[i] || self.known_finished[i] || self.run.finished[i];
            let untouched = self.logs[i].len() == p.log_len && dead_now == dead_at_save;
            self.logs[i].truncate(p.log_len);
            if !self.has_algo[i] || dead_at_save || untouched {
                continue;
            }
            let instances = fresh.get_or_insert_with(|| {
                let v = (self.algos)();
                assert_eq!(v.len(), n_plus_1);
                v
            });
            let algo = instances[i]
                .take()
                .expect("factory yields an instance for every process with an algorithm");
            self.engine.replace_proc(ProcessId(i), algo);
            for (t, value) in &self.logs[i] {
                self.engine.replay_step(ProcessId(i), *t, value.clone_box());
            }
        }
        let crash_at: Vec<Option<Time>> = save.procs.iter().map(|p| p.crash_at).collect();
        self.run.pattern.restore_crash_times(&crash_at);
        self.run.events.truncate(save.events_len);
        self.run.outputs.truncate(save.outputs_len);
        self.run.fd_samples.truncate(save.fd_len);
        self.run.total_steps = save.total_steps;
        self.run.stop = save.stop;
        for (i, p) in save.procs.iter().enumerate() {
            self.run.steps_by[i] = p.steps_by;
            self.run.finished[i] = p.finished;
            self.run.crash_observed[i] = p.crash_observed;
            self.last_output[i] = p.last_output;
            self.known_finished[i] = p.known_finished;
            self.stopped[i] = p.stopped;
            self.query_counts[i] = p.query_count;
        }
        self.t = save.t;
    }

    /// Ends the session, returning the run (with `finished` flags already
    /// maintained incrementally) — the counterpart of the one-shot loop's
    /// shutdown. Panic payloads were already re-raised at their step.
    pub fn finish(self) -> Run<D> {
        let engine: Box<dyn crate::engine::Engine<D>> = Box::new(self.engine);
        let EngineShutdown { first_panic, .. } = engine.shutdown();
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
        self.run
    }

    /// Delivers pattern crashes due at the current time (the head of the
    /// drive loop).
    fn settle_crashes(&mut self) {
        for i in 0..self.n_plus_1() {
            let p = ProcessId(i);
            if !self.stopped[i] && self.run.pattern.is_crashed_at(p, self.t) {
                self.stopped[i] = true;
                self.run.crash_observed[i] = Some(self.t);
                if self.has_algo[i] {
                    self.engine.stop(p);
                    self.sync_status(p);
                }
            }
        }
    }

    /// Mirrors `p`'s terminal engine status into the run; re-raises panics.
    fn sync_status(&mut self, p: ProcessId) {
        match self.engine.status_of(p) {
            ProcStatus::Running | ProcStatus::Crashed => {}
            ProcStatus::FinishedOk => self.run.finished[p.index()] = true,
            ProcStatus::Panicked => {
                let payload = self
                    .engine
                    .take_panic(p)
                    .expect("panicked status carries a payload");
                std::panic::resume_unwind(payload);
            }
        }
    }

    /// AllDone exactly when no process is eligible — what the one-shot loop
    /// would break with at this point (its budget equals the schedule
    /// length in every replay the explorer performs, so the only other
    /// reachable reason is an exhausted budget).
    fn recompute_stop(&mut self) {
        let any_eligible = (0..self.n_plus_1()).any(|i| self.eligible(ProcessId(i)));
        self.run.stop = if any_eligible {
            StopReason::BudgetExhausted
        } else {
            StopReason::AllDone
        };
    }
}
