//! Building and executing runs.
//!
//! [`SimBuilder`] wires together a failure pattern, a failure-detector
//! oracle, an adversary and one algorithm per participating process, then
//! [`SimBuilder::run`] drives the lockstep execution to completion and
//! returns the recorded [`Run`] plus the final shared [`Memory`].
//!
//! The scheduler loop below is engine-agnostic: it makes every scheduling
//! decision, records every trace event and evaluates every stop condition
//! itself, delegating only "deliver this grant and tell me the step it
//! produced" to the selected [`EngineKind`]. Both engines therefore yield
//! bit-identical [`Run`]s for the same configuration.

use crate::engine::{Engine, EngineKind, InlineEngine, ThreadEngine};
use crate::error::AlgoResult;
use crate::failure::FailurePattern;
use crate::object::Memory;
use crate::oracle::{FdValue, Oracle};
use crate::process::{ProcessId, ProcessSet};
use crate::runtime::{Ctx, World};
use crate::sched::{Adversary, RoundRobin, SchedView};
use crate::time::Time;
use crate::trace::{Event, Output, Run, RunArena, StepKind, StopReason, TraceLevel};
use std::future::Future;
use std::marker::PhantomData;
use std::panic::resume_unwind;
use std::pin::Pin;

/// The suspended state machine of one algorithm: what an [`AlgoFn`] returns.
pub type AlgoFuture = Pin<Box<dyn Future<Output = AlgoResult>>>;

/// The algorithm a process runs: its automaton of §3.3, written as ordinary
/// sequential `async` code over a [`Ctx`]. Use [`algo`] to build one from an
/// async closure without spelling out the boxing.
pub type AlgoFn<D> = Box<dyn FnOnce(Ctx<D>) -> AlgoFuture + Send>;

/// Wraps an async closure into an [`AlgoFn`].
///
/// ```
/// use upsilon_sim::{algo, FailurePattern, SimBuilder};
///
/// let outcome = SimBuilder::<()>::new(FailurePattern::failure_free(2))
///     .spawn_all(|pid| {
///         algo(move |ctx| async move {
///             ctx.decide(pid.index() as u64).await?;
///             Ok(())
///         })
///     })
///     .run();
/// assert_eq!(outcome.run.decisions(), vec![Some(0), Some(1)]);
/// ```
pub fn algo<D, F, Fut>(f: F) -> AlgoFn<D>
where
    D: FdValue,
    F: FnOnce(Ctx<D>) -> Fut + Send + 'static,
    Fut: Future<Output = AlgoResult> + 'static,
{
    Box::new(move |ctx| Box::pin(f(ctx)))
}

/// Placeholder oracle for runs whose algorithms never query a failure
/// detector; panics loudly if queried.
struct NoOracleConfigured<D>(PhantomData<fn() -> D>);

impl<D: FdValue> Oracle<D> for NoOracleConfigured<D> {
    fn output(&mut self, p: ProcessId, t: Time) -> D {
        panic!("process {p} queried the failure detector at {t}, but no oracle was configured")
    }

    fn describe(&self) -> String {
        "none".to_string()
    }
}

/// Builder for a single simulated run.
///
/// ```
/// use upsilon_sim::{algo, FailurePattern, Output, SimBuilder};
///
/// let outcome = SimBuilder::<()>::new(FailurePattern::failure_free(2))
///     .spawn_all(|pid| {
///         algo(move |ctx| async move {
///             ctx.decide(pid.index() as u64).await?;
///             Ok(())
///         })
///     })
///     .run();
/// assert_eq!(outcome.run.decisions(), vec![Some(0), Some(1)]);
/// ```
pub struct SimBuilder<D: FdValue> {
    pattern: FailurePattern,
    oracle: Box<dyn Oracle<D>>,
    adversary: Box<dyn Adversary>,
    engine: EngineKind,
    trace_level: TraceLevel,
    record_sigs: bool,
    max_steps: u64,
    #[allow(clippy::type_complexity)]
    stop_when: Option<Box<dyn FnMut(&SchedView<'_>) -> bool>>,
    propagate_panics: bool,
    algos: Vec<Option<AlgoFn<D>>>,
}

impl<D: FdValue> std::fmt::Debug for SimBuilder<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimBuilder")
            .field("pattern", &self.pattern)
            .field("engine", &self.engine)
            .field("max_steps", &self.max_steps)
            .finish_non_exhaustive()
    }
}

/// Result of [`SimBuilder::run`]: the recorded run and the final memory.
#[derive(Debug)]
pub struct SimOutcome<D> {
    /// The recorded run (trace, outputs, failure-detector samples).
    pub run: Run<D>,
    /// The shared memory at the end of the run, for post-mortem inspection.
    pub memory: Memory,
}

impl<D: FdValue> SimBuilder<D> {
    /// Starts a run under failure pattern `pattern`, with a round-robin
    /// scheduler, no oracle, the inline engine and a 2 million step budget
    /// by default.
    pub fn new(pattern: FailurePattern) -> Self {
        let n_plus_1 = pattern.n_plus_1();
        let mut algos = Vec::with_capacity(n_plus_1);
        algos.resize_with(n_plus_1, || None);
        SimBuilder {
            pattern,
            oracle: Box::new(NoOracleConfigured(PhantomData)),
            adversary: Box::new(RoundRobin::new()),
            engine: EngineKind::default(),
            trace_level: TraceLevel::Steps,
            record_sigs: false,
            max_steps: 2_000_000,
            stop_when: None,
            propagate_panics: true,
            algos,
        }
    }

    /// Sets the failure-detector oracle providing `H(p, t)`.
    pub fn oracle(mut self, oracle: impl Oracle<D> + 'static) -> Self {
        self.oracle = Box::new(oracle);
        self
    }

    /// Sets the scheduling adversary (default: fair round-robin).
    pub fn adversary(mut self, adversary: impl Adversary + 'static) -> Self {
        self.adversary = Box::new(adversary);
        self
    }

    /// Selects the execution engine (default: [`EngineKind::Inline`]).
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Sets how much detail the trace records.
    pub fn trace_level(mut self, level: TraceLevel) -> Self {
        self.trace_level = level;
        self
    }

    /// Records an [`OpSig`](crate::OpSig) (object type name plus the
    /// `Debug`-rendered operation) on every `Op` event. Off by default —
    /// rendering costs an allocation per op step; consumers that refine
    /// conflicts through the [`commute`](crate::commute) matrix (the
    /// `upsilon-check` explorer when its matrix is switched on) switch it
    /// on.
    pub fn record_op_sigs(mut self, yes: bool) -> Self {
        self.record_sigs = yes;
        self
    }

    /// Sets the step budget (a finite surrogate for infinite runs).
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Stops the run once `pred` holds of the scheduling view — used for
    /// algorithms, such as failure-detector extractions, that never return.
    pub fn stop_when(mut self, pred: impl FnMut(&SchedView<'_>) -> bool + 'static) -> Self {
        self.stop_when = Some(Box::new(pred));
        self
    }

    /// If set (default), a panic inside any process is re-raised after the
    /// run; otherwise the panicking process is silently treated as finished.
    pub fn propagate_panics(mut self, yes: bool) -> Self {
        self.propagate_panics = yes;
        self
    }

    /// Installs the algorithm of process `pid`. Processes without an
    /// algorithm do not participate (cf. the §5.2 Remark on runs where some
    /// process never proposes).
    pub fn spawn(mut self, pid: ProcessId, algo: AlgoFn<D>) -> Self {
        assert!(pid.index() < self.algos.len(), "process id out of range");
        assert!(
            self.algos[pid.index()].is_none(),
            "process {pid} spawned twice"
        );
        self.algos[pid.index()] = Some(algo);
        self
    }

    /// Installs an algorithm for every process.
    pub fn spawn_all(mut self, mut make: impl FnMut(ProcessId) -> AlgoFn<D>) -> Self {
        for i in 0..self.algos.len() {
            self = self.spawn(ProcessId(i), make(ProcessId(i)));
        }
        self
    }

    /// Executes the run to completion.
    ///
    /// # Panics
    ///
    /// Re-raises panics from process algorithms (unless
    /// [`propagate_panics`](Self::propagate_panics)`(false)`), and panics if
    /// the adversary schedules an ineligible process.
    pub fn run(self) -> SimOutcome<D> {
        self.run_with(&mut RunArena::new())
    }

    /// Executes the run to completion, borrowing the trace vectors'
    /// backing storage from `arena` (see [`RunArena`]). Identical
    /// observable behaviour to [`run`](Self::run); callers executing many
    /// runs recycle the finished [`Run`] back into the arena to avoid
    /// per-run allocation.
    ///
    /// # Panics
    ///
    /// As [`run`](Self::run).
    pub fn run_with(self, arena: &mut RunArena<D>) -> SimOutcome<D> {
        let mut cell = self.into_cell_with(arena);
        cell.step_quota(u64::MAX);
        cell.finish_into(arena)
    }

    /// Suspends the configured run as a [`RunCell`]: the same scheduler
    /// loop as [`run`](Self::run), reified as a value that advances by
    /// bounded step quotas. Running a cell to completion produces a
    /// [`SimOutcome`] byte-identical to the one-shot path by construction —
    /// [`run`](Self::run) is itself implemented as `into_cell` plus an
    /// unbounded quota.
    pub fn into_cell(self) -> RunCell<D> {
        self.into_cell_with(&mut RunArena::new())
    }

    /// [`into_cell`](Self::into_cell), seizing the accumulator vectors'
    /// backing storage from `arena` (recycled back by
    /// [`RunCell::finish_into`]).
    pub fn into_cell_with(mut self, arena: &mut RunArena<D>) -> RunCell<D> {
        let world = World {
            memory: Memory::new(),
            oracle: self.oracle,
            trace_level: self.trace_level,
            record_sigs: self.record_sigs,
        };
        let algos = std::mem::take(&mut self.algos);
        let has_algo: Vec<bool> = algos.iter().map(|a| a.is_some()).collect();
        let engine: Box<dyn Engine<D>> = match self.engine {
            EngineKind::Inline => Box::new(InlineEngine::launch(world, algos)),
            EngineKind::Threads => Box::new(ThreadEngine::launch(world, algos)),
        };
        let n_plus_1 = self.pattern.n_plus_1();
        // Borrow every accumulator from the arena: clear (capacity kept) and
        // re-extend to the run's process count. The run-owned vectors move
        // into the returned `Run`; the caller recycles them back.
        let mut events: Vec<Event<D>> = std::mem::take(&mut arena.events);
        events.clear();
        let mut outputs = std::mem::take(&mut arena.outputs);
        outputs.clear();
        let mut fd_samples = std::mem::take(&mut arena.fd_samples);
        fd_samples.clear();
        let mut steps_by = std::mem::take(&mut arena.steps_by);
        steps_by.clear();
        steps_by.resize(n_plus_1, 0u64);
        let mut last_output = std::mem::take(&mut arena.last_output);
        last_output.clear();
        last_output.resize(n_plus_1, None);
        let mut known_finished = std::mem::take(&mut arena.known_finished);
        known_finished.clear();
        known_finished.resize(n_plus_1, false);
        let mut stopped = std::mem::take(&mut arena.stopped);
        stopped.clear();
        stopped.resize(n_plus_1, false);
        let mut crash_observed = std::mem::take(&mut arena.crash_observed);
        crash_observed.clear();
        crash_observed.resize(n_plus_1, None);
        RunCell {
            engine,
            has_algo,
            pattern: self.pattern,
            adversary: self.adversary,
            stop_when: self.stop_when,
            max_steps: self.max_steps,
            propagate_panics: self.propagate_panics,
            events,
            outputs,
            fd_samples,
            steps_by,
            last_output,
            known_finished,
            stopped,
            crash_observed,
            total_steps: 0,
            t: Time::ZERO,
            done: None,
        }
    }
}

/// A paused, resumable run: the engine-agnostic scheduler loop of
/// [`SimBuilder::run`] reified as a value.
///
/// Every observable of a [`Run`] is produced here, so two engines driving
/// the same deterministic algorithms cannot diverge — and a run advanced in
/// arbitrary [`step_quota`](RunCell::step_quota) increments is byte-identical
/// to the same configuration executed in one shot, because the one-shot path
/// *is* a cell driven with an unbounded quota. This is the substrate of the
/// `upsilon-swarm` multi-tenant executor, which interleaves millions of
/// suspended cells in a single thread with batched quotas.
///
/// Unlike [`Session`](crate::Session), a cell records no per-step logs and
/// supports no save/restore — it is the cheapest possible suspended run.
pub struct RunCell<D: FdValue> {
    engine: Box<dyn Engine<D>>,
    has_algo: Vec<bool>,
    pattern: FailurePattern,
    adversary: Box<dyn Adversary>,
    #[allow(clippy::type_complexity)]
    stop_when: Option<Box<dyn FnMut(&SchedView<'_>) -> bool>>,
    max_steps: u64,
    propagate_panics: bool,
    events: Vec<Event<D>>,
    outputs: Vec<(Time, ProcessId, Output)>,
    fd_samples: Vec<(Time, ProcessId, D)>,
    steps_by: Vec<u64>,
    last_output: Vec<Option<Output>>,
    known_finished: Vec<bool>,
    stopped: Vec<bool>,
    crash_observed: Vec<Option<Time>>,
    total_steps: u64,
    t: Time,
    done: Option<StopReason>,
}

impl<D: FdValue> std::fmt::Debug for RunCell<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunCell")
            .field("pattern", &self.pattern)
            .field("total_steps", &self.total_steps)
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl<D: FdValue> RunCell<D> {
    /// Advances the run by at most `quota` scheduler-loop iterations and
    /// returns the stop reason if the run ended (now or earlier).
    ///
    /// A quota counts *iterations*, not recorded steps: an iteration that
    /// discovers a process already returned (the engine answers a grant
    /// with a finished notice) consumes quota without recording a step.
    /// That guarantees every call makes progress, and it makes the final
    /// run independent of how the total quota was sliced — the sequence of
    /// scheduling decisions is a function of the loop state alone.
    ///
    /// # Panics
    ///
    /// Panics if the adversary schedules an ineligible process.
    pub fn step_quota(&mut self, quota: u64) -> Option<StopReason> {
        if self.done.is_some() {
            return self.done;
        }
        let n_plus_1 = self.pattern.n_plus_1();
        let mut remaining = quota;
        let stop = loop {
            if remaining == 0 {
                return None;
            }
            remaining -= 1;

            // Deliver crashes due by the current time (run condition 1: a
            // crashed process takes no step at or after its crash time).
            for i in 0..n_plus_1 {
                if !self.stopped[i] && self.pattern.is_crashed_at(ProcessId(i), self.t) {
                    self.stopped[i] = true;
                    self.crash_observed[i] = Some(self.t);
                    if self.has_algo[i] {
                        self.engine.stop(ProcessId(i));
                    }
                }
            }

            let mut eligible = ProcessSet::new();
            for i in 0..n_plus_1 {
                if self.has_algo[i] && !self.stopped[i] && !self.known_finished[i] {
                    eligible.insert(ProcessId(i));
                }
            }
            if eligible.is_empty() {
                break StopReason::AllDone;
            }
            if self.total_steps >= self.max_steps {
                break StopReason::BudgetExhausted;
            }

            let view = SchedView {
                time: self.t,
                eligible,
                steps_by: &self.steps_by,
                outputs: &self.outputs,
                last_output: &self.last_output,
            };
            if let Some(pred) = self.stop_when.as_mut() {
                if pred(&view) {
                    break StopReason::Predicate;
                }
            }
            let Some(p) = self.adversary.next_process(&view) else {
                break StopReason::AdversaryStopped;
            };
            assert!(
                eligible.contains(p),
                "adversary scheduled ineligible process {p} at {}",
                self.t
            );

            // Disjoint field borrows: the finished-notice closure updates
            // `known_finished` while the engine delivers the grant.
            let known_finished = &mut self.known_finished;
            let mut notice = |pid: ProcessId| known_finished[pid.index()] = true;
            match self.engine.grant(p, self.t, &mut notice) {
                Some(kind) => {
                    match &kind {
                        StepKind::Query(v) => self.fd_samples.push((self.t, p, v.clone())),
                        StepKind::Output(o) => {
                            self.outputs.push((self.t, p, *o));
                            self.last_output[p.index()] = Some(*o);
                        }
                        StepKind::Op { .. } | StepKind::NoOp => {}
                    }
                    self.events.push(Event {
                        time: self.t,
                        pid: p,
                        kind,
                    });
                    self.steps_by[p.index()] += 1;
                    self.total_steps += 1;
                    self.t = self.t.next();
                }
                None => {
                    self.known_finished[p.index()] = true;
                }
            }
        };
        self.done = Some(stop);
        self.done
    }

    /// Whether the run has ended (and why).
    pub fn done(&self) -> Option<StopReason> {
        self.done
    }

    /// Steps granted so far.
    pub fn total_steps(&self) -> u64 {
        self.total_steps
    }

    /// Outputs recorded so far, in schedule order — inspectable while the
    /// cell is suspended (e.g. for aggregate decision counting).
    pub fn outputs_so_far(&self) -> &[(Time, ProcessId, Output)] {
        &self.outputs
    }

    /// The cell's current arena occupancy in bytes: the struct itself plus
    /// the capacity of every accumulator vector it owns. Engine-side state
    /// (suspended futures, shared memory) is deliberately excluded — it is
    /// not sizable through a `dyn` boundary; process-level residency is the
    /// bench layer's job (RSS deltas). Occupancy is monotone while the cell
    /// lives: vectors only grow.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.events.capacity() * std::mem::size_of::<Event<D>>()
            + self.outputs.capacity() * std::mem::size_of::<(Time, ProcessId, Output)>()
            + self.fd_samples.capacity() * std::mem::size_of::<(Time, ProcessId, D)>()
            + self.steps_by.capacity() * std::mem::size_of::<u64>()
            + self.last_output.capacity() * std::mem::size_of::<Option<Output>>()
            + self.known_finished.capacity()
            + self.stopped.capacity()
            + self.crash_observed.capacity() * std::mem::size_of::<Option<Time>>()
    }

    /// Ends the run and returns the outcome, recycling the scheduler-local
    /// accumulators into `arena`. Drives the cell to completion first if it
    /// is still live (one-shot callers never observe a difference).
    ///
    /// # Panics
    ///
    /// Re-raises the first panic from a process algorithm, unless the
    /// builder set [`propagate_panics`](SimBuilder::propagate_panics)`(false)`.
    pub fn finish_into(mut self, arena: &mut RunArena<D>) -> SimOutcome<D> {
        if self.done.is_none() {
            self.step_quota(u64::MAX);
        }
        // Hand the scheduler-local accumulators back to the arena (contents
        // are stale; the next run clears them before use).
        arena.last_output = self.last_output;
        arena.known_finished = self.known_finished;
        arena.stopped = self.stopped;

        let shutdown = self.engine.shutdown();
        if self.propagate_panics {
            if let Some(payload) = shutdown.first_panic {
                resume_unwind(payload);
            }
        }

        SimOutcome {
            run: Run {
                pattern: self.pattern,
                events: self.events,
                outputs: self.outputs,
                fd_samples: self.fd_samples,
                steps_by: self.steps_by,
                finished: shutdown.finished,
                crash_observed: self.crash_observed,
                total_steps: self.total_steps,
                stop: self.done.expect("cell driven to completion above"),
            },
            memory: shutdown.world.memory,
        }
    }

    /// [`finish_into`](Self::finish_into) without an arena to recycle into.
    ///
    /// # Panics
    ///
    /// As [`finish_into`](Self::finish_into).
    pub fn finish(self) -> SimOutcome<D> {
        self.finish_into(&mut RunArena::new())
    }
}
