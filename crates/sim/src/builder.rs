//! Building and executing runs.
//!
//! [`SimBuilder`] wires together a failure pattern, a failure-detector
//! oracle, an adversary and one algorithm per participating process, then
//! [`SimBuilder::run`] drives the execution to completion and returns the
//! recorded [`Run`] plus the final shared [`Memory`].
//!
//! The scheduler loop below makes every scheduling decision and evaluates
//! every stop condition itself; the bookkeeping of a grant (crash delivery,
//! trace events, outputs, detector samples, step counts) lives in one
//! crate-private routine that [`Session`](crate::Session) records through
//! too. Only "deliver this grant and tell me the step it produced" is left
//! to the step engine.

use crate::engine::{InlineEngine, ProcStatus};
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
pub type AlgoFuture = Pin<Box<dyn Future<Output = ()>>>;

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
///         algo(move |mut ctx| async move {
///             ctx.decide(pid.index() as u64).await;
///         })
///     })
///     .run();
/// assert_eq!(outcome.run.decisions(), vec![Some(0), Some(1)]);
/// ```
pub fn algo<D, F, Fut>(f: F) -> AlgoFn<D>
where
    D: FdValue,
    F: FnOnce(Ctx<D>) -> Fut + Send + 'static,
    Fut: Future<Output = ()> + 'static,
{
    Box::new(move |ctx| Box::pin(f(ctx)))
}

/// Takes `v`'s backing storage, cleared and re-extended to `len` copies of
/// `fill`.
fn seize<T: Clone>(v: &mut Vec<T>, len: usize, fill: T) -> Vec<T> {
    let mut v = std::mem::take(v);
    v.clear();
    v.resize(len, fill);
    v
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
///         algo(move |mut ctx| async move {
///             ctx.decide(pid.index() as u64).await;
///         })
///     })
///     .run();
/// assert_eq!(outcome.run.decisions(), vec![Some(0), Some(1)]);
/// ```
pub struct SimBuilder<D: FdValue> {
    pattern: FailurePattern,
    oracle: Box<dyn Oracle<D>>,
    adversary: Box<dyn Adversary>,
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
    /// scheduler, no oracle and a 2 million step budget by default.
    pub fn new(pattern: FailurePattern) -> Self {
        let n_plus_1 = pattern.n_plus_1();
        let mut algos = Vec::with_capacity(n_plus_1);
        algos.resize_with(n_plus_1, || None);
        SimBuilder {
            pattern,
            oracle: Box::new(NoOracleConfigured(PhantomData)),
            adversary: Box::new(RoundRobin::new()),
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
        let algos = std::mem::take(&mut self.algos);
        RunCell {
            drive: Drive::launch(
                self.pattern,
                self.oracle,
                self.trace_level,
                self.record_sigs,
                algos,
                arena,
            ),
            adversary: self.adversary,
            stop_when: self.stop_when,
            max_steps: self.max_steps,
            propagate_panics: self.propagate_panics,
            done: false,
        }
    }
}

/// The bookkeeping of one run, shared by both drive loops: the quota loop
/// of [`RunCell`] (and so [`SimBuilder::run`]) and the step-at-a-time
/// [`Session`](crate::Session). Crash delivery, eligibility, and the event,
/// output, failure-detector-sample and step-count records of a grant
/// (§3.3–3.4) live here and nowhere else, so a session records exactly the
/// run a one-shot replay of its schedule would.
///
/// Liveness is three process sets, so the eligible set is two set
/// differences: `participants − crashed − known_finished`.
///
/// Invariant between grants: every crash due by `t` has been delivered,
/// and `next_crash` is the earliest crash time of the pattern among the
/// processes not yet in `crashed` (`None` if there is none).
pub(crate) struct Drive<D: FdValue> {
    pub(crate) engine: InlineEngine<D>,
    /// The run recorded so far; `finished` is maintained grant by grant and
    /// `stop` is written by whichever loop owns the drive.
    pub(crate) run: Run<D>,
    pub(crate) last_output: Vec<Option<Output>>,
    /// Processes that run an algorithm.
    pub(crate) participants: ProcessSet,
    /// Processes whose crash has been delivered.
    pub(crate) crashed: ProcessSet,
    /// Processes whose grant went unused because their algorithm had
    /// already returned: no longer eligible.
    pub(crate) known_finished: ProcessSet,
    /// The earliest undelivered crash time of the pattern.
    pub(crate) next_crash: Option<Time>,
    /// The time the next granted step carries.
    pub(crate) t: Time,
}

// The per-grant methods below run on every step of both loops and are
// forced inline: left to the optimizer, the quota loop measured a few
// percent slower than with its bookkeeping written in place.
impl<D: FdValue> Drive<D> {
    /// Builds the world and the engine, seizes the accumulator vectors'
    /// backing storage from `arena` (a finished [`Run`] is recycled back by
    /// [`RunArena::recycle`]), and delivers the crashes due at time zero.
    pub(crate) fn launch(
        pattern: FailurePattern,
        oracle: Box<dyn Oracle<D>>,
        trace_level: TraceLevel,
        record_sigs: bool,
        algos: Vec<Option<AlgoFn<D>>>,
        arena: &mut RunArena<D>,
    ) -> Self {
        let world = World {
            memory: Memory::new(),
            oracle,
            trace_level,
            record_sigs,
        };
        let participants = (0..algos.len())
            .filter(|&i| algos[i].is_some())
            .map(ProcessId)
            .collect();
        let engine = InlineEngine::launch(world, algos);
        let n_plus_1 = pattern.n_plus_1();
        // Borrow every accumulator from the arena: clear (capacity kept)
        // and re-extend to the run's process count.
        let mut events = std::mem::take(&mut arena.events);
        events.clear();
        let mut outputs = std::mem::take(&mut arena.outputs);
        outputs.clear();
        let mut fd_samples = std::mem::take(&mut arena.fd_samples);
        fd_samples.clear();
        let mut drive = Drive {
            engine,
            run: Run {
                pattern,
                events,
                outputs,
                fd_samples,
                steps_by: seize(&mut arena.steps_by, n_plus_1, 0),
                finished: seize(&mut arena.finished, n_plus_1, false),
                crash_observed: seize(&mut arena.crash_observed, n_plus_1, None),
                total_steps: 0,
                stop: StopReason::AllDone,
            },
            last_output: seize(&mut arena.last_output, n_plus_1, None),
            participants,
            crashed: ProcessSet::EMPTY,
            known_finished: ProcessSet::EMPTY,
            next_crash: None,
            t: Time::ZERO,
        };
        drive.schedule_crashes();
        drive.deliver_crashes();
        drive
    }

    /// Every process that may be granted a step: it has an algorithm, has
    /// not crashed, and has not been found finished.
    #[inline(always)]
    pub(crate) fn eligible_set(&self) -> ProcessSet {
        self.participants
            .difference(self.crashed)
            .difference(self.known_finished)
    }

    /// Grants eligible `p` one step at `t` and records it: the event, an
    /// output or failure-detector sample, the step counts, the clock, and
    /// then the crashes due at the new time. A grant the algorithm leaves
    /// unused (it had already returned) records no step and marks `p` known
    /// finished. Returns whether `p` took a step. A panic inside the
    /// algorithm is left in the engine for the caller to raise.
    #[inline(always)]
    pub(crate) fn grant(&mut self, p: ProcessId) -> bool {
        let i = p.index();
        let t = self.t;
        let stepped = match self.engine.grant(p, t) {
            Some(kind) => {
                match &kind {
                    StepKind::Query(v) => self.run.fd_samples.push((t, p, v.clone())),
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
                true
            }
            None => {
                self.known_finished.insert(p);
                false
            }
        };
        if self.engine.status_of(p) == ProcStatus::FinishedOk {
            self.run.finished[i] = true;
        }
        if stepped {
            self.deliver_crashes();
        }
        stepped
    }

    /// Delivers the crash of `p` now (run condition 1: a crashed process
    /// takes no step at or after its crash time): its future is dropped.
    /// The caller recomputes `next_crash` if `p`'s crash was pending.
    pub(crate) fn stop(&mut self, p: ProcessId) {
        self.crashed.insert(p);
        self.run.crash_observed[p.index()] = Some(self.t);
        self.engine.stop(p);
    }

    /// Recomputes `next_crash` from the pattern and `crashed` — after the
    /// pattern or the crashed set changed other than by a delivery.
    pub(crate) fn schedule_crashes(&mut self) {
        let pattern = &self.run.pattern;
        self.next_crash = (0..pattern.n_plus_1())
            .filter(|&i| !self.crashed.contains(ProcessId(i)))
            .filter_map(|i| pattern.crash_time(ProcessId(i)))
            .min();
    }

    /// Delivers every pattern crash due by the current time. Free until the
    /// clock reaches the next undelivered crash time.
    #[inline(always)]
    fn deliver_crashes(&mut self) {
        if self.next_crash.is_some_and(|c| c <= self.t) {
            self.deliver_due_crashes();
        }
    }

    #[cold]
    fn deliver_due_crashes(&mut self) {
        for i in 0..self.run.pattern.n_plus_1() {
            let p = ProcessId(i);
            if !self.crashed.contains(p) && self.run.pattern.is_crashed_at(p, self.t) {
                self.stop(p);
            }
        }
        self.schedule_crashes();
    }
}

/// A paused, resumable run: the scheduler loop of [`SimBuilder::run`]
/// reified as a value.
///
/// A cell adds the scheduling half (adversary, stop predicate, step budget)
/// to the run bookkeeping it shares with [`Session`](crate::Session). A run
/// advanced in arbitrary [`step_quota`](RunCell::step_quota) increments is
/// byte-identical to the same configuration executed in one shot, because
/// the one-shot path *is* a cell driven with an unbounded quota. This is the substrate of the
/// `upsilon-swarm` multi-tenant executor, which interleaves millions of
/// suspended cells in a single thread with batched quotas.
///
/// Unlike [`Session`](crate::Session), a cell records no per-step logs and
/// supports no save/restore — it is the cheapest possible suspended run.
pub struct RunCell<D: FdValue> {
    drive: Drive<D>,
    adversary: Box<dyn Adversary>,
    #[allow(clippy::type_complexity)]
    stop_when: Option<Box<dyn FnMut(&SchedView<'_>) -> bool>>,
    max_steps: u64,
    propagate_panics: bool,
    /// Whether the run has ended; its reason is `drive.run.stop`.
    done: bool,
}

impl<D: FdValue> std::fmt::Debug for RunCell<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunCell")
            .field("pattern", &self.drive.run.pattern)
            .field("total_steps", &self.drive.run.total_steps)
            .field("done", &self.done())
            .finish_non_exhaustive()
    }
}

impl<D: FdValue> RunCell<D> {
    /// Advances the run by at most `quota` scheduler-loop iterations and
    /// returns the stop reason if the run ended (now or earlier).
    ///
    /// A quota counts *iterations*, not recorded steps: an iteration that
    /// discovers a process already returned (its grant goes unused)
    /// consumes quota without recording a step.
    /// That guarantees every call makes progress, and it makes the final
    /// run independent of how the total quota was sliced — the sequence of
    /// scheduling decisions is a function of the loop state alone.
    ///
    /// # Panics
    ///
    /// Panics if the adversary schedules an ineligible process.
    pub fn step_quota(&mut self, quota: u64) -> Option<StopReason> {
        if self.done {
            return self.done();
        }
        let mut remaining = quota;
        let stop = loop {
            if remaining == 0 {
                return None;
            }
            remaining -= 1;

            // Crashes due by now were delivered at launch or by the last
            // grant that advanced the clock.
            let drive = &mut self.drive;
            let eligible = drive.eligible_set();
            if eligible.is_empty() {
                break StopReason::AllDone;
            }
            if drive.run.total_steps >= self.max_steps {
                break StopReason::BudgetExhausted;
            }

            let view = SchedView {
                time: drive.t,
                eligible,
                steps_by: &drive.run.steps_by,
                outputs: &drive.run.outputs,
                last_output: &drive.last_output,
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
                drive.t
            );
            drive.grant(p);
        };
        self.drive.run.stop = stop;
        self.done = true;
        Some(stop)
    }

    /// Whether the run has ended (and why).
    pub fn done(&self) -> Option<StopReason> {
        self.done.then_some(self.drive.run.stop)
    }

    /// Steps granted so far.
    pub fn total_steps(&self) -> u64 {
        self.drive.run.total_steps
    }

    /// The cell's current arena occupancy in bytes: the struct itself plus
    /// the capacity of every accumulator vector it owns. Engine-side state
    /// (suspended futures, shared memory) is deliberately excluded — boxed
    /// futures and type-erased objects are not sizable from here;
    /// process-level residency is the bench layer's job (RSS deltas).
    /// Occupancy is monotone while the cell lives: vectors only grow.
    pub fn approx_bytes(&self) -> usize {
        let d = &self.drive;
        std::mem::size_of::<Self>()
            + d.run.events.capacity() * std::mem::size_of::<Event<D>>()
            + d.run.outputs.capacity() * std::mem::size_of::<(Time, ProcessId, Output)>()
            + d.run.fd_samples.capacity() * std::mem::size_of::<(Time, ProcessId, D)>()
            + d.run.steps_by.capacity() * std::mem::size_of::<u64>()
            + d.run.finished.capacity()
            + d.last_output.capacity() * std::mem::size_of::<Option<Output>>()
            + d.run.crash_observed.capacity() * std::mem::size_of::<Option<Time>>()
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
        if !self.done {
            self.step_quota(u64::MAX);
        }
        let Drive {
            engine,
            run,
            last_output,
            ..
        } = self.drive;
        // Hand the scheduler-local accumulator back to the arena (contents
        // are stale; the next run clears them before use).
        arena.last_output = last_output;

        let shutdown = engine.shutdown();
        if self.propagate_panics {
            if let Some(payload) = shutdown.first_panic {
                resume_unwind(payload);
            }
        }
        SimOutcome {
            run,
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
