//! Runs, traces and outputs (§3.3–3.4).
//!
//! A run of an algorithm is a tuple `⟨F, H, S, T⟩`; the induced trace keeps
//! the inputs and outputs. The simulator records, per granted step, which
//! process moved, what kind of step it was, the failure-detector value (for
//! query steps) and any output produced — enough to validate the run
//! conditions of §3.3 and to check problem specifications on traces.

use crate::failure::FailurePattern;
use crate::object::{Access, ObjectId};
use crate::opsig::OpSig;
use crate::oracle::FdValue;
use crate::process::{ProcessId, ProcessSet};
use crate::time::Time;
use std::fmt;

/// An application output produced by a process (the `O` of §3.3).
///
/// The protocols in this repository produce one of a small closed set of
/// output shapes: decisions of agreement tasks, and the emulated
/// failure-detector variables of reduction algorithms (`D-output` in §3.5,
/// `Υ^f-output` in Fig. 3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Output {
    /// An irrevocable decision of an agreement task.
    Decide(u64),
    /// The current value of an emulated leader oracle (Ω-like extraction).
    Leader(ProcessId),
    /// The current value of an emulated set oracle (Υ/Ω_n-like extraction).
    LeaderSet(ProcessSet),
    /// A generic scalar output for auxiliary experiments.
    Value(u64),
}

impl fmt::Display for Output {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Output::Decide(v) => write!(f, "decide({v})"),
            Output::Leader(p) => write!(f, "leader({p})"),
            Output::LeaderSet(s) => write!(f, "leader-set({s})"),
            Output::Value(v) => write!(f, "value({v})"),
        }
    }
}

/// What happened within one granted step.
///
/// Kept small because every granted step records one: 24 bytes for a
/// `ProcessSet`-valued detector, so an [`Event`] is 40. The op payloads that
/// most runs never ask for live behind one optional box, [`OpNote`].
#[derive(Clone, PartialEq)]
pub enum StepKind<D> {
    /// An operation on a shared object.
    Op {
        /// The object operated on.
        object: ObjectId,
        /// How the operation touched the object (for conflict analysis).
        access: Access,
        /// The operation's signature and rendering, present only when the
        /// run records either (see [`OpNote`]); `None` costs no allocation.
        note: Option<Box<OpNote>>,
    },
    /// A failure-detector query step; carries `H(p, t)`.
    Query(D),
    /// An output was produced (§3.3 item iii).
    Output(Output),
    /// A step that touches nothing shared (used by algorithms to yield).
    NoOp,
}

/// The optional payload of an [`StepKind::Op`] event, allocated only when
/// [`record_op_sigs`](crate::SimBuilder::record_op_sigs) is on or the run
/// records at [`TraceLevel::Full`]; at least one field is `Some`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OpNote {
    /// The operation's signature (type name plus `Debug` rendering) —
    /// feeds the per-op-pair commutativity refinement of conflict analysis
    /// (see [`crate::commute`]).
    pub sig: Option<OpSig>,
    /// `Debug`-rendered operation and response, at [`TraceLevel::Full`].
    pub detail: Option<Box<str>>,
}

impl<D> StepKind<D> {
    /// The recorded signature of an `Op` step, if the run recorded one.
    pub fn sig(&self) -> Option<&OpSig> {
        match self {
            StepKind::Op { note: Some(n), .. } => n.sig.as_ref(),
            _ => None,
        }
    }

    /// The rendered operation and response of an `Op` step, at
    /// [`TraceLevel::Full`].
    pub fn detail(&self) -> Option<&str> {
        match self {
            StepKind::Op { note: Some(n), .. } => n.detail.as_deref(),
            _ => None,
        }
    }
}

// Written out, not derived, so an `Op` prints `sig` and `detail` as fields
// of its own: trace goldens hash `{run:?}`, and the note is a layout choice.
impl<D: fmt::Debug> fmt::Debug for StepKind<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepKind::Op { object, access, .. } => f
                .debug_struct("Op")
                .field("object", object)
                .field("access", access)
                .field("sig", &self.sig())
                .field("detail", &self.detail())
                .finish(),
            StepKind::Query(v) => f.debug_tuple("Query").field(v).finish(),
            StepKind::Output(o) => f.debug_tuple("Output").field(o).finish(),
            StepKind::NoOp => f.write_str("NoOp"),
        }
    }
}

/// One recorded event of a run.
#[derive(Clone, PartialEq, Debug)]
pub struct Event<D> {
    /// When the step was granted (strictly increasing across the run).
    pub time: Time,
    /// The process that took the step.
    pub pid: ProcessId,
    /// What the step did.
    pub kind: StepKind<D>,
}

/// The induced trace of a run (§3.4): the sequence of inputs/outputs
/// `σ ∈ (Π × (I ∪ O))*` with their times — the part of a run a *problem*
/// constrains. Inputs are implicit in this repository (proposals are
/// initial states), so σ is the output sequence.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InducedTrace {
    /// The output sequence `σ`.
    pub sigma: Vec<(ProcessId, Output)>,
    /// The non-decreasing times `T̄` at which each element occurred.
    pub times: Vec<Time>,
}

impl InducedTrace {
    /// Whether two traces are the *same σ* (§3.4's indistinguishability
    /// closure quantifies over runs with equal `correct(F)` and equal σ —
    /// times may differ).
    pub fn same_sigma(&self, other: &InducedTrace) -> bool {
        self.sigma == other.sigma
    }
}

/// How much detail to record while running.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TraceLevel {
    /// Record step kinds, FD samples and outputs, but not per-op payloads.
    #[default]
    Steps,
    /// Additionally render every operation and response with `Debug`.
    Full,
}

/// Why the run stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopReason {
    /// Every process finished (returned) or crashed.
    AllDone,
    /// The step budget was exhausted.
    BudgetExhausted,
    /// The caller-supplied stop predicate fired.
    Predicate,
    /// The adversary declined to schedule any further step.
    AdversaryStopped,
}

/// Reusable backing storage for the vectors a run accumulates (events,
/// outputs, failure-detector samples, per-process bookkeeping).
///
/// A one-shot [`SimBuilder::run`](crate::SimBuilder::run) allocates these
/// afresh every execution; a campaign running hundreds of thousands of short
/// executions (`upsilon-fuzz`) pays that malloc traffic per run. Passing an
/// arena to [`SimBuilder::run_with`](crate::SimBuilder::run_with) lends the
/// arena's capacity to the run, and [`recycle`](RunArena::recycle) takes the
/// finished [`Run`]'s vectors back, so steady-state executions reuse the
/// same few allocations over and over.
///
/// An arena is plain data tied to no particular configuration: reusing one
/// across different targets, process counts or engines is fine.
#[derive(Debug, Default)]
pub struct RunArena<D> {
    pub(crate) events: Vec<Event<D>>,
    pub(crate) outputs: Vec<(Time, ProcessId, Output)>,
    pub(crate) fd_samples: Vec<(Time, ProcessId, D)>,
    pub(crate) steps_by: Vec<u64>,
    pub(crate) finished: Vec<bool>,
    pub(crate) crash_observed: Vec<Option<Time>>,
    pub(crate) last_output: Vec<Option<Output>>,
}

impl<D> RunArena<D> {
    /// An empty arena; capacity grows to the working set of the first runs.
    pub fn new() -> Self {
        RunArena {
            events: Vec::new(),
            outputs: Vec::new(),
            fd_samples: Vec::new(),
            steps_by: Vec::new(),
            finished: Vec::new(),
            crash_observed: Vec::new(),
            last_output: Vec::new(),
        }
    }

    /// Takes a finished run's vectors back into the arena so the next
    /// [`run_with`](crate::SimBuilder::run_with) reuses their capacity.
    /// The run's contents are discarded.
    pub fn recycle(&mut self, run: Run<D>) {
        self.events = run.events;
        self.outputs = run.outputs;
        self.fd_samples = run.fd_samples;
        self.steps_by = run.steps_by;
        self.finished = run.finished;
        self.crash_observed = run.crash_observed;
    }
}

/// The completed run: pattern, trace, failure-detector samples and outputs.
///
/// `Run` is the interface between the simulator and every checker in the
/// repository: problem specifications (k-set-agreement), failure-detector
/// specifications (for extraction algorithms) and the run-condition
/// validator all consume it.
#[derive(Clone, Debug)]
pub struct Run<D> {
    pub(crate) pattern: FailurePattern,
    pub(crate) events: Vec<Event<D>>,
    pub(crate) outputs: Vec<(Time, ProcessId, Output)>,
    pub(crate) fd_samples: Vec<(Time, ProcessId, D)>,
    pub(crate) steps_by: Vec<u64>,
    pub(crate) finished: Vec<bool>,
    pub(crate) crash_observed: Vec<Option<Time>>,
    pub(crate) total_steps: u64,
    pub(crate) stop: StopReason,
}

impl<D: FdValue> Run<D> {
    /// The failure pattern `F` of the run.
    pub fn pattern(&self) -> &FailurePattern {
        &self.pattern
    }

    /// Number of processes in the system.
    pub fn n_plus_1(&self) -> usize {
        self.pattern.n_plus_1()
    }

    /// The recorded events, in schedule order.
    pub fn events(&self) -> &[Event<D>] {
        &self.events
    }

    /// All outputs, in schedule order.
    pub fn outputs(&self) -> &[(Time, ProcessId, Output)] {
        &self.outputs
    }

    /// Outputs produced by one process, in order.
    pub fn outputs_of(&self, p: ProcessId) -> impl Iterator<Item = (Time, Output)> + '_ {
        self.outputs
            .iter()
            .filter(move |(_, q, _)| *q == p)
            .map(|(t, _, o)| (*t, *o))
    }

    /// Every failure-detector sample `(t, p, H(p,t))` observed at query steps.
    pub fn fd_samples(&self) -> &[(Time, ProcessId, D)] {
        &self.fd_samples
    }

    /// The last `Decide` output of each process, if any — the decision values
    /// of an agreement run.
    pub fn decisions(&self) -> Vec<Option<u64>> {
        let mut out = vec![None; self.n_plus_1()];
        for (_, p, o) in &self.outputs {
            if let Output::Decide(v) = o {
                out[p.index()] = Some(*v);
            }
        }
        out
    }

    /// The set of distinct decided values.
    pub fn decided_values(&self) -> Vec<u64> {
        let mut vals: Vec<u64> = self.decisions().into_iter().flatten().collect();
        vals.sort_unstable();
        vals.dedup();
        vals
    }

    /// The last published output of each process (of any kind).
    pub fn last_outputs(&self) -> Vec<Option<Output>> {
        let mut out = vec![None; self.n_plus_1()];
        for (_, p, o) in &self.outputs {
            out[p.index()] = Some(*o);
        }
        out
    }

    /// Steps taken by each process.
    pub fn steps_by(&self) -> &[u64] {
        &self.steps_by
    }

    /// The events of one process, in order.
    pub fn events_of(&self, p: ProcessId) -> impl Iterator<Item = &Event<D>> + '_ {
        self.events.iter().filter(move |e| e.pid == p)
    }

    /// Count of shared-object operation steps in the run.
    pub fn op_steps(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, StepKind::Op { .. }))
            .count()
    }

    /// Count of failure-detector query steps in the run.
    pub fn query_steps(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, StepKind::Query(_)))
            .count()
    }

    /// The induced trace `⟨F, σ, T̄⟩` of the run (§3.4) — `F` stays
    /// available via [`Run::pattern`].
    pub fn induced_trace(&self) -> InducedTrace {
        InducedTrace {
            sigma: self.outputs.iter().map(|(_, p, o)| (*p, *o)).collect(),
            times: self.outputs.iter().map(|(t, _, _)| *t).collect(),
        }
    }

    /// The schedule of the run: which process took each step, in order.
    ///
    /// Replaying this schedule through a
    /// [`Scripted`](crate::Scripted) adversary against the same
    /// configuration reproduces the run exactly (histories are functions of
    /// `(p, t)`, so identical schedules sample identical values) — the
    /// foundation for record/replay debugging.
    pub fn schedule(&self) -> Vec<ProcessId> {
        self.events.iter().map(|e| e.pid).collect()
    }

    /// Total steps granted in the run.
    pub fn total_steps(&self) -> u64 {
        self.total_steps
    }

    /// Whether process `p`'s algorithm returned normally.
    pub fn finished(&self, p: ProcessId) -> bool {
        self.finished[p.index()]
    }

    /// Whether every correct process finished.
    pub fn all_correct_finished(&self) -> bool {
        self.pattern.correct().iter().all(|p| self.finished(p))
    }

    /// The time the simulator delivered the crash to `p`, if it did.
    pub fn crash_observed(&self, p: ProcessId) -> Option<Time> {
        self.crash_observed[p.index()]
    }

    /// Why the run stopped.
    pub fn stop_reason(&self) -> StopReason {
        self.stop
    }

    /// Validates the run conditions of §3.3 that are checkable on a finite
    /// prefix:
    ///
    /// 1. no step is taken by a crashed process,
    /// 2. query steps carry the history value `H(p,t)` (by construction —
    ///    checked for internal consistency: one sample per query event),
    /// 3. times are strictly increasing,
    /// 5. (finite surrogate) every correct process keeps taking steps: it is
    ///    either finished or has a step in the trailing window when the
    ///    budget ran out under a fair scheduler.
    ///
    /// Returns a description of the first violation found.
    pub fn validate_run_conditions(&self) -> Result<(), String> {
        let mut last: Option<Time> = None;
        let mut queries = 0usize;
        for ev in &self.events {
            if let Some(prev) = last {
                if ev.time <= prev {
                    return Err(format!("times not strictly increasing at {}", ev.time));
                }
            }
            last = Some(ev.time);
            if self.pattern.is_crashed_at(ev.pid, ev.time) {
                return Err(format!(
                    "crashed process {} took a step at {} (run condition 1)",
                    ev.pid, ev.time
                ));
            }
            if let StepKind::Query(_) = ev.kind {
                queries += 1;
            }
        }
        if queries != self.fd_samples.len() {
            return Err(format!(
                "query events ({queries}) and fd samples ({}) disagree",
                self.fd_samples.len()
            ));
        }
        for (t, p, _) in &self.fd_samples {
            if self.pattern.is_crashed_at(*p, *t) {
                return Err(format!("crashed process {p} queried its module at {t}"));
            }
        }
        Ok(())
    }
}

impl<D: FdValue> fmt::Display for Run<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "run[{} | {} steps | {} outputs | stop={:?}]",
            self.pattern,
            self.total_steps,
            self.outputs.len(),
            self.stop
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_run() -> Run<u8> {
        let pattern = FailurePattern::builder(2)
            .crash(ProcessId(1), Time(5))
            .build();
        Run {
            pattern,
            events: vec![
                Event {
                    time: Time(0),
                    pid: ProcessId(0),
                    kind: StepKind::NoOp,
                },
                Event {
                    time: Time(1),
                    pid: ProcessId(1),
                    kind: StepKind::Query(9),
                },
                Event {
                    time: Time(2),
                    pid: ProcessId(0),
                    kind: StepKind::Output(Output::Decide(3)),
                },
            ],
            outputs: vec![(Time(2), ProcessId(0), Output::Decide(3))],
            fd_samples: vec![(Time(1), ProcessId(1), 9)],
            steps_by: vec![2, 1],
            finished: vec![true, false],
            crash_observed: vec![None, Some(Time(5))],
            total_steps: 3,
            stop: StopReason::AllDone,
        }
    }

    #[test]
    fn accessors() {
        let r = toy_run();
        assert_eq!(r.n_plus_1(), 2);
        assert_eq!(r.decisions(), vec![Some(3), None]);
        assert_eq!(r.decided_values(), vec![3]);
        assert!(r.finished(ProcessId(0)));
        assert!(!r.finished(ProcessId(1)));
        assert!(r.all_correct_finished());
        assert_eq!(r.outputs_of(ProcessId(0)).count(), 1);
        assert_eq!(r.last_outputs()[0], Some(Output::Decide(3)));
        assert_eq!(r.crash_observed(ProcessId(1)), Some(Time(5)));
        assert_eq!(r.stop_reason(), StopReason::AllDone);
    }

    #[test]
    fn event_filters() {
        let r = toy_run();
        assert_eq!(r.events_of(ProcessId(0)).count(), 2);
        assert_eq!(r.events_of(ProcessId(1)).count(), 1);
        assert_eq!(r.op_steps(), 0);
        assert_eq!(r.query_steps(), 1);
        assert_eq!(r.schedule(), vec![ProcessId(0), ProcessId(1), ProcessId(0)]);
    }

    #[test]
    fn validation_accepts_well_formed_run() {
        assert_eq!(toy_run().validate_run_conditions(), Ok(()));
    }

    #[test]
    fn validation_rejects_steps_after_crash() {
        let mut r = toy_run();
        r.events.push(Event {
            time: Time(6),
            pid: ProcessId(1),
            kind: StepKind::NoOp,
        });
        let err = r.validate_run_conditions().unwrap_err();
        assert!(err.contains("crashed process"), "{err}");
    }

    #[test]
    fn validation_rejects_non_increasing_times() {
        let mut r = toy_run();
        r.events.push(Event {
            time: Time(2),
            pid: ProcessId(0),
            kind: StepKind::NoOp,
        });
        let err = r.validate_run_conditions().unwrap_err();
        assert!(err.contains("strictly increasing"), "{err}");
    }

    #[test]
    fn induced_trace_extraction() {
        let r = toy_run();
        let tr = r.induced_trace();
        assert_eq!(tr.sigma, vec![(ProcessId(0), Output::Decide(3))]);
        assert_eq!(tr.times, vec![Time(2)]);
        assert!(tr.same_sigma(&r.induced_trace()));
        let mut other = r.induced_trace();
        other.times = vec![Time(9)];
        assert!(tr.same_sigma(&other), "σ-equality ignores times");
        other.sigma = vec![(ProcessId(1), Output::Decide(3))];
        assert!(!tr.same_sigma(&other));
    }

    /// The hot event stays 40 bytes: an `Op`'s rarely used payloads sit
    /// behind one optional box, so a step records time, pid and 24 bytes of
    /// kind. Growing either type shows up here, not as a slowdown.
    #[test]
    fn event_layout_is_pinned() {
        assert_eq!(std::mem::size_of::<StepKind<ProcessSet>>(), 24);
        assert_eq!(std::mem::size_of::<Event<ProcessSet>>(), 40);
    }

    #[test]
    fn op_debug_renders_note_fields_inline() {
        let kind = |note| StepKind::<u8>::Op {
            object: ObjectId(2),
            access: Access::Read,
            note,
        };
        assert_eq!(
            format!("{:?}", kind(None)),
            "Op { object: ObjectId(2), access: Read, sig: None, detail: None }"
        );
        let note = OpNote {
            sig: Some(OpSig::new("T", "Get".to_string())),
            detail: Some("Get -> 1".into()),
        };
        assert_eq!(
            format!("{:?}", kind(Some(Box::new(note)))),
            "Op { object: ObjectId(2), access: Read, sig: Some(OpSig { type_name: \"T\", \
             op: \"Get\" }), detail: Some(\"Get -> 1\") }"
        );
    }

    #[test]
    fn output_display() {
        assert_eq!(Output::Decide(7).to_string(), "decide(7)");
        assert_eq!(Output::Leader(ProcessId(0)).to_string(), "leader(p1)");
        assert_eq!(
            Output::LeaderSet(ProcessSet::singleton(ProcessId(1))).to_string(),
            "leader-set({p2})"
        );
        assert_eq!(Output::Value(1).to_string(), "value(1)");
    }
}
