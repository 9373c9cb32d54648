//! Phased adversaries: the partial-run construction idiom of the paper's
//! impossibility proofs, packaged as a reusable scheduler.
//!
//! Theorem 1's proof alternates phases of the form "let only these
//! processes run, until the algorithm reacts" ("…every process takes
//! exactly one step after R1 and then p_i1 is the only process that takes
//! steps"). [`PhasedAdversary`] expresses such constructions declaratively:
//! a list of [`Phase`]s, each restricting eligibility to a set of processes
//! until a predicate over the scheduling view fires (or a step budget runs
//! out), after which the next phase begins. The run ends when the phases
//! are exhausted.
//!
//! The Theorem 1/5 game in `upsilon-extract` uses a bespoke reactive
//! adversary (it must *generate* phases from the candidate's outputs); this
//! type covers the common case of statically known phase structures.

use crate::process::{ProcessId, ProcessSet};
use crate::sched::{Adversary, SchedView};

/// One phase of a phased schedule.
pub struct Phase {
    /// Which processes may take steps during the phase.
    pub allowed: ProcessSet,
    /// Ends the phase when it returns `true` (checked before each step).
    pub until: Box<dyn FnMut(&SchedView<'_>) -> bool + Send>,
    /// Hard cap on the phase's steps (safety net for non-firing
    /// predicates).
    pub max_steps: u64,
}

impl Phase {
    /// A phase that lets `allowed` run until `until` fires, bounded by
    /// `max_steps`.
    pub fn until(
        allowed: ProcessSet,
        max_steps: u64,
        until: impl FnMut(&SchedView<'_>) -> bool + Send + 'static,
    ) -> Self {
        Phase {
            allowed,
            until: Box::new(until),
            max_steps,
        }
    }

    /// A phase of exactly `steps` steps by `allowed` (round-robin).
    pub fn steps(allowed: ProcessSet, steps: u64) -> Self {
        Phase {
            allowed,
            until: Box::new(|_| false),
            max_steps: steps,
        }
    }

    /// A phase in which every member of `allowed` takes exactly one step.
    pub fn one_step_each(allowed: ProcessSet) -> Self {
        Phase::steps(allowed, allowed.len() as u64)
    }
}

impl std::fmt::Debug for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Phase")
            .field("allowed", &self.allowed)
            .field("max_steps", &self.max_steps)
            .finish_non_exhaustive()
    }
}

/// Plays a sequence of [`Phase`]s, round-robin within each phase, then
/// stops the run.
#[derive(Debug)]
pub struct PhasedAdversary {
    phases: std::collections::VecDeque<Phase>,
    taken_in_phase: u64,
    cursor: usize,
}

impl PhasedAdversary {
    /// An adversary playing `phases` in order.
    pub fn new(phases: impl IntoIterator<Item = Phase>) -> Self {
        PhasedAdversary {
            phases: phases.into_iter().collect(),
            taken_in_phase: 0,
            cursor: 0,
        }
    }
}

impl Adversary for PhasedAdversary {
    fn next_process(&mut self, view: &SchedView<'_>) -> Option<ProcessId> {
        loop {
            let phase = self.phases.front_mut()?;
            let exhausted = self.taken_in_phase >= phase.max_steps
                || (phase.until)(view)
                || view.eligible.intersection(phase.allowed).is_empty();
            if exhausted {
                self.phases.pop_front();
                self.taken_in_phase = 0;
                continue;
            }
            let candidates = view.eligible.intersection(phase.allowed);
            // Round-robin within the phase.
            let n = ProcessSet::MAX_PROCESSES;
            for off in 0..n {
                let i = (self.cursor + off) % n;
                if candidates.contains(ProcessId(i)) {
                    self.cursor = i + 1;
                    self.taken_in_phase += 1;
                    return Some(ProcessId(i));
                }
            }
            unreachable!("non-empty candidate set always yields a pick");
        }
    }

    fn describe(&self) -> String {
        format!("phased({} phases left)", self.phases.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SimBuilder;
    use crate::failure::FailurePattern;
    use crate::trace::{Output, StopReason};

    fn spin_all(n: usize) -> SimBuilder<()> {
        SimBuilder::<()>::new(FailurePattern::failure_free(n)).spawn_all(|pid| {
            crate::builder::algo(move |mut ctx| async move {
                loop {
                    ctx.output(Output::Value(pid.index() as u64)).await;
                }
            })
        })
    }

    #[test]
    fn fixed_step_phases_partition_the_run() {
        let outcome = spin_all(3)
            .adversary(PhasedAdversary::new([
                Phase::steps(ProcessSet::singleton(ProcessId(2)), 5),
                Phase::one_step_each(ProcessSet::all(3)),
                Phase::steps(ProcessSet::singleton(ProcessId(0)), 4),
            ]))
            .run();
        assert_eq!(outcome.run.stop_reason(), StopReason::AdversaryStopped);
        assert_eq!(outcome.run.steps_by(), &[5, 1, 6]);
        // Order: five p3 steps, then p1 p2 p3 (round-robin continues from
        // the cursor), then four p1 steps.
        let pids: Vec<usize> = outcome.run.events().iter().map(|e| e.pid.index()).collect();
        assert_eq!(&pids[..5], &[2, 2, 2, 2, 2]);
        assert_eq!(&pids[5..8], &[0, 1, 2]);
        assert_eq!(&pids[8..], &[0, 0, 0, 0]);
    }

    #[test]
    fn predicate_ends_a_phase_early() {
        // Solo-run p2 until it has published 3 outputs, then p1 once.
        let outcome = spin_all(2)
            .adversary(PhasedAdversary::new([
                Phase::until(ProcessSet::singleton(ProcessId(1)), 1_000, |view| {
                    view.outputs.len() >= 3
                }),
                Phase::steps(ProcessSet::singleton(ProcessId(0)), 1),
            ]))
            .run();
        assert_eq!(outcome.run.steps_by(), &[1, 3]);
    }

    #[test]
    fn empty_intersection_skips_the_phase() {
        // Phase restricted to a crashed process is skipped outright.
        let pattern = FailurePattern::builder(2)
            .crash(ProcessId(1), crate::time::Time(0))
            .build();
        let outcome = SimBuilder::<()>::new(pattern)
            .adversary(PhasedAdversary::new([
                Phase::steps(ProcessSet::singleton(ProcessId(1)), 5),
                Phase::steps(ProcessSet::singleton(ProcessId(0)), 2),
            ]))
            .spawn_all(|_| {
                crate::builder::algo(move |mut ctx| async move {
                    loop {
                        ctx.yield_step().await;
                    }
                })
            })
            .run();
        assert_eq!(outcome.run.steps_by(), &[2, 0]);
    }

    #[test]
    fn no_phases_stops_immediately() {
        let outcome = spin_all(2).adversary(PhasedAdversary::new([])).run();
        assert_eq!(outcome.run.total_steps(), 0);
        assert_eq!(outcome.run.stop_reason(), StopReason::AdversaryStopped);
    }
}
