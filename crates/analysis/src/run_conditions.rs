//! Pass 2: the §3.3 run-condition validator.
//!
//! A run of an algorithm is a tuple `⟨F, H, S, T⟩` (§3.3); not every tuple
//! is a run. This module re-validates the conditions on recorded
//! [`Run`]s, independently of the simulator's own bookkeeping:
//!
//! 1. **Crash respect** — no process takes a step (event, query or output)
//!    at a time `t` with `p ∈ F(t)`.
//! 2. **History consistency** — the k-th query step of the run carries
//!    exactly the k-th recorded failure-detector sample, with matching
//!    `(t, p)`; optionally ([`check_fd_history`]) every sample equals a
//!    fresh deterministic oracle's `H(p, t)` — histories are functions of
//!    `(p, t)`, so a re-instantiated oracle must reproduce them.
//! 3. **Increasing times** — `T` is strictly increasing across steps.
//! 4. **Output integrity** — the run's output list is exactly the
//!    sequence of `Output` steps in the event trace, and `Decide` outputs
//!    are irrevocable per process (§3.3's outputs are write-once
//!    decisions; repeating the same value is tolerated, changing it is
//!    not).
//! 5. **σ/T̄ alignment** — the induced trace of §3.4 lists the same
//!    `(process, output)` pairs at the same, non-decreasing times as the
//!    output list.
//!
//! The checker consumes a [`RunView`] — a plain-old-data projection of a
//! `Run` built from its public accessors — so tests can corrupt any field
//! and prove the validator rejects the corruption (see the crate's
//! mutation tests).

use std::fmt;
use upsilon_sim::{
    Event, FailurePattern, FdValue, InducedTrace, Oracle, Output, ProcessId, Run, StepKind, Time,
};

/// A corruptible projection of a [`Run`], built from public accessors.
///
/// Every field is public on purpose: the validator's own tests mutate
/// views to verify each §3.3 condition is genuinely enforced.
#[derive(Clone, Debug)]
pub struct RunView<D> {
    /// The failure pattern `F`.
    pub pattern: FailurePattern,
    /// The recorded steps `S`/`T`, in schedule order.
    pub events: Vec<Event<D>>,
    /// The outputs, in schedule order.
    pub outputs: Vec<(Time, ProcessId, Output)>,
    /// The failure-detector samples `H(p, t)` observed at query steps.
    pub fd_samples: Vec<(Time, ProcessId, D)>,
    /// The induced trace `⟨σ, T̄⟩` of §3.4.
    pub induced: InducedTrace,
}

impl<D: FdValue> RunView<D> {
    /// Projects a completed run into a view.
    pub fn of(run: &Run<D>) -> Self {
        RunView {
            pattern: run.pattern().clone(),
            events: run.events().to_vec(),
            outputs: run.outputs().to_vec(),
            fd_samples: run.fd_samples().to_vec(),
            induced: run.induced_trace(),
        }
    }
}

/// The first §3.3 condition a view violates.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RunViolation {
    /// Event times fail to strictly increase.
    NonIncreasingTime {
        /// Index of the offending event.
        index: usize,
        /// Its time, not greater than its predecessor's.
        time: Time,
    },
    /// A process acted at or after its crash time in `F(t)`.
    StepAfterCrash {
        /// The crashed process.
        pid: ProcessId,
        /// When it acted.
        time: Time,
        /// What it did ("step", "query", "output").
        what: &'static str,
    },
    /// Query steps and recorded samples disagree in number.
    QueryCountMismatch {
        /// `Query` events in the trace.
        queries: usize,
        /// Recorded samples.
        samples: usize,
    },
    /// The k-th query step and the k-th sample disagree.
    SampleMismatch {
        /// Which query/sample pair.
        index: usize,
        /// Human-readable discrepancy.
        detail: String,
    },
    /// A fresh oracle's `H(p, t)` differs from a recorded sample.
    FdHistoryMismatch {
        /// The queried process.
        pid: ProcessId,
        /// The query time.
        time: Time,
        /// Human-readable discrepancy.
        detail: String,
    },
    /// A process decided one value and later decided a different one.
    RevokedDecision {
        /// The offending process.
        pid: ProcessId,
        /// Its first decision.
        first: u64,
        /// The conflicting later decision.
        later: u64,
        /// When the conflict occurred.
        time: Time,
    },
    /// The output list is not the sequence of `Output` steps in the trace.
    OutputMismatch {
        /// Which position disagrees.
        index: usize,
        /// Human-readable discrepancy.
        detail: String,
    },
    /// The induced trace disagrees with the output list.
    SigmaMisaligned {
        /// Human-readable discrepancy.
        detail: String,
    },
}

impl fmt::Display for RunViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunViolation::NonIncreasingTime { index, time } => {
                write!(
                    f,
                    "event #{index}: time {time} does not increase (condition 3)"
                )
            }
            RunViolation::StepAfterCrash { pid, time, what } => {
                write!(
                    f,
                    "crashed process {pid} took a {what} at {time} (condition 1)"
                )
            }
            RunViolation::QueryCountMismatch { queries, samples } => write!(
                f,
                "{queries} query steps but {samples} fd samples (condition 2)"
            ),
            RunViolation::SampleMismatch { index, detail } => {
                write!(f, "query/sample #{index}: {detail} (condition 2)")
            }
            RunViolation::FdHistoryMismatch { pid, time, detail } => write!(
                f,
                "H({pid}, {time}) is not reproduced by a fresh oracle: {detail} (condition 2)"
            ),
            RunViolation::RevokedDecision {
                pid,
                first,
                later,
                time,
            } => write!(
                f,
                "{pid} decided {first} then revoked it to {later} at {time} (irrevocability)"
            ),
            RunViolation::OutputMismatch { index, detail } => {
                write!(f, "output #{index}: {detail}")
            }
            RunViolation::SigmaMisaligned { detail } => {
                write!(f, "induced trace misaligned: {detail} (§3.4)")
            }
        }
    }
}

/// Summary counts of a validated view.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct RunStats {
    /// Events in the trace.
    pub events: usize,
    /// Query steps among them.
    pub queries: usize,
    /// Outputs produced.
    pub outputs: usize,
    /// `Decide` outputs among them.
    pub decisions: usize,
}

/// Validates every §3.3/§3.4 condition checkable without the oracle.
///
/// # Errors
///
/// Returns the first violated condition.
pub fn check_run<D: FdValue>(view: &RunView<D>) -> Result<RunStats, RunViolation> {
    check_run_parts(
        &view.pattern,
        &view.events,
        &view.outputs,
        &view.fd_samples,
        &view.induced,
    )
}

/// The validator over borrowed run components — the allocation-free core
/// behind [`check_run`] and [`check_run_for`]. Campaign runners call the
/// validator on every execution, so it must not copy the trace it judges.
fn check_run_parts<D: FdValue>(
    pattern: &FailurePattern,
    events: &[Event<D>],
    outputs: &[(Time, ProcessId, Output)],
    fd_samples: &[(Time, ProcessId, D)],
    induced: &InducedTrace,
) -> Result<RunStats, RunViolation> {
    let mut stats = RunStats {
        events: events.len(),
        outputs: outputs.len(),
        ..RunStats::default()
    };

    // Condition 3: strictly increasing times; condition 1 for steps.
    let mut last: Option<Time> = None;
    for (index, ev) in events.iter().enumerate() {
        if last.is_some_and(|prev| ev.time <= prev) {
            return Err(RunViolation::NonIncreasingTime {
                index,
                time: ev.time,
            });
        }
        last = Some(ev.time);
        if pattern.is_crashed_at(ev.pid, ev.time) {
            return Err(RunViolation::StepAfterCrash {
                pid: ev.pid,
                time: ev.time,
                what: "step",
            });
        }
    }

    // Condition 2 (recorded half): the k-th query step carries the k-th
    // sample, at the same process and time.
    let queries: Vec<(&Event<D>, &D)> = events
        .iter()
        .filter_map(|ev| match &ev.kind {
            StepKind::Query(d) => Some((ev, d)),
            _ => None,
        })
        .collect();
    stats.queries = queries.len();
    if queries.len() != fd_samples.len() {
        return Err(RunViolation::QueryCountMismatch {
            queries: queries.len(),
            samples: fd_samples.len(),
        });
    }
    for (index, ((ev, d), (st, sp, sd))) in queries.iter().zip(fd_samples).enumerate() {
        if ev.time != *st || ev.pid != *sp {
            return Err(RunViolation::SampleMismatch {
                index,
                detail: format!(
                    "query step by {} at {} vs sample by {sp} at {st}",
                    ev.pid, ev.time
                ),
            });
        }
        if **d != *sd {
            return Err(RunViolation::SampleMismatch {
                index,
                detail: format!("query value {d:?} vs sample value {sd:?}"),
            });
        }
        if pattern.is_crashed_at(*sp, *st) {
            return Err(RunViolation::StepAfterCrash {
                pid: *sp,
                time: *st,
                what: "query",
            });
        }
    }

    // Output integrity: the output list is exactly the `Output` steps.
    let output_events: Vec<&Event<D>> = events
        .iter()
        .filter(|ev| matches!(ev.kind, StepKind::Output(_)))
        .collect();
    if output_events.len() != outputs.len() {
        return Err(RunViolation::OutputMismatch {
            index: output_events.len().min(outputs.len()),
            detail: format!(
                "{} output steps in the trace but {} recorded outputs",
                output_events.len(),
                outputs.len()
            ),
        });
    }
    for (index, (ev, (t, p, o))) in output_events.iter().zip(outputs).enumerate() {
        let StepKind::Output(eo) = &ev.kind else {
            unreachable!("filtered to output steps");
        };
        if ev.time != *t || ev.pid != *p || eo != o {
            return Err(RunViolation::OutputMismatch {
                index,
                detail: format!(
                    "trace has {} by {} at {}, output list has {o} by {p} at {t}",
                    eo, ev.pid, ev.time
                ),
            });
        }
        if pattern.is_crashed_at(*p, *t) {
            return Err(RunViolation::StepAfterCrash {
                pid: *p,
                time: *t,
                what: "output",
            });
        }
    }

    // Decide irrevocability.
    let mut decided: Vec<Option<u64>> = vec![None; pattern.n_plus_1()];
    for (t, p, o) in outputs {
        if let Output::Decide(v) = o {
            stats.decisions += 1;
            match decided[p.index()] {
                Some(first) if first != *v => {
                    return Err(RunViolation::RevokedDecision {
                        pid: *p,
                        first,
                        later: *v,
                        time: *t,
                    });
                }
                _ => decided[p.index()] = Some(*v),
            }
        }
    }

    // §3.4: σ and T̄ align with the output list.
    if induced.sigma.len() != induced.times.len() {
        return Err(RunViolation::SigmaMisaligned {
            detail: format!(
                "σ has {} entries but T̄ has {}",
                induced.sigma.len(),
                induced.times.len()
            ),
        });
    }
    if induced.sigma.len() != outputs.len() {
        return Err(RunViolation::SigmaMisaligned {
            detail: format!(
                "σ has {} entries but the run produced {} outputs",
                induced.sigma.len(),
                outputs.len()
            ),
        });
    }
    let mut last_t: Option<Time> = None;
    for (i, (((sp, so), st), (t, p, o))) in induced
        .sigma
        .iter()
        .zip(&induced.times)
        .zip(outputs)
        .enumerate()
    {
        if sp != p || so != o || st != t {
            return Err(RunViolation::SigmaMisaligned {
                detail: format!(
                    "σ[{i}] = ({sp}, {so}) at {st}, but output #{i} is ({p}, {o}) at {t}"
                ),
            });
        }
        if last_t.is_some_and(|prev| *st < prev) {
            return Err(RunViolation::SigmaMisaligned {
                detail: format!("T̄ decreases at position {i} ({st})"),
            });
        }
        last_t = Some(*st);
    }

    Ok(stats)
}

/// Validates a run directly (convenience over [`check_run`]).
///
/// # Errors
///
/// Returns the first violated condition.
pub fn check_run_for<D: FdValue>(run: &Run<D>) -> Result<RunStats, RunViolation> {
    // Borrow the run's components directly — no trace copy per validation.
    check_run_parts(
        run.pattern(),
        run.events(),
        run.outputs(),
        run.fd_samples(),
        &run.induced_trace(),
    )
}

/// Condition 2, determinism half: replays a freshly constructed oracle
/// (same configuration and seed as the one the run used) and requires it to
/// reproduce every recorded sample — `H(p, t)` must be a function of
/// `(p, t)`, independent of the schedule that sampled it.
///
/// # Errors
///
/// Returns [`RunViolation::FdHistoryMismatch`] on the first sample the
/// fresh oracle fails to reproduce.
pub fn check_fd_history<D: FdValue>(
    view: &RunView<D>,
    fresh: &mut dyn Oracle<D>,
) -> Result<(), RunViolation> {
    for (t, p, d) in &view.fd_samples {
        let replayed = fresh.output(*p, *t);
        if replayed != *d {
            return Err(RunViolation::FdHistoryMismatch {
                pid: *p,
                time: *t,
                detail: format!("recorded {d:?}, replayed {replayed:?}"),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(t: u64, p: usize, kind: StepKind<u8>) -> Event<u8> {
        Event {
            time: Time(t),
            pid: ProcessId(p),
            kind,
        }
    }

    /// A hand-built well-formed view: p2 crashes at 5; p1 queries, operates
    /// and decides.
    fn good_view() -> RunView<u8> {
        let pattern = FailurePattern::builder(2)
            .crash(ProcessId(1), Time(5))
            .build();
        let events = vec![
            event(0, 0, StepKind::NoOp),
            event(1, 1, StepKind::Query(9)),
            event(2, 0, StepKind::Query(7)),
            event(3, 0, StepKind::Output(Output::Decide(3))),
        ];
        let outputs = vec![(Time(3), ProcessId(0), Output::Decide(3))];
        let fd_samples = vec![(Time(1), ProcessId(1), 9), (Time(2), ProcessId(0), 7)];
        let induced = InducedTrace {
            sigma: vec![(ProcessId(0), Output::Decide(3))],
            times: vec![Time(3)],
        };
        RunView {
            pattern,
            events,
            outputs,
            fd_samples,
            induced,
        }
    }

    #[test]
    fn accepts_well_formed_view() {
        let stats = check_run(&good_view()).expect("well-formed");
        assert_eq!(stats.events, 4);
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.outputs, 1);
        assert_eq!(stats.decisions, 1);
    }

    #[test]
    fn rejects_duplicate_time() {
        let mut v = good_view();
        v.events[2].time = Time(1);
        assert!(matches!(
            check_run(&v),
            Err(RunViolation::NonIncreasingTime { index: 2, .. })
        ));
    }

    #[test]
    fn rejects_post_crash_step() {
        let mut v = good_view();
        v.events.push(event(6, 1, StepKind::NoOp));
        assert!(matches!(
            check_run(&v),
            Err(RunViolation::StepAfterCrash { what: "step", .. })
        ));
    }

    #[test]
    fn rejects_sample_value_flip() {
        let mut v = good_view();
        v.fd_samples[1].2 = 8;
        assert!(matches!(
            check_run(&v),
            Err(RunViolation::SampleMismatch { index: 1, .. })
        ));
    }

    #[test]
    fn rejects_dropped_sample() {
        let mut v = good_view();
        v.fd_samples.pop();
        assert!(matches!(
            check_run(&v),
            Err(RunViolation::QueryCountMismatch {
                queries: 2,
                samples: 1
            })
        ));
    }

    #[test]
    fn rejects_revoked_decision() {
        let mut v = good_view();
        v.events
            .push(event(4, 0, StepKind::Output(Output::Decide(8))));
        v.outputs.push((Time(4), ProcessId(0), Output::Decide(8)));
        v.induced.sigma.push((ProcessId(0), Output::Decide(8)));
        v.induced.times.push(Time(4));
        assert!(matches!(
            check_run(&v),
            Err(RunViolation::RevokedDecision {
                first: 3,
                later: 8,
                ..
            })
        ));
    }

    #[test]
    fn tolerates_idempotent_re_decision() {
        let mut v = good_view();
        v.events
            .push(event(4, 0, StepKind::Output(Output::Decide(3))));
        v.outputs.push((Time(4), ProcessId(0), Output::Decide(3)));
        v.induced.sigma.push((ProcessId(0), Output::Decide(3)));
        v.induced.times.push(Time(4));
        assert!(check_run(&v).is_ok());
    }

    #[test]
    fn rejects_fabricated_output() {
        let mut v = good_view();
        v.outputs.push((Time(9), ProcessId(0), Output::Value(1)));
        assert!(matches!(
            check_run(&v),
            Err(RunViolation::OutputMismatch { .. })
        ));
    }

    #[test]
    fn rejects_sigma_corruption() {
        let mut v = good_view();
        v.induced.sigma[0] = (ProcessId(1), Output::Decide(3));
        assert!(matches!(
            check_run(&v),
            Err(RunViolation::SigmaMisaligned { .. })
        ));
        let mut v = good_view();
        v.induced.times[0] = Time(99);
        assert!(matches!(
            check_run(&v),
            Err(RunViolation::SigmaMisaligned { .. })
        ));
    }

    #[test]
    fn fd_history_replay_detects_divergence() {
        use upsilon_sim::{MappedOracle, NullOracle};
        let v = good_view();
        // An oracle that reproduces the recorded samples exactly…
        let mut faithful = MappedOracle::new(NullOracle, |p: ProcessId, _t, ()| match p.index() {
            1 => 9u8,
            _ => 7u8,
        });
        assert!(check_fd_history(&v, &mut faithful).is_ok());
        // …and one that diverges at p1.
        let mut divergent = MappedOracle::new(NullOracle, |_p, _t, ()| 9u8);
        assert!(matches!(
            check_fd_history(&v, &mut divergent),
            Err(RunViolation::FdHistoryMismatch { .. })
        ));
    }
}
