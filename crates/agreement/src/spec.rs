//! The k-set-agreement problem specification (§5.1), checked on recorded
//! runs.
//!
//! Every run of a k-set-agreement algorithm must satisfy: **Termination**
//! (every correct process eventually decides), **Agreement** (at most `k`
//! values are decided on) and **Validity** (any value decided is a value
//! proposed). Consensus is the case `k = 1`.

use std::fmt;
use upsilon_analysis::RunSpec;
use upsilon_sim::{FdValue, Output, ProcessId, Run, StopReason};

/// A violation of the k-set-agreement specification.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TaskViolation {
    /// A correct participating process never decided.
    Termination(ProcessId),
    /// More than `k` distinct values were decided.
    Agreement {
        /// The distinct decided values.
        decided: Vec<u64>,
        /// The bound that was exceeded.
        k: usize,
    },
    /// A decided value was never proposed.
    Validity {
        /// The unproposed value.
        value: u64,
        /// Who decided it.
        by: ProcessId,
    },
    /// A process decided twice with different values (decisions are
    /// irrevocable).
    Revoked {
        /// The revoking process.
        by: ProcessId,
        /// Its first decision.
        first: u64,
        /// Its conflicting later decision.
        second: u64,
    },
}

impl fmt::Display for TaskViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskViolation::Termination(p) => {
                write!(
                    f,
                    "termination violated: correct participant {p} never decided"
                )
            }
            TaskViolation::Agreement { decided, k } => write!(
                f,
                "agreement violated: {} distinct values decided ({decided:?}) with k = {k}",
                decided.len()
            ),
            TaskViolation::Validity { value, by } => {
                write!(
                    f,
                    "validity violated: {by} decided unproposed value {value}"
                )
            }
            TaskViolation::Revoked { by, first, second } => {
                write!(
                    f,
                    "irrevocability violated: {by} decided {first} then {second}"
                )
            }
        }
    }
}

impl std::error::Error for TaskViolation {}

/// Checks a run against the k-set-agreement specification.
///
/// `proposals[i]` is the value proposed by `p_{i+1}`, or `None` if that
/// process did not participate (cf. the §5.2 Remark). Termination is
/// required of every correct participant; Agreement and Validity of
/// everyone.
///
/// ```
/// use upsilon_agreement::{check_k_set_agreement, TaskViolation};
/// use upsilon_sim::{algo, FailurePattern, SimBuilder};
///
/// // Three processes decide two distinct values: fine for k = 2, an
/// // Agreement violation for k = 1.
/// let run = SimBuilder::<()>::new(FailurePattern::failure_free(3))
///     .spawn_all(|pid| algo(move |ctx| async move {
///         ctx.decide(pid.index() as u64 % 2).await;
///     }))
///     .run()
///     .run;
/// let proposals = [Some(0), Some(1), Some(0)];
/// assert!(check_k_set_agreement(&run, 2, &proposals).is_ok());
/// assert!(matches!(
///     check_k_set_agreement(&run, 1, &proposals),
///     Err(TaskViolation::Agreement { .. })
/// ));
/// ```
///
/// # Errors
///
/// Returns the first [`TaskViolation`] found.
pub fn check_k_set_agreement<D: FdValue>(
    run: &Run<D>,
    k: usize,
    proposals: &[Option<u64>],
) -> Result<(), TaskViolation> {
    check_k_set(run, k, proposals, true)
}

/// Checks only the *safety* clauses of k-set agreement — Irrevocability,
/// Agreement and Validity — skipping Termination.
///
/// This is the right specification for runs truncated by a depth or step
/// budget (systematic exploration, partial-run constructions): safety must
/// hold of every prefix, while termination is only meaningful on runs that
/// were allowed to finish.
///
/// # Errors
///
/// Returns the first [`TaskViolation`] found.
pub fn check_k_set_agreement_safety<D: FdValue>(
    run: &Run<D>,
    k: usize,
    proposals: &[Option<u64>],
) -> Result<(), TaskViolation> {
    check_k_set(run, k, proposals, false)
}

fn check_k_set<D: FdValue>(
    run: &Run<D>,
    k: usize,
    proposals: &[Option<u64>],
    require_termination: bool,
) -> Result<(), TaskViolation> {
    assert_eq!(
        proposals.len(),
        run.n_plus_1(),
        "one proposal slot per process"
    );

    // Irrevocability: no process decides two different values.
    for i in 0..run.n_plus_1() {
        let p = ProcessId(i);
        let decisions: Vec<u64> = run
            .outputs_of(p)
            .filter_map(|(_, o)| match o {
                Output::Decide(v) => Some(v),
                _ => None,
            })
            .collect();
        if let Some((&first, rest)) = decisions.split_first() {
            if let Some(&second) = rest.iter().find(|&&v| v != first) {
                return Err(TaskViolation::Revoked {
                    by: p,
                    first,
                    second,
                });
            }
        }
    }

    let decisions = run.decisions();

    // Termination.
    if require_termination {
        for p in run.pattern().correct() {
            if proposals[p.index()].is_some() && decisions[p.index()].is_none() {
                return Err(TaskViolation::Termination(p));
            }
        }
    }

    // Agreement.
    let decided = run.decided_values();
    if decided.len() > k {
        return Err(TaskViolation::Agreement { decided, k });
    }

    // Validity.
    let proposed: Vec<u64> = proposals.iter().flatten().copied().collect();
    for (i, decision) in decisions.iter().enumerate() {
        if let Some(v) = decision {
            if !proposed.contains(v) {
                return Err(TaskViolation::Validity {
                    value: *v,
                    by: ProcessId(i),
                });
            }
        }
    }
    Ok(())
}

/// Checks a run against the consensus specification (`k = 1`).
///
/// # Errors
///
/// Returns the first [`TaskViolation`] found.
pub fn check_consensus<D: FdValue>(
    run: &Run<D>,
    proposals: &[Option<u64>],
) -> Result<(), TaskViolation> {
    check_k_set_agreement(run, 1, proposals)
}

/// The k-set-agreement task as a [`RunSpec`], for systematic exploration.
///
/// On complete runs ([`StopReason::AllDone`]) the full specification is
/// checked; on truncated runs only the safety clauses are. The spec is
/// trace-closed: it depends only on each process's output sequence and the
/// failure pattern, never on the relative order of independent steps.
#[derive(Clone, Debug)]
pub struct KSetAgreementSpec {
    /// The agreement bound `k`.
    pub k: usize,
    /// `proposals[i]` is the value `p_{i+1}` proposes, `None` if absent.
    pub proposals: Vec<Option<u64>>,
}

impl<D: FdValue> RunSpec<D> for KSetAgreementSpec {
    fn name(&self) -> &str {
        "k-set-agreement"
    }

    fn check(&self, run: &Run<D>) -> Result<(), String> {
        let complete = matches!(run.stop_reason(), StopReason::AllDone);
        check_k_set(run, self.k, &self.proposals, complete).map_err(|v| v.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upsilon_sim::{algo, FailurePattern, SimBuilder};

    fn run_with_decisions(decisions: Vec<Option<u64>>) -> Run<()> {
        let n = decisions.len();
        SimBuilder::<()>::new(FailurePattern::failure_free(n))
            .spawn_all(|pid| {
                let d = decisions[pid.index()];
                algo(move |ctx| async move {
                    if let Some(v) = d {
                        ctx.decide(v).await;
                    }
                })
            })
            .run()
            .run
    }

    #[test]
    fn accepts_a_correct_run() {
        let run = run_with_decisions(vec![Some(1), Some(2), Some(1)]);
        check_k_set_agreement(&run, 2, &[Some(1), Some(2), Some(3)]).expect("legal 2-set run");
    }

    #[test]
    fn rejects_too_many_values() {
        let run = run_with_decisions(vec![Some(1), Some(2), Some(3)]);
        let err = check_k_set_agreement(&run, 2, &[Some(1), Some(2), Some(3)]).unwrap_err();
        assert!(matches!(err, TaskViolation::Agreement { .. }), "{err}");
    }

    #[test]
    fn rejects_unproposed_value() {
        let run = run_with_decisions(vec![Some(9), None, None]);
        let err = check_k_set_agreement(&run, 3, &[Some(1), None, None]).unwrap_err();
        assert!(
            matches!(err, TaskViolation::Validity { value: 9, .. }),
            "{err}"
        );
    }

    #[test]
    fn rejects_missing_decision_of_correct_participant() {
        let run = run_with_decisions(vec![Some(1), None, Some(1)]);
        let err = check_k_set_agreement(&run, 2, &[Some(1), Some(2), Some(1)]).unwrap_err();
        assert_eq!(err, TaskViolation::Termination(ProcessId(1)));
    }

    #[test]
    fn non_participants_need_not_decide() {
        let run = run_with_decisions(vec![Some(1), None, Some(1)]);
        check_k_set_agreement(&run, 2, &[Some(1), None, Some(1)])
            .expect("non-participant may stay silent");
    }

    #[test]
    fn rejects_revoked_decision() {
        let run = SimBuilder::<()>::new(FailurePattern::failure_free(1))
            .spawn_all(|_| {
                algo(move |ctx| async move {
                    ctx.decide(1).await;
                    ctx.decide(2).await;
                })
            })
            .run()
            .run;
        let err = check_k_set_agreement(&run, 2, &[Some(1)]).unwrap_err();
        assert!(matches!(err, TaskViolation::Revoked { .. }), "{err}");
    }

    #[test]
    fn consensus_is_one_set_agreement() {
        let run = run_with_decisions(vec![Some(2), Some(2)]);
        check_consensus(&run, &[Some(1), Some(2)]).expect("agreeing consensus run");
        let run = run_with_decisions(vec![Some(1), Some(2)]);
        assert!(check_consensus(&run, &[Some(1), Some(2)]).is_err());
    }

    #[test]
    fn violations_display() {
        assert!(TaskViolation::Termination(ProcessId(0))
            .to_string()
            .contains("p1"));
        assert!(TaskViolation::Agreement {
            decided: vec![1, 2],
            k: 1
        }
        .to_string()
        .contains("2 distinct"));
    }
}
