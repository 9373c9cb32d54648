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
///     .spawn_all(|pid| algo(move |mut ctx| async move {
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

/// The shared body of the full and safety-only checks. It makes one pass
/// over `run.outputs()`, comparing each decision with the decisions before
/// it, and allocates only to report a violation: the spec runs at every
/// node of an exhaustive search, where the pass path is the hot one.
/// Violations are reported in clause order (Irrevocability, Termination,
/// Agreement, Validity), each naming the lowest offending process.
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
    let outputs = run.outputs();
    let decided = |o: &Output| match *o {
        Output::Decide(v) => Some(v),
        _ => None,
    };

    // `revoked` and `invalid` keep the lowest offending process; a
    // process's first differing decision is the first one the pass meets.
    let mut revoked: Option<(ProcessId, u64, u64)> = None;
    let mut invalid: Option<(ProcessId, u64)> = None;
    let mut distinct = 0;
    for (j, &(_, p, o)) in outputs.iter().enumerate() {
        let Some(v) = decided(&o) else { continue };
        let mut first = None;
        let mut repeated = false;
        for (_, q, e) in &outputs[..j] {
            if let Some(w) = decided(e) {
                if *q == p && first.is_none() {
                    first = Some(w);
                }
                repeated |= w == v;
            }
        }
        if let Some(first) = first.filter(|&f| f != v) {
            if revoked.is_none_or(|(by, ..)| p < by) {
                revoked = Some((p, first, v));
            }
        }
        if !repeated {
            distinct += 1;
        }
        if !proposals.contains(&Some(v)) && invalid.is_none_or(|(by, _)| p < by) {
            invalid = Some((p, v));
        }
    }

    // Irrevocability: no process decides two different values.
    if let Some((by, first, second)) = revoked {
        return Err(TaskViolation::Revoked { by, first, second });
    }

    // Termination. From here on each process decides at most one value, so
    // `distinct` counts the decided values and `invalid` names its value.
    if require_termination {
        for p in run.pattern().correct() {
            let decides = || {
                outputs
                    .iter()
                    .any(|(_, q, o)| *q == p && decided(o).is_some())
            };
            if proposals[p.index()].is_some() && !decides() {
                return Err(TaskViolation::Termination(p));
            }
        }
    }

    // Agreement.
    if distinct > k {
        return Err(TaskViolation::Agreement {
            decided: run.decided_values(),
            k,
        });
    }

    // Validity.
    match invalid {
        Some((by, value)) => Err(TaskViolation::Validity { value, by }),
        None => Ok(()),
    }
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
    use proptest::prelude::*;
    use upsilon_sim::{algo, FailurePattern, SimBuilder};

    fn run_with_decisions(decisions: Vec<Option<u64>>) -> Run<()> {
        let n = decisions.len();
        SimBuilder::<()>::new(FailurePattern::failure_free(n))
            .spawn_all(|pid| {
                let d = decisions[pid.index()];
                algo(move |mut ctx| async move {
                    if let Some(v) = d {
                        ctx.decide(v).await;
                    }
                })
            })
            .run()
            .run
    }

    /// The allocating formulation `check_k_set` replaced, kept as the
    /// reference of the differential proptest below.
    fn reference_check_k_set<D: FdValue>(
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
                algo(move |mut ctx| async move {
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

    /// One differential case: a system size, an output script of
    /// (process index, output) pairs, per-process crash times, proposals
    /// and the agreement bound.
    #[derive(Debug)]
    struct Case {
        n_plus_1: usize,
        script: Vec<(usize, Output)>,
        crashes: Vec<Option<u64>>,
        proposals: Vec<Option<u64>>,
        k: usize,
    }

    /// The run that grants `script`'s processes in order, each producing
    /// its next scripted output, under a pattern that crashes process `i`
    /// at `crashes[i]`; a crash cuts the rest of its process's script.
    fn scripted_run(
        Case {
            n_plus_1,
            script,
            crashes,
            ..
        }: &Case,
    ) -> Run<()> {
        let mut pattern = FailurePattern::builder(*n_plus_1);
        for (i, c) in crashes.iter().enumerate() {
            if let Some(t) = c {
                pattern = pattern.crash(ProcessId(i), upsilon_sim::Time(*t));
            }
        }
        let schedule = script.iter().map(|&(i, _)| ProcessId(i)).collect();
        SimBuilder::<()>::new(pattern.build())
            .adversary(upsilon_sim::Scripted::new(schedule))
            .spawn_all(|pid| {
                let mine: Vec<Output> = script
                    .iter()
                    .filter(|&&(i, _)| i == pid.index())
                    .map(|&(_, o)| o)
                    .collect();
                algo(move |mut ctx| async move {
                    for o in mine {
                        ctx.output(o).await;
                    }
                })
            })
            .run()
            .run
    }

    /// A system size `n + 1 ≤ 5`, an output script mixing `Decide` with
    /// other outputs, crash times (at least one process stays correct),
    /// proposals and a bound `k` from 0 to `n + 2`.
    fn any_case() -> impl Strategy<Value = Case> {
        let slots = || proptest::collection::vec(proptest::option::of(0u64..16), 5);
        (
            1usize..=5,
            proptest::collection::vec((0usize..5, 0u8..6, 0u64..4), 0..14),
            slots(),
            slots(),
            0usize..5,
            0usize..7,
        )
            .prop_map(|(n_plus_1, raw, mut crashes, mut proposals, keep, k)| {
                let script = raw
                    .into_iter()
                    .map(|(i, kind, v)| {
                        let out = match kind {
                            0..=3 => Output::Decide(v),
                            4 => Output::Value(v),
                            _ => Output::Leader(ProcessId(v as usize % n_plus_1)),
                        };
                        (i % n_plus_1, out)
                    })
                    .collect();
                crashes.truncate(n_plus_1);
                crashes[keep % n_plus_1] = None;
                proposals.truncate(n_plus_1);
                for v in proposals.iter_mut().flatten() {
                    *v %= 4;
                }
                Case {
                    n_plus_1,
                    script,
                    crashes,
                    proposals,
                    k: k % (n_plus_1 + 2),
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

        /// The allocation-free check returns exactly the reference's
        /// `Result`, message included, with and without Termination.
        #[test]
        fn check_k_set_matches_the_reference(case in any_case()) {
            let run = scripted_run(&case);
            let Case { k, proposals, .. } = &case;
            for require_termination in [false, true] {
                let got = check_k_set(&run, *k, proposals, require_termination);
                let want = reference_check_k_set(&run, *k, proposals, require_termination);
                prop_assert_eq!(
                    got.as_ref().map_err(ToString::to_string),
                    want.as_ref().map_err(ToString::to_string)
                );
                prop_assert_eq!(got, want);
            }
        }
    }
}
