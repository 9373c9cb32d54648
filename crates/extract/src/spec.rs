//! Failure-detector faithfulness as a run-level specification.
//!
//! A Υ^f history is *legal* for a failure pattern `F` when its stable value
//! `U` satisfies §4's conditions — non-empty, of size `≥ n + 1 − f`, and
//! **not equal to `correct(F)`**. The adversary game of
//! [`crate::adversary`] pins the history to `U = {p_1, …, p_n}`, which is
//! legal in the failure-free pattern it plays in; [`UpsilonFaithfulSpec`]
//! checks that legality *per explored run*, so a systematic explorer that
//! also enumerates crash scenarios discovers the patterns (crash
//! `p_{n+1}`) in which the pinned history stops being a Υ history at all.

use upsilon_analysis::RunSpec;
use upsilon_fd::upsilon_stable_legal;
use upsilon_sim::{ProcessSet, Run, Time};

/// Checks that every failure-detector value sampled at or after
/// `stable_from` is a legal stable Υ^f value for the run's own failure
/// pattern.
///
/// Samples before `stable_from` are unconstrained (Υ may output anything
/// during its unstable prefix). With `stable_from = Time::ZERO` this is the
/// faithfulness of a constant history such as the adversary game's
/// [`pinned_history`](crate::adversary::pinned_history).
#[derive(Clone, Copy, Debug)]
pub struct UpsilonFaithfulSpec {
    /// The resilience parameter `f` of Υ^f.
    pub f: usize,
    /// The time from which the history claims to be stable.
    pub stable_from: Time,
}

impl UpsilonFaithfulSpec {
    /// A spec for a history claiming stability from the start (constant
    /// histories, e.g. the Theorem 1/5 pinned `U`).
    pub fn constant(f: usize) -> Self {
        UpsilonFaithfulSpec {
            f,
            stable_from: Time::ZERO,
        }
    }
}

impl RunSpec<ProcessSet> for UpsilonFaithfulSpec {
    fn name(&self) -> &str {
        "upsilon-faithful"
    }

    fn check(&self, run: &Run<ProcessSet>) -> Result<(), String> {
        for (t, p, set) in run.fd_samples() {
            if *t >= self.stable_from && !upsilon_stable_legal(run.pattern(), self.f, *set) {
                return Err(format!(
                    "unfaithful Υ^{} history: {p} sampled {set} at {t}, illegal under {} \
                     (correct = {})",
                    self.f,
                    run.pattern(),
                    run.pattern().correct(),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::pinned_history;
    use upsilon_sim::{algo, DummyOracle, FailurePattern, ProcessId, SimBuilder};

    fn query_once_run(pattern: FailurePattern, u: ProcessSet) -> Run<ProcessSet> {
        SimBuilder::<ProcessSet>::new(pattern)
            .oracle(DummyOracle::new(u))
            .spawn_all(|_| {
                algo(move |mut ctx| async move {
                    ctx.query_fd().await;
                })
            })
            .run()
            .run
    }

    #[test]
    fn pinned_history_is_faithful_failure_free() {
        let u = pinned_history(3);
        let run = query_once_run(FailurePattern::failure_free(3), u);
        assert_eq!(UpsilonFaithfulSpec::constant(2).check(&run), Ok(()));
    }

    #[test]
    fn pinned_history_is_unfaithful_when_last_process_crashes() {
        // Crash p_{n+1} *after* the queries: correct(F) = U, so the pinned
        // constant history violates Υ's "U ≠ correct(F)".
        let u = pinned_history(3);
        let pattern = FailurePattern::builder(3)
            .crash(ProcessId(2), Time(100))
            .build();
        let run = query_once_run(pattern, u);
        let err = UpsilonFaithfulSpec::constant(2).check(&run).unwrap_err();
        assert!(err.contains("unfaithful"), "{err}");
    }
}
