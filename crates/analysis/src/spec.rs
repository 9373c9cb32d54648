//! A uniform interface for run-level correctness specifications.
//!
//! The systematic explorer (`upsilon-check`) evaluates every run it
//! enumerates against a set of *specs*: trace predicates that either accept
//! the run or describe a violation. [`RunSpec`] is that interface; the §3.3
//! run-condition validator is adapted here, and protocol crates
//! (`upsilon-agreement`, `upsilon-extract`) provide adapters for their own
//! task and failure-detector specifications.
//!
//! Exploration with partial-order reduction only visits one representative
//! of each class of runs equivalent up to commuting independent steps, so a
//! spec must be **trace-closed**: its verdict may not depend on the relative
//! order of steps the conflict relation declares independent. Every spec in
//! this repository is a function of per-process projections plus the failure
//! pattern, which is closed by construction.

use upsilon_sim::{FdValue, Run};

use crate::run_conditions::check_run_for;

/// A checkable correctness property of a single [`Run`].
///
/// Implementations must be cheap enough to evaluate on every explored node
/// (runs are depth-bounded and small) and must tolerate *truncated* runs:
/// exploration stops at a depth budget, so liveness-flavoured clauses
/// (termination) should only fire on runs that actually completed — see
/// [`StopReason`](upsilon_sim::StopReason).
pub trait RunSpec<D: FdValue>: Send + Sync {
    /// A short stable name for reports and counterexample tokens.
    fn name(&self) -> &str;

    /// Checks the run.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violation.
    fn check(&self, run: &Run<D>) -> Result<(), String>;
}

/// The §3.3 run-condition validator as a spec: every explored run must be a
/// well-formed run of the model before any protocol property is judged.
#[derive(Clone, Copy, Default, Debug)]
pub struct RunConditionsSpec;

impl<D: FdValue> RunSpec<D> for RunConditionsSpec {
    fn name(&self) -> &str {
        "run-conditions"
    }

    fn check(&self, run: &Run<D>) -> Result<(), String> {
        check_run_for(run).map(|_| ()).map_err(|v| v.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upsilon_sim::{algo, FailurePattern, SimBuilder};

    #[test]
    fn run_conditions_spec_accepts_well_formed_runs() {
        let outcome = SimBuilder::<()>::new(FailurePattern::failure_free(2))
            .spawn_all(|pid| {
                algo(move |mut ctx| async move {
                    ctx.decide(pid.index() as u64).await;
                })
            })
            .run();
        let spec = RunConditionsSpec;
        assert_eq!(RunSpec::<()>::name(&spec), "run-conditions");
        assert_eq!(spec.check(&outcome.run), Ok(()));
    }
}
