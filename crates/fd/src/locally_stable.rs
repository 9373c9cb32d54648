//! *Locally stable* failure detectors (the paper's §6.2, footnote 2):
//! every correct process's output is eventually constant, but different
//! processes may stabilize on **different** values.
//!
//! The paper remarks that its lower-bound proofs "actually work also for
//! 'locally stable' failure detectors"; its *positive* construction
//! (Fig. 3) however genuinely needs global stability — pre-stabilized
//! disagreement keeps the extraction restarting (or, worse, lets a
//! failure-free run sit at output `Π = correct(F)`). This module provides a
//! locally-stable Υ-shaped oracle plus the matching checker, and the
//! boundary is demonstrated by a negative test in `upsilon-extract`: Fig. 3
//! run on this oracle fails the Υ spec in failure-free runs, which is
//! exactly why Theorem 10 is stated for stable detectors.

use crate::noise::noise_set_at_least;
use crate::spec::{latest_samples, SpecViolation};
use upsilon_sim::{FailurePattern, FdValue, Oracle, ProcessId, ProcessSet, Time};

/// A Υ-shaped oracle that is only *locally* stable: after `stabilize_at`,
/// process `p_i` permanently outputs its own personal legal set — chosen so
/// that the sets of different processes disagree whenever the system has at
/// least two processes.
#[derive(Clone, Debug)]
pub struct LocallyStableUpsilonOracle {
    n_plus_1: usize,
    f: usize,
    per_process: Vec<ProcessSet>,
    stabilize_at: Time,
    seed: u64,
}

impl LocallyStableUpsilonOracle {
    /// A locally stable Υ^f history for `pattern`: process `p_i` stabilizes
    /// on `Π − {c_i}` where `c_i` cycles over the correct processes — every
    /// per-process value is a legal Υ^f stable set, but no two adjacent
    /// processes agree (when at least two processes are correct).
    pub fn new(pattern: &FailurePattern, f: usize, stabilize_at: Time, seed: u64) -> Self {
        let n_plus_1 = pattern.n_plus_1();
        assert!((1..=n_plus_1 - 1).contains(&f));
        let correct: Vec<ProcessId> = pattern.correct().iter().collect();
        let per_process = (0..n_plus_1)
            .map(|i| {
                let excluded = correct[i % correct.len()];
                ProcessSet::singleton(excluded).complement(n_plus_1)
            })
            .collect();
        LocallyStableUpsilonOracle {
            n_plus_1,
            f,
            per_process,
            stabilize_at,
            seed,
        }
    }

    /// The value process `p` stabilizes on.
    pub fn stable_at(&self, p: ProcessId) -> ProcessSet {
        self.per_process[p.index()]
    }

    /// Whether at least two processes stabilize on different values.
    pub fn is_genuinely_divergent(&self) -> bool {
        self.per_process.windows(2).any(|w| w[0] != w[1])
    }
}

impl Oracle<ProcessSet> for LocallyStableUpsilonOracle {
    fn output(&mut self, p: ProcessId, t: Time) -> ProcessSet {
        if t >= self.stabilize_at {
            self.per_process[p.index()]
        } else {
            noise_set_at_least(self.seed, p, t, self.n_plus_1, self.n_plus_1 - self.f)
        }
    }

    fn describe(&self) -> String {
        format!(
            "locally-stable-Upsilon^{}(at={})",
            self.f, self.stabilize_at
        )
    }
}

/// Checks the *locally stable* kernel: each correct process's samples end
/// in a constant value (values may differ across processes). Returns the
/// per-process final values: each process's latest sample by time (of
/// equal times, the later in the list).
///
/// The finite surrogate accepts any observation whose per-process sample
/// sequences are non-empty; "eventually constant" holds trivially of finite
/// sequences, so the report is primarily used to *exhibit* divergence.
///
/// # Errors
///
/// Returns [`SpecViolation::NoSamples`] when a correct process has no
/// samples.
pub fn check_locally_stable<D: FdValue>(
    pattern: &FailurePattern,
    samples: &[(Time, ProcessId, D)],
) -> Result<Vec<Option<D>>, SpecViolation> {
    let finals: Vec<Option<D>> = latest_samples(pattern.n_plus_1(), samples)
        .into_iter()
        .map(|last| last.map(|(_, v)| v.clone()))
        .collect();
    for p in pattern.correct() {
        if finals[p.index()].is_none() {
            return Err(SpecViolation::NoSamples(p));
        }
    }
    Ok(finals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::upsilon::upsilon_stable_legal;

    fn pattern() -> FailurePattern {
        FailurePattern::failure_free(3)
    }

    #[test]
    fn per_process_values_are_individually_legal_but_divergent() {
        let o = LocallyStableUpsilonOracle::new(&pattern(), 2, Time(10), 1);
        for i in 0..3 {
            let v = o.stable_at(ProcessId(i));
            assert!(upsilon_stable_legal(&pattern(), 2, v), "p{}: {v}", i + 1);
        }
        assert!(o.is_genuinely_divergent());
    }

    #[test]
    fn output_stabilizes_per_process() {
        let mut o = LocallyStableUpsilonOracle::new(&pattern(), 2, Time(20), 2);
        for t in 20..80u64 {
            for i in 0..3 {
                assert_eq!(o.output(ProcessId(i), Time(t)), o.stable_at(ProcessId(i)));
            }
        }
    }

    #[test]
    fn globally_stable_check_rejects_it() {
        use crate::spec::check_eventually_stable;
        let mut o = LocallyStableUpsilonOracle::new(&pattern(), 2, Time(10), 3);
        let mut samples = Vec::new();
        for t in 0..60u64 {
            for i in 0..3 {
                samples.push((Time(t), ProcessId(i), o.output(ProcessId(i), Time(t))));
            }
        }
        assert!(
            check_eventually_stable(&pattern(), &samples).is_err(),
            "divergent finals must fail the (global) stability kernel"
        );
        let finals = check_locally_stable(&pattern(), &samples).expect("locally stable");
        assert!(finals.iter().all(|f| f.is_some()));
    }

    #[test]
    fn checker_requires_samples() {
        let samples: Vec<(Time, ProcessId, u8)> = vec![(Time(0), ProcessId(0), 1)];
        assert!(check_locally_stable(&pattern(), &samples).is_err());
    }
}
