//! The anti-Ω failure detector (Zielinski \[22,23\], discussed in the paper's
//! related work): outputs a single process identifier such that some correct
//! process is eventually never output.
//!
//! Anti-Ω is *unstable* — its output need never converge — and strictly
//! weaker than Υ; it marks the outer edge of the paper's minimality result
//! (Υ is minimal among *stable* detectors; anti-Ω shows the stability
//! restriction matters). The repository implements the oracle and its spec
//! checker for the failure-detector strength table; Zielinski's CHT-style
//! sufficiency algorithm is out of scope (see DESIGN.md §6).

use crate::noise::{noise_pid, noise_rng};
use rand::Rng;
use upsilon_sim::{FailurePattern, Oracle, ProcessId, ProcessSet, Time};

/// An anti-Ω oracle: after `quiesce_at` it never outputs the designated
/// "protected" correct process; before that, and for all other choices, the
/// output keeps fluctuating forever (no stabilization — anti-Ω's defining
/// feature).
#[derive(Clone, Debug)]
pub struct AntiOmegaOracle {
    n_plus_1: usize,
    protected: ProcessId,
    quiesce_at: Time,
    seed: u64,
}

impl AntiOmegaOracle {
    /// An anti-Ω history for `pattern`: eventually the smallest correct
    /// process is never output again.
    pub fn new(pattern: &FailurePattern, quiesce_at: Time, seed: u64) -> Self {
        AntiOmegaOracle {
            n_plus_1: pattern.n_plus_1(),
            protected: pattern.correct().min().expect("some process is correct"),
            quiesce_at,
            seed,
        }
    }

    /// The correct process that is eventually never output.
    pub fn protected(&self) -> ProcessId {
        self.protected
    }

    /// The time after which the protected process is never output.
    pub fn quiesce_at(&self) -> Time {
        self.quiesce_at
    }
}

impl Oracle<ProcessId> for AntiOmegaOracle {
    fn output(&mut self, p: ProcessId, t: Time) -> ProcessId {
        if t < self.quiesce_at {
            return noise_pid(self.seed, p, t, self.n_plus_1);
        }
        // Forever fluctuating, but never the protected process: pick among
        // the other n processes.
        let mut rng = noise_rng(self.seed ^ 0xA11A, p, t);
        loop {
            let q = ProcessId(rng.gen_range(0..self.n_plus_1));
            if q != self.protected {
                return q;
            }
        }
    }

    fn describe(&self) -> String {
        format!(
            "anti-Omega(protects={}, at={})",
            self.protected, self.quiesce_at
        )
    }
}

/// Finite-run surrogate of the anti-Ω specification: some correct process
/// does not appear among the sampled outputs in the second half of the run
/// (the infinite spec says "eventually never output"; on a finite prefix we
/// demand the avoidance be visible for the later half of the observations
/// in `(time, process)` order, whatever the order of the list).
pub fn check_anti_omega(
    pattern: &FailurePattern,
    samples: &[(Time, ProcessId, ProcessId)],
) -> Result<ProcessId, String> {
    if samples.is_empty() {
        return Err("no samples to check".to_string());
    }
    let mut by_time: Vec<_> = samples.iter().collect();
    by_time.sort_by_key(|(t, p, _)| (*t, *p));
    let tail = &by_time[by_time.len() / 2..];
    let seen_in_tail: ProcessSet = tail.iter().map(|(_, _, out)| *out).collect();
    let witness = pattern.correct().difference(seen_in_tail).min();
    witness.ok_or_else(|| {
        format!(
            "every correct process ({}) is still being output in the trailing half of the \
             run — no eventually-avoided correct process is visible",
            pattern.correct()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_crash() -> FailurePattern {
        FailurePattern::builder(3)
            .crash(ProcessId(0), Time(4))
            .build()
    }

    #[test]
    fn protected_process_is_correct_and_eventually_avoided() {
        let pat = one_crash();
        let mut o = AntiOmegaOracle::new(&pat, Time(50), 3);
        assert!(pat.is_correct(o.protected()));
        for t in 50..500u64 {
            for i in 0..3 {
                assert_ne!(o.output(ProcessId(i), Time(t)), o.protected());
            }
        }
    }

    #[test]
    fn output_keeps_fluctuating_after_quiescence() {
        let pat = one_crash();
        let mut o = AntiOmegaOracle::new(&pat, Time(0), 3);
        let distinct: std::collections::BTreeSet<ProcessId> = (0..200u64)
            .map(|t| o.output(ProcessId(1), Time(t)))
            .collect();
        assert!(
            distinct.len() >= 2,
            "anti-Ω is unstable: it never converges"
        );
    }

    #[test]
    fn checker_accepts_a_valid_history() {
        let pat = one_crash();
        let mut o = AntiOmegaOracle::new(&pat, Time(20), 3);
        let samples: Vec<(Time, ProcessId, ProcessId)> = (0..300u64)
            .map(|t| {
                (
                    Time(t),
                    ProcessId((t % 3) as usize),
                    o.output(ProcessId((t % 3) as usize), Time(t)),
                )
            })
            .collect();
        let witness = check_anti_omega(&pat, &samples).expect("valid anti-Ω history");
        assert_eq!(witness, o.protected());
    }

    #[test]
    fn checker_rejects_a_history_covering_all_correct_processes() {
        let pat = one_crash();
        // A "round-robin over correct" output violates anti-Ω.
        let samples: Vec<(Time, ProcessId, ProcessId)> = (0..100u64)
            .map(|t| (Time(t), ProcessId(1), ProcessId(1 + (t % 2) as usize)))
            .collect();
        assert!(check_anti_omega(&pat, &samples).is_err());
    }

    #[test]
    fn checker_rejects_empty_samples() {
        assert!(check_anti_omega(&one_crash(), &[]).is_err());
    }
}
