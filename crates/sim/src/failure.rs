//! Failure patterns and environments (§3.2 of the paper).
//!
//! A failure pattern `F` maps each time `t` to the set of processes crashed
//! by `t`, with `F(t) ⊆ F(t+1)` (crashed processes do not recover). Since a
//! crash-stop pattern is fully described by each process's crash time, we
//! store exactly that.
//!
//! An *environment* is a set of failure patterns; `E_f` contains every
//! pattern with at most `f` faulty processes. The default environment of the
//! paper has at least one correct process (`f = n`, the wait-free case).

use crate::process::{ProcessId, ProcessSet};
use crate::time::Time;
use rand::seq::SliceRandom;
use rand::Rng;
use std::fmt;

/// A crash-stop failure pattern `F` for a system of `n + 1` processes.
///
/// ```
/// use upsilon_sim::{FailurePattern, ProcessId, Time};
/// let f = FailurePattern::builder(3).crash(ProcessId(1), Time(10)).build();
/// assert!(f.is_faulty(ProcessId(1)));
/// assert!(!f.is_crashed_at(ProcessId(1), Time(9)));
/// assert!(f.is_crashed_at(ProcessId(1), Time(10)));
/// assert_eq!(f.correct().len(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct FailurePattern {
    n_plus_1: usize,
    crash_at: Vec<Option<Time>>,
}

impl FailurePattern {
    /// The failure-free pattern for `n_plus_1` processes.
    pub fn failure_free(n_plus_1: usize) -> Self {
        assert!((1..=ProcessSet::MAX_PROCESSES).contains(&n_plus_1));
        FailurePattern {
            n_plus_1,
            crash_at: vec![None; n_plus_1],
        }
    }

    /// Starts building a pattern with explicit crash times.
    pub fn builder(n_plus_1: usize) -> FailurePatternBuilder {
        FailurePatternBuilder {
            pattern: Self::failure_free(n_plus_1),
        }
    }

    /// Pattern where exactly the processes in `faulty` crash, all at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `faulty` contains every process (the paper's environments
    /// always keep at least one process correct).
    pub fn crash_all_at(n_plus_1: usize, faulty: ProcessSet, t: Time) -> Self {
        let mut b = Self::builder(n_plus_1);
        for p in faulty {
            b = b.crash(p, t);
        }
        b.build()
    }

    /// Number of processes `n + 1` in the system.
    pub fn n_plus_1(&self) -> usize {
        self.n_plus_1
    }

    /// `n` (the maximum number of crash failures in the wait-free case).
    pub fn n(&self) -> usize {
        self.n_plus_1 - 1
    }

    /// The crash time of `p`, if `p` is faulty.
    pub fn crash_time(&self, p: ProcessId) -> Option<Time> {
        self.crash_at[p.index()]
    }

    /// Records a crash of `p` at `t` in an already-built pattern — the
    /// in-place equivalent of what a fresh replay token's pattern would
    /// carry. Used by [`Session::crash`](crate::Session::crash); the
    /// ≥ 1-correct invariant is the caller's obligation there, exactly as it
    /// is the explorer's under the `max_faults ≤ n` bound.
    pub(crate) fn set_crash_at(&mut self, p: ProcessId, t: Time) {
        debug_assert!(
            self.crash_at[p.index()].is_none(),
            "process crashes at most once"
        );
        self.crash_at[p.index()] = Some(t);
    }

    /// Sets or clears the crash of `p` — the rewind path of
    /// [`Session::rewind`](crate::Session::rewind).
    pub(crate) fn restore_crash_time(&mut self, p: ProcessId, t: Option<Time>) {
        self.crash_at[p.index()] = t;
    }

    /// `F(t)`: the set of processes crashed by time `t`.
    pub fn crashed_by(&self, t: Time) -> ProcessSet {
        self.crash_at
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_some_and(|ct| ct <= t))
            .map(|(i, _)| ProcessId(i))
            .collect()
    }

    /// Whether `p ∈ F(t)`.
    pub fn is_crashed_at(&self, p: ProcessId, t: Time) -> bool {
        self.crash_at[p.index()].is_some_and(|ct| ct <= t)
    }

    /// `faulty(F) = ∪_t F(t)`.
    pub fn faulty(&self) -> ProcessSet {
        self.crash_at
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_some())
            .map(|(i, _)| ProcessId(i))
            .collect()
    }

    /// `correct(F) = Π − faulty(F)`.
    pub fn correct(&self) -> ProcessSet {
        self.faulty().complement(self.n_plus_1)
    }

    /// Whether `p` is faulty in `F`.
    pub fn is_faulty(&self, p: ProcessId) -> bool {
        self.crash_at[p.index()].is_some()
    }

    /// Whether `p` is correct in `F`.
    pub fn is_correct(&self, p: ProcessId) -> bool {
        !self.is_faulty(p)
    }

    /// The time by which every faulty process has crashed (`Time::ZERO` when
    /// failure-free). After this time the pattern is "settled": `F(t)` equals
    /// `faulty(F)` forever.
    pub fn settled_at(&self) -> Time {
        self.crash_at
            .iter()
            .flatten()
            .copied()
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// Whether the pattern belongs to environment `E_f` (at most `f`
    /// faulty processes).
    pub fn in_environment(&self, f: usize) -> bool {
        self.faulty().len() <= f
    }
}

impl fmt::Display for FailurePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let faulty = self.faulty();
        if faulty.is_empty() {
            return write!(f, "failure-free({} procs)", self.n_plus_1);
        }
        write!(f, "crashes[")?;
        for (i, p) in faulty.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(
                f,
                "{p}@{}",
                self.crash_at[p.index()]
                    .expect("process reported faulty must have a crash time")
                    .value()
            )?;
        }
        write!(f, "]")
    }
}

/// Builder for [`FailurePattern`]; see [`FailurePattern::builder`].
#[derive(Clone, Debug)]
pub struct FailurePatternBuilder {
    pattern: FailurePattern,
}

impl FailurePatternBuilder {
    /// Marks `p` as crashing at time `t`.
    pub fn crash(mut self, p: ProcessId, t: Time) -> Self {
        self.pattern.crash_at[p.index()] = Some(t);
        self
    }

    /// Finalizes the pattern.
    ///
    /// # Panics
    ///
    /// Panics if every process is faulty: the paper's environments always
    /// contain at least one correct process (§3.2).
    pub fn build(self) -> FailurePattern {
        assert!(
            !self.pattern.correct().is_empty(),
            "at least one process must be correct in any environment"
        );
        self.pattern
    }
}

/// The environment `E_f`: all failure patterns over `n + 1` processes in
/// which at most `f` processes crash (§5.3).
///
/// Provides exhaustive enumeration (for small systems) and seeded sampling
/// of patterns, with crash times drawn from a caller-supplied horizon.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Environment {
    n_plus_1: usize,
    f: usize,
}

impl Environment {
    /// Creates `E_f` for a system of `n_plus_1` processes.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ f ≤ n` (the paper requires at least one correct
    /// process).
    pub fn new(n_plus_1: usize, f: usize) -> Self {
        assert!(n_plus_1 >= 1);
        assert!(
            f < n_plus_1,
            "E_f requires f <= n so at least one process is correct"
        );
        Environment { n_plus_1, f }
    }

    /// The wait-free environment (`f = n`), the paper's default.
    pub fn wait_free(n_plus_1: usize) -> Self {
        Self::new(n_plus_1, n_plus_1 - 1)
    }

    /// Number of processes in the system.
    pub fn n_plus_1(&self) -> usize {
        self.n_plus_1
    }

    /// The resilience bound `f`.
    pub fn f(&self) -> usize {
        self.f
    }

    /// Enumerates every faulty *set* allowed by the environment (including
    /// the empty set), for exhaustive testing on small systems.
    pub fn all_faulty_sets(&self) -> Vec<ProcessSet> {
        assert!(
            self.n_plus_1 <= 16,
            "exhaustive enumeration limited to 16 processes"
        );
        (0u64..(1u64 << self.n_plus_1))
            .map(ProcessSet::from_bits)
            .filter(|s| s.len() <= self.f)
            .collect()
    }

    /// Enumerates patterns with every allowed faulty set, crashing each
    /// faulty process at a fixed time `t`.
    pub fn all_patterns_crashing_at(&self, t: Time) -> Vec<FailurePattern> {
        self.all_faulty_sets()
            .into_iter()
            .map(|s| FailurePattern::crash_all_at(self.n_plus_1, s, t))
            .collect()
    }

    /// Samples a pattern: a uniformly chosen number of faults in `0..=f`,
    /// uniformly chosen victims, crash times uniform in `0..horizon`.
    pub fn sample<R: Rng>(&self, rng: &mut R, horizon: u64) -> FailurePattern {
        let k = rng.gen_range(0..=self.f);
        let mut ids: Vec<usize> = (0..self.n_plus_1).collect();
        ids.shuffle(rng);
        let mut b = FailurePattern::builder(self.n_plus_1);
        for &i in ids.iter().take(k) {
            b = b.crash(ProcessId(i), Time(rng.gen_range(0..horizon.max(1))));
        }
        b.build()
    }
}

impl fmt::Display for Environment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E_{}({} procs)", self.f, self.n_plus_1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn failure_free_pattern() {
        let f = FailurePattern::failure_free(4);
        assert_eq!(f.correct(), ProcessSet::all(4));
        assert!(f.faulty().is_empty());
        assert_eq!(f.settled_at(), Time::ZERO);
        assert!(f.in_environment(0));
    }

    #[test]
    fn crash_semantics_are_inclusive_at_crash_time() {
        let f = FailurePattern::builder(3)
            .crash(ProcessId(0), Time(5))
            .build();
        assert!(!f.is_crashed_at(ProcessId(0), Time(4)));
        assert!(f.is_crashed_at(ProcessId(0), Time(5)));
        assert!(f.is_crashed_at(ProcessId(0), Time(100)));
        assert_eq!(f.crashed_by(Time(4)), ProcessSet::EMPTY);
        assert_eq!(f.crashed_by(Time(5)), ProcessSet::singleton(ProcessId(0)));
    }

    #[test]
    fn crashed_by_is_monotone() {
        let f = FailurePattern::builder(4)
            .crash(ProcessId(1), Time(3))
            .crash(ProcessId(2), Time(7))
            .build();
        let mut prev = ProcessSet::EMPTY;
        for t in 0..10 {
            let cur = f.crashed_by(Time(t));
            assert!(prev.is_subset(cur), "F(t) ⊆ F(t+1) must hold");
            prev = cur;
        }
        assert_eq!(f.settled_at(), Time(7));
    }

    #[test]
    #[should_panic(expected = "at least one process must be correct")]
    fn all_faulty_is_rejected() {
        let _ = FailurePattern::builder(2)
            .crash(ProcessId(0), Time(0))
            .crash(ProcessId(1), Time(0))
            .build();
    }

    #[test]
    fn environment_enumeration_counts() {
        // n+1 = 4, f = 2: C(4,0)+C(4,1)+C(4,2) = 1+4+6 = 11 faulty sets.
        let env = Environment::new(4, 2);
        assert_eq!(env.all_faulty_sets().len(), 11);
        let pats = env.all_patterns_crashing_at(Time(3));
        assert_eq!(pats.len(), 11);
        assert!(pats.iter().all(|p| p.in_environment(2)));
    }

    #[test]
    fn wait_free_environment_allows_n_faults() {
        let env = Environment::wait_free(3);
        assert_eq!(env.f(), 2);
        // C(3,0)+C(3,1)+C(3,2) = 1+3+3 = 7.
        assert_eq!(env.all_faulty_sets().len(), 7);
    }

    #[test]
    fn sampling_respects_environment() {
        let env = Environment::new(5, 3);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let p = env.sample(&mut rng, 50);
            assert!(p.in_environment(3));
            assert!(!p.correct().is_empty());
            assert!(p.settled_at() < Time(50));
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let env = Environment::new(5, 3);
        let a: Vec<_> = (0..20)
            .map(|_| env.sample(&mut StdRng::seed_from_u64(9), 50))
            .collect();
        let b: Vec<_> = (0..20)
            .map(|_| env.sample(&mut StdRng::seed_from_u64(9), 50))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn display_formats() {
        let f = FailurePattern::builder(3)
            .crash(ProcessId(2), Time(9))
            .build();
        assert_eq!(f.to_string(), "crashes[p3@9]");
        assert_eq!(
            FailurePattern::failure_free(2).to_string(),
            "failure-free(2 procs)"
        );
        assert_eq!(Environment::new(4, 2).to_string(), "E_2(4 procs)");
    }
}
