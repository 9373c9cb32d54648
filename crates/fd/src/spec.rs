//! Failure-detector specification checkers.
//!
//! A checker consumes a finite observation of a history — samples
//! `(t, p, H(p, t))`, either from an oracle's query steps or from the
//! emulated `D-output` variables of a reduction algorithm (§3.5) — together
//! with the run's failure pattern, and decides whether the observation is
//! consistent with a detector's specification.
//!
//! Eventual properties ("eventually the same value is permanently output at
//! all correct processes") are checked on finite prefixes as follows: every
//! correct process must have at least one sample; each correct process's
//! samples must *end* in a common value `U`; the report records when the
//! common suffix starts and how many post-stabilization samples support it,
//! so callers can demand arbitrarily strong evidence. "End" is by time, not
//! by list position: a verdict does not depend on the order of the list.

use std::fmt;
use upsilon_sim::{FailurePattern, FdValue, ProcessId, ProcessSet, Time};

/// Why an observation violates a specification.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SpecViolation {
    /// A correct process produced no samples at all.
    NoSamples(ProcessId),
    /// A value outside the detector's range was observed.
    RangeViolation(String),
    /// Correct processes do not converge to a common final value.
    NotStable(String),
    /// The stable value itself is illegal for the failure pattern.
    IllegalStableValue(String),
    /// Not enough post-stabilization evidence was gathered.
    InsufficientEvidence(String),
}

impl fmt::Display for SpecViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecViolation::NoSamples(p) => write!(f, "correct process {p} has no samples"),
            SpecViolation::RangeViolation(s) => write!(f, "range violation: {s}"),
            SpecViolation::NotStable(s) => write!(f, "output does not stabilize: {s}"),
            SpecViolation::IllegalStableValue(s) => write!(f, "illegal stable value: {s}"),
            SpecViolation::InsufficientEvidence(s) => write!(f, "insufficient evidence: {s}"),
        }
    }
}

impl std::error::Error for SpecViolation {}

/// Evidence that an eventual property held in a finite observation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StabilityReport<D> {
    /// The common stable value.
    pub value: D,
    /// The earliest time from which every correct-process sample equals
    /// `value`.
    pub stable_from: Time,
    /// The smallest number of at-or-after-`stable_from` samples over the
    /// correct processes — the strength of the evidence.
    pub tail_samples_min: usize,
}

/// Converts *publish-on-change* outputs of a reduction algorithm into
/// held-variable samples: the emulated `D-output` variable of §3.5 keeps
/// its value between publications, so each process's last published value
/// is extended with a synthetic sample at `horizon` (the end of the
/// observed run). Checkers can then treat the outputs like ordinary
/// query-step samples.
pub fn held_variable_samples<D: FdValue>(
    n_plus_1: usize,
    outputs: &[(Time, ProcessId, D)],
    horizon: Time,
) -> Vec<(Time, ProcessId, D)> {
    let mut extended = outputs.to_vec();
    let mut last: Vec<Option<D>> = vec![None; n_plus_1];
    for (_, p, v) in outputs {
        last[p.index()] = Some(v.clone());
    }
    for (i, v) in last.into_iter().enumerate() {
        if let Some(v) = v {
            extended.push((horizon, ProcessId(i), v));
        }
    }
    extended
}

/// Each process's latest sample by time (of equal times, the later in the
/// list), indexed by process: the final values of a finite observation,
/// whatever the order of the list. Samples naming a process outside the
/// `n_plus_1` are ignored.
pub(crate) fn latest_samples<D>(
    n_plus_1: usize,
    samples: &[(Time, ProcessId, D)],
) -> Vec<Option<(Time, &D)>> {
    let mut latest = vec![None; n_plus_1];
    for (t, p, v) in samples {
        if let Some(slot) = latest.get_mut(p.index()) {
            if slot.is_none_or(|(at, _)| at <= *t) {
                *slot = Some((*t, v));
            }
        }
    }
    latest
}

/// Checks the *stable* kernel shared by Υ, Υ^f, Ω, Ω_k, ◇P, …: eventually
/// the same value is permanently output at every correct process (§6.2).
///
/// # Errors
///
/// Returns a [`SpecViolation`] when a correct process has no samples or the
/// correct processes' final values disagree.
pub fn check_eventually_stable<D: FdValue>(
    pattern: &FailurePattern,
    samples: &[(Time, ProcessId, D)],
) -> Result<StabilityReport<D>, SpecViolation> {
    let correct = pattern.correct();
    let latest = latest_samples(pattern.n_plus_1(), samples);
    let mut final_value: Option<&D> = None;
    for p in correct {
        let (_, last) = latest[p.index()].ok_or(SpecViolation::NoSamples(p))?;
        match final_value {
            None => final_value = Some(last),
            Some(v) if v == last => {}
            Some(v) => {
                return Err(SpecViolation::NotStable(format!(
                    "final values disagree across correct processes: {v:?} vs {last:?} at {p}"
                )))
            }
        }
    }
    let value = final_value
        .expect("at least one correct process exists")
        .clone();

    // stable_from = just after the last sample at a correct process that
    // differs from the common final value.
    let stable_from = samples
        .iter()
        .filter(|(_, q, v)| correct.contains(*q) && *v != value)
        .map(|(t, _, _)| t.next())
        .max()
        .unwrap_or(Time::ZERO);

    let mut tail = vec![0usize; pattern.n_plus_1()];
    for (_, q, _) in samples.iter().filter(|(t, _, _)| *t >= stable_from) {
        if let Some(n) = tail.get_mut(q.index()) {
            *n += 1;
        }
    }
    let tail_samples_min = correct.iter().map(|p| tail[p.index()]).min().unwrap_or(0);

    Ok(StabilityReport {
        value,
        stable_from,
        tail_samples_min,
    })
}

/// Checks an observation against the Υ^f specification (§5.3; Υ is
/// `f = n`): range `{U : |U| ≥ n + 1 − f, U ≠ ∅}`, eventual common stable
/// value `U`, and `U ≠ correct(F)`.
///
/// `min_evidence` post-stabilization samples are required per correct
/// process.
///
/// # Errors
///
/// Returns the first [`SpecViolation`] found.
pub fn check_upsilon_f(
    pattern: &FailurePattern,
    f: usize,
    samples: &[(Time, ProcessId, ProcessSet)],
    min_evidence: usize,
) -> Result<StabilityReport<ProcessSet>, SpecViolation> {
    let n_plus_1 = pattern.n_plus_1();
    let min_size = n_plus_1 - f;
    for (t, p, v) in samples {
        if v.is_empty() || v.len() < min_size || !v.is_subset(ProcessSet::all(n_plus_1)) {
            return Err(SpecViolation::RangeViolation(format!(
                "{p} observed {v} at {t}, outside R_Upsilon^{f} (size ≥ {min_size})"
            )));
        }
    }
    let report = check_eventually_stable(pattern, samples)?;
    if report.value == pattern.correct() {
        return Err(SpecViolation::IllegalStableValue(format!(
            "stable set {} equals correct(F)",
            report.value
        )));
    }
    if report.tail_samples_min < min_evidence {
        return Err(SpecViolation::InsufficientEvidence(format!(
            "only {} post-stabilization samples at some correct process (need {min_evidence})",
            report.tail_samples_min
        )));
    }
    Ok(report)
}

/// Checks an observation against the wait-free Υ specification (§4).
///
/// ```
/// use upsilon_fd::{check_upsilon, UpsilonChoice, UpsilonOracle};
/// use upsilon_sim::{FailurePattern, Oracle, ProcessId, Time};
///
/// let pattern = FailurePattern::failure_free(2);
/// let mut oracle = UpsilonOracle::wait_free(&pattern, UpsilonChoice::default(), Time(5), 1);
/// let mut samples = Vec::new();
/// for t in 0..30 {
///     for i in 0..2 {
///         samples.push((Time(t), ProcessId(i), oracle.output(ProcessId(i), Time(t))));
///     }
/// }
/// let report = check_upsilon(&pattern, &samples, 3).unwrap();
/// assert_ne!(report.value, pattern.correct());
/// ```
///
/// # Errors
///
/// Returns the first [`SpecViolation`] found.
pub fn check_upsilon(
    pattern: &FailurePattern,
    samples: &[(Time, ProcessId, ProcessSet)],
    min_evidence: usize,
) -> Result<StabilityReport<ProcessSet>, SpecViolation> {
    check_upsilon_f(pattern, pattern.n(), samples, min_evidence)
}

/// Checks an observation against the Ω specification \[3\]: eventually the
/// same *correct* leader is output at all correct processes.
///
/// # Errors
///
/// Returns the first [`SpecViolation`] found.
pub fn check_omega(
    pattern: &FailurePattern,
    samples: &[(Time, ProcessId, ProcessId)],
    min_evidence: usize,
) -> Result<StabilityReport<ProcessId>, SpecViolation> {
    for (t, p, v) in samples {
        if v.index() >= pattern.n_plus_1() {
            return Err(SpecViolation::RangeViolation(format!(
                "{p} observed out-of-range leader {v} at {t}"
            )));
        }
    }
    let report = check_eventually_stable(pattern, samples)?;
    if !pattern.is_correct(report.value) {
        return Err(SpecViolation::IllegalStableValue(format!(
            "stable leader {} is faulty",
            report.value
        )));
    }
    if report.tail_samples_min < min_evidence {
        return Err(SpecViolation::InsufficientEvidence(format!(
            "only {} post-stabilization samples (need {min_evidence})",
            report.tail_samples_min
        )));
    }
    Ok(report)
}

/// Checks an observation against the Ω_k specification \[18\]: sets of size
/// exactly `k`; eventually the same set, containing at least one correct
/// process, at all correct processes.
///
/// # Errors
///
/// Returns the first [`SpecViolation`] found.
pub fn check_omega_k(
    pattern: &FailurePattern,
    k: usize,
    samples: &[(Time, ProcessId, ProcessSet)],
    min_evidence: usize,
) -> Result<StabilityReport<ProcessSet>, SpecViolation> {
    for (t, p, v) in samples {
        if v.len() != k || !v.is_subset(ProcessSet::all(pattern.n_plus_1())) {
            return Err(SpecViolation::RangeViolation(format!(
                "{p} observed {v} at {t}, outside R_Omega_{k}"
            )));
        }
    }
    let report = check_eventually_stable(pattern, samples)?;
    if report.value.intersection(pattern.correct()).is_empty() {
        return Err(SpecViolation::IllegalStableValue(format!(
            "stable set {} contains no correct process",
            report.value
        )));
    }
    if report.tail_samples_min < min_evidence {
        return Err(SpecViolation::InsufficientEvidence(format!(
            "only {} post-stabilization samples (need {min_evidence})",
            report.tail_samples_min
        )));
    }
    Ok(report)
}

/// Checks an observation against the ◇P specification \[4\]: eventually the
/// output is permanently exactly `faulty(F)` at every correct process.
///
/// # Errors
///
/// Returns the first [`SpecViolation`] found.
pub fn check_eventually_perfect(
    pattern: &FailurePattern,
    samples: &[(Time, ProcessId, ProcessSet)],
    min_evidence: usize,
) -> Result<StabilityReport<ProcessSet>, SpecViolation> {
    let report = check_eventually_stable(pattern, samples)?;
    if report.value != pattern.faulty() {
        return Err(SpecViolation::IllegalStableValue(format!(
            "stable suspicion set {} differs from faulty(F) = {}",
            report.value,
            pattern.faulty()
        )));
    }
    if report.tail_samples_min < min_evidence {
        return Err(SpecViolation::InsufficientEvidence(format!(
            "only {} post-stabilization samples (need {min_evidence})",
            report.tail_samples_min
        )));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::omega::{LeaderChoice, OmegaKChoice, OmegaKOracle, OmegaOracle};
    use crate::perfect::EventuallyPerfectOracle;
    use crate::upsilon::{UpsilonChoice, UpsilonOracle};
    use upsilon_sim::Oracle;

    fn one_crash(n_plus_1: usize) -> FailurePattern {
        FailurePattern::builder(n_plus_1)
            .crash(ProcessId(0), Time(6))
            .build()
    }

    /// Samples an oracle densely at every (alive process, time) pair.
    fn sample_oracle<D: FdValue>(
        pattern: &FailurePattern,
        oracle: &mut dyn Oracle<D>,
        horizon: u64,
    ) -> Vec<(Time, ProcessId, D)> {
        let mut out = Vec::new();
        for t in 0..horizon {
            for i in 0..pattern.n_plus_1() {
                let p = ProcessId(i);
                if !pattern.is_crashed_at(p, Time(t)) {
                    out.push((Time(t), p, oracle.output(p, Time(t))));
                }
            }
        }
        out
    }

    #[test]
    fn upsilon_oracle_satisfies_its_spec() {
        for choice in [
            UpsilonChoice::ComplementOfCorrect,
            UpsilonChoice::All,
            UpsilonChoice::FaultyPadded,
            UpsilonChoice::RandomLegal,
        ] {
            let pat = one_crash(4);
            let mut o = UpsilonOracle::wait_free(&pat, choice, Time(60), 5);
            let samples = sample_oracle(&pat, &mut o, 200);
            let report =
                check_upsilon(&pat, &samples, 10).unwrap_or_else(|e| panic!("{choice:?}: {e}"));
            assert_eq!(report.value, o.stable_set());
            assert!(report.stable_from <= Time(60));
        }
    }

    #[test]
    fn upsilon_f_oracle_satisfies_its_spec() {
        let pat = one_crash(5);
        for f in 1..=4usize {
            let mut o = UpsilonOracle::new(&pat, f, UpsilonChoice::default(), Time(40), 9);
            let samples = sample_oracle(&pat, &mut o, 150);
            check_upsilon_f(&pat, f, &samples, 10).unwrap_or_else(|e| panic!("f={f}: {e}"));
        }
    }

    #[test]
    fn upsilon_checker_rejects_correct_set_as_stable_value() {
        let pat = one_crash(3);
        // A fake history that stabilizes on exactly the correct set.
        let bad = pat.correct();
        let samples: Vec<_> = (0..50u64)
            .flat_map(|t| (1..3usize).map(move |i| (Time(t), ProcessId(i), bad)))
            .collect();
        let err = check_upsilon(&pat, &samples, 1).unwrap_err();
        assert!(matches!(err, SpecViolation::IllegalStableValue(_)), "{err}");
    }

    #[test]
    fn upsilon_checker_rejects_empty_set_in_range() {
        let pat = one_crash(3);
        let samples = vec![(Time(0), ProcessId(1), ProcessSet::EMPTY)];
        let err = check_upsilon(&pat, &samples, 0).unwrap_err();
        assert!(matches!(err, SpecViolation::RangeViolation(_)), "{err}");
    }

    #[test]
    fn upsilon_checker_rejects_diverging_processes() {
        let pat = FailurePattern::failure_free(3);
        let mut samples = Vec::new();
        for t in 0..50u64 {
            samples.push((Time(t), ProcessId(0), ProcessSet::singleton(ProcessId(0))));
            samples.push((Time(t), ProcessId(1), ProcessSet::singleton(ProcessId(1))));
            samples.push((Time(t), ProcessId(2), ProcessSet::singleton(ProcessId(0))));
        }
        let err = check_upsilon(&pat, &samples, 1).unwrap_err();
        assert!(matches!(err, SpecViolation::NotStable(_)), "{err}");
    }

    #[test]
    fn upsilon_checker_requires_samples_from_every_correct_process() {
        let pat = FailurePattern::failure_free(3);
        let samples = vec![
            (Time(0), ProcessId(0), ProcessSet::singleton(ProcessId(2))),
            (Time(1), ProcessId(1), ProcessSet::singleton(ProcessId(2))),
        ];
        let err = check_upsilon(&pat, &samples, 0).unwrap_err();
        assert_eq!(err, SpecViolation::NoSamples(ProcessId(2)));
    }

    #[test]
    fn evidence_threshold_is_enforced() {
        let pat = one_crash(3);
        let mut o = UpsilonOracle::wait_free(&pat, UpsilonChoice::default(), Time(90), 5);
        let samples = sample_oracle(&pat, &mut o, 100);
        let err = check_upsilon(&pat, &samples, 1000).unwrap_err();
        assert!(
            matches!(err, SpecViolation::InsufficientEvidence(_)),
            "{err}"
        );
    }

    #[test]
    fn omega_oracle_satisfies_its_spec() {
        let pat = one_crash(4);
        let mut o = OmegaOracle::new(&pat, LeaderChoice::MinCorrect, Time(30), 3);
        let samples = sample_oracle(&pat, &mut o, 120);
        let report = check_omega(&pat, &samples, 10).expect("valid Ω history");
        assert_eq!(report.value, ProcessId(1));
    }

    #[test]
    fn omega_checker_rejects_faulty_stable_leader() {
        let pat = one_crash(3);
        let samples: Vec<_> = (10..60u64)
            .flat_map(|t| (1..3usize).map(move |i| (Time(t), ProcessId(i), ProcessId(0))))
            .collect();
        let err = check_omega(&pat, &samples, 1).unwrap_err();
        assert!(matches!(err, SpecViolation::IllegalStableValue(_)), "{err}");
    }

    #[test]
    fn omega_k_oracle_satisfies_its_spec() {
        let pat = one_crash(5);
        for k in 1..=4usize {
            let mut o = OmegaKOracle::new(&pat, k, OmegaKChoice::default(), Time(25), 7);
            let samples = sample_oracle(&pat, &mut o, 100);
            check_omega_k(&pat, k, &samples, 10).unwrap_or_else(|e| panic!("k={k}: {e}"));
        }
    }

    #[test]
    fn omega_k_checker_rejects_wrong_size() {
        let pat = one_crash(4);
        let samples = vec![(Time(0), ProcessId(1), ProcessSet::all(4))];
        let err = check_omega_k(&pat, 2, &samples, 0).unwrap_err();
        assert!(matches!(err, SpecViolation::RangeViolation(_)), "{err}");
    }

    #[test]
    fn eventually_perfect_oracle_satisfies_its_spec() {
        let pat = one_crash(4);
        let mut o = EventuallyPerfectOracle::new(&pat, Time(40), 3);
        let samples = sample_oracle(&pat, &mut o, 150);
        let report = check_eventually_perfect(&pat, &samples, 10).expect("valid ◇P history");
        assert_eq!(report.value, pat.faulty());
    }

    #[test]
    fn stability_report_locates_the_change_point() {
        let pat = FailurePattern::failure_free(2);
        let u = ProcessSet::singleton(ProcessId(0));
        let noise = ProcessSet::all(2);
        let mut samples = Vec::new();
        for t in 0..10u64 {
            samples.push((Time(t), ProcessId(0), noise));
            samples.push((Time(t), ProcessId(1), noise));
        }
        for t in 10..30u64 {
            samples.push((Time(t), ProcessId(0), u));
            samples.push((Time(t), ProcessId(1), u));
        }
        let report = check_eventually_stable(&pat, &samples).expect("stable");
        assert_eq!(report.value, u);
        assert_eq!(report.stable_from, Time(10));
        assert_eq!(report.tail_samples_min, 20);
    }

    #[test]
    fn violations_display_readably() {
        let v = SpecViolation::NoSamples(ProcessId(2));
        assert!(v.to_string().contains("p3"));
        let v = SpecViolation::RangeViolation("x".into());
        assert!(v.to_string().contains("range"));
    }
}
