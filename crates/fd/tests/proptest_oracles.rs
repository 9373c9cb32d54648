//! Property tests: every oracle in the crate satisfies its own
//! specification checker for random patterns, seeds and stabilization
//! times — the two halves (generators and checkers) cross-validate. The
//! eventually-stable checkers are also closed under sampling and
//! reordering: their verdict rests on each process's samples by time, not
//! on how the caller ordered the list.

use proptest::prelude::*;
use std::collections::VecDeque;
use upsilon_fd::{
    check_anti_omega, check_eventually_perfect, check_locally_stable, check_omega, check_omega_k,
    check_upsilon_f, AntiOmegaOracle, EventuallyPerfectOracle, LeaderChoice,
    LocallyStableUpsilonOracle, OmegaKChoice, OmegaKOracle, OmegaOracle, PerfectOracle,
    SpecViolation, UpsilonChoice, UpsilonOracle,
};
use upsilon_sim::{FailurePattern, FdValue, Oracle, ProcessId, ProcessSet, Time};

const N_PLUS_1: usize = 4;

fn arb_pattern() -> impl Strategy<Value = FailurePattern> {
    proptest::collection::vec(proptest::option::of(0u64..80), N_PLUS_1).prop_map(|crashes| {
        let mut crashes = crashes;
        crashes[0] = None; // keep p1 correct
        let mut b = FailurePattern::builder(N_PLUS_1);
        for (i, c) in crashes.iter().enumerate() {
            if let Some(t) = c {
                b = b.crash(ProcessId(i), Time(*t));
            }
        }
        b.build()
    })
}

fn dense_samples<D: FdValue>(
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

/// One pattern's dense samples from a Υ^f, an Ω, an Ω_k, a ◇P, an anti-Ω
/// and a locally stable Υ^f oracle, all over the same horizon, so the lists
/// share one `(t, p)` skeleton and one index selection applies to each.
struct Observed {
    pattern: FailurePattern,
    f: usize,
    k: usize,
    upsilon: Vec<(Time, ProcessId, ProcessSet)>,
    omega: Vec<(Time, ProcessId, ProcessId)>,
    omega_k: Vec<(Time, ProcessId, ProcessSet)>,
    eventually_perfect: Vec<(Time, ProcessId, ProcessSet)>,
    anti_omega: Vec<(Time, ProcessId, ProcessId)>,
    locally_stable: Vec<(Time, ProcessId, ProcessSet)>,
}

/// The samples at `idx`, in that order.
fn pick<D: Clone>(samples: &[(Time, ProcessId, D)], idx: &[usize]) -> Vec<(Time, ProcessId, D)> {
    idx.iter().map(|&i| samples[i].clone()).collect()
}

impl Observed {
    fn new(pattern: FailurePattern, f: usize, k: usize, seed: u64, stab: u64) -> Observed {
        let horizon = stab.max(pattern.settled_at().value()) + 60;
        let mut upsilon =
            UpsilonOracle::new(&pattern, f, UpsilonChoice::RandomLegal, Time(stab), seed);
        let mut omega = OmegaOracle::new(&pattern, LeaderChoice::RandomCorrect, Time(stab), seed);
        let mut omega_k =
            OmegaKOracle::new(&pattern, k, OmegaKChoice::RandomLegal, Time(stab), seed);
        let mut ep = EventuallyPerfectOracle::new(&pattern, Time(stab), seed);
        let mut anti = AntiOmegaOracle::new(&pattern, Time(stab), seed);
        let mut local = LocallyStableUpsilonOracle::new(&pattern, f, Time(stab), seed);
        Observed {
            upsilon: dense_samples(&pattern, &mut upsilon, horizon),
            omega: dense_samples(&pattern, &mut omega, horizon),
            omega_k: dense_samples(&pattern, &mut omega_k, horizon),
            eventually_perfect: dense_samples(&pattern, &mut ep, horizon),
            anti_omega: dense_samples(&pattern, &mut anti, horizon),
            locally_stable: dense_samples(&pattern, &mut local, horizon),
            pattern,
            f,
            k,
        }
    }

    /// The pid of every sample, in list order.
    fn pids(&self) -> Vec<ProcessId> {
        self.upsilon.iter().map(|(_, p, _)| *p).collect()
    }

    /// The eventually-stable checkers' verdicts on the samples at `idx`:
    /// Υ^f, Ω, Ω_k and ◇P, in that order (a report as its `Debug`
    /// rendering).
    fn stable_verdicts(&self, idx: &[usize]) -> Vec<Result<String, SpecViolation>> {
        let p = &self.pattern;
        vec![
            check_upsilon_f(p, self.f, &pick(&self.upsilon, idx), 5).map(|r| format!("{r:?}")),
            check_omega(p, &pick(&self.omega, idx), 5).map(|r| format!("{r:?}")),
            check_omega_k(p, self.k, &pick(&self.omega_k, idx), 5).map(|r| format!("{r:?}")),
            check_eventually_perfect(p, &pick(&self.eventually_perfect, idx), 5)
                .map(|r| format!("{r:?}")),
        ]
    }

    /// Every checker's verdict on the samples at `idx`, rendered: the
    /// eventually-stable ones, then anti-Ω and the locally stable kernel.
    fn verdicts(&self, idx: &[usize]) -> Vec<String> {
        let mut all: Vec<String> = self
            .stable_verdicts(idx)
            .iter()
            .map(|v| format!("{v:?}"))
            .collect();
        let p = &self.pattern;
        all.push(format!(
            "{:?}",
            check_anti_omega(p, &pick(&self.anti_omega, idx))
        ));
        all.push(format!(
            "{:?}",
            check_locally_stable(p, &pick(&self.locally_stable, idx))
        ));
        all
    }
}

/// An interleaving of the per-process subsequences of `pids`' indices,
/// each process's in its own order; `picks` chooses the next process.
fn interleave(pids: &[ProcessId], picks: &[u8]) -> Vec<usize> {
    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); N_PLUS_1];
    for (i, p) in pids.iter().enumerate() {
        queues[p.index()].push_back(i);
    }
    let mut out = Vec::with_capacity(pids.len());
    for step in 0.. {
        let live: Vec<usize> = (0..N_PLUS_1).filter(|&q| !queues[q].is_empty()).collect();
        if live.is_empty() {
            break;
        }
        let pick = usize::from(picks[step % picks.len()]);
        out.extend(queues[live[pick % live.len()]].pop_front());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, .. ProptestConfig::default() })]

    /// (a) Reordering samples across processes, each process's own
    /// samples kept in order, changes neither verdict nor report.
    #[test]
    fn interleaving_processes_changes_no_verdict(
        pattern in arb_pattern(),
        seed in 0u64..10_000,
        stab in 0u64..150,
        f in 1usize..N_PLUS_1,
        k in 1usize..=N_PLUS_1,
        picks in proptest::collection::vec(0u8..=255, 1..64),
    ) {
        prop_assume!(pattern.in_environment(f));
        let obs = Observed::new(pattern, f, k, seed, stab);
        let pids = obs.pids();
        let identity: Vec<usize> = (0..pids.len()).collect();
        prop_assert_eq!(obs.verdicts(&identity), obs.verdicts(&interleave(&pids, &picks)));
    }

    /// Any reordering at all, even one that moves a process's samples
    /// past each other, changes neither verdict nor report: each process's
    /// final value is its sample with the greatest time, and anti-Ω's later
    /// half is taken in `(time, process)` order.
    #[test]
    fn shuffling_the_samples_changes_no_verdict(
        pattern in arb_pattern(),
        seed in 0u64..10_000,
        stab in 0u64..150,
        f in 1usize..N_PLUS_1,
        k in 1usize..=N_PLUS_1,
        keys in proptest::collection::vec(0u32..=u32::MAX, 1..64),
    ) {
        prop_assume!(pattern.in_environment(f));
        let obs = Observed::new(pattern, f, k, seed, stab);
        let identity: Vec<usize> = (0..obs.pids().len()).collect();
        let mut shuffled = identity.clone();
        shuffled.sort_by_key(|&i| (keys[i % keys.len()].wrapping_mul(i as u32 | 1), i));
        prop_assert_eq!(obs.verdicts(&identity), obs.verdicts(&shuffled));
    }

    /// (b) Dropping samples, each correct process's last one kept, never
    /// turns an `Ok` into `NotStable` or `IllegalStableValue` (less
    /// evidence may make it `InsufficientEvidence`).
    #[test]
    fn sampling_never_destabilizes_a_verdict(
        pattern in arb_pattern(),
        seed in 0u64..10_000,
        stab in 0u64..150,
        f in 1usize..N_PLUS_1,
        k in 1usize..=N_PLUS_1,
        keep in proptest::collection::vec(proptest::bool::ANY, 1..64),
    ) {
        prop_assume!(pattern.in_environment(f));
        let obs = Observed::new(pattern, f, k, seed, stab);
        let pids = obs.pids();
        let last: Vec<Option<usize>> = (0..N_PLUS_1)
            .map(|q| pids.iter().rposition(|p| p.index() == q))
            .collect();
        let sampled: Vec<usize> = (0..pids.len())
            .filter(|&i| keep[i % keep.len()] || last[pids[i].index()] == Some(i))
            .collect();
        let all: Vec<usize> = (0..pids.len()).collect();
        for (before, after) in obs.stable_verdicts(&all).into_iter().zip(obs.stable_verdicts(&sampled)) {
            if before.is_ok() {
                prop_assert!(
                    !matches!(
                        after,
                        Err(SpecViolation::NotStable(_) | SpecViolation::IllegalStableValue(_))
                    ),
                    "{:?} became {:?}", before, after
                );
            }
        }
    }

    #[test]
    fn upsilon_f_oracles_satisfy_their_spec(
        pattern in arb_pattern(),
        seed in 0u64..10_000,
        stab in 0u64..150,
        f_raw in 1usize..N_PLUS_1,
    ) {
        prop_assume!(pattern.in_environment(f_raw));
        let mut o = UpsilonOracle::new(&pattern, f_raw, UpsilonChoice::RandomLegal, Time(stab), seed);
        let samples = dense_samples(&pattern, &mut o, stab + 60);
        prop_assert!(check_upsilon_f(&pattern, f_raw, &samples, 5).is_ok(),
            "{:?}", check_upsilon_f(&pattern, f_raw, &samples, 5));
    }

    #[test]
    fn omega_oracles_satisfy_their_spec(
        pattern in arb_pattern(),
        seed in 0u64..10_000,
        stab in 0u64..150,
    ) {
        let mut o = OmegaOracle::new(&pattern, LeaderChoice::RandomCorrect, Time(stab), seed);
        let samples = dense_samples(&pattern, &mut o, stab + 60);
        prop_assert!(check_omega(&pattern, &samples, 5).is_ok());
    }

    #[test]
    fn omega_k_oracles_satisfy_their_spec(
        pattern in arb_pattern(),
        seed in 0u64..10_000,
        stab in 0u64..150,
        k in 1usize..=N_PLUS_1,
    ) {
        let mut o = OmegaKOracle::new(&pattern, k, OmegaKChoice::RandomLegal, Time(stab), seed);
        let samples = dense_samples(&pattern, &mut o, stab + 60);
        prop_assert!(check_omega_k(&pattern, k, &samples, 5).is_ok());
    }

    #[test]
    fn perfect_detectors_satisfy_their_spec(
        pattern in arb_pattern(),
        seed in 0u64..10_000,
        stab in 0u64..150,
    ) {
        let horizon = stab.max(pattern.settled_at().value()) + 60;
        let mut p = PerfectOracle::new(&pattern);
        let samples = dense_samples(&pattern, &mut p, horizon);
        prop_assert!(check_eventually_perfect(&pattern, &samples, 5).is_ok());
        // P also satisfies strong accuracy at every sampled point.
        for (t, _, suspects) in &samples {
            prop_assert!(suspects.is_subset(pattern.crashed_by(*t)));
        }
        let mut ep = EventuallyPerfectOracle::new(&pattern, Time(stab), seed);
        let samples = dense_samples(&pattern, &mut ep, horizon);
        prop_assert!(check_eventually_perfect(&pattern, &samples, 5).is_ok());
    }

    #[test]
    fn anti_omega_oracles_satisfy_their_spec(
        pattern in arb_pattern(),
        seed in 0u64..10_000,
        quiesce in 0u64..100,
    ) {
        let mut o = AntiOmegaOracle::new(&pattern, Time(quiesce), seed);
        let samples = dense_samples(&pattern, &mut o, quiesce * 2 + 200);
        let witness = check_anti_omega(&pattern, &samples);
        prop_assert!(witness.is_ok(), "{witness:?}");
        prop_assert!(pattern.is_correct(witness.unwrap()));
    }

    /// Cross-check: a Υ oracle's stable set is never accepted by the Ω_k
    /// checker "by accident" when it lacks a correct member and k matches.
    #[test]
    fn checkers_do_not_cross_accept(
        pattern in arb_pattern(),
        seed in 0u64..10_000,
    ) {
        prop_assume!(!pattern.faulty().is_empty());
        // A Υ history stabilizing on exactly the faulty set (legal for Υ
        // when |faulty| ≥ n+1-f i.e. f = n and faulty non-empty)…
        let f = pattern.n_plus_1() - 1;
        let mut o = UpsilonOracle::new(
            &pattern, f, UpsilonChoice::FaultyPadded, Time(10), seed);
        let samples = dense_samples(&pattern, &mut o, 80);
        let k = o.stable_set().len();
        // …is a spec-violating Ω_k history whenever its stable set contains
        // no correct process.
        if o.stable_set().intersection(pattern.correct()).is_empty() {
            prop_assert!(check_omega_k(&pattern, k, &samples, 1).is_err());
        }
    }
}
