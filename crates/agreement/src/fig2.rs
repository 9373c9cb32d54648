//! The paper's Fig. 2: Υ^f-based f-resilient f-set-agreement (§5.3,
//! Theorem 6).
//!
//! The structure follows Fig. 1, with two changes driven by the weaker goal
//! (at most `f` decided values) and the stronger guarantee (at least
//! `n + 1 − f` correct processes):
//!
//! * the round-opening convergence is `f`-converge (at most `f` surviving
//!   values commit);
//! * gladiators in `U` must jointly reduce to at most `|U| + f − n − 1`
//!   values, so that together with the at most `n + 1 − |U|` citizen values
//!   at most `f` values enter `D[r]`. They do this with an atomic snapshot
//!   `A[r][k]`: each gladiator publishes its value, waits until the snapshot
//!   holds at least `n + 1 − f` non-⊥ values (lines 17–19 — safe because at
//!   least `n + 1 − f` processes are correct), adopts the **minimum** value
//!   of its snapshot (line 25), and runs `(|U| + f − n − 1)`-converge
//!   (line 26). Since all snapshots are containment-related and each holds
//!   between `n + 1 − f` and `|U| − 1` non-⊥ entries once a gladiator is
//!   faulty, at most `|U| + f − n − 1` distinct minima arise, and
//!   Convergence commits.
//!
//! The blocking wait of lines 17–19 escapes when `D[r]` or `D` becomes
//! non-⊥, or when instability of Υ^f is observed (`Stable[r]`), mirroring
//! the escape analysis in the proof of Theorem 6.
//!
//! With `f = n` this degenerates to Fig. 1 modulo the harmless
//! min-of-snapshot adoption (the wait is satisfied by one's own update), a
//! consistency the integration tests exploit.

use crate::proposals;
use upsilon_converge::{ConvergeFaults, ConvergeInstance};
use upsilon_mem::{min_value, non_bot_count, FlavoredSnapshot, Register, Snapshot, SnapshotFlavor};
use upsilon_sim::{algo, AlgoFn, Ctx, Key, ProcessSet};

/// Configuration of the Fig. 2 protocol.
#[derive(Clone, Copy, Debug)]
pub struct Fig2Config {
    /// The resilience bound `f` (the oracle must be Υ^f and the pattern in
    /// `E_f`).
    pub f: usize,
    /// Which snapshot implementation backs `A[r][k]` and the converges.
    pub flavor: SnapshotFlavor,
    /// **Ablation switch** (default `false` = faithful protocol): skip the
    /// line 25 snapshot-minimum adoption and keep one's own value instead.
    /// Still *safe* (Agreement flows from the round-opening `f`-converge),
    /// but Termination breaks in exactly the scenario the proof of
    /// Theorem 6 uses the adoption for: all citizens faulty plus a faulty
    /// gladiator, where the correct gladiators must shrink to
    /// `|U| + f − n − 1` values via the containment of their snapshots.
    /// Exercised by experiment E14.
    pub ablate_min_adoption: bool,
    /// **Seeded-mutant switch** (default [`ConvergeFaults::NONE`] =
    /// faithful protocol): faults injected into the *round-opening*
    /// `f`-converge only. Unlike `ablate_min_adoption` this breaks
    /// *safety*: dropping a phase-1 announcement lets more than `f`
    /// values commit out of the opener (the "dropped write in Fig. 2"
    /// mutant the fuzzer must find).
    pub opener_faults: ConvergeFaults,
}

impl Fig2Config {
    /// Configuration for resilience `f` with native snapshots.
    pub fn new(f: usize) -> Self {
        Fig2Config {
            f,
            flavor: SnapshotFlavor::Native,
            ablate_min_adoption: false,
            opener_faults: ConvergeFaults::NONE,
        }
    }

    /// The broken variant for the E14 ablation.
    pub fn ablated(f: usize) -> Self {
        Fig2Config {
            f,
            flavor: SnapshotFlavor::Native,
            ablate_min_adoption: true,
            opener_faults: ConvergeFaults::NONE,
        }
    }

    /// The seeded-mutant variant: inject `faults` into the round-opening
    /// `f`-converge (mutation-detection tests and fuzz campaigns only).
    pub fn with_opener_faults(mut self, faults: ConvergeFaults) -> Self {
        self.opener_faults = faults;
        self
    }
}

/// Outcome of one pass through the gladiator sub-round body.
enum SubRound {
    /// Keep cycling sub-rounds.
    Continue,
    /// Leave the round, adopting this value.
    Leave(u64),
    /// D was set: decide this value.
    Decide(u64),
}

/// Runs the Fig. 2 protocol for one process proposing `v`; returns the
/// decision.
///
/// # Panics
///
/// Panics if `cfg.f` is out of range for the system size.
// Wait-free per Theorem 6; R and K are per-run round/sub-round counts,
// bound from recorded runs by the dynamic cross-check.
// #[conform(wait_free)]
pub async fn propose(ctx: &mut Ctx<ProcessSet>, cfg: Fig2Config, v: u64) -> u64 {
    let n_plus_1 = ctx.n_plus_1();
    let f = cfg.f;
    assert!(f >= 1 && f <= ctx.n(), "f must be in 1..=n");
    let me = ctx.pid();
    let decision = Register::<Option<u64>>::new(Key::new("D"), None);
    let mut v = v;
    let mut r: u64 = 1;

    // #[conform(bound = "R")]
    loop {
        // Round opener: f-converge over the surviving values.
        let main = ConvergeInstance::new(Key::new("f-conv").at(r), n_plus_1, cfg.flavor)
            .with_faults(cfg.opener_faults);
        let (picked, committed) = main.converge(ctx, f, v).await;
        v = picked;
        if committed {
            decision.write(ctx, Some(v)).await;
            return v;
        }
        if let Some(d) = decision.read(ctx).await {
            return d;
        }

        let d_r = Register::<Option<u64>>::new(Key::new("D_r").at(r), None);
        let stable_r = Register::<bool>::new(Key::new("Stable").at(r), false);
        let mut u = ctx.query_fd().await;
        let mut k: u64 = 0;

        // #[conform(bound = "K")]
        let adopted = loop {
            k += 1;
            let u_now = ctx.query_fd().await;
            if u_now != u {
                stable_r.write(ctx, true).await;
                u = u_now;
            }

            if !u.contains(me) {
                // Citizen (line 11): publish and move to the next round.
                d_r.write(ctx, Some(v)).await;
                break v;
            }

            match gladiator_sub_round(ctx, cfg, r, k, &mut u, &mut v, &decision, &d_r, &stable_r)
                .await
            {
                SubRound::Continue => {}
                SubRound::Leave(w) => break w,
                SubRound::Decide(d) => return d,
            }
        };

        v = adopted;
        if let Some(d) = decision.read(ctx).await {
            return d;
        }
        if let Some(w) = d_r.read(ctx).await {
            v = w;
        }
        r += 1;
    }
}

/// One gladiator sub-round (lines 15–30): snapshot publish, bounded wait,
/// min adoption, `(|U| + f − n − 1)`-converge.
#[allow(clippy::too_many_arguments)]
async fn gladiator_sub_round(
    ctx: &mut Ctx<ProcessSet>,
    cfg: Fig2Config,
    r: u64,
    k: u64,
    u: &mut ProcessSet,
    v: &mut u64,
    decision: &Register<Option<u64>>,
    d_r: &Register<Option<u64>>,
    stable_r: &Register<bool>,
) -> SubRound {
    let n_plus_1 = ctx.n_plus_1();
    let f = cfg.f;
    let quorum = n_plus_1 - f;

    // Line 16: publish the current value in A[r][k].
    let a = FlavoredSnapshot::<u64>::new(cfg.flavor, Key::new("A").at(r).at(k), n_plus_1);
    a.update(ctx, *v).await;

    // Lines 17–19: wait for at least n+1−f non-⊥ entries, escaping on
    // D / D[r] / observed instability. W bounds the wait iterations
    // actually taken in a recorded run.
    // #[conform(bound = "W")]
    let snap = loop {
        let s = a.scan(ctx).await;
        if non_bot_count(&s) >= quorum {
            break Some(s);
        }
        if let Some(d) = decision.read(ctx).await {
            return SubRound::Decide(d);
        }
        if let Some(w) = d_r.read(ctx).await {
            return SubRound::Leave(w);
        }
        if stable_r.read(ctx).await {
            break None;
        }
        let u_now = ctx.query_fd().await;
        if u_now != *u {
            stable_r.write(ctx, true).await;
            *u = u_now;
            break None;
        }
    };

    let Some(snap) = snap else {
        // Escaped via instability: leave the round with the current value.
        return SubRound::Leave(*v);
    };

    // Line 25: adopt the minimal value of the snapshot. Containment of
    // snapshots bounds the number of distinct minima by
    // (|U|−1) − (n+1−f) + 1 = |U| + f − n − 1 once a gladiator is faulty.
    if !cfg.ablate_min_adoption {
        *v = min_value(&snap).expect("quorum reached, snapshot is non-empty");
    } else {
        // Ablated: ignore the snapshot (safety unaffected; termination is
        // lost in the all-citizens-faulty case — see E14).
        let _ = &snap;
    }

    // Line 26: gladiators commit on at most |U| + f − n − 1 values.
    let threshold = (u.len() + f).saturating_sub(n_plus_1);
    let sub = ConvergeInstance::new(Key::new("u-conv").at(r).at(k), n_plus_1, cfg.flavor);
    let (picked, committed) = sub.converge(ctx, threshold, *v).await;
    *v = picked;
    if committed {
        d_r.write(ctx, Some(*v)).await;
        return SubRound::Leave(*v);
    }

    // Line 30 exit conditions.
    if let Some(d) = decision.read(ctx).await {
        return SubRound::Decide(d);
    }
    if let Some(w) = d_r.read(ctx).await {
        return SubRound::Leave(w);
    }
    if stable_r.read(ctx).await {
        return SubRound::Leave(*v);
    }
    SubRound::Continue
}

/// Builds the algorithm closure for one process: run Fig. 2 with proposal
/// `v`, then decide.
pub fn algorithm(cfg: Fig2Config, v: u64) -> AlgoFn<ProcessSet> {
    algo(move |mut ctx| async move {
        let d = propose(&mut ctx, cfg, v).await;
        ctx.decide(d).await;
    })
}

/// Builds algorithms for all participating processes from a proposal vector.
pub fn algorithms(
    cfg: Fig2Config,
    proposals: &[Option<u64>],
) -> Vec<(upsilon_sim::ProcessId, AlgoFn<ProcessSet>)> {
    proposals::to_algorithms(proposals, move |v| algorithm(cfg, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::check_k_set_agreement;
    use upsilon_fd::{UpsilonChoice, UpsilonOracle};
    use upsilon_sim::{FailurePattern, ProcessId, Run, SeededRandom, SimBuilder, Time};

    fn run_fig2(
        pattern: &FailurePattern,
        f: usize,
        proposals: &[Option<u64>],
        choice: UpsilonChoice,
        stab: Time,
        seed: u64,
    ) -> Run<ProcessSet> {
        let oracle = UpsilonOracle::new(pattern, f, choice, stab, seed);
        let mut builder = SimBuilder::<ProcessSet>::new(pattern.clone())
            .oracle(oracle)
            .adversary(SeededRandom::new(seed))
            .max_steps(600_000);
        for (pid, algo) in algorithms(Fig2Config::new(f), proposals) {
            builder = builder.spawn(pid, algo);
        }
        builder.run().run
    }

    #[test]
    fn one_resilient_agreement_among_four() {
        // n+1 = 4, f = 1: 1-set agreement (consensus) tolerating one crash.
        let pattern = FailurePattern::builder(4)
            .crash(ProcessId(2), Time(25))
            .build();
        let proposals = [Some(1), Some(2), Some(3), Some(4)];
        let run = run_fig2(
            &pattern,
            1,
            &proposals,
            UpsilonChoice::default(),
            Time(80),
            3,
        );
        check_k_set_agreement(&run, 1, &proposals).expect("Υ¹ gives 1-resilient consensus");
    }

    #[test]
    fn mid_range_f_with_crashes() {
        let pattern = FailurePattern::builder(5)
            .crash(ProcessId(0), Time(30))
            .crash(ProcessId(4), Time(70))
            .build();
        let proposals = [Some(1), Some(2), Some(3), Some(4), Some(5)];
        for choice in [
            UpsilonChoice::All,
            UpsilonChoice::FaultyPadded,
            UpsilonChoice::default(),
        ] {
            let run = run_fig2(&pattern, 2, &proposals, choice, Time(120), 9);
            check_k_set_agreement(&run, 2, &proposals)
                .unwrap_or_else(|e| panic!("{choice:?}: {e}"));
        }
    }

    #[test]
    fn wait_free_case_matches_fig1_semantics() {
        // f = n: Fig. 2 solves n-set agreement, like Fig. 1.
        let pattern = FailurePattern::builder(3)
            .crash(ProcessId(1), Time(40))
            .build();
        let proposals = [Some(7), Some(8), Some(9)];
        let run = run_fig2(
            &pattern,
            2,
            &proposals,
            UpsilonChoice::default(),
            Time(90),
            5,
        );
        check_k_set_agreement(&run, 2, &proposals).expect("f = n case");
    }

    #[test]
    fn failure_free_runs_decide_under_all_gladiator_sets() {
        let pattern = FailurePattern::failure_free(4);
        let proposals = [Some(4), Some(3), Some(2), Some(1)];
        for f in 1..=3usize {
            for choice in [UpsilonChoice::default(), UpsilonChoice::SubsetOfCorrect] {
                let run = run_fig2(&pattern, f, &proposals, choice, Time(60), 17);
                check_k_set_agreement(&run, f, &proposals)
                    .unwrap_or_else(|e| panic!("f={f} {choice:?}: {e}"));
            }
        }
    }

    #[test]
    fn late_stabilization_with_max_crashes() {
        // All f crashes actually happen, and Υ^f stabilizes only afterwards.
        let pattern = FailurePattern::builder(4)
            .crash(ProcessId(1), Time(50))
            .crash(ProcessId(3), Time(100))
            .build();
        let proposals = [Some(1), Some(2), Some(3), Some(4)];
        let run = run_fig2(&pattern, 2, &proposals, UpsilonChoice::All, Time(1_500), 21);
        check_k_set_agreement(&run, 2, &proposals).expect("late stabilization");
    }
}
