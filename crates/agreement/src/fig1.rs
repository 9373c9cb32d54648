//! The paper's Fig. 1: Υ-based n-set-agreement with registers (§5.2,
//! Theorem 2).
//!
//! The protocol proceeds in rounds. In round `r`:
//!
//! 1. (line 4) run `n`-converge; on commit, write the value to the decision
//!    register `D` and decide.
//! 2. Otherwise query Υ; call the returned set `U`. Processes in `U` are
//!    **gladiators**, processes outside are **citizens**. Then cycle through
//!    sub-rounds `k = 1, 2, …` (lines 12–17):
//!    * whenever the queried output of Υ changes, set `Stable[r] := true`
//!      (reporting instability to the whole round) and move to round `r+1`;
//!    * a citizen writes its value to `D[r]` and moves to round `r+1`;
//!    * a gladiator runs `(|U|−1)`-converge`[r][k]`, carrying the picked
//!      value into sub-round `k+1`; on commit it writes `D[r]` and moves on;
//!    * everyone leaves the round when `Stable[r]` is set, or `D[r] ≠ ⊥`
//!      (adopting that value), or `D ≠ ⊥` (deciding it).
//!
//! Eventually Υ stabilizes on `U ≠ correct(F)`: either a gladiator is
//! faulty — so eventually at most `|U|−1` values enter some
//! `(|U|−1)`-converge and Convergence commits — or a citizen is correct and
//! writes `D[r]`. Either way at most `n` distinct values survive into round
//! `r+1`, where `n`-converge commits (Theorem 2's counting argument:
//! `(n+1−|U|) + (|U|−1) = n`).
//!
//! Safety does not depend on Υ at all: a process decides only a value that
//! went through a committed `n`-converge (directly or via `D`), and
//! C-Agreement bounds those to `n` values.

use crate::proposals;
use upsilon_converge::ConvergeInstance;
use upsilon_mem::{Register, SnapshotFlavor};
use upsilon_sim::{algo, AlgoFn, Ctx, Key, ProcessSet};

/// Configuration of the Fig. 1 protocol.
#[derive(Clone, Copy, Debug, Default)]
pub struct Fig1Config {
    /// Which snapshot implementation backs the converge instances.
    pub flavor: SnapshotFlavor,
}

/// Runs the Fig. 1 protocol for one process proposing `v`; returns the
/// decision. The failure-detector range must be Υ's (`ProcessSet`).
// Wait-free per Theorem 2: every step completes, and once Υ stabilizes the
// round/sub-round counters stop advancing. R and K are per-run quantities
// (rounds and sub-rounds actually taken); the dynamic cross-check binds
// them from recorded runs.
// #[conform(wait_free)]
pub async fn propose(ctx: &mut Ctx<ProcessSet>, cfg: Fig1Config, v: u64) -> u64 {
    let n_plus_1 = ctx.n_plus_1();
    let n = ctx.n();
    let me = ctx.pid();
    let decision = Register::<Option<u64>>::new(Key::new("D"), None);
    let mut v = v;
    let mut r: u64 = 1;
    // #[conform(bound = "R")]
    loop {
        // Line 4: try to commit one of at most n surviving values.
        let main = ConvergeInstance::new(Key::new("n-conv").at(r), n_plus_1, cfg.flavor);
        let (picked, committed) = main.converge(ctx, n, v).await;
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

        // Lines 12–17: gladiators vs citizens, until the round resolves.
        // #[conform(bound = "K")]
        let adopted = loop {
            k += 1;
            let u_now = ctx.query_fd().await;
            if u_now != u {
                // Observed instability of Υ: report it and refresh U.
                stable_r.write(ctx, true).await;
                u = u_now;
            }

            if !u.contains(me) {
                // Citizen: publish the value for the round and move on.
                d_r.write(ctx, Some(v)).await;
                break v;
            }

            // Gladiator: try to eliminate one of U's values.
            let sub = ConvergeInstance::new(Key::new("u-conv").at(r).at(k), n_plus_1, cfg.flavor);
            let (picked, committed) = sub.converge(ctx, u.len() - 1, v).await;
            v = picked;
            if committed {
                d_r.write(ctx, Some(v)).await;
                break v;
            }

            // Line 17 exit conditions.
            if let Some(d) = decision.read(ctx).await {
                return d;
            }
            if let Some(w) = d_r.read(ctx).await {
                break w;
            }
            if stable_r.read(ctx).await {
                break v;
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

/// Builds the algorithm closure for one process: run Fig. 1 with proposal
/// `v`, then decide the returned value.
///
/// ```
/// use upsilon_agreement::fig1::{algorithm, Fig1Config};
/// use upsilon_agreement::check_k_set_agreement;
/// use upsilon_fd::{UpsilonChoice, UpsilonOracle};
/// use upsilon_sim::{FailurePattern, SimBuilder, Time};
///
/// let pattern = FailurePattern::failure_free(3);
/// let oracle = UpsilonOracle::wait_free(&pattern, UpsilonChoice::default(), Time(50), 1);
/// let run = SimBuilder::new(pattern)
///     .oracle(oracle)
///     .spawn_all(|pid| algorithm(Fig1Config::default(), pid.index() as u64))
///     .run()
///     .run;
/// check_k_set_agreement(&run, 2, &[Some(0), Some(1), Some(2)]).unwrap();
/// ```
pub fn algorithm(cfg: Fig1Config, v: u64) -> AlgoFn<ProcessSet> {
    algo(move |mut ctx| async move {
        let d = propose(&mut ctx, cfg, v).await;
        ctx.decide(d).await;
    })
}

/// Builds algorithms for all (participating) processes from a proposal
/// vector; `None` entries do not participate.
pub fn algorithms(
    cfg: Fig1Config,
    proposals: &[Option<u64>],
) -> Vec<(upsilon_sim::ProcessId, AlgoFn<ProcessSet>)> {
    proposals::to_algorithms(proposals, move |v| algorithm(cfg, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::check_k_set_agreement;
    use upsilon_fd::{UpsilonChoice, UpsilonOracle};
    use upsilon_sim::{FailurePattern, ProcessId, SeededRandom, SimBuilder, Time};

    fn run_fig1(
        pattern: &FailurePattern,
        proposals: &[Option<u64>],
        choice: UpsilonChoice,
        stab: Time,
        seed: u64,
    ) -> upsilon_sim::Run<ProcessSet> {
        let oracle = UpsilonOracle::wait_free(pattern, choice, stab, seed);
        let mut builder = SimBuilder::<ProcessSet>::new(pattern.clone())
            .oracle(oracle)
            .adversary(SeededRandom::new(seed))
            .max_steps(400_000);
        for (pid, algo) in algorithms(Fig1Config::default(), proposals) {
            builder = builder.spawn(pid, algo);
        }
        builder.run().run
    }

    #[test]
    fn failure_free_three_processes_all_choices() {
        let pattern = FailurePattern::failure_free(3);
        let proposals = [Some(10), Some(20), Some(30)];
        for choice in [
            UpsilonChoice::ComplementOfCorrect,
            UpsilonChoice::SubsetOfCorrect,
            UpsilonChoice::RandomLegal,
        ] {
            let run = run_fig1(&pattern, &proposals, choice, Time(50), 3);
            check_k_set_agreement(&run, 2, &proposals)
                .unwrap_or_else(|e| panic!("{choice:?}: {e}"));
        }
    }

    #[test]
    fn crashes_do_not_break_the_protocol() {
        let pattern = FailurePattern::builder(3)
            .crash(ProcessId(0), Time(40))
            .crash(ProcessId(2), Time(90))
            .build();
        let proposals = [Some(1), Some(2), Some(3)];
        for choice in [UpsilonChoice::All, UpsilonChoice::FaultyPadded] {
            let run = run_fig1(&pattern, &proposals, choice, Time(120), 7);
            check_k_set_agreement(&run, 2, &proposals)
                .unwrap_or_else(|e| panic!("{choice:?}: {e}"));
        }
    }

    #[test]
    fn late_stabilization_is_tolerated() {
        let pattern = FailurePattern::builder(4)
            .crash(ProcessId(1), Time(10))
            .build();
        let proposals = [Some(1), Some(2), Some(3), Some(4)];
        let run = run_fig1(
            &pattern,
            &proposals,
            UpsilonChoice::default(),
            Time(3_000),
            11,
        );
        check_k_set_agreement(&run, 3, &proposals).expect("3-set agreement holds");
    }

    #[test]
    fn remark_non_participation_forces_round_one_commit() {
        // §5.2 Remark: with a non-participant, at most n values enter round
        // 1's n-converge, so everyone commits in round 1 regardless of Υ —
        // even though Υ never stabilizes within this run's horizon.
        let pattern = FailurePattern::failure_free(3);
        let proposals = [Some(5), None, Some(6)];
        let oracle =
            UpsilonOracle::wait_free(&pattern, UpsilonChoice::default(), Time(1_000_000), 5);
        let mut builder = SimBuilder::<ProcessSet>::new(pattern.clone())
            .oracle(oracle)
            .adversary(SeededRandom::new(5))
            .max_steps(400_000);
        for (pid, algo) in algorithms(Fig1Config::default(), &proposals) {
            builder = builder.spawn(pid, algo);
        }
        let outcome = builder.run();
        check_k_set_agreement(&outcome.run, 2, &proposals).expect("remark run");
        // Every participant decided in round 1: no round-2 objects exist.
        assert!(outcome
            .memory
            .inventory()
            .all(|(_, key, _)| key.indices().first() != Some(&2)));
    }

    #[test]
    fn two_process_case_solves_consensus_like_agreement() {
        // n = 1: 1-set agreement = consensus, with Υ ≡ Ω (§4).
        let pattern = FailurePattern::builder(2)
            .crash(ProcessId(0), Time(30))
            .build();
        let proposals = [Some(8), Some(9)];
        let run = run_fig1(&pattern, &proposals, UpsilonChoice::default(), Time(60), 13);
        check_k_set_agreement(&run, 1, &proposals).expect("2-process Fig.1 is consensus");
    }
}
