//! Corollary 4's comparison point: `(n+1)`-process consensus from
//! `n`-process consensus objects, registers and Ω_n (Neiger \[18\],
//! Yang–Neiger–Gafni \[21\]; Ω_n is also *necessary* for this boosting by
//! Guerraoui–Kouznetsov \[13\]).
//!
//! Round `r`: query Ω_n to get a set `L` of `n` processes. Members of `L`
//! agree among themselves through an `n`-process consensus object dedicated
//! to `(r, L)` — legal, because at most the `n` members of `L` ever access
//! it — and publish the agreed value on a board register. Non-members adopt
//! the board value (escaping on detector change or decision). Everyone then
//! runs commit–adopt; commits are decided through `D`.
//!
//! Once Ω_n stabilizes on a set `L*` containing a correct process, that
//! member drives every later round: the `(r, L*)` object yields one value,
//! the board carries it to everyone, and commit–adopt converges. Together
//! with Theorem 1 (Υ cannot emulate Ω_n) and Theorem 2 (Υ suffices for
//! set-agreement with registers), this realizes Corollary 4: set-agreement
//! with registers is strictly easier than boosted consensus.

use crate::proposals;
use upsilon_converge::ConvergeInstance;
use upsilon_mem::{Consensus, Register, SnapshotFlavor};
use upsilon_sim::{algo, AlgoFn, Ctx, Key, ProcessId, ProcessSet};

/// Configuration of the boosting protocol.
#[derive(Clone, Copy, Debug, Default)]
pub struct BoostConfig {
    /// Which snapshot implementation backs the commit–adopt instances.
    pub flavor: SnapshotFlavor,
}

/// Runs boosted consensus for one process proposing `v`; returns the
/// decision. The failure-detector range must be Ω_n's (`ProcessSet`s of
/// size `n`).
// The override breaks the name-based await graph's apparent recursion
// (`obj.propose` below is the one-step consensus *object*, not this
// routine). Per round: two register reads, a query, the member/waiter
// branch (max(2, 3W)), a 1-converge (≤ 4·n₊₁·(n₊₁+2) + 4 snapshot steps
// on the register-based flavor) and the decision write.
// #[conform(bound = "R * (W * 3 + 4 * n_plus_1 * (n_plus_1 + 2) + 9)")]
pub async fn propose(ctx: &mut Ctx<ProcessSet>, cfg: BoostConfig, v: u64) -> u64 {
    let n_plus_1 = ctx.n_plus_1();
    let me = ctx.pid();
    let decision = Register::<Option<u64>>::new(Key::new("D"), None);
    let mut v = v;
    let mut r: u64 = 1;
    // #[conform(bound = "R")]
    loop {
        if let Some(d) = decision.read(ctx).await {
            return d;
        }
        let leaders = ctx.query_fd().await;
        debug_assert_eq!(leaders.len(), ctx.n(), "Ω_n outputs sets of size n");
        let board = Register::<Option<u64>>::new(Key::new("B").at(r), None);
        if leaders.contains(me) {
            // Members of L agree through an n-process consensus object
            // dedicated to this (round, L) pair — only members touch it.
            let obj = Consensus::new(Key::new("n-cons").at(r).at(leaders.bits()), leaders);
            v = obj.propose(ctx, v).await;
            board.write(ctx, Some(v)).await;
        } else {
            // #[conform(bound = "W")]
            loop {
                if let Some(w) = board.read(ctx).await {
                    v = w;
                    break;
                }
                if let Some(d) = decision.read(ctx).await {
                    return d;
                }
                if ctx.query_fd().await != leaders {
                    break;
                }
            }
        }
        let ca = ConvergeInstance::new(Key::new("bca").at(r), n_plus_1, cfg.flavor);
        let (picked, committed) = ca.converge(ctx, 1, v).await;
        v = picked;
        if committed {
            decision.write(ctx, Some(v)).await;
            return v;
        }
        r += 1;
    }
}

/// Builds the algorithm closure for one process.
pub fn algorithm(cfg: BoostConfig, v: u64) -> AlgoFn<ProcessSet> {
    algo(move |mut ctx| async move {
        let d = propose(&mut ctx, cfg, v).await;
        ctx.decide(d).await;
    })
}

/// Builds algorithms for all participating processes.
pub fn algorithms(cfg: BoostConfig, props: &[Option<u64>]) -> Vec<(ProcessId, AlgoFn<ProcessSet>)> {
    proposals::to_algorithms(props, move |v| algorithm(cfg, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::check_consensus;
    use upsilon_fd::{OmegaKChoice, OmegaKOracle};
    use upsilon_mem::ConsensusObject;
    use upsilon_sim::{FailurePattern, Memory, Run, SeededRandom, SimBuilder, Time};

    fn run_boost(
        pattern: &FailurePattern,
        props: &[Option<u64>],
        choice: OmegaKChoice,
        stab: Time,
        seed: u64,
    ) -> (Run<ProcessSet>, Memory) {
        let n = pattern.n();
        let oracle = OmegaKOracle::new(pattern, n, choice, stab, seed);
        let mut builder = SimBuilder::<ProcessSet>::new(pattern.clone())
            .oracle(oracle)
            .adversary(SeededRandom::new(seed))
            .max_steps(400_000);
        for (pid, algo) in algorithms(BoostConfig::default(), props) {
            builder = builder.spawn(pid, algo);
        }
        let outcome = builder.run();
        (outcome.run, outcome.memory)
    }

    #[test]
    fn boosts_to_full_consensus_failure_free() {
        let pattern = FailurePattern::failure_free(3);
        let props = [Some(10), Some(20), Some(30)];
        for seed in 0..5u64 {
            let (run, _) = run_boost(&pattern, &props, OmegaKChoice::default(), Time(40), seed);
            check_consensus(&run, &props).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn boosts_with_n_crashes() {
        // Wait-free: n of n+1 processes crash.
        let pattern = FailurePattern::builder(3)
            .crash(ProcessId(0), Time(30))
            .crash(ProcessId(2), Time(60))
            .build();
        let props = [Some(1), Some(2), Some(3)];
        let (run, _) = run_boost(&pattern, &props, OmegaKChoice::default(), Time(150), 3);
        check_consensus(&run, &props).expect("n crashes survived");
    }

    #[test]
    fn only_n_process_consensus_objects_are_used() {
        // The type restriction of Corollary 4: every consensus object in
        // memory is an n-process object, never n+1.
        let pattern = FailurePattern::failure_free(4);
        let props = [Some(1), Some(2), Some(3), Some(4)];
        let (run, memory) = run_boost(&pattern, &props, OmegaKChoice::default(), Time(50), 9);
        check_consensus(&run, &props).expect("boosted consensus");
        let mut seen = 0;
        for (_, key, ty) in memory.inventory() {
            if ty.contains("ConsensusObject") {
                seen += 1;
                let set = ProcessSet::from_bits(key.indices()[1]);
                assert_eq!(set.len(), 3, "object {key} must be 3-process (n = 3)");
            }
        }
        assert!(
            seen >= 1,
            "at least one consensus object must have been used"
        );
        let _ = memory.get::<ConsensusObject>(&Key::new("nonexistent"));
    }

    #[test]
    fn late_stabilization_with_noisy_leader_sets() {
        let pattern = FailurePattern::builder(4)
            .crash(ProcessId(1), Time(20))
            .build();
        let props = [Some(4), Some(3), Some(2), Some(1)];
        let (run, _) = run_boost(
            &pattern,
            &props,
            OmegaKChoice::OneCorrectRestFaulty,
            Time(500),
            17,
        );
        check_consensus(&run, &props).expect("noisy Ω_n period");
    }
}
