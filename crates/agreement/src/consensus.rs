//! Ω-based consensus with registers (Chandra–Hadzilacos–Toueg \[3\], in the
//! structured commit–adopt derivation style of Yang–Neiger–Gafni \[21\]).
//!
//! Used by the repository wherever the paper invokes "consensus is solvable
//! with Ω": the two-process Υ ≡ Ω equivalence (§4), the `E_1` pipeline
//! Υ¹ → Ω → consensus (§5.3), and as the agreement layer of the Corollary 4
//! boosting algorithm.
//!
//! Round `r`: query Ω; the process that considers itself leader writes its
//! value to a proposal register `prop[r]`; everyone else waits for the
//! proposal (escaping if the leader output changes, or a decision appears).
//! All processes then run commit–adopt on the value they hold; a commit is
//! written to `D` and decided. Once Ω stabilizes on a correct leader `ℓ`,
//! any round entered afterwards has `prop[r]` written only by `ℓ`, so all
//! commit–adopt inputs are equal and Convergence commits. Safety never
//! depends on Ω: decisions flow only through commit–adopt commits, and a
//! commit in round `r` forces every round-`r` participant to pick the same
//! value.

use crate::proposals;
use upsilon_converge::ConvergeInstance;
use upsilon_mem::{Register, SnapshotFlavor};
use upsilon_sim::{algo, AlgoFn, Ctx, FdValue, Key, ProcessId};

/// Configuration of the Ω-based consensus protocol.
#[derive(Clone, Copy, Debug, Default)]
pub struct OmegaConsensusConfig {
    /// Which snapshot implementation backs the commit–adopt instances.
    pub flavor: SnapshotFlavor,
}

/// Where the consensus protocol obtains its current leader estimate.
///
/// The canonical source is a direct Ω query ([`OmegaQuery`]); reduction
/// pipelines substitute an *emulated* Ω — e.g. the Υ¹ → Ω extraction of
/// §5.3 — without touching the protocol (the `upsilon-core` crate wires
/// that composition).
#[allow(async_fn_in_trait)] // algorithms are single-threaded state machines; futures need not be Send
pub trait LeaderSource<D: FdValue> {
    /// The process currently trusted as leader. May take steps.
    async fn current_leader(&mut self, ctx: &mut Ctx<D>) -> ProcessId;
}

/// The canonical leader source: query the Ω module (one step).
#[derive(Clone, Copy, Debug, Default)]
pub struct OmegaQuery;

impl LeaderSource<ProcessId> for OmegaQuery {
    async fn current_leader(&mut self, ctx: &mut Ctx<ProcessId>) -> ProcessId {
        ctx.query_fd().await
    }
}

/// Runs leader-based consensus for one process proposing `v`, drawing
/// leader estimates from `source`; returns the decision.
pub async fn propose_with<D: FdValue>(
    ctx: &mut Ctx<D>,
    cfg: OmegaConsensusConfig,
    v: u64,
    source: &mut impl LeaderSource<D>,
) -> u64 {
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
        let prop = Register::<Option<u64>>::new(Key::new("prop").at(r), None);
        let leader = source.current_leader(ctx).await;
        if leader == me {
            prop.write(ctx, Some(v)).await;
        }
        // Wait for the leader's proposal; escape on leader change or
        // decision. A stable correct leader passes through every round (or
        // decides), so this wait is non-blocking after stabilization.
        // #[conform(bound = "W")]
        loop {
            if let Some(w) = prop.read(ctx).await {
                v = w;
                break;
            }
            if let Some(d) = decision.read(ctx).await {
                return d;
            }
            if source.current_leader(ctx).await != leader {
                break;
            }
        }
        let ca = ConvergeInstance::new(Key::new("ca").at(r), n_plus_1, cfg.flavor);
        let (picked, committed) = ca.converge(ctx, 1, v).await;
        v = picked;
        if committed {
            decision.write(ctx, Some(v)).await;
            return v;
        }
        r += 1;
    }
}

/// Runs Ω-based consensus for one process proposing `v`; returns the
/// decision. The failure-detector range must be Ω's (`ProcessId`).
pub async fn propose(ctx: &mut Ctx<ProcessId>, cfg: OmegaConsensusConfig, v: u64) -> u64 {
    propose_with(ctx, cfg, v, &mut OmegaQuery).await
}

/// Builds the algorithm closure for one process.
pub fn algorithm(cfg: OmegaConsensusConfig, v: u64) -> AlgoFn<ProcessId> {
    algo(move |mut ctx| async move {
        let d = propose(&mut ctx, cfg, v).await;
        ctx.decide(d).await;
    })
}

/// Builds algorithms for all participating processes.
pub fn algorithms(
    cfg: OmegaConsensusConfig,
    props: &[Option<u64>],
) -> Vec<(ProcessId, AlgoFn<ProcessId>)> {
    proposals::to_algorithms(props, move |v| algorithm(cfg, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::check_consensus;
    use upsilon_fd::{LeaderChoice, OmegaOracle};
    use upsilon_sim::{FailurePattern, Run, SeededRandom, SimBuilder, Time};

    fn run_consensus(
        pattern: &FailurePattern,
        props: &[Option<u64>],
        choice: LeaderChoice,
        stab: Time,
        seed: u64,
    ) -> Run<ProcessId> {
        let oracle = OmegaOracle::new(pattern, choice, stab, seed);
        let mut builder = SimBuilder::<ProcessId>::new(pattern.clone())
            .oracle(oracle)
            .adversary(SeededRandom::new(seed))
            .max_steps(400_000);
        for (pid, algo) in algorithms(OmegaConsensusConfig::default(), props) {
            builder = builder.spawn(pid, algo);
        }
        builder.run().run
    }

    #[test]
    fn failure_free_consensus() {
        let pattern = FailurePattern::failure_free(3);
        let props = [Some(10), Some(20), Some(30)];
        for seed in 0..5u64 {
            let run = run_consensus(&pattern, &props, LeaderChoice::MinCorrect, Time(40), seed);
            check_consensus(&run, &props).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn consensus_with_crashes_and_late_stabilization() {
        let pattern = FailurePattern::builder(4)
            .crash(ProcessId(0), Time(35))
            .crash(ProcessId(2), Time(80))
            .build();
        let props = [Some(1), Some(2), Some(3), Some(4)];
        for choice in [LeaderChoice::MinCorrect, LeaderChoice::MaxCorrect] {
            let run = run_consensus(&pattern, &props, choice, Time(400), 7);
            check_consensus(&run, &props).unwrap_or_else(|e| panic!("{choice:?}: {e}"));
        }
    }

    #[test]
    fn leader_crash_before_stabilization_is_survivable() {
        // The stable leader is chosen among correct processes, but before
        // stabilization noisy leaders (including soon-to-crash ones) appear.
        let pattern = FailurePattern::builder(3)
            .crash(ProcessId(2), Time(15))
            .build();
        let props = [Some(5), Some(6), Some(7)];
        let run = run_consensus(&pattern, &props, LeaderChoice::RandomCorrect, Time(200), 11);
        check_consensus(&run, &props).expect("crashed noisy leader");
    }

    #[test]
    fn two_processes_one_crash() {
        let pattern = FailurePattern::builder(2)
            .crash(ProcessId(1), Time(12))
            .build();
        let props = [Some(1), Some(2)];
        let run = run_consensus(&pattern, &props, LeaderChoice::MinCorrect, Time(50), 13);
        check_consensus(&run, &props).expect("two-process consensus");
    }
}
