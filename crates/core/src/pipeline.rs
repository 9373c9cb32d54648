//! Cross-crate protocol compositions.
//!
//! The flagship composition is the §5.3 pipeline: **consensus from Υ¹ in
//! `E_1`** — the Υ¹ → Ω elector of `upsilon-extract` plugged into the
//! Ω-based consensus of `upsilon-agreement` as its leader source. The paper
//! states the extraction and lets the reader combine; here the combination
//! is a runnable algorithm.

use upsilon_agreement::consensus::{propose_with, LeaderSource, OmegaConsensusConfig};
use upsilon_extract::Upsilon1Elector;
use upsilon_sim::{algo, AlgoFn, Ctx, ProcessId, ProcessSet};

/// Adapts the Υ¹ → Ω elector into a consensus leader source.
#[derive(Clone, Debug)]
pub struct Upsilon1LeaderSource {
    elector: Upsilon1Elector,
}

impl Upsilon1LeaderSource {
    /// A fresh source for a system of `n_plus_1` processes.
    pub fn new(n_plus_1: usize) -> Self {
        Upsilon1LeaderSource {
            elector: Upsilon1Elector::new(n_plus_1),
        }
    }
}

impl LeaderSource<ProcessSet> for Upsilon1LeaderSource {
    async fn current_leader(&mut self, ctx: &mut Ctx<ProcessSet>) -> ProcessId {
        self.elector.step(ctx).await
    }
}

/// Runs consensus using only a Υ¹ oracle (legal in `E_1`): every leader
/// estimate comes from the timestamp-based extraction, never from Ω.
pub async fn propose_with_upsilon1(
    ctx: &mut Ctx<ProcessSet>,
    cfg: OmegaConsensusConfig,
    v: u64,
) -> u64 {
    let mut source = Upsilon1LeaderSource::new(ctx.n_plus_1());
    propose_with(ctx, cfg, v, &mut source).await
}

/// Builds the pipeline algorithm for one process.
pub fn upsilon1_consensus_algorithm(cfg: OmegaConsensusConfig, v: u64) -> AlgoFn<ProcessSet> {
    algo(move |mut ctx| async move {
        let d = propose_with_upsilon1(&mut ctx, cfg, v).await;
        ctx.decide(d).await;
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use upsilon_agreement::check_consensus;
    use upsilon_fd::{UpsilonChoice, UpsilonOracle};
    use upsilon_sim::{FailurePattern, SeededRandom, SimBuilder, Time};

    #[test]
    fn consensus_from_upsilon1_end_to_end() {
        for (pattern, choice) in [
            (
                FailurePattern::failure_free(3),
                UpsilonChoice::ComplementOfCorrect,
            ),
            (
                FailurePattern::builder(3)
                    .crash(ProcessId(0), Time(60))
                    .build(),
                UpsilonChoice::All,
            ),
            (
                FailurePattern::builder(4)
                    .crash(ProcessId(3), Time(40))
                    .build(),
                UpsilonChoice::ComplementOfCorrect,
            ),
        ] {
            let n_plus_1 = pattern.n_plus_1();
            let oracle = UpsilonOracle::new(&pattern, 1, choice, Time(150), 7);
            let props: Vec<Option<u64>> = (0..n_plus_1).map(|i| Some(i as u64 + 10)).collect();
            let mut builder = SimBuilder::<ProcessSet>::new(pattern.clone())
                .oracle(oracle)
                .adversary(SeededRandom::new(7))
                .max_steps(600_000);
            for (i, v) in props.iter().enumerate() {
                let v = v.expect("all participate");
                builder = builder.spawn(
                    ProcessId(i),
                    upsilon1_consensus_algorithm(OmegaConsensusConfig::default(), v),
                );
            }
            let run = builder.run().run;
            check_consensus(&run, &props).unwrap_or_else(|e| panic!("{pattern} {choice:?}: {e}"));
        }
    }
}
