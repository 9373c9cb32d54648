//! The Ω_n baseline for set agreement (Corollary 3's context).
//!
//! Before this paper, Ω_n was conjectured to be the weakest failure detector
//! for n-resilient n-set-agreement \[19\]. The paper's §4 observation — "the
//! complement of Ω_n in Π is a legal output for Υ" — means the Fig. 1
//! protocol doubles as an Ω_n-based set-agreement algorithm: complement the
//! Ω_n output and run Fig. 1 unchanged. This module packages that pipeline
//! as the baseline the E9 experiment compares against, which is also a live
//! demonstration of the reduction Ω_n → Υ (half of Theorem 1; the
//! irreducibility half is the adversary game in `upsilon-extract`).

use crate::fig1::{self, Fig1Config};
use crate::proposals;
use upsilon_sim::{AlgoFn, Ctx, ProcessId, ProcessSet};

/// Runs Fig. 1 on top of an Ω_k oracle by complementing each query inside
/// the algorithm (value-level reduction, no extra steps).
///
/// The caller supplies an Ω_k oracle as the run's oracle; this wrapper is
/// the algorithm side of the reduction.
pub async fn propose_with_omega_k(ctx: &mut Ctx<ProcessSet>, cfg: Fig1Config, v: u64) -> u64 {
    // The reduction is applied by the oracle wrapper
    // (`upsilon_fd::upsilon_f_from_omega_k`); algorithm-side the protocol is
    // literally Fig. 1.
    fig1::propose(ctx, cfg, v).await
}

/// Builds the baseline algorithm closures. Identical to Fig. 1's; the
/// difference lies in the oracle (an Ω_k history complemented into Υ).
pub fn algorithms(cfg: Fig1Config, props: &[Option<u64>]) -> Vec<(ProcessId, AlgoFn<ProcessSet>)> {
    proposals::to_algorithms(props, move |v| fig1::algorithm(cfg, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::check_k_set_agreement;
    use upsilon_fd::{upsilon_f_from_omega_k, OmegaKChoice, OmegaKOracle};
    use upsilon_sim::{FailurePattern, SeededRandom, SimBuilder, Time};

    #[test]
    fn fig1_on_complemented_omega_n_solves_set_agreement() {
        let pattern = FailurePattern::builder(4)
            .crash(ProcessId(3), Time(30))
            .build();
        let props = [Some(1), Some(2), Some(3), Some(4)];
        for choice in [OmegaKChoice::default(), OmegaKChoice::MostlyCorrect] {
            let omega_n = OmegaKOracle::new(&pattern, 3, choice, Time(80), 5);
            let oracle = upsilon_f_from_omega_k(4, omega_n);
            let mut builder = SimBuilder::<ProcessSet>::new(pattern.clone())
                .oracle(oracle)
                .adversary(SeededRandom::new(5))
                .max_steps(400_000);
            for (pid, algo) in algorithms(Fig1Config::default(), &props) {
                builder = builder.spawn(pid, algo);
            }
            let run = builder.run().run;
            check_k_set_agreement(&run, 3, &props).unwrap_or_else(|e| panic!("{choice:?}: {e}"));
        }
    }
}
