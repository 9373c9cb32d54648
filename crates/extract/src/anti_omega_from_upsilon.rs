//! Extracting anti-Ω from Υ — the downward edge of the paper's related-work
//! discussion (§2): Zielinski's anti-Ω \[22,23\] is *strictly weaker* than
//! Υ, so Υ must be able to emulate it. The paper cites the fact; this
//! module provides an executable construction in the style of §5.3's
//! timestamp extraction.
//!
//! anti-Ω outputs one process identifier per query such that **some correct
//! process is eventually never output**. The emulation rule, run atop
//! heartbeat timestamps:
//!
//! > query Υ to get `U`; output the member of `U` with the lowest
//! > timestamp (ties toward the smaller id).
//!
//! Once Υ has stabilized on `U ≠ correct(F)`, outputs are confined to `U`,
//! and every case of the Υ specification closes the argument:
//!
//! * `U` contains a faulty process: frozen timestamps lose to growing ones,
//!   so eventually only (a fixed) faulty member is output — *every* correct
//!   process is eventually never output.
//! * `U` consists of correct processes only: then `U ≠ correct(F)` forces
//!   `correct(F) ⊋ U` (since `U ⊆ correct(F)`), so some correct process
//!   lies outside `U` and is never output at all — even though the argmin
//!   may oscillate inside `U` forever (anti-Ω tolerates that; a *stable*
//!   detector could not, which is exactly why anti-Ω is weaker).
//!
//! Note the asymmetry with Theorem 1: Υ → Ω_n is impossible because Ω_n
//! demands a *stable* set containing a correct process; anti-Ω only demands
//! the eventual *absence* of one correct process, which Υ's single excluded
//! candidate set provides.

use upsilon_mem::RegisterArray;
use upsilon_sim::{algo, AlgoFn, Ctx, Key, Output, ProcessId, ProcessSet};

/// Picks the member of `u` with the lowest timestamp (ties toward smaller
/// ids).
fn least_active_member(u: ProcessSet, stamps: &[u64]) -> ProcessId {
    u.iter()
        .min_by(|a, b| {
            stamps[a.index()]
                .cmp(&stamps[b.index()])
                .then(a.index().cmp(&b.index()))
        })
        .expect("Υ outputs non-empty sets")
}

/// Builds the Υ → anti-Ω extraction algorithm for one process. The
/// algorithm never returns; it publishes the current anti-Ω output via
/// [`Output::Leader`] at every query. Validate with
/// [`upsilon_fd::check_anti_omega`].
pub fn upsilon_to_anti_omega_algorithm() -> AlgoFn<ProcessSet> {
    algo(move |mut ctx| async move { extraction_loop(&mut ctx).await })
}

async fn extraction_loop(ctx: &mut Ctx<ProcessSet>) {
    let n_plus_1 = ctx.n_plus_1();
    let board = RegisterArray::<u64>::new(Key::new("hb"), n_plus_1, 0);
    let mut ts: u64 = 0;
    // #[conform(bound = "B")]
    loop {
        ts += 1;
        board.write_mine(ctx, ts).await;
        let u = ctx.query_fd().await;
        let stamps = board.collect(ctx).await;
        let candidate = least_active_member(u, &stamps);
        // anti-Ω is queried per step and is *unstable*: publish every
        // iteration (not on change), so the published stream faithfully
        // samples the emulated output over time — the spec is about which
        // processes keep appearing, not about a final value.
        ctx.output(Output::Leader(candidate)).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upsilon_fd::{check_anti_omega, UpsilonChoice, UpsilonOracle};
    use upsilon_sim::{FailurePattern, Run, SeededRandom, SimBuilder, Time};

    fn run_extraction(
        pattern: &FailurePattern,
        choice: UpsilonChoice,
        seed: u64,
    ) -> Run<ProcessSet> {
        let oracle = UpsilonOracle::wait_free(pattern, choice, Time(80), seed);
        SimBuilder::<ProcessSet>::new(pattern.clone())
            .oracle(oracle)
            .adversary(SeededRandom::new(seed))
            .max_steps(12_000)
            .spawn_all(|_| upsilon_to_anti_omega_algorithm())
            .run()
            .run
    }

    /// The emulated variable as (time, observer, value) samples — anti-Ω is
    /// unstable, so no held-variable extension: the checker looks at which
    /// processes appear in the published stream's tail.
    fn samples(run: &Run<ProcessSet>) -> Vec<(Time, ProcessId, ProcessId)> {
        run.outputs()
            .iter()
            .filter_map(|(t, p, o)| match o {
                Output::Leader(l) => Some((*t, *p, *l)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn faulty_member_case() {
        // U = Π with crashes: the frozen-timestamp member wins, so every
        // correct process is eventually avoided.
        let pattern = FailurePattern::builder(3)
            .crash(ProcessId(0), Time(30))
            .build();
        let run = run_extraction(&pattern, UpsilonChoice::All, 3);
        let witness = check_anti_omega(&pattern, &samples(&run)).expect("valid anti-Ω emulation");
        assert!(pattern.is_correct(witness));
    }

    #[test]
    fn all_correct_subset_case() {
        // U a strict subset of the correct set: outputs stay inside U, so
        // the correct processes outside U are never output.
        let pattern = FailurePattern::failure_free(4);
        let run = run_extraction(&pattern, UpsilonChoice::SubsetOfCorrect, 5);
        let witness = check_anti_omega(&pattern, &samples(&run)).expect("valid anti-Ω emulation");
        assert!(pattern.is_correct(witness));
    }

    #[test]
    fn works_across_patterns_seeds_and_choices() {
        for seed in 0..4u64 {
            for pattern in [
                FailurePattern::failure_free(3),
                FailurePattern::builder(3)
                    .crash(ProcessId(1), Time(40))
                    .build(),
                FailurePattern::builder(4)
                    .crash(ProcessId(0), Time(25))
                    .crash(ProcessId(3), Time(55))
                    .build(),
            ] {
                for choice in [
                    UpsilonChoice::ComplementOfCorrect,
                    UpsilonChoice::All,
                    UpsilonChoice::FaultyPadded,
                    UpsilonChoice::SubsetOfCorrect,
                ] {
                    let run = run_extraction(&pattern, choice, seed);
                    check_anti_omega(&pattern, &samples(&run))
                        .unwrap_or_else(|e| panic!("{pattern} {choice:?} seed {seed}: {e}"));
                }
            }
        }
    }

    #[test]
    fn least_active_member_rule() {
        let u = ProcessSet::from_iter([ProcessId(1), ProcessId(2)]);
        assert_eq!(least_active_member(u, &[0, 7, 3]), ProcessId(2));
        assert_eq!(
            least_active_member(u, &[0, 3, 3]),
            ProcessId(1),
            "tie → smaller id"
        );
        assert_eq!(
            least_active_member(ProcessSet::singleton(ProcessId(0)), &[9, 1, 1]),
            ProcessId(0)
        );
    }
}
