//! Extracting Ω from Υ¹ in the environment `E_1` (§5.3):
//!
//! > "In the reduction algorithm, every process p_i periodically writes
//! > ever-growing timestamps in the shared memory. If Υ¹_i outputs a proper
//! > subset of Π (of size n), then p_i elects the process p = Π − Υ_i;
//! > otherwise, if Υ¹ outputs Π (i.e., exactly one process is faulty), then
//! > p_i elects the process with the smallest id among n processes with the
//! > highest timestamps. Eventually, the same correct process is elected by
//! > the correct processes — the output of Ω is extracted."
//!
//! Correctness, case by case, once Υ¹ has stabilized on `U`:
//!
//! * `U ⊊ Π` (`|U| = n`): the excluded process `Π − U` is correct — if all
//!   were correct, `U ≠ correct(F) = Π` excludes nobody faulty, and the
//!   complement is trivially correct; if one process `q` is faulty then
//!   `U ≠ Π − {q}` forces `q ∈ U`, so `Π − U ⊆ correct(F)`.
//! * `U = Π`: legal only if `correct(F) ≠ Π`, i.e. (in `E_1`) exactly one
//!   process crashed. Its timestamp freezes, every correct process's
//!   timestamp eventually exceeds it, so the top-`n` set converges to
//!   `correct(F)` and the smallest-id choice stabilizes on a correct
//!   process.

use upsilon_mem::RegisterArray;
use upsilon_sim::{algo, AlgoFn, Ctx, Key, Output, ProcessId, ProcessSet};

/// Builds the Υ¹ → Ω extraction algorithm for one process (environment
/// `E_1`). The algorithm never returns; it publishes the currently elected
/// leader via [`Output::Leader`] whenever it changes. Validate with
/// [`upsilon_fd::check_omega`].
pub fn upsilon1_to_omega_algorithm() -> AlgoFn<ProcessSet> {
    algo(move |mut ctx| async move { extraction_loop(&mut ctx).await })
}

/// Elects the smallest id among the `n` processes with the highest
/// timestamps (ties broken toward smaller ids, so a frozen timestamp loses
/// to any strictly larger one).
fn elect_from_timestamps(stamps: &[u64]) -> ProcessId {
    let n_plus_1 = stamps.len();
    let mut ids: Vec<usize> = (0..n_plus_1).collect();
    // Highest timestamp first; ties favour smaller id.
    ids.sort_by(|&a, &b| stamps[b].cmp(&stamps[a]).then(a.cmp(&b)));
    ids.truncate(n_plus_1 - 1);
    ProcessId(*ids.iter().min().expect("n ≥ 1 candidates"))
}

/// The reusable state of the Υ¹ → Ω election: one [`step`](Self::step)
/// performs a heartbeat, a Υ¹ query and an election, returning the current
/// leader estimate. Composable into other protocols: the `upsilon-core`
/// pipeline plugs it into Ω-based consensus as a `LeaderSource`, giving
/// consensus from Υ¹ in `E_1` end to end.
#[derive(Clone, Debug)]
pub struct Upsilon1Elector {
    board: RegisterArray<u64>,
    ts: u64,
}

impl Upsilon1Elector {
    /// A fresh elector for a system of `n_plus_1` processes.
    pub fn new(n_plus_1: usize) -> Self {
        Upsilon1Elector {
            board: RegisterArray::new(Key::new("T"), n_plus_1, 0),
            ts: 0,
        }
    }

    /// One election iteration: heartbeat, query Υ¹, elect.
    pub async fn step(&mut self, ctx: &mut Ctx<ProcessSet>) -> ProcessId {
        let n_plus_1 = ctx.n_plus_1();
        let all = ProcessSet::all(n_plus_1);
        // Ever-growing timestamp heartbeat.
        self.ts += 1;
        self.board.write_mine(ctx, self.ts).await;

        let u = ctx.query_fd().await;
        if u != all {
            // Proper subset: Υ¹'s range forces |U| = n, so the complement
            // is a singleton — elect it.
            u.complement(n_plus_1)
                .min()
                .expect("complement of a proper subset")
        } else {
            let stamps = self.board.collect(ctx).await;
            elect_from_timestamps(&stamps)
        }
    }
}

async fn extraction_loop(ctx: &mut Ctx<ProcessSet>) {
    let mut elector = Upsilon1Elector::new(ctx.n_plus_1());
    let mut published: Option<ProcessId> = None;
    // #[conform(bound = "B")]
    loop {
        let leader = elector.step(ctx).await;
        if published != Some(leader) {
            ctx.output(Output::Leader(leader)).await;
            published = Some(leader);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upsilon_fd::{check_omega, UpsilonChoice, UpsilonOracle};
    use upsilon_sim::{FailurePattern, Run, SeededRandom, SimBuilder, Time};

    fn run_extraction(
        pattern: &FailurePattern,
        choice: UpsilonChoice,
        stab: Time,
        seed: u64,
    ) -> Run<ProcessSet> {
        let oracle = UpsilonOracle::new(pattern, 1, choice, stab, seed);
        SimBuilder::<ProcessSet>::new(pattern.clone())
            .oracle(oracle)
            .adversary(SeededRandom::new(seed))
            .max_steps(40_000)
            .spawn_all(|_| upsilon1_to_omega_algorithm())
            .run()
            .run
    }

    fn leader_samples(run: &Run<ProcessSet>) -> Vec<(Time, ProcessId, ProcessId)> {
        let published: Vec<_> = run
            .outputs()
            .iter()
            .filter_map(|(t, p, o)| match o {
                Output::Leader(l) => Some((*t, *p, *l)),
                _ => None,
            })
            .collect();
        // The elected leader is a held variable: extend each process's last
        // value to the end of the run.
        upsilon_fd::spec::held_variable_samples(run.n_plus_1(), &published, Time(run.total_steps()))
    }

    #[test]
    fn proper_subset_case_elects_the_excluded_process() {
        // Failure-free: Υ¹ must output a proper subset (Π = correct is
        // illegal), whose complement is elected.
        let pattern = FailurePattern::failure_free(4);
        let run = run_extraction(&pattern, UpsilonChoice::ComplementOfCorrect, Time(60), 3);
        let samples = leader_samples(&run);
        let report = check_omega(&pattern, &samples, 1).expect("valid Ω extraction");
        // ComplementOfCorrect excludes the smallest correct process, p1.
        assert_eq!(report.value, ProcessId(0));
    }

    #[test]
    fn full_set_case_elects_via_timestamps() {
        // One crash and U = Π: the frozen timestamp of the crashed process
        // drops out of the top-n, and the smallest correct id wins.
        let pattern = FailurePattern::builder(4)
            .crash(ProcessId(0), Time(50))
            .build();
        let run = run_extraction(&pattern, UpsilonChoice::All, Time(100), 5);
        let samples = leader_samples(&run);
        let report = check_omega(&pattern, &samples, 1).expect("valid Ω extraction");
        assert_eq!(report.value, ProcessId(1), "smallest-id correct process");
    }

    #[test]
    fn works_across_seeds_and_patterns() {
        for seed in 0..6u64 {
            for pattern in [
                FailurePattern::failure_free(3),
                FailurePattern::builder(3)
                    .crash(ProcessId(1), Time(40))
                    .build(),
                FailurePattern::builder(3)
                    .crash(ProcessId(2), Time(70))
                    .build(),
            ] {
                for choice in [UpsilonChoice::ComplementOfCorrect, UpsilonChoice::All] {
                    let run = run_extraction(&pattern, choice, Time(120), seed);
                    let samples = leader_samples(&run);
                    check_omega(&pattern, &samples, 1)
                        .unwrap_or_else(|e| panic!("{pattern} {choice:?} seed {seed}: {e}"));
                }
            }
        }
    }

    #[test]
    fn election_function_prefers_high_timestamps_then_small_ids() {
        assert_eq!(elect_from_timestamps(&[10, 3, 8]), ProcessId(0));
        assert_eq!(elect_from_timestamps(&[1, 9, 8]), ProcessId(1));
        // The frozen (smallest) stamp is excluded even when it belongs to p1.
        assert_eq!(elect_from_timestamps(&[0, 9, 8, 7]), ProcessId(1));
        // Ties favour smaller ids for membership.
        assert_eq!(elect_from_timestamps(&[5, 5, 5]), ProcessId(0));
    }
}
