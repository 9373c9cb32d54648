//! The paper's Fig. 3: transforming any stable f-non-trivial failure
//! detector `D` into Υ^f (§6.3, Theorem 10).
//!
//! Every process runs two conceptual tasks, interleaved fairly here in one
//! loop (our processes are single automata; a strict alternation of task
//! steps is one legal scheduling of the paper's two parallel tasks):
//!
//! * **Task 1** — query the local module of `D` and publish the value with
//!   an ever-increasing timestamp in a register `R[i]`.
//! * **Task 2** — proceed in *rounds*. A round is based on the value `d`
//!   the process currently observes from its own module:
//!   1. set the emulated output `Υ^f-output_i := Π`;
//!   2. compute `(S, w) = φ_D(d)`;
//!   3. if `S = Π`, just wait for instability (some report with a value
//!      `≠ d`), then restart;
//!   4. otherwise wait until `w` *batches* are observed (in every batch,
//!      every process wrote at least two fresh `d`-reports — certifying a
//!      fresh query step returning `d` per process per batch), publish
//!      `Υ^f-output_i := S`, and wait for instability.
//!
//! Waiting forever in step 3/4 keeps the output at `Π` (or `S`), which is
//! correct: a batch that never completes means some process stopped
//! reporting, i.e. crashed, so `correct(F) ≠ Π`; and completed batches make
//! the non-sample σ embeddable into the actual run, so `S ≠ correct(F)`
//! (Theorem 10's two cases). Observed instability is shared through a
//! register `Unstable[m]` so one process's observation frees all blocked
//! peers; since `D` is stable, restarts eventually cease and all correct
//! processes converge on the same final announcement.

use crate::phi::PhiMap;
use upsilon_mem::{Register, RegisterArray};
use upsilon_sim::{algo, AlgoFn, Ctx, FdValue, Key, Output, ProcessSet};

/// Builds the Fig. 3 extraction algorithm for one process, for a detector
/// with value type `D` and witness map `phi`.
///
/// The algorithm never returns: it keeps emulating Υ^f forever. Run it
/// under a step budget and validate the published `LeaderSet` outputs with
/// [`upsilon_fd::check_upsilon_f`].
pub fn extraction_algorithm<D>(phi: PhiMap<D>) -> AlgoFn<D>
where
    D: FdValue + Eq,
{
    algo(move |mut ctx| async move { extraction_loop(&mut ctx, &phi).await })
}

/// Publishes `set` as the current emulated Υ^f output if it differs from
/// the last published value.
async fn publish<D: FdValue>(ctx: &mut Ctx<D>, last: &mut Option<ProcessSet>, set: ProcessSet) {
    if *last != Some(set) {
        ctx.output(Output::LeaderSet(set)).await;
        *last = Some(set);
    }
}

// Each task of the Fig. 3 client is wait-free: every iteration of both
// loops completes in a bounded number of steps (Theorem 10's waits are
// step-taking loops, not blocking). R is the number of rounds a recorded
// run restarts through, B the heartbeat iterations of its longest round;
// the dynamic cross-check binds both from run data.
// #[conform(wait_free)]
async fn extraction_loop<D>(ctx: &mut Ctx<D>, phi: &PhiMap<D>)
where
    D: FdValue + Eq,
{
    let n_plus_1 = ctx.n_plus_1();
    let all = ProcessSet::all(n_plus_1);
    let reports = RegisterArray::<Option<(u64, D)>>::new(Key::new("R"), n_plus_1, None);
    let mut ts: u64 = 0;
    let mut round: u64 = 0;
    let mut last_published: Option<ProcessSet> = None;

    // #[conform(bound = "R")]
    loop {
        round += 1;
        let unstable = Register::<bool>::new(Key::new("Unstable").at(round), false);
        let batches_done = Register::<bool>::new(Key::new("Batches").at(round), false);

        // Base value of the round, reported immediately (Task 1).
        let d = ctx.query_fd().await;
        ts += 1;
        reports.write_mine(ctx, Some((ts, d.clone()))).await;

        // Line 8: reset the emulated output to Π.
        publish(ctx, &mut last_published, all).await;

        let witness = (phi)(&d);
        // If S = Π there is nothing to announce beyond Π itself.
        let mut announced = witness.s == all;

        // Round-start baseline: only reports *newer* than these timestamps
        // count — the paper detects a "new failure detector value" by
        // waiting for the reporter's timestamp to increase, so a stale
        // report (e.g. from a crashed process) never triggers a restart.
        let baseline: Vec<u64> = reports
            .collect(ctx)
            .await
            .iter()
            .map(|c| c.as_ref().map_or(0, |(t, _)| *t))
            .collect();

        let mut batch_count: usize = 0;
        // Timestamps at the start of the current batch, per process.
        let mut batch_base = baseline.clone();

        // Announce immediately if no batches are required.
        if !announced && witness.w == 0 {
            batches_done.write(ctx, true).await;
            publish(ctx, &mut last_published, witness.s).await;
            announced = true;
        }

        // #[conform(bound = "B")]
        'round: loop {
            // Task 1 heartbeat: keep reporting the current value.
            let d_now = ctx.query_fd().await;
            ts += 1;
            reports.write_mine(ctx, Some((ts, d_now.clone()))).await;
            if d_now != d {
                unstable.write(ctx, true).await;
                break 'round;
            }
            if unstable.read(ctx).await {
                break 'round;
            }

            // Observe everyone's reports; a *fresh* report carrying a value
            // other than d means D has not stabilized on d.
            let snap = reports.collect(ctx).await;
            let fresh_change = snap
                .iter()
                .enumerate()
                .any(|(j, c)| c.as_ref().is_some_and(|(t, v)| *t > baseline[j] && v != &d));
            if fresh_change {
                unstable.write(ctx, true).await;
                break 'round;
            }

            if announced {
                continue;
            }

            // Did someone else complete the batches?
            if batches_done.read(ctx).await {
                publish(ctx, &mut last_published, witness.s).await;
                announced = true;
                continue;
            }

            // Batch accounting: a batch completes when every process has
            // written at least two fresh d-reports since the batch began
            // (each write is preceded by a query returning d, so a batch
            // certifies one fresh (q_j, d) query step per process).
            let current: Vec<u64> = snap
                .iter()
                .map(|c| c.as_ref().map_or(0, |(t, _)| *t))
                .collect();
            if batch_base.iter().zip(&current).all(|(b, c)| *c >= b + 2) {
                batch_count += 1;
                batch_base = current;
                if batch_count >= witness.w {
                    batches_done.write(ctx, true).await;
                    publish(ctx, &mut last_published, witness.s).await;
                    announced = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phi::{phi_omega, phi_omega_k, phi_perfect};
    use upsilon_fd::{
        check_upsilon_f, EventuallyPerfectOracle, LeaderChoice, OmegaKChoice, OmegaKOracle,
        OmegaOracle, PerfectOracle,
    };
    use upsilon_sim::{FailurePattern, Oracle, ProcessId, Run, SeededRandom, SimBuilder, Time};

    /// Runs the extraction under `oracle` and returns the published
    /// LeaderSet outputs as spec-checker samples.
    fn run_extraction<D: FdValue + Eq>(
        pattern: &FailurePattern,
        oracle: impl Oracle<D> + 'static,
        phi: PhiMap<D>,
        steps: u64,
        seed: u64,
    ) -> Run<D> {
        SimBuilder::<D>::new(pattern.clone())
            .oracle(oracle)
            .adversary(SeededRandom::new(seed))
            .max_steps(steps)
            .spawn_all(|_| extraction_algorithm(phi.clone()))
            .run()
            .run
    }

    fn emulated_samples<D: FdValue>(run: &Run<D>) -> Vec<(Time, ProcessId, ProcessSet)> {
        let published: Vec<_> = run
            .outputs()
            .iter()
            .filter_map(|(t, p, o)| match o {
                Output::LeaderSet(s) => Some((*t, *p, *s)),
                _ => None,
            })
            .collect();
        // Υ^f-output is a held variable (Fig. 3 publishes only on change):
        // extend each process's last value to the end of the run.
        upsilon_fd::spec::held_variable_samples(run.n_plus_1(), &published, Time(run.total_steps()))
    }

    #[test]
    fn extracts_upsilon_from_omega_failure_free() {
        // With everyone alive the w = 1 batch completes and the extraction
        // announces the complement of the stable leader.
        let pattern = FailurePattern::failure_free(3);
        let oracle = OmegaOracle::new(&pattern, LeaderChoice::MinCorrect, Time(100), 1);
        let expected = ProcessSet::singleton(oracle.leader()).complement(3);
        let run = run_extraction(&pattern, oracle, phi_omega(3), 30_000, 1);
        let samples = emulated_samples(&run);
        let report = check_upsilon_f(&pattern, 2, &samples, 1).expect("valid extraction");
        assert_eq!(
            report.value, expected,
            "Ω extraction converges to the complement"
        );
    }

    #[test]
    fn extracts_upsilon_from_omega_crash_before_stabilization() {
        // The crashed process never contributes fresh d-reports, so the
        // batch never completes and the output stays Π — legal, because
        // correct(F) ≠ Π (Theorem 10's blocked-wait case).
        let pattern = FailurePattern::builder(3)
            .crash(ProcessId(0), Time(40))
            .build();
        let oracle = OmegaOracle::new(&pattern, LeaderChoice::MinCorrect, Time(100), 2);
        let run = run_extraction(&pattern, oracle, phi_omega(3), 30_000, 2);
        let samples = emulated_samples(&run);
        let report = check_upsilon_f(&pattern, 2, &samples, 1).expect("valid extraction");
        assert_eq!(report.value, ProcessSet::all(3));
    }

    #[test]
    fn extracts_upsilon_from_omega_crash_after_announcement() {
        // The crash comes long after stabilization: the batch completed
        // while everyone was alive, the complement was announced, and a
        // later crash does not disturb it (stale reports are not "new
        // values").
        let pattern = FailurePattern::builder(3)
            .crash(ProcessId(2), Time(8_000))
            .build();
        let oracle = OmegaOracle::new(&pattern, LeaderChoice::MinCorrect, Time(100), 3);
        let expected = ProcessSet::singleton(oracle.leader()).complement(3);
        let run = run_extraction(&pattern, oracle, phi_omega(3), 40_000, 3);
        let samples = emulated_samples(&run);
        let report = check_upsilon_f(&pattern, 2, &samples, 1).expect("valid extraction");
        assert_eq!(report.value, expected);
    }

    #[test]
    fn extracts_upsilon_f_from_omega_f() {
        let pattern = FailurePattern::builder(4)
            .crash(ProcessId(1), Time(9_000))
            .build();
        for f in 2..=3usize {
            let oracle = OmegaKOracle::new(&pattern, f, OmegaKChoice::default(), Time(80), 7);
            let expected = oracle.stable_set().complement(4);
            let run = run_extraction(&pattern, oracle, phi_omega_k(4), 60_000, 7);
            let samples = emulated_samples(&run);
            let report =
                check_upsilon_f(&pattern, f, &samples, 1).unwrap_or_else(|e| panic!("f={f}: {e}"));
            assert_eq!(report.value, expected, "f={f}: batches completed pre-crash");
        }
    }

    #[test]
    fn extracts_upsilon_from_perfect_detector() {
        // P in a run with crashes: stable value is faulty(F) ≠ ∅, so the
        // extraction announces Π (legal since correct(F) ≠ Π).
        let pattern = FailurePattern::builder(3)
            .crash(ProcessId(1), Time(20))
            .build();
        let oracle = PerfectOracle::new(&pattern);
        let run = run_extraction(&pattern, oracle, phi_perfect(3), 30_000, 11);
        let samples = emulated_samples(&run);
        let report = check_upsilon_f(&pattern, 2, &samples, 1).expect("P extraction");
        assert_eq!(report.value, ProcessSet::all(3));
    }

    #[test]
    fn extracts_upsilon_from_perfect_detector_failure_free() {
        // P in a failure-free run: stable value ∅, witness (Π − {p1}, 1);
        // batches complete since everyone keeps reporting ∅.
        let pattern = FailurePattern::failure_free(3);
        let oracle = PerfectOracle::new(&pattern);
        let run = run_extraction(&pattern, oracle, phi_perfect(3), 30_000, 13);
        let samples = emulated_samples(&run);
        let report = check_upsilon_f(&pattern, 2, &samples, 1).expect("failure-free P");
        assert_eq!(
            report.value,
            ProcessSet::singleton(ProcessId(0)).complement(3),
            "the announced witness set excludes p1, which is correct — legal"
        );
    }

    #[test]
    fn extracts_upsilon_from_eventually_perfect_with_noise() {
        let pattern = FailurePattern::builder(4)
            .crash(ProcessId(3), Time(60))
            .build();
        let oracle = EventuallyPerfectOracle::new(&pattern, Time(250), 17);
        let run = run_extraction(&pattern, oracle, phi_perfect(4), 60_000, 17);
        let samples = emulated_samples(&run);
        let report = check_upsilon_f(&pattern, 3, &samples, 1).expect("◇P extraction");
        assert_eq!(report.value, ProcessSet::all(4));
    }

    #[test]
    fn local_stability_is_not_enough_the_boundary_of_theorem_10() {
        // Footnote 2 of the paper notes the *lower bounds* also hold for
        // locally stable detectors; the *positive* Fig. 3 construction,
        // however, needs global stability. With a detector whose processes
        // stabilize on different values, the extraction keeps observing
        // "new" values and restarting: in a failure-free run its output
        // sits at Π = correct(F) forever — a Υ violation. This is why
        // Theorem 10 is stated for stable detectors.
        use upsilon_fd::LocallyStableUpsilonOracle;
        let pattern = FailurePattern::failure_free(3);
        let oracle = LocallyStableUpsilonOracle::new(&pattern, 2, Time(30), 7);
        assert!(oracle.is_genuinely_divergent());
        // φ for set-valued outputs: reuse the Ω_k complement map shape
        // (|d| = 2 here, so S = Π − d, w = 2) — a fine witness map for any
        // *stable* detector of this range.
        let run = run_extraction(&pattern, oracle, phi_omega_k(3), 30_000, 7);
        let samples = emulated_samples(&run);
        let verdict = check_upsilon_f(&pattern, 2, &samples, 1);
        assert!(
            verdict.is_err(),
            "locally-stable input must break the extraction: {verdict:?}"
        );
    }

    #[test]
    fn extraction_is_deterministic() {
        let pattern = FailurePattern::builder(3)
            .crash(ProcessId(0), Time(30))
            .build();
        let mk = || {
            let oracle = OmegaOracle::new(&pattern, LeaderChoice::MinCorrect, Time(90), 23);
            run_extraction(&pattern, oracle, phi_omega(3), 20_000, 23)
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.outputs(), b.outputs());
    }

    #[test]
    fn output_while_unstable_is_pi() {
        // Before D stabilizes, the only announcements are Π or witness sets
        // of observed values; all are legal Υ^f range values (size ≥ n).
        let pattern = FailurePattern::failure_free(3);
        let oracle = OmegaOracle::new(&pattern, LeaderChoice::MinCorrect, Time(400), 29);
        let run = run_extraction(&pattern, oracle, phi_omega(3), 20_000, 29);
        for (_, _, s) in emulated_samples(&run) {
            assert!(s.len() >= 2, "all published sets respect the Υ range: {s}");
        }
    }
}
