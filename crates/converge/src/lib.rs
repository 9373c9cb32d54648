//! # upsilon-converge
//!
//! The `k-converge` routine (Yang, Neiger, Gafni \[21\]) used by the paper's
//! set-agreement protocols (§5.1):
//!
//! > A process calls k-converge with an input value in `V` and gets back an
//! > output value `v ∈ V` and a boolean `c`. We say that the process *picks*
//! > `v` and, if `c = true`, that it *commits* `v`. The routine ensures:
//! > (1) **C-Termination**: every correct process picks some value;
//! > (2) **C-Validity**: if a process picks `v` then some process invoked
//! > k-converge with `v`; (3) **C-Agreement**: if some process commits to a
//! > value, then at most `k` values are picked; (4) **Convergence**: if
//! > there are at most `k` different input values, then every process that
//! > picks a value commits. … By definition, `0-converge(v)` always returns
//! > `(v, false)`.
//!
//! ## Implementation
//!
//! A wait-free two-phase generalized commit–adopt over atomic snapshots
//! (themselves register-implementable, see `upsilon-mem`):
//!
//! 1. write your input to snapshot `S1`, scan it; call yourself **clean** if
//!    the scan holds at most `k` distinct values;
//! 2. write `(input, clean)` to snapshot `S2`, scan it;
//!    * every observed entry clean → **commit** your own input;
//!    * some observed entry clean → **adopt** the smallest clean value seen;
//!    * no clean entry → keep your own input, uncommitted.
//!
//! Why the properties hold (the `k = 1` case is the classic commit–adopt
//! argument):
//!
//! * *C-Agreement.* Scans of `S1` are totally ordered by containment; the
//!   largest clean scan `S*` contains every clean process's own input, so at
//!   most `k` distinct **clean values** exist. Let `r` be the first process
//!   to write `S2` (in linearization order): `r`'s entry is in every `S2`
//!   scan (each scan follows the scanner's own write, which follows `r`'s).
//!   If anyone commits, its all-clean scan contains `r`'s entry, so `r` is
//!   clean — hence *every* process observes a clean entry and picks a clean
//!   value (committers pick their own input, and an all-clean scan includes
//!   their own entry, so that input is clean too). At most `k` values are
//!   picked.
//! * *Convergence.* With ≤ `k` distinct inputs every `S1` scan has ≤ `k`
//!   distinct values, so everyone is clean and every `S2` scan is all-clean.
//! * *C-Termination / C-Validity.* Two updates and two scans of wait-free
//!   snapshots; only input values are ever written.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use upsilon_mem::{distinct_values, FlavoredSnapshot, Snapshot, SnapshotFlavor, Value};
use upsilon_sim::{Ctx, FdValue, Key, ProcessId};

/// Deliberate correctness faults injectable into a [`ConvergeInstance`] —
/// the seeded mutants the `upsilon-fuzz` mutation-detection suite (and any
/// future mutation-testing sweep) must rediscover. The default is the
/// faithful routine; every fault breaks exactly one step of the §5.1
/// C-Agreement argument:
///
/// * [`drop_announce`](ConvergeFaults::drop_announce) removes one
///   process's phase-1 announcement, so the largest clean scan no longer
///   contains every clean process's input and more than `k` clean values
///   can coexist;
/// * [`clean_slack`](ConvergeFaults::clean_slack) weakens the cleanliness
///   test from `≤ k` to `≤ k + slack` distinct values — the classic
///   off-by-one (`slack = 1`) lets `k + 1` values commit.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct ConvergeFaults {
    /// This process skips its phase-1 write (its input stays invisible to
    /// other scanners). `None` injects nothing.
    pub drop_announce: Option<ProcessId>,
    /// Added to `k` in the cleanliness comparison (`0` = faithful).
    pub clean_slack: usize,
}

impl ConvergeFaults {
    /// No injected faults: the faithful routine.
    pub const NONE: ConvergeFaults = ConvergeFaults {
        drop_announce: None,
        clean_slack: 0,
    };
}

/// One named instance of the k-converge routine, shared by all processes
/// that build a handle with the same key (e.g. `converge[r][k]` in Fig. 1).
///
/// ```no_run
/// # use upsilon_converge::ConvergeInstance;
/// # use upsilon_sim::{Ctx, Key};
/// # async fn algorithm(ctx: &mut Ctx<()>) {
/// let inst = ConvergeInstance::new(Key::new("converge").at(1), 4, Default::default());
/// let (picked, committed) = inst.converge(ctx, 2, 7).await; // 2-converge(7)
/// # let _ = (picked, committed); }
/// ```
#[derive(Clone, Debug)]
pub struct ConvergeInstance {
    base: Key,
    n_plus_1: usize,
    flavor: SnapshotFlavor,
    faults: ConvergeFaults,
}

impl ConvergeInstance {
    /// A handle to the instance named `base` for a system of `n_plus_1`
    /// processes, using the given snapshot implementation.
    pub fn new(base: Key, n_plus_1: usize, flavor: SnapshotFlavor) -> Self {
        ConvergeInstance {
            base,
            n_plus_1,
            flavor,
            faults: ConvergeFaults::NONE,
        }
    }

    /// The same instance with deliberate faults injected — for seeded
    /// mutants in fuzzing and mutation tests only; never call this from a
    /// protocol.
    pub fn with_faults(mut self, faults: ConvergeFaults) -> Self {
        self.faults = faults;
        self
    }

    /// The instance's base key.
    pub fn key(&self) -> &Key {
        &self.base
    }

    /// Runs `k-converge(v)`: returns the picked value and whether it was
    /// committed.
    ///
    /// `0-converge(v)` returns `(v, false)` without taking any step, per the
    /// paper's definition.
    // C-Termination: two updates and two scans of wait-free snapshots.
    // #[conform(wait_free)]
    pub async fn converge<D, T>(&self, ctx: &mut Ctx<D>, k: usize, v: T) -> (T, bool)
    where
        D: FdValue,
        T: Value + Ord,
    {
        if k == 0 {
            return (v, false);
        }
        let s1 = FlavoredSnapshot::<T>::new(self.flavor, self.base.at(0), self.n_plus_1);
        let s2 = FlavoredSnapshot::<(T, bool)>::new(self.flavor, self.base.at(1), self.n_plus_1);

        // Phase 1: publish the input; clean iff at most k distinct inputs
        // are visible.
        if self.faults.drop_announce != Some(ctx.pid()) {
            s1.update(ctx, v.clone()).await;
        }
        let scan1 = s1.scan(ctx).await;
        let clean = distinct_values(&scan1).len() <= k + self.faults.clean_slack;

        // Phase 2: publish (input, clean); decide from the observed flags.
        s2.update(ctx, (v.clone(), clean)).await;
        let scan2 = s2.scan(ctx).await;
        let entries: Vec<&(T, bool)> = scan2.iter().flatten().collect();
        debug_assert!(!entries.is_empty(), "own phase-2 entry is always visible");

        if entries.iter().all(|(_, c)| *c) {
            return (v, true);
        }
        let min_clean = entries
            .iter()
            .filter(|(_, c)| *c)
            .map(|(w, _)| w.clone())
            .min();
        match min_clean {
            Some(w) => (w, false),
            None => (v, false),
        }
    }
}

/// The classic commit–adopt routine: `1-converge`.
///
/// If some process commits `v`, every process picks `v`; if all inputs are
/// equal, every process commits.
// #[conform(wait_free)]
pub async fn commit_adopt<D, T>(instance: &ConvergeInstance, ctx: &mut Ctx<D>, v: T) -> (T, bool)
where
    D: FdValue,
    T: Value + Ord,
{
    instance.converge(ctx, 1, v).await
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};
    use upsilon_sim::{algo, FailurePattern, ProcessId, SeededRandom, SimBuilder, Time};

    /// Runs one k-converge instance with the given inputs under a seeded
    /// random schedule and returns each process's (picked, committed).
    fn run_converge(
        inputs: &[u64],
        k: usize,
        seed: u64,
        flavor: SnapshotFlavor,
        crash: Option<(ProcessId, Time)>,
    ) -> Vec<Option<(u64, bool)>> {
        let n = inputs.len();
        #[allow(clippy::type_complexity)]
        let results: Arc<Mutex<Vec<Option<(u64, bool)>>>> = Arc::new(Mutex::new(vec![None; n]));
        let results2 = Arc::clone(&results);
        let mut pattern = FailurePattern::failure_free(n);
        if let Some((p, t)) = crash {
            pattern = FailurePattern::builder(n).crash(p, t).build();
        }
        let inputs = inputs.to_vec();
        let _ = SimBuilder::<()>::new(pattern)
            .adversary(SeededRandom::new(seed))
            .spawn_all(move |pid| {
                let results = Arc::clone(&results2);
                let v = inputs[pid.index()];
                algo(move |mut ctx| async move {
                    let inst = ConvergeInstance::new(Key::new("cv"), ctx.n_plus_1(), flavor);
                    let out = inst.converge(&mut ctx, k, v).await;
                    results.lock().unwrap()[pid.index()] = Some(out);
                })
            })
            .run();
        Arc::try_unwrap(results).unwrap().into_inner().unwrap()
    }

    fn check_properties(inputs: &[u64], k: usize, outs: &[Option<(u64, bool)>], ctx_msg: &str) {
        let picked: Vec<u64> = outs.iter().flatten().map(|(v, _)| *v).collect();
        // C-Validity.
        for v in &picked {
            assert!(
                inputs.contains(v),
                "{ctx_msg}: picked {v} was never proposed"
            );
        }
        // C-Agreement.
        if outs.iter().flatten().any(|(_, c)| *c) {
            let mut distinct = picked.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert!(
                distinct.len() <= k,
                "{ctx_msg}: someone committed but {} values picked (k = {k})",
                distinct.len()
            );
        }
        // Convergence.
        let mut distinct_inputs = inputs.to_vec();
        distinct_inputs.sort_unstable();
        distinct_inputs.dedup();
        if distinct_inputs.len() <= k {
            for (i, o) in outs.iter().enumerate() {
                if let Some((_, c)) = o {
                    assert!(c, "{ctx_msg}: p{} picked without committing", i + 1);
                }
            }
        }
    }

    #[test]
    fn zero_converge_returns_input_uncommitted() {
        let outs = run_converge(&[3, 9], 0, 1, SnapshotFlavor::Native, None);
        assert_eq!(outs, vec![Some((3, false)), Some((9, false))]);
    }

    #[test]
    fn identical_inputs_commit_for_any_k() {
        for k in 1..=3usize {
            let outs = run_converge(&[7, 7, 7], k, 2, SnapshotFlavor::Native, None);
            assert!(
                outs.iter().all(|o| *o == Some((7, true))),
                "k={k}: {outs:?}"
            );
        }
    }

    #[test]
    fn solo_run_commits() {
        // C-Termination + Convergence with one participant.
        let results: Arc<Mutex<Option<(u64, bool)>>> = Arc::new(Mutex::new(None));
        let results2 = Arc::clone(&results);
        let _ = SimBuilder::<()>::new(FailurePattern::failure_free(3))
            .spawn(
                ProcessId(1),
                algo(move |mut ctx| async move {
                    let inst = ConvergeInstance::new(Key::new("cv"), 3, SnapshotFlavor::Native);
                    let out = inst.converge(&mut ctx, 1, 42).await;
                    *results2.lock().unwrap() = Some(out);
                }),
            )
            .run();
        assert_eq!(*results.lock().unwrap(), Some((42, true)));
    }

    #[test]
    fn properties_hold_across_seeds_and_input_mixes() {
        let cases: &[(&[u64], usize)] = &[
            (&[1, 2, 3], 2),
            (&[1, 2, 3], 1),
            (&[1, 1, 2], 2),
            (&[1, 2, 3, 4], 3),
            (&[5, 5, 5, 5], 2),
            (&[1, 2, 1, 2], 2),
            (&[9, 8, 7, 6, 5], 4),
        ];
        for (inputs, k) in cases {
            for seed in 0..15u64 {
                let outs = run_converge(inputs, *k, seed, SnapshotFlavor::Native, None);
                assert!(outs.iter().all(|o| o.is_some()), "C-Termination");
                check_properties(
                    inputs,
                    *k,
                    &outs,
                    &format!("inputs={inputs:?} k={k} seed={seed}"),
                );
            }
        }
    }

    #[test]
    fn properties_hold_on_register_based_snapshots() {
        for seed in 0..6u64 {
            let inputs = [4u64, 4, 9];
            let outs = run_converge(&inputs, 2, seed, SnapshotFlavor::RegisterBased, None);
            assert!(outs.iter().all(|o| o.is_some()));
            check_properties(&inputs, 2, &outs, &format!("register-based seed={seed}"));
        }
    }

    #[test]
    fn survivors_still_pick_when_a_process_crashes_mid_routine() {
        for seed in 0..10u64 {
            let inputs = [1u64, 2, 3];
            let outs = run_converge(
                &inputs,
                2,
                seed,
                SnapshotFlavor::Native,
                Some((ProcessId(0), Time(3))),
            );
            assert!(
                outs[1].is_some() && outs[2].is_some(),
                "wait-freedom, seed {seed}"
            );
            check_properties(&inputs, 2, &outs, &format!("crash seed={seed}"));
        }
    }

    #[test]
    fn convergence_kicks_in_exactly_at_k_distinct_inputs() {
        // 3 distinct inputs: 3-converge must commit everywhere; 2-converge
        // need not (and when someone commits, ≤ 2 values survive).
        let inputs = [10u64, 20, 30];
        let outs3 = run_converge(&inputs, 3, 4, SnapshotFlavor::Native, None);
        assert!(
            outs3.iter().all(|o| o.expect("picked").1),
            "3-converge commits"
        );
        for seed in 0..10u64 {
            let outs2 = run_converge(&inputs, 2, seed, SnapshotFlavor::Native, None);
            check_properties(&inputs, 2, &outs2, &format!("k=2 seed={seed}"));
        }
    }

    #[test]
    fn commit_adopt_agreement() {
        // If some process commits v in 1-converge, every process picks v.
        for seed in 0..20u64 {
            let inputs = [1u64, 2];
            let outs = run_converge(&inputs, 1, seed, SnapshotFlavor::Native, None);
            let committed: Vec<u64> = outs
                .iter()
                .flatten()
                .filter(|(_, c)| *c)
                .map(|(v, _)| *v)
                .collect();
            if let Some(&v) = committed.first() {
                assert!(
                    outs.iter().flatten().all(|(w, _)| *w == v),
                    "seed {seed}: commit of {v} must force everyone to pick it: {outs:?}"
                );
            }
        }
    }

    #[test]
    fn sequential_invocations_commit() {
        // Processes running one after the other (no concurrency) always
        // commit: the first writes its value, later ones adopt-commit it or
        // their own depending on k.
        let outs = run_converge(&[8, 3], 1, 0, SnapshotFlavor::Native, None);
        check_properties(&[8, 3], 1, &outs, "round-robin k=1");
    }
}
