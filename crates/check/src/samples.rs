//! Ready-made exploration configurations over the paper's artifacts.
//!
//! **Entry path.** These constructors are the single source of truth for
//! what each workload *is*. Test suites call them directly, and the
//! `upsilon-scenario` registry calls them when it resolves a checked-in
//! `scenarios/*.toml` cell, with axis choices taken from the declarative
//! layer; `crates/scenario/tests/parity.rs` checks that both paths give
//! the same reports. New workloads get a registry entry and a scenario
//! file when a matrix should run them. Constructors panic on axes
//! [`shape`] rejects; callers holding outside input check it first.
//!
//! Three families:
//!
//! * [`fig1`] / [`fig1_mutating`] — the paper's Fig. 1 protocol under a
//!   faithful (respectively, temporarily lying) Υ. Fig. 1's safety does not
//!   depend on Υ at all (§5.2), so *no* schedule, crash scenario or
//!   detector mutation may violate `n`-set agreement — a strong soak test
//!   for both the protocol and the explorer.
//! * [`pinned_upsilon`] — the Theorem 1/5 adversary's pinned history
//!   `U = {p_1, …, p_n}` checked for per-run faithfulness: crashing
//!   `p_{n+1}` makes `correct(F) = U` and the pinned value stops being a
//!   legal Υ output. The explorer's crash injection finds this with a
//!   two-choice counterexample.
//! * [`snapshot_commit`] — a hand-rolled snapshot commit protocol whose
//!   `buggy` variant drops `p_1`'s announcement write, breaking the
//!   counting argument behind C-Agreement; the explorer produces a shrunk
//!   replayable token for the resulting k-set-agreement violation. The
//!   sound variant is safe in every schedule (the last announcing decider
//!   sees every decider's value).
//! * [`stable_report`] — the Fig. 1 instability-reporting fragment in
//!   isolation: same-value register write races, where the per-op-pair
//!   commutativity refinement of the conflict relation prunes.

use crate::explore::{positive, AlgoFactory, AxisError, CheckConfig};
use crate::menu::{ConstantMenu, MutatingMenu};
use std::sync::Arc;
use upsilon_agreement::fig1::{algorithms, Fig1Config};
use upsilon_agreement::fig2::{algorithms as fig2_algorithms, Fig2Config};
use upsilon_agreement::KSetAgreementSpec;
use upsilon_converge::{ConvergeFaults, ConvergeInstance};
use upsilon_extract::{pinned_history, UpsilonFaithfulSpec};
use upsilon_mem::{distinct_values, NativeSnapshot, Register, Snapshot};
use upsilon_sim::{algo, AlgoFn, Key, Output, ProcessId, ProcessSet};

/// Distinct proposals `0, 1, …, n` — the hard case for set agreement.
fn proposals(n_plus_1: usize) -> Vec<Option<u64>> {
    (0..n_plus_1).map(|i| Some(i as u64)).collect()
}

fn fig1_factory(n_plus_1: usize) -> AlgoFactory<ProcessSet> {
    let props = proposals(n_plus_1);
    Arc::new(move || {
        let mut algos: Vec<Option<AlgoFn<ProcessSet>>> = Vec::new();
        algos.resize_with(n_plus_1, || None);
        for (pid, a) in algorithms(Fig1Config::default(), &props) {
            algos[pid.index()] = Some(a);
        }
        algos
    })
}

/// Fig. 1 under a faithful pinned Υ history (`U = Π − {p_{n+1}}`), checked
/// for `n`-set agreement with up to `max_faults` injected crashes.
pub fn fig1(n_plus_1: usize, depth: usize, max_faults: usize) -> CheckConfig<ProcessSet> {
    assert_shape(shape(n_plus_1, None));
    let menu = Arc::new(ConstantMenu(pinned_history(n_plus_1)));
    CheckConfig::new(n_plus_1, depth, fig1_factory(n_plus_1), menu)
        .max_faults(max_faults)
        .spec(KSetAgreementSpec {
            k: n_plus_1 - 1,
            proposals: proposals(n_plus_1),
        })
}

/// Fig. 1 under a Υ that may additionally answer `Π` for each process's
/// first `budget` queries — exercises the explorer's detector-output
/// branching. Safety must still hold: Fig. 1 never trusts Υ for safety.
pub fn fig1_mutating(
    n_plus_1: usize,
    depth: usize,
    max_faults: usize,
    budget: usize,
) -> CheckConfig<ProcessSet> {
    assert_shape(shape(n_plus_1, None));
    let menu = Arc::new(MutatingMenu {
        base: pinned_history(n_plus_1),
        mutants: vec![ProcessSet::all(n_plus_1)],
        budget,
    });
    CheckConfig::new(n_plus_1, depth, fig1_factory(n_plus_1), menu)
        .max_faults(max_faults)
        .spec(KSetAgreementSpec {
            k: n_plus_1 - 1,
            proposals: proposals(n_plus_1),
        })
}

/// Fig. 2 (`f`-resilient `f`-set agreement from Υ^f, §6) under a faithful
/// pinned history, checked for `f`-set agreement. Like Fig. 1, safety never
/// trusts the detector, so exploration must come back clean.
pub fn fig2(n_plus_1: usize, f: usize, depth: usize, max_faults: usize) -> CheckConfig<ProcessSet> {
    assert_shape(shape(n_plus_1, Some(("f", f))));
    let menu = Arc::new(ConstantMenu(pinned_history(n_plus_1)));
    let props = proposals(n_plus_1);
    let factory: AlgoFactory<ProcessSet> = Arc::new(move || {
        let mut algos: Vec<Option<AlgoFn<ProcessSet>>> = Vec::new();
        algos.resize_with(n_plus_1, || None);
        for (pid, a) in fig2_algorithms(Fig2Config::new(f), &props) {
            algos[pid.index()] = Some(a);
        }
        algos
    });
    CheckConfig::new(n_plus_1, depth, factory, menu)
        .max_faults(max_faults)
        .spec(KSetAgreementSpec {
            k: f,
            proposals: proposals(n_plus_1),
        })
}

/// The adversary game's pinned constant history, checked for Υ^f
/// faithfulness under crash injection. With `max_faults ≥ 1` the explorer
/// finds the paper's pivot: crash `p_{n+1}` and the pinned `U` equals
/// `correct(F)`, which Υ forbids.
pub fn pinned_upsilon(n_plus_1: usize, f: usize, depth: usize) -> CheckConfig<ProcessSet> {
    assert_shape(shape(n_plus_1, Some(("f", f))));
    let menu = Arc::new(ConstantMenu(pinned_history(n_plus_1)));
    let factory: AlgoFactory<ProcessSet> = Arc::new(move || {
        (0..n_plus_1)
            .map(|_| {
                Some(algo(move |ctx| async move {
                    // #[conform(bound = "B")]
                    loop {
                        ctx.query_fd().await?;
                    }
                }))
            })
            .collect()
    });
    CheckConfig::new(n_plus_1, depth, factory, menu)
        .matrix(true)
        .max_faults(f)
        .spec(UpsilonFaithfulSpec::constant(f))
}

/// A one-shot snapshot commit protocol (the seeded-bug target):
///
/// 1. announce the proposal in snapshot `S1` — **dropped by `p_1` in the
///    buggy variant**;
/// 2. scan `S1`; the process is *clean* iff it saw at most `k` distinct
///    values;
/// 3. publish `(v, clean)` in snapshot `S2`;
/// 4. scan `S2`; decide the own value iff every published entry is clean,
///    otherwise spin forever (safety-only harness: non-deciders never
///    finish, so termination is vacuous on every explored prefix).
///
/// Soundness of the unbugged variant: among the deciders, the one whose
/// `S1` announcement is latest scans `S1` after every decider announced, so
/// it sees all their values; more than `k` distinct values would have made
/// it dirty and its own `S2` entry would block every decision, its own
/// included. Dropping `p_1`'s announcement removes its value from that
/// count, and `k + 1` distinct decisions become reachable.
pub fn snapshot_commit(n_plus_1: usize, k: usize, depth: usize, buggy: bool) -> CheckConfig<()> {
    assert_shape(shape(n_plus_1, Some(("k", k))));
    let factory: AlgoFactory<()> = Arc::new(move || {
        (0..n_plus_1)
            .map(|i| {
                let me = ProcessId(i);
                Some(algo(move |ctx| async move {
                    let v = me.index() as u64;
                    let s1 = NativeSnapshot::<u64>::new(Key::new("S1"), n_plus_1);
                    let s2 = NativeSnapshot::<(u64, bool)>::new(Key::new("S2"), n_plus_1);
                    if !(buggy && me.index() == 0) {
                        s1.update(&ctx, v).await?;
                    }
                    let seen = s1.scan(&ctx).await?;
                    let clean = distinct_values(&seen).len() <= k;
                    s2.update(&ctx, (v, clean)).await?;
                    let published = s2.scan(&ctx).await?;
                    if published.iter().flatten().all(|(_, c)| *c) {
                        ctx.decide(v).await?;
                        return Ok(());
                    }
                    // #[conform(bound = "B")]
                    loop {
                        ctx.yield_step().await?;
                    }
                }))
            })
            .collect()
    });
    let menu = Arc::new(ConstantMenu(()));
    CheckConfig::new(n_plus_1, depth, factory, menu).spec(KSetAgreementSpec {
        k,
        proposals: proposals(n_plus_1),
    })
}

/// The Fig. 1 **instability-reporting fragment** in isolation (protocol
/// lines 12–14): a process that sees the round destabilize publishes the
/// fact by writing `true` into the shared `Stable` register — every
/// reporter writes the *same* value, `reports` times each — then reads the
/// flag back and outputs it. The write races here are exactly the pattern
/// the per-op-pair commutativity matrix (`upsilon_sim::commute`) refines:
/// equal-value register writes commute, while the value-blind `Access`
/// lattice must order every write pair. Correctness is just the §3.3 run
/// conditions (always checked); the interesting number is explored states,
/// pinned with the matrix on and off by the check crate's
/// `turbo_differential` suite.
pub fn stable_report(n_plus_1: usize, reports: usize, depth: usize) -> CheckConfig<()> {
    assert_shape(shape(n_plus_1, None).and_then(|()| positive("reports", reports as u64)));
    let factory: AlgoFactory<()> = Arc::new(move || {
        (0..n_plus_1)
            .map(|_| {
                Some(algo(move |ctx| async move {
                    let stable = Register::new(Key::new("Stable"), false);
                    // #[conform(bound = "B")]
                    for _ in 0..reports {
                        stable.write(&ctx, true).await?;
                    }
                    let flag = stable.read(&ctx).await?;
                    ctx.output(Output::Value(u64::from(flag))).await?;
                    Ok(())
                }))
            })
            .collect()
    });
    let menu = Arc::new(ConstantMenu(()));
    CheckConfig::new(n_plus_1, depth, factory, menu).matrix(true)
}

/// The **off-by-one mutant** of the k-converge commit check: each process
/// runs one `k`-converge over distinct proposals with
/// [`ConvergeFaults::clean_slack`]` = slack`, decides the picked value iff
/// it committed, and spins otherwise (safety-only harness, like
/// [`snapshot_commit`]).
///
/// With `slack = 0` this is the faithful routine, whose Convergence
/// argument makes committed values number at most `k` — every exploration
/// comes back clean. With `slack = 1` the cleanliness test accepts `k + 1`
/// distinct values, so schedules where `k + 1` processes each scan before
/// the `(k+2)`-th announces let `k + 1` distinct values commit — but fully
/// interleaved schedules still come back dirty, which makes the violation
/// genuinely schedule-dependent (a search target, not a constant failure).
pub fn converge_offby1(n_plus_1: usize, k: usize, depth: usize, slack: usize) -> CheckConfig<()> {
    assert_shape(shape(n_plus_1, Some(("k", k))));
    let faults = ConvergeFaults {
        drop_announce: None,
        clean_slack: slack,
    };
    let factory: AlgoFactory<()> = Arc::new(move || {
        (0..n_plus_1)
            .map(|i| {
                let me = ProcessId(i);
                Some(algo(move |ctx| async move {
                    let inst =
                        ConvergeInstance::new(Key::new("conv"), n_plus_1, Default::default())
                            .with_faults(faults);
                    let (picked, committed) = inst.converge(&ctx, k, me.index() as u64).await?;
                    if committed {
                        ctx.decide(picked).await?;
                        return Ok(());
                    }
                    // #[conform(bound = "B")]
                    loop {
                        ctx.yield_step().await?;
                    }
                }))
            })
            .collect()
    });
    let menu = Arc::new(ConstantMenu(()));
    CheckConfig::new(n_plus_1, depth, factory, menu).spec(KSetAgreementSpec {
        k,
        proposals: proposals(n_plus_1),
    })
}

/// The **dropped-write mutant of Fig. 2**: the full Fig. 2 protocol under a
/// faithful pinned Υ^f, except that process `dropper` skips its phase-1
/// announcement inside the *round-opening* `f`-converge
/// ([`ConvergeFaults::drop_announce`]). Its proposal becomes invisible to
/// the opener's cleanliness count, so schedules exist where `f + 1`
/// distinct values commit out of the opener and `f`-set agreement breaks —
/// the only safety-relevant write in Fig. 2's round structure (the `D`,
/// `D[r]` and `Stable[r]` writes affect only termination). `dropper: None`
/// is the faithful protocol and must explore clean.
pub fn fig2_dropped_write(
    n_plus_1: usize,
    f: usize,
    depth: usize,
    max_faults: usize,
    dropper: Option<ProcessId>,
) -> CheckConfig<ProcessSet> {
    assert_shape(shape(n_plus_1, Some(("f", f))));
    let menu = Arc::new(ConstantMenu(pinned_history(n_plus_1)));
    let props = proposals(n_plus_1);
    let faults = ConvergeFaults {
        drop_announce: dropper,
        clean_slack: 0,
    };
    let factory: AlgoFactory<ProcessSet> = Arc::new(move || {
        let mut algos: Vec<Option<AlgoFn<ProcessSet>>> = Vec::new();
        algos.resize_with(n_plus_1, || None);
        let cfg = Fig2Config::new(f).with_opener_faults(faults);
        for (pid, a) in fig2_algorithms(cfg, &props) {
            algos[pid.index()] = Some(a);
        }
        algos
    });
    CheckConfig::new(n_plus_1, depth, factory, menu)
        .max_faults(max_faults)
        .spec(KSetAgreementSpec {
            k: f,
            proposals: proposals(n_plus_1),
        })
}

/// The range rules the sample constructors place on their axes: at least
/// two processes and, where the sample has one, an agreement parameter
/// (`k` or `f`, named by the caller) in `1..n_plus_1`. The crash budget's
/// rule belongs to [`CheckConfig::validate`].
///
/// # Errors
///
/// Returns the [`AxisError`] of the first axis out of range.
pub fn shape(n_plus_1: usize, agreement: Option<(&'static str, usize)>) -> Result<(), AxisError> {
    if n_plus_1 < 2 {
        return Err(AxisError::new(
            "n_plus_1",
            format!("must be at least 2, got {n_plus_1}"),
        ));
    }
    if let Some((axis, v)) = agreement {
        positive(axis, v as u64)?;
        if v >= n_plus_1 {
            return Err(AxisError::new(
                axis,
                format!("must be below n_plus_1 = {n_plus_1}, got {v}"),
            ));
        }
    }
    Ok(())
}

/// Panics with the error of a failed shape check, for the constructors.
fn assert_shape(checked: Result<(), AxisError>) {
    if let Err(e) = checked {
        panic!("{e}");
    }
}
