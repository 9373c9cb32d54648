//! Edge cases of the failure-detector menu machinery: the non-empty-menu
//! contract, the no-branching guarantee of singleton menus, and a
//! [`MutatingMenu`] whose mutation budget runs out in the middle of a run.

use std::sync::Arc;
use upsilon_check::samples;
use upsilon_check::{check, run_token, FdMenu, FnMenu, MenuOracle, MutatingMenu};
use upsilon_sim::{EngineKind, ProcessId, ReplayToken, Time};

/// `FdMenu::candidates` must be non-empty; an empty menu is a contract
/// violation the oracle turns into an immediate panic rather than a
/// silently undefined detector output.
#[test]
#[should_panic(expected = "no candidates")]
fn empty_menu_panics_on_first_query() {
    let menu: Arc<dyn FdMenu<u8>> = Arc::new(FnMenu(|_p, _k| Vec::new()));
    let mut oracle = MenuOracle::new(menu, 1, Vec::new());
    use upsilon_sim::Oracle;
    oracle.output(ProcessId(0), Time(0));
}

/// A singleton menu pins the detector: the explorer must never open a
/// detector-output sibling branch, however deep the search goes.
#[test]
fn singleton_menu_never_branches_on_fd_output() {
    // n + 1 = 3: Fig. 1's opening (n+1)-process n-converge can fail to
    // commit, so processes do reach their Υ queries within depth 8 (at
    // n + 1 = 2 the opener always commits and the detector is never asked).
    let report = check(&samples::fig1(3, 8, 0));
    assert!(report.ok());
    assert_eq!(
        report.stats.fd_variant_nodes, 0,
        "ConstantMenu must yield zero fd-variant branches"
    );
    // Sanity contrast: the same search with one mutant in the menu does
    // branch (otherwise the zero above would be vacuous).
    let mutating = check(&samples::fig1_mutating(3, 8, 0, 1));
    assert!(mutating.ok());
    assert!(
        mutating.stats.fd_variant_nodes > 0,
        "a 2-candidate menu must open fd-variant branches"
    );
}

/// A [`MutatingMenu`] with a small budget exhausts mid-run: queries past
/// the budget offer exactly one candidate (the base) and clamp any scripted
/// mutant pick back to it, so the history stabilizes inside the run.
#[test]
fn mutating_menu_exhausts_mid_run() {
    let cfg = samples::fig1_mutating(3, 36, 0, 1);
    // A deep fair schedule in which gladiators re-query Υ past the
    // 1-query mutation budget; every scripted pick asks for the mutant
    // (candidate 1).
    let token = ReplayToken {
        n_plus_1: 3,
        crashes: vec![None, None, None],
        fd_choices: vec![vec![1; 8], vec![1; 8], vec![1; 8]],
        schedule: std::iter::repeat_n([ProcessId(0), ProcessId(1), ProcessId(2)], 12)
            .flatten()
            .collect(),
    };
    let exec = run_token(&cfg, &token, EngineKind::Inline).expect("3-process token");
    let exhausted: Vec<_> = exec.queries.iter().filter(|q| q.k >= 1).collect();
    assert!(
        !exhausted.is_empty(),
        "the run must query past the mutation budget"
    );
    for q in &exhausted {
        assert_eq!(q.candidates, 1, "{:?}: budget over, base only", q);
        assert_eq!(q.pick, 0, "{:?}: scripted mutant pick must clamp", q);
    }
    for q in exec.queries.iter().filter(|q| q.k < 1) {
        assert_eq!(q.candidates, 2, "{:?}: within budget, base + mutant", q);
        assert_eq!(q.pick, 1, "{:?}: scripted mutant pick is served", q);
    }
}

/// Out-of-range scripted picks clamp to the last candidate even when the
/// menu size varies per query (regression guard for the clamp in
/// `MenuOracle::output`).
#[test]
fn oversized_picks_clamp_per_query() {
    use upsilon_sim::Oracle;
    let menu: Arc<dyn FdMenu<u8>> = Arc::new(MutatingMenu {
        base: 0u8,
        mutants: vec![7, 9],
        budget: 1,
    });
    let mut oracle = MenuOracle::new(menu, 1, vec![vec![99, 99]]);
    let log = oracle.log();
    assert_eq!(oracle.output(ProcessId(0), Time(0)), 9, "clamped to last");
    assert_eq!(oracle.output(ProcessId(0), Time(1)), 0, "budget over");
    let log = log.lock().unwrap();
    assert_eq!((log[0].candidates, log[0].pick), (3, 2));
    assert_eq!((log[1].candidates, log[1].pick), (1, 0));
}

/// Singleton menus also keep `MenuOracle` deterministic across engines —
/// the same token yields the same query log under both.
#[test]
fn query_log_is_engine_independent() {
    let cfg = samples::fig1(2, 8, 0);
    let token = ReplayToken {
        n_plus_1: 2,
        crashes: vec![None, None],
        fd_choices: vec![Vec::new(), Vec::new()],
        schedule: vec![
            ProcessId(0),
            ProcessId(0),
            ProcessId(1),
            ProcessId(0),
            ProcessId(1),
            ProcessId(1),
        ],
    };
    let a = run_token(&cfg, &token, EngineKind::Inline).expect("2-process token");
    let b = run_token(&cfg, &token, EngineKind::Threads).expect("2-process token");
    assert_eq!(a.queries, b.queries);
}
