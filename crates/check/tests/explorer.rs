//! Explorer correctness: determinism, naive/reduced agreement, crash
//! canonicalization bounds, counterexample shrinking and dual-engine token
//! replay.

use std::sync::Arc;
use upsilon_check::samples;
use upsilon_check::{check, replay_token, run_token, CheckConfig, ConstantMenu, ReplayToken};
use upsilon_sim::{EngineKind, FdValue};

fn naive<D: FdValue>(mut cfg: CheckConfig<D>) -> CheckConfig<D> {
    cfg.reduction = false;
    cfg
}

#[test]
fn new_configs_run_sleep_sets_alone() {
    let cfg: CheckConfig<()> = CheckConfig::new(
        2,
        4,
        Arc::new(|| vec![None, None]),
        Arc::new(ConstantMenu(())),
    );
    assert!(cfg.reduction && cfg.turbo && !cfg.use_matrix);
    // The paper's protocols keep the defaults; only `pinned_upsilon` and
    // `stable_report` opt in to the commutativity matrix.
    for cfg in [
        samples::fig1(3, 11, 1),
        samples::fig2(3, 1, 11, 1),
        samples::fig1_mutating(3, 13, 0, 1),
    ] {
        assert!(!cfg.use_matrix);
    }
    assert!(samples::pinned_upsilon(3, 1, 6).use_matrix);
    assert!(samples::stable_report(3, 1, 8).use_matrix);
}

#[test]
fn a_token_of_another_process_count_is_rejected() {
    let cfg = samples::fig1(3, 8, 0);
    let token = ReplayToken::parse("UCHK1:n=5;c=-,-,-,-,3;q=-|-|-|-|-;s=4,3,0,4").unwrap();
    let err = run_token(&cfg, &token, EngineKind::Inline).unwrap_err();
    assert!(err.to_string().contains("token has 5 processes"), "{err}");
    assert!(run_token(&cfg, &token, EngineKind::Threads).is_err());
}

#[test]
fn buggy_commit_protocol_yields_a_replayable_counterexample() {
    let cfg = samples::snapshot_commit(2, 1, 9, true);
    let report = check(&cfg);
    assert!(!report.ok(), "dropped announcement write must be caught");
    let v = &report.violations[0];
    assert_eq!(v.spec, "k-set-agreement");

    // The token replays to the same violation under both engines, with
    // bit-identical traces.
    let inline = replay_token(&cfg, &v.token, EngineKind::Inline);
    let threads = replay_token(&cfg, &v.token, EngineKind::Threads);
    assert_eq!(inline.run.events(), threads.run.events());
    assert_eq!(inline.run.outputs(), threads.run.outputs());
    assert_eq!(inline.run.stop_reason(), threads.run.stop_reason());
    assert_eq!(inline.verdicts, threads.verdicts);
    let kset = inline
        .verdicts
        .iter()
        .find(|(name, _)| name == "k-set-agreement")
        .expect("k-set verdict present");
    assert!(kset.1.is_err(), "replay reproduces the violation");

    // And the token survives its ASCII round trip.
    assert_eq!(ReplayToken::parse(&v.token.encode()).unwrap(), v.token);
}

#[test]
fn sound_commit_protocol_is_clean_in_both_modes() {
    let reduced = check(&samples::snapshot_commit(2, 1, 9, false));
    let full = check(&naive(samples::snapshot_commit(2, 1, 9, false)));
    assert!(reduced.ok(), "{:?}", reduced.violations.first());
    assert!(full.ok(), "{:?}", full.violations.first());
    assert!(
        reduced.stats.nodes < full.stats.nodes,
        "sleep sets must prune something: {} vs {}",
        reduced.stats.nodes,
        full.stats.nodes
    );
    assert!(reduced.stats.sleep_pruned > 0);
}

#[test]
fn reduction_preserves_bug_finding() {
    // The reduced exploration may visit different representatives, but a
    // violation reachable by the naive search must stay reachable.
    let reduced = check(&samples::snapshot_commit(2, 1, 9, true));
    let full = check(&naive(samples::snapshot_commit(2, 1, 9, true)));
    assert!(!reduced.ok());
    assert!(!full.ok());
    assert_eq!(reduced.violations[0].spec, full.violations[0].spec);
}

#[test]
fn exploration_is_deterministic() {
    let a = check(&samples::fig1(3, 6, 1));
    let b = check(&samples::fig1(3, 6, 1));
    assert_eq!(a, b);
}

#[test]
fn parallel_frontier_matches_serial_exploration() {
    let serial = check(&samples::fig1(3, 7, 0));
    let mut pcfg = samples::fig1(3, 7, 0);
    pcfg = pcfg.parallel(3, 4);
    let parallel = check(&pcfg);
    assert_eq!(serial.stats, parallel.stats);
    assert_eq!(serial.violations, parallel.violations);
    assert!(
        parallel.frontier_jobs > 0,
        "the fan-out must actually happen"
    );
}

#[test]
fn pinned_history_counterexample_is_the_paper_pivot() {
    let cfg = samples::pinned_upsilon(3, 1, 3);
    let report = check(&cfg);
    assert!(!report.ok(), "crashing p3 must expose the pinned history");
    let v = &report.violations[0];
    assert_eq!(v.spec, "upsilon-faithful");
    // Minimal counterexample: crash p3 (so correct(F) = U), one query step.
    assert_eq!(v.token.schedule.len(), 1, "{}", v.token);
    assert_eq!(
        v.token.crashes.iter().flatten().count(),
        1,
        "exactly one injected crash: {}",
        v.token
    );
    assert!(
        v.token.crashes[2].is_some(),
        "the crash is p3's: {}",
        v.token
    );

    // Replaying under either engine reproduces the same verdict.
    for engine in [EngineKind::Inline, EngineKind::Threads] {
        let replayed = replay_token(&cfg, &v.token, engine);
        let verdict = replayed
            .verdicts
            .iter()
            .find(|(name, _)| name == "upsilon-faithful")
            .unwrap();
        assert!(verdict.1.is_err(), "{engine:?}");
    }
}

#[test]
fn crash_injection_respects_the_fault_budget() {
    let report = check(&samples::pinned_upsilon(3, 2, 2).max_violations(64));
    for v in &report.violations {
        assert!(
            v.token.crashes.iter().flatten().count() <= 2,
            "fault budget exceeded: {}",
            v.token
        );
        assert!(
            v.token.crashes.iter().any(Option::is_none),
            "someone stays correct: {}",
            v.token
        );
    }
    assert!(report.stats.crash_nodes > 0);
}

#[test]
fn shrinking_reports_its_work_and_never_grows() {
    let report = check(&samples::snapshot_commit(2, 1, 10, true));
    let v = &report.violations[0];
    assert!(v.shrink_evals > 0, "shrinking actually ran");
    assert!(v.token.schedule.len() <= v.raw_token.schedule.len());
}

#[test]
fn fig1_safety_is_upsilon_independent_under_mutation() {
    // Lying detector outputs explore extra branches but can never break
    // Fig. 1's safety (§5.2: safety does not depend on Υ).
    let report = check(&samples::fig1_mutating(3, 9, 0, 1));
    assert!(report.ok(), "{:?}", report.violations.first());
    assert!(report.stats.fd_variant_nodes > 0, "mutation must branch");
}

#[test]
fn fig2_exploration_is_clean() {
    let report = check(&samples::fig2(3, 1, 6, 1));
    assert!(report.ok(), "{:?}", report.violations.first());
}

#[test]
fn naive_and_reduced_disagree_only_in_node_count() {
    let reduced = check(&samples::fig1(3, 6, 0));
    let full = check(&naive(samples::fig1(3, 6, 0)));
    assert!(reduced.ok() && full.ok());
    assert_eq!(full.stats.sleep_pruned, 0);
    assert!(reduced.stats.nodes < full.stats.nodes);
}
