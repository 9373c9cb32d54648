//! Differential equivalence suite for the turbo explorer: every execution
//! strategy the checker offers must produce the *same answers*.
//!
//! Two axes are swept against each other over a portfolio of clean and
//! buggy sample configurations:
//!
//! * **turbo vs stateless** — snapshot-resume execution against
//!   replay-from-root; byte-identical `CheckReport`s (stats, verdicts, and
//!   shrunk `UCHK1` tokens alike), since turbo changes only *how* nodes
//!   are executed, never which nodes exist;
//! * **worker count 1 vs 2 vs 8** — the work-stealing frontier merges by
//!   coordinate, so reports are `assert_eq!`-identical whatever the
//!   parallelism.
//!
//! Exact counts pin what each reduction buys: nodes per conflict relation
//! (naive, lattice, matrix), default-vs-matrix counts on the paper configs
//! at n+1 = 3 and 4, and the world builds turbo saves over stateless
//! replay.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use upsilon_check::samples;
use upsilon_check::{check, AlgoFactory, CheckConfig, CheckReport};

use upsilon_sim::FdValue;

/// Builds the report for one portfolio entry under a config transform.
fn run_with<D: FdValue>(
    cfg: CheckConfig<D>,
    vary: impl FnOnce(CheckConfig<D>) -> CheckConfig<D>,
) -> CheckReport {
    check(&vary(cfg))
}

macro_rules! for_each_sample {
    ($name:ident, $cfg:ident, $body:block) => {{
        let $name = "fig1 n2 d6 clean";
        let $cfg = samples::fig1(2, 6, 0);
        $body
    }
    {
        let $name = "fig1 n3 d4 crashes";
        let $cfg = samples::fig1(3, 4, 1);
        $body
    }
    {
        let $name = "fig2 n2 d6";
        let $cfg = samples::fig2(2, 1, 6, 1);
        $body
    }
    {
        let $name = "commit-buggy n2 d8";
        let $cfg = samples::snapshot_commit(2, 1, 8, true);
        $body
    }
    {
        let $name = "commit-sound n2 d8";
        let $cfg = samples::snapshot_commit(2, 1, 8, false);
        $body
    }
    {
        let $name = "converge-offby1 n2 d8";
        let $cfg = samples::converge_offby1(2, 1, 8, 1);
        $body
    }
    {
        let $name = "stable-report n2 d6";
        let $cfg = samples::stable_report(2, 2, 6);
        $body
    }};
}

#[test]
fn turbo_and_stateless_reports_are_identical() {
    for_each_sample!(name, cfg, {
        let turbo = run_with(cfg.clone(), |c| c.turbo(true));
        let stateless = run_with(cfg, |c| c.turbo(false));
        assert_eq!(turbo, stateless, "{name}: turbo vs stateless diverged");
    });
}

#[test]
fn worker_sweep_reports_are_assert_eq_identical() {
    for_each_sample!(name, cfg, {
        let at = |workers: usize| run_with(cfg.clone(), |c| c.parallel(2, workers));
        let one = at(1);
        assert_eq!(one, at(2), "{name}: workers 1 vs 2");
        assert_eq!(one, at(8), "{name}: workers 1 vs 8");
    });
}

#[test]
fn split_exploration_matches_serial() {
    for_each_sample!(name, cfg, {
        let serial = run_with(cfg.clone(), |c| c);
        let split = run_with(cfg, |c| c.parallel(2, 8));
        assert_eq!(
            serial.stats, split.stats,
            "{name}: split changed the search counters"
        );
        assert_eq!(
            serial.violations, split.violations,
            "{name}: split changed a verdict or token"
        );
    });
}

#[test]
fn portfolio_reports_are_reproducible() {
    // The harness itself is deterministic: two fresh evaluations of every
    // entry agree (this is what makes the suite's other comparisons
    // meaningful rather than flaky).
    for_each_sample!(name, cfg, {
        let a = run_with(cfg.clone(), |c| c);
        let b = run_with(cfg, |c| c);
        assert_eq!(a, b, "{name}: non-deterministic report");
    });
}

/// Explores each `(name, config, nodes, sleep_pruned)` case under the
/// checker defaults and again with the commutativity matrix on, and
/// requires a clean, complete search with the pinned counters and the same
/// stats and verdicts in both arms.
fn assert_matrix_arm_matches<D: FdValue>(cases: Vec<(&str, CheckConfig<D>, u64, u64)>) {
    for (name, cfg, nodes, pruned) in cases {
        let default = check(&cfg);
        let matrix = check(&cfg.matrix(true));
        assert!(default.ok() && !default.stats.truncated, "{name}: clean");
        assert_eq!(
            (default.stats.nodes, default.stats.sleep_pruned),
            (nodes, pruned),
            "{name}"
        );
        assert_eq!(default.stats, matrix.stats, "{name}: same search tree");
        assert_eq!(default.violations, matrix.violations, "{name}");
    }
}

#[test]
fn check_paper_counts_are_pinned() {
    // The paper's Fig. 1 / Fig. 2 workloads at the benchmark's depths.
    // Under the checker defaults (sleep sets over the `Access` lattice) the
    // counts are pinned; the matrix refines no conflict on these
    // protocols, so switching it on explores the same tree.
    let cases = vec![
        ("fig1 n3 d11 f1", samples::fig1(3, 11, 1), 16_414, 9_522),
        ("fig2 n3 d11 f1", samples::fig2(3, 1, 11, 1), 17_095, 10_269),
        (
            "fig1-mutating n3 d13",
            samples::fig1_mutating(3, 13, 0, 1),
            15_842,
            11_861,
        ),
    ];
    assert_matrix_arm_matches(cases);
}

#[test]
fn check_paper_counts_are_pinned_at_four_processes() {
    // The same three protocols at n+1 = 4: sleep sets alone prune every
    // redundant interleaving here too, and the matrix adds nothing.
    let cases = vec![
        ("fig1 n4 d9 f1", samples::fig1(4, 9, 1), 56_449, 43_968),
        ("fig2 n4 d9 f1", samples::fig2(4, 1, 9, 1), 56_797, 44_112),
        (
            "fig1-mutating n4 d10",
            samples::fig1_mutating(4, 10, 0, 1),
            26_575,
            23_600,
        ),
    ];
    assert_matrix_arm_matches(cases);
}

/// The three conflict relations of one workload: naive (no sleep sets),
/// the coarse `Access` lattice, and the lattice refined by the
/// commutativity matrix.
fn reduction_modes<D: FdValue>(cfg: CheckConfig<D>) -> [CheckReport; 3] {
    [
        check(&cfg.clone().reduction(false).matrix(false)),
        check(&cfg.clone().matrix(false)),
        check(&cfg.matrix(true)),
    ]
}

#[test]
fn reduction_counts_are_pinned() {
    // Node counts under each conflict relation on five workloads at
    // n+1 = 3 without crashes: naive / lattice / matrix. An exact count is
    // a tighter gate than a reduction-ratio floor: a relation that ordered
    // more pairs would raise a count, one that ordered fewer would be
    // unsound. The matrix refines the lattice only on stable-report's
    // same-value write races. Every mode must reach the same verdict.
    let mut got = Vec::new();
    let mut record = |name: &'static str, reports: [CheckReport; 3]| {
        for r in &reports {
            assert!(r.ok() && !r.stats.truncated, "{name}: explores clean");
            assert_eq!(r.violations, reports[0].violations, "{name}");
        }
        got.push((name, reports.map(|r| r.stats.nodes)));
    };
    record("fig1 d9", reduction_modes(samples::fig1(3, 9, 0)));
    record(
        "fig1-mutating d9",
        reduction_modes(samples::fig1_mutating(3, 9, 0, 1)),
    );
    record("fig2 f1 d7", reduction_modes(samples::fig2(3, 1, 7, 0)));
    record(
        "snapshot-commit k2 d10",
        reduction_modes(samples::snapshot_commit(3, 2, 10, false)),
    );
    record(
        "stable-report r2 d10",
        reduction_modes(samples::stable_report(3, 2, 10)),
    );
    assert_eq!(
        got,
        [
            ("fig1 d9", [28_999, 1_549, 1_549]),
            ("fig1-mutating d9", [29_287, 1_579, 1_579]),
            ("fig2 f1 d7", [3_277, 495, 495]),
            ("snapshot-commit k2 d10", [74_830, 2_392, 2_392]),
            ("stable-report r2 d10", [40_951, 12_217, 1_183]),
        ]
    );
}

/// Explores `cfg` and counts how many times it built the algorithms of a
/// fresh world: once up front, then once per root replay.
fn world_builds<D: FdValue>(cfg: CheckConfig<D>) -> (CheckReport, u64) {
    let builds = Arc::new(AtomicU64::new(0));
    let (inner, counter) = (Arc::clone(&cfg.algos), Arc::clone(&builds));
    let algos: AlgoFactory<D> = Arc::new(move || {
        counter.fetch_add(1, Ordering::Relaxed);
        inner()
    });
    let report = check(&CheckConfig { algos, ..cfg });
    (report, builds.load(Ordering::Relaxed))
}

#[test]
fn turbo_world_builds_are_pinned() {
    // Stateless exploration rebuilds the world at every node (1,549 nodes
    // plus the up-front build); snapshot-resume rebuilds it only when a
    // backtrack cannot be served from a saved session. Same report either
    // way.
    let cfg = samples::fig1(3, 9, 0);
    let (turbo, turbo_builds) = world_builds(cfg.clone());
    let (stateless, stateless_builds) = world_builds(cfg.turbo(false));
    assert_eq!(turbo, stateless, "turbo vs stateless diverged");
    assert_eq!((turbo_builds, stateless_builds), (682, 1_550));
}
