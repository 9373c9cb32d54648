//! Differential equivalence suite for the turbo explorer: every execution
//! strategy the checker offers must produce the *same answers*.
//!
//! Three axes are swept against each other over a portfolio of clean and
//! buggy sample configurations:
//!
//! * **turbo vs stateless** — snapshot-resume execution against
//!   replay-from-root; byte-identical `CheckReport`s (stats, verdicts, and
//!   shrunk `UCHK1` tokens alike), since turbo changes only *how* nodes
//!   are executed, never which nodes exist;
//! * **dedup on vs off** — fingerprint pruning may only *remove* explored
//!   nodes (`nodes` + `dedup_pruned` conserved against the un-deduped
//!   count on crash-free configs), and must preserve every verdict and
//!   every minimized counterexample token;
//! * **worker count 1 vs 2 vs 8** — the work-stealing frontier merges by
//!   coordinate, so reports are `assert_eq!`-identical whatever the
//!   parallelism, with and without dedup.
//!
//! Exact counts pin what each reduction buys: nodes per conflict relation
//! (naive, lattice, matrix), dedup and default-vs-all-on counts on the
//! paper configs, and the world builds turbo saves over stateless replay.

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
        let turbo = run_with(cfg.clone(), |c| c.turbo(true).dedup(false));
        let stateless = run_with(cfg, |c| c.turbo(false).dedup(false));
        assert_eq!(turbo, stateless, "{name}: turbo vs stateless diverged");
    });
}

#[test]
fn dedup_preserves_verdicts_and_tokens() {
    for_each_sample!(name, cfg, {
        let base = run_with(cfg.clone(), |c| c.turbo(true).dedup(false));
        let dedup = run_with(cfg, |c| c.turbo(true).dedup(true));
        assert_eq!(
            base.violations, dedup.violations,
            "{name}: dedup changed a verdict or a shrunk token"
        );
        assert_eq!(base.ok(), dedup.ok(), "{name}: dedup flipped the verdict");
        assert!(
            dedup.stats.nodes <= base.stats.nodes,
            "{name}: dedup executed more nodes ({} > {})",
            dedup.stats.nodes,
            base.stats.nodes
        );
    });
}

#[test]
fn dedup_actually_prunes_somewhere() {
    // The guard that dedup is not vacuous: on at least one portfolio
    // config, fingerprint pruning must fire and shrink the node count.
    let mut pruned_total = 0;
    let mut saved_total = 0i64;
    for_each_sample!(_name, cfg, {
        let base = run_with(cfg.clone(), |c| c.turbo(true).dedup(false));
        let dedup = run_with(cfg, |c| c.turbo(true).dedup(true));
        pruned_total += dedup.stats.dedup_pruned;
        saved_total += base.stats.nodes as i64 - dedup.stats.nodes as i64;
    });
    assert!(pruned_total > 0, "dedup never pruned a single node");
    assert!(saved_total > 0, "dedup never saved an executed node");
}

#[test]
fn worker_sweep_reports_are_assert_eq_identical() {
    for dedup in [false, true] {
        for_each_sample!(name, cfg, {
            let at =
                |workers: usize| run_with(cfg.clone(), |c| c.dedup(dedup).parallel(2, workers));
            let one = at(1);
            assert_eq!(one, at(2), "{name}: workers 1 vs 2 (dedup={dedup})");
            assert_eq!(one, at(8), "{name}: workers 1 vs 8 (dedup={dedup})");
        });
    }
}

#[test]
fn split_exploration_matches_serial() {
    for_each_sample!(name, cfg, {
        // Counters can match byte for byte only without dedup: the serial
        // search keeps one global fingerprint table while every frontier
        // job starts its own, so pruning opportunities differ (soundly) in
        // the split run.
        let serial = run_with(cfg.clone(), |c| c.dedup(false));
        let split = run_with(cfg.clone(), |c| c.dedup(false).parallel(2, 8));
        assert_eq!(
            serial.stats, split.stats,
            "{name}: split changed the search counters"
        );
        assert_eq!(
            serial.violations, split.violations,
            "{name}: split changed a verdict or token"
        );
        // With dedup on the *answers* still agree.
        let serial = run_with(cfg.clone(), |c| c.dedup(true));
        let split = run_with(cfg, |c| c.dedup(true).parallel(2, 8));
        assert_eq!(
            serial.violations, split.violations,
            "{name}: split with dedup changed a verdict or token"
        );
        assert_eq!(
            serial.ok(),
            split.ok(),
            "{name}: split with dedup flipped the verdict"
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

/// `(nodes, dedup_pruned, symmetry_pruned)` of one report.
fn reduction_counts(r: &CheckReport) -> (u64, u64, u64) {
    (r.stats.nodes, r.stats.dedup_pruned, r.stats.symmetry_pruned)
}

#[test]
fn dedup_counts_are_pinned_on_stable_report() {
    // The exact reduction dedup achieves on the write-race benchmark
    // (symmetry off, so only fingerprint pruning is at work). A cheaper or
    // coarser dedup key that merged fewer states would raise `nodes`; one
    // that merged more would be unsound. Either way this fails loudly.
    let cfg = samples::stable_report(3, 2, 10).symmetry(false);
    let off = check(&cfg.clone().dedup(false));
    let on = check(&cfg.dedup(true));
    assert!(off.ok() && on.ok(), "stable-report explores clean");
    assert_eq!(reduction_counts(&off), (1183, 0, 0));
    assert_eq!(reduction_counts(&on), (385, 141, 0));
}

#[test]
fn check_paper_counts_are_pinned() {
    // The paper's Fig. 1 / Fig. 2 workloads at the benchmark's depths.
    // Under the checker defaults (sleep sets alone) the node counts are
    // pinned. With the matrix, dedup and symmetry all switched on, no state
    // is ever revisited and no orbit is non-trivial, so the search is the
    // same tree: equal counters, nothing pruned by dedup or symmetry, and
    // the same verdicts — the reason those reductions are opt-in.
    let cases = [
        ("fig1 n3 d11 f1", samples::fig1(3, 11, 1), 16_414),
        ("fig2 n3 d11 f1", samples::fig2(3, 1, 11, 1), 17_095),
        (
            "fig1-mutating n3 d13",
            samples::fig1_mutating(3, 13, 0, 1),
            15_842,
        ),
    ];
    let (mut total, mut sleep_pruned) = (0, 0);
    for (name, cfg, nodes) in cases {
        let default = check(&cfg);
        let all_on = check(&cfg.matrix(true).dedup(true).symmetry(true));
        assert!(default.ok() && !default.stats.truncated, "{name}: clean");
        assert_eq!(reduction_counts(&default), (nodes, 0, 0), "{name}");
        assert_eq!(reduction_counts(&all_on), (nodes, 0, 0), "{name}: all on");
        assert_eq!(default.stats, all_on.stats, "{name}: same search tree");
        assert_eq!(default.violations, all_on.violations, "{name}");
        total += default.stats.nodes;
        sleep_pruned += default.stats.sleep_pruned;
    }
    assert_eq!((total, sleep_pruned), (49_351, 31_652));
}

/// The three conflict relations of one workload, each with dedup and
/// symmetry off: naive (no sleep sets), the coarse `Access` lattice, and
/// the lattice refined by the commutativity matrix.
fn reduction_modes<D: FdValue>(cfg: CheckConfig<D>) -> [CheckReport; 3] {
    let plain = cfg.dedup(false).symmetry(false);
    [
        check(&plain.clone().reduction(false).matrix(false)),
        check(&plain.clone().matrix(false)),
        check(&plain.matrix(true)),
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
