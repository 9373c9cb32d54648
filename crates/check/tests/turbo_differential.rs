//! Equivalence suite for the explorer over a portfolio of clean and buggy
//! sample configurations:
//!
//! * **node runs vs token replays** — every node the explorer checks runs
//!   on a snapshot-resume session; its run must equal, byte for byte, the
//!   run a fresh one-shot replay of the node's `UCHK1` token records, and
//!   must satisfy the §3.3 run conditions;
//! * **worker count 1 vs 2 vs 8** — the collected frontier merges in
//!   discovery order, so reports are `assert_eq!`-identical whatever the
//!   parallelism.
//!
//! Exact counts pin what each reduction buys: nodes per conflict relation
//! (naive, lattice, matrix), default-vs-matrix counts on the paper configs
//! at n+1 = 3 and 4, and the world builds of snapshot-resume execution.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use upsilon_check::samples;
use upsilon_check::{
    check, run_token, AlgoFactory, CheckConfig, CheckReport, ReplayToken, RunConditionsSpec,
    RunSpec,
};

use upsilon_sim::{FdValue, ProcessId, Run};

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

/// A spec that keeps a copy of every run it is shown and never fails.
struct Recorder<D>(Arc<Mutex<Vec<Run<D>>>>);

impl<D: FdValue> RunSpec<D> for Recorder<D> {
    fn name(&self) -> &str {
        "recorder"
    }

    fn check(&self, run: &Run<D>) -> Result<(), String> {
        self.0.lock().expect("recorder lock").push(run.clone());
        Ok(())
    }
}

/// The token a node's run replays from: its schedule, its crash times, and
/// the pick of each failure-detector query, found by matching the sampled
/// value against the menu's candidates for that query.
fn token_of_run<D: FdValue>(cfg: &CheckConfig<D>, run: &Run<D>) -> ReplayToken {
    let n = cfg.n_plus_1;
    let mut fd_choices = vec![Vec::new(); n];
    for (_, p, v) in run.fd_samples() {
        let picks: &mut Vec<u32> = &mut fd_choices[p.index()];
        let k = picks.len();
        let pick = cfg
            .menu
            .candidates(*p, k)
            .iter()
            .position(|c| c == v)
            .unwrap_or_else(|| panic!("query {k} of {p} served {v:?}, which its menu lacks"));
        picks.push(pick as u32);
    }
    ReplayToken {
        n_plus_1: n,
        crashes: (0..n)
            .map(|i| run.pattern().crash_time(ProcessId(i)))
            .collect(),
        fd_choices,
        schedule: run.events().iter().map(|e| e.pid).collect(),
    }
}

/// Explores `cfg` with a [`Recorder`] placed before every other spec (and
/// no shrinking, so that only explorer nodes are recorded), then checks
/// every captured node run against the run conditions and against the
/// fresh replay of its token.
fn assert_node_runs_match_replays<D: FdValue>(name: &str, mut cfg: CheckConfig<D>) -> CheckReport {
    let runs = Arc::new(Mutex::new(Vec::new()));
    cfg.shrink = false;
    cfg.specs.insert(0, Arc::new(Recorder(Arc::clone(&runs))));
    let report = check(&cfg);
    let runs = std::mem::take(&mut *runs.lock().expect("recorder lock"));
    assert_eq!(
        runs.len() as u64,
        report.stats.nodes,
        "{name}: every node recorded"
    );
    for run in &runs {
        let token = token_of_run(&cfg, run);
        if let Err(msg) = RunConditionsSpec.check(run) {
            panic!(
                "{name}: node {} breaks the run conditions: {msg}",
                token.encode()
            );
        }
        let replay = run_token(&cfg, &token).expect("token of this system").run;
        assert_eq!(
            format!("{run:?}"),
            format!("{replay:?}"),
            "{name}: node {} differs from its replay",
            token.encode()
        );
    }
    report
}

#[test]
fn node_runs_match_their_token_replays() {
    for_each_sample!(name, cfg, {
        assert_node_runs_match_replays(name, cfg);
    });
    // Detector branching: a sibling variant restores the parent with an
    // oracle repositioned at the save point's query counts; with a crash
    // in the budget, some process queries again after such a restore.
    let name = "fig1-mutating n2 d9 f1";
    let report = assert_node_runs_match_replays(name, samples::fig1_mutating(2, 9, 1, 1));
    assert!(
        report.stats.fd_variant_nodes > 0 && report.stats.crash_nodes > 0,
        "{name}: {:?}",
        report.stats
    );
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
/// fresh world: once when the session starts, plus once per exhausted set
/// of rebuild spares.
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
    // 1,549 nodes cost 393 factory calls: the session calls the factory
    // only when a process left stale by a backtrack is granted again and
    // the spares of the last call hold no instance for it.
    let (report, builds) = world_builds(samples::fig1(3, 9, 0));
    assert!(report.ok() && !report.stats.truncated);
    assert_eq!((report.stats.nodes, builds), (1_549, 393));
}
