//! Mutation-detection suite: each seeded bug must fall to a fixed-seed,
//! fixed-budget campaign, and the shrunk counterexample token must (a)
//! still violate the spec when replayed and (b) match a golden snapshot,
//! so shrink-quality regressions are caught.
//!
//! To regenerate the goldens after an intentional generator change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p upsilon-fuzz --test mutants
//! ```

use std::fs;
use std::path::PathBuf;
use upsilon_check::samples;
use upsilon_check::{replay_token, CheckConfig};
use upsilon_fuzz::{fuzz, FuzzConfig, FuzzViolation};
use upsilon_sim::{EngineKind, FdValue, ProcessId};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` against the golden file, or rewrites the file when
/// `UPDATE_GOLDEN` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); run with UPDATE_GOLDEN=1"));
    assert_eq!(
        actual, expected,
        "{name} drifted; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// Runs the fixed-seed campaign, asserts the expected spec fell, replays
/// the shrunk token, and snapshots it.
fn hunt<D: FdValue>(
    cfg: &CheckConfig<D>,
    seed: u64,
    rounds: usize,
    execs: u64,
    spec: &str,
    golden: &str,
) -> FuzzViolation {
    let fcfg = FuzzConfig::new(cfg.clone())
        .seed(seed)
        .budget(rounds, execs);
    let report = fuzz(&fcfg, &[]);
    let v = report
        .violations
        .iter()
        .find(|v| v.spec == spec)
        .unwrap_or_else(|| {
            panic!(
                "seeded bug not found: wanted {spec:?} within {} execs (seed {seed}), got {:?}",
                rounds as u64 * execs,
                report
                    .violations
                    .iter()
                    .map(|v| &v.spec)
                    .collect::<Vec<_>>()
            )
        })
        .clone();

    // The shrunk token must still violate the spec when replayed.
    let out = replay_token(cfg, &v.token, EngineKind::Inline);
    assert!(
        out.verdicts.iter().any(|(n, r)| n == spec && r.is_err()),
        "shrunk token must still violate {spec}"
    );

    assert_golden(golden, &format!("{}\n", v.token.encode()));
    v
}

#[test]
fn finds_snapshot_commit_bug() {
    let cfg = samples::snapshot_commit(2, 1, 12, true);
    let v = hunt(&cfg, 1, 1, 256, "k-set-agreement", "commit_buggy.uchk1");
    assert!(
        v.token.schedule.len() <= v.raw_token.schedule.len(),
        "shrinking must not grow the schedule"
    );
}

#[test]
fn finds_converge_commit_offby1() {
    let cfg = samples::converge_offby1(3, 1, 12, 1);
    hunt(&cfg, 2, 2, 512, "k-set-agreement", "converge_offby1.uchk1");
}

#[test]
fn finds_fig2_dropped_write() {
    let cfg = samples::fig2_dropped_write(2, 1, 16, 0, Some(ProcessId(1)));
    hunt(&cfg, 3, 2, 512, "k-set-agreement", "fig2_dropped.uchk1");
}

#[test]
fn sound_baselines_stay_clean() {
    // The faithful twins of each mutant survive the same budgets — the
    // suite detects the mutation, not noise in the harness. The
    // stable-report reference campaign (n+1 = 2, depth 8, 4 rounds of
    // 4096) must come back clean too.
    for (name, report) in [
        (
            "snapshot-commit buggy=false",
            fuzz(
                &FuzzConfig::new(samples::snapshot_commit(2, 1, 12, false))
                    .seed(1)
                    .budget(1, 256),
                &[],
            ),
        ),
        (
            "converge-slack-0",
            fuzz(
                &FuzzConfig::new(samples::converge_offby1(3, 1, 12, 0))
                    .seed(2)
                    .budget(2, 512),
                &[],
            ),
        ),
        (
            "fig2-faithful",
            fuzz(
                &FuzzConfig::new(samples::fig2_dropped_write(2, 1, 16, 0, None))
                    .seed(3)
                    .budget(2, 512),
                &[],
            ),
        ),
        (
            "stable-report",
            fuzz(
                &FuzzConfig::new(samples::stable_report(2, 2, 8))
                    .seed(42)
                    .budget(4, 4096),
                &[],
            ),
        ),
    ] {
        assert!(
            report.ok(),
            "{name} must stay clean: {:?}",
            report.violations
        );
    }
}

#[test]
fn fig1_depth24_reference_campaign_counts_are_pinned() {
    // The Fig. 1 reference campaign (n+1 = 3, depth 24, one fault, seed 42,
    // 4 rounds of 4096) comes back clean, and its counters are a pure
    // function of the configuration. Pinning them gates a regression in
    // the generator, the coverage hash or the corpus admission; speed is
    // not a verdict of this suite.
    let report = fuzz(
        &FuzzConfig::new(samples::fig1(3, 24, 1))
            .seed(42)
            .budget(4, 4096),
        &[],
    );
    assert!(report.ok(), "fig1 must stay clean: {:?}", report.violations);
    let growth: Vec<(u64, u64)> = report
        .growth
        .iter()
        .map(|g| (g.execs, g.coverage))
        .collect();
    assert_eq!(
        (
            report.execs,
            report.corpus.len(),
            report.coverage_hashes.len(),
            report.truncated,
        ),
        (16_384, 2_365, 3_746, false)
    );
    assert_eq!(
        growth,
        [
            (4_096, 1_997),
            (8_192, 2_711),
            (12_288, 3_268),
            (16_384, 3_746)
        ]
    );
}
