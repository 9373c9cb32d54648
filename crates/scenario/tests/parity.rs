//! The refactor acceptance criterion: every checked-in scenario resolves
//! to *exactly* the configuration its pre-refactor consumer built by hand,
//! so verdicts, state counts and shrunk tokens are identical to the
//! bespoke `samples::*` / `FuzzConfig` call sites the scenario files
//! replaced.

use upsilon_check::explore::check;
use upsilon_check::samples;
use upsilon_fuzz::{fuzz, FuzzConfig};
use upsilon_scenario::matrix::run_one;
use upsilon_scenario::registry::{resolve_check, resolve_fuzz, AnyCheck, AnyFuzz};
use upsilon_scenario::{load, Cell, Expect, Scalar};
use upsilon_sim::ProcessId;

/// Each of the six required check samples, resolved through the scenario
/// registry, produces a report equal to the direct sample call; so do the
/// `fig2-dropped` (faithful and dropping) and `converge-offby1` (slack 0
/// and 1) mutant samples, resolved from hand-built cells.
#[test]
fn check_samples_match_direct_construction() {
    // (scenario, cell index, direct construction)
    let fig1 = load("fig1").expect("checked-in scenario");
    let cells = fig1.expand();
    assert_eq!(cells.len(), 4, "fig1 spans depth × max_faults");
    for (cell, (depth, faults)) in cells.iter().zip([(5, 0), (5, 1), (6, 0), (6, 1)]) {
        let via_registry = match resolve_check(cell).expect("resolves") {
            AnyCheck::Set(cfg) => check(&cfg),
            AnyCheck::Unit(_) => panic!("fig1 is a ProcessSet sample"),
        };
        let direct = check(&samples::fig1(3, depth, faults));
        assert_eq!(via_registry, direct, "fig1 depth={depth} faults={faults}");
    }

    let doc = load("fig1-mutating").expect("checked-in scenario");
    let cell = &doc.expand()[0];
    match resolve_check(cell).expect("resolves") {
        AnyCheck::Set(cfg) => {
            let report = check(&cfg);
            assert_eq!(report, check(&samples::fig1_mutating(3, 8, 0, 1)));
            // Deep enough that a detector query happens and the mutating
            // menu branches; otherwise the scenario is plain `fig1`.
            assert!(report.stats.fd_variant_nodes > 0, "{:?}", report.stats);
        }
        AnyCheck::Unit(_) => panic!("fig1-mutating is a ProcessSet sample"),
    }

    let doc = load("fig2").expect("checked-in scenario");
    for (cell, depth) in doc.expand().iter().zip([5, 6]) {
        match resolve_check(cell).expect("resolves") {
            AnyCheck::Set(cfg) => {
                assert_eq!(check(&cfg), check(&samples::fig2(3, 1, depth, 0)))
            }
            AnyCheck::Unit(_) => panic!("fig2 is a ProcessSet sample"),
        }
    }

    let doc = load("pinned-upsilon").expect("checked-in scenario");
    let cell = &doc.expand()[0];
    match resolve_check(cell).expect("resolves") {
        AnyCheck::Set(cfg) => {
            let report = check(&cfg);
            assert_eq!(report, check(&samples::pinned_upsilon(3, 1, 3)));
            // The pivot really is found, with the same shrunk token.
            assert_eq!(report.violations.len(), 1);
        }
        AnyCheck::Unit(_) => panic!("pinned-upsilon is a ProcessSet sample"),
    }

    let doc = load("snapshot-commit").expect("checked-in scenario");
    let cells = doc.expand();
    assert_eq!(cells.len(), 2, "sound and buggy arms");
    for (cell, buggy) in cells.iter().zip([false, true]) {
        match resolve_check(cell).expect("resolves") {
            AnyCheck::Unit(cfg) => {
                let report = check(&cfg);
                assert_eq!(report, check(&samples::snapshot_commit(2, 1, 9, buggy)));
                assert_eq!(!report.violations.is_empty(), buggy, "arm {}", cell.arm);
            }
            AnyCheck::Set(_) => panic!("snapshot-commit is a unit sample"),
        }
    }

    let doc = load("stable-report").expect("checked-in scenario");
    let cell = &doc.expand()[0];
    match resolve_check(cell).expect("resolves") {
        AnyCheck::Unit(cfg) => {
            assert_eq!(check(&cfg), check(&samples::stable_report(3, 2, 7)))
        }
        AnyCheck::Set(_) => panic!("stable-report is a unit sample"),
    }

    // The two mutant samples have no scenario file of their own: resolve
    // the cell a file binding these axes would expand to.
    let cell = |protocol: &str, bindings: &[(&str, i64)]| Cell {
        arm: "default".into(),
        protocol: protocol.into(),
        expect: Expect::Pass,
        bindings: bindings
            .iter()
            .map(|&(axis, v)| (axis.to_string(), Scalar::Int(v)))
            .collect(),
    };
    for dropper in [None, Some(1)] {
        let mut bindings = vec![("n_plus_1", 2), ("f", 1), ("depth", 8), ("max_faults", 0)];
        bindings.extend(dropper.map(|p| ("dropper", p)));
        let direct =
            samples::fig2_dropped_write(2, 1, 8, 0, dropper.map(|p| ProcessId(p as usize)));
        match resolve_check(&cell("fig2-dropped", &bindings)).expect("resolves") {
            AnyCheck::Set(cfg) => {
                assert_eq!(
                    check(&cfg),
                    check(&direct),
                    "fig2-dropped dropper={dropper:?}"
                )
            }
            AnyCheck::Unit(_) => panic!("fig2-dropped is a ProcessSet sample"),
        }
    }
    for slack in [0, 1] {
        let bindings = [("n_plus_1", 2), ("k", 1), ("depth", 8), ("slack", slack)];
        let direct = samples::converge_offby1(2, 1, 8, slack as usize);
        match resolve_check(&cell("converge-offby1", &bindings)).expect("resolves") {
            AnyCheck::Unit(cfg) => {
                assert_eq!(check(&cfg), check(&direct), "converge-offby1 slack={slack}")
            }
            AnyCheck::Set(_) => panic!("converge-offby1 is a unit sample"),
        }
    }
}

/// The fuzz campaign scenario reproduces the CI smoke campaign verbatim:
/// same execs, same coverage, same shrunk counterexample token.
#[test]
fn fuzz_campaign_matches_direct_construction() {
    let doc = load("fuzz-commit").expect("checked-in scenario");
    let cell = &doc.expand()[0];
    assert_eq!(doc.seeds, vec![1]);
    let via_registry = match resolve_fuzz(&doc, cell, 1).expect("resolves") {
        AnyFuzz::Unit(cfg) => fuzz(&cfg, &[]),
        AnyFuzz::Set(_) => panic!("snapshot-commit is a unit sample"),
    };
    let direct = fuzz(
        &FuzzConfig::new(samples::snapshot_commit(2, 1, 12, true))
            .seed(1)
            .budget(1, 256),
        &[],
    );
    assert_eq!(via_registry, direct);
    assert!(
        !via_registry.violations.is_empty(),
        "the smoke campaign finds the seeded commit bug"
    );
}

/// `run_one` verdicts agree with the scenario expectations for every cell
/// of every required sample — the end-to-end path the matrix driver takes.
#[test]
fn run_one_verdicts_match_expectations() {
    for name in upsilon_scenario::REQUIRED_SAMPLES {
        let doc = load(name).expect("required scenario file exists");
        for cell in doc.expand() {
            let out = run_one(&doc, &cell, 0).unwrap_or_else(|e| panic!("{name}: {e}"));
            let expected = matches!(cell.expect, Expect::Violation);
            assert_eq!(
                out.verdict.as_str() == "violation",
                expected,
                "{name} cell `{}`",
                cell.label()
            );
        }
    }
}
