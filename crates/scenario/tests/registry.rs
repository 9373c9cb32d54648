//! Registry ↔ schema ↔ checked-in-files synchronization:
//!
//! * every protocol in [`KNOWN_PROTOCOLS`] is resolvable by exactly one
//!   layer of the runner (check registry, experiment runners, swarm);
//! * every required sample has a checked-in scenario file whose `kind` is
//!   `check` and whose protocol matches;
//! * an orphaned file (unparseable, or `name` ≠ stem) fails the load;
//! * the repeats axis re-runs coordinates without perturbing them.

use upsilon_scenario::matrix::{run_matrix, validate_cells};
use upsilon_scenario::registry::{check_protocols, resolve_check, resolve_fuzz};
use upsilon_scenario::{
    load, load_all, load_all_in, Cell, Expect, Kind, Scalar, KNOWN_PROTOCOLS, REQUIRED_SAMPLES,
};

/// Which runner layer owns each known protocol. A protocol no layer owns
/// (or two layers own) is a registry drift this test pins down.
#[test]
fn every_known_protocol_has_exactly_one_runner() {
    // What the registry resolves, as `upsilon-scenario --help` lists it.
    let check: Vec<&str> = check_protocols().collect();
    let experiment = ["e9-baseline", "e10-converge", "e11-snapshots"];
    let swarm = ["swarm"];
    for p in KNOWN_PROTOCOLS {
        let owners = usize::from(check.contains(p))
            + usize::from(experiment.contains(p))
            + usize::from(swarm.contains(p));
        assert_eq!(owners, 1, "protocol `{p}` must have exactly one runner");
    }
    assert_eq!(
        KNOWN_PROTOCOLS.len(),
        check.len() + experiment.len() + swarm.len(),
        "a runner claims a protocol the schema does not know"
    );
}

/// All six pre-refactor check samples are served from checked-in `.toml`
/// files, plus at least one fuzz campaign and one E9–E11 experiment.
#[test]
fn checked_in_files_cover_the_required_surface() {
    let docs = load_all().expect("all checked-in scenarios load");
    for required in REQUIRED_SAMPLES {
        let doc = docs
            .iter()
            .map(|(_, d)| d)
            .find(|d| d.name == *required)
            .unwrap_or_else(|| panic!("missing scenarios/{required}.toml"));
        assert_eq!(doc.kind, Kind::Check, "{required} must be a check scenario");
        assert_eq!(&doc.protocol, required);
    }
    assert!(
        docs.iter().any(|(_, d)| d.kind == Kind::Fuzz),
        "at least one fuzz campaign scenario"
    );
    assert!(
        docs.iter().any(|(_, d)| matches!(
            d.protocol.as_str(),
            "e9-baseline" | "e10-converge" | "e11-snapshots"
        )),
        "at least one E9–E11 experiment scenario"
    );
    // Every checked-in scenario fully cell-resolves.
    for (path, doc) in &docs {
        validate_cells(doc).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
}

/// `upsilon-scenario validate` loads the registry through `load_all`, so
/// a renamed or unparseable file fails it, and the error names the file.
#[test]
fn orphaned_files_fail_the_load_and_are_named() {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("registry-orphans");
    for (file, text, why) in [
        (
            "renamed.toml",
            "name = \"fig1\"\nkind = \"check\"\nprotocol = \"fig1\"\n",
            "does not match file stem `renamed`",
        ),
        (
            "broken.toml",
            "name = \"broken\"\nkind = \n",
            "broken.toml:",
        ),
    ] {
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("clean stale fixture");
        }
        std::fs::create_dir_all(&dir).expect("fixture dir");
        std::fs::write(dir.join(file), text).expect("scenario file");
        let err = load_all_in(&dir).expect_err("an orphan fails the load");
        assert!(err.contains(file) && err.contains(why), "{err}");
    }
}

/// The checked-in swarm scenario runs through the matrix driver, and its
/// batch × window matrix leaves every campaign counter untouched: within
/// one seed, all cells report identical states and extras.
#[test]
fn swarm_smoke_counters_are_mode_invariant() {
    let doc = load("swarm-smoke").expect("checked-in scenario");
    let report = run_matrix(&doc, 0).expect("matrix runs");
    assert!(report.deterministic, "repeats must be indistinguishable");
    assert!(report.ok, "every cell passes");
    for seed in &doc.seeds {
        let of_seed: Vec<_> = report.records.iter().filter(|r| r.seed == *seed).collect();
        assert!(!of_seed.is_empty());
        for r in &of_seed {
            assert_eq!(
                r.out, of_seed[0].out,
                "seed {seed}: cell {} diverges from cell {}",
                r.cell, of_seed[0].cell
            );
        }
    }
}

/// `repeats > 1` re-runs coordinates and the determinism cross-check
/// passes: repeated runs are indistinguishable.
#[test]
fn repeats_are_deterministic() {
    let mut doc = load("pinned-upsilon").expect("checked-in scenario");
    doc.repeats = 3;
    let report = run_matrix(&doc, 0).expect("matrix runs");
    assert_eq!(report.records.len(), 3);
    assert!(report.deterministic);
    assert!(report.ok);
    assert!(report
        .records
        .iter()
        .all(|r| r.out == report.records[0].out));
}

/// Axes out of range are an `Err` naming the cell and the axis, never a
/// panic inside a sample constructor or the checker.
#[test]
fn out_of_range_cells_are_errors_naming_cell_and_axis() {
    let cell = |protocol: &str, bindings: &[(&str, i64)]| Cell {
        arm: "default".into(),
        protocol: protocol.into(),
        expect: Expect::Pass,
        bindings: bindings
            .iter()
            .map(|&(k, v)| (k.to_string(), Scalar::Int(v)))
            .collect(),
    };
    let cases = [
        (cell("fig1", &[("n_plus_1", 0), ("depth", 4)]), "n_plus_1"),
        (
            cell(
                "fig1-mutating",
                &[("n_plus_1", 3), ("depth", 4), ("max_faults", 3)],
            ),
            "max_faults",
        ),
        (
            cell("fig2", &[("n_plus_1", 2), ("f", 5), ("depth", 4)]),
            "f",
        ),
        (
            cell("pinned-upsilon", &[("n_plus_1", 1), ("f", 1), ("depth", 4)]),
            "n_plus_1",
        ),
        (
            cell("fig2-dropped", &[("n_plus_1", 0), ("f", 1), ("depth", 4)]),
            "n_plus_1",
        ),
        (
            cell(
                "snapshot-commit",
                &[("n_plus_1", 3), ("k", 0), ("depth", 4)],
            ),
            "k",
        ),
        (
            cell(
                "stable-report",
                &[("n_plus_1", 2), ("reports", 0), ("depth", 4)],
            ),
            "reports",
        ),
        (
            cell(
                "converge-offby1",
                &[("n_plus_1", 2), ("k", 2), ("depth", 4)],
            ),
            "k",
        ),
    ];
    for (cell, axis) in &cases {
        let err = resolve_check(cell).expect_err("out of range");
        assert!(
            err.contains(&format!("cell `{}`", cell.label())) && err.contains(&format!("`{axis}`")),
            "{err}"
        );
    }

    // A fuzz knob out of range is caught the same way.
    let base = load("fuzz-commit").expect("checked-in scenario");
    let cell = base.expand().remove(0);
    for knob in ["window", "chunk", "execs_per_round"] {
        let mut doc = base.clone();
        let block = doc.fuzz.as_mut().expect("a [fuzz] block");
        block.entries.retain(|(k, _)| k != knob);
        block.entries.push((knob.to_string(), Scalar::Int(0)));
        let err = resolve_fuzz(&doc, &cell, 0).expect_err("zero knob");
        assert!(
            err.contains(&format!("cell `{}`", cell.label())) && err.contains(&format!("`{knob}`")),
            "{err}"
        );
    }
}
