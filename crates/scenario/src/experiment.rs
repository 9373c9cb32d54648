//! Experiments: the E1–E16 tables of EXPERIMENTS.md ([`tables`]) and the
//! experiment-kind cell runners, which reduce the E9–E11 table loops to
//! *one seed of one cell* so the matrix driver can fan them out like any
//! other scenario.
//!
//! Each runner reproduces the exact per-seed configuration of its
//! experiment — `e9-baseline` and `e11-snapshots` wrap the Fig. 1 / Ω_k
//! agreement runs, `e10-converge` wraps the raw k-converge simulation —
//! and the E9–E11 tables read their rows from the evidence of the
//! checked-in `scenarios/e9-baseline.toml`, `e10-converge.toml` and
//! `e11-snapshots.toml` matrices over these cells.

pub mod tables;

use std::sync::{Arc, Mutex};

use upsilon_core::converge::ConvergeInstance;
use upsilon_core::experiment::{
    run_baseline_omega_k, run_fig1, staggered_crashes, AgreementConfig, AgreementOutcome,
};
use upsilon_core::fd::{OmegaKChoice, UpsilonChoice};
use upsilon_core::mem::SnapshotFlavor;
use upsilon_core::sim::{algo, FailurePattern, Key, SeededRandom, SimBuilder};
use upsilon_scenario_schema::Cell;

use crate::matrix::{RunOut, Verdict};
use crate::registry::Binds;

/// Validates an experiment cell's bindings without running it; used by the
/// matrix driver to surface binding errors before fanning out.
pub fn validate_cell(cell: &Cell) -> Result<(), String> {
    bindings_of(cell).map(|_| ())
}

/// Runs one seed of one experiment cell.
pub fn run_cell(cell: &Cell, seed: u64) -> Result<RunOut, String> {
    match bindings_of(cell)? {
        ExpCell::E9 {
            n_plus_1,
            crashes,
            first_at,
            native,
        } => {
            let cfg =
                AgreementConfig::new(staggered_crashes(n_plus_1, crashes, first_at)).seed(seed);
            let out = if native {
                run_fig1(&cfg, UpsilonChoice::default())
            } else {
                run_baseline_omega_k(&cfg, n_plus_1 - 1, OmegaKChoice::default())
            };
            Ok(agreement_out(out))
        }
        ExpCell::E10 {
            n_plus_1,
            k,
            distinct,
        } => Ok(run_converge(n_plus_1, k, distinct, seed)),
        ExpCell::E11 { n_plus_1, flavor } => {
            let cfg = AgreementConfig::new(staggered_crashes(n_plus_1, 1, 40))
                .seed(seed)
                .flavor(flavor);
            Ok(agreement_out(run_fig1(&cfg, UpsilonChoice::default())))
        }
    }
}

/// A validated experiment cell.
enum ExpCell {
    E9 {
        n_plus_1: usize,
        crashes: usize,
        first_at: u64,
        native: bool,
    },
    E10 {
        n_plus_1: usize,
        k: usize,
        distinct: usize,
    },
    E11 {
        n_plus_1: usize,
        flavor: SnapshotFlavor,
    },
}

fn bindings_of(cell: &Cell) -> Result<ExpCell, String> {
    let mut b = Binds::new(cell);
    let out = match cell.protocol.as_str() {
        "e9-baseline" => ExpCell::E9 {
            n_plus_1: b.usize_or("n_plus_1", 4)?,
            crashes: b.usize_req("crashes")?,
            first_at: b.usize_or("first_at", 50)? as u64,
            native: b.bool_or("native", true)?,
        },
        "e10-converge" => ExpCell::E10 {
            n_plus_1: b.usize_or("n_plus_1", 4)?,
            k: b.usize_req("k")?,
            distinct: b.usize_req("distinct")?,
        },
        "e11-snapshots" => ExpCell::E11 {
            n_plus_1: b.usize_req("n_plus_1")?,
            flavor: match b.str_req("flavor")? {
                "native" => SnapshotFlavor::Native,
                "register" => SnapshotFlavor::RegisterBased,
                other => {
                    return Err(format!(
                    "cell `{}`: axis `flavor` must be \"native\" or \"register\", got {other:?}",
                    cell.label()
                ))
                }
            },
        },
        other => {
            return Err(format!(
                "cell `{}`: protocol `{other}` is not an experiment protocol",
                cell.label()
            ))
        }
    };
    b.finish()?;
    Ok(out)
}

fn agreement_out(out: AgreementOutcome) -> RunOut {
    // §3.3 verdict: the task spec *and* the run-condition validator.
    let spec = out
        .spec
        .as_ref()
        .err()
        .map(|e| format!("{e:?}"))
        .or_else(|| out.run_conditions.as_ref().err().cloned());
    RunOut {
        verdict: Verdict::of(spec.is_none()),
        states: out.total_steps,
        violations: usize::from(spec.is_some()),
        spec,
        token: None,
        extras: RunOut::extras_of(vec![
            ("decided", out.decided.iter().flatten().count() as i64),
            ("fd_queries", out.fd_queries as i64),
        ]),
    }
}

/// One seed of the E10 k-converge simulation: `n_plus_1` processes with
/// `(i % distinct) + 1` inputs run `ConvergeInstance::converge(k, v)` under
/// a seeded-random schedule; the C-Agreement verdict is `violation` iff
/// some processes committed more than `k` distinct values.
fn run_converge(n_plus_1: usize, k: usize, distinct: usize, seed: u64) -> RunOut {
    /// Shared per-process (picked, committed) results of a converge run.
    type SharedResults = Arc<Mutex<Vec<Option<(u64, bool)>>>>;
    let inputs: Vec<u64> = (0..n_plus_1).map(|i| (i % distinct) as u64 + 1).collect();
    let results: SharedResults = Arc::new(Mutex::new(vec![None; n_plus_1]));
    let results2 = Arc::clone(&results);
    let inputs2 = inputs.clone();
    let _ = SimBuilder::<()>::new(FailurePattern::failure_free(n_plus_1))
        .adversary(SeededRandom::new(seed))
        .spawn_all(move |pid| {
            let results = Arc::clone(&results2);
            let v = inputs2[pid.index()];
            algo(move |mut ctx| async move {
                let inst = ConvergeInstance::new(Key::new("cv"), n_plus_1, SnapshotFlavor::Native);
                let out = inst.converge(&mut ctx, k, v).await;
                results.lock().expect("converge results poisoned")[pid.index()] = Some(out);
            })
        })
        .run();
    let outs = results.lock().expect("converge results poisoned").clone();
    let commits = outs.iter().flatten().filter(|(_, c)| *c).count();
    let mut picked: Vec<u64> = outs.iter().flatten().map(|(v, _)| *v).collect();
    picked.sort_unstable();
    picked.dedup();
    let violated = commits > 0 && picked.len() > k;
    RunOut {
        verdict: Verdict::of(!violated),
        states: commits as u64,
        violations: usize::from(violated),
        spec: violated.then(|| {
            format!(
                "C-Agreement: {} distinct values converged under k = {k}",
                picked.len()
            )
        }),
        token: None,
        extras: RunOut::extras_of(vec![
            ("commits", commits as i64),
            ("all_commit", i64::from(commits == n_plus_1)),
            ("some_commit", i64::from(commits > 0)),
        ]),
    }
}
