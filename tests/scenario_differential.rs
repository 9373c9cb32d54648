//! Golden digests over the checked-in scenario registry (extends the
//! corpus of `tests/engine_differential.rs` through the scenario entry
//! path): every `scenarios/*.toml` contributes one representative cell.
//! A check or fuzz target is replayed on a round-robin schedule, and its
//! digest covers the full run and every spec verdict; an experiment or
//! swarm cell runs end to end, and its digest covers the outcome record.
//! Each digest must match its line in `tests/golden/scenario_traces.jsonl`,
//! recorded while a second, thread-per-process engine still existed and
//! agreed bit for bit on every scenario it could run.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test scenario_differential
//! ```

mod common;

use common::assert_golden;
use std::fmt::Write as _;
use upsilon_check::explore::{replay_token, token_of, Choice};
use upsilon_scenario::load_all;
use upsilon_scenario::matrix::run_one;
use upsilon_scenario::registry::{resolve_check, AnyCheck};
use upsilon_scenario::{Kind, ScenarioDoc};
use upsilon_sim::{EngineKind, Fnv64, ProcessId};

/// The replay of a check target on a round-robin schedule: the full
/// `Debug` of the run (events, schedule, FD samples, outputs, stop reason)
/// plus every spec verdict in checking order.
fn replay_rendering(cfg: &AnyCheck) -> String {
    let n = cfg.n_plus_1();
    let path: Vec<Choice> = (0..cfg.depth())
        .map(|i| Choice::Step(ProcessId(i % n)))
        .collect();
    let token = token_of(n, &path, &[]);
    match cfg {
        AnyCheck::Set(cfg) => {
            let out = replay_token(cfg, &token, EngineKind::Inline);
            format!("{:?}\n{:?}", out.run, out.verdicts)
        }
        AnyCheck::Unit(cfg) => {
            let out = replay_token(cfg, &token, EngineKind::Inline);
            format!("{:?}\n{:?}", out.run, out.verdicts)
        }
    }
}

/// The digest of one scenario's representative cell: the replayed run
/// and its verdicts for a check or fuzz target, the outcome record for an
/// experiment or swarm cell.
fn digest_of(doc: &ScenarioDoc) -> u64 {
    let cell = doc.expand().into_iter().next().expect("at least one cell");
    let rendered = match doc.kind {
        Kind::Check | Kind::Fuzz => replay_rendering(&resolve_check(&cell).expect("cell resolves")),
        Kind::Experiment | Kind::Swarm => {
            let seed = doc.seeds.first().copied().unwrap_or(0);
            format!("{:?}", run_one(doc, &cell, seed).expect("runs"))
        }
    };
    let mut h = Fnv64::new();
    let _ = write!(h, "{rendered}");
    h.finish()
}

#[test]
fn every_checked_in_scenario_matches_its_golden_digest() {
    let docs = load_all().expect("checked-in scenarios load");
    assert!(docs.len() >= 12, "the registry lost scenario files");
    let mut jsonl = String::new();
    for (_, doc) in &docs {
        let _ = writeln!(
            jsonl,
            "{{\"scenario\":\"{}\",\"digest\":\"{:016x}\"}}",
            doc.name,
            digest_of(doc)
        );
    }
    assert_golden("scenario_traces.jsonl", &jsonl);
}
