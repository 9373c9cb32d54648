//! Golden digests over the checked-in scenario registry (extends the
//! corpus of `tests/engine_differential.rs` through the scenario entry
//! path): every `scenarios/*.toml` contributes one representative cell.
//! A check target is replayed on a round-robin schedule until the run
//! stops (every process finished, or `REPLAY_STEPS` steps), a fuzz target
//! for its `depth`, and the digest covers the full run and every spec
//! verdict; an experiment or swarm cell runs end to end, and its digest
//! covers the outcome record.
//! Each digest must match its line in `tests/golden/scenario_traces.jsonl`,
//! and no two scenarios may share a digest.
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

/// Step budget of a check target's round-robin replay. Its `depth`-long
/// prefix is not enough: the first five round-robin steps of `fig1`,
/// `fig2` and `fig1-mutating` are identical, so the replay runs on until
/// the protocol itself stops.
const REPLAY_STEPS: usize = 256;

/// The replay of a check target on a `steps`-long round-robin schedule
/// (cut short if every process finishes): the full
/// `Debug` of the run (events, schedule, FD samples, outputs, stop reason)
/// plus every spec verdict in checking order. Each process's first
/// detector query takes the menu's last candidate (picks are clamped to
/// the menu), so a mutating menu serves its mutant: otherwise the replay
/// of `fig1-mutating` would be `fig1`'s.
fn replay_rendering(cfg: &AnyCheck, steps: usize) -> String {
    let n = cfg.n_plus_1();
    let path: Vec<Choice> = (0..steps).map(|i| Choice::Step(ProcessId(i % n))).collect();
    let token = token_of(n, &path, &vec![vec![u32::MAX]; n]);
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
/// and its verdicts for a check target (until it stops) or a fuzz target
/// (for its `depth`), the outcome record for an experiment or swarm cell.
fn digest_of(doc: &ScenarioDoc) -> u64 {
    let cell = doc.expand().into_iter().next().expect("at least one cell");
    let rendered = match doc.kind {
        Kind::Check => replay_rendering(&resolve_check(&cell).expect("resolves"), REPLAY_STEPS),
        Kind::Fuzz => {
            // A fuzz target's `depth` bounds every schedule it runs.
            let cfg = resolve_check(&cell).expect("cell resolves");
            replay_rendering(&cfg, cfg.depth())
        }
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
    let mut seen: Vec<(u64, &str)> = Vec::new();
    for (_, doc) in &docs {
        let digest = digest_of(doc);
        if let Some((_, twin)) = seen.iter().find(|(d, _)| *d == digest) {
            panic!(
                "scenarios `{twin}` and `{}` share digest {digest:016x}: the golden \
                 cannot tell them apart",
                doc.name
            );
        }
        seen.push((digest, &doc.name));
        let _ = writeln!(
            jsonl,
            "{{\"scenario\":\"{}\",\"digest\":\"{digest:016x}\"}}",
            doc.name,
        );
    }
    assert_golden("scenario_traces.jsonl", &jsonl);
}
