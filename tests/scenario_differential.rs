//! Dual-engine smoke over the checked-in scenario registry (extends the
//! corpus of `tests/engine_differential.rs` through the scenario entry
//! path): every `scenarios/*.toml` contributes one representative cell
//! whose check target is replayed under both [`EngineKind`]s on a
//! round-robin schedule — traces must be bit-identical and the §3.3
//! verdicts must agree. The `e10-converge` experiment runs its raw
//! simulation under both engines; `e9-baseline` and `e11-snapshots` use
//! the inline-only agreement runners and are the only permitted skips.

use upsilon_check::explore::{replay_token, token_of, Choice};
use upsilon_scenario::matrix::run_one;
use upsilon_scenario::registry::{resolve_check, AnyCheck};
use upsilon_scenario::{load_all, Kind, ScenarioDoc};
use upsilon_sim::{EngineKind, ProcessId};

/// Protocols whose runners are inline-only (the agreement harness does
/// not expose an engine knob, and the packed swarm executor is built on
/// the inline engine's suspendable cells); everything else must be
/// exercised under both engines.
const INLINE_ONLY: &[&str] = &["e11-snapshots", "e9-baseline", "swarm"];

fn check_target_of(doc: &ScenarioDoc) -> Option<AnyCheck> {
    let cell = doc.expand().into_iter().next().expect("at least one cell");
    match doc.kind {
        Kind::Check | Kind::Fuzz => Some(resolve_check(&cell).expect("cell resolves")),
        Kind::Experiment | Kind::Swarm => None,
    }
}

/// The comparable rendering of one replay: the full `Debug` of the run
/// (events, schedule, FD samples, outputs, stop reason) plus every spec
/// verdict in checking order.
fn fingerprint(cfg: &AnyCheck, engine: EngineKind) -> String {
    let n = cfg.n_plus_1();
    let path: Vec<Choice> = (0..cfg.depth())
        .map(|i| Choice::Step(ProcessId(i % n)))
        .collect();
    let token = token_of(n, &path, &[]);
    match cfg {
        AnyCheck::Set(cfg) => {
            let out = replay_token(cfg, &token, engine);
            format!("{:?}\n{:?}", out.run, out.verdicts)
        }
        AnyCheck::Unit(cfg) => {
            let out = replay_token(cfg, &token, engine);
            format!("{:?}\n{:?}", out.run, out.verdicts)
        }
    }
}

#[test]
fn every_checked_in_scenario_agrees_across_engines() {
    let docs = load_all().expect("checked-in scenarios load");
    assert!(docs.len() >= 12, "the registry lost scenario files");
    let mut skipped = Vec::new();
    for (path, doc) in &docs {
        match check_target_of(doc) {
            Some(cfg) => {
                let inline = fingerprint(&cfg, EngineKind::Inline);
                let threads = fingerprint(&cfg, EngineKind::Threads);
                assert_eq!(
                    inline,
                    threads,
                    "{}: engines diverged on the representative cell",
                    path.display()
                );
            }
            None if INLINE_ONLY.contains(&doc.protocol.as_str()) => {
                skipped.push(doc.protocol.clone());
            }
            None => {
                // Experiment cells with an engine knob run under both
                // engines end to end.
                let cell = doc.expand().into_iter().next().expect("at least one cell");
                let seed = doc.seeds.first().copied().unwrap_or(0);
                let inline = run_one(doc, &cell, seed, EngineKind::Inline).expect("runs");
                let threads = run_one(doc, &cell, seed, EngineKind::Threads).expect("runs");
                assert_eq!(
                    inline,
                    threads,
                    "{}: engines diverged on the experiment cell",
                    path.display()
                );
            }
        }
    }
    skipped.sort();
    assert_eq!(
        skipped, INLINE_ONLY,
        "only the inline-only agreement runners may skip the differential"
    );
}
