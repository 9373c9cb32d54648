//! Golden counterexample regression: a stored `UCHK1:` token must keep
//! replaying to the *same* violation, bit-identically.
//!
//! The token in `tests/golden/commit_buggy.uchk1` is the explorer's shrunk
//! counterexample for the seeded snapshot-commit bug (`p1` drops its
//! announcement write; see `upsilon_check::samples::snapshot_commit`). If
//! the simulator's scheduling, the replay-token format or the spec
//! checkers drift, this file is the tripwire.

use upsilon_check::{check, replay_token, samples, ReplayToken};
use upsilon_sim::{EngineKind, StopReason};

const GOLDEN: &str = include_str!("golden/commit_buggy.uchk1");

fn golden_token() -> ReplayToken {
    ReplayToken::parse(GOLDEN.trim()).expect("golden token parses")
}

#[test]
fn golden_token_round_trips_through_its_encoding() {
    let token = golden_token();
    assert_eq!(token.encode(), GOLDEN.trim());
    assert_eq!(ReplayToken::parse(&token.encode()).unwrap(), token);
}

#[test]
fn golden_token_replays_to_the_same_violation() {
    let cfg = samples::snapshot_commit(2, 1, 9, true);
    let token = golden_token();

    let replayed = replay_token(&cfg, &token, EngineKind::Inline);

    // Run conditions hold, 1-set agreement breaks.
    for (name, verdict) in &replayed.verdicts {
        match name.as_str() {
            "run-conditions" => assert!(verdict.is_ok(), "replay must be a legal run"),
            "k-set-agreement" => {
                let msg = verdict.as_ref().expect_err("the seeded bug must reproduce");
                assert!(msg.contains("2 distinct values"), "drifted message: {msg}");
            }
            other => panic!("unexpected spec {other:?}"),
        }
    }

    // The replay consumed the whole scripted schedule and ran to the end
    // of its step budget (the spinning non-decider never finishes).
    assert_eq!(replayed.run.total_steps() as usize, token.schedule.len());
    assert_eq!(replayed.run.stop_reason(), StopReason::BudgetExhausted);
}

#[test]
fn sound_variant_survives_the_golden_schedule() {
    // Replaying the same schedule against the *fixed* protocol must be
    // clean — the token pins the interleaving, not the verdict.
    let cfg = samples::snapshot_commit(2, 1, 9, false);
    let replayed = replay_token(&cfg, &golden_token(), EngineKind::Inline);
    for (name, verdict) in &replayed.verdicts {
        assert!(verdict.is_ok(), "{name}: {verdict:?}");
    }
}

#[test]
fn explorer_still_finds_the_golden_counterexample_first() {
    // Determinism end to end: re-running the exploration from scratch
    // rediscovers exactly the stored token.
    let report = check(&samples::snapshot_commit(2, 1, 9, true));
    assert!(!report.ok());
    assert_eq!(report.violations[0].token, golden_token());
}
