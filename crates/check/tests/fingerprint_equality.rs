//! Equality of the session's incremental fingerprints with the batch
//! definition, over the paper's sample protocols.
//!
//! A [`Session`] maintains its dedup fingerprint step by step: running
//! per-process digests plus per-object memory terms. The contract is that
//! at *every* node it equals the batch [`trace_fingerprint`] (and
//! [`orbit_trace_fingerprint`], canonical permutation included) of a fresh
//! [`TraceLevel::Full`] replay of the same schedule — whatever trace level
//! the session records at, and however the node was reached. The random
//! descents below reach nodes the way the explorer does: steps, mid-run
//! crashes, saves at every node, restores to arbitrary ancestors, and
//! failure-detector pick scripts rewritten past the served queries (the
//! explorer's FD-menu variants).

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Arc;
use upsilon_check::samples;
use upsilon_check::{token_of, CheckConfig, Choice, MenuOracle};
use upsilon_sim::{
    orbit_trace_fingerprint, trace_fingerprint, FailurePattern, FdValue, ProcessId, Session,
    SessionSave, SessionStep, SimBuilder, TraceLevel,
};

/// Replays `path` under `picks` from scratch at full trace detail and
/// asserts both fingerprint equalities against the live session.
fn assert_matches_replay<D: FdValue>(
    cfg: &CheckConfig<D>,
    session: &Session<D>,
    path: &[Choice],
    picks: &[Vec<u32>],
    extra_seed: u64,
) -> Result<(), TestCaseError> {
    let n = cfg.n_plus_1;
    let token = token_of(n, path, picks);
    let oracle = MenuOracle::new(Arc::clone(&cfg.menu), n, token.fd_choices.clone());
    let mut builder = SimBuilder::<D>::replay(&token)
        .oracle(oracle)
        .record_op_sigs(cfg.use_matrix)
        .trace_level(TraceLevel::Full);
    for (i, a) in (cfg.algos)().into_iter().enumerate() {
        if let Some(a) = a {
            builder = builder.spawn(ProcessId(i), a);
        }
    }
    let replay = builder.run();
    prop_assert_eq!(
        replay.run.events().len(),
        session.run().events().len(),
        "the replay reproduces the session's prefix"
    );
    prop_assert_eq!(
        session.fingerprint(),
        trace_fingerprint(&replay.run, &replay.memory)
    );
    // Explorer-side extra words (pick suffixes, crash times) are opaque to
    // the fingerprint; any values exercise the combining code.
    let class_of = cfg.orbit.class_of(n);
    let extra: Vec<u64> = (0..n as u64)
        .map(|i| extra_seed.wrapping_mul(0x9e37_79b9).wrapping_add(i % 2))
        .collect();
    prop_assert_eq!(
        session.orbit_fingerprint(&class_of, &extra),
        orbit_trace_fingerprint(&replay.run, &replay.memory, &class_of, &extra)
    );
    Ok(())
}

/// One random descent: `actions` are `(kind, arg)` pairs interpreted as a
/// step of the `arg`-th eligible process, a crash of one (within the fault
/// budget), or a restore to the `arg`-th ancestor with the unserved pick
/// suffixes rewritten. Every node reached is checked against its replay.
fn descend<D: FdValue>(
    cfg: &CheckConfig<D>,
    level: TraceLevel,
    max_faults: usize,
    actions: &[(u8, u8)],
) -> Result<(), TestCaseError> {
    let n = cfg.n_plus_1;
    let mut picks: Vec<Vec<u32>> = vec![Vec::new(); n];
    let oracle = MenuOracle::new(Arc::clone(&cfg.menu), n, picks.clone());
    let mut session = Session::new(
        FailurePattern::failure_free(n),
        Arc::clone(&cfg.algos),
        Box::new(oracle),
        level,
        cfg.use_matrix,
    );
    // One (save, path) per node on the current path, root first.
    let mut stack: Vec<(SessionSave, Vec<Choice>)> = vec![(session.save(), Vec::new())];
    assert_matches_replay(cfg, &session, &[], &picks, 0)?;
    for (k, &(kind, arg)) in actions.iter().enumerate() {
        let path = stack.last().expect("root save").1.clone();
        let eligible: Vec<ProcessId> = (0..n)
            .map(ProcessId)
            .filter(|&p| session.eligible(p))
            .collect();
        let faults = path
            .iter()
            .filter(|c| matches!(c, Choice::Crash(_)))
            .count();
        let mut restore_to = None;
        match kind % 8 {
            6 | 7 => restore_to = Some(arg as usize % stack.len()),
            5 if faults < max_faults && eligible.len() > 1 => {
                let p = eligible[arg as usize % eligible.len()];
                session.crash(p);
                let mut child = path;
                child.push(Choice::Crash(p));
                stack.push((session.save(), child));
            }
            _ if !eligible.is_empty() => {
                let p = eligible[arg as usize % eligible.len()];
                match session.step(p) {
                    SessionStep::Stepped => {
                        let mut child = path;
                        child.push(Choice::Step(p));
                        stack.push((session.save(), child));
                    }
                    // A finished algorithm consumed the grant without a
                    // step; the explorer rewinds to the node, and so do we.
                    SessionStep::NoStep => restore_to = Some(stack.len() - 1),
                }
            }
            _ => restore_to = Some(arg as usize % stack.len()),
        }
        if let Some(depth) = restore_to {
            stack.truncate(depth + 1);
            let save = &stack[depth].0;
            let served = save.query_counts();
            // Picks for queries already served are baked into the state;
            // everything after them is free to vary, as for an FD variant.
            for (i, script) in picks.iter_mut().enumerate() {
                script.truncate(served[i] as usize);
                script.resize(served[i] as usize, 0);
                for j in 0..usize::from(arg % 3) {
                    script.push(u32::from(arg.rotate_left(j as u32 + i as u32)) % 3);
                }
            }
            let oracle = MenuOracle::with_counts(Arc::clone(&cfg.menu), n, picks.clone(), &served);
            session.restore(save, Box::new(oracle));
        }
        let path = &stack.last().expect("root save").1;
        assert_matches_replay(cfg, &session, path, &picks, k as u64)?;
    }
    Ok(())
}

fn level_of(full: bool) -> TraceLevel {
    if full {
        TraceLevel::Full
    } else {
        TraceLevel::Steps
    }
}

fn actions() -> impl Strategy<Value = Vec<(u8, u8)>> {
    proptest::collection::vec((0u8..8, 0u8..=255), 0..40)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn fig1_session_fingerprints_equal_batch(acts in actions(), full in proptest::bool::ANY) {
        descend(&samples::fig1(3, 16, 1), level_of(full), 1, &acts)?;
    }

    #[test]
    fn fig2_session_fingerprints_equal_batch(acts in actions(), full in proptest::bool::ANY) {
        descend(&samples::fig2(3, 1, 16, 1), level_of(full), 1, &acts)?;
    }

    #[test]
    fn fd_variant_session_fingerprints_equal_batch(
        acts in actions(),
        full in proptest::bool::ANY,
    ) {
        descend(&samples::fig1_mutating(3, 16, 1, 1), level_of(full), 1, &acts)?;
    }

    #[test]
    fn stable_report_session_fingerprints_equal_batch(
        acts in actions(),
        full in proptest::bool::ANY,
    ) {
        // A certified-symmetric orbit: the orbit fingerprint's canonical
        // permutation is non-trivial here.
        descend(&samples::stable_report(3, 2, 16), level_of(full), 2, &acts)?;
    }

    #[test]
    fn snapshot_commit_session_fingerprints_equal_batch(
        acts in actions(),
        full in proptest::bool::ANY,
        buggy in proptest::bool::ANY,
    ) {
        descend(&samples::snapshot_commit(3, 2, 16, buggy), level_of(full), 2, &acts)?;
    }
}
