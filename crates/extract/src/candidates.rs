//! Concrete candidate Υ^f → Ω^f extractors for the Theorem 1/5 game.
//!
//! The theorems assert that *no* candidate can work; these three natural
//! attempts exhibit the two possible failure modes the game detects:
//!
//! * [`ActivityCandidate`] is *live* — it reacts to whoever is taking
//!   steps — so the adversary forces it to change its output forever
//!   (`NeverStabilizes`);
//! * [`MirrorCandidate`] and [`StubbornCandidate`] are *stable* — they
//!   stick to a set — so the adversary finds an extension in which their
//!   stable set contains no correct process (`Refuted`).

use crate::adversary::Candidate;
use upsilon_mem::RegisterArray;
use upsilon_sim::{algo, AlgoFn, Key, Output, ProcessId, ProcessSet};

/// Publishes the `m` most recently active processes (highest heartbeat
/// timestamps, ties toward smaller ids).
///
/// This is the natural "suspect the silent" extractor — and exactly the
/// kind of algorithm the Theorem 1 run construction defeats: whichever set
/// it outputs, the adversary lets an excluded process run solo until the
/// set must change.
#[derive(Clone, Copy, Debug, Default)]
pub struct ActivityCandidate;

fn top_m(stamps: &[u64], m: usize) -> ProcessSet {
    let mut ids: Vec<usize> = (0..stamps.len()).collect();
    ids.sort_by(|&a, &b| stamps[b].cmp(&stamps[a]).then(a.cmp(&b)));
    ids.into_iter().take(m).map(ProcessId).collect()
}

impl Candidate for ActivityCandidate {
    fn name(&self) -> &'static str {
        "activity (top-m heartbeats)"
    }

    fn algorithms(&self, n_plus_1: usize, set_size: usize) -> Vec<AlgoFn<ProcessSet>> {
        (0..n_plus_1)
            .map(|_| -> AlgoFn<ProcessSet> {
                algo(move |mut ctx| async move {
                    let board = RegisterArray::<u64>::new(Key::new("hb"), n_plus_1, 0);
                    let mut ts = 0u64;
                    let mut published = None;
                    // #[conform(bound = "B")]
                    loop {
                        ts += 1;
                        board.write_mine(&mut ctx, ts).await;
                        let _ = ctx.query_fd().await;
                        let stamps = board.collect(&mut ctx).await;
                        let l = top_m(&stamps, set_size);
                        if published != Some(l) {
                            ctx.output(Output::LeaderSet(l)).await;
                            published = Some(l);
                        }
                    }
                })
            })
            .collect()
    }
}

/// Publishes (a deterministic size-`m` trim of) the Υ^f output itself.
///
/// Plausible at first sight — "the gladiators look like the live ones" —
/// but with the pinned history `U = {p_1..p_n}` it never includes
/// `p_{n+1}`, so the run in which everyone else crashes refutes it.
#[derive(Clone, Copy, Debug, Default)]
pub struct MirrorCandidate;

impl Candidate for MirrorCandidate {
    fn name(&self) -> &'static str {
        "mirror (trimmed Υ output)"
    }

    fn algorithms(&self, n_plus_1: usize, set_size: usize) -> Vec<AlgoFn<ProcessSet>> {
        (0..n_plus_1)
            .map(|_| -> AlgoFn<ProcessSet> {
                algo(move |mut ctx| async move {
                    let mut published = None;
                    // #[conform(bound = "B")]
                    loop {
                        let u: ProcessSet = ctx.query_fd().await;
                        // Deterministic trim/pad to the required size.
                        let mut l: ProcessSet = u.iter().take(set_size).collect();
                        let mut next = 0usize;
                        while l.len() < set_size {
                            l.insert(ProcessId(next));
                            next += 1;
                        }
                        if published != Some(l) {
                            ctx.output(Output::LeaderSet(l)).await;
                            published = Some(l);
                        }
                    }
                })
            })
            .collect()
    }
}

/// Publishes the fixed set `{p_1, …, p_m}` forever, ignoring everything.
///
/// The baseline "stable but blind" candidate: refuted by the extension in
/// which exactly those processes crash.
#[derive(Clone, Copy, Debug, Default)]
pub struct StubbornCandidate;

impl Candidate for StubbornCandidate {
    fn name(&self) -> &'static str {
        "stubborn (constant set)"
    }

    fn algorithms(&self, n_plus_1: usize, set_size: usize) -> Vec<AlgoFn<ProcessSet>> {
        (0..n_plus_1)
            .map(|_| -> AlgoFn<ProcessSet> {
                algo(move |mut ctx| async move {
                    let l: ProcessSet = (0..set_size).map(ProcessId).collect();
                    ctx.output(Output::LeaderSet(l)).await;
                    // #[conform(bound = "B")]
                    loop {
                        ctx.yield_step().await;
                    }
                })
            })
            .collect()
    }
}

/// All shipped candidates, for table-driven experiments.
pub fn all_candidates() -> Vec<Box<dyn Candidate>> {
    vec![
        Box::new(ActivityCandidate),
        Box::new(MirrorCandidate),
        Box::new(StubbornCandidate),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_m_orders_by_timestamp_then_id() {
        assert_eq!(
            top_m(&[5, 9, 9, 1], 2),
            ProcessSet::from_iter([ProcessId(1), ProcessId(2)])
        );
        assert_eq!(
            top_m(&[5, 5, 5], 2),
            ProcessSet::from_iter([ProcessId(0), ProcessId(1)])
        );
        assert_eq!(top_m(&[1, 2], 2), ProcessSet::all(2));
    }

    #[test]
    fn candidates_report_names() {
        for c in all_candidates() {
            assert!(!c.name().is_empty());
            assert_eq!(c.algorithms(4, 2).len(), 4);
        }
    }
}
