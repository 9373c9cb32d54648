//! Property-based exploration sweep (the ISSUE's proptest satellite):
//! random small configurations must behave as the paper predicts —
//! Fig. 1/Fig. 2 under a faithful Υ never violate k-set agreement on any
//! explored schedule or crash scenario, while the known-unfaithful pinned
//! adversary history always yields a parseable counterexample token.
//!
//! Explorations are exhaustive per case, so each proptest case is already a
//! universal statement over schedules; the random part sweeps the
//! configuration space (n, depth, fault budget). Cases stay small
//! (n ≤ 3, depth ≤ 6) to keep the whole sweep in CI time.

use proptest::prelude::*;
use upsilon_check::samples;
use upsilon_check::{check, ReplayToken};

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// Fig. 1's safety does not depend on Υ (§5.2): no schedule, crash
    /// scenario or detector output may break `n`-set agreement.
    #[test]
    fn fig1_never_violates_set_agreement(
        n in 2usize..=3,
        depth in 1usize..=6,
        faults in 0usize..=1,
    ) {
        let report = check(&samples::fig1(n, depth, faults.min(n - 1)));
        prop_assert!(report.ok(), "{:?}", report.violations.first());
        prop_assert!(report.stats.nodes >= 1);
        prop_assert!(!report.stats.truncated);
    }

    /// Same sweep under a temporarily lying Υ: extra detector branches,
    /// same verdict.
    #[test]
    fn fig1_mutating_never_violates_set_agreement(
        n in 2usize..=3,
        depth in 1usize..=6,
    ) {
        let report = check(&samples::fig1_mutating(n, depth, 0, 1));
        prop_assert!(report.ok(), "{:?}", report.violations.first());
    }

    /// Fig. 2 (§6): `f`-set agreement from Υ^f stays safe on every
    /// explored run.
    #[test]
    fn fig2_never_violates_set_agreement(
        n in 2usize..=3,
        depth in 1usize..=6,
        faults in 0usize..=1,
    ) {
        let f = 1; // f < n for every sampled n
        let report = check(&samples::fig2(n, f, depth, faults.min(n - 1)));
        prop_assert!(report.ok(), "{:?}", report.violations.first());
    }

    /// The adversary game's pinned constant history is *not* a faithful Υ:
    /// with any crash budget ≥ 1 the explorer must produce a
    /// counterexample, and its token must survive an encode/parse round
    /// trip with a within-budget crash count.
    #[test]
    fn pinned_history_always_yields_a_counterexample(
        n in 2usize..=3,
        depth in 1usize..=4,
        f in 1usize..=2,
    ) {
        let f = f.min(n - 1);
        let report = check(&samples::pinned_upsilon(n, f, depth));
        prop_assert!(!report.ok(), "pinned U must be caught (n={n} f={f} depth={depth})");
        let v = &report.violations[0];
        prop_assert_eq!(v.spec.as_str(), "upsilon-faithful");
        let round = ReplayToken::parse(&v.token.encode()).expect("token round-trips");
        prop_assert_eq!(&round, &v.token);
        prop_assert!(v.token.crashes.iter().flatten().count() <= f);
        prop_assert!(v.token.schedule.len() <= depth);
    }

    /// The seeded commit bug is found at every depth deep enough to let
    /// both processes finish; the sound variant never is.
    #[test]
    fn commit_bug_found_iff_seeded(depth in 9usize..=11) {
        let buggy = check(&samples::snapshot_commit(2, 1, depth, true));
        prop_assert!(!buggy.ok());
        let sound = check(&samples::snapshot_commit(2, 1, depth, false));
        prop_assert!(sound.ok(), "{:?}", sound.violations.first());
    }
}
