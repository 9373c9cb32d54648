//! Property sweep over the fuzzer's determinism contracts:
//!
//! * PCT initial priorities are a bijection onto `{d, …, d + n}` for any
//!   seed, depth and process count.
//! * A campaign is a pure function of its configuration — the same seed
//!   yields the same report, regardless of worker count or chunking.
//! * Corpus entries replay to identical coverage hashes under the inline
//!   and threaded engines, so a corpus recorded by one engine drives the
//!   other bit-identically.

use proptest::prelude::*;
use upsilon_check::samples;
use upsilon_fuzz::{coverage_of_token, fuzz, FuzzConfig};
use upsilon_sim::{EngineKind, PctScheduler};

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    /// The PCT priority assignment is a uniformly drawn *bijection* onto
    /// `{d, …, d + n}`: sorted, the priorities are exactly that interval,
    /// so every process is strictly ordered and every initial priority
    /// sits above every demotion value (`< d`).
    #[test]
    fn pct_priorities_are_a_bijection(
        seed in 0u64..1_000_000,
        depth in 1usize..=5,
        n_plus_1 in 1usize..=7,
    ) {
        let mut pct = PctScheduler::new(seed, depth, 64);
        let mut prios = pct.priorities(n_plus_1).to_vec();
        prop_assert_eq!(prios.len(), n_plus_1);
        prios.sort_unstable();
        let expected: Vec<u64> =
            (0..n_plus_1 as u64).map(|i| depth as u64 + i).collect();
        prop_assert_eq!(prios, expected);
        // Stable across repeated queries (assigned once, then frozen).
        prop_assert_eq!(
            pct.priorities(n_plus_1).to_vec(),
            pct.priorities(n_plus_1).to_vec()
        );
    }

    /// Same configuration, same report — including when the worker count
    /// changes, which is the whole point of the stealing pool's
    /// coordinate-ordered merge.
    #[test]
    fn campaign_is_deterministic_per_seed(seed in 0u64..1_000, workers in 1usize..=4) {
        let target = samples::fig1(3, 16, 1);
        let base = FuzzConfig::new(target).seed(seed).budget(1, 128);
        let mut serial = base.clone();
        serial.workers = 1;
        let mut wide = base;
        wide.workers = workers;
        wide.chunk = 32;
        let a = fuzz(&serial, &[]);
        let b = fuzz(&wide, &[]);
        prop_assert_eq!(a, b);
    }

    /// The explicit 1/2/8 sweep on a violating target: reports (verdicts,
    /// shrunk tokens, coverage, corpus) are `assert_eq!`-identical for
    /// every worker count the stealing pool is given.
    #[test]
    fn worker_sweep_1_2_8_is_identical(seed in 0u64..200) {
        let at = |workers: usize| {
            let mut cfg = FuzzConfig::new(samples::snapshot_commit(2, 1, 12, true))
                .seed(seed)
                .budget(2, 96);
            cfg.workers = workers;
            cfg.chunk = 16;
            fuzz(&cfg, &[])
        };
        let one = at(1);
        prop_assert_eq!(&one, &at(2));
        prop_assert_eq!(&one, &at(8));
    }

    /// Every corpus entry replays to the same coverage fingerprint under
    /// both engines: the token really does pin the run down, and coverage
    /// is a function of the run alone.
    #[test]
    fn corpus_replays_identically_across_engines(seed in 0u64..1_000) {
        let target = samples::fig1(3, 14, 1);
        let cfg = FuzzConfig::new(target.clone()).seed(seed).budget(1, 96);
        let report = fuzz(&cfg, &[]);
        prop_assert!(report.ok(), "{:?}", report.violations.first());
        for tok in &report.corpus {
            let inline = coverage_of_token(&target, tok, cfg.window, EngineKind::Inline);
            let threads = coverage_of_token(&target, tok, cfg.window, EngineKind::Threads);
            prop_assert!(inline.is_ok(), "token {} rejected", tok);
            prop_assert_eq!(&inline, &threads, "token {}", tok);
        }
    }

    /// Replaying a campaign's own corpus as seeds reproduces only hashes
    /// the campaign already saw, and every entry re-earns its place: the
    /// corpus is a faithful, self-contained summary of the covering runs.
    #[test]
    fn corpus_seeds_prime_their_own_coverage(seed in 0u64..500) {
        let target = samples::fig1(3, 12, 0);
        let cfg = FuzzConfig::new(target).seed(seed).budget(1, 64);
        let report = fuzz(&cfg, &[]);
        // Replay the corpus alone (zero-round campaign): every hash the
        // corpus carried must reappear.
        let mut replay_cfg = cfg.clone();
        replay_cfg.rounds = 0;
        let replay = fuzz(&replay_cfg, &report.corpus);
        for h in &replay.coverage_hashes {
            prop_assert!(report.coverage_hashes.contains(h));
        }
        prop_assert_eq!(replay.corpus.len(), report.corpus.len(),
            "seed replay keeps exactly the entries that earned coverage");
    }
}
