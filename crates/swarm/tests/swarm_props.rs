//! Property suite for the packed executor's invariants:
//!
//! * per-instance results are invariant under instance count, batch size,
//!   packing order, worker count and window mode;
//! * campaign seeding is collision-free (`instance_seed` acts injectively
//!   on any practical campaign range);
//! * memory accounting is monotone: retirement occupancy dominates
//!   admission occupancy, both are positive sums over instances, and
//!   growing the arena never shrinks either; a full pack's byte sums are
//!   pinned;
//! * the parsers of outside input never panic: `ShardRecord::parse`
//!   followed by `merge_records`, and `parse_mix`, return `Ok` or `Err` on
//!   arbitrary bytes and on mutated valid input — and what they accept is
//!   well formed.

use proptest::collection::vec;
use proptest::prelude::*;
use upsilon_swarm::{
    instance_seed, merge_records, mix_to_string, parse_mix, run_packed_specs, run_standalone,
    run_swarm, InstanceSpec, ShardRecord, SwarmConfig, SwarmReport, TEMPLATES,
};

/// A random instance: any checked-in template under a small seed. Small
/// seeds are as good as large ones here (the scheduler hashes them), and
/// keep failure cases readable.
fn spec_strategy() -> impl Strategy<Value = InstanceSpec> {
    (0..TEMPLATES.len(), 0u64..1000).prop_map(|(t, seed)| {
        let (_, protocol, n_plus_1, crashes) = TEMPLATES[t];
        InstanceSpec {
            protocol,
            n_plus_1,
            crashes,
            seed,
        }
    })
}

fn arena_strategy() -> impl Strategy<Value = Vec<InstanceSpec>> {
    vec(spec_strategy(), 1..14)
}

proptest! {
    // Each case packs a whole arena several times; a few dozen cases give
    // broad template/seed coverage without minutes of wall clock.
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Per-instance results are a function of the spec alone: neither the
    /// surrounding arena's size, nor the batch quota, nor the worker
    /// count, nor the window mode may leak into any instance.
    #[test]
    fn results_depend_only_on_the_spec(
        specs in arena_strategy(),
        batch in 1u64..200,
        workers in 1usize..5,
        window in proptest::option::of(1usize..10),
    ) {
        let standalone: Vec<_> = specs.iter().map(run_standalone).collect();
        let (report, packed) = run_packed_specs(&specs, batch, workers, window, true);
        prop_assert_eq!(packed.expect("collected"), standalone);
        prop_assert_eq!(report.instances as usize, specs.len());
    }

    /// Packing order is immaterial: reversing the arena permutes the
    /// results exactly, changing nothing per instance — and the aggregate
    /// report (a sum over instances) is identical.
    #[test]
    fn packing_order_is_immaterial(specs in arena_strategy(), batch in 1u64..100) {
        let (report, forward) = run_packed_specs(&specs, batch, 1, None, true);
        let reversed: Vec<_> = specs.iter().rev().cloned().collect();
        let (rev_report, backward) = run_packed_specs(&reversed, batch, 1, None, true);
        let mut backward = backward.expect("collected");
        backward.reverse();
        prop_assert_eq!(forward.expect("collected"), backward);
        prop_assert_eq!(report, rev_report);
    }

    /// Adding neighbours to the arena never disturbs the instances already
    /// there: the packed results over a prefix are the prefix of the packed
    /// results over the whole.
    #[test]
    fn neighbours_do_not_disturb_a_prefix(
        specs in arena_strategy(),
        cut in 0usize..14,
        batch in 1u64..100,
    ) {
        let cut = cut.min(specs.len());
        let (_, whole) = run_packed_specs(&specs, batch, 1, None, true);
        let (_, prefix) = run_packed_specs(&specs[..cut], batch, 1, None, true);
        prop_assert_eq!(&whole.expect("collected")[..cut], &prefix.expect("collected")[..]);
    }

    /// `instance_seed` is collision-free over any practical campaign: all
    /// seeds in a drawn window are distinct, and remain distinct across
    /// two distinct campaign seeds.
    #[test]
    fn campaign_seeding_has_no_collisions(
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        lo in 0u64..1_000_000,
        len in 1u64..2_000,
    ) {
        let mut seen = std::collections::BTreeSet::new();
        for i in lo..lo + len {
            prop_assert!(seen.insert(instance_seed(a, i)), "collision within campaign {a} at {i}");
            if b != a {
                prop_assert!(
                    seen.insert(instance_seed(b, i)),
                    "collision across campaigns {a}/{b} at {i}"
                );
            }
        }
    }

    /// Memory accounting is monotone and positive: every instance admits
    /// at a positive occupancy, retires no smaller than it admitted
    /// (accumulator capacity never shrinks), and extending the arena can
    /// only grow both sums. All of it window-invariant.
    #[test]
    fn memory_accounting_is_monotone(
        specs in arena_strategy(),
        cut in 0usize..14,
        window in proptest::option::of(1usize..10),
    ) {
        let (whole, _) = run_packed_specs(&specs, 64, 1, window, false);
        prop_assert!(whole.packed_bytes >= specs.len() as u64, "admission occupancy is positive");
        prop_assert!(
            whole.arena_bytes >= whole.packed_bytes,
            "retirement occupancy {} under admission occupancy {}",
            whole.arena_bytes,
            whole.packed_bytes
        );
        let cut = cut.min(specs.len());
        let (prefix, _) = run_packed_specs(&specs[..cut], 64, 1, window, false);
        prop_assert!(prefix.packed_bytes <= whole.packed_bytes);
        prop_assert!(prefix.arena_bytes <= whole.arena_bytes);
        prop_assert!(prefix.total_steps <= whole.total_steps);
        // And the byte sums themselves are window-invariant.
        let (full_pack, _) = run_packed_specs(&specs, 64, 1, None, false);
        prop_assert_eq!(whole, full_pack);
    }
}

/// Residency of a full pack: a converge-pair campaign with every cell
/// admitted before the first sweep occupies exactly these byte sums at
/// any worker count — 536 bytes per instance at admission and 1,944 at
/// retirement, linear in the instance count — inside a 4 KiB budget.
#[test]
fn full_pack_residency_is_pinned() {
    const INSTANCES: u64 = 4096;
    for workers in [1, 2] {
        let mut cfg = SwarmConfig::new(vec![("converge-pair".to_string(), 1)], INSTANCES);
        cfg.window = None;
        cfg.workers = workers;
        let report = run_swarm(&cfg);
        assert!(report.all_ok(), "workers {workers}: {report:?}");
        assert_eq!(report.instances, INSTANCES);
        assert_eq!(
            (report.packed_bytes, report.arena_bytes),
            (2_097_152, 5_242_880),
            "workers {workers}"
        );
        assert!(report.bytes_per_instance() <= 4096);
    }
}

/// Two valid records that partition a 100-instance campaign, as two
/// `upsilon-swarm shard` runs would save them.
fn valid_records() -> [ShardRecord; 2] {
    let rec = |shard_index: u64, lo: u64, hi: u64| {
        let n = hi - lo;
        ShardRecord {
            mix: "converge-pair:2,fig1:1".to_string(),
            instances: 100,
            campaign_seed: 11,
            shard_index,
            shards: 2,
            lo,
            hi,
            batch: 64,
            workers: 2,
            report: SwarmReport {
                instances: n,
                packed_bytes: 500 * n,
                arena_bytes: 4000 * n,
                total_steps: 30 * n,
                decisions: 2 * n,
                fd_queries: n,
                spec_ok: n,
                run_cond_ok: n,
                finished: n,
            },
        }
    };
    [rec(0, 0, 50), rec(1, 50, 100)]
}

/// A field value for a mutated record: the edges of `u64` (where sums
/// overflow), a random number, or text that is no `u64` at all.
fn field_value(kind: u8, x: u64) -> String {
    match kind {
        0 => "0".to_string(),
        1 => u64::MAX.to_string(),
        2 => (u64::MAX - 1).to_string(),
        3 => x.to_string(),
        4 => (x % 200).to_string(),
        5 => "18446744073709551616".to_string(),
        6 => "-1".to_string(),
        7 => String::new(),
        _ => format!("{x:x}/"),
    }
}

/// The nine report counters of `r`, in a fixed order.
fn counters(r: &SwarmReport) -> [u64; 9] {
    [
        r.instances,
        r.packed_bytes,
        r.arena_bytes,
        r.total_steps,
        r.decisions,
        r.fd_queries,
        r.spec_ok,
        r.run_cond_ok,
        r.finished,
    ]
}

/// Merges `records` and, when the merge is accepted, checks what it
/// accepted: the report covers the whole campaign, counts no more clean
/// instances than it ran, and is the exact (unwrapped) sum of the distinct
/// records.
fn check_merge(records: &[ShardRecord]) -> Result<(), proptest::test_runner::TestCaseError> {
    let Ok(merged) = merge_records(records) else {
        return Ok(());
    };
    prop_assert_eq!(merged.instances, records[0].instances);
    prop_assert!(merged.spec_ok <= merged.instances);
    prop_assert!(merged.run_cond_ok <= merged.instances);
    prop_assert!(merged.finished <= merged.instances);
    let mut distinct: Vec<&ShardRecord> = Vec::new();
    for rec in records {
        if !distinct.contains(&rec) {
            distinct.push(rec);
        }
    }
    let mut exact = [0u128; 9];
    for rec in distinct {
        for (sum, c) in exact.iter_mut().zip(counters(&rec.report)) {
            *sum += u128::from(c);
        }
    }
    let got = counters(&merged).map(u128::from);
    prop_assert_eq!(got, exact, "merged sums must be exact");
    Ok(())
}

proptest! {
    // Parsing and merging are microseconds per case; many cases are cheap.
    #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

    /// Arbitrary bytes, with and without the record prefix, parse to `Ok`
    /// or `Err`; whatever parses merges to `Ok` or `Err`.
    #[test]
    fn shard_parse_and_merge_never_panic_on_bytes(
        bytes in vec(0u8..=255, 0..160),
        prefixed in proptest::bool::ANY,
    ) {
        let body = String::from_utf8_lossy(&bytes);
        let text = if prefixed { format!("USWM1: {body}") } else { body.into_owned() };
        if let Ok(rec) = ShardRecord::parse(&text) {
            check_merge(std::slice::from_ref(&rec))?;
            check_merge(&[rec.clone(), rec])?;
        }
    }

    /// Valid records with a few fields replaced, dropped or garbled — the
    /// torn or tampered records a shared store can hold — parse and merge
    /// without panicking, and any merge they pass is exact and complete.
    #[test]
    fn mutated_shard_records_never_panic(
        edits in vec((proptest::bool::ANY, 0usize..19, 0u8..10, 0u64..=u64::MAX), 1..4),
        duplicate in proptest::bool::ANY,
    ) {
        let mut tokens: Vec<Vec<String>> = valid_records()
            .iter()
            .map(|r| r.encode().split_whitespace().map(str::to_string).collect())
            .collect();
        for (second, at, kind, x) in edits {
            let toks = &mut tokens[usize::from(second)];
            let at = at % toks.len();
            if kind == 9 {
                toks.remove(at);
                continue;
            }
            let value = field_value(kind, x);
            toks[at] = match toks[at].split_once('=') {
                Some((key, _)) => format!("{key}={value}"),
                None => value,
            };
        }
        let mut parsed: Vec<ShardRecord> = tokens
            .iter()
            .filter_map(|t| ShardRecord::parse(&t.join(" ")).ok())
            .collect();
        if duplicate && !parsed.is_empty() {
            parsed.push(parsed[0].clone());
        }
        if !parsed.is_empty() {
            check_merge(&parsed)?;
        }
    }

    /// Arbitrary bytes and mix-like token soup parse to `Ok` or `Err`; an
    /// accepted mix names only known templates with positive weights and
    /// round-trips through its canonical string.
    #[test]
    fn parse_mix_never_panics(
        bytes in vec(0u8..=255, 0..48),
        soup in vec((0u8..12, 0u64..=u64::MAX), 0..12),
    ) {
        let soup: String = soup
            .into_iter()
            .map(|(kind, x)| match kind {
                0..=3 => TEMPLATES[(x % TEMPLATES.len() as u64) as usize].0.to_string(),
                4 => ":".to_string(),
                5 => ",".to_string(),
                6 => (x % 10).to_string(),
                7 => x.to_string(),
                8 => " ".to_string(),
                9 => "-".to_string(),
                10 => "0".to_string(),
                _ => char::from_u32((x % 0x11_0000) as u32).unwrap_or('?').to_string(),
            })
            .collect();
        for text in [String::from_utf8_lossy(&bytes).into_owned(), soup] {
            if let Ok(mix) = parse_mix(&text) {
                prop_assert!(!mix.is_empty());
                for (name, weight) in &mix {
                    prop_assert!(*weight > 0, "zero weight accepted in `{}`", text);
                    prop_assert!(
                        TEMPLATES.iter().any(|(n, _, _, _)| n == name),
                        "unknown template `{}` accepted in `{}`",
                        name,
                        text
                    );
                }
                prop_assert_eq!(parse_mix(&mix_to_string(&mix)), Ok(mix.clone()));
            }
        }
    }
}
