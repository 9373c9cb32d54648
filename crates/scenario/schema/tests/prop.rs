//! Property tests for the scenario DSL:
//!
//! * parse → serialize → parse is the identity on [`ScenarioDoc`];
//! * axis expansion is order-deterministic and duplicate-free, with the
//!   cell count equal to the product of merged axis cardinalities per arm;
//! * invalid scenarios produce *stable* span-carrying diagnostics — the
//!   same bad input yields the identical `Diag` on every parse, pointing
//!   at a real line of the input;
//! * the parser never panics: arbitrary bytes and mutated checked-in
//!   documents parse to `Ok` or to an `Err` with a 1-based span.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use upsilon_scenario_schema::{
    AxisDecl, Cell, Expect, FuzzBlock, Kind, Scalar, ScenarioDoc, SwarmBlock, Variant, FUZZ_KEYS,
    KNOWN_PROTOCOLS, SWARM_KEYS,
};

/// Words safe for string scalars: no `..` (range syntax) and key-safe.
const WORDS: &[&str] = &["alpha", "beta", "gamma", "delta", "omega", "upsilon"];

fn scalar_from(tag: u64, payload: u64) -> Scalar {
    match tag % 4 {
        0 => Scalar::Int(payload as i64 - 500),
        1 => Scalar::Float((payload as f64 - 500.0) / 8.0),
        2 => Scalar::Bool(payload.is_multiple_of(2)),
        _ => Scalar::Str(format!(
            "{}-{}",
            WORDS[(payload % WORDS.len() as u64) as usize],
            payload % 17
        )),
    }
}

/// Builds a duplicate-free axis from raw draws; `tag` fixes the scalar
/// type so an axis stays homogeneous (mirrors real scenario files).
fn axis_from(key: String, tag: u64, raw: Vec<u64>) -> AxisDecl {
    let mut values: Vec<Scalar> = Vec::new();
    for p in raw {
        let v = scalar_from(tag, p);
        if !values.contains(&v) {
            values.push(v);
        }
    }
    if values.is_empty() {
        values.push(scalar_from(tag, 0));
    }
    AxisDecl { key, values }
}

/// One full-document draw: everything a scenario file can express, as a
/// flat tuple of integer draws mapped into the model.
#[allow(clippy::type_complexity)]
fn doc_from(
    (name_i, kind_i, proto_i, expect_i, repeats): (u64, u64, u64, u64, u64),
    seeds_raw: Vec<u64>,
    params_raw: Vec<(u64, Vec<u64>)>,
    variants_raw: Vec<(u64, u64, u64, Vec<(u64, Vec<u64>)>)>,
    fuzz_mask: u64,
) -> ScenarioDoc {
    let kind = match kind_i % 4 {
        0 => Kind::Check,
        1 => Kind::Fuzz,
        2 => Kind::Experiment,
        _ => Kind::Swarm,
    };
    let mut seeds: Vec<u64> = Vec::new();
    for s in seeds_raw {
        if !seeds.contains(&s) {
            seeds.push(s);
        }
    }
    if seeds.is_empty() {
        seeds.push(0);
    }
    let params: Vec<AxisDecl> = params_raw
        .into_iter()
        .enumerate()
        .map(|(i, (tag, raw))| axis_from(format!("p{i}"), tag, raw))
        .collect();
    let variants: Vec<Variant> = variants_raw
        .into_iter()
        .enumerate()
        .map(
            |(i, (proto_o, expect_o, base_share, overrides_raw))| Variant {
                arm: format!("arm{i}"),
                protocol: (proto_o % 3 == 0).then(|| {
                    KNOWN_PROTOCOLS[(proto_o % KNOWN_PROTOCOLS.len() as u64) as usize].into()
                }),
                expect: match expect_o % 3 {
                    0 => Some(Expect::Pass),
                    1 => Some(Expect::Violation),
                    _ => None,
                },
                overrides: overrides_raw
                    .into_iter()
                    .enumerate()
                    .map(|(j, (tag, raw))| {
                        // Half the overrides shadow a base axis, half add new.
                        let key = if base_share % 2 == 0 && j < params.len() {
                            format!("p{j}")
                        } else {
                            format!("q{i}x{j}")
                        };
                        axis_from(key, tag, raw)
                    })
                    .collect(),
            },
        )
        .collect();
    let fuzz = (kind == Kind::Fuzz).then(|| FuzzBlock {
        entries: FUZZ_KEYS
            .iter()
            .enumerate()
            .filter(|(i, _)| fuzz_mask & (1 << i) != 0)
            .map(|(i, k)| {
                let v = if *k == "shrink" {
                    Scalar::Bool(fuzz_mask & (1 << (i + 16)) != 0)
                } else {
                    Scalar::Int(((fuzz_mask >> i) % 64) as i64 + 1)
                };
                (k.to_string(), v)
            })
            .collect(),
    });
    // Reuse the fuzz draw for the swarm block: only a swarm-kind document
    // may carry one, and `mix` is the single string-typed key.
    let swarm = (kind == Kind::Swarm && fuzz_mask & 0xf != 0).then(|| SwarmBlock {
        entries: SWARM_KEYS
            .iter()
            .enumerate()
            .filter(|(i, _)| fuzz_mask & (1 << i) != 0)
            .map(|(i, k)| {
                let v = if *k == "mix" {
                    Scalar::Str(format!(
                        "{}:{}",
                        WORDS[(fuzz_mask >> i) as usize % WORDS.len()],
                        (fuzz_mask >> i) % 7 + 1
                    ))
                } else {
                    Scalar::Int(((fuzz_mask >> i) % 4096) as i64 + 1)
                };
                (k.to_string(), v)
            })
            .collect(),
    });
    ScenarioDoc {
        name: format!("scenario-{}", name_i % 40),
        kind,
        protocol: KNOWN_PROTOCOLS[(proto_i % KNOWN_PROTOCOLS.len() as u64) as usize].into(),
        expect: if expect_i % 2 == 0 {
            Expect::Pass
        } else {
            Expect::Violation
        },
        seeds,
        repeats: (repeats % 4) as u32 + 1,
        params,
        fuzz,
        swarm,
        variants,
    }
}

fn doc_strategy() -> impl Strategy<Value = ScenarioDoc> {
    (
        (0u64..1000, 0u64..1000, 0u64..1000, 0u64..1000, 0u64..1000),
        vec(0u64..64, 0..5),
        vec((0u64..1000, vec(0u64..1000, 1..4)), 0..4),
        vec(
            (
                0u64..1000,
                0u64..1000,
                0u64..1000,
                vec((0u64..1000, vec(0u64..1000, 1..3)), 0..3),
            ),
            0..3,
        ),
        0u64..u64::MAX,
    )
        .prop_map(|(head, seeds, params, variants, fuzz)| {
            doc_from(head, seeds, params, variants, fuzz)
        })
}

fn cell_key(c: &Cell) -> String {
    format!("{}|{}|{:?}|{:?}", c.arm, c.protocol, c.expect, c.bindings)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    #[test]
    fn parse_serialize_parse_is_identity(doc in doc_strategy()) {
        let rendered = doc.to_toml();
        let reparsed = ScenarioDoc::parse(&rendered)
            .map_err(|d| format!("{d}\n--- rendered ---\n{rendered}"));
        prop_assert!(reparsed.is_ok(), "{}", reparsed.err().unwrap_or_default());
        prop_assert_eq!(&doc, &reparsed.expect("checked above"));
        // And serialization is a fixed point after one round.
        let again = ScenarioDoc::parse(&rendered).expect("just parsed");
        prop_assert_eq!(again.to_toml(), rendered);
    }

    #[test]
    fn expansion_is_deterministic_and_duplicate_free(doc in doc_strategy()) {
        let a = doc.expand();
        let b = doc.expand();
        prop_assert_eq!(&a, &b, "expansion must be deterministic");

        let mut keys: Vec<String> = a.iter().map(cell_key).collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        prop_assert_eq!(keys.len(), before, "expansion produced duplicate cells");

        // Cell count = sum over arms of the product of merged-axis sizes.
        let arms: Vec<Variant> = if doc.variants.is_empty() {
            vec![Variant {
                arm: "default".into(),
                protocol: None,
                expect: None,
                overrides: Vec::new(),
            }]
        } else {
            doc.variants.clone()
        };
        let mut want = 0usize;
        for v in &arms {
            let mut axes = doc.params.clone();
            for o in &v.overrides {
                match axes.iter_mut().find(|a| a.key == o.key) {
                    Some(slot) => *slot = o.clone(),
                    None => axes.push(o.clone()),
                }
            }
            want += axes.iter().map(|a| a.values.len()).product::<usize>();
        }
        prop_assert_eq!(a.len(), want);
        prop_assert_eq!(doc.summary().cells, want);
        prop_assert_eq!(
            doc.summary().total_runs,
            want * doc.seeds.len() * doc.repeats as usize
        );
    }

    #[test]
    fn corrupted_scenarios_fail_with_stable_span_diagnostics(
        doc in doc_strategy(),
        which in 0u64..4,
    ) {
        let good = doc.to_toml();
        let bad = match which {
            // Unknown top-level key before any section header.
            0 => good.replacen("kind =", "kind_ =", 1),
            // Unknown protocol value.
            1 => good.replacen(
                &format!("protocol = \"{}\"", doc.protocol),
                "protocol = \"no-such-protocol\"",
                1,
            ),
            // Syntax error: value missing.
            2 => format!("{good}dangling =\n"),
            // Unknown section name.
            _ => format!("{good}\n[warble]\nx = 1\n"),
        };
        let d1 = ScenarioDoc::parse(&bad);
        prop_assert!(d1.is_err(), "corruption {which} unexpectedly parsed");
        let d1 = d1.expect_err("checked above");
        let d2 = ScenarioDoc::parse(&bad).expect_err("still fails");
        prop_assert_eq!(&d1, &d2, "diagnostic must be stable across parses");
        let lines = bad.lines().count() as u32;
        prop_assert!(
            d1.line >= 1 && d1.line <= lines,
            "diag line {} outside input ({} lines): {}",
            d1.line,
            lines,
            d1
        );
        prop_assert!(d1.col >= 1, "columns are 1-based");
        let prefix = format!("line {}, col ", d1.line);
        prop_assert!(d1.to_string().starts_with(&prefix), "rendering drifted: {}", d1);
    }
}

/// Characters that sit on the TOML-subset parser's edges: brackets,
/// quotes, the key/value and range separators, comments, line ends,
/// digits, and non-ASCII or control characters.
const EDGE_CHARS: &[char] = &[
    '[', ']', '"', '\'', '\\', '=', '.', ',', '#', '\n', '\r', '\t', ' ', '0', '9', '-', 'a', 'é',
    '\u{0}', '\u{feff}',
];

/// Checked-in scenario documents, the bases the mutation arm edits: a
/// two-arm check, a seed range, a fuzz block and a swarm block.
const CHECKED_IN: &[&str] = &[
    include_str!("../../../../scenarios/snapshot-commit.toml"),
    include_str!("../../../../scenarios/e9-baseline.toml"),
    include_str!("../../../../scenarios/fuzz-commit.toml"),
    include_str!("../../../../scenarios/swarm-smoke.toml"),
];

/// Parses `text`; a rejection must carry a 1-based span and render it.
fn check_parse(text: &str) -> Result<(), TestCaseError> {
    if let Err(d) = ScenarioDoc::parse(text) {
        prop_assert!(d.line >= 1 && d.col >= 1, "spans are 1-based: {}", d);
        let prefix = format!("line {}, col {}: ", d.line, d.col);
        prop_assert!(
            d.to_string().starts_with(&prefix),
            "rendering drifted: {}",
            d
        );
    }
    Ok(())
}

proptest! {
    // Parsing is microseconds per case; many cases are cheap.
    #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

    /// Arbitrary bytes (decoded lossily) and arbitrary edge-character
    /// strings parse to `Ok` or `Err`, never panic.
    #[test]
    fn parse_never_panics_on_arbitrary_text(
        bytes in vec(0u8..=255, 0..160),
        chars in vec(0usize..EDGE_CHARS.len(), 0..80),
    ) {
        check_parse(&String::from_utf8_lossy(&bytes))?;
        check_parse(&chars.iter().map(|&i| EDGE_CHARS[i]).collect::<String>())?;
    }

    /// Checked-in documents parse, and stay panic-free under character
    /// insertions, deletions and replacements.
    #[test]
    fn mutated_scenarios_never_panic(
        base in 0usize..CHECKED_IN.len(),
        edits in vec((0usize..600, 0u8..3, 0usize..EDGE_CHARS.len()), 1..8),
    ) {
        prop_assert!(ScenarioDoc::parse(CHECKED_IN[base]).is_ok());
        let mut chars: Vec<char> = CHECKED_IN[base].chars().collect();
        for (at, op, c) in edits {
            let at = at % (chars.len() + 1);
            match op {
                0 => chars.insert(at, EDGE_CHARS[c]),
                1 if at < chars.len() => {
                    chars.remove(at);
                }
                _ if at < chars.len() => chars[at] = EDGE_CHARS[c],
                _ => chars.push(EDGE_CHARS[c]),
            }
        }
        check_parse(&chars.into_iter().collect::<String>())?;
    }
}
