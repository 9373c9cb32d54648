//! The allowlist parser reads files from outside the program: any text
//! must parse to `Ok` or `Err`, never panic, and every entry an accepted
//! text holds must suppress its `(rule, path)` pair.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use upsilon_conform::{known_rule_ids, Allowlist};

/// Characters that sit on the parser's edges: separators, the comment
/// marker, line ends, and non-ASCII whitespace and control characters.
const EDGE_CHARS: &[char] = &[
    ' ', '\t', '\n', '\r', '#', '/', '.', '-', 'a', 'é', '\u{0}', '\u{a0}', '\u{2028}', '\u{feff}',
];

const PATHS: &[&str] = &[
    "crates/sim/src/lib.rs",
    "crates/check/src/main.rs",
    "crates/mem/src/register.rs",
];

/// The entries `text` denotes when it is valid: on each line, the two
/// whitespace-separated fields before any `#`.
fn expected_entries(text: &str) -> Vec<(&str, &str)> {
    text.lines()
        .filter_map(|line| {
            let mut fields = line.split('#').next().unwrap_or("").split_whitespace();
            Some((fields.next()?, fields.next()?))
        })
        .collect()
}

fn check_parse(text: &str) -> Result<(), TestCaseError> {
    let known = known_rule_ids();
    match Allowlist::parse(text, &known) {
        Ok(allow) => {
            let entries = expected_entries(text);
            prop_assert_eq!(allow.len(), entries.len());
            for (rule, path) in entries {
                prop_assert!(known.contains(&rule), "accepted unknown rule {rule:?}");
                prop_assert!(allow.permits(rule, path), "{rule} {path} not permitted");
            }
        }
        Err(msg) => prop_assert!(msg.starts_with("allowlist line "), "{msg}"),
    }
    Ok(())
}

/// A valid allowlist: `(rule index, path index, comment?)` per entry,
/// with blank and comment lines between entries.
fn valid_text(entries: &[(usize, usize, bool)]) -> String {
    let known = known_rule_ids();
    let mut text = String::from("# header comment\n");
    for &(rule, path, comment) in entries {
        text.push_str(known[rule % known.len()]);
        text.push(' ');
        text.push_str(PATHS[path % PATHS.len()]);
        if comment {
            text.push_str("   # audited: a justification with spaces");
        }
        text.push_str("\n\n");
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

    /// Arbitrary bytes (decoded lossily) and arbitrary edge-character
    /// strings parse to `Ok` or `Err`.
    #[test]
    fn parse_never_panics_on_arbitrary_text(
        bytes in vec(0u8..=255, 0..160),
        chars in vec(0usize..EDGE_CHARS.len(), 0..60),
    ) {
        check_parse(&String::from_utf8_lossy(&bytes))?;
        check_parse(&chars.iter().map(|&i| EDGE_CHARS[i]).collect::<String>())?;
    }

    /// Valid allowlists parse with every entry visible, and stay panic-free
    /// under character insertions, deletions and replacements.
    #[test]
    fn mutated_valid_allowlists_never_panic(
        entries in vec((0usize..16, 0usize..8, proptest::bool::ANY), 0..6),
        edits in vec((0usize..400, 0u8..3, 0usize..EDGE_CHARS.len()), 0..6),
    ) {
        let text = valid_text(&entries);
        let allow = Allowlist::parse(&text, &known_rule_ids());
        prop_assert!(allow.is_ok(), "valid text rejected: {text:?}");
        check_parse(&text)?;

        let mut chars: Vec<char> = text.chars().collect();
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
