//! `ReplayToken::parse` reads tokens pasted from bug reports, corpus files
//! and the command line: any text must parse to `Ok` or `Err`, never
//! panic, and every accepted token must be consistent with its own process
//! count and round-trip through its canonical encoding.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use upsilon_sim::ReplayToken;

/// Characters that sit on the parser's edges: the prefix, field keys and
/// separators, digits, and non-ASCII or control characters.
const EDGE_CHARS: &[char] = &[
    'U', 'C', 'H', 'K', '1', ':', 'n', 'c', 'q', 's', '=', ';', ',', '|', '-', '0', '2', '9', ' ',
    '\n', 'é', '\u{0}', '\u{feff}',
];

/// Well-formed tokens the mutation arm starts from.
const VALID: &[&str] = &[
    "UCHK1:n=3;c=-,4,-;q=-|0,1|-;s=0,1,2,0",
    "UCHK1:n=2;c=-,-;q=-|-;s=-",
    "UCHK1:n=5;c=-,-,-,-,3;q=1|-|0,0,2|-|-;s=4,3,0,4,1,2",
];

fn check_parse(text: &str) -> Result<(), TestCaseError> {
    if let Ok(token) = ReplayToken::parse(text) {
        let n = token.n_plus_1;
        prop_assert_eq!(token.crashes.len(), n);
        prop_assert_eq!(token.fd_choices.len(), n);
        prop_assert!(
            token.crashes.iter().any(Option::is_none),
            "no correct process"
        );
        prop_assert!(token.schedule.iter().all(|p| p.index() < n));
        prop_assert!(token.check_process_count(n).is_ok());
        prop_assert!(token.check_process_count(n + 1).is_err());
        prop_assert_eq!(token.pattern().n_plus_1(), n);
        prop_assert_eq!(ReplayToken::parse(&token.encode()), Ok(token));
    }
    Ok(())
}

proptest! {
    // Parsing is microseconds per case; many cases are cheap.
    #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

    /// Arbitrary bytes (decoded lossily), with and without the `UCHK1:`
    /// prefix, and arbitrary edge-character strings parse to `Ok` or `Err`.
    #[test]
    fn parse_never_panics_on_arbitrary_text(
        bytes in vec(0u8..=255, 0..160),
        prefixed in proptest::bool::ANY,
        chars in vec(0usize..EDGE_CHARS.len(), 0..60),
    ) {
        let body = String::from_utf8_lossy(&bytes);
        let text = if prefixed { format!("UCHK1:{body}") } else { body.into_owned() };
        check_parse(&text)?;
        check_parse(&chars.iter().map(|&i| EDGE_CHARS[i]).collect::<String>())?;
    }

    /// Valid tokens stay panic-free under character insertions, deletions
    /// and replacements — the torn or hand-edited tokens a report can hold.
    #[test]
    fn mutated_valid_tokens_never_panic(
        base in 0usize..VALID.len(),
        edits in vec((0usize..80, 0u8..3, 0usize..EDGE_CHARS.len()), 1..6),
    ) {
        prop_assert!(ReplayToken::parse(VALID[base]).is_ok());
        let mut chars: Vec<char> = VALID[base].chars().collect();
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
