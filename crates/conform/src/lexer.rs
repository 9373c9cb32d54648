//! A small purpose-built Rust lexer.
//!
//! Produces a flat token stream with line numbers: identifiers, lifetimes,
//! single-character punctuation, opaque literals (string/char/number
//! contents are dropped — the rules never need them) and `#[conform(...)]`
//! annotation comments, which are surfaced as first-class tokens so the
//! rule passes can attach them to the following `fn` or loop.
//!
//! The lexer understands exactly as much Rust surface syntax as is needed
//! to never misparse the constructs that defeat line-based scanners:
//! nested block comments, string literals containing `//` or braces, raw
//! strings, byte strings, char literals vs. lifetimes.

use std::fmt;

/// A flat (pre-tree) token.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RawTok {
    /// An identifier or keyword.
    Ident(String),
    /// A lifetime or loop label (without the leading `'`).
    Lifetime(String),
    /// One punctuation character (multi-char operators arrive as runs).
    Punct(char),
    /// A string/char/number literal; contents are irrelevant to the rules.
    Literal,
    /// The inner text of a `// #[conform(...)]` annotation comment.
    Conform(String),
}

impl fmt::Display for RawTok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RawTok::Ident(s) => write!(f, "{s}"),
            RawTok::Lifetime(s) => write!(f, "'{s}"),
            RawTok::Punct(c) => write!(f, "{c}"),
            RawTok::Literal => write!(f, "<lit>"),
            RawTok::Conform(s) => write!(f, "#[conform({s})]"),
        }
    }
}

/// A token with its 1-based source line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RawSpanned {
    /// The token.
    pub tok: RawTok,
    /// 1-based line on which the token starts.
    pub line: u32,
}

/// Tokenizes `source`. Never fails: unrecognized bytes are skipped (the
/// bracket-tree pass reports structural problems).
pub fn lex(source: &str) -> Vec<RawSpanned> {
    let mut out = Vec::new();
    let chars: Vec<char> = source.chars().collect();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if chars.get(i + 1) == Some(&'/') => {
                let start = i + 2;
                let mut end = start;
                while end < chars.len() && chars[end] != '\n' {
                    end += 1;
                }
                let text: String = chars[start..end].iter().collect();
                if let Some(ann) = conform_annotation(&text) {
                    out.push(RawSpanned {
                        tok: RawTok::Conform(ann),
                        line,
                    });
                }
                i = end;
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                // Block comments nest in Rust.
                let mut depth = 1usize;
                i += 2;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                let tok_line = line;
                i = skip_string(&chars, i, &mut line);
                out.push(RawSpanned {
                    tok: RawTok::Literal,
                    line: tok_line,
                });
            }
            'r' | 'b' if starts_prefixed_literal(&chars, i) => {
                let tok_line = line;
                i = skip_prefixed_literal(&chars, i, &mut line);
                out.push(RawSpanned {
                    tok: RawTok::Literal,
                    line: tok_line,
                });
            }
            '\'' => {
                // Lifetime (`'a`) or char literal (`'a'`, `'\n'`).
                let next = chars.get(i + 1).copied();
                let after = chars.get(i + 2).copied();
                let is_lifetime =
                    matches!(next, Some(n) if n.is_alphabetic() || n == '_') && after != Some('\'');
                if is_lifetime {
                    let start = i + 1;
                    let mut end = start;
                    while end < chars.len() && (chars[end].is_alphanumeric() || chars[end] == '_') {
                        end += 1;
                    }
                    out.push(RawSpanned {
                        tok: RawTok::Lifetime(chars[start..end].iter().collect()),
                        line,
                    });
                    i = end;
                } else {
                    let tok_line = line;
                    i = skip_char_literal(&chars, i, &mut line);
                    out.push(RawSpanned {
                        tok: RawTok::Literal,
                        line: tok_line,
                    });
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.push(RawSpanned {
                    tok: RawTok::Ident(chars[start..i].iter().collect()),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                i = skip_number(&chars, i);
                out.push(RawSpanned {
                    tok: RawTok::Literal,
                    line,
                });
            }
            c => {
                out.push(RawSpanned {
                    tok: RawTok::Punct(c),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

/// Extracts the inner text of a `#[conform(...)]` marker from comment text.
fn conform_annotation(comment: &str) -> Option<String> {
    const MARKER: &str = "#[conform(";
    let start = comment.find(MARKER)? + MARKER.len();
    let rest = &comment[start..];
    let mut depth = 1usize;
    let mut in_str = false;
    for (idx, c) in rest.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '(' if !in_str => depth += 1,
            ')' if !in_str => {
                depth -= 1;
                if depth == 0 {
                    return Some(rest[..idx].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

fn starts_prefixed_literal(chars: &[char], i: usize) -> bool {
    // r"..." | r#"..."# | b"..." | br"..." | b'...' — but NOT an identifier
    // like `result` or `balance`.
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
        if chars.get(j) == Some(&'\'') {
            return true; // byte char literal
        }
    }
    if chars.get(j) == Some(&'r') {
        j += 1;
        while chars.get(j) == Some(&'#') {
            j += 1;
        }
    }
    chars.get(j) == Some(&'"')
}

fn skip_prefixed_literal(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    let mut raw = false;
    let mut hashes = 0usize;
    if chars[i] == 'b' {
        i += 1;
        if chars.get(i) == Some(&'\'') {
            return skip_char_literal(chars, i, line);
        }
    }
    if chars.get(i) == Some(&'r') {
        raw = true;
        i += 1;
        while chars.get(i) == Some(&'#') {
            hashes += 1;
            i += 1;
        }
    }
    debug_assert_eq!(chars.get(i), Some(&'"'));
    if raw {
        i += 1; // past the opening quote
        while i < chars.len() {
            if chars[i] == '\n' {
                *line += 1;
                i += 1;
            } else if chars[i] == '"' {
                let mut k = 0usize;
                while k < hashes && chars.get(i + 1 + k) == Some(&'#') {
                    k += 1;
                }
                if k == hashes {
                    return i + 1 + hashes;
                }
                i += 1;
            } else {
                i += 1;
            }
        }
        i
    } else {
        skip_string(chars, i, line)
    }
}

/// Skips a regular `"..."` string starting at the opening quote; returns
/// the index just past the closing quote.
fn skip_string(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    debug_assert_eq!(chars[i], '"');
    i += 1;
    while i < chars.len() {
        match chars[i] {
            '\\' => {
                // An escape; the newline of a `\<newline>` continuation counts.
                *line += u32::from(chars.get(i + 1) == Some(&'\n'));
                i += 2;
            }
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skips a char literal starting at the opening `'`.
fn skip_char_literal(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    debug_assert_eq!(chars[i], '\'');
    i += 1;
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 2,
            '\'' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skips a numeric literal (ints, floats, hex/oct/bin, suffixes). A `.`
/// is consumed only when followed by a digit, so `0..n` lexes as
/// `<lit> . . n`.
fn skip_number(chars: &[char], mut i: usize) -> usize {
    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
        i += 1;
    }
    if chars.get(i) == Some(&'.') && chars.get(i + 1).is_some_and(|c| c.is_ascii_digit()) {
        i += 1;
        while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
            i += 1;
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<RawTok> {
        lex(src).into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn idents_puncts_and_literals() {
        assert_eq!(
            toks("let x = 42;"),
            vec![
                RawTok::Ident("let".into()),
                RawTok::Ident("x".into()),
                RawTok::Punct('='),
                RawTok::Literal,
                RawTok::Punct(';'),
            ]
        );
    }

    #[test]
    fn strings_hide_their_contents() {
        // A string containing `//`, braces and an escaped quote must not
        // derail the rest of the line.
        assert_eq!(
            toks(r#"f("a // \" {", x)"#),
            vec![
                RawTok::Ident("f".into()),
                RawTok::Punct('('),
                RawTok::Literal,
                RawTok::Punct(','),
                RawTok::Ident("x".into()),
                RawTok::Punct(')'),
            ]
        );
    }

    #[test]
    fn raw_strings_and_byte_strings() {
        assert_eq!(toks(r####"r#"multi " line"# "####), vec![RawTok::Literal]);
        assert_eq!(toks(r#"b"bytes""#), vec![RawTok::Literal]);
        // `r` and `b` as identifiers still lex as identifiers.
        assert_eq!(
            toks("r.read(b)"),
            vec![
                RawTok::Ident("r".into()),
                RawTok::Punct('.'),
                RawTok::Ident("read".into()),
                RawTok::Punct('('),
                RawTok::Ident("b".into()),
                RawTok::Punct(')'),
            ]
        );
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        assert_eq!(
            toks("'round: loop { break 'round; }"),
            vec![
                RawTok::Lifetime("round".into()),
                RawTok::Punct(':'),
                RawTok::Ident("loop".into()),
                RawTok::Punct('{'),
                RawTok::Ident("break".into()),
                RawTok::Lifetime("round".into()),
                RawTok::Punct(';'),
                RawTok::Punct('}'),
            ]
        );
        assert_eq!(
            toks(r"let c = 'a'; let q = '\'';"),
            vec![
                RawTok::Ident("let".into()),
                RawTok::Ident("c".into()),
                RawTok::Punct('='),
                RawTok::Literal,
                RawTok::Punct(';'),
                RawTok::Ident("let".into()),
                RawTok::Ident("q".into()),
                RawTok::Punct('='),
                RawTok::Literal,
                RawTok::Punct(';'),
            ]
        );
    }

    #[test]
    fn comments_are_dropped_and_nested() {
        assert_eq!(
            toks("a /* x /* y */ z */ b // tail\nc"),
            vec![
                RawTok::Ident("a".into()),
                RawTok::Ident("b".into()),
                RawTok::Ident("c".into()),
            ]
        );
    }

    #[test]
    fn conform_comments_become_tokens() {
        let ts = lex("// #[conform(bound = \"n_plus_1 + 1\")]\nloop {}");
        assert_eq!(
            ts[0].tok,
            RawTok::Conform("bound = \"n_plus_1 + 1\"".into())
        );
        assert_eq!(ts[0].line, 1);
        assert_eq!(ts[1].tok, RawTok::Ident("loop".into()));
        assert_eq!(ts[1].line, 2);
        // Doc-comment flavored annotations work too.
        let ts = lex("/// #[conform(wait_free)]\nfn f() {}");
        assert_eq!(ts[0].tok, RawTok::Conform("wait_free".into()));
    }

    #[test]
    fn line_numbers_track_strings_and_comments() {
        let ts = lex("a\n\"s1\ns2\"\nb");
        assert_eq!(ts[0].line, 1);
        assert_eq!(ts[1].line, 2); // the string starts on line 2
        assert_eq!(ts[2].line, 4); // and spans line 3
    }

    #[test]
    fn string_continuations_count_their_newline() {
        let ts = lex("\"a \\\n b\"\nc");
        assert_eq!(ts[1].tok, RawTok::Ident("c".into()));
        assert_eq!(ts[1].line, 3);
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        assert_eq!(
            toks("0..self.size"),
            vec![
                RawTok::Literal,
                RawTok::Punct('.'),
                RawTok::Punct('.'),
                RawTok::Ident("self".into()),
                RawTok::Punct('.'),
                RawTok::Ident("size".into()),
            ]
        );
        assert_eq!(toks("1.5_f64"), vec![RawTok::Literal]);
        assert_eq!(toks("0x1F_u64"), vec![RawTok::Literal]);
    }
}
