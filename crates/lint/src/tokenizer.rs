//! A lossy-but-honest Rust tokenizer for static analysis.
//!
//! The linter's whole credibility rests on never matching text inside
//! comments, string literals, or raw strings — a regex over source text
//! would flag `// don't call Instant::now here` as a violation. This
//! tokenizer produces a stream of identifier/punctuation/literal tokens
//! with line numbers, dropping comment and literal *content* entirely,
//! so rule patterns match only executable source structure.
//!
//! It is not a full lexer: numeric literal grammar is approximate and
//! tokens carry no spans beyond the line. Both are fine for pattern
//! matching; neither can cause a false positive inside skipped text.

/// What a token is, as far as rule matching cares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`let`, `HashMap`, `unsafe`, …).
    Ident,
    /// A single punctuation character (`.`, `:`, `!`, `<`, …).
    Punct,
    /// A string/char/byte literal; `text` is empty, content is dropped.
    Literal,
    /// A numeric literal.
    Number,
    /// A lifetime (`'a`); content is dropped.
    Lifetime,
}

/// One token of the source file.
#[derive(Debug, Clone)]
pub struct Tok<'a> {
    /// Token class.
    pub kind: TokKind,
    /// Source text for idents and puncts; empty for literals/lifetimes.
    pub text: &'a str,
    /// 1-based source line the token starts on.
    pub line: usize,
}

impl<'a> Tok<'a> {
    /// True when the token is the identifier or punctuation `s`.
    pub fn is(&self, s: &str) -> bool {
        self.text == s
    }
}

/// Tokenizes `src`, skipping whitespace, `//` and nested `/* */`
/// comments, and the contents of every string/char/byte/raw literal.
pub fn tokenize(src: &str) -> Vec<Tok<'_>> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;

    // Advances `line` for every newline in `b[from..to]`.
    fn count_lines(b: &[u8], from: usize, to: usize, line: &mut usize) {
        *line += b[from..to].iter().filter(|&&c| c == b'\n').count();
    }

    while i < b.len() {
        let c = b[i];
        // Whitespace.
        if c.is_ascii_whitespace() {
            if c == b'\n' {
                line += 1;
            }
            i += 1;
            continue;
        }
        // Line comment (also covers `///` and `//!` docs).
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        // Block comment, nesting like Rust's.
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            let start = i;
            let mut depth = 1usize;
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            count_lines(b, start, i, &mut line);
            continue;
        }
        // Plain strings, raw strings and byte/raw-byte prefixes: "",
        // r"", r#""#, b"", br"", b''.
        let literal_end = match c {
            b'"' => Some(quoted_end(b, i + 1, b'"')),
            b'r' | b'b' => raw_or_byte_literal_end(b, i),
            _ => None,
        };
        if let Some(end) = literal_end {
            toks.push(tok(TokKind::Literal, "", line));
            count_lines(b, i, end, &mut line);
            i = end;
            continue;
        }
        // `'`: lifetime or char literal. A lifetime is `'` + ident NOT
        // closed by another `'` (so `'a'` is a char, `'a` a lifetime).
        if c == b'\'' {
            let mut j = i + 1;
            if j < b.len() && (b[j].is_ascii_alphabetic() || b[j] == b'_') && b[j] != b'\\' {
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
                if j < b.len() && b[j] == b'\'' {
                    // Char literal like 'a'.
                    toks.push(tok(TokKind::Literal, "", line));
                    i = j + 1;
                } else {
                    toks.push(tok(TokKind::Lifetime, "", line));
                    i = j;
                }
                continue;
            }
            // Escaped or non-alphabetic char literal: '\n', '0', ' ', etc.
            let end = quoted_end(b, i + 1, b'\'');
            toks.push(tok(TokKind::Literal, "", line));
            count_lines(b, i, end, &mut line);
            i = end;
            continue;
        }
        // Identifier / keyword. A raw identifier (`r#match`) is one
        // token whose text keeps the `r#` prefix, so it can never be
        // confused with the bare keyword during parsing or rule
        // matching. (Raw *strings* `r#"…"#` were already consumed
        // above: they require a `"` after the hashes.)
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            if c == b'r'
                && i + 2 < b.len()
                && b[i + 1] == b'#'
                && (b[i + 2].is_ascii_alphabetic() || b[i + 2] == b'_')
            {
                i += 2;
            }
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            toks.push(tok(TokKind::Ident, &src[start..i], line));
            continue;
        }
        // Numeric literal (approximate: consumes digits, `_`, `.`, and
        // alphanumeric suffixes like `0xff`, `1e-3`, `1.5f64`).
        if c.is_ascii_digit() {
            let start = i;
            i += 1;
            while i < b.len() {
                let d = b[i];
                let continues = d.is_ascii_alphanumeric()
                    || d == b'_'
                    || (d == b'.' && i + 1 < b.len() && b[i + 1].is_ascii_digit())
                    || ((d == b'+' || d == b'-')
                        && matches!(b[i - 1], b'e' | b'E')
                        && i + 1 < b.len()
                        && b[i + 1].is_ascii_digit());
                if !continues {
                    break;
                }
                i += 1;
            }
            toks.push(tok(TokKind::Number, &src[start..i], line));
            continue;
        }
        // Anything else: one punctuation character.
        toks.push(tok(TokKind::Punct, &src[i..i + 1], line));
        i += 1;
    }
    toks
}

fn tok(kind: TokKind, text: &str, line: usize) -> Tok<'_> {
    Tok { kind, text, line }
}

/// End index (exclusive) of a quoted run starting *inside* the quotes at
/// `from`, honoring backslash escapes; saturates at EOF for unterminated
/// literals.
fn quoted_end(b: &[u8], mut from: usize, quote: u8) -> usize {
    while from < b.len() {
        match b[from] {
            c if c == quote => return from + 1,
            b'\\' => from = (from + 2).min(b.len()),
            _ => from += 1,
        }
    }
    b.len()
}

/// If `b[i..]` starts a raw string (`r"`, `r#"`), byte string (`b"`),
/// raw byte string (`br#"`), or byte char (`b'`), returns its end index.
fn raw_or_byte_literal_end(b: &[u8], i: usize) -> Option<usize> {
    let mut j = i;
    let mut raw = false;
    if b[j] == b'b' {
        j += 1;
        if j < b.len() && b[j] == b'\'' {
            return Some(quoted_end(b, j + 1, b'\''));
        }
        if j < b.len() && b[j] == b'"' {
            return Some(quoted_end(b, j + 1, b'"'));
        }
        if j < b.len() && b[j] == b'r' {
            raw = true;
            j += 1;
        }
    } else if b[j] == b'r' {
        raw = true;
        j += 1;
    }
    if !raw {
        return None;
    }
    // Count the `#`s of r#*" and find the matching "#*.
    let mut hashes = 0usize;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    if j >= b.len() || b[j] != b'"' {
        return None; // An identifier starting with r/br, e.g. `raw`.
    }
    j += 1;
    while j < b.len() {
        if b[j] == b'"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while k < b.len() && b[k] == b'#' && seen < hashes {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return Some(k);
            }
        }
        j += 1;
    }
    Some(b.len())
}

/// True when tokens starting at `i` match `pat` textually (idents and
/// puncts compare by text; literals/lifetimes never match).
pub fn seq_is(toks: &[Tok<'_>], i: usize, pat: &[&str]) -> bool {
    pat.len() <= toks.len().saturating_sub(i)
        && pat.iter().enumerate().all(|(k, p)| toks[i + k].is(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        tokenize(src)
            .iter()
            .map(|t| {
                if t.text.is_empty() {
                    format!("<{:?}>", t.kind)
                } else {
                    t.text.to_string()
                }
            })
            .collect()
    }

    #[test]
    fn comments_and_strings_are_dropped() {
        let src = r###"
            // Instant::now() in a comment
            /* HashMap.iter() in a block /* nested */ comment */
            let s = "println!(\"not code\")";
            let r = r#"Instant::now() "quoted" raw"#;
        "###;
        let t = texts(src);
        assert!(!t
            .iter()
            .any(|x| x == "Instant" || x == "println" || x == "iter"));
        assert_eq!(t.iter().filter(|x| x.as_str() == "let").count(), 2);
    }

    #[test]
    fn lifetimes_and_chars_disambiguate() {
        let t = tokenize("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes = t.iter().filter(|k| k.kind == TokKind::Lifetime).count();
        let chars = t.iter().filter(|k| k.kind == TokKind::Literal).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 1);
    }

    #[test]
    fn line_numbers_survive_multiline_literals() {
        let src = "let a = \"x\ny\";\nlet b = 1;";
        let toks = tokenize(src);
        let b = toks.iter().find(|t| t.is("b")).unwrap();
        assert_eq!(b.line, 3);
    }

    #[test]
    fn byte_and_raw_byte_literals() {
        let t = texts("let x = b\"abc\"; let y = br#\"d\"ef\"#; let z = b'q';");
        assert!(!t.iter().any(|x| x.contains("abc") || x.contains("def")));
        assert_eq!(t.iter().filter(|x| x.as_str() == "let").count(), 3);
    }

    #[test]
    fn seq_matching_ignores_whitespace() {
        let toks = tokenize("m .\n lock( ) . unwrap ()");
        assert!(seq_is(&toks, 1, &[".", "lock", "(", ")", ".", "unwrap"]));
    }

    #[test]
    fn escaped_quote_in_char_literal() {
        let t = tokenize(r"let q = '\''; let after = 2;");
        assert!(t.iter().any(|x| x.is("after")));
    }

    #[test]
    fn raw_identifiers_are_single_tokens() {
        // `r#match` must not split into `r`, `#`, `match` — the bare
        // keyword appearing from nowhere would confuse the parser.
        let t = texts("let r#match = r#fn + other;");
        assert!(t.contains(&"r#match".to_string()));
        assert!(t.contains(&"r#fn".to_string()));
        assert!(!t.contains(&"match".to_string()));
        assert!(!t.contains(&"fn".to_string()));
        assert!(!t.contains(&"#".to_string()));
    }

    #[test]
    fn raw_identifier_does_not_swallow_raw_strings() {
        // `r#"…"#` is a raw string (quote after the hash), not a raw
        // identifier; `r#x` is an identifier, not a truncated string.
        let t = texts("let a = r#\"Instant::now()\"#; let r#b = 1;");
        assert!(!t.iter().any(|x| x.contains("Instant")));
        assert!(t.contains(&"r#b".to_string()));
        assert_eq!(t.iter().filter(|x| x.as_str() == "let").count(), 2);
    }

    #[test]
    fn byte_string_escapes_and_multiline_raw_byte_strings() {
        // An escaped quote inside b"…" must not terminate the literal
        // early, and a multi-line br#"…"# must keep line numbers right.
        let src = "let a = b\"x\\\"y\";\nlet b = br#\"l1\nl2\"#;\nlet after = 3;";
        let toks = tokenize(src);
        let after = toks.iter().find(|t| t.is("after")).unwrap();
        assert_eq!(after.line, 4, "the raw byte string spans lines 2-3");
        assert!(!toks.iter().any(|t| t.is("y") || t.is("l2")));
    }

    #[test]
    fn underscore_lifetime_and_loop_labels() {
        let t = tokenize("fn f(x: &'_ u8) { 'outer: loop { break 'outer; } }");
        let lifetimes = t.iter().filter(|k| k.kind == TokKind::Lifetime).count();
        assert_eq!(lifetimes, 3, "'_ plus the label at both sites");
        assert!(!t.iter().any(|k| k.kind == TokKind::Literal));
    }

    #[test]
    fn doc_comment_edge_cases() {
        // Empty block comment, inner block doc, doc comment that itself
        // contains `*/`-adjacent stars, and a doc comment holding what
        // looks like a rule trigger.
        let src =
            "/**/ /*! inner */ /*** stars ***/\n/// Instant::now()\n//! SystemTime\nlet x = 1;";
        let t = texts(src);
        assert_eq!(t, vec!["let", "x", "=", "1", ";"]);
        let toks = tokenize(src);
        assert_eq!(toks[0].line, 4, "comment lines still counted");
    }

    #[test]
    fn unterminated_literals_do_not_hang_or_panic() {
        for src in ["let s = \"abc", "let s = r#\"abc", "let c = '\\", "/* open"] {
            let _ = tokenize(src); // must terminate without panicking
        }
    }
}
