//! A hand-rolled Rust lexer: just enough to strip comments, string and
//! character literals, and produce an identifier/punctuation token
//! stream with line numbers.
//!
//! The workspace is offline and carries only vendored stubs, so the
//! linter cannot lean on `syn`. Its analyses are token-pattern
//! matchers; they need exactly three things from this module: tokens
//! with line numbers, the set of `pfm-lint: allow(<rule>)`
//! annotations, and the spans of `#[cfg(test)] mod` bodies (rule
//! families exempt test code).

/// One lexed token: an identifier/number word or a single punctuation
/// character, with the 1-based source line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token text. Identifiers and numeric literals keep their full
    /// text; punctuation is a single character (so `::` arrives as two
    /// `:` tokens).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
}

impl Token {
    fn new(text: impl Into<String>, line: u32) -> Token {
        Token {
            text: text.into(),
            line,
        }
    }
}

/// A `// pfm-lint: allow(rule-a, rule-b)` annotation found while
/// stripping comments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// 1-based line the comment sits on (annotations suppress findings
    /// on their own line and on the following line).
    pub line: u32,
    /// Rule names listed inside `allow(...)`.
    pub rules: Vec<String>,
}

/// Lexer output: the token stream plus the side tables the rules need.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Identifier/punctuation stream with comments and literals removed.
    pub tokens: Vec<Token>,
    /// All `pfm-lint: allow(...)` annotations, in source order.
    pub allows: Vec<Allow>,
    /// Half-open token-index ranges covering `#[cfg(test)] mod` bodies.
    pub test_ranges: Vec<(usize, usize)>,
}

impl Lexed {
    /// True when token index `i` falls inside a `#[cfg(test)] mod` body.
    pub fn in_test_region(&self, i: usize) -> bool {
        self.test_ranges.iter().any(|&(s, e)| i >= s && i < e)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Parses the body of a comment for a `pfm-lint: allow(a, b)` marker.
fn parse_allow(comment: &str) -> Option<Vec<String>> {
    let rest = comment.split("pfm-lint:").nth(1)?;
    let inner = rest.trim_start().strip_prefix("allow(")?;
    let inner = inner.split(')').next()?;
    let rules: Vec<String> = inner
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        None
    } else {
        Some(rules)
    }
}

/// Lexes `source`, stripping comments and string/char literals.
pub fn lex(source: &str) -> Lexed {
    let mut out = Lexed::default();
    let chars: Vec<char> = source.chars().collect();
    let n = chars.len();
    let mut i = 0;
    let mut line: u32 = 1;

    // Advance over `chars[i..]` while counting newlines.
    macro_rules! bump {
        () => {{
            if chars[i] == '\n' {
                line += 1;
            }
            i += 1;
        }};
    }

    while i < n {
        let c = chars[i];

        // Line comment (including doc comments). Capture allow markers
        // — but not from doc comments (`///`, `//!`), where `pfm-lint:
        // allow(...)` text is documentation quoting the syntax, not an
        // annotation.
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            let start = i;
            while i < n && chars[i] != '\n' {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            let doc = text.starts_with("///") || text.starts_with("//!");
            if !doc {
                if let Some(rules) = parse_allow(&text) {
                    out.allows.push(Allow { line, rules });
                }
            }
            continue;
        }

        // Block comment, possibly nested.
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let start_line = line;
            let start = i;
            let mut depth = 0usize;
            while i < n {
                if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    bump!();
                }
            }
            let text: String = chars[start..i.min(n)].iter().collect();
            if let Some(rules) = parse_allow(&text) {
                out.allows.push(Allow {
                    line: start_line,
                    rules,
                });
            }
            continue;
        }

        // Raw strings: r"..." / r#"..."# (and br variants). Must be
        // checked before plain identifiers.
        if (c == 'r' || c == 'b')
            && !matches!(i.checked_sub(1).map(|p| chars[p]), Some(p) if is_ident_continue(p))
        {
            let mut j = i;
            if chars[j] == 'b' && j + 1 < n && chars[j + 1] == 'r' {
                j += 1;
            }
            if chars[j] == 'r' && j + 1 < n && (chars[j + 1] == '"' || chars[j + 1] == '#') {
                let mut hashes = 0usize;
                let mut k = j + 1;
                while k < n && chars[k] == '#' {
                    hashes += 1;
                    k += 1;
                }
                if k < n && chars[k] == '"' {
                    // Consume up to and including the closing quote
                    // followed by `hashes` hash marks.
                    while i <= k {
                        bump!();
                    }
                    'raw: while i < n {
                        if chars[i] == '"' {
                            let mut h = 0usize;
                            while i + 1 + h < n && h < hashes && chars[i + 1 + h] == '#' {
                                h += 1;
                            }
                            if h == hashes {
                                for _ in 0..=hashes {
                                    bump!();
                                }
                                break 'raw;
                            }
                        }
                        bump!();
                    }
                    continue;
                }
            }
        }

        // Plain and byte string literals.
        if c == '"'
            || (c == 'b'
                && i + 1 < n
                && chars[i + 1] == '"'
                && !matches!(i.checked_sub(1).map(|p| chars[p]), Some(p) if is_ident_continue(p)))
        {
            if c == 'b' {
                bump!();
            }
            bump!(); // opening quote
            while i < n {
                if chars[i] == '\\' && i + 1 < n {
                    bump!();
                    bump!();
                } else if chars[i] == '"' {
                    bump!();
                    break;
                } else {
                    bump!();
                }
            }
            continue;
        }

        // Char literal vs lifetime.
        if c == '\'' {
            // Byte char b'x' is handled here too: the `b` lexed as part
            // of an ident is impossible since `b` would have been
            // consumed as an ident; so peek back — simpler to treat a
            // preceding lone `b` ident as part of the literal is
            // unnecessary: `b'x'` lexes `b` as ident then the literal.
            let is_escape = i + 1 < n && chars[i + 1] == '\\';
            // 'c' (any single char, incl. unicode) followed by a quote.
            let simple_close = i + 2 < n && chars[i + 1] != '\'' && chars[i + 2] == '\'';
            if is_escape {
                bump!(); // quote
                bump!(); // backslash
                bump!(); // escaped char
                         // Consume to closing quote (handles \u{...}).
                while i < n && chars[i] != '\'' {
                    bump!();
                }
                if i < n {
                    bump!();
                }
                continue;
            }
            if simple_close {
                bump!();
                bump!();
                bump!();
                continue;
            }
            // Lifetime: emit the quote as punctuation; the following
            // ident lexes normally.
            out.tokens.push(Token::new("'", line));
            bump!();
            continue;
        }

        // Identifiers, keywords, numbers.
        if is_ident_start(c) {
            let start = i;
            let tok_line = line;
            while i < n && is_ident_continue(chars[i]) {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            out.tokens.push(Token::new(text, tok_line));
            continue;
        }

        // Whitespace.
        if c.is_whitespace() {
            bump!();
            continue;
        }

        // Single-char punctuation.
        out.tokens.push(Token::new(c, line));
        bump!();
    }

    out.test_ranges = find_test_ranges(&out.tokens);
    out
}

/// Finds half-open token ranges covering `#[cfg(test)] mod name { ... }`
/// bodies by brace matching over the token stream.
fn find_test_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let t = |i: usize| tokens.get(i).map(|t| t.text.as_str());
    let mut i = 0;
    while i < tokens.len() {
        // Match `# [ cfg ( test ) ]`.
        let is_cfg_test = t(i) == Some("#")
            && t(i + 1) == Some("[")
            && t(i + 2) == Some("cfg")
            && t(i + 3) == Some("(")
            && t(i + 4) == Some("test")
            && t(i + 5) == Some(")")
            && t(i + 6) == Some("]");
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Skip any further attributes, then expect `mod name {`.
        let mut j = i + 7;
        while t(j) == Some("#") && t(j + 1) == Some("[") {
            let mut depth = 1usize;
            j += 2;
            while j < tokens.len() && depth > 0 {
                match t(j) {
                    Some("[") => depth += 1,
                    Some("]") => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
        }
        if t(j) == Some("mod") {
            // `mod name {` (skip `pub` etc. is unnecessary: attributes
            // precede visibility rarely in this codebase, but accept
            // `pub` for robustness).
            let mut k = j + 1;
            if t(k) == Some("pub") {
                k += 1;
            }
            // Module name.
            k += 1;
            if t(k) == Some("{") {
                let body_start = k + 1;
                let mut depth = 1usize;
                let mut e = body_start;
                while e < tokens.len() && depth > 0 {
                    match t(e) {
                        Some("{") => depth += 1,
                        Some("}") => depth -= 1,
                        _ => {}
                    }
                    e += 1;
                }
                ranges.push((i, e));
                i = e;
                continue;
            }
        }
        i = j;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn strips_comments_and_strings() {
        let toks = texts("let x = \"HashMap\"; // HashMap\n/* HashMap */ y");
        assert!(!toks.contains(&"HashMap".to_string()));
        assert!(toks.contains(&"y".to_string()));
    }

    #[test]
    fn raw_strings_and_chars() {
        let toks = texts("r#\"for k in &m\"# '\\n' 'a' b\"x\" br\"y\" z");
        assert_eq!(toks, vec!["z"]);
    }

    #[test]
    fn lifetimes_survive() {
        let toks = texts("fn f<'a>(x: &'a str) {}");
        assert!(toks.contains(&"'".to_string()));
        assert!(toks.contains(&"a".to_string()));
    }

    #[test]
    fn allow_annotations_recorded() {
        let l = lex("// pfm-lint: allow(hygiene, hash-iter)\nfoo();\n");
        assert_eq!(l.allows.len(), 1);
        assert_eq!(l.allows[0].line, 1);
        assert_eq!(l.allows[0].rules, vec!["hygiene", "hash-iter"]);
        let allowed = |family, rule, line| {
            !crate::effects::matching_allows(&l, family, rule, line).is_empty()
        };
        assert!(allowed("hygiene", "unwrap", 2));
        assert!(allowed("determinism", "hash-iter", 1));
        assert!(!allowed("noninterference", "arch-mutation", 2));
    }

    #[test]
    fn cfg_test_mod_body_detected() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\nfn tail() {}";
        let l = lex(src);
        let unwrap_idx = l
            .tokens
            .iter()
            .position(|t| t.text == "unwrap")
            .map_or(usize::MAX, |p| p);
        assert!(l.in_test_region(unwrap_idx));
        let tail_idx = l
            .tokens
            .iter()
            .position(|t| t.text == "tail")
            .map_or(usize::MAX, |p| p);
        assert!(!l.in_test_region(tail_idx));
    }

    #[test]
    fn line_numbers_track_newlines() {
        let l = lex("a\nb\n\nc");
        let lines: Vec<u32> = l.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }
}
