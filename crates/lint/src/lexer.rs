//! A small, self-contained Rust lexer.
//!
//! The linter does not parse Rust; it pattern-matches over a token stream.
//! The lexer therefore only needs to be precise about the things that would
//! otherwise corrupt the stream:
//!
//! * comments (line + *nested* block comments), which also carry the
//!   `// tc-lint: allow(rule)` suppression syntax;
//! * string literals, including raw strings (`r"…"`, `r#"…"#`, byte/raw-byte
//!   variants) whose bodies may contain `//`, quotes, or anything else;
//! * the `'a` lifetime vs `'a'` character-literal ambiguity.
//!
//! Everything else is reduced to identifiers, numbers and single-character
//! punctuation. Token positions are 1-based line/column (column counted in
//! characters), matching rustc's diagnostic convention.

/// The coarse classification of a [`Token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`fn`, `HashMap`, `for`, …).
    Ident,
    /// A lifetime such as `'a` or `'static` (no closing quote).
    Lifetime,
    /// A character literal such as `'a'` or `'\n'`.
    Char,
    /// A string literal of any flavour (plain, raw, byte, raw byte).
    Str,
    /// A numeric literal (integer or float, any base, with suffix).
    Num,
    /// A single punctuation character (`.`, `(`, `!`, `&`, …).
    Punct(char),
}

/// One lexed token with its source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token kind.
    pub kind: TokKind,
    /// The token text. Empty for string literals (their content is never
    /// inspected by any rule, and dropping it keeps the stream small).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column (in characters).
    pub col: u32,
}

impl Token {
    /// Returns the identifier text if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match self.kind {
            TokKind::Ident => Some(&self.text),
            _ => None,
        }
    }

    /// True if this token is the punctuation character `ch`.
    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == TokKind::Punct(ch)
    }
}

/// An inline suppression comment: `// tc-lint: allow(rule-a, rule-b)`.
///
/// A suppression silences findings on its own line and on the line directly
/// below it (so it can trail the offending code or sit on its own line above).
#[derive(Debug, Clone)]
pub struct Suppression {
    /// 1-based line the comment appears on.
    pub line: u32,
    /// Lowercased rule names inside `allow(…)`; `all` silences every rule.
    pub rules: Vec<String>,
}

impl Suppression {
    /// True if this suppression silences `rule` for a finding on `line`.
    pub fn covers(&self, rule: &str, line: u32) -> bool {
        (self.line == line || self.line + 1 == line)
            && self.rules.iter().any(|r| r == rule || r == "all")
    }
}

/// The output of [`lex`]: the token stream plus any suppression comments.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All non-trivia tokens in source order.
    pub tokens: Vec<Token>,
    /// All `tc-lint: allow(…)` comments.
    pub suppressions: Vec<Suppression>,
}

/// Lexes `source` into tokens and suppression comments.
///
/// The lexer never fails: malformed input (e.g. an unterminated string)
/// simply ends the current token at end-of-file. That is the right trade-off
/// for a linter — it must not panic on code rustc would reject anyway.
pub fn lex(source: &str) -> Lexed {
    Lexer::new(source).run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
    out: Lexed,
}

impl Lexer {
    fn new(source: &str) -> Self {
        Lexer {
            chars: source.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
            out: Lexed::default(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    /// Advances one character, maintaining line/column counters.
    fn bump(&mut self) -> Option<char> {
        let ch = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if ch == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(ch)
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32, col: u32) {
        self.out.tokens.push(Token {
            kind,
            text,
            line,
            col,
        });
    }

    fn run(mut self) -> Lexed {
        while let Some(ch) = self.peek(0) {
            let (line, col) = (self.line, self.col);
            if ch.is_whitespace() {
                self.bump();
            } else if ch == '/' && self.peek(1) == Some('/') {
                self.line_comment(line);
            } else if ch == '/' && self.peek(1) == Some('*') {
                self.block_comment();
            } else if is_ident_start(ch) {
                self.ident_or_prefixed_string(line, col);
            } else if ch.is_ascii_digit() {
                self.number(line, col);
            } else if ch == '"' {
                self.plain_string(line, col);
            } else if ch == '\'' {
                self.lifetime_or_char(line, col);
            } else {
                self.bump();
                self.push(TokKind::Punct(ch), String::new(), line, col);
            }
        }
        self.out
    }

    fn line_comment(&mut self, line: u32) {
        let start = self.pos;
        while let Some(ch) = self.peek(0) {
            if ch == '\n' {
                break;
            }
            self.bump();
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        if let Some(rules) = parse_suppression(&text) {
            self.out.suppressions.push(Suppression { line, rules });
        }
    }

    fn block_comment(&mut self) {
        // Consume `/*`; Rust block comments nest.
        self.bump();
        self.bump();
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some('*'), Some('/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break,
            }
        }
    }

    fn ident_or_prefixed_string(&mut self, line: u32, col: u32) {
        let start = self.pos;
        while let Some(ch) = self.peek(0) {
            if is_ident_continue(ch) {
                self.bump();
            } else {
                break;
            }
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        // `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#` — a string-prefix identifier
        // immediately followed by a quote or `#` starts a literal, not an
        // identifier.
        let next = self.peek(0);
        let is_raw = matches!(text.as_str(), "r" | "br" | "rb");
        let is_byte = matches!(text.as_str(), "b" | "br" | "rb");
        if is_raw && (next == Some('"') || next == Some('#')) {
            self.raw_string(line, col);
            return;
        }
        if is_byte && next == Some('"') {
            self.plain_string(line, col);
            return;
        }
        self.push(TokKind::Ident, text, line, col);
    }

    fn number(&mut self, line: u32, col: u32) {
        let start = self.pos;
        let mut prev = '0';
        let mut seen_dot = false;
        while let Some(ch) = self.peek(0) {
            let take = if ch.is_ascii_alphanumeric() || ch == '_' {
                true
            } else if ch == '.' && !seen_dot {
                // Accept `1.5` but not the `..` of `0..n`.
                match self.peek(1) {
                    Some(d) if d.is_ascii_digit() => {
                        seen_dot = true;
                        true
                    }
                    _ => false,
                }
            } else {
                // Exponent sign: `1e-9`, `2.5E+3`.
                (ch == '+' || ch == '-') && matches!(prev, 'e' | 'E')
            };
            if !take {
                break;
            }
            prev = ch;
            self.bump();
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        self.push(TokKind::Num, text, line, col);
    }

    /// Lexes a `"…"`-delimited string (plain or byte) with escape handling.
    /// Assumes the cursor sits on the opening quote.
    fn plain_string(&mut self, line: u32, col: u32) {
        self.bump(); // opening quote
        while let Some(ch) = self.bump() {
            if ch == '\\' {
                self.bump(); // the escaped character, whatever it is
            } else if ch == '"' {
                break;
            }
        }
        self.push(TokKind::Str, String::new(), line, col);
    }

    /// Lexes `r"…"` / `r#"…"#` with any number of `#` guards.
    /// Assumes the cursor sits on the first `#` or the opening quote.
    fn raw_string(&mut self, line: u32, col: u32) {
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            self.bump();
            hashes += 1;
        }
        if self.peek(0) == Some('"') {
            self.bump();
        }
        loop {
            match self.bump() {
                None => break,
                Some('"') => {
                    let mut matched = 0usize;
                    while matched < hashes && self.peek(0) == Some('#') {
                        self.bump();
                        matched += 1;
                    }
                    if matched == hashes {
                        break;
                    }
                }
                Some(_) => {}
            }
        }
        self.push(TokKind::Str, String::new(), line, col);
    }

    /// Disambiguates `'a` (lifetime) from `'a'` (char literal).
    fn lifetime_or_char(&mut self, line: u32, col: u32) {
        self.bump(); // opening quote
        match self.peek(0) {
            // `'\n'`, `'\''` — an escape is always a char literal.
            Some('\\') => {
                self.bump();
                self.bump(); // escaped char
                if self.peek(0) == Some('\'') {
                    self.bump();
                }
                self.push(TokKind::Char, String::new(), line, col);
            }
            Some(ch) if is_ident_continue(ch) => {
                let start = self.pos;
                while let Some(c) = self.peek(0) {
                    if is_ident_continue(c) {
                        self.bump();
                    } else {
                        break;
                    }
                }
                if self.peek(0) == Some('\'') {
                    // `'a'` — closing quote makes it a char literal.
                    self.bump();
                    self.push(TokKind::Char, String::new(), line, col);
                } else {
                    let text: String = self.chars[start..self.pos].iter().collect();
                    self.push(TokKind::Lifetime, text, line, col);
                }
            }
            // `'('`-style single-symbol char literals.
            Some(_) => {
                self.bump();
                if self.peek(0) == Some('\'') {
                    self.bump();
                }
                self.push(TokKind::Char, String::new(), line, col);
            }
            None => {}
        }
    }
}

fn is_ident_start(ch: char) -> bool {
    ch.is_alphabetic() || ch == '_'
}

fn is_ident_continue(ch: char) -> bool {
    ch.is_alphanumeric() || ch == '_'
}

/// Parses `tc-lint: allow(rule-a, rule-b)` out of a line comment's text.
fn parse_suppression(comment: &str) -> Option<Vec<String>> {
    let idx = comment.find("tc-lint:")?;
    let rest = comment[idx + "tc-lint:".len()..].trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let end = rest.find(')')?;
    let rules: Vec<String> = rest[..end]
        .split(',')
        .map(|r| r.trim().to_ascii_lowercase())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        None
    } else {
        Some(rules)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .collect()
    }

    #[test]
    fn raw_strings_hide_their_contents() {
        // The `//` and quotes inside the raw string must not confuse the
        // lexer into swallowing the trailing identifier.
        let src = r####"let s = r#"not // a "comment" .unwrap()"#; after"####;
        let ids = idents(src);
        assert!(ids.contains(&"after".to_string()), "got {ids:?}");
        assert!(!ids.contains(&"unwrap".to_string()), "got {ids:?}");
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let src = r####"let a = b"bytes"; let b = br#"raw "bytes""#; tail"####;
        let ids = idents(src);
        assert!(ids.contains(&"tail".to_string()), "got {ids:?}");
        assert!(!ids.contains(&"bytes".to_string()), "got {ids:?}");
    }

    #[test]
    fn nested_block_comments() {
        let src = "before /* outer /* inner */ still-comment */ after";
        let ids = idents(src);
        assert_eq!(ids, vec!["before", "after"]);
    }

    #[test]
    fn lifetime_vs_char_literal() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'a'; let n = '\\n'; }").tokens;
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        let chars: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Char).collect();
        assert_eq!(lifetimes.len(), 2, "{toks:?}");
        assert_eq!(chars.len(), 2, "{toks:?}");
    }

    #[test]
    fn underscore_char_and_lifetime() {
        let toks = lex("let _x: &'_ str = y; let c = '_';").tokens;
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Lifetime).count(),
            1
        );
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Char).count(), 1);
    }

    #[test]
    fn numbers_do_not_eat_range_dots() {
        let toks = lex("for i in 0..n { let x = 1.5e-3f64; }").tokens;
        let nums: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(nums, vec!["0", "1.5e-3f64"]);
        assert_eq!(
            toks.iter().filter(|t| t.is_punct('.')).count(),
            2,
            "the two range dots survive as punctuation"
        );
    }

    #[test]
    fn suppression_comments_are_collected() {
        let src = "let x = 1; // tc-lint: allow(locality, csr-boundary)\nlet y = 2;\n";
        let lexed = lex(src);
        assert_eq!(lexed.suppressions.len(), 1);
        let s = &lexed.suppressions[0];
        assert_eq!(s.line, 1);
        assert!(s.covers("locality", 1));
        assert!(s.covers("locality", 2), "covers the following line too");
        assert!(!s.covers("locality", 3));
        assert!(s.covers("csr-boundary", 1));
        assert!(!s.covers("panic-hygiene", 1));
    }

    #[test]
    fn allow_all_covers_everything() {
        let lexed = lex("// tc-lint: allow(all)\nfoo.unwrap();\n");
        assert!(lexed.suppressions[0].covers("panic-hygiene", 2));
    }

    #[test]
    fn positions_are_one_based() {
        let toks = lex("ab\n  cd").tokens;
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }
}
