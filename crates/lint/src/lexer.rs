//! A lightweight Rust lexer for first-party source scans, in the style
//! of `eua-analyze`'s `.scn` token scanner: no rustc or syn dependency,
//! just enough lexical structure for the determinism rules to match
//! token sequences with exact spans.
//!
//! The lexer distinguishes what the rules need and nothing more:
//! identifiers (keywords lex as identifiers), the `::` path separator,
//! brackets (for brace/paren matching), `!` and `.` (macro bangs and
//! method calls), and comments (kept, because directives live in
//! them). String, character, and numeric literals are consumed and
//! *dropped* — a hazard name inside a string is data, not code, and
//! must not trip a lint. Raw strings (`r#"…"#`), byte and
//! C strings, raw identifiers, lifetimes, and nested block comments are
//! all handled so that brace matching never desynchronizes. Loop labels
//! are the one lifetime-shaped thing that *does* emit a token
//! ([`TokKind::Label`]) — the control-flow graphs in `cfg.rs` need them
//! to resolve labeled `break`/`continue`.
//!
//! Lines and columns are 1-based byte positions; `end_col` is exclusive,
//! matching [`eua_analyze::Span`] and SARIF's `endColumn`.

/// What kind of token was lexed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`fn`, `spawn`, `HashMap`, …).
    Ident,
    /// The `::` path separator, lexed as one token.
    PathSep,
    /// An opening bracket: `(`, `[`, or `{` (the byte is in `text`).
    Open,
    /// A closing bracket: `)`, `]`, or `}`.
    Close,
    /// The `!` of a macro invocation (or any bare `!`).
    Bang,
    /// A `.` (method calls, field access).
    Dot,
    /// A comment, delimiters included; `line` is false for `/* … */`.
    Comment {
        /// Whether this is a `//` line comment (directives only live
        /// in line comments).
        line: bool,
    },
    /// A loop label (`'outer` in `'outer: loop` or `break 'outer`),
    /// leading quote included in `text`. Plain lifetimes stay dropped;
    /// only the two label positions emit this kind.
    Label,
    /// Any other single punctuation byte.
    Punct,
}

/// One lexed token with its byte extent in the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tok<'a> {
    /// The token class.
    pub kind: TokKind,
    /// The token's text, delimiters included for comments.
    pub text: &'a str,
    /// 1-based line of the first byte.
    pub line: u32,
    /// 1-based byte column of the first byte.
    pub col: u32,
    /// 1-based line of the last byte (differs from `line` only for
    /// block comments).
    pub end_line: u32,
    /// 1-based exclusive end column on `end_line`.
    pub end_col: u32,
}

impl Tok<'_> {
    /// Whether this token is an identifier with exactly this text.
    #[must_use]
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text == text
    }
}

/// Cursor state shared by the scan helpers.
struct Cursor<'a> {
    bytes: &'a [u8],
    src: &'a str,
    i: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.i + ahead).copied()
    }

    /// Advances one byte, maintaining the line/column counters.
    fn bump(&mut self) {
        if self.bytes.get(self.i) == Some(&b'\n') {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        self.i += 1;
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    /// Consumes an identifier run starting at the cursor.
    fn eat_ident(&mut self) {
        while self
            .peek(0)
            .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
        {
            self.bump();
        }
    }

    /// Consumes a `"…"` literal body after the opening quote, honoring
    /// backslash escapes. Unterminated literals run to end of input.
    fn eat_string_body(&mut self) {
        while let Some(b) = self.peek(0) {
            match b {
                b'\\' => self.bump_n(2),
                b'"' => {
                    self.bump();
                    return;
                }
                _ => self.bump(),
            }
        }
    }

    /// Consumes a `'…'` literal body after the opening quote (same
    /// escape handling as strings, closing on `'`).
    fn eat_char_body(&mut self) {
        while let Some(b) = self.peek(0) {
            match b {
                b'\\' => self.bump_n(2),
                b'\'' => {
                    self.bump();
                    return;
                }
                _ => self.bump(),
            }
        }
    }

    /// Consumes a raw-string body after `r` and its `n` hashes plus the
    /// opening quote: runs until `"` followed by `n` hashes.
    fn eat_raw_string_body(&mut self, hashes: usize) {
        while let Some(b) = self.peek(0) {
            if b == b'"' {
                let closed = (1..=hashes).all(|k| self.peek(k) == Some(b'#'));
                if closed {
                    self.bump_n(1 + hashes);
                    return;
                }
            }
            self.bump();
        }
    }

    /// Consumes a numeric literal (integers, floats, suffixes). The
    /// digits themselves never matter to a rule; this exists so `1.0`
    /// does not leak a spurious `.` token.
    fn eat_number(&mut self) {
        while self
            .peek(0)
            .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
        {
            self.bump();
        }
        // A fractional part: `.` followed by a digit (so `1..4` and
        // `1.max(2)` stop at the integer).
        if self.peek(0) == Some(b'.') && self.peek(1).is_some_and(|b| b.is_ascii_digit()) {
            self.bump();
            while self
                .peek(0)
                .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
            {
                self.bump();
            }
        }
    }
}

/// Whether `ident` is a literal prefix that can precede a quote
/// (`b"…"`, `r#"…"#`, `br"…"`, `c"…"`, `cr#"…"#`).
fn is_literal_prefix(ident: &str) -> bool {
    matches!(ident, "r" | "b" | "c" | "br" | "cr")
}

/// Lexes `src` into a token stream. Never fails: malformed input
/// degrades to `Punct` tokens or an early end of stream, it does not
/// panic — the linter must survive any bytes a `.rs` file can hold.
#[must_use]
pub fn lex(src: &str) -> Vec<Tok<'_>> {
    let mut cur = Cursor {
        bytes: src.as_bytes(),
        src,
        i: 0,
        line: 1,
        col: 1,
    };
    let mut out = Vec::new();
    // A shebang (`#!` as the very first bytes, not followed by `[`) is
    // host metadata, not Rust: consume the first line without emitting
    // tokens. `#![attr]` must still lex as `# ! [ attr ]`.
    if cur.peek(0) == Some(b'#') && cur.peek(1) == Some(b'!') && cur.peek(2) != Some(b'[') {
        while cur.peek(0).is_some_and(|c| c != b'\n') {
            cur.bump();
        }
    }
    while let Some(b) = cur.peek(0) {
        let (start_i, start_line, start_col) = (cur.i, cur.line, cur.col);
        // Capture `src` (not `&cur`) so the slice keeps the input's
        // lifetime rather than the closure borrow's.
        let emit = |end_i: usize, end_line: u32, end_col: u32, kind| {
            (
                kind,
                &src[start_i..end_i],
                start_line,
                start_col,
                end_line,
                end_col,
            )
        };
        let tok = match b {
            _ if b.is_ascii_whitespace() => {
                cur.bump();
                continue;
            }
            b'/' if cur.peek(1) == Some(b'/') => {
                while cur.peek(0).is_some_and(|c| c != b'\n') {
                    cur.bump();
                }
                emit(cur.i, cur.line, cur.col, TokKind::Comment { line: true })
            }
            b'/' if cur.peek(1) == Some(b'*') => {
                cur.bump_n(2);
                let mut depth = 1usize;
                while depth > 0 {
                    match (cur.peek(0), cur.peek(1)) {
                        (Some(b'*'), Some(b'/')) => {
                            depth -= 1;
                            cur.bump_n(2);
                        }
                        (Some(b'/'), Some(b'*')) => {
                            depth += 1;
                            cur.bump_n(2);
                        }
                        (Some(_), _) => cur.bump(),
                        (None, _) => break,
                    }
                }
                emit(cur.i, cur.line, cur.col, TokKind::Comment { line: false })
            }
            b'"' => {
                cur.bump();
                cur.eat_string_body();
                continue;
            }
            b'\'' => {
                cur.bump();
                match cur.peek(0) {
                    // `'\n'`-style escapes are always char literals.
                    Some(b'\\') => {
                        cur.eat_char_body();
                        continue;
                    }
                    // `'a` starts a lifetime (`'a`, `'static`), a loop
                    // label (`'outer: loop`, `break 'outer`), or a char
                    // literal (`'a'`): consume the identifier run and
                    // look for the closing quote.
                    Some(c) if c.is_ascii_alphabetic() || c == b'_' => {
                        cur.eat_ident();
                        if cur.peek(0) == Some(b'\'') {
                            cur.bump();
                            continue;
                        }
                        // A label is a lifetime the control flow can
                        // target: declared before a `:` that is not a
                        // `::`, or named right after `break`/`continue`.
                        // Plain lifetimes keep producing no token, so
                        // generics and reference types stay invisible.
                        let declared = cur.peek(0) == Some(b':') && cur.peek(1) != Some(b':');
                        let named = out
                            .iter()
                            .rev()
                            .find(|t: &&Tok<'_>| !matches!(t.kind, TokKind::Comment { .. }))
                            .is_some_and(|t| {
                                t.kind == TokKind::Ident && matches!(t.text, "break" | "continue")
                            });
                        if !(declared || named) {
                            continue;
                        }
                        emit(cur.i, cur.line, cur.col, TokKind::Label)
                    }
                    // `'('` and friends.
                    Some(_) => {
                        cur.eat_char_body();
                        continue;
                    }
                    None => continue,
                }
            }
            _ if b.is_ascii_digit() => {
                cur.eat_number();
                continue;
            }
            _ if b.is_ascii_alphabetic() || b == b'_' => {
                cur.eat_ident();
                let ident = &cur.src[start_i..cur.i];
                match cur.peek(0) {
                    // `b"…"`, `r"…"`, `c"…"` …: a prefixed literal, not
                    // an identifier.
                    Some(b'"') if is_literal_prefix(ident) => {
                        cur.bump();
                        if ident.contains('r') {
                            cur.eat_raw_string_body(0);
                        } else {
                            cur.eat_string_body();
                        }
                        continue;
                    }
                    // `r#"…"#` (any hash count) or a raw identifier
                    // `r#ident` (emitted as one Ident, `r#` included).
                    Some(b'#') if is_literal_prefix(ident) && ident.contains('r') => {
                        let mut hashes = 0usize;
                        while cur.peek(hashes) == Some(b'#') {
                            hashes += 1;
                        }
                        if cur.peek(hashes) == Some(b'"') {
                            cur.bump_n(hashes + 1);
                            cur.eat_raw_string_body(hashes);
                            continue;
                        }
                        if hashes == 1
                            && cur
                                .peek(1)
                                .is_some_and(|c| c.is_ascii_alphabetic() || c == b'_')
                        {
                            cur.bump();
                            cur.eat_ident();
                            emit(cur.i, cur.line, cur.col, TokKind::Ident)
                        } else {
                            emit(cur.i, cur.line, cur.col, TokKind::Ident)
                        }
                    }
                    // `b'x'` byte char literal.
                    Some(b'\'') if ident == "b" => {
                        cur.bump();
                        cur.eat_char_body();
                        continue;
                    }
                    _ => emit(cur.i, cur.line, cur.col, TokKind::Ident),
                }
            }
            b':' if cur.peek(1) == Some(b':') => {
                cur.bump_n(2);
                emit(cur.i, cur.line, cur.col, TokKind::PathSep)
            }
            b'(' | b'[' | b'{' => {
                cur.bump();
                emit(cur.i, cur.line, cur.col, TokKind::Open)
            }
            b')' | b']' | b'}' => {
                cur.bump();
                emit(cur.i, cur.line, cur.col, TokKind::Close)
            }
            b'!' => {
                cur.bump();
                emit(cur.i, cur.line, cur.col, TokKind::Bang)
            }
            b'.' => {
                cur.bump();
                emit(cur.i, cur.line, cur.col, TokKind::Dot)
            }
            _ => {
                cur.bump();
                emit(cur.i, cur.line, cur.col, TokKind::Punct)
            }
        };
        let (kind, text, line, col, end_line, end_col) = tok;
        out.push(Tok {
            kind,
            text,
            line,
            col,
            end_line,
            end_col,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    fn idents<'a>(toks: &[Tok<'a>]) -> Vec<&'a str> {
        toks.iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn paths_lex_as_ident_pathsep_ident() {
        let toks = lex("std::time::Instant");
        let kinds: Vec<TokKind> = toks.iter().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            [
                TokKind::Ident,
                TokKind::PathSep,
                TokKind::Ident,
                TokKind::PathSep,
                TokKind::Ident
            ]
        );
        assert_eq!(toks[4].text, "Instant");
        assert_eq!((toks[4].line, toks[4].col, toks[4].end_col), (1, 12, 19));
    }

    #[test]
    fn string_contents_produce_no_tokens() {
        let toks = lex(r#"let x = "Instant::now() inside a string";"#);
        assert_eq!(idents(&toks), ["let", "x"]);
    }

    #[test]
    fn raw_strings_and_hashes_are_skipped() {
        let src = "let y = r#\"thread::spawn \" quote inside\"#; after";
        assert_eq!(idents(&lex(src)), ["let", "y", "after"]);
        let src = "let z = br\"HashMap\"; tail";
        assert_eq!(idents(&lex(src)), ["let", "z", "tail"]);
    }

    #[test]
    fn char_literals_and_lifetimes_disambiguate() {
        let toks = lex("fn f<'a>(x: &'a str) -> char { 'b' }");
        // Neither the lifetime nor the char literal leaks tokens, and
        // the braces still match.
        assert_eq!(idents(&toks), ["fn", "f", "x", "str", "char"]);
        let opens = toks.iter().filter(|t| t.kind == TokKind::Open).count();
        let closes = toks.iter().filter(|t| t.kind == TokKind::Close).count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn loop_labels_emit_label_tokens_but_lifetimes_stay_dropped() {
        let toks = lex("'outer: loop { break 'outer; }");
        let labels: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Label)
            .map(|t| t.text)
            .collect();
        assert_eq!(labels, ["'outer", "'outer"]);
        // A lifetime in a signature still produces no token at all.
        let toks = lex("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(toks.iter().all(|t| t.kind != TokKind::Label));
        // `continue 'tick` names a label too; `'t'` stays a char.
        let toks = lex("continue 'tick; let c = 't';");
        let labels: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Label)
            .map(|t| t.text)
            .collect();
        assert_eq!(labels, ["'tick"]);
    }

    #[test]
    fn escaped_char_literal_does_not_desync() {
        assert_eq!(
            idents(&lex(r"let q = '\''; let w = '\u{7f}'; end")),
            ["let", "q", "let", "w", "end"]
        );
    }

    #[test]
    fn comments_are_kept_with_spans() {
        let toks = lex("a // trailing note\n/* block\nspans lines */ b");
        let comments: Vec<&Tok<'_>> = toks
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Comment { .. }))
            .collect();
        assert_eq!(comments.len(), 2);
        assert_eq!(comments[0].text, "// trailing note");
        assert_eq!(comments[0].line, 1);
        assert!(matches!(comments[1].kind, TokKind::Comment { line: false }));
        assert_eq!((comments[1].line, comments[1].end_line), (2, 3));
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let toks = lex("/* outer /* inner */ still comment */ visible");
        assert_eq!(idents(&toks), ["visible"]);
    }

    #[test]
    fn numbers_do_not_emit_dot_tokens() {
        let toks = lex("let v = 1.0e3f64 + 0x_ff + 7_u32; v.max(2.0)");
        let dots = toks.iter().filter(|t| t.kind == TokKind::Dot).count();
        assert_eq!(dots, 1, "only the method-call dot survives");
    }

    #[test]
    fn macro_bang_and_brackets() {
        let toks = lex("vec![1, 2]");
        assert_eq!(toks[0].text, "vec");
        assert_eq!(toks[1].kind, TokKind::Bang);
        assert_eq!(toks[2].kind, TokKind::Open);
        assert_eq!(toks[2].text, "[");
    }

    #[test]
    fn raw_identifiers_lex_as_one_ident() {
        let toks = lex("let r#type = 1;");
        assert_eq!(idents(&toks), ["let", "r#type"]);
    }

    #[test]
    fn shebang_line_produces_no_tokens() {
        let toks = lex("#!/usr/bin/env run-cargo-script\nfn main() {}\n");
        assert_eq!(idents(&toks), ["fn", "main"]);
        assert_eq!(
            toks[0].line, 2,
            "tokens start on the line after the shebang"
        );
        // An inner attribute is not a shebang: `#![forbid(...)]` keeps
        // all of its tokens.
        let toks = lex("#![deny(missing_docs)]\nfn f() {}\n");
        assert_eq!(toks[0].kind, TokKind::Punct);
        assert_eq!(toks[0].text, "#");
        assert_eq!(toks[1].kind, TokKind::Bang);
        assert_eq!(idents(&toks), ["deny", "missing_docs", "fn", "f"]);
        // A shebang only counts at byte zero.
        let toks = lex("\n#!/bin/sh\n");
        assert!(toks.iter().any(|t| t.kind == TokKind::Bang));
    }

    #[test]
    fn survives_unterminated_garbage() {
        for src in ["\"unterminated", "/* open", "'", "r#\"open", "b'"] {
            let _ = lex(src);
        }
    }
}
