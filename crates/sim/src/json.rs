//! The workspace's one JSON grammar and formatting, without external
//! crates (the build environment is offline, so no `serde`):
//!
//! * [`write_str`], [`write_uint`] and [`write_num`] format every string
//!   and number any first-party writer emits;
//! * [`Lexer`] is a borrowing pull lexer over RFC 8259 JSON;
//! * [`Json`] is a tree for SARIF (`eua-analyze`), result files and
//!   journals (`eua-bench`), rendered through the scalar writers and
//!   parsed from the lexer's tokens by [`parse`].
//!
//! Decision certificates use the writers and the lexer directly, without
//! a tree. Emitted documents can be asserted to **round-trip**
//! byte-for-byte (`render(parse(s)) == s`).
//!
//! Numbers are kept as their literal token text ([`Json::Num`] wraps a
//! `String`), which is what makes the round-trip exact: a parsed
//! document re-renders to the same bytes because nothing is ever
//! re-formatted through `f64`.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A JSON value. Object keys keep insertion order (no sorting), so a
/// writer fully controls the byte layout.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its literal token text.
    Num(String),
    /// A string (unescaped content).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A number from an `f64`, via Rust's shortest-roundtrip `{:?}`
    /// formatting (deterministic across platforms). Non-finite values
    /// have no JSON representation and are rendered as `null`.
    #[must_use]
    pub fn num(v: f64) -> Json {
        if v.is_finite() {
            let mut text = String::new();
            write_num(&mut text, v);
            Json::Num(text)
        } else {
            Json::Null
        }
    }

    /// A number from an unsigned integer.
    #[must_use]
    pub fn uint(v: u64) -> Json {
        let mut text = String::new();
        write_uint(&mut text, v);
        Json::Num(text)
    }

    /// Renders the tree as pretty-printed JSON (2-space indent, `\n`
    /// newlines, trailing newline). The layout is fully deterministic:
    /// rendering a parsed render reproduces the bytes exactly.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders the tree as compact single-line JSON (no whitespace, no
    /// trailing newline) — the layout journal records use, where one
    /// record must occupy exactly one line. As deterministic as
    /// [`Json::render`], and parseable by the same [`parse`].
    #[must_use]
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Appends the compact rendering of [`Json::render_compact`] to
    /// `out`, for writers that lay out a document line by line.
    pub fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    /// Looks up a key in an object (first match); `None` elsewhere.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string content, if this is a [`Json::Str`].
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is a [`Json::Arr`].
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_str(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

// The three scalar writers below are the workspace's one number and
// string formatting: the `Json` tree renders through them, and so does
// the certificate writer, which appends rows without building a tree.

/// Appends `s` as a JSON string literal.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends an unsigned integer in plain decimal digits.
pub fn write_uint(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &digits[start..] {
        out.push(char::from(d));
    }
}

/// Appends an `f64` in Rust's shortest-round-trip `{:?}` form (such as
/// `0.5`, `1.0`, `1e-7` or `-0.0`), or `null` when it is not finite.
pub fn write_num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// The deepest array/object nesting [`parse`] accepts. The parser
/// recurses once per level, so an unbounded depth would let a hostile
/// document overflow the stack; the deepest document the workspace
/// writes (a SARIF log) nests 9 levels.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document (RFC 8259) into a [`Json`] tree, through the
/// same [`Lexer`] the certificate reader pulls its tokens from.
///
/// # Errors
///
/// A human-readable message naming the byte offset of the first
/// malformed token, trailing garbage after the document, or nesting
/// deeper than 128 levels.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut lexer = Lexer::new(input);
    let first = lexer.token()?;
    let value = tree(&mut lexer, first, 0)?;
    lexer.finish()?;
    Ok(value)
}

/// Builds the value that opens with `token`, which sits inside `depth`
/// enclosing arrays and objects.
fn tree<'a>(lexer: &mut Lexer<'a>, token: Token<'a>, depth: usize) -> Result<Json, String> {
    if matches!(token, Token::ArrayStart | Token::ObjectStart) && depth == MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            lexer.offset() - 1
        ));
    }
    match token {
        Token::Null => Ok(Json::Null),
        Token::Bool(b) => Ok(Json::Bool(b)),
        Token::Num(n) => Ok(Json::Num(n.to_string())),
        Token::Str(s) => Ok(Json::Str(s.into_owned())),
        Token::ArrayStart => {
            let mut items = Vec::new();
            if lexer.eat(b']') {
                return Ok(Json::Arr(items));
            }
            loop {
                let next = lexer.token()?;
                items.push(tree(lexer, next, depth + 1)?);
                if lexer.eat(b']') {
                    return Ok(Json::Arr(items));
                }
                lexer.expect(b',', "',' or ']'")?;
            }
        }
        Token::ObjectStart => {
            let mut fields = Vec::new();
            if lexer.eat(b'}') {
                return Ok(Json::Obj(fields));
            }
            loop {
                let at = lexer.offset();
                let Token::Str(key) = lexer.token()? else {
                    return Err(format!("expected a key at byte {at}"));
                };
                lexer.expect(b':', "':'")?;
                let next = lexer.token()?;
                fields.push((key.into_owned(), tree(lexer, next, depth + 1)?));
                if lexer.eat(b'}') {
                    return Ok(Json::Obj(fields));
                }
                lexer.expect(b',', "',' or '}'")?;
            }
        }
        Token::ArrayEnd | Token::ObjectEnd | Token::Colon | Token::Comma => {
            Err(format!("expected a value at byte {}", lexer.offset() - 1))
        }
    }
}

/// One JSON token. A string borrows its text from the input unless it
/// holds an escape.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// `{`
    ObjectStart,
    /// `}`
    ObjectEnd,
    /// `[`
    ArrayStart,
    /// `]`
    ArrayEnd,
    /// `:`
    Colon,
    /// `,`
    Comma,
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number's literal text, checked against RFC 8259's grammar.
    Num(&'a str),
    /// A string's unescaped content.
    Str(Cow<'a, str>),
}

/// A borrowing pull lexer over RFC 8259 JSON: [`parse`] builds its tree
/// from it, and the certificate reader pulls tokens from it in the fixed
/// order its writer lays them out, without building a tree.
#[derive(Debug, Clone)]
pub struct Lexer<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        Lexer { text, pos: 0 }
    }

    /// The byte offset of the next unread byte.
    #[must_use]
    pub fn offset(&self) -> usize {
        self.pos
    }

    fn skip_ws(&mut self) {
        let bytes = self.text.as_bytes();
        while matches!(bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The next byte after any whitespace, without consuming it.
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes the punctuation byte `byte` if it comes next.
    pub fn eat(&mut self, byte: u8) -> bool {
        let next = self.peek() == Some(byte);
        if next {
            self.pos += 1;
        }
        next
    }

    /// Consumes the punctuation byte `byte`, or fails naming `what` was
    /// expected.
    ///
    /// # Errors
    ///
    /// When the next byte is not `byte`.
    pub fn expect(&mut self, byte: u8, what: &str) -> Result<(), String> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(format!("expected {what} at byte {}", self.pos))
        }
    }

    /// The next token.
    ///
    /// # Errors
    ///
    /// At the end of input, or on a malformed token.
    pub fn token(&mut self) -> Result<Token<'a>, String> {
        let Some(byte) = self.peek() else {
            return Err("unexpected end of input".to_string());
        };
        let punct = match byte {
            b'{' => Some(Token::ObjectStart),
            b'}' => Some(Token::ObjectEnd),
            b'[' => Some(Token::ArrayStart),
            b']' => Some(Token::ArrayEnd),
            b':' => Some(Token::Colon),
            b',' => Some(Token::Comma),
            _ => None,
        };
        if let Some(token) = punct {
            self.pos += 1;
            return Ok(token);
        }
        match byte {
            b'"' => self.string().map(Token::Str),
            b't' => self.literal("true", Token::Bool(true)),
            b'f' => self.literal("false", Token::Bool(false)),
            b'n' => self.literal("null", Token::Null),
            _ => self.number().map(Token::Num),
        }
    }

    /// Succeeds only when nothing but whitespace remains.
    ///
    /// # Errors
    ///
    /// Names the offset of the trailing data.
    pub fn finish(&mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(format!("trailing data at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, lit: &str, token: Token<'a>) -> Result<Token<'a>, String> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(token)
        } else {
            Err(format!("malformed literal at byte {}", self.pos))
        }
    }

    /// A number: an optional `-`, an integer part without a leading zero,
    /// an optional fraction with at least one digit, and an optional
    /// exponent with at least one digit.
    fn number(&mut self) -> Result<&'a str, String> {
        let start = self.pos;
        let bytes = self.text.as_bytes();
        let run = bytes[start..]
            .iter()
            .take_while(|b| matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
            .count();
        if run == 0 {
            return Err(format!("expected a number at byte {start}"));
        }
        self.pos += run;
        let text = &self.text[start..self.pos];
        let digits = |s: &[u8]| s.iter().take_while(|b| b.is_ascii_digit()).count();
        let mut rest = text.as_bytes();
        rest = rest.strip_prefix(b"-").unwrap_or(rest);
        let int = digits(rest);
        let mut valid = int == 1 || (int > 1 && rest[0] != b'0');
        rest = &rest[int..];
        if let Some(fraction) = rest.strip_prefix(b".") {
            let n = digits(fraction);
            valid &= n > 0;
            rest = &fraction[n..];
        }
        if let Some(exponent) = rest.strip_prefix(b"e").or_else(|| rest.strip_prefix(b"E")) {
            let exponent = exponent
                .strip_prefix(b"+")
                .or_else(|| exponent.strip_prefix(b"-"))
                .unwrap_or(exponent);
            let n = digits(exponent);
            valid &= n > 0;
            rest = &exponent[n..];
        }
        if valid && rest.is_empty() {
            Ok(text)
        } else {
            Err(format!("malformed number {text:?} at byte {start}"))
        }
    }

    /// A string, borrowed when it holds no escape. Control characters
    /// must be escaped.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        let bytes = self.text.as_bytes();
        self.pos += 1; // the opening quote
        let mut run = self.pos;
        let mut owned: Option<String> = None;
        loop {
            match bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    let tail = &self.text[run..self.pos];
                    self.pos += 1;
                    return Ok(match owned {
                        Some(mut s) => {
                            s.push_str(tail);
                            Cow::Owned(s)
                        }
                        None => Cow::Borrowed(tail),
                    });
                }
                Some(b'\\') => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    let c = self.escape()?;
                    s.push(c);
                    run = self.pos;
                }
                Some(&b) if b < 0x20 => {
                    return Err(format!("unescaped control character at byte {}", self.pos))
                }
                // Any other byte, including those of a multi-byte UTF-8
                // scalar: the input is a `&str`, so it is already valid.
                Some(_) => self.pos += 1,
            }
        }
    }

    /// The character an escape stands for; `pos` is just past the `\`.
    fn escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        let c = match self.text.as_bytes().get(at) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let high = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&high)
                    && self.text.as_bytes()[self.pos..].starts_with(b"\\u")
                {
                    // A UTF-16 surrogate pair.
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(format!("unpaired surrogate at byte {at}"));
                    }
                    0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
                } else {
                    high
                };
                return char::from_u32(code)
                    .ok_or_else(|| format!("invalid codepoint \\u{code:04x} at byte {at}"));
            }
            _ => return Err(format!("unknown escape at byte {at}")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| "truncated \\u escape".to_string())?;
        if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!("malformed \\u escape {hex:?}"));
        }
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|_| format!("malformed \\u escape {hex:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_then_parse_round_trips_bytes() {
        let doc = Json::Obj(vec![
            ("version".into(), Json::Str("2.1.0".into())),
            ("load".into(), Json::num(0.8)),
            ("count".into(), Json::uint(42)),
            ("flag".into(), Json::Bool(true)),
            ("missing".into(), Json::Null),
            (
                "points".into(),
                Json::Arr(vec![Json::num(0.1), Json::num(1.0 / 3.0), Json::uint(7)]),
            ),
            ("empty_arr".into(), Json::Arr(vec![])),
            ("empty_obj".into(), Json::Obj(vec![])),
        ]);
        let text = doc.render();
        let parsed = parse(&text).expect("render output must parse");
        assert_eq!(parsed.render(), text, "byte-exact round-trip");
    }

    #[test]
    fn compact_render_is_one_line_and_round_trips() {
        let doc = Json::Obj(vec![
            ("cell".into(), Json::uint(7)),
            ("grade".into(), Json::Str("collapsed".into())),
            ("load".into(), Json::num(0.95)),
            (
                "families".into(),
                Json::Arr(vec![Json::Str("uam".into()), Json::Null]),
            ),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        let line = doc.render_compact();
        assert!(!line.contains('\n'), "compact output must be one line");
        assert_eq!(
            line,
            r#"{"cell":7,"grade":"collapsed","load":0.95,"families":["uam",null],"empty":{}}"#
        );
        let parsed = parse(&line).expect("compact output must parse");
        assert_eq!(parsed.render_compact(), line, "byte-exact round-trip");
        assert_eq!(parsed, doc);
    }

    #[test]
    fn numbers_keep_their_literal_text() {
        let parsed = parse("[1e3, 0.5, -2, 10]").unwrap();
        let Json::Arr(items) = parsed else {
            panic!("expected an array")
        };
        let texts: Vec<&str> = items
            .iter()
            .map(|v| match v {
                Json::Num(n) => n.as_str(),
                other => panic!("expected numbers, got {other:?}"),
            })
            .collect();
        assert_eq!(texts, vec!["1e3", "0.5", "-2", "10"]);
    }

    #[test]
    fn accessors_navigate_objects_and_arrays() {
        let parsed = parse("{\"runs\": [{\"tool\": \"x\"}]}").unwrap();
        let runs = parsed.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(
            runs[0].get("tool").and_then(Json::as_str),
            Some("x"),
            "nested lookup"
        );
        assert!(parsed.get("absent").is_none());
    }

    #[test]
    fn escapes_survive_round_trip() {
        let doc = Json::Str("tab\there\nnewline \\ quote\" ctrl\u{1}".into());
        let text = doc.render();
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "\"unterminated",
            "nul",
            "12 34",
            "{\"a\": 1} trailing",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    /// Asserts that `doc` is rejected with a message containing `reason`.
    fn rejects(doc: &str, reason: &str) {
        match parse(doc) {
            Ok(v) => panic!("{doc:?} parsed as {v:?}"),
            Err(e) => assert!(e.contains(reason), "{doc:?}: {e:?} does not say {reason:?}"),
        }
    }

    #[test]
    fn a_leading_plus_is_not_a_number() {
        rejects("[+5]", "malformed number \"+5\"");
    }

    #[test]
    fn a_fraction_needs_an_integer_part() {
        rejects("[.5]", "malformed number \".5\"");
    }

    #[test]
    fn a_fraction_needs_digits_after_the_point() {
        rejects("[1.]", "malformed number \"1.\"");
    }

    #[test]
    fn an_integer_part_has_no_leading_zero() {
        rejects("[01]", "malformed number \"01\"");
    }

    #[test]
    fn a_negative_fraction_needs_an_integer_part() {
        rejects("[-.5]", "malformed number \"-.5\"");
    }

    #[test]
    fn an_exponent_needs_digits() {
        rejects("[1e]", "malformed number \"1e\"");
        rejects("[1e+]", "malformed number \"1e+\"");
    }

    #[test]
    fn strings_reject_raw_control_characters() {
        rejects("[\"tab\there\"]", "unescaped control character at byte 5");
        rejects("[\"a\u{1}\"]", "unescaped control character");
    }

    #[test]
    fn numbers_the_writers_emit_are_json() {
        for v in [0.0, -0.0, 1.0, 0.1, 1e-7, 1.5e300, -2.5e-12, 6.6e-9, 1e16] {
            let text = Json::num(v).render_compact();
            assert_eq!(parse(&text), Ok(Json::Num(text.clone())), "{v:?}");
        }
        for v in [0, 7, u64::MAX] {
            let text = Json::uint(v).render_compact();
            assert_eq!(text, v.to_string());
            assert_eq!(parse(&text), Ok(Json::Num(text.clone())));
        }
    }

    #[test]
    fn escapes_cover_rfc_8259() {
        let parsed = parse(r#""\b\f\/\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(parsed, Json::Str("\u{8}\u{c}/\u{e9}\u{1f600}".into()));
        rejects(r#""\ud83d""#, "invalid codepoint");
        rejects(r#""\ud83d\u0041""#, "unpaired surrogate");
        rejects(r#""\x""#, "unknown escape");
    }

    #[test]
    fn unescaped_strings_borrow_from_the_input() {
        let mut lexer = Lexer::new(r#"["plain", "esc\"aped"]"#);
        assert_eq!(lexer.token(), Ok(Token::ArrayStart));
        assert!(matches!(
            lexer.token(),
            Ok(Token::Str(Cow::Borrowed("plain")))
        ));
        assert_eq!(lexer.token(), Ok(Token::Comma));
        assert!(matches!(lexer.token(), Ok(Token::Str(Cow::Owned(s))) if s == "esc\"aped"));
        assert_eq!(lexer.token(), Ok(Token::ArrayEnd));
        assert_eq!(lexer.finish(), Ok(()));
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let arrays = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        let objects =
            |levels: usize| format!("{}null{}", "{\"k\":".repeat(levels), "}".repeat(levels));
        for doc in [arrays(MAX_DEPTH), objects(MAX_DEPTH)] {
            assert!(parse(&doc).is_ok(), "{MAX_DEPTH} levels must parse");
        }
        for doc in [arrays(MAX_DEPTH + 1), objects(MAX_DEPTH + 1)] {
            let err = parse(&doc).unwrap_err();
            assert!(err.contains("nesting deeper than"), "{err}");
        }
        // Far past the cap and unterminated: a typed error, not a stack
        // overflow.
        let err = parse(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        assert_eq!(Json::num(f64::NAN), Json::Null);
        assert_eq!(Json::num(f64::INFINITY), Json::Null);
        assert_eq!(Json::num(1.5), Json::Num("1.5".into()));
    }
}
