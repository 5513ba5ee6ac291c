//! The workspace's one JSON grammar and formatting, without external
//! crates (the build environment is offline, so no `serde`):
//!
//! * [`write_str`], [`write_uint`] and [`write_num`] format every string
//!   and number any first-party writer emits, and [`FloatMemo`] formats
//!   each distinct `f64` of a document once, as [`write_num`] does;
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

/// Appends `s` as a JSON string literal. Runs that need no escape go in
/// as slices; every escaped byte is ASCII, so each run ends on a char
/// boundary.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{byte:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
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

/// Writes `f64`s exactly as [`write_num`] does, formatting each distinct
/// value once: an open-addressing table from a value's bits to its text,
/// meant to live for one document. A certificate repeats most of its
/// floats (a job's UER from one event to the next), and formatting is
/// most of what writing one costs.
#[derive(Debug)]
pub struct FloatMemo {
    /// `(bits, start, end)`: the text of the value with these bits is
    /// `texts[start..end]`. A slot with `end == 0` is empty, since no
    /// text is.
    slots: Vec<(u64, usize, usize)>,
    texts: String,
    /// How many slots are filled; the table doubles past half full.
    len: usize,
}

impl Default for FloatMemo {
    fn default() -> Self {
        FloatMemo {
            slots: vec![(0, 0, 0); 64],
            texts: String::new(),
            len: 0,
        }
    }
}

impl FloatMemo {
    /// The slot a value's bits probe first, in a table of `slots` slots
    /// (a power of two).
    fn home(bits: u64, slots: usize) -> usize {
        // Fibonacci hashing: the product's top bits depend on every bit.
        (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - slots.trailing_zeros())) as usize
    }

    /// Appends `v` as [`write_num`] would.
    pub fn write(&mut self, out: &mut String, v: f64) {
        let bits = v.to_bits();
        let mask = self.slots.len() - 1;
        let mut slot = Self::home(bits, self.slots.len());
        loop {
            let (key, start, end) = self.slots[slot];
            if end == 0 {
                break;
            }
            if key == bits {
                out.push_str(&self.texts[start..end]);
                return;
            }
            slot = (slot + 1) & mask;
        }
        let start = self.texts.len();
        write_num(&mut self.texts, v);
        out.push_str(&self.texts[start..]);
        self.slots[slot] = (bits, start, self.texts.len());
        self.len += 1;
        if 2 * self.len > self.slots.len() {
            self.grow();
        }
    }

    /// Doubles the table, keeping every entry.
    fn grow(&mut self) {
        let slots = 2 * self.slots.len();
        let old = std::mem::replace(&mut self.slots, vec![(0, 0, 0); slots]);
        for entry in old.into_iter().filter(|&(_, _, end)| end > 0) {
            let mut slot = Self::home(entry.0, slots);
            while self.slots[slot].2 > 0 {
                slot = (slot + 1) & (slots - 1);
            }
            self.slots[slot] = entry;
        }
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

    /// A number token. Its grammar is checked in one pass by
    /// [`scan_number`]; a literal that fails it is named whole, as the
    /// longest run of bytes a number can hold (`[0-9.eE+-]`).
    fn number(&mut self) -> Result<&'a str, String> {
        let start = self.pos;
        if let Some((end, _)) = scan_number(self.text.as_bytes(), start) {
            self.pos = end;
            return Ok(&self.text[start..end]);
        }
        let run = self.text.as_bytes()[start..]
            .iter()
            .take_while(|&&b| number_byte(b))
            .count();
        if run == 0 {
            return Err(format!("expected a number at byte {start}"));
        }
        self.pos += run;
        let text = &self.text[start..self.pos];
        Err(format!("malformed number {text:?} at byte {start}"))
    }

    /// Consumes a plain unsigned integer that starts at the next byte,
    /// with no whitespace before it, and returns its value. `None`, with
    /// nothing consumed, when the next token is anything else: a negative
    /// number, one with a fraction or an exponent, one past `u64::MAX`, a
    /// malformed one or no number at all.
    pub fn uint(&mut self) -> Option<u64> {
        let (end, value) = scan_number(self.text.as_bytes(), self.pos)?;
        let value = value?;
        self.pos = end;
        Some(value)
    }

    /// Consumes an RFC 8259 number that starts at the next byte, with no
    /// whitespace before it, and returns its text; `None`, with nothing
    /// consumed, when no number starts there or the one that does is
    /// malformed.
    pub fn num(&mut self) -> Option<&'a str> {
        let start = self.pos;
        let (end, _) = scan_number(self.text.as_bytes(), start)?;
        self.pos = end;
        Some(&self.text[start..end])
    }

    /// Consumes the string literal `"s"` when the input continues with
    /// exactly that spelling: the bytes of `s` between two quotes, with
    /// no whitespace before them. A string spelled any other way, with
    /// an escape for instance, is left for [`Lexer::token`].
    pub fn eat_plain_str(&mut self, s: &str) -> bool {
        let rest = &self.text.as_bytes()[self.pos..];
        let n = s.len();
        let spelled = rest.first() == Some(&b'"')
            && rest.get(1..=n) == Some(s.as_bytes())
            && rest.get(n + 1) == Some(&b'"');
        if spelled {
            self.pos += n + 2;
        }
        spelled
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

/// Whether `byte` can occur in a number literal.
fn number_byte(byte: u8) -> bool {
    matches!(byte, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
}

/// Scans the RFC 8259 number that starts at `start`, in one pass: an
/// optional `-`, an integer part without a leading zero, an optional
/// fraction and an optional exponent, each with at least one digit.
/// Returns the offset just past it and, for a plain unsigned integer
/// that fits in a `u64`, its value. `None` when no number starts there,
/// or when the one that does runs on into a byte a number can hold, as
/// in `01`, `1.` or `1e5e`: the lexer reads such a run as one malformed
/// literal.
fn scan_number(bytes: &[u8], start: usize) -> Option<(usize, Option<u64>)> {
    let rest = bytes.get(start..)?;
    let negative = rest.first() == Some(&b'-');
    let int = usize::from(negative);
    let mut i = int;
    let (mut value, mut overflow) = (0u64, false);
    while let Some(&byte) = rest.get(i) {
        let digit = byte.wrapping_sub(b'0');
        if digit > 9 {
            break;
        }
        let (tens, o1) = value.overflowing_mul(10);
        let (sum, o2) = tens.overflowing_add(u64::from(digit));
        value = sum;
        overflow |= o1 | o2;
        i += 1;
    }
    if i == int || (i > int + 1 && rest[int] == b'0') {
        return None;
    }
    let digits_from = |i: usize| {
        let n = rest
            .get(i..)
            .map_or(0, |r| r.iter().take_while(|b| b.is_ascii_digit()).count());
        (n > 0).then_some(i + n)
    };
    let mut plain = !negative && !overflow;
    if rest.get(i) == Some(&b'.') {
        plain = false;
        i = digits_from(i + 1)?;
    }
    if matches!(rest.get(i), Some(b'e' | b'E')) {
        plain = false;
        i += 1;
        if matches!(rest.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        i = digits_from(i)?;
    }
    if rest.get(i).is_some_and(|&b| number_byte(b)) {
        return None;
    }
    Some((start + i, plain.then_some(value)))
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

    /// Whether `literal` is an RFC 8259 number: the grammar checked over
    /// the whole literal in separate passes, as the lexer did before it
    /// scanned numbers in one.
    fn rfc8259_number(literal: &str) -> bool {
        let digits = |s: &[u8]| s.iter().take_while(|b| b.is_ascii_digit()).count();
        let mut rest = literal.as_bytes();
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
        valid && rest.is_empty()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        /// Every literal of number bytes, followed by a delimiter, is a
        /// number token exactly when it is an RFC 8259 number, and is
        /// otherwise named whole as malformed; `uint` reads exactly the
        /// plain unsigned integers, with `str::parse`'s value, and `num`
        /// exactly the numbers.
        #[test]
        fn the_one_pass_scan_accepts_exactly_rfc_8259_numbers(
            symbols in proptest::collection::vec(0usize..15, 1..=8),
            delimiter in 0usize..5,
        ) {
            let literal: String = symbols.iter().map(|&i| char::from(b"0123456789.eE+-"[i])).collect();
            let doc = format!("{literal}{}", [",", "]", "}", " ", ""][delimiter]);
            let number = rfc8259_number(&literal);
            let token = Lexer::new(&doc).token();
            if number {
                proptest::prop_assert_eq!(token, Ok(Token::Num(&literal)));
            } else {
                proptest::prop_assert_eq!(token, Err(format!("malformed number {literal:?} at byte 0")));
            }
            let mut lexer = Lexer::new(&doc);
            let value = lexer.uint();
            let plain = literal.parse::<u64>().ok().filter(|_| number);
            proptest::prop_assert_eq!(value, plain, "{literal:?}");
            proptest::prop_assert_eq!(lexer.offset(), if value.is_some() { literal.len() } else { 0 });
            let mut lexer = Lexer::new(&doc);
            proptest::prop_assert_eq!(lexer.num(), number.then_some(literal.as_str()));
        }
    }

    #[test]
    fn uint_reads_up_to_u64_max() {
        assert_eq!(Lexer::new("18446744073709551615]").uint(), Some(u64::MAX));
        let past = "18446744073709551616]";
        assert_eq!(Lexer::new(past).uint(), None);
        assert_eq!(
            Lexer::new(past).token(),
            Ok(Token::Num("18446744073709551616"))
        );
        assert_eq!(
            Lexer::new(" 7").uint(),
            None,
            "whitespace is the token path's"
        );
        assert_eq!(Lexer::new("-0").uint(), None);
    }

    #[test]
    fn the_float_memo_writes_what_write_num_writes() {
        // Two values whose bits probe the same first slot of a new memo.
        let slots = FloatMemo::default().slots.len();
        let mut first_at = vec![None; slots];
        let (a, b) = (1..)
            .map(|k| f64::from(k) * 0.1)
            .find_map(|v| {
                let home = FloatMemo::home(v.to_bits(), slots);
                first_at[home].replace(v).map(|u| (u, v))
            })
            .expect("a slot is shared before every slot is full");
        let mut values = vec![a, b, a, b, -0.0, 0.0, -0.0, 1e16, 5e-324, 1e-7, f64::NAN];
        // Enough distinct values to grow the table twice, then each again.
        let many: Vec<f64> = (0..300).map(|k| f64::from(k) / 7.0).collect();
        values.extend(&many);
        values.extend(&many);
        let mut memo = FloatMemo::default();
        let (mut got, mut want) = (String::new(), String::new());
        for v in values {
            memo.write(&mut got, v);
            got.push(',');
            if v.is_finite() {
                want.push_str(&format!("{v:?}"));
            } else {
                want.push_str("null");
            }
            want.push(',');
        }
        assert_eq!(got, want);
        assert!(want.starts_with(&format!(
            "{a:?},{b:?},{a:?},{b:?},-0.0,0.0,-0.0,1e16,5e-324,"
        )));
    }

    #[test]
    fn strings_escape_only_what_json_requires() {
        let mut out = String::new();
        write_str(&mut out, "plain é \u{1} \" \\ \n\r\t end");
        assert_eq!(out, r#""plain é \u0001 \" \\ \n\r\t end""#);
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        assert_eq!(Json::num(f64::NAN), Json::Null);
        assert_eq!(Json::num(f64::INFINITY), Json::Null);
        assert_eq!(Json::num(1.5), Json::Num("1.5".into()));
    }
}
