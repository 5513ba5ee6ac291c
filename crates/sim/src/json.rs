//! A minimal first-party JSON tree shared by every serializer in the
//! workspace (decision certificates here, SARIF in `eua-analyze`,
//! result files in `eua-bench`): deterministic rendering plus a strict
//! parser, so emitted documents can be asserted to **round-trip**
//! byte-for-byte (`render(parse(s)) == s`) without external crates —
//! the build environment is offline, so no `serde`.
//!
//! Numbers are kept as their literal token text ([`Json::Num`] wraps a
//! `String`), which is what makes the round-trip exact: a parsed
//! document re-renders to the same bytes because nothing is ever
//! re-formatted through `f64`.

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
            Json::Num(format!("{v:?}"))
        } else {
            Json::Null
        }
    }

    /// A number from an unsigned integer.
    #[must_use]
    pub fn uint(v: u64) -> Json {
        Json::Num(v.to_string())
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
            Json::Str(s) => write_escaped(out, s),
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
                    write_escaped(out, key);
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
            Json::Str(s) => write_escaped(out, s),
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
                    write_escaped(out, key);
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

fn write_escaped(out: &mut String, s: &str) {
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

/// The deepest array/object nesting [`parse`] accepts. The parser
/// recurses once per level, so an unbounded depth would let a hostile
/// document overflow the stack; the deepest document the workspace
/// writes (a SARIF log) nests 9 levels.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document (the subset this module renders: no exotic
/// escapes beyond `\" \\ \/ \n \r \t \uXXXX`).
///
/// # Errors
///
/// A human-readable message naming the byte offset of the first
/// malformed token, trailing garbage after the document, or nesting
/// deeper than 128 levels.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses the value at `pos`, which sits inside `depth` enclosing
/// arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("malformed literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits_start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    if *pos == digits_start {
        return Err(format!("expected a number at byte {start}"));
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| format!("invalid utf-8 in number at byte {start}"))?;
    // Validate through Rust's float parser without re-formatting.
    text.parse::<f64>()
        .map_err(|_| format!("malformed number {text:?} at byte {start}"))?;
    Ok(Json::Num(text.to_string()))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| "invalid utf-8 in \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("malformed \\u escape {hex:?}"))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("invalid codepoint \\u{hex}"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(format!("unknown escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x80 => {
                out.push(b as char);
                *pos += 1;
            }
            Some(_) => {
                // Consume one multi-byte UTF-8 scalar. Validate only a
                // bounded 4-byte window — validating the whole remaining
                // input per character would make parsing quadratic.
                let end = (*pos + 4).min(bytes.len());
                let c = match std::str::from_utf8(&bytes[*pos..end]) {
                    Ok(s) => s.chars().next(),
                    Err(e) => std::str::from_utf8(&bytes[*pos..*pos + e.valid_up_to()])
                        .ok()
                        .and_then(|s| s.chars().next()),
                }
                .ok_or_else(|| format!("invalid utf-8 at byte {pos}", pos = *pos))?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected a key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
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
