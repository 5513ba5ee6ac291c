//! A lightweight item parser over the lexed token stream: functions,
//! their parameters and body ranges — just enough structure for the
//! per-function rules, without rustc or syn, in the same
//! first-party spirit as the lexer itself.
//!
//! The parser is *recognition*, not validation: anything it cannot
//! shape-match is skipped, never an error. It tracks balanced brackets
//! (the lexer guarantees strings and comments cannot desynchronize
//! them), skips generic-argument lists with an arrow guard so `->`
//! inside `Fn(&T) -> U` bounds never closes an angle group early, and
//! records code-token index ranges so the rule layer can scan bodies
//! directly.

use crate::lexer::{Tok, TokKind};

/// One parsed parameter. A `self` receiver is not a parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// The binding name: the first identifier of the pattern (`_` and
    /// tuple patterns degrade to their first identifier), when any.
    pub name: Option<String>,
    /// The identifier tokens of the declared type, in order (`&mut
    /// BTreeMap<u32, SimTime>` yields `["mut", "BTreeMap", "u32",
    /// "SimTime"]`).
    pub ty: Vec<String>,
}

/// One function item with its code-token ranges.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name (raw identifiers keep their `r#` prefix).
    pub name: String,
    /// Parameters in declaration order, the receiver excluded.
    pub params: Vec<Param>,
    /// Half-open code-token index range of the body, braces excluded.
    pub body: (usize, usize),
    /// Whether the function sits inside a `#[cfg(test)] mod` body. Test
    /// code is held to neither the loop-allocation nor the
    /// time-arithmetic discipline.
    pub in_test_mod: bool,
}

/// Whether the token at `j` is the tail of a two-byte arrow (`->` or
/// `=>`) — adjacency checked by byte position, since the lexer emits
/// the two puncts separately.
fn is_arrow_tail(code: &[&Tok<'_>], j: usize) -> bool {
    j > 0 && {
        let (p, t) = (code[j - 1], code[j]);
        matches!(p.text, "-" | "=") && p.end_line == t.line && p.end_col == t.col
    }
}

/// Skips a balanced `<...>` group whose `<` sits at `i`, returning the
/// index one past the closing `>`. Arrows never close a group. Bails
/// after a bounded lookahead (the `<` was a comparison, not generics).
fn skip_angles(code: &[&Tok<'_>], i: usize) -> usize {
    let mut depth = 0i32;
    for j in i..code.len().min(i + 256) {
        match code[j].text {
            "<" => depth += 1,
            ">" if !is_arrow_tail(code, j) => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            ";" | "{" => break,
            _ => {}
        }
    }
    i + 1
}

/// Index of the bracket that closes the opener at `open` (any of the
/// three bracket kinds, tracked together), or `code.len()`.
pub(crate) fn match_bracket(code: &[&Tok<'_>], open: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in code.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Open => depth += 1,
            TokKind::Close => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    code.len()
}

/// Half-open code-token ranges of `#[cfg(test)] mod` bodies. The shape
/// is matched exactly (`# [ cfg ( test ) ]` with a `mod` and its brace
/// within a short window); `#[cfg(feature = …)]` modules are production
/// code and stay in.
fn test_mod_ranges(code: &[&Tok<'_>]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 2..code.len() {
        let attr = code[i].is_ident("cfg")
            && code[i - 2].text == "#"
            && code[i - 1].text == "["
            && code.get(i + 1).map(|t| t.text) == Some("(")
            && code.get(i + 2).is_some_and(|t| t.is_ident("test"))
            && code.get(i + 3).map(|t| t.text) == Some(")")
            && code.get(i + 4).map(|t| t.text) == Some("]");
        if !attr {
            continue;
        }
        // The `mod` within a short window (further attributes and a
        // visibility may intervene; any other item form ends the hunt).
        for k in i + 5..code.len().min(i + 16) {
            if code[k].is_ident("mod") {
                if let Some(open) = (k + 1..code.len().min(k + 4)).find(|&m| code[m].text == "{") {
                    out.push((open + 1, match_bracket(code, open)));
                }
                break;
            }
            if matches!(code[k].text, "{" | "}" | ";" | "(") {
                break;
            }
        }
    }
    out
}

/// Parses the parameter list whose `(` is `code[0]`. Returns the
/// parameters (a `self` receiver skipped) and the index one past the
/// closing `)`.
fn parse_params(code: &[&Tok<'_>]) -> (Vec<Param>, usize) {
    let close = match_bracket(code, 0);
    let mut pieces: Vec<(usize, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut start = 1usize;
    for (j, t) in code.iter().enumerate().take(close + 1) {
        match t.kind {
            TokKind::Open => depth += 1,
            TokKind::Close => depth = depth.saturating_sub(1),
            TokKind::Punct if t.text == "," && depth == 1 => {
                pieces.push((start, j));
                start = j + 1;
            }
            _ => {}
        }
    }
    if start < close {
        pieces.push((start, close));
    }
    let mut params = Vec::new();
    for (s, e) in pieces {
        let piece = &code[s..e];
        let mut idents = piece
            .iter()
            .filter(|t| t.kind == TokKind::Ident && !t.is_ident("mut"));
        if idents.next().is_some_and(|t| t.is_ident("self")) {
            continue;
        }
        // The name is everything before the first top-level `:`; the
        // type is every identifier after it. Commas inside generics sit
        // at bracket depth 0 here only for bare turbofish, which no
        // parameter list contains.
        let colon = piece
            .iter()
            .position(|t| t.kind == TokKind::Punct && t.text == ":");
        let (pat, ty_toks) = match colon {
            Some(c) => (&piece[..c], &piece[c + 1..]),
            None => (piece, &piece[piece.len()..]),
        };
        let name = pat
            .iter()
            .find(|t| t.kind == TokKind::Ident && !t.is_ident("mut"))
            .map(|t| t.text.to_string());
        let ty = ty_toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.to_string())
            .collect();
        params.push(Param { name, ty });
    }
    (params, close + 1)
}

/// Parses one file's code tokens into its functions, in source order
/// (nested functions included). Never fails: unparseable shapes are
/// skipped.
#[must_use]
pub fn parse_file(code: &[&Tok<'_>]) -> Vec<FnItem> {
    let test_mods = test_mod_ranges(code);
    let mut fns = Vec::new();
    for i in 0..code.len() {
        if !code[i].is_ident("fn") {
            continue;
        }
        let Some(name_t) = code.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            continue; // `fn(u64) -> u64` type position
        };
        let mut j = i + 2;
        if code.get(j).is_some_and(|t| t.text == "<") {
            j = skip_angles(code, j);
        }
        if code.get(j).map(|t| t.text) != Some("(") {
            continue;
        }
        let (params, after) = parse_params(&code[j..]);
        j += after;
        // Past the return type and any where clause to the body; `;`
        // first is a bodyless declaration (trait methods), which carries
        // no analyzable code.
        let mut open = None;
        while let Some(t) = code.get(j) {
            match t.text {
                "{" => {
                    open = Some(j);
                    break;
                }
                ";" => break,
                _ => j += 1,
            }
        }
        let Some(open) = open else { continue };
        fns.push(FnItem {
            name: name_t.text.to_string(),
            params,
            body: (open + 1, match_bracket(code, open)),
            in_test_mod: test_mods.iter().any(|&(s, e)| s <= i && i < e),
        });
    }
    fns
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<FnItem> {
        let toks = lex(src);
        let code: Vec<&Tok<'_>> = toks
            .iter()
            .filter(|t| !matches!(t.kind, TokKind::Comment { .. }))
            .collect();
        parse_file(&code)
    }

    #[test]
    fn free_fn_with_params_and_return() {
        let p = parse("pub fn plan(now_us: u64, budget: SimTime) -> Frequency { body() }");
        assert_eq!(p.len(), 1);
        let f = &p[0];
        assert_eq!(f.name, "plan");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].name.as_deref(), Some("now_us"));
        assert_eq!(f.params[0].ty, ["u64"]);
        assert_eq!(f.params[1].ty, ["SimTime"]);
    }

    #[test]
    fn impl_methods_parse_without_their_receiver() {
        let p = parse(
            "impl ScheduleBuilder {\n\
             \x20   fn rebuild(&mut self, now: SimTime) -> bool { true }\n\
             \x20   fn new() -> Self { Self }\n\
             }\n\
             impl fmt::Display for Verdict {\n\
             \x20   fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { ok() }\n\
             }",
        );
        let names: Vec<&str> = p.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["rebuild", "new", "fmt"]);
        assert_eq!(p[0].params.len(), 1);
        assert_eq!(p[0].params[0].name.as_deref(), Some("now"));
        assert!(p[1].params.is_empty());
        assert_eq!(p[2].params[0].ty, ["mut", "fmt", "Formatter"]);
    }

    #[test]
    fn generic_fns_and_fn_type_params_parse() {
        let p = parse("fn apply<F: Fn(u64) -> u64>(xs: &[u64], f: F) -> Vec<u64> { go() }");
        assert_eq!(p.len(), 1);
        let f = &p[0];
        assert_eq!(f.name, "apply");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[1].name.as_deref(), Some("f"));
    }

    #[test]
    fn return_position_impl_trait_reaches_the_body() {
        let p = parse("fn iter_all() -> impl Iterator<Item = u32> { fn inner() {} make() }");
        let names: Vec<&str> = p.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["iter_all", "inner"]);
    }

    #[test]
    fn bodyless_trait_methods_are_skipped() {
        let p = parse("trait Policy { fn decide(&mut self, now: SimTime) -> Option<u32>; }");
        assert!(p.is_empty());
    }

    #[test]
    fn where_clauses_are_skipped_to_the_body() {
        let p = parse("fn sum<T>(xs: &[T]) -> u64 where T: Into<u64> { total() }");
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].body.1 - p[0].body.0, 3, "the body is `total ( )`");
    }

    #[test]
    fn nested_fns_are_found() {
        let p = parse("fn outer() { fn inner(k_us: u64) -> u64 { k_us } inner(1) }");
        let names: Vec<&str> = p.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner"]);
    }

    #[test]
    fn raw_identifier_fn_names_keep_prefix() {
        let p = parse("fn r#type() { }");
        assert_eq!(p[0].name, "r#type");
    }

    #[test]
    fn cfg_test_modules_mark_their_fns() {
        let p = parse(
            "fn real() { go() }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             \x20   use super::*;\n\
             \x20   fn helper() { real() }\n\
             }\n\
             #[cfg(feature = \"invariant-checks\")]\n\
             mod enabled {\n\
             \x20   pub fn check() { }\n\
             }",
        );
        let flags: Vec<(&str, bool)> = p.iter().map(|f| (f.name.as_str(), f.in_test_mod)).collect();
        assert_eq!(
            flags,
            [("real", false), ("helper", true), ("check", false)],
            "only the #[cfg(test)] module is excluded"
        );
    }

    #[test]
    fn body_ranges_cover_exactly_the_braces() {
        let src = "fn a() { one(); } fn b() { two(); }";
        let toks = lex(src);
        let code: Vec<&Tok<'_>> = toks.iter().collect();
        let p = parse_file(&code);
        let (s, e) = p[0].body;
        let body_text: Vec<&str> = code[s..e].iter().map(|t| t.text).collect();
        assert_eq!(body_text, ["one", "(", ")", ";"]);
        let (s, e) = p[1].body;
        assert_eq!(code[s].text, "two");
        assert_eq!(e - s, 4);
    }
}
