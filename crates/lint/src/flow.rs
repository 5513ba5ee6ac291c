//! `lint-unchecked-time-arith`: raw `+`/`-`/`*` on microsecond integers.
//!
//! The workspace's timeline is integer microseconds. `SimTime` and
//! `TimeDelta` have no arithmetic operators, so rustc already rejects a
//! raw operator on them; this rule covers what types cannot see. Once a
//! quantity is unwrapped to an integer, only the naming convention
//! (`elapsed_us`, `budget_us`, …) and the bindings it flows through mark
//! it as time. Rust fixes a binding's type where it is declared, so one
//! source-order pass over each function suffices: a binding is a raw
//! microsecond integer once its parameter type, any `let` or any plain
//! reassignment makes it one, and it stays one. A float binding (rate
//! math) is never flagged. At every binary `+`/`-`/`*` with a raw
//! microsecond operand and no float one, a finding fires, naming the
//! saturating method to use when the operand kinds pin one.

use std::collections::BTreeMap;

use eua_analyze::DiagCode;

use crate::lexer::{Tok, TokKind};
use crate::parser::FnItem;
use crate::rules::{span_between, Finding};

/// The per-binding value kind the time-arithmetic pass tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Vk {
    /// An unwrapped integer carrying microseconds.
    RawMicros,
    /// A float: rate math, never flagged (and it suppresses the
    /// `_us`-name fallback for the binding).
    Float,
}

/// The binding kinds seen so far in one function. Absent means
/// "unknown".
type Env = BTreeMap<String, Vk>;

/// Integral type tokens that make a `_us`-named binding a raw
/// microsecond integer.
const INTEGRALS: [&str; 12] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Keywords that can appear adjacent to an operator but are never an
/// operand (`return -x`, `x as f64`, …). Shared with `lint-loop-alloc`'s
/// statement walk.
pub(crate) fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "return"
            | "break"
            | "continue"
            | "else"
            | "if"
            | "match"
            | "in"
            | "as"
            | "mut"
            | "let"
            | "move"
            | "ref"
            | "loop"
            | "while"
            | "for"
            | "fn"
            | "impl"
            | "use"
            | "pub"
            | "where"
            | "dyn"
            | "await"
    )
}

/// Whether a binding name follows the workspace's microsecond idiom
/// (`us`, `_us` suffixes, `micros`). Rates (`cycles_per_us`), indices
/// (`slot_idx`), and lookalikes (`bus`, `status`) stay unclassified: a
/// missed classification costs a finding, never a false one.
fn is_micros_name(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    if lower.contains("per") || lower.contains("idx") || lower.contains("index") {
        return false;
    }
    lower == "us" || lower.ends_with("_us") || lower.contains("micros")
}

/// The kind carried by the identifier `name` at an operand position:
/// the environment wins; an untracked name falls back to the `_us`
/// naming idiom ([`is_micros_name`]).
fn kind_of(name: &str, env: &Env) -> Option<Vk> {
    if let Some(k) = env.get(name) {
        return Some(*k);
    }
    if is_keyword(name) {
        return None;
    }
    is_micros_name(name).then_some(Vk::RawMicros)
}

/// The kind pinned by declared type tokens, if any; falls back to the
/// raw-integer rule for `_us`-named integral bindings.
fn kind_from_ty(tys: &[String], name: &str) -> Option<Vk> {
    let has = |s: &str| tys.iter().any(|t| t == s);
    if has("f64") || has("f32") {
        Some(Vk::Float)
    } else if INTEGRALS.iter().any(|i| has(i)) && is_micros_name(name) {
        Some(Vk::RawMicros)
    } else {
        None
    }
}

/// Records that a declaration or reassignment gives `name` the kind
/// `kind`. A raw microsecond binding stays one; an unknown kind on a
/// `_us`-named binding is the naming idiom's raw microseconds.
fn settle(env: &mut Env, name: &str, kind: Option<Vk>) {
    if env.get(name) == Some(&Vk::RawMicros) {
        return;
    }
    match kind.or_else(|| is_micros_name(name).then_some(Vk::RawMicros)) {
        Some(k) => {
            env.insert(name.to_string(), k);
        }
        None => {
            env.remove(name);
        }
    }
}

/// The environment at a function's entry: its parameters.
fn param_env(f: &FnItem) -> Env {
    let mut env = Env::new();
    for p in &f.params {
        if let Some(name) = &p.name {
            settle(&mut env, name, kind_from_ty(&p.ty, name));
        }
    }
    env
}

/// The kind of an initializer expression spanning code tokens
/// `range`. Deliberately shallow: a float type or an `as_micros`
/// conversion wins, then a single-identifier copy propagates its kind;
/// anything else is unknown (which only costs a finding's fix, never
/// causes a wrong one).
fn expr_kind(code: &[&Tok<'_>], range: std::ops::Range<usize>, env: &Env) -> Option<Vk> {
    let idents: Vec<&str> = range
        .filter_map(|j| {
            let t = code.get(j)?;
            (t.kind == TokKind::Ident).then_some(t.text)
        })
        .collect();
    if idents.iter().any(|s| matches!(*s, "f64" | "f32")) {
        return Some(Vk::Float);
    }
    if idents.contains(&"as_micros") {
        return Some(Vk::RawMicros);
    }
    if let [single] = idents.as_slice() {
        return kind_of(single, env);
    }
    None
}

/// Applies the binding effect of the statement starting at code token
/// `j` (a `let` or a plain reassignment), if any, to `env`. Scans
/// ahead in the flat stream; a `{` before the `;` means the
/// initializer spans control flow, and its kind is unknown.
fn stmt_effect(code: &[&Tok<'_>], j: usize, env: &mut Env) {
    let limit = (j + 96).min(code.len());
    let find_semi = |from: usize| -> Option<usize> {
        for (k, t) in code.iter().enumerate().take(limit).skip(from) {
            if t.kind == TokKind::Punct && t.text == ";" {
                return Some(k);
            }
            if t.kind == TokKind::Open && t.text == "{" {
                return None;
            }
        }
        None
    };
    if code[j].is_ident("let") {
        let mut at = j + 1;
        if code.get(at).is_some_and(|t| t.is_ident("mut")) {
            at += 1;
        }
        let Some(name_tok) = code.get(at).filter(|t| t.kind == TokKind::Ident) else {
            return; // destructuring pattern: nothing single to track
        };
        let name = name_tok.text.to_string();
        // Optional `: Ty` annotation up to the `=`.
        let mut tys = Vec::new();
        let mut eq = None;
        for (k, t) in code.iter().enumerate().take(limit).skip(at + 1) {
            if t.kind == TokKind::Punct && t.text == "=" {
                eq = Some(k);
                break;
            }
            if t.kind == TokKind::Punct && t.text == ";" {
                break; // `let x;` — no initializer
            }
            if t.kind == TokKind::Ident {
                tys.push(t.text.to_string());
            }
        }
        let annotated = (!tys.is_empty())
            .then(|| kind_from_ty(&tys, &name))
            .flatten();
        let inferred = eq.and_then(|e| {
            let semi = find_semi(e + 1)?;
            expr_kind(code, e + 1..semi, env)
        });
        settle(env, &name, annotated.or(inferred));
    } else if code[j].kind == TokKind::Ident
        && j > 0
        && matches!(
            (code[j - 1].kind, code[j - 1].text),
            (TokKind::Punct, ";") | (TokKind::Open, "{") | (TokKind::Close, "}")
        )
        && code
            .get(j + 1)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == "=")
        && !code
            .get(j + 2)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == "=")
    {
        // Plain statement-initial reassignment: `x = expr;`.
        let kind = find_semi(j + 2).and_then(|semi| expr_kind(code, j + 2..semi, env));
        settle(env, code[j].text, kind);
    }
}

/// Whether `b` starts at the byte immediately after `a` ends (the
/// lexer emits `->` as two adjacent single-byte puncts).
fn adjacent(a: &Tok<'_>, b: &Tok<'_>) -> bool {
    a.end_line == b.line && a.end_col == b.col
}

/// Last token of the postfix chain headed by the ident at `i`
/// (`delta.as_micros()` → its closing paren), so a trailing cast is
/// judged against the chain's result rather than its head ident.
fn postfix_end(code: &[&Tok<'_>], i: usize) -> usize {
    let mut e = i;
    loop {
        match code.get(e + 1) {
            Some(d) if d.kind == TokKind::Dot => match code.get(e + 2) {
                Some(m) if m.kind == TokKind::Ident => e += 2,
                _ => break,
            },
            Some(p) if p.kind == TokKind::Open && p.text == "(" => {
                let mut depth = 1usize;
                let mut k = e + 2;
                while k < code.len() && depth > 0 {
                    match code[k].kind {
                        TokKind::Open => depth += 1,
                        TokKind::Close => depth -= 1,
                        _ => {}
                    }
                    k += 1;
                }
                if depth > 0 {
                    break;
                }
                e = k - 1;
            }
            _ => break,
        }
    }
    e
}

/// Checks the code token at `j` for a raw binary `+`/`-`/`*` (or
/// compound `+=`-family) over microsecond operands under `env`, and
/// reports it.
fn check_op(code: &[&Tok<'_>], j: usize, env: &Env, out: &mut Vec<Finding>) {
    let t = code[j];
    if t.kind != TokKind::Punct || !matches!(t.text, "+" | "-" | "*") {
        return;
    }
    let Some(pj) = j.checked_sub(1) else { return };
    let prev = code[pj];
    // `self.0 + rhs.0` inside the newtype impls: the integer field
    // lexes to nothing, so the operator's neighbor is the `.` itself.
    if prev.kind == TokKind::Dot {
        return;
    }
    // `->` return-type arrows lex as `-` then an adjacent `>`.
    if t.text == "-"
        && code
            .get(j + 1)
            .is_some_and(|n| n.text == ">" && adjacent(t, n))
    {
        return;
    }
    // Binary position only: a unary `-`/`*` follows a punct or keyword.
    let lhs_ident = prev.kind == TokKind::Ident && !is_keyword(prev.text);
    if !(lhs_ident || prev.kind == TokKind::Close) {
        return;
    }
    let compound = code
        .get(j + 1)
        .is_some_and(|n| n.kind == TokKind::Punct && n.text == "=" && adjacent(t, n));
    let rj = if compound { j + 2 } else { j + 1 };
    let lhs_kind = if lhs_ident {
        kind_of(prev.text, env)
    } else {
        None
    };
    let mut rhs_name = None;
    let mut rhs_kind = None;
    let mut rhs_literal = false;
    match code.get(rj) {
        Some(n) if n.kind == TokKind::Ident && !is_keyword(n.text) => {
            rhs_name = Some(*n);
            // A trailing float cast — on the ident itself or on its
            // postfix chain (`delta.as_micros() as f64`) — makes the
            // whole expression rate math.
            let e = postfix_end(code, rj);
            let cast_float = code.get(e + 1).is_some_and(|a| a.is_ident("as"))
                && code
                    .get(e + 2)
                    .is_some_and(|c| c.is_ident("f64") || c.is_ident("f32"));
            rhs_kind = if cast_float {
                Some(Vk::Float)
            } else {
                kind_of(n.text, env)
            };
        }
        // A numeric literal lexes to no token, so `a + 10;` puts the
        // terminator right after the operator.
        Some(n)
            if n.kind == TokKind::Close
                || (n.kind == TokKind::Punct && matches!(n.text, ";" | ",")) =>
        {
            rhs_literal = true;
        }
        _ => {}
    }
    if lhs_kind == Some(Vk::Float) || rhs_kind == Some(Vk::Float) {
        return;
    }
    if lhs_kind != Some(Vk::RawMicros) && rhs_kind != Some(Vk::RawMicros) {
        return;
    }
    // Raw microseconds on both sides (or a literal on the right) pin
    // the saturating method of the same operator.
    let pinned = !compound
        && lhs_kind == Some(Vk::RawMicros)
        && (rhs_kind == Some(Vk::RawMicros) || rhs_literal);
    let remedy = match (pinned, t.text) {
        (true, "+") => "use `.saturating_add(…)` instead",
        (true, "-") => "use `.saturating_sub(…)` instead",
        (true, _) => "use `.saturating_mul(…)` instead",
        (false, _) => {
            "use the checked/saturating methods on the unit newtypes \
             (crates/platform/src/units.rs)"
        }
    };
    let op_txt = if compound {
        format!("{}=", t.text)
    } else {
        t.text.to_string()
    };
    let lhs_txt = if lhs_ident { prev.text } else { "…" };
    let rhs_txt = rhs_name.map_or(if rhs_literal { "<literal>" } else { "…" }, |n| n.text);
    let start_tok = if lhs_ident { prev } else { t };
    let end_tok = rhs_name.unwrap_or(if compound { code[j + 1] } else { t });
    out.push(Finding {
        code: DiagCode::LintUncheckedTimeArith,
        span: span_between(start_tok, end_tok),
        entity: format!("{lhs_txt} {op_txt} {rhs_txt}"),
        message: format!(
            "raw `{op_txt}` on microsecond integers: overflow wraps silently in release; {remedy}"
        ),
    });
}

/// Runs the time-arithmetic pass over every non-test function of a
/// parsed file and appends its findings.
pub fn unchecked_time_arith(code: &[&Tok<'_>], fns: &[FnItem], out: &mut Vec<Finding>) {
    // Innermost owner per token, so a nested function's operators are
    // judged only under its own environment (parents walk over nested
    // bodies transparently).
    let mut owner = vec![usize::MAX; code.len()];
    for (k, f) in fns.iter().enumerate() {
        if f.body.0 <= f.body.1 && f.body.1 <= code.len() {
            for slot in &mut owner[f.body.0..f.body.1] {
                *slot = k;
            }
        }
    }
    for (k, f) in fns.iter().enumerate() {
        if f.in_test_mod || f.body.0 >= f.body.1 || f.body.1 > code.len() {
            continue;
        }
        let mut env = param_env(f);
        for (j, &own) in owner.iter().enumerate().take(f.body.1).skip(f.body.0) {
            if own == k {
                check_op(code, j, &env, out);
            }
            stmt_effect(code, j, &mut env);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_suffixes_classify_unwrapped_integers() {
        for name in ["elapsed_us", "us", "total_micros", "Budget_US"] {
            assert!(is_micros_name(name), "{name}");
        }
    }

    #[test]
    fn lookalikes_stay_unknown() {
        for name in [
            "bus",
            "status",
            "modulus",
            "radius",
            "cycles_per_us",
            "slot_idx_us",
            "us_index",
            "deadline",
            "freq_mhz",
            "period",
        ] {
            assert!(!is_micros_name(name), "{name}");
        }
    }

    fn arith(src: &str) -> Vec<Finding> {
        let toks = crate::lexer::lex(src);
        let code: Vec<&Tok<'_>> = toks
            .iter()
            .filter(|t| !matches!(t.kind, TokKind::Comment { .. }))
            .collect();
        let fns = crate::parser::parse_file(&code);
        let mut out = Vec::new();
        unchecked_time_arith(&code, &fns, &mut out);
        out
    }

    #[test]
    fn raw_plus_on_us_params_fires_with_a_fix_method() {
        let hits = arith("fn f(start_us: u64, dur_us: u64) -> u64 { start_us + dur_us }");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].entity, "start_us + dur_us");
        assert!(hits[0].message.contains("`.saturating_add(…)`"));
    }

    #[test]
    fn literal_rhs_still_fires() {
        let hits = arith("fn f(now_us: u64) -> u64 { let t = now_us + 1; t }");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].entity, "now_us + <literal>");
        assert!(hits[0].message.contains("`.saturating_add(…)`"));
    }

    #[test]
    fn float_rate_math_is_clean() {
        assert!(arith("fn f(load_us: f64, n: f64) -> f64 { load_us * n }").is_empty());
        assert!(arith("fn f(t_us: u64, r: f64) -> f64 { r * (t_us as f64) }").is_empty());
        let cast = arith("fn f(a: f64, t_us: u64) -> f64 { a * t_us as f64 }");
        assert!(cast.is_empty(), "{cast:?}");
        // The cast may sit on a postfix chain, not just a bare ident.
        let chain = arith("fn f(d_us: u64) -> f64 { rate() * d_us.max(1) as f64 }");
        assert!(chain.is_empty(), "{chain:?}");
    }

    #[test]
    fn let_bindings_carry_their_kind() {
        // `span` is not `_us`-named: only its declaration says it holds
        // a raw microsecond value.
        let hits =
            arith("fn f(now_us: u64) -> u64 { let span = now_us; if c() { span + 4 } else { 0 } }");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].entity, "span + <literal>");
    }

    #[test]
    fn a_float_binding_suppresses_the_name_fallback() {
        let clean = arith("fn f(x: u64) -> f64 { let avg_us = x as f64; avg_us * 0.5 }");
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn a_reassignment_never_unmarks_raw_micros() {
        // `v = 0` keeps `v` a u64 of microseconds, so `v + 1` fires
        // whichever path reaches it, the early return's included.
        for src in [
            "fn f(c: bool, t_us: u64) -> u64 { let mut v = t_us; if c { v = 0; } v + 1 }",
            "fn f(c: bool, t_us: u64) -> u64 { let mut v = t_us; if c { v = 0; return v; } v + 1 }",
        ] {
            let hits = arith(src);
            assert_eq!(hits.len(), 1, "{src}: {hits:?}");
            assert_eq!(hits[0].entity, "v + <literal>");
        }
    }

    #[test]
    fn compound_assign_flags_without_a_fix() {
        let hits = arith("fn f(mut total_us: u64, step: u64) { total_us += step; }");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].entity, "total_us += step");
        assert!(!hits[0].message.contains("use `."), "{:?}", hits[0].message);
    }

    #[test]
    fn newtype_field_impls_and_test_mods_are_exempt() {
        assert!(
            arith("fn add(self, rhs: TimeDelta) -> TimeDelta { TimeDelta(self.0 + rhs.0) }")
                .is_empty()
        );
        assert!(arith(
            "#[cfg(test)] mod tests { fn probe(a_us: u64, b_us: u64) -> u64 { a_us + b_us } }"
        )
        .is_empty());
    }

    #[test]
    fn arrow_and_unary_positions_are_not_operators() {
        assert!(arith("fn f(t_us: u64) -> u64 { t_us }").is_empty());
        assert!(arith("fn f(d_us: i64) -> i64 { g(); -d_us }").is_empty());
    }
}
