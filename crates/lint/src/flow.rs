//! `lint-unchecked-time-arith`: raw `+`/`-`/`*` on microsecond values.
//!
//! The workspace's timeline is integer microseconds, and the newtypes
//! (`SimTime`/`TimeDelta`) carry saturating methods. Once a quantity is
//! unwrapped to `u64` for arithmetic, only the naming convention
//! (`elapsed_us`, `budget_us`, …) marks it as time. A forward dataflow
//! over the function's CFG tracks, per binding, whether it holds a
//! `SimTime`, a `TimeDelta`, an unwrapped microsecond integer, or a
//! float (never flagged), seeded from parameter types and updated
//! through `let` bindings and plain assignments. At every binary
//! `+`/`-`/`*` whose operand environment types either side as
//! microseconds, a finding fires — naming the saturating method to use
//! when both operand kinds pin a lossless replacement.

use std::collections::BTreeMap;

use eua_analyze::DiagCode;

use crate::cfg::Cfg;
use crate::dataflow;
use crate::lexer::{Tok, TokKind};
use crate::parser::FnItem;
use crate::rules::{span_between, Finding};

/// The per-binding value kind the time-arithmetic lattice tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Vk {
    /// A `SimTime` instant.
    SimTime,
    /// A `TimeDelta` duration.
    TimeDelta,
    /// An unwrapped integer carrying microseconds.
    RawMicros,
    /// A float: rate math, never flagged (and it suppresses the
    /// `_us`-name fallback for the binding).
    Float,
}

/// The per-block binding environment. Absent means "unknown".
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
    } else if has("SimTime") {
        Some(Vk::SimTime)
    } else if has("TimeDelta") {
        Some(Vk::TimeDelta)
    } else if INTEGRALS.iter().any(|i| has(i)) && is_micros_name(name) {
        Some(Vk::RawMicros)
    } else {
        None
    }
}

/// The boundary environment of a function: its typed parameters.
fn param_env(f: &FnItem) -> Env {
    let mut env = Env::new();
    for p in &f.params {
        let Some(name) = &p.name else { continue };
        if let Some(k) = kind_from_ty(&p.ty, name) {
            env.insert(name.clone(), k);
        }
    }
    env
}

/// The kind of an initializer expression spanning code tokens
/// `range`. Deliberately shallow: constructor and conversion markers
/// win, then a single-identifier copy propagates its kind; anything
/// else is unknown (which only costs a finding's fix, never causes a
/// wrong one).
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
    if idents
        .iter()
        .any(|s| matches!(*s, "TimeDelta" | "saturating_since"))
    {
        return Some(Vk::TimeDelta);
    }
    if idents.contains(&"SimTime") {
        return Some(Vk::SimTime);
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
/// initializer spans control flow, and the binding conservatively
/// degrades to unknown.
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
        match annotated.or(inferred) {
            Some(k) => {
                env.insert(name, k);
            }
            None => {
                env.remove(&name);
            }
        }
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
        let name = code[j].text.to_string();
        let kind = find_semi(j + 2).and_then(|semi| expr_kind(code, j + 2..semi, env));
        match kind {
            Some(k) => {
                env.insert(name, k);
            }
            None => {
                env.remove(&name);
            }
        }
    }
}

/// The forward must-analysis over one function body: `None` is the
/// unreachable bottom; a map joins by intersection (a binding survives
/// a merge only when every path agrees on its kind).
struct ArithScan<'a> {
    code: &'a [&'a Tok<'a>],
    boundary: Env,
}

impl dataflow::Analysis for ArithScan<'_> {
    type Fact = Option<Env>;

    fn boundary(&self) -> Self::Fact {
        Some(self.boundary.clone())
    }

    fn bottom(&self) -> Self::Fact {
        None
    }

    fn join(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact {
        match (a, b) {
            (None, x) | (x, None) => x.clone(),
            (Some(a), Some(b)) => Some(
                a.iter()
                    .filter(|(k, v)| b.get(*k) == Some(v))
                    .map(|(k, v)| (k.clone(), *v))
                    .collect(),
            ),
        }
    }

    fn transfer(&self, cfg: &Cfg, block: usize, fact: &Self::Fact) -> Self::Fact {
        let env0 = fact.as_ref()?;
        let mut env = env0.clone();
        for &j in &cfg.blocks[block].tokens {
            stmt_effect(self.code, j, &mut env);
        }
        Some(env)
    }
}

/// Whether `b` starts at the byte immediately after `a` ends (the
/// lexer emits `->` as two adjacent single-byte puncts).
fn adjacent(a: &Tok<'_>, b: &Tok<'_>) -> bool {
    a.end_line == b.line && a.end_col == b.col
}

/// A kind that makes an operand worth flagging.
fn is_us(k: Option<Vk>) -> bool {
    matches!(k, Some(Vk::SimTime | Vk::TimeDelta | Vk::RawMicros))
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
    if !is_us(lhs_kind) && !is_us(rhs_kind) {
        return;
    }
    let method = if compound {
        None
    } else {
        match (lhs_kind, t.text, rhs_kind) {
            (Some(Vk::RawMicros), "+", Some(Vk::RawMicros)) => Some("saturating_add"),
            (Some(Vk::RawMicros), "-", Some(Vk::RawMicros)) => Some("saturating_sub"),
            (Some(Vk::RawMicros), "*", Some(Vk::RawMicros)) => Some("saturating_mul"),
            (Some(Vk::RawMicros), "+", None) if rhs_literal => Some("saturating_add"),
            (Some(Vk::RawMicros), "-", None) if rhs_literal => Some("saturating_sub"),
            (Some(Vk::RawMicros), "*", None) if rhs_literal => Some("saturating_mul"),
            (Some(Vk::SimTime), "-", Some(Vk::SimTime)) => Some("saturating_since"),
            (Some(Vk::SimTime), "+", Some(Vk::TimeDelta)) => Some("saturating_add"),
            (Some(Vk::TimeDelta), "-", Some(Vk::TimeDelta)) => Some("saturating_sub"),
            _ => None,
        }
    };
    let op_txt = if compound {
        format!("{}=", t.text)
    } else {
        t.text.to_string()
    };
    let lhs_txt = if lhs_ident { prev.text } else { "…" };
    let rhs_txt = rhs_name.map_or(if rhs_literal { "<literal>" } else { "…" }, |n| n.text);
    let what = match (lhs_kind, rhs_kind) {
        (Some(Vk::SimTime), _) | (_, Some(Vk::SimTime)) => "SimTime values",
        (Some(Vk::TimeDelta), _) | (_, Some(Vk::TimeDelta)) => "TimeDelta values",
        _ => "microsecond integers",
    };
    let message = match method {
        Some(m) => format!(
            "raw `{op_txt}` on {what}: overflow wraps silently in release; \
             use `.{m}(…)` instead"
        ),
        None => format!(
            "raw `{op_txt}` on {what}: overflow wraps silently in release; use the \
             checked/saturating methods on the unit newtypes \
             (crates/platform/src/units.rs)"
        ),
    };
    let start_tok = if lhs_ident { prev } else { t };
    let end_tok = rhs_name.unwrap_or(if compound { code[j + 1] } else { t });
    out.push(Finding {
        code: DiagCode::LintUncheckedTimeArith,
        span: span_between(start_tok, end_tok),
        entity: format!("{lhs_txt} {op_txt} {rhs_txt}"),
        message,
    });
}

/// Runs the time-arithmetic analysis over every non-test function of a
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
    // One scratch environment reused across every block of every
    // function — `clone_from` keeps the map's storage instead of
    // allocating a fresh copy per block.
    let mut env = Env::new();
    for (k, f) in fns.iter().enumerate() {
        if f.in_test_mod || f.body.0 >= f.body.1 || f.body.1 > code.len() {
            continue;
        }
        let scan = ArithScan {
            code,
            boundary: param_env(f),
        };
        let cfg = Cfg::build(code, f.body);
        let facts = dataflow::solve(&cfg, &scan);
        for (b, fact) in facts.iter().enumerate() {
            let Some(env0) = fact else { continue }; // unreachable
            env.clone_from(env0);
            for &j in &cfg.blocks[b].tokens {
                if owner.get(j) == Some(&k) {
                    check_op(code, j, &env, out);
                }
                stmt_effect(code, j, &mut env);
            }
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
    fn sim_time_minus_sim_time_suggests_saturating_since() {
        let hits = arith("fn f(end: SimTime, start: SimTime) { let d = end - start; }");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("`.saturating_since(…)`"));
    }

    #[test]
    fn float_rate_math_is_clean() {
        assert!(arith("fn f(load_us: f64, n: f64) -> f64 { load_us * n }").is_empty());
        assert!(arith("fn f(t_us: u64, r: f64) -> f64 { r * (t_us as f64) }").is_empty());
        let cast = arith("fn f(a: f64, t_us: u64) -> f64 { a * t_us as f64 }");
        assert!(cast.is_empty(), "{cast:?}");
        // The cast may sit on a postfix chain, not just a bare ident.
        let chain = arith(
            "fn f(p: f64, d: TimeDelta) -> f64 { let delta = d; p * delta.as_micros() as f64 }",
        );
        assert!(chain.is_empty(), "{chain:?}");
    }

    #[test]
    fn let_bindings_flow_kinds_through_the_cfg() {
        // `span` is not `_us`-named: only the dataflow knows it holds
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
    fn must_join_keeps_only_agreeing_kinds() {
        // One branch rebinds to float; after the merge the name is
        // unknown *and* the fallback is gone only if we kept tracking —
        // intersection drops it, so the `_ms`-free name stays silent.
        let src = "fn f(c: bool, t_us: u64) -> u64 {\n\
                   let mut v = t_us;\n\
                   if c { v = 0; }\n\
                   v + 1\n\
                   }";
        // `v = 0;` infers nothing (literal initializer) so `v` degrades
        // to unknown on that path; the join drops it and `v + 1` stays
        // silent — a missed finding, never a wrong fix.
        assert!(arith(src).is_empty(), "{:?}", arith(src));
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
