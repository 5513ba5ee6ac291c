//! Seed-provenance taint: proving every RNG stream flows from a
//! master seed.
//!
//! The determinism story of the whole workspace rests on one
//! convention: every `SmallRng` is built with `seed_from_u64(expr)`
//! where `expr` derives — however it is salted, hashed, or mixed —
//! from a master seed that the caller threads in. The vendored `rand`
//! shim defines none of the entropy constructors (`from_entropy`,
//! `thread_rng`, `OsRng`, `rand::random`), so those cannot compile;
//! this module proves the positive claim at each construction site.
//!
//! The lattice is two-point: `Seed ⊑ Unknown`. A forward dataflow over
//! each function's CFG tracks per-binding taint (seeded from parameter
//! names, flowed through `let` bindings and plain reassignments), and
//! each `seed_from_u64` argument expression is judged by its
//! *ingredients*: a single seed-tagged ingredient proves it (mixing a
//! lane index into a master seed is the sanctioned idiom); an
//! expression with no value ingredients at all (a literal) is also
//! proven; only unknown ingredients with no seed leave it unproven.
//! Calls are transparent — mixers (`wrapping_mul`, `rotate_left`) and
//! first-party helpers alike pass their arguments' taint through —
//! except that a seed-tagged callee (`cell_seed`, `salt_for`, …)
//! proves the expression. Each file is judged on its own.
//!
//! Soundness limits (documented in DESIGN.md §16): calls are
//! transparent rather than unknown, index expressions (`seeds[i]`)
//! judge the collection rather than the selector, and `SCREAMING_CASE`
//! constants count as deterministic. Each trades a missed exotic flow
//! for zero noise on the workspace's real derivation idioms.

use std::collections::BTreeSet;

use eua_analyze::DiagCode;

use crate::cfg::Cfg;
use crate::dataflow;
use crate::flow::is_keyword;
use crate::lexer::{Tok, TokKind};
use crate::parser::{match_bracket, FnItem};
use crate::rules::{span_between, Finding};

/// The provenance of one ingredient or expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Taint {
    /// Provably derived from a master seed (or compile-time constant).
    Seed,
    /// No proof either way.
    Unknown,
}

/// The bindings proven seed-derived; every other name is
/// [`Taint::Unknown`].
type Env = BTreeSet<String>;

/// Whether a name is seed-tagged by the workspace naming convention.
fn seedish(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    lower.contains("seed") || lower.contains("salt")
}

/// Whether an identifier is a `SCREAMING_CASE` constant — a
/// compile-time value, deterministic by construction.
fn is_const_name(name: &str) -> bool {
    name.chars().any(|c| c.is_ascii_uppercase())
        && name
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// The taint contribution of the identifier at code index `j`, with a
/// human-readable provenance note — or `None` for neutral tokens
/// (mixers, paths, constants, field-access bases) that pass taint
/// through.
fn ingredient(code: &[&Tok<'_>], j: usize, env: &Env) -> Option<(Taint, String)> {
    let t = code[j];
    // A path qualifier (`SmallRng::`, `u64::`) names a type or module,
    // not a value.
    if code.get(j + 1).map(|n| n.kind) == Some(TokKind::PathSep) {
        return None;
    }
    let called = code
        .get(j + 1)
        .is_some_and(|n| n.kind == TokKind::Open && n.text == "(");
    if called {
        if seedish(t.text) {
            return Some((Taint::Seed, format!("call to seed-deriving `{}`", t.text)));
        }
        // Mixers and helpers: transparent, the arguments decide.
        return None;
    }
    if is_keyword(t.text) || t.text == "self" {
        return None;
    }
    // `x as u64`: the cast target is not a value.
    if j > 0 && code[j - 1].is_ident("as") {
        return None;
    }
    // `cfg.seed`: the field, not the base, carries the provenance —
    // but a method receiver (`master_seed.wrapping_mul(…)`) is a real
    // ingredient, so only skip when the member is *not* called.
    if code.get(j + 1).map(|n| n.kind) == Some(TokKind::Dot)
        && code.get(j + 2).map(|n| n.kind) == Some(TokKind::Ident)
        && !code
            .get(j + 3)
            .is_some_and(|n| n.kind == TokKind::Open && n.text == "(")
    {
        return None;
    }
    if env.contains(t.text) {
        return Some((
            Taint::Seed,
            format!("`{}` binds a seed-derived value", t.text),
        ));
    }
    if seedish(t.text) {
        return Some((Taint::Seed, format!("`{}` names a seed quantity", t.text)));
    }
    if is_const_name(t.text) {
        return None;
    }
    // Type-like leading-uppercase identifiers are not values.
    if t.text
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_uppercase())
    {
        return None;
    }
    Some((
        Taint::Unknown,
        format!("`{}` has no provable provenance", t.text),
    ))
}

/// Combines the ingredients of the expression spanning code tokens
/// `range`. This is deliberately *not* the lattice join: one seed
/// ingredient proves the expression — mixing a lane index into a
/// master seed is exactly the sanctioned derivation idiom. Only an
/// expression with unknown ingredients and no seed at all stays
/// unproven; a literal-only expression is deterministic and counts as
/// seeded. The notes name the unknown ingredients when unproven.
fn combine(code: &[&Tok<'_>], range: std::ops::Range<usize>, env: &Env) -> (Taint, Vec<String>) {
    let mut unknown_notes = Vec::new();
    let mut saw_seed = false;
    let mut index_depth = 0usize;
    for j in range {
        let Some(t) = code.get(j) else { break };
        // `seeds[i]` selects *which* seed; the selector does not feed
        // the value's provenance.
        match (t.kind, t.text) {
            (TokKind::Open, "[") => {
                index_depth += 1;
                continue;
            }
            (TokKind::Close, "]") if index_depth > 0 => {
                index_depth -= 1;
                continue;
            }
            _ => {}
        }
        if index_depth > 0 || t.kind != TokKind::Ident {
            continue;
        }
        if let Some((taint, note)) = ingredient(code, j, env) {
            match taint {
                Taint::Unknown => unknown_notes.push(note),
                Taint::Seed => saw_seed = true,
            }
        }
    }
    if saw_seed || unknown_notes.is_empty() {
        (Taint::Seed, Vec::new())
    } else {
        (Taint::Unknown, unknown_notes)
    }
}

/// Applies the binding effect of a `let` or statement-initial
/// reassignment starting at code token `j`, if any. Mirrors the
/// time-arithmetic walker: a `{` before the `;` means the initializer
/// spans control flow and the binding degrades to unknown.
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
    let bind = |env: &mut Env, name: String, taint: Option<Taint>| {
        if taint == Some(Taint::Seed) {
            env.insert(name);
        } else {
            env.remove(&name);
        }
    };
    if code[j].is_ident("let") {
        let mut at = j + 1;
        if code.get(at).is_some_and(|t| t.is_ident("mut")) {
            at += 1;
        }
        let Some(name_tok) = code.get(at).filter(|t| t.kind == TokKind::Ident) else {
            return; // destructuring pattern: nothing single to track
        };
        let eq = (at + 1..limit).find(|&k| {
            let t = code[k];
            t.kind == TokKind::Punct && t.text == "="
        });
        let taint = eq.and_then(|e| {
            let semi = find_semi(e + 1)?;
            Some(combine(code, e + 1..semi, env).0)
        });
        bind(env, name_tok.text.to_string(), taint);
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
        let taint = find_semi(j + 2).map(|semi| combine(code, j + 2..semi, env).0);
        bind(env, code[j].text.to_string(), taint);
    }
}

/// The forward taint analysis over one function body. `None` is the
/// unreachable bottom; a name stays seed-derived across a join only
/// when every predecessor proves it.
struct TaintFlow<'a> {
    code: &'a [&'a Tok<'a>],
    boundary: Env,
}

impl dataflow::Analysis for TaintFlow<'_> {
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
            (Some(a), Some(b)) => Some(a.intersection(b).cloned().collect()),
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

/// Whether code token `j` is a `seed_from_u64(` construction site
/// (qualified or method position).
fn site_at(code: &[&Tok<'_>], j: usize) -> bool {
    code[j].is_ident("seed_from_u64")
        && j > 0
        && matches!(code[j - 1].kind, TokKind::PathSep | TokKind::Dot)
        && code
            .get(j + 1)
            .is_some_and(|n| n.kind == TokKind::Open && n.text == "(")
}

/// Scans one file's functions for `seed_from_u64` sites and judges
/// each argument expression. Functions inside `#[cfg(test)]` modules
/// are skipped: test helpers seed however they like. Returns the
/// unproven sites plus the number of sites judged.
pub(crate) fn scan(code: &[&Tok<'_>], fns: &[FnItem]) -> (Vec<Finding>, usize) {
    let mut out = Vec::new();
    let mut sites = 0usize;
    if !code.iter().any(|t| t.is_ident("seed_from_u64")) {
        return (out, sites);
    }
    let fns: Vec<&FnItem> = fns.iter().filter(|f| !f.in_test_mod).collect();
    // Innermost owner per token, so a nested function's sites are
    // judged under its own environment.
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
        let (lo, hi) = (f.body.0, f.body.1.min(code.len()));
        if lo >= hi || !(lo..hi).any(|j| site_at(code, j)) {
            continue;
        }
        let mut boundary = Env::new();
        for p in &f.params {
            if let Some(name) = &p.name {
                if seedish(name) {
                    boundary.insert(name.clone());
                }
            }
        }
        let flow = TaintFlow { code, boundary };
        let cfg = Cfg::build(code, f.body);
        let facts = dataflow::solve(&cfg, &flow);
        for (b, fact) in facts.iter().enumerate() {
            let Some(env0) = fact else { continue };
            env.clone_from(env0);
            for &j in &cfg.blocks[b].tokens {
                if owner.get(j) == Some(&k) && site_at(code, j) {
                    let close = match_bracket(code, j + 1);
                    let (taint, notes) = combine(code, j + 2..close, &env);
                    sites += 1;
                    if taint != Taint::Seed {
                        let joined = notes.join("; ");
                        let why: &str = if joined.is_empty() {
                            "the expression has no seed-tagged ingredient"
                        } else {
                            &joined
                        };
                        let end = code.get(close).copied().unwrap_or(code[j]);
                        out.push(Finding {
                            code: DiagCode::LintSeedTaint,
                            span: span_between(code[j], end),
                            entity: "seed_from_u64".into(),
                            message: format!(
                                "RNG seed not provably derived from a master seed: \
                                 {why}; thread the master seed (or a salted \
                                 derivation of it) to this site so every stream \
                                 replays bit-identically"
                            ),
                        });
                    }
                }
                stmt_effect(code, j, &mut env);
            }
        }
    }
    (out, sites)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    /// The unproven sites and the number of sites judged.
    fn run(src: &str) -> (Vec<Finding>, usize) {
        let toks = lex(src);
        let code: Vec<&Tok<'_>> = toks
            .iter()
            .filter(|t| !matches!(t.kind, TokKind::Comment { .. }))
            .collect();
        scan(&code, &parse_file(&code))
    }

    #[test]
    fn salted_master_seed_is_proven() {
        let (hits, sites) =
            run("fn mk(seed: u64) -> SmallRng { SmallRng::seed_from_u64(seed ^ SALT) }");
        assert_eq!((sites, hits.len()), (1, 0), "{hits:?}");
    }

    #[test]
    fn literal_seeds_and_constant_mixes_are_proven() {
        let (hits, sites) = run("fn mk() -> SmallRng { SmallRng::seed_from_u64(12345) }\n\
             fn mk2() -> SmallRng { SmallRng::seed_from_u64(GOLDEN ^ 7) }");
        assert_eq!((sites, hits.len()), (2, 0), "{hits:?}");
    }

    #[test]
    fn let_bound_derivations_flow_through_the_cfg() {
        let src = "fn mk(master_seed: u64, lane: u64) -> SmallRng {\n\
                   let stream = master_seed.wrapping_mul(0x9E37).wrapping_add(lane);\n\
                   SmallRng::seed_from_u64(stream)\n\
                   }";
        let (hits, sites) = run(src);
        assert_eq!((sites, hits.len()), (1, 0), "{hits:?}");
    }

    #[test]
    fn unknown_ingredients_fail_the_proof_with_a_witness() {
        let (hits, sites) =
            run("fn mk(jitter: u64) -> SmallRng { SmallRng::seed_from_u64(jitter) }");
        assert_eq!((sites, hits.len()), (1, 1), "{hits:?}");
        assert_eq!(hits[0].code, DiagCode::LintSeedTaint);
        assert!(
            hits[0]
                .message
                .contains("`jitter` has no provable provenance"),
            "{}",
            hits[0].message
        );
    }

    #[test]
    fn field_reads_and_index_selectors_judge_the_right_ident() {
        // `cfg.seed` proves via the field; `seeds[i]` ignores the
        // selector and proves via the collection.
        let (hits, sites) = run(
            "fn a(cfg: &Config) -> SmallRng { SmallRng::seed_from_u64(cfg.seed) }\n\
             fn b(seeds: &[u64], i: usize) -> SmallRng { SmallRng::seed_from_u64(seeds[i]) }",
        );
        assert_eq!((sites, hits.len()), (2, 0), "{hits:?}");
    }

    #[test]
    fn branch_joins_keep_the_worse_taint() {
        // One branch rebinds `s` to an untracked variable; the join of
        // Seed and Unknown must fail the proof.
        let src = "fn mk(seed: u64, c: bool, w: u64) -> SmallRng {\n\
                   let mut s = seed;\n\
                   if c { s = w; }\n\
                   SmallRng::seed_from_u64(s)\n\
                   }";
        let (hits, sites) = run(src);
        assert_eq!((sites, hits.len()), (1, 1), "{hits:?}");
    }

    #[test]
    fn test_mod_sites_are_not_scanned() {
        let (hits, sites) = run(
            "#[cfg(test)] mod tests { fn mk(x: u64) -> SmallRng { SmallRng::seed_from_u64(x) } }",
        );
        assert_eq!((sites, hits.len()), (0, 0), "{hits:?}");
    }
}
