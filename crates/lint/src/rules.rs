//! The token rules: `lint-float-sort-partial-cmp` and `lint-loop-alloc`.
//!
//! Each rule looks for one class of determinism or hot-path hazard and
//! reports token-exact [`Span`]s. Rules only examine *code* tokens:
//! string literals never trip a rule (a hazard name inside a string is
//! data), and comments only carry directives.

use eua_analyze::{DiagCode, Span};

use crate::lexer::{Tok, TokKind};
use crate::parser::{match_bracket, FnItem};

/// One raw rule hit, before suppression accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The lint code.
    pub code: DiagCode,
    /// The offending token extent.
    pub span: Span,
    /// The offending token text (the diagnostic's entity).
    pub entity: String,
    /// Why this is a hazard, with the remedy inline where obvious.
    pub message: String,
}

/// The three hazard codes (everything except the two suppression
/// meta-codes), in registry order. Only these may appear in an
/// `allow(...)` directive.
pub const HAZARD_CODES: [DiagCode; 3] = [
    DiagCode::LintFloatSortPartialCmp,
    DiagCode::LintLoopAlloc,
    DiagCode::LintUncheckedTimeArith,
];

/// All five lint codes, in registry order (`eua-lint codes` order).
pub const LINT_CODES: [DiagCode; 5] = [
    DiagCode::LintFloatSortPartialCmp,
    DiagCode::LintLoopAlloc,
    DiagCode::LintUncheckedTimeArith,
    DiagCode::LintUnusedSuppression,
    DiagCode::LintUnknownSuppression,
];

/// The span of one token.
pub(crate) fn span_of(t: &Tok<'_>) -> Span {
    Span {
        start_line: t.line,
        start_col: t.col,
        end_line: t.end_line,
        end_col: t.end_col,
    }
}

/// The span from the first byte of `a` to the last byte of `b`.
pub(crate) fn span_between(a: &Tok<'_>, b: &Tok<'_>) -> Span {
    Span {
        start_line: a.line,
        start_col: a.col,
        end_line: b.end_line,
        end_col: b.end_col,
    }
}

/// Whether code token `i` starts the path-like sequence `names[0] ::
/// names[1] :: …` (every hop through a `PathSep`). Returns the index
/// one past the final segment on a match.
fn match_path(code: &[&Tok<'_>], i: usize, names: &[&str]) -> Option<usize> {
    let mut at = i;
    for (k, name) in names.iter().enumerate() {
        if k > 0 {
            if code.get(at).map(|t| t.kind) != Some(TokKind::PathSep) {
                return None;
            }
            at += 1;
        }
        if !code.get(at).is_some_and(|t| t.is_ident(name)) {
            return None;
        }
        at += 1;
    }
    Some(at)
}

/// Comparator-taking methods whose argument must not rank floats with
/// `partial_cmp`.
const SORT_FAMILY: [&str; 5] = [
    "sort_by",
    "sort_unstable_by",
    "binary_search_by",
    "max_by",
    "min_by",
];

/// `lint-float-sort-partial-cmp`: `partial_cmp` inside the argument of
/// a `sort_by`-family call. NaN makes the comparator non-total, and the
/// fallback branch (`unwrap_or(Equal)` and friends) makes the resulting
/// order input-dependent; `total_cmp` is deterministic for every bit
/// pattern.
fn float_sort(code: &[&Tok<'_>], out: &mut Vec<Finding>) {
    for i in 0..code.len() {
        if !(code[i].kind == TokKind::Ident && SORT_FAMILY.contains(&code[i].text)) {
            continue;
        }
        if code.get(i + 1).map(|t| t.text) != Some("(") {
            continue;
        }
        let mut depth = 0usize;
        for t in &code[i + 1..] {
            match t.kind {
                TokKind::Open if t.text == "(" => depth += 1,
                TokKind::Close if t.text == ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokKind::Ident if t.text == "partial_cmp" => out.push(Finding {
                    code: DiagCode::LintFloatSortPartialCmp,
                    span: span_of(t),
                    entity: "partial_cmp".into(),
                    message: format!(
                        "partial_cmp inside `{}`: NaN ordering is unspecified and \
                         input-dependent; use f64::total_cmp (see the NaN regression \
                         suite in crates/core)",
                        code[i].text
                    ),
                }),
                _ => {}
            }
        }
    }
}

/// Identifier methods that always allocate when called (matched only
/// after a `.` or `::`, so a local function named `collect` in another
/// position does not trip).
const ALLOC_METHODS: [&str; 6] = [
    "to_string",
    "to_owned",
    "to_vec",
    "collect",
    "with_capacity",
    "clone",
];

/// Whether code token `i` starts an always-allocating call, and if so
/// its span and display entity. The banned set is lexical and
/// deliberate: constructors that defer their first allocation
/// (`Vec::new`, `String::new`) are allowed — the reused-buffer idiom
/// depends on them — while tokens that always allocate on execution
/// (`vec!`, `format!`, `Box::new`, `String::from`, `.collect()`,
/// `.to_vec()`, `.clone()`, …) are not.
fn alloc_site(code: &[&Tok<'_>], i: usize) -> Option<(Span, String)> {
    let t = code.get(i)?;
    let prev_kind = i.checked_sub(1).map(|p| code[p].kind);
    if t.kind == TokKind::Ident
        && ALLOC_METHODS.contains(&t.text)
        && matches!(prev_kind, Some(TokKind::Dot | TokKind::PathSep))
    {
        Some((span_of(t), t.text.to_string()))
    } else if (t.is_ident("vec") || t.is_ident("format"))
        && code.get(i + 1).map(|n| n.kind) == Some(TokKind::Bang)
    {
        Some((span_between(t, code[i + 1]), format!("{}!", t.text)))
    } else if match_path(code, i, &["Box", "new"]).is_some() {
        Some((span_between(t, code[i + 2]), "Box::new".into()))
    } else if match_path(code, i, &["String", "from"]).is_some() {
        Some((span_between(t, code[i + 2]), "String::from".into()))
    } else {
        None
    }
}

/// The loop depth of code token `i` under [`loop_depths`] (`0` outside
/// any loop, including when no depths were computed).
fn depth_at(loop_depth: &[u32], i: usize) -> u32 {
    loop_depth.get(i).copied().unwrap_or(0)
}

/// Loop depth per code token, from lexical nesting: 0 outside any loop,
/// 1 in a loop body, 2 in a doubly nested body. A `while`/`loop` header
/// counts inside its loop (the condition re-runs every iteration), a
/// `for` header outside (the iterator expression evaluates once). Each
/// non-test function is walked on its own, so a nested function starts
/// again at 0, and test code stays at 0. The delimiters of `if`,
/// `match` and loop bodies (their braces, `else`, `=>` and the commas
/// between arms) execute nothing and stay 0 too, as does a
/// `break`/`continue` label; a `return` or `break` value is read flat,
/// so a loop inside it adds no depth. Closures and plain blocks are
/// transparent.
#[must_use]
pub fn loop_depths(code: &[&Tok<'_>], fns: &[FnItem]) -> Vec<u32> {
    let mut depths = vec![0u32; code.len()];
    for f in fns {
        if f.in_test_mod || f.body.0 >= f.body.1 || f.body.1 > code.len() {
            continue;
        }
        depths[f.body.0..f.body.1].fill(0);
        let mut walk = DepthWalk {
            code,
            depths: &mut depths,
        };
        walk.block(f.body.0, f.body.1, 0);
    }
    depths
}

/// One function's [`loop_depths`] walk.
struct DepthWalk<'a, 'b> {
    code: &'a [&'a Tok<'b>],
    depths: &'a mut [u32],
}

impl DepthWalk<'_, '_> {
    /// First token in `[from, limit)` at bracket depth 0 for which `hit`
    /// holds.
    fn top_level(&self, from: usize, limit: usize, hit: impl Fn(usize) -> bool) -> Option<usize> {
        let mut nest = 0usize;
        for k in from..limit {
            if nest == 0 && hit(k) {
                return Some(k);
            }
            match self.code[k].kind {
                TokKind::Open => nest += 1,
                TokKind::Close => nest = nest.saturating_sub(1),
                _ => {}
            }
        }
        None
    }

    /// The body `{` of the construct whose keyword is at `i`.
    fn body_open(&self, i: usize, limit: usize) -> Option<usize> {
        self.top_level(i + 1, limit, |k| self.code[k].text == "{")
    }

    /// Stamps the header of the construct at `i` (keyword through the
    /// body's `{`, exclusive) at `depth` and returns the body's bracket
    /// pair; with no body, stamps the keyword alone.
    fn header(&mut self, i: usize, limit: usize, depth: u32) -> Option<(usize, usize)> {
        let Some(open) = self.body_open(i, limit) else {
            self.depths[i] = depth;
            return None;
        };
        self.depths[i..open].fill(depth);
        Some((open, match_bracket(self.code, open).min(limit)))
    }

    /// Stamps `[i, limit)` at loop depth `depth`, descending into
    /// conditionals, matches and loops.
    fn block(&mut self, mut i: usize, limit: usize, depth: u32) {
        while i < limit {
            let t = self.code[i];
            if t.kind != TokKind::Ident {
                self.depths[i] = depth;
                i += 1;
                continue;
            }
            i = match t.text {
                "if" => self.conditional(i, limit, depth),
                "match" => self.arms(i, limit, depth),
                "loop" | "while" | "for" => self.repeat(i, limit, depth),
                "break" | "continue" | "return" => self.exit(i, limit, depth),
                _ => {
                    self.depths[i] = depth;
                    i + 1
                }
            };
        }
    }

    /// `if cond { … } [else if …] [else { … }]`; returns the index past
    /// the construct.
    fn conditional(&mut self, i: usize, limit: usize, depth: u32) -> usize {
        let Some((open, close)) = self.header(i, limit, depth) else {
            return i + 1;
        };
        self.block(open + 1, close, depth);
        let i = close + 1;
        if i >= limit || !self.code[i].is_ident("else") {
            return i;
        }
        if i + 1 < limit && self.code[i + 1].is_ident("if") {
            return self.conditional(i + 1, limit, depth);
        }
        let Some(open) = self.body_open(i, limit) else {
            return i + 1;
        };
        let close = match_bracket(self.code, open).min(limit);
        self.block(open + 1, close, depth);
        close + 1
    }

    /// `match scrutinee { pat [if guard] => body, … }`; returns the index
    /// past the construct. Patterns and guards are read flat.
    fn arms(&mut self, i: usize, limit: usize, depth: u32) -> usize {
        let Some((open, close)) = self.header(i, limit, depth) else {
            return i + 1;
        };
        let mut j = open + 1;
        while j < close {
            let arrow = self.top_level(j, close, |k| {
                self.code[k].text == "=" && self.code.get(k + 1).is_some_and(|n| n.text == ">")
            });
            let arrow = arrow.unwrap_or(close);
            self.depths[j..arrow].fill(depth);
            j = (arrow + 2).min(close);
            if j < close && self.code[j].text == "{" {
                let bclose = match_bracket(self.code, j).min(close);
                self.block(j + 1, bclose, depth);
                j = bclose + 1;
                if j < close && self.code[j].text == "," {
                    j += 1;
                }
            } else {
                let comma = self.top_level(j, close, |k| self.code[k].text == ",");
                let comma = comma.unwrap_or(close);
                self.block(j, comma, depth);
                j = (comma + 1).min(close);
            }
        }
        close + 1
    }

    /// `loop`/`while`/`for … { body }`; returns the index past the
    /// construct.
    fn repeat(&mut self, i: usize, limit: usize, depth: u32) -> usize {
        let head = if self.code[i].text == "for" {
            depth
        } else {
            depth + 1
        };
        let Some((open, close)) = self.header(i, limit, head) else {
            return i + 1;
        };
        self.block(open + 1, close, depth + 1);
        close + 1
    }

    /// `return`, or `break`/`continue` with an optional label, and its
    /// value read flat through the `;`. A `break` value also ends at a
    /// `,`, and either ends at an unmatched closing bracket. Returns the
    /// index past it.
    fn exit(&mut self, i: usize, limit: usize, depth: u32) -> usize {
        let is_return = self.code[i].text == "return";
        self.depths[i] = depth;
        let mut start = i + 1;
        if !is_return && start < limit && self.code[start].kind == TokKind::Label {
            start += 1;
        }
        let end = self.top_level(start, limit, |k| {
            let t = self.code[k];
            t.kind == TokKind::Close || t.text == ";" || (!is_return && t.text == ",")
        });
        let end = end.map_or(limit, |e| e + usize::from(self.code[e].text == ";"));
        self.depths[start..end].fill(depth);
        end
    }
}

/// Idents that hand a value to an accumulator living beyond the loop
/// iteration (`out.push(format!(…))`, `map.insert(k, v.clone())`).
/// Sorted for binary-search lookup.
const ESCAPE_VERBS: [&str; 12] = [
    "append",
    "entry",
    "extend",
    "insert",
    "push",
    "push_back",
    "push_front",
    "push_str",
    "resize",
    "send",
    "write",
    "writeln",
];

/// Failure sinks: an allocation feeding one of these runs at most once
/// per loop execution — the `?`/`return`/panic it feeds aborts the
/// loop — so it is not per-iteration waste either. Sorted for
/// binary-search lookup.
const FAILURE_SINKS: [&str; 10] = [
    "Err",
    "assert",
    "assert_eq",
    "assert_ne",
    "expect",
    "map_err",
    "ok_or",
    "ok_or_else",
    "panic",
    "unreachable",
];

/// Whether code token `k` calls a name from the sorted `table` (method
/// or `write!`-family macro form).
fn table_called(code: &[&Tok<'_>], k: usize, table: &[&str]) -> bool {
    let t = code[k];
    t.kind == TokKind::Ident
        && table.binary_search(&t.text).is_ok()
        && match code.get(k + 1) {
            Some(n) if n.kind == TokKind::Open && n.text == "(" => true,
            Some(n) if n.kind == TokKind::Bang => code.get(k + 2).is_some_and(|m| m.text == "("),
            _ => false,
        }
}

/// Whether code token `k` calls one of [`ESCAPE_VERBS`] or
/// [`FAILURE_SINKS`].
fn verb_called(code: &[&Tok<'_>], k: usize) -> bool {
    table_called(code, k, &ESCAPE_VERBS) || table_called(code, k, &FAILURE_SINKS)
}

/// Whether the allocation at code token `site` escapes its loop
/// iteration. Two shapes count: the value is directly an argument of an
/// accumulator call in its own statement (`out.push(format!(…))`), or
/// it is `let`-bound and a later statement of the binding's block
/// hands the binding to an accumulator
/// (`let row = vec![…]; … grid.push(row);`). Such an allocation is new
/// data the loop exists to produce — the idiomatic report/collection
/// builders — not per-iteration waste, so cold code is not flagged for
/// it. Allocations feeding a [`FAILURE_SINKS`] call
/// (`return Err(format!(…))`) count as escaping too: the failure they
/// describe aborts the loop, so they run at most once. Hot code still
/// is flagged: a hot path should not pay the allocator at all.
fn escapes_iteration(code: &[&Tok<'_>], site: usize) -> bool {
    // Backward through the enclosing statement. Balanced `{…}` groups
    // earlier in the statement (match arms, literal bodies) are skipped
    // whole; an unmatched `{` preceded by a non-keyword ident or a `)`
    // means the walk is *inside* braces opened mid-statement (a struct
    // literal, a match scrutinee, or an `if cond(…) {` arm whose value
    // the statement binds) and continues through them, while any other
    // unmatched `{` is the enclosing block and ends the statement.
    // `if let`/`while let` headers are not bindings.
    let mut closes = 0usize;
    for k in (0..site).rev() {
        let t = code[k];
        if t.kind == TokKind::Close && t.text == "}" {
            closes += 1;
            continue;
        }
        if t.kind == TokKind::Open && t.text == "{" {
            if closes > 0 {
                closes -= 1;
                continue;
            }
            let expr_brace = k.checked_sub(1).is_some_and(|p| {
                (code[p].kind == TokKind::Ident && !crate::flow::is_keyword(code[p].text))
                    || (code[p].kind == TokKind::Close && code[p].text == ")")
            });
            if expr_brace {
                continue;
            }
            break;
        }
        if closes > 0 {
            continue;
        }
        if t.kind == TokKind::Punct && t.text == ";" {
            break;
        }
        if verb_called(code, k) {
            return true;
        }
        if t.is_ident("let")
            && !k
                .checked_sub(1)
                .is_some_and(|p| code[p].is_ident("if") || code[p].is_ident("while"))
        {
            return binding_escapes(code, k + 1, site);
        }
    }
    false
}

/// The `let`-binding half of [`escapes_iteration`]: does any later
/// statement of the binding's block mention the binding alongside an
/// accumulator call? The scan ends where that block ends — the
/// innermost loop body, or a block inside it — since the binding does
/// not outlive it: a value only consumed after the loop is a different
/// binding, and this one is per-iteration waste.
fn binding_escapes(code: &[&Tok<'_>], after_let: usize, site: usize) -> bool {
    let mut s = after_let;
    if code.get(s).is_some_and(|t| t.is_ident("mut")) {
        s += 1;
    }
    let name = match code.get(s) {
        Some(t) if t.kind == TokKind::Ident => t.text,
        _ => return false,
    };
    let mut k = site;
    while k < code.len() && !(code[k].kind == TokKind::Punct && code[k].text == ";") {
        k += 1;
    }
    let (mut saw_name, mut saw_verb, mut braces) = (false, false, 0usize);
    for k in k + 1..code.len() {
        let t = code[k];
        match (t.kind, t.text) {
            (TokKind::Open, "{") => braces += 1,
            (TokKind::Close, "}") if braces == 0 => break,
            (TokKind::Close, "}") => braces -= 1,
            (TokKind::Punct, ";") => {
                if saw_name && saw_verb {
                    return true;
                }
                (saw_name, saw_verb) = (false, false);
                continue;
            }
            _ => {}
        }
        saw_name |= t.kind == TokKind::Ident && t.text == name;
        saw_verb |= verb_called(code, k);
    }
    saw_name && saw_verb
}

/// `lint-loop-alloc`: an allocating call (see [`alloc_site`]) that
/// runs on every event or every inner-loop iteration. Inside a function
/// marked `// eua-lint: hot` every site fires, at any loop depth: the
/// per-event kernel should not pay the allocator at all. Elsewhere only
/// depth ≥ 2 fires — a single cold loop allocating is routine, a nested
/// one is quadratic and usually hoistable — and values that
/// [escape](escapes_iteration) into an accumulator are exempt.
fn loop_alloc(
    code: &[&Tok<'_>],
    hot_bodies: &[(usize, usize)],
    loop_depth: &[u32],
    out: &mut Vec<Finding>,
) {
    for i in 0..code.len() {
        let Some((span, entity)) = alloc_site(code, i) else {
            continue;
        };
        let depth = depth_at(loop_depth, i);
        let hot = hot_bodies.iter().any(|&(s, e)| i >= s && i < e);
        let message = if hot {
            format!(
                "allocating call at loop depth {depth} inside a `// eua-lint: hot` \
                 function: every event pays the allocator; hoist the buffer into \
                 the owning struct and reuse it (see ScheduleBuilder)"
            )
        } else if depth >= 2 && !escapes_iteration(code, i) {
            format!(
                "allocating call at loop depth {depth}: the allocation count \
                 multiplies across the enclosing loops; hoist it above the \
                 innermost loop or reuse one buffer"
            )
        } else {
            continue;
        };
        out.push(Finding {
            code: DiagCode::LintLoopAlloc,
            span,
            entity,
            message,
        });
    }
}

/// Runs both token rules over one file's comment-free token stream.
/// `hot_bodies` are the half-open code-token ranges of the functions
/// marked `// eua-lint: hot`; `loop_depth` maps each code-token index to
/// its loop nesting depth (pass `&[]` to read every site as depth 0).
pub(crate) fn run_hazards(
    code: &[&Tok<'_>],
    hot_bodies: &[(usize, usize)],
    loop_depth: &[u32],
) -> Vec<Finding> {
    let mut out = Vec::new();
    float_sort(code, &mut out);
    loop_alloc(code, hot_bodies, loop_depth, &mut out);
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::lexer::lex;

    fn code_of<'a>(toks: &'a [Tok<'a>]) -> Vec<&'a Tok<'a>> {
        toks.iter()
            .filter(|t| !matches!(t.kind, TokKind::Comment { .. }))
            .collect()
    }

    fn run_all(src: &str) -> Vec<Finding> {
        let toks = lex(src);
        run_hazards(&code_of(&toks), &[], &[])
    }

    /// Runs the rules with the whole snippet marked hot.
    fn run_hot(src: &str) -> Vec<Finding> {
        let toks = lex(src);
        let code = code_of(&toks);
        run_hazards(&code, &[(0, code.len())], &[])
    }

    #[test]
    fn float_sort_only_fires_inside_sort_family_args() {
        // A comparison against a constant outside a sort is legitimate
        // (the candidates.rs positivity guard).
        let clean = run_all("if cand.key.partial_cmp(&0.0) != Some(Ordering::Greater) {}");
        assert!(clean.is_empty(), "{clean:?}");
        let hits = run_all("v.sort_by(|a, b| a.partial_cmp(b).unwrap());");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].code, DiagCode::LintFloatSortPartialCmp);
        let hits = run_all("let m = xs.iter().max_by(|a, b| a.partial_cmp(b).unwrap());");
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn total_cmp_sorts_are_clean() {
        assert!(run_all("v.sort_by(|a, b| a.total_cmp(b));").is_empty());
        assert!(run_all("v.sort_by_key(|d| Reverse(d.severity));").is_empty());
    }

    #[test]
    fn hazard_names_in_strings_are_data() {
        assert!(run_all(r#"let msg = "v.sort_by(|a, b| a.partial_cmp(b))";"#).is_empty());
    }

    #[test]
    fn hot_path_alloc_respects_body_ranges() {
        let src = "fn cold() { let v = xs.to_vec(); } fn hot() { let v = xs.to_vec(); }";
        let toks = lex(src);
        let code = code_of(&toks);
        // Mark only the second fn's body: tokens after its `{`.
        let second_open = code
            .iter()
            .enumerate()
            .filter(|(_, t)| t.text == "{")
            .nth(1)
            .unwrap()
            .0;
        let hits = run_hazards(&code, &[(second_open, code.len())], &[]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].code, DiagCode::LintLoopAlloc);
        assert!(hits[0].span.start_col > 40, "the hit is in the marked fn");
        assert!(
            hits[0].message.contains("loop depth 0"),
            "{}",
            hits[0].message
        );
    }

    /// Runs the rules with the depths `lint_source` computes.
    fn run_nested(src: &str) -> Vec<Finding> {
        let toks = lex(src);
        let code = code_of(&toks);
        let fns = crate::parser::parse_file(&code);
        run_hazards(&code, &[], &loop_depths(&code, &fns))
    }

    #[test]
    fn a_binding_that_escapes_after_a_conditional_is_exempt() {
        for branch in ["if c { tick(); }", "if c { tick(); } else { tock(); }"] {
            let src = format!(
                "fn f(ids: &[u64], out: &mut Vec<String>) {{ for _ in 0..2 {{ for id in ids {{ \
                 let label = id.to_string(); {branch} out.push(label); }} }} }}"
            );
            let hits = run_nested(&src);
            assert!(hits.is_empty(), "{branch}: {hits:?}");
        }
    }

    #[test]
    fn a_binding_consumed_only_after_its_block_is_reported() {
        let hits = run_nested(
            "fn f(ids: &[u64], out: &mut Vec<String>) { for _ in 0..2 { for id in ids { \
             if c { let label = id.to_string(); tick(); } else { tock(); } out.push(label); } } }",
        );
        let entities: Vec<&str> = hits.iter().map(|f| f.entity.as_str()).collect();
        assert_eq!(entities, ["to_string"]);
    }

    #[test]
    fn hot_path_alloc_allows_lazy_constructors() {
        let hits = run_hot("fn h() { let v: Vec<u32> = Vec::new(); let s = String::new(); }");
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn hot_path_alloc_flags_macros_and_methods() {
        let hits =
            run_hot("fn h() { let a = vec![0; n]; let b = format!(\"x\"); let c = q.clone(); }");
        let entities: Vec<&str> = hits.iter().map(|f| f.entity.as_str()).collect();
        assert_eq!(entities, ["vec!", "format!", "clone"]);
    }
}
