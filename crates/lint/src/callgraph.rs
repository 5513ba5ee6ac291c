//! The conservative workspace call graph and the two rules that ride
//! on it: the purity fixpoint behind `lint-pool-closure-impure`, and
//! the callee facts (`seed-deriving`, `reaches entropy`) that
//! `lint-seed-taint` consults at resolved call sites.
//!
//! Resolution is deliberately modest — this is a linter, not a compiler:
//!
//! * `self.name(...)` binds to the enclosing impl's method when exactly
//!   one exists;
//! * `Type::name(...)` binds to that type's associated function, falling
//!   back to a unique free function for module-qualified paths;
//! * `recv.name(...)` and bare `name(...)` bind by *unique name* across
//!   the workspace (same-file first for free functions);
//! * anything matching zero first-party functions is external and
//!   ignored; anything matching two or more is an **ambiguous site**.
//!
//! Only resolved (single-candidate) sites are call-graph edges. An
//! ambiguous site inside a worker-pool closure still counts against the
//! closure's purity when any candidate is impure, so over-approximation
//! cannot hide an impure callee. Method names shared with the standard
//! library's collections (`STD_METHODS`) are treated as external
//! unless the receiver is `self`: a workspace type defining `push` must
//! not capture every `Vec::push` in the repository.

use std::collections::{BTreeMap, BTreeSet};

use eua_analyze::DiagCode;

use crate::lexer::{Tok, TokKind};
use crate::parser::{match_bracket, FnItem};
use crate::rules::{span_of, Finding};
use crate::taint;

/// One file's inputs to the workspace analysis.
#[derive(Debug)]
pub struct FileInput<'a> {
    /// Code tokens (comments excluded), as produced by the scan layer.
    pub code: &'a [&'a Tok<'a>],
    /// Parsed functions for the same tokens.
    pub fns: &'a [FnItem],
}

/// The worker-pool entry points whose closures must stay pure (see
/// `crates/sim/src/pool.rs` and `crates/sim/src/runner.rs`).
pub const POOL_APIS: [&str; 2] = ["map_parallel", "replicate"];

/// Method names shared with std's containers/iterators/Option/Result.
/// A non-`self` method call with one of these names is *external* even
/// when a workspace type defines it: resolving every `vec.push(..)` to
/// some first-party `push` would flood the graph with false edges. The
/// cost is a soundness hole for first-party methods named like std's —
/// documented in DESIGN.md §16.
///
/// Kept sorted (asserted by a unit test) so lookup is a binary search;
/// this table is consulted once per method-call site in the workspace.
const STD_METHODS: [&str; 79] = [
    "abs",
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_str",
    "binary_search",
    "binary_search_by",
    "chars",
    "checked_add",
    "checked_mul",
    "checked_sub",
    "clear",
    "clone",
    "cmp",
    "contains",
    "contains_key",
    "count",
    "default",
    "drain",
    "extend",
    "filter",
    "find",
    "finish",
    "first",
    "flush",
    "fmt",
    "fold",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "last",
    "len",
    "map",
    "max",
    "min",
    "new",
    "next",
    "ok",
    "ok_or",
    "ok_or_else",
    "parse",
    "partition_point",
    "peek",
    "pop",
    "position",
    "push",
    "push_str",
    "read",
    "read_to_string",
    "remove",
    "replace",
    "reserve",
    "resize",
    "retain",
    "saturating_add",
    "saturating_mul",
    "saturating_sub",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "split",
    "starts_with",
    "swap",
    "take",
    "trim",
    "truncate",
    "write",
    "write_all",
];

/// One nondeterminism class the purity fixpoint tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    WallClock,
    Entropy,
    HashIter,
    InteriorMut,
}

const CLASSES: [Class; 4] = [
    Class::WallClock,
    Class::Entropy,
    Class::HashIter,
    Class::InteriorMut,
];

impl Class {
    fn bit(self) -> u8 {
        match self {
            Class::WallClock => 1,
            Class::Entropy => 2,
            Class::HashIter => 4,
            Class::InteriorMut => 8,
        }
    }

    fn describe(self) -> &'static str {
        match self {
            Class::WallClock => "the wall clock",
            Class::Entropy => "entropy-seeded randomness",
            Class::HashIter => "hash-ordered iteration",
            Class::InteriorMut => "interior-mutable shared state",
        }
    }
}

/// A nondeterminism source the purity scan recognizes directly, at one
/// token position.
fn marker_at(code: &[&Tok<'_>], j: usize) -> Option<(Class, String)> {
    let t = code[j];
    if t.kind != TokKind::Ident {
        return None;
    }
    let prev_dot = j > 0 && code[j - 1].kind == TokKind::Dot;
    let called = code.get(j + 1).map(|n| n.text) == Some("(");
    match t.text {
        "Instant" | "SystemTime" => Some((Class::WallClock, t.text.into())),
        "from_entropy" | "thread_rng" | "OsRng" => Some((Class::Entropy, t.text.into())),
        "rand"
            if code.get(j + 1).map(|n| n.kind) == Some(TokKind::PathSep)
                && code.get(j + 2).is_some_and(|n| n.is_ident("random")) =>
        {
            Some((Class::Entropy, "rand::random".into()))
        }
        "HashMap" | "HashSet" => Some((Class::HashIter, t.text.into())),
        "RefCell" | "Cell" | "Mutex" | "RwLock" => Some((Class::InteriorMut, t.text.into())),
        _ if t.text.starts_with("Atomic") => Some((Class::InteriorMut, t.text.into())),
        "lock" | "borrow" | "borrow_mut" if prev_dot && called => {
            Some((Class::InteriorMut, format!(".{}()", t.text)))
        }
        _ => None,
    }
}

/// A call site with at least one first-party candidate: exactly one
/// for a resolved edge, two or more for an ambiguous site.
struct Site {
    caller: usize,
    /// Code-token index of the callee name at the site.
    name_tok: usize,
    candidates: Vec<usize>,
}

/// A closure argument handed to a pool API.
struct PoolClosure {
    caller: usize,
    api: String,
    /// Half-open code-token range of the closure body.
    body: (usize, usize),
}

/// The functions the workspace analysis sees, tagged by file index: the
/// call graph's nodes and the seed-taint scan's scope. Test-module
/// items share names with production code (mock policies, fixture
/// builders); keeping them out keeps candidate sets honest.
pub(crate) fn graph_fns<'a>(files: &'a [FileInput<'a>]) -> Vec<(usize, &'a FnItem)> {
    files
        .iter()
        .enumerate()
        .flat_map(|(fi, file)| {
            file.fns
                .iter()
                .filter(|f| !f.in_test_mod)
                .map(move |f| (fi, f))
        })
        .collect()
}

/// The flattened workspace function table with resolution indexes.
struct Table<'a> {
    /// `(file, fn)` per global id.
    items: Vec<(usize, &'a FnItem)>,
    methods: BTreeMap<&'a str, Vec<usize>>,
    assoc: BTreeMap<(&'a str, &'a str), Vec<usize>>,
    free: BTreeMap<&'a str, Vec<usize>>,
}

impl<'a> Table<'a> {
    fn build(files: &'a [FileInput<'a>]) -> Self {
        let mut t = Table {
            items: graph_fns(files),
            methods: BTreeMap::new(),
            assoc: BTreeMap::new(),
            free: BTreeMap::new(),
        };
        for (g, &(_, f)) in t.items.iter().enumerate() {
            if f.has_self {
                t.methods.entry(f.name.as_str()).or_default().push(g);
            }
            match &f.self_type {
                Some(ty) => t
                    .assoc
                    .entry((ty.as_str(), f.name.as_str()))
                    .or_default()
                    .push(g),
                None => t.free.entry(f.name.as_str()).or_default().push(g),
            }
        }
        t
    }

    fn file_of(&self, g: usize) -> usize {
        self.items[g].0
    }

    fn fn_of(&self, g: usize) -> &'a FnItem {
        self.items[g].1
    }

    /// The candidates of `recv.name(...)`; empty means external.
    fn resolve_method(
        &self,
        name: &str,
        recv_is_self: bool,
        self_type: Option<&str>,
    ) -> Vec<usize> {
        if recv_is_self {
            if let Some(c) = self_type.and_then(|ty| self.assoc.get(&(ty, name))) {
                if c.len() == 1 {
                    return c.clone();
                }
            }
        }
        if !recv_is_self && STD_METHODS.binary_search(&name).is_ok() {
            return Vec::new();
        }
        self.methods.get(name).cloned().unwrap_or_default()
    }

    /// The candidates of `qual::name(...)`; empty means external.
    fn resolve_qualified(&self, qual: &str, name: &str, self_type: Option<&str>) -> Vec<usize> {
        let qual = match qual {
            "Self" | "self" => match self_type {
                Some(ty) => ty,
                None => return Vec::new(),
            },
            q => q,
        };
        if let Some(c) = self.assoc.get(&(qual, name)) {
            return c.clone();
        }
        // A lowercase qualifier is a module path (`rules::run_hazards`):
        // fall back to the free functions. Uppercase qualifiers are
        // types whose impl we do not see (std, vendor) — external.
        if qual.starts_with(|c: char| c.is_ascii_lowercase()) {
            return self.free.get(name).cloned().unwrap_or_default();
        }
        Vec::new()
    }

    /// The candidates of `name(...)` called from `file`, preferring a
    /// unique same-file definition; empty means external.
    fn resolve_free(&self, name: &str, file: usize) -> Vec<usize> {
        let all = self.free.get(name).map_or(&[][..], Vec::as_slice);
        let local: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&g| self.file_of(g) == file)
            .collect();
        if all.len() > 1 && local.len() == 1 {
            local
        } else {
            all.to_vec()
        }
    }
}

/// Finds every closure argument of every pool-API call in `range`.
fn pool_closures_in(
    code: &[&Tok<'_>],
    range: (usize, usize),
    caller: usize,
    out: &mut Vec<PoolClosure>,
) {
    let (s, e) = range;
    for j in s..e.min(code.len()) {
        if !(code[j].kind == TokKind::Ident && POOL_APIS.contains(&code[j].text)) {
            continue;
        }
        if code.get(j + 1).map(|t| t.text) != Some("(") {
            continue;
        }
        let close = match_bracket(code, j + 1);
        let mut depth = 1usize;
        let mut arg_start = j + 2;
        let mut bounds = Vec::new();
        for (k, tok) in code.iter().enumerate().take(close).skip(j + 2) {
            match tok.kind {
                TokKind::Open => depth += 1,
                TokKind::Close => depth -= 1,
                TokKind::Punct if tok.text == "," && depth == 1 => {
                    bounds.push((arg_start, k));
                    arg_start = k + 1;
                }
                _ => {}
            }
        }
        if arg_start < close {
            bounds.push((arg_start, close));
        }
        for (mut a, b) in bounds {
            if code.get(a).is_some_and(|t| t.is_ident("move")) {
                a += 1;
            }
            if code.get(a).map(|t| t.text) != Some("|") {
                continue;
            }
            let Some(pipe_close) = (a + 1..b).find(|&k| code[k].text == "|") else {
                continue;
            };
            out.push(PoolClosure {
                caller,
                api: code[j].text.to_string(),
                body: (pipe_close + 1, b),
            });
        }
    }
}

/// Extracts the first-party call sites of one function body.
fn extract_sites(table: &Table<'_>, code: &[&Tok<'_>], caller: usize, out: &mut Vec<Site>) {
    let (fi, f) = table.items[caller];
    let self_type = f.self_type.as_deref();
    for j in f.body.0..f.body.1.min(code.len()) {
        let t = code[j];
        if t.kind != TokKind::Ident || code.get(j + 1).map(|n| n.text) != Some("(") {
            continue;
        }
        let Some(prev) = j.checked_sub(1).map(|p| code[p]) else {
            continue;
        };
        let candidates = match prev.kind {
            TokKind::Dot => {
                let recv_is_self = j >= 2 && code[j - 2].is_ident("self");
                table.resolve_method(t.text, recv_is_self, self_type)
            }
            TokKind::PathSep => match j.checked_sub(2).map(|q| code[q]) {
                Some(qual) if qual.kind == TokKind::Ident => {
                    table.resolve_qualified(qual.text, t.text, self_type)
                }
                _ => continue,
            },
            _ if prev.is_ident("fn") => continue, // the declaration itself
            _ => table.resolve_free(t.text, fi),
        };
        if !candidates.is_empty() {
            out.push(Site {
                caller,
                name_tok: j,
                candidates,
            });
        }
    }
}

/// Runs the workspace analysis and returns the pool-purity and
/// seed-taint findings, tagged by file index.
#[must_use]
pub fn analyze(files: &[FileInput<'_>]) -> Vec<(usize, Finding)> {
    let table = Table::build(files);
    let n = table.items.len();

    let mut closures: Vec<PoolClosure> = Vec::new();
    let mut sites: Vec<Site> = Vec::new();
    for (g, &(fi, f)) in table.items.iter().enumerate() {
        let code = files[fi].code;
        pool_closures_in(code, f.body, g, &mut closures);
        extract_sites(&table, code, g, &mut sites);
    }
    let edges = || sites.iter().filter(|s| s.candidates.len() == 1);
    let edge_set: BTreeSet<(usize, usize)> = edges().map(|s| (s.caller, s.candidates[0])).collect();

    // Direct purity classes per function (signature included: a
    // `&RefCell<_>` parameter is shared state even before first use).
    let mut mask = vec![0u8; n];
    let mut witness: Vec<[Option<usize>; 4]> = vec![[None; 4]; n];
    for (g, &(fi, f)) in table.items.iter().enumerate() {
        let code = files[fi].code;
        for j in f.fn_tok..f.body.1.min(code.len()) {
            if let Some((class, _)) = marker_at(code, j) {
                mask[g] |= class.bit();
            }
        }
    }
    // Fixpoint: callers inherit callee classes, recording which callee
    // introduced each class for witness chains.
    loop {
        let mut changed = false;
        for &(a, b) in &edge_set {
            let new = mask[b] & !mask[a];
            if new != 0 {
                mask[a] |= new;
                for (c, class) in CLASSES.iter().enumerate() {
                    if new & class.bit() != 0 {
                        witness[a][c] = Some(b);
                    }
                }
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // The witness chain from `start` to a function that touches `class`
    // directly, rendered `start → … → leaf`.
    let chain = |start: usize, class: Class| -> String {
        let ci = CLASSES.iter().position(|c| *c == class).unwrap_or(0);
        let mut names = vec![table.fn_of(start).display_name()];
        let mut at = start;
        while let Some(next) = witness[at][ci] {
            names.push(table.fn_of(next).display_name());
            at = next;
        }
        names.join(" → ")
    };
    let first_class = |g: usize| CLASSES.into_iter().find(|c| mask[g] & c.bit() != 0);

    // Pool-closure purity: direct markers in the closure body, plus
    // calls whose callee — or, at an ambiguous site, any candidate — is
    // impure (witness chain rendered).
    let mut out = Vec::new();
    for cl in &closures {
        let fi = table.file_of(cl.caller);
        let code = files[fi].code;
        for j in cl.body.0..cl.body.1.min(code.len()) {
            if let Some((class, entity)) = marker_at(code, j) {
                out.push((
                    fi,
                    Finding {
                        code: DiagCode::LintPoolClosureImpure,
                        span: span_of(code[j]),
                        entity: entity.clone(),
                        message: format!(
                            "closure passed to {} uses {} (`{entity}`); sweep cells must \
                             be pure functions of their inputs to keep parallel runs \
                             byte-identical",
                            cl.api,
                            class.describe(),
                        ),
                    },
                ));
            }
        }
    }
    for site in &sites {
        let Some(cl) = closures
            .iter()
            .find(|cl| cl.caller == site.caller && (cl.body.0..cl.body.1).contains(&site.name_tok))
        else {
            continue;
        };
        let Some((bad, class)) = site
            .candidates
            .iter()
            .find_map(|&c| first_class(c).map(|class| (c, class)))
        else {
            continue;
        };
        let fi = table.file_of(site.caller);
        let code = files[fi].code;
        let how = if site.candidates.len() == 1 {
            "reaches".to_string()
        } else {
            format!(
                "may reach (`{}` is ambiguous: {} candidates)",
                code[site.name_tok].text,
                site.candidates.len()
            )
        };
        out.push((
            fi,
            Finding {
                code: DiagCode::LintPoolClosureImpure,
                span: span_of(code[site.name_tok]),
                entity: table.fn_of(bad).display_name(),
                message: format!(
                    "closure passed to {} {how} {} via {}; sweep cells must be pure \
                     functions of their inputs to keep parallel runs byte-identical",
                    cl.api,
                    class.describe(),
                    chain(bad, class),
                ),
            },
        ));
    }

    // Seed-provenance taint: resolution facts per resolved call site
    // (callee name plus, when its purity mask reaches entropy, the
    // rendered witness chain), then the per-function dataflow in
    // `taint`.
    let oracle: taint::CallOracle = edges()
        .map(|s| {
            let callee = s.candidates[0];
            (
                (table.file_of(s.caller), s.name_tok),
                taint::Callee {
                    name: table.fn_of(callee).display_name(),
                    entropy: (mask[callee] & Class::Entropy.bit() != 0)
                        .then(|| chain(callee, Class::Entropy)),
                },
            )
        })
        .collect();
    let (unproven, _sites) = taint::scan(files, &table.items, &oracle);
    out.extend(unproven);
    out
}

#[cfg(test)]
mod tests {
    use super::STD_METHODS;

    /// The std-method denylist must stay sorted and duplicate-free:
    /// resolution binary-searches it, and a misplaced entry would
    /// silently turn a std name back into a first-party edge.
    #[test]
    fn std_methods_table_is_sorted_and_unique() {
        for pair in STD_METHODS.windows(2) {
            assert!(
                pair[0] < pair[1],
                "STD_METHODS out of order or duplicated at `{}` / `{}`",
                pair[0],
                pair[1]
            );
        }
    }
}
