//! A generic worklist fixpoint over [`crate::cfg`] graphs.
//!
//! An [`Analysis`] supplies the lattice: a fact type, the fact that
//! holds at the entry block, the initial fact for every other block, a
//! `join` for control-flow merges, and a `transfer` that pushes a fact
//! through one basic block. [`solve`] propagates facts forward along
//! the edges off a worklist until nothing changes and returns the
//! *input* fact of every block — callers re-run `transfer` on a block
//! when they need the fact at a particular token.
//!
//! Termination is the caller's contract: `join` must be monotone over a
//! lattice of finite height (every lattice in this crate is a small
//! enum or a map keyed by the finitely many identifiers in one
//! function). The solver itself adds a generous iteration ceiling so a
//! buggy lattice degrades to a loud panic in tests rather than a hung
//! lint run.

use crate::cfg::{Cfg, ENTRY};

/// One forward dataflow analysis: lattice plus transfer function.
pub trait Analysis {
    /// The lattice element attached to each block boundary.
    type Fact: Clone + PartialEq;

    /// The fact at the entry block.
    fn boundary(&self) -> Self::Fact;

    /// The initial fact for every non-boundary block (the lattice
    /// bottom: joining it must be the identity).
    fn bottom(&self) -> Self::Fact;

    /// The least upper bound of two facts.
    fn join(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact;

    /// Pushes `fact` through `block`, returning the fact at its other
    /// end. `transfer` sees the block's owned token indices via `cfg`.
    fn transfer(&self, cfg: &Cfg, block: usize, fact: &Self::Fact) -> Self::Fact;
}

/// Iteration ceiling: blocks × height would be the honest bound, but a
/// fixed multiple of the block count catches runaway lattices without
/// ever triggering on the real ones (whose heights are ≤ 3).
const MAX_PASSES: usize = 64;

/// Runs `analysis` to fixpoint over `cfg` and returns each block's
/// input fact: the join over its predecessors' outputs.
///
/// # Panics
/// Panics if the fixpoint has not settled after `MAX_PASSES` sweeps,
/// which a monotone finite-height lattice cannot trigger.
pub fn solve<A: Analysis>(cfg: &Cfg, analysis: &A) -> Vec<A::Fact> {
    let n = cfg.blocks.len();
    let mut input: Vec<A::Fact> = (0..n)
        .map(|b| {
            if b == ENTRY {
                analysis.boundary()
            } else {
                analysis.bottom()
            }
        })
        .collect();
    let mut output: Vec<A::Fact> = input
        .iter()
        .enumerate()
        .map(|(b, f)| analysis.transfer(cfg, b, f))
        .collect();

    // Chaotic iteration with a FIFO worklist seeded with every block:
    // simple, deterministic, and fast enough for single-function CFGs.
    let mut work: std::collections::VecDeque<usize> = (0..n).collect();
    let mut queued = vec![true; n];
    let mut passes = 0usize;
    while let Some(b) = work.pop_front() {
        queued[b] = false;
        passes += 1;
        assert!(
            passes <= MAX_PASSES * n.max(1),
            "dataflow fixpoint did not settle: non-monotone lattice?"
        );
        let mut inb = if b == ENTRY {
            analysis.boundary()
        } else {
            analysis.bottom()
        };
        for p in cfg.preds(b) {
            inb = analysis.join(&inb, &output[p]);
        }
        // `output[b]` is always `transfer(input[b])` (computed eagerly
        // above), so an unchanged input means nothing to do.
        if inb != input[b] {
            let outb = analysis.transfer(cfg, b, &inb);
            input[b] = inb;
            if outb != output[b] {
                output[b] = outb;
                for d in cfg.succs(b) {
                    if !queued[d] {
                        queued[d] = true;
                        work.push_back(d);
                    }
                }
            }
        }
    }
    input
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::cfg::Cfg;
    use crate::lexer::{lex, Tok, TokKind};

    fn build(src: &str) -> (Vec<Tok<'_>>, Cfg) {
        let toks = lex(src);
        let code: Vec<&Tok<'_>> = toks.iter().collect();
        let open = code
            .iter()
            .position(|t| t.kind == TokKind::Open && t.text == "{")
            .unwrap();
        let mut depth = 0usize;
        let mut close = code.len();
        for (j, t) in code.iter().enumerate().skip(open) {
            match t.kind {
                TokKind::Open => depth += 1,
                TokKind::Close => {
                    depth -= 1;
                    if depth == 0 {
                        close = j;
                        break;
                    }
                }
                _ => {}
            }
        }
        let cfg = Cfg::build(&code, (open + 1, close));
        (toks, cfg)
    }

    /// Forward reachability: `false ⊑ true`, transfer is identity.
    /// Every block joined from a reachable one becomes reachable.
    struct Reach;
    impl Analysis for Reach {
        type Fact = bool;
        fn boundary(&self) -> bool {
            true
        }
        fn bottom(&self) -> bool {
            false
        }
        fn join(&self, a: &bool, b: &bool) -> bool {
            *a || *b
        }
        fn transfer(&self, _cfg: &Cfg, _block: usize, fact: &bool) -> bool {
            *fact
        }
    }

    #[test]
    fn forward_reachability_covers_loop_blocks() {
        let (_toks, cfg) = build("fn f() { while c() { step(); } tail(); }");
        let reach = solve(&cfg, &Reach);
        // Everything in this body is reachable from entry.
        for (b, r) in reach.iter().enumerate() {
            assert!(
                *r || cfg.blocks[b].tokens.is_empty(),
                "block {b} unreachable"
            );
        }
    }

    /// A counting pseudo-lattice that would grow forever; the solver's
    /// ceiling must turn that into a panic, not a hang.
    struct Diverge;
    impl Analysis for Diverge {
        type Fact = u64;
        fn boundary(&self) -> u64 {
            0
        }
        fn bottom(&self) -> u64 {
            0
        }
        fn join(&self, a: &u64, b: &u64) -> u64 {
            *a.max(b)
        }
        fn transfer(&self, _cfg: &Cfg, _block: usize, fact: &u64) -> u64 {
            fact + 1
        }
    }

    #[test]
    #[should_panic(expected = "did not settle")]
    fn non_monotone_lattice_panics_instead_of_hanging() {
        let (_toks, cfg) = build("fn f() { loop { tick(); } }");
        let _ = solve(&cfg, &Diverge);
    }
}
