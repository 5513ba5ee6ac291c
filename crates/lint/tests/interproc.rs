#![allow(clippy::expect_used, clippy::unwrap_used)] // test code

//! Workspace-level contracts for the call-graph rule: pool-closure
//! purity with witness chains across files, and ambiguous calls that
//! could reach impure state.

use eua_lint::{lint_sources, FileLint};

fn ws(sources: &[(&str, &str)]) -> Vec<FileLint> {
    let owned: Vec<(String, String)> = sources
        .iter()
        .map(|(p, t)| ((*p).to_string(), (*t).to_string()))
        .collect();
    lint_sources(&owned)
}

/// All `(code, message)` pairs across the workspace, in file order.
fn findings(lint: &[FileLint]) -> Vec<(&'static str, String)> {
    lint.iter()
        .flat_map(|f| f.report.diagnostics.iter())
        .map(|d| (d.code.as_str(), d.message.clone()))
        .collect()
}

#[test]
fn pool_closure_witness_chain_crosses_files() {
    let lint = ws(&[
        (
            "sweep.rs",
            "pub fn sweep(cells: Vec<u64>) -> Vec<u64> {\n\
                 map_parallel(cells, |seed| seed + stamp())\n\
             }\n",
        ),
        (
            "counter.rs",
            "pub fn stamp() -> u64 {\n\
                 next_tick()\n\
             }\n\
             fn next_tick() -> u64 {\n\
                 TICKS.with(|t| *t.borrow())\n\
             }\n",
        ),
    ]);
    let all = findings(&lint);
    assert_eq!(all.len(), 1, "{all:?}");
    assert_eq!(all[0].0, "lint-pool-closure-impure");
    assert!(
        all[0].1.contains("via stamp → next_tick"),
        "witness chain not rendered: {}",
        all[0].1
    );
    // The finding lands at the call site, in the closure's file.
    assert_eq!(lint[0].report.diagnostics.len(), 1);
}

/// A call the resolver cannot pin to one function still counts against
/// the closure's purity when any candidate is impure.
#[test]
fn ambiguous_call_with_an_impure_candidate_is_impure() {
    let body = "struct Alpha { n: u64 }\n\
                struct Beta { hits: RefCell<u64> }\n\
                impl Alpha {\n\
                    fn refresh(&self) -> u64 { self.n }\n\
                }\n\
                impl Beta {\n\
                    fn refresh(&self) -> u64 { *self.hits.borrow() }\n\
                }\n\
                pub fn sweep(cells: Vec<u64>, widget: &Alpha) -> Vec<u64> {\n\
                    map_parallel(cells, |seed| seed + widget.refresh())\n\
                }\n";
    let lint = ws(&[("amb.rs", body)]);
    let all = findings(&lint);
    assert_eq!(all.len(), 1, "{all:?}");
    assert_eq!(all[0].0, "lint-pool-closure-impure");
    assert!(
        all[0]
            .1
            .contains("may reach (`refresh` is ambiguous: 2 candidates)"),
        "{}",
        all[0].1
    );
    assert!(all[0].1.contains("via Beta::refresh"), "{}", all[0].1);
    assert_eq!(
        lint[0].report.diagnostics[0].entity.as_deref(),
        Some("Beta::refresh")
    );
}
