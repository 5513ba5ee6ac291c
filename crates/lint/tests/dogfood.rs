#![allow(clippy::expect_used, clippy::unwrap_used)] // test code

//! The dogfood gate: the workspace's own first-party sources must lint
//! clean. This is the same scan `ci.sh` runs; having it as a test keeps
//! `cargo test` sufficient to catch a new hazard before CI does.

use eua_lint::{lint_roots, DEFAULT_ROOTS};

#[test]
fn workspace_sources_lint_clean() {
    let ws = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let roots: Vec<std::path::PathBuf> = DEFAULT_ROOTS
        .iter()
        .map(|r| ws.join(r))
        .filter(|p| p.exists())
        .collect();
    assert!(!roots.is_empty(), "no scan roots under {}", ws.display());
    let lints = lint_roots(&roots).expect("workspace readable");
    assert!(lints.len() > 50, "suspiciously few files: {}", lints.len());
    let dirty: Vec<String> = lints
        .iter()
        .filter(|l| !l.diagnostics.is_empty())
        .map(|l| l.render_text())
        .collect();
    assert!(dirty.is_empty(), "{}", dirty.join("\n"));
}
