//! Fixture: trips `lint-unused-suppression` only (the allow names a
//! real code but the covered line is already clean).

// eua-lint: allow(lint-loop-alloc)
fn already_clean() -> u32 {
    7
}
