//! `std::sync::{OnceLock, LazyLock}`: globals whose first writer
//! depends on which worker got there first.

pub static FIRST: std::sync::OnceLock<u64> = std::sync::OnceLock::new(); // ban: std::sync::OnceLock
pub static LAZY: std::sync::LazyLock<u64> = std::sync::LazyLock::new(|| 7); // ban: std::sync::LazyLock
