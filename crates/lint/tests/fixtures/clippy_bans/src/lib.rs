//! Deliberate violations of the `clippy.toml` determinism bans.

pub mod hash_collection;
pub mod thread_spawn;
pub mod time_unit;
pub mod wall_clock;
