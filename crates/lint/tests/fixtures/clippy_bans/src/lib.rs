//! Deliberate violations of the `clippy.toml` determinism bans. Each
//! violating line ends with a `// ban: <path>` marker naming the banned
//! path it must trip.

pub mod atomics;
pub mod channels;
pub mod hash_collection;
pub mod locks;
pub mod once_cells;
pub mod thread_local;
pub mod thread_spawn;
pub mod time_unit;
pub mod wall_clock;
