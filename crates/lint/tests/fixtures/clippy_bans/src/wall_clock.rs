//! `std::time::{Instant, SystemTime}` and their `now` constructors.

pub fn stamp() -> usize {
    let started: Option<std::time::Instant> = None; // ban: std::time::Instant
    let epoch: Option<std::time::SystemTime> = None; // ban: std::time::SystemTime
    let _ = std::time::Instant::now(); // ban: std::time::Instant::now
    let _ = std::time::SystemTime::now(); // ban: std::time::SystemTime::now
    usize::from(started.is_some()) + usize::from(epoch.is_some())
}
