//! `std::time::{Instant, SystemTime}` and their `now` constructors.

pub fn stamp() -> (std::time::Instant, std::time::SystemTime) {
    (std::time::Instant::now(), std::time::SystemTime::now())
}
