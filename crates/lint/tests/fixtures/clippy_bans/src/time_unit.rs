//! `std::time::Duration` in place of integer microseconds.

pub fn pause(ms: u64) -> std::time::Duration {
    std::time::Duration::from_millis(ms)
}
