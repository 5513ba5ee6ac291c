//! `std::time::Duration` in place of integer microseconds.

pub fn pause(ms: u64) -> u64 {
    let pause = std::time::Duration::from_millis(ms); // ban: std::time::Duration
    pause.subsec_micros().into()
}
