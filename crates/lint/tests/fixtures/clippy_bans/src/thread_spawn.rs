//! `std::thread::{spawn, scope, Builder}` outside the worker pool.

pub fn fan_out(work: fn()) {
    let _ = std::thread::spawn(work).join(); // ban: std::thread::spawn
    std::thread::scope(|s| { // ban: std::thread::scope
        s.spawn(work);
    });
    let _ = std::thread::Builder::new().spawn(work); // ban: std::thread::Builder
}
