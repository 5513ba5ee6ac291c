//! `std::thread::{spawn, scope, Builder}` outside the worker pool.

pub fn fan_out(work: fn()) {
    let _ = std::thread::spawn(work).join();
    std::thread::scope(|s| {
        s.spawn(work);
    });
    let _ = std::thread::Builder::new().spawn(work);
}
