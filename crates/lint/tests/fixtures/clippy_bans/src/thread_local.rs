//! `std::thread_local!`: state that differs between pool workers.

std::thread_local! { // ban: std::thread_local
    pub static TICKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}
