//! `std::sync::mpsc::{channel, sync_channel}`: results that arrive in
//! scheduling order.

pub fn pipes() -> usize {
    let (tx, rx) = std::sync::mpsc::channel::<u64>(); // ban: std::sync::mpsc::channel
    let (sync_tx, sync_rx) = std::sync::mpsc::sync_channel::<u64>(1); // ban: std::sync::mpsc::sync_channel
    drop((tx, sync_tx));
    rx.try_iter().count() + sync_rx.try_iter().count()
}
