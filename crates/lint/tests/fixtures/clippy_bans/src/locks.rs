//! `std::sync::{Mutex, RwLock, Condvar}`: state a pool closure could
//! share with its sibling cells.

pub struct Shared {
    pub tally: std::sync::Mutex<u64>, // ban: std::sync::Mutex
    pub table: std::sync::RwLock<Vec<u64>>, // ban: std::sync::RwLock
    pub ready: std::sync::Condvar, // ban: std::sync::Condvar
}
