//! `std::collections::{HashMap, HashSet}` with per-process order.

pub fn index(xs: &[u64]) -> usize {
    let map: std::collections::HashMap<u64, usize> = // ban: std::collections::HashMap
        xs.iter().enumerate().map(|(i, &x)| (x, i)).collect();
    let set: std::collections::HashSet<u64> = xs.iter().copied().collect(); // ban: std::collections::HashSet
    map.len() + set.len()
}
