//! `std::collections::{HashMap, HashSet}` with per-process order.

use std::collections::{HashMap, HashSet};

pub fn index(xs: &[u64]) -> (HashMap<u64, usize>, HashSet<u64>) {
    let map = xs.iter().enumerate().map(|(i, &x)| (x, i)).collect();
    (map, xs.iter().copied().collect())
}
