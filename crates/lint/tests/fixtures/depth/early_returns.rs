//! Loop-depth corpus: early returns and no loop, so every token is at
//! depth 0.

pub fn clamp(n: u64, lo: u64, hi: u64) -> u64 {
    if n < lo {
        return lo;
    }
    if n > hi {
        return hi;
    }
    n
}
