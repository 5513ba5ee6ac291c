//! Loop-depth corpus: three nested loops — `for` over `while` over
//! `loop` — with a depth staircase to 3. The innermost body ends in an
//! unconditional `break`; it is still lexically at depth 3.

pub fn drain(rows: &[u64]) -> u64 {
    let mut total = 0;
    for row in rows {
        let mut left = *row;
        while left > 0 {
            loop {
                total += 1;
                break;
            }
            left -= 1;
        }
    }
    total
}
