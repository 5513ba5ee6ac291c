//! Loop-depth corpus: a labeled break out of the inner of two `for`
//! loops; the inner body is at depth 2, and the tail after both loops
//! is back at 0.

pub fn probe(grid: &[Vec<u64>], want: u64) -> bool {
    let mut hit = false;
    'rows: for row in grid {
        for cell in row {
            if *cell == want {
                hit = true;
                break 'rows;
            }
        }
    }
    hit
}
