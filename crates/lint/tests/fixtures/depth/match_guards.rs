//! Loop-depth corpus: a guard conditions its match arm without
//! introducing any loop, so every token is at depth 0.

pub fn classify(n: u64, hot: bool) -> u64 {
    match n {
        0 => 1,
        v if hot => v * 2,
        v => v,
    }
}
