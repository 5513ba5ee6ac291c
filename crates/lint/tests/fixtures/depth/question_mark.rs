//! Loop-depth corpus: `?` propagation opens no loop, so every token is
//! at depth 0.

pub fn head_sum(xs: &[u64]) -> Option<u64> {
    let head = xs.first()?;
    let next = xs.get(1)?;
    Some(head.saturating_add(*next))
}
