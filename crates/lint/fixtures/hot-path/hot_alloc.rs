//! Known-bad fixture: allocations inside a hot cone.

// lint: hot_path(fx-alloc)
pub fn tick(xs: &[u64]) -> Vec<u64> {
    let mut out = Vec::new();
    for &x in xs {
        out.push(x);
    }
    out
}
