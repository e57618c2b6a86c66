//! Known-bad fixture: a panic two calls below the declared root. Exercises
//! the call-graph BFS — neither `middle` nor `leaf` carries a marker.

// lint: hot_path(fx-deep)
pub fn root(xs: &[u64]) -> u64 {
    middle(xs)
}

fn middle(xs: &[u64]) -> u64 {
    leaf(xs)
}

fn leaf(xs: &[u64]) -> u64 {
    xs[0]
}
