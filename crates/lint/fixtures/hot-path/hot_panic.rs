//! Known-bad fixture: panic-capable sites inside a declared hot root.

// lint: hot_path(fx-panic)
pub fn switch_packet(xs: &[u64]) -> u64 {
    let first = xs.first().unwrap();
    let second = xs[1];
    if *first == 0 {
        panic!("zero divisor");
    }
    first + second
}
