//! Known-bad fixture: a wall-clock read steering a decision that must
//! replay bit-identically.

pub fn deadline_passed(start: std::time::Instant) -> bool {
    start.elapsed().as_millis() > 5
}

#[cfg(test)]
mod tests {
    // Test code may time itself; this must not fire.
    #[test]
    fn stopwatch() {
        let _ = std::time::Instant::now();
    }
}
