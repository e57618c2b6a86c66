//! Known-bad fixture: ambient randomness instead of the seeded RNG.

pub fn jitter_ms() -> u64 {
    let roll: u64 = rand::random();
    roll % 10
}
