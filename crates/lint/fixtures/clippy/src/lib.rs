//! Known-bad fixture for the determinism bans of the workspace
//! `clippy.toml`: one seeded use each of `HashMap`, `Instant`, `Mutex`,
//! `thread::spawn`, `thread::Builder::spawn` and `mpsc::channel`. Clippy
//! finds that file by walking up from this crate, so `cargo clippy
//! --manifest-path crates/lint/fixtures/clippy/Cargo.toml -- -D warnings`
//! must report every one of them.

use std::collections::HashMap;
use std::sync::Mutex;

/// Hash-ordered collection: its iteration order changes from run to run.
pub fn tally(ids: &[u32]) -> Vec<u32> {
    let mut seen: HashMap<u32, u32> = HashMap::new();
    for &id in ids {
        *seen.entry(id).or_insert(0) += 1;
    }
    seen.into_keys().collect()
}

/// A wall-clock read steering a decision that must replay bit-identically.
pub fn deadline_passed(start: std::time::Instant) -> bool {
    start.elapsed().as_millis() > 5
}

/// Results appended in whichever order the callers won the lock.
pub fn record(log: &Mutex<Vec<u64>>, value: u64) {
    if let Ok(mut log) = log.lock() {
        log.push(value);
    }
}

/// Results merged in thread-completion order, from threads spawned
/// directly and through a `Builder`.
pub fn solve_all(jobs: Vec<u64>) -> Vec<u64> {
    let (tx, rx) = std::sync::mpsc::channel();
    for job in jobs {
        let tx = tx.clone();
        std::thread::spawn(move || tx.send(job * 2));
    }
    let late = tx.clone();
    let _ = std::thread::Builder::new().spawn(move || late.send(0));
    drop(tx);
    rx.iter().collect()
}
