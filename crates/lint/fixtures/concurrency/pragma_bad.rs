//! Known-bad fixture: pragma abuse. An unknown rule name, a pragma with
//! no reason, and a pragma with no matching finding — each is itself a
//! violation, so the exemption list cannot rot silently.

use std::sync::atomic::{AtomicU64, Ordering};

static HITS: AtomicU64 = AtomicU64::new(0);

pub fn wrong_rule() {
    // lint: allow(atomic-sloppiness, reason = "no such rule id")
    HITS.fetch_add(1, Ordering::Relaxed);
}

pub fn missing_reason() {
    // lint: allow(atomics-policy)
    HITS.fetch_add(1, Ordering::Relaxed);
}

pub fn unused_pragma() -> u64 {
    // lint: allow(lock-order, reason = "there is no finding here")
    HITS.load(Ordering::SeqCst)
}
