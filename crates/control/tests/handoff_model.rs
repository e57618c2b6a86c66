//! Miri model of the split-brain fence.
//!
//! The `model_*` test runs the epoch-fenced write ledger that two writers
//! race after a partition — a zombie shard and its promoted successor — as
//! real cross-thread communication on small, pure data. It runs in seconds
//! under Miri (`cargo miri test -p gso-control --test handoff_model
//! model_`), which checks the pattern for undefined behaviour and data
//! races; the simulation then drives the same ledger type, one per access
//! node, over lossy links in `gso-sim` and `check chaos` (`gso-check`).
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the model races two real threads on one locked ledger; the invariants it asserts hold in every interleaving"
)]

use gso_control::EpochLedger;
use std::sync::{Arc, Mutex};

/// A zombie shard and its promoted successor hammer the shared epoch
/// ledger from two threads. Every acceptance is logged atomically with the
/// write itself; the log must show the split-brain invariants: the zombie
/// is never accepted after the successor's first write, and no epoch is
/// ever owned by both shards.
#[test]
fn model_fencing_race_never_accepts_zombie_after_takeover() {
    const ZOMBIE: &str = "zombie";
    const PROMOTED: &str = "promoted";
    let ledger = Arc::new(Mutex::new((EpochLedger::new(), Vec::<(&str, u32)>::new())));

    std::thread::scope(|s| {
        for (shard, epoch, writes) in [(ZOMBIE, 0u32, 40u32), (PROMOTED, 1, 40)] {
            let ledger = Arc::clone(&ledger);
            s.spawn(move || {
                for _ in 0..writes {
                    let mut guard = ledger.lock().unwrap();
                    let (ledger, log) = &mut *guard;
                    if ledger.record_write(shard, epoch) {
                        log.push((shard, epoch));
                    }
                }
            });
        }
    });

    let guard = ledger.lock().unwrap();
    let (ledger, log) = &*guard;
    // The promoted shard's epoch-1 writes always win; at least one landed.
    assert_eq!(ledger.live(), Some((PROMOTED, 1)));
    let takeover = log
        .iter()
        .position(|&(s, _)| s == PROMOTED)
        .expect("the promoted shard wrote at least once");
    assert!(
        log[takeover..].iter().all(|&(s, _)| s == PROMOTED),
        "a zombie write was accepted after the takeover: {log:?}"
    );
    for &(shard, epoch) in log {
        let owner = if epoch == 0 { ZOMBIE } else { PROMOTED };
        assert_eq!(shard, owner, "epoch {epoch} accepted from two shards");
    }
    // Whatever the interleaving, every zombie attempt after the takeover
    // was fenced.
    let zombie_accepted = log.iter().filter(|&&(s, _)| s == ZOMBIE).count() as u64;
    assert_eq!(ledger.fenced(), 40 - zombie_accepted);
}
