//! The epoch ledger: the split-brain write fence.
//!
//! A promoted standby bumps the epoch in RFC 1982 serial order; every
//! downstream writer check (each access node in the simulation) keeps one
//! [`EpochLedger`] and accepts a write only if the ledger does, so a zombie
//! controller that survives a network partition can never land a stale
//! GsoTmmbr/GTMB or rule set on the conference.

use gso_rtp::epoch_newer;

/// Record of which `(writer, epoch)` is allowed to write, generic over the
/// writer id `W` (a simulator node id, a test's shard label, …).
///
/// The safety kernel of split-brain fencing: a write is accepted iff it
/// carries the live epoch from the live writer, or a strictly newer epoch
/// (which atomically transfers liveness to the writer). Two writers can
/// therefore never both have accepted writes at the same epoch, and once
/// a successor's epoch is seen, every write from the fenced predecessor
/// is rejected forever (RFC 1982 ordering, so u32 wraparound is safe).
#[derive(Debug)]
pub struct EpochLedger<W> {
    live: Option<(W, u32)>,
    fenced: u64,
}

impl<W> Default for EpochLedger<W> {
    fn default() -> Self {
        EpochLedger { live: None, fenced: 0 }
    }
}

impl<W: Copy + PartialEq> EpochLedger<W> {
    /// A ledger that has seen no writer yet.
    pub fn new() -> Self {
        EpochLedger::default()
    }

    /// Attempt a write from `writer` at `epoch`. Returns `true` when the
    /// write is accepted (and `writer` becomes/stays the live writer),
    /// `false` when it is fenced off.
    ///
    /// This is the takeover hot path: every controller write crosses it,
    /// and a promotion transfers liveness through it, so it must stay
    /// allocation-free and panic-free.
    // lint: hot_path(shard-takeover)
    pub fn record_write(&mut self, writer: W, epoch: u32) -> bool {
        match self.live {
            None => {
                self.live = Some((writer, epoch));
                true
            }
            Some((live_writer, live_epoch)) => {
                if epoch_newer(epoch, live_epoch) {
                    self.live = Some((writer, epoch));
                    true
                } else if epoch == live_epoch && writer == live_writer {
                    true
                } else {
                    self.fenced += 1;
                    false
                }
            }
        }
    }

    /// The current live writer, if any write has ever been accepted.
    pub fn live(&self) -> Option<(W, u32)> {
        self.live
    }

    /// How many writes this ledger has fenced off.
    pub fn fenced(&self) -> u64 {
        self.fenced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_orders_epochs_serially_across_wrap() {
        let mut ledger = EpochLedger::new();
        assert!(ledger.record_write("s0", u32::MAX - 1));
        assert!(ledger.record_write("s1", u32::MAX), "newer epoch transfers liveness");
        assert!(!ledger.record_write("s0", u32::MAX - 1), "fenced predecessor");
        assert!(ledger.record_write("s0", 0), "wrapped epoch is serially newer");
        assert!(!ledger.record_write("s1", u32::MAX));
        assert!(!ledger.record_write("s1", 0), "same epoch, different writer: fenced");
        assert_eq!(ledger.live(), Some(("s0", 0)));
        assert_eq!(ledger.fenced(), 3);
    }
}
