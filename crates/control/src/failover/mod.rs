//! Controller failover primitives (§7).
//!
//! The paper's conference node is a single logical controller, and a
//! controller crash must not take its conference down for longer than the
//! §7 recovery budget: a **standby** takes over. The simulation's
//! `ConferenceNode` (active and standby roles) and `AccessNode` (the
//! fence) in `gso-sim` run the two mechanisms this module supplies, both on
//! the deterministic sim clock:
//!
//! * [`lease`] — heartbeat/lease failure detection with seeded jitter
//!   ([`FailureDetector`]): a standby declares its active dead only after a
//!   full lease of silence, so transient heartbeat loss never flaps into a
//!   promotion.
//! * [`ledger`] — the [`EpochLedger`] write fence every access node runs:
//!   promotions bump the epoch in RFC 1982 serial order, and the ledger
//!   accepts a write only from the live `(writer, epoch)` — a zombie
//!   controller on the wrong side of a network partition is fenced, never
//!   merged (split-brain safety).
//!
//! A promoted standby holds no copy of the dead controller's state: it
//! rebuilds its picture exactly like a restarted controller, from the
//! client state every access node caches and returns on an epoch-stamped
//! resync.

pub mod lease;
pub mod ledger;

pub use lease::{FailureDetector, LeaseConfig};
pub use ledger::EpochLedger;
