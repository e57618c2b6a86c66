//! gso-cluster: controller failover primitives for GSO-Simulcast.
//!
//! The paper's conference node is a single logical controller, and a
//! controller crash must not take its conference down for longer than the
//! §7 recovery budget: a **standby** takes over. The simulation's
//! `ConferenceNode` (active and standby roles) and `AccessNode` (the
//! fence) in `gso-sim` run the three mechanisms this crate supplies, all on
//! the deterministic sim clock:
//!
//! * [`lease`] — heartbeat/lease failure detection with seeded jitter
//!   ([`FailureDetector`]): a standby declares its active dead only after a
//!   full lease of silence, so transient heartbeat loss never flaps into a
//!   promotion.
//! * [`replica`] — bounded, digest-covered delta replication of controller
//!   state ([`SnapshotPublisher`] / [`StandbyReplica`]): the standby holds
//!   everything a promoted controller needs to re-register every client
//!   without a resync round trip, and detects gaps instead of drifting.
//! * [`ledger`] — the [`EpochLedger`] write fence every access node runs:
//!   promotions bump the epoch in RFC 1982 serial order, and the ledger
//!   accepts a write only from the live `(writer, epoch)` — a zombie
//!   controller on the wrong side of a network partition is fenced, never
//!   merged (split-brain safety).

pub mod lease;
pub mod ledger;
pub mod replica;

pub use lease::{FailureDetector, LeaseConfig};
pub use ledger::EpochLedger;
pub use replica::{ApplyOutcome, SnapshotDelta, SnapshotPublisher, StandbyReplica};
