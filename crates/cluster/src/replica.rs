//! Delta replication of controller state from an active shard to its
//! standby.
//!
//! Each solving tick the active shard diffs its current
//! [`ClientSnapshot`] set against what it last shipped and emits a bounded
//! [`SnapshotDelta`] — changed clients, removed clients, and a digest of
//! the *post-apply* state so the standby can detect divergence from lost,
//! truncated, or reordered deltas. The standby's [`StandbyReplica`] applies
//! deltas in sequence; any gap or digest mismatch makes it request a full
//! snapshot (`base_seq == 0`) instead of silently drifting, because a
//! promoted standby rebuilds the controller's global picture from exactly
//! this replica.

use gso_control::ClientSnapshot;
use gso_telemetry::{keys, Telemetry};
use gso_util::digest::{StableHasher, StateDigest};
use gso_util::ClientId;
use std::collections::BTreeMap;

/// One replication message: apply on top of `base_seq` to reach `seq`.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotDelta {
    /// Epoch of the publishing shard (fencing: replicas ignore deltas from
    /// epochs older than what they have already accepted).
    pub epoch: u32,
    /// Sequence this delta applies on top of. `0` marks a full snapshot:
    /// `changed` is the entire client set and `removed` is empty.
    pub base_seq: u64,
    /// Sequence reached after applying this delta.
    pub seq: u64,
    /// Clients added or modified since `base_seq`.
    pub changed: Vec<ClientSnapshot>,
    /// Clients that left since `base_seq`.
    pub removed: Vec<ClientId>,
    /// Stable digest of the publisher's full client map *after* this
    /// delta; the replica verifies its own post-apply state against it.
    pub digest: u64,
}

impl SnapshotDelta {
    /// True for a full-state snapshot (`base_seq == 0`).
    pub fn is_full(&self) -> bool {
        self.base_seq == 0
    }
}

impl StateDigest for SnapshotDelta {
    fn digest(&self, h: &mut StableHasher) {
        self.epoch.digest(h);
        self.base_seq.digest(h);
        self.seq.digest(h);
        self.changed.digest(h);
        self.removed.digest(h);
        self.digest.digest(h);
    }
}

fn full_digest(clients: &BTreeMap<ClientId, ClientSnapshot>) -> u64 {
    clients.state_digest()
}

/// Active-shard side: diffs successive snapshot sets into bounded deltas.
#[derive(Debug)]
pub struct SnapshotPublisher {
    seq: u64,
    last: BTreeMap<ClientId, ClientSnapshot>,
    /// Next emission must be a full snapshot (first tick, or after the
    /// standby reported a gap / digest mismatch).
    pending_full: bool,
    /// Change-entry budget per delta (changed + removed); excess spills to
    /// the next tick so one delta never balloons past the wire budget.
    max_changes: usize,
}

impl SnapshotPublisher {
    /// A publisher emitting at most `max_changes` change entries per delta.
    pub fn new(max_changes: usize) -> Self {
        SnapshotPublisher {
            seq: 0,
            last: BTreeMap::new(),
            pending_full: true,
            max_changes: max_changes.max(1),
        }
    }

    /// Sequence of the last emitted delta.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Force the next emission to be a full snapshot (standby reported a
    /// gap, or a fresh standby attached).
    pub fn request_full(&mut self) {
        self.pending_full = true;
    }

    /// Diff `current` against the last shipped state. Returns `None` when
    /// nothing changed (and no full snapshot is pending); otherwise one
    /// bounded delta, with any overflow deferred to the next tick.
    pub fn tick(&mut self, epoch: u32, current: &[ClientSnapshot]) -> Option<SnapshotDelta> {
        let current: BTreeMap<ClientId, ClientSnapshot> =
            current.iter().map(|c| (c.client, c.clone())).collect();

        if self.pending_full {
            self.pending_full = false;
            self.last = current;
            self.seq += 1;
            return Some(SnapshotDelta {
                epoch,
                base_seq: 0,
                seq: self.seq,
                changed: self.last.values().cloned().collect(),
                removed: Vec::new(),
                digest: full_digest(&self.last),
            });
        }

        let mut changed = Vec::new();
        let mut removed = Vec::new();
        let mut budget = self.max_changes;
        // BTreeMap iteration makes the diff order (and thus the spill
        // schedule) deterministic.
        for (id, snap) in &current {
            if budget == 0 {
                break;
            }
            if self.last.get(id) != Some(snap) {
                changed.push(snap.clone());
                budget -= 1;
            }
        }
        for id in self.last.keys() {
            if budget == 0 {
                break;
            }
            if !current.contains_key(id) {
                removed.push(*id);
                budget -= 1;
            }
        }
        if changed.is_empty() && removed.is_empty() {
            return None;
        }
        // Commit only what this delta carries; leftovers re-diff next tick.
        for snap in &changed {
            self.last.insert(snap.client, snap.clone());
        }
        for id in &removed {
            self.last.remove(id);
        }
        let base_seq = self.seq;
        self.seq += 1;
        Some(SnapshotDelta {
            epoch,
            base_seq,
            seq: self.seq,
            changed,
            removed,
            digest: full_digest(&self.last),
        })
    }
}

/// Result of applying one delta to a [`StandbyReplica`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// Delta accepted; replica advanced to its sequence.
    Applied,
    /// Stale-epoch delta from a fenced publisher; dropped.
    Stale,
    /// Sequence gap or digest mismatch — the replica rolled the delta back
    /// and the caller must ask the publisher for a full snapshot.
    NeedFull,
}

/// Standby-side mirror of the active shard's client state.
#[derive(Debug)]
pub struct StandbyReplica {
    label: String,
    seq: u64,
    epoch: u32,
    clients: BTreeMap<ClientId, ClientSnapshot>,
    telemetry: Telemetry,
}

impl StandbyReplica {
    /// An empty replica for the shard named `label` (telemetry label).
    pub fn new(label: impl Into<String>) -> Self {
        StandbyReplica {
            label: label.into(),
            seq: 0,
            epoch: 0,
            clients: BTreeMap::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach a metrics registry (replication-gap counter).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Sequence of the last applied delta.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Epoch of the publisher this replica last accepted state from.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Number of mirrored clients.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// True when no client state has been replicated yet.
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// Apply one delta. Full snapshots always reset the replica; partial
    /// deltas must extend the current sequence exactly and reproduce the
    /// publisher's post-apply digest, otherwise the replica reports
    /// [`ApplyOutcome::NeedFull`] without mutating its state.
    pub fn apply(&mut self, delta: &SnapshotDelta) -> ApplyOutcome {
        use gso_rtp::epoch_newer;
        if epoch_newer(self.epoch, delta.epoch) {
            return ApplyOutcome::Stale;
        }
        if delta.is_full() {
            self.clients = delta.changed.iter().map(|c| (c.client, c.clone())).collect();
            self.seq = delta.seq;
            self.epoch = delta.epoch;
            if full_digest(&self.clients) != delta.digest {
                // A corrupted full snapshot still replaces nothing useful;
                // flag it and ask again.
                self.note_gap();
                return ApplyOutcome::NeedFull;
            }
            return ApplyOutcome::Applied;
        }
        if delta.base_seq != self.seq {
            self.note_gap();
            return ApplyOutcome::NeedFull;
        }
        let mut next = self.clients.clone();
        for snap in &delta.changed {
            next.insert(snap.client, snap.clone());
        }
        for id in &delta.removed {
            next.remove(id);
        }
        if full_digest(&next) != delta.digest {
            self.note_gap();
            return ApplyOutcome::NeedFull;
        }
        self.clients = next;
        self.seq = delta.seq;
        self.epoch = delta.epoch;
        ApplyOutcome::Applied
    }

    fn note_gap(&mut self) {
        self.telemetry.incr(keys::CLUSTER_REPLICATION_GAPS, &self.label);
    }

    /// The mirrored client set, in client-id order — exactly what a
    /// promoted shard feeds back into a fresh controller.
    pub fn snapshots(&self) -> Vec<ClientSnapshot> {
        self.clients.values().cloned().collect()
    }
}

impl StateDigest for StandbyReplica {
    fn digest(&self, h: &mut StableHasher) {
        self.seq.digest(h);
        self.epoch.digest(h);
        self.clients.digest(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gso_algo::{Ladder, Resolution, SourceId, StreamSpec};
    use gso_control::SubscribeIntent;
    use gso_util::{Bitrate, StreamKind};

    fn snap(id: u32, kbps: u64) -> ClientSnapshot {
        let ladder = Ladder::new(vec![
            StreamSpec::new(Resolution::R180, Bitrate::from_kbps(100), 100.0),
            StreamSpec::new(Resolution::R720, Bitrate::from_kbps(1500), 1200.0),
        ])
        .unwrap();
        ClientSnapshot {
            client: ClientId(id),
            ladders: vec![(StreamKind::Video, ladder)],
            intents: vec![SubscribeIntent {
                source: SourceId::video(ClientId(id ^ 1)),
                max_resolution: Resolution::R720,
                tag: 0,
            }],
            uplink: Bitrate::from_kbps(kbps),
            downlink: Bitrate::from_kbps(kbps * 2),
        }
    }

    #[test]
    fn full_then_incremental_round_trip() {
        let mut publisher = SnapshotPublisher::new(64);
        let mut replica = StandbyReplica::new("s0");

        let state = vec![snap(1, 500), snap(2, 700)];
        let full = publisher.tick(0, &state).expect("first tick emits full snapshot");
        assert!(full.is_full());
        assert_eq!(replica.apply(&full), ApplyOutcome::Applied);
        assert_eq!(replica.snapshots(), state);

        // No change: nothing to ship.
        assert!(publisher.tick(0, &state).is_none());

        // Modify one client, add one, remove one.
        let state = vec![snap(1, 900), snap(3, 300)];
        let delta = publisher.tick(0, &state).expect("diff emits a delta");
        assert!(!delta.is_full());
        assert_eq!(delta.changed.len(), 2);
        assert_eq!(delta.removed, vec![ClientId(2)]);
        assert_eq!(replica.apply(&delta), ApplyOutcome::Applied);
        assert_eq!(replica.snapshots(), state);
        assert_eq!(replica.seq(), publisher.seq());
    }

    #[test]
    fn truncated_stream_detected_and_recovered_by_full_snapshot() {
        let mut publisher = SnapshotPublisher::new(64);
        let mut replica = StandbyReplica::new("s0");
        replica.apply(&publisher.tick(0, &[snap(1, 500)]).unwrap());

        // Delta 2 is lost in transit; delta 3 arrives against the wrong
        // base and must be refused without corrupting the replica.
        let _lost = publisher.tick(0, &[snap(1, 600)]).unwrap();
        let next = publisher.tick(0, &[snap(1, 600), snap(2, 200)]).unwrap();
        let before = replica.state_digest();
        assert_eq!(replica.apply(&next), ApplyOutcome::NeedFull);
        assert_eq!(replica.state_digest(), before, "failed apply must not mutate");

        // Recovery: the publisher re-ships everything.
        publisher.request_full();
        let full = publisher.tick(0, &[snap(1, 600), snap(2, 200)]).unwrap();
        assert!(full.is_full());
        assert_eq!(replica.apply(&full), ApplyOutcome::Applied);
        assert_eq!(replica.snapshots(), vec![snap(1, 600), snap(2, 200)]);
    }

    #[test]
    fn reordered_deltas_detected() {
        let mut publisher = SnapshotPublisher::new(64);
        let mut replica = StandbyReplica::new("s0");
        replica.apply(&publisher.tick(0, &[snap(1, 500)]).unwrap());
        let d2 = publisher.tick(0, &[snap(1, 600)]).unwrap();
        let d3 = publisher.tick(0, &[snap(1, 700)]).unwrap();
        // d3 before d2: gap. d2 after the failed d3: applies. d3 again:
        // applies, converging to the publisher state.
        assert_eq!(replica.apply(&d3), ApplyOutcome::NeedFull);
        assert_eq!(replica.apply(&d2), ApplyOutcome::Applied);
        assert_eq!(replica.apply(&d3), ApplyOutcome::Applied);
        assert_eq!(replica.snapshots(), vec![snap(1, 700)]);
    }

    #[test]
    fn stale_epoch_delta_ignored() {
        let mut old_pub = SnapshotPublisher::new(64);
        let mut new_pub = SnapshotPublisher::new(64);
        let mut replica = StandbyReplica::new("s0");
        // Replica has accepted epoch 5 state.
        replica.apply(&new_pub.tick(5, &[snap(1, 500)]).unwrap());
        // A zombie publisher still on epoch 4 keeps streaming.
        let stale = old_pub.tick(4, &[snap(9, 100)]).unwrap();
        assert_eq!(replica.apply(&stale), ApplyOutcome::Stale);
        assert_eq!(replica.epoch(), 5);
        assert_eq!(replica.snapshots(), vec![snap(1, 500)]);
    }

    #[test]
    fn bounded_delta_spills_to_next_tick() {
        let mut publisher = SnapshotPublisher::new(2);
        let mut replica = StandbyReplica::new("s0");
        replica.apply(&publisher.tick(0, &[]).unwrap());

        // Five new clients with a budget of two per delta: three deltas,
        // each internally consistent (digest matches its partial commit).
        let state: Vec<_> = (1..=5).map(|i| snap(i, 100 * u64::from(i))).collect();
        let mut deltas = 0;
        while let Some(d) = publisher.tick(0, &state) {
            assert!(d.changed.len() + d.removed.len() <= 2, "budget respected");
            assert_eq!(replica.apply(&d), ApplyOutcome::Applied);
            deltas += 1;
            assert!(deltas <= 5, "must converge");
        }
        assert_eq!(deltas, 3);
        assert_eq!(replica.snapshots(), state);
    }

    #[test]
    fn corrupted_digest_rejected() {
        let mut publisher = SnapshotPublisher::new(64);
        let mut replica = StandbyReplica::new("s0");
        replica.apply(&publisher.tick(0, &[snap(1, 500)]).unwrap());
        let mut d = publisher.tick(0, &[snap(1, 600)]).unwrap();
        d.digest ^= 0xdead_beef;
        assert_eq!(replica.apply(&d), ApplyOutcome::NeedFull);
        assert_eq!(replica.snapshots(), vec![snap(1, 500)], "state untouched");
    }
}
