//! The sharded controller cluster: partitioned fleets, standby promotion,
//! and the epoch ledger that makes split-brain writes impossible.
//!
//! Each [`Shard`] owns a partition of conferences inside one
//! [`ControllerFleet`] and streams per-conference [`SnapshotDelta`]s to its
//! standby every solving tick. A [`FailureDetector`] watches the shard's
//! heartbeats; on lease expiry the standby is promoted under a bumped
//! epoch (RFC 1982 serial order) and rebuilds every controller from its
//! replicas. The [`EpochLedger`] is the write-side fence: downstream state
//! (access nodes, in the full simulation) accepts a write only if the
//! ledger does, so a zombie shard that survives a network partition can
//! never land a stale GsoTmmbr/GTMB on the conference.

use crate::lease::{FailureDetector, LeaseConfig};
use crate::replica::{ApplyOutcome, SnapshotPublisher, StandbyReplica};
use gso_algo::BatchConfig;
use gso_control::{ControllerConfig, ControllerFleet, FleetTick, GsoController};
use gso_rtp::epoch_newer;
use gso_telemetry::{keys, Telemetry};
use gso_util::digest::{StableHasher, StateDigest};
use gso_util::{SimTime, Ssrc};

/// Identifies one shard (one partition of conferences).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u32);

impl std::fmt::Display for ShardId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl StateDigest for ShardId {
    fn digest(&self, h: &mut StableHasher) {
        self.0.digest(h);
    }
}

/// Per-partition record of which `(shard, epoch)` is allowed to write.
///
/// The safety kernel of split-brain fencing: a write is accepted iff it
/// carries the live epoch from the live shard, or a strictly newer epoch
/// (which atomically transfers liveness to the writer). Two shards can
/// therefore never both have accepted writes at the same epoch, and once
/// a successor's epoch is seen, every write from the fenced predecessor
/// is rejected forever (RFC 1982 ordering, so u32 wraparound is safe).
#[derive(Debug, Default)]
pub struct EpochLedger {
    live: Option<(ShardId, u32)>,
    fenced: u64,
}

impl EpochLedger {
    /// A ledger that has seen no writer yet.
    pub fn new() -> Self {
        EpochLedger::default()
    }

    /// Attempt a write from `shard` at `epoch`. Returns `true` when the
    /// write is accepted (and `shard` becomes/stays the live writer),
    /// `false` when it is fenced off.
    ///
    /// This is the takeover hot path: every conference write crosses it,
    /// and a promotion transfers liveness through it, so it must stay
    /// allocation-free and panic-free. (The one-shot controller *rebuild*
    /// in `promote` allocates by design and is deliberately not a
    /// sentinel cone.)
    // lint: hot_path(shard-takeover)
    pub fn record_write(&mut self, shard: ShardId, epoch: u32) -> bool {
        match self.live {
            None => {
                self.live = Some((shard, epoch));
                true
            }
            Some((live_shard, live_epoch)) => {
                if epoch_newer(epoch, live_epoch) {
                    self.live = Some((shard, epoch));
                    true
                } else if epoch == live_epoch && shard == live_shard {
                    true
                } else {
                    self.fenced += 1;
                    false
                }
            }
        }
    }

    /// Is `(shard, epoch)` the current live writer?
    pub fn is_live(&self, shard: ShardId, epoch: u32) -> bool {
        self.live == Some((shard, epoch))
    }

    /// The current live writer, if any write has ever been accepted.
    pub fn live(&self) -> Option<(ShardId, u32)> {
        self.live
    }

    /// How many writes this ledger has fenced off.
    pub fn fenced(&self) -> u64 {
        self.fenced
    }
}

impl StateDigest for EpochLedger {
    fn digest(&self, h: &mut StableHasher) {
        match self.live {
            None => h.write_u8(0),
            Some((s, e)) => {
                h.write_u8(1);
                s.digest(h);
                e.digest(h);
            }
        }
        self.fenced.digest(h);
    }
}

/// Cluster-wide policy.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Batch workers per shard fleet.
    pub workers: usize,
    /// Controller policy for every conference.
    pub ctrl: ControllerConfig,
    /// Failure-detector policy for every standby.
    pub lease: LeaseConfig,
    /// Change-entry budget per replication delta.
    pub max_delta_changes: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workers: 1,
            ctrl: ControllerConfig::paper_defaults(),
            lease: LeaseConfig::default(),
            max_delta_changes: 64,
        }
    }
}

/// The standby half of a shard: replicas mirroring each conference plus
/// the failure detector watching the active's heartbeats.
#[derive(Debug)]
struct Standby {
    detector: FailureDetector,
    replicas: Vec<StandbyReplica>,
}

/// One shard: an active fleet owning a partition of conferences, paired
/// with a standby fed by per-conference snapshot deltas.
struct Shard {
    id: ShardId,
    fleet: ControllerFleet,
    epoch: u32,
    alive: bool,
    hb_seq: u64,
    publishers: Vec<SnapshotPublisher>,
    standby: Standby,
    /// Set at promotion; cleared when the promoted fleet first solves.
    promoted_at: Option<SimTime>,
}

/// A sharded controller cluster with standby failover and write fencing.
pub struct ControllerCluster {
    cfg: ClusterConfig,
    shards: Vec<Shard>,
    ledgers: Vec<EpochLedger>,
    telemetry: Telemetry,
}

impl ControllerCluster {
    /// A cluster of `shards` empty shards.
    pub fn new(shards: u32, cfg: ClusterConfig) -> Self {
        let shards = (0..shards)
            .map(|i| {
                let id = ShardId(i);
                let mut lease = cfg.lease.clone();
                // Each standby jitters from its own stream so colocated
                // expirations never collide on one instant.
                lease.seed = lease.seed.wrapping_add(u64::from(i));
                let mut detector = FailureDetector::new(lease, id.to_string());
                detector.arm(SimTime::ZERO);
                Shard {
                    id,
                    fleet: ControllerFleet::new(&BatchConfig { workers: cfg.workers }),
                    epoch: 0,
                    alive: true,
                    hb_seq: 0,
                    publishers: Vec::new(),
                    standby: Standby { detector, replicas: Vec::new() },
                    promoted_at: None,
                }
            })
            .collect::<Vec<_>>();
        let ledgers = shards.iter().map(|_| EpochLedger::new()).collect();
        ControllerCluster { cfg, shards, ledgers, telemetry: Telemetry::disabled() }
    }

    /// Attach a metrics registry, propagated to fleets, detectors, and
    /// replicas.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        for shard in &mut self.shards {
            shard.fleet.set_telemetry(telemetry.clone());
            shard.standby.detector.set_telemetry(telemetry.clone());
            for r in &mut shard.standby.replicas {
                r.set_telemetry(telemetry.clone());
            }
        }
        self.telemetry = telemetry;
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Which shard a conference keyed by `key` lands on (stable hash).
    pub fn shard_of(&self, key: u64) -> ShardId {
        let mut h = StableHasher::new();
        h.write_u64(key);
        ShardId((h.finish() % self.shards.len() as u64) as u32)
    }

    /// Add a conference to `shard`'s partition. Returns the conference
    /// index within the shard.
    pub fn push(&mut self, shard: ShardId, mut controller: GsoController) -> usize {
        let s = &mut self.shards[shard.0 as usize];
        controller.set_epoch(s.epoch);
        controller.set_telemetry(self.telemetry.clone());
        let idx = s.fleet.push(controller);
        s.publishers.push(SnapshotPublisher::new(self.cfg.max_delta_changes));
        let mut replica = StandbyReplica::new(shard.to_string());
        replica.set_telemetry(self.telemetry.clone());
        s.standby.replicas.push(replica);
        idx
    }

    /// Mutable access to one conference's controller (e.g. to feed joins
    /// and reports).
    pub fn controller_mut(&mut self, shard: ShardId, conf: usize) -> Option<&mut GsoController> {
        let s = self.shards.get_mut(shard.0 as usize)?;
        if s.alive {
            s.fleet.get_mut(conf)
        } else {
            None
        }
    }

    /// Current epoch of `shard`.
    pub fn epoch(&self, shard: ShardId) -> u32 {
        self.shards[shard.0 as usize].epoch
    }

    /// Is `shard` alive (not crashed, or already re-promoted)?
    pub fn is_alive(&self, shard: ShardId) -> bool {
        self.shards[shard.0 as usize].alive
    }

    /// Kill a shard: it stops ticking, solving, and heartbeating, exactly
    /// as if the process died. Its standby takes over once the lease runs
    /// out.
    pub fn crash(&mut self, shard: ShardId) {
        self.shards[shard.0 as usize].alive = false;
    }

    /// Tick every live shard's fleet, then replicate each conference's
    /// post-tick state to the standby and renew the lease with a
    /// heartbeat. Returns per-shard fleet outputs.
    pub fn tick_all(&mut self, now: SimTime) -> Vec<(ShardId, Vec<FleetTick>)> {
        let mut out = Vec::new();
        for shard in &mut self.shards {
            if !shard.alive {
                continue;
            }
            let ticks = shard.fleet.tick_all(now);
            shard.hb_seq += 1;
            // Replicate: one delta per conference, applied to the paired
            // replica. A gap answer triggers an immediate full resend —
            // in-process replication cannot drop packets, but the same
            // publisher/replica pair is driven over lossy links by the
            // simulation, where this path earns its keep.
            for (conf, publisher) in shard.publishers.iter_mut().enumerate() {
                let Some(controller) = shard.fleet.get_mut(conf) else { continue };
                let snapshot = controller.picture.snapshot();
                if let Some(delta) = publisher.tick(shard.epoch, &snapshot) {
                    self.telemetry.add(
                        keys::CLUSTER_REPLICATION_BYTES,
                        shard.id.to_string(),
                        delta_cost(&delta),
                    );
                    if shard.standby.replicas[conf].apply(&delta) == ApplyOutcome::NeedFull {
                        publisher.request_full();
                        if let Some(full) = publisher.tick(shard.epoch, &snapshot) {
                            shard.standby.replicas[conf].apply(&full);
                        }
                    }
                }
            }
            shard.standby.detector.heartbeat(now, shard.epoch, shard.hb_seq);
            out.push((shard.id, ticks));
        }
        out
    }

    /// Poll every standby's failure detector; promote on expiry. Returns
    /// the shards promoted this call.
    pub fn check_failover(&mut self, now: SimTime) -> Vec<ShardId> {
        let mut promoted = Vec::new();
        for (i, shard) in self.shards.iter_mut().enumerate() {
            if !shard.standby.detector.check_expired(now) {
                continue;
            }
            promote(shard, &self.cfg, &self.telemetry, now);
            // The promotion is only legitimate if the ledger accepts the
            // bumped epoch — it always does (serially newer than anything
            // the dead shard wrote), and recording it here is what fences
            // the zombie.
            let accepted = self.ledgers[i].record_write(shard.id, shard.epoch);
            debug_assert!(accepted, "a serially bumped epoch is always newer");
            promoted.push(shard.id);
        }
        promoted
    }

    /// Attempt a conference write (GsoTmmbr/GTMB push) from `shard` at
    /// `epoch` against its partition's ledger. Fenced writes bump the
    /// `cluster.fenced` counter.
    pub fn record_write(&mut self, shard: ShardId, epoch: u32) -> bool {
        let ok = self.ledgers[shard.0 as usize].record_write(shard, epoch);
        if !ok {
            self.telemetry.incr(keys::CLUSTER_FENCED, shard.to_string());
        }
        ok
    }

    /// The partition ledger for `shard`.
    pub fn ledger(&self, shard: ShardId) -> &EpochLedger {
        &self.ledgers[shard.0 as usize]
    }

    /// Close a promoted shard's takeover window: record the elapsed time
    /// into the recovery histogram once its fleet produces a real (non
    /// fallback) solution. The simulation calls this after each tick.
    pub fn observe_takeovers(&mut self, now: SimTime) {
        for shard in &mut self.shards {
            let Some(since) = shard.promoted_at else { continue };
            let solved = shard
                .fleet
                .controllers()
                .iter()
                .all(|c| c.last_solution().is_some() && !c.fallback_active());
            if solved {
                shard.promoted_at = None;
                let elapsed = now.saturating_since(since).as_millis();
                self.telemetry.observe(
                    keys::CLUSTER_TAKEOVER_MS,
                    "takeover",
                    elapsed,
                    keys::RECOVERY_MS_BOUNDS,
                );
            }
        }
    }

    /// Stable digest over shard epochs, fleets, replicas, detectors, and
    /// ledgers.
    pub fn state_digest(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_len(self.shards.len());
        for shard in &self.shards {
            shard.id.digest(&mut h);
            shard.epoch.digest(&mut h);
            shard.alive.digest(&mut h);
            shard.hb_seq.digest(&mut h);
            h.write_u64(shard.fleet.state_digest());
            shard.standby.detector.digest(&mut h);
            for r in &shard.standby.replicas {
                r.digest(&mut h);
            }
        }
        for ledger in &self.ledgers {
            ledger.digest(&mut h);
        }
        h.finish()
    }
}

/// Approximate wire cost of a delta, for the replication-bytes counter:
/// per-client snapshot bodies dominate, headers are a fixed overhead.
fn delta_cost(delta: &crate::replica::SnapshotDelta) -> u64 {
    let mut bytes = 29; // epoch + base_seq + seq + digest + counts
    for c in &delta.changed {
        bytes += 24; // client id + uplink + downlink + vec headers
        for (_, ladder) in &c.ladders {
            bytes += 3 + 19 * ladder.specs().len() as u64;
        }
        bytes += 8 * c.intents.len() as u64;
    }
    bytes + 4 * delta.removed.len() as u64
}

/// Promote `shard`'s standby: bump the epoch serially past everything the
/// dead active ever heartbeat, rebuild every conference controller from
/// the standby replicas, and swap the rebuilt fleet in as the new active.
fn promote(shard: &mut Shard, cfg: &ClusterConfig, telemetry: &Telemetry, now: SimTime) {
    let new_epoch = shard.standby.detector.last_epoch().wrapping_add(1);
    let mut fleet = ControllerFleet::new(&BatchConfig { workers: cfg.workers });
    fleet.set_telemetry(telemetry.clone());
    let mut publishers = Vec::new();
    for replica in &shard.standby.replicas {
        let mut controller = GsoController::new(cfg.ctrl.clone(), Ssrc(0xC0DE));
        controller.set_telemetry(telemetry.clone());
        controller.set_epoch(new_epoch);
        for snap in replica.snapshots() {
            controller.on_join(snap.client, gso_control::CodecCapability { ladders: snap.ladders });
            controller.on_subscriptions(snap.client, snap.intents);
            if !snap.uplink.is_zero() {
                controller.on_uplink_report(now, snap.client, snap.uplink);
            }
            if !snap.downlink.is_zero() {
                controller.on_downlink_report(now, snap.client, snap.downlink);
            }
        }
        fleet.push(controller);
        // The promoted shard's first delta to its (fresh) standby is a
        // full snapshot.
        publishers.push(SnapshotPublisher::new(cfg.max_delta_changes));
    }
    shard.fleet = fleet;
    shard.epoch = new_epoch;
    shard.alive = true;
    shard.hb_seq = 0;
    shard.publishers = publishers;
    shard.promoted_at = Some(now);
    // Fresh standby: empty replicas, re-armed detector watching the
    // promoted shard.
    let mut lease = cfg.lease.clone();
    lease.seed = lease.seed.wrapping_add(u64::from(shard.id.0)).wrapping_add(u64::from(new_epoch));
    let mut detector = FailureDetector::new(lease, shard.id.to_string());
    detector.set_telemetry(telemetry.clone());
    detector.arm(now);
    let replicas = shard
        .standby
        .replicas
        .iter()
        .map(|_| {
            let mut r = StandbyReplica::new(shard.id.to_string());
            r.set_telemetry(telemetry.clone());
            r
        })
        .collect();
    shard.standby = Standby { detector, replicas };
    telemetry.incr(keys::CLUSTER_PROMOTIONS, shard.id.to_string());
    telemetry.event(now, keys::EV_CLUSTER_PROMOTED, shard.id.to_string());
}

#[cfg(test)]
mod tests {
    use super::*;
    use gso_algo::{Ladder, Resolution, SourceId, StreamSpec};
    use gso_control::{CodecCapability, SubscribeIntent};
    use gso_util::{Bitrate, ClientId, StreamKind};

    fn ladder() -> Ladder {
        Ladder::new(vec![
            StreamSpec::new(Resolution::R180, Bitrate::from_kbps(100), 100.0),
            StreamSpec::new(Resolution::R360, Bitrate::from_kbps(600), 530.0),
            StreamSpec::new(Resolution::R720, Bitrate::from_kbps(1500), 1200.0),
        ])
        .unwrap()
    }

    fn populate(cluster: &mut ControllerCluster, shard: ShardId, clients: u32) -> usize {
        let conf = cluster
            .push(shard, GsoController::new(ControllerConfig::paper_defaults(), Ssrc(0xC0DE)));
        let c = cluster.controller_mut(shard, conf).unwrap();
        for i in 0..clients {
            let id = ClientId(i + 1);
            c.on_join(id, CodecCapability { ladders: vec![(StreamKind::Video, ladder())] });
            let intents = (0..clients)
                .filter(|&j| j != i)
                .map(|j| SubscribeIntent {
                    source: SourceId::video(ClientId(j + 1)),
                    max_resolution: Resolution::R720,
                    tag: 0,
                })
                .collect();
            c.on_subscriptions(id, intents);
            c.on_uplink_report(SimTime::ZERO, id, Bitrate::from_mbps(6));
            c.on_downlink_report(SimTime::ZERO, id, Bitrate::from_mbps(10));
        }
        conf
    }

    fn run(cluster: &mut ControllerCluster, from_ms: u64, to_ms: u64) {
        let mut t = from_ms;
        while t <= to_ms {
            let now = SimTime::from_millis(t);
            cluster.tick_all(now);
            cluster.check_failover(now);
            cluster.observe_takeovers(now);
            t += 100;
        }
    }

    #[test]
    fn crash_promotes_standby_with_replicated_state() {
        let mut cluster = ControllerCluster::new(1, ClusterConfig::default());
        let conf = populate(&mut cluster, ShardId(0), 3);
        run(&mut cluster, 0, 2_000);
        assert_eq!(cluster.epoch(ShardId(0)), 0);

        cluster.crash(ShardId(0));
        assert!(cluster.controller_mut(ShardId(0), conf).is_none(), "dead shard unreachable");
        run(&mut cluster, 2_100, 4_000);

        // Promoted under a bumped epoch, state rebuilt from the replica.
        assert!(cluster.is_alive(ShardId(0)));
        assert_eq!(cluster.epoch(ShardId(0)), 1);
        let c = cluster.controller_mut(ShardId(0), conf).expect("promoted shard serves again");
        assert_eq!(c.picture.snapshot().len(), 3, "all clients survived the failover");
        assert!(c.last_solution().is_some(), "promoted controller solves");
        assert!(!c.fallback_active());
        assert_eq!(cluster.ledger(ShardId(0)).live(), Some((ShardId(0), 1)));
    }

    #[test]
    fn takeover_happens_within_recovery_bound() {
        let telemetry = Telemetry::new("cluster-test");
        let mut cluster = ControllerCluster::new(1, ClusterConfig::default());
        cluster.set_telemetry(telemetry.clone());
        populate(&mut cluster, ShardId(0), 3);
        run(&mut cluster, 0, 2_000);
        cluster.crash(ShardId(0));
        run(&mut cluster, 2_100, 8_000);

        assert_eq!(telemetry.counter_total(keys::CLUSTER_PROMOTIONS), 1);
        let hist = telemetry
            .histogram(keys::CLUSTER_TAKEOVER_MS, "takeover")
            .expect("takeover window observed");
        assert_eq!(hist.total, 1);
        // RECOVERY_MS_BOUNDS: every sample must land in a bucket with an
        // upper bound <= 5000 ms (the §7 recovery requirement).
        let cutoff = keys::RECOVERY_MS_BOUNDS.partition_point(|&b| b <= 5_000);
        let above: u64 = hist.counts[cutoff..].iter().sum();
        assert_eq!(above, 0, "takeover breached the 5 s §7 bound");
        assert!(hist.sum <= 5_000, "single takeover sample within bound");
    }

    #[test]
    fn zombie_writes_fenced_after_promotion() {
        let mut cluster = ControllerCluster::new(1, ClusterConfig::default());
        let telemetry = Telemetry::new("cluster-test");
        cluster.set_telemetry(telemetry.clone());
        populate(&mut cluster, ShardId(0), 2);
        run(&mut cluster, 0, 1_000);
        // The active establishes itself as the live writer at epoch 0.
        assert!(cluster.record_write(ShardId(0), 0));

        cluster.crash(ShardId(0));
        run(&mut cluster, 1_100, 3_000);
        assert_eq!(cluster.epoch(ShardId(0)), 1);

        // The zombie (partitioned old active) keeps trying at epoch 0.
        assert!(!cluster.record_write(ShardId(0), 0), "stale epoch fenced");
        assert!(cluster.record_write(ShardId(0), 1), "live epoch accepted");
        assert_eq!(cluster.ledger(ShardId(0)).fenced(), 1);
        assert_eq!(telemetry.counter_total(keys::CLUSTER_FENCED), 1);
    }

    #[test]
    fn ledger_orders_epochs_serially_across_wrap() {
        let mut ledger = EpochLedger::new();
        assert!(ledger.record_write(ShardId(0), u32::MAX - 1));
        assert!(ledger.record_write(ShardId(1), u32::MAX), "newer epoch transfers liveness");
        assert!(!ledger.record_write(ShardId(0), u32::MAX - 1), "fenced predecessor");
        assert!(ledger.record_write(ShardId(0), 0), "wrapped epoch is serially newer");
        assert!(!ledger.record_write(ShardId(1), u32::MAX));
        assert!(!ledger.record_write(ShardId(1), 0), "same epoch, different shard: fenced");
        assert_eq!(ledger.live(), Some((ShardId(0), 0)));
        assert_eq!(ledger.fenced(), 3);
    }

    #[test]
    fn multi_shard_failover_is_independent_and_deterministic() {
        let build = || {
            let mut cluster = ControllerCluster::new(2, ClusterConfig::default());
            populate(&mut cluster, ShardId(0), 2);
            populate(&mut cluster, ShardId(1), 3);
            run(&mut cluster, 0, 1_500);
            cluster.crash(ShardId(0));
            run(&mut cluster, 1_600, 4_000);
            cluster
        };
        let a = build();
        assert_eq!(a.epoch(ShardId(0)), 1, "crashed shard failed over");
        assert_eq!(a.epoch(ShardId(1)), 0, "healthy shard untouched");
        assert!(a.is_alive(ShardId(1)));
        assert_eq!(a.state_digest(), build().state_digest(), "failover replays bit-identically");
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let cluster = ControllerCluster::new(4, ClusterConfig::default());
        for key in 0..64u64 {
            let s = cluster.shard_of(key);
            assert!(s.0 < 4);
            assert_eq!(s, cluster.shard_of(key));
        }
    }
}
