//! The conference node (control plane, §3).
//!
//! Hosts the [`GsoController`], fed by control messages relayed from
//! accessing nodes: signaling (join/leave/subscribe/speaker), SEMB-derived
//! uplink reports, accessing-node downlink reports, and GTBN
//! acknowledgements. On each controller run it pushes per-client GTMB
//! configurations (via the client's accessing node, in-band) and the
//! forwarding rules to every accessing node.
//!
//! A conference node can also boot as a **standby shard**
//! ([`ConferenceNode::new_standby`]): it mirrors the active's state from
//! replication deltas, watches its heartbeats through a lease-based
//! [`FailureDetector`], and on lease expiry promotes itself under a bumped
//! epoch — rebuilding the controller from the replica and re-homing every
//! accessing node with an epoch-stamped resync. Epoch fencing at the
//! accessing nodes (plus the [`CtrlMessage::Fence`] reply that makes a
//! zombie step down) guarantees at most one writer per conference even
//! under a symmetric network partition.

use crate::ctrl::CtrlMessage;
use crate::SHARD_LABEL;
use gso_cluster::{ApplyOutcome, FailureDetector, LeaseConfig, SnapshotPublisher, StandbyReplica};
use gso_control::{CodecCapability, ControllerConfig, GsoController};
use gso_net::{Actions, Node, NodeId, Packet};
use gso_rtp::{epoch_newer, RtcpPacket};
use gso_telemetry::{keys, Telemetry};
use gso_util::{ClientId, SimDuration, SimTime, Ssrc};
use std::any::Any;
use std::collections::BTreeMap;

const TICK: u64 = 1;
const TICK_INTERVAL: SimDuration = SimDuration::from_millis(100);
/// Timer tokens at or above this bit encode a scheduled speaker change:
/// `SPEAKER_EVENT | 0` clears the speaker, `SPEAKER_EVENT | (id + 1)` sets
/// it. Used by scenarios to script "speaker first" dynamics (§4.4).
pub const SPEAKER_EVENT: u64 = 1 << 32;

/// The conference node.
pub struct ConferenceNode {
    /// The controller (public for post-run inspection: solutions, call
    /// intervals).
    pub controller: GsoController,
    /// Kept to rebuild the controller after a simulated process restart.
    cfg: ControllerConfig,
    /// Accessing nodes to broadcast rules to.
    access_nodes: Vec<NodeId>,
    /// Which accessing node serves each client.
    client_an: BTreeMap<ClientId, NodeId>,
    /// Accessing node that relayed each client's join (learned dynamically).
    default_an: Option<NodeId>,
    /// Crashed: everything is dropped until [`ConferenceNode::restart`].
    down: bool,
    /// Controller generation, bumped on every restart and stamped into
    /// GTMBs so clients can reject stale configs (§7).
    epoch: u32,
    /// Set at restart; cleared when the rebuilt controller first produces a
    /// non-fallback solution (that interval is the recovery time).
    restarted_at: Option<SimTime>,
    /// Standby shard to stream heartbeats and replication deltas to (the
    /// active side of the failover pair; set by the scenario builder).
    standby: Option<NodeId>,
    /// Diffs controller state into bounded deltas for the standby.
    publisher: SnapshotPublisher,
    /// Heartbeat sequence within the current epoch.
    hb_seq: u64,
    /// `Some` while this node is a passive standby; dropped at promotion.
    standby_role: Option<StandbyRole>,
    /// Set at promotion; cleared when the promoted controller first
    /// produces a non-fallback solution (that interval is the takeover
    /// time, recorded on `cluster.takeover_ms`).
    promoted_at: Option<SimTime>,
    telemetry: Telemetry,
}

/// The passive half of a failover pair: a lease detector watching the
/// active's heartbeats plus a replica mirroring its controller state.
struct StandbyRole {
    detector: FailureDetector,
    replica: StandbyReplica,
    /// Where the last heartbeat/delta came from (the active shard), for
    /// addressing `SnapshotNack` replies.
    active: Option<NodeId>,
}

/// Replication change-entry budget per delta (see `gso-cluster`).
const MAX_DELTA_CHANGES: usize = 64;

impl ConferenceNode {
    /// Build a conference node that will broadcast rules to `access_nodes`.
    pub fn new(cfg: ControllerConfig, access_nodes: Vec<NodeId>) -> Self {
        ConferenceNode {
            controller: GsoController::new(cfg.clone(), Ssrc(0xC0DE)),
            cfg,
            access_nodes,
            client_an: BTreeMap::new(),
            default_an: None,
            down: false,
            epoch: 0,
            restarted_at: None,
            telemetry: Telemetry::disabled(),
            standby: None,
            publisher: SnapshotPublisher::new(MAX_DELTA_CHANGES),
            hb_seq: 0,
            standby_role: None,
            promoted_at: None,
        }
    }

    /// Build a **standby** conference node: passive until the active
    /// shard's lease expires, then promoted in its place. `lease` seeds the
    /// failure detector's deterministic jitter stream.
    pub fn new_standby(
        cfg: ControllerConfig,
        access_nodes: Vec<NodeId>,
        lease: LeaseConfig,
    ) -> Self {
        let mut node = ConferenceNode::new(cfg, access_nodes);
        let mut detector = FailureDetector::new(lease, SHARD_LABEL);
        detector.arm(SimTime::ZERO);
        node.standby_role =
            Some(StandbyRole { detector, replica: StandbyReplica::new(SHARD_LABEL), active: None });
        node
    }

    /// Point the active shard at its standby (heartbeat + delta target).
    pub fn set_standby(&mut self, standby: NodeId) {
        self.standby = Some(standby);
    }

    /// Is this node still a passive standby?
    pub fn is_standby(&self) -> bool {
        self.standby_role.is_some()
    }

    /// Attach a metrics registry to the embedded controller (and its
    /// feedback executor).
    pub fn set_telemetry(&mut self, telemetry: gso_telemetry::Telemetry) {
        self.telemetry = telemetry.clone();
        if let Some(role) = &mut self.standby_role {
            role.detector.set_telemetry(telemetry.clone());
            role.replica.set_telemetry(telemetry.clone());
        }
        self.controller.set_telemetry(telemetry);
    }

    /// Kick off the controller tick.
    pub fn schedule_boot(node: NodeId, sim: &mut gso_net::Simulator) {
        sim.schedule_timer(node, SimTime::ZERO, TICK);
    }

    /// Register an accessing node for rule/subscription broadcast (used by
    /// the scenario builder after the media plane is wired).
    pub fn register_access_node(&mut self, an: NodeId) {
        if !self.access_nodes.contains(&an) {
            self.access_nodes.push(an);
        }
    }

    /// Simulate an abrupt controller outage: all input is dropped and no
    /// configuration goes out until [`ConferenceNode::restart`]. The tick
    /// timer chain stays armed so the node can come back.
    pub fn crash(&mut self, now: SimTime) {
        self.down = true;
        self.telemetry.event(now, keys::EV_CTRL_CRASH, "controller down".to_string());
    }

    /// Whether the node is currently crashed.
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Current controller generation.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Restart after a crash: the controller is rebuilt from scratch under
    /// a new epoch (in-memory state is gone, as in a real process restart)
    /// and its picture is reconstructed by asking every accessing node to
    /// resync its cached client state (§7: recovery without interruption —
    /// the media plane keeps forwarding on the last rules throughout).
    pub fn restart(&mut self, now: SimTime, out: &mut Actions) {
        self.down = false;
        // Wrapping: epochs are compared with RFC 1982 serial arithmetic on
        // the client side, so the generation counter rolls over cleanly
        // instead of panicking (debug) or freezing (release) at u32::MAX.
        self.epoch = self.epoch.wrapping_add(1);
        self.controller = self.fresh_controller();
        self.client_an.clear();
        self.restarted_at = Some(now);
        // The rebuilt controller shares no diff base with the standby's
        // replica: start the replication stream over with a full snapshot.
        self.publisher = SnapshotPublisher::new(MAX_DELTA_CHANGES);
        self.hb_seq = 0;
        self.telemetry.event(
            now,
            keys::EV_CTRL_RESTART,
            format!("controller restarted, epoch {}", self.epoch),
        );
        let msg = CtrlMessage::ResyncRequest { epoch: self.epoch }.serialize();
        for an in self.broadcast_targets() {
            out.send(an, Packet::new(msg.clone()));
        }
    }

    /// An empty controller under the current epoch: what a restart or a
    /// promotion rebuilds from.
    fn fresh_controller(&self) -> GsoController {
        let mut controller = GsoController::new(self.cfg.clone(), Ssrc(0xC0DE));
        controller.set_telemetry(self.telemetry.clone());
        controller.set_epoch(self.epoch);
        controller
    }

    fn broadcast_targets(&self) -> Vec<NodeId> {
        if self.access_nodes.is_empty() {
            self.default_an.into_iter().collect()
        } else {
            self.access_nodes.clone()
        }
    }

    /// Promote this standby to active: bump the epoch serially past
    /// everything the dead shard ever heartbeat, rebuild the controller
    /// from the replica, and re-home every accessing node with an
    /// epoch-stamped resync (they fence the zombie from then on).
    fn promote(&mut self, now: SimTime, out: &mut Actions) {
        let Some(role) = self.standby_role.take() else { return };
        self.epoch = role.detector.last_epoch().wrapping_add(1);
        self.controller = self.fresh_controller();
        self.controller.restore(now, role.replica.snapshots());
        self.promoted_at = Some(now);
        self.publisher = SnapshotPublisher::new(MAX_DELTA_CHANGES);
        self.hb_seq = 0;
        self.telemetry.incr(keys::CLUSTER_PROMOTIONS, SHARD_LABEL);
        self.telemetry.event(
            now,
            keys::EV_CLUSTER_PROMOTED,
            format!("standby promoted, epoch {}", self.epoch),
        );
        // Epoch-stamped resync: accessing nodes adopt this node as their
        // conference controller and send back their cached client state
        // (client → accessing-node homing rides in on the replies).
        let msg = CtrlMessage::ResyncRequest { epoch: self.epoch }.serialize();
        for an in self.broadcast_targets() {
            out.send(an, Packet::new(msg.clone()));
        }
    }
}

impl Node for ConferenceNode {
    fn on_packet(&mut self, now: SimTime, from: NodeId, packet: Packet, _out: &mut Actions) {
        if self.down {
            return;
        }
        let wire_len = packet.data.len() as u64;
        let Some(msg) = CtrlMessage::parse(packet.data) else { return };
        // Passive standby: only the replication stream and heartbeats
        // matter; everything else is the active shard's business.
        if let Some(role) = &mut self.standby_role {
            match msg {
                CtrlMessage::ShardHeartbeat { epoch, seq } => {
                    role.active = Some(from);
                    role.detector.heartbeat(now, epoch, seq);
                }
                CtrlMessage::SnapshotDelta { delta } => {
                    role.active = Some(from);
                    self.telemetry.add(keys::CLUSTER_REPLICATION_BYTES, SHARD_LABEL, wire_len);
                    if role.replica.apply(&delta) == ApplyOutcome::NeedFull {
                        let nack = CtrlMessage::SnapshotNack { have_seq: role.replica.seq() };
                        _out.send(from, Packet::new(nack.serialize()));
                    }
                }
                _ => {}
            }
            return;
        }
        if let CtrlMessage::Fence { epoch } = msg {
            // An accessing node follows a newer controller: this node is
            // the zombie half of a healed partition. Step down instead of
            // fighting the fence.
            if epoch_newer(epoch, self.epoch) {
                self.down = true;
                self.telemetry.incr(keys::CLUSTER_STEPDOWNS, SHARD_LABEL);
                self.telemetry.event(
                    now,
                    keys::EV_CLUSTER_STEPDOWN,
                    format!("fenced at epoch {}, successor at {epoch}", self.epoch),
                );
            }
            return;
        }
        if let CtrlMessage::SnapshotNack { .. } = msg {
            // The standby lost the delta chain (loss/reorder on the
            // replication link): start over with a full snapshot.
            self.publisher.request_full();
            return;
        }
        self.default_an.get_or_insert(from);
        match msg {
            CtrlMessage::ResyncState { clients } => {
                // Re-registration of everything an accessing node knows
                // about its clients: capabilities, subscriptions and the
                // last bandwidth estimates.
                for snap in &clients {
                    self.client_an.insert(snap.client, from);
                }
                self.controller.restore(now, clients);
            }
            CtrlMessage::Join { client, ladders } => {
                self.client_an.insert(client, from);
                self.controller.on_join(client, CodecCapability { ladders });
            }
            CtrlMessage::SdpOffer { client, sdp } => {
                // §4.2: negotiate the offer, store the capabilities, and
                // answer with the per-layer SSRC assignments.
                let Ok(offer) = gso_control::SdpOffer::parse(&sdp) else { return };
                if offer.client != client {
                    return;
                }
                let (answer, caps) = offer.negotiate();
                self.client_an.insert(client, from);
                self.controller.on_join(client, caps);
                _out.send(
                    from,
                    Packet::new(
                        CtrlMessage::SdpAnswer { client, sdp: answer.to_sdp() }.serialize(),
                    ),
                );
            }
            CtrlMessage::Leave { client } => {
                self.client_an.remove(&client);
                self.controller.on_leave(client);
            }
            CtrlMessage::Subscribe { client, intents } => {
                self.controller.on_subscriptions(client, intents.clone());
                // Re-broadcast to the other accessing nodes: they need the
                // subscription map for audio fan-out across the mesh.
                let rebroadcast = CtrlMessage::Subscribe { client, intents };
                for &an in &self.access_nodes {
                    if an != from {
                        _out.send(an, Packet::new(rebroadcast.serialize()));
                    }
                }
            }
            CtrlMessage::UplinkReport { client, bitrate } => {
                self.controller.on_uplink_report(now, client, bitrate);
            }
            CtrlMessage::DownlinkReport { client, bitrate } => {
                self.controller.on_downlink_report(now, client, bitrate);
            }
            CtrlMessage::Speaker { client } => {
                self.controller.on_speaker(client);
            }
            CtrlMessage::AckRelay { client, rtcp } => {
                if let Ok(packets) = RtcpPacket::parse_compound(rtcp) {
                    for p in packets {
                        if let RtcpPacket::GsoTmmbn(ack) = p {
                            self.controller.on_ack(client, &ack);
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, now: SimTime, token: u64, out: &mut Actions) {
        if token & SPEAKER_EVENT != 0 {
            if !self.down {
                let raw = (token & 0xffff_ffff) as u32;
                self.controller.on_speaker((raw > 0).then(|| ClientId(raw - 1)));
            }
            return;
        }
        if token != TICK {
            return;
        }
        if self.down {
            // Keep the tick chain alive through the outage so the node
            // resumes on cadence once restarted.
            out.timer_in(now, TICK_INTERVAL, TICK);
            return;
        }
        if self.standby_role.is_some() {
            // Passive standby: poll the lease; promote on expiry. Either
            // way the tick chain continues (a promoted node solves on the
            // very next cadence slot).
            let expired =
                self.standby_role.as_mut().is_some_and(|role| role.detector.check_expired(now));
            if expired {
                self.promote(now, out);
            }
            out.timer_in(now, TICK_INTERVAL, TICK);
            return;
        }
        let (output, retransmissions) = self.controller.tick(now);
        if let Some(restarted) = self.restarted_at {
            if output.is_some() && !self.controller.fallback_active() {
                // First full (non-fallback) solve after a restart closes
                // the recovery window.
                self.restarted_at = None;
                self.telemetry.observe(
                    keys::CTRL_RECOVERY_TIME_MS,
                    "restart",
                    now.saturating_since(restarted).as_millis(),
                    keys::RECOVERY_MS_BOUNDS,
                );
            }
        }
        if let Some(promoted) = self.promoted_at {
            if output.is_some() && !self.controller.fallback_active() {
                // First full solve after a standby promotion closes the
                // takeover window (the failover analogue of restart
                // recovery, judged against the same §7 5 s bound).
                self.promoted_at = None;
                self.telemetry.observe(
                    keys::CLUSTER_TAKEOVER_MS,
                    "takeover",
                    now.saturating_since(promoted).as_millis(),
                    keys::RECOVERY_MS_BOUNDS,
                );
            }
        }

        let mut pushes: Vec<(ClientId, Vec<RtcpPacket>)> = Vec::new();
        if let Some(output) = &output {
            for (client, gtmb) in &output.configs {
                pushes.push((*client, vec![RtcpPacket::GsoTmmbr(gtmb.clone())]));
            }
        }
        for (client, gtmb) in retransmissions {
            pushes.push((client, vec![RtcpPacket::GsoTmmbr(gtmb)]));
        }
        for (client, rtcp) in pushes {
            let an = self.client_an.get(&client).copied().or(self.default_an);
            if let Some(an) = an {
                out.send(
                    an,
                    Packet::new(
                        CtrlMessage::ConfigPush {
                            epoch: self.epoch,
                            client,
                            rtcp: RtcpPacket::serialize_compound(&rtcp),
                        }
                        .serialize(),
                    ),
                );
            }
        }

        if let Some(output) = output {
            let msg =
                CtrlMessage::Rules { epoch: self.epoch, rules: output.rules.clone() }.serialize();
            for an in self.broadcast_targets() {
                out.send(an, Packet::new(msg.clone()));
            }
        }

        // Failover pair maintenance: heartbeat the standby every tick and
        // stream the controller-state diff alongside. Both ride the same
        // backbone links as the rest of the control plane, so a partition
        // that cuts them off is exactly what expires the lease.
        if let Some(sb) = self.standby {
            self.hb_seq += 1;
            let hb = CtrlMessage::ShardHeartbeat { epoch: self.epoch, seq: self.hb_seq };
            out.send(sb, Packet::new(hb.serialize()));
            let snapshot = self.controller.picture.snapshot();
            if let Some(delta) = self.publisher.tick(self.epoch, &snapshot) {
                out.send(sb, Packet::new(CtrlMessage::SnapshotDelta { delta }.serialize()));
            }
        }
        out.timer_in(now, TICK_INTERVAL, TICK);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
