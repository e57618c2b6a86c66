//! The conference node (control plane, §3).
//!
//! Hosts the [`GsoController`], fed by control messages relayed from
//! accessing nodes: signaling (join/leave/subscribe/speaker), SEMB-derived
//! uplink reports, accessing-node downlink reports, and GTBN
//! acknowledgements. On each controller run it pushes per-client GTMB
//! configurations (via the client's accessing node, in-band) and the
//! forwarding rules to every accessing node.
//!
//! Controller failure is handled in place (§7): a crashed node
//! [restarts](ConferenceNode::restart) under a bumped epoch and rebuilds
//! its picture from the accessing nodes' resync replies, while the media
//! plane keeps forwarding on the last rules.

use crate::ctrl::CtrlMessage;
use gso_control::{ControllerConfig, GsoController};
use gso_net::{Actions, Node, NodeId, Packet};
use gso_rtp::RtcpPacket;
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
    telemetry: Telemetry,
}

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
        }
    }

    /// Attach a metrics registry to the embedded controller (and its
    /// feedback executor).
    pub fn set_telemetry(&mut self, telemetry: gso_telemetry::Telemetry) {
        self.telemetry = telemetry.clone();
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
    ///
    /// The new controller is empty; the epoch-stamped `ResyncRequest` it
    /// sends every accessing node is answered with a `ResyncState` that
    /// re-registers each client (ladders, intents, last link estimates)
    /// and its client → accessing-node homing.
    pub fn restart(&mut self, now: SimTime, out: &mut Actions) {
        self.down = false;
        // Wrapping: epochs are compared with RFC 1982 serial arithmetic on
        // the client and accessing-node side, so the generation counter
        // rolls over cleanly instead of panicking (debug) or freezing
        // (release) at u32::MAX.
        self.epoch = self.epoch.wrapping_add(1);
        self.controller = GsoController::new(self.cfg.clone(), Ssrc(0xC0DE));
        self.controller.set_telemetry(self.telemetry.clone());
        self.controller.set_epoch(self.epoch);
        self.client_an.clear();
        let msg = CtrlMessage::ResyncRequest { epoch: self.epoch }.serialize();
        for an in self.broadcast_targets() {
            out.send(an, Packet::new(msg.clone()));
        }
        self.restarted_at = Some(now);
        self.telemetry.event(
            now,
            keys::EV_CTRL_RESTART,
            format!("controller restarted, epoch {}", self.epoch),
        );
    }

    fn broadcast_targets(&self) -> Vec<NodeId> {
        if self.access_nodes.is_empty() {
            self.default_an.into_iter().collect()
        } else {
            self.access_nodes.clone()
        }
    }
}

impl Node for ConferenceNode {
    fn on_packet(&mut self, now: SimTime, from: NodeId, packet: Packet, out: &mut Actions) {
        if self.down {
            return;
        }
        let Some(msg) = CtrlMessage::parse(packet.data) else { return };
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
                out.send(
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
                // subscription map for audio fan-out across the mesh. They
                // record it and relay nothing back (see `AccessNode`).
                let rebroadcast = CtrlMessage::Subscribe { client, intents }.serialize();
                for &an in &self.access_nodes {
                    if an != from {
                        out.send(an, Packet::new(rebroadcast.clone()));
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

        // The round's configurations go out before the retransmissions.
        let (configs, rules) = output.map(|o| (o.configs, o.rules)).unzip();
        for (client, gtmb) in configs.into_iter().flatten().chain(retransmissions) {
            let Some(an) = self.client_an.get(&client).copied().or(self.default_an) else {
                continue;
            };
            let rtcp = RtcpPacket::GsoTmmbr(gtmb).serialize();
            let push = CtrlMessage::ConfigPush { epoch: self.epoch, client, rtcp };
            out.send(an, Packet::new(push.serialize()));
        }

        if let Some(rules) = rules {
            let msg = CtrlMessage::Rules { epoch: self.epoch, rules }.serialize();
            for an in self.broadcast_targets() {
                out.send(an, Packet::new(msg.clone()));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessNode;
    use crate::client::PolicyMode;
    use crate::workloads::clean_mesh;
    use gso_control::SubscribeIntent;
    use gso_util::Bitrate;

    /// The restarted controller has nothing but the accessing nodes' resync
    /// replies to rebuild from, and both regions' nodes must answer: at its
    /// first solving tick the picture holds every client with exactly the
    /// ladders and intents its accessing node cached plus live link
    /// estimates, and that first round already solves without fallback.
    #[test]
    fn restarted_controller_has_full_picture_at_first_tick() {
        let mbps4 = Bitrate::from_mbps(4);
        let mut s = clean_mesh(PolicyMode::Gso, 4, mbps4, mbps4, SimDuration::from_secs(20), 61);
        s.clients[2].region = 1;
        s.clients[3].region = 1;
        let mut wired = s.build();
        let cn = wired.cn;
        assert_eq!(wired.ans.len(), 2);

        let crash_at = SimTime::from_secs(5);
        wired.sim.run_until(crash_at);
        wired.sim.node_mut::<ConferenceNode>(cn).expect("conference node").crash(crash_at);
        // Restart between two ticks of the 100 ms grid: the resync replies
        // cross the 2 ms backbone before the next tick solves.
        let restart_at = crash_at + SimDuration::from_millis(1_050);
        wired.sim.run_until(restart_at);
        wired.sim.with_node_actions(cn, |node, now, out| {
            let node = node.as_any_mut().downcast_mut::<ConferenceNode>().expect("conference");
            node.restart(now, out);
        });
        wired.sim.run_until(restart_at + TICK_INTERVAL);

        let node: &ConferenceNode = wired.sim.node(cn).expect("conference node");
        assert_eq!(node.epoch(), 1);
        let picture = &node.controller.picture;
        assert_eq!(picture.len(), 4, "every client re-registered");
        let problem = picture.to_problem().expect("rebuilt picture is a valid problem");
        for &an in &wired.ans {
            let access: &AccessNode = wired.sim.node(an).expect("access node");
            let cached = access.snapshot();
            assert_eq!(cached.len(), 2, "two clients per region");
            for snap in cached {
                let id = snap.client;
                assert!(picture.contains(id), "{id} missing");
                let spec = problem.client(id).expect("client in problem");
                let ladders: Vec<_> =
                    spec.sources.iter().map(|s| (s.id.kind, s.ladder.clone())).collect();
                assert_eq!(ladders, snap.ladders, "{id} ladders");
                let intents: Vec<_> = problem
                    .subscriptions_of(id)
                    .into_iter()
                    .map(|s| SubscribeIntent {
                        source: s.source,
                        max_resolution: s.max_resolution,
                        tag: s.tag,
                    })
                    .collect();
                assert_eq!(intents, snap.intents, "{id} intents");
                assert_eq!(intents.len(), 3, "{id} subscribes to everyone else");
                assert!(!snap.uplink.is_zero() && !snap.downlink.is_zero(), "{id} cache");
                assert!(picture.uplink_of(id).is_some_and(|b| !b.is_zero()), "{id} uplink");
                assert!(picture.downlink_of(id).is_some_and(|b| !b.is_zero()), "{id} downlink");
            }
        }
        assert!(node.controller.last_solution().is_some(), "first tick solved");
        assert!(!node.controller.fallback_active(), "first round is non-fallback");
        let recovery = wired
            .telemetry
            .histogram(keys::CTRL_RECOVERY_TIME_MS, "restart")
            .expect("recovery recorded at the first full solve");
        assert_eq!((recovery.total, recovery.sum), (1, 50));
    }
}
