//! The accessing node (media-plane SFU).
//!
//! Terminates clients' media, generates transport feedback for their
//! uplinks, estimates each subscriber's downlink with a sender-side BWE
//! (probing when app-limited), selectively forwards simulcast layers with
//! keyframe-aligned switching, relays control traffic to/from the
//! conference node, and — in baseline modes — runs the local selection
//! policy instead of controller rules.

use crate::client::PolicyMode;
use crate::ctrl::{ClientSnapshot, CtrlMessage};
use gso_algo::{Ladder, SourceId};
use gso_bwe::TwccGenerator;
use gso_bwe::{
    BweConfig, ProbeConfig, ProbeController, SembConfig, SembScheduler, SendHistory, SenderBwe,
};
use gso_control::SubscribeIntent;
use gso_media::FragmentHeader;
use gso_net::{Actions, Node, NodeId, Packet};
use gso_rtp::{decode_ssrc, epoch_newer, ssrc_for, RtcpPacket, RtpPacket};
use gso_sfu::{
    LargestFitSelector, LayerSwitcher, OfferedLayer, PassthroughSelector, StreamSelector,
    TwoLevelSelector,
};
use gso_telemetry::{keys, Slot, Telemetry};
use gso_util::{Bitrate, ClientId, SimDuration, SimTime, Ssrc, StreamKind};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};

const FAST_TICK: u64 = 1;
const SLOW_TICK: u64 = 2;
const FAST_INTERVAL: SimDuration = SimDuration::from_millis(100);
const SLOW_INTERVAL: SimDuration = SimDuration::from_millis(500);

/// Per-subscriber downlink path state.
struct DownPath {
    endpoint: NodeId,
    history: SendHistory,
    bwe: SenderBwe,
    probes: ProbeController,
    reporter: SembScheduler,
    probe_seq: u16,
    bytes_window: u64,
    /// This subscriber's `sfu.forwarded_bytes` and `sfu.dropped_bytes`
    /// slots, resolved at their first record (every forwarded or withheld
    /// packet records one of them).
    forwarded_slot: Option<Slot>,
    dropped_slot: Option<Slot>,
}

impl DownPath {
    fn new(endpoint: NodeId) -> Self {
        DownPath {
            endpoint,
            history: SendHistory::new(),
            bwe: SenderBwe::new(BweConfig::default()),
            probes: ProbeController::new(ProbeConfig::default()),
            reporter: SembScheduler::new(SembConfig::default()),
            probe_seq: 0,
            bytes_window: 0,
            forwarded_slot: None,
            dropped_slot: None,
        }
    }
}

/// Layer liveness/rate tracking for the local (baseline) policies.
#[derive(Debug, Default, Clone, Copy)]
struct LayerRate {
    bytes_window: u64,
    rate: Bitrate,
}

/// The accessing node.
pub struct AccessNode {
    mode: PolicyMode,
    /// The conference node signaling and reports are relayed to (GSO
    /// mode only).
    conference: Option<NodeId>,
    /// Newest controller epoch seen on epoch-stamped CN → AN traffic
    /// (rules, config pushes, resyncs). A controller restart bumps it, so
    /// traffic stamped with a serially older epoch was sent before the
    /// restart and must not rewrite forwarding state (§7).
    ctrl_epoch: u32,
    /// CN → AN messages dropped for carrying a stale epoch.
    stale_dropped: u64,
    /// Attached clients and their network endpoints.
    clients: BTreeMap<ClientId, NodeId>,
    endpoint_to_client: BTreeMap<NodeId, ClientId>,
    /// Clients served by peer accessing nodes, and the peer that serves
    /// each (the media-plane mesh of §3).
    remote_clients: BTreeMap<ClientId, NodeId>,
    /// Relay routes: for each locally-published stream, the peer nodes
    /// whose subscribers need it. A set, so a stream crosses each
    /// inter-node link once however many remote subscribers sit behind it.
    relay: BTreeMap<Ssrc, BTreeSet<NodeId>>,
    twcc_up: BTreeMap<ClientId, TwccGenerator>,
    down: BTreeMap<ClientId, DownPath>,
    /// (subscriber, source, tag) → layer switcher.
    switchers: BTreeMap<(ClientId, SourceId, u8), LayerSwitcher>,
    /// Subscriptions as signaled (used by baseline selection and audio
    /// fan-out).
    subs: BTreeMap<ClientId, Vec<SubscribeIntent>>,
    /// Negotiated ladders, cached from SDP offers / joins passing through,
    /// so a restarted controller can resync without re-negotiating.
    client_ladders: BTreeMap<ClientId, Vec<(StreamKind, Ladder)>>,
    /// Last SEMB uplink estimate relayed per client (also for resync).
    last_uplink: BTreeMap<ClientId, Bitrate>,
    /// When set, periodic downlink reports toward the conference node are
    /// suppressed (chaos: BWE feedback blackout).
    report_blackout: bool,
    /// Observed publisher layers.
    layer_rates: BTreeMap<Ssrc, LayerRate>,
    /// Scratch for the peers an audio packet is relayed to, reused across
    /// packets.
    audio_peers: Vec<NodeId>,
    last_slow: SimTime,
    started: bool,
    /// Metrics sink (disabled by default; see `gso-telemetry`).
    telemetry: Telemetry,
}

impl AccessNode {
    /// Build an accessing node. `conference` is required in GSO mode; the
    /// node expects controller epoch 0 until a restart bumps it.
    pub fn new(mode: PolicyMode, conference: Option<NodeId>) -> Self {
        AccessNode {
            mode,
            conference,
            ctrl_epoch: 0,
            stale_dropped: 0,
            clients: BTreeMap::new(),
            endpoint_to_client: BTreeMap::new(),
            remote_clients: BTreeMap::new(),
            relay: BTreeMap::new(),
            twcc_up: BTreeMap::new(),
            down: BTreeMap::new(),
            switchers: BTreeMap::new(),
            subs: BTreeMap::new(),
            client_ladders: BTreeMap::new(),
            last_uplink: BTreeMap::new(),
            report_blackout: false,
            layer_rates: BTreeMap::new(),
            audio_peers: Vec::new(),
            last_slow: SimTime::ZERO,
            started: false,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach a metrics registry; also wires the per-subscriber downlink
    /// estimators (existing and future) with `down:<client>` labels.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
        for (client, path) in &mut self.down {
            path.bwe.set_telemetry(self.telemetry.clone(), format!("down:{client}"));
            // Slots belong to the registry that resolved them.
            path.forwarded_slot = None;
            path.dropped_slot = None;
        }
    }

    /// Register an attached client endpoint (done by the scenario builder).
    pub fn attach(&mut self, client: ClientId, endpoint: NodeId) {
        self.clients.insert(client, endpoint);
        self.endpoint_to_client.insert(endpoint, client);
        self.twcc_up.insert(client, TwccGenerator::new());
        let mut path = DownPath::new(endpoint);
        path.bwe.set_telemetry(self.telemetry.clone(), format!("down:{client}"));
        self.down.insert(client, path);
    }

    /// Register a client served by a peer accessing node; media for it is
    /// relayed through that peer.
    pub fn attach_remote(&mut self, client: ClientId, peer: NodeId) {
        self.remote_clients.insert(client, peer);
    }

    /// How many CN → AN messages this node dropped for a stale epoch.
    pub fn stale_dropped(&self) -> u64 {
        self.stale_dropped
    }

    fn is_peer(&self, node: NodeId) -> bool {
        self.remote_clients.values().any(|&p| p == node)
    }

    /// Where traffic bound for `publisher` goes: its endpoint when it is
    /// attached here, else the peer node that hosts it.
    fn publisher_route(&self, publisher: ClientId) -> Option<NodeId> {
        self.clients.get(&publisher).or_else(|| self.remote_clients.get(&publisher)).copied()
    }

    /// Suppress (or restore) downlink reports toward the conference node —
    /// the server-side half of a BWE feedback blackout fault.
    pub fn set_report_blackout(&mut self, on: bool) {
        self.report_blackout = on;
    }

    /// Snapshot of every locally-attached client's cached state, for
    /// controller resync after a restart.
    pub(crate) fn snapshot(&self) -> Vec<ClientSnapshot> {
        self.clients
            .keys()
            .map(|&client| ClientSnapshot {
                client,
                ladders: self.client_ladders.get(&client).cloned().unwrap_or_default(),
                intents: self.subs.get(&client).cloned().unwrap_or_default(),
                uplink: self.last_uplink.get(&client).copied().unwrap_or(Bitrate::ZERO),
                downlink: self.down.get(&client).map_or(Bitrate::ZERO, |d| d.bwe.estimate()),
            })
            .collect()
    }

    /// Kick off periodic timers.
    pub fn schedule_boot(node: NodeId, sim: &mut gso_net::Simulator) {
        sim.schedule_timer(node, SimTime::ZERO, FAST_TICK);
        sim.schedule_timer(node, SimTime::ZERO, SLOW_TICK);
    }

    /// Forward one received datagram (`wire`, parsed as `pkt`) to the local
    /// subscriber behind `path`, unchanged.
    fn forward(
        path: &mut DownPath,
        telemetry: &Telemetry,
        now: SimTime,
        subscriber: ClientId,
        pkt: &RtpPacket,
        wire: &bytes::Bytes,
        out: &mut Actions,
    ) {
        path.history.record(pkt.ssrc, pkt.sequence, now, wire.len() + 28, false);
        path.bytes_window += wire.len() as u64;
        telemetry.add_cached(
            &mut path.forwarded_slot,
            keys::SFU_FORWARDED_BYTES,
            subscriber,
            wire.len() as u64,
        );
        out.send(path.endpoint, Packet::new(wire.clone()));
    }

    /// Route one received RTP datagram. `pkt` is `wire` parsed; since the
    /// parser accepts only the plain fixed header, `wire` is exactly what
    /// re-serializing `pkt` would give, so it is relayed as is. Nothing
    /// here allocates per packet: subscribers are served while their maps
    /// are walked, and the audio relay peers go through a reused buffer.
    fn handle_rtp(
        &mut self,
        now: SimTime,
        from: ClientId,
        from_local: bool,
        pkt: RtpPacket,
        wire: bytes::Bytes,
        out: &mut Actions,
    ) {
        if from_local {
            if let Some(twcc) = self.twcc_up.get_mut(&from) {
                twcc.on_packet(now, pkt.ssrc, pkt.sequence);
            }
        }
        if pkt.payload_type == 127 {
            return; // probe padding terminates here
        }
        let Some((publisher, kind, _lines)) = decode_ssrc(pkt.ssrc) else { return };
        if publisher != from {
            return; // spoofed SSRC
        }
        match kind {
            StreamKind::Audio => {
                // Audio fans out to every *local* subscriber of this
                // publisher; for remote subscribers, relay once per peer.
                for (&sub, intents) in &self.subs {
                    if sub == publisher || !intents.iter().any(|i| i.source.client == publisher) {
                        continue;
                    }
                    if let Some(path) = self.down.get_mut(&sub) {
                        Self::forward(path, &self.telemetry, now, sub, &pkt, &wire, out);
                    } else if let (true, Some(&peer)) = (from_local, self.remote_clients.get(&sub))
                    {
                        self.audio_peers.push(peer);
                    }
                }
                self.audio_peers.sort_unstable();
                self.audio_peers.dedup();
                for &peer in &self.audio_peers {
                    out.send(peer, Packet::new(wire.clone()));
                }
                self.audio_peers.clear();
            }
            StreamKind::Video | StreamKind::Screen => {
                self.layer_rates.entry(pkt.ssrc).or_default().bytes_window += pkt.wire_len() as u64;
                let keyframe_start = FragmentHeader::parse(&pkt.payload)
                    .is_some_and(|h| h.keyframe && h.frag_index == 0);
                let source = SourceId { client: publisher, kind };
                for ((sub, _, _), sw) in
                    self.switchers.iter_mut().filter(|((_, src, _), _)| *src == source)
                {
                    let forward = sw.should_forward_at(pkt.ssrc, keyframe_start, now);
                    // A pending switch that just landed on this keyframe
                    // reports its request->landing latency.
                    if let Some(latency) = sw.take_switch_latency() {
                        self.telemetry.observe(
                            keys::SFU_SWITCH_LATENCY_US,
                            sub,
                            latency.as_micros(),
                            keys::LATENCY_US_BOUNDS,
                        );
                        self.telemetry.event(
                            now,
                            keys::EV_SWITCH_LANDED,
                            format!("{sub} -> {} after {latency}", pkt.ssrc),
                        );
                    }
                    // Switchers exist only for attached subscribers.
                    let Some(path) = self.down.get_mut(sub) else { continue };
                    if forward {
                        Self::forward(path, &self.telemetry, now, *sub, &pkt, &wire, out);
                    } else {
                        // Bytes of this source withheld from the subscriber
                        // (other layers, or a switch waiting for a keyframe).
                        self.telemetry.add_cached(
                            &mut path.dropped_slot,
                            keys::SFU_DROPPED_BYTES,
                            sub,
                            pkt.wire_len() as u64,
                        );
                    }
                }
                // Relay locally-published streams to peer nodes whose
                // subscribers need them — once per peer link, however many
                // remote subscribers sit behind it.
                if from_local {
                    for &peer in self.relay.get(&pkt.ssrc).into_iter().flatten() {
                        out.send(peer, Packet::new(wire.clone()));
                    }
                }
            }
        }
    }

    fn handle_rtcp(&mut self, now: SimTime, from: ClientId, data: bytes::Bytes, out: &mut Actions) {
        let Ok(packets) = RtcpPacket::parse_compound(data) else { return };
        // Feedback for all streams of this downlink is merged and fed to the
        // estimator once, in send order — per-stream slices would confuse
        // the delay-trend filter (time would jump backwards between streams)
        // and measure per-stream instead of per-path throughput.
        let mut feedback_results = Vec::new();
        for p in packets {
            match p {
                RtcpPacket::TransportFeedback(fb) => {
                    if let Some(path) = self.down.get_mut(&from) {
                        feedback_results.extend(path.history.resolve(fb.sender_ssrc, &fb));
                    }
                }
                RtcpPacket::Nack(nack) => {
                    // Relay the retransmission request toward the publisher.
                    let dest = decode_ssrc(nack.media_ssrc)
                        .and_then(|(publisher, _, _)| self.publisher_route(publisher));
                    if let Some(dest) = dest {
                        out.send(
                            dest,
                            Packet::new(RtcpPacket::serialize_compound(&[RtcpPacket::Nack(nack)])),
                        );
                    }
                }
                RtcpPacket::Semb(semb) => {
                    self.last_uplink.insert(from, semb.bitrate);
                    if let (PolicyMode::Gso, Some(cn)) = (self.mode, self.conference) {
                        out.send(
                            cn,
                            Packet::new(
                                CtrlMessage::UplinkReport { client: from, bitrate: semb.bitrate }
                                    .serialize(),
                            ),
                        );
                    }
                }
                RtcpPacket::GsoTmmbn(ack) => {
                    if let Some(cn) = self.conference {
                        out.send(
                            cn,
                            Packet::new(
                                CtrlMessage::AckRelay {
                                    client: from,
                                    rtcp: RtcpPacket::serialize_compound(&[RtcpPacket::GsoTmmbn(
                                        ack,
                                    )]),
                                }
                                .serialize(),
                            ),
                        );
                    }
                }
                _ => {}
            }
        }
        if !feedback_results.is_empty() {
            feedback_results.sort_by_key(|r| r.sent_at);
            if let Some(path) = self.down.get_mut(&from) {
                path.bwe.on_feedback(now, &feedback_results);
            }
        }
    }

    /// Epoch gate for CN → AN control traffic. Returns `true` when the
    /// message must be dropped: its epoch is serially older than the newest
    /// seen, so it left the controller before a restart. A newer epoch is
    /// adopted. Runs on every `Rules` message, so it must not allocate.
    fn stale(&mut self, epoch: u32) -> bool {
        if epoch_newer(self.ctrl_epoch, epoch) {
            self.stale_dropped += 1;
            return true;
        }
        self.ctrl_epoch = epoch;
        false
    }

    fn handle_ctrl(&mut self, now: SimTime, from: NodeId, msg: CtrlMessage, out: &mut Actions) {
        let from_local = self.endpoint_to_client.contains_key(&from);
        match msg {
            // Client → CN signaling, recorded locally for baseline policy,
            // audio fan-out and controller resync, then relayed.
            CtrlMessage::SdpOffer { client, ref sdp } => {
                if let Ok(offer) = gso_control::SdpOffer::parse(sdp) {
                    self.client_ladders.insert(client, offer.ladders);
                }
                self.relay_up(from_local, &msg, out);
            }
            CtrlMessage::Leave { client } => {
                self.client_ladders.remove(&client);
                self.last_uplink.remove(&client);
                self.relay_up(from_local, &msg, out);
            }
            CtrlMessage::SdpAnswer { client, .. } => {
                if let Some(&endpoint) = self.clients.get(&client) {
                    out.send(endpoint, Packet::new(msg.serialize()));
                }
            }
            CtrlMessage::Subscribe { client, ref intents } => {
                self.subs.insert(client, intents.clone());
                self.relay_up(from_local, &msg, out);
            }
            CtrlMessage::KeyframeRequest { source } => {
                // From a subscriber (or a peer relaying one); deliver to the
                // publisher's endpoint or to the peer that hosts it.
                if let Some(dest) = self.publisher_route(source.client) {
                    if dest != from {
                        out.send(
                            dest,
                            Packet::new(CtrlMessage::KeyframeRequest { source }.serialize()),
                        );
                    }
                }
            }
            // CN → AN — all epoch-stamped; stale epochs are dropped.
            CtrlMessage::ResyncRequest { epoch } => {
                if self.stale(epoch) {
                    return;
                }
                // A restarted controller rebuilds its picture from our
                // cached view of the attached clients (§7).
                out.send(
                    from,
                    Packet::new(CtrlMessage::ResyncState { clients: self.snapshot() }.serialize()),
                );
            }
            CtrlMessage::ConfigPush { epoch, client, rtcp } => {
                if self.stale(epoch) {
                    return;
                }
                if let Some(&endpoint) = self.clients.get(&client) {
                    out.send(endpoint, Packet::new(rtcp));
                }
            }
            CtrlMessage::Rules { epoch, rules } => {
                if self.stale(epoch) {
                    return;
                }
                // Full replacement: local switchers serve locally-attached
                // subscribers; relay routes carry locally-published streams
                // to the peers whose subscribers need them.
                let mut covered: Vec<(ClientId, SourceId, u8)> = Vec::new();
                let mut keyframe_needed: BTreeSet<SourceId> = BTreeSet::new();
                self.relay.clear();
                for r in &rules {
                    if self.clients.contains_key(&r.subscriber) {
                        let key = (r.subscriber, r.source, r.tag);
                        covered.push(key);
                        let sw = self.switchers.entry(key).or_default();
                        sw.request_at(Some(r.ssrc), now);
                        // A pending switch would otherwise wait a whole GoP
                        // for the target layer's next keyframe; ask the
                        // publisher to produce one now.
                        if sw.pending().is_some() {
                            keyframe_needed.insert(r.source);
                        }
                    } else if self.clients.contains_key(&r.source.client) {
                        if let Some(&peer) = self.remote_clients.get(&r.subscriber) {
                            self.relay.entry(r.ssrc).or_default().insert(peer);
                        }
                    }
                }
                for (key, sw) in self.switchers.iter_mut() {
                    if !covered.contains(key) {
                        sw.request_at(None, now);
                    }
                }
                self.request_keyframes(keyframe_needed, out);
            }
            _ => {}
        }
    }

    /// Relay client → CN signaling (`SdpOffer`, `Leave`, `Subscribe`) to
    /// the conference node, but only when it came from one of this node's
    /// own client endpoints. Anything else is a copy the conference node
    /// rebroadcast so every access node knows the mesh's subscriptions:
    /// it is recorded and goes no further, so it cannot bounce back up.
    fn relay_up(&self, from_local: bool, msg: &CtrlMessage, out: &mut Actions) {
        if let (true, Some(cn)) = (from_local, self.conference) {
            out.send(cn, Packet::new(msg.serialize()));
        }
    }

    /// Baseline-mode local selection (the fragmented view of §2.3).
    ///
    /// Like any competent SFU, a pending layer switch asks the publisher for
    /// a keyframe so the splice completes quickly — the baseline's handicap
    /// is its fragmented view and coarse ladder, not broken switching.
    fn apply_local_policy(&mut self, now: SimTime, out: &mut Actions) {
        if self.mode == PolicyMode::Gso {
            return;
        }
        let mut keyframe_needed: BTreeSet<SourceId> = BTreeSet::new();
        let selector: Box<dyn StreamSelector> = match self.mode {
            PolicyMode::NonGso => Box::new(LargestFitSelector),
            PolicyMode::Competitor1 => Box::new(TwoLevelSelector),
            PolicyMode::Competitor2 => Box::new(PassthroughSelector),
            PolicyMode::Gso => unreachable!(),
        };
        let subs: Vec<(ClientId, Vec<SubscribeIntent>)> =
            self.subs.iter().map(|(&c, i)| (c, i.clone())).collect();
        for (subscriber, intents) in subs {
            let video_intents: Vec<&SubscribeIntent> = intents
                .iter()
                .filter(|i| i.source.kind != StreamKind::Audio && i.tag == 0)
                .collect();
            if video_intents.is_empty() {
                continue;
            }
            let budget_total = self
                .down
                .get(&subscriber)
                .map_or(Bitrate::ZERO, |d| d.bwe.estimate())
                .saturating_sub(gso_media::AUDIO_PROTECTION);
            // The local policy splits the budget evenly — it has no global
            // view to do better (stream competition, Fig. 3c).
            let per_pub = Bitrate::from_bps(budget_total.as_bps() / video_intents.len() as u64);
            for intent in video_intents {
                let source = intent.source;
                let layers: Vec<OfferedLayer> = self
                    .layer_rates
                    .iter()
                    .filter_map(|(&ssrc, lr)| {
                        let (publisher, kind, lines) = decode_ssrc(ssrc)?;
                        (publisher == source.client
                            && kind == source.kind
                            && lines <= intent.max_resolution.0
                            && !lr.rate.is_zero())
                        .then_some(OfferedLayer { ssrc, resolution_lines: lines, bitrate: lr.rate })
                    })
                    .collect();
                let mut sorted = layers;
                sorted.sort_by_key(|l| l.bitrate);
                let sw = self.switchers.entry((subscriber, source, intent.tag)).or_default();
                // Switching dead-band (every real SFU has one): keep the
                // current layer while it still fits; upgrade only to a layer
                // that fits *comfortably* (25 % slack). Without this, a
                // budget sitting near a layer boundary flaps the selection
                // every evaluation, and each flap costs a keyframe splice.
                let current_layer =
                    sw.current().and_then(|cur| sorted.iter().find(|l| l.ssrc == cur).copied());
                let current_fits = current_layer.is_some_and(|l| l.bitrate <= per_pub);
                let choice = if current_fits {
                    let comfortable = selector.select(&sorted, per_pub.mul_f64(0.75));
                    match (comfortable, current_layer) {
                        (Some(up), Some(cur)) => {
                            let up_rate = sorted
                                .iter()
                                .find(|l| l.ssrc == up)
                                .map_or(Bitrate::ZERO, |l| l.bitrate);
                            if up_rate > cur.bitrate {
                                Some(up)
                            } else {
                                Some(cur.ssrc)
                            }
                        }
                        _ => current_layer.map(|l| l.ssrc),
                    }
                } else {
                    selector.select(&sorted, per_pub)
                };
                sw.request_at(choice, now);
                if sw.pending().is_some() {
                    keyframe_needed.insert(source);
                }
            }
        }
        self.request_keyframes(keyframe_needed, out);
    }

    /// Ask each source's publisher for a keyframe, via the peer node that
    /// hosts it when the publisher is remote.
    fn request_keyframes(&self, sources: BTreeSet<SourceId>, out: &mut Actions) {
        for source in sources {
            if let Some(dest) = self.publisher_route(source.client) {
                out.send(dest, Packet::new(CtrlMessage::KeyframeRequest { source }.serialize()));
            }
        }
    }

    fn emit_downlink_probe(
        path: &mut DownPath,
        now: SimTime,
        cluster: gso_bwe::ProbeCluster,
        out: &mut Actions,
    ) {
        let bytes = cluster.target_rate.bytes_in(cluster.duration);
        // Short burst (§7: probing redundancy must be carefully bounded):
        // enough packets to measure line rate, few enough not to push the
        // bottleneck queue into dropping media.
        let count = (bytes / 1200).clamp(5, 15);
        // Probe padding uses a reserved pseudo-client id.
        let ssrc = ssrc_for(ClientId(0xFFFF), StreamKind::Video, 16);
        for _ in 0..count {
            let seq = path.probe_seq;
            path.probe_seq = path.probe_seq.wrapping_add(1);
            let pkt = RtpPacket {
                marker: false,
                payload_type: 127,
                sequence: seq,
                timestamp: 0,
                ssrc,
                payload: bytes::Bytes::from(vec![0u8; 1172]),
            };
            path.history.record(pkt.ssrc, pkt.sequence, now, pkt.wire_len() + 28, true);
            out.send(path.endpoint, Packet::new(pkt.serialize()));
        }
    }
}

impl Node for AccessNode {
    fn on_packet(&mut self, now: SimTime, from: NodeId, packet: Packet, out: &mut Actions) {
        let data = packet.data;
        if data.is_empty() {
            return;
        }
        if CtrlMessage::is_ctrl(&data) {
            if let Some(msg) = CtrlMessage::parse(data) {
                self.handle_ctrl(now, from, msg, out);
            }
            return;
        }
        match self.endpoint_to_client.get(&from).copied() {
            Some(client) => {
                if data.len() >= 2 && (200..=206).contains(&data[1]) {
                    self.handle_rtcp(now, client, data, out);
                } else if let Ok(pkt) = RtpPacket::parse(data.clone()) {
                    self.handle_rtp(now, client, true, pkt, data, out);
                }
            }
            None if self.is_peer(from) => {
                // Media relayed from a peer node: forward to local
                // subscribers (never re-relayed — single-hop mesh).
                if data.len() >= 2 && (200..=206).contains(&data[1]) {
                    // RTCP from a peer: NACKs relayed toward a local
                    // publisher.
                    if let Ok(packets) = RtcpPacket::parse_compound(data) {
                        for p in packets {
                            if let RtcpPacket::Nack(nack) = p {
                                if let Some((publisher, _, _)) = decode_ssrc(nack.media_ssrc) {
                                    if let Some(&endpoint) = self.clients.get(&publisher) {
                                        out.send(
                                            endpoint,
                                            Packet::new(RtcpPacket::serialize_compound(&[
                                                RtcpPacket::Nack(nack),
                                            ])),
                                        );
                                    }
                                }
                            }
                        }
                    }
                } else if let Ok(pkt) = RtpPacket::parse(data.clone()) {
                    if let Some((publisher, _, _)) = decode_ssrc(pkt.ssrc) {
                        self.handle_rtp(now, publisher, false, pkt, data, out);
                    }
                }
            }
            None => {}
        }
    }

    fn on_timer(&mut self, now: SimTime, token: u64, out: &mut Actions) {
        match token {
            FAST_TICK => {
                if !self.started {
                    self.started = true;
                    self.last_slow = now;
                }
                // Uplink transport feedback toward each client.
                let clients: Vec<ClientId> = self.clients.keys().copied().collect();
                for client in clients {
                    let fbs = self
                        .twcc_up
                        .get_mut(&client)
                        .map(gso_bwe::TwccGenerator::poll)
                        .unwrap_or_default();
                    if fbs.is_empty() {
                        continue;
                    }
                    let rtcp: Vec<RtcpPacket> =
                        fbs.into_iter().map(|(_, fb)| RtcpPacket::TransportFeedback(fb)).collect();
                    let endpoint = self.clients[&client];
                    out.send(endpoint, Packet::new(RtcpPacket::serialize_compound(&rtcp)));
                }
                out.timer_in(now, FAST_INTERVAL, FAST_TICK);
            }
            SLOW_TICK => {
                let dt = now.saturating_since(self.last_slow).as_secs_f64().max(1e-9);
                self.last_slow = now;
                // Update observed layer rates (with decay to zero).
                for lr in self.layer_rates.values_mut() {
                    lr.rate = Bitrate::from_bps((lr.bytes_window as f64 * 8.0 / dt) as u64);
                    lr.bytes_window = 0;
                }

                // Downlink reports to the conference node + probing.
                let clients: Vec<ClientId> = self.down.keys().copied().collect();
                for client in clients {
                    let path = self.down.get_mut(&client).expect("present");
                    let estimate = path.bwe.estimate();
                    let sent_rate = path.bytes_window as f64 * 8.0 / dt;
                    path.bytes_window = 0;
                    let app_limited = sent_rate < 0.7 * estimate.as_bps() as f64;
                    let want_probe = app_limited || path.bwe.needs_validation();
                    if let Some(cluster) = path.probes.poll(now, estimate, want_probe) {
                        Self::emit_downlink_probe(path, now, cluster, out);
                    }
                    path.history.prune(now);
                    if self.mode == PolicyMode::Gso {
                        if let Some(report) = path.reporter.poll(now, estimate) {
                            // During a blackout the scheduler still advances
                            // (reports resume on cadence), but nothing is
                            // sent.
                            if let (false, Some(cn)) = (self.report_blackout, self.conference) {
                                out.send(
                                    cn,
                                    Packet::new(
                                        CtrlMessage::DownlinkReport { client, bitrate: report }
                                            .serialize(),
                                    ),
                                );
                            }
                        }
                    }
                }

                self.apply_local_policy(now, out);
                out.timer_in(now, SLOW_INTERVAL, SLOW_TICK);
            }
            _ => {}
        }
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
    use crate::ctrl::CtrlMessage;
    use gso_control::ForwardingRule;
    use gso_media::{frame, EncodedFrame};
    use gso_net::Node;
    use gso_rtp::{GsoTmmbn, Semb};
    use gso_util::SimTime;

    fn an_with_two_clients() -> (AccessNode, NodeId, NodeId, NodeId) {
        let cn = NodeId(0);
        let mut an = AccessNode::new(PolicyMode::Gso, Some(cn));
        let (e1, e2) = (NodeId(10), NodeId(11));
        an.attach(ClientId(1), e1);
        an.attach(ClientId(2), e2);
        (an, cn, e1, e2)
    }

    fn video_packet(client: u32, keyframe: bool) -> gso_rtp::RtpPacket {
        let f = EncodedFrame {
            ssrc: ssrc_for(ClientId(client), StreamKind::Video, 360),
            frame_id: 1,
            keyframe,
            size: 500,
            resolution_lines: 360,
            captured_at: SimTime::from_millis(10),
        };
        let mut seq = 5;
        frame::packetize(&f, &mut seq, 96).remove(0)
    }

    fn rule(sub: u32, publisher: u32) -> ForwardingRule {
        ForwardingRule {
            subscriber: ClientId(sub),
            source: SourceId::video(ClientId(publisher)),
            tag: 0,
            ssrc: ssrc_for(ClientId(publisher), StreamKind::Video, 360),
            bitrate: Bitrate::from_kbps(600),
        }
    }

    fn rules_for(sub: u32, publisher: u32) -> CtrlMessage {
        CtrlMessage::Rules { epoch: 0, rules: vec![rule(sub, publisher)] }
    }

    #[test]
    fn rules_install_switcher_and_forward_on_keyframe() {
        let (mut an, cn, e1, e2) = an_with_two_clients();
        let mut out = Actions::default();
        an.on_packet(SimTime::ZERO, cn, Packet::new(rules_for(2, 1).serialize()), &mut out);
        // Delta packet before a keyframe: not forwarded.
        let mut out = Actions::default();
        an.on_packet(
            SimTime::from_millis(1),
            e1,
            Packet::new(video_packet(1, false).serialize()),
            &mut out,
        );
        assert!(out.is_empty(), "no splice mid-GoP");
        // Keyframe: forwarded to client 2's endpoint as the very datagram
        // that arrived (shared, not re-serialized).
        let wire = video_packet(1, true).serialize();
        let mut out = Actions::default();
        an.on_packet(SimTime::from_millis(2), e1, Packet::new(wire.clone()), &mut out);
        let dests: Vec<NodeId> = out.sends().iter().map(|(d, _)| *d).collect();
        assert_eq!(dests, vec![e2]);
        assert_eq!(out.sends()[0].1.data.as_ptr(), wire.as_ptr());
    }

    #[test]
    fn spoofed_ssrc_dropped() {
        let (mut an, cn, e1, _e2) = an_with_two_clients();
        let mut out = Actions::default();
        an.on_packet(SimTime::ZERO, cn, Packet::new(rules_for(2, 2).serialize()), &mut out);
        // Client 1's endpoint sends a packet claiming client 2's SSRC.
        let mut out = Actions::default();
        an.on_packet(SimTime::ZERO, e1, Packet::new(video_packet(2, true).serialize()), &mut out);
        assert!(out.is_empty(), "spoofed media must not be forwarded");
    }

    #[test]
    fn probe_padding_absorbed() {
        let (mut an, _cn, e1, _e2) = an_with_two_clients();
        let pkt = gso_rtp::RtpPacket {
            marker: false,
            payload_type: 127,
            sequence: 1,
            timestamp: 0,
            ssrc: ssrc_for(ClientId(1), StreamKind::Video, 16),
            payload: bytes::Bytes::from(vec![0u8; 100]),
        };
        let mut out = Actions::default();
        an.on_packet(SimTime::ZERO, e1, Packet::new(pkt.serialize()), &mut out);
        assert!(out.is_empty(), "probe padding terminates at the node");
    }

    #[test]
    fn semb_relayed_to_conference_as_uplink_report() {
        let (mut an, cn, e1, _e2) = an_with_two_clients();
        let semb = RtcpPacket::Semb(Semb {
            sender_ssrc: ssrc_for(ClientId(1), StreamKind::Video, 0),
            bitrate: Bitrate::from_kbps(2_048),
            ssrcs: vec![],
        });
        let mut out = Actions::default();
        an.on_packet(
            SimTime::ZERO,
            e1,
            Packet::new(RtcpPacket::serialize_compound(&[semb])),
            &mut out,
        );
        assert_eq!(out.sends().len(), 1);
        let (dest, pkt) = &out.sends()[0];
        assert_eq!(*dest, cn);
        let msg = CtrlMessage::parse(pkt.data.clone()).unwrap();
        assert_eq!(
            msg,
            CtrlMessage::UplinkReport { client: ClientId(1), bitrate: Bitrate::from_kbps(2_048) }
        );
    }

    #[test]
    fn gtbn_relayed_to_conference() {
        let (mut an, cn, e1, _e2) = an_with_two_clients();
        let ack = RtcpPacket::GsoTmmbn(GsoTmmbn {
            sender_ssrc: ssrc_for(ClientId(1), StreamKind::Video, 0),
            epoch: 0,
            request_seq: 7,
            entries: vec![],
        });
        let mut out = Actions::default();
        an.on_packet(
            SimTime::ZERO,
            e1,
            Packet::new(RtcpPacket::serialize_compound(&[ack])),
            &mut out,
        );
        assert_eq!(out.sends().len(), 1);
        assert_eq!(out.sends()[0].0, cn);
        assert!(matches!(
            CtrlMessage::parse(out.sends()[0].1.data.clone()),
            Some(CtrlMessage::AckRelay { client, .. }) if client == ClientId(1)
        ));
    }

    #[test]
    fn resync_request_returns_cached_snapshot() {
        let (mut an, cn, e1, _e2) = an_with_two_clients();
        // An SDP offer passing through caches the negotiated ladders.
        let offer = gso_control::SdpOffer {
            client: ClientId(1),
            codec: "H264".into(),
            ladders: vec![(StreamKind::Video, gso_algo::ladders::paper_table1())],
        };
        let mut out = Actions::default();
        an.on_packet(
            SimTime::ZERO,
            e1,
            Packet::new(
                CtrlMessage::SdpOffer { client: ClientId(1), sdp: offer.to_sdp() }.serialize(),
            ),
            &mut out,
        );
        // A subscribe and a SEMB cache intents and the uplink estimate.
        let sub = CtrlMessage::Subscribe {
            client: ClientId(1),
            intents: vec![SubscribeIntent {
                source: SourceId::video(ClientId(2)),
                max_resolution: gso_algo::Resolution::R720,
                tag: 0,
            }],
        };
        let mut out = Actions::default();
        an.on_packet(SimTime::ZERO, e1, Packet::new(sub.serialize()), &mut out);
        let semb = RtcpPacket::Semb(Semb {
            sender_ssrc: ssrc_for(ClientId(1), StreamKind::Video, 0),
            bitrate: Bitrate::from_kbps(1_500),
            ssrcs: vec![],
        });
        let mut out = Actions::default();
        an.on_packet(
            SimTime::ZERO,
            e1,
            Packet::new(RtcpPacket::serialize_compound(&[semb])),
            &mut out,
        );
        // The resync reply carries all of it back to the conference node.
        let mut out = Actions::default();
        an.on_packet(
            SimTime::ZERO,
            cn,
            Packet::new(CtrlMessage::ResyncRequest { epoch: 0 }.serialize()),
            &mut out,
        );
        assert_eq!(out.sends().len(), 1);
        assert_eq!(out.sends()[0].0, cn);
        let Some(CtrlMessage::ResyncState { clients }) =
            CtrlMessage::parse(out.sends()[0].1.data.clone())
        else {
            panic!("expected a ResyncState reply");
        };
        assert_eq!(clients.len(), 2, "both attached clients snapshotted");
        let c1 = clients.iter().find(|c| c.client == ClientId(1)).unwrap();
        assert_eq!(c1.ladders.len(), 1, "ladder recovered from the cached offer");
        assert_eq!(c1.intents.len(), 1, "intents recovered");
        assert_eq!(c1.uplink, Bitrate::from_kbps(1_500), "uplink recovered");
    }

    #[test]
    fn only_local_subscribes_are_relayed_to_the_conference() {
        let (mut an, cn, e1, _e2) = an_with_two_clients();
        let intents = vec![SubscribeIntent {
            source: SourceId::video(ClientId(1)),
            max_resolution: gso_algo::Resolution::R720,
            tag: 0,
        }];
        // The conference node's rebroadcast of a remote client's subscribe
        // is recorded for audio fan-out and goes no further.
        let remote = CtrlMessage::Subscribe { client: ClientId(7), intents: intents.clone() };
        let mut out = Actions::default();
        an.on_packet(SimTime::ZERO, cn, Packet::new(remote.serialize()), &mut out);
        assert_eq!(an.subs.get(&ClientId(7)), Some(&intents));
        assert!(out.is_empty(), "a rebroadcast must not bounce back to the conference node");
        // A local client's own subscribe goes up exactly once.
        let local = CtrlMessage::Subscribe { client: ClientId(1), intents };
        let mut out = Actions::default();
        an.on_packet(SimTime::ZERO, e1, Packet::new(local.serialize()), &mut out);
        assert_eq!(out.sends().len(), 1);
        assert_eq!(out.sends()[0].0, cn);
        assert_eq!(CtrlMessage::parse(out.sends()[0].1.data.clone()), Some(local));
    }

    #[test]
    fn config_push_forwarded_to_client_endpoint() {
        let (mut an, cn, e1, _e2) = an_with_two_clients();
        let msg = CtrlMessage::ConfigPush {
            epoch: 0,
            client: ClientId(1),
            rtcp: bytes::Bytes::from_static(b"\x80\xcc\x00\x00"),
        };
        let mut out = Actions::default();
        an.on_packet(SimTime::ZERO, cn, Packet::new(msg.serialize()), &mut out);
        assert_eq!(out.sends().len(), 1);
        assert_eq!(out.sends()[0].0, e1);
    }

    #[test]
    fn pending_switch_triggers_keyframe_request() {
        let (mut an, cn, e1, _e2) = an_with_two_clients();
        let mut out = Actions::default();
        an.on_packet(SimTime::ZERO, cn, Packet::new(rules_for(2, 1).serialize()), &mut out);
        // A fresh switch is pending: a keyframe request must go to client 1.
        let kf: Vec<_> =
            out.sends().iter().filter(|(d, p)| *d == e1 && CtrlMessage::is_ctrl(&p.data)).collect();
        assert_eq!(kf.len(), 1);
        assert!(matches!(
            CtrlMessage::parse(kf[0].1.data.clone()),
            Some(CtrlMessage::KeyframeRequest { source }) if source == SourceId::video(ClientId(1))
        ));
    }

    #[test]
    fn remote_client_rules_build_relay_routes() {
        let cn = NodeId(0);
        let peer = NodeId(99);
        let mut an = AccessNode::new(PolicyMode::Gso, Some(cn));
        an.attach(ClientId(1), NodeId(10));
        an.attach_remote(ClientId(2), peer);
        // Client 2 (remote) subscribes to local client 1.
        let mut out = Actions::default();
        an.on_packet(SimTime::ZERO, cn, Packet::new(rules_for(2, 1).serialize()), &mut out);
        // A keyframed packet from client 1 is relayed to the peer unchanged.
        let wire = video_packet(1, true).serialize();
        let mut out = Actions::default();
        an.on_packet(SimTime::from_millis(1), NodeId(10), Packet::new(wire.clone()), &mut out);
        let dests: Vec<NodeId> = out.sends().iter().map(|(d, _)| *d).collect();
        assert_eq!(dests, vec![peer]);
        assert_eq!(out.sends()[0].1.data.as_ptr(), wire.as_ptr());
    }

    #[test]
    fn relay_sends_one_copy_per_peer_until_rules_drop_the_route() {
        let cn = NodeId(0);
        let (near, far) = (NodeId(50), NodeId(99));
        let mut an = AccessNode::new(PolicyMode::Gso, Some(cn));
        an.attach(ClientId(1), NodeId(10));
        an.attach_remote(ClientId(2), far);
        an.attach_remote(ClientId(3), far);
        an.attach_remote(ClientId(4), near);
        let relayed_to = |an: &mut AccessNode, at_ms: u64| {
            let mut out = Actions::default();
            let wire = video_packet(1, true).serialize();
            an.on_packet(SimTime::from_millis(at_ms), NodeId(10), Packet::new(wire), &mut out);
            out.sends().iter().map(|(d, _)| *d).collect::<Vec<_>>()
        };
        // Two remote subscribers behind `far` and one behind `near`: one
        // copy per peer link, in ascending node order.
        let rules =
            CtrlMessage::Rules { epoch: 0, rules: vec![rule(2, 1), rule(3, 1), rule(4, 1)] };
        an.on_packet(SimTime::ZERO, cn, Packet::new(rules.serialize()), &mut Actions::default());
        assert_eq!(relayed_to(&mut an, 1), vec![near, far]);
        // A replacement without clients 2 and 3 stops the relay to `far`…
        an.on_packet(
            SimTime::ZERO,
            cn,
            Packet::new(rules_for(4, 1).serialize()),
            &mut Actions::default(),
        );
        assert_eq!(relayed_to(&mut an, 2), vec![near]);
        // …and an empty one stops it altogether.
        let none = CtrlMessage::Rules { epoch: 0, rules: vec![] };
        an.on_packet(SimTime::ZERO, cn, Packet::new(none.serialize()), &mut Actions::default());
        assert!(relayed_to(&mut an, 3).is_empty());
    }

    #[test]
    fn baseline_switch_to_remote_publisher_requests_keyframe_via_peer() {
        let peer = NodeId(99);
        let e2 = NodeId(11);
        let mut an = AccessNode::new(PolicyMode::NonGso, None);
        an.attach(ClientId(2), e2);
        an.attach_remote(ClientId(1), peer);
        let sub = CtrlMessage::Subscribe {
            client: ClientId(2),
            intents: vec![SubscribeIntent {
                source: SourceId::video(ClientId(1)),
                max_resolution: gso_algo::Resolution::R720,
                tag: 0,
            }],
        };
        an.on_packet(SimTime::ZERO, e2, Packet::new(sub.serialize()), &mut Actions::default());
        // The peer relays client 1's layer, so the local policy sees it flow.
        let wire = video_packet(1, false).serialize();
        an.on_packet(SimTime::from_millis(1), peer, Packet::new(wire), &mut Actions::default());
        // The slow tick selects that layer for client 2; the pending switch
        // asks client 1 for a keyframe through the peer that hosts it.
        let mut out = Actions::default();
        an.on_timer(SimTime::from_millis(500), SLOW_TICK, &mut out);
        let kf: Vec<NodeId> = out
            .sends()
            .iter()
            .filter(|(_, p)| {
                CtrlMessage::is_ctrl(&p.data)
                    && matches!(
                        CtrlMessage::parse(p.data.clone()),
                        Some(CtrlMessage::KeyframeRequest { source })
                            if source == SourceId::video(ClientId(1))
                    )
            })
            .map(|(d, _)| *d)
            .collect();
        assert_eq!(kf, vec![peer]);
    }

    #[test]
    fn stale_epoch_is_dropped_and_newer_epoch_adopted() {
        let (mut an, cn, _e1, e2) = an_with_two_clients();
        // The restarted controller's resync carries epoch 1: adopted, and
        // answered with the cached client state.
        let mut out = Actions::default();
        let resync = CtrlMessage::ResyncRequest { epoch: 1 };
        an.on_packet(SimTime::ZERO, cn, Packet::new(resync.serialize()), &mut out);
        assert_eq!(out.sends().len(), 1);
        assert!(matches!(
            CtrlMessage::parse(out.sends()[0].1.data.clone()),
            Some(CtrlMessage::ResyncState { .. })
        ));

        // Epoch-0 rules sent before the restart arrive late: dropped with
        // no reply.
        let mut out = Actions::default();
        an.on_packet(
            SimTime::from_millis(1),
            cn,
            Packet::new(rules_for(2, 1).serialize()),
            &mut out,
        );
        assert!(an.switchers.is_empty(), "stale-epoch rules must not be applied");
        assert!(out.sends().is_empty(), "a stale message gets no reply");
        assert_eq!(an.stale_dropped(), 1);

        // The same rules at the current epoch are applied.
        let current = CtrlMessage::Rules { epoch: 1, rules: vec![rule(2, 1)] };
        let mut out = Actions::default();
        an.on_packet(SimTime::from_millis(2), cn, Packet::new(current.serialize()), &mut out);
        assert!(!an.switchers.is_empty(), "current-epoch rules applied");

        // So is a config push at the current epoch; the drop count holds.
        let push = CtrlMessage::ConfigPush {
            epoch: 1,
            client: ClientId(2),
            rtcp: bytes::Bytes::from_static(b"\x80\xcc\x00\x00"),
        };
        let mut out = Actions::default();
        an.on_packet(SimTime::from_millis(3), cn, Packet::new(push.serialize()), &mut out);
        assert_eq!(out.sends().len(), 1);
        assert_eq!(out.sends()[0].0, e2);
        assert_eq!(an.stale_dropped(), 1);
    }
}
