//! The conference client (user-plane endpoint).
//!
//! A [`ClientNode`] publishes simulcast video (plus audio and optionally a
//! screen share) toward its accessing node, estimates its uplink with the
//! sender-side BWE, reports it via SEMB, receives the streams it subscribes
//! to, generates transport feedback for the accessing node's downlink
//! estimation, NACKs losses, applies GTMB configuration from the controller
//! (acknowledging with GTBN), and — in the baseline modes — runs the local
//! template policy instead.

use crate::ctrl::CtrlMessage;
use gso_algo::{Ladder, SourceId};
use gso_bwe::{
    BweConfig, ProbeConfig, ProbeController, SembConfig, SembScheduler, SendHistory, SenderBwe,
    TwccGenerator,
};
use gso_control::{BandwidthHysteresis, SubscribeIntent};
use gso_media::{
    frame, AudioSource, LayerConfig, SimulcastEncoder, StreamReceiver, VideoPlayback, VoicePlayback,
};
use gso_net::{Actions, Node, NodeId, Packet};
use gso_rtp::{decode_ssrc, epoch_newer, ssrc_for, GsoTmmbn, Nack, RtcpPacket, RtpPacket, Semb};
use gso_sfu::{layers_for, TemplateKind};
use gso_telemetry::{keys, Telemetry};
use gso_util::stats::TimeSeries;
use gso_util::{Bitrate, ClientId, SimDuration, SimTime, Ssrc, StreamKind};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Which stream policy the client (and its conference) runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyMode {
    /// Global stream orchestration (the paper's system).
    Gso,
    /// Traditional template-based Simulcast (the Non-GSO baseline).
    NonGso,
    /// Competitor 1: two-level template.
    Competitor1,
    /// Competitor 2: single adaptive stream.
    Competitor2,
}

impl PolicyMode {
    /// Short stable identifier (used in telemetry conference names).
    pub fn short_name(self) -> &'static str {
        match self {
            PolicyMode::Gso => "gso",
            PolicyMode::NonGso => "nongso",
            PolicyMode::Competitor1 => "comp1",
            PolicyMode::Competitor2 => "comp2",
        }
    }

    /// The publisher-side template for baseline modes.
    pub fn template(self) -> Option<TemplateKind> {
        match self {
            PolicyMode::Gso => None,
            PolicyMode::NonGso => Some(TemplateKind::NonGso),
            PolicyMode::Competitor1 => Some(TemplateKind::Competitor1),
            PolicyMode::Competitor2 => Some(TemplateKind::Competitor2),
        }
    }
}

/// Timer tokens. The low byte is the kind; higher bits carry the boot
/// generation so timer chains armed before a crash die out instead of
/// doubling the cadence after a rejoin.
const BOOT: u64 = 0;
const VIDEO_TICK: u64 = 1;
const AUDIO_TICK: u64 = 2;
const FAST_TICK: u64 = 3;
const SLOW_TICK: u64 = 4;

const FAST_INTERVAL: SimDuration = SimDuration::from_millis(100);
const SLOW_INTERVAL: SimDuration = SimDuration::from_millis(500);

/// Static client configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Identity.
    pub id: ClientId,
    /// Policy mode.
    pub mode: PolicyMode,
    /// Negotiated camera ladder (the simulcastInfo content).
    pub ladder: Ladder,
    /// Optional screen-share ladder.
    pub screen_ladder: Option<Ladder>,
    /// Subscription intents to signal at join.
    pub subscriptions: Vec<SubscribeIntent>,
    /// Whether this client publishes audio.
    pub audio: bool,
    /// BWE tuning.
    pub bwe: BweConfig,
}

impl ClientConfig {
    /// A camera+audio client with the given ladder and subscriptions.
    pub fn new(
        id: ClientId,
        mode: PolicyMode,
        ladder: Ladder,
        subscriptions: Vec<SubscribeIntent>,
    ) -> Self {
        ClientConfig {
            id,
            mode,
            ladder,
            screen_ladder: None,
            subscriptions,
            audio: true,
            bwe: BweConfig::default(),
        }
    }
}

/// Per-client collected metrics.
#[derive(Debug, Default)]
pub struct ClientMetrics {
    /// Total video bitrate received, sampled each slow tick.
    pub recv_rate: TimeSeries,
    /// Total video bitrate sent (media only), sampled each slow tick.
    pub send_rate: TimeSeries,
    /// Sender-side work units (capture, encode, packetize, RTCP).
    pub sender_work: f64,
    /// Receiver-side work units (depacketize, decode, render, RTCP).
    pub receiver_work: f64,
}

/// The client node.
pub struct ClientNode {
    cfg: ClientConfig,
    an: NodeId,
    started: Option<SimTime>,

    video_enc: SimulcastEncoder,
    screen_enc: Option<SimulcastEncoder>,
    audio_src: Option<AudioSource>,
    seqs: BTreeMap<Ssrc, u16>,
    rtx: BTreeMap<Ssrc, VecDeque<RtpPacket>>,
    /// Retransmission budget in bytes, replenished at 25 % of the media
    /// target per second. Without a budget, a burst of queue drops turns
    /// into a self-sustaining NACK/retransmission storm: the retransmissions
    /// saturate the uplink, causing the next round of drops.
    rtx_budget: f64,
    /// Recently retransmitted (ssrc, seq) pairs, deduplicated for a short
    /// window so overlapping NACKs from several subscribers do not multiply
    /// the repair traffic.
    recent_rtx: BTreeMap<(Ssrc, u16), SimTime>,
    probe_seq: u16,

    history: SendHistory,
    bwe: SenderBwe,
    probes: ProbeController,
    semb: SembScheduler,
    /// Smooths the estimate the local template policy sees; without it the
    /// template flaps layers whenever the raw estimate wobbles across a
    /// cumulative-bitrate boundary (baselines deploy the same trick).
    template_gate: BandwidthHysteresis<u8>,

    receivers: BTreeMap<Ssrc, StreamReceiver>,
    /// Playback metric trackers per subscribed publisher source.
    pub video_play: BTreeMap<SourceId, VideoPlayback>,
    /// Voice playback trackers per publisher.
    pub voice_play: BTreeMap<ClientId, VoicePlayback>,
    twcc_rx: TwccGenerator,
    last_keyframe_req: BTreeMap<SourceId, SimTime>,

    /// Highest controller generation seen; GTMBs from older epochs are
    /// rejected (§7: a config issued before a controller restart must not
    /// clobber post-restart state).
    ctrl_epoch: u32,
    /// Configs already applied in the current epoch, so duplicated GTMBs
    /// are re-acked without re-application.
    applied_cfgs: BTreeSet<(u32, u32)>,
    /// Crashed: the node is silent and deaf until [`ClientNode::rejoin`].
    down: bool,
    /// Boot generation, stamped into timer tokens (see token constants).
    boot_gen: u64,
    /// When set, SEMB uplink reports are suppressed (chaos: BWE feedback
    /// blackout).
    semb_blackout: bool,
    telemetry: Telemetry,

    bytes_recv_window: u64,
    bytes_sent_window: u64,
    last_sample: SimTime,
    /// Collected metrics.
    pub metrics: ClientMetrics,
}

impl ClientNode {
    /// Build a client attached to accessing node `an`.
    pub fn new(cfg: ClientConfig, an: NodeId, seed: u64) -> Self {
        let enc_rng = gso_util::DetRng::derive(seed, &format!("client-{}-enc", cfg.id.0));
        let layers: Vec<LayerConfig> = cfg
            .ladder
            .resolutions()
            .iter()
            .map(|r| LayerConfig {
                ssrc: ssrc_for(cfg.id, StreamKind::Video, r.0),
                resolution_lines: r.0,
                // All layers start disabled; GSO enables them via GTMB, the
                // baselines via their template on the first slow tick.
                target: Bitrate::ZERO,
            })
            .collect();
        let video_enc = SimulcastEncoder::new(15.0, layers, enc_rng);
        let screen_enc = cfg.screen_ladder.as_ref().map(|l| {
            let rng = gso_util::DetRng::derive(seed, &format!("client-{}-screen", cfg.id.0));
            let layers: Vec<LayerConfig> = l
                .resolutions()
                .iter()
                .map(|r| LayerConfig {
                    ssrc: ssrc_for(cfg.id, StreamKind::Screen, r.0),
                    resolution_lines: r.0,
                    target: Bitrate::ZERO,
                })
                .collect();
            SimulcastEncoder::new(5.0, layers, rng)
        });
        let audio_src =
            cfg.audio.then(|| AudioSource::new(ssrc_for(cfg.id, StreamKind::Audio, 0), 111));
        let bwe = SenderBwe::new(cfg.bwe.clone());
        ClientNode {
            an,
            video_enc,
            screen_enc,
            audio_src,
            seqs: BTreeMap::new(),
            rtx: BTreeMap::new(),
            rtx_budget: 30_000.0,
            recent_rtx: BTreeMap::new(),
            probe_seq: 0,
            history: SendHistory::new(),
            bwe,
            probes: ProbeController::new(ProbeConfig::default()),
            semb: SembScheduler::new(SembConfig::default()),
            template_gate: BandwidthHysteresis::new(),
            receivers: BTreeMap::new(),
            video_play: BTreeMap::new(),
            voice_play: BTreeMap::new(),
            twcc_rx: TwccGenerator::new(),
            last_keyframe_req: BTreeMap::new(),
            ctrl_epoch: 0,
            applied_cfgs: BTreeSet::new(),
            down: false,
            boot_gen: 0,
            semb_blackout: false,
            telemetry: Telemetry::disabled(),
            bytes_recv_window: 0,
            bytes_sent_window: 0,
            last_sample: SimTime::ZERO,
            metrics: ClientMetrics::default(),
            started: None,
            cfg,
        }
    }

    /// Client id.
    pub fn id(&self) -> ClientId {
        self.cfg.id
    }

    /// Attach a metrics registry; the uplink estimator reports with an
    /// `up:<client>` label.
    pub fn set_telemetry(&mut self, telemetry: gso_telemetry::Telemetry) {
        self.telemetry = telemetry.clone();
        self.bwe.set_telemetry(telemetry, format!("up:{}", self.cfg.id));
    }

    /// Suppress (or restore) SEMB uplink reporting — a BWE feedback
    /// blackout fault.
    pub fn set_semb_blackout(&mut self, on: bool) {
        self.semb_blackout = on;
    }

    /// Abrupt crash: the node goes silent and ignores all input until
    /// [`ClientNode::rejoin`]. Pending timer chains die out (stale boot
    /// generation), so the cadence does not double on rejoin.
    pub fn crash(&mut self) {
        self.down = true;
    }

    /// Whether the node is currently crashed.
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Rejoin after a crash as a fresh endpoint: transport and receiver
    /// state is reset, then the normal boot sequence (SDP offer, subscribe,
    /// timers) replays under a new boot generation.
    pub fn rejoin(&mut self, now: SimTime, out: &mut Actions) {
        self.down = false;
        self.boot_gen += 1;
        self.receivers.clear();
        self.rtx.clear();
        self.recent_rtx.clear();
        self.seqs.clear();
        self.twcc_rx = TwccGenerator::new();
        self.history = SendHistory::new();
        self.applied_cfgs.clear();
        self.on_timer(now, (self.boot_gen << 8) | BOOT, out);
    }

    /// Current uplink estimate.
    pub fn uplink_estimate(&self) -> Bitrate {
        self.bwe.estimate()
    }

    /// Kick off the node: call once, schedules the boot timer.
    pub fn schedule_boot(node: NodeId, sim: &mut gso_net::Simulator) {
        sim.schedule_timer(node, SimTime::ZERO, BOOT);
    }

    fn probe_ssrc(&self) -> Ssrc {
        // Resolution slot 4 is unused by real layers (lines = 16).
        ssrc_for(self.cfg.id, StreamKind::Video, 16)
    }

    fn send_rtp(&mut self, now: SimTime, pkt: RtpPacket, probe: bool, out: &mut Actions) {
        self.history.record(pkt.ssrc, pkt.sequence, now, pkt.wire_len() + 28, probe);
        if !probe {
            self.bytes_sent_window += pkt.wire_len() as u64;
            let buf = self.rtx.entry(pkt.ssrc).or_default();
            debug_assert!(
                buf.back().is_none_or(|b| b.sequence.wrapping_add(1) == pkt.sequence),
                "retransmission buffer must hold consecutive sequences"
            );
            buf.push_back(pkt.clone());
            if buf.len() > 512 {
                buf.pop_front();
            }
        }
        self.metrics.sender_work += gso_media::cost::PACKET_COST;
        out.send(self.an, Packet::new(pkt.serialize()));
    }

    fn send_rtcp(&mut self, packets: &[RtcpPacket], out: &mut Actions) {
        if packets.is_empty() {
            return;
        }
        self.metrics.sender_work += gso_media::cost::RTCP_COST * packets.len() as f64;
        out.send(self.an, Packet::new(RtcpPacket::serialize_compound(packets)));
    }

    /// Apply the publisher-side template (baseline modes).
    fn apply_template(&mut self, now: SimTime) {
        let Some(kind) = self.cfg.mode.template() else { return };
        let effective = self.template_gate.filter(0, now, self.bwe.estimate());
        let desired = layers_for(kind, effective);
        for ssrc in self.video_enc.layer_ssrcs() {
            let (_, _, lines) = decode_ssrc(ssrc).expect("own ssrc");
            let target =
                desired.iter().find(|&&(l, _)| l == lines).map_or(Bitrate::ZERO, |&(_, rate)| rate);
            self.video_enc.set_layer_rate(ssrc, target);
        }
    }

    fn handle_rtp(&mut self, now: SimTime, pkt: RtpPacket, out: &mut Actions) {
        self.twcc_rx.on_packet(now, pkt.ssrc, pkt.sequence);
        self.bytes_recv_window += pkt.wire_len() as u64;
        self.metrics.receiver_work += gso_media::cost::PACKET_COST;
        let Some((publisher, kind, lines)) = decode_ssrc(pkt.ssrc) else { return };
        match kind {
            StreamKind::Audio => {
                self.voice_play
                    .entry(publisher)
                    .or_insert_with(|| VoicePlayback::new(now))
                    .on_packet(now, pkt.sequence);
            }
            StreamKind::Video | StreamKind::Screen => {
                let _ = lines;
                let receiver =
                    self.receivers.entry(pkt.ssrc).or_insert_with(|| StreamReceiver::new(pkt.ssrc));
                let result = receiver.on_packet(now, &pkt);
                let source = SourceId { client: publisher, kind };
                // Stall/framerate are playback metrics: the clock starts at
                // the first media packet, not at join (join latency is a
                // separate concern).
                let play = self.video_play.entry(source).or_insert_with(|| VideoPlayback::new(now));
                for f in &result.rendered {
                    play.on_frame(f.rendered_at);
                }
                if !result.nacks.is_empty() {
                    let nack = RtcpPacket::Nack(Nack {
                        sender_ssrc: ssrc_for(self.cfg.id, StreamKind::Video, 0),
                        media_ssrc: pkt.ssrc,
                        lost: result.nacks,
                    });
                    self.send_rtcp(&[nack], out);
                }
                if result.needs_keyframe {
                    self.request_keyframe(now, source, out);
                }
            }
        }
    }

    fn request_keyframe(&mut self, now: SimTime, source: SourceId, out: &mut Actions) {
        let due = self
            .last_keyframe_req
            .get(&source)
            .is_none_or(|&t| now.saturating_since(t) >= SimDuration::from_millis(500));
        if due {
            self.last_keyframe_req.insert(source, now);
            out.send(self.an, Packet::new(CtrlMessage::KeyframeRequest { source }.serialize()));
        }
    }

    fn handle_rtcp(&mut self, now: SimTime, data: bytes::Bytes, out: &mut Actions) {
        let Ok(packets) = RtcpPacket::parse_compound(data) else { return };
        let mut feedback_results = Vec::new();
        let mut replies = Vec::new();
        for p in packets {
            self.metrics.receiver_work += gso_media::cost::RTCP_COST;
            match p {
                RtcpPacket::TransportFeedback(fb) => {
                    // Feedback for our own uplink streams.
                    let ssrc = fb.sender_ssrc;
                    feedback_results.extend(self.history.resolve(ssrc, &fb));
                }
                RtcpPacket::GsoTmmbr(req) => {
                    // RFC 1982 serial comparison, not `<`/`>`: restart storms
                    // eventually wrap the u32 epoch, and an ordinary compare
                    // would then classify every post-wrap configuration as
                    // stale — deadlocking the client against a live
                    // controller forever.
                    if epoch_newer(self.ctrl_epoch, req.epoch) {
                        // A config from a pre-restart controller generation:
                        // applying it would clobber newer state. Drop without
                        // acking, so the stale sender gives up on its own.
                        self.telemetry.incr(keys::EPOCH_STALE_REJECTED, self.cfg.id);
                        continue;
                    }
                    if epoch_newer(req.epoch, self.ctrl_epoch) {
                        self.ctrl_epoch = req.epoch;
                        self.applied_cfgs.clear();
                    }
                    if self.applied_cfgs.insert((req.epoch, req.request_seq)) {
                        for e in &req.entries {
                            if !self.video_enc.set_layer_rate(e.ssrc, e.bitrate) {
                                if let Some(screen) = self.screen_enc.as_mut() {
                                    screen.set_layer_rate(e.ssrc, e.bitrate);
                                }
                            }
                        }
                        if self.applied_cfgs.len() > 1024 {
                            self.applied_cfgs.pop_first();
                        }
                    } else {
                        // Duplicated delivery (network dup or controller
                        // retransmission racing the ack): don't re-apply,
                        // but do re-ack so delivery state converges.
                        self.telemetry.incr(keys::EPOCH_DUP_REACKED, self.cfg.id);
                    }
                    replies.push(RtcpPacket::GsoTmmbn(GsoTmmbn {
                        sender_ssrc: ssrc_for(self.cfg.id, StreamKind::Video, 0),
                        epoch: req.epoch,
                        request_seq: req.request_seq,
                        entries: req.entries.clone(),
                    }));
                }
                RtcpPacket::Nack(nack) => {
                    // A subscriber (via the SFU) asks for retransmissions of
                    // one of our streams — budgeted and deduplicated.
                    let mut resend = Vec::new();
                    if let Some(buf) = self.rtx.get(&nack.media_ssrc) {
                        // The buffered sequences are consecutive, so a
                        // sequence's slot is its distance from the oldest.
                        let oldest = buf.front().map_or(0, |p| p.sequence);
                        for seq in &nack.lost {
                            let key = (nack.media_ssrc, *seq);
                            let recently = self.recent_rtx.get(&key).is_some_and(|&t| {
                                now.saturating_since(t) < SimDuration::from_millis(150)
                            });
                            if recently {
                                continue;
                            }
                            if let Some(pkt) = buf.get(usize::from(seq.wrapping_sub(oldest))) {
                                if self.rtx_budget < pkt.wire_len() as f64 {
                                    break; // budget exhausted; NACK retries cover it
                                }
                                self.rtx_budget -= pkt.wire_len() as f64;
                                self.recent_rtx.insert(key, now);
                                resend.push(pkt.clone());
                            }
                        }
                    }
                    for pkt in resend {
                        // Retransmissions are new transport events.
                        self.history.record(
                            pkt.ssrc,
                            pkt.sequence,
                            now,
                            pkt.wire_len() + 28,
                            false,
                        );
                        self.metrics.sender_work += gso_media::cost::PACKET_COST;
                        out.send(self.an, Packet::new(pkt.serialize()));
                    }
                }
                _ => {}
            }
        }
        if !feedback_results.is_empty() {
            feedback_results.sort_by_key(|r| r.sent_at);
            self.bwe.on_feedback(now, &feedback_results);
        }
        self.send_rtcp(&replies, out);
    }

    fn emit_probe(&mut self, now: SimTime, cluster: gso_bwe::ProbeCluster, out: &mut Actions) {
        let bytes = cluster.target_rate.bytes_in(cluster.duration);
        // Short burst (§7: probing redundancy must be carefully bounded):
        // enough packets to measure line rate, few enough not to push the
        // bottleneck queue into dropping media.
        let count = (bytes / 1200).clamp(5, 15);
        let ssrc = self.probe_ssrc();
        for _ in 0..count {
            let seq = self.probe_seq;
            self.probe_seq = self.probe_seq.wrapping_add(1);
            let pkt = RtpPacket {
                marker: false,
                payload_type: 127,
                sequence: seq,
                timestamp: 0,
                ssrc,
                payload: bytes::Bytes::from(vec![0u8; 1172]),
            };
            self.send_rtp(now, pkt, true, out);
        }
    }
}

impl Node for ClientNode {
    fn on_packet(&mut self, now: SimTime, _from: NodeId, packet: Packet, out: &mut Actions) {
        if self.down {
            return;
        }
        let data = packet.data;
        if data.is_empty() {
            return;
        }
        if CtrlMessage::is_ctrl(&data) {
            // The only control message addressed to clients: keyframe
            // requests relayed from subscribers by the accessing node.
            if let Some(CtrlMessage::KeyframeRequest { source }) = CtrlMessage::parse(data) {
                if source.client == self.cfg.id {
                    match source.kind {
                        StreamKind::Screen => {
                            if let Some(e) = self.screen_enc.as_mut() {
                                e.request_keyframe();
                            }
                        }
                        _ => self.video_enc.request_keyframe(),
                    }
                }
            }
            return;
        }
        // Demux per RFC 5761: RTCP packet types occupy 200..=206 in the
        // second byte; RTP payload types (with or without the marker bit)
        // land outside that range for the PTs this stack uses (96/111/127).
        if data.len() >= 2 && (200..=206).contains(&data[1]) {
            self.handle_rtcp(now, data, out);
        } else if let Ok(pkt) = RtpPacket::parse(data) {
            if pkt.payload_type != 127 {
                self.handle_rtp(now, pkt, out);
            } else {
                // Probe padding: counts for transport feedback only.
                self.twcc_rx.on_packet(now, pkt.ssrc, pkt.sequence);
            }
        }
    }

    fn on_timer(&mut self, now: SimTime, token: u64, out: &mut Actions) {
        // Timers from a previous boot generation (armed before a crash)
        // fall through harmlessly instead of duplicating the new chains.
        if self.down || (token >> 8) != self.boot_gen {
            return;
        }
        let gen_bits = self.boot_gen << 8;
        match token & 0xff {
            BOOT => {
                self.started = Some(now);
                self.last_sample = now;
                // Join via SDP negotiation (§4.2): the offer carries the
                // simulcastInfo ladders; the conference node derives codec
                // capabilities and per-layer SSRCs from it.
                let mut ladders = vec![(StreamKind::Video, self.cfg.ladder.clone())];
                if let Some(l) = &self.cfg.screen_ladder {
                    ladders.push((StreamKind::Screen, l.clone()));
                }
                let offer =
                    gso_control::SdpOffer { client: self.cfg.id, codec: "H264".into(), ladders };
                out.send(
                    self.an,
                    Packet::new(
                        CtrlMessage::SdpOffer { client: self.cfg.id, sdp: offer.to_sdp() }
                            .serialize(),
                    ),
                );
                out.send(
                    self.an,
                    Packet::new(
                        CtrlMessage::Subscribe {
                            client: self.cfg.id,
                            intents: self.cfg.subscriptions.clone(),
                        }
                        .serialize(),
                    ),
                );
                self.apply_template(now);
                out.timer_at(now, gen_bits | VIDEO_TICK);
                if self.audio_src.is_some() {
                    out.timer_at(now, gen_bits | AUDIO_TICK);
                }
                out.timer_in(now, FAST_INTERVAL, gen_bits | FAST_TICK);
                out.timer_in(now, SLOW_INTERVAL, gen_bits | SLOW_TICK);
            }
            VIDEO_TICK => {
                let mut frames = self.video_enc.tick(now);
                if let Some(screen) = self.screen_enc.as_mut() {
                    frames.extend(screen.tick(now));
                }
                for f in frames {
                    let seq = self.seqs.entry(f.ssrc).or_insert(0);
                    let mut s = *seq;
                    let pkts = frame::packetize(&f, &mut s, 96);
                    *seq = s;
                    for p in pkts {
                        self.send_rtp(now, p, false, out);
                    }
                }
                out.timer_in(now, self.video_enc.frame_interval(), gen_bits | VIDEO_TICK);
            }
            AUDIO_TICK => {
                if let Some(audio) = self.audio_src.as_mut() {
                    let pkt = audio.tick(now);
                    self.metrics.sender_work += gso_media::cost::AUDIO_FRAME_COST;
                    // Audio is not part of the BWE media history (tiny) but
                    // does traverse the link.
                    out.send(self.an, Packet::new(pkt.serialize()));
                    out.timer_in(
                        now,
                        gso_media::audio::AUDIO_FRAME_INTERVAL,
                        gen_bits | AUDIO_TICK,
                    );
                }
            }
            FAST_TICK => {
                // Downlink transport feedback toward the accessing node.
                let fbs = self.twcc_rx.poll();
                let rtcp: Vec<RtcpPacket> =
                    fbs.into_iter().map(|(_, fb)| RtcpPacket::TransportFeedback(fb)).collect();
                self.send_rtcp(&rtcp, out);

                // Receiver upkeep (NACK retries, keyframe requests).
                let ssrcs: Vec<Ssrc> = self.receivers.keys().copied().collect();
                for ssrc in ssrcs {
                    let result = self.receivers.get_mut(&ssrc).expect("present").poll(now);
                    if let Some((publisher, kind, _)) = decode_ssrc(ssrc) {
                        let source = SourceId { client: publisher, kind };
                        if let Some(play) = self.video_play.get_mut(&source) {
                            for f in &result.rendered {
                                play.on_frame(f.rendered_at);
                            }
                        }
                        if !result.nacks.is_empty() {
                            let nack = RtcpPacket::Nack(Nack {
                                sender_ssrc: ssrc_for(self.cfg.id, StreamKind::Video, 0),
                                media_ssrc: ssrc,
                                lost: result.nacks,
                            });
                            self.send_rtcp(&[nack], out);
                        }
                        if result.needs_keyframe {
                            self.request_keyframe(now, source, out);
                        }
                    }
                }

                // Uplink SEMB report (suppressed during a chaos blackout).
                if self.semb_blackout {
                    // Keep the scheduler's clock moving so reports resume
                    // on cadence when the blackout lifts.
                    let _ = self.semb.poll(now, self.bwe.estimate());
                } else if let Some(report) = self.semb.poll(now, self.bwe.estimate()) {
                    let semb = RtcpPacket::Semb(Semb {
                        sender_ssrc: ssrc_for(self.cfg.id, StreamKind::Video, 0),
                        bitrate: report,
                        ssrcs: vec![],
                    });
                    self.send_rtcp(&[semb], out);
                }

                // Probing when app-limited.
                let total_target = self.video_enc.total_target()
                    + self
                        .screen_enc
                        .as_ref()
                        .map_or(Bitrate::ZERO, gso_media::SimulcastEncoder::total_target);
                let app_limited =
                    (total_target.as_bps() as f64) < 0.7 * self.bwe.estimate().as_bps() as f64;
                let want_probe = app_limited || self.bwe.needs_validation();
                if let Some(cluster) = self.probes.poll(now, self.bwe.estimate(), want_probe) {
                    self.emit_probe(now, cluster, out);
                }

                self.history.prune(now);
                // Replenish the retransmission budget: 25 % of the media
                // target per second, capped at one second's worth.
                let media_rate = (self.video_enc.total_target()
                    + self
                        .screen_enc
                        .as_ref()
                        .map_or(Bitrate::ZERO, gso_media::SimulcastEncoder::total_target))
                .as_bps() as f64;
                let per_sec = 0.25 * media_rate / 8.0;
                self.rtx_budget = (self.rtx_budget + per_sec * FAST_INTERVAL.as_secs_f64())
                    .min(per_sec.max(30_000.0));
                self.recent_rtx
                    .retain(|_, &mut t| now.saturating_since(t) < SimDuration::from_secs(1));
                out.timer_in(now, FAST_INTERVAL, gen_bits | FAST_TICK);
            }
            SLOW_TICK => {
                self.apply_template(now);
                let dt = now.saturating_since(self.last_sample).as_secs_f64();
                if dt > 0.0 {
                    self.metrics.recv_rate.push(now, self.bytes_recv_window as f64 * 8.0 / dt);
                    self.metrics.send_rate.push(now, self.bytes_sent_window as f64 * 8.0 / dt);
                }
                self.bytes_recv_window = 0;
                self.bytes_sent_window = 0;
                self.last_sample = now;
                out.timer_in(now, SLOW_INTERVAL, gen_bits | SLOW_TICK);
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

impl ClientNode {
    /// Finalize per-session metrics at `end`; returns (video stall rate,
    /// voice stall rate, framerate) averaged over subscribed sources.
    pub fn session_metrics(&self, end: SimTime) -> SessionMetrics {
        let mut video_stall = 0.0;
        let mut framerate = 0.0;
        let nv = self.video_play.len().max(1);
        for play in self.video_play.values() {
            video_stall += play.stall_rate(end);
            framerate += play.framerate(end);
        }
        let mut voice_stall = 0.0;
        let na = self.voice_play.len().max(1);
        for play in self.voice_play.values() {
            voice_stall += play.stall_rate(end);
        }
        let session_secs =
            end.saturating_since(self.started.unwrap_or(SimTime::ZERO)).as_secs_f64().max(1e-9);
        let sender_work = self.metrics.sender_work
            + self.video_enc.work_units()
            + self.screen_enc.as_ref().map_or(0.0, gso_media::SimulcastEncoder::work_units)
            + self.audio_src.as_ref().map_or(0.0, gso_media::AudioSource::work_units);
        let receiver_work = self.metrics.receiver_work
            + self.receivers.values().map(gso_media::StreamReceiver::work_units).sum::<f64>();
        SessionMetrics {
            video_stall: video_stall / nv as f64,
            voice_stall: voice_stall / na as f64,
            framerate: framerate / nv as f64,
            quality: self.mean_quality(end),
            sender_cpu: gso_media::cost::utilization(sender_work, session_secs),
            receiver_cpu: gso_media::cost::utilization(receiver_work, session_secs),
            avg_recv_rate: Bitrate::from_bps(
                self.metrics.recv_rate.points().iter().map(|&(_, v)| v).sum::<f64>().max(0.0)
                    as u64
                    / self.metrics.recv_rate.len().max(1) as u64,
            ),
        }
    }

    /// VMAF-proxy quality averaged over subscribed sources: each source is
    /// scored from the resolution/bitrate/framerate it actually delivered.
    fn mean_quality(&self, end: SimTime) -> f64 {
        let per_source = self.render_stats_per_source();
        if per_source.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for stats in per_source.values() {
            if stats.frames == 0 {
                continue;
            }
            let start = stats.first_render.unwrap_or(SimTime::ZERO);
            let secs = end.saturating_since(start).as_secs_f64().max(1e-3);
            let rate = Bitrate::from_bps((stats.bytes as f64 * 8.0 / secs) as u64);
            let fps = stats.frames as f64 / secs;
            let lines = (stats.resolution_line_sum / stats.frames) as u16;
            total += gso_media::vmaf_proxy(lines, rate, fps);
        }
        total / per_source.len() as f64
    }

    /// Render aggregates per subscribed source, merged across the source's
    /// layer SSRCs (the receiver keeps constant-size aggregates rather than
    /// an unbounded frame log).
    pub fn render_stats_per_source(&self) -> BTreeMap<SourceId, gso_media::RenderStats> {
        let mut per_source: BTreeMap<SourceId, gso_media::RenderStats> = BTreeMap::new();
        for (ssrc, receiver) in &self.receivers {
            let Some((publisher, kind, _)) = decode_ssrc(*ssrc) else { continue };
            let source = SourceId { client: publisher, kind };
            per_source.entry(source).or_default().merge(&receiver.render_stats());
        }
        per_source
    }
}

/// Summary metrics of one client's session.
#[derive(Debug, Clone, Copy)]
pub struct SessionMetrics {
    /// Mean video stall rate over subscribed sources.
    pub video_stall: f64,
    /// Mean voice stall rate over publishers heard.
    pub voice_stall: f64,
    /// Mean rendered framerate over subscribed sources.
    pub framerate: f64,
    /// Mean VMAF-proxy video quality over subscribed sources.
    pub quality: f64,
    /// Sender-side CPU utilization (work-unit model).
    pub sender_cpu: f64,
    /// Receiver-side CPU utilization.
    pub receiver_cpu: f64,
    /// Mean received media rate.
    pub avg_recv_rate: Bitrate,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gso_net::Node;
    use gso_rtp::{GsoTmmbr, RtcpPacket, TmmbrEntry};

    fn client(mode: PolicyMode) -> ClientNode {
        let mut cfg = ClientConfig::new(
            ClientId(1),
            mode,
            crate::workloads::ladder_for_mode(mode),
            vec![SubscribeIntent {
                source: SourceId::video(ClientId(2)),
                max_resolution: gso_algo::Resolution::R720,
                tag: 0,
            }],
        );
        // Start with a healthy estimate so the baseline template enables
        // layers immediately (in a live run probing does this discovery).
        cfg.bwe.initial_rate = Bitrate::from_mbps(2);
        ClientNode::new(cfg, NodeId(0), 42)
    }

    #[test]
    fn boot_signals_sdp_offer_and_subscribe_and_arms_timers() {
        let mut c = client(PolicyMode::Gso);
        let mut out = Actions::default();
        c.on_timer(SimTime::ZERO, 0, &mut out);
        let msgs: Vec<CtrlMessage> =
            out.sends().iter().filter_map(|(_, p)| CtrlMessage::parse(p.data.clone())).collect();
        // Join happens via an SDP offer whose simulcastInfo carries the
        // negotiated ladder (§4.2).
        let CtrlMessage::SdpOffer { client, sdp } = &msgs[0] else {
            panic!("first message must be the SDP offer, got {:?}", msgs[0]);
        };
        assert_eq!(*client, ClientId(1));
        let offer = gso_control::SdpOffer::parse(sdp).expect("well-formed offer");
        assert_eq!(offer.ladders.len(), 1);
        assert_eq!(offer.ladders[0].1.len(), 15, "fine ladder advertised");
        assert!(matches!(&msgs[1], CtrlMessage::Subscribe { client, intents }
            if *client == ClientId(1) && intents.len() == 1));
        // Video, audio, fast and slow timers all armed.
        assert!(out.timers().len() >= 4);
    }

    #[test]
    fn gtmb_reconfigures_encoder_and_acks() {
        let mut c = client(PolicyMode::Gso);
        let mut out = Actions::default();
        c.on_timer(SimTime::ZERO, 0, &mut out);

        let ssrc = ssrc_for(ClientId(1), StreamKind::Video, 360);
        let gtmb = RtcpPacket::GsoTmmbr(GsoTmmbr {
            sender_ssrc: Ssrc(0xC0DE),
            epoch: 0,
            request_seq: 9,
            entries: vec![TmmbrEntry { ssrc, bitrate: Bitrate::from_kbps(512), overhead: 40 }],
        });
        let mut out = Actions::default();
        c.on_packet(
            SimTime::from_millis(10),
            NodeId(0),
            Packet::new(RtcpPacket::serialize_compound(&[gtmb])),
            &mut out,
        );
        assert_eq!(c.video_enc.layer_rate(ssrc), Some(Bitrate::from_kbps(512)));
        // A GTBN acknowledgement goes back out.
        let acked = out.sends().iter().any(|(_, p)| {
            RtcpPacket::parse_compound(p.data.clone()).is_ok_and(|ps| {
                ps.iter().any(|x| matches!(x, RtcpPacket::GsoTmmbn(n) if n.request_seq == 9))
            })
        });
        assert!(acked, "GTMB must be acknowledged with GTBN");
    }

    fn gtmb_packet(epoch: u32, seq: u32, kbps: u64) -> Packet {
        let ssrc = ssrc_for(ClientId(1), StreamKind::Video, 360);
        Packet::new(RtcpPacket::serialize_compound(&[RtcpPacket::GsoTmmbr(GsoTmmbr {
            sender_ssrc: Ssrc(0xC0DE),
            epoch,
            request_seq: seq,
            entries: vec![TmmbrEntry { ssrc, bitrate: Bitrate::from_kbps(kbps), overhead: 40 }],
        })]))
    }

    fn acks_in(out: &Actions) -> usize {
        out.sends()
            .iter()
            .filter(|(_, p)| {
                RtcpPacket::parse_compound(p.data.clone())
                    .is_ok_and(|ps| ps.iter().any(|x| matches!(x, RtcpPacket::GsoTmmbn(_))))
            })
            .count()
    }

    #[test]
    fn stale_epoch_gtmb_rejected_without_ack() {
        let mut c = client(PolicyMode::Gso);
        let mut out = Actions::default();
        c.on_timer(SimTime::ZERO, 0, &mut out);
        let ssrc = ssrc_for(ClientId(1), StreamKind::Video, 360);
        // Epoch 2 config applies.
        let mut out = Actions::default();
        c.on_packet(SimTime::from_millis(10), NodeId(0), gtmb_packet(2, 1, 512), &mut out);
        assert_eq!(c.video_enc.layer_rate(ssrc), Some(Bitrate::from_kbps(512)));
        assert_eq!(acks_in(&out), 1);
        // A straggler from the pre-restart controller (epoch 1) must not
        // clobber it — and must not be acked.
        let mut out = Actions::default();
        c.on_packet(SimTime::from_millis(20), NodeId(0), gtmb_packet(1, 9, 64), &mut out);
        assert_eq!(c.video_enc.layer_rate(ssrc), Some(Bitrate::from_kbps(512)));
        assert_eq!(acks_in(&out), 0, "stale-epoch GTMB must not be acknowledged");
    }

    #[test]
    fn duplicated_gtmb_reacked_not_reapplied() {
        let mut c = client(PolicyMode::Gso);
        let mut out = Actions::default();
        c.on_timer(SimTime::ZERO, 0, &mut out);
        let ssrc = ssrc_for(ClientId(1), StreamKind::Video, 360);
        let mut out = Actions::default();
        c.on_packet(SimTime::from_millis(10), NodeId(0), gtmb_packet(0, 5, 512), &mut out);
        assert_eq!(acks_in(&out), 1);
        // A later config moves the rate; then the network re-delivers the
        // old (epoch 0, seq 5) packet. It must be re-acked — the ack may
        // have been lost — but not re-applied.
        let mut out = Actions::default();
        c.on_packet(SimTime::from_millis(20), NodeId(0), gtmb_packet(0, 6, 800), &mut out);
        let mut out = Actions::default();
        c.on_packet(SimTime::from_millis(30), NodeId(0), gtmb_packet(0, 5, 512), &mut out);
        assert_eq!(acks_in(&out), 1, "duplicate must be re-acked");
        assert_eq!(
            c.video_enc.layer_rate(ssrc),
            Some(Bitrate::from_kbps(800)),
            "duplicate must not roll the encoder back"
        );
    }

    /// Regression: the controller epoch wraps `u32` under a long restart
    /// storm. The first configuration after the wrap (epoch 2 following
    /// `u32::MAX`) is *newer* in RFC 1982 serial terms — the old plain
    /// `<`/`>` comparison classified it as stale and the client deadlocked,
    /// rejecting every valid GTMBR from the live controller forever.
    #[test]
    fn epoch_wraparound_config_applies_instead_of_deadlocking() {
        let mut c = client(PolicyMode::Gso);
        let mut out = Actions::default();
        c.on_timer(SimTime::ZERO, 0, &mut out);
        let ssrc = ssrc_for(ClientId(1), StreamKind::Video, 360);

        // The client walks up to a pre-wrap generation the way a real
        // deployment does: each restart advances the epoch by far less than
        // 2^31, so serial comparison accepts every hop.
        for (i, epoch) in [0x7000_0000, 0xE000_0000, u32::MAX].into_iter().enumerate() {
            let mut out = Actions::default();
            let t = SimTime::from_millis(10 + i as u64);
            c.on_packet(t, NodeId(0), gtmb_packet(epoch, 1, 512), &mut out);
            assert_eq!(acks_in(&out), 1, "epoch {epoch:#x} must be adopted");
        }
        assert_eq!(c.video_enc.layer_rate(ssrc), Some(Bitrate::from_kbps(512)));

        // The controller restarts twice more; its epoch wraps to 2. The new
        // generation's configuration must apply and be acked (pre-fix: the
        // `req.epoch < ctrl_epoch` check rejected it as stale).
        let mut out = Actions::default();
        c.on_packet(SimTime::from_millis(20), NodeId(0), gtmb_packet(2, 1, 800), &mut out);
        assert_eq!(
            c.video_enc.layer_rate(ssrc),
            Some(Bitrate::from_kbps(800)),
            "post-wrap epoch must be treated as newer, not stale"
        );
        assert_eq!(acks_in(&out), 1, "post-wrap GTMB must be acknowledged");

        // A genuine straggler from the pre-wrap generation is still stale.
        let mut out = Actions::default();
        c.on_packet(SimTime::from_millis(30), NodeId(0), gtmb_packet(u32::MAX, 9, 64), &mut out);
        assert_eq!(c.video_enc.layer_rate(ssrc), Some(Bitrate::from_kbps(800)));
        assert_eq!(acks_in(&out), 0, "pre-wrap straggler must stay rejected");
    }

    #[test]
    fn crash_silences_and_rejoin_reboots_fresh() {
        let mut c = client(PolicyMode::Gso);
        let mut out = Actions::default();
        c.on_timer(SimTime::ZERO, 0, &mut out);
        c.on_packet(SimTime::from_millis(10), NodeId(0), gtmb_packet(0, 1, 512), &mut out);
        c.crash();
        assert!(c.is_down());
        // While down: timers and packets are ignored.
        let mut out = Actions::default();
        c.on_timer(SimTime::from_millis(100), 3, &mut out);
        c.on_packet(SimTime::from_millis(110), NodeId(0), gtmb_packet(0, 2, 256), &mut out);
        assert!(out.is_empty(), "a crashed client is silent");
        // Rejoin: fresh boot generation, SDP offer + subscribe go out again,
        // and the applied-config memory is gone (seq 2 now applies).
        let mut out = Actions::default();
        c.rejoin(SimTime::from_secs(2), &mut out);
        let offers = out
            .sends()
            .iter()
            .filter_map(|(_, p)| CtrlMessage::parse(p.data.clone()))
            .filter(|m| matches!(m, CtrlMessage::SdpOffer { .. }))
            .count();
        assert_eq!(offers, 1, "rejoin must re-offer");
        // Stale-generation timer (armed pre-crash) is a no-op…
        let mut out = Actions::default();
        c.on_timer(SimTime::from_secs(2), 3, &mut out);
        assert!(out.is_empty(), "pre-crash timer chains must die");
        // …while the new generation's fast tick runs.
        let mut out = Actions::default();
        c.on_timer(SimTime::from_secs(2) + SimDuration::from_millis(100), (1 << 8) | 3, &mut out);
        assert!(out.timers().iter().any(|&(_, t)| t == (1 << 8) | 3));
    }

    #[test]
    fn baseline_mode_self_configures_from_template() {
        let mut c = client(PolicyMode::NonGso);
        let mut out = Actions::default();
        c.on_timer(SimTime::ZERO, 0, &mut out);
        // The template enables layers from the local (initial) estimate
        // without any controller involvement.
        assert!(
            !c.video_enc.total_target().is_zero(),
            "template must enable at least the small layer"
        );
    }

    #[test]
    fn gso_mode_starts_with_all_layers_disabled() {
        let mut c = client(PolicyMode::Gso);
        let mut out = Actions::default();
        c.on_timer(SimTime::ZERO, 0, &mut out);
        assert!(c.video_enc.total_target().is_zero(), "GSO waits for the controller");
    }

    #[test]
    fn keyframe_request_ctrl_forces_keyframe() {
        let mut c = client(PolicyMode::NonGso);
        let mut out = Actions::default();
        c.on_timer(SimTime::ZERO, 0, &mut out);
        // Drain the initial keyframe.
        let mut out = Actions::default();
        c.on_timer(SimTime::from_millis(66), 1, &mut out);
        let req = CtrlMessage::KeyframeRequest { source: SourceId::video(ClientId(1)) };
        let mut out = Actions::default();
        c.on_packet(SimTime::from_millis(100), NodeId(0), Packet::new(req.serialize()), &mut out);
        // Next frame tick produces keyframes on enabled layers.
        let mut out = Actions::default();
        c.on_timer(SimTime::from_millis(132), 1, &mut out);
        let has_keyframe = out.sends().iter().any(|(_, p)| {
            gso_rtp::RtpPacket::parse(p.data.clone())
                .ok()
                .and_then(|pkt| gso_media::FragmentHeader::parse(&pkt.payload))
                .is_some_and(|h| h.keyframe)
        });
        assert!(has_keyframe, "keyframe request must take effect");
    }

    #[test]
    fn nack_triggers_retransmission_from_buffer() {
        let mut c = client(PolicyMode::NonGso);
        let mut boot = Actions::default();
        c.on_timer(SimTime::ZERO, 0, &mut boot);
        // Send frames until one stream has overflowed its 512-packet buffer.
        let mut sent: Vec<gso_rtp::RtpPacket> = Vec::new();
        let mut t = 0;
        while sent.len() <= 520 {
            t += 66;
            let mut out = Actions::default();
            c.on_timer(SimTime::from_millis(t), 1, &mut out);
            let media = out
                .sends()
                .iter()
                .filter_map(|(_, p)| gso_rtp::RtpPacket::parse(p.data.clone()).ok())
                .filter(|p| p.payload_type != 127);
            for pkt in media {
                if sent.first().is_none_or(|first| first.ssrc == pkt.ssrc) {
                    sent.push(pkt);
                }
            }
        }
        let ssrc = sent[0].ssrc;
        let newest = sent[sent.len() - 1].sequence;
        let oldest = sent[sent.len() - 512].sequence;
        let evicted = sent[sent.len() - 513].sequence;
        // NACK the oldest and newest buffered sequences and an evicted one.
        let nack = RtcpPacket::Nack(gso_rtp::Nack {
            sender_ssrc: Ssrc(1),
            media_ssrc: ssrc,
            lost: vec![evicted, oldest, newest],
        });
        let mut out = Actions::default();
        c.on_packet(
            SimTime::from_millis(t + 100),
            NodeId(0),
            Packet::new(RtcpPacket::serialize_compound(&[nack])),
            &mut out,
        );
        let mut retransmitted: Vec<u16> = out
            .sends()
            .iter()
            .filter_map(|(_, p)| gso_rtp::RtpPacket::parse(p.data.clone()).ok())
            .filter(|pkt| pkt.ssrc == ssrc)
            .map(|pkt| pkt.sequence)
            .collect();
        retransmitted.sort_unstable();
        let mut want = vec![oldest, newest];
        want.sort_unstable();
        assert_eq!(retransmitted, want);
    }
}
