//! Per-layer tracing of the packet simulator from outside the program.
//!
//! [`Timed`] wraps a simulator node and times each `on_packet`/`on_timer`
//! call, counting its allocations; it forwards `as_any`/`as_any_mut` to the
//! wrapped node, so downcasts and `Scenario::harvest` work unchanged. While
//! it runs it also captures what later replays need: every send a node
//! emits (the `Link::offer` sequence of each directed link) and a stride
//! sample of the RTP and RTCP payloads nodes receive.
//!
//! [`build_traced`] wires a scenario exactly as `Scenario::build` does
//! (same node order, links and boot timers), with every node wrapped.

use crate::alloc::allocs_now;
use bytes::Bytes;
use gso_control::ControllerConfig;
use gso_net::UDP_IP_OVERHEAD;
use gso_net::{Actions, Link, LinkConfig, LinkStats, Node, NodeId, Packet, Simulator};
use gso_rtp::{RtcpPacket, RtpPacket};
use gso_sim::access::AccessNode;
use gso_sim::client::{ClientConfig, ClientNode, PolicyMode};
use gso_sim::conference::{ConferenceNode, SPEAKER_EVENT};
use gso_sim::ctrl::CtrlMessage;
use gso_sim::{Scenario, WiredConference};
use gso_telemetry::Telemetry;
use gso_util::{Bitrate, ClientId, DetRng, SimDuration, SimTime};
use std::any::Any;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Keep every n-th received RTP/RTCP payload for the parse replay.
const SAMPLE_STRIDE: u64 = 8;
/// Upper bound on kept payloads per protocol.
const SAMPLE_CAP: usize = 40_000;

/// Node kinds timed separately.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// `ClientNode`: media, BWE, pacer, RTP serialization.
    Client = 0,
    /// `AccessNode`: SFU selector, switcher, relay.
    Access = 1,
    /// `ConferenceNode`: the controller.
    Conf = 2,
}

/// Totals for one node kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct KindStats {
    /// Callbacks dispatched.
    pub calls: u64,
    /// Wall time inside the callbacks.
    pub self_ns: u64,
    /// Allocations inside the callbacks.
    pub allocs: u64,
}

/// Everything the shims record during one traced run.
#[derive(Debug, Default)]
pub struct Probe {
    /// Per-kind callback totals, indexed by [`Kind`].
    pub kinds: [KindStats; 3],
    /// Wall time spent in shims, callbacks included.
    pub shim_total_ns: u64,
    /// Allocations made in shims, callbacks included.
    pub shim_total_allocs: u64,
    /// Per directed link, the `(time, wire size)` of every offered packet.
    pub offers: BTreeMap<(u32, u32), Vec<(SimTime, u32)>>,
    /// RTP packets received by nodes.
    pub rtp_packets: u64,
    /// RTCP (compound) packets received by nodes.
    pub rtcp_packets: u64,
    /// Sampled RTP payloads.
    pub rtp_samples: Vec<Bytes>,
    /// Sampled RTCP payloads.
    pub rtcp_samples: Vec<Bytes>,
}

impl Probe {
    fn classify(&mut self, data: &Bytes) {
        if data.is_empty() || CtrlMessage::is_ctrl(data) {
            return;
        }
        // The same RFC 5761 demux the client and access nodes apply.
        if data.len() >= 2 && (200..=206).contains(&data[1]) {
            self.rtcp_packets += 1;
            if self.rtcp_packets.is_multiple_of(SAMPLE_STRIDE)
                && self.rtcp_samples.len() < SAMPLE_CAP
            {
                self.rtcp_samples.push(data.clone());
            }
        } else {
            self.rtp_packets += 1;
            if self.rtp_packets.is_multiple_of(SAMPLE_STRIDE) && self.rtp_samples.len() < SAMPLE_CAP
            {
                self.rtp_samples.push(data.clone());
            }
        }
    }

    fn record_sends(&mut self, from: NodeId, now: SimTime, out: &Actions) {
        for (to, packet) in out.sends() {
            self.offers.entry((from.0, to.0)).or_default().push((now, packet.wire_size() as u32));
        }
    }

    /// Total wall time inside node callbacks.
    pub fn callback_ns(&self) -> u64 {
        self.kinds.iter().map(|k| k.self_ns).sum()
    }
}

/// A node wrapped in a timing shim.
pub struct Timed {
    inner: Box<dyn Node>,
    id: NodeId,
    kind: Kind,
    probe: Rc<RefCell<Probe>>,
}

impl Timed {
    fn finish(&self, t0: Instant, a0: u64, t1: Instant, a1: u64, now: SimTime, out: &Actions) {
        let t2 = Instant::now();
        let a2 = allocs_now();
        let mut p = self.probe.borrow_mut();
        p.record_sends(self.id, now, out);
        let k = &mut p.kinds[self.kind as usize];
        k.calls += 1;
        k.self_ns += (t2 - t1).as_nanos() as u64;
        k.allocs += a2 - a1;
        p.shim_total_allocs += allocs_now() - a0;
        p.shim_total_ns += t0.elapsed().as_nanos() as u64;
    }
}

impl Node for Timed {
    fn on_packet(&mut self, now: SimTime, from: NodeId, packet: Packet, out: &mut Actions) {
        let t0 = Instant::now();
        let a0 = allocs_now();
        self.probe.borrow_mut().classify(&packet.data);
        let a1 = allocs_now();
        let t1 = Instant::now();
        self.inner.on_packet(now, from, packet, out);
        self.finish(t0, a0, t1, a1, now, out);
    }

    fn on_timer(&mut self, now: SimTime, token: u64, out: &mut Actions) {
        let t0 = Instant::now();
        let a0 = allocs_now();
        let t1 = Instant::now();
        self.inner.on_timer(now, token, out);
        self.finish(t0, a0, t1, a0, now, out);
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// A traced, wired conference plus the configuration of every link (for
/// the `Link::offer` replay).
pub struct TracedConference {
    /// The wired conference, ready to run and harvest.
    pub wired: WiredConference,
    /// Every directed link's configuration.
    pub links: BTreeMap<(u32, u32), LinkConfig>,
}

struct Builder {
    sim: Simulator,
    probe: Rc<RefCell<Probe>>,
    links: BTreeMap<(u32, u32), LinkConfig>,
    next_id: u32,
}

impl Builder {
    fn node(&mut self, kind: Kind, inner: Box<dyn Node>) -> NodeId {
        // The simulator assigns node ids densely in insertion order.
        let id = NodeId(self.next_id);
        self.next_id += 1;
        let got =
            self.sim.add_node(Box::new(Timed { inner, id, kind, probe: Rc::clone(&self.probe) }));
        assert_eq!(got, id, "node ids are dense and ordered");
        id
    }

    fn link(&mut self, from: NodeId, to: NodeId, cfg: LinkConfig) {
        self.links.insert((from.0, to.0), cfg.clone());
        self.sim.add_link(from, to, cfg);
    }

    fn duplex(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) {
        self.link(a, b, cfg.clone());
        self.link(b, a, cfg);
    }
}

/// Wire `s` as `Scenario::build` does, with every node wrapped in a
/// [`Timed`] shim recording into `probe`. Standby shards are not supported
/// (no workload uses them).
pub fn build_traced(s: &Scenario, probe: &Rc<RefCell<Probe>>) -> TracedConference {
    assert!(!s.standby, "traced wiring does not model standby shards");
    let mut b = Builder {
        sim: Simulator::new(s.seed),
        probe: Rc::clone(probe),
        links: BTreeMap::new(),
        next_id: 0,
    };
    let telemetry = Telemetry::new(format!("{}-seed{}", s.mode.short_name(), s.seed));
    let backbone =
        |delay_ms| LinkConfig::clean(Bitrate::from_mbps(1_000), SimDuration::from_millis(delay_ms));

    let cn = b.node(
        Kind::Conf,
        Box::new(ConferenceNode::new(ControllerConfig::paper_defaults(), Vec::new())),
    );
    let n_regions = s.clients.iter().map(|c| c.region).max().unwrap_or(0) + 1;
    let ans: Vec<NodeId> = (0..n_regions)
        .map(|_| {
            b.node(
                Kind::Access,
                Box::new(AccessNode::new(s.mode, (s.mode == PolicyMode::Gso).then_some(cn))),
            )
        })
        .collect();
    for &an in &ans {
        b.duplex(an, cn, backbone(2));
        if let Some(conference) = b.sim.node_mut::<ConferenceNode>(cn) {
            conference.register_access_node(an);
        }
    }
    if let Some(conference) = b.sim.node_mut::<ConferenceNode>(cn) {
        conference.set_telemetry(telemetry.clone());
    }
    for &an in &ans {
        if let Some(access) = b.sim.node_mut::<AccessNode>(an) {
            access.set_telemetry(telemetry.clone());
        }
    }
    for i in 0..ans.len() {
        for j in (i + 1)..ans.len() {
            b.duplex(ans[i], ans[j], backbone(40));
        }
    }

    let mut endpoints: BTreeMap<ClientId, NodeId> = BTreeMap::new();
    for (i, c) in s.clients.iter().enumerate() {
        let home = c.region.min(ans.len() - 1);
        let an = ans[home];
        let cfg = ClientConfig {
            id: c.id,
            mode: s.mode,
            ladder: c.ladder.clone(),
            screen_ladder: c.screen_ladder.clone(),
            subscriptions: c.subscriptions.clone(),
            audio: true,
            bwe: Default::default(),
        };
        let node = b.node(Kind::Client, Box::new(ClientNode::new(cfg, an, s.seed)));
        endpoints.insert(c.id, node);
        if let Some(client) = b.sim.node_mut::<ClientNode>(node) {
            client.set_telemetry(telemetry.clone());
        }
        b.link(node, an, c.uplink.clone());
        b.link(an, node, c.downlink.clone());
        if let Some(access) = b.sim.node_mut::<AccessNode>(an) {
            access.attach(c.id, node);
        }
        for (r, &other) in ans.iter().enumerate() {
            if r != home {
                if let Some(access) = b.sim.node_mut::<AccessNode>(other) {
                    access.attach_remote(c.id, an);
                }
            }
        }
        b.sim.schedule_timer(node, SimTime::from_millis(137 * i as u64), 0);
    }
    ConferenceNode::schedule_boot(cn, &mut b.sim);
    for &an in &ans {
        AccessNode::schedule_boot(an, &mut b.sim);
    }
    for &(at, speaker) in &s.speaker_schedule {
        let token = SPEAKER_EVENT | speaker.map_or(0, |c| u64::from(c.0) + 1);
        b.sim.schedule_timer(cn, at, token);
    }
    TracedConference {
        wired: WiredConference { sim: b.sim, telemetry, cn, standby: None, endpoints, ans },
        links: b.links,
    }
}

/// Result of replaying every captured offer through standalone links.
pub struct LinkReplay {
    /// Offers replayed.
    pub offers: u64,
    /// Mean wall nanoseconds per `Link::offer`.
    pub offer_ns: f64,
    /// Links whose replayed statistics differ from the run's.
    pub mismatches: Vec<String>,
}

/// Replay each link's captured offer sequence through
/// `Link::new(cfg, DetRng::derive(seed, "link-a-b"))` and compare the
/// resulting [`LinkStats`] with the run's.
pub fn replay_links(
    seed: u64,
    probe: &Probe,
    links: &BTreeMap<(u32, u32), LinkConfig>,
    run_stats: &[((NodeId, NodeId), LinkStats)],
) -> LinkReplay {
    let largest = probe.offers.values().flatten().map(|&(_, size)| size as usize).max();
    let zeros: Vec<u8> = vec![0; largest.unwrap_or(0)];
    let mut by_size: BTreeMap<u32, Packet> = BTreeMap::new();
    let mut packet_of = |wire: u32| -> Packet {
        by_size
            .entry(wire)
            .or_insert_with(|| {
                let payload = (wire as usize).saturating_sub(UDP_IP_OVERHEAD);
                Packet::new(Bytes::copy_from_slice(&zeros[..payload]))
            })
            .clone()
    };
    let run: BTreeMap<(u32, u32), LinkStats> =
        run_stats.iter().map(|&((a, b), s)| ((a.0, b.0), s)).collect();
    let mut offers = 0u64;
    let mut ns = 0u128;
    let mut mismatches = Vec::new();
    for (&(from, to), cfg) in links {
        let captured = probe.offers.get(&(from, to)).map_or(&[][..], Vec::as_slice);
        let packets: Vec<(SimTime, Packet)> =
            captured.iter().map(|&(t, size)| (t, packet_of(size))).collect();
        let mut link = Link::new(cfg.clone(), DetRng::derive(seed, &format!("link-{from}-{to}")));
        let start = Instant::now();
        for (t, p) in &packets {
            std::hint::black_box(link.offer(*t, p));
        }
        ns += start.elapsed().as_nanos();
        offers += packets.len() as u64;
        let expected = run.get(&(from, to)).map(|s| format!("{s:?}"));
        let got = format!("{:?}", link.stats);
        if expected.as_deref() != Some(got.as_str()) {
            mismatches.push(format!("link {from}->{to}: run {expected:?} replay {got}"));
        }
    }
    LinkReplay { offers, offer_ns: ns as f64 / offers.max(1) as f64, mismatches }
}

/// Mean parse time of the sampled payloads, plus how many failed to parse.
pub struct ParseReplay {
    /// Nanoseconds per `RtpPacket::parse`.
    pub rtp_ns: f64,
    /// Nanoseconds per `RtcpPacket::parse_compound`.
    pub rtcp_ns: f64,
    /// Sampled payloads that did not parse.
    pub failures: u64,
}

/// Replay the sampled payloads through the `gso-rtp` parsers: once to
/// check that every one parses, then timed over several passes.
pub fn replay_parse(probe: &Probe) -> ParseReplay {
    let mut failures = 0u64;
    failures +=
        probe.rtp_samples.iter().filter(|b| RtpPacket::parse((*b).clone()).is_err()).count() as u64;
    failures += probe
        .rtcp_samples
        .iter()
        .filter(|b| RtcpPacket::parse_compound((*b).clone()).is_err())
        .count() as u64;
    let time = |n: usize, f: &mut dyn FnMut()| -> f64 {
        if n == 0 {
            return 0.0;
        }
        const PASSES: usize = 5;
        let start = Instant::now();
        for _ in 0..PASSES {
            f();
        }
        start.elapsed().as_nanos() as f64 / (PASSES * n) as f64
    };
    let rtp_ns = time(probe.rtp_samples.len(), &mut || {
        for b in &probe.rtp_samples {
            let _ = std::hint::black_box(RtpPacket::parse(b.clone()));
        }
    });
    let rtcp_ns = time(probe.rtcp_samples.len(), &mut || {
        for b in &probe.rtcp_samples {
            let _ = std::hint::black_box(RtcpPacket::parse_compound(b.clone()));
        }
    });
    ParseReplay { rtp_ns, rtcp_ns, failures }
}
