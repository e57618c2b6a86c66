//! Scenario construction and execution.
//!
//! A [`Scenario`] declares a conference — clients, their link impairments,
//! the policy mode — and [`Scenario::run`] wires the full system (clients,
//! accessing node, conference node and controller) onto the packet
//! simulator, runs it, and harvests per-client QoE metrics.

use crate::access::AccessNode;
use crate::client::{ClientConfig, ClientNode, PolicyMode, SessionMetrics};
use crate::conference::ConferenceNode;
use gso_algo::{Ladder, Resolution, SourceId};
use gso_control::{ControllerConfig, SubscribeIntent};
use gso_net::{LinkConfig, NodeId, Simulator};
use gso_telemetry::{keys, Telemetry};
use gso_util::digest::{DigestEntry, DigestTrace};
use gso_util::stats::TimeSeries;
use gso_util::{Bitrate, ClientId, SimDuration, SimTime};
use std::collections::BTreeMap;

/// One participant's declaration.
#[derive(Debug, Clone)]
pub struct ClientScenario {
    /// Identity (must be unique).
    pub id: ClientId,
    /// Client → accessing node link.
    pub uplink: LinkConfig,
    /// Accessing node → client link.
    pub downlink: LinkConfig,
    /// Negotiated camera ladder.
    pub ladder: Ladder,
    /// Optional screen-share ladder.
    pub screen_ladder: Option<Ladder>,
    /// Subscription intents.
    pub subscriptions: Vec<SubscribeIntent>,
    /// Which accessing node serves this client (region index). Region 0 by
    /// default; multi-region scenarios exercise the inter-node relay mesh.
    pub region: usize,
}

impl ClientScenario {
    /// A client on clean symmetric links at the given rates.
    pub fn clean(id: ClientId, uplink: Bitrate, downlink: Bitrate, ladder: Ladder) -> Self {
        ClientScenario {
            id,
            uplink: LinkConfig::clean(uplink, SimDuration::from_millis(20)),
            downlink: LinkConfig::clean(downlink, SimDuration::from_millis(20)),
            ladder,
            screen_ladder: None,
            subscriptions: Vec::new(),
            region: 0,
        }
    }
}

/// A full conference declaration.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Deterministic seed for all randomness.
    pub seed: u64,
    /// Stream policy under test.
    pub mode: PolicyMode,
    /// Session length.
    pub duration: SimDuration,
    /// Participants.
    pub clients: Vec<ClientScenario>,
    /// Scripted active-speaker changes: at each time, the given client (or
    /// nobody) becomes the speaker, boosting its camera subscriptions (§4.4).
    pub speaker_schedule: Vec<(SimTime, Option<ClientId>)>,
    /// Inert: must be `false` ([`Scenario::build`] asserts it). Kept only
    /// because the `perfbench` workloads still name it; controller failure
    /// restarts the one conference node in place (§7).
    pub standby: bool,
}

impl Scenario {
    /// Subscribe every client to every other client's camera at `max_res`.
    pub fn subscribe_all_to_all(&mut self, max_res: Resolution) {
        let ids: Vec<ClientId> = self.clients.iter().map(|c| c.id).collect();
        for c in &mut self.clients {
            c.subscriptions = ids
                .iter()
                .filter(|&&other| other != c.id)
                .map(|&other| SubscribeIntent {
                    source: SourceId::video(other),
                    max_resolution: max_res,
                    tag: 0,
                })
                .collect();
        }
    }

    /// Wire and run the scenario; returns collected metrics.
    pub fn run(&self) -> ScenarioResult {
        let mut wired = self.build();
        let end = SimTime::ZERO + self.duration;
        wired.sim.run_until(end);
        self.harvest(wired, end)
    }

    /// Build the full system onto a fresh simulator without running it.
    ///
    /// Public so harnesses can step the simulator themselves (see
    /// [`WiredConference::run_traced`]), injecting faults between steps,
    /// and then [`Scenario::harvest`] the same metrics a plain run would
    /// produce.
    pub fn build(&self) -> WiredConference {
        assert!(!self.standby, "standby conference nodes no longer exist");
        let mut sim = Simulator::new(self.seed);
        let telemetry = Telemetry::new(format!("{}-seed{}", self.mode.short_name(), self.seed));

        // Control plane (always built; inert for baseline modes).
        let cn = sim.add_node(Box::new(ConferenceNode::new(
            ControllerConfig::paper_defaults(),
            Vec::new(),
        )));

        // One accessing node per region, fully meshed over the backbone.
        let n_regions = self.clients.iter().map(|c| c.region).max().unwrap_or(0) + 1;
        let ans: Vec<NodeId> = (0..n_regions)
            .map(|_| {
                sim.add_node(Box::new(AccessNode::new(
                    self.mode,
                    (self.mode == PolicyMode::Gso).then_some(cn),
                )))
            })
            .collect();
        for &an in &ans {
            sim.add_duplex_link(
                an,
                cn,
                LinkConfig::clean(Bitrate::from_mbps(1_000), SimDuration::from_millis(2)),
            );
            if let Some(conference) = sim.node_mut::<ConferenceNode>(cn) {
                conference.register_access_node(an);
            }
        }
        if let Some(conference) = sim.node_mut::<ConferenceNode>(cn) {
            conference.set_telemetry(telemetry.clone());
        }
        for &an in &ans {
            if let Some(access) = sim.node_mut::<AccessNode>(an) {
                access.set_telemetry(telemetry.clone());
            }
        }

        for i in 0..ans.len() {
            for j in (i + 1)..ans.len() {
                // Inter-region backbone: fat but not instantaneous.
                sim.add_duplex_link(
                    ans[i],
                    ans[j],
                    LinkConfig::clean(Bitrate::from_mbps(1_000), SimDuration::from_millis(40)),
                );
            }
        }

        let mut endpoints: BTreeMap<ClientId, NodeId> = BTreeMap::new();
        for (i, c) in self.clients.iter().enumerate() {
            let an = ans[c.region.min(ans.len() - 1)];
            let cfg = ClientConfig {
                id: c.id,
                mode: self.mode,
                ladder: c.ladder.clone(),
                screen_ladder: c.screen_ladder.clone(),
                subscriptions: c.subscriptions.clone(),
                audio: true,
                bwe: Default::default(),
            };
            let node = sim.add_node(Box::new(ClientNode::new(cfg, an, self.seed)));
            endpoints.insert(c.id, node);
            if let Some(client) = sim.node_mut::<ClientNode>(node) {
                client.set_telemetry(telemetry.clone());
            }
            sim.add_link(node, an, c.uplink.clone());
            sim.add_link(an, node, c.downlink.clone());
            if let Some(access) = sim.node_mut::<AccessNode>(an) {
                access.attach(c.id, node);
            }
            // Every other region's node learns this client as remote.
            for (r, &other) in ans.iter().enumerate() {
                if r != c.region.min(ans.len() - 1) {
                    if let Some(access) = sim.node_mut::<AccessNode>(other) {
                        access.attach_remote(c.id, an);
                    }
                }
            }
            // Stagger boots so keyframe cadences (and thus their bursts)
            // never align across clients, as they would not in reality.
            sim.schedule_timer(node, SimTime::from_millis(137 * i as u64), 0);
        }
        ConferenceNode::schedule_boot(cn, &mut sim);
        for &an in &ans {
            AccessNode::schedule_boot(an, &mut sim);
        }
        for &(at, speaker) in &self.speaker_schedule {
            let token =
                crate::conference::SPEAKER_EVENT | speaker.map_or(0, |c| u64::from(c.0) + 1);
            sim.schedule_timer(cn, at, token);
        }

        WiredConference { sim, telemetry, cn, standby: None, endpoints, ans }
    }

    /// Harvest metrics from a wired conference that has been run to `end`.
    pub fn harvest(&self, wired: WiredConference, end: SimTime) -> ScenarioResult {
        let WiredConference { sim, telemetry, cn, endpoints, .. } = wired;
        let mut per_client = BTreeMap::new();
        let mut recv_series = BTreeMap::new();
        let mut send_series = BTreeMap::new();
        let mut uplink_estimates = BTreeMap::new();
        for (&id, &node) in &endpoints {
            let client: &ClientNode = sim.node(node).expect("client node");
            per_client.insert(id, client.session_metrics(end));
            recv_series.insert(id, client.metrics.recv_rate.clone());
            send_series.insert(id, client.metrics.send_rate.clone());
            uplink_estimates.insert(id, client.uplink_estimate());
            for (source, stats) in client.render_stats_per_source() {
                let label = format!("{id}<-{source}");
                telemetry.add(keys::MEDIA_FRAMES_RENDERED, &label, stats.frames);
                telemetry.add(keys::MEDIA_BYTES_RENDERED, &label, stats.bytes);
                telemetry.add(keys::MEDIA_KEYFRAMES_RENDERED, &label, stats.keyframes);
            }
        }
        // Snapshot network-layer link statistics into the registry so the
        // export captures queue pressure alongside application metrics.
        for ((from, to), stats) in sim.all_link_stats() {
            let label = format!("n{}->n{}", from.0, to.0);
            telemetry.add(keys::NET_ENQUEUED, &label, stats.enqueued);
            telemetry.add(keys::NET_DROPPED_QUEUE, &label, stats.dropped_queue);
            telemetry.add(keys::NET_DROPPED_LOSS, &label, stats.dropped_loss);
            telemetry.add(keys::NET_DELIVERED_BYTES, &label, stats.delivered_bytes);
            telemetry.gauge(keys::NET_PEAK_QUEUE_BYTES, &label, stats.peak_queued_bytes as f64);
        }
        let controller_intervals = sim
            .node::<ConferenceNode>(cn)
            .map(|c| c.controller.call_intervals().to_vec())
            .unwrap_or_default();

        let metrics_json = telemetry.export_json();
        ScenarioResult {
            per_client,
            recv_series,
            send_series,
            uplink_estimates,
            controller_intervals,
            end,
            telemetry,
            metrics_json,
        }
    }
}

/// A fully wired but not-yet-run conference: the simulator with every node
/// and link attached, plus the handles harvesting (and fault injection)
/// needs afterwards.
pub struct WiredConference {
    /// The packet simulator owning every node.
    pub sim: Simulator,
    /// The shared metrics registry.
    pub telemetry: Telemetry,
    /// The conference node's id.
    pub cn: NodeId,
    /// Inert: always `None`. Kept only because the `perfbench` workloads
    /// still name it.
    pub standby: Option<NodeId>,
    /// Client id → its endpoint node id.
    pub endpoints: BTreeMap<ClientId, NodeId>,
    /// Accessing-node ids, indexed by region.
    pub ans: Vec<NodeId>,
}

impl WiredConference {
    /// Run to `end` in controller-tick-sized (100 ms) steps, recording a
    /// per-tick [`DigestTrace`] over the network simulator (`net.sim`), the
    /// conference node's controller (`ctrl`) and the telemetry registry
    /// (`telemetry`).
    ///
    /// `at_tick` runs at each tick boundary `t`, before the simulator runs
    /// on to the next one; fault injectors act there. Stepping processes
    /// the exact same event sequence as one `sim.run_until(end)` call
    /// (events at a deadline boundary are handled identically), so with a
    /// no-op `at_tick` the harvested [`ScenarioResult`] is bit-identical to
    /// [`Scenario::run`]'s.
    pub fn run_traced(
        mut self,
        end: SimTime,
        mut at_tick: impl FnMut(&mut WiredConference, SimTime),
    ) -> (WiredConference, DigestTrace) {
        let tick = SimDuration::from_millis(100);
        let mut trace = DigestTrace::new();
        let mut t = SimTime::ZERO;
        while t < end {
            at_tick(&mut self, t);
            let next = (t + tick).min(end);
            self.sim.run_until(next);
            t = next;
            let net = self.sim.state_digest();
            let ctrl =
                self.sim.node::<ConferenceNode>(self.cn).map_or(0, |c| c.controller.state_digest());
            let telemetry = self.telemetry.export_digest();
            trace.record(DigestEntry::new(
                t.as_micros(),
                vec![
                    ("net.sim".to_string(), net),
                    ("ctrl".to_string(), ctrl),
                    ("telemetry".to_string(), telemetry),
                ],
                format!(
                    "t={}us net={net:#018x} ctrl={ctrl:#018x} telemetry={telemetry:#018x}",
                    t.as_micros()
                ),
            ));
        }
        (self, trace)
    }
}

/// Everything harvested from one scenario run.
#[derive(Debug)]
pub struct ScenarioResult {
    /// Session QoE metrics per client.
    pub per_client: BTreeMap<ClientId, SessionMetrics>,
    /// Received-rate time series per client (Fig. 7).
    pub recv_series: BTreeMap<ClientId, TimeSeries>,
    /// Sent-rate time series per client.
    pub send_series: BTreeMap<ClientId, TimeSeries>,
    /// Final uplink estimates.
    pub uplink_estimates: BTreeMap<ClientId, Bitrate>,
    /// Controller call intervals (GSO mode only; Fig. 12).
    pub controller_intervals: Vec<SimDuration>,
    /// Session end time.
    pub end: SimTime,
    /// Live registry handle (for targeted queries after the run).
    pub telemetry: Telemetry,
    /// Deterministic JSON export of every metric and event recorded during
    /// the run. Byte-identical across repeated runs of the same scenario.
    pub metrics_json: String,
}

impl ScenarioResult {
    /// Mean video stall over all clients.
    pub fn mean_video_stall(&self) -> f64 {
        mean(self.per_client.values().map(|m| m.video_stall))
    }

    /// Mean voice stall over all clients.
    pub fn mean_voice_stall(&self) -> f64 {
        mean(self.per_client.values().map(|m| m.voice_stall))
    }

    /// Mean framerate over all clients.
    pub fn mean_framerate(&self) -> f64 {
        mean(self.per_client.values().map(|m| m.framerate))
    }

    /// Mean VMAF-proxy video quality over all clients.
    pub fn mean_quality(&self) -> f64 {
        mean(self.per_client.values().map(|m| m.quality))
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::clean_mesh;

    fn two_party(mode: PolicyMode, seed: u64) -> Scenario {
        let mbps4 = Bitrate::from_mbps(4);
        clean_mesh(mode, 2, mbps4, mbps4, SimDuration::from_secs(20), seed)
    }

    #[test]
    fn gso_two_party_media_flows() {
        let r = two_party(PolicyMode::Gso, 42).run();
        for (&id, m) in &r.per_client {
            assert!(m.framerate > 10.0, "{id}: framerate {}", m.framerate);
            assert!(m.video_stall < 0.35, "{id}: stall {}", m.video_stall);
            assert!(m.voice_stall < 0.2, "{id}: voice stall {}", m.voice_stall);
        }
        // The controller actually ran at the production cadence.
        assert!(!r.controller_intervals.is_empty());
        // Received video converges to a healthy rate on a 4 Mbps clean link.
        let late = r.recv_series[&ClientId(2)]
            .window_mean(SimTime::from_secs(12), SimTime::from_secs(20))
            .unwrap();
        assert!(late > 500_000.0, "late receive rate {late}");
    }

    #[test]
    fn non_gso_two_party_media_flows() {
        let r = two_party(PolicyMode::NonGso, 42).run();
        for m in r.per_client.values() {
            assert!(m.framerate > 8.0, "framerate {}", m.framerate);
        }
        assert!(r.controller_intervals.is_empty(), "no controller in baseline mode");
    }

    #[test]
    fn deterministic_across_runs() {
        let a = two_party(PolicyMode::Gso, 7).run();
        let b = two_party(PolicyMode::Gso, 7).run();
        assert_eq!(a.recv_series[&ClientId(1)].points(), b.recv_series[&ClientId(1)].points());
        // Tentpole guarantee: the full metric export is byte-identical.
        assert_eq!(a.metrics_json, b.metrics_json);
        assert_ne!(a.metrics_json, "{}", "telemetry must actually record");
    }

    #[test]
    fn scenario_export_covers_every_subsystem() {
        use gso_telemetry::keys;
        let r = two_party(PolicyMode::Gso, 9).run();
        let t = &r.telemetry;
        assert!(t.counter_total(keys::CTRL_SOLVES) > 0, "controller solves");
        assert!(t.counter_total(keys::GTMB_SENT) > 0, "GTMB deliveries");
        assert!(t.counter_total(keys::SFU_FORWARDED_BYTES) > 0, "SFU forwarding");
        assert!(t.counter_total(keys::MEDIA_FRAMES_RENDERED) > 0, "rendered frames");
        assert!(t.counter_total(keys::NET_DELIVERED_BYTES) > 0, "link delivery");
        assert!(
            t.gauge_value(keys::BWE_ESTIMATE_BPS, "up:client1").is_some(),
            "uplink estimate gauge"
        );
        let (switches, _) = t.histogram_total(keys::SFU_SWITCH_LATENCY_US);
        assert!(switches > 0, "layer switches landed");
    }
}

#[cfg(test)]
mod region_tests {
    use super::*;
    use crate::workloads::clean_mesh;

    /// `n` GSO clients on clean 4 Mbps links, all in region 0.
    fn mesh(n: u32, secs: u64, seed: u64) -> Scenario {
        let mbps4 = Bitrate::from_mbps(4);
        clean_mesh(PolicyMode::Gso, n, mbps4, mbps4, SimDuration::from_secs(secs), seed)
    }

    /// Two regions, one client each: media must cross the inter-node relay.
    #[test]
    fn cross_region_conference_flows_through_relay() {
        let mut s = mesh(2, 20, 55);
        s.clients[1].region = 1;
        let r = s.run();
        for (id, m) in &r.per_client {
            assert!(m.framerate > 10.0, "{id}: framerate {}", m.framerate);
            assert!(m.video_stall < 0.3, "{id}: stall {}", m.video_stall);
            assert!(m.voice_stall < 0.2, "{id}: voice stall {}", m.voice_stall);
        }
        // Healthy receive rates in steady state despite the extra hop.
        for id in [ClientId(1), ClientId(2)] {
            let late = r.recv_series[&id]
                .window_mean(SimTime::from_secs(12), SimTime::from_secs(20))
                .unwrap_or(0.0);
            assert!(late > 400_000.0, "{id}: late recv {late}");
        }
    }

    /// Three regions, one client each: signaling between the conference
    /// node and the access nodes stays a handful of packets per link. A
    /// subscribe the conference node rebroadcasts is terminal at the access
    /// nodes; relayed back up, it would bounce between them and the
    /// conference node without end, so the run is stepped and checked
    /// every 100 ms and fails at the first slice over the bound.
    #[test]
    fn three_regions_keep_signaling_bounded() {
        let mut s = mesh(3, 3, 57);
        for (region, c) in s.clients.iter_mut().enumerate() {
            c.region = region;
        }
        let mut wired = s.build();
        assert_eq!(wired.ans.len(), 3);
        const BOUND: u64 = 24;
        let end = SimTime::ZERO + s.duration;
        let mut t = SimTime::ZERO;
        while t < end {
            t = (t + SimDuration::from_millis(100)).min(end);
            wired.sim.run_until(t);
            for &an in &wired.ans {
                for (from, to) in [(an, wired.cn), (wired.cn, an)] {
                    let carried = wired.sim.link_stats(from, to).expect("backbone link").enqueued;
                    assert!(carried <= BOUND, "{from}->{to} carried {carried} packets by {t}");
                }
            }
        }
        let r = s.harvest(wired, end);
        assert!(!r.controller_intervals.is_empty(), "the controller ran");
    }

    /// Mixed: two clients share region 0, a third sits in region 1; every
    /// stream still reaches every subscriber exactly once.
    #[test]
    fn three_clients_two_regions() {
        let mut s = mesh(3, 20, 56);
        s.clients[2].region = 1;
        let r = s.run();
        // All three hear and see both others.
        for m in r.per_client.values() {
            assert!(m.framerate > 10.0, "framerate {}", m.framerate);
        }
    }
}
