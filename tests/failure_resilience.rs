//! Design-for-failure, end to end (§7): the service must survive a
//! control-plane outage. When the link between the accessing node and the
//! conference node dies mid-conference, no new orchestration reaches the
//! media plane — but the last configuration keeps forwarding, so media
//! continues to flow (the paper: "the service could continue, however, at
//! the cost of reduced QoE").

use gso_simulcast::algo::{Resolution, SourceId};
use gso_simulcast::control::{ControllerConfig, SubscribeIntent};
use gso_simulcast::net::{LinkConfig, Schedule, Simulator};
use gso_simulcast::sim::access::AccessNode;
use gso_simulcast::sim::client::{ClientConfig, ClientNode, PolicyMode};
use gso_simulcast::sim::conference::ConferenceNode;
use gso_simulcast::util::{Bitrate, ClientId, SimDuration, SimTime};

#[test]
fn media_survives_control_plane_partition() {
    let ladder = gso_simulcast::sim::workloads::ladder_for_mode(PolicyMode::Gso);
    let base = Bitrate::from_mbps(4);
    let mut sim = Simulator::new(777);

    let cn =
        sim.add_node(Box::new(ConferenceNode::new(ControllerConfig::paper_defaults(), vec![])));
    let an = sim.add_node(Box::new(AccessNode::new(PolicyMode::Gso, Some(cn))));
    // The AN↔CN control links die completely at t = 12 s (zero rate drops
    // everything).
    let dead_after = Schedule::steps(vec![
        (SimTime::ZERO, Bitrate::from_mbps(1_000)),
        (SimTime::from_secs(12), Bitrate::ZERO),
    ]);
    let ctrl_link = LinkConfig::clean(Bitrate::from_mbps(1_000), SimDuration::from_millis(2))
        .with_rate_schedule(dead_after);
    sim.add_link(an, cn, ctrl_link.clone());
    sim.add_link(cn, an, ctrl_link);
    if let Some(c) = sim.node_mut::<ConferenceNode>(cn) {
        c.register_access_node(an);
    }

    let ids = [ClientId(1), ClientId(2)];
    let mut endpoints = Vec::new();
    for (i, &id) in ids.iter().enumerate() {
        let subs: Vec<SubscribeIntent> = ids
            .iter()
            .filter(|&&o| o != id)
            .map(|&o| SubscribeIntent {
                source: SourceId::video(o),
                max_resolution: Resolution::R720,
                tag: 0,
            })
            .collect();
        let cfg = ClientConfig {
            id,
            mode: PolicyMode::Gso,
            ladder: ladder.clone(),
            screen_ladder: None,
            subscriptions: subs,
            audio: true,
            bwe: Default::default(),
        };
        let node = sim.add_node(Box::new(ClientNode::new(cfg, an, 777)));
        sim.add_duplex_link(node, an, LinkConfig::clean(base, SimDuration::from_millis(20)));
        if let Some(a) = sim.node_mut::<AccessNode>(an) {
            a.attach(id, node);
        }
        sim.schedule_timer(node, SimTime::from_millis(137 * i as u64), 0);
        endpoints.push(node);
    }
    ConferenceNode::schedule_boot(cn, &mut sim);
    AccessNode::schedule_boot(an, &mut sim);

    sim.run_until(SimTime::from_secs(40));

    // The controller stopped hearing from the world at t=12 s…
    let intervals =
        sim.node::<ConferenceNode>(cn).map_or(0, |c| c.controller.call_intervals().len());
    assert!(intervals > 0, "the controller ran before the partition");

    // …but media kept flowing long after: both clients still render video
    // in the final 10 seconds, a full 18+ seconds into the outage.
    for &node in &endpoints {
        let client: &ClientNode = sim.node(node).expect("client");
        let late_rate = client
            .metrics
            .recv_rate
            .window_mean(SimTime::from_secs(30), SimTime::from_secs(40))
            .unwrap_or(0.0);
        assert!(
            late_rate > 300_000.0,
            "media must keep flowing through the outage, got {late_rate} bps"
        );
        let m = client.session_metrics(SimTime::from_secs(40));
        assert!(m.framerate > 10.0, "framerate {}", m.framerate);
    }
}
