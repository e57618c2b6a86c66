//! Full-stack integration: clients, accessing node, conference node and
//! controller wired over the packet simulator. Exercises the complete
//! control loop of the paper: SDP-style join → SEMB/downlink reports →
//! Knapsack-Merge-Reduction → GTMB/GTBN → selective forwarding → playback.

use gso_simulcast::sim::workloads::clean_mesh;
use gso_simulcast::sim::{PolicyMode, Scenario};
use gso_simulcast::util::{Bitrate, ClientId, SimDuration, SimTime};

fn meeting(mode: PolicyMode, n: u32, seed: u64, secs: u64) -> Scenario {
    let mbps4 = Bitrate::from_mbps(4);
    clean_mesh(mode, n, mbps4, mbps4, SimDuration::from_secs(secs), seed)
}

#[test]
fn gso_four_party_healthy_end_to_end() {
    let r = meeting(PolicyMode::Gso, 4, 100, 30).run();
    for (id, m) in &r.per_client {
        assert!(m.framerate > 12.0, "{id}: framerate {}", m.framerate);
        assert!(m.video_stall < 0.15, "{id}: video stall {}", m.video_stall);
        assert!(m.voice_stall < 0.1, "{id}: voice stall {}", m.voice_stall);
        assert!(m.quality > 25.0, "{id}: quality {}", m.quality);
    }
    // Controller ran at the production cadence throughout.
    assert!(r.controller_intervals.len() >= 5);
    for d in &r.controller_intervals {
        assert!(*d >= SimDuration::from_secs(1));
        assert!(*d <= SimDuration::from_millis(3_200));
    }
}

#[test]
fn gso_never_overruns_subscriber_downlinks() {
    // A meeting with one very slow subscriber: the controller must keep the
    // aggregate delivered rate under that client's downlink.
    let mut s = meeting(PolicyMode::Gso, 3, 7, 30);
    s.clients[2].downlink = gso_simulcast::net::LinkConfig::clean(
        Bitrate::from_kbps(700),
        SimDuration::from_millis(20),
    );
    let r = s.run();
    let slow = ClientId(3);
    // Steady-state receive rate stays within the physical link.
    let late = r.recv_series[&slow]
        .window_mean(SimTime::from_secs(15), SimTime::from_secs(30))
        .unwrap_or(0.0);
    assert!(late < 700_000.0 * 1.05, "slow client received {late} bps");
    assert!(late > 100_000.0, "slow client starved: {late} bps");
    // And the fast clients are not dragged down to the slow one's level —
    // the slow-link problem (Fig. 2a) that Simulcast exists to solve.
    let fast = r.recv_series[&ClientId(1)]
        .window_mean(SimTime::from_secs(15), SimTime::from_secs(30))
        .unwrap_or(0.0);
    assert!(fast > 2.0 * late, "fast client {fast} vs slow {late}");
}

#[test]
fn baselines_run_end_to_end_too() {
    for mode in [PolicyMode::NonGso, PolicyMode::Competitor1, PolicyMode::Competitor2] {
        let r = meeting(mode, 3, 11, 20).run();
        let fr = r.mean_framerate();
        assert!(fr > 5.0, "{mode:?}: framerate {fr}");
        assert!(r.controller_intervals.is_empty(), "{mode:?} must not use the controller");
    }
}

#[test]
fn full_stack_is_deterministic() {
    let a = meeting(PolicyMode::Gso, 3, 1234, 15).run();
    let b = meeting(PolicyMode::Gso, 3, 1234, 15).run();
    for id in a.recv_series.keys() {
        assert_eq!(a.recv_series[id].points(), b.recv_series[id].points());
    }
    assert_eq!(a.controller_intervals, b.controller_intervals);
}

#[test]
fn different_seeds_differ() {
    let a = meeting(PolicyMode::Gso, 3, 1, 15).run();
    let b = meeting(PolicyMode::Gso, 3, 2, 15).run();
    let pa = a.recv_series[&ClientId(1)].points();
    let pb = b.recv_series[&ClientId(1)].points();
    assert!(pa != pb, "different seeds should perturb the packet trace");
}
