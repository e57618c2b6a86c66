//! Quickstart: solve a small conference with the GSO control algorithm.
//!
//! Three participants with heterogeneous links; the controller decides what
//! everyone publishes (resolution + fine-grained bitrate) and what everyone
//! receives, respecting every constraint of §4.1 of the paper.
//!
//! Run with: `cargo run --example quickstart`

use gso_simulcast::algo::{solver, SourceId};
use gso_simulcast::sim::workloads;
use gso_simulcast::util::ClientId;

fn main() {
    // Three clients on the fine 15-level ladder: a well-connected host, a
    // typical participant, and a mobile user on a weak downlink, everyone
    // watching everyone up to 720P.
    let problem = workloads::quickstart();
    let [host, peer, mobile] = [ClientId(1), ClientId(2), ClientId(3)];
    let solution = solver::solve(&problem, &Default::default());
    solution.validate(&problem).expect("solution satisfies every constraint");

    println!("GSO orchestration for a 3-party conference:\n");
    for &c in &[host, peer, mobile] {
        println!("{c} publishes:");
        for p in solution.policies(SourceId::video(c)) {
            println!("  {} @ {}  -> {} subscriber(s)", p.resolution, p.bitrate, p.audience.len());
        }
        let received = solution.received.get(&c).map_or(&[] as &[_], Vec::as_slice);
        println!("{c} receives:");
        for r in received {
            println!("  {} @ {} from {}", r.resolution, r.bitrate, r.source);
        }
        println!(
            "  (uplink used {}, downlink used {})\n",
            solution.publish_rate(c),
            solution.receive_rate(c)
        );
    }
    println!("total QoE utility: {:.0}", solution.total_qoe);
    println!("solver iterations: {}", solution.iterations);
}
