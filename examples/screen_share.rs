//! Screen share + speaker-first: the advanced stream-management features of
//! §4.4 — priorities and multi-stream subscriptions via virtual publishers.
//!
//! A presenter shares a screen while speaking; viewers subscribe to the
//! screen (high priority), a high-resolution camera view of the speaker
//! (speaker-first, tag 1) *and* a thumbnail of the same camera (tag 0).
//!
//! Run with: `cargo run --example screen_share`

use gso_simulcast::algo::{solver, SourceId};
use gso_simulcast::sim::workloads;
use gso_simulcast::util::{ClientId, StreamKind};

fn main() {
    // Client 1 presents (camera + screen); viewers 2 and 3 subscribe to
    // the screen, a thumbnail and a speaker view; viewer 3 is
    // bandwidth-poor, so priorities decide what survives.
    let problem = workloads::screen_share();
    let [presenter, viewer_a, viewer_b] = [ClientId(1), ClientId(2), ClientId(3)];
    let solution = solver::solve(&problem, &Default::default());
    solution.validate(&problem).expect("constraints hold");

    println!("screen-share + speaker-first orchestration:\n");
    for kind in [StreamKind::Screen, StreamKind::Video] {
        let source = SourceId { client: presenter, kind };
        println!("presenter {kind} publishes:");
        for p in solution.policies(source) {
            println!("  {} @ {} -> {:?}", p.resolution, p.bitrate, p.audience);
        }
    }
    println!();
    for &v in &[viewer_a, viewer_b] {
        println!("{v} (downlink {}):", problem.client(v).unwrap().downlink);
        for r in solution.received.get(&v).map_or(&[] as &[_], Vec::as_slice) {
            let what = match (r.source.kind, r.tag) {
                (StreamKind::Screen, _) => "screen",
                (_, 1) => "speaker view",
                _ => "thumbnail",
            };
            println!("  {:<13} {} @ {}", what, r.resolution, r.bitrate);
        }
        println!();
    }
    println!(
        "The bandwidth-poor viewer keeps the screen and a *reduced* speaker\n\
         view (both downgraded to 360P to fit 1.2 Mbps); the redundant\n\
         thumbnail is dropped first — the QoE boosts of §4.4 decide what\n\
         survives, not arrival order."
    );
}
