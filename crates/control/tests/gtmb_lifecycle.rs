//! Property test for the §4.3 GTMB delivery lifecycle under message loss.
//!
//! RTCP gives no delivery guarantee, so the executor's contract is pure
//! liveness: whatever the ack-loss rate and controller tick cadence, every
//! client must end a delivery attempt either `applied` (acked) or `failed`
//! (handed to the §7 failure path) — never stuck pending forever. This is
//! exactly the property the pre-fix executor violated: re-executing an
//! unchanged solution every tick reset the retransmission budget, so an
//! unreachable client stayed pending for the conference lifetime.

use gso_algo::{ladders, ClientSpec, Problem, Resolution, SourceId, Subscription};
use gso_control::feedback::FeedbackExecutor;
use gso_rtp::{GsoTmmbn, GsoTmmbr, TmmbrEntry};
use gso_util::{Bitrate, ClientId, DetRng, SimTime, Ssrc};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// An `n`-party conference where everyone watches client 1.
fn solved(n: u32) -> (gso_algo::Solution, BTreeMap<SourceId, Vec<u16>>) {
    let ladder = ladders::paper_table1();
    let clients: Vec<ClientSpec> = (1..=n)
        .map(|i| {
            ClientSpec::new(
                ClientId(i),
                Bitrate::from_mbps(5),
                Bitrate::from_mbps(5),
                ladder.clone(),
            )
        })
        .collect();
    let subs: Vec<Subscription> = (2..=n)
        .map(|i| Subscription::new(ClientId(i), SourceId::video(ClientId(1)), Resolution::R720))
        .collect();
    let problem = Problem::new(clients, subs).expect("valid conference");
    let solution = gso_algo::solver::solve(&problem, &Default::default());
    let layers: BTreeMap<SourceId, Vec<u16>> =
        (1..=n).map(|i| (SourceId::video(ClientId(i)), vec![180u16, 360, 720])).collect();
    (solution, layers)
}

/// Deliver the acks for a batch of sent messages, each lost with
/// probability `loss`. Returns the clients whose ack went through.
fn deliver_lossy(
    ex: &mut FeedbackExecutor,
    msgs: &[(ClientId, GsoTmmbr)],
    loss: f64,
    rng: &mut DetRng,
    acked: &mut BTreeSet<ClientId>,
) {
    for (client, msg) in msgs {
        if !rng.chance(loss) {
            ex.on_ack(
                *client,
                &GsoTmmbn {
                    sender_ssrc: Ssrc(0xace),
                    epoch: msg.epoch,
                    request_seq: msg.request_seq,
                    entries: Vec::<TmmbrEntry>::new(),
                },
            );
            acked.insert(*client);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Lossy acks × arbitrary tick cadence: after the controller stops
    /// issuing configs and the retransmission budget runs its course,
    /// every client is applied or failed and nothing is left pending.
    #[test]
    fn every_client_ends_applied_or_failed(
        seed in 0u64..1_000_000,
        n in 2u32..=5,
        cadence_ms in 100u64..=2_000,
        loss in 0.0f64..0.95,
    ) {
        let (solution, layers) = solved(n);
        let mut ex = FeedbackExecutor::new(Ssrc(1));
        let mut rng = DetRng::derive(seed, "gtmb-acks");
        let mut acked: BTreeSet<ClientId> = BTreeSet::new();
        let mut failed: BTreeSet<ClientId> = BTreeSet::new();

        // Phase 1: the controller re-executes the same solution every tick
        // (the worst case for budget accounting) while acks are lossy.
        let mut now = SimTime::ZERO;
        for tick in 0..30u64 {
            now = SimTime::from_micros(tick * cadence_ms * 1_000);
            let resent = ex.poll(now);
            failed.extend(ex.take_failed());
            deliver_lossy(&mut ex, &resent, loss, &mut rng, &mut acked);
            let (msgs, _) = ex.execute(now, &solution, &layers);
            deliver_lossy(&mut ex, &msgs, loss, &mut rng, &mut acked);
        }

        // Phase 2 (quiesce): no further executes; polling alone must drain
        // every outstanding entry within the retransmission budget (five
        // transmissions on the 200/400/800 ms backoff), whatever happened
        // above.
        for step in 1..=30u64 {
            let t = now + gso_util::SimDuration::from_millis(step * 200);
            let resent = ex.poll(t);
            failed.extend(ex.take_failed());
            deliver_lossy(&mut ex, &resent, loss, &mut rng, &mut acked);
        }

        for i in 1..=n {
            let c = ClientId(i);
            prop_assert!(!ex.pending(c), "client {c:?} still pending after quiesce");
            prop_assert!(
                acked.contains(&c) || failed.contains(&c),
                "client {c:?} neither applied nor failed"
            );
        }
    }

    /// Fully unreachable clients (100% ack loss) always reach the failure
    /// path, at every cadence — the regression the budget fix closes.
    #[test]
    fn unreachable_clients_always_fail(
        n in 2u32..=4,
        cadence_ms in 100u64..=2_000,
    ) {
        let (solution, layers) = solved(n);
        let mut ex = FeedbackExecutor::new(Ssrc(1));
        let mut failed: BTreeSet<ClientId> = BTreeSet::new();
        for tick in 0..60u64 {
            let now = SimTime::from_micros(tick * cadence_ms * 1_000);
            ex.poll(now);
            failed.extend(ex.take_failed());
            if failed.len() as u32 == n {
                break; // all clients already handed to the failure path
            }
            let (_msgs, _) = ex.execute(now, &solution, &layers);
        }
        prop_assert!(
            failed.len() as u32 == n,
            "only {} of {n} clients failed at cadence {cadence_ms}ms",
            failed.len()
        );
    }
}
