//! Design for failure (§7): the server-side fallback.
//!
//! "When an exception is raised, GSO-Simulcast would ask clients to fall
//! back to a single stream configuration so the service could continue, at
//! the cost of reduced QoE." [`fallback_solution`] builds that
//! configuration: every source publishes exactly its smallest stream, every
//! subscriber takes it.
//!
//! The paper's other §7 mechanism, the client-side downgrade ("a server
//! instructs a client to send multiple streams, however, only a low bitrate
//! stream is received"), is not modeled: a client keeps the subscriptions
//! the controller configured.

use gso_algo::{Problem, PublishPolicy, ReceivedStream, Solution, SourceId};
use std::collections::BTreeMap;

/// The minimal safe configuration: one (smallest) stream per source,
/// delivered to every subscriber whose cap admits it.
pub fn fallback_solution(problem: &Problem) -> Solution {
    let mut publish: BTreeMap<SourceId, Vec<PublishPolicy>> = BTreeMap::new();
    let mut received: BTreeMap<_, Vec<ReceivedStream>> = BTreeMap::new();
    let mut total_qoe = 0.0;

    for source in problem.sources() {
        let Some(spec) = source.ladder.specs().first().copied() else { continue };
        let mut audience = Vec::new();
        for sub in problem.subscribers_of(source.id) {
            if spec.resolution > sub.max_resolution {
                continue;
            }
            // Downlink safety: only attach subscribers with room for the
            // minimal stream on top of what they already take.
            let used: u64 = received
                .get(&sub.subscriber)
                .map_or(0, |rs: &Vec<ReceivedStream>| rs.iter().map(|r| r.bitrate.as_bps()).sum());
            let budget = problem.client(sub.subscriber).map_or(0, |c| c.downlink.as_bps());
            if used + spec.bitrate.as_bps() > budget {
                continue;
            }
            // lint: allow(hot-alloc, reason = "fallback assembly runs only after a solver failure, off the steady-state path")
            audience.push((sub.subscriber, sub.tag));
            let qoe = spec.qoe * sub.qoe_boost + sub.presence_bonus;
            total_qoe += qoe;
            // lint: allow(hot-alloc, reason = "fallback assembly runs only after a solver failure, off the steady-state path")
            received.entry(sub.subscriber).or_default().push(ReceivedStream {
                source: source.id,
                tag: sub.tag,
                resolution: spec.resolution,
                bitrate: spec.bitrate,
                qoe,
            });
        }
        if !audience.is_empty() {
            // lint: allow(hot-alloc, reason = "fallback assembly runs only after a solver failure, off the steady-state path")
            publish.insert(
                source.id,
                // lint: allow(hot-alloc, reason = "fallback assembly runs only after a solver failure, off the steady-state path")
                vec![PublishPolicy {
                    resolution: spec.resolution,
                    bitrate: spec.bitrate,
                    audience,
                }],
            );
        }
    }
    Solution { publish, received, total_qoe, iterations: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gso_algo::{ladders, ClientSpec, Resolution, Subscription};
    use gso_util::{Bitrate, ClientId};

    fn k(v: u64) -> Bitrate {
        Bitrate::from_kbps(v)
    }

    fn meeting() -> Problem {
        let ladder = ladders::paper_table1();
        let ids = [ClientId(1), ClientId(2), ClientId(3)];
        let clients =
            ids.iter().map(|&id| ClientSpec::new(id, k(5_000), k(5_000), ladder.clone())).collect();
        let mut subs = Vec::new();
        for &i in &ids {
            for &j in &ids {
                if i != j {
                    subs.push(Subscription::new(i, SourceId::video(j), Resolution::R720));
                }
            }
        }
        Problem::new(clients, subs).unwrap()
    }

    #[test]
    fn fallback_is_single_smallest_stream_and_valid() {
        let p = meeting();
        let sol = fallback_solution(&p);
        sol.validate(&p).unwrap();
        for c in p.clients() {
            let policies = sol.policies(SourceId::video(c.id));
            assert_eq!(policies.len(), 1, "single stream per source");
            assert_eq!(policies[0].bitrate, k(100), "smallest ladder entry");
            assert_eq!(policies[0].audience.len(), 2);
        }
    }

    #[test]
    fn fallback_respects_tiny_downlinks() {
        let ladder = ladders::paper_table1();
        let p = Problem::new(
            vec![
                ClientSpec::new(ClientId(1), k(5_000), k(5_000), ladder.clone()),
                ClientSpec::new(ClientId(2), k(5_000), k(150), ladder),
            ],
            vec![Subscription::new(ClientId(2), SourceId::video(ClientId(1)), Resolution::R720)],
        )
        .unwrap();
        let sol = fallback_solution(&p);
        sol.validate(&p).unwrap();
        // 150 Kbps downlink fits one 100 Kbps stream.
        assert_eq!(sol.receive_rate(ClientId(2)), k(100));
    }

    #[test]
    fn fallback_respects_resolution_caps() {
        // A ladder whose smallest entry is 720P cannot serve a 180P-capped
        // subscriber.
        let ladder = gso_algo::Ladder::new(vec![gso_algo::StreamSpec::new(
            Resolution::R720,
            k(1_000),
            750.0,
        )])
        .unwrap();
        let p = Problem::new(
            vec![
                ClientSpec::new(ClientId(1), k(5_000), k(5_000), ladder.clone()),
                ClientSpec::new(ClientId(2), k(5_000), k(5_000), ladder),
            ],
            vec![Subscription::new(ClientId(2), SourceId::video(ClientId(1)), Resolution::R180)],
        )
        .unwrap();
        let sol = fallback_solution(&p);
        sol.validate(&p).unwrap();
        assert!(sol.publish.is_empty());
    }
}
