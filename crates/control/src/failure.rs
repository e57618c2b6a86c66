//! Design for failure (§7).
//!
//! Two mechanisms from the paper:
//!
//! * **Server-side fallback**: "when an exception is raised, GSO-Simulcast
//!   would ask clients to fall back to a single stream configuration so the
//!   service could continue, at the cost of reduced QoE."
//!   [`fallback_solution`] builds that configuration: every source publishes
//!   exactly its smallest stream, every subscriber takes it.
//! * **Client-side downgrade**: "a server instructs a client to send
//!   multiple streams, however, only a low bitrate stream is received" — the
//!   [`DowngradeMonitor`] watches which configured layers actually produce
//!   packets and switches subscriptions to the highest layer that is alive.

use gso_algo::{Problem, PublishPolicy, ReceivedStream, Solution, SourceId};
use gso_util::{SimDuration, SimTime, Ssrc};
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

/// Watches per-layer liveness on the receive path, recommends downgrades
/// when configured layers stop flowing, and re-upgrades — with hysteresis
/// — when a previously dead layer produces packets again.
///
/// Downgrades are immediate (a silent layer is useless), but a revived
/// layer must flow *continuously* for `upgrade_hold` before it is
/// preferred again: a layer that blinks in and out (e.g. an uplink on the
/// edge of its budget) would otherwise flap the subscription on every
/// revival, and each flap costs a keyframe wait.
#[derive(Debug)]
pub struct DowngradeMonitor {
    /// A layer is dead if silent for this long while configured active.
    timeout: SimDuration,
    /// A revived layer must flow this long before re-upgrade.
    upgrade_hold: SimDuration,
    last_seen: BTreeMap<Ssrc, SimTime>,
    /// Start of the layer's current uninterrupted liveness streak; reset
    /// whenever a packet arrives after a `timeout`-sized silence.
    alive_since: BTreeMap<Ssrc, SimTime>,
}

impl DowngradeMonitor {
    /// New monitor with the given liveness timeout; the re-upgrade hold
    /// defaults to the same duration (symmetric hysteresis).
    pub fn new(timeout: SimDuration) -> Self {
        Self::with_upgrade_hold(timeout, timeout)
    }

    /// New monitor with an explicit re-upgrade hold.
    pub fn with_upgrade_hold(timeout: SimDuration, upgrade_hold: SimDuration) -> Self {
        DowngradeMonitor {
            timeout,
            upgrade_hold,
            last_seen: BTreeMap::new(),
            alive_since: BTreeMap::new(),
        }
    }

    /// Record traffic on a layer.
    pub fn on_packet(&mut self, now: SimTime, ssrc: Ssrc) {
        let revived =
            self.last_seen.get(&ssrc).is_none_or(|&seen| now.saturating_since(seen) > self.timeout);
        if revived {
            self.alive_since.insert(ssrc, now);
        }
        self.last_seen.insert(ssrc, now);
    }

    /// Given the layers a subscriber is *supposed* to be able to use
    /// (descending preference), pick the best one that is demonstrably
    /// alive *and* past the re-upgrade hold. If no layer qualifies, fall
    /// back to the lowest layer that is at least alive, and failing that
    /// to the last (lowest) layer outright — matching the paper's "switch
    /// the high-bitrate subscription to a low-bitrate subscription".
    pub fn best_alive(&self, now: SimTime, preference: &[Ssrc]) -> Option<Ssrc> {
        for &ssrc in preference {
            if self.is_stable(now, ssrc) {
                return Some(ssrc);
            }
        }
        preference
            .iter()
            .rev()
            .copied()
            .find(|&s| self.is_alive(now, s))
            .or_else(|| preference.last().copied())
    }

    /// Is a specific layer alive?
    pub fn is_alive(&self, now: SimTime, ssrc: Ssrc) -> bool {
        self.last_seen.get(&ssrc).is_some_and(|&seen| now.saturating_since(seen) <= self.timeout)
    }

    /// Is a layer alive and has it been flowing uninterrupted for at least
    /// the re-upgrade hold?
    pub fn is_stable(&self, now: SimTime, ssrc: Ssrc) -> bool {
        self.is_alive(now, ssrc)
            && self
                .alive_since
                .get(&ssrc)
                .is_some_and(|&since| now.saturating_since(since) >= self.upgrade_hold)
    }
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

    /// Feed one packet per second on `ssrc` over `[from, to]` seconds.
    fn flow(m: &mut DowngradeMonitor, ssrc: Ssrc, from: u64, to: u64) {
        for s in from..=to {
            m.on_packet(SimTime::from_secs(s), ssrc);
        }
    }

    #[test]
    fn downgrade_monitor_picks_best_alive() {
        let mut m = DowngradeMonitor::new(SimDuration::from_secs(2));
        let prefs = [Ssrc(3), Ssrc(2), Ssrc(1)]; // high → low
        flow(&mut m, Ssrc(3), 0, 2);
        flow(&mut m, Ssrc(1), 0, 2);
        assert_eq!(m.best_alive(SimTime::from_secs(2), &prefs), Some(Ssrc(3)));
        // High layer goes silent; low keeps flowing.
        flow(&mut m, Ssrc(1), 3, 6);
        assert_eq!(m.best_alive(SimTime::from_secs(6), &prefs), Some(Ssrc(1)));
        assert!(!m.is_alive(SimTime::from_secs(6), Ssrc(3)));
    }

    #[test]
    fn downgrade_monitor_defaults_to_lowest() {
        let m = DowngradeMonitor::new(SimDuration::from_secs(2));
        assert_eq!(
            m.best_alive(SimTime::from_secs(1), &[Ssrc(3), Ssrc(1)]),
            Some(Ssrc(1)),
            "nothing seen yet: subscribe low, not high"
        );
        assert_eq!(m.best_alive(SimTime::ZERO, &[]), None);
    }

    /// Satellite regression: a layer that dies and later revives must be
    /// re-upgraded to — but only after flowing continuously through the
    /// hold window, so a blinking layer cannot flap the subscription.
    #[test]
    fn dead_layer_revival_reupgrades_after_hold() {
        let mut m = DowngradeMonitor::with_upgrade_hold(
            SimDuration::from_secs(2),
            SimDuration::from_secs(3),
        );
        let prefs = [Ssrc(3), Ssrc(1)]; // high → low
                                        // Both layers flow long enough to be stable; high wins.
        flow(&mut m, Ssrc(3), 0, 10);
        flow(&mut m, Ssrc(1), 0, 30);
        assert_eq!(m.best_alive(SimTime::from_secs(10), &prefs), Some(Ssrc(3)));

        // High dies at t=10 (silent past the 2 s timeout): downgrade is
        // immediate at detection time.
        assert_eq!(m.best_alive(SimTime::from_secs(13), &prefs), Some(Ssrc(1)));

        // High revives at t=20. One packet is not enough (pre-fix, it was:
        // the revived layer was instantly preferred again)…
        m.on_packet(SimTime::from_secs(20), Ssrc(3));
        assert!(m.is_alive(SimTime::from_secs(20), Ssrc(3)));
        assert_eq!(
            m.best_alive(SimTime::from_secs(20), &prefs),
            Some(Ssrc(1)),
            "revival must survive the hold before re-upgrade"
        );
        // …and a blink (silence at t=21..24 exceeds the timeout) restarts
        // the hold, keeping the subscription pinned low.
        m.on_packet(SimTime::from_secs(24), Ssrc(3));
        assert_eq!(m.best_alive(SimTime::from_secs(25), &prefs), Some(Ssrc(1)));

        // Continuous flow through the 3 s hold re-upgrades.
        flow(&mut m, Ssrc(3), 24, 28);
        assert_eq!(m.best_alive(SimTime::from_secs(28), &prefs), Some(Ssrc(3)));
    }

    /// When nothing is stable yet, the monitor prefers an *alive* low
    /// layer over a dead lowest entry.
    #[test]
    fn unstable_fallback_prefers_living_low_layer() {
        let mut m = DowngradeMonitor::new(SimDuration::from_secs(2));
        let prefs = [Ssrc(3), Ssrc(2), Ssrc(1)];
        // Only the middle layer has produced anything, and only just.
        m.on_packet(SimTime::from_secs(1), Ssrc(2));
        assert_eq!(
            m.best_alive(SimTime::from_secs(1), &prefs),
            Some(Ssrc(2)),
            "an alive-but-unproven layer beats a dead lowest layer"
        );
    }
}
