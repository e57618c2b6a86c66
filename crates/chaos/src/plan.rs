//! Seed-driven fault plans.
//!
//! A [`FaultPlan`] is a fully deterministic schedule of fault actions —
//! controller outages, link corruption windows, client crash/rejoin
//! storms, feedback blackouts, solver-deadline overruns — derived from a
//! single seed via [`gso_util::DetRng`]. The same seed always yields the
//! same plan, and the runner executes plans on the deterministic packet
//! simulator, so every chaos run replays bit-identically (the double-run
//! digest comparison in the runner enforces this).

use gso_util::{ClientId, DetRng, SimDuration, SimTime};

/// Which side of a client's access link a link fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkSide {
    /// Client → accessing node (carries media uplink, SEMB and GTBN acks).
    Up,
    /// Accessing node → client (carries media downlink and GTMBs).
    Down,
}

/// A change to one direction of a client's access link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkFault {
    /// Set the independent per-packet loss probability.
    Loss(f64),
    /// Set the independent per-packet duplication probability.
    Duplicate(f64),
    /// Allow reordering, with the given mean exponential jitter driving it.
    Reorder(SimDuration),
    /// Add fixed one-way delay on top of the scenario-declared base delay.
    ExtraDelay(SimDuration),
    /// Restore the link to its scenario-declared configuration.
    Restore,
}

/// Everything the chaos runner can do to a wired conference.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// The controller process dies: all control input is dropped and no
    /// configuration goes out until [`FaultKind::CtrlRestart`].
    CtrlCrash,
    /// The controller restarts with empty in-memory state under a bumped
    /// epoch and resyncs from the accessing nodes (§7).
    CtrlRestart,
    /// A client endpoint dies silently (no Leave is signalled).
    ClientCrash(ClientId),
    /// A crashed client comes back and re-registers as a fresh endpoint.
    ClientRejoin(ClientId),
    /// Suppress (`true`) or resume (`false`) a client's SEMB uplink
    /// feedback, starving the controller of uplink estimates.
    SembBlackout(ClientId, bool),
    /// Suppress (`true`) or resume (`false`) an accessing node's downlink
    /// reports, by region index.
    ReportBlackout(usize, bool),
    /// Treat the next `n` fresh solves as solve-deadline overruns; the
    /// watchdog degrades those rounds to the fallback configuration.
    DeadlineOverrun(u32),
    /// Change one direction of a client's access link.
    Link {
        /// Whose access link.
        client: ClientId,
        /// Which direction.
        side: LinkSide,
        /// What to do to it.
        fault: LinkFault,
    },
    /// The active shard dies for good (no scripted restart); its standby
    /// must detect the silence and promote itself. Requires a
    /// [`gso_sim::Scenario`] built with `standby: true`.
    ShardCrash,
    /// Block (`true`) or heal (`false`) the active → standby link carrying
    /// heartbeats. Sub-lease blocks must *not*
    /// promote; a block outlasting the lease must promote exactly once.
    HeartbeatLink(bool),
    /// Partition (`true`) or heal (`false`) the active shard from every
    /// accessing node *and* its standby, both directions — the symmetric
    /// split-brain case: the zombie keeps solving on its island while the
    /// promoted standby takes the access layer, and epoch fencing must
    /// reject the zombie's writes once the partition heals.
    PartitionCn(bool),
}

/// One fault action at a point in simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the runner applies the action (at the enclosing tick boundary).
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A named, deterministic schedule of fault events.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Human-readable plan name (also the telemetry/report label).
    pub name: String,
    /// Events sorted ascending by time (ties keep insertion order).
    pub events: Vec<FaultEvent>,
    /// The plan assumes a failover pair (`Scenario::standby = true`).
    pub needs_standby: bool,
    /// Exactly this many standby promotions must occur (checked against
    /// `cluster.promotions` and the `cluster.takeover_ms` histogram).
    pub expected_promotions: u64,
    /// The plan produces a zombie writer whose stale-epoch traffic must be
    /// fenced (`cluster.fenced` > 0); when `false`, zero fenced writes are
    /// tolerated.
    pub expect_fencing: bool,
}

/// Start of the fault window: early enough that recovery and
/// re-convergence complete well before the steady-state QoE tail window.
const FAULT_WINDOW_START_MS: u64 = 8_000;

impl FaultPlan {
    /// A plan from explicit events (sorted by time, stable on ties).
    pub fn new(name: impl Into<String>, mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultPlan {
            name: name.into(),
            events,
            needs_standby: false,
            expected_promotions: 0,
            expect_fencing: false,
        }
    }

    /// The empty plan: no faults. Used for the baseline run.
    pub fn baseline() -> Self {
        FaultPlan::new("baseline", Vec::new())
    }

    /// How many controller restarts the plan performs (each one must close
    /// a recovery window within the documented bound).
    pub fn restarts(&self) -> u64 {
        self.events.iter().filter(|e| matches!(e.kind, FaultKind::CtrlRestart)).count() as u64
    }

    /// Controller outage: crash inside the fault window, restart 1–3 s
    /// later. Exercises the resync-from-accessing-nodes recovery path and
    /// the epoch bump that invalidates in-flight stale GTMBs.
    pub fn controller_outage(seed: u64) -> Self {
        let mut rng = DetRng::derive(seed, "chaos-controller-outage");
        let crash = SimTime::from_millis(FAULT_WINDOW_START_MS + rng.range_u64(0, 2_000));
        let outage = SimDuration::from_millis(rng.range_u64(1_000, 3_000));
        FaultPlan::new(
            "controller-outage",
            vec![
                FaultEvent { at: crash, kind: FaultKind::CtrlCrash },
                FaultEvent { at: crash + outage, kind: FaultKind::CtrlRestart },
            ],
        )
    }

    /// Control-channel corruption: one client's access link drops,
    /// duplicates, reorders and delays packets (GTMB/SEMB among them) for a
    /// 4–6 s window, then restores. Exercises the retransmission backoff,
    /// idempotent GTMB re-application and stale-epoch rejection.
    pub fn link_chaos(seed: u64, client: ClientId) -> Self {
        let mut rng = DetRng::derive(seed, "chaos-link-chaos");
        let start = SimTime::from_millis(FAULT_WINDOW_START_MS + rng.range_u64(0, 1_500));
        let stop = start + SimDuration::from_millis(rng.range_u64(4_000, 6_000));
        let loss = rng.range_f64(0.10, 0.25);
        let dup = rng.range_f64(0.10, 0.25);
        let jitter = SimDuration::from_millis(rng.range_u64(20, 60));
        let delay = SimDuration::from_millis(rng.range_u64(30, 80));
        let mut events = Vec::new();
        for side in [LinkSide::Up, LinkSide::Down] {
            for fault in [
                LinkFault::Loss(loss),
                LinkFault::Duplicate(dup),
                LinkFault::Reorder(jitter),
                LinkFault::ExtraDelay(delay),
            ] {
                events
                    .push(FaultEvent { at: start, kind: FaultKind::Link { client, side, fault } });
            }
            events.push(FaultEvent {
                at: stop,
                kind: FaultKind::Link { client, side, fault: LinkFault::Restore },
            });
        }
        FaultPlan::new("link-chaos", events)
    }

    /// Client crash/rejoin storm: every client except the first dies
    /// silently inside the fault window and rejoins 0.8–2.5 s later.
    /// Exercises endpoint re-registration, boot-generation timer fencing
    /// and the executor's fresh-endpoint reset.
    pub fn client_storm(seed: u64, clients: &[ClientId]) -> Self {
        let mut rng = DetRng::derive(seed, "chaos-client-storm");
        let mut events = Vec::new();
        for &client in clients.iter().skip(1) {
            let crash = SimTime::from_millis(FAULT_WINDOW_START_MS + rng.range_u64(0, 3_000));
            let gap = SimDuration::from_millis(rng.range_u64(800, 2_500));
            events.push(FaultEvent { at: crash, kind: FaultKind::ClientCrash(client) });
            events.push(FaultEvent { at: crash + gap, kind: FaultKind::ClientRejoin(client) });
        }
        FaultPlan::new("client-storm", events)
    }

    /// BWE feedback blackout: every client stops sending SEMB and the
    /// region-0 accessing node stops sending downlink reports for 4–6 s.
    /// The controller must keep serving its last-known-good picture.
    pub fn feedback_blackout(seed: u64, clients: &[ClientId]) -> Self {
        let mut rng = DetRng::derive(seed, "chaos-feedback-blackout");
        let start = SimTime::from_millis(FAULT_WINDOW_START_MS + rng.range_u64(0, 1_500));
        let stop = start + SimDuration::from_millis(rng.range_u64(4_000, 6_000));
        let mut events = Vec::new();
        for &client in clients {
            events.push(FaultEvent { at: start, kind: FaultKind::SembBlackout(client, true) });
            events.push(FaultEvent { at: stop, kind: FaultKind::SembBlackout(client, false) });
        }
        events.push(FaultEvent { at: start, kind: FaultKind::ReportBlackout(0, true) });
        events.push(FaultEvent { at: stop, kind: FaultKind::ReportBlackout(0, false) });
        FaultPlan::new("feedback-blackout", events)
    }

    /// Solver-deadline overruns: 2–4 consecutive solves blow their row
    /// budget; the watchdog degrades each to the fallback configuration
    /// and the controller re-promotes once solves are clean again.
    pub fn deadline_overrun(seed: u64) -> Self {
        let mut rng = DetRng::derive(seed, "chaos-deadline-overrun");
        let at = SimTime::from_millis(FAULT_WINDOW_START_MS + rng.range_u64(0, 2_000));
        let rounds = rng.range_u64(2, 5) as u32;
        FaultPlan::new(
            "deadline-overrun",
            vec![FaultEvent { at, kind: FaultKind::DeadlineOverrun(rounds) }],
        )
    }

    /// Shard crash: the active conference shard dies for good inside the
    /// fault window. The standby's lease expires within ~1 s, it promotes
    /// itself under a bumped epoch, rebuilds the controller from the
    /// accessing nodes' resync replies, and the conference re-converges. No zombie exists, so zero fenced
    /// writes are expected.
    pub fn shard_crash(seed: u64) -> Self {
        let mut rng = DetRng::derive(seed, "chaos-shard-crash");
        let at = SimTime::from_millis(FAULT_WINDOW_START_MS + rng.range_u64(0, 2_000));
        let mut plan =
            FaultPlan::new("shard-crash", vec![FaultEvent { at, kind: FaultKind::ShardCrash }]);
        plan.needs_standby = true;
        plan.expected_promotions = 1;
        plan
    }

    /// Standby promotion under load: the shard dies while one client's
    /// access link is inside a reorder + extra-delay window, so the
    /// takeover's resyncs, GTMB pushes and acks run against disordered,
    /// delayed control traffic. The load is deliberately loss-free: a loss
    /// window would crater the client's uplink estimate right as the
    /// promoted controller seeds its picture from the resync replies, and
    /// the resulting low allocation can trap BWE below a ladder-budget cliff —
    /// a steady-state property of rate allocation, not of failover. The
    /// link heals before the tail window; QoE must re-converge.
    pub fn promotion_under_load(seed: u64, client: ClientId) -> Self {
        let mut rng = DetRng::derive(seed, "chaos-promotion-under-load");
        let start = SimTime::from_millis(FAULT_WINDOW_START_MS + rng.range_u64(0, 1_000));
        let crash = start + SimDuration::from_millis(rng.range_u64(500, 1_500));
        let heal = start + SimDuration::from_millis(rng.range_u64(4_000, 5_000));
        let jitter = SimDuration::from_millis(rng.range_u64(20, 60));
        let delay = SimDuration::from_millis(rng.range_u64(30, 80));
        let mut events = Vec::new();
        for side in [LinkSide::Up, LinkSide::Down] {
            for fault in [LinkFault::Reorder(jitter), LinkFault::ExtraDelay(delay)] {
                events
                    .push(FaultEvent { at: start, kind: FaultKind::Link { client, side, fault } });
            }
            events.push(FaultEvent {
                at: heal,
                kind: FaultKind::Link { client, side, fault: LinkFault::Restore },
            });
        }
        events.push(FaultEvent { at: crash, kind: FaultKind::ShardCrash });
        let mut plan = FaultPlan::new("promotion-under-load", events);
        plan.needs_standby = true;
        plan.expected_promotions = 1;
        plan
    }

    /// Heartbeat-loss flapping: two sub-lease blocks of the heartbeat link
    /// that must *not* trigger a promotion, then one block outlasting the
    /// lease that must trigger exactly one. The active shard is healthy
    /// throughout, so after the promotion it is a zombie: its stale-epoch
    /// rules must be fenced and the `Fence` replies must make it step down.
    pub fn heartbeat_flapping(seed: u64) -> Self {
        let mut rng = DetRng::derive(seed, "chaos-heartbeat-flapping");
        // Sub-lease windows: the 700 ms (minimum) lease tolerates ≤ 500 ms
        // of heartbeat silence even when the block lands right after a
        // renewal (next heartbeat arrives ≤ 100 ms after the heal).
        let mut events = Vec::new();
        let mut at = SimTime::from_millis(FAULT_WINDOW_START_MS + rng.range_u64(0, 500));
        for _ in 0..2 {
            let window = SimDuration::from_millis(rng.range_u64(300, 450));
            events.push(FaultEvent { at, kind: FaultKind::HeartbeatLink(true) });
            events.push(FaultEvent { at: at + window, kind: FaultKind::HeartbeatLink(false) });
            at = at + window + SimDuration::from_millis(1_500);
        }
        // The killer block: well past the jittered lease bound (840 ms).
        events.push(FaultEvent { at, kind: FaultKind::HeartbeatLink(true) });
        events.push(FaultEvent {
            at: at + SimDuration::from_millis(2_000),
            kind: FaultKind::HeartbeatLink(false),
        });
        let mut plan = FaultPlan::new("heartbeat-flapping", events);
        plan.needs_standby = true;
        plan.expected_promotions = 1;
        plan.expect_fencing = true;
        plan
    }

    /// Symmetric partition (split-brain): the active shard is cut off from
    /// every accessing node *and* its standby, keeps solving on its island,
    /// and the standby promotes and captures the access layer. When the
    /// partition heals, the zombie's stale-epoch writes must be fenced —
    /// never applied — and the `Fence` replies must make it step down, so
    /// at no point do two writers drive the same conference.
    pub fn split_brain(seed: u64) -> Self {
        let mut rng = DetRng::derive(seed, "chaos-split-brain");
        let cut = SimTime::from_millis(FAULT_WINDOW_START_MS + rng.range_u64(0, 1_000));
        let heal = cut + SimDuration::from_millis(rng.range_u64(2_500, 3_500));
        let mut plan = FaultPlan::new(
            "split-brain",
            vec![
                FaultEvent { at: cut, kind: FaultKind::PartitionCn(true) },
                FaultEvent { at: heal, kind: FaultKind::PartitionCn(false) },
            ],
        );
        plan.needs_standby = true;
        plan.expected_promotions = 1;
        plan.expect_fencing = true;
        plan
    }

    /// The failover-plan matrix for one seed: every plan here requires a
    /// scenario built with a standby shard.
    pub fn failover_matrix(seed: u64, clients: &[ClientId]) -> Vec<FaultPlan> {
        let load_target = clients.first().copied().unwrap_or(ClientId(1));
        vec![
            FaultPlan::shard_crash(seed),
            FaultPlan::promotion_under_load(seed, load_target),
            FaultPlan::heartbeat_flapping(seed),
            FaultPlan::split_brain(seed),
        ]
    }

    /// The failover subset for CI smoke runs: the clean takeover path and
    /// the split-brain fencing path (the two §7 bounds unique to the
    /// standby failover layer).
    pub fn failover_smoke(seed: u64) -> Vec<FaultPlan> {
        vec![FaultPlan::shard_crash(seed), FaultPlan::split_brain(seed)]
    }

    /// The full fault-plan matrix for one seed.
    pub fn matrix(seed: u64, clients: &[ClientId]) -> Vec<FaultPlan> {
        let storm_target = clients.first().copied().unwrap_or(ClientId(1));
        vec![
            FaultPlan::controller_outage(seed),
            FaultPlan::link_chaos(seed, storm_target),
            FaultPlan::client_storm(seed, clients),
            FaultPlan::feedback_blackout(seed, clients),
            FaultPlan::deadline_overrun(seed),
        ]
    }

    /// The reduced matrix for CI smoke runs: one control-plane outage and
    /// one watchdog degradation (the two recovery paths with bounds). The
    /// smoke run adds [`FaultPlan::failover_smoke`] on the standby-paired
    /// conference.
    pub fn smoke_matrix(seed: u64) -> Vec<FaultPlan> {
        vec![FaultPlan::controller_outage(seed), FaultPlan::deadline_overrun(seed)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_per_seed() {
        let clients = [ClientId(1), ClientId(2), ClientId(3)];
        for seed in [0, 7, 42] {
            let a = FaultPlan::matrix(seed, &clients);
            let b = FaultPlan::matrix(seed, &clients);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.name, y.name);
                assert_eq!(x.events, y.events);
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::controller_outage(1);
        let b = FaultPlan::controller_outage(2);
        assert_ne!(a.events, b.events);
    }

    #[test]
    fn failover_plans_deterministic_and_well_formed() {
        let clients = [ClientId(1), ClientId(2), ClientId(3)];
        let a = FaultPlan::failover_matrix(11, &clients);
        let b = FaultPlan::failover_matrix(11, &clients);
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.events, y.events);
            assert!(x.needs_standby, "{}: failover plans need a standby", x.name);
            assert_eq!(x.expected_promotions, 1, "{}", x.name);
            for w in x.events.windows(2) {
                assert!(w[0].at <= w[1].at, "{}: unsorted events", x.name);
            }
            for e in &x.events {
                assert!(e.at < SimTime::from_secs(20), "{}: late event", x.name);
            }
        }
        // Every heartbeat/partition block is healed so the tail window is
        // judged on a reconnected network.
        for plan in &a {
            let mut open = 0i32;
            for e in &plan.events {
                match e.kind {
                    FaultKind::HeartbeatLink(true) | FaultKind::PartitionCn(true) => open += 1,
                    FaultKind::HeartbeatLink(false) | FaultKind::PartitionCn(false) => open -= 1,
                    _ => {}
                }
            }
            assert_eq!(open, 0, "{}: unclosed block window", plan.name);
        }
    }

    #[test]
    fn events_sorted_and_windows_close() {
        let clients = [ClientId(1), ClientId(2), ClientId(3)];
        for plan in FaultPlan::matrix(9, &clients) {
            for w in plan.events.windows(2) {
                assert!(w[0].at <= w[1].at, "{}: unsorted events", plan.name);
            }
            // Every crash has a matching rejoin/restart, every blackout and
            // link window is closed, and everything lands before 20 s so
            // recovery can finish ahead of the steady-state tail window.
            let crashes =
                plan.events.iter().filter(|e| matches!(e.kind, FaultKind::CtrlCrash)).count();
            assert_eq!(crashes as u64, plan.restarts());
            for e in &plan.events {
                assert!(e.at < SimTime::from_secs(20), "{}: late event", plan.name);
            }
        }
    }
}
