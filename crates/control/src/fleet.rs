//! Multi-conference control host: many [`GsoController`]s sharing one
//! persistent [`BatchScheduler`].
//!
//! A production node runs hundreds of conferences; ticking them one after
//! another serializes the control plane on a single core, and spawning
//! threads inside each solve costs more than the warm solves themselves.
//! [`ControllerFleet`] instead runs every conference's whole
//! [`GsoController::tick`] — prepare, solve, commit — as one job on the
//! shared scheduler's persistent workers ([`BatchScheduler::run_batch`]).
//! Each job owns its controller (engine, executor and telemetry handle
//! included), so no state is shared between workers and every output is
//! byte-identical to the controller ticking alone. The controllers come
//! back in conference order.
//!
//! [`ControllerFleet::retire`] hands a conference back whole, warm engine
//! included; dropping it frees the conference's DP slabs.

use crate::controller::{ControlOutput, GsoController};
use gso_algo::{BatchConfig, BatchScheduler};
use gso_rtp::GsoTmmbr;
use gso_util::{ClientId, SimTime};

/// One fleet tick's per-conference result: the orchestration output (if a
/// round ran) and the due retransmissions.
pub type FleetTick = (Option<ControlOutput>, Vec<(ClientId, GsoTmmbr)>);

// The fleet moves each controller onto a batch worker for its tick.
const fn assert_send<T: Send>() {}
const _: () = assert_send::<GsoController>();

/// A set of conference controllers driven through one shared batch
/// scheduler. Conference order is submission order; results and commits
/// always follow it, so a fleet tick is deterministic at any worker count.
pub struct ControllerFleet {
    scheduler: BatchScheduler,
    controllers: Vec<GsoController>,
}

impl ControllerFleet {
    /// A fleet with its own worker pool.
    #[must_use]
    pub fn new(cfg: &BatchConfig) -> Self {
        ControllerFleet { scheduler: BatchScheduler::new(cfg), controllers: Vec::new() }
    }

    /// Add a conference; returns its fleet index.
    ///
    /// # Panics
    ///
    /// If the controller records into an enabled telemetry registry that
    /// another fleet conference records into: their concurrent ticks would
    /// race its event order and gauges.
    pub fn push(&mut self, controller: GsoController) -> usize {
        let mine = controller.telemetry();
        assert!(
            !self.controllers.iter().any(|c| c.telemetry().shares_registry(mine)),
            "fleet conferences must not share a telemetry registry"
        );
        self.controllers.push(controller);
        self.controllers.len() - 1
    }

    /// Remove a conference. The controller comes back unchanged, warm
    /// engine included. Later conferences shift down by one index.
    pub fn retire(&mut self, index: usize) -> GsoController {
        self.controllers.remove(index)
    }

    /// Number of conferences.
    #[must_use]
    pub fn len(&self) -> usize {
        self.controllers.len()
    }

    /// True when the fleet hosts no conferences.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.controllers.is_empty()
    }

    /// Worker threads in the shared scheduler.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.scheduler.workers()
    }

    /// The conference at `index`.
    pub fn get_mut(&mut self, index: usize) -> Option<&mut GsoController> {
        self.controllers.get_mut(index)
    }

    /// All conferences, for inspection.
    #[must_use]
    pub fn controllers(&self) -> &[GsoController] {
        &self.controllers
    }

    /// Tick every conference at `now`, each as one job on the shared
    /// workers. `out[i]` is conference `i`'s result — identical to calling
    /// `controllers[i].tick(now)` in isolation.
    ///
    /// # Panics
    ///
    /// Re-raises a panicking conference tick; the fleet has then lost its
    /// conferences and must be dropped.
    pub fn tick_all(&mut self, now: SimTime) -> Vec<FleetTick> {
        let jobs: Vec<_> = self
            .controllers
            .drain(..)
            .map(|mut controller| {
                move || {
                    let tick = controller.tick(now);
                    (controller, tick)
                }
            })
            .collect();
        let results = self.scheduler.run_batch(jobs);
        let mut out: Vec<FleetTick> = Vec::with_capacity(results.len());
        for (controller, tick) in results {
            self.controllers.push(controller);
            out.push(tick);
        }
        out
    }

    /// Stable digest of the whole host: the conference count and every
    /// controller's state, in conference order. Identical across runs and
    /// worker counts for the same event sequence.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        use gso_util::digest::StableHasher;
        let mut h = StableHasher::new();
        h.write_u64(self.controllers.len() as u64);
        for c in &self.controllers {
            h.write_u64(c.state_digest());
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ControllerConfig;
    use crate::state::{CodecCapability, SubscribeIntent};
    use gso_algo::{ladders, Resolution, SourceId};
    use gso_rtp::GsoTmmbn;
    use gso_telemetry::Telemetry;
    use gso_util::{Bitrate, Ssrc, StreamKind};

    fn caps() -> CodecCapability {
        CodecCapability { ladders: vec![(StreamKind::Video, ladders::paper_table1())] }
    }

    fn k(v: u64) -> Bitrate {
        Bitrate::from_kbps(v)
    }

    /// Client `i` of an n-party full mesh subscribes to every other party
    /// at 720p and reports its links at `now`.
    fn subscribe_party(c: &mut GsoController, i: u32, n: u32, downlink_kbps: u64, now: SimTime) {
        let intents: Vec<SubscribeIntent> = (1..=n)
            .filter(|j| *j != i)
            .map(|j| SubscribeIntent {
                source: SourceId::video(ClientId(j)),
                max_resolution: Resolution::R720,
                tag: 0,
            })
            .collect();
        c.on_subscriptions(ClientId(i), intents);
        c.on_uplink_report(now, ClientId(i), k(2_000));
        c.on_downlink_report(now, ClientId(i), k(downlink_kbps));
    }

    /// An n-party full-mesh conference controller with reported bandwidth.
    fn conference(n: u32, downlink_kbps: u64, ssrc: u32) -> GsoController {
        let mut c = GsoController::new(ControllerConfig::paper_defaults(), Ssrc(ssrc));
        for i in 1..=n {
            c.on_join(ClientId(i), caps());
        }
        for i in 1..=n {
            subscribe_party(&mut c, i, n, downlink_kbps, SimTime::ZERO);
        }
        c
    }

    #[test]
    fn fleet_tick_matches_solo_ticks() {
        let shapes: Vec<(u32, u64)> = vec![(3, 2_000), (4, 1_200), (5, 1_800), (3, 700)];
        let mut solo: Vec<GsoController> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(n, d))| conference(n, d, 100 + i as u32))
            .collect();
        let mut fleet = ControllerFleet::new(&BatchConfig { workers: 2 });
        for (i, &(n, d)) in shapes.iter().enumerate() {
            fleet.push(conference(n, d, 100 + i as u32));
        }

        for step in 0..4u64 {
            let now = SimTime::from_millis(10 + step * 1_100);
            let fleet_out = fleet.tick_all(now);
            assert_eq!(fleet_out.len(), solo.len());
            for (ci, (solo_c, (fleet_out, fleet_retx))) in
                solo.iter_mut().zip(fleet_out).enumerate()
            {
                let (solo_out, solo_retx) = solo_c.tick(now);
                assert_eq!(
                    solo_out.map(|o| (o.solution, o.fallback)),
                    fleet_out.map(|o| (o.solution, o.fallback)),
                    "conference {ci} diverged at step {step}"
                );
                assert_eq!(solo_retx.len(), fleet_retx.len());
            }
            // State digests must agree exactly after every tick.
            for (ci, (solo_c, fleet_c)) in solo.iter().zip(fleet.controllers().iter()).enumerate() {
                assert_eq!(
                    solo_c.state_digest(),
                    fleet_c.state_digest(),
                    "conference {ci} digest diverged at step {step}"
                );
            }
        }
    }

    /// The membership churn conference 1 sees: its client 2 leaves at step
    /// 2 and rejoins under the same id at step 3.
    fn churn(c: &mut GsoController, step: u64, now: SimTime) {
        match step {
            2 => c.on_leave(ClientId(2)),
            3 => {
                c.on_join(ClientId(2), caps());
                subscribe_party(c, 2, 4, 1_200, now);
            }
            _ => {}
        }
    }

    #[test]
    fn fleet_with_per_conference_telemetry_matches_solo_ticks() {
        let shapes: Vec<(u32, u64)> = vec![(3, 2_000), (4, 1_200), (5, 1_800), (3, 700), (4, 900)];
        let build = |i: usize, (n, d): (u32, u64)| {
            let mut c = conference(n, d, 100 + i as u32);
            c.set_telemetry(Telemetry::new(format!("conf-{i}")));
            c
        };
        // Seated at step 4, when conference 0 is retired.
        let fresh = (shapes.len(), (4, 1_500));
        let mut solo: Vec<GsoController> =
            shapes.iter().enumerate().map(|(i, &shape)| build(i, shape)).collect();
        let mut fleets: Vec<ControllerFleet> = [1, 2, 8]
            .iter()
            .map(|&workers| {
                let mut fleet = ControllerFleet::new(&BatchConfig { workers });
                for (i, &shape) in shapes.iter().enumerate() {
                    fleet.push(build(i, shape));
                }
                fleet
            })
            .collect();

        for step in 0..8u64 {
            let now = SimTime::from_millis(10 + step * 1_100);
            let speaker = Some(ClientId(1 + (step % 2) as u32));
            if step == 4 {
                solo.remove(0);
                solo.push(build(fresh.0, fresh.1));
            } else {
                churn(&mut solo[1], step, now);
            }
            for c in &mut solo {
                c.on_speaker(speaker);
            }
            let solo_out: Vec<FleetTick> = solo.iter_mut().map(|c| c.tick(now)).collect();
            for (i, c) in solo.iter_mut().enumerate() {
                ack_one(c, &solo_out[i]);
            }
            for fleet in &mut fleets {
                if step == 4 {
                    let _ = fleet.retire(0);
                    fleet.push(build(fresh.0, fresh.1));
                } else {
                    churn(fleet.get_mut(1).expect("present"), step, now);
                }
                perturb(fleet, step);
                let out = fleet.tick_all(now);
                ack_tick(fleet, &out);
                let workers = fleet.workers();
                assert_eq!(out.len(), solo_out.len());
                for (ci, ((solo_c, solo_t), (fleet_c, fleet_t))) in
                    solo.iter().zip(&solo_out).zip(fleet.controllers().iter().zip(&out)).enumerate()
                {
                    let ctx = format!("conference {ci}, step {step}, {workers} workers");
                    assert_eq!(
                        solo_t.0.as_ref().map(|o| &o.configs),
                        fleet_t.0.as_ref().map(|o| &o.configs),
                        "{ctx}: configs"
                    );
                    assert_eq!(solo_t.1, fleet_t.1, "{ctx}: retransmissions");
                    assert_eq!(solo_c.state_digest(), fleet_c.state_digest(), "{ctx}: state");
                    assert_eq!(
                        solo_c.telemetry().export_digest(),
                        fleet_c.telemetry().export_digest(),
                        "{ctx}: telemetry"
                    );
                }
            }
            let digests: Vec<u64> = fleets.iter().map(ControllerFleet::state_digest).collect();
            assert!(digests.windows(2).all(|w| w[0] == w[1]), "step {step}: fleets {digests:?}");
        }
    }

    #[test]
    #[should_panic(expected = "must not share a telemetry registry")]
    fn conferences_sharing_a_registry_are_refused() {
        let shared = Telemetry::new("shared");
        let mut fleet = ControllerFleet::new(&BatchConfig { workers: 2 });
        let mut a = conference(3, 2_000, 1);
        a.set_telemetry(shared.clone());
        fleet.push(a);
        let mut b = conference(3, 2_000, 2);
        b.set_telemetry(shared);
        fleet.push(b);
    }

    #[test]
    fn fleet_respects_manual_fallback() {
        let mut fleet = ControllerFleet::new(&BatchConfig { workers: 2 });
        fleet.push(conference(3, 2_000, 1));
        fleet.push(conference(3, 2_000, 2));
        fleet.get_mut(1).expect("present").set_fallback(true);
        let out = fleet.tick_all(SimTime::from_millis(10));
        assert!(!out[0].0.as_ref().expect("round ran").fallback);
        assert!(out[1].0.as_ref().expect("round ran").fallback);
    }

    #[test]
    fn retire_hands_back_a_warm_controller() {
        let mut fleet = ControllerFleet::new(&BatchConfig { workers: 1 });
        fleet.push(conference(4, 1_500, 7));
        let _ = fleet.tick_all(SimTime::from_millis(10));
        let live = fleet.get_mut(0).expect("present");
        let (stats, digest) = (live.engine_stats(), live.state_digest());
        assert!(stats.solves > 0, "the tick must have warmed the engine");
        let retired = fleet.retire(0);
        assert!(fleet.is_empty());
        assert_eq!(retired.engine_stats(), stats, "retire must keep the warm engine");
        assert_eq!(retired.state_digest(), digest);
    }

    /// Make every conference's next round a real re-solve: alternating the
    /// speaker changes the QoE boosts, which invalidates the engine's
    /// whole-solve fingerprint and triggers an event round. Without this a
    /// steady-state fleet re-solves from warm memos at ~0 rows.
    fn perturb(fleet: &mut ControllerFleet, step: u64) {
        let speaker = Some(ClientId(1 + (step % 2) as u32));
        for i in 0..fleet.len() {
            fleet.get_mut(i).expect("present").on_speaker(speaker);
        }
    }

    /// Acknowledge every GTMB this tick delivered or retransmitted. Without
    /// acks the executor eventually declares clients undeliverable and the
    /// §7 failure path forces *everyone* into fallback.
    fn ack_tick(fleet: &mut ControllerFleet, ticks: &[FleetTick]) {
        for (i, tick) in ticks.iter().enumerate() {
            ack_one(fleet.get_mut(i).expect("present"), tick);
        }
    }

    fn ack_one(controller: &mut GsoController, (out, retx): &FleetTick) {
        let configs = out.iter().flat_map(|o| o.configs.iter());
        for (client, msg) in configs.chain(retx.iter()) {
            controller.on_ack(
                *client,
                &GsoTmmbn {
                    sender_ssrc: Ssrc(99),
                    epoch: msg.epoch,
                    request_seq: msg.request_seq,
                    entries: vec![],
                },
            );
        }
    }
}
