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
//! byte-identical to the controller ticking alone. The fleet's own
//! bookkeeping — admission ledger, tenant rollups, shedding, queued joins —
//! runs after the batch, in ascending conference order.
//!
//! [`ControllerFleet::retire`] hands a conference back whole, warm engine
//! included; dropping it frees the conference's DP slabs.
//!
//! # Overload shedding and admission
//!
//! The fleet also owns the host's overload policy. A [`ShedPolicy`] gives
//! it a per-tick DP-row budget (the same work currency as the per-round
//! deadline watchdog); sustained overruns demote the lowest-priority
//! conferences — by their [`gso_algo::Tenancy`] — to the cheap §7 template
//! baseline via the existing fallback path, and sustained headroom
//! re-promotes them one per hysteresis window, best tier first.
//! [`PriorityClass::High`] conferences are never shed. An optional
//! [`AdmissionController`] gates joins at the front door with the same row
//! currency ([`ControllerFleet::admit`]); queued joins start automatically
//! when capacity frees. Both mechanisms are deterministic: demotion and
//! promotion order depend only on tenancy, fleet index and measured rows,
//! never on wall time, and [`ControllerFleet::state_digest`] fingerprints
//! the whole host.

use crate::admission::{AdmissionController, AdmissionDecision, QueuedJoin, RejectReason};
use crate::controller::{ControlOutput, GsoController};
use gso_algo::{BatchConfig, BatchScheduler, PriorityClass, Tenancy};
use gso_rtp::GsoTmmbr;
use gso_telemetry::{keys, Telemetry};
use gso_util::{ClientId, SimTime};
use std::collections::VecDeque;

/// One fleet tick's per-conference result: the orchestration output (if a
/// round ran) and the due retransmissions.
pub type FleetTick = (Option<ControlOutput>, Vec<(ClientId, GsoTmmbr)>);

// The fleet moves each controller onto a batch worker for its tick.
const fn assert_send<T: Send>() {}
const _: () = assert_send::<GsoController>();

/// Overload shedding policy. Disabled by default (`row_budget_per_tick`
/// of 0): the fleet solves whatever it is given.
#[derive(Debug, Clone)]
pub struct ShedPolicy {
    /// Summed DP rows per tick the host can solve on deadline; 0 disables
    /// shedding.
    pub row_budget_per_tick: u64,
    /// Consecutive over-budget solving ticks before one conference is
    /// demoted to the template baseline.
    pub enter_ticks: u32,
    /// Consecutive solving ticks with at least `headroom` of the budget
    /// free before one demoted conference is re-promoted.
    pub exit_ticks: u32,
    /// Fraction of the budget that must be spare to count a tick toward
    /// re-promotion; the dead band between "over budget" and "this much
    /// headroom" resets both streaks, which is what stops demote/promote
    /// oscillation at the boundary.
    pub headroom: f64,
}

impl Default for ShedPolicy {
    fn default() -> Self {
        ShedPolicy { row_budget_per_tick: 0, enter_ticks: 2, exit_ticks: 5, headroom: 0.25 }
    }
}

/// Per-conference fleet bookkeeping kept parallel to the controller list.
#[derive(Debug, Clone)]
struct Slot {
    /// Demoted to the template baseline by the shedding tier (distinct
    /// from a manual/operator fallback, which the fleet never releases).
    shed: bool,
    /// Peak DP rows one solve of this conference has cost, measured.
    peak_rows: u64,
    /// Rows committed against the admission ledger for this conference
    /// (the join-time estimate until measurement overtakes it).
    ledger_rows: u64,
}

impl Slot {
    fn new(ledger_rows: u64) -> Self {
        Slot { shed: false, peak_rows: 0, ledger_rows }
    }
}

/// A set of conference controllers driven through one shared batch
/// scheduler. Conference order is submission order; results and commits
/// always follow it, so a fleet tick is deterministic at any worker count.
pub struct ControllerFleet {
    scheduler: BatchScheduler,
    controllers: Vec<GsoController>,
    slots: Vec<Slot>,
    shed_policy: ShedPolicy,
    over_streak: u32,
    under_streak: u32,
    admission: Option<AdmissionController>,
    /// Controllers parked behind the admission queue, in queue order.
    waiting: VecDeque<GsoController>,
    telemetry: Telemetry,
}

impl ControllerFleet {
    /// A fleet with its own worker pool.
    #[must_use]
    pub fn new(cfg: &BatchConfig) -> Self {
        ControllerFleet {
            scheduler: BatchScheduler::new(cfg),
            controllers: Vec::new(),
            slots: Vec::new(),
            shed_policy: ShedPolicy::default(),
            over_streak: 0,
            under_streak: 0,
            admission: None,
            waiting: VecDeque::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach a metrics registry for per-tenant rollups and shedding /
    /// admission counters.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Install (or replace) the overload shedding policy.
    pub fn set_shed_policy(&mut self, policy: ShedPolicy) {
        self.shed_policy = policy;
        self.over_streak = 0;
        self.under_streak = 0;
    }

    /// Install an admission controller; joins should then go through
    /// [`Self::admit`] instead of [`Self::push`].
    pub fn set_admission(&mut self, admission: AdmissionController) {
        self.admission = Some(admission);
    }

    /// The admission ledger, if installed.
    #[must_use]
    pub fn admission(&self) -> Option<&AdmissionController> {
        self.admission.as_ref()
    }

    /// Add a conference unconditionally; returns its fleet index. Bypasses
    /// admission (and books zero rows against it) — use [`Self::admit`]
    /// when the fleet is budget-gated.
    ///
    /// # Panics
    ///
    /// If the controller records into an enabled telemetry registry that
    /// another fleet conference (seated or queued) records into: their
    /// concurrent ticks would race its event order and gauges. Sharing the
    /// fleet's own registry is fine; the fleet records between batches.
    pub fn push(&mut self, controller: GsoController) -> usize {
        self.assert_own_registry(&controller);
        self.controllers.push(controller);
        self.slots.push(Slot::new(0));
        self.controllers.len() - 1
    }

    /// Ask the admission controller to seat a conference expected to cost
    /// `estimated_rows` DP rows per solving tick (the caller's estimate in
    /// the deadline watchdog's currency).
    ///
    /// `Admitted` seats it immediately; `Queued` parks the controller
    /// inside the fleet until teardown frees budget (it then starts
    /// automatically at the end of a [`Self::tick_all`]); a rejection
    /// returns the controller to the caller. Without an installed
    /// admission controller this is just [`Self::push`]. Panics like
    /// [`Self::push`].
    pub fn admit(
        &mut self,
        controller: GsoController,
        estimated_rows: u64,
    ) -> Result<AdmissionDecision, Box<(RejectReason, GsoController)>> {
        self.assert_own_registry(&controller);
        let Some(admission) = self.admission.as_mut() else {
            self.push(controller);
            return Ok(AdmissionDecision::Admitted);
        };
        let tenancy = controller.tenancy();
        match admission.request(tenancy, estimated_rows) {
            AdmissionDecision::Admitted => {
                self.telemetry.incr(keys::ADMISSION_ADMITTED, tenancy);
                self.controllers.push(controller);
                self.slots.push(Slot::new(estimated_rows));
                Ok(AdmissionDecision::Admitted)
            }
            AdmissionDecision::Queued { position } => {
                self.telemetry.incr(keys::ADMISSION_QUEUED, tenancy);
                self.waiting.push_back(controller);
                Ok(AdmissionDecision::Queued { position })
            }
            AdmissionDecision::Rejected(reason) => {
                self.telemetry.incr(keys::ADMISSION_REJECTED, tenancy);
                Err(Box::new((reason, controller)))
            }
        }
    }

    /// See the panic section of [`Self::push`].
    fn assert_own_registry(&self, controller: &GsoController) {
        let mine = controller.telemetry();
        let others = self.controllers.iter().chain(&self.waiting);
        assert!(
            !others.map(GsoController::telemetry).any(|t| t.shares_registry(mine)),
            "fleet conferences must not share a telemetry registry"
        );
    }

    /// Remove a conference and release its rows from the admission ledger.
    /// The controller comes back unchanged, warm engine included. Later
    /// conferences shift down by one index.
    pub fn retire(&mut self, index: usize) -> GsoController {
        let controller = self.controllers.remove(index);
        let slot = self.slots.remove(index);
        if let Some(admission) = self.admission.as_mut() {
            admission.release(controller.tenancy(), slot.ledger_rows);
        }
        controller
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

    /// Is the conference at `index` currently demoted by the shedding
    /// tier?
    #[must_use]
    pub fn is_shed(&self, index: usize) -> bool {
        self.slots.get(index).is_some_and(|s| s.shed)
    }

    /// Conferences currently demoted by the shedding tier.
    #[must_use]
    pub fn shed_count(&self) -> usize {
        self.slots.iter().filter(|s| s.shed).count()
    }

    /// Conferences parked behind the admission queue.
    #[must_use]
    pub fn waiting_count(&self) -> usize {
        self.waiting.len()
    }

    /// Tick every conference at `now`, each as one job on the shared
    /// workers. `out[i]` is conference `i`'s result — identical to calling
    /// `controllers[i].tick(now)` in isolation.
    ///
    /// # Panics
    ///
    /// Re-raises a panicking conference tick; the fleet has then lost its
    /// seated conferences and must be dropped.
    pub fn tick_all(&mut self, now: SimTime) -> Vec<FleetTick> {
        let jobs: Vec<_> = self
            .controllers
            .drain(..)
            .map(|mut controller| {
                move || {
                    let rows_before = controller.engine_stats().rows_recomputed;
                    let tick = controller.tick(now);
                    let rows_after = controller.engine_stats().rows_recomputed;
                    (controller, tick, rows_before, rows_after)
                }
            })
            .collect();
        let results = self.scheduler.run_batch(jobs);

        // Fleet bookkeeping in ascending conference order. A conference
        // that did not solve this tick recomputed no rows, which leaves its
        // slot unchanged.
        let mut total_rows: u64 = 0;
        let mut any_round = false;
        let mut out: Vec<FleetTick> = Vec::with_capacity(results.len());
        for ((controller, tick, rows_before, rows_after), slot) in
            results.into_iter().zip(&mut self.slots)
        {
            let rows_delta = rows_after - rows_before;
            total_rows += rows_delta;
            any_round |= tick.0.is_some();
            slot.peak_rows = slot.peak_rows.max(rows_delta);
            if slot.peak_rows > slot.ledger_rows {
                // Keep the admission ledger honest: a conference that
                // solves hotter than its join-time estimate occupies its
                // measured share of the budget from now on.
                if let Some(admission) = self.admission.as_mut() {
                    admission.correct_cost(slot.ledger_rows, slot.peak_rows);
                }
                slot.ledger_rows = slot.peak_rows;
            }
            self.controllers.push(controller);
            out.push(tick);
        }

        self.rollup_tenants(&out, total_rows);
        self.evaluate_shedding(any_round, total_rows);
        self.seat_waiting();
        out
    }

    /// Per-tenant telemetry rollups for one tick's outputs.
    fn rollup_tenants(&self, out: &[FleetTick], tick_rows: u64) {
        if !self.telemetry.enabled() {
            return;
        }
        for (controller, (output, _)) in self.controllers.iter().zip(out) {
            let Some(output) = output else { continue };
            let tenancy = controller.tenancy();
            if output.fallback {
                self.telemetry.incr(keys::TENANT_FALLBACK_ROUNDS, tenancy);
            } else {
                self.telemetry.incr(keys::TENANT_SOLVED_ROUNDS, tenancy);
            }
        }
        // Summed QoE of each tenant's latest solutions: recomputed from
        // scratch each rollup so demotions show up immediately.
        let mut sums: Vec<(Tenancy, f64)> = Vec::new();
        for controller in &self.controllers {
            let Some(solution) = controller.last_solution() else { continue };
            let tenancy = controller.tenancy();
            match sums.iter_mut().find(|(t, _)| *t == tenancy) {
                Some((_, q)) => *q += solution.total_qoe,
                None => sums.push((tenancy, solution.total_qoe)),
            }
        }
        for (tenancy, qoe) in sums {
            self.telemetry.gauge(keys::TENANT_QOE, tenancy, qoe);
        }
        if tick_rows > 0 {
            self.telemetry.observe(keys::FLEET_TICK_ROWS, "tick", tick_rows, keys::WORK_BOUNDS);
        }
    }

    /// One step of the overload state machine, fed this tick's summed
    /// solve work. Only solving ticks advance the streaks, so the cadence
    /// of idle 100 ms ticks between 1–3 s orchestration rounds does not
    /// dilute the hysteresis.
    // lint: hot_path(fleet-shed)
    fn evaluate_shedding(&mut self, any_round: bool, total_rows: u64) {
        let budget = self.shed_policy.row_budget_per_tick;
        if budget == 0 || !any_round {
            return;
        }
        let spare_floor = (budget as f64 * self.shed_policy.headroom) as u64;
        if total_rows > budget {
            self.over_streak += 1;
            self.under_streak = 0;
            if self.over_streak >= self.shed_policy.enter_ticks {
                self.over_streak = 0;
                self.demote_one();
            }
        } else if total_rows <= budget.saturating_sub(spare_floor) {
            self.under_streak += 1;
            self.over_streak = 0;
            if self.under_streak >= self.shed_policy.exit_ticks {
                self.under_streak = 0;
                self.promote_one();
            }
        } else {
            // Dead band: neither direction accumulates evidence.
            self.over_streak = 0;
            self.under_streak = 0;
        }
    }

    /// Demote the worst-tier conference not yet on the template baseline.
    /// Order: higher [`PriorityClass::shed_rank`] first (Low before
    /// Normal), then higher tenant id, then higher fleet index — a total,
    /// deterministic order. High-priority conferences are never demoted.
    fn demote_one(&mut self) {
        let pick = self
            .controllers
            .iter()
            .zip(&self.slots)
            .enumerate()
            .filter(|(_, (c, s))| {
                c.tenancy().priority != PriorityClass::High && !s.shed && !c.fallback_active()
            })
            .max_by_key(|&(i, (c, _))| {
                let t = c.tenancy();
                (t.priority.shed_rank(), t.tenant, i)
            })
            .map(|(i, _)| i);
        let Some(i) = pick else { return };
        if let (Some(slot), Some(controller)) = (self.slots.get_mut(i), self.controllers.get_mut(i))
        {
            slot.shed = true;
            controller.set_fallback(true);
            let tenancy = controller.tenancy();
            self.telemetry.incr(keys::FLEET_SHED_DEMOTIONS, tenancy);
        }
        self.telemetry.gauge(keys::FLEET_SHED_ACTIVE, "fleet", self.shed_count() as f64);
    }

    /// Re-promote the best-tier demoted conference (reverse of the
    /// demotion order, so the most important tenant recovers first).
    fn promote_one(&mut self) {
        let pick = self
            .controllers
            .iter()
            .zip(&self.slots)
            .enumerate()
            .filter(|(_, (_, s))| s.shed)
            .min_by_key(|&(i, (c, _))| {
                let t = c.tenancy();
                (t.priority.shed_rank(), t.tenant, i)
            })
            .map(|(i, _)| i);
        let Some(i) = pick else { return };
        if let (Some(slot), Some(controller)) = (self.slots.get_mut(i), self.controllers.get_mut(i))
        {
            slot.shed = false;
            controller.set_fallback(false);
            let tenancy = controller.tenancy();
            self.telemetry.incr(keys::FLEET_SHED_PROMOTIONS, tenancy);
        }
        self.telemetry.gauge(keys::FLEET_SHED_ACTIVE, "fleet", self.shed_count() as f64);
    }

    /// Seat queued joins whose budget has freed, in queue order.
    fn seat_waiting(&mut self) {
        let Some(admission) = self.admission.as_mut() else { return };
        if self.waiting.is_empty() {
            return;
        }
        let ready: Vec<QueuedJoin> = admission.drain_ready();
        for join in ready {
            let controller = self
                .waiting
                .pop_front()
                .expect("invariant: waiting list parallels the admission queue");
            debug_assert_eq!(controller.tenancy(), join.tenancy);
            self.assert_own_registry(&controller);
            self.telemetry.incr(keys::ADMISSION_ADMITTED, join.tenancy);
            self.controllers.push(controller);
            self.slots.push(Slot::new(join.estimated_rows));
        }
    }

    /// Stable digest of the whole host: every controller's state, the
    /// shedding flags and streaks, and the admission ledger. Identical
    /// across runs and worker counts for the same event sequence.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        use gso_util::digest::{StableHasher, StateDigest};
        let mut h = StableHasher::new();
        h.write_u64(self.controllers.len() as u64);
        for c in &self.controllers {
            h.write_u64(c.state_digest());
        }
        for s in &self.slots {
            s.shed.digest(&mut h);
            h.write_u64(s.peak_rows);
            h.write_u64(s.ledger_rows);
        }
        h.write_u64(u64::from(self.over_streak));
        h.write_u64(u64::from(self.under_streak));
        h.write_u64(self.waiting.len() as u64);
        if let Some(admission) = &self.admission {
            h.write_u64(admission.state_digest());
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;
    use crate::controller::ControllerConfig;
    use crate::state::{CodecCapability, SubscribeIntent};
    use gso_algo::{ladders, Resolution, SourceId, TenantId};
    use gso_rtp::GsoTmmbn;
    use gso_util::{Bitrate, Ssrc, StreamKind};

    fn caps() -> CodecCapability {
        CodecCapability { ladders: vec![(StreamKind::Video, ladders::paper_table1())] }
    }

    fn k(v: u64) -> Bitrate {
        Bitrate::from_kbps(v)
    }

    /// An n-party full-mesh conference controller with reported bandwidth.
    fn conference(n: u32, downlink_kbps: u64, ssrc: u32) -> GsoController {
        let mut c = GsoController::new(ControllerConfig::paper_defaults(), Ssrc(ssrc));
        for i in 1..=n {
            c.on_join(ClientId(i), caps());
        }
        for i in 1..=n {
            let intents: Vec<SubscribeIntent> = (1..=n)
                .filter(|j| *j != i)
                .map(|j| SubscribeIntent {
                    source: SourceId::video(ClientId(j)),
                    max_resolution: Resolution::R720,
                    tag: 0,
                })
                .collect();
            c.on_subscriptions(ClientId(i), intents);
            c.on_uplink_report(SimTime::ZERO, ClientId(i), k(2_000));
            c.on_downlink_report(SimTime::ZERO, ClientId(i), k(downlink_kbps));
        }
        c
    }

    fn tenant_conference(n: u32, ssrc: u32, tenant: u32, priority: PriorityClass) -> GsoController {
        let mut c = conference(n, 2_000, ssrc);
        c.set_tenancy(Tenancy::new(TenantId(tenant), priority));
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

    #[test]
    fn fleet_with_per_conference_telemetry_matches_solo_ticks() {
        let shapes: Vec<(u32, u64)> = vec![(3, 2_000), (4, 1_200), (5, 1_800), (3, 700), (4, 900)];
        let build = |i: usize, (n, d): (u32, u64)| {
            let mut c = conference(n, d, 100 + i as u32);
            c.set_telemetry(Telemetry::new(format!("conf-{i}")));
            c
        };
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

        for step in 0..6u64 {
            let now = SimTime::from_millis(10 + step * 1_100);
            let speaker = Some(ClientId(1 + (step % 2) as u32));
            for c in &mut solo {
                c.on_speaker(speaker);
            }
            let solo_out: Vec<FleetTick> = solo.iter_mut().map(|c| c.tick(now)).collect();
            for (i, c) in solo.iter_mut().enumerate() {
                ack_one(c, &solo_out[i]);
            }
            for fleet in &mut fleets {
                perturb(fleet, step);
                let out = fleet.tick_all(now);
                ack_tick(fleet, &out);
                let workers = fleet.workers();
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
        }
    }

    #[test]
    #[should_panic(expected = "must not share a telemetry registry")]
    fn conferences_sharing_a_registry_are_refused() {
        let shared = Telemetry::new("shared");
        let mut fleet = ControllerFleet::new(&BatchConfig { workers: 2 });
        // The fleet's own registry may be shared with one conference.
        fleet.set_telemetry(shared.clone());
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
    /// steady-state fleet re-solves from warm memos at ~0 rows and the
    /// row-budget overload signal never fires — exactly as intended.
    fn perturb(fleet: &mut ControllerFleet, step: u64) {
        let speaker = Some(ClientId(1 + (step % 2) as u32));
        for i in 0..fleet.len() {
            fleet.get_mut(i).expect("present").on_speaker(speaker);
        }
    }

    /// Acknowledge every GTMB this tick delivered or retransmitted. Without
    /// acks the executor eventually declares clients undeliverable and the
    /// §7 failure path forces *everyone* into fallback, masking shedding.
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

    /// Run perturbed, acked, 1.1 s-spaced solving ticks starting at
    /// `start` (monotonic step index — time must never run backwards
    /// across calls). Returns the final tick's outputs.
    fn run_ticks(fleet: &mut ControllerFleet, start: u64, ticks: u64) -> Vec<FleetTick> {
        let mut last = Vec::new();
        for step in start..start + ticks {
            perturb(fleet, step);
            last = fleet.tick_all(SimTime::from_millis(10 + step * 1_100));
            ack_tick(fleet, &last);
        }
        last
    }

    #[test]
    fn overload_sheds_low_priority_first_and_never_high() {
        let mut fleet = ControllerFleet::new(&BatchConfig { workers: 2 });
        fleet.push(tenant_conference(4, 1, 1, PriorityClass::High));
        fleet.push(tenant_conference(4, 2, 2, PriorityClass::Normal));
        fleet.push(tenant_conference(4, 3, 3, PriorityClass::Low));
        fleet.push(tenant_conference(4, 4, 4, PriorityClass::Low));
        // A budget no real solve fits under: every solving tick is an
        // overrun, so the fleet sheds as fast as the hysteresis allows —
        // one conference per tick, worst tier first.
        fleet.set_shed_policy(ShedPolicy {
            row_budget_per_tick: 1,
            enter_ticks: 1,
            exit_ticks: 10,
            headroom: 0.25,
        });
        run_ticks(&mut fleet, 0, 2);
        assert!(fleet.is_shed(2) && fleet.is_shed(3), "both low conferences shed first");
        assert!(!fleet.is_shed(1), "normal must outlive every low conference");
        run_ticks(&mut fleet, 2, 6);
        assert!(fleet.is_shed(1), "sustained overload eventually sheds normal too");
        assert!(!fleet.is_shed(0), "high priority is never shed");
        // Only the high-priority conference still solves; its output is a
        // real solution, the shed ones serve the fallback template.
        let out = run_ticks(&mut fleet, 8, 1);
        assert!(!out[0].0.as_ref().expect("round ran").fallback);
        for i in [2usize, 3] {
            let o = out[i].0.as_ref().expect("round ran");
            assert!(o.fallback, "shed conference {i} must serve the template baseline");
            assert!(
                o.solution.is_template_baseline(),
                "demoted solution must carry the baseline marker"
            );
            assert!(
                !o.solution.received.is_empty(),
                "degraded conferences still get media, never zero"
            );
        }
    }

    #[test]
    fn headroom_repromotes_with_hysteresis_best_tier_first() {
        let mut fleet = ControllerFleet::new(&BatchConfig { workers: 1 });
        fleet.push(tenant_conference(3, 1, 1, PriorityClass::Normal));
        fleet.push(tenant_conference(3, 2, 2, PriorityClass::Low));
        fleet.set_shed_policy(ShedPolicy {
            row_budget_per_tick: 1,
            enter_ticks: 1,
            exit_ticks: 2,
            headroom: 0.25,
        });
        run_ticks(&mut fleet, 0, 2);
        assert_eq!(fleet.shed_count(), 2, "starvation budget sheds everything sheddable");
        let shed_digest = fleet.state_digest();

        // Relief: a budget nothing overruns. Promotion needs exit_ticks
        // consecutive under-headroom solving ticks — not one — and brings
        // the best tier back first, one per hysteresis window.
        fleet.set_shed_policy(ShedPolicy {
            row_budget_per_tick: u64::MAX / 2,
            enter_ticks: 1,
            exit_ticks: 2,
            headroom: 0.25,
        });
        run_ticks(&mut fleet, 2, 1);
        assert_eq!(fleet.shed_count(), 2, "one quiet tick must not yet re-promote");
        run_ticks(&mut fleet, 3, 1);
        assert_eq!(fleet.shed_count(), 1, "sustained headroom re-promotes one conference");
        assert!(!fleet.is_shed(0), "normal (best demoted tier) comes back before low");
        assert!(fleet.is_shed(1));
        run_ticks(&mut fleet, 4, 4);
        assert_eq!(fleet.shed_count(), 0, "relief eventually restores everyone");
        assert!(!fleet.controllers()[1].fallback_active(), "re-promoted conference solves again");
        assert_ne!(shed_digest, fleet.state_digest());
    }

    #[test]
    fn shedding_is_deterministic_across_worker_counts() {
        let build = |workers: usize| {
            let mut fleet = ControllerFleet::new(&BatchConfig { workers });
            for (i, p) in [
                PriorityClass::Normal,
                PriorityClass::Low,
                PriorityClass::High,
                PriorityClass::Low,
                PriorityClass::Normal,
            ]
            .iter()
            .enumerate()
            {
                fleet.push(tenant_conference(3 + (i as u32 % 2), i as u32 + 1, i as u32 + 1, *p));
            }
            fleet.set_shed_policy(ShedPolicy {
                row_budget_per_tick: 1,
                enter_ticks: 1,
                exit_ticks: 4,
                headroom: 0.25,
            });
            fleet
        };
        let mut a = build(1);
        let mut b = build(4);
        for step in 0..10u64 {
            let now = SimTime::from_millis(10 + step * 1_100);
            perturb(&mut a, step);
            perturb(&mut b, step);
            let ta = a.tick_all(now);
            ack_tick(&mut a, &ta);
            let tb = b.tick_all(now);
            ack_tick(&mut b, &tb);
            assert_eq!(
                a.state_digest(),
                b.state_digest(),
                "fleet digest diverged across worker counts at step {step}"
            );
        }
    }

    #[test]
    fn admitted_queued_join_seats_after_retire() {
        let mut fleet = ControllerFleet::new(&BatchConfig { workers: 1 });
        fleet.set_admission(AdmissionController::new(AdmissionConfig {
            row_budget: 1_000,
            high_reserve: 0.0,
            queue_capacity: 4,
            tenant_quota: 0,
        }));
        let seated = fleet.admit(tenant_conference(3, 1, 1, PriorityClass::Normal), 900);
        assert!(matches!(seated, Ok(AdmissionDecision::Admitted)));
        let queued = fleet.admit(tenant_conference(3, 2, 2, PriorityClass::Normal), 900);
        assert!(matches!(queued, Ok(AdmissionDecision::Queued { position: 0 })));
        assert_eq!(fleet.len(), 1);
        assert_eq!(fleet.waiting_count(), 1);
        let rejected = fleet.admit(tenant_conference(3, 3, 3, PriorityClass::Low), 900);
        let Err(returned) = rejected else {
            panic!("low-priority join must be rejected outright");
        };
        assert_eq!(returned.0, RejectReason::BudgetExhausted);

        // Teardown frees the budget; the next tick seats the queued join.
        let _ = fleet.retire(0);
        let _ = fleet.tick_all(SimTime::from_millis(10));
        assert_eq!(fleet.len(), 1);
        assert_eq!(fleet.waiting_count(), 0);
        assert_eq!(
            fleet.controllers()[0].tenancy(),
            Tenancy::new(TenantId(2), PriorityClass::Normal)
        );
    }

    #[test]
    fn measured_rows_correct_the_admission_ledger() {
        let mut fleet = ControllerFleet::new(&BatchConfig { workers: 1 });
        fleet.set_admission(AdmissionController::new(AdmissionConfig {
            row_budget: 1_000_000,
            high_reserve: 0.0,
            queue_capacity: 4,
            tenant_quota: 0,
        }));
        // A laughably low estimate: the measured solve must overwrite it.
        let _ = fleet.admit(tenant_conference(4, 1, 1, PriorityClass::Normal), 1);
        let _ = fleet.tick_all(SimTime::from_millis(10));
        let committed = fleet.admission().expect("installed").committed_rows();
        assert!(committed > 1, "ledger must carry the measured cost, got {committed}");
    }
}
