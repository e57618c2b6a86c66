//! Fleet overload: 2× offered capacity against admission + shedding.
//!
//! Where the rest of the harness faults one wired conference, this module
//! stresses the *multi-tenant control plane*: a [`gso_control::ControllerFleet`]
//! of mixed-priority conferences is driven with per-tick churn at twice the
//! row budget the fleet is provisioned for, plus a mid-run join wave that
//! the admission controller must park or turn away. The verdict mirrors the
//! ISSUE acceptance gates:
//!
//! * high-priority tenant QoE within tolerance of the uncontended baseline
//!   (shedding must never touch the High tier),
//! * every low-priority conference demoted to the cheap template baseline —
//!   degraded, never starved (`received` stays non-empty),
//! * under sustained overload no join is admitted immediately; low-priority
//!   joins are rejected outright while better tiers queue,
//! * final configurations auditor-clean (uplink findings excluded for
//!   fallback outputs, as in the §7 runner), and
//! * digest-identical double runs at 1, 2 and 8 batch workers.
//!
//! The row budget is self-calibrating: an unlimited run measures the
//! fleet's real per-tick demand, and the overloaded run is provisioned at
//! half of it — so "2× offered capacity" holds by construction on any
//! machine, with no magic constants to drift as the solver evolves.

use gso_algo::{
    ladders, BatchConfig, ConstraintViolation, PriorityClass, Resolution, SourceId, Tenancy,
    TenantId,
};
use gso_control::{
    AdmissionConfig, AdmissionController, AdmissionDecision, CodecCapability, ControllerConfig,
    ControllerFleet, FleetTick, GsoController, ShedPolicy, SubscribeIntent,
};
use gso_rtp::GsoTmmbn;
use gso_telemetry::{keys, Telemetry};
use gso_util::digest::{first_divergence, DigestEntry, DigestTrace};
use gso_util::{Bitrate, ClientId, DetRng, SimTime, Ssrc};

/// A deterministic multi-tenant overload schedule.
#[derive(Debug, Clone)]
pub struct OverloadPlan {
    /// Report/telemetry label.
    pub name: String,
    /// Tenancy and party count of each pre-seated conference.
    pub conferences: Vec<(Tenancy, u32)>,
    /// Reported downlink per conference (seed-jittered, constant per run).
    pub downlinks: Vec<Bitrate>,
    /// Solving ticks to run (1.1 s apart, every one churned).
    pub ticks: u64,
}

impl OverloadPlan {
    /// The reference plan: six conferences across three tenant tiers —
    /// two High, two Normal, two Low — with seed-varied sizes and
    /// downlinks. Long enough for shedding to reach steady state with the
    /// default hysteresis and still leave a tail to judge.
    pub fn standard(seed: u64) -> Self {
        let mut rng = DetRng::derive(seed, "chaos-overload");
        let tiers = [
            PriorityClass::High,
            PriorityClass::High,
            PriorityClass::Normal,
            PriorityClass::Normal,
            PriorityClass::Low,
            PriorityClass::Low,
        ];
        let conferences = tiers
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                (Tenancy::new(TenantId(i as u32 + 1), p), 3 + rng.range_u64(0, 3) as u32)
            })
            .collect();
        let downlinks =
            (0..tiers.len()).map(|_| Bitrate::from_kbps(rng.range_u64(1_400, 2_400))).collect();
        OverloadPlan { name: "fleet-overload".to_string(), conferences, downlinks, ticks: 24 }
    }
}

/// What one fleet execution produced.
pub struct OverloadOutcome {
    /// Per-tick fleet + telemetry digests for the double-run comparison.
    pub trace: DigestTrace,
    /// Summed final QoE over the High-tier conferences.
    pub high_qoe: f64,
    /// Per Low-tier conference: (served fallback, template baseline,
    /// received non-empty) at its final round.
    pub low_finals: Vec<(bool, bool, bool)>,
    /// Conferences demoted by shedding at the end of the run.
    pub shed: usize,
    /// Mean summed DP rows per solving tick (the fleet's measured demand).
    pub rows_per_tick: u64,
    /// Auditor findings across every conference's final configuration
    /// (uplink findings excluded for fallback outputs).
    pub violations: usize,
    /// Join-wave decisions as (admitted, queued, rejected) counts.
    pub joins: (usize, usize, usize),
}

/// Acceptance bounds for [`check_overload`].
#[derive(Debug, Clone)]
pub struct OverloadBounds {
    /// Maximum relative High-tier QoE delta vs the uncontended baseline.
    pub qoe_tolerance: f64,
    /// Worker counts the double-run digest comparison covers.
    pub worker_counts: &'static [usize],
}

impl Default for OverloadBounds {
    fn default() -> Self {
        OverloadBounds { qoe_tolerance: 0.01, worker_counts: &[1, 2, 8] }
    }
}

/// The overload acceptance verdict.
#[derive(Debug, Clone)]
pub struct OverloadVerdict {
    /// Plan name.
    pub plan: String,
    /// Calibrated per-tick row budget the overloaded fleet ran under.
    pub budget_rows: u64,
    /// Measured uncontended demand (≈ 2 × `budget_rows` by construction).
    pub offered_rows: u64,
    /// Summed High-tier QoE under overload.
    pub high_qoe: f64,
    /// Summed High-tier QoE of the uncontended baseline.
    pub baseline_high_qoe: f64,
    /// High-tier QoE within tolerance of the baseline.
    pub qoe_ok: bool,
    /// Every Low conference demoted to the template baseline with media.
    pub degraded_ok: bool,
    /// Conferences shed at the end of the overloaded run.
    pub shed: usize,
    /// Join wave handled correctly: nothing admitted immediately, at
    /// least one queued, at least one rejected.
    pub admission_ok: bool,
    /// Zero auditor findings across final configurations.
    pub auditor_ok: bool,
    /// Auditor finding count.
    pub violations: usize,
    /// All runs digest-identical across worker counts and repeats.
    pub deterministic: bool,
    /// First divergence report when not deterministic.
    pub divergence: Option<String>,
}

impl OverloadVerdict {
    /// All acceptance gates hold.
    pub fn passed(&self) -> bool {
        self.qoe_ok
            && self.degraded_ok
            && self.admission_ok
            && self.auditor_ok
            && self.deterministic
    }

    /// One-line report row, shaped like [`crate::PlanVerdict::row`].
    pub fn row(&self) -> String {
        format!(
            "{:18} {} high-qoe {:>7.0} vs {:>7.0}  offered {}r/budget {}r  shed {}  \
             degraded {}  admission {}  violations {}  {}",
            self.plan,
            if self.passed() { "PASS" } else { "FAIL" },
            self.high_qoe,
            self.baseline_high_qoe,
            self.offered_rows,
            self.budget_rows,
            self.shed,
            if self.degraded_ok { "ok" } else { "STARVED" },
            if self.admission_ok { "ok" } else { "LEAKED" },
            self.violations,
            if self.deterministic { "digest-identical" } else { "DIVERGED" },
        )
    }
}

/// An n-party full-mesh conference under the given tenancy.
fn build_conference(tenancy: Tenancy, parties: u32, ssrc: u32, downlink: Bitrate) -> GsoController {
    let caps =
        CodecCapability { ladders: vec![(gso_util::StreamKind::Video, ladders::paper_table1())] };
    let mut c = GsoController::new(ControllerConfig::paper_defaults(), Ssrc(ssrc));
    for i in 1..=parties {
        c.on_join(ClientId(i), caps.clone());
    }
    for i in 1..=parties {
        let intents: Vec<SubscribeIntent> = (1..=parties)
            .filter(|j| *j != i)
            .map(|j| SubscribeIntent {
                source: SourceId::video(ClientId(j)),
                max_resolution: Resolution::R720,
                tag: 0,
            })
            .collect();
        c.on_subscriptions(ClientId(i), intents);
        c.on_uplink_report(SimTime::ZERO, ClientId(i), Bitrate::from_kbps(2_000));
        c.on_downlink_report(SimTime::ZERO, ClientId(i), downlink);
    }
    c.set_tenancy(tenancy);
    c
}

/// Acknowledge every GTMB a tick delivered or retransmitted so the §7
/// undeliverable-client path stays quiet — this scenario is about load,
/// not delivery failure.
fn ack_tick(fleet: &mut ControllerFleet, ticks: &[FleetTick]) {
    for (i, (out, retx)) in ticks.iter().enumerate() {
        let configs = out.iter().flat_map(|o| o.configs.iter());
        for (client, msg) in configs.chain(retx.iter()) {
            fleet.get_mut(i).expect("ticked conference exists").on_ack(
                *client,
                &GsoTmmbn {
                    sender_ssrc: Ssrc(9_999),
                    epoch: msg.epoch,
                    request_seq: msg.request_seq,
                    entries: vec![],
                },
            );
        }
    }
}

/// Execute the plan once. `budget_rows == 0` runs uncontended (no shedding,
/// no admission, no join wave) — that is the calibration/baseline mode.
pub fn run_overload(plan: &OverloadPlan, workers: usize, budget_rows: u64) -> OverloadOutcome {
    let telemetry = Telemetry::new(plan.name.clone());
    let mut fleet = ControllerFleet::new(&BatchConfig { workers });
    fleet.set_telemetry(telemetry.clone());
    for (i, &(tenancy, parties)) in plan.conferences.iter().enumerate() {
        fleet.push(build_conference(tenancy, parties, 100 + i as u32 * 10, plan.downlinks[i]));
    }
    if budget_rows > 0 {
        fleet.set_shed_policy(ShedPolicy {
            row_budget_per_tick: budget_rows,
            enter_ticks: 2,
            exit_ticks: 5,
            headroom: 0.25,
        });
        fleet.set_admission(AdmissionController::new(AdmissionConfig {
            row_budget: budget_rows,
            high_reserve: 0.2,
            queue_capacity: 8,
            tenant_quota: 0,
        }));
    }

    let mut trace = DigestTrace::new();
    let mut joins = (0usize, 0usize, 0usize);
    // Final-round snapshot per pre-seated conference:
    // (fallback, template baseline, received non-empty, qoe).
    let mut finals: Vec<Option<(bool, bool, bool, f64)>> = vec![None; plan.conferences.len()];
    for step in 0..plan.ticks {
        // Churn: rotate the active speaker in every conference so each
        // round invalidates the engine's whole-solve fingerprint and does
        // real DP work — a steady-state fleet re-solves from warm memos at
        // ~0 rows and would never look overloaded.
        for (i, &(_, parties)) in plan.conferences.iter().enumerate() {
            let speaker = ClientId(1 + (step % u64::from(parties)) as u32);
            fleet.get_mut(i).expect("pre-seated conference exists").on_speaker(Some(speaker));
        }
        // Mid-run join wave, one attempt per tier: by now the measured
        // ledger reflects ~2× the budget, so nothing may seat immediately.
        if budget_rows > 0 && step == plan.ticks / 2 {
            for (k, tier) in
                [PriorityClass::High, PriorityClass::Normal, PriorityClass::Low].iter().enumerate()
            {
                let tenancy = Tenancy::new(TenantId(90 + k as u32), *tier);
                let joiner =
                    build_conference(tenancy, 4, 900 + k as u32 * 10, Bitrate::from_kbps(1_800));
                match fleet.admit(joiner, budget_rows / 2) {
                    Ok(AdmissionDecision::Admitted) => joins.0 += 1,
                    Ok(AdmissionDecision::Queued { .. }) => joins.1 += 1,
                    Ok(AdmissionDecision::Rejected(_)) | Err(_) => joins.2 += 1,
                }
            }
        }
        let now = SimTime::from_millis(10 + step * 1_100);
        let out = fleet.tick_all(now);
        ack_tick(&mut fleet, &out);
        for (i, (output, _)) in out.iter().enumerate().take(finals.len()) {
            if let Some(o) = output {
                finals[i] = Some((
                    o.fallback,
                    o.solution.is_template_baseline(),
                    !o.solution.received.is_empty(),
                    o.solution.total_qoe,
                ));
            }
        }
        let fleet_digest = fleet.state_digest();
        let telemetry_digest = telemetry.export_digest();
        trace.record(DigestEntry::new(
            now.as_micros(),
            vec![("fleet".to_string(), fleet_digest), ("telemetry".to_string(), telemetry_digest)],
            format!(
                "t={}us fleet={fleet_digest:#018x} telemetry={telemetry_digest:#018x}",
                now.as_micros()
            ),
        ));
    }

    let mut high_qoe = 0.0;
    let mut low_finals = Vec::new();
    let mut violations = 0usize;
    for (i, &(tenancy, _)) in plan.conferences.iter().enumerate() {
        let last = finals[i].expect("every conference produced at least one round");
        match tenancy.priority {
            PriorityClass::High => high_qoe += last.3,
            PriorityClass::Low => low_finals.push((last.0, last.1, last.2)),
            PriorityClass::Normal => {}
        }
        let controller = &fleet.controllers()[i];
        if let (Ok(problem), Some(solution)) =
            (controller.picture.to_problem(), controller.last_solution())
        {
            violations += solution
                .violations(&problem)
                .iter()
                .filter(|v| !matches!(v, ConstraintViolation::UplinkExceeded { .. }))
                .count();
        }
    }
    let rows_per_tick = telemetry
        .histogram(keys::FLEET_TICK_ROWS, "tick")
        .map_or(0, |h| h.sum.checked_div(h.total).unwrap_or(0));
    OverloadOutcome {
        trace,
        high_qoe,
        low_finals,
        shed: fleet.shed_count(),
        rows_per_tick,
        violations,
        joins,
    }
}

/// Calibrate, overload at 2× capacity, and render the acceptance verdict.
pub fn check_overload(seed: u64, bounds: &OverloadBounds) -> OverloadVerdict {
    let plan = OverloadPlan::standard(seed);
    let baseline = run_overload(&plan, 2, 0);
    let offered = baseline.rows_per_tick;
    let budget = (offered / 2).max(1);

    let reference = run_overload(&plan, 2, budget);
    let mut divergence = None;
    for &workers in bounds.worker_counts {
        for _ in 0..2 {
            let repeat = run_overload(&plan, workers, budget);
            if divergence.is_none() {
                divergence = first_divergence(&reference.trace, &repeat.trace).map(|d| d.report());
            }
        }
    }

    let qoe_ok = baseline.high_qoe > 0.0
        && (reference.high_qoe - baseline.high_qoe).abs()
            <= bounds.qoe_tolerance * baseline.high_qoe;
    let degraded_ok = !reference.low_finals.is_empty()
        && reference
            .low_finals
            .iter()
            .all(|&(fallback, template, media)| fallback && template && media);
    let (admitted, queued, rejected) = reference.joins;
    let admission_ok = admitted == 0 && queued >= 1 && rejected >= 1;
    OverloadVerdict {
        plan: plan.name.clone(),
        budget_rows: budget,
        offered_rows: offered,
        high_qoe: reference.high_qoe,
        baseline_high_qoe: baseline.high_qoe,
        qoe_ok,
        degraded_ok,
        shed: reference.shed,
        admission_ok,
        auditor_ok: reference.violations == 0,
        violations: reference.violations,
        deterministic: divergence.is_none(),
        divergence,
    }
}
