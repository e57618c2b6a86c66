//! Tick-stepped fault-plan execution and verdicts.
//!
//! [`run_plan`] builds a [`Scenario`] onto the deterministic packet
//! simulator and steps it with [`WiredConference::run_traced`], applying
//! each due [`FaultEvent`] at the enclosing tick boundary; the stepper
//! records a per-tick [`DigestTrace`] over the network simulator, the
//! controllers and the telemetry registry. [`check_plan`] runs a plan
//! *twice*, then renders the §7 acceptance verdict: steady-state QoE
//! within tolerance of the no-fault baseline, bounded recovery time for
//! every controller restart, zero auditor violations in the final
//! configuration, digest-identical double runs, and no controller message
//! dropped for a stale epoch.

use super::plan::{FaultEvent, FaultKind, FaultPlan, LinkFault, LinkSide};
use gso_algo::ConstraintViolation;
use gso_net::{LinkConfig, NodeId, Schedule};
use gso_sim::access::AccessNode;
use gso_sim::conference::ConferenceNode;
use gso_sim::{ClientNode, Scenario, ScenarioResult, WiredConference};
use gso_telemetry::{keys, HistogramSnapshot};
use gso_util::digest::{first_divergence, DigestTrace};
use gso_util::{ClientId, SimDuration, SimTime};
use std::collections::BTreeMap;

/// Acceptance bounds for [`check_plan`].
#[derive(Debug, Clone)]
pub struct ChaosBounds {
    /// Maximum relative steady-state QoE delta vs the no-fault baseline.
    /// QoE here is the controller's converged objective value
    /// ([`gso_algo::Solution::total_qoe`]): after recovery the controller
    /// must orchestrate back to (within 1% of) the no-fault configuration.
    pub qoe_tolerance: f64,
    /// Minimum faulted-run tail throughput as a fraction of the baseline's.
    /// Wire-level rates breathe with BWE probe phase (several percent), so
    /// this is a media-keeps-flowing floor, not an equality check.
    pub media_floor: f64,
    /// Maximum controller recovery time (restart → first full solve).
    pub recovery_ms: u64,
    /// Tail window over which steady-state throughput is measured.
    pub tail_window: SimDuration,
}

impl Default for ChaosBounds {
    fn default() -> Self {
        ChaosBounds {
            qoe_tolerance: 0.01,
            media_floor: 0.85,
            recovery_ms: 5_000,
            tail_window: SimDuration::from_secs(5),
        }
    }
}

/// Everything one plan execution produces.
pub struct ChaosOutcome {
    /// Harvested scenario metrics (QoE, rate series, telemetry handle).
    pub result: ScenarioResult,
    /// Per-tick state digests for the double-run comparison.
    pub trace: DigestTrace,
    /// §4.1 constraint violations of the last solution against the final
    /// picture (uplink budgets excluded: the §7 fallback ignores them).
    pub violations: Vec<ConstraintViolation>,
    /// Objective value of the controller's final solution (Σ received QoE).
    pub solution_qoe: f64,
    /// Recovery-time histogram for controller restarts, if any.
    pub recovery: Option<HistogramSnapshot>,
    /// `fallback.entered` / `fallback.exited` counter totals.
    pub fallback_entered: u64,
    /// See [`ChaosOutcome::fallback_entered`].
    pub fallback_exited: u64,
    /// `epoch.stale_rejected` counter total.
    pub stale_rejected: u64,
    /// Controller messages the accessing nodes dropped for a stale epoch
    /// ([`AccessNode::stale_dropped`], summed).
    pub stale_dropped: u64,
}

/// Execute one plan against the scenario, stepping the simulator in 100 ms
/// ticks and applying due fault events at tick boundaries.
pub fn run_plan(scenario: &Scenario, plan: &FaultPlan) -> ChaosOutcome {
    let mut wired = scenario.build();
    let originals = snapshot_links(scenario, &mut wired);
    let end = SimTime::ZERO + scenario.duration;
    let mut idx = 0;
    let (wired, trace) = wired.run_traced(end, |wired, t| {
        while idx < plan.events.len() && plan.events[idx].at <= t {
            apply(wired, scenario, &originals, &plan.events[idx]);
            idx += 1;
        }
    });
    let violations = audit_final(&wired);
    let solution_qoe = wired
        .sim
        .node::<ConferenceNode>(wired.cn)
        .and_then(|c| c.controller.last_solution())
        .map_or(0.0, |s| s.total_qoe);
    let recovery = wired.telemetry.histogram(keys::CTRL_RECOVERY_TIME_MS, "restart");
    let fallback_entered = wired.telemetry.counter_total(keys::CTRL_FALLBACK_ENTERED);
    let fallback_exited = wired.telemetry.counter_total(keys::CTRL_FALLBACK_EXITED);
    let stale_rejected = wired.telemetry.counter_total(keys::EPOCH_STALE_REJECTED);
    let stale_dropped = wired
        .ans
        .iter()
        .filter_map(|&an| wired.sim.node::<AccessNode>(an))
        .map(AccessNode::stale_dropped)
        .sum();
    let result = scenario.harvest(wired, end);
    ChaosOutcome {
        result,
        trace,
        violations,
        solution_qoe,
        recovery,
        fallback_entered,
        fallback_exited,
        stale_rejected,
        stale_dropped,
    }
}

/// Steady-state QoE: mean received media rate over the tail window,
/// averaged over clients. After recovery every run must converge back to
/// the same orchestrated configuration, so this is directly comparable
/// between a faulted run and the no-fault baseline.
pub fn steady_state_qoe(result: &ScenarioResult, tail: SimDuration) -> f64 {
    let from = result.end.checked_sub(tail).unwrap_or(SimTime::ZERO);
    let rates: Vec<f64> = result
        .recv_series
        .values()
        .filter_map(|series| series.window_mean(from, result.end))
        .collect();
    if rates.is_empty() {
        0.0
    } else {
        rates.iter().sum::<f64>() / rates.len() as f64
    }
}

/// The no-fault reference a faulted run is judged against.
#[derive(Debug, Clone, Copy)]
pub struct Baseline {
    /// Converged orchestration objective (Σ received QoE).
    pub qoe: f64,
    /// Mean tail-window received rate over clients (bps).
    // lint: allow(unit-hygiene, reason = "measured mean throughput, inherently fractional; the Bitrate newtype is for configured stream rates")
    pub media_bps: f64,
}

impl Baseline {
    /// Measure the baseline from a no-fault [`run_plan`] outcome.
    pub fn from_outcome(outcome: &ChaosOutcome, tail: SimDuration) -> Self {
        Baseline { qoe: outcome.solution_qoe, media_bps: steady_state_qoe(&outcome.result, tail) }
    }
}

/// The per-plan acceptance verdict.
#[derive(Debug, Clone)]
pub struct PlanVerdict {
    /// Plan name.
    pub plan: String,
    /// Converged orchestration objective of the faulted run.
    pub qoe: f64,
    /// Converged orchestration objective of the no-fault baseline.
    pub baseline_qoe: f64,
    /// QoE within [`ChaosBounds::qoe_tolerance`] of the baseline.
    pub qoe_ok: bool,
    /// Tail-window received rate of the faulted run (bps).
    // lint: allow(unit-hygiene, reason = "measured mean throughput, inherently fractional; the Bitrate newtype is for configured stream rates")
    pub media_bps: f64,
    /// Tail throughput at or above [`ChaosBounds::media_floor`] × baseline.
    pub media_ok: bool,
    /// Final configuration is auditor-clean.
    pub auditor_ok: bool,
    /// Number of auditor findings (0 when `auditor_ok`).
    pub violations: usize,
    /// Every controller restart recovered within the bound.
    pub recovery_ok: bool,
    /// Mean recovery time in ms over the plan's restarts (0 if none).
    pub recovery_mean_ms: u64,
    /// Controller messages dropped for a stale epoch in the faulted run;
    /// must be 0 (a restart's resync supersedes everything in flight).
    pub stale_dropped: u64,
    /// Both executions produced identical digest traces.
    pub deterministic: bool,
    /// First divergence report when not deterministic.
    pub divergence: Option<String>,
}

impl PlanVerdict {
    /// All acceptance checks hold.
    pub fn passed(&self) -> bool {
        self.qoe_ok
            && self.media_ok
            && self.auditor_ok
            && self.recovery_ok
            && self.stale_dropped == 0
            && self.deterministic
    }

    /// One-line report row; a nonzero stale-drop count is appended.
    pub fn row(&self) -> String {
        let mut row = format!(
            "{:20} {} qoe {:>7.0} vs {:>7.0} ({:+.2}%)  media {:>8.0} bps ({})  violations {}  \
             recovery {} ({} ms)  {}",
            self.plan,
            if self.passed() { "PASS" } else { "FAIL" },
            self.qoe,
            self.baseline_qoe,
            if self.baseline_qoe > 0.0 {
                (self.qoe - self.baseline_qoe) / self.baseline_qoe * 100.0
            } else {
                0.0
            },
            self.media_bps,
            if self.media_ok { "ok" } else { "LOW" },
            self.violations,
            if self.recovery_ok { "ok" } else { "LATE" },
            self.recovery_mean_ms,
            if self.deterministic { "digest-identical" } else { "DIVERGED" },
        );
        if self.stale_dropped > 0 {
            row.push_str(&format!("  STALE-DROPPED {}", self.stale_dropped));
        }
        row
    }
}

/// Run `plan` twice against `scenario` and render the acceptance verdict
/// against the given no-fault baseline.
pub fn check_plan(
    scenario: &Scenario,
    baseline: Baseline,
    plan: &FaultPlan,
    bounds: &ChaosBounds,
) -> PlanVerdict {
    let a = run_plan(scenario, plan);
    let b = run_plan(scenario, plan);
    let divergence = first_divergence(&a.trace, &b.trace).map(|d| d.report());
    let qoe = a.solution_qoe;
    let qoe_ok =
        baseline.qoe > 0.0 && (qoe - baseline.qoe).abs() <= bounds.qoe_tolerance * baseline.qoe;
    let media_bps = steady_state_qoe(&a.result, bounds.tail_window);
    let media_ok = media_bps >= bounds.media_floor * baseline.media_bps;
    let (recovery_ok, recovery_mean_ms) =
        recovery_verdict(a.recovery.as_ref(), plan.restarts(), bounds.recovery_ms);
    PlanVerdict {
        plan: plan.name.clone(),
        qoe,
        baseline_qoe: baseline.qoe,
        qoe_ok,
        media_bps,
        media_ok,
        auditor_ok: a.violations.is_empty(),
        violations: a.violations.len(),
        recovery_ok,
        recovery_mean_ms,
        stale_dropped: a.stale_dropped,
        deterministic: divergence.is_none(),
        divergence,
    }
}

/// Every one of the `expected` restarts must have closed a recovery
/// window, and every sample must sit in a histogram bucket at or below
/// `bound_ms`; returns `(ok, mean_ms)`.
fn recovery_verdict(
    histogram: Option<&HistogramSnapshot>,
    expected: u64,
    bound_ms: u64,
) -> (bool, u64) {
    if expected == 0 {
        return (histogram.is_none(), 0);
    }
    let Some(h) = histogram else { return (false, 0) };
    let mean = h.sum.checked_div(h.total).unwrap_or(0);
    if h.total != expected {
        return (false, mean);
    }
    let mut within = 0;
    for (i, &count) in h.counts.iter().enumerate() {
        if h.bounds.get(i).is_some_and(|&b| b <= bound_ms) {
            within += count;
        }
    }
    (within == h.total, mean)
}

/// Check the controller's last solution against its final picture. Uplink
/// budget findings are excluded: the §7 single-stream fallback (which may
/// be the last output if a plan ends inside a degraded window) keeps
/// publishers sending their smallest stream even when a stale uplink
/// estimate says otherwise.
fn audit_final(wired: &WiredConference) -> Vec<ConstraintViolation> {
    let Some(cn) = wired.sim.node::<ConferenceNode>(wired.cn) else { return Vec::new() };
    let Ok(problem) = cn.controller.picture.to_problem() else { return Vec::new() };
    let Some(solution) = cn.controller.last_solution() else { return Vec::new() };
    let mut violations = solution.violations(&problem);
    violations.retain(|v| !matches!(v, ConstraintViolation::UplinkExceeded { .. }));
    violations
}

/// Clone the scenario-declared config of every client access link so
/// [`LinkFault::Restore`] and [`LinkFault::ExtraDelay`] have a reference.
fn snapshot_links(
    scenario: &Scenario,
    wired: &mut WiredConference,
) -> BTreeMap<(NodeId, NodeId), LinkConfig> {
    let mut originals = BTreeMap::new();
    let pairs: Vec<(NodeId, NodeId)> = wired
        .endpoints
        .iter()
        .filter_map(|(&client, &ep)| Some((ep, access_node_of(scenario, wired, client)?)))
        .flat_map(|(ep, an)| [(ep, an), (an, ep)])
        .collect();
    for (from, to) in pairs {
        if let Some(cfg) = wired.sim.link_config_mut(from, to) {
            originals.insert((from, to), cfg.clone());
        }
    }
    originals
}

fn access_node_of(
    scenario: &Scenario,
    wired: &WiredConference,
    client: ClientId,
) -> Option<NodeId> {
    let c = scenario.clients.iter().find(|c| c.id == client)?;
    wired.ans.get(c.region.min(wired.ans.len().saturating_sub(1))).copied()
}

fn apply(
    wired: &mut WiredConference,
    scenario: &Scenario,
    originals: &BTreeMap<(NodeId, NodeId), LinkConfig>,
    event: &FaultEvent,
) {
    match &event.kind {
        FaultKind::CtrlCrash => {
            let now = wired.sim.now();
            if let Some(cn) = wired.sim.node_mut::<ConferenceNode>(wired.cn) {
                cn.crash(now);
            }
        }
        FaultKind::CtrlRestart => {
            wired.sim.with_node_actions(wired.cn, |node, now, out| {
                if let Some(cn) = node.as_any_mut().downcast_mut::<ConferenceNode>() {
                    cn.restart(now, out);
                }
            });
        }
        FaultKind::ClientCrash(client) => {
            if let Some(&ep) = wired.endpoints.get(client) {
                if let Some(node) = wired.sim.node_mut::<ClientNode>(ep) {
                    node.crash();
                }
            }
        }
        FaultKind::ClientRejoin(client) => {
            if let Some(&ep) = wired.endpoints.get(client) {
                wired.sim.with_node_actions(ep, |node, now, out| {
                    if let Some(c) = node.as_any_mut().downcast_mut::<ClientNode>() {
                        c.rejoin(now, out);
                    }
                });
            }
        }
        FaultKind::SembBlackout(client, on) => {
            if let Some(&ep) = wired.endpoints.get(client) {
                if let Some(node) = wired.sim.node_mut::<ClientNode>(ep) {
                    node.set_semb_blackout(*on);
                }
            }
        }
        FaultKind::ReportBlackout(region, on) => {
            if let Some(&an) = wired.ans.get(*region) {
                if let Some(node) = wired.sim.node_mut::<AccessNode>(an) {
                    node.set_report_blackout(*on);
                }
            }
        }
        FaultKind::DeadlineOverrun(rounds) => {
            if let Some(cn) = wired.sim.node_mut::<ConferenceNode>(wired.cn) {
                cn.controller.inject_deadline_overrun(*rounds);
            }
        }
        FaultKind::Link { client, side, fault } => {
            let Some(&ep) = wired.endpoints.get(client) else { return };
            let Some(an) = access_node_of(scenario, wired, *client) else { return };
            let (from, to) = match side {
                LinkSide::Up => (ep, an),
                LinkSide::Down => (an, ep),
            };
            let Some(base) = originals.get(&(from, to)) else { return };
            let Some(cfg) = wired.sim.link_config_mut(from, to) else { return };
            match fault {
                LinkFault::Loss(p) => cfg.loss = Schedule::constant(*p),
                LinkFault::Duplicate(p) => cfg.duplicate = Schedule::constant(*p),
                LinkFault::Reorder(jitter) => {
                    cfg.allow_reorder = true;
                    cfg.jitter = Schedule::constant(*jitter);
                }
                LinkFault::ExtraDelay(extra) => cfg.delay = base.delay + *extra,
                LinkFault::Restore => *cfg = base.clone(),
            }
        }
    }
}
