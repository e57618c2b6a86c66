//! Deterministic chaos harness for the GSO-Simulcast stack.
//!
//! Reproduces the paper's §7 "design for failure" claims as executable
//! checks. A seed-driven [`FaultPlan`] — controller outages and restarts,
//! GTMB/SEMB drop·dup·reorder·delay windows, client crash/rejoin storms,
//! BWE feedback blackouts, solver-deadline overruns — is executed
//! tick-by-tick against a [`gso_sim::Scenario`] by [`run_plan`], and
//! [`check_plan`] renders the acceptance verdict per plan:
//!
//! * post-fault steady-state QoE within tolerance of the no-fault
//!   baseline (recovery without lasting degradation),
//! * bounded recovery time for every controller restart
//!   (`recovery.time_ms`),
//! * an auditor-clean final configuration (constraint families of
//!   Eq. 1–13; uplink budgets excluded for the §7 fallback), and
//! * digest-identical double runs ([`gso_util::digest::first_divergence`]),
//!   and
//! * no controller message dropped at an accessing node for a stale
//!   epoch (every restart's resync supersedes what was in flight).
//!
//! [`run_matrix`], behind `check chaos`, replays the full matrix
//! (`--smoke` for the CI subset) and fails on any failed verdict.

pub mod plan;
pub mod runner;

pub use plan::{FaultEvent, FaultKind, FaultPlan, LinkFault, LinkSide};
pub use runner::{
    audit_final, check_plan, run_plan, steady_state_qoe, Baseline, ChaosOutcome, PlanVerdict,
};

use gso_sim::workloads::clean_mesh;
use gso_sim::{PolicyMode, Scenario};
use gso_util::{Bitrate, ClientId, SimDuration};
use std::process::ExitCode;

/// The reference conference every chaos plan runs against: three clients
/// on clean 6/10 Mbps links, everyone subscribed to everyone at 720p, GSO
/// orchestration, 30 s. Links have headroom over the full ladders so the
/// no-fault objective is stable at its maximum — any post-fault deficit is
/// then attributable to the fault, not to BWE breathing across a rung
/// boundary. Faults land in the 8–16 s window (see [`plan`]), leaving the
/// final [`runner::TAIL_WINDOW`] for steady-state comparison.
pub fn standard_scenario(seed: u64) -> Scenario {
    clean_mesh(
        PolicyMode::Gso,
        3,
        Bitrate::from_mbps(6),
        Bitrate::from_mbps(10),
        SimDuration::from_secs(30),
        seed,
    )
}

/// The client ids of [`standard_scenario`].
pub fn standard_clients() -> Vec<ClientId> {
    (1..=3).map(ClientId).collect()
}

/// `check chaos`: replay the fault-plan matrix against the reference
/// conference.
///
/// Each plan is run twice (digest-identical double runs) and judged
/// against the §7 acceptance criteria: steady-state QoE within 1% of the
/// no-fault baseline, every controller restart recovered within the
/// documented bound, and an auditor-clean final configuration. Fails if
/// any plan fails.
///
/// `smoke` runs the reduced CI subset: controller outage + deadline
/// overrun. Otherwise it replays the full five-plan matrix.
pub fn run_matrix(smoke: bool, seed: u64) -> ExitCode {
    let scenario = standard_scenario(seed);
    let clients = standard_clients();
    let plans =
        if smoke { FaultPlan::smoke_matrix(seed) } else { FaultPlan::matrix(seed, &clients) };

    println!(
        "chaos matrix: seed {seed}, {} plan(s), qoe tolerance {:.1}%, recovery bound {} ms",
        plans.len(),
        runner::QOE_TOLERANCE * 100.0,
        runner::RECOVERY_MS
    );
    let baseline = run_plan(&scenario, &FaultPlan::baseline());
    let baseline = Baseline::from_outcome(&baseline);
    println!(
        "baseline: orchestrated qoe {:.0}, tail media {:.0} bps",
        baseline.qoe, baseline.media_bps
    );
    let mut failed = 0;
    for plan in &plans {
        let verdict = check_plan(&scenario, baseline, plan);
        println!("{}", verdict.row());
        if let Some(report) = &verdict.divergence {
            println!("{report}");
        }
        if !verdict.passed() {
            failed += 1;
        }
    }
    if failed > 0 {
        println!("{failed} plan(s) FAILED");
        ExitCode::FAILURE
    } else {
        println!("all plans passed");
        ExitCode::SUCCESS
    }
}
