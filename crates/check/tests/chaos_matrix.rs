//! Acceptance tests for the chaos harness.
//!
//! The smoke subset (controller outage + deadline overrun — the two
//! recovery paths with documented bounds) runs on every `cargo test`; the
//! full five-plan matrix is `#[ignore]`d for local/CI deep runs via
//! `cargo test -p gso-check -- --ignored`.

use gso_check::chaos::{check_plan, run_plan, Baseline, ChaosBounds, FaultPlan};
use gso_check::chaos::{standard_clients, standard_scenario};
use gso_telemetry::keys;
use gso_util::ClientId;

fn assert_plans_pass(plans: &[FaultPlan]) {
    let scenario = &standard_scenario(7);
    let bounds = ChaosBounds::default();
    let baseline = run_plan(scenario, &FaultPlan::baseline());
    let baseline = Baseline::from_outcome(&baseline, bounds.tail_window);
    assert!(baseline.qoe > 0.0, "baseline never solved");
    assert!(baseline.media_bps > 500_000.0, "baseline unhealthy: {}", baseline.media_bps);
    for plan in plans {
        let verdict = check_plan(scenario, baseline, plan, &bounds);
        assert!(
            verdict.passed(),
            "{} failed: {}\n{}",
            plan.name,
            verdict.row(),
            verdict.divergence.as_deref().unwrap_or("")
        );
    }
}

#[test]
fn smoke_matrix_passes() {
    assert_plans_pass(&FaultPlan::smoke_matrix(7));
}

#[test]
#[ignore = "full matrix is a deep run (~10 simulated minutes); CI runs the binary instead"]
fn full_matrix_passes() {
    assert_plans_pass(&FaultPlan::matrix(7, &standard_clients()));
}

/// A controller outage must actually exercise the §7 machinery: the
/// restart bumps the epoch, the recovery histogram records exactly one
/// sample, and the run is digest-stable.
#[test]
fn controller_outage_records_recovery() {
    let scenario = standard_scenario(7);
    let plan = FaultPlan::controller_outage(7);
    let outcome = run_plan(&scenario, &plan);
    let recovery = outcome.recovery.expect("restart must record recovery time");
    assert_eq!(recovery.total, 1, "one restart, one recovery sample");
    assert!(recovery.sum <= 5_000, "recovery {} ms exceeds bound", recovery.sum);
    assert_eq!(outcome.stale_dropped, 0, "the resync supersedes everything in flight");
}

/// Link chaos must actually hit the idempotency path: with 10–25%
/// duplication on the victim's access link for several seconds, at least
/// one GTMB arrives twice and is re-acked without re-application.
#[test]
fn link_chaos_exercises_idempotent_reapplication() {
    let scenario = standard_scenario(7);
    let plan = FaultPlan::link_chaos(7, ClientId(1));
    let outcome = run_plan(&scenario, &plan);
    let dup_reacked = outcome.result.telemetry.counter_total(keys::EPOCH_DUP_REACKED);
    assert!(dup_reacked >= 1, "no duplicated GTMB was re-acked (counter {dup_reacked})");
}

/// Deadline overruns must enter fallback and then leave it again.
#[test]
fn deadline_overrun_enters_and_exits_fallback() {
    let scenario = standard_scenario(7);
    let plan = FaultPlan::deadline_overrun(7);
    let outcome = run_plan(&scenario, &plan);
    assert!(outcome.fallback_entered >= 1, "watchdog never entered fallback");
    assert_eq!(
        outcome.fallback_entered, outcome.fallback_exited,
        "fallback entered {} times but exited {}",
        outcome.fallback_entered, outcome.fallback_exited
    );
}
