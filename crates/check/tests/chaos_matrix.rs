//! Acceptance tests for the chaos harness.
//!
//! The smoke subset (controller outage + deadline overrun — the two
//! recovery paths with documented bounds) runs on every `cargo test`; the
//! full five-plan matrix is `#[ignore]`d for local/CI deep runs via
//! `cargo test -p gso-check -- --ignored`.

use gso_check::chaos::{check_plan, failover_scenario, run_plan, Baseline, ChaosBounds, FaultPlan};
use gso_check::chaos::{standard_clients, standard_scenario};
use gso_sim::Scenario;
use gso_telemetry::keys;
use gso_util::ClientId;

fn assert_plans_pass_on(scenario: &Scenario, plans: &[FaultPlan]) {
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

fn assert_plans_pass(plans: &[FaultPlan]) {
    assert_plans_pass_on(&standard_scenario(7), plans);
}

#[test]
fn smoke_matrix_passes() {
    assert_plans_pass(&FaultPlan::smoke_matrix(7));
}

#[test]
fn failover_smoke_passes() {
    assert_plans_pass_on(&failover_scenario(7), &FaultPlan::failover_smoke(7));
}

#[test]
#[ignore = "full matrix is a deep run (~10 simulated minutes); CI runs the binary instead"]
fn full_matrix_passes() {
    assert_plans_pass(&FaultPlan::matrix(7, &standard_clients()));
}

#[test]
#[ignore = "full failover matrix is a deep run; CI runs the binary instead"]
fn full_failover_matrix_passes() {
    assert_plans_pass_on(
        &failover_scenario(7),
        &FaultPlan::failover_matrix(7, &standard_clients()),
    );
}

/// A shard crash must exercise the takeover machinery end to end: exactly
/// one promotion, a takeover window inside the §7 bound, and — with no
/// zombie writing — zero fenced writes.
#[test]
fn shard_crash_records_takeover() {
    let scenario = failover_scenario(7);
    let plan = FaultPlan::shard_crash(7);
    let outcome = run_plan(&scenario, &plan);
    assert_eq!(outcome.promotions, 1, "standby must promote exactly once");
    let takeover = outcome.takeover.expect("promotion must record takeover time");
    assert_eq!(takeover.total, 1, "one promotion, one takeover sample");
    assert!(takeover.sum <= 5_000, "takeover {} ms exceeds bound", takeover.sum);
    assert_eq!(outcome.fenced, 0, "a dead shard writes nothing to fence");
}

/// A symmetric partition must produce a fenced zombie: the old shard keeps
/// writing on its island, the promoted standby captures the access layer,
/// and after the heal the zombie's stale-epoch writes are rejected and the
/// Fence replies make it step down.
#[test]
fn split_brain_fences_zombie() {
    let scenario = failover_scenario(7);
    let plan = FaultPlan::split_brain(7);
    let outcome = run_plan(&scenario, &plan);
    assert_eq!(outcome.promotions, 1, "standby must promote exactly once");
    assert!(outcome.fenced >= 1, "the healed zombie's writes must be fenced");
    assert!(outcome.stepdowns >= 1, "the fenced zombie must step down");
}

/// Sub-lease heartbeat-loss windows must not promote; only the final
/// lease-outlasting window may, exactly once.
#[test]
fn heartbeat_flapping_promotes_exactly_once() {
    let scenario = failover_scenario(7);
    let plan = FaultPlan::heartbeat_flapping(7);
    let outcome = run_plan(&scenario, &plan);
    assert_eq!(outcome.promotions, 1, "flapping must cause exactly one promotion");
    assert!(outcome.fenced >= 1, "the still-alive old shard must be fenced");
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

/// Deadline overruns must enter fallback and then re-promote.
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
