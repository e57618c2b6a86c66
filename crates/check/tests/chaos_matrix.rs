//! Acceptance tests for the chaos harness.
//!
//! The smoke subset (controller outage + deadline overrun — the two
//! recovery paths with documented bounds) runs on every `cargo test`; the
//! full five-plan matrix is `#[ignore]`d for local/CI deep runs via
//! `cargo test -p gso-check -- --ignored`.

use gso_check::chaos::{audit_final, check_plan, run_plan, Baseline, FaultPlan};
use gso_check::chaos::{standard_clients, standard_scenario};
use gso_sim::access::AccessNode;
use gso_sim::conference::ConferenceNode;
use gso_telemetry::keys;
use gso_util::{ClientId, SimDuration, SimTime};

fn assert_plans_pass(plans: &[FaultPlan]) {
    let scenario = &standard_scenario(7);
    let baseline = run_plan(scenario, &FaultPlan::baseline());
    let baseline = Baseline::from_outcome(&baseline);
    assert!(baseline.qoe > 0.0, "baseline never solved");
    assert!(baseline.media_bps > 500_000.0, "baseline unhealthy: {}", baseline.media_bps);
    for plan in plans {
        let verdict = check_plan(scenario, baseline, plan);
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

/// Controller traffic sent before a crash and delivered after the
/// restart's resync carries the old epoch: the access node drops it
/// instead of letting it overwrite the restarted controller's state. The
/// CN → AN backbone slows to 6 s, reordering as on a route change, 3.5 s
/// before the crash and recovers at the restart, so everything the old
/// controller sent in that window lands after the new one's resync.
#[test]
fn pre_crash_control_traffic_is_dropped_after_the_resync() {
    let scenario = standard_scenario(7);
    let wired = scenario.build();
    let (cn, an) = (wired.cn, wired.ans[0]);
    let slow = SimTime::from_millis(6_000);
    let crash = SimTime::from_millis(9_500);
    let restart = SimTime::from_millis(10_500);
    let mut original = None;
    let (wired, _) = wired.run_traced(SimTime::ZERO + scenario.duration, |w, t| {
        let link = w.sim.link_config_mut(cn, an).expect("CN → AN backbone link");
        if t == slow {
            original = Some(link.clone());
            link.delay = SimDuration::from_secs(6);
            link.allow_reorder = true;
        } else if t == crash {
            w.sim.node_mut::<ConferenceNode>(cn).expect("conference node").crash(t);
        } else if t == restart {
            *link = original.take().expect("the backbone slowed before the restart");
            w.sim.with_node_actions(cn, |node, now, out| {
                let cn = node.as_any_mut().downcast_mut::<ConferenceNode>();
                cn.expect("conference node").restart(now, out);
            });
        }
    });
    let dropped = wired.sim.node::<AccessNode>(an).expect("access node").stale_dropped();
    assert!(dropped > 0, "no pre-crash message was dropped after the resync");
    let violations = audit_final(&wired);
    assert!(violations.is_empty(), "final configuration: {violations:?}");
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
