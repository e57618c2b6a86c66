//! The problem-level scenarios the `check audit`, `metrics` and `digest`
//! replays solve.
//!
//! Each entry names a configuration built by the code users run: the
//! paper's Table 1 cases from [`gso_algo::ladders::table1_case`] and the
//! example conferences from [`gso_sim::workloads`].

use gso_algo::{ladders, Problem};
use gso_sim::workloads;

/// A named, replayable problem instance.
pub struct Scenario {
    /// Stable scenario name (shown in audit reports and telemetry labels).
    pub name: &'static str,
    /// The conference configuration to solve and audit.
    pub problem: Problem,
}

/// Every scenario the replays solve, in replay order.
pub fn all() -> Vec<Scenario> {
    vec![
        Scenario { name: "table1-case1", problem: ladders::table1_case(0) },
        Scenario { name: "table1-case2", problem: ladders::table1_case(1) },
        Scenario { name: "table1-case3", problem: ladders::table1_case(2) },
        Scenario { name: "quickstart", problem: workloads::quickstart() },
        Scenario { name: "screen-share", problem: workloads::screen_share() },
        Scenario { name: "large-conference", problem: workloads::large_conference(4, 16) },
        Scenario { name: "slow-link", problem: workloads::slow_link_picture() },
        Scenario { name: "transient-capped", problem: workloads::transient_capped() },
    ]
}

#[cfg(test)]
mod tests {
    use super::all;
    use gso_algo::audit::{audit_traced, report};
    use gso_algo::solver::{self, SolverConfig};

    #[test]
    fn clean_solutions_audit_clean() {
        let cfg = SolverConfig::default();
        for scenario in all() {
            let (solution, trace) = solver::solve_traced(&scenario.problem, &cfg);
            let violations = audit_traced(&scenario.problem, &solution, &trace);
            assert!(
                violations.is_empty(),
                "scenario {} not clean:\n{}",
                scenario.name,
                report(&violations)
            );
        }
    }
}
