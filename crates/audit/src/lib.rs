//! The solver's CI gate: a corpus of replayable scenarios and the `audit`
//! binary that solves and audits them.
//!
//! The checks themselves live next to the code they check. The §4.1
//! constraint families are [`Solution::violations`](gso_algo::Solution::violations)
//! and the solver postconditions (QoE accounting, the convergence bound,
//! the all-lowest-rung floor, and the trace-backed Eq. 12 merge-minimum
//! and Eq. 18–20 whole-resolution checks) are [`gso_algo::audit`]. The
//! forwarding-rule cross-check is `gso_control::feedback::check_forwarding`.
//!
//! The `audit` binary (`cargo run -p gso-audit --bin audit`) replays the
//! shipped example configurations and the paper's Table 1 cases through
//! [`gso_algo::audit::audit_traced`] and exits nonzero on any violation.
//! The integration tests cross-check the solver against the exact
//! baseline (`solver_vs_brute`) and every engine reuse path against the
//! sequential solver (`engine_equivalence`), auditing both sides.

pub mod scenarios;

#[cfg(test)]
mod tests {
    use super::scenarios;
    use gso_algo::audit::{audit_traced, report};
    use gso_algo::solver::{self, SolverConfig};

    #[test]
    fn clean_solutions_audit_clean() {
        let cfg = SolverConfig::default();
        for scenario in scenarios::all() {
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
