//! Solver postconditions: the checks a returned [`Solution`] must pass on
//! top of the §4.1 constraint families.
//!
//! The constraint families themselves — per-client uplink (Eq. 14) and
//! downlink (Eq. 1–4) budgets, the codec rule of at most one stream per
//! resolution per source, and the subscription rules — have one checker,
//! [`Solution::violations`]. This module reports those findings next to
//! the invariants a CI gate and the controller's debug-build trust
//! boundary need on top, with enough structure to point at the paper
//! equation that was violated:
//!
//! * [`audit`] — the constraint violations plus the solver invariants
//!   still checkable from `(Problem, Solution)` alone: QoE accounting
//!   (`total_qoe` = Σ received, per-stream QoE = ladder QoE × boost +
//!   presence), the convergence bound `iterations ≤ 1 + Σ |resolutions|`,
//!   and the quality floor `total_qoe ≥` the all-lowest-rung
//!   [`baseline_qoe`].
//! * [`audit_traced`] — given the [`SolveTrace`] from
//!   [`solve_traced`](crate::solver::solve_traced), additionally verifies
//!   the invariants that need solver-internal evidence: the Merge step
//!   picked the per-resolution *minimum* of the Step-1 requests (Eq. 12),
//!   and every Reduction removed a *whole* resolution (Eq. 18–20).

use crate::problem::{Problem, SourceId};
use crate::solution::{ConstraintViolation, Solution};
use crate::solver::SolveTrace;
use crate::types::Resolution;
use gso_util::{Bitrate, ClientId};
use std::collections::BTreeMap;
use std::fmt;

/// Absolute tolerance for QoE comparisons (floating-point sums).
pub const QOE_TOLERANCE: f64 = 1e-6;

/// Everything the audit can find wrong, with the identities and the
/// budgeted-versus-actual values needed to act on the finding.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A §4.1 constraint family is violated; found by
    /// [`Solution::violations`].
    Constraint(ConstraintViolation),
    /// Declared QoE does not match the QoE recomputed from the problem's
    /// ladders, boosts and presence bonuses.
    QoeMismatch {
        /// What the solution claims.
        declared: f64,
        /// What the problem data implies.
        computed: f64,
    },
    /// The solver ran more iterations than the convergence argument allows.
    IterationBoundExceeded {
        /// Iterations the solution reports.
        actual: usize,
        /// The bound `1 + Σ_sources |resolutions|`.
        budgeted: usize,
    },
    /// Total QoE fell below the trivial all-lowest-rung assignment — the
    /// solution starves subscribers a greedy baseline would have served.
    QoeBelowBaseline {
        /// QoE the solution achieves.
        actual: f64,
        /// QoE of the all-lowest-rung baseline.
        baseline: f64,
    },
    /// The Merge step must publish the per-resolution *minimum* of the
    /// Step-1 requests (Eq. 12); the final bitrate may sit below it only
    /// after a recorded uplink repair.
    MergeNotMinimum {
        /// The publishing source.
        source: SourceId,
        /// The resolution whose merge went wrong.
        resolution: Resolution,
        /// Bitrate actually published.
        actual: Bitrate,
        /// Minimum of the recorded requests at this resolution.
        budgeted: Bitrate,
    },
    /// A Reduction left ladder entries behind at the removed resolution;
    /// Eq. 18–20 remove whole resolutions only.
    ReductionRemovedPartialResolution {
        /// The reduced source.
        source: SourceId,
        /// The resolution that was reduced.
        resolution: Resolution,
        /// Entries still present at that resolution afterwards.
        remaining: usize,
    },
    /// A published stream has no record in the solver trace's terminal
    /// iteration.
    PolicyNotInTrace {
        /// The publishing source.
        source: SourceId,
        /// The unrecorded resolution.
        resolution: Resolution,
    },
    /// The solution's iteration count disagrees with the trace.
    IterationCountMismatch {
        /// Iterations the solution reports.
        declared: usize,
        /// Iterations the trace recorded.
        traced: usize,
    },
}

impl Violation {
    /// The paper equation (or section) this finding violates.
    pub fn equation(&self) -> &'static str {
        match self {
            Violation::Constraint(c) => c.equation(),
            Violation::QoeMismatch { .. } | Violation::QoeBelowBaseline { .. } => {
                "Eq. 1 (objective)"
            }
            Violation::IterationBoundExceeded { .. } | Violation::IterationCountMismatch { .. } => {
                "§4.1 convergence bound"
            }
            Violation::MergeNotMinimum { .. } | Violation::PolicyNotInTrace { .. } => "Eq. 12",
            Violation::ReductionRemovedPartialResolution { .. } => "Eq. 18–20",
        }
    }

    /// Short machine-friendly name of the violation kind.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Violation::Constraint(c) => c.kind_name(),
            Violation::QoeMismatch { .. } => "qoe-mismatch",
            Violation::IterationBoundExceeded { .. } => "iteration-bound-exceeded",
            Violation::QoeBelowBaseline { .. } => "qoe-below-baseline",
            Violation::MergeNotMinimum { .. } => "merge-not-minimum",
            Violation::ReductionRemovedPartialResolution { .. } => "reduction-partial-resolution",
            Violation::PolicyNotInTrace { .. } => "policy-not-in-trace",
            Violation::IterationCountMismatch { .. } => "iteration-count-mismatch",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} | {}] ", self.kind_name(), self.equation())?;
        match self {
            Violation::Constraint(c) => write!(f, "{c}"),
            Violation::QoeMismatch { declared, computed } => {
                write!(f, "declared QoE {declared:.3} but problem data implies {computed:.3}")
            }
            Violation::IterationBoundExceeded { actual, budgeted } => {
                write!(f, "{actual} iterations, convergence bound {budgeted}")
            }
            Violation::QoeBelowBaseline { actual, baseline } => {
                write!(f, "QoE {actual:.3} below all-lowest-rung baseline {baseline:.3}")
            }
            Violation::MergeNotMinimum { source, resolution, actual, budgeted } => {
                write!(
                    f,
                    "{source} publishes {actual} at {resolution}, merge minimum is {budgeted}"
                )
            }
            Violation::ReductionRemovedPartialResolution { source, resolution, remaining } => {
                write!(f, "reduction left {remaining} entries at {resolution} of {source}")
            }
            Violation::PolicyNotInTrace { source, resolution } => {
                write!(f, "{source} publishes at {resolution} with no trace record")
            }
            Violation::IterationCountMismatch { declared, traced } => {
                write!(f, "solution reports {declared} iterations, trace recorded {traced}")
            }
        }
    }
}

/// Join findings into a line-per-violation report (for panics and CLI).
pub fn report<V: fmt::Display>(violations: &[V]) -> String {
    violations.iter().map(|v| format!("  - {v}\n")).collect()
}

/// Full static audit: every [`Solution::violations`] finding plus the
/// solver invariants checkable from `(Problem, Solution)` alone.
pub fn audit(problem: &Problem, solution: &Solution) -> Vec<Violation> {
    let mut out: Vec<Violation> =
        solution.violations(problem).into_iter().map(Violation::Constraint).collect();
    check_qoe_accounting(problem, solution, &mut out);
    check_iteration_bound(problem, solution, &mut out);
    check_qoe_floor(problem, solution, &mut out);
    out
}

/// Full audit plus the trace-backed solver invariants: merge-minimum
/// (Eq. 12) and whole-resolution reduction (Eq. 18–20).
pub fn audit_traced(problem: &Problem, solution: &Solution, trace: &SolveTrace) -> Vec<Violation> {
    let mut out = audit(problem, solution);
    check_trace(solution, trace, &mut out);
    out
}

// ---- solver invariants (solution-only) -----------------------------------

fn check_qoe_accounting(problem: &Problem, solution: &Solution, out: &mut Vec<Violation>) {
    // Recompute the objective from the problem's data. Streams whose
    // bitrate has no ladder entry were already reported by the codec
    // check; credit them their declared QoE to avoid double reporting.
    let mut computed = 0.0;
    for (&sub, streams) in &solution.received {
        for r in streams {
            let expected = problem
                .source(r.source)
                .and_then(|s| s.ladder.spec_for_bitrate(r.bitrate))
                .and_then(|spec| {
                    problem
                        .subscriptions_of(sub)
                        .into_iter()
                        .find(|s| s.source == r.source && s.tag == r.tag)
                        .map(|s| spec.qoe * s.qoe_boost + s.presence_bonus)
                });
            computed += expected.unwrap_or(r.qoe);
        }
    }
    if (computed - solution.total_qoe).abs() > QOE_TOLERANCE {
        out.push(Violation::QoeMismatch { declared: solution.total_qoe, computed });
    }
}

fn check_iteration_bound(problem: &Problem, solution: &Solution, out: &mut Vec<Violation>) {
    let bound = 1 + problem.sources().iter().map(|s| s.ladder.resolutions().len()).sum::<usize>();
    if solution.iterations > bound {
        out.push(Violation::IterationBoundExceeded {
            actual: solution.iterations,
            budgeted: bound,
        });
    }
}

fn check_qoe_floor(problem: &Problem, solution: &Solution, out: &mut Vec<Violation>) {
    let baseline = baseline_qoe(problem);
    if solution.total_qoe + QOE_TOLERANCE < baseline {
        out.push(Violation::QoeBelowBaseline { actual: solution.total_qoe, baseline });
    }
}

// ---- trace-backed invariants ---------------------------------------------

fn check_trace(solution: &Solution, trace: &SolveTrace, out: &mut Vec<Violation>) {
    if solution.iterations != trace.iterations.len() {
        out.push(Violation::IterationCountMismatch {
            declared: solution.iterations,
            traced: trace.iterations.len(),
        });
    }
    for it in &trace.iterations {
        if let Some(red) = &it.reduction {
            if red.remaining_at_resolution != 0 {
                out.push(Violation::ReductionRemovedPartialResolution {
                    source: red.source,
                    resolution: red.resolution,
                    remaining: red.remaining_at_resolution,
                });
            }
        }
    }
    let Some(terminal) = trace.iterations.last() else { return };
    // Eq. 12: the merged bitrate recorded for (source, resolution) must be
    // the minimum of the Step-1 requests at that resolution…
    let mut merge_min: BTreeMap<(SourceId, Resolution), Bitrate> = BTreeMap::new();
    for (src, reqs) in &terminal.requests {
        for r in reqs {
            merge_min
                .entry((*src, r.spec.resolution))
                .and_modify(|b| *b = (*b).min(r.spec.bitrate))
                .or_insert(r.spec.bitrate);
        }
    }
    // …and the published bitrate must equal it, unless the publisher's
    // uplink was repaired this iteration (repair only lowers).
    for (src, policies) in &solution.publish {
        let repaired = terminal.repaired.contains(&src.client);
        for p in policies {
            let Some(&min) = merge_min.get(&(*src, p.resolution)) else {
                out.push(Violation::PolicyNotInTrace { source: *src, resolution: p.resolution });
                continue;
            };
            let ok = if repaired { p.bitrate <= min } else { p.bitrate == min };
            if !ok {
                out.push(Violation::MergeNotMinimum {
                    source: *src,
                    resolution: p.resolution,
                    actual: p.bitrate,
                    budgeted: min,
                });
            }
        }
    }
}

/// QoE of the all-lowest-rung baseline: every source publishes exactly its
/// smallest stream (if the publisher's uplink admits it), every subscriber
/// takes it when its cap and remaining downlink admit it. Deterministic
/// greedy in problem order; any orchestration worth running must do at
/// least this well.
pub fn baseline_qoe(problem: &Problem) -> f64 {
    let mut uplink_used: BTreeMap<ClientId, u64> = BTreeMap::new();
    let mut downlink_used: BTreeMap<ClientId, u64> = BTreeMap::new();
    let mut total = 0.0;
    for source in problem.sources() {
        let Some(spec) = source.ladder.specs().first().copied() else { continue };
        let uplink = problem.client(source.id.client).map_or(0, |c| c.uplink.as_bps());
        let used = uplink_used.get(&source.id.client).copied().unwrap_or(0);
        if used + spec.bitrate.as_bps() > uplink {
            continue;
        }
        let mut audience = 0usize;
        for sub in problem.subscribers_of(source.id) {
            if spec.resolution > sub.max_resolution {
                continue;
            }
            let budget = problem.client(sub.subscriber).map_or(0, |c| c.downlink.as_bps());
            let down = downlink_used.entry(sub.subscriber).or_insert(0);
            if *down + spec.bitrate.as_bps() > budget {
                continue;
            }
            *down += spec.bitrate.as_bps();
            total += spec.qoe * sub.qoe_boost + sub.presence_bonus;
            audience += 1;
        }
        if audience > 0 {
            uplink_used.insert(source.id.client, used + spec.bitrate.as_bps());
        }
    }
    total
}

#[cfg(test)]
mod tests;
