//! Static auditing of orchestration artifacts.
//!
//! The §4.1 constraint families themselves — per-client uplink (Eq. 14) and
//! downlink (Eq. 1–4) budgets, the codec rule of at most one stream per
//! resolution per source, and the subscription rules (existence, ≤ 1 stream
//! per `(subscriber, source, tag)`, resolution caps, publish/receive
//! consistency) — have one checker, in `gso-algo`:
//! [`Solution::violations`](gso_algo::Solution::violations) lists every
//! [`ConstraintViolation`], and [`Solution::validate`](gso_algo::Solution::validate)
//! returns the first. This crate wraps those findings next to the invariants
//! a CI gate and the debug-build trust-boundary hooks need on top, with
//! enough structure to point at the paper equation that was violated:
//!
//! * [`SolutionAuditor::audit`] — the constraint violations plus the
//!   solver-internal invariants still checkable from `(Problem, Solution)`
//!   alone: QoE accounting (`total_qoe` = Σ received, per-stream QoE =
//!   ladder QoE × boost + presence), the convergence bound `iterations ≤ 1 +
//!   Σ |resolutions|`, and the quality floor `total_qoe ≥` the
//!   all-lowest-rung baseline.
//! * [`SolutionAuditor::audit_traced`] — given the [`SolveTrace`] from
//!   [`gso_algo::solver::solve_traced`], additionally verifies the
//!   invariants that need solver-internal evidence: the Merge step picked
//!   the per-resolution *minimum* of the Step-1 requests (Eq. 12), and
//!   every Reduction removed a *whole* resolution (Eq. 18–20).
//!
//! [`check_forwarding`] extends the audit across the feedback boundary: the
//! media-plane forwarding rules derived from a solution must be exactly its
//! receive map, stream for stream.
//!
//! The `audit` binary (`cargo run -p gso-audit --bin audit`) replays the
//! shipped example configurations and the paper's Table 1 cases through the
//! full audit and exits nonzero on any violation — a CI gate for solver
//! regressions.

pub mod scenarios;

use gso_algo::solver::SolveTrace;
use gso_algo::{ConstraintViolation, Problem, Resolution, Solution, SourceId};
use gso_util::{Bitrate, ClientId};
use std::collections::BTreeMap;
use std::fmt;

/// Everything the auditor can find wrong, with the identities and the
/// budgeted-versus-actual values needed to act on the finding.
#[derive(Debug, Clone, PartialEq)]
pub enum ViolationKind {
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
    /// A forwarding rule names a stream the subscriber does not receive.
    ForwardingWithoutStream {
        /// The rule's subscriber.
        subscriber: ClientId,
        /// The rule's source.
        source: SourceId,
        /// The rule's tag.
        tag: u8,
    },
    /// A received stream has no forwarding rule delivering it.
    StreamWithoutForwarding {
        /// The starved subscriber.
        subscriber: ClientId,
        /// The stream's source.
        source: SourceId,
        /// The subscription's tag.
        tag: u8,
    },
    /// A forwarding rule's bitrate disagrees with the configured stream.
    ForwardingBitrateMismatch {
        /// The rule's subscriber.
        subscriber: ClientId,
        /// The rule's source.
        source: SourceId,
        /// The rule's tag.
        tag: u8,
        /// Bitrate the rule forwards.
        actual: Bitrate,
        /// Bitrate the solution configured.
        budgeted: Bitrate,
    },
}

/// One audit finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// What went wrong, with identities and budgeted-vs-actual values.
    pub kind: ViolationKind,
}

impl Violation {
    fn new(kind: ViolationKind) -> Self {
        Violation { kind }
    }

    /// The paper equation (or section) this finding violates.
    pub fn equation(&self) -> &'static str {
        use ViolationKind as K;
        match &self.kind {
            K::Constraint(c) => c.equation(),
            K::QoeMismatch { .. } | K::QoeBelowBaseline { .. } => "Eq. 1 (objective)",
            K::IterationBoundExceeded { .. } | K::IterationCountMismatch { .. } => {
                "§4.1 convergence bound"
            }
            K::MergeNotMinimum { .. } | K::PolicyNotInTrace { .. } => "Eq. 12",
            K::ReductionRemovedPartialResolution { .. } => "Eq. 18–20",
            K::ForwardingWithoutStream { .. }
            | K::StreamWithoutForwarding { .. }
            | K::ForwardingBitrateMismatch { .. } => "§4.3 (feedback execution)",
        }
    }

    /// Short machine-friendly name of the violation kind.
    pub fn kind_name(&self) -> &'static str {
        use ViolationKind as K;
        match &self.kind {
            K::Constraint(c) => c.kind_name(),
            K::QoeMismatch { .. } => "qoe-mismatch",
            K::IterationBoundExceeded { .. } => "iteration-bound-exceeded",
            K::QoeBelowBaseline { .. } => "qoe-below-baseline",
            K::MergeNotMinimum { .. } => "merge-not-minimum",
            K::ReductionRemovedPartialResolution { .. } => "reduction-partial-resolution",
            K::PolicyNotInTrace { .. } => "policy-not-in-trace",
            K::IterationCountMismatch { .. } => "iteration-count-mismatch",
            K::ForwardingWithoutStream { .. } => "forwarding-without-stream",
            K::StreamWithoutForwarding { .. } => "stream-without-forwarding",
            K::ForwardingBitrateMismatch { .. } => "forwarding-bitrate-mismatch",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ViolationKind as K;
        write!(f, "[{} | {}] ", self.kind_name(), self.equation())?;
        match &self.kind {
            K::Constraint(c) => write!(f, "{c}"),
            K::QoeMismatch { declared, computed } => {
                write!(f, "declared QoE {declared:.3} but problem data implies {computed:.3}")
            }
            K::IterationBoundExceeded { actual, budgeted } => {
                write!(f, "{actual} iterations, convergence bound {budgeted}")
            }
            K::QoeBelowBaseline { actual, baseline } => {
                write!(f, "QoE {actual:.3} below all-lowest-rung baseline {baseline:.3}")
            }
            K::MergeNotMinimum { source, resolution, actual, budgeted } => {
                write!(
                    f,
                    "{source} publishes {actual} at {resolution}, merge minimum is {budgeted}"
                )
            }
            K::ReductionRemovedPartialResolution { source, resolution, remaining } => {
                write!(f, "reduction left {remaining} entries at {resolution} of {source}")
            }
            K::PolicyNotInTrace { source, resolution } => {
                write!(f, "{source} publishes at {resolution} with no trace record")
            }
            K::IterationCountMismatch { declared, traced } => {
                write!(f, "solution reports {declared} iterations, trace recorded {traced}")
            }
            K::ForwardingWithoutStream { subscriber, source, tag } => {
                write!(
                    f,
                    "rule forwards {source} tag {tag} to {subscriber} who receives no such stream"
                )
            }
            K::StreamWithoutForwarding { subscriber, source, tag } => {
                write!(
                    f,
                    "{subscriber} is configured for {source} tag {tag} but no rule forwards it"
                )
            }
            K::ForwardingBitrateMismatch { subscriber, source, tag, actual, budgeted } => {
                write!(
                    f,
                    "rule forwards {source} tag {tag} to {subscriber} at {actual}, configured {budgeted}"
                )
            }
        }
    }
}

/// Join findings into a line-per-violation report (for panics and CLI).
pub fn report<V: fmt::Display>(violations: &[V]) -> String {
    violations.iter().map(|v| format!("  - {v}\n")).collect()
}

/// The solution auditor: the §4.1 constraint findings plus solver invariants.
///
/// Stateless apart from tolerances; construct once and reuse.
#[derive(Debug, Clone)]
pub struct SolutionAuditor {
    /// Absolute tolerance for QoE comparisons (floating-point sums).
    pub qoe_tolerance: f64,
}

impl Default for SolutionAuditor {
    fn default() -> Self {
        SolutionAuditor { qoe_tolerance: 1e-6 }
    }
}

impl SolutionAuditor {
    /// Auditor with default tolerances.
    pub fn new() -> Self {
        Self::default()
    }

    /// Full static audit: every [`Solution::violations`] finding plus the
    /// solver-internal invariants checkable from `(Problem, Solution)` alone.
    pub fn audit(&self, problem: &Problem, solution: &Solution) -> Vec<Violation> {
        let mut out: Vec<Violation> = solution
            .violations(problem)
            .into_iter()
            .map(|c| Violation::new(ViolationKind::Constraint(c)))
            .collect();
        self.check_qoe_accounting(problem, solution, &mut out);
        self.check_iteration_bound(problem, solution, &mut out);
        self.check_qoe_floor(problem, solution, &mut out);
        out
    }

    /// Full audit plus the trace-backed solver invariants: merge-minimum
    /// (Eq. 12) and whole-resolution reduction (Eq. 18–20).
    pub fn audit_traced(
        &self,
        problem: &Problem,
        solution: &Solution,
        trace: &SolveTrace,
    ) -> Vec<Violation> {
        let mut out = self.audit(problem, solution);
        self.check_trace(solution, trace, &mut out);
        out
    }

    // ---- solver-internal invariants (solution-only) ----------------------

    fn check_qoe_accounting(
        &self,
        problem: &Problem,
        solution: &Solution,
        out: &mut Vec<Violation>,
    ) {
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
        if (computed - solution.total_qoe).abs() > self.qoe_tolerance {
            out.push(Violation::new(ViolationKind::QoeMismatch {
                declared: solution.total_qoe,
                computed,
            }));
        }
    }

    fn check_iteration_bound(
        &self,
        problem: &Problem,
        solution: &Solution,
        out: &mut Vec<Violation>,
    ) {
        let bound =
            1 + problem.sources().iter().map(|s| s.ladder.resolutions().len()).sum::<usize>();
        if solution.iterations > bound {
            out.push(Violation::new(ViolationKind::IterationBoundExceeded {
                actual: solution.iterations,
                budgeted: bound,
            }));
        }
    }

    fn check_qoe_floor(&self, problem: &Problem, solution: &Solution, out: &mut Vec<Violation>) {
        let baseline = baseline_qoe(problem);
        if solution.total_qoe + self.qoe_tolerance < baseline {
            out.push(Violation::new(ViolationKind::QoeBelowBaseline {
                actual: solution.total_qoe,
                baseline,
            }));
        }
    }

    // ---- trace-backed invariants -----------------------------------------

    fn check_trace(&self, solution: &Solution, trace: &SolveTrace, out: &mut Vec<Violation>) {
        if solution.iterations != trace.iterations.len() {
            out.push(Violation::new(ViolationKind::IterationCountMismatch {
                declared: solution.iterations,
                traced: trace.iterations.len(),
            }));
        }
        for it in &trace.iterations {
            if let Some(red) = &it.reduction {
                if red.remaining_at_resolution != 0 {
                    out.push(Violation::new(ViolationKind::ReductionRemovedPartialResolution {
                        source: red.source,
                        resolution: red.resolution,
                        remaining: red.remaining_at_resolution,
                    }));
                }
            }
        }
        let Some(terminal) = trace.iterations.last() else { return };
        // Eq. 12: the merged bitrate recorded for (source, resolution) must
        // be the minimum of the Step-1 requests at that resolution…
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
                    out.push(Violation::new(ViolationKind::PolicyNotInTrace {
                        source: *src,
                        resolution: p.resolution,
                    }));
                    continue;
                };
                let ok = if repaired { p.bitrate <= min } else { p.bitrate == min };
                if !ok {
                    out.push(Violation::new(ViolationKind::MergeNotMinimum {
                        source: *src,
                        resolution: p.resolution,
                        actual: p.bitrate,
                        budgeted: min,
                    }));
                }
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

/// Cross-check media-plane forwarding rules against the solution that
/// produced them: the rules must deliver exactly the receive map — no
/// phantom rules, no starved subscriptions, no bitrate drift.
///
/// Rules are `(subscriber, source, tag, bitrate)` tuples so callers at any
/// layer can adapt their own rule type without this crate depending on it.
pub fn check_forwarding(
    solution: &Solution,
    rules: &[(ClientId, SourceId, u8, Bitrate)],
) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut by_key: BTreeMap<(ClientId, SourceId, u8), Bitrate> = BTreeMap::new();
    for &(sub, src, tag, bitrate) in rules {
        if by_key.insert((sub, src, tag), bitrate).is_some() {
            out.push(Violation::new(ViolationKind::Constraint(
                ConstraintViolation::MultipleStreamsPerSubscription {
                    subscriber: sub,
                    source: src,
                    tag,
                },
            )));
        }
    }
    for (&(sub, src, tag), &bitrate) in &by_key {
        match solution.received_from(sub, src, tag) {
            None => out.push(Violation::new(ViolationKind::ForwardingWithoutStream {
                subscriber: sub,
                source: src,
                tag,
            })),
            Some(r) if r.bitrate != bitrate => {
                out.push(Violation::new(ViolationKind::ForwardingBitrateMismatch {
                    subscriber: sub,
                    source: src,
                    tag,
                    actual: bitrate,
                    budgeted: r.bitrate,
                }));
            }
            Some(_) => {}
        }
    }
    for (&sub, streams) in &solution.received {
        for r in streams {
            if !by_key.contains_key(&(sub, r.source, r.tag)) {
                out.push(Violation::new(ViolationKind::StreamWithoutForwarding {
                    subscriber: sub,
                    source: r.source,
                    tag: r.tag,
                }));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests;
