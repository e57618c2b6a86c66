//! The GSO control algorithm: iterative Knapsack → Merge → Reduction (§4.1).
//!
//! Each iteration:
//!
//! 1. **Knapsack** — for every subscriber independently, fill its downlink
//!    with at most one stream per subscription, maximizing QoE utility
//!    (a multiple-choice knapsack, Eq. 1–4, solved by [`crate::mckp`]).
//! 2. **Merge** — per publisher source, group the requested streams by
//!    resolution and merge each group to its *minimum* requested bitrate
//!    (Eq. 10–12), enforcing the codec constraint of at most one stream per
//!    resolution.
//! 3. **Reduction** — check every publisher's uplink (Eq. 14). A violation
//!    is *fixable* if the per-resolution minima still fit (Eq. 17): then
//!    bitrates are lowered within their resolutions (a small knapsack,
//!    Eq. 16). Otherwise the highest offending resolution is removed from
//!    that publisher's feasible set (Eq. 18–20) — one publisher at a time —
//!    and the algorithm re-runs from Step 1.
//!
//! The loop terminates because every non-terminal iteration strictly shrinks
//! one source's feasible set by a whole resolution, so the iteration count is
//! bounded by Σ_sources |resolutions| (the paper's convergence argument).

use crate::mckp;
use crate::problem::{ClientSpec, Problem, SourceId, Subscription};
use crate::solution::{PublishPolicy, ReceivedStream, Solution};
use crate::types::{Ladder, Resolution, StreamSpec};
use gso_util::{Bitrate, ClientId};
use std::collections::BTreeMap;

/// Solver tuning knobs.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Bandwidth quantization unit for the knapsack DP. Production ladders
    /// are multiples of 50–100 kbps, so the default of 10 kbps is exact for
    /// them while keeping the DP tables small.
    pub unit: Bitrate,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig { unit: Bitrate::from_kbps(10) }
    }
}

/// What one subscriber requested from one subscription after Step 1:
/// the `(i, s_ii')` pairs of the candidate set `D_i'` (Eq. 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// The requesting subscriber.
    pub subscriber: ClientId,
    /// Virtual-publisher tag of the subscription.
    pub tag: u8,
    /// The stream the subscriber's knapsack selected.
    pub spec: StreamSpec,
}

/// One Reduction event (Eq. 18–20): a whole resolution removed from one
/// source's feasible set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReductionTrace {
    /// The source whose ladder shrank.
    pub source: SourceId,
    /// The resolution that was removed.
    pub resolution: Resolution,
    /// Ladder entries at `resolution` *after* the removal. The Reduction
    /// step must remove whole resolutions, so this is invariantly zero;
    /// the auditor verifies it.
    pub remaining_at_resolution: usize,
}

/// Record of one Knapsack–Merge–Reduction iteration, kept for auditing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IterationTrace {
    /// Step-1 output: per source, what every subscriber requested.
    pub requests: BTreeMap<SourceId, Vec<Request>>,
    /// Step-2 output: per source, the merged `(resolution, min bitrate)`
    /// pairs (Eq. 12) — before any Step-3 uplink repair lowers them.
    pub merged: BTreeMap<SourceId, Vec<(Resolution, Bitrate)>>,
    /// Clients whose uplink overflow was repaired in place (the "fixable"
    /// branch of Step 3, Eq. 16–17); their final bitrates may sit below
    /// the merged minima.
    pub repaired: Vec<ClientId>,
    /// The Reduction taken this iteration, if any (`None` on the terminal
    /// iteration).
    pub reduction: Option<ReductionTrace>,
}

/// Full solver execution trace: evidence for the invariants that cannot be
/// established from a `(Problem, Solution)` pair alone (the merge-minimum
/// rule needs the Step-1 requests; the reduction rule needs ladder diffs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveTrace {
    /// One entry per iteration, in execution order; the last entry is the
    /// terminal iteration that produced the solution.
    pub iterations: Vec<IterationTrace>,
}

/// Solve the orchestration problem with the GSO control algorithm.
pub fn solve(problem: &Problem, cfg: &SolverConfig) -> Solution {
    solve_impl(problem, cfg, None)
}

/// Like [`solve`], additionally returning the per-iteration [`SolveTrace`]
/// that `gso-audit` uses to verify solver-internal invariants.
pub fn solve_traced(problem: &Problem, cfg: &SolverConfig) -> (Solution, SolveTrace) {
    let mut trace = SolveTrace::default();
    let solution = solve_impl(problem, cfg, Some(&mut trace));
    (solution, trace)
}

/// Ladder lookup shared by the one-shot solver (a cloned working problem
/// whose ladders Reduction shrinks in place) and the incremental
/// [`crate::engine::SolveEngine`] (an overlay of reduced ladders on the base
/// problem). Merge, uplink repair, Reduction and assembly are generic over
/// this trait, so the two paths share one implementation and cannot diverge.
pub(crate) trait LadderView {
    /// The current (possibly Reduction-shrunk) ladder of `source`.
    fn ladder_of(&self, source: SourceId) -> Option<&Ladder>;
}

impl LadderView for Problem {
    fn ladder_of(&self, source: SourceId) -> Option<&Ladder> {
        self.source(source).map(|s| &s.ladder)
    }
}

fn solve_impl(
    problem: &Problem,
    cfg: &SolverConfig,
    mut trace: Option<&mut SolveTrace>,
) -> Solution {
    // Working copy whose ladders the Reduction step shrinks.
    let mut wp = problem.clone();
    // Upper bound on iterations per the convergence argument, plus one for
    // the terminal iteration.
    let max_iters: usize = 1 + convergence_bound(problem);

    for iteration in 1..=max_iters {
        // ---- Step 1: per-subscriber multiple-choice knapsack -------------
        let requests_by_source = knapsack_step(&wp, cfg);

        // ---- Step 2: merge per resolution ---------------------------------
        let mut policies = merge_step(requests_by_source.iter().map(|(s, v)| (*s, v.as_slice())));

        let mut iter_trace = trace.as_ref().map(|_| IterationTrace {
            requests: requests_by_source.clone(),
            merged: policies
                .iter()
                .map(|(src, ps)| (*src, ps.iter().map(|p| (p.resolution, p.bitrate)).collect()))
                .collect(),
            repaired: Vec::new(),
            reduction: None,
        });

        // ---- Step 3: uplink check / repair / reduction --------------------
        let mut repaired = Vec::new();
        let reduction = uplink_step(wp.clients(), &wp, &mut policies, cfg.unit, &mut repaired);
        if let Some(t) = iter_trace.as_mut() {
            t.repaired = repaired;
        }

        if let Some((source, res)) = reduction {
            let shrunk = reduced_ladder(&wp, source, res);
            if let Some(t) = iter_trace.take() {
                if let Some(trace) = trace.as_mut() {
                    trace.iterations.push(IterationTrace {
                        reduction: Some(ReductionTrace {
                            source,
                            resolution: res,
                            remaining_at_resolution: shrunk.at_resolution(res).len(),
                        }),
                        ..t
                    });
                }
            }
            wp.set_ladder(source, shrunk);
            continue;
        }

        if let Some(t) = iter_trace.take() {
            if let Some(trace) = trace.as_mut() {
                trace.iterations.push(t);
            }
        }

        // Terminal iteration: assemble the solution.
        let solution = assemble(problem, &wp, policies, iteration);
        // Solver-exit audit hook (debug builds only): the solution must
        // satisfy every §4.1 constraint family and the convergence bound.
        debug_assert!(
            solution.validate(problem).is_ok(),
            "solver emitted an invalid solution: {:?}",
            solution.validate(problem)
        );
        debug_assert!(
            solution.iterations <= max_iters,
            "solver exceeded the convergence bound: {} > {max_iters}",
            solution.iterations
        );
        return solution;
    }

    unreachable!("the reduction step strictly shrinks a ladder each iteration");
}

/// Σ_sources |resolutions|: every non-terminal iteration removes one whole
/// resolution from one source's ladder, so this bounds the iteration count.
/// Walks the client list directly to stay allocation-free on the solve path.
pub(crate) fn convergence_bound(problem: &Problem) -> usize {
    problem
        .clients()
        .iter()
        .flat_map(|c| c.sources.iter())
        .map(|s| s.ladder.distinct_resolutions())
        .sum()
}

/// Step 1 for the one-shot path: every subscriber's MCKP, solved fresh.
/// (The incremental engine has its own Step 1 with memoized DP state; both
/// produce requests in identical client-then-subscription order.)
fn knapsack_step(wp: &Problem, cfg: &SolverConfig) -> BTreeMap<SourceId, Vec<Request>> {
    let mut requests_by_source: BTreeMap<SourceId, Vec<Request>> = BTreeMap::new();
    for client in wp.clients() {
        let subs: &[Subscription] = wp.subscriptions_of_slice(client.id);
        if subs.is_empty() {
            continue;
        }
        // Classes in deterministic (source, tag) order; items ascending
        // by bitrate — both required for reproducible tie-breaking.
        let class_items: Vec<Vec<StreamSpec>> = subs
            .iter()
            .map(|s| {
                wp.source(s.source)
                    .map(|src| src.ladder.capped(s.max_resolution))
                    .unwrap_or_default()
            })
            .collect();
        let classes: Vec<Vec<(Bitrate, f64)>> = class_items
            .iter()
            .zip(subs)
            .map(|(items, sub)| {
                items
                    .iter()
                    .map(|i| (i.bitrate, i.qoe * sub.qoe_boost + sub.presence_bonus))
                    .collect()
            })
            .collect();
        let picked = mckp::solve_bitrates(&classes, client.downlink, cfg.unit);
        for ((sub, items), choice) in subs.iter().zip(&class_items).zip(&picked.choices) {
            if let Some(i) = choice {
                requests_by_source.entry(sub.source).or_default().push(Request {
                    subscriber: client.id,
                    tag: sub.tag,
                    spec: items[*i],
                });
            }
        }
    }
    requests_by_source
}

/// Step 2: per source, group the requested streams by resolution and merge
/// each group to its *minimum* requested bitrate (Meg(), Eq. 12).
///
/// Generic over any ascending-`SourceId` iteration of request slices so the
/// one-shot solver's `BTreeMap` and the engine's flat per-source buckets
/// share one implementation. Grouping is a linear scan over a handful of
/// resolutions (≤4 in every production ladder) sorted ascending at the end —
/// the same (resolution-ascending, audience-in-request-order) output the
/// previous `BTreeMap` grouping produced, without its per-node allocations.
pub(crate) fn merge_step<'a, I>(requests_by_source: I) -> BTreeMap<SourceId, Vec<PublishPolicy>>
where
    I: IntoIterator<Item = (SourceId, &'a [Request])>,
{
    // lint: allow(hot-alloc, reason = "per-solve merge output; the policies move into the Solution the caller retains")
    let mut policies: BTreeMap<SourceId, Vec<PublishPolicy>> = BTreeMap::new();
    for (source, reqs) in requests_by_source {
        // lint: allow(hot-alloc, reason = "per-solve merge output; one group per distinct requested resolution (≤4)")
        let mut groups: Vec<PublishPolicy> = Vec::new();
        for r in reqs {
            match groups.iter_mut().find(|g| g.resolution == r.spec.resolution) {
                Some(g) => {
                    g.bitrate = g.bitrate.min(r.spec.bitrate); // Meg(): s_i^R = min (Eq. 12)
                                                               // lint: allow(hot-alloc, reason = "per-solve merge output; the audiences move into the Solution the caller retains")
                    g.audience.push((r.subscriber, r.tag));
                }
                // lint: allow(hot-alloc, reason = "per-solve merge output; the policies move into the Solution the caller retains")
                None => groups.push(PublishPolicy {
                    resolution: r.spec.resolution,
                    bitrate: r.spec.bitrate,
                    // lint: allow(hot-alloc, reason = "per-solve merge output; the audiences move into the Solution the caller retains")
                    audience: vec![(r.subscriber, r.tag)],
                }),
            }
        }
        // One group per resolution, so keys are unique and the unstable sort
        // is deterministic; audiences keep their request order.
        groups.sort_unstable_by_key(|g| g.resolution);
        // lint: allow(hot-alloc, reason = "per-solve merge output; the policies move into the Solution the caller retains")
        policies.insert(source, groups);
    }
    policies
}

/// Step 3: check every publisher's uplink (Eq. 14), repairing fixable
/// overflows in place (Eq. 16–17, recorded in `repaired`) and returning the
/// first non-fixable one as a Reduction target (Eq. 18) — one publisher at a
/// time, per the paper.
pub(crate) fn uplink_step<L: LadderView>(
    clients: &[ClientSpec],
    ladders: &L,
    policies: &mut BTreeMap<SourceId, Vec<PublishPolicy>>,
    unit: Bitrate,
    repaired: &mut Vec<ClientId>,
) -> Option<(SourceId, Resolution)> {
    for client in clients {
        // The client's sources are walked in place (typically 1-2 of them);
        // the check itself allocates nothing.
        let total: Bitrate = client
            .sources
            .iter()
            .flat_map(|s| policies.get(&s.id).into_iter().flatten())
            .map(|p| p.bitrate)
            .sum();
        if total <= client.uplink {
            continue;
        }
        // Fixability (Eq. 17): can we fit by taking the smallest bitrate
        // at each already-selected resolution?
        let min_total: Bitrate = client
            .sources
            .iter()
            .flat_map(|s| policies.get(&s.id).into_iter().flatten().map(move |p| (s.id, p)))
            .map(|(src, p)| {
                ladders
                    .ladder_of(src)
                    .and_then(|l| l.min_bitrate_at(p.resolution))
                    .unwrap_or(p.bitrate)
            })
            .sum();
        if min_total <= client.uplink {
            repair_uplink(ladders, policies, client.id, client.uplink, unit);
            // lint: allow(hot-alloc, reason = "repair audit trail; pushes only on the rare overflow-repair branch")
            repaired.push(client.id);
        } else {
            // Not fixable: drop the highest resolution this client
            // currently publishes (Eq. 18) and restart.
            return client
                .sources
                .iter()
                .flat_map(|s| policies.get(&s.id).into_iter().flatten().map(move |p| (s.id, p)))
                .max_by_key(|(_, p)| (p.resolution, p.bitrate))
                .map(|(src, p)| (src, p.resolution));
        }
    }
    None
}

/// The ladder of `source` with `res` removed (Eq. 18–20).
pub(crate) fn reduced_ladder<L: LadderView>(
    ladders: &L,
    source: SourceId,
    res: Resolution,
) -> Ladder {
    ladders
        .ladder_of(source)
        .expect("invariant: reduction targets a source present in the problem")
        .without_resolution(res)
}

/// Lower bitrates within their resolutions so one client's uplink fits
/// (the "fixable" branch of Step 3).
///
/// Each affected policy is a mandatory knapsack class whose items are the
/// ladder entries at the policy's resolution with bitrate ≤ the current one;
/// the value of an item counts the whole audience (each subscriber keeps
/// receiving, at the lower bitrate). The combination count is small —
/// `Π |S_i^R ∩ (0, s_i^R]]` over at most a handful of policies — which is why
/// the paper brute-forces it; the DP here is equivalent and deterministic.
fn repair_uplink<L: LadderView>(
    ladders: &L,
    policies: &mut BTreeMap<SourceId, Vec<PublishPolicy>>,
    client: ClientId,
    uplink: Bitrate,
    unit: Bitrate,
) {
    // Collect this client's policies as (source, index) handles.
    let handles: Vec<(SourceId, usize)> = policies
        .iter()
        .filter(|(src, _)| src.client == client)
        .flat_map(|(src, ps)| (0..ps.len()).map(move |i| (*src, i)))
        // lint: allow(hot-alloc, reason = "overflow-repair branch only; bounded by one client's policy count")
        .collect();

    // Candidate specs per policy, ascending bitrate (deterministic DP ties).
    // lint: allow(hot-alloc, reason = "overflow-repair branch only; bounded by one client's policy count")
    let mut candidates: Vec<Vec<StreamSpec>> = Vec::with_capacity(handles.len());
    for &(src, i) in &handles {
        let p = policies
            .get(&src)
            .and_then(|ps| ps.get(i))
            .expect("invariant: repair handles were collected from this map");
        let specs: Vec<StreamSpec> = ladders
            .ladder_of(src)
            .map(|l| {
                l.at_resolution(p.resolution)
                    .into_iter()
                    .filter(|spec| spec.bitrate <= p.bitrate)
                    // lint: allow(hot-alloc, reason = "overflow-repair branch only; bounded by ladder size")
                    .collect()
            })
            .unwrap_or_default();
        // lint: allow(hot-alloc, reason = "overflow-repair branch only; bounded by one client's policy count")
        candidates.push(specs);
    }

    // Every class must pick an item: a policy cannot be dropped here — only
    // the Reduction step removes streams. The plain MCKP allows skipping a
    // class, which could blow the budget once the skipped class falls back
    // to its minimum; instead, reserve every class's minimum up front and
    // let the DP spend the remaining budget on *upgrades* (weight and value
    // relative to the minimum). Eq. 17 guarantees the reserved minima fit.
    let mut reserved = Bitrate::ZERO;
    for cands in &candidates {
        if let Some(min) = cands.first() {
            reserved += min.bitrate;
        }
    }
    let upgrade_budget = uplink.saturating_sub(reserved);
    let classes: Vec<Vec<(Bitrate, f64)>> = handles
        .iter()
        .zip(&candidates)
        .map(|(&(src, i), cands)| {
            let p = policies
                .get(&src)
                .and_then(|ps| ps.get(i))
                .expect("invariant: repair handles were collected from this map");
            let audience_weight: f64 = p.audience.len() as f64;
            // lint: allow(hot-alloc, reason = "overflow-repair branch only; empty-vec constructor does not allocate")
            let Some(min) = cands.first() else { return Vec::new() };
            cands
                .iter()
                .skip(1)
                .map(|s| (s.bitrate - min.bitrate, (s.qoe - min.qoe) * audience_weight))
                // lint: allow(hot-alloc, reason = "overflow-repair branch only; bounded by ladder size")
                .collect()
        })
        // lint: allow(hot-alloc, reason = "overflow-repair branch only; bounded by one client's policy count")
        .collect();
    let picked = mckp::solve_bitrates(&classes, upgrade_budget, unit);
    for ((&(src, i), choice), cands) in handles.iter().zip(&picked.choices).zip(&candidates) {
        if cands.is_empty() {
            continue;
        }
        let spec = match choice {
            // Upgrade item `c` corresponds to candidate `c + 1` (the
            // minimum was skipped when building the class).
            Some(c) => *cands
                .get(*c + 1)
                .expect("invariant: upgrade choices map to candidates past the reserved minimum"),
            None => *cands.first().expect("invariant: emptiness checked above"),
        };
        let p = policies
            .get_mut(&src)
            .and_then(|ps| ps.get_mut(i))
            .expect("invariant: repair handles were collected from this map");
        p.bitrate = spec.bitrate;
    }
}

/// Build the final [`Solution`] from the merged policies.
pub(crate) fn assemble<L: LadderView>(
    original: &Problem,
    working: &L,
    policies: BTreeMap<SourceId, Vec<PublishPolicy>>,
    iterations: usize,
) -> Solution {
    // lint: allow(hot-alloc, reason = "solution assembly builds the owned output the caller retains")
    let mut received: BTreeMap<ClientId, Vec<ReceivedStream>> = BTreeMap::new();
    let mut total_qoe = 0.0;
    for (source, ps) in &policies {
        let ladder = working
            .ladder_of(*source)
            .expect("invariant: policies only name sources of the working problem");
        for p in ps {
            let spec = ladder.spec_for_bitrate(p.bitrate).expect(
                "invariant: merge picks the minimum of ladder entries, itself a ladder entry",
            );
            for &(sub, tag) in &p.audience {
                let (boost, presence) = original
                    .subscription(sub, *source, tag)
                    .map_or((1.0, 0.0), |s| (s.qoe_boost, s.presence_bonus));
                let qoe = spec.qoe * boost + presence;
                total_qoe += qoe;
                // lint: allow(hot-alloc, reason = "solution assembly builds the owned output the caller retains")
                received.entry(sub).or_default().push(ReceivedStream {
                    source: *source,
                    tag,
                    resolution: p.resolution,
                    bitrate: p.bitrate,
                    qoe,
                });
            }
        }
    }
    Solution { publish: policies, received, total_qoe, iterations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladders;
    use crate::problem::ClientSpec;

    fn kbps(k: u64) -> Bitrate {
        Bitrate::from_kbps(k)
    }

    /// Build the three-client meeting of Table 1: every client subscribes to
    /// the other two, with the paper's per-case bandwidths.
    ///
    /// Subscription caps from the table: A→B at 360P, A→C at 180P,
    /// B→A at 720P, B→C at 360P, C→B at 360P, C→A at 720P.
    fn table1_problem(bw: [(u64, u64); 3]) -> Problem {
        let ladder = ladders::paper_table1();
        let [a, b, c] = [ClientId(1), ClientId(2), ClientId(3)];
        let clients = vec![
            ClientSpec::new(a, kbps(bw[0].0), kbps(bw[0].1), ladder.clone()),
            ClientSpec::new(b, kbps(bw[1].0), kbps(bw[1].1), ladder.clone()),
            ClientSpec::new(c, kbps(bw[2].0), kbps(bw[2].1), ladder),
        ];
        let subs = vec![
            Subscription::new(a, SourceId::video(b), Resolution::R360),
            Subscription::new(a, SourceId::video(c), Resolution::R180),
            Subscription::new(b, SourceId::video(a), Resolution::R720),
            Subscription::new(b, SourceId::video(c), Resolution::R360),
            Subscription::new(c, SourceId::video(b), Resolution::R360),
            Subscription::new(c, SourceId::video(a), Resolution::R720),
        ];
        Problem::new(clients, subs).unwrap()
    }

    fn published(sol: &Solution, client: ClientId) -> Vec<(Resolution, Bitrate)> {
        let mut v: Vec<(Resolution, Bitrate)> = sol
            .policies(SourceId::video(client))
            .iter()
            .map(|p| (p.resolution, p.bitrate))
            .collect();
        v.sort();
        v.reverse();
        v
    }

    /// Table 1, case 1: C's downlink is limited to 500 Kbps.
    #[test]
    fn table1_case1() {
        let p = table1_problem([(5_000, 1_400), (5_000, 3_000), (5_000, 500)]);
        let sol = solve(&p, &SolverConfig::default());
        sol.validate(&p).unwrap();
        let [a, b, c] = [ClientId(1), ClientId(2), ClientId(3)];
        assert_eq!(
            published(&sol, a),
            vec![(Resolution::R720, kbps(1500)), (Resolution::R360, kbps(400))]
        );
        assert_eq!(
            published(&sol, b),
            vec![(Resolution::R360, kbps(800)), (Resolution::R180, kbps(100))]
        );
        assert_eq!(
            published(&sol, c),
            vec![(Resolution::R360, kbps(800)), (Resolution::R180, kbps(300))]
        );
    }

    /// Table 1, case 2: B's uplink is limited to 600 Kbps.
    #[test]
    fn table1_case2() {
        let p = table1_problem([(5_000, 5_000), (600, 5_000), (5_000, 5_000)]);
        let sol = solve(&p, &SolverConfig::default());
        sol.validate(&p).unwrap();
        let [a, b, c] = [ClientId(1), ClientId(2), ClientId(3)];
        assert_eq!(published(&sol, a), vec![(Resolution::R720, kbps(1500))]);
        assert_eq!(published(&sol, b), vec![(Resolution::R360, kbps(600))]);
        assert_eq!(
            published(&sol, c),
            vec![(Resolution::R360, kbps(800)), (Resolution::R180, kbps(300))]
        );
    }

    /// Table 1, case 3: B's uplink (600 Kbps) and downlink (700 Kbps) are
    /// both limited.
    #[test]
    fn table1_case3() {
        let p = table1_problem([(5_000, 5_000), (600, 700), (5_000, 5_000)]);
        let sol = solve(&p, &SolverConfig::default());
        sol.validate(&p).unwrap();
        let [a, b, c] = [ClientId(1), ClientId(2), ClientId(3)];
        assert_eq!(
            published(&sol, a),
            vec![(Resolution::R720, kbps(1500)), (Resolution::R360, kbps(400))]
        );
        assert_eq!(published(&sol, b), vec![(Resolution::R360, kbps(600))]);
        assert_eq!(published(&sol, c), vec![(Resolution::R180, kbps(300))]);
    }

    /// Fig. 3a/3d: a stream nobody subscribes to is never published.
    #[test]
    fn no_stream_without_audience() {
        let ladder = ladders::paper_table1();
        let [p1, s1, s2] = [ClientId(1), ClientId(2), ClientId(3)];
        let problem = Problem::new(
            vec![
                ClientSpec::new(p1, kbps(2_000), kbps(5_000), ladder.clone()),
                ClientSpec::new(s1, kbps(5_000), kbps(300), ladder.clone()),
                ClientSpec::new(s2, kbps(5_000), kbps(600), ladder),
            ],
            vec![
                Subscription::new(s1, SourceId::video(p1), Resolution::R720),
                Subscription::new(s2, SourceId::video(p1), Resolution::R720),
            ],
        )
        .unwrap();
        let sol = solve(&problem, &SolverConfig::default());
        sol.validate(&problem).unwrap();
        // Nobody can take the 1.5M stream; it must not be published even
        // though pub1's uplink could carry it.
        for p in sol.policies(SourceId::video(p1)) {
            assert!(!p.audience.is_empty());
            assert!(p.bitrate <= kbps(600));
        }
    }

    /// A subscriber-only client and a publisher with an empty ladder are
    /// both handled.
    #[test]
    fn degenerate_participants() {
        let [p1, s1] = [ClientId(1), ClientId(2)];
        let problem = Problem::new(
            vec![
                ClientSpec::new(p1, kbps(5_000), kbps(5_000), crate::types::Ladder::empty()),
                ClientSpec::subscriber_only(s1, kbps(5_000)),
            ],
            vec![Subscription::new(s1, SourceId::video(p1), Resolution::R720)],
        )
        .unwrap();
        let sol = solve(&problem, &SolverConfig::default());
        sol.validate(&problem).unwrap();
        assert!(sol.policies(SourceId::video(p1)).is_empty());
        assert_eq!(sol.total_qoe, 0.0);
    }

    /// The solver always terminates within the convergence bound even when
    /// every uplink is pathologically small.
    #[test]
    fn converges_under_tiny_uplinks() {
        let p = table1_problem([(100, 5_000), (100, 5_000), (100, 5_000)]);
        let sol = solve(&p, &SolverConfig::default());
        sol.validate(&p).unwrap();
        // 3 sources × 3 resolutions + 1 terminal iteration is the bound.
        assert!(sol.iterations <= 10, "iterations = {}", sol.iterations);
        // 100 Kbps uplink fits exactly the 100 Kbps 180P stream.
        for c in [1, 2, 3] {
            assert!(sol.publish_rate(ClientId(c)) <= kbps(100));
        }
    }

    /// Uplink of zero forces every source to publish nothing.
    #[test]
    fn zero_uplink_publishes_nothing() {
        let p = table1_problem([(0, 5_000), (0, 5_000), (0, 5_000)]);
        let sol = solve(&p, &SolverConfig::default());
        sol.validate(&p).unwrap();
        assert_eq!(sol.total_qoe, 0.0);
        for c in [1, 2, 3] {
            assert!(sol.policies(SourceId::video(ClientId(c))).is_empty());
        }
    }

    /// Priority boosts steer the knapsack: under a tight downlink the boosted
    /// publisher's stream is kept (the "speaker first" QoE weighting of §4.4).
    #[test]
    fn priority_boost_protects_speaker() {
        let ladder = ladders::paper_table1();
        let [spk, other, sub] = [ClientId(1), ClientId(2), ClientId(3)];
        let build = |boost: f64| {
            Problem::new(
                vec![
                    ClientSpec::new(spk, kbps(5_000), kbps(5_000), ladder.clone()),
                    ClientSpec::new(other, kbps(5_000), kbps(5_000), ladder.clone()),
                    ClientSpec::new(sub, kbps(5_000), kbps(900), ladder.clone()),
                ],
                vec![
                    Subscription::new(sub, SourceId::video(spk), Resolution::R720)
                        .with_boost(boost),
                    Subscription::new(sub, SourceId::video(other), Resolution::R720),
                ],
            )
            .unwrap()
        };
        // Unboosted: 900 Kbps downlink splits across both (800K impossible:
        // 800+100; the knapsack finds the best mix).
        let base = solve(&build(1.0), &SolverConfig::default());
        // Heavily boosted: the speaker gets the dominant share.
        let boosted = solve(&build(10.0), &SolverConfig::default());
        boosted.validate(&build(10.0)).unwrap();
        let spk_rate_base =
            base.received_from(sub, SourceId::video(spk), 0).map_or(Bitrate::ZERO, |r| r.bitrate);
        let spk_rate_boost = boosted
            .received_from(sub, SourceId::video(spk), 0)
            .map_or(Bitrate::ZERO, |r| r.bitrate);
        assert!(
            spk_rate_boost >= spk_rate_base,
            "boost must not lower the speaker's stream ({spk_rate_base} -> {spk_rate_boost})"
        );
        assert_eq!(spk_rate_boost, kbps(800), "speaker takes the largest fitting stream");
    }
}
