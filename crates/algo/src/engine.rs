//! Incremental driver for the GSO control algorithm.
//!
//! [`SolveEngine`] produces exactly the same solutions and [`SolveTrace`]s as
//! [`solver::solve`] / [`solver::solve_traced`] — bit-identical, enforced by
//! sharing the Merge/Reduction/assembly code through the solver's internal
//! ladder-view trait — but amortizes work across calls:
//!
//! * **MCKP memoization** — each subscriber keeps a [`McState`] holding the
//!   per-class DP checkpoint rows of its last knapsack. A Reduction only
//!   changes the classes of that source's subscribers, so everyone else's
//!   Step 1 is a pure cache hit, and even affected subscribers recompute only
//!   the DP suffix from the changed class. Across controller ticks the same
//!   memo absorbs the common case where only one client's bandwidth estimate
//!   moved (the ≥15 % event trigger keeps most clients unchanged).
//! * **Allocation hygiene** — no `problem.clone()` per solve: Reduction
//!   results go into a small ladder *overlay* on the borrowed base problem.
//!   Per-client class lists are built into flat reusable scratch buffers;
//!   each source's ladder is quantized once per iteration into a shared
//!   *item template* instead of once per subscriber; Step-1 requests land in
//!   reusable per-source buckets instead of a fresh `BTreeMap` per
//!   iteration; retired clients' DP slabs return to an [`McPool`] that seeds
//!   joining clients (and, via the batch scheduler, other conferences).
//! * **Batching** — one engine per conference, driven sequentially here or
//!   interleaved across conferences by [`crate::batch::BatchScheduler`],
//!   which owns persistent workers and merges results deterministically.
//!   Per-solve threading was removed: a warm re-solve is microseconds, far
//!   below any spawn/wake cost, so parallelism pays at the conference
//!   granularity, not inside one solve.
//!
//! Dirty detection needs no external versioning protocol: a subscriber's
//! class items (quantized weight + boosted value per candidate stream) *are*
//! the cache key. Rebuilding them is `O(Σ ladder len)` per client — orders of
//! magnitude cheaper than the `O(items × W)` DP they guard — and comparing
//! them against the memo inside [`McState::solve_flat`] finds the first
//! changed class exactly.

use crate::mckp::{self, McItem, McOutcome, McPool, McReuse, McState};
use crate::problem::{Problem, SourceId, Subscription};
use crate::solution::Solution;
use crate::solver::{
    assemble, convergence_bound, merge_step, reduced_ladder, uplink_step, IterationTrace,
    LadderView, ReductionTrace, Request, SolveTrace, SolverConfig,
};
use crate::types::{Ladder, StreamSpec};
use gso_util::{Bitrate, ClientId};
use std::collections::BTreeMap;

/// Cumulative work counters, for benchmarks and regression tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Completed [`SolveEngine::solve`] calls.
    pub solves: u64,
    /// Knapsack–Merge–Reduction iterations across all solves.
    pub iterations: u64,
    /// Per-subscriber knapsack invocations (clients with subscriptions only).
    pub knapsacks: u64,
    /// Knapsacks answered entirely from cache (identical classes+capacity).
    pub full_hits: u64,
    /// Knapsacks that re-ran only the backtrack (capacity moved within the
    /// stored table).
    pub backtracks: u64,
    /// Knapsacks that recomputed only a suffix of their DP rows.
    pub suffix_recomputes: u64,
    /// Knapsacks computed from scratch.
    pub fresh_recomputes: u64,
    /// DP class-rows recomputed (the dominant cost unit of Step 1).
    pub rows_recomputed: u64,
    /// DP class-rows reused from the memo.
    pub rows_reused: u64,
}

/// Per-subscriber cache entry: the memoized DP plus flat scratch buffers.
#[derive(Debug, Default)]
struct ClientEntry {
    /// Incremental MCKP state (checkpoint rows + flat memo keys).
    mc: McState,
    /// Flat quantized items of the current class list, rebuilt each call.
    items: Vec<McItem>,
    /// `ranges[c]` delimits class `c` inside `items`.
    ranges: Vec<(usize, usize)>,
    /// Candidate spec behind each flat item (for request materialization).
    specs: Vec<StreamSpec>,
    /// Outcome of the last knapsack, consumed by the stats merge.
    last: Option<McOutcome>,
    /// Input fingerprint: the subscription slice this entry's scratch and DP
    /// were last built from. Together with `downlink_key` and `tmpl_rev_key`
    /// it captures *every* input `solve_flat` sees, so a match lets Step 1
    /// skip the item rebuild and the DP call outright and materialize
    /// requests from the cached choices.
    subs_key: Vec<Subscription>,
    /// Downlink the cached choices were solved at.
    downlink_key: Bitrate,
    /// Engine template revision the cache was built against; `0` never
    /// matches (revisions start at 1), marking the entry invalid.
    tmpl_rev_key: u64,
}

/// Debug-build invariant check on an assembled solution. Both asserts
/// compile to nothing in release builds, so the validation cone is not part
/// of the hot path.
// lint: cold_path(reason = "debug_assertions-only invariant check; release builds compile both asserts out")
fn debug_validate(problem: &Problem, solution: &Solution, max_iters: usize) {
    debug_assert!(
        solution.validate(problem).is_ok(),
        "engine emitted an invalid solution: {:?}",
        solution.validate(problem)
    );
    debug_assert!(
        solution.iterations <= max_iters,
        "engine exceeded the convergence bound: {} > {max_iters}",
        solution.iterations
    );
    let _ = (problem, solution, max_iters);
}

/// Retire a cache entry: its DP slab returns to the pool, its scratch is
/// cleared (capacity kept) and parked in the spare list, and its input
/// fingerprint is invalidated so a recycled entry can never false-hit.
fn retire_entry(pool: &mut McPool, spare: &mut Vec<ClientEntry>, mut entry: ClientEntry) {
    pool.retire(std::mem::take(&mut entry.mc));
    entry.items.clear();
    entry.ranges.clear();
    entry.specs.clear();
    entry.last = None;
    entry.subs_key.clear();
    entry.tmpl_rev_key = 0;
    // lint: allow(hot-alloc, reason = "membership-change path only; spare list is bounded by peak roster size")
    spare.push(entry);
}

/// Reduction overlay: the base problem's ladders with this solve's shrunken
/// ones on top. Replaces the one-shot solver's `problem.clone()`.
struct Overlay<'a> {
    base: &'a Problem,
    reduced: BTreeMap<SourceId, Ladder>,
}

impl LadderView for Overlay<'_> {
    fn ladder_of(&self, source: SourceId) -> Option<&Ladder> {
        if let Some(l) = self.reduced.get(&source) {
            return Some(l);
        }
        self.base.source(source).map(|s| &s.ladder)
    }
}

/// A reusable solver instance that carries MCKP memos, scratch buffers and
/// work statistics across [`solve`](Self::solve) calls.
#[derive(Debug)]
pub struct SolveEngine {
    cfg: SolverConfig,
    /// Per-client caches, ascending by id (mirrors `Problem::clients()`).
    caches: Vec<(ClientId, ClientEntry)>,
    /// Retired DP slabs, recycled into joining clients' entries.
    pool: McPool,
    /// Retired scratch buffers (items/ranges/specs) awaiting a new client.
    spare: Vec<ClientEntry>,
    /// Sources with ≥1 candidate template this iteration, ascending.
    src_ids: Vec<SourceId>,
    /// Flat per-source item templates: each source's current ladder specs
    /// paired with their pre-quantized weights, rebuilt once per iteration
    /// and shared by every subscriber of that source.
    tmpl: Vec<(StreamSpec, u64)>,
    /// `tmpl_ranges[i]` delimits `src_ids[i]`'s slice of the template slab.
    tmpl_ranges: Vec<(u32, u32)>,
    /// Monotone revision of the template slabs: bumped whenever a rebuild
    /// produces different content (ladder reduction, roster change, new
    /// solve after a reduced solve). Client fingerprints pin this, so a
    /// client's cache can only hit against the exact templates it saw.
    tmpl_rev: u64,
    /// Previous iteration's template slabs, kept to detect content changes
    /// without allocating (double-buffered via swap).
    prev_src_ids: Vec<SourceId>,
    prev_tmpl: Vec<(StreamSpec, u64)>,
    prev_tmpl_ranges: Vec<(u32, u32)>,
    /// `buckets[i]` collects Step-1 requests for `src_ids[i]`.
    buckets: Vec<Vec<Request>>,
    /// Scratch for uplink-repaired client ids, reused across iterations
    /// (moved into the trace — and so re-grown — only when tracing).
    repaired: Vec<ClientId>,
    stats: EngineStats,
}

impl SolveEngine {
    /// A fresh engine (cold caches) for the given solver configuration.
    #[must_use]
    pub fn new(cfg: SolverConfig) -> Self {
        SolveEngine {
            cfg,
            caches: Vec::new(),
            pool: McPool::new(),
            spare: Vec::new(),
            src_ids: Vec::new(),
            tmpl: Vec::new(),
            tmpl_ranges: Vec::new(),
            tmpl_rev: 1,
            prev_src_ids: Vec::new(),
            prev_tmpl: Vec::new(),
            prev_tmpl_ranges: Vec::new(),
            buckets: Vec::new(),
            repaired: Vec::new(),
            stats: EngineStats::default(),
        }
    }

    /// The solver configuration this engine applies.
    #[must_use]
    pub fn config(&self) -> &SolverConfig {
        &self.cfg
    }

    /// Cumulative work counters since construction (or the last
    /// [`reset_stats`](Self::reset_stats)).
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Zero the work counters (cache contents are kept).
    pub fn reset_stats(&mut self) {
        self.stats = EngineStats::default();
    }

    /// Drop every memoized DP table, forcing the next solve cold. The slabs
    /// go back to the pool, so the rebuild itself stays allocation-light.
    pub fn clear_cache(&mut self) {
        for (_, entry) in self.caches.drain(..) {
            retire_entry(&mut self.pool, &mut self.spare, entry);
        }
    }

    /// Detach this engine's DP-slab pool, e.g. to hand it to a scheduler's
    /// cross-conference reservoir. The engine keeps its live caches.
    pub fn take_pool(&mut self) -> McPool {
        std::mem::take(&mut self.pool)
    }

    /// Merge a pool of retired DP slabs into this engine's pool; joining
    /// clients are seeded from it before touching the allocator.
    pub fn absorb_pool(&mut self, pool: McPool) {
        self.pool.absorb(pool);
    }

    /// Tear the engine down into its recycled slabs: every cached client
    /// state is retired into the pool, which is returned for reuse by other
    /// engines (cross-conference recycling on conference teardown).
    #[must_use]
    pub fn into_pool(mut self) -> McPool {
        self.clear_cache();
        self.pool
    }

    /// Solve the orchestration problem. Output is bit-identical to
    /// [`solver::solve`] on the same problem and configuration.
    // lint: hot_path(warm-resolve)
    pub fn solve(&mut self, problem: &Problem) -> Solution {
        self.solve_impl(problem, None)
    }

    /// Like [`solve`](Self::solve), additionally returning the
    /// [`SolveTrace`]; both are bit-identical to [`solver::solve_traced`].
    // lint: hot_path(warm-resolve-traced)
    pub fn solve_traced(&mut self, problem: &Problem) -> (Solution, SolveTrace) {
        let mut trace = SolveTrace::default();
        let solution = self.solve_impl(problem, Some(&mut trace));
        (solution, trace)
    }

    fn solve_impl(&mut self, problem: &Problem, mut trace: Option<&mut SolveTrace>) -> Solution {
        self.reconcile(problem);
        self.stats.solves += 1;
        // lint: allow(hot-alloc, reason = "empty-map constructor does not allocate; entries appear only on ladder reduction")
        let mut overlay = Overlay { base: problem, reduced: BTreeMap::new() };
        let max_iters: usize = 1 + convergence_bound(problem);

        for iteration in 1..=max_iters {
            self.stats.iterations += 1;
            self.knapsack_step(problem, &overlay);
            // Only sources somebody requested from participate in the merge;
            // skipping empty buckets keeps the policy map's key set (and so
            // every downstream digest) identical to the sequential path.
            let mut policies = merge_step(
                self.src_ids
                    .iter()
                    .zip(&self.buckets)
                    .filter(|(_, b)| !b.is_empty())
                    .map(|(s, b)| (*s, b.as_slice())),
            );

            let mut iter_trace = trace.as_ref().map(|_| IterationTrace {
                requests: self
                    .src_ids
                    .iter()
                    .zip(&self.buckets)
                    .filter(|(_, b)| !b.is_empty())
                    // lint: allow(hot-alloc, reason = "solve-trace capture; allocates only when the caller requested tracing")
                    .map(|(s, b)| (*s, b.clone()))
                    // lint: allow(hot-alloc, reason = "solve-trace capture; allocates only when the caller requested tracing")
                    .collect(),
                merged: policies
                    .iter()
                    // lint: allow(hot-alloc, reason = "solve-trace capture; allocates only when the caller requested tracing")
                    .map(|(src, ps)| (*src, ps.iter().map(|p| (p.resolution, p.bitrate)).collect()))
                    // lint: allow(hot-alloc, reason = "solve-trace capture; allocates only when the caller requested tracing")
                    .collect(),
                // lint: allow(hot-alloc, reason = "empty-vec constructor does not allocate")
                repaired: Vec::new(),
                reduction: None,
            });

            self.repaired.clear();
            let reduction = uplink_step(
                problem.clients(),
                &overlay,
                &mut policies,
                self.cfg.unit,
                &mut self.repaired,
            );
            if let Some(t) = iter_trace.as_mut() {
                t.repaired = std::mem::take(&mut self.repaired);
            }

            if let Some((source, res)) = reduction {
                let shrunk = reduced_ladder(&overlay, source, res);
                if let Some(t) = iter_trace.take() {
                    if let Some(trace) = trace.as_mut() {
                        // lint: allow(hot-alloc, reason = "solve-trace capture; allocates only when the caller requested tracing")
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
                // lint: allow(hot-alloc, reason = "ladder reduction is the iteration-bounded slow branch, not the steady-state re-solve")
                overlay.reduced.insert(source, shrunk);
                continue;
            }

            if let Some(t) = iter_trace.take() {
                if let Some(trace) = trace.as_mut() {
                    // lint: allow(hot-alloc, reason = "solve-trace capture; allocates only when the caller requested tracing")
                    trace.iterations.push(t);
                }
            }

            let solution = assemble(problem, &overlay, policies, iteration);
            debug_validate(problem, &solution, max_iters);
            return solution;
        }

        // lint: allow(hot-panic, reason = "convergence proof: every iteration without a solution strictly shrinks one ladder, so max_iters bounds the loop")
        unreachable!("the reduction step strictly shrinks a ladder each iteration");
    }

    /// Align the cache vector with the problem's client list: entries for
    /// departed clients are retired to the pool, new clients are seeded from
    /// it, everyone else keeps their memo. The steady-state roster (no
    /// membership change) is a pure comparison — no moves, no allocation.
    fn reconcile(&mut self, problem: &Problem) {
        let clients = problem.clients();
        if self.caches.len() == clients.len()
            && self.caches.iter().zip(clients).all(|((id, _), c)| *id == c.id)
        {
            return;
        }
        let old = std::mem::take(&mut self.caches);
        // lint: allow(hot-alloc, reason = "membership-change path only; the steady-state roster short-circuits above")
        self.caches.reserve(clients.len());
        let mut old_iter = old.into_iter().peekable();
        for client in clients {
            while old_iter.peek().is_some_and(|(id, _)| *id < client.id) {
                let (_, entry) = old_iter.next().expect("invariant: just peeked a departed entry");
                retire_entry(&mut self.pool, &mut self.spare, entry);
            }
            if old_iter.peek().is_some_and(|(id, _)| *id == client.id) {
                let entry = old_iter.next().expect("invariant: just peeked");
                // lint: allow(hot-alloc, reason = "push into the capacity reserved above; never reallocates")
                self.caches.push(entry);
            } else {
                let mut entry = self.spare.pop().unwrap_or_default();
                entry.mc = self.pool.acquire();
                // lint: allow(hot-alloc, reason = "push into the capacity reserved above; never reallocates")
                self.caches.push((client.id, entry));
            }
        }
        for (_, entry) in old_iter {
            retire_entry(&mut self.pool, &mut self.spare, entry);
        }
    }

    /// Rebuild the per-source item templates against the current overlay:
    /// each source's ladder specs with weights quantized once, shared by all
    /// of its subscribers. `O(Σ ladder len)` per iteration instead of per
    /// subscriber — on a 20-party mesh this removes ~95 % of the
    /// `div_ceil` quantization work from Step 1.
    fn build_templates(&mut self, problem: &Problem, overlay: &Overlay<'_>) {
        // Double-buffer the slabs so a rebuild can be diffed against the
        // previous iteration's content without allocating. Weights are a
        // pure function of the specs and the (fixed) quantization unit, so
        // they need no separate comparison.
        std::mem::swap(&mut self.src_ids, &mut self.prev_src_ids);
        std::mem::swap(&mut self.tmpl, &mut self.prev_tmpl);
        std::mem::swap(&mut self.tmpl_ranges, &mut self.prev_tmpl_ranges);
        self.src_ids.clear();
        for client in problem.clients() {
            for s in &client.sources {
                // lint: allow(hot-alloc, reason = "per-iteration scratch retained across solves; steady-state pushes reuse capacity")
                self.src_ids.push(s.id);
            }
        }
        // Clients ascend by id, but a client's sources are not guaranteed
        // sorted among themselves; the merge/digest contract needs ascending
        // SourceId order.
        self.src_ids.sort_unstable();
        self.src_ids.dedup();

        self.tmpl.clear();
        self.tmpl_ranges.clear();
        let unit = self.cfg.unit;
        for src in &self.src_ids {
            let lo = self.tmpl.len() as u32;
            if let Some(ladder) = overlay.ladder_of(*src) {
                for spec in ladder.specs() {
                    // lint: allow(hot-alloc, reason = "per-iteration scratch retained across solves; steady-state pushes reuse capacity")
                    self.tmpl.push((*spec, mckp::quantize_weight(spec.bitrate, unit)));
                }
            }
            // lint: allow(hot-alloc, reason = "per-iteration scratch retained across solves; steady-state pushes reuse capacity")
            self.tmpl_ranges.push((lo, self.tmpl.len() as u32));
        }
        // Any content change (reduction overlay, roster edit, reverting to
        // the base ladders on a fresh solve) invalidates every client
        // fingerprint pinned to the old revision. Float compare is exact
        // here: identical ladders produce bit-identical specs.
        if self.src_ids != self.prev_src_ids
            || self.tmpl_ranges != self.prev_tmpl_ranges
            || self.tmpl != self.prev_tmpl
        {
            self.tmpl_rev += 1;
        }
        while self.buckets.len() < self.src_ids.len() {
            // lint: allow(hot-alloc, reason = "bucket list grows to the source count once; buckets themselves are recycled every iteration")
            self.buckets.push(Vec::new());
        }
        for bucket in &mut self.buckets {
            bucket.clear();
        }
    }

    /// Step 1 over all subscribers in ascending client order, materializing
    /// requests into the per-source buckets (identical content and order to
    /// the sequential solver's `BTreeMap` insertion).
    fn knapsack_step(&mut self, problem: &Problem, overlay: &Overlay<'_>) {
        self.build_templates(problem, overlay);
        let unit = self.cfg.unit;

        for (id, entry) in &mut self.caches {
            let subs = problem.subscriptions_of_slice(*id);
            if subs.is_empty() {
                continue;
            }
            let client = problem.client(*id).expect("invariant: caches were reconciled");
            self.stats.knapsacks += 1;

            // Fingerprint fast path: templates, subscriptions and downlink
            // together are *every* input the rebuild below and `solve_flat`
            // read, so a match means the cached choices/specs/ranges are
            // exactly what a re-solve would produce (it would be a Full hit
            // with untouched choices) — skip both and go straight to request
            // materialization.
            if entry.tmpl_rev_key == self.tmpl_rev
                && entry.downlink_key == client.downlink
                && entry.subs_key.as_slice() == subs
            {
                self.stats.full_hits += 1;
                self.stats.rows_reused += entry.ranges.len() as u64;
            } else {
                // Rebuild the flat class items from the templates. Classes in
                // deterministic (source, tag) order — the subscription order —
                // items ascending by bitrate as in the ladder; value =
                // `qoe × boost + presence` exactly as the sequential solver
                // computes it (plain mul+add; no FMA contraction).
                entry.items.clear();
                entry.ranges.clear();
                entry.specs.clear();
                for sub in subs {
                    let lo = entry.items.len();
                    if let Ok(si) = self.src_ids.binary_search(&sub.source) {
                        let &(tlo, thi) =
                            self.tmpl_ranges.get(si).expect("invariant: ranges mirror src_ids");
                        let tmpl = self
                            .tmpl
                            .get(tlo as usize..thi as usize)
                            .expect("invariant: template ranges index into the template slab");
                        for &(spec, weight) in tmpl {
                            if spec.resolution <= sub.max_resolution {
                                // lint: allow(hot-alloc, reason = "per-client scratch retained across solves; steady-state pushes reuse capacity")
                                entry.specs.push(spec);
                                // lint: allow(hot-alloc, reason = "per-client scratch retained across solves; steady-state pushes reuse capacity")
                                entry.items.push(McItem {
                                    weight,
                                    value: spec.qoe * sub.qoe_boost + sub.presence_bonus,
                                });
                            }
                        }
                    }
                    // lint: allow(hot-alloc, reason = "per-client scratch retained across solves; steady-state pushes reuse capacity")
                    entry.ranges.push((lo, entry.items.len()));
                }
                let out = entry.mc.solve_flat(
                    &entry.items,
                    &entry.ranges,
                    mckp::quantize_capacity(client.downlink, unit),
                );
                entry.last = Some(out);

                let k = out.classes as u64;
                match out.reuse {
                    McReuse::Full => {
                        self.stats.full_hits += 1;
                        self.stats.rows_reused += k;
                    }
                    McReuse::Backtrack => {
                        self.stats.backtracks += 1;
                        self.stats.rows_reused += k;
                    }
                    McReuse::Suffix { first_recomputed } => {
                        self.stats.suffix_recomputes += 1;
                        self.stats.rows_reused += first_recomputed as u64;
                        self.stats.rows_recomputed += k - first_recomputed as u64;
                    }
                    McReuse::Fresh => {
                        self.stats.fresh_recomputes += 1;
                        self.stats.rows_recomputed += k;
                    }
                }

                entry.subs_key.clear();
                // lint: allow(hot-alloc, reason = "per-client fingerprint retained across solves; steady-state refreshes reuse capacity")
                entry.subs_key.extend_from_slice(subs);
                entry.downlink_key = client.downlink;
                entry.tmpl_rev_key = self.tmpl_rev;
            }

            // Materialize this client's requests straight into the source
            // buckets. The DP solved exactly one class per subscription, so
            // choices and ranges zip against subs without residue.
            for (sub, (&choice, &(lo, _))) in
                subs.iter().zip(entry.mc.choices().iter().zip(entry.ranges.iter()))
            {
                if let Some(i) = choice {
                    let spec = *entry
                        .specs
                        .get(lo + i)
                        .expect("invariant: choice entries index into their class range");
                    let si = self
                        .src_ids
                        .binary_search(&sub.source)
                        .expect("invariant: subscriptions name sources with templates");
                    let bucket =
                        self.buckets.get_mut(si).expect("invariant: buckets mirror src_ids");
                    // lint: allow(hot-alloc, reason = "per-source request buckets are recycled across iterations; steady-state pushes reuse capacity")
                    bucket.push(Request { subscriber: *id, tag: sub.tag, spec });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladders;
    use crate::problem::{ClientSpec, Subscription};
    use crate::solver;
    use crate::types::Resolution;
    use gso_util::Bitrate;

    fn kbps(k: u64) -> Bitrate {
        Bitrate::from_kbps(k)
    }

    /// Full-mesh meeting: `n` clients, everyone subscribes to everyone.
    fn mesh(n: u32, downlinks: &dyn Fn(u32) -> u64) -> Problem {
        let ladder = ladders::paper_table1();
        let clients: Vec<ClientSpec> = (1..=n)
            .map(|i| ClientSpec::new(ClientId(i), kbps(2_000), kbps(downlinks(i)), ladder.clone()))
            .collect();
        let mut subs = Vec::new();
        for i in 1..=n {
            for j in 1..=n {
                if i != j {
                    subs.push(Subscription::new(
                        ClientId(i),
                        SourceId::video(ClientId(j)),
                        Resolution::R720,
                    ));
                }
            }
        }
        Problem::new(clients, subs).expect("valid mesh problem")
    }

    fn assert_identical(engine: &mut SolveEngine, problem: &Problem) {
        let (sol_e, trace_e) = engine.solve_traced(problem);
        let (sol_s, trace_s) = solver::solve_traced(problem, engine.config());
        assert_eq!(sol_e, sol_s);
        assert_eq!(trace_e, trace_s);
    }

    #[test]
    fn cold_solve_matches_solver() {
        let p = mesh(6, &|i| 400 + 300 * u64::from(i));
        let mut engine = SolveEngine::new(SolverConfig::default());
        assert_identical(&mut engine, &p);
        assert!(engine.stats().fresh_recomputes > 0);
    }

    #[test]
    fn warm_resolve_is_all_cache_hits() {
        let p = mesh(6, &|i| 400 + 300 * u64::from(i));
        let mut engine = SolveEngine::new(SolverConfig::default());
        engine.solve(&p);
        let sol1 = engine.solve(&p);
        let before = engine.stats();
        // Second warm solve with a converged (single-iteration) problem:
        // every knapsack must be a full hit.
        let sol2 = engine.solve(&p);
        let after = engine.stats();
        assert_eq!(sol1, sol2);
        if after.iterations - before.iterations == 1 {
            assert_eq!(after.full_hits - before.full_hits, after.knapsacks - before.knapsacks);
            assert_eq!(after.rows_recomputed, before.rows_recomputed);
        }
    }

    #[test]
    fn bandwidth_delta_only_recomputes_that_client() {
        let p = mesh(8, &|_| 1_500);
        let mut engine = SolveEngine::new(SolverConfig::default());
        engine.solve(&p);
        assert_eq!(engine.solve(&p).iterations, 1, "mesh must converge in one iteration");

        // Shrink client 3's downlink: its DP backtracks, everyone else hits.
        let mut clients: Vec<ClientSpec> = p.clients().to_vec();
        clients[2].downlink = kbps(1_200);
        let p2 = Problem::new(clients, p.subscriptions().to_vec()).expect("valid problem");
        let before = engine.stats();
        assert_identical(&mut engine, &p2);
        let after = engine.stats();
        assert_eq!(after.fresh_recomputes, before.fresh_recomputes);
        assert_eq!(after.suffix_recomputes, before.suffix_recomputes);
        assert_eq!(after.backtracks - before.backtracks, 1);
    }

    #[test]
    fn reduction_invalidates_only_subscribers_of_that_source() {
        // Client 1's uplink is too small for what subscribers want, forcing
        // Reductions on source 1; other sources' subscribers stay cached
        // after the first iteration.
        let ladder = ladders::paper_table1();
        let mut clients: Vec<ClientSpec> = (1..=6)
            .map(|i| ClientSpec::new(ClientId(i), kbps(2_000), kbps(2_500), ladder.clone()))
            .collect();
        clients[0].uplink = kbps(150);
        let mut subs = Vec::new();
        for i in 1..=6u32 {
            for j in 1..=6u32 {
                if i != j {
                    subs.push(Subscription::new(
                        ClientId(i),
                        SourceId::video(ClientId(j)),
                        Resolution::R720,
                    ));
                }
            }
        }
        let p = Problem::new(clients, subs).expect("valid problem");
        let mut engine = SolveEngine::new(SolverConfig::default());
        assert_identical(&mut engine, &p);
        let s = engine.stats();
        assert!(s.iterations > 1, "the tight uplink must force reductions");
        // Later iterations reuse rows: strictly fewer rows recomputed than
        // a from-scratch engine would need (iterations × knapsacks × rows).
        assert!(s.full_hits > 0, "non-subscribers must hit the cache across iterations");
        assert!(s.rows_reused > 0);
    }

    #[test]
    fn reconcile_handles_joins_and_leaves() {
        let p6 = mesh(6, &|_| 2_000);
        let mut engine = SolveEngine::new(SolverConfig::default());
        assert_identical(&mut engine, &p6);
        // A client leaves…
        let p5 = Problem::new(
            p6.clients()[..5].to_vec(),
            p6.subscriptions()
                .iter()
                .copied()
                .filter(|s| s.subscriber != ClientId(6) && s.source.client != ClientId(6))
                .collect(),
        )
        .expect("valid problem");
        assert_identical(&mut engine, &p5);
        // …and two new ones join, seeded from the departed client's slabs.
        assert!(engine.pool.idle_states() > 0, "the departed client's DP state must be pooled");
        let p8 = mesh(8, &|_| 2_000);
        assert_identical(&mut engine, &p8);
    }

    #[test]
    fn pool_roundtrip_survives_engine_teardown() {
        let p = mesh(5, &|_| 1_800);
        let mut engine = SolveEngine::new(SolverConfig::default());
        engine.solve(&p);
        let pool = engine.into_pool();
        assert_eq!(pool.idle_states(), 5, "every cached client retires into the pool");

        // A new engine seeded from the pool still matches the solver.
        let mut engine = SolveEngine::new(SolverConfig::default());
        engine.absorb_pool(pool);
        assert_identical(&mut engine, &p);
        assert_eq!(engine.pool.idle_states(), 0, "all five states were re-acquired");
    }

    #[test]
    fn table1_cases_identical_via_engine() {
        let ladder = ladders::paper_table1();
        for bw in [
            [(5_000u64, 1_400u64), (5_000, 3_000), (5_000, 500)],
            [(5_000, 5_000), (600, 5_000), (5_000, 5_000)],
            [(5_000, 5_000), (600, 700), (5_000, 5_000)],
        ] {
            let [a, b, c] = [ClientId(1), ClientId(2), ClientId(3)];
            let clients = vec![
                ClientSpec::new(a, kbps(bw[0].0), kbps(bw[0].1), ladder.clone()),
                ClientSpec::new(b, kbps(bw[1].0), kbps(bw[1].1), ladder.clone()),
                ClientSpec::new(c, kbps(bw[2].0), kbps(bw[2].1), ladder.clone()),
            ];
            let subs = vec![
                Subscription::new(a, SourceId::video(b), Resolution::R360),
                Subscription::new(a, SourceId::video(c), Resolution::R180),
                Subscription::new(b, SourceId::video(a), Resolution::R720),
                Subscription::new(b, SourceId::video(c), Resolution::R360),
                Subscription::new(c, SourceId::video(b), Resolution::R360),
                Subscription::new(c, SourceId::video(a), Resolution::R720),
            ];
            let p = Problem::new(clients, subs).expect("valid problem");
            let mut engine = SolveEngine::new(SolverConfig::default());
            // Cold and warm both match.
            assert_identical(&mut engine, &p);
            assert_identical(&mut engine, &p);
        }
    }
}
