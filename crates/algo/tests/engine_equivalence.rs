//! Property test: the incremental [`SolveEngine`] is bit-identical to the
//! one-shot solver on every reuse path.
//!
//! For each random instance the engine is driven through the controller's
//! real access patterns — cold solve, warm re-solve after a single-source
//! ladder reduction, warm re-solve after a single-client bandwidth delta —
//! and each resulting `(Solution, SolveTrace)` pair must equal a fresh
//! `solver::solve_traced` on the same problem exactly (f64 equality, not
//! tolerance), with zero auditor findings. Random conference *batches* are
//! then pushed through [`BatchScheduler`] at 2 and 8 workers, cold and
//! warm, and must stay bit-identical to the sequential path too.
//!
//! Instances here are larger than `solver_vs_brute`'s (no exhaustive
//! baseline to keep tractable): up to 6 clients, 4 publishers, 9-rung
//! ladders, and virtual-publisher tags.
//!
//! A third property interleaves §7 fallback interludes (rounds where the
//! controller never consults the engine) with speaker changes — boost-only
//! f64 edits to otherwise identical subscriptions — and pins the
//! whole-solve fingerprint fast path from both sides: an unchanged problem
//! must recompute zero DP rows, and a boost-only change must invalidate
//! the memo rather than serve a stale solution.

use gso_algo::audit::{audit_traced, report};
use gso_algo::{
    ladders, solver, BatchConfig, BatchScheduler, ClientSpec, Ladder, Problem, Resolution,
    Solution, SolveEngine, SolveTrace, SolverConfig, SourceId, Subscription,
};
use gso_util::digest::StateDigest;
use gso_util::{Bitrate, ClientId};
use proptest::prelude::*;
use std::sync::Arc;

/// A batch job: one traced engine solve that owns its engine and problem
/// and hands the engine back, memo warmed, with the output.
fn traced_solve(
    mut engine: SolveEngine,
    problem: Arc<Problem>,
) -> impl FnOnce() -> (SolveEngine, Solution, SolveTrace) + Send + 'static {
    move || {
        let (solution, trace) = engine.solve_traced(&problem);
        (engine, solution, trace)
    }
}

fn arb_ladder() -> impl Strategy<Value = Ladder> {
    (0usize..4).prop_map(|pick| match pick {
        0 => ladders::paper_table1(),
        1 => ladders::coarse3(),
        2 => ladders::uniform(&[Resolution::R180, Resolution::R360, Resolution::R720], 2),
        _ => ladders::uniform(&[Resolution::R180, Resolution::R360], 3),
    })
}

fn arb_problem() -> impl Strategy<Value = Problem> {
    (3usize..=6).prop_flat_map(|n| {
        let pubs = 2usize..=n.min(4);
        let bw = prop::collection::vec((200u64..6_000, 300u64..8_000), n);
        let subs = prop::collection::vec(prop::bool::ANY, n * n);
        let caps = prop::collection::vec(0usize..3, n * n);
        let tags = prop::collection::vec(prop::bool::ANY, n);
        let ladder = arb_ladder();
        (Just(n), pubs, bw, subs, caps, tags, ladder).prop_map(
            |(n, pubs, bw, subs, caps, tags, ladder)| {
                let resolutions = [Resolution::R180, Resolution::R360, Resolution::R720];
                let clients: Vec<ClientSpec> = bw
                    .iter()
                    .enumerate()
                    .map(|(i, &(up, down))| {
                        let mut c = ClientSpec::new(
                            ClientId(i as u32 + 1),
                            Bitrate::from_kbps(up),
                            Bitrate::from_kbps(down),
                            ladder.clone(),
                        );
                        if i >= pubs {
                            c.sources.clear();
                        }
                        c
                    })
                    .collect();
                let mut subscriptions = Vec::new();
                for i in 0..n {
                    for j in 0..pubs {
                        if i != j && subs[i * n + j] {
                            let source = SourceId::video(ClientId(j as u32 + 1));
                            let sub = Subscription::new(
                                ClientId(i as u32 + 1),
                                source,
                                resolutions[caps[i * n + j]],
                            );
                            subscriptions.push(sub);
                            // Occasionally a second, tagged subscription to
                            // the same source (speaker-first thumbnails).
                            if tags[i] && j == 0 {
                                subscriptions.push(
                                    Subscription::new(
                                        ClientId(i as u32 + 1),
                                        source,
                                        Resolution::R180,
                                    )
                                    .with_tag(1),
                                );
                            }
                        }
                    }
                }
                Problem::new(clients, subscriptions).expect("generated problem is valid")
            },
        )
    })
}

/// Remove the top resolution from the first publisher ladder that has more
/// than one resolution; `None` if no ladder can shrink.
fn reduced_variant(base: &Problem) -> Option<Problem> {
    let mut clients = base.clients().to_vec();
    let idx = clients
        .iter()
        .position(|c| c.sources.first().is_some_and(|s| s.ladder.resolutions().len() > 1))?;
    let ladder = &mut clients[idx].sources[0].ladder;
    let top = *ladder.resolutions().last().expect("non-empty ladder");
    *ladder = ladder.without_resolution(top);
    Some(Problem::new(clients, base.subscriptions().to_vec()).expect("reduced variant valid"))
}

/// Scale the last client's downlink to 60 %.
fn bandwidth_variant(base: &Problem) -> Problem {
    let mut clients = base.clients().to_vec();
    let c = clients.last_mut().expect("non-empty problem");
    c.downlink = Bitrate::from_bps(c.downlink.as_bps() * 6 / 10);
    Problem::new(clients, base.subscriptions().to_vec()).expect("bandwidth variant valid")
}

/// Apply the controller's speaker boost to every untagged subscription of
/// the problem's first-subscribed source, leaving everything else —
/// including the subscription set's shape — identical. The variant differs
/// from the base only in `qoe_boost` f64s, exactly what a speaker change
/// produces through `GlobalPicture::to_problem`.
fn speaker_variant(base: &Problem, boost: f64) -> Problem {
    let target = base.subscriptions().first().expect("caller checked non-empty").source;
    let subs: Vec<Subscription> = base
        .subscriptions()
        .iter()
        .map(|s| {
            let mut s = *s;
            if s.source == target && s.tag == 0 {
                s.qoe_boost = boost;
            }
            s
        })
        .collect();
    Problem::new(base.clients().to_vec(), subs).expect("speaker variant valid")
}

/// Engine output on `problem` must match a fresh traced solve exactly and
/// audit clean.
fn check(
    engine: &mut SolveEngine,
    problem: &Problem,
    cfg: &SolverConfig,
    label: &str,
) -> Result<(), String> {
    let (got_sol, got_trace) = engine.solve_traced(problem);
    let (want_sol, want_trace) = solver::solve_traced(problem, cfg);
    prop_assert!(
        got_sol == want_sol,
        "{label}: solution diverged\n engine: {got_sol:?}\n solver: {want_sol:?}"
    );
    prop_assert!(
        got_trace == want_trace,
        "{label}: trace diverged\n engine: {got_trace:?}\n solver: {want_trace:?}"
    );
    // Structural equality must also survive the digest projection: the
    // stable hash is what `check digest` and the double-run comparator
    // compare, so it must agree wherever `==` does.
    prop_assert!(
        got_sol.state_digest() == want_sol.state_digest(),
        "{label}: solution digest diverged despite structural equality"
    );
    prop_assert!(
        got_trace.state_digest() == want_trace.state_digest(),
        "{label}: trace digest diverged despite structural equality"
    );
    let findings = audit_traced(problem, &got_sol, &got_trace);
    prop_assert!(findings.is_empty(), "{}: auditor findings:\n{}", label, report(&findings));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_reuse_paths_match_sequential_solver(problem in arb_problem()) {
        let cfg = SolverConfig::default();
        let mut engine = SolveEngine::new(cfg.clone());

        // Cold, then warm full-hit on the identical problem.
        check(&mut engine, &problem, &cfg, "cold")?;
        check(&mut engine, &problem, &cfg, "warm full-hit")?;

        // Warm after a single-source ladder reduction, and back.
        if let Some(reduced) = reduced_variant(&problem) {
            check(&mut engine, &reduced, &cfg, "warm after reduction")?;
            check(&mut engine, &problem, &cfg, "warm after un-reduction")?;
        }

        // Warm after a single-client bandwidth delta, and back.
        let shrunk = bandwidth_variant(&problem);
        check(&mut engine, &shrunk, &cfg, "warm after bandwidth delta")?;
        check(&mut engine, &problem, &cfg, "warm after bandwidth restore")?;
    }

    /// Interleave fallback interludes and speaker changes against one warm
    /// engine. Ops: 0 = re-solve unchanged, 1 = speaker on, 2 = speaker
    /// off, 3 = fallback interlude (the controller serves the §7 template
    /// and never consults the engine, while the speaker state drifts
    /// underneath it). Every solve must equal a fresh solver run, an
    /// unchanged re-solve must recompute zero DP rows (the fast path), and
    /// a boost-only change — including one that happened entirely inside a
    /// fallback interlude — must recompute rows, proving the fingerprint
    /// keys on the boost f64s and not just the subscription shape.
    #[test]
    fn fingerprint_invalidates_across_fallback_and_speaker_interleaving(
        problem in arb_problem(),
        ops in prop::collection::vec(0u8..=3, 4..16),
    ) {
        prop_assume!(!problem.subscriptions().is_empty());
        let cfg = SolverConfig::default();
        let mut engine = SolveEngine::new(cfg.clone());
        let boosted = speaker_variant(&problem, gso_algo::qoe::SPEAKER_BOOST);

        check(&mut engine, &problem, &cfg, "cold")?;
        let mut speaker_on = false;
        let mut last_solved = false;
        for (i, op) in ops.iter().enumerate() {
            match op {
                1 => speaker_on = true,
                2 => speaker_on = false,
                3 => {
                    // Fallback interlude: no engine call; the next solve
                    // resumes from whatever the roster looks like by then.
                    speaker_on = !speaker_on;
                    continue;
                }
                _ => {}
            }
            let current = if speaker_on { &boosted } else { &problem };
            let before = engine.stats();
            check(&mut engine, current, &cfg, &format!("op {i} speaker={speaker_on}"))?;
            let rows = engine.stats().rows_recomputed - before.rows_recomputed;
            let iters = engine.stats().iterations - before.iterations;
            if last_solved == speaker_on {
                // The zero-work guarantee holds for single-iteration solves
                // (the steady state); a solve that replays ladder
                // reductions legitimately recomputes the reduced sources'
                // subscribers, because iteration 1 runs on the full ladder.
                if iters == 1 {
                    prop_assert!(
                        rows == 0,
                        "op {i}: unchanged problem must take the fingerprint fast path \
                         (recomputed {rows} rows)"
                    );
                }
            } else {
                prop_assert!(
                    rows > 0,
                    "op {i}: boost-only speaker change must invalidate the fingerprint, \
                     not serve the stale memo"
                );
            }
            last_solved = speaker_on;
        }
    }

    /// Random conference batches through the scheduler, cold then warm:
    /// every result must be bit-identical to a sequential engine driven
    /// over the same sequence, at every worker count.
    #[test]
    fn batch_scheduler_matches_sequential_engine(
        problems in prop::collection::vec(arb_problem(), 1..5)
    ) {
        let cfg = SolverConfig::default();
        let batch: Vec<Arc<Problem>> = problems.into_iter().map(Arc::new).collect();
        let warm_batch: Vec<Arc<Problem>> =
            batch.iter().map(|p| Arc::new(bandwidth_variant(p))).collect();

        // Sequential reference: one engine per conference, cold then warm.
        let reference: Vec<_> = batch
            .iter()
            .zip(&warm_batch)
            .map(|(cold, warm)| {
                let mut engine = SolveEngine::new(cfg.clone());
                let c = engine.solve_traced(cold);
                let w = engine.solve_traced(warm);
                (c, w)
            })
            .collect();

        for workers in [2usize, 8] {
            let mut sched = BatchScheduler::new(&BatchConfig { workers });
            let jobs = batch
                .iter()
                .map(|p| traced_solve(SolveEngine::new(cfg.clone()), Arc::clone(p)))
                .collect();
            let cold = sched.run_batch(jobs);
            // Check the cold pass, then re-batch with the *returned* engines
            // so the warm pass runs on warm memos; must still equal the warm
            // sequential reference.
            let warm_jobs = cold
                .into_iter()
                .zip(&warm_batch)
                .zip(&reference)
                .map(|(((engine, solution, trace), p), ((ref_sol, ref_trace), _))| {
                    prop_assert!(
                        solution == *ref_sol && solution.state_digest() == ref_sol.state_digest(),
                        "{workers} workers: cold batch solution diverged"
                    );
                    prop_assert!(
                        trace == *ref_trace && trace.state_digest() == ref_trace.state_digest(),
                        "{workers} workers: cold batch trace diverged"
                    );
                    Ok(traced_solve(engine, Arc::clone(p)))
                })
                .collect::<Result<_, _>>()?;
            let warm = sched.run_batch(warm_jobs);
            for ((_, solution, trace), (_, (ref_sol, ref_trace))) in warm.into_iter().zip(&reference) {
                prop_assert!(
                    solution == *ref_sol && solution.state_digest() == ref_sol.state_digest(),
                    "{workers} workers: warm batch solution diverged"
                );
                prop_assert!(
                    trace == *ref_trace && trace.state_digest() == ref_trace.state_digest(),
                    "{workers} workers: warm batch trace diverged"
                );
            }
        }
    }
}
