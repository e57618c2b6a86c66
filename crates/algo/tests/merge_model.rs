//! The batch scheduler under Miri, plus digest-equivalence checks for
//! `BatchScheduler` at 1/2/8 workers.
//!
//! The `model_*` tests drive the real `BatchScheduler::run_batch` on a
//! small, pure computation: many tiny back-to-back batches (the
//! lost-wakeup regression), more workers than jobs, and empty and
//! single-job batches. They are small enough for Miri (`cargo miri test -p
//! gso-algo --test merge_model model_`), which checks the pool for
//! undefined behaviour, data races and deadlocks; a lost wakeup fails the
//! back-to-back test on its timeout. The `engine_*` tests run
//! traced engine solves as `run_batch` jobs and assert digest-identical
//! solutions and traces across worker counts.

use gso_algo::{
    ladders, solver, BatchConfig, BatchScheduler, ClientSpec, Problem, Resolution, Solution,
    SolveEngine, SolveTrace, SolverConfig, SourceId, Subscription,
};
use gso_util::digest::StateDigest;
use gso_util::{Bitrate, ClientId};
use std::sync::Arc;

/// The computation each "conference job" performs: something
/// order-sensitive enough that a result in the wrong slot or a lost job
/// changes the output.
fn work(id: u64) -> u64 {
    let mut acc = id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for i in 0..32 {
        acc = acc.rotate_left(7) ^ (id.wrapping_add(i));
    }
    acc
}

/// Run one job per id on `sched` and return the results.
fn run(sched: &mut BatchScheduler, ids: &[u64]) -> Vec<u64> {
    sched.run_batch(ids.iter().map(|&id| move || work(id)).collect())
}

fn sequential(ids: &[u64]) -> Vec<u64> {
    ids.iter().map(|&id| work(id)).collect()
}

#[test]
fn model_results_in_submission_order_at_1_2_3_8_workers() {
    let ids: Vec<u64> = (0..37).map(|i| i * 3 + 1).collect();
    for workers in [1, 2, 3, 8] {
        let mut sched = BatchScheduler::new(&BatchConfig { workers });
        assert_eq!(run(&mut sched, &ids), sequential(&ids), "workers = {workers}");
    }
}

/// Lost-wakeup regression. Between batches every worker sleeps on the
/// pool's condvar; the window to guard is a worker that has found the
/// deques empty but is not yet asleep when the next batch is dealt. Tiny
/// batches back to back at 2 workers send workers racing back to sleep
/// just as the next submission lands. The submitter waits for its batch,
/// so once both workers miss one wakeup the rounds stop and the test fails
/// on its timeout. A pool that unlocks and yields between finding the
/// deques empty and waiting fails it natively on a 2-vCPU host; under Miri
/// the scheduler explores the interleavings of the 24 rounds instead.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "a submitter thread and a channel put a timeout on the rounds, so a lost wakeup fails the test instead of hanging it"
)]
fn model_tiny_back_to_back_batches_at_2_workers() {
    let rounds = if cfg!(miri) { 24 } else { 20_000 };
    let (done, finished) = std::sync::mpsc::channel();
    let submitter = std::thread::spawn(move || {
        let mut sched = BatchScheduler::new(&BatchConfig { workers: 2 });
        for round in 0..rounds {
            let ids: Vec<u64> = (0..1 + round % 3).map(|i| round * 17 + i).collect();
            assert_eq!(run(&mut sched, &ids), sequential(&ids), "round {round}");
        }
        done.send(()).expect("the test thread is waiting");
    });
    finished
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("every round completes: no lost wakeup, no failed round");
    submitter.join().expect("the submitter finished cleanly");
}

#[test]
fn model_more_workers_than_jobs() {
    let ids: Vec<u64> = (100..103).collect();
    let mut sched = BatchScheduler::new(&BatchConfig { workers: 8 });
    // Twice: the second batch is dealt starting at a different deque.
    assert_eq!(run(&mut sched, &ids), sequential(&ids));
    assert_eq!(run(&mut sched, &ids), sequential(&ids));
}

#[test]
fn model_empty_and_single_job_batches() {
    let mut sched = BatchScheduler::new(&BatchConfig { workers: 4 });
    assert_eq!(run(&mut sched, &[]), Vec::<u64>::new());
    assert_eq!(run(&mut sched, &[42]), sequential(&[42]));
    assert_eq!(run(&mut sched, &[]), Vec::<u64>::new());
}

// ---------------------------------------------------------------------------
// Scheduler digest equivalence across worker counts (not run under Miri; the
// CI Miri job filters to `model_`).
// ---------------------------------------------------------------------------

fn mesh_problem(n: u32) -> Problem {
    let ladder = ladders::paper_table1();
    let clients: Vec<ClientSpec> = (1..=n)
        .map(|i| {
            ClientSpec::new(
                ClientId(i),
                Bitrate::from_kbps(2_000 + u64::from(i) * 97),
                Bitrate::from_kbps(1_200 + u64::from(i) * 131),
                ladder.clone(),
            )
        })
        .collect();
    let mut subs = Vec::new();
    for a in 1..=n {
        for b in 1..=n {
            if a != b {
                let cap = if (a + b) % 3 == 0 { Resolution::R360 } else { Resolution::R720 };
                subs.push(Subscription::new(ClientId(a), SourceId::video(ClientId(b)), cap));
            }
        }
    }
    Problem::new(clients, subs).unwrap()
}

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

#[test]
fn engine_digest_identical_across_1_2_8_workers() {
    let conferences: Vec<Arc<Problem>> = (6..=9).map(|n| Arc::new(mesh_problem(n))).collect();
    let cfg = SolverConfig::default();
    let reference: Vec<_> = conferences
        .iter()
        .map(|p| {
            let (sol, trace) = solver::solve_traced(p, &cfg);
            (sol.state_digest(), trace.state_digest())
        })
        .collect();

    for workers in [1usize, 2, 8] {
        let mut sched = BatchScheduler::new(&BatchConfig { workers });
        let mut engines: Vec<SolveEngine> =
            conferences.iter().map(|_| SolveEngine::new(cfg.clone())).collect();
        // Cold batch, then warm re-batch with the returned engines: both
        // must match the sequential solver bit-for-bit.
        for pass in 0..2 {
            let jobs = engines
                .into_iter()
                .zip(&conferences)
                .map(|(engine, p)| traced_solve(engine, Arc::clone(p)))
                .collect();
            let results = sched.run_batch(jobs);
            for (ci, ((_, solution, trace), (sol_digest, trace_digest))) in
                results.iter().zip(&reference).enumerate()
            {
                assert_eq!(
                    solution.state_digest(),
                    *sol_digest,
                    "solution digest, workers={workers} pass={pass} conference={ci}"
                );
                assert_eq!(
                    trace.state_digest(),
                    *trace_digest,
                    "trace digest, workers={workers} pass={pass} conference={ci}"
                );
            }
            engines = results.into_iter().map(|(engine, ..)| engine).collect();
        }
        // Every job handed its own engine back: the warm pass hit its memo.
        for engine in &engines {
            let stats = engine.stats();
            assert_eq!(stats.solves, 2, "workers={workers}");
            assert!(stats.full_hits > 0, "the warm pass must hit the memo, workers={workers}");
        }
    }
}

#[test]
fn engine_digest_stable_across_repeated_construction() {
    let problem = Arc::new(mesh_problem(6));
    let cfg = SolverConfig::default();
    let digest = |workers: usize| {
        let mut sched = BatchScheduler::new(&BatchConfig { workers });
        let job = traced_solve(SolveEngine::new(cfg.clone()), Arc::clone(&problem));
        let (_, solution, _) = sched.run_batch(vec![job]).pop().expect("one result");
        solution.state_digest()
    };
    assert_eq!(digest(2), digest(2));
    assert_eq!(digest(2), digest(8));
}
