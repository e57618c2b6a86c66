//! Unit model of the batch scheduler's concurrency shape, plus
//! digest-equivalence checks for `BatchScheduler` at 1/2/8 workers.
//!
//! The `model_*` tests replicate the exact concurrency shape of
//! `BatchScheduler::run_batch` — persistent workers stealing owned tasks
//! from per-worker deques and sending `(index, result)` pairs over a
//! channel, the submitter re-ordering by index — on a small, pure
//! computation. They run in seconds under Miri (`cargo miri test -p
//! gso-algo --test merge_model model_`), which checks the pattern for
//! undefined behaviour and data races; the `engine_*` tests then tie the
//! model back to the real scheduler by running traced engine solves as
//! `run_batch` jobs and asserting digest-identical solutions and traces
//! across worker counts.

use gso_algo::{
    ladders, solver, BatchConfig, BatchScheduler, ClientSpec, Problem, Resolution, Solution,
    SolveEngine, SolveTrace, SolverConfig, SourceId, Subscription,
};
use gso_util::digest::StateDigest;
use gso_util::{Bitrate, ClientId};
use std::collections::VecDeque;
use std::sync::mpsc::channel;
use std::sync::{Arc, Condvar, Mutex};

/// The computation each "conference job" performs in the model: something
/// order-sensitive enough that a wrong merge order or a lost task would
/// change the result.
fn work(id: u64) -> u64 {
    let mut acc = id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for i in 0..32 {
        acc = acc.rotate_left(7) ^ (id.wrapping_add(i));
    }
    acc
}

/// Sequential reference: process every entry in index order.
fn sequential(ids: &[u64]) -> Vec<u64> {
    ids.iter().map(|&id| work(id)).collect()
}

/// The scheduler's pattern: tasks distributed round-robin over per-worker
/// deques, workers popping their own front and stealing others' backs,
/// results sent as `(index, value)` and re-ordered by the submitter.
fn batched(ids: &[u64], workers: usize) -> Vec<u64> {
    #[allow(clippy::type_complexity)]
    let queues: Arc<Vec<Mutex<VecDeque<(usize, u64)>>>> =
        Arc::new((0..workers).map(|_| Mutex::new(VecDeque::new())).collect());
    for (idx, &id) in ids.iter().enumerate() {
        queues[idx % workers].lock().unwrap().push_back((idx, id));
    }
    let (tx, rx) = channel();
    std::thread::scope(|s| {
        for wid in 0..workers {
            let queues = Arc::clone(&queues);
            let tx = tx.clone();
            s.spawn(move || loop {
                let mut task = None;
                for off in 0..workers {
                    let mut q = queues[(wid + off) % workers].lock().unwrap();
                    task = if off == 0 { q.pop_front() } else { q.pop_back() };
                    if task.is_some() {
                        break;
                    }
                }
                let Some((idx, id)) = task else { return };
                tx.send((idx, work(id))).unwrap();
            });
        }
        drop(tx);
        // Index-keyed merge: identical to the sequential iteration order
        // regardless of which worker finished first.
        let mut out: Vec<Option<u64>> = vec![None; ids.len()];
        for (idx, value) in rx {
            assert!(out[idx].replace(value).is_none(), "task {idx} completed twice");
        }
        out.into_iter().map(|v| v.expect("every slot filled exactly once")).collect()
    })
}

#[test]
fn model_batched_merge_matches_sequential() {
    let ids: Vec<u64> = (0..37).map(|i| i * 3 + 1).collect();
    let expect = sequential(&ids);
    for workers in [1, 2, 3, 8] {
        assert_eq!(batched(&ids, workers), expect, "workers = {workers}");
    }
}

#[test]
fn model_more_workers_than_tasks_covers_all_entries() {
    let ids: Vec<u64> = (100..110).collect();
    assert_eq!(batched(&ids, 8), sequential(&ids));
    assert_eq!(batched(&ids, 16), sequential(&ids));
}

#[test]
fn model_single_entry_and_empty() {
    assert_eq!(batched(&[42], 8), sequential(&[42]));
    assert_eq!(batched(&[], 4), Vec::<u64>::new());
}

/// Regression model for the submission/`Condvar::wait` race in the
/// *persistent* scheduler. The scoped-thread model above tears its workers
/// down after one batch; the real `BatchScheduler` parks idle workers on a
/// condvar between batches, which opens the classic lost-wakeup window: a
/// worker observes empty queues, a submitter pushes tasks and calls
/// `notify_all`, and only then does the worker go to sleep — forever, since
/// the single-wakeup `Sink` submitter is itself blocked waiting for that
/// worker. `batch.rs` closes the window by re-scanning the queues *while
/// holding the signal lock* (the submitter must take that lock to bump the
/// epoch, so the worker either sees the tasks or sleeps strictly before the
/// notify). This test replicates that exact handshake on a pure
/// computation and hammers it with many tiny back-to-back batches; a lost
/// wakeup manifests as a hang (caught by the test/Miri timeout).
#[test]
fn model_lost_wakeup_submission_race() {
    const WORKERS: usize = 2;
    const ROUNDS: u64 = 24;

    struct Task {
        idx: usize,
        id: u64,
        out: Arc<Sink>,
    }
    struct SignalState {
        epoch: u64,
        shutdown: bool,
    }
    struct Shared {
        queues: Vec<Mutex<VecDeque<Task>>>,
        signal: Mutex<SignalState>,
        cv: Condvar,
    }
    struct SinkState {
        slots: Vec<Option<u64>>,
        remaining: usize,
    }
    struct Sink {
        state: Mutex<SinkState>,
        done: Condvar,
    }

    impl Shared {
        fn grab(&self, wid: usize) -> Option<Task> {
            let n = self.queues.len();
            for off in 0..n {
                let mut q = self.queues[(wid + off) % n].lock().unwrap();
                let task = if off == 0 { q.pop_front() } else { q.pop_back() };
                if task.is_some() {
                    return task;
                }
            }
            None
        }
    }

    fn run_task(task: &Task) {
        let value = work(task.id);
        let mut st = task.out.state.lock().unwrap();
        assert!(st.slots[task.idx].replace(value).is_none(), "task {} completed twice", task.idx);
        st.remaining -= 1;
        if st.remaining == 0 {
            task.out.done.notify_one();
        }
    }

    let shared = Arc::new(Shared {
        queues: (0..WORKERS).map(|_| Mutex::new(VecDeque::new())).collect(),
        signal: Mutex::new(SignalState { epoch: 0, shutdown: false }),
        cv: Condvar::new(),
    });

    std::thread::scope(|s| {
        for wid in 0..WORKERS {
            let shared = Arc::clone(&shared);
            s.spawn(move || loop {
                while let Some(task) = shared.grab(wid) {
                    run_task(&task);
                }
                let mut sig = shared.signal.lock().unwrap();
                if sig.shutdown {
                    return;
                }
                // The lost-wakeup defence under test: re-scan with the
                // signal lock held. Deleting this block makes the test hang.
                if let Some(task) = shared.grab(wid) {
                    drop(sig);
                    run_task(&task);
                    continue;
                }
                let epoch = sig.epoch;
                while sig.epoch == epoch && !sig.shutdown {
                    sig = shared.cv.wait(sig).unwrap();
                }
                if sig.shutdown {
                    return;
                }
            });
        }

        // Submitter: many tiny batches back to back, so workers repeatedly
        // drain everything and race their way back onto the condvar just as
        // the next submission lands.
        for round in 0..ROUNDS {
            let n = 1 + (round as usize) % 3;
            let ids: Vec<u64> = (0..n as u64).map(|i| round * 17 + i).collect();
            let sink = Arc::new(Sink {
                state: Mutex::new(SinkState { slots: vec![None; n], remaining: n }),
                done: Condvar::new(),
            });
            for (idx, &id) in ids.iter().enumerate() {
                shared.queues[idx % WORKERS].lock().unwrap().push_back(Task {
                    idx,
                    id,
                    out: Arc::clone(&sink),
                });
            }
            {
                let mut sig = shared.signal.lock().unwrap();
                sig.epoch = sig.epoch.wrapping_add(1);
                shared.cv.notify_all();
            }
            let mut st = sink.state.lock().unwrap();
            while st.remaining > 0 {
                st = sink.done.wait(st).unwrap();
            }
            let got: Vec<u64> =
                st.slots.iter().map(|v| v.expect("every slot filled exactly once")).collect();
            assert_eq!(got, sequential(&ids), "round {round}");
        }

        let mut sig = shared.signal.lock().unwrap();
        sig.shutdown = true;
        shared.cv.notify_all();
    });
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
