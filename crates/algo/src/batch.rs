//! Persistent cross-conference batch scheduler.
//!
//! The control plane ticks many conferences per tick. Each warm tick is
//! microseconds of work — far below the cost of spawning threads per tick
//! (the old `thread::scope` shard) — so parallelism only pays when a
//! *persistent* pool of workers interleaves whole-conference jobs.
//! [`BatchScheduler`] owns long-lived workers that park on a condvar between
//! ticks and drain a batch of jobs via work stealing when one arrives. A job
//! is any `FnOnce() -> T + Send` ([`BatchScheduler::run_batch`]);
//! [`BatchScheduler::solve_batch`] runs [`BatchJob`] solves through it.
//!
//! # Determinism
//!
//! Work stealing randomizes *which worker* runs a job and *when*, but not
//! the result:
//!
//! * Each job owns its state (a conference's [`SolveEngine`] and an `Arc`
//!   of its problem, or a whole controller) — no shared mutable state, so a
//!   job's output depends only on what it owns, never on scheduling order.
//! * Results are keyed by submission index and returned in submission order.
//!   Callers submit conferences in ascending id order, and each `Solution`
//!   carries its clients in ascending order, so the merged output is always
//!   in ascending (conference, client) order regardless of which worker
//!   finished first.
//!
//! The `engine_equivalence` proptests and the audit digest gate verify
//! bit-identical solutions and traces at 1/2/8 workers.
//!
//! # Memory discipline
//!
//! Conference teardown feeds engines back through [`recycle`]
//! (`BatchScheduler::recycle`), which strips them to their [`McPool`] slabs;
//! [`adopt_engine`](BatchScheduler::adopt_engine) seeds new conferences from
//! that reservoir so growth in one room reuses the DP tables of a room that
//! just emptied.

use crate::engine::SolveEngine;
use crate::mckp::McPool;
use crate::problem::Problem;
use crate::solution::Solution;
use crate::solver::{SolveTrace, SolverConfig};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
// lint: allow(unordered-merge, reason = "scheduler plumbing only; every job owns its state and results are re-keyed by submission index, so output is scheduling-order independent (engine_equivalence proptests + audit digest gate)")
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Scheduler sizing knobs.
#[derive(Debug, Clone, Default)]
pub struct BatchConfig {
    /// Worker threads. `0` (the default) uses
    /// [`std::thread::available_parallelism`].
    pub workers: usize,
}

/// One conference's solve request: the conference's engine (with its warm
/// memo), the problem snapshot, and whether to capture a [`SolveTrace`].
#[derive(Debug)]
pub struct BatchJob {
    /// The conference's persistent engine; returned inside [`BatchResult`].
    pub engine: SolveEngine,
    /// Problem snapshot to solve (shared, immutable).
    pub problem: Arc<Problem>,
    /// Capture the per-iteration trace (for the auditor) alongside the
    /// solution.
    pub traced: bool,
}

/// A completed [`BatchJob`]: the engine comes back (memo warmed by this
/// solve) together with its output.
#[derive(Debug)]
pub struct BatchResult {
    /// The engine that ran the job, ready for the next tick.
    pub engine: SolveEngine,
    /// The solve output — bit-identical to running the engine inline.
    pub solution: Solution,
    /// The trace, when the job asked for one.
    pub trace: Option<SolveTrace>,
}

/// A queued job, already bound to its batch's sink and slot.
type Task = Box<dyn FnOnce() + Send>;

/// Pool locks never guard a job (jobs run unlocked, under `catch_unwind`),
/// so only a bug in the pool itself could poison one.
const UNPOISONED: &str = "invariant: pool locks guard no job code, so they are never poisoned";

/// Completion sink for one batch: workers deposit results (or caught
/// panics) by submission index and the submitter sleeps until the *last*
/// deposit. One wakeup per batch instead of one per conference — on a
/// saturated host the per-result channel wake was a context-switch
/// ping-pong that dwarfed the warm jobs themselves.
struct Sink<T> {
    // lint: allow(unordered-merge, reason = "deposit order races, but slots are keyed by submission index and the submitter reads only after the last deposit — contents are order-independent")
    state: Mutex<SinkState<T>>,
    done: Condvar,
}

struct SinkState<T> {
    slots: Vec<Option<std::thread::Result<T>>>,
    remaining: usize,
}

impl<T> Sink<T> {
    fn deposit(&self, idx: usize, result: std::thread::Result<T>) {
        let mut st = self.state.lock().expect(UNPOISONED);
        let slot = st.slots.get_mut(idx).expect("invariant: task indices enumerate the batch");
        debug_assert!(slot.is_none(), "a task index completed twice");
        *slot = Some(result);
        st.remaining -= 1;
        if st.remaining == 0 {
            // Only the submitter waits on this condvar, and only for its
            // own batch's sink, so a single notify suffices.
            self.done.notify_one();
        }
    }
}

struct SignalState {
    /// Bumped once per submitted batch; sleeping workers wake on a change.
    epoch: u64,
    shutdown: bool,
}

struct Shared {
    /// One deque per worker; owners pop the front, thieves the back.
    // lint: allow(unordered-merge, reason = "work-stealing deques race only over which worker runs a job, never over job state; results are re-ordered by submission index")
    queues: Vec<Mutex<VecDeque<Task>>>,
    // lint: allow(unordered-merge, reason = "epoch/shutdown wakeup flag; carries no job state")
    signal: Mutex<SignalState>,
    cv: Condvar,
}

impl Shared {
    /// Grab a task: own queue front first, then steal from the others'
    /// backs. `None` only after every queue was observed empty.
    fn grab(&self, wid: usize) -> Option<Task> {
        let n = self.queues.len();
        for off in 0..n {
            let qi = (wid + off) % n;
            let mut q = self
                .queues
                .get(qi)
                .expect("invariant: queue index is reduced modulo queue count")
                .lock()
                .expect(UNPOISONED);
            let task = if off == 0 { q.pop_front() } else { q.pop_back() };
            if task.is_some() {
                return task;
            }
        }
        None
    }
}

fn worker_loop(wid: usize, shared: &Shared) {
    loop {
        // Fast path: drain without touching the signal lock.
        while let Some(task) = shared.grab(wid) {
            task();
        }
        let mut sig = shared.signal.lock().expect(UNPOISONED);
        if sig.shutdown {
            return;
        }
        // Re-scan while *holding* the signal lock: a submitter must take
        // this lock to bump the epoch, so either we see its tasks here or
        // we sleep strictly before its notify — no lost wakeup.
        if let Some(task) = shared.grab(wid) {
            drop(sig);
            task();
            continue;
        }
        let epoch = sig.epoch;
        while sig.epoch == epoch && !sig.shutdown {
            sig = shared.cv.wait(sig).expect(UNPOISONED);
        }
        if sig.shutdown {
            return;
        }
    }
}

/// Persistent work-stealing scheduler for cross-conference batches.
///
/// Workers are spawned once and live until the scheduler is dropped; a tick
/// submits one job per conference and receives the results in submission
/// order. See the module docs for the determinism argument.
#[derive(Debug)]
pub struct BatchScheduler {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Retired DP slabs from recycled engines, seeding new conferences.
    reservoir: McPool,
    /// Round-robin cursor for initial task placement.
    next_queue: usize,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").field("queues", &self.queues.len()).finish_non_exhaustive()
    }
}

impl BatchScheduler {
    /// Spawn the worker pool.
    #[must_use]
    pub fn new(cfg: &BatchConfig) -> Self {
        let workers = if cfg.workers == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            cfg.workers
        };
        let shared = Arc::new(Shared {
            // lint: allow(unordered-merge, reason = "work-stealing deques race only over which worker runs a job, never over job state; results are re-ordered by submission index")
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            // lint: allow(unordered-merge, reason = "epoch/shutdown wakeup flag; carries no job state")
            signal: Mutex::new(SignalState { epoch: 0, shutdown: false }),
            cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|wid| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gso-batch-{wid}"))
                    .spawn(move || worker_loop(wid, &shared))
                    .expect("invariant: worker spawn at scheduler construction")
            })
            .collect();
        BatchScheduler { shared, workers: handles, reservoir: McPool::new(), next_queue: 0 }
    }

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Run every job, blocking until the batch completes. Results are in
    /// submission order: `out[i]` answers `jobs[i]`, whichever worker ran it.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic, in submission order, of any job in the
    /// batch once the whole batch has finished; the workers survive it.
    pub fn run_batch<T, F>(&mut self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let mut slots = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let sink = Arc::new(Sink {
            // lint: allow(unordered-merge, reason = "deposit order races, but slots are keyed by submission index and the submitter reads only after the last deposit — contents are order-independent")
            state: Mutex::new(SinkState { slots, remaining: n }),
            done: Condvar::new(),
        });
        for (idx, job) in jobs.into_iter().enumerate() {
            let qi = self.next_queue % self.workers.len();
            self.next_queue = self.next_queue.wrapping_add(1);
            let out = Arc::clone(&sink);
            let task: Task =
                Box::new(move || out.deposit(idx, panic::catch_unwind(AssertUnwindSafe(job))));
            self.shared
                .queues
                .get(qi)
                .expect("invariant: queue index is reduced modulo queue count")
                .lock()
                .expect(UNPOISONED)
                .push_back(task);
        }
        {
            // Queue locks are released above before this lock is taken —
            // workers take them in the opposite order (signal, then queues),
            // which would deadlock if a submitter ever held both.
            let mut sig = self.shared.signal.lock().expect(UNPOISONED);
            sig.epoch = sig.epoch.wrapping_add(1);
            self.shared.cv.notify_all();
        }
        let mut st = sink.state.lock().expect(UNPOISONED);
        while st.remaining > 0 {
            st = sink.done.wait(st).expect(UNPOISONED);
        }
        let slots = std::mem::take(&mut st.slots);
        drop(st);
        slots
            .into_iter()
            .map(|s| match s.expect("invariant: every slot received exactly one result") {
                Ok(out) => out,
                Err(payload) => panic::resume_unwind(payload),
            })
            .collect()
    }

    /// Solve every job on the pool ([`Self::run_batch`] over
    /// [`BatchJob`]s): `out[i]` answers `jobs[i]`.
    pub fn solve_batch(&mut self, jobs: Vec<BatchJob>) -> Vec<BatchResult> {
        let solve = |BatchJob { mut engine, problem, traced }: BatchJob| {
            let (solution, trace) = if traced {
                let (s, t) = engine.solve_traced(&problem);
                (s, Some(t))
            } else {
                (engine.solve(&problem), None)
            };
            BatchResult { engine, solution, trace }
        };
        self.run_batch(jobs.into_iter().map(|job| move || solve(job)).collect())
    }

    /// Tear a conference's engine down into the cross-conference slab
    /// reservoir.
    pub fn recycle(&mut self, engine: SolveEngine) {
        self.reservoir.absorb(engine.into_pool());
    }

    /// A new engine seeded from the reservoir: joining conferences reuse the
    /// DP slabs of conferences that tore down.
    #[must_use]
    pub fn adopt_engine(&mut self, cfg: SolverConfig) -> SolveEngine {
        let mut engine = SolveEngine::new(cfg);
        engine.absorb_pool(std::mem::take(&mut self.reservoir));
        engine
    }

    /// Retired DP states waiting in the reservoir.
    #[must_use]
    pub fn idle_states(&self) -> usize {
        self.reservoir.idle_states()
    }
}

impl Drop for BatchScheduler {
    fn drop(&mut self) {
        if let Ok(mut sig) = self.shared.signal.lock() {
            sig.shutdown = true;
        }
        self.shared.cv.notify_all();
        for handle in self.workers.drain(..) {
            drop(handle.join());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladders;
    use crate::problem::{ClientSpec, SourceId, Subscription};
    use crate::types::Resolution;
    use gso_util::{Bitrate, ClientId};

    fn mesh(n: u32, downlink_kbps: u64) -> Problem {
        let ladder = ladders::paper_table1();
        let clients: Vec<ClientSpec> = (1..=n)
            .map(|i| {
                ClientSpec::new(
                    ClientId(i),
                    Bitrate::from_kbps(2_000),
                    Bitrate::from_kbps(downlink_kbps),
                    ladder.clone(),
                )
            })
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

    fn conference_batch(problems: &[Arc<Problem>], traced: bool) -> Vec<BatchJob> {
        problems
            .iter()
            .map(|p| BatchJob {
                engine: SolveEngine::new(SolverConfig::default()),
                problem: Arc::clone(p),
                traced,
            })
            .collect()
    }

    #[test]
    fn batch_matches_inline_engine_at_every_worker_count() {
        let problems: Vec<Arc<Problem>> =
            (0..6).map(|i| Arc::new(mesh(4 + i % 3, 900 + 333 * u64::from(i)))).collect();
        let reference: Vec<_> = problems
            .iter()
            .map(|p| {
                let mut e = SolveEngine::new(SolverConfig::default());
                e.solve_traced(p)
            })
            .collect();
        for workers in [1, 2, 8] {
            let mut sched = BatchScheduler::new(&BatchConfig { workers });
            assert_eq!(sched.workers(), workers);
            let results = sched.solve_batch(conference_batch(&problems, true));
            assert_eq!(results.len(), problems.len());
            for (res, (sol, trace)) in results.iter().zip(&reference) {
                assert_eq!(&res.solution, sol);
                assert_eq!(res.trace.as_ref(), Some(trace));
            }
        }
    }

    #[test]
    fn engines_stay_warm_across_batches() {
        let problems: Vec<Arc<Problem>> = (0..4).map(|_| Arc::new(mesh(5, 1_500))).collect();
        let mut sched = BatchScheduler::new(&BatchConfig { workers: 2 });
        let results = sched.solve_batch(conference_batch(&problems, false));
        // Re-submit the same engines on the same problems: all full hits.
        let jobs: Vec<BatchJob> = results
            .into_iter()
            .zip(&problems)
            .map(|(r, p)| BatchJob { engine: r.engine, problem: Arc::clone(p), traced: false })
            .collect();
        let results = sched.solve_batch(jobs);
        for res in &results {
            let s = res.engine.stats();
            assert_eq!(s.solves, 2);
            assert!(s.full_hits > 0, "second solve must hit the warm memo");
        }
    }

    #[test]
    fn panicking_job_fails_the_submitter_and_workers_keep_serving() {
        let mut sched = BatchScheduler::new(&BatchConfig { workers: 2 });
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8)
            .map(|i| -> Box<dyn FnOnce() -> usize + Send> {
                if i == 5 {
                    Box::new(|| panic!("job 5 fails"))
                } else {
                    Box::new(move || i * 10)
                }
            })
            .collect();
        // Submit from a helper thread so a lost result fails the test
        // instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| sched.run_batch(jobs)));
            let message = outcome.err().and_then(|p| p.downcast_ref::<&str>().copied());
            tx.send((sched, message)).expect("the test thread is waiting");
        });
        let (mut sched, message) = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("a panicking job must not hang its submitter");
        assert_eq!(message, Some("job 5 fails"), "the submitter re-raises the job's panic");
        // Both workers survived: two jobs meeting at one barrier need both.
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let out = sched.run_batch(
            (0..2)
                .map(|i| {
                    let barrier = Arc::clone(&barrier);
                    move || {
                        barrier.wait();
                        i + 1
                    }
                })
                .collect(),
        );
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn empty_batch_returns_immediately() {
        let mut sched = BatchScheduler::new(&BatchConfig { workers: 2 });
        assert!(sched.solve_batch(Vec::new()).is_empty());
    }

    #[test]
    fn recycle_feeds_adopted_engines() {
        let problem = Arc::new(mesh(5, 1_500));
        let mut sched = BatchScheduler::new(&BatchConfig { workers: 1 });
        let mut results = sched.solve_batch(vec![BatchJob {
            engine: SolveEngine::new(SolverConfig::default()),
            problem: Arc::clone(&problem),
            traced: false,
        }]);
        let engine = results.pop().expect("one result").engine;
        sched.recycle(engine);
        assert_eq!(sched.idle_states(), 5, "every client state lands in the reservoir");
        let adopted = sched.adopt_engine(SolverConfig::default());
        assert_eq!(sched.idle_states(), 0);
        drop(adopted);
    }
}
