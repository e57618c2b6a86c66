//! Persistent cross-conference batch scheduler.
//!
//! The control plane ticks many conferences per tick. Each warm tick is
//! microseconds of work — far below the cost of spawning threads per tick
//! (the old `thread::scope` shard) — so parallelism only pays when a
//! *persistent* pool of workers interleaves whole-conference jobs.
//! [`BatchScheduler`] owns long-lived workers that park on a condvar between
//! ticks and drain a batch of jobs via work stealing when one arrives. A job
//! is any `FnOnce() -> T + Send` ([`BatchScheduler::run_batch`]); the pool
//! knows nothing about what a job computes.
//!
//! One lock guards the pool: every worker's deque and the shutdown flag sit
//! behind a single `Mutex`, and one `Condvar` wakes idle workers when a
//! batch is dealt. Jobs run with no lock held, and no path nests the pool
//! lock with a batch's `Sink` lock.
//!
//! # Determinism
//!
//! Work stealing randomizes *which worker* runs a job and *when*, but not
//! the result:
//!
//! * Each job owns its state (a whole controller, or a conference's
//!   `SolveEngine` and an `Arc` of its problem) — no shared mutable state, so
//!   a job's output depends only on what it owns, never on scheduling order.
//! * Results are keyed by submission index and returned in submission order.
//!   Callers submit conferences in ascending id order, and each `Solution`
//!   carries its clients in ascending order, so the merged output is always
//!   in ascending (conference, client) order regardless of which worker
//!   finished first.
//!
//! The `engine_equivalence` proptests and the audit digest gate verify
//! bit-identical solutions and traces at 1/2/8 workers.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
#[expect(
    clippy::disallowed_types,
    reason = "scheduler plumbing only; every job owns its state and results are re-keyed by submission index, so output is scheduling-order independent (engine_equivalence proptests + audit digest gate)"
)]
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Scheduler sizing.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Worker threads; at least one.
    pub workers: usize,
}

/// A queued job, already bound to its batch's sink and slot.
type Task = Box<dyn FnOnce() + Send>;

/// Neither the pool lock nor a sink lock ever guards a job (jobs run
/// unlocked, under `catch_unwind`), so only a bug in the pool itself could
/// poison one.
const UNPOISONED: &str = "invariant: pool locks guard no job code, so they are never poisoned";

/// Completion sink for one batch: workers deposit results (or caught
/// panics) by submission index and the submitter sleeps until the *last*
/// deposit. One wakeup per batch instead of one per conference — on a
/// saturated host the per-result channel wake was a context-switch
/// ping-pong that dwarfed the warm jobs themselves.
struct Sink<T> {
    #[expect(
        clippy::disallowed_types,
        reason = "deposit order races, but slots are keyed by submission index and the submitter reads only after the last deposit — contents are order-independent"
    )]
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

/// Everything the pool shares, behind its one lock.
struct Queues {
    /// One deque per worker; owners pop the front, thieves the back.
    deques: Vec<VecDeque<Task>>,
    shutdown: bool,
}

impl Queues {
    /// Grab a task: own deque's front first, then steal from the others'
    /// backs. `None` only when every deque is empty.
    fn grab(&mut self, wid: usize) -> Option<Task> {
        let n = self.deques.len();
        (0..n).find_map(|off| {
            let q = self
                .deques
                .get_mut((wid + off) % n)
                .expect("invariant: deque index is reduced modulo deque count");
            if off == 0 {
                q.pop_front()
            } else {
                q.pop_back()
            }
        })
    }
}

struct Shared {
    #[expect(
        clippy::disallowed_types,
        reason = "work-stealing deques race only over which worker runs a job, never over job state; results are re-ordered by submission index"
    )]
    queues: Mutex<Queues>,
    /// Signalled when a batch is dealt or the pool shuts down.
    work: Condvar,
}

fn worker_loop(wid: usize, shared: &Shared) {
    loop {
        // Checking the deques and going to sleep happen under the one lock
        // a submitter deals under, so a batch cannot land unseen between
        // the two: no lost wakeup.
        let task = {
            let mut q = shared.queues.lock().expect(UNPOISONED);
            loop {
                if let Some(task) = q.grab(wid) {
                    break task;
                }
                if q.shutdown {
                    return;
                }
                q = shared.work.wait(q).expect(UNPOISONED);
            }
        };
        task();
    }
}

/// Persistent work-stealing scheduler for cross-conference batches.
///
/// Workers are spawned once and live until the scheduler is dropped; a tick
/// submits one job per conference and receives the results in submission
/// order. See the module docs for the determinism argument.
pub struct BatchScheduler {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Round-robin cursor for initial task placement.
    next_queue: usize,
}

impl std::fmt::Debug for BatchScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchScheduler")
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl BatchScheduler {
    /// Spawn the worker pool.
    ///
    /// # Panics
    ///
    /// Panics when `cfg.workers` is zero.
    #[must_use]
    pub fn new(cfg: &BatchConfig) -> Self {
        assert!(cfg.workers > 0, "a batch scheduler needs at least one worker");
        let workers = cfg.workers;
        let shared = Arc::new(Shared {
            #[expect(
                clippy::disallowed_types,
                reason = "work-stealing deques race only over which worker runs a job, never over job state; results are re-ordered by submission index"
            )]
            queues: Mutex::new(Queues {
                deques: (0..workers).map(|_| VecDeque::new()).collect(),
                shutdown: false,
            }),
            work: Condvar::new(),
        });
        #[expect(
            clippy::disallowed_methods,
            reason = "the pool's own workers; they run jobs whose results are re-ordered by submission index"
        )]
        let handles = (0..workers)
            .map(|wid| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gso-batch-{wid}"))
                    .spawn(move || worker_loop(wid, &shared))
                    .expect("invariant: worker spawn at scheduler construction")
            })
            .collect();
        BatchScheduler { shared, workers: handles, next_queue: 0 }
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
            #[expect(
                clippy::disallowed_types,
                reason = "deposit order races, but slots are keyed by submission index and the submitter reads only after the last deposit — contents are order-independent"
            )]
            state: Mutex::new(SinkState { slots, remaining: n }),
            done: Condvar::new(),
        });
        // Bind every job to its slot before taking the pool lock, so the
        // lock is held only to deal.
        let tasks: Vec<Task> = jobs
            .into_iter()
            .enumerate()
            .map(|(idx, job)| {
                let out = Arc::clone(&sink);
                Box::new(move || out.deposit(idx, panic::catch_unwind(AssertUnwindSafe(job))))
                    as Task
            })
            .collect();
        {
            let mut q = self.shared.queues.lock().expect(UNPOISONED);
            for task in tasks {
                let qi = self.next_queue % self.workers.len();
                self.next_queue = self.next_queue.wrapping_add(1);
                q.deques
                    .get_mut(qi)
                    .expect("invariant: deque index is reduced modulo deque count")
                    .push_back(task);
            }
        }
        self.shared.work.notify_all();
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
}

impl Drop for BatchScheduler {
    fn drop(&mut self) {
        if let Ok(mut q) = self.shared.queues.lock() {
            q.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.workers.drain(..) {
            drop(handle.join());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order_at_every_worker_count() {
        // Jobs of uneven length own their input, so a result deposited in
        // the wrong slot, or a lost job, changes the output.
        let inputs: Vec<Vec<u64>> = (0..24u64).map(|i| (0..(i % 5) * 2_000).collect()).collect();
        let expect: Vec<(usize, u64)> = inputs.iter().map(|v| (v.len(), v.iter().sum())).collect();
        for workers in [1, 2, 8] {
            let mut sched = BatchScheduler::new(&BatchConfig { workers });
            assert_eq!(sched.workers(), workers);
            let jobs = inputs.iter().cloned().map(|v| move || (v.len(), v.iter().sum())).collect();
            assert_eq!(sched.run_batch(jobs), expect, "{workers} workers");
        }
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a helper thread and a channel put a timeout on the submitter, so a lost result fails the test instead of hanging it"
    )]
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
        assert!(sched.run_batch(Vec::<fn() -> u8>::new()).is_empty());
    }
}
