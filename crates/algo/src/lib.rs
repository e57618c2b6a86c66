//! The GSO-Simulcast control algorithm (the paper's core contribution, §4.1).
//!
//! Given the global picture of a conference — every client's uplink/downlink
//! bandwidth, each publisher source's feasible stream set (bitrate ladder),
//! and the subscription relations with per-subscription resolution caps and
//! priorities — the controller decides which streams every source publishes
//! (resolution + fine-grained bitrate) and which stream every subscriber
//! receives, maximizing total QoE utility.
//!
//! # Quick start
//!
//! ```
//! use gso_algo::{ladders, solver, Problem, ClientSpec, Subscription, SourceId, Resolution};
//! use gso_util::{Bitrate, ClientId};
//!
//! let ladder = ladders::paper_table1();
//! let a = ClientId(1);
//! let b = ClientId(2);
//! let problem = Problem::new(
//!     vec![
//!         ClientSpec::new(a, Bitrate::from_mbps(5), Bitrate::from_mbps(3), ladder.clone()),
//!         ClientSpec::new(b, Bitrate::from_mbps(1), Bitrate::from_kbps(900), ladder),
//!     ],
//!     vec![
//!         Subscription::new(a, SourceId::video(b), Resolution::R720),
//!         Subscription::new(b, SourceId::video(a), Resolution::R720),
//!     ],
//! )
//! .unwrap();
//!
//! let solution = solver::solve(&problem, &Default::default());
//! solution.validate(&problem).unwrap();
//! // B's 900 Kbps downlink gets the largest fitting stream from A:
//! let got = solution.received_from(b, SourceId::video(a), 0).unwrap();
//! assert_eq!(got.bitrate, Bitrate::from_kbps(800));
//! ```
//!
//! # Modules
//!
//! * [`types`] — resolutions, stream specs, bitrate ladders.
//! * [`problem`] — validated problem instances (clients, sources,
//!   subscriptions).
//! * [`mckp`] — the Step-1 multiple-choice knapsack DP.
//! * [`solver`] — the iterative Knapsack–Merge–Reduction algorithm.
//! * [`engine`] — incremental re-solve driver with memoized DP state.
//! * [`batch`] — persistent work-stealing worker pool that runs one
//!   closure per conference each control tick, results in submission order.
//! * [`brute`] — exact exponential-time baseline (Fig. 6a/6b comparison).
//! * [`solution`] — solution representation and the one §4.1 constraint
//!   checker (`Solution::validate` / `Solution::violations`).
//! * [`audit`] — solver postconditions on top of it: QoE accounting, the
//!   convergence bound, the all-lowest-rung floor, and the trace-backed
//!   Eq. 12 merge-minimum and Eq. 18–20 whole-resolution checks.
//! * [`digest`] — stable [`gso_util::digest::StateDigest`] fingerprints for
//!   solutions, traces, and engine statistics.
//! * [`qoe`] — QoE utility curves with small-stream protection (§4.4).
//! * [`ladders`] — the paper's Table-1 ladder, fine 15-level and coarse
//!   3-level production ladders, and parametric generators.

pub mod audit;
pub mod batch;
pub mod brute;
pub mod digest;
pub mod engine;
pub mod ladders;
pub mod mckp;
pub mod problem;
pub mod qoe;
pub mod solution;
pub mod solver;
pub mod types;

pub use batch::{BatchConfig, BatchScheduler};
pub use engine::{EngineStats, SolveEngine};
pub use problem::{ClientSpec, Problem, ProblemError, PublisherSource, SourceId, Subscription};
pub use solution::{ConstraintViolation, PublishPolicy, ReceivedStream, Solution};
pub use solver::{IterationTrace, ReductionTrace, Request, SolveTrace, SolverConfig};
pub use types::{Ladder, LadderError, Resolution, StreamSpec};
