//! The CI gates behind the `check` binary — the solver's scenario replays
//! and the §7 chaos matrix — and the printers of the paper's evaluation.
//!
//! * [`replay`] — `check audit`, `check metrics` and `check digest`: the
//!   [`scenarios`] (the paper's Table 1 cases and the shipped example
//!   conferences) solved, audited with [`gso_algo::audit::audit_traced`],
//!   cross-checked against the incremental engine and the batch
//!   schedulers, and exported as telemetry.
//! * [`chaos`] — `check chaos`: seed-driven fault plans executed against
//!   the packet-level simulator and judged against the §7 bounds.
//! * [`repro`] — `check repro <target>`: Table 1, Figs 6–12 and the
//!   ablations, one printer per target.
//! * [`solver_scale`] — `check solver-scale`: the solve engine timed cold
//!   and warm at Fig. 6c shapes, written to `BENCH_solver.json`.
//! * [`cli`] — the one argument parser.
//!
//! The checks themselves live next to the code they check. The §4.1
//! constraint families are [`Solution::violations`](gso_algo::Solution::violations)
//! and the solver postconditions are [`gso_algo::audit`]; the
//! forwarding-rule cross-check is `gso_control::feedback::check_forwarding`.
//! The solver's property tests against the exact baseline and across the
//! engine's reuse paths are in `crates/algo/tests`.

pub mod chaos;
pub mod cli;
pub mod replay;
pub mod repro;
pub mod scenarios;
pub mod solver_scale;
