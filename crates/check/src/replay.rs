//! The solver replays behind `check audit`, `check metrics` and
//! `check digest`: the shipped example configurations and the paper's
//! Table 1 cases ([`scenarios::all`]) through the solver and the full
//! traced audit.
//!
//! Each scenario is also replayed through one shared [`SolveEngine`]
//! (cold, then warm) and must reproduce the solver's solution and trace
//! bit-for-bit — the reuse-path equivalence guarantee, checked on real
//! configurations rather than random instances.
//!
//! [`audit`] exits nonzero if any scenario produces a violation, printing
//! each finding with the paper equation it breaks.
//!
//! [`metrics`] runs the same replay, but its only stdout is the
//! `gso-telemetry` JSON export of per-scenario solver work. CI runs it
//! twice and diffs the outputs to enforce the determinism guarantee, and
//! `tests/data/audit_metrics.json` pins the export byte for byte.
//!
//! [`digest`] is divergence detection: every scenario is solved by the
//! sequential solver and, as traced engine-solve jobs, on
//! `BatchScheduler`s at 1, 2, and 8 workers; the whole pass runs twice and
//! the per-scenario `StateDigest` traces of both passes are compared with
//! `first_divergence`. Each worker count keeps one engine warm across
//! scenarios (single-job batches), and the pass closes with all scenarios
//! submitted as one batch; any nondeterminism (across runs, or between the
//! sequential solver and any scheduled engine) is traced to the first
//! divergent scenario and fails the gate.

use crate::scenarios;
use gso_algo::audit::{audit_traced, report};
use gso_algo::solver::{self, SolveTrace, SolverConfig};
use gso_algo::{BatchConfig, BatchScheduler, Problem, Solution, SolveEngine};
use gso_telemetry::{keys, Telemetry};
use gso_util::digest::{first_divergence, DigestEntry, DigestTrace, StateDigest};
use std::process::ExitCode;
use std::sync::Arc;

const DIGEST_WORKERS: [usize; 3] = [1, 2, 8];

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

/// One full pass over every scenario: for each, digest the sequential
/// solver's solution+trace and, per worker count, the batch scheduler's
/// solution+trace. Each worker count carries one engine warm across the
/// whole scenario list so reconciliation against the previous scenario's
/// client set is exercised on the workers, not just inline.
fn digest_pass(cfg: &SolverConfig) -> (DigestTrace, bool) {
    let (names, problems): (Vec<&'static str>, Vec<Arc<Problem>>) =
        scenarios::all().into_iter().map(|s| (s.name, Arc::new(s.problem))).unzip();
    let mut lanes: Vec<(BatchScheduler, Option<SolveEngine>)> = DIGEST_WORKERS
        .iter()
        .map(|&workers| {
            (BatchScheduler::new(&BatchConfig { workers }), Some(SolveEngine::new(cfg.clone())))
        })
        .collect();
    let mut trace = DigestTrace::new();
    let mut engines_match = true;
    for (i, (name, problem)) in names.iter().zip(&problems).enumerate() {
        let (solution, solve_trace) = solver::solve_traced(problem, cfg);
        let solution_digest = solution.state_digest();
        let trace_digest = solve_trace.state_digest();
        let mut components = vec![
            ("solver.solution".to_string(), solution_digest),
            ("solver.trace".to_string(), trace_digest),
        ];
        for ((scheduler, engine_slot), &workers) in lanes.iter_mut().zip(&DIGEST_WORKERS) {
            let engine = engine_slot.take().expect("invariant: lane engine always restored");
            let mut results = scheduler.run_batch(vec![traced_solve(engine, Arc::clone(problem))]);
            let (engine, es, et) = results.pop().expect("invariant: one job in, one result out");
            *engine_slot = Some(engine);
            let (es_digest, et_digest) = (es.state_digest(), et.state_digest());
            if es_digest != solution_digest || et_digest != trace_digest {
                engines_match = false;
                eprintln!(
                    "FAIL {name:<18} batch({workers} workers) digest diverges from sequential solver",
                );
            }
            components.push((format!("batch{workers}.solution"), es_digest));
            components.push((format!("batch{workers}.trace"), et_digest));
        }
        trace.record(DigestEntry::new(
            i as u64,
            components,
            format!("scenario {name} qoe {:.3}", solution.total_qoe),
        ));
    }
    // Close the pass with all scenarios interleaved as one batch per worker
    // count: fresh engines, results must still match the sequential solver
    // scenario-for-scenario in submission order.
    for ((scheduler, _), &workers) in lanes.iter_mut().zip(&DIGEST_WORKERS) {
        let jobs = problems
            .iter()
            .map(|p| traced_solve(SolveEngine::new(cfg.clone()), Arc::clone(p)))
            .collect();
        let results = scheduler.run_batch(jobs);
        let mut components = Vec::new();
        for ((name, problem), (_, es, et)) in names.iter().zip(&problems).zip(results) {
            let (solution, solve_trace) = solver::solve_traced(problem, cfg);
            let (es_digest, et_digest) = (es.state_digest(), et.state_digest());
            if es_digest != solution.state_digest() || et_digest != solve_trace.state_digest() {
                engines_match = false;
                eprintln!(
                    "FAIL {name:<18} full-batch({workers} workers) digest diverges from sequential solver",
                );
            }
            components.push((format!("fullbatch{workers}.{name}.solution"), es_digest));
            components.push((format!("fullbatch{workers}.{name}.trace"), et_digest));
        }
        trace.record(DigestEntry::new(
            (names.len() + workers) as u64,
            components,
            format!("full batch at {workers} workers"),
        ));
    }
    (trace, engines_match)
}

/// `check digest`: two digest passes that must agree with each other and
/// with the sequential solver.
pub fn digest() -> ExitCode {
    let cfg = &SolverConfig::default();
    let (a, ok_a) = digest_pass(cfg);
    let (b, ok_b) = digest_pass(cfg);
    if let Some(d) = first_divergence(&a, &b) {
        eprintln!("digest FAILED: double-run divergence\n{}", d.report());
        return ExitCode::FAILURE;
    }
    if !(ok_a && ok_b) {
        eprintln!("digest FAILED: batch scheduler diverged from the sequential solver");
        return ExitCode::FAILURE;
    }
    println!(
        "digest clean: {} entries x2 runs, solver + batch schedulers at {DIGEST_WORKERS:?} workers all identical",
        a.entries.len()
    );
    ExitCode::SUCCESS
}

/// `check audit`: replay every scenario, printing one `ok` line per clean
/// scenario and a summary.
pub fn audit() -> ExitCode {
    let (failed, total) = replay(&Telemetry::disabled(), true);
    if failed == 0 {
        println!("\naudit clean: {total} scenarios, 0 violations");
    }
    verdict(failed, total)
}

/// `check metrics`: replay every scenario and print only the telemetry
/// JSON export.
pub fn metrics() -> ExitCode {
    let (json, (failed, total)) = metrics_export();
    println!("{json}");
    verdict(failed, total)
}

/// The telemetry JSON export of one metrics replay, with its
/// `(failed, total)` scenario counts.
pub fn metrics_export() -> (String, (usize, usize)) {
    let telemetry = Telemetry::new("audit-replay");
    let counts = replay(&telemetry, false);
    (telemetry.export_json(), counts)
}

fn verdict(failed: usize, total: usize) -> ExitCode {
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("\naudit FAILED: {failed} of {total} scenarios violated constraints");
        ExitCode::FAILURE
    }
}

/// Solve, audit and engine-replay every scenario, recording its solver
/// work into `telemetry`. Prints an `ok` line per clean scenario when
/// `report_ok`, and each failing scenario's findings on stderr. Returns
/// the `(failed, total)` scenario counts.
fn replay(telemetry: &Telemetry, report_ok: bool) -> (usize, usize) {
    let cfg = SolverConfig::default();
    let mut failed = 0usize;
    let scenarios = scenarios::all();
    let total = scenarios.len();
    // One engine across every scenario: each replay exercises cache
    // reconciliation against the previous scenario's client set.
    let mut engine = SolveEngine::new(cfg.clone());

    for scenario in scenarios {
        let rows_before = engine.stats().rows_recomputed;
        let (solution, trace) = solver::solve_traced(&scenario.problem, &cfg);
        let violations = audit_traced(&scenario.problem, &solution, &trace);
        let cold = engine.solve_traced(&scenario.problem);
        let warm = engine.solve_traced(&scenario.problem);
        let engine_ok =
            cold.0 == solution && cold.1 == trace && warm.0 == solution && warm.1 == trace;
        telemetry.incr(keys::AUDIT_SCENARIOS, "");
        telemetry.add(keys::AUDIT_SOLVE_ITERATIONS, scenario.name, solution.iterations as u64);
        telemetry.add(
            keys::AUDIT_SOLVE_ROWS,
            scenario.name,
            engine.stats().rows_recomputed - rows_before,
        );
        telemetry.gauge(keys::AUDIT_QOE, scenario.name, solution.total_qoe);
        if violations.is_empty() && engine_ok {
            if report_ok {
                println!(
                    "ok   {:<18} qoe {:>10.1}  iterations {}",
                    scenario.name, solution.total_qoe, solution.iterations
                );
            }
        } else {
            failed += 1;
            eprintln!("FAIL {:<18} {} violation(s):", scenario.name, violations.len());
            eprint!("{}", report(&violations));
            if !engine_ok {
                eprintln!("     engine replay diverged from the sequential solver");
            }
        }
    }
    (failed, total)
}
