//! `check solver-scale [--smoke]`: [`SolveEngine`] vs the one-shot solver
//! at Fig. 6c shapes.
//!
//! Times three regimes on the paper's large-meeting tuples:
//!
//! * `seq_cold` — the plain `solver::solve` baseline (what Fig. 6c reports);
//! * `engine_cold` — a cache-cleared [`SolveEngine`] (measures engine
//!   overhead on first contact);
//! * `warm_*` — re-solves after a single-client bandwidth delta and after a
//!   single-source ladder reduction (the controller's steady-state work).
//!
//! The 64×20 `ControllerFleet` tick is timed, layer by layer, by
//! perfbench's `fleet_churn` workload.
//!
//! Every timed engine path is first cross-checked bit-identical against a
//! fresh `solver::solve` on the same problem. A full run writes
//! machine-readable `BENCH_solver.json` at the repo root; `--smoke` (CI)
//! writes `target/BENCH_solver.smoke.json` instead, marked `"smoke":true`,
//! so the committed baseline is never overwritten by smoke numbers.

use crate::repro::banner;
use gso_algo::{solver, Problem, SolveEngine, SolverConfig};
use gso_sim::experiments::fig6;
use gso_util::Bitrate;
#[expect(
    clippy::disallowed_types,
    reason = "the solver-scale bench measures host solve latency; wall-clock timing is its output, never simulation state"
)]
use std::time::Instant;

/// Median wall-clock milliseconds of `reps` runs of `f`.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        #[expect(
            clippy::disallowed_types,
            reason = "host-time stopwatch for the solver-scale bench; never feeds back into a solve"
        )]
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Rebuild `base` with one subscriber's downlink scaled to 80 % — the
/// single-client invalidation the controller sees on a bandwidth report.
fn with_bandwidth_delta(base: &Problem) -> Problem {
    let mut clients = base.clients().to_vec();
    // Prefer a receive-only subscriber; symmetric meetings have none, so
    // fall back to the last client.
    let victim = match clients.iter().rposition(|c| c.sources.is_empty()) {
        Some(i) => &mut clients[i],
        None => clients.last_mut().expect("non-empty problem"),
    };
    victim.downlink = Bitrate::from_bps(victim.downlink.as_bps() * 8 / 10);
    Problem::new(clients, base.subscriptions().to_vec()).expect("delta problem valid")
}

/// Rebuild `base` with one publisher's top resolution removed from its
/// ladder — the single-source invalidation a Step-3 reduction (or an SDP
/// renegotiation) causes. `first` picks the lowest-id publisher (worst case
/// for the DP prefix cache), otherwise the highest-id one (best case).
fn with_reduced_ladder(base: &Problem, first: bool) -> Problem {
    let mut clients = base.clients().to_vec();
    let idx = if first {
        clients.iter().position(|c| !c.sources.is_empty())
    } else {
        clients.iter().rposition(|c| !c.sources.is_empty())
    }
    .expect("at least one publisher");
    let ladder = &mut clients[idx].sources[0].ladder;
    let top = *ladder.resolutions().last().expect("non-empty ladder");
    *ladder = ladder.without_resolution(top);
    Problem::new(clients, base.subscriptions().to_vec()).expect("reduced problem valid")
}

/// Assert the engine (cold and warm-after-`prime`) matches `solver::solve`.
fn cross_check(engine: &mut SolveEngine, prime: &Problem, target: &Problem) {
    engine.clear_cache();
    engine.solve(prime);
    let warm = engine.solve(target);
    let fresh = solver::solve(target, engine.config());
    assert_eq!(warm, fresh, "warm engine solution must be bit-identical to the solver");
}

struct ShapeReport {
    shape: (usize, usize, usize),
    seq_cold_ms: f64,
    engine_cold_ms: f64,
    warm_bw_delta_ms: f64,
    warm_reduction_last_ms: f64,
    warm_reduction_first_ms: f64,
}

impl ShapeReport {
    fn warm_speedup(&self) -> f64 {
        self.seq_cold_ms / self.warm_reduction_last_ms.max(1e-9)
    }

    fn to_json(&self) -> String {
        let (p, s, l) = self.shape;
        format!(
            concat!(
                "{{\"pubs\":{},\"subs\":{},\"levels\":{},",
                "\"seq_cold_ms\":{:.4},\"engine_cold_ms\":{:.4},",
                "\"warm_bw_delta_ms\":{:.4},",
                "\"warm_reduction_last_ms\":{:.4},\"warm_reduction_first_ms\":{:.4},",
                "\"warm_speedup_vs_cold\":{:.2}}}"
            ),
            p,
            s,
            l,
            self.seq_cold_ms,
            self.engine_cold_ms,
            self.warm_bw_delta_ms,
            self.warm_reduction_last_ms,
            self.warm_reduction_first_ms,
            self.warm_speedup()
        )
    }
}

fn bench_shape(shape: (usize, usize, usize), cold_reps: usize, warm_reps: usize) -> ShapeReport {
    let (pubs, subs, levels) = shape;
    let base = fig6::asymmetric_meeting(pubs, subs, levels);
    let delta = with_bandwidth_delta(&base);
    let reduced_last = with_reduced_ladder(&base, false);
    let reduced_first = with_reduced_ladder(&base, true);
    let cfg = SolverConfig::default();

    // Correctness first: every warm path must match a fresh solve.
    let mut engine = SolveEngine::new(cfg.clone());
    cross_check(&mut engine, &base, &base);
    cross_check(&mut engine, &base, &delta);
    cross_check(&mut engine, &base, &reduced_last);
    cross_check(&mut engine, &base, &reduced_first);

    let seq_cold_ms = median_ms(cold_reps, || {
        std::hint::black_box(solver::solve(&base, &cfg));
    });

    let mut engine = SolveEngine::new(cfg.clone());
    let engine_cold_ms = median_ms(cold_reps, || {
        engine.clear_cache();
        std::hint::black_box(engine.solve(&base));
    });

    // Warm paths alternate between the base and the perturbed problem so
    // every timed solve is a true warm re-solve with one invalidation.
    let warm_bw_delta_ms = {
        let mut engine = SolveEngine::new(cfg.clone());
        engine.solve(&base);
        let mut flip = false;
        median_ms(warm_reps, || {
            let p = if flip { &base } else { &delta };
            flip = !flip;
            std::hint::black_box(engine.solve(p));
        })
    };
    let warm_reduction_last_ms = {
        let mut engine = SolveEngine::new(cfg.clone());
        engine.solve(&base);
        let mut flip = false;
        median_ms(warm_reps, || {
            let p = if flip { &base } else { &reduced_last };
            flip = !flip;
            std::hint::black_box(engine.solve(p));
        })
    };
    let warm_reduction_first_ms = {
        let mut engine = SolveEngine::new(cfg.clone());
        engine.solve(&base);
        let mut flip = false;
        median_ms(warm_reps, || {
            let p = if flip { &base } else { &reduced_first };
            flip = !flip;
            std::hint::black_box(engine.solve(p));
        })
    };

    ShapeReport {
        shape,
        seq_cold_ms,
        engine_cold_ms,
        warm_bw_delta_ms,
        warm_reduction_last_ms,
        warm_reduction_first_ms,
    }
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Time every shape, print the table and write the JSON report. `smoke`
/// runs the one small CI shape with fewer repeats and writes
/// `target/BENCH_solver.smoke.json` instead of the committed
/// `BENCH_solver.json`.
///
/// # Panics
/// Panics if a warm engine solve differs from a fresh one-shot solve, or if
/// the report cannot be written.
pub fn run(smoke: bool) {
    let (shapes, cold_reps, warm_reps): (&[(usize, usize, usize)], usize, usize) = if smoke {
        (&[(4, 10, 9)], 1, 3)
    } else {
        (&[(10, 50, 9), (10, 200, 18), (10, 400, 18)], 7, 25)
    };

    banner("solver_scale: SolveEngine cold/warm at Fig. 6c shapes");
    println!(
        "{:>14} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "(P, S, L)", "seq cold", "eng cold", "warm bw", "warm red", "warm red1", "×warm"
    );
    let mut reports = Vec::new();
    for &shape in shapes {
        let r = bench_shape(shape, cold_reps, warm_reps);
        println!(
            "{:>14} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>8.1}",
            format!("{:?}", r.shape),
            r.seq_cold_ms,
            r.engine_cold_ms,
            r.warm_bw_delta_ms,
            r.warm_reduction_last_ms,
            r.warm_reduction_first_ms,
            r.warm_speedup()
        );
        reports.push(r);
    }
    println!("(ms medians; ×warm = seq cold / warm single-source reduction re-solve)");
    println!("host parallelism: {}", host_parallelism());

    let json = format!(
        concat!(
            "{{\"bench\":\"solver_scale\",\"unit\":\"milliseconds\",\"smoke\":{},",
            "\"host_parallelism\":{},\"shapes\":[{}]}}\n"
        ),
        smoke,
        host_parallelism(),
        reports.iter().map(ShapeReport::to_json).collect::<Vec<_>>().join(",")
    );
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let out = if smoke {
        let dir = format!("{root}/target");
        std::fs::create_dir_all(&dir).expect("create target/");
        format!("{dir}/BENCH_solver.smoke.json")
    } else {
        format!("{root}/BENCH_solver.json")
    };
    std::fs::write(&out, json).expect("write the bench report");
    println!("wrote {out}");
}
