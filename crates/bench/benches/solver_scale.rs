//! solver_scale — SolveEngine vs the one-shot solver at Fig. 6c shapes.
//!
//! Times three regimes on the paper's large-meeting tuples:
//!
//! * `seq_cold` — the plain `solver::solve` baseline (what Fig. 6c reports);
//! * `engine_cold` — a cache-cleared [`SolveEngine`] (measures engine
//!   overhead on first contact);
//! * `warm_*` — re-solves after a single-client bandwidth delta and after a
//!   single-source ladder reduction (the controller's steady-state work).
//!
//! A multi-conference harness then drives 64 concurrent 20-party
//! conferences through one orchestration tick each, cold and warm, the way
//! a conference node's control plane would each round — first sequentially
//! (one engine per conference, solved in a loop), then through the
//! persistent [`BatchScheduler`] at 1/2/4/8 workers. The batch section also
//! reports heap allocations per warm solve, measured by a counting
//! `GlobalAlloc` wrapper (bench-only; the library crates stay allocator-
//! agnostic).
//!
//! Every timed engine path is first cross-checked bit-identical against a
//! fresh `solver::solve` on the same problem. Both the full run and
//! `--smoke` (CI) write machine-readable `BENCH_solver.json` at the repo
//! root; smoke output is marked `"smoke":true` so baselines are never taken
//! from it.

use gso_algo::{
    ladders, solver, BatchConfig, BatchJob, BatchScheduler, PriorityClass, Problem, Resolution,
    SolveEngine, SolverConfig, SourceId, Tenancy, TenantId,
};
use gso_bench::banner;
use gso_control::{
    AdmissionConfig, AdmissionController, CodecCapability, ControllerConfig, ControllerFleet,
    FleetTick, GsoController, ShedPolicy, SubscribeIntent,
};
use gso_rtp::GsoTmmbn;
use gso_sim::experiments::fig6;
use gso_util::{Bitrate, ClientId, SimTime, Ssrc, StreamKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Counts every heap allocation made by the process. Only the delta around
/// a timed region is reported, so the harness's own setup allocations do
/// not pollute the per-solve numbers.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

#[allow(unsafe_code)]
// SAFETY: pure pass-through to `System`; the counter is a relaxed atomic
// increment with no effect on layout or aliasing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // lint: allow(atomics-policy, reason = "monotonic stat counter; the reader only wants an approximate total, no ordering with other memory")
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // lint: allow(atomics-policy, reason = "monotonic stat counter; the reader only wants an approximate total, no ordering with other memory")
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations since process start.
fn allocs_now() -> u64 {
    // lint: allow(atomics-policy, reason = "single-threaded harness reads its own counter; deltas need no cross-thread ordering")
    ALLOCS.load(Ordering::Relaxed)
}

/// Median wall-clock milliseconds of `reps` runs of `f`.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
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

/// The jittered problem every conference `ci` sees at warm tick `tick`:
/// one rotating client reports a downlink change (70–129 % of nominal,
/// from a fixed sequence so every configuration solves identical inputs).
fn jittered(base: &Problem, tick: usize, ci: usize) -> Problem {
    let mut clients = base.clients().to_vec();
    let idx = (tick + ci) % clients.len();
    let scale = 70 + ((tick * 13 + ci * 7) % 60) as u64;
    let c = clients.get_mut(idx).expect("index within client count");
    c.downlink = Bitrate::from_bps(c.downlink.as_bps() * scale / 100);
    Problem::new(clients, base.subscriptions().to_vec()).expect("jittered valid")
}

struct MultiConfReport {
    conferences: usize,
    parties: usize,
    cold_tick_ms: f64,
    warm_tick_ms: f64,
    warm_allocs_per_solve: f64,
}

impl MultiConfReport {
    fn warm_solves_per_sec(&self) -> f64 {
        self.conferences as f64 / (self.warm_tick_ms.max(1e-9) / 1e3)
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"conferences\":{},\"parties\":{},\"cold_tick_ms\":{:.4},",
                "\"warm_tick_ms\":{:.4},\"warm_allocs_per_solve\":{:.1},",
                "\"conference_solves_per_sec_warm\":{:.1}}}"
            ),
            self.conferences,
            self.parties,
            self.cold_tick_ms,
            self.warm_tick_ms,
            self.warm_allocs_per_solve,
            self.warm_solves_per_sec()
        )
    }
}

/// Drive `conferences` concurrent `parties`-way meetings through control
/// ticks: one engine per conference solved in a plain loop — the sequential
/// reference the batch scheduler is measured against.
fn bench_multi_conference(
    conferences: usize,
    parties: usize,
    warm_ticks: usize,
) -> MultiConfReport {
    let ladder = ladders::paper_table1();
    let bases: Vec<Problem> =
        (0..conferences).map(|_| fig6::symmetric_meeting(parties, ladder.clone())).collect();
    let mut engines: Vec<SolveEngine> =
        (0..conferences).map(|_| SolveEngine::new(SolverConfig::default())).collect();

    let t = Instant::now();
    for (engine, base) in engines.iter_mut().zip(&bases) {
        std::hint::black_box(engine.solve(base));
    }
    let cold_tick_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut ticks_ms = Vec::with_capacity(warm_ticks);
    let mut allocs = 0u64;
    for tick in 0..warm_ticks {
        let problems: Vec<Problem> =
            bases.iter().enumerate().map(|(ci, base)| jittered(base, tick, ci)).collect();
        let a = allocs_now();
        let t = Instant::now();
        for (engine, p) in engines.iter_mut().zip(&problems) {
            std::hint::black_box(engine.solve(p));
        }
        ticks_ms.push(t.elapsed().as_secs_f64() * 1e3);
        allocs += allocs_now() - a;
    }
    ticks_ms.sort_by(f64::total_cmp);
    let warm_tick_ms = ticks_ms[ticks_ms.len() / 2];
    let warm_allocs_per_solve = allocs as f64 / (warm_ticks * conferences) as f64;

    MultiConfReport { conferences, parties, cold_tick_ms, warm_tick_ms, warm_allocs_per_solve }
}

struct BatchTickReport {
    workers: usize,
    cold_tick_ms: f64,
    warm_tick_ms: f64,
    warm_allocs_per_solve: f64,
}

impl BatchTickReport {
    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"workers\":{},\"cold_tick_ms\":{:.4},\"warm_tick_ms\":{:.4},",
                "\"warm_allocs_per_solve\":{:.1}}}"
            ),
            self.workers, self.cold_tick_ms, self.warm_tick_ms, self.warm_allocs_per_solve
        )
    }
}

/// The same multi-conference workload through the persistent
/// [`BatchScheduler`]: one cold batch, then jittered warm batches. Timing
/// and allocation deltas bracket `solve_batch` only, so problem
/// construction (the controller's job, not the scheduler's) stays outside
/// the measurement. Warm solutions are cross-checked against a sequential
/// engine once per worker count.
fn bench_batch_tick(
    conferences: usize,
    parties: usize,
    warm_ticks: usize,
    workers: usize,
) -> BatchTickReport {
    let ladder = ladders::paper_table1();
    let bases: Vec<Arc<Problem>> = (0..conferences)
        .map(|_| Arc::new(fig6::symmetric_meeting(parties, ladder.clone())))
        .collect();
    let cfg = SolverConfig::default();
    let mut sched = BatchScheduler::new(&BatchConfig { workers });

    let jobs: Vec<BatchJob> = bases
        .iter()
        .map(|p| BatchJob {
            engine: SolveEngine::new(cfg.clone()),
            problem: Arc::clone(p),
            traced: false,
        })
        .collect();
    let t = Instant::now();
    let mut results = sched.solve_batch(jobs);
    let cold_tick_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut ticks_ms = Vec::with_capacity(warm_ticks);
    let mut allocs = 0u64;
    for tick in 0..warm_ticks {
        let problems: Vec<Arc<Problem>> =
            bases.iter().enumerate().map(|(ci, base)| Arc::new(jittered(base, tick, ci))).collect();
        let jobs: Vec<BatchJob> = results
            .into_iter()
            .zip(&problems)
            .map(|(r, p)| BatchJob { engine: r.engine, problem: Arc::clone(p), traced: false })
            .collect();
        let a = allocs_now();
        let t = Instant::now();
        results = sched.solve_batch(jobs);
        ticks_ms.push(t.elapsed().as_secs_f64() * 1e3);
        allocs += allocs_now() - a;
    }
    ticks_ms.sort_by(f64::total_cmp);
    let warm_tick_ms = ticks_ms[ticks_ms.len() / 2];
    let warm_allocs_per_solve = allocs as f64 / (warm_ticks * conferences) as f64;

    // Correctness: one final untimed warm batch, checked bit-identical
    // against the one-shot solver on every conference.
    let problems: Vec<Arc<Problem>> = bases
        .iter()
        .enumerate()
        .map(|(ci, base)| Arc::new(jittered(base, warm_ticks, ci)))
        .collect();
    let jobs: Vec<BatchJob> = results
        .into_iter()
        .zip(&problems)
        .map(|(r, p)| BatchJob { engine: r.engine, problem: Arc::clone(p), traced: false })
        .collect();
    for (p, r) in problems.iter().zip(sched.solve_batch(jobs)) {
        assert_eq!(
            r.solution,
            solver::solve(p, &cfg),
            "warm batch solution must be bit-identical to the solver ({workers} workers)"
        );
    }

    BatchTickReport { workers, cold_tick_ms, warm_tick_ms, warm_allocs_per_solve }
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One fleet tick under sustained overload: admission + priority shedding
/// active, every conference churned so each round does real solve work.
struct TenantOverloadReport {
    conferences: usize,
    parties: u32,
    workers: usize,
    warm_tick_ms: f64,
    allocs_per_tick: f64,
    shed: usize,
}

impl TenantOverloadReport {
    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"conferences\":{},\"parties\":{},\"workers\":{},",
                "\"warm_tick_ms\":{:.4},\"allocs_per_tick\":{:.1},\"shed\":{}}}"
            ),
            self.conferences,
            self.parties,
            self.workers,
            self.warm_tick_ms,
            self.allocs_per_tick,
            self.shed
        )
    }
}

/// An n-party full-mesh conference under the given tenancy.
fn tenant_conference(tenancy: Tenancy, parties: u32, ssrc: u32) -> GsoController {
    let caps = CodecCapability { ladders: vec![(StreamKind::Video, ladders::paper_table1())] };
    let mut c = GsoController::new(ControllerConfig::paper_defaults(), Ssrc(ssrc));
    for i in 1..=parties {
        c.on_join(ClientId(i), caps.clone());
    }
    for i in 1..=parties {
        let intents: Vec<SubscribeIntent> = (1..=parties)
            .filter(|j| *j != i)
            .map(|j| SubscribeIntent {
                source: SourceId::video(ClientId(j)),
                max_resolution: Resolution::R720,
                tag: 0,
            })
            .collect();
        c.on_subscriptions(ClientId(i), intents);
        c.on_uplink_report(SimTime::ZERO, ClientId(i), Bitrate::from_kbps(2_000));
        c.on_downlink_report(SimTime::ZERO, ClientId(i), Bitrate::from_kbps(1_800));
    }
    c.set_tenancy(tenancy);
    c
}

/// Ack every delivered/retransmitted GTMB so the §7 undeliverable-client
/// path stays out of the measurement.
fn ack_fleet_tick(fleet: &mut ControllerFleet, ticks: &[FleetTick]) {
    for (i, (out, retx)) in ticks.iter().enumerate() {
        let configs = out.iter().flat_map(|o| o.configs.iter());
        for (client, msg) in configs.chain(retx.iter()) {
            fleet.get_mut(i).expect("ticked conference exists").on_ack(
                *client,
                &GsoTmmbn {
                    sender_ssrc: Ssrc(9_999),
                    epoch: msg.epoch,
                    request_seq: msg.request_seq,
                    entries: vec![],
                },
            );
        }
    }
}

/// Median tick latency and allocations of an overloaded multi-tenant
/// fleet: a starvation row budget keeps the shedding state machine and the
/// admission ledger active on every tick, and a standing low-priority join
/// attempt exercises the admission reject path each round.
fn bench_tenant_overload(
    conferences: usize,
    parties: u32,
    ticks: usize,
    workers: usize,
) -> TenantOverloadReport {
    let mut fleet = ControllerFleet::new(&BatchConfig { workers });
    for i in 0..conferences {
        let tier = match i % 3 {
            0 => PriorityClass::High,
            1 => PriorityClass::Normal,
            _ => PriorityClass::Low,
        };
        let tenancy = Tenancy::new(TenantId(i as u32 + 1), tier);
        fleet.push(tenant_conference(tenancy, parties, 100 + i as u32 * 10));
    }
    fleet.set_shed_policy(ShedPolicy {
        row_budget_per_tick: 1,
        enter_ticks: 2,
        exit_ticks: 5,
        headroom: 0.25,
    });
    fleet.set_admission(AdmissionController::new(AdmissionConfig {
        row_budget: 1,
        high_reserve: 0.2,
        queue_capacity: 8,
        tenant_quota: 0,
    }));
    let mut joiner =
        Some(tenant_conference(Tenancy::new(TenantId(999), PriorityClass::Low), parties, 9_990));

    let mut step = |fleet: &mut ControllerFleet, tick: usize| {
        for i in 0..fleet.len() {
            let speaker = ClientId(1 + (tick as u32 % parties));
            fleet.get_mut(i).expect("pre-seated conference exists").on_speaker(Some(speaker));
        }
        if let Some(c) = joiner.take() {
            // Low + exhausted budget → always rejected, controller returned.
            joiner = fleet.admit(c, 1_000).err().map(|e| (*e).1);
        }
        let now = SimTime::from_millis(10 + tick as u64 * 1_100);
        let out = fleet.tick_all(now);
        ack_fleet_tick(fleet, &out);
    };

    // Warmup: cold solves plus enough ticks for shedding to reach its
    // steady state under the starvation budget.
    let warmup = 2 + 2 * conferences;
    for tick in 0..warmup {
        step(&mut fleet, tick);
    }
    let mut samples = Vec::with_capacity(ticks);
    let a = allocs_now();
    for tick in warmup..warmup + ticks {
        let t = Instant::now();
        step(&mut fleet, tick);
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let allocs_per_tick = (allocs_now() - a) as f64 / ticks as f64;
    samples.sort_by(f64::total_cmp);
    TenantOverloadReport {
        conferences,
        parties,
        workers,
        warm_tick_ms: samples[samples.len() / 2],
        allocs_per_tick,
        shed: fleet.shed_count(),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
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

    let (confs, parties, ticks) = if smoke { (4, 6, 2) } else { (64, 20, 10) };
    banner("solver_scale: multi-conference control-plane throughput");
    let mc = bench_multi_conference(confs, parties, ticks);
    println!(
        "sequential: {} conferences × {} parties: cold tick {:.2} ms, warm tick {:.2} ms \
         ({:.0} conference solves/s warm, {:.0} allocs/solve)",
        mc.conferences,
        mc.parties,
        mc.cold_tick_ms,
        mc.warm_tick_ms,
        mc.warm_solves_per_sec(),
        mc.warm_allocs_per_solve
    );

    let mut batch_reports = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let b = bench_batch_tick(confs, parties, ticks, workers);
        println!(
            "batch w={}: cold tick {:.2} ms, warm tick {:.2} ms ({:.0} allocs/solve)",
            b.workers, b.cold_tick_ms, b.warm_tick_ms, b.warm_allocs_per_solve
        );
        batch_reports.push(b);
    }
    println!("host parallelism: {} (batch workers beyond it time-share)", host_parallelism());

    banner("solver_scale: multi-tenant fleet under overload (admission + shedding)");
    let (ov_confs, ov_parties, ov_ticks, ov_workers) =
        if smoke { (6, 4, 4, 2) } else { (18, 6, 12, 4) };
    let ov = bench_tenant_overload(ov_confs, ov_parties, ov_ticks, ov_workers);
    println!(
        "tenant_overload w={}: {} conferences × {} parties: warm tick {:.3} ms \
         ({:.0} allocs/tick, {} shed)",
        ov.workers, ov.conferences, ov.parties, ov.warm_tick_ms, ov.allocs_per_tick, ov.shed
    );

    let json = format!(
        concat!(
            "{{\"bench\":\"solver_scale\",\"unit\":\"milliseconds\",\"smoke\":{},",
            "\"host_parallelism\":{},\"shapes\":[{}],\"multi_conference\":{},",
            "\"batch_tick\":[{}],\"tenant_overload\":{}}}\n"
        ),
        smoke,
        host_parallelism(),
        reports.iter().map(ShapeReport::to_json).collect::<Vec<_>>().join(","),
        mc.to_json(),
        batch_reports.iter().map(BatchTickReport::to_json).collect::<Vec<_>>().join(","),
        ov.to_json()
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_solver.json");
    std::fs::write(out, json).expect("write BENCH_solver.json");
    println!("wrote {out}");
}
