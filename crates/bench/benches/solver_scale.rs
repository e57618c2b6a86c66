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
//! A `tenant_overload` section then times the tick of an overloaded
//! multi-tenant `ControllerFleet` (admission and priority shedding active).
//! The 64×20 fleet tick itself is timed, layer by layer, by perfbench's
//! `fleet_churn` workload.
//!
//! Every timed engine path is first cross-checked bit-identical against a
//! fresh `solver::solve` on the same problem. A full run writes
//! machine-readable `BENCH_solver.json` at the repo root; `--smoke` (CI)
//! writes `target/BENCH_solver.smoke.json` instead, marked `"smoke":true`,
//! so the committed baseline is never overwritten by smoke numbers.

use gso_algo::{
    ladders, solver, BatchConfig, PriorityClass, Problem, Resolution, SolveEngine, SolverConfig,
    SourceId, Tenancy, TenantId,
};
use gso_bench::banner;
use gso_control::{
    AdmissionConfig, AdmissionController, CodecCapability, ControllerConfig, ControllerFleet,
    FleetTick, GsoController, ShedPolicy, SubscribeIntent,
};
use gso_rtp::GsoTmmbn;
use gso_sim::experiments::fig6;
use gso_util::{Bitrate, ClientId, SimTime, Ssrc, StreamKind};
use std::time::Instant;

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
    shed: usize,
}

impl TenantOverloadReport {
    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"conferences\":{},\"parties\":{},\"workers\":{},",
                "\"warm_tick_ms\":{:.4},\"shed\":{}}}"
            ),
            self.conferences, self.parties, self.workers, self.warm_tick_ms, self.shed
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

/// Median tick latency of an overloaded multi-tenant
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
    for tick in warmup..warmup + ticks {
        let t = Instant::now();
        step(&mut fleet, tick);
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    samples.sort_by(f64::total_cmp);
    TenantOverloadReport {
        conferences,
        parties,
        workers,
        warm_tick_ms: samples[samples.len() / 2],
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

    banner("solver_scale: multi-tenant fleet under overload (admission + shedding)");
    let (ov_confs, ov_parties, ov_ticks, ov_workers) =
        if smoke { (6, 4, 4, 2) } else { (18, 6, 12, 4) };
    let ov = bench_tenant_overload(ov_confs, ov_parties, ov_ticks, ov_workers);
    println!(
        "tenant_overload w={}: {} conferences × {} parties: warm tick {:.3} ms ({} shed)",
        ov.workers, ov.conferences, ov.parties, ov.warm_tick_ms, ov.shed
    );
    println!("host parallelism: {}", host_parallelism());

    let json = format!(
        concat!(
            "{{\"bench\":\"solver_scale\",\"unit\":\"milliseconds\",\"smoke\":{},",
            "\"host_parallelism\":{},\"shapes\":[{}],\"tenant_overload\":{}}}\n"
        ),
        smoke,
        host_parallelism(),
        reports.iter().map(ShapeReport::to_json).collect::<Vec<_>>().join(","),
        ov.to_json()
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
