//! The packet-free control-plane workload: `fleet_churn`.
//!
//! 64 conferences × 20 parties share one `ControllerFleet` at 2 workers.
//! Every tick one rotating client per conference reports a jittered
//! downlink (a warm single-client delta); every tenth tick also retires one
//! client in a quarter of the conferences and seats a newcomer in its
//! place, a structural change that forces fresh DP recomputes. Ticks are
//! 1.1 s of controller time apart.
//!
//! The traced run drives three copies of the same fleet with the same
//! inputs: one through the public `tick_prepare` → `SolveEngine::solve` →
//! `tick_commit` phases with each phase timed, one through `tick_all` at 1
//! worker (the batch-scheduler overhead), and one through the plain
//! `GsoController::tick` loop (the untraced reference).

use crate::alloc::allocs_now;
use crate::report::{median, peak_rss_mb, percentile, Outcome};
use gso_algo::{
    ladders, solver, BatchConfig, EngineStats, Problem, Resolution, Solution, SolveEngine, SourceId,
};
use gso_control::controller::{SolveOutcome, TickPrep};
use gso_control::{
    CodecCapability, ControllerConfig, ControllerFleet, FleetTick, GsoController, SubscribeIntent,
};
use gso_rtp::{GsoTmmbn, GsoTmmbr};
use gso_util::{Bitrate, ClientId, DetRng, SimDuration, SimTime, Ssrc, StreamKind};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CONFERENCES: usize = 64;
const PARTIES: u32 = 20;
const WORKERS: usize = 2;
/// Controller time between ticks: above the scheduler's 1 s minimum, so a
/// conference runs a round on every tick where a report moved a downlink by
/// the event threshold (and at least every third tick).
const TICK_SPACING: SimDuration = SimDuration::from_millis(1_100);
/// Every `CHURN_EVERY`-th tick carries joins and leaves.
const CHURN_EVERY: usize = 10;
/// Conferences that churn on a churn tick.
const CHURN_CONFERENCES: usize = CONFERENCES / 4;
/// Warm ticks per untraced repeat: the p95 then has ≥ 10 ticks beyond it.
const WARM_TICKS: usize = 220;
/// Repeats per untraced run, at least.
const MIN_REPEATS: usize = 6;
/// Warm ticks the traced run's work counters cover (fixed, so the counts
/// repeat exactly for a seed).
const COUNTED_TICKS: usize = 100;

/// One scripted input to a conference.
#[derive(Debug, Clone)]
enum Op {
    Downlink(ClientId, Bitrate),
    Uplink(ClientId, Bitrate),
    Join(ClientId),
    Leave(ClientId),
    Subscribe(ClientId, Vec<SubscribeIntent>),
}

/// Seeded input generator. Conference `ci`'s roster holds each member's
/// id and nominal downlink.
struct Script {
    rng: DetRng,
    rosters: Vec<Vec<(ClientId, Bitrate)>>,
    next_id: u32,
    tick: usize,
}

fn caps() -> CodecCapability {
    CodecCapability { ladders: vec![(StreamKind::Video, ladders::paper_table1())] }
}

fn intents(roster: &[(ClientId, Bitrate)], me: ClientId) -> Vec<SubscribeIntent> {
    roster
        .iter()
        .filter(|(id, _)| *id != me)
        .map(|&(id, _)| SubscribeIntent {
            source: SourceId::video(id),
            max_resolution: Resolution::R720,
            tag: 0,
        })
        .collect()
}

const UPLINK: Bitrate = Bitrate::from_kbps(2_000);

fn apply(c: &mut GsoController, now: SimTime, op: &Op) {
    match op {
        Op::Downlink(id, b) => c.on_downlink_report(now, *id, *b),
        Op::Uplink(id, b) => c.on_uplink_report(now, *id, *b),
        Op::Join(id) => c.on_join(*id, caps()),
        Op::Leave(id) => c.on_leave(*id),
        Op::Subscribe(id, i) => c.on_subscriptions(*id, i.clone()),
    }
}

fn tick_time(tick: usize) -> SimTime {
    SimTime::from_millis(10) + SimDuration::from_micros(TICK_SPACING.as_micros() * tick as u64)
}

impl Script {
    fn new(seed: u64) -> Self {
        let mut rng = DetRng::derive(seed, "perfbench-fleet_churn");
        let mut next_id = 1;
        let rosters = (0..CONFERENCES)
            .map(|_| {
                (0..PARTIES)
                    .map(|_| {
                        let id = ClientId(next_id);
                        next_id += 1;
                        (id, Bitrate::from_kbps(rng.range_u64(1_200, 2_400)))
                    })
                    .collect()
            })
            .collect();
        Script { rng, rosters, next_id, tick: 0 }
    }

    /// The seated conferences, in fleet order.
    fn seat(&self) -> Vec<GsoController> {
        self.rosters
            .iter()
            .enumerate()
            .map(|(ci, roster)| {
                let mut c =
                    GsoController::new(ControllerConfig::paper_defaults(), Ssrc(1_000 + ci as u32));
                for &(id, _) in roster {
                    c.on_join(id, caps());
                }
                for &(id, down) in roster {
                    c.on_subscriptions(id, intents(roster, id));
                    c.on_uplink_report(SimTime::ZERO, id, UPLINK);
                    c.on_downlink_report(SimTime::ZERO, id, down);
                }
                c
            })
            .collect()
    }

    /// The next warm tick's inputs, per conference.
    fn next_inputs(&mut self) -> Vec<(usize, Op)> {
        self.tick += 1;
        let tick = self.tick;
        let mut ops = Vec::new();
        for (ci, roster) in self.rosters.iter().enumerate() {
            let (id, nominal) = roster[(tick + ci) % roster.len()];
            let scale = self.rng.range_u64(70, 130);
            ops.push((ci, Op::Downlink(id, Bitrate::from_bps(nominal.as_bps() * scale / 100))));
        }
        if tick.is_multiple_of(CHURN_EVERY) {
            let mut picked: Vec<usize> = Vec::new();
            while picked.len() < CHURN_CONFERENCES {
                let ci = self.rng.range_u64(0, CONFERENCES as u64) as usize;
                if !picked.contains(&ci) {
                    picked.push(ci);
                }
            }
            picked.sort_unstable();
            for ci in picked {
                let roster = &mut self.rosters[ci];
                let victim = self.rng.range_u64(0, roster.len() as u64) as usize;
                let (gone, _) = roster.remove(victim);
                let id = ClientId(self.next_id);
                self.next_id += 1;
                let down = Bitrate::from_kbps(self.rng.range_u64(1_200, 2_400));
                roster.push((id, down));
                ops.push((ci, Op::Leave(gone)));
                ops.push((ci, Op::Join(id)));
                for &(member, _) in roster.iter() {
                    ops.push((ci, Op::Subscribe(member, intents(roster, member))));
                }
                ops.push((ci, Op::Uplink(id, UPLINK)));
                ops.push((ci, Op::Downlink(id, down)));
            }
        }
        ops
    }
}

/// Acknowledge every configuration a conference sent or re-sent, so the
/// §7 undeliverable-client path stays out of the measurement.
fn ack(c: &mut GsoController, out: &FleetTick) {
    let (round, retx) = out;
    let configs = round.iter().flat_map(|o| o.configs.iter());
    for (client, msg) in configs.chain(retx.iter()) {
        c.on_ack(
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

fn seat_fleet(script: &Script, workers: usize) -> ControllerFleet {
    let mut fleet = ControllerFleet::new(&BatchConfig { workers });
    for c in script.seat() {
        fleet.push(c);
    }
    fleet
}

fn tick_fleet(fleet: &mut ControllerFleet, now: SimTime) -> Vec<FleetTick> {
    let out = fleet.tick_all(now);
    for (ci, o) in out.iter().enumerate() {
        ack(fleet.get_mut(ci).expect("one output per conference"), o);
    }
    out
}

/// Check a committed round against the one-shot solver on the same
/// problem, replaying the controller's stickiness rule: the commit is the
/// fresh solve, or the previous solution kept because it is still feasible
/// and the fresh one is not 10% better.
fn check_round(
    c: &GsoController,
    committed: &Solution,
    prev: Option<&Solution>,
) -> Result<(), String> {
    let problem = c.picture.to_problem().map_err(|e| format!("picture: {e:?}"))?;
    let cfg = ControllerConfig::paper_defaults();
    let fresh = solver::solve(&problem, &cfg.solver);
    if *committed == fresh {
        return Ok(());
    }
    match prev {
        Some(p)
            if p == committed
                && p.validate(&problem).is_ok()
                && fresh.total_qoe < p.total_qoe * (1.0 + cfg.stickiness) =>
        {
            Ok(())
        }
        _ => Err("committed solution matches neither solver::solve nor a sticky keep".to_string()),
    }
}

/// The conference checked on `tick`: the first one, counting cyclically
/// from `tick % CONFERENCES`, that ran a solved round.
fn sampled(tick: usize, solved: impl Fn(usize) -> bool) -> Option<usize> {
    (0..CONFERENCES).map(|k| (tick + k) % CONFERENCES).find(|&ci| solved(ci))
}

/// Entry point.
pub fn run(seed: u64, budget: Duration, traced: bool) -> Outcome {
    if traced {
        run_traced(seed, budget)
    } else {
        run_end_to_end(seed, budget)
    }
}

fn elapsed_ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Repeat the same seated fleet and warm ticks while another repeat fits
/// in the budget, completing at least `MIN_REPEATS`. Every repeat does the
/// same work, so each timed segment (seating plus the cold first tick,
/// then every warm tick) is reduced to its lower decile across repeats:
/// host interference that slows a stretch of one repeat moves no metric,
/// as long as a tenth of the repeats ran that stretch undisturbed.
fn run_end_to_end(seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let begin = Instant::now();
    let mut repeats: Vec<Vec<f64>> = Vec::new();
    // Solved rounds per warm tick, from the first repeat; every later
    // repeat must reproduce them.
    let mut solved_rounds: Vec<u64> = Vec::new();
    let mut rounds = 0u64;
    let mut fallbacks = 0u64;
    loop {
        let start = Instant::now();
        let mut script = Script::new(seed);
        let mut fleet = seat_fleet(&script, WORKERS);
        tick_fleet(&mut fleet, tick_time(0));
        let mut segments = vec![elapsed_ms(start)];
        let mut solved_per_tick = Vec::with_capacity(WARM_TICKS);
        for _ in 0..WARM_TICKS {
            let tick = script.tick + 1;
            let now = tick_time(tick);
            for (ci, op) in script.next_inputs() {
                apply(fleet.get_mut(ci).expect("conference exists"), now, &op);
            }
            let prev: Vec<Option<Solution>> =
                fleet.controllers().iter().map(|c| c.last_solution().cloned()).collect();
            let t = Instant::now();
            let results = fleet.tick_all(now);
            segments.push(elapsed_ms(t));
            let mut solved_now = 0u64;
            for (round, _) in &results {
                if let Some(o) = round {
                    rounds += 1;
                    fallbacks += u64::from(o.fallback);
                    solved_now += u64::from(!o.fallback);
                }
            }
            solved_per_tick.push(solved_now);
            let solved = |ci: usize| results[ci].0.as_ref().is_some_and(|o| !o.fallback);
            match sampled(tick, solved) {
                Some(ci) => {
                    let o = results[ci].0.as_ref().expect("sampled conference solved");
                    let r = check_round(&fleet.controllers()[ci], &o.solution, prev[ci].as_ref());
                    out.check(r.is_ok(), || format!("tick {tick} conference {ci}: {r:?}"));
                }
                None => out.check(false, || format!("tick {tick}: no conference solved")),
            }
            for (ci, o) in results.iter().enumerate() {
                ack(fleet.get_mut(ci).expect("one output per conference"), o);
            }
        }
        drop(fleet);
        if repeats.is_empty() {
            solved_rounds = solved_per_tick;
        } else {
            let n = repeats.len();
            out.check(solved_per_tick == solved_rounds, || {
                format!("repeat {n}: solved rounds per tick differ from the first repeat")
            });
        }
        repeats.push(segments);
        if repeats.len() >= MIN_REPEATS && begin.elapsed() + start.elapsed() > budget {
            break;
        }
    }

    // Each segment's lower decile across the repeats.
    let profile: Vec<f64> = (0..repeats[0].len())
        .map(|s| percentile(&repeats.iter().map(|r| r[s]).collect::<Vec<_>>(), 10.0).0)
        .collect();
    let ticks = &profile[1..];
    let total_ms: f64 = ticks.iter().sum();
    let client_s = f64::from(PARTIES) * CONFERENCES as f64 * TICK_SPACING.as_secs_f64();
    let (p95, beyond) = percentile(ticks, 95.0);
    out.check(beyond >= 10, || format!("only {beyond} ticks beyond the p95"));
    out.set("setup_s", profile[0] / 1e3);
    out.set("wall_ms_per_client_s", total_ms / ticks.len() as f64 / client_s);
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("tick_p50_ms", median(ticks));
    out.set("tick_p95_ms", p95);
    out.set("solves_per_s", solved_rounds.iter().sum::<u64>() as f64 / (total_ms / 1e3));
    out.attempted = rounds;
    out.failed = fallbacks;
    out.notes.push(format!(
        "repeats={} of {WARM_TICKS} warm ticks; rounds={rounds} fallback rounds={fallbacks}; lower-decile set-up {:.1} ms, warm ticks {:.0} ms; median repeat {:.0} ms",
        repeats.len(),
        profile[0],
        total_ms,
        median(&repeats.iter().map(|r| r.iter().sum()).collect::<Vec<_>>()),
    ));
    out
}

/// Per-tick phase totals of the instrumented copy.
#[derive(Default, Clone, Copy)]
struct Phases {
    prepare_ns: u64,
    solve_ns: u64,
    commit_ns: u64,
}

impl Phases {
    fn sum_ns(&self) -> u64 {
        self.prepare_ns + self.solve_ns + self.commit_ns
    }
}

/// Allocation and call totals of the instrumented copy.
#[derive(Default)]
struct PhaseAllocs {
    prepare: (u64, u64),
    solve: (u64, u64),
    commit: (u64, u64),
}

/// The sampled conference's fresh solve and the problem it solved.
type SampledSolve = (usize, Solution, Arc<Problem>);

/// One tick through the public phases, each timed and allocation-counted.
/// Returns the per-conference outputs in `FleetTick` form.
fn phased_tick(
    ctrls: &mut [GsoController],
    engines: &mut [SolveEngine],
    now: SimTime,
    allocs: &mut PhaseAllocs,
    tick: usize,
) -> (Phases, Vec<FleetTick>, Option<SampledSolve>) {
    let mut phases = Phases::default();
    let mut preps = Vec::with_capacity(ctrls.len());
    for c in ctrls.iter_mut() {
        let a = allocs_now();
        let t = Instant::now();
        let p = c.tick_prepare(now);
        phases.prepare_ns += t.elapsed().as_nanos() as u64;
        allocs.prepare.0 += allocs_now() - a;
        allocs.prepare.1 += 1;
        preps.push(p);
    }
    let fresh_of =
        sampled(tick, |ci| matches!(&preps[ci].0, TickPrep::Round(ctx) if !ctx.must_fall_back()));
    let mut solved: Vec<Option<SolveOutcome>> = Vec::with_capacity(ctrls.len());
    let mut fresh = None;
    for (ci, ((prep, _), engine)) in preps.iter().zip(engines.iter_mut()).enumerate() {
        let outcome = match prep {
            TickPrep::Round(ctx) if !ctx.must_fall_back() => {
                let before = engine.stats().rows_recomputed;
                let a = allocs_now();
                let t = Instant::now();
                let solution = engine.solve(ctx.problem());
                phases.solve_ns += t.elapsed().as_nanos() as u64;
                allocs.solve.0 += allocs_now() - a;
                allocs.solve.1 += 1;
                if Some(ci) == fresh_of {
                    fresh = Some((ci, solution.clone(), Arc::clone(ctx.problem())));
                }
                let rows_delta = engine.stats().rows_recomputed - before;
                Some(SolveOutcome { solution, trace: None, rows_delta })
            }
            _ => None,
        };
        solved.push(outcome);
    }
    let mut outs = Vec::with_capacity(ctrls.len());
    for ((c, (prep, retx)), outcome) in ctrls.iter_mut().zip(preps).zip(solved) {
        let a = allocs_now();
        let t = Instant::now();
        let round = match prep {
            TickPrep::Idle => None,
            TickPrep::Round(ctx) => c.tick_commit(now, ctx, outcome),
        };
        phases.commit_ns += t.elapsed().as_nanos() as u64;
        allocs.commit.0 += allocs_now() - a;
        allocs.commit.1 += 1;
        outs.push((round, retx));
    }
    (phases, outs, fresh)
}

/// The wire-visible part of a tick: every configuration and
/// retransmission, per conference.
fn configs(ticks: &[FleetTick]) -> Vec<Vec<(ClientId, GsoTmmbr)>> {
    ticks
        .iter()
        .map(|(round, retx)| {
            round
                .iter()
                .flat_map(|o| o.configs.iter().cloned())
                .chain(retx.iter().cloned())
                .collect()
        })
        .collect()
}

fn sum_stats(engines: &[SolveEngine]) -> EngineStats {
    let mut s = EngineStats::default();
    for e in engines.iter().map(SolveEngine::stats) {
        s.knapsacks += e.knapsacks;
        s.full_hits += e.full_hits;
        s.fresh_recomputes += e.fresh_recomputes;
        s.rows_recomputed += e.rows_recomputed;
        s.rows_reused += e.rows_reused;
    }
    s
}

fn run_traced(seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let begin = Instant::now();
    let mut script = Script::new(seed);
    let cfg = ControllerConfig::paper_defaults();
    let mut phased = script.seat();
    let mut engines: Vec<SolveEngine> =
        (0..CONFERENCES).map(|_| SolveEngine::new(cfg.solver.clone())).collect();
    let mut batched = seat_fleet(&script, 1);
    let mut plain = script.seat();

    let mut allocs = PhaseAllocs::default();
    let mut phase_ticks: Vec<Phases> = Vec::new();
    let mut phased_ms = Vec::new();
    let mut batched_ms = Vec::new();
    let mut plain_ms = Vec::new();
    let mut overhead_ms = Vec::new();
    let mut counted = EngineStats::default();
    let mut base = EngineStats::default();
    let (mut rounds, mut fallbacks, mut sent, mut retransmits) = (0u64, 0u64, 0u64, 0u64);
    let mut tick = 0usize;
    loop {
        let now = tick_time(tick);
        if tick > 0 {
            for (ci, op) in script.next_inputs() {
                apply(&mut phased[ci], now, &op);
                apply(batched.get_mut(ci).expect("conference exists"), now, &op);
                apply(&mut plain[ci], now, &op);
            }
        }
        let t = Instant::now();
        let (phases, a_out, fresh) = phased_tick(&mut phased, &mut engines, now, &mut allocs, tick);
        let a_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let b_out = batched.tick_all(now);
        let b_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let c_out: Vec<FleetTick> = plain.iter_mut().map(|c| c.tick(now)).collect();
        let c_ms = t.elapsed().as_secs_f64() * 1e3;

        let same = configs(&a_out) == configs(&b_out) && configs(&b_out) == configs(&c_out);
        out.check(same, || format!("tick {tick}: phased, tick_all and tick configs differ"));
        match fresh {
            Some((ci, solution, problem)) => {
                let reference = solver::solve(&problem, &cfg.solver);
                out.check(solution == reference, || {
                    format!("tick {tick}: conference {ci} engine solve differs from solver::solve")
                });
            }
            None => out.check(false, || format!("tick {tick}: no conference solved")),
        }
        for (ci, o) in a_out.iter().enumerate() {
            ack(&mut phased[ci], o);
            ack(batched.get_mut(ci).expect("conference exists"), &b_out[ci]);
            ack(&mut plain[ci], &c_out[ci]);
            if (1..=COUNTED_TICKS).contains(&tick) {
                if let Some(r) = &o.0 {
                    rounds += 1;
                    fallbacks += u64::from(r.fallback);
                    sent += r.configs.len() as u64;
                }
                retransmits += o.1.len() as u64;
            }
        }
        if tick == 0 {
            base = sum_stats(&engines);
            allocs = PhaseAllocs::default();
        } else {
            phase_ticks.push(phases);
            phased_ms.push(a_ms);
            batched_ms.push(b_ms);
            plain_ms.push(c_ms);
            overhead_ms.push(b_ms - phases.sum_ns() as f64 / 1e6);
            if tick == COUNTED_TICKS {
                let s = sum_stats(&engines);
                counted = EngineStats {
                    knapsacks: s.knapsacks - base.knapsacks,
                    full_hits: s.full_hits - base.full_hits,
                    fresh_recomputes: s.fresh_recomputes - base.fresh_recomputes,
                    rows_recomputed: s.rows_recomputed - base.rows_recomputed,
                    rows_reused: s.rows_reused - base.rows_reused,
                    ..EngineStats::default()
                };
            }
        }
        tick += 1;
        if tick > COUNTED_TICKS && begin.elapsed() >= budget {
            break;
        }
    }
    drop(batched);

    let phase_ms = |f: fn(&Phases) -> u64| {
        median(&phase_ticks.iter().map(|p| f(p) as f64 / 1e6).collect::<Vec<_>>())
    };
    let per_call = |(n, calls): (u64, u64)| n as f64 / calls.max(1) as f64;
    out.set("ctrl.prepare_ms", phase_ms(|p| p.prepare_ns));
    out.set("ctrl.prepare_allocs", per_call(allocs.prepare));
    out.set("algo.solve_ms", phase_ms(|p| p.solve_ns));
    out.set("algo.solve_allocs", per_call(allocs.solve));
    out.set("ctrl.commit_ms", phase_ms(|p| p.commit_ns));
    out.set("ctrl.commit_allocs", per_call(allocs.commit));
    out.set("algo.batch_overhead_ms", median(&overhead_ms));
    out.set("algo.knapsacks", counted.knapsacks as f64);
    out.set("algo.full_hits", counted.full_hits as f64);
    out.set("algo.fresh_recomputes", counted.fresh_recomputes as f64);
    out.set("algo.rows_recomputed", counted.rows_recomputed as f64);
    out.set("algo.rows_reused", counted.rows_reused as f64);
    let rows = (counted.rows_recomputed + counted.rows_reused).max(1) as f64;
    out.set("algo.row_reuse_ratio", counted.rows_reused as f64 / rows);
    out.set("ctrl.solves", rounds as f64);
    out.set("gtmb.sent", sent as f64);
    out.set("gtmb.retransmits", retransmits as f64);
    out.set("ctrl.fallback_rounds", fallbacks as f64);
    out.set("fail_ratio", fallbacks as f64 / rounds.max(1) as f64);
    let phased_med = median(&phased_ms);
    let plain_med = median(&plain_ms);
    out.set("trace.wall_ms", phased_med);
    out.set("trace.self_sum_ms", phase_ms(Phases::sum_ns));
    out.set("trace.shim_ms", phased_med - phase_ms(Phases::sum_ns));
    out.set("trace.overhead_pct", (phased_med - plain_med) / plain_med * 100.0);
    out.attempted = rounds;
    out.failed = fallbacks;
    out.notes.push(format!(
        "traced warm ticks={} phased {:.2} ms, tick_all@1 {:.2} ms, plain tick loop {:.2} ms per tick (medians); \
         work counters cover warm ticks 1..={COUNTED_TICKS}; row reuse base = rows_recomputed + rows_reused",
        phase_ticks.len(),
        phased_med,
        median(&batched_ms),
        plain_med
    ));
    out
}
