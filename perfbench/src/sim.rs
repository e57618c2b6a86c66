//! The packet-simulator workload: `impaired_adapt`.
//!
//! Untraced, each repeat builds a scenario instance with the public
//! `Scenario` API, steps the simulator in controller-tick-sized slices
//! (100 ms of simulated time; the same event sequence as one `run_until`),
//! harvests the result and checks it; a run cycles through a few
//! instances generated from its seed until the time budget is spent.
//! Every repeat of an instance does the same work, so each timed segment
//! (wiring, every step, harvest) is reduced to its lower decile across
//! the instance's repeats: host interference that slows a stretch of one
//! repeat moves no metric, as long as a tenth of the repeats ran that
//! stretch undisturbed. Scenarios are kept short (24 s simulated) so
//! that a run holds many repeats of each instance.
//! Traced, each repeat pairs a plain `Scenario::run` of the seed's own
//! instance with a run in which every node is wrapped by
//! [`crate::trace::Timed`].

use crate::alloc::allocs_now;
use crate::report::{median, peak_rss_mb, percentile, Outcome};
use crate::trace::{build_traced, replay_links, replay_parse, Kind, Probe, TracedConference};
use gso_algo::Resolution;
use gso_net::{LinkConfig, Schedule};
use gso_sim::conference::ConferenceNode;
use gso_sim::workloads::ladder_for_mode;
use gso_sim::{ClientScenario, PolicyMode, Scenario, ScenarioResult, WiredConference};
use gso_telemetry::keys;
use gso_util::{Bitrate, ClientId, DetRng, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Simulated time per step: one controller tick interval.
const STEP: SimDuration = SimDuration::from_millis(100);
/// Set-up covers wiring plus the join phase and the cold first solves.
const SETUP_UNTIL: SimTime = SimTime::from_secs(2);
/// Steps inside the set-up phase: `SETUP_UNTIL` / `STEP`.
const SETUP_STEPS: usize = 20;
/// The capped subscriber must stay under its cap this long to count as
/// adapted.
const ADAPT_WINDOW: SimDuration = SimDuration::from_secs(2);

/// A scripted capacity drop on the capped subscriber's downlink.
#[derive(Debug, Clone, Copy)]
struct CapDrop {
    at: SimTime,
    cap: Bitrate,
    /// When the next capacity step (the recovery) begins.
    until: SimTime,
}

/// The simulator seed (loss and jitter draws) of the `instance`-th
/// instance. It is fixed rather than taken from the run's
/// seed: with 50 ms of jitter on a downlink the conference settles into a
/// cheaper or a dearer state depending on the draws (up to ±15% wall
/// time), which would let the seed, not the program, decide a run's
/// figures. The run's seed still sets the capacity schedule's phases.
fn network_seed(instance: u64) -> u64 {
    DetRng::derive(instance, "perfbench-impaired_adapt-network").range_u64(0, u64::MAX)
}

/// A workload instance generated from a seed.
struct Plan {
    scenario: Scenario,
    /// The subscriber whose downlink follows a capacity schedule.
    capped: (ClientId, Vec<CapDrop>),
    /// Video subscriptions across all clients.
    subscriptions: u64,
}

/// Six parties over two regions; one subscriber's downlink follows a
/// scripted capacity schedule, one uplink loses packets, one downlink
/// jitters, and the active speaker rotates.
fn plan(seed: u64, instance: u64) -> Plan {
    let ladder = ladder_for_mode(PolicyMode::Gso);
    let mut rng = DetRng::derive(seed, "perfbench-impaired_adapt-schedule");
    let base = Bitrate::from_mbps(6);
    let mut clients: Vec<ClientScenario> = (1..=6u32)
        .map(|i| {
            ClientScenario::clean(ClientId(i), Bitrate::from_kbps(2_500), base, ladder.clone())
        })
        .collect();
    // Alternate parties sit in the second region, so the access nodes
    // relay media between regions.
    for c in clients.iter_mut().skip(1).step_by(2) {
        c.region = 1;
    }
    // Two drops to the Table-2 1.5 Mbps limit and two recoveries;
    // the seed shifts each step by up to 1 s so every seed adapts
    // at a different phase. (Deeper caps starve the subscriber's
    // GTMB deliveries into the §7 undeliverable fallback on some
    // seeds, and the benchmark's workloads must not fail.)
    let cap = Bitrate::from_kbps(1_500);
    let mut jitter =
        |s: u64| SimTime::from_secs(s) + SimDuration::from_millis(rng.range_u64(0, 1_000));
    let steps = [(jitter(5), cap), (jitter(10), base), (jitter(15), cap), (jitter(20), base)];
    let mut schedule = vec![(SimTime::ZERO, base)];
    schedule.extend(steps);
    clients[1].downlink = LinkConfig::clean(base, SimDuration::from_millis(20))
        .with_rate_schedule(Schedule::steps(schedule));
    // Loss starts once everyone has joined: the join handshake has
    // no retransmission, and a lost join would drop a party.
    let mut lossy = LinkConfig::clean(Bitrate::from_kbps(2_500), SimDuration::from_millis(20));
    lossy.loss = Schedule::steps(vec![(SimTime::ZERO, 0.0), (SETUP_UNTIL, 0.10)]);
    clients[2].uplink = lossy;
    clients[3].downlink = LinkConfig::clean(base, SimDuration::from_millis(20))
        .with_jitter(SimDuration::from_millis(50));
    let drops = vec![
        CapDrop { at: steps[0].0, cap: steps[0].1, until: steps[1].0 },
        CapDrop { at: steps[2].0, cap: steps[2].1, until: steps[3].0 },
    ];
    let speaker_schedule = (1..6u64)
        .map(|k| (SimTime::from_secs(4 * k), Some(ClientId((k % 6) as u32 + 1))))
        .collect();
    let mut scenario = Scenario {
        seed: network_seed(instance),
        mode: PolicyMode::Gso,
        duration: SimDuration::from_secs(24),
        clients,
        speaker_schedule,
        standby: false,
    };
    scenario.subscribe_all_to_all(Resolution::R720);
    Plan { scenario, capped: (ClientId(2), drops), subscriptions: 6 * 5 }
}

/// What one untraced repeat measured.
struct Run {
    /// Wall ms of each timed segment, in order: `Scenario::build`, every
    /// 100 ms step, `Scenario::harvest`. The first `1 + SETUP_STEPS` are
    /// set-up. The output checks between steps are not timed.
    segments_ms: Vec<f64>,
    events: u64,
    metrics_json: String,
    solves: u64,
    gtmb_sent: u64,
    gtmb_failed: u64,
    quality: Quality,
    final_check: Result<(), String>,
}

/// The controller's most recent round: its solution and the problem it was
/// committed against, snapshotted at the step boundary after the round.
#[derive(Default)]
struct RoundWatch {
    rounds: usize,
    last: Option<(gso_algo::Solution, Result<gso_algo::Problem, String>, bool)>,
}

impl RoundWatch {
    /// Snapshot the controller if it ran a round during the last step.
    fn observe(&mut self, wired: &WiredConference) {
        let Some(conf) = wired.sim.node::<ConferenceNode>(wired.cn) else { return };
        let ctrl = &conf.controller;
        let rounds = ctrl.call_intervals().len() + usize::from(ctrl.last_solution().is_some());
        if rounds != self.rounds {
            self.rounds = rounds;
            self.last = ctrl.last_solution().map(|s| {
                let problem = ctrl.picture.to_problem().map_err(|e| format!("{e:?}"));
                (s.clone(), problem, ctrl.fallback_active())
            });
        }
    }

    /// The final solution must be the last round's and satisfy
    /// `Solution::validate` against that round's problem.
    fn check(&self, wired: &WiredConference) -> Result<(), String> {
        let conf: &ConferenceNode =
            wired.sim.node(wired.cn).ok_or_else(|| "conference node missing".to_string())?;
        let (solution, problem, fallback) =
            self.last.as_ref().ok_or_else(|| "controller never solved".to_string())?;
        if conf.controller.last_solution() != Some(solution) {
            return Err("final solution is not the last observed round's".to_string());
        }
        if *fallback {
            return Err("run ended in fallback".to_string());
        }
        let problem = problem.as_ref().map_err(|e| format!("final picture: {e}"))?;
        solution.validate(problem).map_err(|v| format!("final solution invalid: {v:?}"))
    }
}

fn elapsed_ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

fn run_untraced(plan: &Plan) -> Run {
    let end = SimTime::ZERO + plan.scenario.duration;
    let mut segments_ms = Vec::with_capacity(700);
    let start = Instant::now();
    let mut wired = plan.scenario.build();
    segments_ms.push(elapsed_ms(start));
    let mut watch = RoundWatch::default();
    let mut events = 0;
    let mut t = SimTime::ZERO;
    while t < end {
        let next = (t + STEP).min(end);
        let step = Instant::now();
        events += wired.sim.run_until(next);
        segments_ms.push(elapsed_ms(step));
        t = next;
        watch.observe(&wired);
    }
    let final_check = watch.check(&wired);
    let start = Instant::now();
    let result = plan.scenario.harvest(wired, end);
    segments_ms.push(elapsed_ms(start));
    let t = &result.telemetry;
    Run {
        segments_ms,
        events,
        solves: t.counter_total(keys::CTRL_SOLVES),
        gtmb_sent: t.counter_total(keys::GTMB_SENT),
        gtmb_failed: t.counter_total(keys::GTMB_FAILED),
        quality: quality(plan, &result),
        metrics_json: result.metrics_json,
        final_check,
    }
}

/// Quality metrics, deterministic in simulated time.
struct Quality {
    video_stall: f64,
    framerate_fps: f64,
    goodput_kbps: f64,
    adapt_ms: f64,
}

fn quality(plan: &Plan, result: &ScenarioResult) -> Quality {
    let secs = plan.scenario.duration.as_secs_f64();
    let bytes = result.telemetry.counter_total(keys::MEDIA_BYTES_RENDERED) as f64;
    let (id, drops) = &plan.capped;
    let settles: Vec<f64> =
        drops.iter().map(|d| settle_ms(d, result.recv_series[id].points())).collect();
    Quality {
        video_stall: result.mean_video_stall(),
        framerate_fps: result.mean_framerate(),
        goodput_kbps: bytes * 8.0 / 1e3 / plan.subscriptions as f64 / secs,
        adapt_ms: median(&settles),
    }
}

/// Sim-ms from the drop until the subscriber's receive rate stays at or
/// under the cap for a full window (the whole capped span if it never
/// does).
fn settle_ms(d: &CapDrop, points: &[(SimTime, f64)]) -> f64 {
    let cap = d.cap.as_bps() as f64;
    let window: Vec<&(SimTime, f64)> =
        points.iter().filter(|(t, _)| *t > d.at && *t <= d.until).collect();
    for (i, &&(t, _)) in window.iter().enumerate() {
        let horizon = t + ADAPT_WINDOW;
        if horizon > d.until {
            break;
        }
        if window[i..].iter().take_while(|(u, _)| *u <= horizon).all(|&&(_, v)| v <= cap) {
            return t.saturating_since(d.at).as_secs_f64() * 1e3;
        }
    }
    d.until.saturating_since(d.at).as_secs_f64() * 1e3
}

/// Scenario instances an untraced run cycles through. Each is the
/// workload generated from a seed derived from the run's seed; summing
/// over several instances keeps one instance's congestion dynamics from
/// deciding the run.
const INSTANCES: u64 = 7;

/// Cycles through the instances an untraced run completes, at least. A
/// segment's lower decile is then taken over at least this many repeats.
const MIN_CYCLES: usize = 6;

/// Instance 0 is the run's own seed; the rest are derived from it.
fn instance_seed(seed: u64, i: u64) -> u64 {
    if i == 0 {
        seed
    } else {
        DetRng::derive(seed, &format!("perfbench-instance-{i}")).range_u64(0, u64::MAX)
    }
}

/// Entry point.
pub fn run(seed: u64, budget: Duration, traced: bool) -> Outcome {
    if traced {
        run_traced(&plan(seed, 0), budget)
    } else {
        let plans: Vec<Plan> = (0..INSTANCES).map(|i| plan(instance_seed(seed, i), i)).collect();
        run_end_to_end(&plans, budget)
    }
}

/// Warm up on the first instance, then cycle through the instances while
/// another full cycle fits in the budget, completing at least
/// `MIN_CYCLES`. Every repeat's metrics export must equal the first export
/// of its instance.
fn run_end_to_end(plans: &[Plan], budget: Duration) -> Outcome {
    let begin = Instant::now();
    let warm = run_untraced(&plans[0]);
    let mut reference: Vec<Option<String>> = vec![None; plans.len()];
    reference[0] = Some(warm.metrics_json);
    let mut out = Outcome::default();
    // The first cycle's runs (for counts and quality), and per instance
    // the timed segments of every repeat.
    let mut firsts: Vec<Run> = Vec::new();
    let mut segments: Vec<Vec<Vec<f64>>> = vec![Vec::new(); plans.len()];
    let mut cycles = 0;
    loop {
        let cycle = Instant::now();
        for (i, plan) in plans.iter().enumerate() {
            let mut r = run_untraced(plan);
            let expected = reference[i].get_or_insert_with(|| r.metrics_json.clone());
            let same = *expected == r.metrics_json;
            out.check(same, || format!("instance {i}: metrics_json differs from its first run"));
            out.check(r.final_check.is_ok(), || format!("instance {i}: {:?}", r.final_check));
            segments[i].push(std::mem::take(&mut r.segments_ms));
            if cycles == 0 {
                firsts.push(r);
            }
        }
        cycles += 1;
        if cycles >= MIN_CYCLES && begin.elapsed() + cycle.elapsed() > budget {
            break;
        }
    }
    // Each segment's lower decile across the instance's repeats.
    let profiles: Vec<Vec<f64>> = segments
        .iter()
        .map(|repeats| {
            (0..repeats[0].len())
                .map(|s| percentile(&repeats.iter().map(|r| r[s]).collect::<Vec<_>>(), 10.0).0)
                .collect()
        })
        .collect();
    let client_s: f64 = plans
        .iter()
        .map(|p| p.scenario.clients.len() as f64 * p.scenario.duration.as_secs_f64())
        .sum();
    let wall_ms: f64 = profiles.iter().flatten().sum();
    let setups: Vec<f64> =
        profiles.iter().map(|p| p[..=SETUP_STEPS].iter().sum::<f64>() / 1e3).collect();
    let steps: Vec<f64> =
        profiles.iter().flat_map(|p| p[1 + SETUP_STEPS..p.len() - 1].iter().copied()).collect();
    let (p95, beyond) = percentile(&steps, 95.0);
    out.check(beyond >= 10, || format!("only {beyond} steps beyond the p95"));
    let solves: u64 = firsts.iter().map(|r| r.solves).sum();
    for r in &firsts {
        out.attempted += r.gtmb_sent * cycles as u64;
        out.failed += r.gtmb_failed * cycles as u64;
    }
    out.set("setup_s", median(&setups));
    out.set("wall_ms_per_client_s", wall_ms / client_s);
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("tick_p50_ms", median(&steps));
    out.set("tick_p95_ms", p95);
    out.set("solves_per_s", solves as f64 / (wall_ms / 1e3));
    out.notes.push(format!(
        "instances={} cycles={cycles} steps/repeat={} lower-decile wall ms per instance={:?} median repeat wall ms per instance={:?}",
        plans.len(),
        segments[0][0].len() - 2,
        profiles.iter().map(|p| p.iter().sum::<f64>().round()).collect::<Vec<_>>(),
        segments
            .iter()
            .map(|repeats| median(&repeats.iter().map(|r| r.iter().sum()).collect::<Vec<_>>()).round())
            .collect::<Vec<_>>(),
    ));
    for (i, r) in firsts.iter().enumerate() {
        let q = &r.quality;
        out.notes.push(format!(
            "instance {i} (simulator seed {}): events={} video_stall={:.4} framerate_fps={:.3} goodput_kbps={:.3} adapt_ms={:.0} gtmb sent={} failed={}",
            plans[i].scenario.seed,
            r.events,
            q.video_stall,
            q.framerate_fps,
            q.goodput_kbps,
            q.adapt_ms,
            r.gtmb_sent,
            r.gtmb_failed,
        ));
    }
    out
}

/// Accumulated totals over traced repeats.
#[derive(Default)]
struct TracedTotals {
    repeats: u64,
    events: u64,
    run_ns: u64,
    run_allocs: u64,
    callback_ns: u64,
    shim_ns: u64,
    shim_allocs: u64,
    kinds: [crate::trace::KindStats; 3],
}

fn run_traced(plan: &Plan, budget: Duration) -> Outcome {
    let begin = Instant::now();
    let end = SimTime::ZERO + plan.scenario.duration;
    let mut out = Outcome::default();
    let mut totals = TracedTotals::default();
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut last = None;
    while totals.repeats == 0 || begin.elapsed() < budget {
        let t = Instant::now();
        let reference = plan.scenario.run();
        untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);

        let probe = Rc::new(RefCell::new(Probe::default()));
        let t = Instant::now();
        let TracedConference { mut wired, links } = build_traced(&plan.scenario, &probe);
        let a0 = allocs_now();
        let r0 = Instant::now();
        let events = wired.sim.run_until(end);
        let run_ns = r0.elapsed().as_nanos() as u64;
        let run_allocs = allocs_now() - a0;
        let link_stats = wired.sim.all_link_stats();
        let engine =
            wired.sim.node::<ConferenceNode>(wired.cn).map(|c| c.controller.engine_stats());
        let result = plan.scenario.harvest(wired, end);
        traced_ms.push(t.elapsed().as_secs_f64() * 1e3);

        let repeat = totals.repeats;
        out.check(result.metrics_json == reference.metrics_json, || {
            format!("repeat {repeat}: traced metrics_json differs from Scenario::run")
        });
        {
            let p = probe.borrow();
            totals.events += events;
            totals.run_ns += run_ns;
            totals.run_allocs += run_allocs;
            totals.callback_ns += p.callback_ns();
            totals.shim_ns += p.shim_total_ns;
            totals.shim_allocs += p.shim_total_allocs;
            for (acc, k) in totals.kinds.iter_mut().zip(p.kinds.iter()) {
                acc.calls += k.calls;
                acc.self_ns += k.self_ns;
                acc.allocs += k.allocs;
            }
        }
        totals.repeats += 1;
        last = Some((probe, links, link_stats, engine, reference));
    }
    let (probe, links, link_stats, engine, reference) = last.expect("at least one traced repeat");
    let probe = probe.borrow();
    let n = totals.repeats as f64;

    // Replays: the captured offers must reproduce every link's statistics,
    // and every sampled packet must parse.
    let links_replay = replay_links(plan.scenario.seed, &probe, &links, &link_stats);
    for m in &links_replay.mismatches {
        out.failures.push(m.clone());
    }
    let parse = replay_parse(&probe);
    out.check(parse.failures == 0, || {
        format!("{} sampled packets failed to parse", parse.failures)
    });

    let ms = |ns: u64| ns as f64 / 1e6 / n;
    let loop_self_ns = totals.run_ns.saturating_sub(totals.shim_ns);
    let loop_allocs = totals.run_allocs.saturating_sub(totals.shim_allocs);
    out.set("net.events", totals.events as f64 / n);
    out.set("net.events_per_s", totals.events as f64 / (totals.run_ns as f64 / 1e9));
    out.set("net.loop_self_ms", ms(loop_self_ns));
    out.set("net.allocs_per_event", loop_allocs as f64 / totals.events.max(1) as f64);
    out.set("net.link.offers", links_replay.offers as f64);
    out.set("net.link.offer_ns", links_replay.offer_ns);
    let t = &reference.telemetry;
    out.set("net.link.dropped_queue", t.counter_total(keys::NET_DROPPED_QUEUE) as f64);
    out.set("net.link.dropped_loss", t.counter_total(keys::NET_DROPPED_LOSS) as f64);
    let peak_queue = link_stats.iter().map(|(_, s)| s.peak_queued_bytes).max().unwrap_or(0);
    out.set("net.link.peak_queue_bytes", peak_queue as f64);
    let kinds = [
        (
            Kind::Client,
            [
                "sim.client.calls",
                "sim.client.self_ms",
                "sim.client.ns_per_call",
                "sim.client.allocs_per_call",
            ],
        ),
        (
            Kind::Access,
            [
                "sim.access.calls",
                "sim.access.self_ms",
                "sim.access.ns_per_call",
                "sim.access.allocs_per_call",
            ],
        ),
        (
            Kind::Conf,
            [
                "sim.conf.calls",
                "sim.conf.self_ms",
                "sim.conf.ns_per_call",
                "sim.conf.allocs_per_call",
            ],
        ),
    ];
    for (kind, [calls_name, self_name, ns_name, allocs_name]) in kinds {
        let k = totals.kinds[kind as usize];
        let calls = k.calls.max(1) as f64;
        out.set(calls_name, k.calls as f64 / n);
        out.set(self_name, ms(k.self_ns));
        out.set(ns_name, k.self_ns as f64 / calls);
        out.set(allocs_name, k.allocs as f64 / calls);
    }
    out.set("rtp.packets", probe.rtp_packets as f64);
    out.set("rtp.parse_ns", parse.rtp_ns);
    out.set("rtcp.packets", probe.rtcp_packets as f64);
    out.set("rtcp.parse_ns", parse.rtcp_ns);
    out.set("bwe.overuse_transitions", t.counter_total(keys::BWE_OVERUSE) as f64);
    out.set("bwe.decreases", t.counter_total(keys::BWE_DECREASES) as f64);
    out.set("bwe.probe_lifts", t.counter_total(keys::BWE_PROBE_LIFTS) as f64);
    let (switches, _) = t.histogram_total(keys::SFU_SWITCH_LATENCY_US);
    out.set("sfu.switch_latency_us.count", switches as f64);
    out.set("sfu.switch_latency_us.p50", switch_latency_p50_us(t, &plan.scenario.clients));
    out.set("sfu.dropped_bytes", t.counter_total(keys::SFU_DROPPED_BYTES) as f64);
    let solves = t.counter_total(keys::CTRL_SOLVES);
    let sent = t.counter_total(keys::GTMB_SENT);
    let failed = t.counter_total(keys::GTMB_FAILED);
    out.set("ctrl.solves", solves as f64);
    out.set("gtmb.sent", sent as f64);
    out.set("gtmb.retransmits", t.counter_total(keys::GTMB_RETRANSMITS) as f64);
    out.set("ctrl.fallback_rounds", t.counter_total(keys::CTRL_FALLBACK_ROUNDS) as f64);
    if let Some(e) = engine {
        out.set("algo.knapsacks", e.knapsacks as f64);
        out.set("algo.full_hits", e.full_hits as f64);
        out.set("algo.fresh_recomputes", e.fresh_recomputes as f64);
        out.set("algo.rows_recomputed", e.rows_recomputed as f64);
        out.set("algo.rows_reused", e.rows_reused as f64);
        let base = (e.rows_recomputed + e.rows_reused).max(1) as f64;
        out.set("algo.row_reuse_ratio", e.rows_reused as f64 / base);
    }
    let q = quality(plan, &reference);
    out.set("video_stall", q.video_stall);
    out.set("framerate_fps", q.framerate_fps);
    out.set("goodput_kbps", q.goodput_kbps);
    out.set("adapt_ms", q.adapt_ms);
    out.set("fail_ratio", failed as f64 / sent.max(1) as f64);
    out.attempted = sent * totals.repeats;
    out.failed = failed * totals.repeats;

    let self_sum_ns = loop_self_ns + totals.callback_ns;
    out.set("trace.wall_ms", ms(totals.run_ns));
    out.set("trace.self_sum_ms", ms(self_sum_ns));
    out.set("trace.shim_ms", ms(totals.shim_ns.saturating_sub(totals.callback_ns)));
    let untraced = median(&untraced_ms);
    out.set("trace.overhead_pct", (median(&traced_ms) - untraced) / untraced * 100.0);
    out.notes.push(format!(
        "traced repeats={} untraced run {:.1} ms, traced run {:.1} ms; rtp samples={} rtcp samples={}; row reuse base = rows_recomputed + rows_reused",
        totals.repeats,
        untraced,
        median(&traced_ms),
        probe.rtp_samples.len(),
        probe.rtcp_samples.len()
    ));
    out
}

/// Median SFU switch latency, as the upper bound of the histogram bucket
/// holding the middle sample (summed over labels).
fn switch_latency_p50_us(t: &gso_telemetry::Telemetry, clients: &[ClientScenario]) -> f64 {
    let mut counts = vec![0u64; keys::LATENCY_US_BOUNDS.len() + 1];
    for c in clients {
        if let Some(h) = t.histogram(keys::SFU_SWITCH_LATENCY_US, c.id) {
            for (acc, n) in counts.iter_mut().zip(&h.counts) {
                *acc += n;
            }
        }
    }
    let total: u64 = counts.iter().sum();
    let mut seen = 0;
    for (i, n) in counts.iter().enumerate() {
        seen += n;
        if total > 0 && 2 * seen >= total {
            // The overflow bucket has no upper bound; report the last one.
            let last = keys::LATENCY_US_BOUNDS.len() - 1;
            return keys::LATENCY_US_BOUNDS[i.min(last)] as f64;
        }
    }
    0.0
}
