//! The GSO controller — the "brain" of a conference (§3).
//!
//! Composes the global picture, the bandwidth hysteresis gate, the control
//! scheduler, the solver and the feedback executor into one component with a
//! small event-driven surface: feed it reports and membership changes, call
//! [`GsoController::tick`] periodically, transmit whatever it returns.

use crate::failure::fallback_solution;
use crate::feedback::{FeedbackConfig, FeedbackExecutor, ForwardingRule};
use crate::hysteresis::{BandwidthHysteresis, HysteresisConfig};
use crate::scheduler::{ControlScheduler, SchedulerConfig};
use crate::state::{CodecCapability, GlobalPicture, SubscribeIntent};
use gso_algo::{
    diff, Problem, Solution, SolutionDiff, SolveEngine, SolveTrace, SolverConfig, SourceId, Tenancy,
};
use gso_rtp::{GsoTmmbn, GsoTmmbr};
use gso_telemetry::{keys, Telemetry};
use gso_util::{Bitrate, ClientId, SimTime, Ssrc};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Link direction, used as part of the hysteresis key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Direction {
    /// Client → accessing node.
    Uplink,
    /// Accessing node → client.
    Downlink,
}

/// Aggregate configuration.
#[derive(Debug, Clone, Default)]
pub struct ControllerConfig {
    /// Solver knobs.
    pub solver: SolverConfig,
    /// Scheduling cadence (1–3 s in production).
    pub scheduler: SchedulerConfig,
    /// Oscillation-avoidance gate.
    pub hysteresis: HysteresisConfig,
    /// GTMB reliability.
    pub feedback: FeedbackConfig,
    /// Relative bandwidth change that is an event trigger.
    pub event_threshold: f64,
    /// Keep the previous solution when it still satisfies the current
    /// constraints and the fresh one improves total QoE by less than this
    /// fraction — reconfiguration itself costs quality (layer switches wait
    /// for keyframes), so marginal wins are not worth taking (§7).
    pub stickiness: f64,
    /// Solve-deadline watchdog budget, in DP class-rows recomputed per
    /// round (the sim's deterministic work/latency proxy — see
    /// `CTRL_SOLVE_ROWS`). A round whose fresh solve exceeds the budget is
    /// served by `fallback_solution` instead, and the next round re-solves
    /// on the warm engine and re-promotes if it fits. `0` disables the
    /// watchdog.
    pub solve_deadline_rows: u64,
}

impl ControllerConfig {
    /// Paper-calibrated defaults.
    pub fn paper_defaults() -> Self {
        ControllerConfig {
            solver: SolverConfig::default(),
            scheduler: SchedulerConfig::default(),
            hysteresis: HysteresisConfig::default(),
            feedback: FeedbackConfig::default(),
            event_threshold: 0.15,
            stickiness: 0.10,
            solve_deadline_rows: 500_000,
        }
    }
}

/// An orchestration round prepared by [`GsoController::tick_prepare`],
/// waiting for its solve before [`GsoController::tick_commit`].
#[derive(Debug)]
pub struct RoundContext {
    problem: Arc<Problem>,
    must_fall_back: bool,
}

impl RoundContext {
    /// The problem snapshot this round must solve (shared with the batch
    /// scheduler's job).
    #[must_use]
    pub fn problem(&self) -> &Arc<Problem> {
        &self.problem
    }

    /// True when the round is forced into the §7 single-stream fallback —
    /// no solve needed; commit with `None`.
    #[must_use]
    pub fn must_fall_back(&self) -> bool {
        self.must_fall_back
    }
}

/// What [`GsoController::tick_prepare`] decided about this tick.
#[derive(Debug)]
pub enum TickPrep {
    /// No orchestration round is due.
    Idle,
    /// A round is due: solve the context's problem (unless it must fall
    /// back) and pass both to [`GsoController::tick_commit`].
    Round(RoundContext),
}

/// The solve a round's [`RoundContext`] asked for, produced inline by
/// [`GsoController::tick`] or by a `BatchScheduler` worker via
/// [`ControllerFleet`](crate::ControllerFleet).
#[derive(Debug)]
pub struct SolveOutcome {
    /// The fresh solution.
    pub solution: Solution,
    /// Per-iteration trace; required in debug builds (the commit audits
    /// against it), ignored in release.
    pub trace: Option<SolveTrace>,
    /// DP class-rows recomputed by this solve — the deterministic latency
    /// proxy the solve-deadline watchdog meters.
    pub rows_delta: u64,
}

/// One orchestration round's output.
#[derive(Debug)]
pub struct ControlOutput {
    /// Per-client layer configurations to transmit (GTMB).
    pub configs: Vec<(ClientId, GsoTmmbr)>,
    /// Media-plane forwarding rules.
    pub rules: Vec<ForwardingRule>,
    /// The full solution (for metrics/inspection).
    pub solution: Solution,
    /// Minimal reconfiguration relative to the previous round's solution
    /// (empty on the first round): what actually changes on the wire.
    pub churn: SolutionDiff,
    /// True when this round used the single-stream fallback (§7).
    pub fallback: bool,
}

/// The controller.
pub struct GsoController {
    /// The conference node's state store (public: signaling writes into it).
    pub picture: GlobalPicture,
    cfg: ControllerConfig,
    scheduler: ControlScheduler,
    hysteresis: BandwidthHysteresis<(ClientId, Direction)>,
    executor: FeedbackExecutor,
    /// Reusable solve engine: carries MCKP memos across ticks, so a tick
    /// where few clients changed re-solves only those clients' knapsacks.
    engine: SolveEngine,
    /// Effective fallback state of the most recent orchestration round;
    /// transitions are what increment `fallback.entered`/`fallback.exited`.
    fallback_mode: bool,
    /// Fallback cause: operator/exception override via [`Self::set_fallback`].
    manual_fallback: bool,
    /// Fallback cause: clients whose configuration exhausted the GTMB
    /// retransmission budget. Cleared when delivery works again (a later
    /// config is acked), or on leave/rejoin. Fallback exits when empty.
    failed_clients: BTreeSet<ClientId>,
    /// The watchdog downgraded the previous solving round (informational;
    /// the next round always retries on the warm engine).
    degraded: bool,
    /// Chaos/test hook: treat this many upcoming solves as deadline
    /// overruns regardless of their measured work.
    forced_overruns: u32,
    last_solution: Option<Solution>,
    /// Who owns this conference and at which tier; stamped into every
    /// problem snapshot so the fleet's admission/shedding layer can rank it.
    tenancy: Tenancy,
    /// Metrics sink (disabled by default; see `gso-telemetry`).
    telemetry: Telemetry,
}

impl GsoController {
    /// Build a controller; `controller_ssrc` identifies it in feedback.
    pub fn new(cfg: ControllerConfig, controller_ssrc: Ssrc) -> Self {
        GsoController {
            picture: GlobalPicture::new(),
            scheduler: ControlScheduler::new(cfg.scheduler.clone()),
            hysteresis: BandwidthHysteresis::new(cfg.hysteresis.clone()),
            executor: FeedbackExecutor::new(cfg.feedback.clone(), controller_ssrc),
            engine: SolveEngine::new(cfg.solver.clone()),
            cfg,
            fallback_mode: false,
            manual_fallback: false,
            failed_clients: BTreeSet::new(),
            degraded: false,
            forced_overruns: 0,
            last_solution: None,
            tenancy: Tenancy::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Label this conference with its owning tenant and service tier
    /// (default: tenant 0, normal). Read by the fleet's overload shedding
    /// to decide who degrades first; never read by the solver.
    pub fn set_tenancy(&mut self, tenancy: Tenancy) {
        self.tenancy = tenancy;
    }

    /// The conference's tenancy label.
    pub fn tenancy(&self) -> Tenancy {
        self.tenancy
    }

    /// Attach a metrics registry; shared with the feedback executor so
    /// solve work, churn and GTMB delivery all land in one export.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.executor.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// A client joined (signaling + SDP/simulcastInfo negotiation done).
    ///
    /// A join for an already-known `ClientId` is a *rejoin*: the endpoint
    /// crashed and came back with none of its previous state, so its
    /// delivery bookkeeping (pending config, retry budget, applied entry)
    /// is reset rather than continuing the old retransmission sequence,
    /// and it no longer counts as an undeliverable fallback cause.
    pub fn on_join(&mut self, id: ClientId, caps: CodecCapability) {
        if self.picture.contains(id) {
            self.executor.reset_client(id);
            self.failed_clients.remove(&id);
        }
        self.picture.join(id, caps);
        self.scheduler.trigger_event();
    }

    /// A client left.
    pub fn on_leave(&mut self, id: ClientId) {
        self.picture.leave(id);
        // Drop delivery state: without this the executor leaks per-client
        // entries forever and a reused ClientId would inherit a stale
        // `applied` configuration.
        self.executor.on_client_leave(id);
        self.failed_clients.remove(&id);
        self.scheduler.trigger_event();
    }

    /// A client updated its subscriptions.
    pub fn on_subscriptions(&mut self, id: ClientId, intents: Vec<SubscribeIntent>) {
        self.picture.set_subscriptions(id, intents);
        self.scheduler.trigger_event();
    }

    /// The active speaker changed.
    pub fn on_speaker(&mut self, id: Option<ClientId>) {
        self.picture.set_speaker(id);
        self.scheduler.trigger_event();
    }

    /// An uplink SEMB report arrived.
    pub fn on_uplink_report(&mut self, now: SimTime, client: ClientId, measured: Bitrate) {
        let prev = self.picture.uplink_of(client);
        let effective = self.hysteresis.filter((client, Direction::Uplink), now, measured);
        self.picture.report_uplink(client, now, effective);
        self.maybe_trigger(prev, effective);
    }

    /// A downlink report from an accessing node arrived.
    pub fn on_downlink_report(&mut self, now: SimTime, client: ClientId, measured: Bitrate) {
        let prev = self.picture.downlink_of(client);
        let effective = self.hysteresis.filter((client, Direction::Downlink), now, measured);
        self.picture.report_downlink(client, now, effective);
        self.maybe_trigger(prev, effective);
    }

    fn maybe_trigger(&mut self, prev: Option<Bitrate>, new: Bitrate) {
        let Some(prev) = prev else {
            self.scheduler.trigger_event();
            return;
        };
        let p = prev.as_bps() as f64;
        if p <= 0.0 {
            self.scheduler.trigger_event();
            return;
        }
        let change = (new.as_bps() as f64 - p).abs() / p;
        if change >= self.cfg.event_threshold {
            self.scheduler.trigger_event();
        }
    }

    /// A GTBN acknowledgement from a client.
    pub fn on_ack(&mut self, client: ClientId, ack: &GsoTmmbn) {
        let was_pending = self.executor.pending(client);
        self.executor.on_ack(client, ack);
        if was_pending && !self.executor.pending(client) && self.failed_clients.remove(&client) {
            // Delivery to a previously unreachable client works again; if
            // that was the last cause, the next round exits fallback.
            self.scheduler.trigger_event();
        }
    }

    /// Force (or release) the single-stream fallback mode (§7 "Design for
    /// failure"); a change triggers an immediate reconfiguration. Other
    /// fallback causes (undeliverable clients, deadline overruns) are
    /// tracked independently, so releasing the override does not exit
    /// fallback while those persist.
    pub fn set_fallback(&mut self, on: bool) {
        if self.manual_fallback != on {
            self.manual_fallback = on;
            self.scheduler.trigger_event();
        }
    }

    /// Is the controller currently serving fallback configurations?
    pub fn fallback_active(&self) -> bool {
        self.fallback_mode
    }

    /// Did the watchdog downgrade the most recent solving round?
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Treat the next `rounds` fresh solves as solve-deadline overruns
    /// (chaos injection; the watchdog then degrades those rounds to the
    /// fallback configuration exactly as a real overrun would).
    pub fn inject_deadline_overrun(&mut self, rounds: u32) {
        self.forced_overruns = self.forced_overruns.saturating_add(rounds);
    }

    /// Set the controller generation stamped on outgoing GTMB messages
    /// (bumped by the conference node across restarts).
    pub fn set_epoch(&mut self, epoch: u32) {
        self.executor.set_epoch(epoch);
    }

    /// Current controller generation.
    pub fn epoch(&self) -> u32 {
        self.executor.epoch()
    }

    /// Run one controller step: orchestrate if the scheduler says so, and
    /// collect any due retransmissions.
    ///
    /// Equivalent to [`tick_prepare`](Self::tick_prepare), an inline solve
    /// on this controller's own engine, then
    /// [`tick_commit`](Self::tick_commit). Multi-conference hosts drive the
    /// same three phases through a shared `BatchScheduler` via
    /// [`ControllerFleet`](crate::ControllerFleet) instead.
    ///
    /// Returns `(orchestration_output, retransmissions)`.
    // lint: hot_path(controller-tick)
    pub fn tick(&mut self, now: SimTime) -> (Option<ControlOutput>, Vec<(ClientId, GsoTmmbr)>) {
        let (prep, retransmissions) = self.tick_prepare(now);
        let out = match prep {
            TickPrep::Idle => None,
            TickPrep::Round(ctx) => {
                let solved = if ctx.must_fall_back() {
                    None
                } else {
                    let rows_before = self.engine.stats().rows_recomputed;
                    #[cfg(debug_assertions)]
                    let (solution, trace) = {
                        let (s, t) = self.engine.solve_traced(ctx.problem());
                        (s, Some(t))
                    };
                    #[cfg(not(debug_assertions))]
                    let (solution, trace) = (self.engine.solve(ctx.problem()), None);
                    let rows_delta = self.engine.stats().rows_recomputed - rows_before;
                    Some(SolveOutcome { solution, trace, rows_delta })
                };
                self.tick_commit(now, ctx, solved)
            }
        };
        (out, retransmissions)
    }

    /// Phase 1 of a tick: poll the executor, evaluate fallback causes and
    /// the schedule, and snapshot the problem for a due round.
    ///
    /// Always returns the due retransmissions; [`TickPrep::Round`] means the
    /// caller must solve the context's problem (unless it must fall back)
    /// and finish with [`tick_commit`](Self::tick_commit).
    pub fn tick_prepare(&mut self, now: SimTime) -> (TickPrep, Vec<(ClientId, GsoTmmbr)>) {
        let retransmissions = self.executor.poll(now);
        // Undeliverable configuration is a fallback cause (§7).
        let failed = self.executor.take_failed();
        if !failed.is_empty() {
            self.telemetry.event(
                now,
                keys::EV_FALLBACK,
                // lint: allow(hot-alloc, reason = "fallback event label; formats only when deliveries failed, off the steady path")
                format!("{} undeliverable client(s)", failed.len()),
            );
            // lint: allow(hot-alloc, reason = "fallback bookkeeping runs only when deliveries failed, off the steady path")
            self.failed_clients.extend(failed);
            self.scheduler.trigger_event();
        }

        // An empty conference never orchestrates (and records no call
        // intervals — the Fig. 12 data starts with the first participant).
        if self.picture.is_empty() || !self.scheduler.poll(now) {
            return (TickPrep::Idle, retransmissions);
        }

        let Ok(problem) = self.picture.to_problem() else {
            // An inconsistent picture is an exception: skip this round and
            // retry on the next tick (the picture is rebuilt from fresh
            // signaling, so the condition is transient — latching fallback
            // here would never release it).
            self.telemetry.event(now, keys::EV_FALLBACK, "inconsistent picture, round skipped");
            return (TickPrep::Idle, retransmissions);
        };
        let must_fall_back = self.manual_fallback || !self.failed_clients.is_empty();
        (
            TickPrep::Round(RoundContext {
                problem: Arc::new(problem.with_tenancy(self.tenancy)),
                must_fall_back,
            }),
            retransmissions,
        )
    }

    /// Detach the engine so a batch worker can run this round's solve;
    /// [`restore_engine`](Self::restore_engine) must put it back before the
    /// commit reads its stats.
    pub(crate) fn take_engine(&mut self) -> SolveEngine {
        std::mem::replace(&mut self.engine, SolveEngine::new(self.cfg.solver.clone()))
    }

    /// Reattach the engine a batch worker warmed up.
    pub(crate) fn restore_engine(&mut self, engine: SolveEngine) {
        self.engine = engine;
    }

    /// Phase 3 of a tick: apply the watchdog/stickiness policy to the
    /// round's solve, execute the configuration, and record metrics.
    ///
    /// `solved` must be `Some` exactly when the context does not force a
    /// fallback; behavior is byte-identical to the inline
    /// [`tick`](Self::tick) path.
    pub fn tick_commit(
        &mut self,
        now: SimTime,
        ctx: RoundContext,
        solved: Option<SolveOutcome>,
    ) -> Option<ControlOutput> {
        let RoundContext { problem, must_fall_back } = ctx;
        let mut solve_rows = 0;
        // `sticky`: the round keeps the previous solution, which
        // `last_solution` already holds.
        let (solution, fallback, sticky) = if must_fall_back {
            (fallback_solution(&problem), true, false)
        } else {
            let SolveOutcome { solution: fresh, trace, rows_delta } =
                solved.expect("invariant: non-fallback rounds carry their solve outcome");
            solve_rows = rows_delta;
            // Trust boundary: in debug builds every round is traced and
            // every fresh solution crossing into the controller passes the
            // full trace-backed audit (constraint families + QoE accounting
            // + convergence bound + merge/reduction invariants).
            #[cfg(debug_assertions)]
            {
                let trace =
                    trace.as_ref().expect("invariant: debug-build rounds are always traced");
                let findings =
                    gso_audit::SolutionAuditor::new().audit_traced(&problem, &fresh, trace);
                debug_assert!(
                    findings.is_empty(),
                    "solver handed the controller an invalid solution:\n{}",
                    gso_audit::report(&findings)
                );
            }
            #[cfg(not(debug_assertions))]
            drop(trace);
            // Solve-deadline watchdog: a round whose solve overran its work
            // budget (the deterministic latency proxy) is served by the
            // safe fallback configuration instead; the engine is now warm,
            // so the next round's incremental re-solve usually fits the
            // budget and re-promotes automatically.
            let forced = self.forced_overruns > 0;
            if forced {
                self.forced_overruns -= 1;
            }
            let overrun = forced
                || (self.cfg.solve_deadline_rows > 0 && rows_delta > self.cfg.solve_deadline_rows);
            if overrun {
                self.telemetry.incr(keys::CTRL_DEADLINE_OVERRUNS, "");
                self.degraded = true;
                // Re-run promptly instead of waiting out the full cadence.
                self.scheduler.trigger_event();
                (fallback_solution(&problem), true, false)
            } else {
                self.degraded = false;
                // Solution stickiness: a still-valid previous configuration
                // is kept unless the fresh one is a clear improvement.
                let keep_previous = self
                    .last_solution
                    .as_ref()
                    .filter(|prev| prev.validate(&problem).is_ok())
                    .filter(|prev| fresh.total_qoe < prev.total_qoe * (1.0 + self.cfg.stickiness))
                    // lint: allow(hot-alloc, reason = "the round's output owns its solution; a sticky round's only copy")
                    .cloned();
                let sticky = keep_previous.is_some();
                (keep_previous.unwrap_or(fresh), false, sticky)
            }
        };
        if fallback != self.fallback_mode {
            self.fallback_mode = fallback;
            if fallback {
                self.telemetry.incr(keys::CTRL_FALLBACK_ENTERED, "");
                self.telemetry.event(now, keys::EV_FALLBACK, "entered");
            } else {
                self.telemetry.incr(keys::CTRL_FALLBACK_EXITED, "");
                self.telemetry.event(now, keys::EV_FALLBACK, "exited");
            }
        }

        let ladder_layers: BTreeMap<SourceId, Vec<u16>> = problem
            .sources()
            .iter()
            // lint: allow(hot-alloc, reason = "per-round ladder-layer map handed to the executor; reuse is tracked by the zero-alloc roadmap item")
            .map(|s| (s.id, s.ladder.resolutions().iter().map(|r| r.0).collect::<Vec<u16>>()))
            // lint: allow(hot-alloc, reason = "per-round ladder-layer map handed to the executor; reuse is tracked by the zero-alloc roadmap item")
            .collect();
        let (configs, rules) = self.executor.execute(now, &solution, &ladder_layers);
        // Trust boundary: the tick's outward-bound decision. A sticky
        // previous solution may carry QoE bookkeeping that is stale under
        // the new problem, and the §7 fallback deliberately ignores uplink
        // budgets, so the non-fallback path re-checks the constraint
        // families and every path cross-checks rules against the solution.
        #[cfg(debug_assertions)]
        {
            if !fallback {
                let findings = solution.violations(&problem);
                debug_assert!(
                    findings.is_empty(),
                    "controller tick emitted an infeasible configuration:\n{}",
                    gso_audit::report(&findings)
                );
            }
            let tuples: Vec<_> =
                rules.iter().map(|r| (r.subscriber, r.source, r.tag, r.bitrate)).collect();
            let findings = gso_audit::check_forwarding(&solution, &tuples);
            debug_assert!(
                findings.is_empty(),
                "forwarding rules disagree with the solution that produced them:\n{}",
                gso_audit::report(&findings)
            );
        }
        let churn = if sticky {
            // Nothing changes on the wire, and `last_solution` already
            // holds this solution.
            SolutionDiff::default()
        } else {
            let churn =
                diff(self.last_solution.as_ref().unwrap_or(&Solution::default()), &solution);
            // lint: allow(hot-alloc, reason = "retained last-solution snapshot feeding the next round's churn diff; a changed round's only copy")
            self.last_solution = Some(solution.clone());
            churn
        };
        // Round metrics. "Solve latency" is deterministic by design: the
        // sim has no wall clock, so it is measured in the solver's
        // dominant work unit (DP class-rows recomputed this round) plus
        // the iteration count of the returned solution.
        self.telemetry.incr(keys::CTRL_SOLVES, "");
        if fallback {
            self.telemetry.incr(keys::CTRL_FALLBACK_ROUNDS, "");
        } else {
            self.telemetry.observe(
                keys::CTRL_SOLVE_ITERATIONS,
                "",
                solution.iterations as u64,
                keys::ITERATION_BOUNDS,
            );
            self.telemetry.observe(keys::CTRL_SOLVE_ROWS, "", solve_rows, keys::WORK_BOUNDS);
        }
        self.telemetry.add(keys::CTRL_CHURN_LAYERS, "", churn.layer_changes.len() as u64);
        self.telemetry.add(keys::CTRL_CHURN_SWITCHES, "", churn.switch_changes.len() as u64);
        self.telemetry.gauge(keys::CTRL_QOE, "", solution.total_qoe);
        Some(ControlOutput { configs, rules, solution, churn, fallback })
    }

    /// Cumulative solve-engine work counters (cache hits, rows recomputed…).
    pub fn engine_stats(&self) -> gso_algo::EngineStats {
        self.engine.stats()
    }

    /// Stable digest of the controller's decision-relevant state: the
    /// global picture, fallback mode, the last committed solution, and the
    /// engine's cumulative work counters. Two controller replicas fed the
    /// same event sequence must digest identically at every tick; the
    /// divergence recorder in `gso-sim` samples this per orchestration tick.
    pub fn state_digest(&self) -> u64 {
        use gso_util::digest::{StableHasher, StateDigest};
        let mut h = StableHasher::new();
        self.picture.digest(&mut h);
        self.fallback_mode.digest(&mut h);
        self.manual_fallback.digest(&mut h);
        self.degraded.digest(&mut h);
        self.failed_clients.len().digest(&mut h);
        for c in &self.failed_clients {
            c.digest(&mut h);
        }
        self.executor.epoch().digest(&mut h);
        self.tenancy.digest(&mut h);
        self.last_solution.digest(&mut h);
        self.engine.stats().digest(&mut h);
        h.finish()
    }

    /// The most recent solution, if any.
    pub fn last_solution(&self) -> Option<&Solution> {
        self.last_solution.as_ref()
    }

    /// Recorded controller call intervals (Fig. 12).
    pub fn call_intervals(&self) -> &[gso_util::SimDuration] {
        self.scheduler.intervals()
    }

    /// Earliest/latest next run, for timer programming.
    pub fn next_deadline(&self, now: SimTime) -> SimTime {
        self.scheduler.next_deadline(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gso_algo::{ladders, Resolution};
    use gso_util::StreamKind;

    fn caps() -> CodecCapability {
        CodecCapability { ladders: vec![(StreamKind::Video, ladders::paper_table1())] }
    }

    fn k(v: u64) -> Bitrate {
        Bitrate::from_kbps(v)
    }

    fn two_party() -> GsoController {
        let mut c = GsoController::new(ControllerConfig::paper_defaults(), Ssrc(0xc0de));
        c.on_join(ClientId(1), caps());
        c.on_join(ClientId(2), caps());
        c.on_subscriptions(
            ClientId(2),
            vec![SubscribeIntent {
                source: SourceId::video(ClientId(1)),
                max_resolution: Resolution::R720,
                tag: 0,
            }],
        );
        c.on_uplink_report(SimTime::ZERO, ClientId(1), k(5_000));
        c.on_downlink_report(SimTime::ZERO, ClientId(2), k(2_000));
        c
    }

    #[test]
    fn first_tick_orchestrates() {
        let mut c = two_party();
        let (out, _) = c.tick(SimTime::from_millis(10));
        let out = out.expect("first tick runs");
        assert!(!out.fallback);
        assert!(!out.configs.is_empty());
        assert_eq!(out.rules.len(), 1);
        // 2 Mbps minus 50 Kbps protection → the 1.5 Mbps 720P stream fits.
        assert_eq!(out.rules[0].bitrate, k(1_500));
    }

    #[test]
    fn bandwidth_drop_triggers_fast_reconfiguration() {
        let mut c = two_party();
        let (out, _) = c.tick(SimTime::from_millis(10));
        assert!(out.is_some());
        // Big downlink drop at t=1.5s.
        c.on_downlink_report(SimTime::from_millis(1_500), ClientId(2), k(700));
        let (out, _) = c.tick(SimTime::from_millis(1_600));
        let out = out.expect("event trigger must fire after min interval");
        // 700 × 0.9 headroom − 50 protection = 580 Kbps → 500 Kbps 360P.
        assert_eq!(out.rules[0].bitrate, k(500));
    }

    #[test]
    fn min_interval_suppresses_immediate_rerun() {
        let mut c = two_party();
        let _ = c.tick(SimTime::from_millis(10));
        c.on_downlink_report(SimTime::from_millis(100), ClientId(2), k(700));
        let (out, _) = c.tick(SimTime::from_millis(200));
        assert!(out.is_none(), "within the 1 s minimum interval");
    }

    #[test]
    fn fallback_mode_issues_single_stream() {
        let mut c = two_party();
        let _ = c.tick(SimTime::from_millis(10));
        c.set_fallback(true);
        let (out, _) = c.tick(SimTime::from_millis(1_200));
        let out = out.unwrap();
        assert!(out.fallback);
        assert_eq!(out.rules.len(), 1);
        assert_eq!(out.rules[0].bitrate, k(100), "smallest stream only");
    }

    #[test]
    fn undelivered_config_forces_fallback() {
        let mut c = two_party();
        let (out, _) = c.tick(SimTime::from_millis(10));
        assert!(out.is_some());
        // Never ack; poll past the retransmission budget (backoff schedule
        // 200/400/800/800 ms, five transmissions in total).
        for ms in (200..2_500).step_by(200) {
            let _ = c.tick(SimTime::from_millis(ms));
        }
        // Next orchestration is fallback.
        let (out, _) = c.tick(SimTime::from_secs(6));
        assert!(out.expect("scheduled run").fallback);
    }

    /// §7 recovery: fallback caused by undeliverable clients must *exit*
    /// once delivery works again — an ack for the (re-issued) fallback
    /// configuration clears the cause and the next round re-promotes.
    #[test]
    fn fallback_exits_when_failed_clients_ack_again() {
        let telemetry = Telemetry::new("test");
        let mut c = two_party();
        c.set_telemetry(telemetry.clone());
        let (out, _) = c.tick(SimTime::from_millis(10));
        // Ack client 1 so only client 2 goes undeliverable.
        for (client, msg) in out.expect("first tick runs").configs {
            if client == ClientId(1) {
                ack(&mut c, client, &msg);
            }
        }
        for ms in (200..2_500).step_by(200) {
            let _ = c.tick(SimTime::from_millis(ms));
        }
        let (out, _) = c.tick(SimTime::from_secs(6));
        let out = out.expect("scheduled run");
        assert!(out.fallback, "client 2 exhausted its budget");
        assert_eq!(telemetry.counter(keys::CTRL_FALLBACK_ENTERED, ""), 1);

        // Client 2 comes back: it acks the fallback configuration.
        for (client, msg) in out.configs {
            ack(&mut c, client, &msg);
        }
        let (out, _) = c.tick(SimTime::from_secs(8));
        let out = out.expect("recovery run");
        assert!(!out.fallback, "delivery works again, full solving resumes");
        assert_eq!(telemetry.counter(keys::CTRL_FALLBACK_EXITED, ""), 1);
    }

    /// The solve-deadline watchdog degrades an over-budget round to the
    /// fallback configuration and re-promotes when the engine fits again.
    #[test]
    fn deadline_overrun_degrades_then_repromotes() {
        let telemetry = Telemetry::new("test");
        let mut c = two_party();
        c.set_telemetry(telemetry.clone());
        c.inject_deadline_overrun(1);
        let (out, _) = c.tick(SimTime::from_millis(10));
        let out = out.expect("first tick runs");
        assert!(out.fallback, "overrun round serves the fallback configuration");
        assert!(c.is_degraded());
        assert_eq!(telemetry.counter(keys::CTRL_DEADLINE_OVERRUNS, ""), 1);
        assert_eq!(telemetry.counter(keys::CTRL_FALLBACK_ENTERED, ""), 1);
        for (client, msg) in out.configs {
            ack(&mut c, client, &msg);
        }

        let (out, _) = c.tick(SimTime::from_millis(1_100));
        let out = out.expect("watchdog triggered a prompt re-run");
        assert!(!out.fallback, "the warm engine fits the budget again");
        assert!(!c.is_degraded());
        assert_eq!(telemetry.counter(keys::CTRL_FALLBACK_EXITED, ""), 1);
    }

    /// A rejoin mid-retransmission resets the endpoint instead of letting
    /// the stale retry sequence push the conference into fallback.
    #[test]
    fn rejoin_mid_retransmission_avoids_fallback() {
        let mut c = two_party();
        let (out, _) = c.tick(SimTime::from_millis(10));
        // Ack client 1; client 2 crashes and burns most of its budget.
        for (client, msg) in out.expect("first tick runs").configs {
            if client == ClientId(1) {
                ack(&mut c, client, &msg);
            }
        }
        for ms in (200..1_700).step_by(200) {
            let _ = c.tick(SimTime::from_millis(ms));
        }
        assert!(c.executor.pending(ClientId(2)));
        // Client 2 rejoins with fresh caps before the budget exhausts.
        c.on_join(ClientId(2), caps());
        c.on_subscriptions(
            ClientId(2),
            vec![SubscribeIntent {
                source: SourceId::video(ClientId(1)),
                max_resolution: Resolution::R720,
                tag: 0,
            }],
        );
        assert!(!c.executor.pending(ClientId(2)), "rejoin clears the old message");
        // The next rounds re-issue a fresh config; ack it promptly.
        for s in 2..=8u64 {
            let (out, retx) = c.tick(SimTime::from_secs(s));
            if let Some(out) = out {
                assert!(!out.fallback, "rejoined client must not trip fallback");
                for (client, msg) in out.configs {
                    ack(&mut c, client, &msg);
                }
            }
            for (client, msg) in retx {
                ack(&mut c, client, &msg);
            }
        }
    }

    fn ack(c: &mut GsoController, client: ClientId, msg: &GsoTmmbr) {
        c.on_ack(
            client,
            &GsoTmmbn {
                sender_ssrc: Ssrc(9),
                epoch: msg.epoch,
                request_seq: msg.request_seq,
                entries: vec![],
            },
        );
    }

    #[test]
    fn empty_conference_never_orchestrates() {
        let mut c = GsoController::new(ControllerConfig::paper_defaults(), Ssrc(1));
        let (out, retx) = c.tick(SimTime::from_secs(1));
        assert!(out.is_none());
        assert!(retx.is_empty());
    }

    #[test]
    fn engine_reused_across_ticks_and_churn_reported() {
        let mut c = two_party();
        let (out, _) = c.tick(SimTime::from_millis(10));
        let out = out.expect("first tick runs");
        // First round: everything is new relative to the empty solution.
        assert!(!out.churn.is_empty());
        assert!(out.churn.switch_changes.iter().all(|s| s.from.is_none()));
        assert_eq!(c.engine_stats().solves, 1);

        // Downlink drop re-solves on the same engine and shows up as churn.
        c.on_downlink_report(SimTime::from_millis(1_500), ClientId(2), k(700));
        let (out, _) = c.tick(SimTime::from_millis(1_600));
        let out = out.expect("event trigger fires");
        assert_eq!(c.engine_stats().solves, 2);
        assert_eq!(out.churn.switched_subscribers(), 1);
        assert!(
            c.engine_stats().backtracks >= 1,
            "a pure capacity change must hit the incremental backtrack path"
        );
    }

    /// A round whose fresh solve gains less than the stickiness margin keeps
    /// the previous solution: it commits no churn and leaves every
    /// digest-covered field and churn counter where it was.
    #[test]
    fn sticky_round_commits_previous_solution_without_churn() {
        let telemetry = Telemetry::new("test");
        let mut c = two_party();
        c.set_telemetry(telemetry.clone());
        // 1.1 Mbps × 0.85 − 50 Kbps leaves room for 360P at 800 Kbps.
        c.on_downlink_report(SimTime::ZERO, ClientId(2), k(1_100));
        let (out, _) = c.tick(SimTime::from_millis(10));
        assert_eq!(out.expect("first tick runs").rules[0].bitrate, k(800));
        let previous = c.last_solution().cloned().expect("first round committed");

        // 1.3 Mbps now fits 720P at 1 Mbps, worth 750 against 700: less than
        // the 10% stickiness margin.
        c.on_downlink_report(SimTime::from_millis(1_500), ClientId(2), k(1_300));
        let now = SimTime::from_millis(1_600);
        let (TickPrep::Round(ctx), _) = c.tick_prepare(now) else {
            panic!("the downlink change triggers a round");
        };
        let (fresh, trace) = c.engine.solve_traced(ctx.problem());
        assert_ne!(fresh, previous, "the fresh solve differs from the kept one");
        let outcome = SolveOutcome { solution: fresh, trace: Some(trace), rows_delta: 0 };
        let digest = c.state_digest();
        let churn_before = (
            telemetry.counter(keys::CTRL_CHURN_LAYERS, ""),
            telemetry.counter(keys::CTRL_CHURN_SWITCHES, ""),
        );

        let out = c.tick_commit(now, ctx, Some(outcome)).expect("the round commits");
        assert!(!out.fallback);
        assert_eq!(out.solution, previous, "stickiness keeps the previous solution");
        assert!(out.churn.is_empty());
        assert_eq!(c.last_solution(), Some(&previous));
        assert_eq!(c.state_digest(), digest);
        assert_eq!(
            (
                telemetry.counter(keys::CTRL_CHURN_LAYERS, ""),
                telemetry.counter(keys::CTRL_CHURN_SWITCHES, ""),
            ),
            churn_before
        );
    }

    #[test]
    fn tick_records_round_metrics() {
        let telemetry = Telemetry::new("test");
        let mut c = two_party();
        c.set_telemetry(telemetry.clone());
        let (out, _) = c.tick(SimTime::from_millis(10));
        assert!(out.is_some());
        assert_eq!(telemetry.counter(keys::CTRL_SOLVES, ""), 1);
        assert_eq!(telemetry.counter_total(keys::GTMB_SENT), 2);
        let (count, _) = telemetry.histogram_total(keys::CTRL_SOLVE_ITERATIONS);
        assert_eq!(count, 1);
        assert!(telemetry.counter(keys::CTRL_CHURN_SWITCHES, "") >= 1);
        assert!(telemetry.gauge_value(keys::CTRL_QOE, "").unwrap() > 0.0);

        // Never ack: the §7 failure path shows up in the same registry.
        for ms in (200..2_500).step_by(200) {
            let _ = c.tick(SimTime::from_millis(ms));
        }
        let (out, _) = c.tick(SimTime::from_secs(6));
        assert!(out.expect("scheduled run").fallback);
        assert!(telemetry.counter(keys::CTRL_FALLBACK_ROUNDS, "") >= 1);
        // Both clients fail delivery (possibly again for the fallback
        // config, which is also never acked here).
        assert!(telemetry.counter_total(keys::GTMB_FAILED) >= 2);
        assert!(telemetry.events().iter().any(|e| e.kind == keys::EV_FALLBACK));
    }

    #[test]
    fn leave_clears_executor_state() {
        let mut c = two_party();
        let (out, _) = c.tick(SimTime::from_millis(10));
        assert!(out.is_some());
        c.on_leave(ClientId(2));
        // The departed client's pending config is gone: polling past the
        // retransmission budget must not trip fallback for it.
        // Client 1 acks first so only client 2's state could fail.
        assert!(!c.executor.pending(ClientId(2)));
    }

    #[test]
    fn call_intervals_recorded_within_bounds() {
        let mut c = two_party();
        let mut acked = Vec::new();
        for ms in (0..20_000).step_by(100) {
            let (out, retx) = c.tick(SimTime::from_millis(ms));
            if let Some(out) = out {
                acked.extend(out.configs);
            }
            acked.extend(retx);
            // Ack everything promptly so no fallback trips.
            for (client, msg) in acked.drain(..) {
                ack(&mut c, client, &msg);
            }
        }
        let intervals = c.call_intervals();
        assert!(!intervals.is_empty());
        for &d in intervals {
            assert!(d >= gso_util::SimDuration::from_secs(1));
            assert!(d <= gso_util::SimDuration::from_millis(3_100));
        }
    }
}
