//! The GSO controller — the "brain" of a conference (§3).
//!
//! Composes the global picture, the bandwidth hysteresis gate, the control
//! scheduler, the solver and the feedback executor into one component with a
//! small event-driven surface: feed it reports and membership changes, call
//! [`GsoController::tick`] periodically, transmit whatever it returns.

use crate::failure::fallback_solution;
use crate::feedback::{FeedbackExecutor, ForwardingRule};
use crate::hysteresis::BandwidthHysteresis;
use crate::scheduler::ControlScheduler;
use crate::state::{ClientSnapshot, CodecCapability, GlobalPicture, LiveProblem, SubscribeIntent};
use gso_algo::{Problem, Solution, SolveEngine, SolveTrace, SolverConfig};
use gso_rtp::{GsoTmmbn, GsoTmmbr};
use gso_telemetry::{keys, Telemetry};
use gso_util::{Bitrate, ClientId, SimTime, Ssrc};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Link direction, used as part of the hysteresis key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Direction {
    /// Client → accessing node.
    Uplink,
    /// Accessing node → client.
    Downlink,
}

/// Relative bandwidth change that is an event trigger.
const EVENT_THRESHOLD: f64 = 0.15;

/// Solve-deadline watchdog budget, in DP class-rows recomputed per round
/// (the sim's deterministic work/latency proxy — see `CTRL_SOLVE_ROWS`). A
/// round whose fresh solve exceeds the budget is served by
/// `fallback_solution` instead, and the next round re-solves on the warm
/// engine and re-promotes if it fits.
const SOLVE_DEADLINE_ROWS: u64 = 500_000;

/// The controller's solver and stickiness policy.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Solver knobs.
    pub solver: SolverConfig,
    /// Keep the previous solution when it still satisfies the current
    /// constraints and the fresh one improves total QoE by less than this
    /// fraction — reconfiguration itself costs quality (layer switches wait
    /// for keyframes), so marginal wins are not worth taking (§7).
    pub stickiness: f64,
}

impl ControllerConfig {
    /// Paper-calibrated defaults.
    pub fn paper_defaults() -> Self {
        ControllerConfig { solver: SolverConfig::default(), stickiness: 0.10 }
    }
}

/// An orchestration round prepared by [`GsoController::tick_prepare`],
/// waiting for its solve before [`GsoController::tick_commit`].
#[derive(Debug)]
pub struct RoundContext {
    live: LiveProblem,
    must_fall_back: bool,
}

impl RoundContext {
    /// The problem snapshot this round must solve.
    #[must_use]
    pub fn problem(&self) -> &Arc<Problem> {
        &self.live.problem
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
/// [`GsoController::tick`] or by a caller driving the phases itself.
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
    /// The full solution (for metrics/inspection): the same allocation the
    /// controller keeps as its last solution, shared rather than copied.
    pub solution: Arc<Solution>,
    /// True when this round used the single-stream fallback (§7).
    pub fallback: bool,
}

/// The controller.
pub struct GsoController {
    /// The conference node's state store (public: signaling writes into it).
    pub picture: GlobalPicture,
    /// See [`ControllerConfig::stickiness`].
    stickiness: f64,
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
    /// The most recent committed solution, shared with that round's
    /// [`ControlOutput`]; a sticky round hands out this same allocation.
    last_solution: Option<Arc<Solution>>,
    /// The picture generation on which `last_solution` is known to satisfy
    /// every §4.1 family: set by each non-fallback commit (a fresh solve or
    /// a sticky keep that passed its check), cleared by a fallback commit.
    /// While the round's generation matches, only link budgets can have
    /// moved, so stickiness re-checks just those.
    valid_for: Option<u64>,
    /// Metrics sink (disabled by default; see `gso-telemetry`).
    telemetry: Telemetry,
}

impl GsoController {
    /// Build a controller; `controller_ssrc` identifies it in feedback.
    pub fn new(cfg: ControllerConfig, controller_ssrc: Ssrc) -> Self {
        GsoController {
            picture: GlobalPicture::new(),
            stickiness: cfg.stickiness,
            scheduler: ControlScheduler::new(),
            hysteresis: BandwidthHysteresis::new(),
            executor: FeedbackExecutor::new(controller_ssrc),
            engine: SolveEngine::new(cfg.solver),
            fallback_mode: false,
            manual_fallback: false,
            failed_clients: BTreeSet::new(),
            degraded: false,
            forced_overruns: 0,
            last_solution: None,
            valid_for: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach a metrics registry; shared with the feedback executor so
    /// solve work and GTMB delivery land in one export.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.executor.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// The attached metrics registry.
    pub(crate) fn telemetry(&self) -> &Telemetry {
        &self.telemetry
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
            self.executor.on_client_leave(id);
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
        // Likewise the link gates: a reused ClientId would otherwise
        // inherit the old downgrade mark.
        self.hysteresis.forget((id, Direction::Uplink));
        self.hysteresis.forget((id, Direction::Downlink));
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

    /// An uplink SEMB report arrived. A report for a client that is not in
    /// the picture (it left, or has not joined yet) is dropped before it
    /// reaches the link gate: it would re-create the gate entry
    /// [`Self::on_leave`] forgot and arm a round for nothing.
    pub fn on_uplink_report(&mut self, now: SimTime, client: ClientId, measured: Bitrate) {
        if !self.picture.contains(client) {
            return;
        }
        let prev = self.picture.uplink_of(client);
        let effective = self.hysteresis.filter((client, Direction::Uplink), now, measured);
        self.picture.report_uplink(client, effective);
        self.maybe_trigger(prev, effective);
    }

    /// A downlink report from an accessing node arrived; dropped like an
    /// uplink report when the client is not in the picture.
    pub fn on_downlink_report(&mut self, now: SimTime, client: ClientId, measured: Bitrate) {
        if !self.picture.contains(client) {
            return;
        }
        let prev = self.picture.downlink_of(client);
        let effective = self.hysteresis.filter((client, Direction::Downlink), now, measured);
        self.picture.report_downlink(client, effective);
        self.maybe_trigger(prev, effective);
    }

    /// Re-register clients from snapshots: the inverse of
    /// [`GlobalPicture::snapshot`]. Each client joins with its ladders,
    /// resubscribes, and replays its last non-zero link estimates at `now`
    /// (zero means "never reported", which the picture defaults). Used by
    /// a restarted or promoted controller on each accessing node's resync
    /// reply.
    pub fn restore(&mut self, now: SimTime, snapshots: impl IntoIterator<Item = ClientSnapshot>) {
        for snap in snapshots {
            self.on_join(snap.client, CodecCapability { ladders: snap.ladders });
            self.on_subscriptions(snap.client, snap.intents);
            if !snap.uplink.is_zero() {
                self.on_uplink_report(now, snap.client, snap.uplink);
            }
            if !snap.downlink.is_zero() {
                self.on_downlink_report(now, snap.client, snap.downlink);
            }
        }
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
        if change >= EVENT_THRESHOLD {
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
    /// [`tick_commit`](Self::tick_commit). Multi-conference hosts run this
    /// whole tick as one job on a shared `BatchScheduler` via
    /// [`ControllerFleet`](crate::ControllerFleet).
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
    /// the schedule, and hand a due round the picture's live problem
    /// (rebuilt only after a structural change).
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

        let Ok(live) = self.picture.live() else {
            // An inconsistent picture is an exception: skip this round and
            // retry on the next tick (the picture is rebuilt from fresh
            // signaling, so the condition is transient — latching fallback
            // here would never release it).
            self.telemetry.event(now, keys::EV_FALLBACK, "inconsistent picture, round skipped");
            return (TickPrep::Idle, retransmissions);
        };
        let must_fall_back = self.manual_fallback || !self.failed_clients.is_empty();
        (TickPrep::Round(RoundContext { live, must_fall_back }), retransmissions)
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
        let RoundContext {
            live: LiveProblem { problem, ladder_layers, generation },
            must_fall_back,
        } = ctx;
        let mut solve_rows = 0;
        // A sticky round keeps the previous solution: `last_solution`
        // already holds it, and the round's output shares it.
        let (solution, fallback, sticky) = if must_fall_back {
            // lint: allow(hot-alloc, reason = "forced-fallback rounds serve the §7 fallback, off the steady-state path")
            (Arc::new(fallback_solution(&problem)), true, false)
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
                let findings = gso_algo::audit::audit_traced(&problem, &fresh, trace);
                debug_assert!(
                    findings.is_empty(),
                    "solver handed the controller an invalid solution:\n{}",
                    gso_algo::audit::report(&findings)
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
            let overrun = forced || rows_delta > SOLVE_DEADLINE_ROWS;
            if overrun {
                self.telemetry.incr(keys::CTRL_DEADLINE_OVERRUNS, "");
                self.degraded = true;
                // Re-run promptly instead of waiting out the full cadence.
                self.scheduler.trigger_event();
                // lint: allow(hot-alloc, reason = "deadline-overrun rounds serve the §7 fallback, off the steady-state path")
                (Arc::new(fallback_solution(&problem)), true, false)
            } else {
                self.degraded = false;
                // Solution stickiness: a still-valid previous configuration
                // is kept unless the fresh one is a clear improvement. Known
                // valid on this generation, it can only have broken a link
                // budget; otherwise every family is checked.
                let known_valid = self.valid_for == Some(generation);
                let keep_previous = self
                    .last_solution
                    .as_ref()
                    .filter(|prev| {
                        if known_valid {
                            prev.fits_links(&problem)
                        } else {
                            prev.validate(&problem).is_ok()
                        }
                    })
                    .filter(|prev| fresh.total_qoe < prev.total_qoe * (1.0 + self.stickiness))
                    .map(Arc::clone);
                let sticky = keep_previous.is_some();
                // lint: allow(hot-alloc, reason = "a changed round shares its fresh solution with the output and the next round; sticky rounds share the previous one")
                (keep_previous.unwrap_or_else(|| Arc::new(fresh)), false, sticky)
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
        self.valid_for = if fallback { None } else { Some(generation) };

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
                    gso_algo::audit::report(&findings)
                );
            }
            let findings = crate::feedback::check_forwarding(&solution, &rules);
            debug_assert!(
                findings.is_empty(),
                "forwarding rules disagree with the solution that produced them:\n{}",
                gso_algo::audit::report(&findings)
            );
        }
        if !sticky {
            // A sticky round's solution already is `last_solution`.
            self.last_solution = Some(Arc::clone(&solution));
        }
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
        self.telemetry.gauge(keys::CTRL_QOE, "", solution.total_qoe);
        Some(ControlOutput { configs, rules, solution, fallback })
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
        self.last_solution.as_deref().digest(&mut h);
        self.engine.stats().digest(&mut h);
        h.finish()
    }

    /// The most recent solution, if any.
    pub fn last_solution(&self) -> Option<&Solution> {
        self.last_solution.as_deref()
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
    use gso_algo::{ladders, Resolution, SourceId};
    use gso_util::{SimDuration, StreamKind};

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
        // Client 1 watches client 2 too, so the drop below leaves a rule
        // that must not change.
        c.on_subscriptions(
            ClientId(1),
            vec![SubscribeIntent {
                source: SourceId::video(ClientId(2)),
                max_resolution: Resolution::R720,
                tag: 0,
            }],
        );
        c.on_uplink_report(SimTime::ZERO, ClientId(2), k(5_000));
        c.on_downlink_report(SimTime::ZERO, ClientId(1), k(2_000));
        let (out, _) = c.tick(SimTime::from_millis(10));
        let first = out.expect("first tick runs").rules;
        assert_eq!(first.len(), 2);
        assert_eq!(c.engine_stats().solves, 1);

        // Downlink drop re-solves on the same engine and switches only
        // subscriber 2.
        c.on_downlink_report(SimTime::from_millis(1_500), ClientId(2), k(700));
        let (out, _) = c.tick(SimTime::from_millis(1_600));
        let rules = out.expect("event trigger fires").rules;
        assert_eq!(c.engine_stats().solves, 2);
        let changed: Vec<ClientId> = rules
            .iter()
            .chain(&first)
            .filter(|r| !(first.contains(r) && rules.contains(r)))
            .map(|r| r.subscriber)
            .collect();
        assert_eq!(changed, [ClientId(2), ClientId(2)], "subscriber 2's old and new rule");
        assert!(
            c.engine_stats().backtracks >= 1,
            "a pure capacity change must hit the incremental backtrack path"
        );
    }

    /// A round whose fresh solve gains less than the stickiness margin keeps
    /// the previous solution: it sends no configuration, repeats the
    /// previous rules and leaves every digest-covered field where it was.
    #[test]
    fn sticky_round_commits_previous_solution_without_churn() {
        let telemetry = Telemetry::new("test");
        let mut c = two_party();
        c.set_telemetry(telemetry.clone());
        // 1.1 Mbps × 0.85 − 50 Kbps leaves room for 360P at 800 Kbps.
        c.on_downlink_report(SimTime::ZERO, ClientId(2), k(1_100));
        let (out, _) = c.tick(SimTime::from_millis(10));
        let first = out.expect("first tick runs").rules;
        assert_eq!(first[0].bitrate, k(800));
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
        let sent = telemetry.counter_total(keys::GTMB_SENT);

        let out = c.tick_commit(now, ctx, Some(outcome)).expect("the round commits");
        assert!(!out.fallback);
        assert_eq!(*out.solution, previous, "stickiness keeps the previous solution");
        assert!(out.configs.is_empty(), "nothing to reconfigure");
        assert_eq!(out.rules, first);
        assert_eq!(telemetry.counter_total(keys::GTMB_SENT), sent);
        assert_eq!(c.last_solution(), Some(&previous));
        assert_eq!(c.state_digest(), digest);
    }

    /// A round's output and the controller's last solution are one
    /// allocation on every kind of round: changed, sticky and fallback.
    #[test]
    fn rounds_share_the_committed_solution() {
        let shared = |c: &GsoController, out: &ControlOutput| {
            c.last_solution().is_some_and(|last| std::ptr::eq(last, &*out.solution))
        };
        let mut c = two_party();
        c.on_downlink_report(SimTime::ZERO, ClientId(2), k(1_100));
        let (out, _) = c.tick(SimTime::from_millis(10));
        let changed = out.expect("first tick runs");
        assert!(shared(&c, &changed), "a changed round moves its solution into the shared one");

        // Within the stickiness margin (see the sticky-round test above).
        c.on_downlink_report(SimTime::from_millis(1_500), ClientId(2), k(1_300));
        let (out, _) = c.tick(SimTime::from_millis(1_600));
        let sticky = out.expect("the downlink change triggers a round");
        assert!(!sticky.fallback);
        assert!(Arc::ptr_eq(&sticky.solution, &changed.solution), "a sticky round copies nothing");
        assert!(shared(&c, &sticky));

        c.set_fallback(true);
        let (out, _) = c.tick(SimTime::from_millis(2_700));
        let fallback = out.expect("the fallback switch triggers a round");
        assert!(fallback.fallback);
        assert!(shared(&c, &fallback));
    }

    /// Prepare the round due at `now` and solve it on the controller's
    /// engine, as `tick` does.
    fn prepare_and_solve(c: &mut GsoController, now: SimTime) -> (RoundContext, SolveOutcome) {
        let (TickPrep::Round(ctx), _) = c.tick_prepare(now) else {
            panic!("a round is due at {now:?}");
        };
        let (solution, trace) = c.engine.solve_traced(ctx.problem());
        (ctx, SolveOutcome { solution, trace: Some(trace), rows_delta: 0 })
    }

    /// The commit's trust-boundary audit rejects a fresh solution whose
    /// declared QoE disagrees with the ladders, even though every §4.1
    /// constraint family still holds.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "solver handed the controller an invalid solution")]
    fn commit_rejects_a_tampered_solution() {
        let mut c = two_party();
        let now = SimTime::from_millis(10);
        let (ctx, mut solved) = prepare_and_solve(&mut c, now);
        assert!(solved.solution.validate(ctx.problem()).is_ok());
        solved.solution.total_qoe += 10.0;
        c.tick_commit(now, ctx, Some(solved));
    }

    /// Dropping a subscription is a structural change: the round carries a
    /// new generation, so stickiness runs the full check, and a previous
    /// solution still streaming the dropped source is replaced even though
    /// it fits every link and out-scores the fresh one.
    #[test]
    fn subscription_change_forces_the_full_stickiness_check() {
        let mut c = two_party();
        let (ctx, solved) = prepare_and_solve(&mut c, SimTime::from_millis(10));
        let first = ctx.live.generation;
        let out = c.tick_commit(SimTime::from_millis(10), ctx, Some(solved)).unwrap();
        assert_eq!(c.valid_for, Some(first));
        let previous = out.solution;

        c.on_subscriptions(ClientId(2), Vec::new());
        let (ctx, solved) = prepare_and_solve(&mut c, SimTime::from_millis(1_100));
        assert!(ctx.live.generation > first, "the subscription change bumps the generation");
        assert!(previous.fits_links(ctx.problem()));
        assert!(previous.validate(ctx.problem()).is_err());
        assert!(solved.solution.total_qoe < previous.total_qoe);
        let out = c.tick_commit(SimTime::from_millis(1_100), ctx, Some(solved)).unwrap();
        assert!(out.solution.received.is_empty(), "the dropped stream is not kept");
        assert_ne!(c.last_solution(), Some(&*previous));
    }

    /// A fallback commit forgets that the previous solution was known
    /// valid, so the next round checks every family even on an unchanged
    /// structure: a previous solution that only the full check rejects is
    /// not kept.
    #[test]
    fn round_after_fallback_runs_the_full_check() {
        let mut c = two_party();
        let (out, _) = c.tick(SimTime::from_millis(10));
        let solved = out.expect("first tick runs").solution;
        c.set_fallback(true);
        let (out, _) = c.tick(SimTime::from_millis(1_100));
        assert!(out.expect("fallback round runs").fallback);
        assert_eq!(c.valid_for, None);

        // Fits every link, breaks only a subscription family (no tag-1
        // subscription exists), and out-scores any fresh solve.
        let mut tampered = Solution::clone(&solved);
        for streams in tampered.received.values_mut() {
            for r in streams {
                r.tag = 1;
            }
        }
        tampered.total_qoe = f64::MAX;
        c.last_solution = Some(Arc::new(tampered.clone()));
        c.set_fallback(false);
        let (ctx, solved) = prepare_and_solve(&mut c, SimTime::from_millis(2_200));
        assert!(tampered.fits_links(ctx.problem()));
        assert!(tampered.validate(ctx.problem()).is_err());
        let out = c.tick_commit(SimTime::from_millis(2_200), ctx, Some(solved)).unwrap();
        assert!(!out.fallback);
        assert_ne!(*out.solution, tampered);
        assert!(c.valid_for.is_some());
    }

    proptest::proptest! {
        /// For a solver solution valid on a problem, the link-only check
        /// agrees with the full check on any re-linked copy of it.
        #[test]
        fn fits_links_agrees_with_validate_on_relinked_problems(
            links in proptest::prop::collection::vec((100u64..4_000, 100u64..4_000), 2..7),
            relinks in proptest::prop::collection::vec((0u64..4_000, 0u64..4_000), 6..7),
            watch in proptest::prop::collection::vec(proptest::prop::bool::ANY, 36..37),
        ) {
            let ids: Vec<ClientId> = (1..=links.len() as u32).map(ClientId).collect();
            let clients = ids
                .iter()
                .zip(&links)
                .map(|(&id, &(up, down))| {
                    gso_algo::ClientSpec::new(id, k(up), k(down), ladders::paper_table1())
                })
                .collect();
            let subscriptions = ids
                .iter()
                .flat_map(|&s| ids.iter().map(move |&p| (s, p)))
                .zip(&watch)
                .filter(|&((s, p), &on)| on && s != p)
                .map(|((s, p), _)| {
                    gso_algo::Subscription::new(s, SourceId::video(p), Resolution::R720)
                })
                .collect();
            let problem = Problem::new(clients, subscriptions).expect("valid conference");
            let solution = gso_algo::solver::solve(&problem, &SolverConfig::default());
            proptest::prop_assert!(solution.validate(&problem).is_ok());
            let mut relinked = problem.clone();
            for (&id, &(up, down)) in ids.iter().zip(&relinks) {
                relinked.set_link(id, k(up), k(down));
            }
            proptest::prop_assert_eq!(
                solution.fits_links(&relinked),
                solution.validate(&relinked).is_ok()
            );
        }
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
    fn leave_forgets_the_bandwidth_hysteresis() {
        let mut c = two_party();
        let t = SimTime::from_secs;
        let id = ClientId(2);
        c.on_uplink_report(t(1), id, k(1_000));
        c.on_downlink_report(t(1), id, k(1_000));
        // Downgrades mark both links for 30 s.
        c.on_uplink_report(t(2), id, k(500));
        c.on_downlink_report(t(2), id, k(500));
        c.on_leave(id);
        c.on_join(id, caps());
        assert_eq!(c.hysteresis.effective((id, Direction::Uplink)), None);
        // +10 % is under the marked links' +15 % threshold; a fresh
        // client's first reports pass through.
        c.on_uplink_report(t(3), id, k(550));
        c.on_downlink_report(t(3), id, k(550));
        assert_eq!(c.picture.uplink_of(id), Some(k(550)));
        assert_eq!(c.picture.downlink_of(id), Some(k(550)));
    }

    /// Leave/rejoin churn of reused ids, each leave followed by late link
    /// reports for the departed client: the reports are dropped, so they
    /// neither re-create the link gates `on_leave` forgot nor schedule a
    /// round, and the per-client state returns to its baseline size after
    /// every rejoin.
    #[test]
    fn late_reports_after_leave_leave_no_state_behind() {
        const N: u32 = 4;
        fn join(c: &mut GsoController, id: u32, now: SimTime) {
            c.on_join(ClientId(id), caps());
            let intents = (1..=N)
                .filter(|&j| j != id)
                .map(|j| SubscribeIntent {
                    source: SourceId::video(ClientId(j)),
                    max_resolution: Resolution::R720,
                    tag: 0,
                })
                .collect();
            c.on_subscriptions(ClientId(id), intents);
            c.on_uplink_report(now, ClientId(id), k(2_000));
            c.on_downlink_report(now, ClientId(id), k(3_000));
        }
        /// Tick and acknowledge everything sent; true when a round ran.
        fn tick_and_ack(c: &mut GsoController, now: SimTime) -> bool {
            let (out, retx) = c.tick(now);
            let ran = out.is_some();
            for (client, msg) in out.into_iter().flat_map(|o| o.configs).chain(retx) {
                ack(c, client, &msg);
            }
            ran
        }
        fn sizes(c: &GsoController) -> [usize; 4] {
            [c.picture.len(), c.hysteresis.len(), c.executor.len(), c.failed_clients.len()]
        }

        let mut c = GsoController::new(ControllerConfig::paper_defaults(), Ssrc(0xc0de));
        for id in 1..=N {
            join(&mut c, id, SimTime::ZERO);
        }
        assert!(tick_and_ack(&mut c, SimTime::from_millis(10)));
        let base = sizes(&c);
        assert_eq!(base, [4, 8, 4, 0]);

        for cycle in 0..50u64 {
            let id = 2 + (cycle % 3) as u32;
            let t0 = SimTime::from_millis(10 + (cycle + 1) * 2_200);
            c.on_leave(ClientId(id));
            assert!(tick_and_ack(&mut c, t0), "cycle {cycle}: the leave round runs");
            let late = t0 + SimDuration::from_millis(100);
            let deadline = c.next_deadline(late);
            c.on_downlink_report(late, ClientId(id), k(500));
            c.on_uplink_report(late, ClientId(id), k(500));
            assert_eq!(c.next_deadline(late), deadline, "cycle {cycle}: late report armed a round");
            assert_eq!(
                sizes(&c),
                [base[0] - 1, base[1] - 2, base[2] - 1, 0],
                "cycle {cycle}: state after the late reports"
            );

            join(&mut c, id, t0 + SimDuration::from_millis(200));
            assert!(tick_and_ack(&mut c, t0 + SimDuration::from_millis(1_100)));
            assert_eq!(sizes(&c), base, "cycle {cycle}: state after the rejoin");
        }
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

    /// `restore` is the inverse of `GlobalPicture::snapshot`: a fresh
    /// controller rebuilt from a picture's snapshots reproduces the same
    /// snapshots and the same state digest — ladders (one and two kinds),
    /// intents (tagged, multi-source, none), and reported as well as
    /// never-reported (zero) uplinks and downlinks.
    #[test]
    fn restore_from_snapshot_round_trips() {
        let now = SimTime::from_millis(2_500);
        let intent =
            |source, tag| SubscribeIntent { source, max_resolution: Resolution::R720, tag };
        let mut original = GsoController::new(ControllerConfig::paper_defaults(), Ssrc(0xc0de));
        let mut screen_caps = caps();
        screen_caps.ladders.push((StreamKind::Screen, ladders::coarse3()));
        original.on_join(ClientId(1), screen_caps);
        original.on_join(ClientId(2), caps());
        original.on_join(
            ClientId(3),
            CodecCapability { ladders: vec![(StreamKind::Video, ladders::coarse3())] },
        );
        original.on_join(ClientId(4), caps());
        original.on_subscriptions(
            ClientId(2),
            vec![intent(SourceId::video(ClientId(1)), 0), intent(SourceId::screen(ClientId(1)), 0)],
        );
        original.on_subscriptions(ClientId(3), vec![intent(SourceId::video(ClientId(1)), 1)]);
        original.on_uplink_report(now, ClientId(1), k(5_000));
        original.on_downlink_report(now, ClientId(2), k(2_000));
        original.on_uplink_report(now, ClientId(3), k(900));
        // A downgrade leaves the gated (effective) estimate in the picture.
        original.on_downlink_report(now, ClientId(3), k(3_000));
        original.on_downlink_report(now, ClientId(3), k(1_200));

        let snapshot = original.picture.snapshot();
        assert_eq!(snapshot.len(), 4);
        assert!(snapshot[0].uplink > Bitrate::ZERO && snapshot[0].downlink.is_zero());
        assert!(snapshot[1].uplink.is_zero() && snapshot[1].downlink > Bitrate::ZERO);
        assert_eq!(snapshot[2].downlink, k(1_200));
        assert!(snapshot[3].uplink.is_zero() && snapshot[3].intents.is_empty());

        let mut restored = GsoController::new(ControllerConfig::paper_defaults(), Ssrc(0xc0de));
        restored.restore(now, snapshot.clone());
        assert_eq!(restored.picture.snapshot(), snapshot);
        assert_eq!(restored.state_digest(), original.state_digest());
    }
}
