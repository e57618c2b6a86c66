//! Feedback execution (§4.3): turning a solution into reliable GTMB
//! configuration messages and SFU forwarding rules.
//!
//! For every publisher the executor derives the per-layer bitrate vector
//! (zero = stop pushing that layer), addresses each layer by the SSRC that
//! was assigned to its resolution at negotiation time, and wraps it in an
//! APP/GTMB message carrying a request sequence number. RTCP has no delivery
//! guarantee, so the executor retransmits a request until the matching
//! GTBN acknowledgement arrives.
//!
//! [`check_forwarding`] cross-checks the rules against the solution that
//! produced them; the controller runs it on every round in debug builds.

use crate::state::LadderLayers;
use gso_algo::{ConstraintViolation, Solution, SourceId};
use gso_rtp::{ssrc_for, GsoTmmbn, GsoTmmbr, TmmbrEntry};
use gso_telemetry::{keys, Telemetry};
use gso_util::{Bitrate, ClientId, DetRng, SimDuration, SimTime, Ssrc};
use std::collections::BTreeMap;
use std::fmt;

/// A forwarding instruction for the media plane: which exact stream a
/// subscriber receives from a source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForwardingRule {
    /// The receiving client.
    pub subscriber: ClientId,
    /// The publisher source.
    pub source: SourceId,
    /// Virtual-publisher tag of the subscription.
    pub tag: u8,
    /// The SSRC to forward (selects resolution).
    pub ssrc: Ssrc,
    /// The configured bitrate of that stream.
    pub bitrate: Bitrate,
}

/// Executor policy: seeded exponential backoff for GTMB retransmissions.
///
/// The n-th retransmission waits `initial_rto · rto_multiplier^(n-1)`
/// (capped at `max_rto`) plus a deterministic jitter of up to
/// `jitter_frac` of that interval, drawn from a [`DetRng`] stream keyed by
/// `(seed, client, request_seq, transmission)`. A fixed retransmission
/// interval synchronizes retries across clients after a shared outage;
/// the backoff both spreads them out and stops hammering a dead path.
#[derive(Debug, Clone)]
pub struct FeedbackConfig {
    /// Wait this long before the first retransmission.
    pub initial_rto: SimDuration,
    /// Multiply the wait by this factor after every retransmission.
    pub rto_multiplier: u32,
    /// Never wait longer than this between retransmissions.
    pub max_rto: SimDuration,
    /// Add up to this fraction of the interval as deterministic jitter.
    pub jitter_frac: f64,
    /// Seed for the jitter streams (derive from the scenario seed).
    pub seed: u64,
    /// Give up after this many transmissions (the client is then handled by
    /// the failure path).
    pub max_transmissions: u32,
}

impl Default for FeedbackConfig {
    fn default() -> Self {
        FeedbackConfig {
            initial_rto: SimDuration::from_millis(200),
            rto_multiplier: 2,
            max_rto: SimDuration::from_millis(800),
            jitter_frac: 0.0,
            seed: 0,
            max_transmissions: 5,
        }
    }
}

#[derive(Debug, Clone)]
struct Outstanding {
    message: GsoTmmbr,
    sent_at: SimTime,
    transmissions: u32,
}

/// Tracks per-client configuration delivery.
#[derive(Debug)]
pub struct FeedbackExecutor {
    cfg: FeedbackConfig,
    next_seq: u32,
    epoch: u32,
    controller_ssrc: Ssrc,
    outstanding: BTreeMap<ClientId, Outstanding>,
    /// Last acknowledged layer configuration per client (to skip no-ops).
    applied: BTreeMap<ClientId, Vec<TmmbrEntry>>,
    /// Clients that exhausted retransmissions since the last drain.
    failed: Vec<ClientId>,
    /// One client's layer configuration while [`Self::execute`] builds it;
    /// reused across clients and rounds.
    entries: Vec<TmmbrEntry>,
    /// Metrics sink (disabled by default; see `gso-telemetry`).
    telemetry: Telemetry,
}

impl FeedbackExecutor {
    /// New executor; `controller_ssrc` identifies the accessing node in the
    /// GTMB sender field.
    pub fn new(cfg: FeedbackConfig, controller_ssrc: Ssrc) -> Self {
        FeedbackExecutor {
            cfg,
            next_seq: 1,
            epoch: 0,
            controller_ssrc,
            outstanding: BTreeMap::new(),
            applied: BTreeMap::new(),
            failed: Vec::new(),
            entries: Vec::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach a metrics registry (GTMB send/retransmit/ack/fail counters).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Set the controller generation stamped on every outgoing GTMB.
    ///
    /// A restarted controller bumps its epoch so clients can reject the
    /// predecessor's late retransmissions; acknowledgements from an older
    /// epoch are likewise ignored here (a GTBN for epoch n−1 may carry a
    /// `request_seq` that collides with a fresh post-restart request).
    ///
    /// Bumping the epoch also cancels every in-flight message: the stored
    /// copies are stamped with the old epoch, so clients fence each resend
    /// (`epoch.stale_rejected`) and can never acknowledge it — left in
    /// place, the retransmission budget exhausts and parks the client on
    /// the §7 failure path even though it is healthy. Dropping the
    /// `outstanding` entries cancels those `gtmb-rto-*` schedules; the next
    /// [`Self::execute`] re-issues each affected configuration under the
    /// new epoch with a fresh sequence number and budget (re-keying the
    /// jitter stream, which is labelled by epoch).
    pub fn set_epoch(&mut self, epoch: u32) {
        if epoch != self.epoch {
            self.outstanding.clear();
        }
        self.epoch = epoch;
    }

    /// Current controller generation.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Translate a solution into per-client GTMB messages (returned for
    /// transmission) and the forwarding rules for the media plane.
    ///
    /// `ladder_layers` maps each source to the full list of (resolution
    /// lines) it negotiated, so disabled layers get explicit zero entries.
    pub fn execute(
        &mut self,
        now: SimTime,
        solution: &Solution,
        ladder_layers: &LadderLayers,
    ) -> (Vec<(ClientId, GsoTmmbr)>, Vec<ForwardingRule>) {
        // Forwarding rules straight from the solution's receive map, one
        // per received stream, allocated once at that count.
        let stream_count = solution.received.values().map(Vec::len).sum();
        // lint: allow(hot-alloc, reason = "the round's forwarding rules, returned to the caller; allocated once at the received-stream count")
        let mut rules = Vec::with_capacity(stream_count);
        for (&subscriber, streams) in &solution.received {
            for r in streams {
                // lint: allow(hot-alloc, reason = "push into the capacity reserved above; never reallocates")
                rules.push(ForwardingRule {
                    subscriber,
                    source: r.source,
                    tag: r.tag,
                    ssrc: ssrc_for(r.source.client, r.source.kind, r.resolution.0),
                    bitrate: r.bitrate,
                });
            }
        }

        // Per-client layer configuration vectors. Sources ascend by client,
        // so one client's layers are contiguous: each is built in the
        // reused layer buffer and offered once the next client's begin.
        let mut messages = Vec::new();
        let mut current = None;
        for (&source, lines_list) in ladder_layers {
            if current != Some(source.client) {
                if let Some(client) = current {
                    self.offer(now, client, &mut messages);
                }
                current = Some(source.client);
            }
            let policies = solution.policies(source);
            for &lines in lines_list {
                let bitrate = policies
                    .iter()
                    .find(|p| p.resolution.0 == lines)
                    .map_or(Bitrate::ZERO, |p| p.bitrate);
                // lint: allow(hot-alloc, reason = "reused layer buffer; regrows only after a sent message took its allocation")
                self.entries.push(TmmbrEntry {
                    ssrc: ssrc_for(source.client, source.kind, lines),
                    bitrate,
                    overhead: 40,
                });
            }
        }
        if let Some(client) = current {
            self.offer(now, client, &mut messages);
        }
        (messages, rules)
    }

    /// Send `client` the configuration in the layer buffer unless it is
    /// already applied or in flight, and leave the buffer empty. A sent
    /// message takes the buffer's allocation with it. A client with no
    /// layers gets no message.
    fn offer(&mut self, now: SimTime, client: ClientId, messages: &mut Vec<(ClientId, GsoTmmbr)>) {
        if self.entries.is_empty() {
            return;
        }
        let entries = self.entries.as_slice();
        let send = match self.outstanding.get(&client) {
            // The identical configuration is already in flight: keep the
            // outstanding message and its retransmission budget.
            // Re-issuing with a fresh sequence number would reset
            // `transmissions` on every controller tick, so a persistently
            // unreachable client could never exhaust the budget and reach
            // the §7 failure path whenever the tick cadence is shorter than
            // the summed backoff schedule.
            Some(out) => out.message.entries != entries,
            // Configuration unchanged and acknowledged.
            None => self.applied.get(&client).map(Vec::as_slice) != Some(entries),
        };
        if !send {
            self.entries.clear();
            return;
        }
        let message = GsoTmmbr {
            sender_ssrc: self.controller_ssrc,
            epoch: self.epoch,
            request_seq: self.next_seq,
            entries: std::mem::take(&mut self.entries),
        };
        self.next_seq += 1;
        // lint: allow(hot-alloc, reason = "outstanding-message bookkeeping for GTMB reliability; one entry per unacked client")
        self.outstanding.insert(
            client,
            // lint: allow(hot-alloc, reason = "outstanding-message bookkeeping for GTMB reliability; one entry per unacked client")
            Outstanding { message: message.clone(), sent_at: now, transmissions: 1 },
        );
        self.telemetry.incr(keys::GTMB_SENT, client);
        // lint: allow(hot-alloc, reason = "GTMB message batch returned to the caller; grows only for a client whose configuration changed")
        messages.push((client, message));
    }

    /// Process a GTBN acknowledgement from a client. Acks from a different
    /// controller epoch are ignored (see [`Self::set_epoch`]).
    pub fn on_ack(&mut self, client: ClientId, ack: &GsoTmmbn) {
        if ack.epoch != self.epoch {
            return;
        }
        if let Some(out) = self.outstanding.get(&client) {
            if out.message.request_seq == ack.request_seq {
                let out = self
                    .outstanding
                    .remove(&client)
                    .expect("invariant: the entry was just found by get");
                self.applied.insert(client, out.message.entries);
                self.telemetry.incr(keys::GTMB_ACKED, client);
            }
        }
    }

    /// Forget all delivery state for a departed client, or for a known
    /// `ClientId` that re-registered as a fresh endpoint.
    ///
    /// Without this, `outstanding`, `applied`, and `failed` entries leak
    /// for the conference lifetime — and a stale `applied` entry would
    /// suppress the initial configuration if the `ClientId` is ever
    /// reused. A client that rejoins mid-retransmission would also have
    /// its silence counted against the old message's budget.
    pub fn on_client_leave(&mut self, client: ClientId) {
        self.outstanding.remove(&client);
        self.applied.remove(&client);
        self.failed.retain(|&c| c != client);
    }

    /// Per-client entries held: outstanding messages, applied
    /// configurations and undrained failures.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.outstanding.len() + self.applied.len() + self.failed.len()
    }

    /// The backoff interval before retransmission number `tx + 1` of
    /// `message` (exponential in `tx`, capped, plus deterministic jitter).
    fn rto(&self, client: ClientId, message: &GsoTmmbr, tx: u32) -> SimDuration {
        let mult = u64::from(self.cfg.rto_multiplier).saturating_pow(tx.saturating_sub(1));
        let base = self
            .cfg
            .max_rto
            .min(SimDuration::from_micros(self.cfg.initial_rto.as_micros().saturating_mul(mult)));
        if self.cfg.jitter_frac <= 0.0 {
            return base;
        }
        // lint: allow(hot-alloc, reason = "RTO jitter label seeding the deterministic RNG; formats only when jitter is enabled")
        let label = format!("gtmb-rto-{}-{}-{}-{}", client, message.epoch, message.request_seq, tx);
        let mut rng = DetRng::derive(self.cfg.seed, &label);
        base + base.mul_f64(self.cfg.jitter_frac * rng.f64())
    }

    /// Retransmission poll; returns messages to resend now.
    pub fn poll(&mut self, now: SimTime) -> Vec<(ClientId, GsoTmmbr)> {
        let mut resend = Vec::new();
        let mut exhausted = Vec::new();
        let mut due: Vec<ClientId> = Vec::new();
        for (&client, out) in &self.outstanding {
            if now.saturating_since(out.sent_at)
                >= self.rto(client, &out.message, out.transmissions)
            {
                // lint: allow(hot-alloc, reason = "retransmission-poll scratch, bounded by outstanding unacked clients")
                due.push(client);
            }
        }
        for client in due {
            let out = self
                .outstanding
                .get_mut(&client)
                .expect("invariant: due clients come from the outstanding map");
            if out.transmissions >= self.cfg.max_transmissions {
                // lint: allow(hot-alloc, reason = "retransmission-poll scratch, bounded by outstanding unacked clients")
                exhausted.push(client);
            } else {
                out.transmissions += 1;
                out.sent_at = now;
                // lint: allow(hot-alloc, reason = "retransmission-poll scratch, bounded by outstanding unacked clients")
                resend.push((client, out.message.clone()));
            }
        }
        for (client, _) in &resend {
            self.telemetry.incr(keys::GTMB_RETRANSMITS, client);
        }
        for client in exhausted {
            self.outstanding.remove(&client);
            // lint: allow(hot-alloc, reason = "retransmission-poll scratch, bounded by outstanding unacked clients")
            self.failed.push(client);
            self.telemetry.incr(keys::GTMB_FAILED, client);
            self.telemetry.event(now, keys::EV_GTMB_FAILED, client);
        }
        resend
    }

    /// Clients whose configuration could not be delivered (for the failure
    /// handler); clears the list.
    pub fn take_failed(&mut self) -> Vec<ClientId> {
        std::mem::take(&mut self.failed)
    }

    /// Is a configuration still awaiting acknowledgement?
    pub fn pending(&self, client: ClientId) -> bool {
        self.outstanding.contains_key(&client)
    }
}

/// A disagreement between the forwarding rules and the solution that
/// produced them.
#[derive(Debug, Clone, PartialEq)]
pub enum ForwardingViolation {
    /// Two rules serve one `(subscriber, source, tag)`; always a
    /// [`ConstraintViolation::MultipleStreamsPerSubscription`].
    Constraint(ConstraintViolation),
    /// A forwarding rule names a stream the subscriber does not receive.
    ForwardingWithoutStream {
        /// The rule's subscriber.
        subscriber: ClientId,
        /// The rule's source.
        source: SourceId,
        /// The rule's tag.
        tag: u8,
    },
    /// A received stream has no forwarding rule delivering it.
    StreamWithoutForwarding {
        /// The starved subscriber.
        subscriber: ClientId,
        /// The stream's source.
        source: SourceId,
        /// The subscription's tag.
        tag: u8,
    },
    /// A forwarding rule's bitrate disagrees with the configured stream.
    ForwardingBitrateMismatch {
        /// The rule's subscriber.
        subscriber: ClientId,
        /// The rule's source.
        source: SourceId,
        /// The rule's tag.
        tag: u8,
        /// Bitrate the rule forwards.
        actual: Bitrate,
        /// Bitrate the solution configured.
        budgeted: Bitrate,
    },
}

impl ForwardingViolation {
    /// The paper equation (or section) this finding violates.
    pub fn equation(&self) -> &'static str {
        match self {
            ForwardingViolation::Constraint(c) => c.equation(),
            _ => "§4.3 (feedback execution)",
        }
    }

    /// Short machine-friendly name of the violation kind.
    pub fn kind_name(&self) -> &'static str {
        match self {
            ForwardingViolation::Constraint(c) => c.kind_name(),
            ForwardingViolation::ForwardingWithoutStream { .. } => "forwarding-without-stream",
            ForwardingViolation::StreamWithoutForwarding { .. } => "stream-without-forwarding",
            ForwardingViolation::ForwardingBitrateMismatch { .. } => "forwarding-bitrate-mismatch",
        }
    }
}

impl fmt::Display for ForwardingViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} | {}] ", self.kind_name(), self.equation())?;
        match self {
            ForwardingViolation::Constraint(c) => write!(f, "{c}"),
            ForwardingViolation::ForwardingWithoutStream { subscriber, source, tag } => {
                write!(
                    f,
                    "rule forwards {source} tag {tag} to {subscriber} who receives no such stream"
                )
            }
            ForwardingViolation::StreamWithoutForwarding { subscriber, source, tag } => {
                write!(
                    f,
                    "{subscriber} is configured for {source} tag {tag} but no rule forwards it"
                )
            }
            ForwardingViolation::ForwardingBitrateMismatch {
                subscriber,
                source,
                tag,
                actual,
                budgeted,
            } => {
                write!(
                    f,
                    "rule forwards {source} tag {tag} to {subscriber} at {actual}, configured {budgeted}"
                )
            }
        }
    }
}

/// Cross-check media-plane forwarding rules against the solution that
/// produced them: the rules must deliver exactly the receive map — no
/// phantom rules, no starved subscriptions, no bitrate drift.
pub fn check_forwarding(solution: &Solution, rules: &[ForwardingRule]) -> Vec<ForwardingViolation> {
    let mut out = Vec::new();
    let mut by_key: BTreeMap<(ClientId, SourceId, u8), Bitrate> = BTreeMap::new();
    for r in rules {
        if by_key.insert((r.subscriber, r.source, r.tag), r.bitrate).is_some() {
            out.push(ForwardingViolation::Constraint(
                ConstraintViolation::MultipleStreamsPerSubscription {
                    subscriber: r.subscriber,
                    source: r.source,
                    tag: r.tag,
                },
            ));
        }
    }
    for (&(sub, src, tag), &bitrate) in &by_key {
        match solution.received_from(sub, src, tag) {
            None => out.push(ForwardingViolation::ForwardingWithoutStream {
                subscriber: sub,
                source: src,
                tag,
            }),
            Some(r) if r.bitrate != bitrate => {
                out.push(ForwardingViolation::ForwardingBitrateMismatch {
                    subscriber: sub,
                    source: src,
                    tag,
                    actual: bitrate,
                    budgeted: r.bitrate,
                });
            }
            Some(_) => {}
        }
    }
    for (&sub, streams) in &solution.received {
        for r in streams {
            if !by_key.contains_key(&(sub, r.source, r.tag)) {
                out.push(ForwardingViolation::StreamWithoutForwarding {
                    subscriber: sub,
                    source: r.source,
                    tag: r.tag,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gso_algo::{ladders, ClientSpec, Problem, Resolution, Subscription};
    use gso_util::StreamKind;

    fn solved() -> (Solution, BTreeMap<SourceId, Vec<u16>>) {
        let ladder = ladders::paper_table1();
        let a = ClientId(1);
        let b = ClientId(2);
        let p = Problem::new(
            vec![
                ClientSpec::new(a, Bitrate::from_mbps(5), Bitrate::from_mbps(5), ladder.clone()),
                ClientSpec::new(b, Bitrate::from_mbps(5), Bitrate::from_kbps(900), ladder),
            ],
            vec![Subscription::new(b, SourceId::video(a), Resolution::R720)],
        )
        .unwrap();
        let sol = gso_algo::solver::solve(&p, &Default::default());
        let mut layers = BTreeMap::new();
        layers.insert(SourceId::video(a), vec![180u16, 360, 720]);
        layers.insert(SourceId::video(b), vec![180u16, 360, 720]);
        (sol, layers)
    }

    #[test]
    fn execute_emits_config_and_rules() {
        let (sol, layers) = solved();
        let mut ex = FeedbackExecutor::new(FeedbackConfig::default(), Ssrc(0xffff));
        let (msgs, rules) = ex.execute(SimTime::ZERO, &sol, &layers);
        // Both clients get a config (B's layers are all zero).
        assert_eq!(msgs.len(), 2);
        let a_msg = &msgs.iter().find(|(c, _)| *c == ClientId(1)).unwrap().1;
        assert_eq!(a_msg.entries.len(), 3);
        // B subscribed at 900 Kbps downlink minus nothing → 800 Kbps 360P.
        let active: Vec<&TmmbrEntry> =
            a_msg.entries.iter().filter(|e| !e.bitrate.is_zero()).collect();
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].ssrc, ssrc_for(ClientId(1), StreamKind::Video, 360));
        assert_eq!(active[0].bitrate, Bitrate::from_kbps(800));
        // One forwarding rule for B.
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].subscriber, ClientId(2));
        assert_eq!(rules[0].ssrc, ssrc_for(ClientId(1), StreamKind::Video, 360));
    }

    #[test]
    fn ack_stops_retransmission() {
        let (sol, layers) = solved();
        let mut ex = FeedbackExecutor::new(FeedbackConfig::default(), Ssrc(1));
        let (msgs, _) = ex.execute(SimTime::ZERO, &sol, &layers);
        let (client, msg) = &msgs[0];
        assert!(ex.pending(*client));
        ex.on_ack(
            *client,
            &GsoTmmbn {
                sender_ssrc: Ssrc(2),
                epoch: 0,
                request_seq: msg.request_seq,
                entries: vec![],
            },
        );
        assert!(!ex.pending(*client));
        // Nothing to resend for the acknowledged client.
        let resent = ex.poll(SimTime::from_secs(1));
        assert!(resent.iter().all(|(c, _)| c != client));
    }

    #[test]
    fn unacked_message_retransmits_with_backoff_then_fails() {
        let (sol, layers) = solved();
        let cfg = FeedbackConfig { max_transmissions: 3, ..FeedbackConfig::default() };
        let mut ex = FeedbackExecutor::new(cfg, Ssrc(1));
        let (msgs, _) = ex.execute(SimTime::ZERO, &sol, &layers);
        assert_eq!(msgs.len(), 2);
        // Backoff intervals: 200 ms, 400 ms, then 800 ms to exhaustion.
        assert_eq!(ex.poll(SimTime::from_millis(100)).len(), 0, "too early");
        assert_eq!(ex.poll(SimTime::from_millis(250)).len(), 2, "first retransmit");
        assert_eq!(ex.poll(SimTime::from_millis(500)).len(), 0, "backoff doubled, not yet due");
        assert_eq!(ex.poll(SimTime::from_millis(700)).len(), 2, "second retransmit");
        assert_eq!(ex.poll(SimTime::from_millis(1000)).len(), 0, "800 ms RTO not yet over");
        assert_eq!(ex.poll(SimTime::from_millis(1500)).len(), 0, "exhausted");
        let failed = ex.take_failed();
        assert_eq!(failed.len(), 2);
        assert!(ex.take_failed().is_empty(), "failure list drains");
    }

    /// With jitter enabled the retransmission offsets are seed-stable:
    /// the same seed yields the same schedule, and every interval stays
    /// within `[rto, rto · (1 + jitter_frac)]`.
    #[test]
    fn jittered_backoff_is_deterministic_and_bounded() {
        let (sol, layers) = solved();
        let cfg = FeedbackConfig { jitter_frac: 0.5, seed: 42, ..FeedbackConfig::default() };
        let schedule = |cfg: &FeedbackConfig| {
            let mut ex = FeedbackExecutor::new(cfg.clone(), Ssrc(1));
            ex.execute(SimTime::ZERO, &sol, &layers);
            let mut times = Vec::new();
            for ms in (0..10_000).step_by(10) {
                for (c, m) in ex.poll(SimTime::from_millis(ms)) {
                    times.push((c, m.request_seq, ms));
                }
            }
            times
        };
        let a = schedule(&cfg);
        let b = schedule(&cfg);
        assert_eq!(a, b, "same seed, same retransmission schedule");
        assert!(!a.is_empty());
        // First retransmission for each client lands in [200, 300] ms
        // (initial RTO 200 ms, jitter up to 50%), on the 10 ms poll grid.
        for (_, _, ms) in a.iter().take(2) {
            assert!((200..=310).contains(ms), "first retransmit at {ms} ms");
        }
        let c = schedule(&FeedbackConfig { seed: 43, ..cfg });
        assert_ne!(a, c, "a different seed perturbs the schedule");
    }

    #[test]
    fn stale_ack_ignored() {
        let (sol, layers) = solved();
        let mut ex = FeedbackExecutor::new(FeedbackConfig::default(), Ssrc(1));
        let (msgs, _) = ex.execute(SimTime::ZERO, &sol, &layers);
        let (client, msg) = &msgs[0];
        ex.on_ack(
            *client,
            &GsoTmmbn {
                sender_ssrc: Ssrc(2),
                epoch: 0,
                request_seq: msg.request_seq + 99,
                entries: vec![],
            },
        );
        assert!(ex.pending(*client), "wrong seq must not ack");
    }

    /// Regression (§7 failure path): an unreachable client must fail over
    /// even when the controller re-executes the same solution every tick.
    /// Before the fix, each `execute` replaced the outstanding message with
    /// a fresh sequence number and `transmissions: 1`, so a 1 s tick
    /// cadence (longer than `retransmit_after`, shorter than
    /// `retransmit_after × max_transmissions`) reset the budget forever.
    #[test]
    fn unreachable_client_fails_over_at_one_second_tick_cadence() {
        let (sol, layers) = solved();
        let mut ex = FeedbackExecutor::new(FeedbackConfig::default(), Ssrc(1));
        let mut failed = Vec::new();
        let mut first_seq: Option<u32> = None;
        for tick in 0..10u64 {
            let now = SimTime::from_secs(tick);
            // Controller tick: poll retransmissions, then re-execute the
            // (unchanged) solution — exactly the order GsoController uses.
            ex.poll(now);
            failed.extend(ex.take_failed());
            if failed.is_empty() {
                let (msgs, _) = ex.execute(now, &sol, &layers);
                match (tick, first_seq) {
                    (0, _) => first_seq = Some(msgs[0].1.request_seq),
                    (_, Some(_)) => {
                        assert!(
                            msgs.is_empty(),
                            "identical in-flight config must not be re-issued (tick {tick})"
                        );
                    }
                    _ => unreachable!(),
                }
            }
        }
        // Budget: 5 transmissions at >= 200 ms spacing -> exhausted well
        // within 10 s. Both clients never acked, so both must fail.
        assert_eq!(failed.len(), 2, "unreachable clients must reach take_failed()");
        assert!(!ex.pending(ClientId(1)) && !ex.pending(ClientId(2)));
    }

    /// A changed configuration still replaces the in-flight message (with a
    /// fresh budget) — only *identical* entries keep the old one.
    #[test]
    fn changed_configuration_replaces_inflight_message() {
        let (sol, layers) = solved();
        let mut ex = FeedbackExecutor::new(FeedbackConfig::default(), Ssrc(1));
        let (msgs, _) = ex.execute(SimTime::ZERO, &sol, &layers);
        let seq0 = msgs[0].1.request_seq;
        // Drop source B's ladder: client B's config vector changes.
        let mut layers2 = layers.clone();
        layers2.insert(SourceId::video(ClientId(2)), vec![180u16]);
        let (msgs2, _) = ex.execute(SimTime::from_millis(100), &sol, &layers2);
        assert_eq!(msgs2.len(), 1, "only the changed client is re-issued");
        assert_eq!(msgs2[0].0, ClientId(2));
        assert!(msgs2[0].1.request_seq > seq0);
    }

    #[test]
    fn leave_clears_delivery_state_and_allows_id_reuse() {
        let (sol, layers) = solved();
        let mut ex = FeedbackExecutor::new(FeedbackConfig::default(), Ssrc(1));
        let (msgs, _) = ex.execute(SimTime::ZERO, &sol, &layers);
        // Client 1 acks, client 2 stays pending.
        let (c1, m1) = msgs.iter().find(|(c, _)| *c == ClientId(1)).unwrap();
        ex.on_ack(
            *c1,
            &GsoTmmbn {
                sender_ssrc: Ssrc(2),
                epoch: 0,
                request_seq: m1.request_seq,
                entries: vec![],
            },
        );
        // Client 2 exhausts its budget and lands in `failed`.
        for tick in 1..=6u64 {
            ex.poll(SimTime::from_secs(tick));
        }
        assert!(!ex.pending(ClientId(2)));

        ex.on_client_leave(ClientId(1));
        ex.on_client_leave(ClientId(2));
        assert!(ex.take_failed().is_empty(), "departed clients are not reported as failed");

        // The ClientId is reused by a new participant: the stale `applied`
        // entry must not suppress its initial configuration.
        let (msgs2, _) = ex.execute(SimTime::from_secs(10), &sol, &layers);
        assert_eq!(msgs2.len(), 2, "rejoining clients get a fresh config");
    }

    #[test]
    fn delivery_counters_are_recorded() {
        use gso_telemetry::keys;
        let (sol, layers) = solved();
        let telemetry = Telemetry::new("test");
        let mut ex = FeedbackExecutor::new(FeedbackConfig::default(), Ssrc(1));
        ex.set_telemetry(telemetry.clone());
        let (msgs, _) = ex.execute(SimTime::ZERO, &sol, &layers);
        let (c1, m1) = msgs.iter().find(|(c, _)| *c == ClientId(1)).unwrap();
        ex.on_ack(
            *c1,
            &GsoTmmbn {
                sender_ssrc: Ssrc(2),
                epoch: 0,
                request_seq: m1.request_seq,
                entries: vec![],
            },
        );
        for tick in 1..=6u64 {
            ex.poll(SimTime::from_secs(tick));
        }
        assert_eq!(telemetry.counter_total(keys::GTMB_SENT), 2);
        assert_eq!(telemetry.counter_total(keys::GTMB_ACKED), 1);
        assert_eq!(telemetry.counter(keys::GTMB_RETRANSMITS, ClientId(2)), 4);
        assert_eq!(telemetry.counter(keys::GTMB_FAILED, ClientId(2)), 1);
        assert_eq!(telemetry.events().len(), 1, "failure emits one event");
    }

    #[test]
    fn unchanged_configuration_not_resent() {
        let (sol, layers) = solved();
        let mut ex = FeedbackExecutor::new(FeedbackConfig::default(), Ssrc(1));
        let (msgs, _) = ex.execute(SimTime::ZERO, &sol, &layers);
        for (client, msg) in &msgs {
            ex.on_ack(
                *client,
                &GsoTmmbn {
                    sender_ssrc: Ssrc(2),
                    epoch: 0,
                    request_seq: msg.request_seq,
                    entries: vec![],
                },
            );
        }
        // Same solution again: no new messages.
        let (msgs2, rules2) = ex.execute(SimTime::from_secs(2), &sol, &layers);
        assert!(msgs2.is_empty());
        assert!(!rules2.is_empty(), "rules are still reported");
    }

    /// An acknowledgement carrying a stale controller epoch (e.g. a GTBN
    /// for a pre-restart request whose seq collides with a fresh one) must
    /// not clear the in-flight message.
    #[test]
    fn ack_from_stale_epoch_ignored() {
        let (sol, layers) = solved();
        let mut ex = FeedbackExecutor::new(FeedbackConfig::default(), Ssrc(1));
        ex.set_epoch(2);
        let (msgs, _) = ex.execute(SimTime::ZERO, &sol, &layers);
        let (client, msg) = &msgs[0];
        assert_eq!(msg.epoch, 2, "messages are stamped with the current epoch");
        ex.on_ack(
            *client,
            &GsoTmmbn {
                sender_ssrc: Ssrc(2),
                epoch: 1,
                request_seq: msg.request_seq,
                entries: vec![],
            },
        );
        assert!(ex.pending(*client), "stale-epoch ack must not clear the message");
        ex.on_ack(
            *client,
            &GsoTmmbn {
                sender_ssrc: Ssrc(2),
                epoch: 2,
                request_seq: msg.request_seq,
                entries: vec![],
            },
        );
        assert!(!ex.pending(*client));
    }

    /// Regression: an epoch bump with configurations in
    /// flight must cancel their retransmission schedules. The stored
    /// messages carry the old epoch, so clients fence every resend and can
    /// never ack — before the fix, the budget exhausted and `take_failed`
    /// reported healthy clients into the spurious-fallback path.
    #[test]
    fn epoch_bump_cancels_inflight_retransmissions() {
        let (sol, layers) = solved();
        let mut ex = FeedbackExecutor::new(FeedbackConfig::default(), Ssrc(1));
        let (msgs, _) = ex.execute(SimTime::ZERO, &sol, &layers);
        assert_eq!(msgs.len(), 2, "both configs in flight");
        // Bump the epoch on the live executor.
        ex.set_epoch(1);
        for tick in 1..=8u64 {
            assert!(
                ex.poll(SimTime::from_secs(tick)).is_empty(),
                "stale-epoch message retransmitted after the bump (tick {tick})"
            );
        }
        assert!(ex.take_failed().is_empty(), "cancelled messages must not burn the failure budget");
        // The next execute re-issues every affected configuration under the
        // new epoch with a fresh budget.
        let (msgs2, _) = ex.execute(SimTime::from_secs(9), &sol, &layers);
        assert_eq!(msgs2.len(), 2, "configs re-issued under the new epoch");
        assert!(msgs2.iter().all(|(_, m)| m.epoch == 1));
        // And those are acknowledgeable as usual.
        let (client, msg) = &msgs2[0];
        ex.on_ack(
            *client,
            &GsoTmmbn {
                sender_ssrc: Ssrc(2),
                epoch: 1,
                request_seq: msg.request_seq,
                entries: vec![],
            },
        );
        assert!(!ex.pending(*client));
    }

    /// Satellite regression: a client that crashes and rejoins while its
    /// configuration is mid-retransmission is a fresh endpoint — its old
    /// retry sequence must not keep counting down to the failure path, and
    /// the next execute must re-issue its configuration from scratch.
    #[test]
    fn rejoin_mid_retransmission_restarts_delivery_state() {
        let (sol, layers) = solved();
        let mut ex = FeedbackExecutor::new(FeedbackConfig::default(), Ssrc(1));
        let (msgs, _) = ex.execute(SimTime::ZERO, &sol, &layers);
        let seq0 = msgs.iter().find(|(c, _)| *c == ClientId(2)).unwrap().1.request_seq;
        // Burn client 2's full budget (5 of 5 transmissions); the next due
        // poll would move it to the failure path.
        for tick in 1..=4u64 {
            ex.poll(SimTime::from_secs(tick));
        }
        assert!(ex.pending(ClientId(2)));

        // Client 2 crashes and rejoins: the controller resets it.
        ex.on_client_leave(ClientId(2));
        assert!(!ex.pending(ClientId(2)));

        // Re-executing the same solution re-issues a fresh message with a
        // full budget instead of exhausting the old one.
        let (msgs2, _) = ex.execute(SimTime::from_secs(5), &sol, &layers);
        let m2 = &msgs2.iter().find(|(c, _)| *c == ClientId(2)).unwrap().1;
        assert!(m2.request_seq > seq0, "fresh sequence number after rejoin");
        for tick in 6..=8u64 {
            ex.poll(SimTime::from_secs(tick));
        }
        // (Client 1, which never acked and never rejoined, legitimately
        // exhausts its original budget in the same window.)
        assert!(!ex.take_failed().contains(&ClientId(2)), "old budget must not carry over");
        assert!(ex.pending(ClientId(2)), "fresh message still retransmitting");
    }

    #[test]
    fn forwarding_rules_cross_check() {
        let (solution, _) = solved();
        let src = SourceId::video(ClientId(1));
        let w = ClientId(2);
        let got = solution.received_from(w, src, 0).expect("invariant: watcher receives");
        let rule = |tag, bitrate| ForwardingRule {
            subscriber: w,
            source: src,
            tag,
            ssrc: ssrc_for(ClientId(1), StreamKind::Video, got.resolution.0),
            bitrate,
        };

        // Exact rules: clean.
        let rules = vec![rule(0, got.bitrate)];
        assert!(check_forwarding(&solution, &rules).is_empty());

        // Bitrate drift.
        let drifted = vec![rule(0, Bitrate::from_kbps(123))];
        let violations = check_forwarding(&solution, &drifted);
        assert_eq!(violations.len(), 1);
        assert!(matches!(violations[0], ForwardingViolation::ForwardingBitrateMismatch { .. }));

        // Phantom rule for a stream nobody is configured to receive.
        let phantom = vec![rule(0, got.bitrate), rule(7, got.bitrate)];
        let violations = check_forwarding(&solution, &phantom);
        assert_eq!(violations.len(), 1);
        assert!(matches!(
            violations[0],
            ForwardingViolation::ForwardingWithoutStream { tag: 7, .. }
        ));

        // Missing rule: the configured stream is never forwarded.
        let violations = check_forwarding(&solution, &[]);
        assert_eq!(violations.len(), 1);
        assert!(matches!(violations[0], ForwardingViolation::StreamWithoutForwarding { .. }));

        // Two rules for one subscription.
        let doubled = vec![rule(0, got.bitrate), rule(0, got.bitrate)];
        let violations = check_forwarding(&solution, &doubled);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].kind_name(), "multiple-streams-per-subscription");
    }

    /// The findings print the kind name, the paper section and the
    /// identities the rule and the solution disagree on.
    #[test]
    fn forwarding_findings_display() {
        let v = ForwardingViolation::ForwardingBitrateMismatch {
            subscriber: ClientId(2),
            source: SourceId::video(ClientId(1)),
            tag: 0,
            actual: Bitrate::from_kbps(123),
            budgeted: Bitrate::from_kbps(800),
        };
        assert_eq!(v.equation(), "§4.3 (feedback execution)");
        assert_eq!(
            v.to_string(),
            "[forwarding-bitrate-mismatch | §4.3 (feedback execution)] rule forwards \
             client1/video tag 0 to client2 at 123Kbps, configured 800Kbps"
        );
    }
}
