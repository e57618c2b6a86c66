//! The conference node's global picture (§4.2).
//!
//! The conference node captures everything the controller needs: codec
//! capabilities (from SDP + `simulcastInfo` negotiation at join time),
//! subscription relations (from signaling), and network bandwidths (SEMB
//! uplink reports from clients, downlink reports from accessing nodes).
//! [`GlobalPicture::to_problem`] assembles the current picture into a
//! validated [`Problem`] for the solver, applying the audio-protection
//! subtraction (§7) and speaker/screen priority boosts (§4.4).
//!
//! The picture keeps that problem live: it is built once per *structural
//! generation* (the span between joins, leaves, subscription or speaker
//! changes), and link reports patch its bandwidths in place.

use gso_algo::{
    ClientSpec, Ladder, Problem, ProblemError, PublisherSource, Resolution, SourceId, Subscription,
};
use gso_util::digest::{StableHasher, StateDigest};
use gso_util::{Bitrate, ClientId, StreamKind};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A subscription intent as signaled by a client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubscribeIntent {
    /// Publisher source the client wants.
    pub source: SourceId,
    /// Maximum acceptable resolution.
    pub max_resolution: Resolution,
    /// Virtual-publisher tag (0 default; used by speaker-first thumbnails).
    pub tag: u8,
}

/// What a client negotiated at join time (the `simulcastInfo` of §4.2).
#[derive(Debug, Clone)]
pub struct CodecCapability {
    /// Feasible stream set per source kind this client can encode.
    pub ladders: Vec<(StreamKind, Ladder)>,
}

/// One client's controller-relevant state: everything a restarted or
/// promoted controller needs to re-register the client without a round
/// trip to the endpoint itself. Accessing nodes cache these for §7 resync
/// (`ResyncState`).
#[derive(Debug, Clone, PartialEq)]
pub struct ClientSnapshot {
    /// The client.
    pub client: ClientId,
    /// Negotiated per-kind ladders (cached from the SDP offer / join).
    pub ladders: Vec<(StreamKind, Ladder)>,
    /// Last signaled subscription intents.
    pub intents: Vec<SubscribeIntent>,
    /// Last known SEMB uplink estimate (zero if none seen).
    pub uplink: Bitrate,
    /// Last known downlink estimate (zero if none seen).
    pub downlink: Bitrate,
}

impl StateDigest for ClientSnapshot {
    fn digest(&self, h: &mut StableHasher) {
        self.client.digest(h);
        self.ladders.digest(h);
        self.intents.digest(h);
        self.uplink.digest(h);
        self.downlink.digest(h);
    }
}

#[derive(Debug, Clone)]
struct ClientState {
    caps: CodecCapability,
    uplink: Option<Bitrate>,
    downlink: Option<Bitrate>,
    intents: Vec<SubscribeIntent>,
}

/// Each source's negotiated resolution lines, in source order: what the
/// feedback executor zero-fills when a layer is disabled.
pub type LadderLayers = BTreeMap<SourceId, Vec<u16>>;

/// The solver input of the current structural generation, shared with the
/// rounds that solve it.
#[derive(Debug, Clone)]
pub(crate) struct LiveProblem {
    /// Equal to a fresh [`GlobalPicture::to_problem`] at every moment.
    pub(crate) problem: Arc<Problem>,
    /// The problem's sources' resolution lines; only a structural change
    /// can alter them.
    pub(crate) ladder_layers: Arc<LadderLayers>,
    /// Which rebuild produced this problem. Equal generations mean equal
    /// structure: only link bandwidths can differ between two rounds that
    /// carry the same generation.
    pub(crate) generation: u64,
}

/// The assembled, continuously-updated view of one conference.
#[derive(Debug, Default)]
pub struct GlobalPicture {
    clients: BTreeMap<ClientId, ClientState>,
    speaker: Option<ClientId>,
    /// Default bandwidth assumed before the first report arrives.
    default_bandwidth: Bitrate,
    /// QoE boost applied to the active speaker's camera subscriptions.
    speaker_boost: f64,
    /// QoE boost applied to screen-share subscriptions.
    screen_boost: f64,
    /// Headroom subtracted from every link for audio + control (§7).
    audio_protection: Bitrate,
    /// Fraction of the reported bandwidth the controller may allocate.
    /// Estimates wobble around the true capacity; committing 100 % of them
    /// keeps the link saturated and the estimator oscillating, while a
    /// modest margin yields a stable fit just under the limit.
    allocation_headroom: f64,
    /// The live problem; `None` from a structural change until the next
    /// [`Self::live`] rebuilds it. Not part of the digest.
    live: Option<LiveProblem>,
    /// Rebuilds so far. Not part of the digest.
    generation: u64,
}

impl StateDigest for SubscribeIntent {
    fn digest(&self, h: &mut StableHasher) {
        self.source.digest(h);
        self.max_resolution.digest(h);
        h.write_u8(self.tag);
    }
}

impl StateDigest for CodecCapability {
    fn digest(&self, h: &mut StableHasher) {
        self.ladders.digest(h);
    }
}

impl StateDigest for ClientState {
    fn digest(&self, h: &mut StableHasher) {
        self.caps.digest(h);
        self.uplink.digest(h);
        self.downlink.digest(h);
        self.intents.digest(h);
    }
}

impl StateDigest for GlobalPicture {
    fn digest(&self, h: &mut StableHasher) {
        self.clients.digest(h);
        self.speaker.digest(h);
        self.default_bandwidth.digest(h);
        h.write_f64(self.speaker_boost);
        h.write_f64(self.screen_boost);
        self.audio_protection.digest(h);
        h.write_f64(self.allocation_headroom);
    }
}

impl GlobalPicture {
    /// A picture with the paper-calibrated defaults.
    pub fn new() -> Self {
        GlobalPicture {
            clients: BTreeMap::new(),
            speaker: None,
            default_bandwidth: Bitrate::from_kbps(300),
            speaker_boost: gso_algo::qoe::SPEAKER_BOOST,
            screen_boost: gso_algo::qoe::SCREEN_BOOST,
            audio_protection: Bitrate::from_kbps(50),
            allocation_headroom: 0.85,
            live: None,
            generation: 0,
        }
    }

    /// A client joined with negotiated capabilities.
    pub fn join(&mut self, id: ClientId, caps: CodecCapability) {
        self.clients
            .insert(id, ClientState { caps, uplink: None, downlink: None, intents: Vec::new() });
        self.live = None;
    }

    /// A client left; its subscriptions (in both directions) disappear.
    pub fn leave(&mut self, id: ClientId) {
        self.clients.remove(&id);
        for c in self.clients.values_mut() {
            c.intents.retain(|i| i.source.client != id);
        }
        if self.speaker == Some(id) {
            self.speaker = None;
        }
        self.live = None;
    }

    /// Is this client currently in the conference?
    pub fn contains(&self, id: ClientId) -> bool {
        self.clients.contains_key(&id)
    }

    /// Number of joined clients.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// True when the conference is empty.
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// Replace a client's subscription intents.
    pub fn set_subscriptions(&mut self, id: ClientId, intents: Vec<SubscribeIntent>) {
        if let Some(c) = self.clients.get_mut(&id) {
            if c.intents != intents {
                c.intents = intents;
                self.live = None;
            }
        }
    }

    /// Record an uplink bandwidth report (from a SEMB message).
    pub fn report_uplink(&mut self, id: ClientId, bandwidth: Bitrate) {
        if let Some(c) = self.clients.get_mut(&id) {
            c.uplink = Some(bandwidth);
            self.patch_links(id);
        }
    }

    /// Record a downlink bandwidth report (from an accessing node).
    pub fn report_downlink(&mut self, id: ClientId, bandwidth: Bitrate) {
        if let Some(c) = self.clients.get_mut(&id) {
            c.downlink = Some(bandwidth);
            self.patch_links(id);
        }
    }

    /// Mark the active speaker (boosts its camera subscriptions).
    pub fn set_speaker(&mut self, id: Option<ClientId>) {
        if self.speaker != id {
            self.speaker = id;
            self.live = None;
        }
    }

    /// Current speaker.
    pub fn speaker(&self) -> Option<ClientId> {
        self.speaker
    }

    /// Latest uplink estimate for a client.
    pub fn uplink_of(&self, id: ClientId) -> Option<Bitrate> {
        self.clients.get(&id).and_then(|c| c.uplink)
    }

    /// Latest downlink estimate for a client.
    pub fn downlink_of(&self, id: ClientId) -> Option<Bitrate> {
        self.clients.get(&id).and_then(|c| c.downlink)
    }

    /// The picture as one [`ClientSnapshot`] per client, in client order:
    /// what [`crate::GsoController::restore`] must reproduce. Unreported
    /// bandwidths snapshot as zero, which a restore reads as "never
    /// reported" (the picture then defaults them, as for `ResyncState`).
    #[cfg(test)]
    pub fn snapshot(&self) -> Vec<ClientSnapshot> {
        self.clients
            .iter()
            .map(|(&id, c)| ClientSnapshot {
                client: id,
                ladders: c.caps.ladders.clone(),
                intents: c.intents.clone(),
                uplink: c.uplink.unwrap_or(Bitrate::ZERO),
                downlink: c.downlink.unwrap_or(Bitrate::ZERO),
            })
            .collect()
    }

    /// The solver's budget on a link last reported at `reported` (the
    /// default bandwidth before any report): the allocation headroom
    /// fraction minus the audio protection.
    fn budget(&self, reported: Option<Bitrate>) -> Bitrate {
        reported
            .unwrap_or(self.default_bandwidth)
            .mul_f64(self.allocation_headroom)
            .saturating_sub(self.audio_protection)
    }

    /// Carry a client's new link budgets into the live problem. The
    /// problem is copied first only while a round still holds it.
    fn patch_links(&mut self, id: ClientId) {
        let Some(c) = self.clients.get(&id) else { return };
        let (uplink, downlink) = (self.budget(c.uplink), self.budget(c.downlink));
        if let Some(live) = &mut self.live {
            Arc::make_mut(&mut live.problem).set_link(id, uplink, downlink);
        }
    }

    /// The live problem of the current structural generation, rebuilt
    /// with [`Self::to_problem`] on the first call after a structural
    /// change; that rebuild bumps the generation and recomputes the
    /// ladder layers. Every other call hands out the same shared problem,
    /// with link reports already patched in.
    pub(crate) fn live(&mut self) -> Result<LiveProblem, ProblemError> {
        if self.live.is_none() {
            let problem = self.to_problem()?;
            let ladder_layers = problem
                .sources()
                .iter()
                // lint: allow(hot-alloc, reason = "ladder-layer map rebuilt once per structural change, not per round")
                .map(|s| (s.id, s.ladder.resolutions().iter().map(|r| r.0).collect()))
                // lint: allow(hot-alloc, reason = "ladder-layer map rebuilt once per structural change, not per round")
                .collect();
            self.generation += 1;
            self.live = Some(LiveProblem {
                // lint: allow(hot-alloc, reason = "the live problem and its ladder-layer map are shared once per structural change, not per round")
                problem: Arc::new(problem),
                // lint: allow(hot-alloc, reason = "the live problem and its ladder-layer map are shared once per structural change, not per round")
                ladder_layers: Arc::new(ladder_layers),
                generation: self.generation,
            });
        }
        let live = self.live.as_ref().expect("invariant: filled above when empty");
        // Two `Arc` handles and a counter: sharing, not allocation.
        Ok(LiveProblem::clone(live))
    }

    /// Build the solver input from the current picture: the reference the
    /// live problem must always equal.
    ///
    /// Bandwidths default to the picture's default bandwidth until first
    /// reported; the audio protection headroom is subtracted from both
    /// directions; speaker and screen subscriptions get their boosts.
    /// Intents pointing at departed clients or missing sources are dropped
    /// rather than failing the build.
    pub fn to_problem(&self) -> Result<Problem, ProblemError> {
        let clients: Vec<ClientSpec> = self
            .clients
            .iter()
            .map(|(&id, c)| ClientSpec {
                id,
                uplink: self.budget(c.uplink),
                downlink: self.budget(c.downlink),
                sources: c
                    .caps
                    .ladders
                    .iter()
                    .map(|(kind, ladder)| PublisherSource {
                        id: SourceId { client: id, kind: *kind },
                        // lint: allow(hot-alloc, reason = "problem assembly runs once per structural change; link reports patch the live problem in place")
                        ladder: ladder.clone(),
                    })
                    // lint: allow(hot-alloc, reason = "problem assembly runs once per structural change; link reports patch the live problem in place")
                    .collect(),
            })
            // lint: allow(hot-alloc, reason = "problem assembly runs once per structural change; link reports patch the live problem in place")
            .collect();

        let mut subscriptions = Vec::new();
        for (&id, c) in &self.clients {
            for intent in &c.intents {
                // Drop dangling intents (publisher left, or source kind not
                // negotiated) — design-for-failure, not hard errors.
                let Some(publisher) = self.clients.get(&intent.source.client) else { continue };
                if intent.source.client == id {
                    continue;
                }
                if !publisher.caps.ladders.iter().any(|(k, _)| *k == intent.source.kind) {
                    continue;
                }
                let boost = if intent.source.kind == StreamKind::Screen {
                    self.screen_boost
                } else if self.speaker == Some(intent.source.client) {
                    self.speaker_boost
                } else {
                    1.0
                };
                // lint: allow(hot-alloc, reason = "problem assembly runs once per structural change; link reports patch the live problem in place")
                subscriptions.push(
                    Subscription::new(id, intent.source, intent.max_resolution)
                        .with_boost(boost)
                        .with_tag(intent.tag),
                );
            }
        }
        Problem::new(clients, subscriptions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gso_algo::ladders;
    use proptest::prelude::*;

    fn caps() -> CodecCapability {
        CodecCapability { ladders: vec![(StreamKind::Video, ladders::paper_table1())] }
    }

    fn k(v: u64) -> Bitrate {
        Bitrate::from_kbps(v)
    }

    #[test]
    fn join_report_subscribe_to_problem() {
        let mut g = GlobalPicture::new();
        g.join(ClientId(1), caps());
        g.join(ClientId(2), caps());
        g.report_uplink(ClientId(1), k(2_000));
        g.report_downlink(ClientId(2), k(1_000));
        g.set_subscriptions(
            ClientId(2),
            vec![SubscribeIntent {
                source: SourceId::video(ClientId(1)),
                max_resolution: Resolution::R720,
                tag: 0,
            }],
        );
        let p = g.to_problem().unwrap();
        assert_eq!(p.clients().len(), 2);
        assert_eq!(p.subscriptions().len(), 1);
        // Headroom factor and audio protection applied.
        assert_eq!(p.client(ClientId(1)).unwrap().uplink, k(1_650));
        assert_eq!(p.client(ClientId(2)).unwrap().downlink, k(800));
    }

    #[test]
    fn defaults_apply_before_first_report() {
        let mut g = GlobalPicture::new();
        g.join(ClientId(1), caps());
        let p = g.to_problem().unwrap();
        assert_eq!(p.client(ClientId(1)).unwrap().uplink, k(205)); // 300×0.85 − 50
    }

    #[test]
    fn leave_drops_dangling_intents() {
        let mut g = GlobalPicture::new();
        g.join(ClientId(1), caps());
        g.join(ClientId(2), caps());
        g.set_subscriptions(
            ClientId(2),
            vec![SubscribeIntent {
                source: SourceId::video(ClientId(1)),
                max_resolution: Resolution::R720,
                tag: 0,
            }],
        );
        g.leave(ClientId(1));
        let p = g.to_problem().unwrap();
        assert_eq!(p.clients().len(), 1);
        assert!(p.subscriptions().is_empty());
    }

    #[test]
    fn speaker_and_screen_boosts_applied() {
        let mut g = GlobalPicture::new();
        let mut speaker_caps = caps();
        speaker_caps.ladders.push((StreamKind::Screen, ladders::coarse3()));
        g.join(ClientId(1), speaker_caps);
        g.join(ClientId(2), caps());
        g.set_speaker(Some(ClientId(1)));
        g.set_subscriptions(
            ClientId(2),
            vec![
                SubscribeIntent {
                    source: SourceId::video(ClientId(1)),
                    max_resolution: Resolution::R720,
                    tag: 0,
                },
                SubscribeIntent {
                    source: SourceId::screen(ClientId(1)),
                    max_resolution: Resolution::R720,
                    tag: 0,
                },
            ],
        );
        let p = g.to_problem().unwrap();
        let subs = p.subscriptions_of(ClientId(2));
        let video = subs.iter().find(|s| s.source.kind == StreamKind::Video).unwrap();
        let screen = subs.iter().find(|s| s.source.kind == StreamKind::Screen).unwrap();
        assert_eq!(video.qoe_boost, gso_algo::qoe::SPEAKER_BOOST);
        assert_eq!(screen.qoe_boost, gso_algo::qoe::SCREEN_BOOST);
    }

    #[test]
    fn self_and_unknown_source_intents_dropped() {
        let mut g = GlobalPicture::new();
        g.join(ClientId(1), caps());
        g.set_subscriptions(
            ClientId(1),
            vec![
                SubscribeIntent {
                    source: SourceId::video(ClientId(1)), // self
                    max_resolution: Resolution::R720,
                    tag: 0,
                },
                SubscribeIntent {
                    source: SourceId::screen(ClientId(1)), // not negotiated
                    max_resolution: Resolution::R720,
                    tag: 0,
                },
            ],
        );
        let p = g.to_problem().unwrap();
        assert!(p.subscriptions().is_empty());
    }

    /// One signaling or report event against the picture.
    #[derive(Debug, Clone)]
    enum Op {
        /// Join with a camera, plus a screen share when set.
        Join(u32, bool),
        Leave(u32),
        /// (publisher, screen?, tag) per intent.
        Subscribe(u32, Vec<(u32, bool, u8)>),
        Speaker(Option<u32>),
        Uplink(u32, u64),
        Downlink(u32, u64),
    }

    fn op() -> impl Strategy<Value = Op> {
        let intents = prop::collection::vec((1u32..=6, prop::bool::ANY, 0u8..2), 0..4);
        (0u8..6, 1u32..=6, prop::bool::ANY, 0u64..4_000, intents).prop_map(
            |(kind, c, flag, n, intents)| match kind {
                0 => Op::Join(c, flag),
                1 => Op::Leave(c),
                2 => Op::Subscribe(c, intents),
                3 => Op::Speaker(flag.then_some(c)),
                4 => Op::Uplink(c, n),
                _ => Op::Downlink(c, n),
            },
        )
    }

    fn apply(g: &mut GlobalPicture, op: &Op) {
        match *op {
            Op::Join(c, screen) => {
                let mut caps = caps();
                if screen {
                    caps.ladders.push((StreamKind::Screen, ladders::coarse3()));
                }
                g.join(ClientId(c), caps);
            }
            Op::Leave(c) => g.leave(ClientId(c)),
            Op::Subscribe(c, ref intents) => {
                let intents = intents
                    .iter()
                    .map(|&(p, screen, tag)| SubscribeIntent {
                        source: if screen {
                            SourceId::screen(ClientId(p))
                        } else {
                            SourceId::video(ClientId(p))
                        },
                        max_resolution: Resolution::R720,
                        tag,
                    })
                    .collect();
                g.set_subscriptions(ClientId(c), intents);
            }
            Op::Speaker(c) => g.set_speaker(c.map(ClientId)),
            Op::Uplink(c, kbps) => g.report_uplink(ClientId(c), k(kbps)),
            Op::Downlink(c, kbps) => g.report_downlink(ClientId(c), k(kbps)),
        }
    }

    proptest! {
        /// After every event the live problem equals a fresh `to_problem`
        /// (or both fail alike), and a round still holding an older
        /// problem keeps seeing it unchanged.
        #[test]
        fn live_problem_equals_a_fresh_build(ops in prop::collection::vec(op(), 1..40)) {
            let mut g = GlobalPicture::new();
            let mut held: Option<(LiveProblem, String)> = None;
            for op in &ops {
                apply(&mut g, op);
                // `Debug` prints every field, floats included, exactly.
                let fresh = format!("{:?}", g.to_problem());
                let live = g.live();
                let patched = format!("{:?}", live.as_ref().map(|l| &l.problem));
                prop_assert!(patched == fresh, "after {op:?}: live {patched}, fresh {fresh}");
                if let Some((round, before)) = &held {
                    prop_assert!(format!("{:?}", round.problem) == *before, "held round changed");
                }
                held = live.ok().map(|l| {
                    let before = format!("{:?}", l.problem);
                    (l, before)
                });
            }
        }
    }

    #[test]
    fn generation_moves_only_on_structural_change() {
        let mut g = GlobalPicture::new();
        g.join(ClientId(1), caps());
        g.join(ClientId(2), caps());
        let first = g.live().unwrap();
        g.report_downlink(ClientId(2), k(1_000));
        g.set_speaker(None);
        let patched = g.live().unwrap();
        assert_eq!(patched.generation, first.generation);
        assert!(Arc::ptr_eq(&patched.ladder_layers, &first.ladder_layers));
        assert_eq!(first.problem.client(ClientId(2)).unwrap().downlink, k(205));
        assert_eq!(patched.problem.client(ClientId(2)).unwrap().downlink, k(800));
        g.set_speaker(Some(ClientId(1)));
        assert_eq!(g.live().unwrap().generation, first.generation + 1);
    }

    #[test]
    fn speaker_clears_when_speaker_leaves() {
        let mut g = GlobalPicture::new();
        g.join(ClientId(1), caps());
        g.set_speaker(Some(ClientId(1)));
        g.leave(ClientId(1));
        assert_eq!(g.speaker(), None);
        assert!(g.is_empty());
    }
}
