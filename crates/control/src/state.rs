//! The conference node's global picture (§4.2).
//!
//! The conference node captures everything the controller needs: codec
//! capabilities (from SDP + `simulcastInfo` negotiation at join time),
//! subscription relations (from signaling), and network bandwidths (SEMB
//! uplink reports from clients, downlink reports from accessing nodes).
//! [`GlobalPicture::to_problem`] assembles the current picture into a
//! validated [`Problem`] for the solver, applying the audio-protection
//! subtraction (§7) and speaker/screen priority boosts (§4.4).

use gso_algo::{
    ClientSpec, Ladder, Problem, ProblemError, PublisherSource, Resolution, SourceId, Subscription,
};
use gso_util::digest::{StableHasher, StateDigest};
use gso_util::{Bitrate, ClientId, SimTime, StreamKind};
use std::collections::BTreeMap;

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
    last_uplink_report: Option<SimTime>,
    last_downlink_report: Option<SimTime>,
    intents: Vec<SubscribeIntent>,
}

/// The assembled, continuously-updated view of one conference.
#[derive(Debug, Default)]
pub struct GlobalPicture {
    clients: BTreeMap<ClientId, ClientState>,
    speaker: Option<ClientId>,
    /// Default bandwidth assumed before the first report arrives.
    pub default_bandwidth: Bitrate,
    /// QoE boost applied to the active speaker's camera subscriptions.
    pub speaker_boost: f64,
    /// QoE boost applied to screen-share subscriptions.
    pub screen_boost: f64,
    /// Headroom subtracted from every link for audio + control (§7).
    pub audio_protection: Bitrate,
    /// Fraction of the reported bandwidth the controller may allocate.
    /// Estimates wobble around the true capacity; committing 100 % of them
    /// keeps the link saturated and the estimator oscillating, while a
    /// modest margin yields a stable fit just under the limit.
    pub allocation_headroom: f64,
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
        self.last_uplink_report.digest(h);
        self.last_downlink_report.digest(h);
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
        }
    }

    /// A client joined with negotiated capabilities.
    pub fn join(&mut self, id: ClientId, caps: CodecCapability) {
        self.clients.insert(
            id,
            ClientState {
                caps,
                uplink: None,
                downlink: None,
                last_uplink_report: None,
                last_downlink_report: None,
                intents: Vec::new(),
            },
        );
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
            c.intents = intents;
        }
    }

    /// Record an uplink bandwidth report (from a SEMB message).
    pub fn report_uplink(&mut self, id: ClientId, now: SimTime, bandwidth: Bitrate) {
        if let Some(c) = self.clients.get_mut(&id) {
            c.uplink = Some(bandwidth);
            c.last_uplink_report = Some(now);
        }
    }

    /// Record a downlink bandwidth report (from an accessing node).
    pub fn report_downlink(&mut self, id: ClientId, now: SimTime, bandwidth: Bitrate) {
        if let Some(c) = self.clients.get_mut(&id) {
            c.downlink = Some(bandwidth);
            c.last_downlink_report = Some(now);
        }
    }

    /// Mark the active speaker (boosts its camera subscriptions).
    pub fn set_speaker(&mut self, id: Option<ClientId>) {
        self.speaker = id;
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

    /// Build the solver input from the current picture.
    ///
    /// Bandwidths default to [`Self::default_bandwidth`] until first
    /// reported; the audio protection headroom is subtracted from both
    /// directions; speaker and screen subscriptions get their boosts.
    /// Intents pointing at departed clients or missing sources are dropped
    /// rather than failing the build.
    pub fn to_problem(&self) -> Result<Problem, ProblemError> {
        let clients: Vec<ClientSpec> = self
            .clients
            .iter()
            .map(|(&id, c)| {
                let uplink = c.uplink.unwrap_or(self.default_bandwidth);
                let downlink = c.downlink.unwrap_or(self.default_bandwidth);
                ClientSpec {
                    id,
                    uplink: uplink
                        .mul_f64(self.allocation_headroom)
                        .saturating_sub(self.audio_protection),
                    downlink: downlink
                        .mul_f64(self.allocation_headroom)
                        .saturating_sub(self.audio_protection),
                    sources: c
                        .caps
                        .ladders
                        .iter()
                        .map(|(kind, ladder)| PublisherSource {
                            id: SourceId { client: id, kind: *kind },
                            // lint: allow(hot-alloc, reason = "problem-assembly snapshot handed to the solver once per round; reuse is tracked by the zero-alloc roadmap item")
                            ladder: ladder.clone(),
                        })
                        // lint: allow(hot-alloc, reason = "problem-assembly snapshot handed to the solver once per round; reuse is tracked by the zero-alloc roadmap item")
                        .collect(),
                }
            })
            // lint: allow(hot-alloc, reason = "problem-assembly snapshot handed to the solver once per round; reuse is tracked by the zero-alloc roadmap item")
            .collect();

        // lint: allow(hot-alloc, reason = "problem-assembly snapshot handed to the solver once per round; reuse is tracked by the zero-alloc roadmap item")
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
                // lint: allow(hot-alloc, reason = "problem-assembly snapshot handed to the solver once per round; reuse is tracked by the zero-alloc roadmap item")
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
        g.report_uplink(ClientId(1), SimTime::from_secs(1), k(2_000));
        g.report_downlink(ClientId(2), SimTime::from_secs(1), k(1_000));
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
