//! The global stream orchestration problem instance.
//!
//! A [`Problem`] captures the "global picture" the conference node assembles
//! (§4.2): every client's uplink/downlink bandwidth, the feasible stream set
//! of each of its media sources (from SDP + `simulcastInfo` negotiation), and
//! the subscription relations between clients, including per-subscription
//! maximum resolutions and priority boosts.

use crate::types::{Ladder, Resolution};
use gso_util::{Bitrate, ClientId, StreamKind};
use std::fmt;

/// Identifies one media source of a publisher (camera or screen share).
///
/// A camera video and a screen-share video have different SSRC families and
/// are never merged by the controller (§4.4, footnote 6), so they are
/// distinct sources here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceId {
    /// The publishing client.
    pub client: ClientId,
    /// Camera ([`StreamKind::Video`]) or screen share ([`StreamKind::Screen`]).
    pub kind: StreamKind,
}

impl SourceId {
    /// The camera source of a client.
    pub fn video(client: ClientId) -> Self {
        SourceId { client, kind: StreamKind::Video }
    }

    /// The screen-share source of a client.
    pub fn screen(client: ClientId) -> Self {
        SourceId { client, kind: StreamKind::Screen }
    }
}

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.client, self.kind)
    }
}

/// A publisher-side media source together with its feasible stream set.
#[derive(Debug, Clone)]
pub struct PublisherSource {
    /// Which source this is.
    pub id: SourceId,
    /// The feasible stream set `S_i` negotiated for this source.
    pub ladder: Ladder,
}

/// A conference participant.
#[derive(Debug, Clone)]
pub struct ClientSpec {
    /// Participant identity.
    pub id: ClientId,
    /// Uplink bandwidth constraint `B_u` (sum of published bitrates ≤ this).
    pub uplink: Bitrate,
    /// Downlink bandwidth constraint `B_d` (sum of subscribed bitrates ≤ this).
    pub downlink: Bitrate,
    /// Media sources this client can publish (possibly empty for
    /// receive-only participants).
    pub sources: Vec<PublisherSource>,
}

impl ClientSpec {
    /// A client with a single camera source.
    pub fn new(id: ClientId, uplink: Bitrate, downlink: Bitrate, ladder: Ladder) -> Self {
        ClientSpec {
            id,
            uplink,
            downlink,
            sources: vec![PublisherSource { id: SourceId::video(id), ladder }],
        }
    }

    /// A receive-only client (no sources).
    pub fn subscriber_only(id: ClientId, downlink: Bitrate) -> Self {
        ClientSpec { id, uplink: Bitrate::ZERO, downlink, sources: Vec::new() }
    }

    /// Look up one of this client's sources.
    pub fn source(&self, id: SourceId) -> Option<&PublisherSource> {
        self.sources.iter().find(|s| s.id == id)
    }
}

/// A subscription intent: `subscriber` wants one stream from `source`, at a
/// resolution no greater than `max_resolution` (`R_ii'` in §4.1).
///
/// `tag` distinguishes multiple subscriptions from the same subscriber to the
/// same source — the "virtual publisher" construction of §4.4 used by
/// speaker-first (thumbnail + high-resolution view of one camera). Distinct
/// tags form distinct knapsack classes in Step 1 and are merged back per
/// resolution in Step 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Subscription {
    /// The receiving client.
    pub subscriber: ClientId,
    /// The publisher source subscribed to.
    pub source: SourceId,
    /// Maximum acceptable resolution.
    pub max_resolution: Resolution,
    /// Multiplier on the QoE weights of this subscription's candidate
    /// streams; used to prioritize the speaker or screen share (§4.4).
    pub qoe_boost: f64,
    /// Flat utility credited for receiving *any* stream on this
    /// subscription. Seeing a participant at all is worth much more than
    /// the marginal bits between two ladder rungs; this is what makes the
    /// knapsack "accommodate both with reduced bitrate rather than drop
    /// one stream" (§4.4's small-stream protection) even under priority
    /// boosts.
    pub presence_bonus: f64,
    /// Virtual-publisher tag; 0 for the ordinary single subscription.
    pub tag: u8,
}

/// Default presence bonus, roughly the utility of a 180P thumbnail.
pub const DEFAULT_PRESENCE_BONUS: f64 = 150.0;

impl Subscription {
    /// An ordinary (tag 0, boost 1.0) subscription.
    pub fn new(subscriber: ClientId, source: SourceId, max_resolution: Resolution) -> Self {
        Subscription {
            subscriber,
            source,
            max_resolution,
            qoe_boost: 1.0,
            presence_bonus: DEFAULT_PRESENCE_BONUS,
            tag: 0,
        }
    }

    /// Override the presence bonus.
    pub fn with_presence(mut self, bonus: f64) -> Self {
        self.presence_bonus = bonus;
        self
    }

    /// Set the priority boost.
    pub fn with_boost(mut self, boost: f64) -> Self {
        self.qoe_boost = boost;
        self
    }

    /// Set the virtual-publisher tag.
    pub fn with_tag(mut self, tag: u8) -> Self {
        self.tag = tag;
        self
    }
}

/// Problem validation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProblemError {
    /// Two clients share an id.
    DuplicateClient(ClientId),
    /// A subscription references a client that is not in the problem.
    UnknownClient(ClientId),
    /// A subscription references a source its publisher does not have.
    UnknownSource(SourceId),
    /// A client subscribes to its own source, which §4.1 forbids
    /// (`N_i ⊆ I \ {i}`).
    SelfSubscription(ClientId),
    /// Two subscriptions share (subscriber, source, tag).
    DuplicateSubscription(ClientId, SourceId, u8),
    /// A QoE boost is not finite and positive.
    InvalidBoost,
}

impl fmt::Display for ProblemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProblemError::DuplicateClient(c) => write!(f, "duplicate client {c}"),
            ProblemError::UnknownClient(c) => write!(f, "subscription references unknown {c}"),
            ProblemError::UnknownSource(s) => {
                write!(f, "subscription references unknown source {s}")
            }
            ProblemError::SelfSubscription(c) => write!(f, "{c} subscribes to itself"),
            ProblemError::DuplicateSubscription(c, s, t) => {
                write!(f, "duplicate subscription ({c}, {s}, tag {t})")
            }
            ProblemError::InvalidBoost => write!(f, "QoE boost must be finite and > 0"),
        }
    }
}

impl std::error::Error for ProblemError {}

/// A validated orchestration problem instance.
#[derive(Debug, Clone)]
pub struct Problem {
    clients: Vec<ClientSpec>,
    subscriptions: Vec<Subscription>,
}

impl Problem {
    /// Build and validate a problem.
    ///
    /// Clients are sorted by id; subscriptions by (subscriber, publisher
    /// source, tag). The deterministic ordering is what makes the solver's
    /// tie-breaking reproducible.
    pub fn new(
        mut clients: Vec<ClientSpec>,
        mut subscriptions: Vec<Subscription>,
    ) -> Result<Self, ProblemError> {
        clients.sort_by_key(|c| c.id);
        for w in clients.windows(2) {
            if let [a, b] = w {
                if a.id == b.id {
                    return Err(ProblemError::DuplicateClient(a.id));
                }
            }
        }
        subscriptions.sort_by_key(|s| (s.subscriber, s.source, s.tag));
        let client = |id: ClientId| {
            clients.binary_search_by_key(&id, |c| c.id).ok().and_then(|i| clients.get(i))
        };
        // Subscriptions are sorted by key, so a duplicate directly follows
        // the entry it repeats.
        let mut previous = None;
        for s in &subscriptions {
            if !s.qoe_boost.is_finite() || s.qoe_boost <= 0.0 {
                return Err(ProblemError::InvalidBoost);
            }
            if s.subscriber == s.source.client {
                return Err(ProblemError::SelfSubscription(s.subscriber));
            }
            let publisher =
                client(s.source.client).ok_or(ProblemError::UnknownClient(s.source.client))?;
            if client(s.subscriber).is_none() {
                return Err(ProblemError::UnknownClient(s.subscriber));
            }
            if publisher.source(s.source).is_none() {
                return Err(ProblemError::UnknownSource(s.source));
            }
            let key = (s.subscriber, s.source, s.tag);
            if previous.replace(key) == Some(key) {
                return Err(ProblemError::DuplicateSubscription(s.subscriber, s.source, s.tag));
            }
        }
        Ok(Problem { clients, subscriptions })
    }

    /// All clients, ascending by id.
    pub fn clients(&self) -> &[ClientSpec] {
        &self.clients
    }

    /// All subscriptions, in deterministic order.
    pub fn subscriptions(&self) -> &[Subscription] {
        &self.subscriptions
    }

    /// Look up a client by id (binary search; clients are sorted and unique).
    pub fn client(&self, id: ClientId) -> Option<&ClientSpec> {
        self.clients.binary_search_by_key(&id, |c| c.id).ok().and_then(|i| self.clients.get(i))
    }

    /// Look up a source across all clients.
    pub fn source(&self, id: SourceId) -> Option<&PublisherSource> {
        self.client(id.client).and_then(|c| c.source(id))
    }

    /// Subscriptions held by a given subscriber (the classes of its Step-1
    /// knapsack), in deterministic order.
    pub fn subscriptions_of(&self, subscriber: ClientId) -> Vec<&Subscription> {
        self.subscriptions_of_slice(subscriber).iter().collect()
    }

    /// Like [`Self::subscriptions_of`], but as the underlying contiguous
    /// slice: subscriptions are sorted by (subscriber, source, tag), so one
    /// subscriber's subscriptions form a run locatable by binary search —
    /// no per-call allocation.
    pub fn subscriptions_of_slice(&self, subscriber: ClientId) -> &[Subscription] {
        let lo = self.subscriptions.partition_point(|s| s.subscriber < subscriber);
        let hi = self.subscriptions.partition_point(|s| s.subscriber <= subscriber);
        self.subscriptions
            .get(lo..hi)
            .expect("invariant: partition points are ordered and in range")
    }

    /// Look up one subscription by its unique (subscriber, source, tag) key
    /// (binary search over the sorted, duplicate-free subscription list).
    pub fn subscription(
        &self,
        subscriber: ClientId,
        source: SourceId,
        tag: u8,
    ) -> Option<&Subscription> {
        self.subscriptions
            .binary_search_by_key(&(subscriber, source, tag), |s| (s.subscriber, s.source, s.tag))
            .ok()
            .and_then(|i| self.subscriptions.get(i))
    }

    /// Subscriptions targeting a given source (`M_i` plus requested caps).
    pub fn subscribers_of(&self, source: SourceId) -> Vec<&Subscription> {
        // lint: allow(hot-alloc, reason = "owned-snapshot convenience API over an unsorted-by-source axis")
        self.subscriptions.iter().filter(|s| s.source == source).collect()
    }

    /// All publisher sources in the problem, in client order.
    pub fn sources(&self) -> Vec<&PublisherSource> {
        // lint: allow(hot-alloc, reason = "owned-snapshot convenience API; bounded by publisher count, not DP size")
        self.clients.iter().flat_map(|c| c.sources.iter()).collect()
    }

    /// Set one client's uplink and downlink budgets in place. Bandwidths
    /// carry no structural invariant, so nothing is re-validated; an
    /// unknown client is ignored.
    pub fn set_link(&mut self, id: ClientId, uplink: Bitrate, downlink: Bitrate) {
        if let Ok(i) = self.clients.binary_search_by_key(&id, |c| c.id) {
            if let Some(c) = self.clients.get_mut(i) {
                c.uplink = uplink;
                c.downlink = downlink;
            }
        }
    }

    /// Replace the ladder of one source (used by the Step-3 Reduction, which
    /// shrinks the feasible stream set and re-runs Step 1).
    pub(crate) fn set_ladder(&mut self, id: SourceId, ladder: Ladder) {
        if let Some(client) = self.clients.iter_mut().find(|c| c.id == id.client) {
            if let Some(src) = client.sources.iter_mut().find(|s| s.id == id) {
                src.ladder = ladder;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::StreamSpec;

    fn ladder() -> Ladder {
        Ladder::new(vec![
            StreamSpec::new(Resolution::R180, Bitrate::from_kbps(100), 100.0),
            StreamSpec::new(Resolution::R720, Bitrate::from_kbps(1500), 1200.0),
        ])
        .unwrap()
    }

    fn client(id: u32) -> ClientSpec {
        ClientSpec::new(ClientId(id), Bitrate::from_mbps(5), Bitrate::from_mbps(5), ladder())
    }

    #[test]
    fn valid_problem_builds() {
        let p = Problem::new(
            vec![client(2), client(1)],
            vec![Subscription::new(ClientId(1), SourceId::video(ClientId(2)), Resolution::R720)],
        )
        .unwrap();
        assert_eq!(p.clients()[0].id, ClientId(1), "clients sorted by id");
        assert_eq!(p.subscriptions_of(ClientId(1)).len(), 1);
        assert_eq!(p.subscribers_of(SourceId::video(ClientId(2))).len(), 1);
        assert_eq!(p.sources().len(), 2);
    }

    #[test]
    fn rejects_self_subscription() {
        let err = Problem::new(
            vec![client(1)],
            vec![Subscription::new(ClientId(1), SourceId::video(ClientId(1)), Resolution::R720)],
        )
        .unwrap_err();
        assert_eq!(err, ProblemError::SelfSubscription(ClientId(1)));
    }

    #[test]
    fn rejects_unknown_client_and_source() {
        let err = Problem::new(
            vec![client(1)],
            vec![Subscription::new(ClientId(1), SourceId::video(ClientId(9)), Resolution::R720)],
        )
        .unwrap_err();
        assert_eq!(err, ProblemError::UnknownClient(ClientId(9)));

        let err = Problem::new(
            vec![client(1), client(2)],
            vec![Subscription::new(ClientId(1), SourceId::screen(ClientId(2)), Resolution::R720)],
        )
        .unwrap_err();
        assert_eq!(err, ProblemError::UnknownSource(SourceId::screen(ClientId(2))));
    }

    #[test]
    fn rejects_duplicates() {
        let err = Problem::new(vec![client(1), client(1)], vec![]).unwrap_err();
        assert_eq!(err, ProblemError::DuplicateClient(ClientId(1)));

        let sub = Subscription::new(ClientId(1), SourceId::video(ClientId(2)), Resolution::R720);
        let err = Problem::new(vec![client(1), client(2)], vec![sub, sub]).unwrap_err();
        assert_eq!(
            err,
            ProblemError::DuplicateSubscription(ClientId(1), SourceId::video(ClientId(2)), 0)
        );

        // A duplicate separated by other entries in input order still sits
        // next to its twin once sorted.
        let other = Subscription::new(ClientId(2), SourceId::video(ClientId(1)), Resolution::R720);
        let tagged = sub.with_tag(3);
        let err =
            Problem::new(vec![client(1), client(2)], vec![tagged, other, sub, tagged]).unwrap_err();
        assert_eq!(
            err,
            ProblemError::DuplicateSubscription(ClientId(1), SourceId::video(ClientId(2)), 3)
        );
    }

    #[test]
    fn first_fault_in_sorted_order_wins() {
        // Client 3 repeats a subscription; client 1 (given last, but first
        // once sorted) references an unknown publisher. The sorted order,
        // not the input order, decides which error is reported.
        let dup = Subscription::new(ClientId(3), SourceId::video(ClientId(2)), Resolution::R720);
        let unknown =
            Subscription::new(ClientId(1), SourceId::video(ClientId(9)), Resolution::R720);
        let clients = || vec![client(3), client(2), client(1)];
        let err = Problem::new(clients(), vec![dup, dup, unknown]).unwrap_err();
        assert_eq!(err, ProblemError::UnknownClient(ClientId(9)));

        // Within one subscription the per-entry checks run before the
        // duplicate check: a repeated key carrying a bad boost reports the
        // boost.
        let err = Problem::new(clients(), vec![dup, dup.with_boost(f64::NAN)]).unwrap_err();
        assert_eq!(err, ProblemError::InvalidBoost);
    }

    #[test]
    fn distinct_tags_allowed() {
        let s0 = Subscription::new(ClientId(1), SourceId::video(ClientId(2)), Resolution::R180);
        let s1 = Subscription::new(ClientId(1), SourceId::video(ClientId(2)), Resolution::R720)
            .with_tag(1);
        let p = Problem::new(vec![client(1), client(2)], vec![s0, s1]).unwrap();
        assert_eq!(p.subscriptions_of(ClientId(1)).len(), 2);
    }

    #[test]
    fn rejects_bad_boost() {
        let s = Subscription::new(ClientId(1), SourceId::video(ClientId(2)), Resolution::R720)
            .with_boost(0.0);
        let err = Problem::new(vec![client(1), client(2)], vec![s]).unwrap_err();
        assert_eq!(err, ProblemError::InvalidBoost);
    }
}
