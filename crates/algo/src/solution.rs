//! Orchestration solutions and their validation.
//!
//! A [`Solution`] is the controller's output: for every publisher source, the
//! set of streams to publish (at most one per resolution), each with the set
//! of subscribers it serves. The conference node turns this into TMMBR
//! feedback toward publishers and forwarding rules toward accessing nodes.

use crate::problem::{Problem, SourceId};
use crate::types::Resolution;
use gso_util::{Bitrate, ClientId, StreamKind};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::ControlFlow;

/// One stream a publisher source is instructed to send: the pair
/// `(M_i^R, s_i^R)` of §4.1.2 — a resolution/bitrate plus its audience.
#[derive(Debug, Clone, PartialEq)]
pub struct PublishPolicy {
    /// Resolution of the stream.
    pub resolution: Resolution,
    /// Bitrate the publisher must encode at.
    pub bitrate: Bitrate,
    /// `(subscriber, tag)` pairs served by this stream.
    pub audience: Vec<(ClientId, u8)>,
}

/// One stream a subscriber receives, as seen from the receiving side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReceivedStream {
    /// The source it comes from.
    pub source: SourceId,
    /// Virtual-publisher tag of the subscription that produced it.
    pub tag: u8,
    /// Resolution delivered.
    pub resolution: Resolution,
    /// Bitrate delivered (post-merge, so ≤ the bitrate requested in Step 1).
    pub bitrate: Bitrate,
    /// QoE utility credited for this stream (boost included).
    pub qoe: f64,
}

/// The controller's decision for a whole conference.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Solution {
    /// Streams each source publishes; at most one per resolution.
    pub publish: BTreeMap<SourceId, Vec<PublishPolicy>>,
    /// Streams each subscriber receives.
    pub received: BTreeMap<ClientId, Vec<ReceivedStream>>,
    /// Σ over subscribers of received QoE — the objective value achieved.
    pub total_qoe: f64,
    /// Number of Knapsack–Merge–Reduction iterations the solver ran.
    pub iterations: usize,
}

impl Solution {
    /// Total bitrate a client publishes across all of its sources.
    pub fn publish_rate(&self, client: ClientId) -> Bitrate {
        // Sources sort by (client, kind) and `Audio` is the least kind, so
        // one client's sources form the run starting at its audio source.
        self.publish
            .range(SourceId { client, kind: StreamKind::Audio }..)
            .take_while(|(src, _)| src.client == client)
            .flat_map(|(_, ps)| ps.iter().map(|p| p.bitrate))
            .sum()
    }

    /// Total bitrate a client receives.
    pub fn receive_rate(&self, client: ClientId) -> Bitrate {
        self.received.get(&client).map_or(Bitrate::ZERO, |rs| rs.iter().map(|r| r.bitrate).sum())
    }

    /// The publish policies of one source (empty if it sends nothing).
    pub fn policies(&self, source: SourceId) -> &[PublishPolicy] {
        self.publish.get(&source).map_or(&[], Vec::as_slice)
    }

    /// The stream a subscriber receives from a source under a given tag.
    pub fn received_from(
        &self,
        subscriber: ClientId,
        source: SourceId,
        tag: u8,
    ) -> Option<ReceivedStream> {
        self.received.get(&subscriber)?.iter().copied().find(|r| r.source == source && r.tag == tag)
    }

    /// Check the solution against every constraint family of §4.1 and
    /// return the first violation, in the order [`Self::violations`] lists
    /// them.
    ///
    /// After a structural change the controller runs this on the previous
    /// solution to decide whether it may stay in place (stickiness), so it
    /// allocates nothing and stops at the first finding. Any solution the
    /// solver emits must pass.
    pub fn validate(&self, problem: &Problem) -> Result<(), ConstraintViolation> {
        let mut first = None;
        let _ = self.walk_violations(problem, |v| {
            first = Some(v);
            ControlFlow::Break(())
        });
        first.map_or(Ok(()), Err)
    }

    /// Every §4.1 constraint violation of this solution, in a fixed order:
    /// the publish side (codec capability and audiences) source by source,
    /// then every client's uplink, then every client's downlink, then the
    /// receive side (subscriptions) subscriber by subscriber, and last the
    /// audience-to-receiver consistency of every published stream.
    ///
    /// A check that depends on a failed lookup is skipped, not aborted: an
    /// unknown source's policies are not checked further, and a received
    /// stream with no subscription (or no published policy) skips the checks
    /// that need it, while the walk goes on.
    pub fn violations(&self, problem: &Problem) -> Vec<ConstraintViolation> {
        let mut out = Vec::new();
        let _ = self.walk_violations(problem, |v| {
            out.push(v);
            ControlFlow::Continue(())
        });
        out
    }

    /// True when the solution fits every client's uplink and downlink
    /// budget: the two §4.1 families that read bandwidths, and the only
    /// ones a bandwidth-only change to `problem` can break. A solution
    /// known valid on a problem with the same structure (clients, ladders,
    /// subscriptions) is valid on `problem` exactly when this holds.
    pub fn fits_links(&self, problem: &Problem) -> bool {
        self.walk_links(problem, &mut |_| ControlFlow::Break(())).is_continue()
    }

    /// The uplink (Σ published ≤ B_u) then downlink (Σ received ≤ B_d)
    /// families, client by client.
    fn walk_links(
        &self,
        problem: &Problem,
        emit: &mut impl FnMut(ConstraintViolation) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        use ConstraintViolation as V;
        for c in problem.clients() {
            let actual = self.publish_rate(c.id);
            if actual > c.uplink {
                emit(V::UplinkExceeded { client: c.id, actual, budgeted: c.uplink })?;
            }
        }
        for c in problem.clients() {
            let actual = self.receive_rate(c.id);
            if actual > c.downlink {
                emit(V::DownlinkExceeded { client: c.id, actual, budgeted: c.downlink })?;
            }
        }
        ControlFlow::Continue(())
    }

    /// The one §4.1 walker behind [`Self::validate`] and
    /// [`Self::violations`]: hands each violation to `emit`, which decides
    /// whether the walk goes on.
    fn walk_violations(
        &self,
        problem: &Problem,
        mut emit: impl FnMut(ConstraintViolation) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        use ConstraintViolation as V;

        // Codec capability: at most one stream per resolution per source,
        // and every published bitrate must exist in the source's ladder at
        // that resolution. An audience-less stream wastes uplink.
        for (&source, policies) in &self.publish {
            let Some(publisher) = problem.source(source) else {
                emit(V::UnknownSource { source })?;
                continue;
            };
            for (i, p) in policies.iter().enumerate() {
                if policies.iter().take(i).any(|q| q.resolution == p.resolution) {
                    emit(V::DuplicateResolution { source, resolution: p.resolution })?;
                }
                match publisher.ladder.spec_for_bitrate(p.bitrate) {
                    Some(s) if s.resolution == p.resolution => {}
                    _ => emit(V::BitrateNotInLadder { source, bitrate: p.bitrate })?,
                }
                if p.audience.is_empty() {
                    emit(V::StreamWithoutAudience { source, bitrate: p.bitrate })?;
                }
            }
        }

        self.walk_links(problem, &mut emit)?;

        // Subscription constraints: every received stream corresponds to an
        // actual subscription, respects its resolution cap, and a
        // (subscriber, source, tag) receives at most one stream.
        for (&subscriber, streams) in &self.received {
            for (i, r) in streams.iter().enumerate() {
                let (source, tag) = (r.source, r.tag);
                if streams.iter().take(i).any(|q| q.source == source && q.tag == tag) {
                    emit(V::MultipleStreamsPerSubscription { subscriber, source, tag })?;
                }
                let Some(subscription) = problem.subscription(subscriber, source, tag) else {
                    emit(V::NoSuchSubscription { subscriber, source, tag })?;
                    continue;
                };
                if r.resolution > subscription.max_resolution {
                    emit(V::ResolutionCapExceeded {
                        subscriber,
                        source,
                        actual: r.resolution,
                        budgeted: subscription.max_resolution,
                    })?;
                }
                // The received stream must be one the source publishes, at a
                // matching resolution/bitrate, with this subscriber listed.
                let Some(policy) = self
                    .policies(source)
                    .iter()
                    .find(|p| p.resolution == r.resolution && p.bitrate == r.bitrate)
                else {
                    emit(V::ReceivedUnpublishedStream { subscriber, source, bitrate: r.bitrate })?;
                    continue;
                };
                if !policy.audience.contains(&(subscriber, tag)) {
                    emit(V::NotInAudience { subscriber, source, tag })?;
                }
            }
        }

        // Consistency the other way: every audience member of every published
        // stream must have a matching received entry.
        for (&source, policies) in &self.publish {
            for p in policies {
                for &(subscriber, tag) in &p.audience {
                    match self.received_from(subscriber, source, tag) {
                        Some(r) if r.bitrate == p.bitrate && r.resolution == p.resolution => {}
                        _ => emit(V::AudienceMissingReceiver { source, subscriber, tag })?,
                    }
                }
            }
        }

        ControlFlow::Continue(())
    }
}

/// A violated §4.1 constraint, with the identities and the
/// budgeted-versus-actual values needed to act on it. Found by
/// [`Solution::validate`] (the first) and [`Solution::violations`] (all).
#[derive(Debug, Clone, PartialEq)]
pub enum ConstraintViolation {
    /// A published source does not exist in the problem.
    UnknownSource {
        /// The source the solution publishes for.
        source: SourceId,
    },
    /// Codec constraint: a source publishes two streams at one resolution.
    DuplicateResolution {
        /// The offending source.
        source: SourceId,
        /// The resolution published twice.
        resolution: Resolution,
    },
    /// A published bitrate is not in the source's feasible stream set.
    BitrateNotInLadder {
        /// The offending source.
        source: SourceId,
        /// The bitrate with no ladder entry.
        bitrate: Bitrate,
    },
    /// A stream is published with an empty audience — the wasted uplink GSO
    /// exists to eliminate (Fig. 3a/3d).
    StreamWithoutAudience {
        /// The offending source.
        source: SourceId,
        /// The audience-less stream's bitrate.
        bitrate: Bitrate,
    },
    /// Uplink budget exceeded (Eq. 14).
    UplinkExceeded {
        /// The publishing client.
        client: ClientId,
        /// Sum of the client's published bitrates.
        actual: Bitrate,
        /// The client's uplink budget `B_u`.
        budgeted: Bitrate,
    },
    /// Downlink budget exceeded (Eq. 1–4).
    DownlinkExceeded {
        /// The receiving client.
        client: ClientId,
        /// Sum of the client's received bitrates.
        actual: Bitrate,
        /// The client's downlink budget `B_d`.
        budgeted: Bitrate,
    },
    /// More than one stream delivered for one (subscriber, source, tag).
    MultipleStreamsPerSubscription {
        /// The receiving client.
        subscriber: ClientId,
        /// The stream's source.
        source: SourceId,
        /// The over-served subscription's tag.
        tag: u8,
    },
    /// A received stream has no matching subscription.
    NoSuchSubscription {
        /// The receiving client.
        subscriber: ClientId,
        /// The stream's source.
        source: SourceId,
        /// The claimed virtual-publisher tag.
        tag: u8,
    },
    /// Delivered resolution exceeds the subscription's cap `R_ii'`.
    ResolutionCapExceeded {
        /// The receiving client.
        subscriber: ClientId,
        /// The stream's source.
        source: SourceId,
        /// What was delivered.
        actual: Resolution,
        /// The subscription's maximum.
        budgeted: Resolution,
    },
    /// A subscriber "receives" a stream its source does not publish.
    ReceivedUnpublishedStream {
        /// The receiving client.
        subscriber: ClientId,
        /// The source that does not publish the stream.
        source: SourceId,
        /// The phantom stream's bitrate.
        bitrate: Bitrate,
    },
    /// A subscriber receives a stream whose policy does not list it.
    NotInAudience {
        /// The receiving client.
        subscriber: ClientId,
        /// The stream's source.
        source: SourceId,
        /// The subscription's tag.
        tag: u8,
    },
    /// A policy's audience member has no corresponding received entry.
    AudienceMissingReceiver {
        /// The publishing source.
        source: SourceId,
        /// The audience member with no receive entry.
        subscriber: ClientId,
        /// The audience entry's tag.
        tag: u8,
    },
}

impl ConstraintViolation {
    /// The paper equation (or section) this violation breaks.
    pub fn equation(&self) -> &'static str {
        use ConstraintViolation as V;
        match self {
            V::UplinkExceeded { .. } => "Eq. 14",
            V::DownlinkExceeded { .. } => "Eq. 1–4",
            V::DuplicateResolution { .. } | V::BitrateNotInLadder { .. } => "Eq. 10–11 (codec)",
            V::StreamWithoutAudience { .. } => "§2.3 / Fig. 3a",
            V::UnknownSource { .. }
            | V::NoSuchSubscription { .. }
            | V::MultipleStreamsPerSubscription { .. }
            | V::NotInAudience { .. }
            | V::AudienceMissingReceiver { .. }
            | V::ReceivedUnpublishedStream { .. } => "Eq. 2–3 (subscription)",
            V::ResolutionCapExceeded { .. } => "Eq. 5 (R_ii' cap)",
        }
    }

    /// Short machine-friendly name of the violation kind.
    pub fn kind_name(&self) -> &'static str {
        use ConstraintViolation as V;
        match self {
            V::UnknownSource { .. } => "unknown-source",
            V::DuplicateResolution { .. } => "duplicate-resolution",
            V::BitrateNotInLadder { .. } => "bitrate-not-in-ladder",
            V::StreamWithoutAudience { .. } => "stream-without-audience",
            V::UplinkExceeded { .. } => "uplink-exceeded",
            V::DownlinkExceeded { .. } => "downlink-exceeded",
            V::NoSuchSubscription { .. } => "no-such-subscription",
            V::MultipleStreamsPerSubscription { .. } => "multiple-streams-per-subscription",
            V::ResolutionCapExceeded { .. } => "resolution-cap-exceeded",
            V::ReceivedUnpublishedStream { .. } => "received-unpublished-stream",
            V::NotInAudience { .. } => "not-in-audience",
            V::AudienceMissingReceiver { .. } => "audience-missing-receiver",
        }
    }
}

impl fmt::Display for ConstraintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ConstraintViolation as V;
        match self {
            V::UnknownSource { source } => write!(f, "solution publishes unknown {source}"),
            V::DuplicateResolution { source, resolution } => {
                write!(f, "{source} publishes two streams at {resolution}")
            }
            V::BitrateNotInLadder { source, bitrate } => {
                write!(f, "{source} publishes {bitrate}, not a ladder entry")
            }
            V::StreamWithoutAudience { source, bitrate } => {
                write!(f, "{source} publishes {bitrate} with no audience")
            }
            V::UplinkExceeded { client, actual, budgeted } => {
                write!(f, "{client} publishes {actual}, uplink budget {budgeted}")
            }
            V::DownlinkExceeded { client, actual, budgeted } => {
                write!(f, "{client} receives {actual}, downlink budget {budgeted}")
            }
            V::MultipleStreamsPerSubscription { subscriber, source, tag } => {
                write!(f, "{subscriber} receives multiple streams from {source} tag {tag}")
            }
            V::NoSuchSubscription { subscriber, source, tag } => {
                write!(f, "{subscriber} receives from {source} tag {tag} without a subscription")
            }
            V::ResolutionCapExceeded { subscriber, source, actual, budgeted } => {
                write!(f, "{subscriber} receives {actual} from {source}, above cap {budgeted}")
            }
            V::ReceivedUnpublishedStream { subscriber, source, bitrate } => {
                write!(f, "{subscriber} receives {bitrate} which {source} does not publish")
            }
            V::NotInAudience { subscriber, source, tag } => {
                write!(f, "{subscriber} (tag {tag}) not in the audience of {source}")
            }
            V::AudienceMissingReceiver { source, subscriber, tag } => {
                write!(f, "{source} lists {subscriber} (tag {tag}) but no stream is received")
            }
        }
    }
}

impl std::error::Error for ConstraintViolation {}

impl fmt::Display for Solution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "solution (QoE {:.1}, {} iterations):", self.total_qoe, self.iterations)?;
        for (src, policies) in &self.publish {
            write!(f, "  {src} publishes:")?;
            if policies.is_empty() {
                write!(f, " nothing")?;
            }
            for p in policies {
                write!(f, " {}@{} (to {} subs)", p.resolution, p.bitrate, p.audience.len())?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{ClientSpec, Subscription};
    use crate::types::{Ladder, StreamSpec};
    use ConstraintViolation as V;

    /// The publisher and its watcher.
    const P: ClientId = ClientId(1);
    const W: ClientId = ClientId(2);
    const R720: Resolution = Resolution::R720;

    fn kbps(k: u64) -> Bitrate {
        Bitrate::from_kbps(k)
    }

    fn client(id: ClientId, uplink_kbps: u64, downlink_kbps: u64) -> ClientSpec {
        let ladder = Ladder::new(vec![
            StreamSpec::new(Resolution::R180, kbps(100), 100.0),
            StreamSpec::new(R720, kbps(1500), 1200.0),
        ]);
        ClientSpec::new(id, kbps(uplink_kbps), kbps(downlink_kbps), ladder.unwrap())
    }

    fn src() -> SourceId {
        SourceId::video(P)
    }

    /// P publishes, W subscribes to it capped at `cap`.
    fn problem(uplink_kbps: u64, downlink_kbps: u64, cap: Resolution) -> Problem {
        let clients = vec![client(P, uplink_kbps, 5_000), client(W, 5_000, downlink_kbps)];
        Problem::new(clients, vec![Subscription::new(W, src(), cap)]).unwrap()
    }

    fn two_client_problem() -> Problem {
        problem(5_000, 5_000, R720)
    }

    fn stream(tag: u8) -> ReceivedStream {
        ReceivedStream { source: src(), tag, resolution: R720, bitrate: kbps(1500), qoe: 1200.0 }
    }

    fn policy(bitrate: Bitrate, audience: Vec<(ClientId, u8)>) -> PublishPolicy {
        PublishPolicy { resolution: R720, bitrate, audience }
    }

    fn valid_solution() -> Solution {
        Solution {
            publish: BTreeMap::from([(src(), vec![policy(kbps(1500), vec![(W, 0)])])]),
            received: BTreeMap::from([(W, vec![stream(0)])]),
            total_qoe: 1200.0,
            iterations: 1,
        }
    }

    /// `expected` is the only violation, and `validate` returns it.
    fn assert_only(s: &Solution, problem: &Problem, expected: &ConstraintViolation) {
        assert_eq!(s.violations(problem), vec![expected.clone()]);
        assert_eq!(s.validate(problem).as_ref(), Err(expected));
    }

    #[test]
    fn valid_solution_passes() {
        valid_solution().validate(&two_client_problem()).unwrap();
        assert!(valid_solution().violations(&two_client_problem()).is_empty());
    }

    #[test]
    fn detects_uplink_violation() {
        let v = V::UplinkExceeded { client: P, actual: kbps(1500), budgeted: kbps(500) };
        assert_only(&valid_solution(), &problem(500, 5_000, R720), &v);
        assert_eq!(v.equation(), "Eq. 14");
    }

    #[test]
    fn detects_downlink_violation() {
        let v = V::DownlinkExceeded { client: W, actual: kbps(1500), budgeted: kbps(200) };
        assert_only(&valid_solution(), &problem(5_000, 200, R720), &v);
    }

    #[test]
    fn detects_unpublished_bitrate() {
        let mut s = valid_solution();
        s.publish.get_mut(&src()).unwrap()[0].bitrate = kbps(777);
        let err = s.validate(&two_client_problem()).unwrap_err();
        assert_eq!(err, V::BitrateNotInLadder { source: src(), bitrate: kbps(777) });
    }

    #[test]
    fn detects_empty_audience() {
        let mut s = valid_solution();
        s.publish.get_mut(&src()).unwrap()[0].audience.clear();
        s.received.clear();
        let v = V::StreamWithoutAudience { source: src(), bitrate: kbps(1500) };
        assert_only(&s, &two_client_problem(), &v);
    }

    #[test]
    fn detects_resolution_cap_violation() {
        let v = V::ResolutionCapExceeded {
            subscriber: W,
            source: src(),
            actual: R720,
            budgeted: Resolution::R180,
        };
        assert_only(&valid_solution(), &problem(5_000, 5_000, Resolution::R180), &v);
    }

    #[test]
    fn detects_duplicate_resolution() {
        let mut s = valid_solution();
        let policies = s.publish.get_mut(&src()).unwrap();
        policies.push(policies[0].clone());
        let err = s.validate(&two_client_problem()).unwrap_err();
        assert_eq!(err, V::DuplicateResolution { source: src(), resolution: R720 });
    }

    #[test]
    fn detects_multiple_streams_per_subscription() {
        let mut s = valid_solution();
        s.received.insert(W, vec![stream(0), stream(0)]);
        let err = s.validate(&two_client_problem()).unwrap_err();
        assert_eq!(err, V::MultipleStreamsPerSubscription { subscriber: W, source: src(), tag: 0 });
    }

    #[test]
    fn detects_unknown_source() {
        // Client 3 is not in the problem; the rest of its stream's checks are
        // skipped (its empty audience would otherwise be reported too).
        let mut s = valid_solution();
        let ghost = SourceId::video(ClientId(3));
        s.publish.insert(ghost, vec![policy(kbps(1500), Vec::new())]);
        let v = V::UnknownSource { source: ghost };
        assert_only(&s, &two_client_problem(), &v);
        assert_eq!(v.kind_name(), "unknown-source");
    }

    #[test]
    fn detects_stream_without_subscription() {
        // Tag 1 is served consistently on both sides, but W only subscribed
        // under tag 0.
        let mut s = valid_solution();
        s.publish.insert(src(), vec![policy(kbps(1500), vec![(W, 1)])]);
        s.received.insert(W, vec![stream(1)]);
        let v = V::NoSuchSubscription { subscriber: W, source: src(), tag: 1 };
        assert_only(&s, &two_client_problem(), &v);
        assert_eq!(v.equation(), "Eq. 2–3 (subscription)");
    }

    #[test]
    fn detects_received_unpublished_stream() {
        let mut s = valid_solution();
        s.publish.clear();
        let v = V::ReceivedUnpublishedStream { subscriber: W, source: src(), bitrate: kbps(1500) };
        assert_only(&s, &two_client_problem(), &v);
    }

    #[test]
    fn detects_receiver_missing_from_audience() {
        // W and client 3 both receive the stream, but its audience only
        // lists client 3.
        let c = ClientId(3);
        let problem = Problem::new(
            vec![client(P, 5_000, 5_000), client(W, 5_000, 5_000), client(c, 5_000, 5_000)],
            vec![Subscription::new(W, src(), R720), Subscription::new(c, src(), R720)],
        )
        .unwrap();
        let mut s = valid_solution();
        s.publish.insert(src(), vec![policy(kbps(1500), vec![(c, 0)])]);
        s.received.insert(c, vec![stream(0)]);
        assert_only(&s, &problem, &V::NotInAudience { subscriber: W, source: src(), tag: 0 });
    }

    #[test]
    fn detects_audience_missing_receiver() {
        let mut s = valid_solution();
        s.received.clear();
        let v = V::AudienceMissingReceiver { source: src(), subscriber: W, tag: 0 };
        assert_only(&s, &two_client_problem(), &v);
        assert_eq!(v.kind_name(), "audience-missing-receiver");
    }

    #[test]
    fn several_faults_are_listed_in_walk_order() {
        let problem = problem(2_000, 4_000, R720);
        let mut s = valid_solution();
        // Publish side: a second 720P stream off the ladder with no audience,
        // an audience member (P itself) that receives nothing, and a source
        // the problem does not know.
        s.publish.insert(
            src(),
            vec![policy(kbps(1500), vec![(W, 0), (P, 0)]), policy(kbps(777), Vec::new())],
        );
        let ghost = SourceId::video(ClientId(3));
        s.publish.insert(ghost, Vec::new());
        // Receive side: the tag-0 stream twice, plus one under an
        // unsubscribed tag.
        s.received.insert(W, vec![stream(0), stream(0), stream(1)]);

        let all = s.violations(&problem);
        assert_eq!(
            all,
            vec![
                V::DuplicateResolution { source: src(), resolution: R720 },
                V::BitrateNotInLadder { source: src(), bitrate: kbps(777) },
                V::StreamWithoutAudience { source: src(), bitrate: kbps(777) },
                V::UnknownSource { source: ghost },
                V::UplinkExceeded { client: P, actual: kbps(2277), budgeted: kbps(2_000) },
                V::DownlinkExceeded { client: W, actual: kbps(4500), budgeted: kbps(4_000) },
                V::MultipleStreamsPerSubscription { subscriber: W, source: src(), tag: 0 },
                V::NoSuchSubscription { subscriber: W, source: src(), tag: 1 },
                V::AudienceMissingReceiver { source: src(), subscriber: P, tag: 0 },
            ]
        );
        assert_eq!(s.validate(&problem), Err(all[0].clone()));
    }

    #[test]
    fn rate_accessors() {
        let mut s = valid_solution();
        assert_eq!(s.publish_rate(P), kbps(1500));
        assert_eq!(s.receive_rate(W), kbps(1500));
        assert_eq!(s.receive_rate(P), Bitrate::ZERO);
        assert!(s.received_from(W, src(), 0).is_some());
        // A client's sources are summed across kinds and never mixed with
        // the neighbouring clients' sources.
        s.publish.insert(SourceId::screen(P), vec![policy(kbps(300), vec![(W, 0)])]);
        s.publish.insert(SourceId::video(ClientId(0)), vec![policy(kbps(50), Vec::new())]);
        s.publish.insert(SourceId::video(W), vec![policy(kbps(70), Vec::new())]);
        assert_eq!(s.publish_rate(P), kbps(1800));
        assert_eq!(s.publish_rate(W), kbps(70));
    }
}
