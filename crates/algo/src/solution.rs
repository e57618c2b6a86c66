//! Orchestration solutions and their validation.
//!
//! A [`Solution`] is the controller's output: for every publisher source, the
//! set of streams to publish (at most one per resolution), each with the set
//! of subscribers it serves. The conference node turns this into TMMBR
//! feedback toward publishers and forwarding rules toward accessing nodes.

use crate::problem::{Problem, SourceId};
use crate::types::Resolution;
use gso_util::{Bitrate, ClientId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// One stream a publisher source is instructed to send: the pair
/// `(M_i^R, s_i^R)` of §4.1.2 — a resolution/bitrate plus its audience.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PublishPolicy {
    /// Resolution of the stream.
    pub resolution: Resolution,
    /// Bitrate the publisher must encode at.
    pub bitrate: Bitrate,
    /// `(subscriber, tag)` pairs served by this stream.
    pub audience: Vec<(ClientId, u8)>,
}

/// One stream a subscriber receives, as seen from the receiving side.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
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
    /// True when this solution came from a template baseline (the control
    /// plane's fallback path) rather than from the solver: the solver always
    /// runs at least one Knapsack–Merge–Reduction iteration, the baseline
    /// runs none. The fleet's overload shedding uses this to tell demoted
    /// conferences apart from freshly solved ones.
    pub fn is_template_baseline(&self) -> bool {
        self.iterations == 0
    }

    /// Total bitrate a client publishes across all of its sources.
    pub fn publish_rate(&self, client: ClientId) -> Bitrate {
        self.publish
            .iter()
            .filter(|(src, _)| src.client == client)
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

    /// Validate the solution against every constraint family of §4.1.
    ///
    /// This is used by tests and by property-based checks: any solution the
    /// solver emits must pass.
    pub fn validate(&self, problem: &Problem) -> Result<(), ConstraintViolation> {
        // Codec capability: at most one stream per resolution per source,
        // and every published bitrate must exist in the source's ladder at
        // that resolution.
        for (src, policies) in &self.publish {
            let ladder =
                &problem.source(*src).ok_or(ConstraintViolation::UnknownSource(*src))?.ladder;
            for (i, p) in policies.iter().enumerate() {
                if policies.iter().take(i).any(|q| q.resolution == p.resolution) {
                    return Err(ConstraintViolation::DuplicateResolution(*src, p.resolution));
                }
                let spec = ladder.spec_for_bitrate(p.bitrate);
                match spec {
                    Some(s) if s.resolution == p.resolution => {}
                    _ => {
                        return Err(ConstraintViolation::BitrateNotInLadder(*src, p.bitrate));
                    }
                }
                if p.audience.is_empty() {
                    return Err(ConstraintViolation::StreamWithoutAudience(*src, p.bitrate));
                }
            }
        }

        // Uplink: Σ published ≤ B_u per client.
        for c in problem.clients() {
            let rate = self.publish_rate(c.id);
            if rate > c.uplink {
                return Err(ConstraintViolation::UplinkExceeded(c.id, rate, c.uplink));
            }
        }

        // Downlink: Σ received ≤ B_d per client.
        for c in problem.clients() {
            let rate = self.receive_rate(c.id);
            if rate > c.downlink {
                return Err(ConstraintViolation::DownlinkExceeded(c.id, rate, c.downlink));
            }
        }

        // Subscription constraints: every received stream corresponds to an
        // actual subscription, respects its resolution cap, and a
        // (subscriber, source, tag) receives at most one stream.
        for (sub, streams) in &self.received {
            for (i, r) in streams.iter().enumerate() {
                if streams.iter().take(i).any(|q| q.source == r.source && q.tag == r.tag) {
                    return Err(ConstraintViolation::MultipleStreamsPerSubscription(
                        *sub, r.source, r.tag,
                    ));
                }
                let subscription = problem
                    .subscriptions_of_slice(*sub)
                    .iter()
                    .find(|s| s.source == r.source && s.tag == r.tag)
                    .ok_or(ConstraintViolation::NoSuchSubscription(*sub, r.source, r.tag))?;
                if r.resolution > subscription.max_resolution {
                    return Err(ConstraintViolation::ResolutionCapExceeded(
                        *sub,
                        r.source,
                        r.resolution,
                        subscription.max_resolution,
                    ));
                }
                // The received stream must be one the source publishes, at a
                // matching resolution/bitrate, with this subscriber listed.
                let policy = self
                    .policies(r.source)
                    .iter()
                    .find(|p| p.resolution == r.resolution && p.bitrate == r.bitrate)
                    .ok_or(ConstraintViolation::ReceivedUnpublishedStream(*sub, r.source))?;
                if !policy.audience.contains(&(*sub, r.tag)) {
                    return Err(ConstraintViolation::NotInAudience(*sub, r.source, r.tag));
                }
            }
        }

        // Consistency the other way: every audience member of every published
        // stream must have a matching received entry.
        for (src, policies) in &self.publish {
            for p in policies {
                for &(sub, tag) in &p.audience {
                    let got = self.received_from(sub, *src, tag);
                    match got {
                        Some(r) if r.bitrate == p.bitrate && r.resolution == p.resolution => {}
                        _ => return Err(ConstraintViolation::AudienceMissingReceiver(*src, sub)),
                    }
                }
            }
        }

        Ok(())
    }
}

/// A violated constraint, found by [`Solution::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConstraintViolation {
    /// A published source does not exist in the problem.
    UnknownSource(SourceId),
    /// A source publishes two streams at one resolution (codec constraint).
    DuplicateResolution(SourceId, Resolution),
    /// A published bitrate is not in the source's feasible set.
    BitrateNotInLadder(SourceId, Bitrate),
    /// A stream is published with an empty audience — wasted uplink, which
    /// GSO exists to eliminate (Fig. 3a/3d).
    StreamWithoutAudience(SourceId, Bitrate),
    /// Uplink bandwidth constraint violated: (client, used, limit).
    UplinkExceeded(ClientId, Bitrate, Bitrate),
    /// Downlink bandwidth constraint violated: (client, used, limit).
    DownlinkExceeded(ClientId, Bitrate, Bitrate),
    /// More than one stream delivered for one (subscriber, source, tag).
    MultipleStreamsPerSubscription(ClientId, SourceId, u8),
    /// A received stream has no matching subscription.
    NoSuchSubscription(ClientId, SourceId, u8),
    /// Delivered resolution exceeds the subscription's cap.
    ResolutionCapExceeded(ClientId, SourceId, Resolution, Resolution),
    /// A subscriber "receives" a stream its source does not publish.
    ReceivedUnpublishedStream(ClientId, SourceId),
    /// A subscriber receives a stream whose policy does not list it.
    NotInAudience(ClientId, SourceId, u8),
    /// A policy's audience member has no corresponding received entry.
    AudienceMissingReceiver(SourceId, ClientId),
}

impl fmt::Display for ConstraintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintViolation::UnknownSource(s) => write!(f, "unknown source {s}"),
            ConstraintViolation::DuplicateResolution(s, r) => {
                write!(f, "{s} publishes two streams at {r}")
            }
            ConstraintViolation::BitrateNotInLadder(s, b) => {
                write!(f, "{s} publishes {b} which is not in its ladder")
            }
            ConstraintViolation::StreamWithoutAudience(s, b) => {
                write!(f, "{s} publishes {b} with no audience")
            }
            ConstraintViolation::UplinkExceeded(c, used, lim) => {
                write!(f, "{c} uplink exceeded: {used} > {lim}")
            }
            ConstraintViolation::DownlinkExceeded(c, used, lim) => {
                write!(f, "{c} downlink exceeded: {used} > {lim}")
            }
            ConstraintViolation::MultipleStreamsPerSubscription(c, s, t) => {
                write!(f, "{c} receives multiple streams from {s} tag {t}")
            }
            ConstraintViolation::NoSuchSubscription(c, s, t) => {
                write!(f, "{c} receives from {s} tag {t} without a subscription")
            }
            ConstraintViolation::ResolutionCapExceeded(c, s, got, cap) => {
                write!(f, "{c} receives {got} from {s}, above cap {cap}")
            }
            ConstraintViolation::ReceivedUnpublishedStream(c, s) => {
                write!(f, "{c} receives a stream {s} does not publish")
            }
            ConstraintViolation::NotInAudience(c, s, t) => {
                write!(f, "{c} (tag {t}) not in audience of {s}")
            }
            ConstraintViolation::AudienceMissingReceiver(s, c) => {
                write!(f, "{s} lists {c} in an audience but {c} has no received entry")
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

    fn ladder() -> Ladder {
        Ladder::new(vec![
            StreamSpec::new(Resolution::R180, Bitrate::from_kbps(100), 100.0),
            StreamSpec::new(Resolution::R720, Bitrate::from_kbps(1500), 1200.0),
        ])
        .unwrap()
    }

    fn two_client_problem() -> Problem {
        Problem::new(
            vec![
                ClientSpec::new(
                    ClientId(1),
                    Bitrate::from_mbps(5),
                    Bitrate::from_mbps(5),
                    ladder(),
                ),
                ClientSpec::new(
                    ClientId(2),
                    Bitrate::from_mbps(5),
                    Bitrate::from_mbps(5),
                    ladder(),
                ),
            ],
            vec![Subscription::new(ClientId(2), SourceId::video(ClientId(1)), Resolution::R720)],
        )
        .unwrap()
    }

    fn valid_solution() -> Solution {
        let src = SourceId::video(ClientId(1));
        let mut publish = BTreeMap::new();
        publish.insert(
            src,
            vec![PublishPolicy {
                resolution: Resolution::R720,
                bitrate: Bitrate::from_kbps(1500),
                audience: vec![(ClientId(2), 0)],
            }],
        );
        let mut received = BTreeMap::new();
        received.insert(
            ClientId(2),
            vec![ReceivedStream {
                source: src,
                tag: 0,
                resolution: Resolution::R720,
                bitrate: Bitrate::from_kbps(1500),
                qoe: 1200.0,
            }],
        );
        Solution { publish, received, total_qoe: 1200.0, iterations: 1 }
    }

    #[test]
    fn valid_solution_passes() {
        valid_solution().validate(&two_client_problem()).unwrap();
    }

    #[test]
    fn detects_uplink_violation() {
        let problem = Problem::new(
            vec![
                ClientSpec::new(
                    ClientId(1),
                    Bitrate::from_kbps(500),
                    Bitrate::from_mbps(5),
                    ladder(),
                ),
                ClientSpec::new(
                    ClientId(2),
                    Bitrate::from_mbps(5),
                    Bitrate::from_mbps(5),
                    ladder(),
                ),
            ],
            vec![Subscription::new(ClientId(2), SourceId::video(ClientId(1)), Resolution::R720)],
        )
        .unwrap();
        let err = valid_solution().validate(&problem).unwrap_err();
        assert!(matches!(err, ConstraintViolation::UplinkExceeded(..)));
    }

    #[test]
    fn detects_downlink_violation() {
        let problem = Problem::new(
            vec![
                ClientSpec::new(
                    ClientId(1),
                    Bitrate::from_mbps(5),
                    Bitrate::from_mbps(5),
                    ladder(),
                ),
                ClientSpec::new(
                    ClientId(2),
                    Bitrate::from_mbps(5),
                    Bitrate::from_kbps(200),
                    ladder(),
                ),
            ],
            vec![Subscription::new(ClientId(2), SourceId::video(ClientId(1)), Resolution::R720)],
        )
        .unwrap();
        let err = valid_solution().validate(&problem).unwrap_err();
        assert!(matches!(err, ConstraintViolation::DownlinkExceeded(..)));
    }

    #[test]
    fn detects_unpublished_bitrate() {
        let mut s = valid_solution();
        s.publish.get_mut(&SourceId::video(ClientId(1))).unwrap()[0].bitrate =
            Bitrate::from_kbps(777);
        let err = s.validate(&two_client_problem()).unwrap_err();
        assert!(matches!(err, ConstraintViolation::BitrateNotInLadder(..)));
    }

    #[test]
    fn detects_empty_audience() {
        let mut s = valid_solution();
        s.publish.get_mut(&SourceId::video(ClientId(1))).unwrap()[0].audience.clear();
        s.received.clear();
        let err = s.validate(&two_client_problem()).unwrap_err();
        assert!(matches!(err, ConstraintViolation::StreamWithoutAudience(..)));
    }

    #[test]
    fn detects_resolution_cap_violation() {
        let problem = Problem::new(
            vec![
                ClientSpec::new(
                    ClientId(1),
                    Bitrate::from_mbps(5),
                    Bitrate::from_mbps(5),
                    ladder(),
                ),
                ClientSpec::new(
                    ClientId(2),
                    Bitrate::from_mbps(5),
                    Bitrate::from_mbps(5),
                    ladder(),
                ),
            ],
            vec![Subscription::new(ClientId(2), SourceId::video(ClientId(1)), Resolution::R180)],
        )
        .unwrap();
        let err = valid_solution().validate(&problem).unwrap_err();
        assert!(matches!(err, ConstraintViolation::ResolutionCapExceeded(..)));
    }

    #[test]
    fn detects_duplicate_resolution() {
        let mut s = valid_solution();
        let policies = s.publish.get_mut(&SourceId::video(ClientId(1))).unwrap();
        policies.push(policies[0].clone());
        let err = s.validate(&two_client_problem()).unwrap_err();
        assert_eq!(
            err,
            ConstraintViolation::DuplicateResolution(
                SourceId::video(ClientId(1)),
                Resolution::R720
            )
        );
    }

    #[test]
    fn detects_multiple_streams_per_subscription() {
        let mut s = valid_solution();
        let streams = s.received.get_mut(&ClientId(2)).unwrap();
        streams.push(streams[0]);
        let err = s.validate(&two_client_problem()).unwrap_err();
        assert_eq!(
            err,
            ConstraintViolation::MultipleStreamsPerSubscription(
                ClientId(2),
                SourceId::video(ClientId(1)),
                0
            )
        );
    }

    #[test]
    fn rate_accessors() {
        let s = valid_solution();
        assert_eq!(s.publish_rate(ClientId(1)), Bitrate::from_kbps(1500));
        assert_eq!(s.receive_rate(ClientId(2)), Bitrate::from_kbps(1500));
        assert_eq!(s.receive_rate(ClientId(1)), Bitrate::ZERO);
        assert!(s.received_from(ClientId(2), SourceId::video(ClientId(1)), 0).is_some());
    }
}
