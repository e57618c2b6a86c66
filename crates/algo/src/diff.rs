//! Solution diffs — the minimal reconfiguration between controller rounds.
//!
//! The controller re-solves every 1–3 s; most rounds change little. The
//! diff identifies exactly which publisher layers must be reconfigured and
//! which subscribers must be switched, which is what the feedback executor
//! transmits and what operators watch to judge churn (reconfigurations cost
//! quality: every layer switch splices on a keyframe).

use crate::problem::SourceId;
use crate::solution::{PublishPolicy, ReceivedStream, Solution};
use crate::types::Resolution;
use gso_util::{Bitrate, ClientId};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// One publisher layer whose target changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerChange {
    /// The source whose layer changed.
    pub source: SourceId,
    /// The layer's resolution.
    pub resolution: Resolution,
    /// Previous bitrate (zero = was disabled).
    pub from: Bitrate,
    /// New bitrate (zero = now disabled).
    pub to: Bitrate,
}

/// One subscriber whose selected stream changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchChange {
    /// The receiving client.
    pub subscriber: ClientId,
    /// The source it receives from.
    pub source: SourceId,
    /// Virtual-publisher tag.
    pub tag: u8,
    /// Previous (resolution, bitrate); `None` = was not receiving.
    pub from: Option<(Resolution, Bitrate)>,
    /// New (resolution, bitrate); `None` = no longer receiving.
    pub to: Option<(Resolution, Bitrate)>,
}

/// The difference between two solutions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolutionDiff {
    /// Publisher-side layer reconfigurations (GTMB content).
    pub layer_changes: Vec<LayerChange>,
    /// Subscriber-side stream switches (forwarding-rule content).
    pub switch_changes: Vec<SwitchChange>,
}

impl SolutionDiff {
    /// True when nothing changed — the controller round was a no-op.
    pub fn is_empty(&self) -> bool {
        self.layer_changes.is_empty() && self.switch_changes.is_empty()
    }

    /// Number of subscribers that experience a visible switch.
    ///
    /// Relies on the [`diff`] order: one subscriber's switch changes are
    /// adjacent, so each run of equal subscribers counts once.
    pub fn switched_subscribers(&self) -> usize {
        self.switch_changes.chunk_by(|a, b| a.subscriber == b.subscriber).count()
    }
}

/// Compute the reconfiguration from `old` to `new`.
///
/// Layer changes come out ordered by `(source, resolution)` and switch
/// changes by `(subscriber, source, tag)`. When one solution lists a key
/// twice, its last entry is the one compared. Both solutions' maps are
/// walked together in key order: a source or subscriber whose entries are
/// unchanged costs one slice comparison, and only a changed one sorts its
/// inner keys (in a scratch buffer reused across keys).
pub fn diff(old: &Solution, new: &Solution) -> SolutionDiff {
    let mut out = SolutionDiff::default();

    // Publisher layers: per (source, resolution) → bitrate (0 = absent).
    // lint: allow(hot-alloc, reason = "one scratch buffer per diff, reused across every changed source")
    let mut resolutions: Vec<Resolution> = Vec::new();
    merge_join(&old.publish, &new.publish, |source, old_ps, new_ps| {
        let layer = |p: &PublishPolicy| (p.resolution, p.bitrate);
        if old_ps.iter().map(layer).eq(new_ps.iter().map(layer)) {
            return;
        }
        resolutions.clear();
        // lint: allow(hot-alloc, reason = "scratch buffer reused across changed sources; grows to the widest ladder once")
        resolutions.extend(old_ps.iter().chain(new_ps).map(|p| p.resolution));
        resolutions.sort_unstable();
        resolutions.dedup();
        for &resolution in &resolutions {
            let rate = |ps: &[PublishPolicy]| {
                ps.iter()
                    .rev()
                    .find(|p| p.resolution == resolution)
                    .map_or(Bitrate::ZERO, |p| p.bitrate)
            };
            let (from, to) = (rate(old_ps), rate(new_ps));
            if from != to {
                // lint: allow(hot-alloc, reason = "the diff's output: one entry per changed layer")
                out.layer_changes.push(LayerChange { source, resolution, from, to });
            }
        }
    });

    // Subscriber streams: per (subscriber, source, tag).
    // lint: allow(hot-alloc, reason = "one scratch buffer per diff, reused across every changed subscriber")
    let mut streams: Vec<(SourceId, u8)> = Vec::new();
    merge_join(&old.received, &new.received, |subscriber, old_rs, new_rs| {
        let stream = |r: &ReceivedStream| (r.source, r.tag, r.resolution, r.bitrate);
        if old_rs.iter().map(stream).eq(new_rs.iter().map(stream)) {
            return;
        }
        streams.clear();
        // lint: allow(hot-alloc, reason = "scratch buffer reused across changed subscribers; grows to the widest subscription list once")
        streams.extend(old_rs.iter().chain(new_rs).map(|r| (r.source, r.tag)));
        streams.sort_unstable();
        streams.dedup();
        for &(source, tag) in &streams {
            let delivered = |rs: &[ReceivedStream]| {
                rs.iter()
                    .rev()
                    .find(|r| r.source == source && r.tag == tag)
                    .map(|r| (r.resolution, r.bitrate))
            };
            let (from, to) = (delivered(old_rs), delivered(new_rs));
            if from != to {
                // lint: allow(hot-alloc, reason = "the diff's output: one entry per switched stream")
                out.switch_changes.push(SwitchChange { subscriber, source, tag, from, to });
            }
        }
    });
    out
}

/// Visit every key of `old` and `new` once, in ascending order, with its
/// entries on each side (empty where the key is absent).
fn merge_join<K: Ord + Copy, V>(
    old: &BTreeMap<K, Vec<V>>,
    new: &BTreeMap<K, Vec<V>>,
    mut visit: impl FnMut(K, &[V], &[V]),
) {
    let none: &[V] = &[];
    let mut old = old.iter().peekable();
    let mut new = new.iter().peekable();
    loop {
        let (key, from, to) = match (old.peek().copied(), new.peek().copied()) {
            (None, None) => return,
            (Some((&k, a)), None) => {
                old.next();
                (k, a.as_slice(), none)
            }
            (None, Some((&k, b))) => {
                new.next();
                (k, none, b.as_slice())
            }
            (Some((&ka, a)), Some((&kb, b))) => match ka.cmp(&kb) {
                Ordering::Less => {
                    old.next();
                    (ka, a.as_slice(), none)
                }
                Ordering::Greater => {
                    new.next();
                    (kb, none, b.as_slice())
                }
                Ordering::Equal => {
                    old.next();
                    new.next();
                    (ka, a.as_slice(), b.as_slice())
                }
            },
        };
        visit(key, from, to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladders;
    use crate::problem::{ClientSpec, Problem, Subscription};
    use crate::solver::{self, SolverConfig};
    use gso_util::StreamKind;
    use proptest::prelude::*;

    /// The reference semantics of [`diff`]: flatten both solutions into
    /// keyed maps (the last entry of a duplicate key wins) and compare
    /// every key of their union, in key order.
    fn reference_diff(old: &Solution, new: &Solution) -> SolutionDiff {
        let mut out = SolutionDiff::default();

        let layer_map = |s: &Solution| -> BTreeMap<(SourceId, Resolution), Bitrate> {
            s.publish
                .iter()
                .flat_map(|(&src, ps)| ps.iter().map(move |p| ((src, p.resolution), p.bitrate)))
                .collect()
        };
        let old_layers = layer_map(old);
        let new_layers = layer_map(new);
        let mut keys: Vec<(SourceId, Resolution)> =
            old_layers.keys().chain(new_layers.keys()).copied().collect();
        keys.sort();
        keys.dedup();
        for key in keys {
            let from = old_layers.get(&key).copied().unwrap_or(Bitrate::ZERO);
            let to = new_layers.get(&key).copied().unwrap_or(Bitrate::ZERO);
            if from != to {
                out.layer_changes.push(LayerChange { source: key.0, resolution: key.1, from, to });
            }
        }

        let recv_map = |s: &Solution| -> BTreeMap<(ClientId, SourceId, u8), (Resolution, Bitrate)> {
            s.received
                .iter()
                .flat_map(|(&sub, rs)| {
                    rs.iter().map(move |r| ((sub, r.source, r.tag), (r.resolution, r.bitrate)))
                })
                .collect()
        };
        let old_recv = recv_map(old);
        let new_recv = recv_map(new);
        let mut keys: Vec<(ClientId, SourceId, u8)> =
            old_recv.keys().chain(new_recv.keys()).copied().collect();
        keys.sort();
        keys.dedup();
        for key in keys {
            let from = old_recv.get(&key).copied();
            let to = new_recv.get(&key).copied();
            if from != to {
                out.switch_changes.push(SwitchChange {
                    subscriber: key.0,
                    source: key.1,
                    tag: key.2,
                    from,
                    to,
                });
            }
        }
        out
    }

    /// Small value pools so random solutions collide on keys: duplicate
    /// entries, shared sources and subscribers, zero bitrates.
    const RESOLUTIONS: [Resolution; 3] = [Resolution::R180, Resolution::R360, Resolution::R720];
    const RATES_KBPS: [u64; 4] = [0, 100, 600, 1_500];

    fn source(client: u32, screen: bool) -> SourceId {
        SourceId {
            client: ClientId(client),
            kind: if screen { StreamKind::Screen } else { StreamKind::Video },
        }
    }

    /// `(client, screen?, [(resolution, rate)])` per publish entry and
    /// `(subscriber, [(client, screen?, tag, resolution, rate)])` per
    /// received entry; a repeated map key replaces the earlier list.
    type RawPublish = Vec<(u32, bool, Vec<(usize, usize)>)>;
    type RawReceived = Vec<(u32, Vec<(u32, bool, u8, usize, usize)>)>;

    fn build(publish: &RawPublish, received: &RawReceived) -> Solution {
        let mut s = Solution::default();
        for (client, screen, layers) in publish {
            let policies = layers
                .iter()
                .map(|&(r, b)| PublishPolicy {
                    resolution: RESOLUTIONS[r],
                    bitrate: Bitrate::from_kbps(RATES_KBPS[b]),
                    audience: Vec::new(),
                })
                .collect();
            s.publish.insert(source(*client, *screen), policies);
        }
        for (sub, streams) in received {
            let streams = streams
                .iter()
                .map(|&(client, screen, tag, r, b)| ReceivedStream {
                    source: source(client, screen),
                    tag,
                    resolution: RESOLUTIONS[r],
                    bitrate: Bitrate::from_kbps(RATES_KBPS[b]),
                    qoe: 1.0,
                })
                .collect();
            s.received.insert(ClientId(*sub), streams);
        }
        s
    }

    /// `new` takes each key of `old ∪ alt` from `alt` where `picks` says so
    /// (dropping it when `alt` lacks it) and from `old` otherwise, so pairs
    /// share most entries like consecutive controller rounds do.
    fn mix(old: &Solution, alt: &Solution, picks: &[bool]) -> Solution {
        fn pick_map<K: Ord + Copy, V: Clone>(
            old: &BTreeMap<K, V>,
            alt: &BTreeMap<K, V>,
            picks: &mut impl Iterator<Item = bool>,
        ) -> BTreeMap<K, V> {
            let keys: std::collections::BTreeSet<K> =
                old.keys().chain(alt.keys()).copied().collect();
            keys.into_iter()
                .filter_map(|k| {
                    let from = if picks.next().unwrap_or(false) { alt } else { old };
                    from.get(&k).map(|v| (k, v.clone()))
                })
                .collect()
        }
        let mut picks = picks.iter().copied().cycle();
        Solution {
            publish: pick_map(&old.publish, &alt.publish, &mut picks),
            received: pick_map(&old.received, &alt.received, &mut picks),
            ..Solution::default()
        }
    }

    /// One small edit to an entry list, as consecutive rounds make them:
    /// 0 keeps it, 1 re-rates the first entry, 2 moves the last entry to
    /// another resolution, 3 reverses the list, 4 appends a re-rated copy
    /// of the first entry (a duplicate key) and 5 drops the first entry.
    fn tweak<T: Clone>(list: &mut Vec<T>, op: u8, rerate: fn(&mut T), reres: fn(&mut T)) {
        match op {
            1 => list.first_mut().into_iter().for_each(rerate),
            2 => list.last_mut().into_iter().for_each(reres),
            3 => list.reverse(),
            4 => {
                if let Some(mut copy) = list.first().cloned() {
                    rerate(&mut copy);
                    list.push(copy);
                }
            }
            5 if !list.is_empty() => {
                list.remove(0);
            }
            _ => {}
        }
    }

    /// Apply `ops` cyclically to every entry list of `s`.
    fn tweak_all(s: &mut Solution, ops: &[u8]) {
        fn other_rate(b: Bitrate) -> Bitrate {
            if b == Bitrate::from_kbps(600) {
                Bitrate::from_kbps(1_500)
            } else {
                Bitrate::from_kbps(600)
            }
        }
        fn other_res(r: Resolution) -> Resolution {
            if r == Resolution::R720 {
                Resolution::R180
            } else {
                Resolution::R720
            }
        }
        let mut ops = ops.iter().copied().cycle();
        for ps in s.publish.values_mut() {
            tweak(
                ps,
                ops.next().unwrap_or(0),
                |p| p.bitrate = other_rate(p.bitrate),
                |p| p.resolution = other_res(p.resolution),
            );
        }
        for rs in s.received.values_mut() {
            tweak(
                rs,
                ops.next().unwrap_or(0),
                |r| r.bitrate = other_rate(r.bitrate),
                |r| r.resolution = other_res(r.resolution),
            );
        }
    }

    fn raw_publish() -> impl Strategy<Value = RawPublish> {
        prop::collection::vec(
            (1u32..5, prop::bool::ANY, prop::collection::vec((0usize..3, 0usize..4), 0..4)),
            0..6,
        )
    }

    fn raw_received() -> impl Strategy<Value = RawReceived> {
        prop::collection::vec(
            (
                1u32..5,
                prop::collection::vec(
                    (1u32..5, prop::bool::ANY, 0u8..3, 0usize..3, 0usize..4),
                    0..5,
                ),
            ),
            0..6,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The merge-join diff equals the map-based reference on random
        /// pairs: empty solutions, added and removed sources and
        /// subscribers, several tags per source, unsorted inner lists,
        /// duplicate keys and single-field edits to shared entries.
        #[test]
        fn diff_matches_map_reference(
            old_pub in raw_publish(),
            old_recv in raw_received(),
            alt_pub in raw_publish(),
            alt_recv in raw_received(),
            picks in prop::collection::vec(prop::bool::ANY, 1..8),
            ops in prop::collection::vec(0u8..6, 1..8),
        ) {
            let old = build(&old_pub, &old_recv);
            let alt = build(&alt_pub, &alt_recv);
            let mut new = mix(&old, &alt, &picks);
            tweak_all(&mut new, &ops);
            for (a, b) in [(&old, &new), (&new, &old), (&old, &alt), (&old, &old)] {
                let got = diff(a, b);
                prop_assert_eq!(&got, &reference_diff(a, b));
                let mut subs: Vec<ClientId> =
                    got.switch_changes.iter().map(|c| c.subscriber).collect();
                subs.sort();
                subs.dedup();
                prop_assert_eq!(got.switched_subscribers(), subs.len());
            }
            let empty = Solution::default();
            prop_assert_eq!(diff(&empty, &new), reference_diff(&empty, &new));
            prop_assert_eq!(diff(&new, &empty), reference_diff(&new, &empty));
        }
    }

    fn solve_with_downlink(down_kbps: u64) -> (Problem, Solution) {
        let ladder = ladders::paper_table1();
        let a = ClientId(1);
        let b = ClientId(2);
        let p = Problem::new(
            vec![
                ClientSpec::new(a, Bitrate::from_mbps(5), Bitrate::from_mbps(5), ladder.clone()),
                ClientSpec::new(b, Bitrate::from_mbps(5), Bitrate::from_kbps(down_kbps), ladder),
            ],
            vec![Subscription::new(b, SourceId::video(a), crate::types::Resolution::R720)],
        )
        .unwrap();
        let s = solver::solve(&p, &SolverConfig::default());
        (p, s)
    }

    #[test]
    fn identical_solutions_diff_empty() {
        let (_, s) = solve_with_downlink(2_000);
        let d = diff(&s, &s);
        assert!(d.is_empty());
        assert_eq!(d.switched_subscribers(), 0);
    }

    #[test]
    fn downlink_drop_produces_layer_and_switch_changes() {
        let (_, before) = solve_with_downlink(2_000); // 720P 1.5M
        let (_, after) = solve_with_downlink(700); // 360P 600K
        let d = diff(&before, &after);
        assert!(!d.is_empty());
        // The 720P layer turns off, the 360P layer turns on.
        assert!(d
            .layer_changes
            .iter()
            .any(|c| c.resolution == crate::types::Resolution::R720 && c.to == Bitrate::ZERO));
        assert!(d.layer_changes.iter().any(|c| c.resolution == crate::types::Resolution::R360
            && c.from == Bitrate::ZERO
            && c.to == Bitrate::from_kbps(600)));
        // Exactly one subscriber switches.
        assert_eq!(d.switched_subscribers(), 1);
        let sw = &d.switch_changes[0];
        assert_eq!(sw.from.map(|(r, _)| r), Some(crate::types::Resolution::R720));
        assert_eq!(sw.to.map(|(_, b)| b), Some(Bitrate::from_kbps(600)));
    }

    #[test]
    fn diff_from_empty_solution_lists_everything_as_new() {
        let (_, s) = solve_with_downlink(2_000);
        let d = diff(&Solution::default(), &s);
        assert!(d.layer_changes.iter().all(|c| c.from == Bitrate::ZERO));
        assert!(d.switch_changes.iter().all(|c| c.from.is_none()));
        assert!(!d.is_empty());
    }
}
