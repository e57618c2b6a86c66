//! Inter-accessing-node relay routing.
//!
//! The media plane is a mesh of interconnected accessing nodes (§3): a
//! published stream enters at the publisher's accessing node, which forwards
//! it directly to local subscribers and relays it to the accessing nodes of
//! remote subscribers. The [`RelayTable`] answers "who else needs this
//! SSRC?" — local subscriber endpoints and/or peer accessing nodes — and
//! deduplicates so a stream crosses each inter-node link once regardless of
//! how many remote subscribers need it.

use gso_util::Ssrc;
use std::collections::{BTreeMap, BTreeSet};

/// An opaque endpoint id: a local subscriber or a peer accessing node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RelayTarget {
    /// A subscriber attached to this accessing node.
    Local(u32),
    /// A peer accessing node (which fans out further on its side).
    Peer(u32),
}

/// Routing state of one accessing node.
#[derive(Debug, Clone, Default)]
pub struct RelayTable {
    routes: BTreeMap<Ssrc, BTreeSet<RelayTarget>>,
}

impl RelayTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a target for a stream. Idempotent.
    pub fn subscribe(&mut self, ssrc: Ssrc, target: RelayTarget) {
        self.routes.entry(ssrc).or_default().insert(target);
    }

    /// Remove a target for a stream.
    pub fn unsubscribe(&mut self, ssrc: Ssrc, target: RelayTarget) {
        if let Some(set) = self.routes.get_mut(&ssrc) {
            set.remove(&target);
            if set.is_empty() {
                self.routes.remove(&ssrc);
            }
        }
    }

    /// Remove every route involving a target (client left / node down).
    pub fn remove_target(&mut self, target: RelayTarget) {
        self.routes.retain(|_, set| {
            set.remove(&target);
            !set.is_empty()
        });
    }

    /// Where should a packet with this SSRC go? In target order, without
    /// allocating (it runs once per relayed packet).
    pub fn targets(&self, ssrc: Ssrc) -> impl Iterator<Item = RelayTarget> + '_ {
        self.routes.get(&ssrc).into_iter().flatten().copied()
    }

    /// True if nobody needs this stream (the accessing node can tell the
    /// controller, which will stop the publisher — Fig. 3d).
    pub fn is_unwanted(&self, ssrc: Ssrc) -> bool {
        self.routes.get(&ssrc).is_none_or(std::collections::BTreeSet::is_empty)
    }

    /// All SSRCs with at least one target.
    pub fn active_ssrcs(&self) -> Vec<Ssrc> {
        self.routes.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_dedupes_per_target() {
        let mut t = RelayTable::new();
        t.subscribe(Ssrc(1), RelayTarget::Local(10));
        t.subscribe(Ssrc(1), RelayTarget::Local(10)); // duplicate
        t.subscribe(Ssrc(1), RelayTarget::Peer(2));
        assert_eq!(
            t.targets(Ssrc(1)).collect::<Vec<_>>(),
            vec![RelayTarget::Local(10), RelayTarget::Peer(2)]
        );
    }

    #[test]
    fn one_relay_hop_for_many_remote_subscribers() {
        // Remote subscribers live behind the peer node; only one Peer route
        // exists no matter how many of them subscribe.
        let mut t = RelayTable::new();
        for _ in 0..10 {
            t.subscribe(Ssrc(5), RelayTarget::Peer(3));
        }
        assert_eq!(t.targets(Ssrc(5)).count(), 1);
    }

    #[test]
    fn unsubscribe_cleans_up() {
        let mut t = RelayTable::new();
        t.subscribe(Ssrc(1), RelayTarget::Local(1));
        t.unsubscribe(Ssrc(1), RelayTarget::Local(1));
        assert!(t.is_unwanted(Ssrc(1)));
        assert!(t.targets(Ssrc(1)).next().is_none());
        assert!(t.active_ssrcs().is_empty());
    }

    #[test]
    fn remove_target_sweeps_all_streams() {
        let mut t = RelayTable::new();
        t.subscribe(Ssrc(1), RelayTarget::Local(7));
        t.subscribe(Ssrc(2), RelayTarget::Local(7));
        t.subscribe(Ssrc(2), RelayTarget::Local(8));
        t.remove_target(RelayTarget::Local(7));
        assert!(t.is_unwanted(Ssrc(1)));
        assert_eq!(t.targets(Ssrc(2)).collect::<Vec<_>>(), vec![RelayTarget::Local(8)]);
    }

    #[test]
    fn unknown_ssrc_is_unwanted() {
        let t = RelayTable::new();
        assert!(t.is_unwanted(Ssrc(42)));
    }
}
