//! [`StateDigest`] implementations for the algorithm layer.
//!
//! Everything the solver emits — [`Solution`], [`SolveTrace`], and the
//! engine's [`EngineStats`] — can be fingerprinted with a stable 64-bit
//! digest. `check digest` and the engine-equivalence property tests use
//! these to assert that the incremental/sharded [`crate::SolveEngine`] is
//! *bit-identical* to the sequential solver: not merely equal QoE, but the
//! same policies, audiences, float bit patterns, and trace structure.

use crate::engine::EngineStats;
use crate::problem::SourceId;
use crate::solution::{PublishPolicy, ReceivedStream, Solution};
use crate::solver::{IterationTrace, ReductionTrace, Request, SolveTrace};
use crate::types::{Ladder, Resolution, StreamSpec};
use gso_util::digest::{StableHasher, StateDigest};

impl StateDigest for Resolution {
    fn digest(&self, h: &mut StableHasher) {
        h.write_u64(u64::from(self.0));
    }
}

impl StateDigest for StreamSpec {
    fn digest(&self, h: &mut StableHasher) {
        self.resolution.digest(h);
        self.bitrate.digest(h);
        h.write_f64(self.qoe);
    }
}

impl StateDigest for Ladder {
    fn digest(&self, h: &mut StableHasher) {
        self.specs().digest(h);
    }
}

impl StateDigest for SourceId {
    fn digest(&self, h: &mut StableHasher) {
        self.client.digest(h);
        self.kind.digest(h);
    }
}

impl StateDigest for PublishPolicy {
    fn digest(&self, h: &mut StableHasher) {
        self.resolution.digest(h);
        self.bitrate.digest(h);
        self.audience.digest(h);
    }
}

impl StateDigest for ReceivedStream {
    fn digest(&self, h: &mut StableHasher) {
        self.source.digest(h);
        h.write_u8(self.tag);
        self.resolution.digest(h);
        self.bitrate.digest(h);
        h.write_f64(self.qoe);
    }
}

impl StateDigest for Solution {
    fn digest(&self, h: &mut StableHasher) {
        self.publish.digest(h);
        self.received.digest(h);
        h.write_f64(self.total_qoe);
        self.iterations.digest(h);
    }
}

impl StateDigest for Request {
    fn digest(&self, h: &mut StableHasher) {
        self.subscriber.digest(h);
        h.write_u8(self.tag);
        self.spec.digest(h);
    }
}

impl StateDigest for ReductionTrace {
    fn digest(&self, h: &mut StableHasher) {
        self.source.digest(h);
        self.resolution.digest(h);
        self.remaining_at_resolution.digest(h);
    }
}

impl StateDigest for IterationTrace {
    fn digest(&self, h: &mut StableHasher) {
        self.requests.digest(h);
        self.merged.digest(h);
        self.repaired.digest(h);
        self.reduction.digest(h);
    }
}

impl StateDigest for SolveTrace {
    fn digest(&self, h: &mut StableHasher) {
        self.iterations.digest(h);
    }
}

impl StateDigest for EngineStats {
    fn digest(&self, h: &mut StableHasher) {
        h.write_u64(self.solves);
        h.write_u64(self.iterations);
        h.write_u64(self.knapsacks);
        h.write_u64(self.full_hits);
        h.write_u64(self.backtracks);
        h.write_u64(self.suffix_recomputes);
        h.write_u64(self.fresh_recomputes);
        h.write_u64(self.rows_recomputed);
        h.write_u64(self.rows_reused);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{ClientSpec, Problem, Subscription};
    use crate::solver;
    use gso_util::{Bitrate, ClientId};

    fn problem() -> Problem {
        let ladder = crate::ladders::paper_table1();
        Problem::new(
            vec![
                ClientSpec::new(
                    ClientId(1),
                    Bitrate::from_mbps(5),
                    Bitrate::from_mbps(3),
                    ladder.clone(),
                ),
                ClientSpec::new(
                    ClientId(2),
                    Bitrate::from_mbps(1),
                    Bitrate::from_kbps(900),
                    ladder,
                ),
            ],
            vec![
                Subscription::new(ClientId(1), SourceId::video(ClientId(2)), Resolution::R720),
                Subscription::new(ClientId(2), SourceId::video(ClientId(1)), Resolution::R720),
            ],
        )
        .unwrap()
    }

    #[test]
    fn solution_and_trace_digests_replay() {
        let p = problem();
        let cfg = solver::SolverConfig::default();
        let (s1, t1) = solver::solve_traced(&p, &cfg);
        let (s2, t2) = solver::solve_traced(&p, &cfg);
        assert_eq!(s1.state_digest(), s2.state_digest());
        assert_eq!(t1.state_digest(), t2.state_digest());
    }

    #[test]
    fn solution_digest_is_sensitive_to_qoe_bits() {
        let p = problem();
        let s = solver::solve(&p, &solver::SolverConfig::default());
        let mut tweaked = s.clone();
        tweaked.total_qoe = f64::from_bits(tweaked.total_qoe.to_bits() ^ 1);
        assert_ne!(s.state_digest(), tweaked.state_digest());
    }

    #[test]
    fn ladder_digest_distinguishes_audiences() {
        let a = PublishPolicy {
            resolution: Resolution::R720,
            bitrate: Bitrate::from_kbps(1500),
            audience: vec![(ClientId(2), 0), (ClientId(3), 1)],
        };
        let mut b = a.clone();
        b.audience.swap(0, 1);
        assert_ne!(a.state_digest(), b.state_digest(), "audience order is part of the state");
    }
}
