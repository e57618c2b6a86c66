//! Property test for the split-brain safety kernel.
//!
//! The claim under test is the one §7 failover rests on: **at most one
//! shard per partition ever has a live epoch**. Whatever order lease
//! expiries, heartbeat arrivals (including lost, delayed, and replayed
//! ones), promotions, and writes from both sides interleave in, the
//! [`EpochLedger`] must never accept writes from two different shards at
//! the same epoch, liveness must only ever transfer forward in RFC 1982
//! serial order, and a fenced predecessor must stay fenced forever.

use gso_control::{EpochLedger, FailureDetector, LeaseConfig};
use gso_util::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Serial (RFC 1982) "newer or equal" for u32 epochs, mirrored here so the
/// test does not trust the crate under test for its own oracle.
fn serial_ge(a: u32, b: u32) -> bool {
    a == b || ((a.wrapping_sub(b) as i32) > 0)
}

/// The ledger is generic over the writer id; the two shards are labels.
type Shard = &'static str;
const ACTIVE: Shard = "active";
const STANDBY: Shard = "standby";

/// One scripted step: advance the clock by `dt_ms`, then perform `op`.
///
/// * 0 — the active shard emits a heartbeat and it **arrives** at the
///   standby's detector.
/// * 1 — the active emits a heartbeat but the link eats it.
/// * 2 — a stale heartbeat (an old sequence number) is replayed at the
///   detector, as a reordering link would.
/// * 3 — the standby polls its detector; on expiry it promotes under a
///   serially bumped epoch and immediately records its first write.
/// * 4 — the (possibly zombie) active writes at its own epoch.
/// * 5 — the standby writes at its current epoch, if promoted.
fn run_case(steps: &[(u8, u64)], seed: u64) -> Result<(), String> {
    let mut detector = FailureDetector::new(
        LeaseConfig { lease: SimDuration::from_millis(700), jitter_frac: 0.2, seed },
        "s0",
    );
    detector.arm(SimTime::ZERO);
    let mut ledger = EpochLedger::new();

    let mut now = SimTime::ZERO;
    let mut hb_seq = 0u64;
    let mut delivered: Option<u64> = None;
    let active_epoch = 0u32;
    let mut standby_epoch: Option<u32> = None;
    let mut promotions = 0u32;
    // Every accepted write, in order: the history the invariants quantify
    // over ("ever", not just "currently").
    let mut accepted: Vec<(Shard, u32)> = Vec::new();
    let mut owners: BTreeMap<u32, Shard> = BTreeMap::new();

    // The active establishes itself before the chaos starts, exactly as a
    // booted conference does.
    prop_assert!(ledger.record_write(ACTIVE, active_epoch));
    accepted.push((ACTIVE, active_epoch));
    owners.insert(active_epoch, ACTIVE);

    for &(op, dt_ms) in steps {
        now += SimDuration::from_millis(dt_ms);
        match op % 6 {
            0 => {
                hb_seq += 1;
                if detector.heartbeat(now, active_epoch, hb_seq) {
                    delivered = Some(hb_seq);
                }
            }
            1 => hb_seq += 1, // emitted, never delivered
            2 => {
                // Replay of an already-delivered sequence (a duplicating
                // link): must never renew the lease.
                if let Some(seq) = delivered {
                    let before = detector.deadline();
                    prop_assert!(!detector.heartbeat(now, active_epoch, seq));
                    prop_assert_eq!(detector.deadline(), before);
                }
            }
            3 => {
                if detector.check_expired(now) {
                    let epoch = detector.last_epoch().wrapping_add(1);
                    standby_epoch = Some(epoch);
                    promotions += 1;
                    prop_assert!(
                        ledger.record_write(STANDBY, epoch),
                        "a serially bumped epoch must always be accepted"
                    );
                    accepted.push((STANDBY, epoch));
                    prop_assert!(
                        owners.insert(epoch, STANDBY).is_none(),
                        "promotion reused an epoch another shard owned"
                    );
                }
            }
            4 => {
                let ok = ledger.record_write(ACTIVE, active_epoch);
                prop_assert!(
                    ok == standby_epoch.is_none(),
                    "active writes are accepted exactly until the standby promotes"
                );
                if ok {
                    accepted.push((ACTIVE, active_epoch));
                }
            }
            _ => {
                if let Some(epoch) = standby_epoch {
                    prop_assert!(
                        ledger.record_write(STANDBY, epoch),
                        "the promoted standby is the live writer"
                    );
                    accepted.push((STANDBY, epoch));
                }
            }
        }

        // Invariants, checked at every interleaving point.
        prop_assert!(promotions <= 1, "the expiry latch must fire at most once");
        for window in accepted.windows(2) {
            prop_assert!(
                serial_ge(window[1].1, window[0].1),
                "accepted epochs went backwards: {:?}",
                window
            );
        }
        for (shard, epoch) in &accepted {
            prop_assert!(
                owners.get(epoch).copied().unwrap_or(*shard) == *shard,
                "two shards had accepted writes at epoch {epoch}"
            );
        }
        if let Some((live_shard, live_epoch)) = ledger.live() {
            let last = accepted.last().copied();
            prop_assert_eq!(last, Some((live_shard, live_epoch)));
        }
    }

    // Terminal check: if the standby ever promoted, the old active is
    // fenced for good — no late write can resurrect it.
    if standby_epoch.is_some() {
        prop_assert!(!ledger.record_write(ACTIVE, active_epoch));
        prop_assert!(ledger.fenced() >= 1);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random interleavings of heartbeat delivery/loss/replay, expiry
    /// polls, and writes from both shards: the fencing invariants hold at
    /// every step.
    #[test]
    fn at_most_one_live_epoch_per_partition(
        steps in prop::collection::vec((0u8..6, 0u64..400), 10..120),
        seed in 0u64..1_000,
    ) {
        run_case(&steps, seed)?;
    }

    /// Heartbeat-heavy interleavings (the lease mostly renews, expiry
    /// races the last delivery): promotion is still exclusive and ordered.
    #[test]
    fn expiry_racing_heartbeats_stays_safe(
        mut steps in prop::collection::vec((0u8..6, 0u64..150), 20..80),
        seed in 0u64..1_000,
    ) {
        // Bias towards the contested region: alternate polls into the
        // stream so expiry is checked between almost every delivery.
        for (i, step) in steps.iter_mut().enumerate() {
            if i % 2 == 0 {
                step.0 = 3;
            }
        }
        run_case(&steps, seed)?;
    }
}
