//! Miri model of the shard→standby handoff handshake.
//!
//! The `model_*` tests replicate the exact message shape of the failover
//! path — the active shard streaming [`SnapshotDelta`]s to its standby,
//! the standby answering gaps with a NACK that triggers a full resend, and
//! the epoch-fenced write ledger two writers race after a partition — as
//! real cross-thread communication on small, pure data. They run in
//! seconds under Miri (`cargo miri test -p gso-cluster --test
//! handoff_model model_`), which checks the pattern for undefined
//! behaviour and data races; the simulation then drives the same
//! publisher/replica/ledger types over lossy links in `gso-sim` and
//! `gso-chaos`.

use gso_algo::{Ladder, Resolution, SourceId, StreamSpec};
use gso_cluster::StandbyReplica;
use gso_cluster::{ApplyOutcome, EpochLedger, SnapshotDelta, SnapshotPublisher};
use gso_control::{ClientSnapshot, SubscribeIntent};
use gso_util::{Bitrate, ClientId, StreamKind};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};

/// A small but realistic per-client snapshot: one video ladder, one
/// intent, tick-varying link estimates.
fn snap(id: u32, uplink_kbps: u64) -> ClientSnapshot {
    let ladder = Ladder::new(vec![
        StreamSpec::new(Resolution::R180, Bitrate::from_kbps(100), 100.0),
        StreamSpec::new(Resolution::R720, Bitrate::from_kbps(1500), 1200.0),
    ])
    .unwrap();
    ClientSnapshot {
        client: ClientId(id),
        ladders: vec![(StreamKind::Video, ladder)],
        intents: vec![SubscribeIntent {
            source: SourceId::video(ClientId(id % 3 + 1)),
            max_resolution: Resolution::R720,
            tag: 0,
        }],
        uplink: Bitrate::from_kbps(uplink_kbps),
        downlink: Bitrate::from_kbps(uplink_kbps * 2),
    }
}

/// The conference state at solving tick `tick`: three clients whose
/// uplink estimates move every tick, so every tick emits a delta.
fn state_at(tick: u64) -> Vec<ClientSnapshot> {
    (1..=3).map(|id| snap(id, 1_000 + 10 * tick + u64::from(id))).collect()
}

/// What the wire delivers to the standby each tick.
enum ToStandby {
    /// A replication delta that survived the link.
    Delta(SnapshotDelta),
    /// The link ate this tick's delta (the publisher thinks it shipped).
    Lost,
    /// The active shard dies; the standby must promote.
    Crash,
}

/// The standby's per-message reply: `true` when it detected a gap and
/// needs a full snapshot.
struct Reply {
    nacked: bool,
}

/// Two threads run the real handoff handshake in lockstep: the active
/// publishes one bounded delta per tick, two of which the "wire" drops;
/// the standby detects each gap (sequence mismatch against the digest-
/// covered stream), NACKs, and the active answers with a full snapshot.
/// After the crash the standby's rebuilt state must equal the last state
/// the active ever published — the exact guarantee a promoted shard needs.
#[test]
fn model_handoff_handshake_recovers_from_losses() {
    const TICKS: u64 = 8;
    const EPOCH: u32 = 0;
    // Publisher sequences the wire eats: tick 2's delta (seq 3) and tick
    // 5's (seq 7, after the seq-5 full resend shifted the numbering).
    const LOST: [u64; 2] = [3, 7];

    let (delta_tx, delta_rx) = channel::<ToStandby>();
    let (reply_tx, reply_rx) = channel::<Reply>();

    std::thread::scope(|s| {
        // Active shard.
        s.spawn(move || {
            let mut publisher = SnapshotPublisher::new(64);
            for tick in 0..TICKS {
                let state = state_at(tick);
                let delta = publisher.tick(EPOCH, &state).expect("state moves every tick");
                let lost = LOST.contains(&delta.seq);
                delta_tx
                    .send(if lost { ToStandby::Lost } else { ToStandby::Delta(delta) })
                    .unwrap();
                let reply = reply_rx.recv().unwrap();
                if reply.nacked {
                    // The §7 handshake: gap answer → full resend.
                    publisher.request_full();
                    let full = publisher.tick(EPOCH, &state).expect("full resend");
                    assert!(full.is_full());
                    delta_tx.send(ToStandby::Delta(full)).unwrap();
                    assert!(!reply_rx.recv().unwrap().nacked, "full snapshot always lands");
                }
            }
            delta_tx.send(ToStandby::Crash).unwrap();
        });

        // Standby shard.
        let standby = s.spawn(move || {
            let mut replica = StandbyReplica::new("s0");
            let mut nacks = 0u32;
            loop {
                match delta_rx.recv().unwrap() {
                    ToStandby::Delta(delta) => {
                        let nacked = match replica.apply(&delta) {
                            ApplyOutcome::Applied => false,
                            ApplyOutcome::NeedFull => {
                                nacks += 1;
                                true
                            }
                            ApplyOutcome::Stale => panic!("no zombie in this model"),
                        };
                        reply_tx.send(Reply { nacked }).unwrap();
                    }
                    ToStandby::Lost => reply_tx.send(Reply { nacked: false }).unwrap(),
                    ToStandby::Crash => break,
                }
            }
            // The replica itself holds a (single-threaded) telemetry
            // handle, so hand back only the rebuilt state.
            (replica.snapshots(), nacks)
        });

        let (rebuilt, nacks) = standby.join().unwrap();
        // Promotion: the rebuilt client set is exactly the active's final
        // published state, despite two dropped deltas mid-stream.
        assert_eq!(rebuilt, state_at(TICKS - 1));
        assert_eq!(nacks, 2, "each loss surfaced as exactly one gap NACK");
    });
}

/// A zombie shard and its promoted successor hammer the shared epoch
/// ledger from two threads. Every acceptance is logged atomically with the
/// write itself; the log must show the split-brain invariants: the zombie
/// is never accepted after the successor's first write, and no epoch is
/// ever owned by both shards.
#[test]
fn model_fencing_race_never_accepts_zombie_after_takeover() {
    const ZOMBIE: &str = "zombie";
    const PROMOTED: &str = "promoted";
    let ledger = Arc::new(Mutex::new((EpochLedger::new(), Vec::<(&str, u32)>::new())));

    std::thread::scope(|s| {
        for (shard, epoch, writes) in [(ZOMBIE, 0u32, 40u32), (PROMOTED, 1, 40)] {
            let ledger = Arc::clone(&ledger);
            s.spawn(move || {
                for _ in 0..writes {
                    let mut guard = ledger.lock().unwrap();
                    let (ledger, log) = &mut *guard;
                    if ledger.record_write(shard, epoch) {
                        log.push((shard, epoch));
                    }
                }
            });
        }
    });

    let guard = ledger.lock().unwrap();
    let (ledger, log) = &*guard;
    // The promoted shard's epoch-1 writes always win; at least one landed.
    assert_eq!(ledger.live(), Some((PROMOTED, 1)));
    let takeover = log
        .iter()
        .position(|&(s, _)| s == PROMOTED)
        .expect("the promoted shard wrote at least once");
    assert!(
        log[takeover..].iter().all(|&(s, _)| s == PROMOTED),
        "a zombie write was accepted after the takeover: {log:?}"
    );
    for &(shard, epoch) in log {
        let owner = if epoch == 0 { ZOMBIE } else { PROMOTED };
        assert_eq!(shard, owner, "epoch {epoch} accepted from two shards");
    }
    // Whatever the interleaving, every zombie attempt after the takeover
    // was fenced.
    let zombie_accepted = log.iter().filter(|&&(s, _)| s == ZOMBIE).count() as u64;
    assert_eq!(ledger.fenced(), 40 - zombie_accepted);
}
