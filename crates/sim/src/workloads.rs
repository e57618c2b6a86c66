//! Standard workloads: the slow-link impairment matrix of Table 2,
//! scenario builders shared by the experiments and the tests (the clean
//! full-mesh conference, [`clean_mesh`], among them), and the problem-level
//! conferences of the shipped examples that the `check audit` replay
//! solves and audits ([`quickstart`], [`screen_share`],
//! [`slow_link_picture`], [`transient_capped`], [`large_conference`]).

use crate::client::PolicyMode;
use crate::scenario::{ClientScenario, Scenario};
use gso_algo::qoe::{SCREEN_BOOST, SPEAKER_BOOST};
use gso_algo::{
    ladders, ClientSpec, Ladder, Problem, PublisherSource, Resolution, SourceId, Subscription,
};
use gso_net::LinkConfig;
use gso_util::{Bitrate, ClientId, SimDuration};

/// Which direction an impairment applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Client → accessing node.
    Uplink,
    /// Accessing node → client.
    Downlink,
}

/// The kind of impairment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Impairment {
    /// No impairment (the "normal" case).
    None,
    /// Exponential jitter with the given mean.
    Jitter(SimDuration),
    /// i.i.d. packet loss probability.
    Loss(f64),
    /// Bandwidth cap.
    BandwidthLimit(Bitrate),
}

/// One slow-link test case: a name, a direction and an impairment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowLinkCase {
    /// Case label as in Table 2 (e.g. "up-30%", "down-1M").
    pub name: &'static str,
    /// Affected direction.
    pub direction: Direction,
    /// The impairment.
    pub impairment: Impairment,
}

/// The 15 cases of Table 2 (the "normal" baseline plus 14 impairments).
pub fn slow_link_cases() -> Vec<SlowLinkCase> {
    use Direction::*;
    use Impairment::*;
    vec![
        SlowLinkCase { name: "normal", direction: Downlink, impairment: None },
        SlowLinkCase { name: "up-30%", direction: Uplink, impairment: Loss(0.30) },
        SlowLinkCase { name: "up-50%", direction: Uplink, impairment: Loss(0.50) },
        SlowLinkCase {
            name: "up-50ms",
            direction: Uplink,
            impairment: Jitter(SimDuration::from_millis(50)),
        },
        SlowLinkCase {
            name: "up-100ms",
            direction: Uplink,
            impairment: Jitter(SimDuration::from_millis(100)),
        },
        SlowLinkCase {
            name: "up-0.5M",
            direction: Uplink,
            impairment: BandwidthLimit(Bitrate::from_kbps(500)),
        },
        SlowLinkCase {
            name: "up-1M",
            direction: Uplink,
            impairment: BandwidthLimit(Bitrate::from_mbps(1)),
        },
        SlowLinkCase {
            name: "up-1.5M",
            direction: Uplink,
            impairment: BandwidthLimit(Bitrate::from_kbps(1_500)),
        },
        SlowLinkCase { name: "down-30%", direction: Downlink, impairment: Loss(0.30) },
        SlowLinkCase { name: "down-50%", direction: Downlink, impairment: Loss(0.50) },
        SlowLinkCase {
            name: "down-50ms",
            direction: Downlink,
            impairment: Jitter(SimDuration::from_millis(50)),
        },
        SlowLinkCase {
            name: "down-100ms",
            direction: Downlink,
            impairment: Jitter(SimDuration::from_millis(100)),
        },
        SlowLinkCase {
            name: "down-0.5M",
            direction: Downlink,
            impairment: BandwidthLimit(Bitrate::from_kbps(500)),
        },
        SlowLinkCase {
            name: "down-1M",
            direction: Downlink,
            impairment: BandwidthLimit(Bitrate::from_mbps(1)),
        },
        SlowLinkCase {
            name: "down-1.5M",
            direction: Downlink,
            impairment: BandwidthLimit(Bitrate::from_kbps(1_500)),
        },
    ]
}

/// Apply an impairment to a clean link config.
pub fn impaired_link(base_rate: Bitrate, case: Impairment) -> LinkConfig {
    let delay = SimDuration::from_millis(20);
    match case {
        Impairment::None => LinkConfig::clean(base_rate, delay),
        Impairment::Jitter(mean) => LinkConfig::clean(base_rate, delay).with_jitter(mean),
        Impairment::Loss(p) => LinkConfig::clean(base_rate, delay).with_loss(p),
        Impairment::BandwidthLimit(cap) => LinkConfig::clean(cap.min(base_rate), delay),
    }
}

/// The ladder a client negotiates under each policy: GSO uses the
/// fine-grained 15-level ladder; the baselines use the coarse template
/// ladder (their templates cannot manage more levels, §1).
pub fn ladder_for_mode(mode: PolicyMode) -> Ladder {
    match mode {
        PolicyMode::Gso => ladders::fine15(),
        PolicyMode::NonGso => ladders::coarse3(),
        PolicyMode::Competitor1 => ladders::coarse3(),
        PolicyMode::Competitor2 => ladders::coarse3(),
    }
}

/// The clean full-mesh conference: clients `1..=n` in region 0 on clean
/// 20 ms links at `uplink`/`downlink`, each negotiating
/// [`ladder_for_mode`]`(mode)`, everyone watching everyone up to 720P, with
/// no speaker schedule and no standby. Callers layer their own region,
/// standby and link overrides on top.
pub fn clean_mesh(
    mode: PolicyMode,
    n: u32,
    uplink: Bitrate,
    downlink: Bitrate,
    duration: SimDuration,
    seed: u64,
) -> Scenario {
    let ladder = ladder_for_mode(mode);
    let mut s = Scenario {
        seed,
        mode,
        duration,
        clients: (1..=n)
            .map(|i| ClientScenario::clean(ClientId(i), uplink, downlink, ladder.clone()))
            .collect(),
        speaker_schedule: Vec::new(),
        standby: false,
    };
    s.subscribe_all_to_all(Resolution::R720);
    s
}

/// The small-meeting setup of the slow-link tests (§5): three clients on a
/// controlled network, with the impairment applied to client 1's chosen
/// link.
pub fn slow_link_scenario(mode: PolicyMode, case: SlowLinkCase, seed: u64) -> Scenario {
    // Modest last-mile links, as in the paper's controlled lab setup: wide
    // enough for one good stream per publisher, tight enough that the
    // template baseline's habit of pushing *every* layer (2.4 Mbps of
    // mostly-unwatched video, Fig. 3a) eats into the margin.
    let clean_rate = Bitrate::from_kbps(3_000);
    let mut s = clean_mesh(mode, 3, clean_rate, clean_rate, SimDuration::from_secs(60), seed);
    let c = &mut s.clients[0];
    match case.direction {
        Direction::Uplink => c.uplink = impaired_link(clean_rate, case.impairment),
        Direction::Downlink => c.downlink = impaired_link(clean_rate, case.impairment),
    }
    s
}

/// Every client of `ids` subscribed to every other one at up to 720P.
fn everyone_watches_everyone(ids: &[ClientId]) -> Vec<Subscription> {
    let mut subs = Vec::new();
    for &a in ids {
        for &b in ids {
            if a != b {
                subs.push(Subscription::new(a, SourceId::video(b), Resolution::R720));
            }
        }
    }
    subs
}

/// The `quickstart` example's conference: a well-connected host (client
/// 1), a typical participant (2) and a mobile user on a weak downlink (3),
/// all on the fine 15-level ladder, everyone watching everyone (a gallery
/// view) up to 720P.
pub fn quickstart() -> Problem {
    let ladder = ladders::fine15();
    let ids = [ClientId(1), ClientId(2), ClientId(3)];
    let clients = vec![
        ClientSpec::new(ids[0], Bitrate::from_mbps(5), Bitrate::from_mbps(5), ladder.clone()),
        ClientSpec::new(ids[1], Bitrate::from_mbps(2), Bitrate::from_mbps(3), ladder.clone()),
        ClientSpec::new(ids[2], Bitrate::from_kbps(800), Bitrate::from_kbps(900), ladder),
    ];
    Problem::new(clients, everyone_watches_everyone(&ids))
        .expect("invariant: quickstart is a valid conference")
}

/// The `screen_share` example's conference (§4.4): a presenter (client 1)
/// publishing a camera and a screen source, and two viewers (2 and 3, the
/// second bandwidth-poor at 1.2 Mbps down). Each viewer subscribes to the
/// screen (top priority), a camera thumbnail (tag 0) and a speaker-first
/// high-resolution view of the same camera (tag 1, the virtual publisher
/// X' of §4.4); the viewers also watch each other at thumbnail size.
pub fn screen_share() -> Problem {
    let ladder = ladders::paper_table1();
    let presenter = ClientId(1);
    let viewer_a = ClientId(2);
    let viewer_b = ClientId(3);

    let mut presenter_spec =
        ClientSpec::new(presenter, Bitrate::from_mbps(4), Bitrate::from_mbps(4), ladder.clone());
    presenter_spec
        .sources
        .push(PublisherSource { id: SourceId::screen(presenter), ladder: ladders::coarse3() });

    let clients = vec![
        presenter_spec,
        ClientSpec::new(viewer_a, Bitrate::from_mbps(2), Bitrate::from_mbps(3), ladder.clone()),
        ClientSpec::new(viewer_b, Bitrate::from_mbps(2), Bitrate::from_kbps(1_200), ladder),
    ];

    let mut subs = Vec::new();
    for &v in &[viewer_a, viewer_b] {
        subs.push(
            Subscription::new(v, SourceId::screen(presenter), Resolution::R720)
                .with_boost(SCREEN_BOOST),
        );
        subs.push(Subscription::new(v, SourceId::video(presenter), Resolution::R180));
        subs.push(
            Subscription::new(v, SourceId::video(presenter), Resolution::R720)
                .with_tag(1)
                .with_boost(SPEAKER_BOOST),
        );
    }
    subs.push(Subscription::new(viewer_a, SourceId::video(viewer_b), Resolution::R360));
    subs.push(Subscription::new(viewer_b, SourceId::video(viewer_a), Resolution::R360));
    Problem::new(clients, subs).expect("invariant: screen-share demo is a valid conference")
}

/// A scaled-down large conference: `pubs` publishers on rich links plus
/// `subs` view-only subscribers with deterministically varied downlinks,
/// everyone watching every publisher up to 720P, on a 6-level fine ladder.
/// A smaller, different shape from `fig6::asymmetric_meeting`, which the
/// `large_conference` example runs.
pub fn large_conference(pubs: u32, subs: u32) -> Problem {
    let ladder = ladders::fine(6);
    let mut clients = Vec::new();
    let mut subscriptions = Vec::new();
    for p in 1..=pubs {
        clients.push(ClientSpec::new(
            ClientId(p),
            Bitrate::from_mbps(4),
            Bitrate::from_mbps(8),
            ladder.clone(),
        ));
    }
    for s in 0..subs {
        let id = ClientId(pubs + 1 + s);
        // Deterministic heterogeneity: downlinks cycle 600K..3.4M.
        let down = Bitrate::from_kbps(600 + u64::from(s % 8) * 400);
        let mut spec = ClientSpec::new(id, Bitrate::from_kbps(100), down, ladder.clone());
        spec.sources.clear();
        clients.push(spec);
        for p in 1..=pubs {
            subscriptions.push(Subscription::new(
                id,
                SourceId::video(ClientId(p)),
                Resolution::R720,
            ));
        }
    }
    let publishers: Vec<ClientId> = (1..=pubs).map(ClientId).collect();
    subscriptions.extend(everyone_watches_everyone(&publishers));
    Problem::new(clients, subscriptions).expect("invariant: generated conference is valid")
}

/// A 3-party conference on the fine 15-level ladder with one slow
/// downlink: clients 1 and 2 have 3 Mbps up and 5 Mbps down, client 3 has
/// 3 Mbps up and 500 Kbps down, and everyone watches everyone up to 720P.
/// It is a fixed solver input, not derived from [`slow_link_scenario`]
/// (3 Mbps symmetric links, the impairment on client 1).
pub fn slow_link_picture() -> Problem {
    let ladder = ladders::fine15();
    let ids = [ClientId(1), ClientId(2), ClientId(3)];
    let clients = vec![
        ClientSpec::new(ids[0], Bitrate::from_mbps(3), Bitrate::from_mbps(5), ladder.clone()),
        ClientSpec::new(ids[1], Bitrate::from_mbps(3), Bitrate::from_mbps(5), ladder.clone()),
        ClientSpec::new(ids[2], Bitrate::from_mbps(3), Bitrate::from_kbps(500), ladder),
    ];
    Problem::new(clients, everyone_watches_everyone(&ids))
        .expect("invariant: slow-link demo is a valid conference")
}

/// The `transient_response` steady state while capped: one publisher, one
/// subscriber whose downlink sits at the Fig. 7 cap of 625 Kbps.
pub fn transient_capped() -> Problem {
    let ladder = ladders::fine15();
    let publisher = ClientId(1);
    let watcher = ClientId(2);
    let clients = vec![
        ClientSpec::new(publisher, Bitrate::from_mbps(4), Bitrate::from_mbps(4), ladder.clone()),
        ClientSpec::new(watcher, Bitrate::from_mbps(4), Bitrate::from_kbps(625), ladder),
    ];
    let subs = vec![Subscription::new(watcher, SourceId::video(publisher), Resolution::R720)];
    Problem::new(clients, subs).expect("invariant: transient demo is a valid conference")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_15_cases() {
        let cases = slow_link_cases();
        assert_eq!(cases.len(), 15);
        assert_eq!(cases.iter().filter(|c| c.direction == Direction::Uplink).count(), 7);
        assert_eq!(cases.iter().filter(|c| matches!(c.impairment, Impairment::Loss(_))).count(), 4);
        assert_eq!(
            cases.iter().filter(|c| matches!(c.impairment, Impairment::BandwidthLimit(_))).count(),
            6
        );
    }

    #[test]
    fn scenario_builder_applies_impairment_to_client1_only() {
        let case = slow_link_cases()[5]; // up-0.5M
        let s = slow_link_scenario(PolicyMode::Gso, case, 1);
        assert_eq!(s.clients.len(), 3);
        assert_eq!(s.clients[0].subscriptions.len(), 2);
        let capped = s.clients[0].uplink.rate.at(gso_util::SimTime::ZERO);
        assert_eq!(capped, Bitrate::from_kbps(500));
        let other = s.clients[1].uplink.rate.at(gso_util::SimTime::ZERO);
        assert_eq!(other, Bitrate::from_kbps(3_000));
    }

    #[test]
    fn mode_ladders() {
        assert_eq!(ladder_for_mode(PolicyMode::Gso).len(), 15);
        assert_eq!(ladder_for_mode(PolicyMode::NonGso).len(), 3);
    }
}
