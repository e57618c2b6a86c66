//! Full-system double-run determinism (the runtime prong's acceptance gate).
//!
//! Every example scenario is run twice with the same seed; the runs must
//! produce a byte-identical `metrics_json` export *and* an identical
//! per-tick [`DigestTrace`] over the network simulator, the controllers, and
//! the telemetry registry. A third test seeds a deliberate divergence and
//! proves [`first_divergence`] finds exactly the tick where it was
//! injected — the comparator works, not just the happy path.

use gso_net::{NodeId, Packet};
use gso_sim::workloads::{clean_mesh, slow_link_cases, slow_link_scenario};
use gso_sim::{PolicyMode, Scenario, ScenarioResult};
use gso_util::digest::{first_divergence, DigestTrace};
use gso_util::{Bitrate, SimDuration, SimTime};
use proptest::prelude::*;

/// Run `scenario` through the tick stepper and harvest it. `fault_at`: when
/// set, a junk packet is injected toward an unlinked node at the first tick
/// boundary at or after that time. The packet is unroutable, so it perturbs
/// nothing the media plane sees — only the simulator's `undeliverable`
/// counter — which makes it a minimal seeded divergence for exercising the
/// double-run comparator.
fn run_traced(scenario: &Scenario, fault_at: Option<SimTime>) -> (ScenarioResult, DigestTrace) {
    let end = SimTime::ZERO + scenario.duration;
    let mut fault_pending = fault_at;
    let (wired, trace) = scenario.build().run_traced(end, |wired, t| {
        if fault_pending.is_some_and(|at| t >= at) {
            // No link exists toward this node id, so the injection bumps
            // `undeliverable` and nothing else.
            let junk = Packet::new(bytes::Bytes::from_static(b"detguard-fault"));
            wired.sim.inject(wired.cn, NodeId(u32::MAX), junk);
            fault_pending = None;
        }
    });
    (scenario.harvest(wired, end), trace)
}

/// A short `n`-party GSO conference on clean links.
fn mesh(n: u32, seed: u64) -> Scenario {
    let mbps4 = Bitrate::from_mbps(4);
    clean_mesh(PolicyMode::Gso, n, mbps4, mbps4, SimDuration::from_secs(10), seed)
}

/// A short two-party GSO conference on clean links.
fn two_party(seed: u64) -> Scenario {
    mesh(2, seed)
}

/// A three-party meeting with an impaired link, shortened for test budget.
fn impaired(seed: u64) -> Scenario {
    let mut s = slow_link_scenario(PolicyMode::Gso, slow_link_cases()[5], seed);
    s.duration = SimDuration::from_secs(10);
    s
}

/// A cross-region conference exercising the inter-node relay mesh.
fn cross_region(seed: u64) -> Scenario {
    let mut s = two_party(seed);
    s.clients[1].region = 1;
    s
}

/// Three parties in three regions: every access node relays media to two
/// peers, and subscriptions fan out to two other access nodes.
fn three_region(seed: u64) -> Scenario {
    let mut s = mesh(3, seed);
    for (region, c) in s.clients.iter_mut().enumerate() {
        c.region = region;
    }
    s
}

fn example_scenarios(seed: u64) -> Vec<(&'static str, Scenario)> {
    vec![
        ("two-party", two_party(seed)),
        ("impaired", impaired(seed)),
        ("cross-region", cross_region(seed)),
        ("three-region", three_region(seed)),
    ]
}

fn assert_double_run_identical(name: &str, scenario: &Scenario) {
    let (ra, ta) = run_traced(scenario, None);
    let (rb, tb) = run_traced(scenario, None);
    assert_eq!(
        ra.metrics_json, rb.metrics_json,
        "{name}: metrics_json must be byte-identical across same-seed runs"
    );
    assert!(!ta.entries.is_empty(), "{name}: recorder must produce ticks");
    if let Some(d) = first_divergence(&ta, &tb) {
        panic!("{name}: per-tick digests diverged\n{}", d.report());
    }
}

#[test]
fn example_scenarios_are_digest_identical_across_runs() {
    for (name, s) in example_scenarios(42) {
        assert_double_run_identical(name, &s);
    }
}

#[test]
fn digest_run_matches_plain_run_output() {
    // Stepping the simulator tick-by-tick must process the same event stream
    // as one uninterrupted run: the harvested export is byte-identical.
    let s = two_party(7);
    let plain = s.run();
    let (stepped, _) = run_traced(&s, None);
    assert_eq!(plain.metrics_json, stepped.metrics_json);
}

#[test]
fn seeded_divergence_is_found_at_the_injection_tick() {
    let s = two_party(11);
    let fault_at = SimTime::from_secs(5);
    let (_, clean) = run_traced(&s, None);
    let (_, faulted) = run_traced(&s, Some(fault_at));
    assert_eq!(clean.entries.len(), faulted.entries.len());

    let d = first_divergence(&clean, &faulted).expect("the seeded fault must diverge");
    // The fault fires at the first tick boundary >= 5 s, so the first
    // divergent entry is the one covering (5.0 s, 5.1 s] — index 50 of the
    // 100 ms tick sequence.
    assert_eq!(d.index, 50, "the walk must land exactly on the injection tick");
    let entry = d.a.as_ref().expect("clean run has the tick");
    assert_eq!(entry.tick, SimTime::from_millis(5_100).as_micros());
    // The junk packet is unroutable: only the simulator core notices it.
    assert_eq!(d.divergent_components, vec!["net.sim".to_string()]);
    assert!(d.report().contains("net.sim"), "report names the component:\n{}", d.report());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Satellite guarantee: any seed, not just the pinned ones, double-runs
    /// to identical bytes and identical per-tick digests.
    #[test]
    fn any_seed_double_runs_identically(seed in 0u64..1_000) {
        let s = two_party(seed);
        assert_double_run_identical("two-party", &s);
    }
}
