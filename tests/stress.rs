//! Stress tests: larger random topologies, many prefixes, churn — the
//! whole stack at once, with invariants that must hold regardless of
//! scale.

use cpvr::bgp::{BgpConfig, ConfigChange, PeerRef, RouteMap, SessionCfg, SetAction};
use cpvr::core::infer::{evaluate, infer_hbg, InferConfig};
use cpvr::core::snapshot::consistency_check;
use cpvr::dataplane::TraceOutcome;
use cpvr::sim::scenario::two_exit_scenario;
use cpvr::sim::workload::{churn_plan, prefix_block, random_topology};
use cpvr::sim::{CaptureProfile, IgpKind, LatencyProfile, RouterConfig, Simulation};
use cpvr::types::{AsNum, RouterId, SimTime};
use cpvr::verify::{equivalence_classes, verify, Policy};

const MAX_EVENTS: usize = 2_000_000;

/// Builds a random-topology simulation with full iBGP mesh and the given
/// uplink count.
fn build(
    n: usize,
    extra: usize,
    uplinks: usize,
    seed: u64,
) -> (Simulation, Vec<cpvr::topo::ExtPeerId>) {
    let (topo, peers) = random_topology(n, extra, uplinks, seed);
    let asn = AsNum(65000);
    let mut configs = Vec::new();
    for r in 0..n as u32 {
        let mut bgp = BgpConfig::new(RouterId(r), asn);
        for other in 0..n as u32 {
            if other != r {
                bgp.sessions
                    .push(SessionCfg::new(PeerRef::Internal(RouterId(other))));
            }
        }
        configs.push(RouterConfig {
            bgp,
            igp: IgpKind::Ospf,
        });
    }
    for peer in &peers {
        let attach = topo.ext_peer(*peer).attach.0;
        configs[attach.index()]
            .bgp
            .sessions
            .push(SessionCfg::new(PeerRef::External(*peer)));
    }
    // The jittered (Cisco-calibrated) profile: realistic timestamp
    // spread. The zero-jitter `fast` profile makes large batches of
    // events share timestamps, which honestly degrades inference
    // precision (timestamps only *filter*, §4.2) but is not how router
    // logs look.
    (
        Simulation::new(
            topo,
            configs,
            LatencyProfile::cisco(),
            CaptureProfile::ideal(),
            seed,
        ),
        peers,
    )
}

#[test]
fn twenty_routers_converge_and_verify() {
    let (mut sim, peers) = build(20, 12, 3, 7);
    sim.start();
    sim.run_to_quiescence(MAX_EVENTS);
    let prefixes = prefix_block(30);
    for (i, chunk) in prefixes.chunks(10).enumerate() {
        sim.schedule_ext_announce(
            sim.now() + SimTime::from_millis(i as u64 + 1),
            peers[i % peers.len()],
            chunk,
        );
    }
    sim.run_to_quiescence(MAX_EVENTS);
    // Every prefix reachable from every router.
    let policies: Vec<Policy> = prefixes
        .iter()
        .map(|p| Policy::Reachable { prefix: *p })
        .collect();
    let report = verify(sim.topology(), sim.dataplane(), &policies);
    assert!(
        report.ok(),
        "violations: {:?}",
        &report.violations[..report.violations.len().min(3)]
    );
    // Loop-free everywhere, too.
    let loops: Vec<Policy> = prefixes
        .iter()
        .map(|p| Policy::LoopFree { prefix: *p })
        .collect();
    assert!(verify(sim.topology(), sim.dataplane(), &loops).ok());
    // The trace is large but the snapshot is consistent at quiescence,
    // and the rule-inferred HBG stays useful. Note the measured
    // degradation vs the 3-router case (~0.87/1.00): in a 20-router
    // full mesh, concurrent updates for the same prefix interleave
    // *between* a recv and the RIB change it causes, so the
    // nearest-predecessor heuristic sometimes picks a sibling — exactly
    // the inference imprecision the paper warns about (§4.2) and the
    // reason it attaches confidences and thresholds to HBRs.
    assert!(consistency_check(sim.trace(), sim.now()).is_consistent());
    let g = infer_hbg(
        sim.trace(),
        &InferConfig {
            rules: true,
            patterns: None,
            min_confidence: 0.0,
            proximate: false,
        },
    );
    let st = evaluate(&g, sim.trace(), 0.5);
    assert!(
        st.recall > 0.6,
        "recall {:.3} on {} events",
        st.recall,
        sim.trace().len()
    );
    assert!(
        st.precision > 0.55,
        "precision {:.3} on {} events",
        st.precision,
        sim.trace().len()
    );
}

#[test]
fn churn_storm_ends_consistent() {
    let (mut sim, peers) = build(10, 6, 2, 9);
    sim.start();
    sim.run_to_quiescence(MAX_EVENTS);
    let prefixes = prefix_block(12);
    let plan = churn_plan(60, peers.len(), prefixes.len(), 13);
    let base = sim.now();
    for (t_ms, peer_idx, prefix_idx, announce) in plan {
        let at = base + SimTime::from_millis(t_ms);
        if announce {
            sim.schedule_ext_announce(at, peers[peer_idx], &[prefixes[prefix_idx]]);
        } else {
            sim.schedule_ext_withdraw(at, peers[peer_idx], &[prefixes[prefix_idx]]);
        }
    }
    sim.run_to_quiescence(MAX_EVENTS);
    // After the storm: no loops anywhere, all installed prefixes deliver.
    for p in &prefixes {
        let rep = verify(
            sim.topology(),
            sim.dataplane(),
            &[Policy::LoopFree { prefix: *p }],
        );
        assert!(rep.ok(), "loop after churn on {p}");
    }
    for p in sim.dataplane().all_prefixes() {
        for r in 0..10u32 {
            let t = sim
                .dataplane()
                .trace(sim.topology(), RouterId(r), p.first_addr());
            assert!(
                !matches!(t.outcome, TraceOutcome::Loop(_)),
                "loop from R{} to {p}",
                r + 1
            );
        }
    }
    assert!(consistency_check(sim.trace(), sim.now()).is_consistent());
}

#[test]
fn link_failures_never_leave_loops() {
    let (mut sim, peers) = build(12, 8, 2, 21);
    sim.start();
    sim.run_to_quiescence(MAX_EVENTS);
    let prefixes = prefix_block(6);
    sim.schedule_ext_announce(
        sim.now() + SimTime::from_millis(1),
        peers[0],
        &prefixes[..3],
    );
    sim.schedule_ext_announce(
        sim.now() + SimTime::from_millis(2),
        peers[1],
        &prefixes[3..],
    );
    sim.run_to_quiescence(MAX_EVENTS);
    // Fail three random-ish links (deterministically chosen), one by one,
    // re-converging each time.
    let n_links = sim.topology().num_links();
    for k in 0..3usize {
        let link = cpvr::topo::LinkId(((k * 7 + 3) % n_links) as u32);
        sim.schedule_link_change(sim.now() + SimTime::from_millis(5), link, false);
        sim.run_to_quiescence(MAX_EVENTS);
        for p in sim.dataplane().all_prefixes() {
            for r in 0..12u32 {
                let t = sim
                    .dataplane()
                    .trace(sim.topology(), RouterId(r), p.first_addr());
                assert!(
                    !matches!(t.outcome, TraceOutcome::Loop(_)),
                    "loop after failing {link}: R{} to {p}",
                    r + 1
                );
            }
        }
    }
}

#[test]
fn ec_count_scales_with_prefixes_not_events() {
    let (mut sim, peers) = build(8, 4, 2, 33);
    sim.start();
    sim.run_to_quiescence(MAX_EVENTS);
    let prefixes = prefix_block(100);
    sim.schedule_ext_announce(sim.now() + SimTime::from_millis(1), peers[0], &prefixes);
    sim.run_to_quiescence(MAX_EVENTS);
    let ecs = equivalence_classes(sim.dataplane());
    // Forwarding ECs ≈ announced prefixes + internal prefixes; certainly
    // bounded by total distinct prefixes.
    let total = sim.dataplane().all_prefixes().len();
    assert_eq!(ecs.len(), total, "disjoint prefixes: one EC each");
}

/// Seconds the Fig. 2 fault plus its rollback take on the 12-router
/// two-exit network carrying `n_prefixes` on both exits: two soft
/// reconfigurations over the full table, each swinging every prefix at
/// every router. Also checks the rollback restores the data plane.
fn soft_reconfig_secs(n_prefixes: usize) -> f64 {
    let (mut sim, left, right) =
        two_exit_scenario(12, LatencyProfile::cisco(), CaptureProfile::ideal(), 5);
    sim.start();
    sim.run_to_quiescence(MAX_EVENTS);
    let prefixes = prefix_block(n_prefixes);
    sim.schedule_ext_announce(sim.now() + SimTime::from_millis(1), right, &prefixes);
    sim.schedule_ext_announce(sim.now() + SimTime::from_millis(30), left, &prefixes);
    sim.run_to_quiescence(MAX_EVENTS);
    let fibs = |sim: &Simulation| -> Vec<_> {
        let routers = (0..12).map(|r| sim.dataplane().fib(RouterId(r)).entries());
        routers
            .map(|fib| fib.iter().map(|(p, e)| (*p, e.action)).collect::<Vec<_>>())
            .collect()
    };
    let before = fibs(&sim);
    let t0 = std::time::Instant::now();
    for lp in [10, 30] {
        let change = ConfigChange::SetImport {
            peer: PeerRef::External(right),
            map: RouteMap::set_all(vec![SetAction::LocalPref(lp)]),
        };
        sim.schedule_config(sim.now() + SimTime::from_millis(20), RouterId(11), change);
        sim.run_to_quiescence(MAX_EVENTS);
        assert_eq!(fibs(&sim) == before, lp == 30, "after local-pref {lp}");
    }
    t0.elapsed().as_secs_f64()
}

#[test]
fn soft_reconfig_cost_follows_the_table_not_its_square() {
    // A ratio, so it holds on any machine: 4x the table may cost at most
    // 8x the time. With RIBs that scan the whole table per prefix it was
    // ~29x. Best of two interleaved runs each, against scheduler noise.
    let (mut small, mut large) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..2 {
        small = small.min(soft_reconfig_secs(512));
        large = large.min(soft_reconfig_secs(2048));
    }
    let ratio = large / small;
    assert!(
        ratio <= 8.0,
        "512 prefixes: {small:.3}s, 2048 prefixes: {large:.3}s, ratio {ratio:.1}"
    );
}
