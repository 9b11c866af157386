//! End-to-end simulator tests reproducing the paper's scenarios.

use cpvr_bgp::{ConfigChange, PeerRef, RouteMap, SetAction};
use cpvr_dataplane::{FibAction, TraceOutcome};
use cpvr_sim::scenario::{paper_scenario, two_exit_scenario};
use cpvr_sim::{CaptureProfile, IoKind, LatencyProfile, Proto};
use cpvr_types::{RouterId, SimTime};
use std::net::Ipv4Addr;

const DST: Ipv4Addr = Ipv4Addr::new(8, 8, 8, 8);
const MAX_EVENTS: usize = 200_000;

/// Boots the paper scenario, converges the IGP, and announces P on both
/// uplinks (R1 first, then R2 — the Fig. 1a → 1b sequence).
fn converged_paper() -> cpvr_sim::scenario::PaperScenario {
    let mut s = paper_scenario(LatencyProfile::fast(), CaptureProfile::ideal(), 7);
    s.sim.start();
    s.sim.run_to_quiescence(MAX_EVENTS);
    s.sim.schedule_ext_announce(
        s.sim.now() + SimTime::from_millis(10),
        s.ext_r1,
        &[s.prefix],
    );
    s.sim.schedule_ext_announce(
        s.sim.now() + SimTime::from_millis(500),
        s.ext_r2,
        &[s.prefix],
    );
    s.sim.run_to_quiescence(MAX_EVENTS);
    s
}

#[test]
fn fig1a_then_fig1b_traffic_exits_via_r2() {
    let s = converged_paper();
    // All three routers must deliver traffic for P out the R2 uplink.
    for r in 0..3u32 {
        let t = s.sim.dataplane().trace(s.sim.topology(), RouterId(r), DST);
        assert_eq!(
            t.outcome,
            TraceOutcome::Exited(s.ext_r2),
            "R{} path: {:?}",
            r + 1,
            t.router_path()
        );
    }
    // R3 forwards via R2, not R1.
    let t3 = s.sim.dataplane().trace(s.sim.topology(), RouterId(2), DST);
    assert_eq!(t3.router_path(), vec![RouterId(2), RouterId(1)]);
}

#[test]
fn fig1a_intermediate_state_via_r1() {
    // Before R2's uplink announces, everyone exits via R1 (Fig. 1a).
    let mut s = paper_scenario(LatencyProfile::fast(), CaptureProfile::ideal(), 7);
    s.sim.start();
    s.sim.run_to_quiescence(MAX_EVENTS);
    s.sim.schedule_ext_announce(
        s.sim.now() + SimTime::from_millis(10),
        s.ext_r1,
        &[s.prefix],
    );
    s.sim.run_to_quiescence(MAX_EVENTS);
    for r in 0..3u32 {
        let t = s.sim.dataplane().trace(s.sim.topology(), RouterId(r), DST);
        assert_eq!(t.outcome, TraceOutcome::Exited(s.ext_r1), "R{}", r + 1);
    }
}

#[test]
fn fig2a_bad_localpref_shifts_exit_to_r1() {
    let mut s = converged_paper();
    // The ill-considered change: LP 10 on R2's uplink import.
    let change = ConfigChange::SetImport {
        peer: PeerRef::External(s.ext_r2),
        map: RouteMap::set_all(vec![SetAction::LocalPref(10)]),
    };
    s.sim
        .schedule_config(s.sim.now() + SimTime::from_millis(10), RouterId(1), change);
    s.sim.run_to_quiescence(MAX_EVENTS);
    // Policy violated: traffic now exits via R1 although R2's uplink is up.
    for r in 0..3u32 {
        let t = s.sim.dataplane().trace(s.sim.topology(), RouterId(r), DST);
        assert_eq!(t.outcome, TraceOutcome::Exited(s.ext_r1), "R{}", r + 1);
    }
}

#[test]
fn fig2b_blocking_fib_updates_blackholes_after_withdrawal() {
    let mut s = converged_paper();
    // Install the naive "fix": block all further FIB updates for P
    // (what a data-plane-only verifier would do to preserve the pre-change
    // forwarding).
    let p = s.prefix;
    s.sim.set_fib_gate(Box::new(move |u| u.prefix != p));
    let change = ConfigChange::SetImport {
        peer: PeerRef::External(s.ext_r2),
        map: RouteMap::set_all(vec![SetAction::LocalPref(10)]),
    };
    s.sim
        .schedule_config(s.sim.now() + SimTime::from_millis(10), RouterId(1), change);
    s.sim.run_to_quiescence(MAX_EVENTS);
    // Data plane still sends via R2 (updates were blocked) — policy looks
    // preserved...
    let t = s.sim.dataplane().trace(s.sim.topology(), RouterId(2), DST);
    assert_eq!(t.outcome, TraceOutcome::Exited(s.ext_r2));
    assert!(
        !s.sim.blocked_updates().is_empty(),
        "gate must have blocked updates"
    );
    // ...but now R2's uplink fails and the withdrawal propagates. The
    // control plane thinks the FIBs point at R1 already, so nothing gets
    // reprogrammed — and the stale FIBs blackhole at R2 (Fig. 2b).
    s.sim
        .schedule_ext_peer_change(s.sim.now() + SimTime::from_millis(10), s.ext_r2, false);
    s.sim.run_to_quiescence(MAX_EVENTS);
    let t = s.sim.dataplane().trace(s.sim.topology(), RouterId(2), DST);
    assert_eq!(
        t.outcome,
        TraceOutcome::Blackhole(RouterId(1)),
        "stale FIB must blackhole at R2 (paper Fig. 2b); path {:?}",
        t.router_path()
    );
}

#[test]
fn without_blocking_withdrawal_fails_over_cleanly() {
    // Control for fig2b: no gate, same failure → clean failover to R1.
    let mut s = converged_paper();
    s.sim
        .schedule_ext_peer_change(s.sim.now() + SimTime::from_millis(10), s.ext_r2, false);
    s.sim.run_to_quiescence(MAX_EVENTS);
    for r in 0..3u32 {
        let t = s.sim.dataplane().trace(s.sim.topology(), RouterId(r), DST);
        assert_eq!(t.outcome, TraceOutcome::Exited(s.ext_r1), "R{}", r + 1);
    }
}

#[test]
fn trace_captures_all_io_classes() {
    let mut s = converged_paper();
    let change = ConfigChange::SetImport {
        peer: PeerRef::External(s.ext_r2),
        map: RouteMap::set_all(vec![SetAction::LocalPref(10)]),
    };
    s.sim
        .schedule_config(s.sim.now() + SimTime::from_millis(10), RouterId(1), change);
    s.sim
        .schedule_ext_peer_change(s.sim.now() + SimTime::from_secs(100), s.ext_r2, false);
    s.sim.run_to_quiescence(MAX_EVENTS);
    let tr = s.sim.trace();
    let mut saw = [false; 8];
    for e in &tr.events {
        match e.kind {
            IoKind::ConfigChange { .. } => saw[0] = true,
            IoKind::SoftReconfig { .. } => saw[1] = true,
            IoKind::LinkStatus { .. } => saw[2] = true,
            IoKind::RecvAdvert { .. } => saw[3] = true,
            IoKind::RecvWithdraw { .. } => saw[4] = true,
            IoKind::RibInstall { .. } | IoKind::RibRemove { .. } => saw[5] = true,
            IoKind::FibInstall { .. } | IoKind::FibRemove { .. } => saw[6] = true,
            IoKind::SendAdvert { .. } | IoKind::SendWithdraw { .. } => saw[7] = true,
        }
    }
    assert!(saw.iter().all(|x| *x), "missing I/O class: {saw:?}");
}

#[test]
fn truth_edges_are_causal_in_time() {
    let s = converged_paper();
    let tr = s.sim.trace();
    for (a, b) in &tr.truth_edges {
        let ea = &tr.events[a.index()];
        let eb = &tr.events[b.index()];
        assert!(
            ea.time <= eb.time,
            "cause {} at {} after effect {} at {}",
            ea,
            ea.time,
            eb,
            eb.time
        );
    }
}

#[test]
fn bgp_sends_follow_rib_installs_in_truth() {
    // §4.1: with BGP, [install P in BGP RIB] → [send BGP advert P].
    let s = converged_paper();
    let tr = s.sim.trace();
    for e in &tr.events {
        if let IoKind::SendAdvert {
            proto: Proto::Bgp, ..
        } = e.kind
        {
            let anc = tr.truth_ancestors(e.id);
            let has_rib_or_recv = anc.iter().any(|a| {
                matches!(
                    tr.events[a.index()].kind,
                    IoKind::RibInstall {
                        proto: Proto::Bgp,
                        ..
                    } | IoKind::RecvAdvert {
                        proto: Proto::Bgp,
                        ..
                    } | IoKind::SoftReconfig { .. }
                )
            });
            assert!(has_rib_or_recv, "BGP send without BGP cause: {e}");
        }
    }
}

#[test]
fn determinism_same_seed_same_trace() {
    let run = |seed: u64| {
        let mut s = paper_scenario(LatencyProfile::cisco(), CaptureProfile::syslog(), seed);
        s.sim.start();
        s.sim.run_to_quiescence(MAX_EVENTS);
        s.sim.schedule_ext_announce(
            s.sim.now() + SimTime::from_millis(10),
            s.ext_r1,
            &[s.prefix],
        );
        s.sim
            .schedule_ext_announce(s.sim.now() + SimTime::from_secs(2), s.ext_r2, &[s.prefix]);
        s.sim.run_to_quiescence(MAX_EVENTS);
        s.sim.trace().render()
    };
    assert_eq!(run(99), run(99));
    assert_ne!(run(99), run(100), "different seeds should differ in timing");
}

#[test]
fn cisco_profile_produces_fig5_timescales() {
    let mut s = paper_scenario(LatencyProfile::cisco(), CaptureProfile::ideal(), 3);
    s.sim.start();
    s.sim.run_to_quiescence(MAX_EVENTS);
    let t0 = s.sim.now();
    let change = ConfigChange::SetImport {
        peer: PeerRef::External(s.ext_r1),
        map: RouteMap::set_all(vec![SetAction::LocalPref(200)]),
    };
    s.sim
        .schedule_config(t0 + SimTime::from_millis(100), RouterId(0), change);
    s.sim.run_to_quiescence(MAX_EVENTS);
    let tr = s.sim.trace();
    let config_t = tr
        .events
        .iter()
        .find(|e| matches!(&e.kind, IoKind::ConfigChange { desc, .. } if desc.contains("import")))
        .unwrap()
        .time;
    let soft_t = tr
        .events
        .iter()
        .find(|e| matches!(e.kind, IoKind::SoftReconfig { .. }))
        .unwrap()
        .time;
    let gap = soft_t - config_t;
    assert!(
        gap >= SimTime::from_secs(22) && gap <= SimTime::from_secs(28),
        "config→soft-reconfig gap {gap} should be ~25s"
    );
}

#[test]
fn igp_convergence_installs_internal_routes() {
    let (mut sim, _, _) = two_exit_scenario(5, LatencyProfile::fast(), CaptureProfile::ideal(), 1);
    sim.start();
    sim.run_to_quiescence(MAX_EVENTS);
    // Every router can reach every other router's loopback in the FIB.
    for r in 0..5u32 {
        for other in 0..5u32 {
            if r == other {
                continue;
            }
            let lb = sim.topology().router(RouterId(other)).loopback;
            let t = sim.dataplane().trace(sim.topology(), RouterId(r), lb);
            assert_eq!(
                t.outcome,
                TraceOutcome::DeliveredLocal(RouterId(other)),
                "R{}→R{} got {:?}",
                r + 1,
                other + 1,
                t.outcome
            );
        }
    }
}

#[test]
fn link_failure_converges_and_reroutes() {
    let (mut sim, left, right) =
        two_exit_scenario(4, LatencyProfile::fast(), CaptureProfile::ideal(), 5);
    let p: cpvr_types::Ipv4Prefix = "8.8.8.0/24".parse().unwrap();
    sim.start();
    sim.run_to_quiescence(MAX_EVENTS);
    sim.schedule_ext_announce(sim.now() + SimTime::from_millis(1), left, &[p]);
    sim.schedule_ext_announce(sim.now() + SimTime::from_millis(2), right, &[p]);
    sim.run_to_quiescence(MAX_EVENTS);
    // Preferred exit is the right (LP 30). R1 forwards along the line.
    let t = sim.dataplane().trace(sim.topology(), RouterId(0), DST);
    assert_eq!(t.outcome, TraceOutcome::Exited(right));
    // Fail the middle link R2—R3: the domain partitions. R1's side can
    // only exit left; after IGP reconvergence BGP must fail over because
    // the iBGP next hop (R4) becomes unreachable.
    let l = sim
        .topology()
        .link_between(RouterId(1), RouterId(2))
        .unwrap()
        .id;
    sim.schedule_link_change(sim.now() + SimTime::from_millis(10), l, false);
    sim.run_to_quiescence(MAX_EVENTS);
    let t = sim.dataplane().trace(sim.topology(), RouterId(0), DST);
    assert_eq!(
        t.outcome,
        TraceOutcome::Exited(left),
        "R1 must fail over to its local exit; path {:?}",
        t.router_path()
    );
}

/// Every router's FIB as `(prefix, action)` pairs.
fn fib_contents(sim: &cpvr_sim::Simulation) -> Vec<Vec<(cpvr_types::Ipv4Prefix, FibAction)>> {
    (0..sim.topology().num_routers() as u32)
        .map(|r| {
            let entries = sim.dataplane().fib(RouterId(r)).entries();
            entries.iter().map(|(p, e)| (*p, e.action)).collect()
        })
        .collect()
}

#[test]
fn session_removal_rolls_back_to_the_pre_fault_fibs() {
    // §6 "revert is safe": tear the R2—R3 iBGP session down at both ends,
    // then apply the inverses the capture recorded, as the repair engine
    // does. R3 loses P with the session (R1's best is R2's route, so R1
    // has nothing of its own to offer) and must get it back from R2.
    let mut s = converged_paper();
    let before = fib_contents(&s.sim);
    let fault_from = s.sim.trace().len();
    for (router, peer) in [(1, 2), (2, 1)] {
        let change = ConfigChange::RemoveSession(PeerRef::Internal(RouterId(peer)));
        let at = s.sim.now() + SimTime::from_millis(10);
        s.sim.schedule_config(at, RouterId(router), change);
    }
    s.sim.run_to_quiescence(MAX_EVENTS);
    assert_ne!(fib_contents(&s.sim), before, "the fault must bite");
    let rollback: Vec<(RouterId, ConfigChange)> = s.sim.trace().events[fault_from..]
        .iter()
        .filter_map(|e| match &e.kind {
            IoKind::ConfigChange { inverse, .. } => Some((e.router, inverse.clone()?)),
            _ => None,
        })
        .collect();
    assert_eq!(rollback.len(), 2);
    for (router, inverse) in rollback {
        let at = s.sim.now() + SimTime::from_millis(10);
        s.sim.schedule_config(at, router, inverse);
    }
    s.sim.run_to_quiescence(MAX_EVENTS);
    assert_eq!(fib_contents(&s.sim), before);
}

#[test]
fn snapshot_reconstruction_matches_live_dataplane() {
    let s = converged_paper();
    let tr = s.sim.trace();
    let snap = tr.fib_snapshot_at(3, s.sim.now());
    for r in 0..3u32 {
        let live = s.sim.dataplane().fib(RouterId(r)).entries();
        let reco: Vec<_> = snap.fib(RouterId(r)).entries();
        let live_keys: Vec<_> = live.iter().map(|(p, e)| (*p, e.action)).collect();
        let reco_keys: Vec<_> = reco.iter().map(|(p, e)| (*p, e.action)).collect();
        assert_eq!(live_keys, reco_keys, "R{}", r + 1);
    }
}

#[test]
fn lossy_capture_loses_events() {
    let mut s = paper_scenario(LatencyProfile::fast(), CaptureProfile::lossy(0.3), 11);
    s.sim.start();
    s.sim.run_to_quiescence(MAX_EVENTS);
    s.sim
        .schedule_ext_announce(s.sim.now(), s.ext_r1, &[s.prefix]);
    s.sim.run_to_quiescence(MAX_EVENTS);
    let tr = s.sim.trace();
    let lost = tr.events.iter().filter(|e| e.arrived_at.is_none()).count();
    assert!(lost > 0, "30% loss must lose something out of {}", tr.len());
    assert!(lost < tr.len());
}
