//! §8: repair correctness depends on deterministic (memoryless)
//! control-plane execution. These tests demonstrate both sides:
//!
//! * Cisco's oldest-route tie-break makes BGP outcomes depend on arrival
//!   history, so a revert does NOT necessarily restore the pre-fault
//!   state;
//! * the standard (router-id) tie-break — and the soft-reconfiguration
//!   path, which preserves Adj-RIB-In — are memoryless, so rollback
//!   restores exactly the previous state.

use cpvr::bgp::{
    BgpConfig, BgpInstance, BgpRoute, BgpUpdate, ConfigChange, PeerRef, RouteMap, SessionCfg,
    SetAction, StaticIgpView, VendorProfile,
};
use cpvr::sim::scenario::paper_scenario;
use cpvr::sim::{CaptureProfile, LatencyProfile};
use cpvr::topo::ExtPeerId;
use cpvr::types::{AsNum, Ipv4Prefix, RouterId, SimTime};

fn speaker(vendor: VendorProfile) -> BgpInstance {
    let mut cfg = BgpConfig::new(RouterId(9), AsNum(65000));
    cfg.vendor = vendor;
    cfg.sessions
        .push(SessionCfg::new(PeerRef::External(ExtPeerId(0))));
    cfg.sessions
        .push(SessionCfg::new(PeerRef::External(ExtPeerId(1))));
    BgpInstance::new(cfg)
}

fn announce(inst: &mut BgpInstance, peer: u32, originator: u32, prefix: Ipv4Prefix) {
    let igp = StaticIgpView::default();
    let mut r = BgpRoute::external(prefix, ExtPeerId(peer), AsNum(100), RouterId(originator));
    r.originator = RouterId(originator);
    let _ = inst.recv_update(
        PeerRef::External(ExtPeerId(peer)),
        BgpUpdate {
            announce: vec![r.into()],
            withdraw: vec![],
        },
        &igp,
    );
}

#[test]
fn cisco_oldest_route_is_history_dependent() {
    let p: Ipv4Prefix = "8.8.8.0/24".parse().unwrap();
    let igp = StaticIgpView::default();
    let mut inst = speaker(VendorProfile::Cisco);
    // Peer 1's route (originator R2) arrives first: it is oldest → best.
    announce(&mut inst, 1, 1, p);
    announce(&mut inst, 0, 0, p);
    assert_eq!(inst.loc_rib()[&p].originator, RouterId(1));
    // Session to peer 1 flaps: the route is lost and re-learned. Same
    // final set of routes — but now peer 0's route is the older one.
    let _ = inst.peer_down(PeerRef::External(ExtPeerId(1)), &igp);
    announce(&mut inst, 1, 1, p);
    assert_eq!(
        inst.loc_rib()[&p].originator,
        RouterId(0),
        "identical route set, different history, different selection"
    );
}

#[test]
fn standard_tiebreak_is_memoryless() {
    let p: Ipv4Prefix = "8.8.8.0/24".parse().unwrap();
    let igp = StaticIgpView::default();
    let mut inst = speaker(VendorProfile::Standard);
    announce(&mut inst, 1, 1, p);
    announce(&mut inst, 0, 0, p);
    assert_eq!(inst.loc_rib()[&p].originator, RouterId(0));
    let _ = inst.peer_down(PeerRef::External(ExtPeerId(1)), &igp);
    announce(&mut inst, 1, 1, p);
    assert_eq!(
        inst.loc_rib()[&p].originator,
        RouterId(0),
        "same inputs → same outcome, regardless of arrival order"
    );
}

#[test]
fn soft_reconfig_rollback_restores_exact_state() {
    // Because Adj-RIB-In stores raw routes, a config change + revert via
    // soft reconfiguration is exactly memoryless even on Cisco: no route
    // is relearned, so arrival order (and thus the oldest-route rule's
    // verdict) is preserved.
    let p: Ipv4Prefix = "8.8.8.0/24".parse().unwrap();
    let igp = StaticIgpView::default();
    let mut inst = speaker(VendorProfile::Cisco);
    announce(&mut inst, 1, 1, p);
    announce(&mut inst, 0, 0, p);
    let before = inst.loc_rib()[&p].clone();
    // Break it: deny peer 1's route.
    let change = ConfigChange::SetImport {
        peer: PeerRef::External(ExtPeerId(1)),
        map: RouteMap::deny_any(),
    };
    let inverse = change.inverse(inst.config()).unwrap();
    let _ = inst.apply_config(&change, &igp);
    assert_eq!(inst.loc_rib()[&p].originator, RouterId(0));
    // Revert: the previously selected (older) route returns to being best.
    let _ = inst.apply_config(&inverse, &igp);
    assert_eq!(inst.loc_rib()[&p], &before);
    assert_eq!(inst.loc_rib()[&p].originator, RouterId(1));
}

#[test]
fn full_simulation_rollback_restores_dataplane() {
    // Network-level version: Fig. 2 change + inverse restores the exact
    // FIB contents everywhere.
    let run = |with_fault_and_revert: bool| {
        let mut s = paper_scenario(LatencyProfile::fast(), CaptureProfile::ideal(), 88);
        s.sim.start();
        s.sim.run_to_quiescence(400_000);
        s.sim
            .schedule_ext_announce(s.sim.now() + SimTime::from_millis(1), s.ext_r1, &[s.prefix]);
        s.sim.schedule_ext_announce(
            s.sim.now() + SimTime::from_millis(50),
            s.ext_r2,
            &[s.prefix],
        );
        s.sim.run_to_quiescence(400_000);
        if with_fault_and_revert {
            let change = ConfigChange::SetImport {
                peer: PeerRef::External(s.ext_r2),
                map: RouteMap::set_all(vec![SetAction::LocalPref(10)]),
            };
            s.sim
                .schedule_config(s.sim.now() + SimTime::from_millis(10), RouterId(1), change);
            s.sim.run_to_quiescence(400_000);
            let revert = ConfigChange::SetImport {
                peer: PeerRef::External(s.ext_r2),
                map: RouteMap::set_all(vec![SetAction::LocalPref(30)]),
            };
            s.sim
                .schedule_config(s.sim.now() + SimTime::from_millis(10), RouterId(1), revert);
            s.sim.run_to_quiescence(400_000);
        }
        // Extract FIB action maps.
        (0..3u32)
            .map(|r| {
                s.sim
                    .dataplane()
                    .fib(RouterId(r))
                    .entries()
                    .into_iter()
                    .map(|(p, e)| (p, e.action))
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    };
    let clean = run(false);
    let reverted = run(true);
    assert_eq!(
        clean, reverted,
        "fault + rollback must restore the exact data plane"
    );
}
