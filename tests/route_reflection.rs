//! Route reflection (RFC 4456, single level): hub-and-spoke iBGP with no
//! full mesh. The spokes peer only with the reflector; routes still reach
//! everyone, next hops stay on the border router, and the guarded repair
//! loop keeps working.

use cpvr::bgp::{BgpConfig, ConfigChange, NextHop, PeerRef, RouteMap, SessionCfg};
use cpvr::core::ControlLoop;
use cpvr::dataplane::TraceOutcome;
use cpvr::sim::{CaptureProfile, IgpKind, LatencyProfile, RouterConfig, Simulation};
use cpvr::topo::{ExtPeerId, TopologyBuilder};
use cpvr::types::{AsNum, Ipv4Prefix, RouterId, SimTime};
use cpvr::verify::Policy;

const MAX_EVENTS: usize = 400_000;

/// Star topology: R1 is the hub/reflector; R2–R4 are spokes with iBGP
/// sessions only to R1. External provider at R2.
fn star(with_reflection: bool, seed: u64) -> (Simulation, ExtPeerId) {
    let asn = AsNum(65000);
    let mut b = TopologyBuilder::new();
    let hub = b.router("R1");
    let spokes: Vec<RouterId> = (2..=4).map(|i| b.router(&format!("R{i}"))).collect();
    for s in &spokes {
        b.link(hub, *s, 10);
    }
    let provider = b.external_peer("Provider", AsNum(200), spokes[0]);
    let topo = b.build();

    let mut hub_cfg = BgpConfig::new(hub, asn);
    for s in &spokes {
        hub_cfg.sessions.push(if with_reflection {
            SessionCfg::ibgp_client(*s)
        } else {
            SessionCfg::new(PeerRef::Internal(*s))
        });
    }
    let mut configs = vec![RouterConfig {
        bgp: hub_cfg,
        igp: IgpKind::Ospf,
    }];
    for s in &spokes {
        let mut cfg = BgpConfig::new(*s, asn);
        cfg.sessions.push(SessionCfg::new(PeerRef::Internal(hub)));
        if *s == spokes[0] {
            cfg.sessions
                .push(SessionCfg::new(PeerRef::External(provider)));
        }
        configs.push(RouterConfig {
            bgp: cfg,
            igp: IgpKind::Ospf,
        });
    }
    (
        Simulation::new(
            topo,
            configs,
            LatencyProfile::fast(),
            CaptureProfile::ideal(),
            seed,
        ),
        provider,
    )
}

fn converge(sim: &mut Simulation, provider: ExtPeerId, p: Ipv4Prefix) {
    sim.start();
    sim.run_to_quiescence(MAX_EVENTS);
    sim.schedule_ext_announce(sim.now() + SimTime::from_millis(1), provider, &[p]);
    sim.run_to_quiescence(MAX_EVENTS);
}

#[test]
fn without_reflection_spokes_stay_blind() {
    // Negative control: plain iBGP over a star (no mesh, no reflection)
    // leaves the far spokes without the route — the well-known reason
    // full mesh or RR is mandatory.
    let p: Ipv4Prefix = "8.8.8.0/24".parse().unwrap();
    let (mut sim, provider) = star(false, 201);
    converge(&mut sim, provider, p);
    // The hub learns it (R2 advertises its eBGP route to the hub)...
    assert!(sim.router(RouterId(0)).bgp.loc_rib().contains_key(&p));
    // ...but the other spokes never do.
    for r in [2u32, 3] {
        assert!(
            !sim.router(RouterId(r)).bgp.loc_rib().contains_key(&p),
            "R{} must be blind without reflection",
            r + 1
        );
    }
}

#[test]
fn reflection_distributes_routes_with_correct_next_hop() {
    let p: Ipv4Prefix = "8.8.8.0/24".parse().unwrap();
    let (mut sim, provider) = star(true, 202);
    converge(&mut sim, provider, p);
    // All spokes (and the hub) now hold the route; the next hop is the
    // border spoke R2, NOT the reflector.
    for r in 0..4u32 {
        let rib = sim.router(RouterId(r)).bgp.loc_rib();
        let route = rib
            .get(&p)
            .unwrap_or_else(|| panic!("R{} missing route", r + 1));
        if r == 1 {
            assert_eq!(route.next_hop, NextHop::External(provider));
        } else {
            assert_eq!(
                route.next_hop,
                NextHop::Router(RouterId(1)),
                "R{}: reflection must preserve the border next hop",
                r + 1
            );
        }
    }
    // And traffic actually flows: spoke R4 → hub → R2 → provider.
    let t = sim
        .dataplane()
        .trace(sim.topology(), RouterId(3), "8.8.8.8".parse().unwrap());
    assert_eq!(t.outcome, TraceOutcome::Exited(provider));
    assert_eq!(t.router_path(), vec![RouterId(3), RouterId(0), RouterId(1)]);
}

#[test]
fn reflection_withdraw_propagates() {
    let p: Ipv4Prefix = "8.8.8.0/24".parse().unwrap();
    let (mut sim, provider) = star(true, 203);
    converge(&mut sim, provider, p);
    sim.schedule_ext_withdraw(sim.now() + SimTime::from_millis(5), provider, &[p]);
    sim.run_to_quiescence(MAX_EVENTS);
    for r in 0..4u32 {
        assert!(
            sim.router(RouterId(r)).bgp.loc_rib().is_empty(),
            "R{} kept a withdrawn route",
            r + 1
        );
    }
}

#[test]
fn guard_works_over_a_reflected_fabric() {
    // The paper's machinery must not depend on full mesh: break the
    // fabric with a deny-all import on the hub's client session to R2 and
    // let the guard roll it back.
    let p: Ipv4Prefix = "8.8.8.0/24".parse().unwrap();
    let (mut sim, provider) = star(true, 204);
    converge(&mut sim, provider, p);
    let change = ConfigChange::SetImport {
        peer: PeerRef::Internal(RouterId(1)),
        map: RouteMap::deny_any(),
    };
    sim.schedule_config(sim.now() + SimTime::from_millis(20), RouterId(0), change);
    let guard = ControlLoop::new(vec![Policy::Reachable { prefix: p }]);
    let report = guard.run(&mut sim, SimTime::from_secs(2));
    assert!(report.repairs() >= 1, "{}", report.render());
    assert!(report.final_ok, "{}", report.render());
}
