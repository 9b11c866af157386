//! Ready-made scenarios, starting with the paper's running example.

use crate::engine::Simulation;
use crate::latency::{CaptureProfile, LatencyProfile};
use crate::router::{IgpKind, RouterConfig};
use cpvr_bgp::{BgpConfig, PeerRef, RouteMap, SessionCfg, SetAction, VendorProfile};
use cpvr_topo::builder::shapes;
use cpvr_topo::ExtPeerId;
use cpvr_types::{AsNum, Ipv4Prefix, RouterId};

/// The paper's three-router scenario, assembled and ready to run.
pub struct PaperScenario {
    /// The simulation (call [`Simulation::start`] then schedule stimuli).
    pub sim: Simulation,
    /// The external prefix `P` of the figures.
    pub prefix: Ipv4Prefix,
    /// The uplink peer attached to R1 (import LP 20).
    pub ext_r1: ExtPeerId,
    /// The uplink peer attached to R2 (import LP 30 — the preferred exit).
    pub ext_r2: ExtPeerId,
}

/// Builds the Figs. 1/2/5 network: routers R1–R3 in AS 65000, full iBGP
/// mesh over a triangle of links, uplinks at R1 (local-pref 20) and R2
/// (local-pref 30), so the policy "exit via R2 when its uplink is up"
/// holds by configuration. OSPF underlay.
pub fn paper_scenario(
    latency: LatencyProfile,
    capture: CaptureProfile,
    seed: u64,
) -> PaperScenario {
    paper_scenario_with_igp(latency, capture, seed, IgpKind::Ospf)
}

/// [`paper_scenario`] with a selectable IGP underlay — RIP and EIGRP
/// variants exercise the protocol-specific happens-before rules of §4.1.
pub fn paper_scenario_with_igp(
    latency: LatencyProfile,
    capture: CaptureProfile,
    seed: u64,
    igp: IgpKind,
) -> PaperScenario {
    let (topo, ext_r1, ext_r2) = shapes::paper_triangle();
    let asn = AsNum(65000);
    let mut configs = Vec::new();
    for r in 0..3u32 {
        let mut bgp = BgpConfig::new(RouterId(r), asn);
        bgp.vendor = VendorProfile::Cisco;
        for other in 0..3u32 {
            if other != r {
                bgp.sessions
                    .push(SessionCfg::new(PeerRef::Internal(RouterId(other))));
            }
        }
        configs.push(RouterConfig { bgp, igp });
    }
    configs[0].bgp.sessions.push(SessionCfg {
        peer: PeerRef::External(ext_r1),
        import: RouteMap::set_all(vec![SetAction::LocalPref(20)]),
        export: RouteMap::permit_any(),
        weight: 0,
        ebgp: true,
        rr_client: false,
    });
    configs[1].bgp.sessions.push(SessionCfg {
        peer: PeerRef::External(ext_r2),
        import: RouteMap::set_all(vec![SetAction::LocalPref(30)]),
        export: RouteMap::permit_any(),
        weight: 0,
        ebgp: true,
        rr_client: false,
    });
    let sim = Simulation::new(topo, configs, latency, capture, seed);
    PaperScenario {
        sim,
        prefix: "8.8.8.0/24".parse().expect("static prefix"),
        ext_r1,
        ext_r2,
    }
}

/// A scaled generalization: a line of `n` routers with uplinks at both
/// ends (left LP 20, right LP 30), full iBGP mesh, OSPF underneath.
/// Returns the simulation plus the two uplink ids.
pub fn two_exit_scenario(
    n: usize,
    latency: LatencyProfile,
    capture: CaptureProfile,
    seed: u64,
) -> (Simulation, ExtPeerId, ExtPeerId) {
    let (topo, left, right) = shapes::two_exit_line(n);
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
    configs[0].bgp.sessions.push(SessionCfg {
        peer: PeerRef::External(left),
        import: RouteMap::set_all(vec![SetAction::LocalPref(20)]),
        export: RouteMap::permit_any(),
        weight: 0,
        ebgp: true,
        rr_client: false,
    });
    configs[n - 1].bgp.sessions.push(SessionCfg {
        peer: PeerRef::External(right),
        import: RouteMap::set_all(vec![SetAction::LocalPref(30)]),
        export: RouteMap::permit_any(),
        weight: 0,
        ebgp: true,
        rr_client: false,
    });
    let sim = Simulation::new(topo, configs, latency, capture, seed);
    (sim, left, right)
}

/// A two-AS inter-domain scenario: AS 65000 (R1—R2) peers with AS 65001
/// (R3—R4) over an eBGP session on the R2—R3 link; an external provider
/// attaches to R4. iBGP inside each AS, eBGP across.
///
/// Simplification (documented in DESIGN.md): a single OSPF domain spans
/// both ASes — in a real deployment each AS runs its own IGP, but the
/// only thing BGP consumes from it is next-hop reachability, which is
/// identical here.
///
/// Returns `(simulation, provider peer id)`.
pub fn two_as_scenario(
    latency: LatencyProfile,
    capture: CaptureProfile,
    seed: u64,
) -> (Simulation, ExtPeerId) {
    use cpvr_topo::TopologyBuilder;
    let as_a = AsNum(65000);
    let as_b = AsNum(65001);
    let mut b = TopologyBuilder::new();
    let r1 = b.router("R1");
    let r2 = b.router("R2");
    let r3 = b.router("R3");
    let r4 = b.router("R4");
    b.link(r1, r2, 10);
    b.link(r2, r3, 10);
    b.link(r3, r4, 10);
    let provider = b.external_peer("Provider", AsNum(200), r4);
    let topo = b.build();
    let mk = |me: RouterId, asn: AsNum| RouterConfig {
        bgp: BgpConfig::new(me, asn),
        igp: IgpKind::Ospf,
    };
    let mut c1 = mk(r1, as_a);
    c1.bgp.sessions.push(SessionCfg::new(PeerRef::Internal(r2)));
    let mut c2 = mk(r2, as_a);
    c2.bgp.sessions.push(SessionCfg::new(PeerRef::Internal(r1)));
    c2.bgp.sessions.push(SessionCfg::ebgp_to_router(r3));
    let mut c3 = mk(r3, as_b);
    c3.bgp.sessions.push(SessionCfg::new(PeerRef::Internal(r4)));
    c3.bgp.sessions.push(SessionCfg::ebgp_to_router(r2));
    let mut c4 = mk(r4, as_b);
    c4.bgp.sessions.push(SessionCfg::new(PeerRef::Internal(r3)));
    c4.bgp
        .sessions
        .push(SessionCfg::new(PeerRef::External(provider)));
    let sim = Simulation::new(topo, vec![c1, c2, c3, c4], latency, capture, seed);
    (sim, provider)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scenario_shape() {
        let s = paper_scenario(LatencyProfile::fast(), CaptureProfile::ideal(), 1);
        assert_eq!(s.sim.topology().num_routers(), 3);
        assert_eq!(s.sim.topology().num_ext_peers(), 2);
        assert_eq!(s.prefix.to_string(), "8.8.8.0/24");
    }

    #[test]
    fn two_exit_scales() {
        let (sim, l, r) = two_exit_scenario(8, LatencyProfile::fast(), CaptureProfile::ideal(), 1);
        assert_eq!(sim.topology().num_routers(), 8);
        assert_ne!(l, r);
    }
}
