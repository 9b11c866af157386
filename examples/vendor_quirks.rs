//! Vendor-specific BGP decision differences (§2): the same inputs,
//! arriving in the same order, select different best paths on Cisco vs
//! standard/Juniper profiles — exactly the implementation detail
//! model-based verifiers tend to miss.
//!
//! Run with: `cargo run --example vendor_quirks`

use cpvr::bgp::{
    BgpConfig, BgpInstance, BgpRoute, BgpUpdate, PeerRef, SessionCfg, StaticIgpView, VendorProfile,
};
use cpvr::topo::ExtPeerId;
use cpvr::types::{AsNum, Ipv4Prefix, RouterId};

fn main() {
    let prefix: Ipv4Prefix = "8.8.8.0/24".parse().unwrap();
    let igp = StaticIgpView::default();

    println!("two eBGP sessions announce {prefix} with identical attributes;");
    println!("the route from the HIGHER-id originator arrives FIRST.\n");

    for vendor in [
        VendorProfile::Cisco,
        VendorProfile::Juniper,
        VendorProfile::Standard,
    ] {
        let mut cfg = BgpConfig::new(RouterId(2), AsNum(65000));
        cfg.vendor = vendor;
        cfg.sessions
            .push(SessionCfg::new(PeerRef::External(ExtPeerId(0))));
        cfg.sessions
            .push(SessionCfg::new(PeerRef::External(ExtPeerId(1))));
        let mut speaker = BgpInstance::new(cfg);

        // Older route from originator R2 (higher id), then newer from R1.
        let mut older = BgpRoute::external(prefix, ExtPeerId(1), AsNum(100), RouterId(1));
        older.originator = RouterId(1);
        let _ = speaker.recv_update(
            PeerRef::External(ExtPeerId(1)),
            BgpUpdate {
                announce: vec![older.into()],
                withdraw: vec![],
            },
            &igp,
        );
        let mut newer = BgpRoute::external(prefix, ExtPeerId(0), AsNum(100), RouterId(0));
        newer.originator = RouterId(0);
        let _ = speaker.recv_update(
            PeerRef::External(ExtPeerId(0)),
            BgpUpdate {
                announce: vec![newer.into()],
                withdraw: vec![],
            },
            &igp,
        );

        let rib = speaker.loc_rib();
        let best = rib.get(&prefix).expect("a best path exists");
        let why = match vendor {
            VendorProfile::Cisco => "Cisco keeps the OLDEST eBGP route",
            _ => "standard rule: lowest originator router-id wins",
        };
        println!(
            "  {vendor:?}: best path originator = {} ({why})",
            best.originator
        );
    }

    println!("\nweight is Cisco-only: give the worse route weight 100 and only");
    println!("the Cisco profile prefers it over a higher local-preference.\n");
    for vendor in [VendorProfile::Cisco, VendorProfile::Standard] {
        let mut cfg = BgpConfig::new(RouterId(2), AsNum(65000));
        cfg.vendor = vendor;
        cfg.sessions.push(SessionCfg {
            peer: PeerRef::External(ExtPeerId(0)),
            import: cpvr::bgp::RouteMap::set_all(vec![cpvr::bgp::SetAction::LocalPref(10)]),
            export: cpvr::bgp::RouteMap::permit_any(),
            weight: 100,
            ebgp: true,
            rr_client: false,
        });
        cfg.sessions.push(SessionCfg {
            peer: PeerRef::External(ExtPeerId(1)),
            import: cpvr::bgp::RouteMap::set_all(vec![cpvr::bgp::SetAction::LocalPref(200)]),
            export: cpvr::bgp::RouteMap::permit_any(),
            weight: 0,
            ebgp: true,
            rr_client: false,
        });
        let mut speaker = BgpInstance::new(cfg);
        for peer in [0u32, 1] {
            let route =
                BgpRoute::external(prefix, ExtPeerId(peer), AsNum(100 + peer), RouterId(peer));
            let _ = speaker.recv_update(
                PeerRef::External(ExtPeerId(peer)),
                BgpUpdate {
                    announce: vec![route.into()],
                    withdraw: vec![],
                },
                &igp,
            );
        }
        let rib = speaker.loc_rib();
        let best = rib.get(&prefix).unwrap();
        println!(
            "  {vendor:?}: selected LP={} via {:?}",
            best.local_pref, best.next_hop
        );
    }
}
