//! Round-trip property test for the captured-event encoding: for every
//! [`IoKind`] variant, `IoEvent -> ToJson -> render -> parse -> FromJson`
//! must be the identity. The collector's wire codec and its write-ahead
//! log both persist events in exactly this encoding, so any asymmetry
//! here silently corrupts recovered state.

use cpvr_bgp::{
    BgpRoute, Clause, ConfigChange, MatchCond, NextHop, Origin, PeerRef, RouteMap, SessionCfg,
    SetAction,
};
use cpvr_dataplane::FibAction;
use cpvr_sim::{EventId, IoEvent, IoKind, Proto};
use cpvr_topo::{ExtPeerId, LinkId};
use cpvr_types::json::{from_str, to_string_compact, to_string_pretty};
use cpvr_types::{AsNum, Ipv4Prefix, RouterId, SimTime};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(bits, len)| Ipv4Prefix::from_bits(bits, len))
}

fn arb_proto() -> impl Strategy<Value = Proto> {
    prop_oneof![
        Just(Proto::Bgp),
        Just(Proto::Ospf),
        Just(Proto::Rip),
        Just(Proto::Eigrp),
    ]
}

fn arb_peer() -> impl Strategy<Value = PeerRef> {
    prop_oneof![
        (0u32..16).prop_map(|r| PeerRef::Internal(RouterId(r))),
        (0u32..16).prop_map(|p| PeerRef::External(ExtPeerId(p))),
    ]
}

fn arb_fib_action() -> impl Strategy<Value = FibAction> {
    prop_oneof![
        (0u32..8).prop_map(|l| FibAction::Forward(LinkId(l))),
        (0u32..8).prop_map(|p| FibAction::Exit(ExtPeerId(p))),
        Just(FibAction::Local),
        Just(FibAction::Drop),
    ]
}

fn arb_route() -> impl Strategy<Value = Arc<BgpRoute>> {
    (
        arb_prefix(),
        prop_oneof![
            (0u32..16).prop_map(|p| NextHop::External(ExtPeerId(p))),
            (0u32..16).prop_map(|r| NextHop::Router(RouterId(r))),
        ],
        any::<u32>(),
        prop::collection::vec((1u32..65536).prop_map(AsNum), 0..4),
        prop_oneof![
            Just(Origin::Igp),
            Just(Origin::Egp),
            Just(Origin::Incomplete)
        ],
        any::<u32>(),
        prop::collection::vec(any::<u32>(), 0..4),
        0u32..16,
    )
        .prop_map(
            |(prefix, next_hop, local_pref, as_path, origin, med, comms, originator)| {
                Arc::new(BgpRoute {
                    prefix,
                    next_hop,
                    local_pref,
                    as_path,
                    origin,
                    med,
                    communities: comms.into_iter().collect::<BTreeSet<u32>>(),
                    originator: RouterId(originator),
                })
            },
        )
}

fn arb_match_cond() -> impl Strategy<Value = MatchCond> {
    prop_oneof![
        arb_prefix().prop_map(MatchCond::PrefixIn),
        arb_prefix().prop_map(MatchCond::PrefixEq),
        any::<u32>().prop_map(MatchCond::HasCommunity),
        (1u32..65536).prop_map(|a| MatchCond::AsPathContains(AsNum(a))),
        (0usize..10).prop_map(MatchCond::AsPathLenAtMost),
    ]
}

fn arb_set_action() -> impl Strategy<Value = SetAction> {
    prop_oneof![
        any::<u32>().prop_map(SetAction::LocalPref),
        any::<u32>().prop_map(SetAction::Med),
        any::<u32>().prop_map(SetAction::AddCommunity),
        any::<u32>().prop_map(SetAction::RemoveCommunity),
        ((1u32..65536).prop_map(AsNum), 0usize..4).prop_map(|(a, n)| SetAction::Prepend(a, n)),
    ]
}

fn arb_route_map() -> impl Strategy<Value = RouteMap> {
    prop::collection::vec(
        (
            prop::collection::vec(arb_match_cond(), 0..3),
            any::<bool>(),
            prop::collection::vec(arb_set_action(), 0..3),
        )
            .prop_map(|(matches, permit, sets)| Clause {
                matches,
                permit,
                sets,
            }),
        0..3,
    )
    .prop_map(|clauses| RouteMap { clauses })
}

fn arb_config_change() -> impl Strategy<Value = ConfigChange> {
    prop_oneof![
        (arb_peer(), arb_route_map()).prop_map(|(peer, map)| ConfigChange::SetImport { peer, map }),
        (arb_peer(), arb_route_map()).prop_map(|(peer, map)| ConfigChange::SetExport { peer, map }),
        (arb_peer(), any::<u32>())
            .prop_map(|(peer, weight)| ConfigChange::SetWeight { peer, weight }),
        any::<bool>().prop_map(ConfigChange::SetAddPath),
        (
            arb_peer(),
            arb_route_map(),
            arb_route_map(),
            any::<u32>(),
            any::<bool>(),
            any::<bool>()
        )
            .prop_map(|(peer, import, export, weight, ebgp, rr_client)| {
                ConfigChange::AddSession(Box::new(SessionCfg {
                    peer,
                    import,
                    export,
                    weight,
                    ebgp,
                    rr_client,
                }))
            }),
        arb_peer().prop_map(ConfigChange::RemoveSession),
    ]
}

/// Short printable strings, including characters the JSON writer must
/// escape.
fn arb_desc() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![
            Just('a'),
            Just('Z'),
            Just('0'),
            Just(' '),
            Just('"'),
            Just('\\'),
            Just('\n'),
            Just('\t'),
            Just('é'),
            Just('→'),
        ],
        0..12,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

/// One strategy per [`IoKind`] variant — every arm of the enum is
/// guaranteed coverage because `prop_oneof!` picks arms uniformly and we
/// run hundreds of cases.
fn arb_kind() -> impl Strategy<Value = IoKind> {
    prop_oneof![
        (
            arb_desc(),
            prop::option::of(arb_config_change()),
            prop::option::of(arb_config_change())
        )
            .prop_map(|(desc, change, inverse)| IoKind::ConfigChange {
                desc,
                change,
                inverse
            }),
        arb_desc().prop_map(|desc| IoKind::SoftReconfig { desc }),
        (
            arb_desc(),
            any::<bool>(),
            prop::option::of((0u32..8).prop_map(LinkId)),
            prop::option::of((0u32..8).prop_map(ExtPeerId))
        )
            .prop_map(|(desc, up, link, peer)| IoKind::LinkStatus {
                desc,
                up,
                link,
                peer
            }),
        (
            arb_proto(),
            prop::option::of(arb_prefix()),
            prop::option::of(arb_peer()),
            prop::option::of(arb_route())
        )
            .prop_map(|(proto, prefix, from, route)| IoKind::RecvAdvert {
                proto,
                prefix,
                from,
                route
            }),
        (
            arb_proto(),
            prop::option::of(arb_prefix()),
            prop::option::of(arb_peer())
        )
            .prop_map(|(proto, prefix, from)| IoKind::RecvWithdraw {
                proto,
                prefix,
                from
            }),
        (arb_proto(), arb_prefix(), prop::option::of(arb_route())).prop_map(
            |(proto, prefix, route)| IoKind::RibInstall {
                proto,
                prefix,
                route
            }
        ),
        (arb_proto(), arb_prefix()).prop_map(|(proto, prefix)| IoKind::RibRemove { proto, prefix }),
        (arb_prefix(), arb_fib_action())
            .prop_map(|(prefix, action)| IoKind::FibInstall { prefix, action }),
        arb_prefix().prop_map(|prefix| IoKind::FibRemove { prefix }),
        (
            arb_proto(),
            prop::option::of(arb_prefix()),
            prop::option::of(arb_peer()),
            prop::option::of(arb_route())
        )
            .prop_map(|(proto, prefix, to, route)| IoKind::SendAdvert {
                proto,
                prefix,
                to,
                route
            }),
        (
            arb_proto(),
            prop::option::of(arb_prefix()),
            prop::option::of(arb_peer())
        )
            .prop_map(|(proto, prefix, to)| IoKind::SendWithdraw { proto, prefix, to }),
    ]
}

fn arb_event() -> impl Strategy<Value = IoEvent> {
    (
        any::<u32>(),
        0u32..64,
        any::<u64>(),
        prop::option::of(any::<u64>()),
        arb_kind(),
    )
        .prop_map(|(id, router, t, arrived, kind)| IoEvent {
            id: EventId(id),
            router: RouterId(router),
            time: SimTime::from_nanos(t),
            arrived_at: arrived.map(SimTime::from_nanos),
            kind,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn io_event_json_roundtrip_is_identity(e in arb_event()) {
        let text = to_string_pretty(&e);
        let back: IoEvent = from_str(&text).expect("own output must parse");
        prop_assert_eq!(&back, &e);
        // The compact rendering (the collector's wire/WAL encoding)
        // must round-trip identically too.
        let compact = to_string_compact(&e);
        let back: IoEvent = from_str(&compact).expect("compact output must parse");
        prop_assert_eq!(back, e);
    }
}

/// Deterministic belt-and-braces coverage: one hand-built event per
/// `IoKind` variant, so a regression in any single variant fails by name
/// even if the random generator were biased.
#[test]
fn every_variant_roundtrips() {
    let p: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
    let route = Arc::new(BgpRoute {
        prefix: p,
        next_hop: NextHop::Router(RouterId(1)),
        local_pref: 200,
        as_path: vec![AsNum(65001), AsNum(65002)],
        origin: Origin::Igp,
        med: 5,
        communities: [7u32, 8].into_iter().collect(),
        originator: RouterId(2),
    });
    let change = ConfigChange::SetWeight {
        peer: PeerRef::Internal(RouterId(0)),
        weight: 50,
    };
    let kinds = vec![
        IoKind::ConfigChange {
            desc: "set \"weight\"\n".into(),
            change: Some(change.clone()),
            inverse: Some(change),
        },
        IoKind::SoftReconfig {
            desc: "re-run".into(),
        },
        IoKind::LinkStatus {
            desc: "L0 down".into(),
            up: false,
            link: Some(LinkId(0)),
            peer: Some(ExtPeerId(1)),
        },
        IoKind::RecvAdvert {
            proto: Proto::Bgp,
            prefix: Some(p),
            from: Some(PeerRef::External(ExtPeerId(0))),
            route: Some(route.clone()),
        },
        IoKind::RecvWithdraw {
            proto: Proto::Rip,
            prefix: Some(p),
            from: Some(PeerRef::Internal(RouterId(1))),
        },
        IoKind::RibInstall {
            proto: Proto::Bgp,
            prefix: p,
            route: Some(route.clone()),
        },
        IoKind::RibRemove {
            proto: Proto::Ospf,
            prefix: p,
        },
        IoKind::FibInstall {
            prefix: p,
            action: FibAction::Forward(LinkId(2)),
        },
        IoKind::FibRemove { prefix: p },
        IoKind::SendAdvert {
            proto: Proto::Bgp,
            prefix: Some(p),
            to: Some(PeerRef::Internal(RouterId(2))),
            route: Some(route),
        },
        IoKind::SendWithdraw {
            proto: Proto::Eigrp,
            prefix: None,
            to: None,
        },
    ];
    for (i, kind) in kinds.into_iter().enumerate() {
        let e = IoEvent {
            id: EventId(i as u32),
            router: RouterId(i as u32 % 3),
            time: SimTime::from_micros(i as u64 * 17),
            arrived_at: (i % 2 == 0).then(|| SimTime::from_micros(i as u64 * 17 + 3)),
            kind,
        };
        let text = to_string_pretty(&e);
        let back: IoEvent = from_str(&text).unwrap_or_else(|err| panic!("variant {i}: {err}"));
        assert_eq!(back, e, "variant {i}");
        let compact = to_string_compact(&e);
        let back: IoEvent =
            from_str(&compact).unwrap_or_else(|err| panic!("variant {i} compact: {err}"));
        assert_eq!(back, e, "variant {i} compact");
        // A shared route is written as the route: the text recorded when
        // events held their routes by value.
        if i == 3 {
            assert_eq!(compact, RECV_ADVERT_JSON);
        }
    }
}

const RECV_ADVERT_JSON: &str = concat!(
    r#"{"id":3,"router":0,"time":51000,"arrived_at":null,"kind":{"RecvAdvert":{"proto":"Bgp","#,
    r#""prefix":"10.0.0.0/8","from":{"External":0},"route":{"prefix":"10.0.0.0/8","#,
    r#""next_hop":{"Router":1},"local_pref":200,"as_path":[65001,65002],"origin":"Igp","#,
    r#""med":5,"communities":[7,8],"originator":2}}}}"#,
);
