//! The event codec's oracle: every [`IoEvent`] round-trips through the
//! v3 (binary/interned) encoding to the identical value, including
//! adversarial description strings and degenerate prefixes; the bytes
//! of both on-disk event bodies are pinned; and the v3 decoder rejects
//! truncated or corrupted input cleanly (quarantine or typed error,
//! never a panic, never a silently wrong event). That the JSON body a
//! v2 journal holds round-trips any event is `cpvr-sim`'s
//! `prop_io_json.rs`.

use cpvr_bgp::{BgpRoute, ConfigChange, NextHop, Origin, PeerRef};
use cpvr_collector::codec::{
    encode_frame, CodecError, CodecVersion, Decoder, EventEncoder, Frame, HEADER_LEN,
};
use cpvr_dataplane::FibAction;
use cpvr_sim::wire;
use cpvr_sim::{EventId, IoEvent, IoKind, Proto};
use cpvr_topo::{ExtPeerId, LinkId};
use cpvr_types::intern::InternStore;
use cpvr_types::{AsNum, Ipv4Prefix, RouterId, SimTime};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Characters chosen to stress the interned-string path (multi-byte
/// UTF-8, embedded NULs) and the JSON blobs a body can carry
/// (metacharacters and escapes).
const DESC_PALETTE: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\0', '\u{7f}', 'é', 'λ', '中', '🦀',
    '\u{202e}', '\u{fffd}',
];

fn arb_desc() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..DESC_PALETTE.len(), 0..16)
        .prop_map(|idxs| idxs.into_iter().map(|i| DESC_PALETTE[i]).collect())
}

fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    // from_bits masks host bits, so any (bits, len) pair is valid —
    // including /0 and /32 edge cases.
    (any::<u32>(), 0u8..=32).prop_map(|(bits, len)| Ipv4Prefix::from_bits(bits, len))
}

fn arb_proto() -> impl Strategy<Value = Proto> {
    prop_oneof![
        Just(Proto::Bgp),
        Just(Proto::Ospf),
        Just(Proto::Rip),
        Just(Proto::Eigrp)
    ]
}

fn arb_peer() -> impl Strategy<Value = PeerRef> {
    prop_oneof![
        any::<u32>().prop_map(|r| PeerRef::Internal(RouterId(r))),
        any::<u32>().prop_map(|p| PeerRef::External(ExtPeerId(p))),
    ]
}

fn arb_origin() -> impl Strategy<Value = Origin> {
    prop_oneof![
        Just(Origin::Igp),
        Just(Origin::Egp),
        Just(Origin::Incomplete)
    ]
}

fn arb_route() -> impl Strategy<Value = Arc<BgpRoute>> {
    (
        arb_prefix(),
        prop_oneof![
            any::<u32>().prop_map(|p| NextHop::External(ExtPeerId(p))),
            any::<u32>().prop_map(|r| NextHop::Router(RouterId(r))),
        ],
        any::<u32>(),
        prop::collection::vec(any::<u32>().prop_map(AsNum), 0..6),
        arb_origin(),
        any::<u32>(),
        prop::collection::vec(any::<u32>(), 0..6).prop_map(BTreeSet::from_iter),
        any::<u32>(),
    )
        .prop_map(
            |(prefix, next_hop, local_pref, as_path, origin, med, communities, originator)| {
                Arc::new(BgpRoute {
                    prefix,
                    next_hop,
                    local_pref,
                    as_path,
                    origin,
                    med,
                    communities,
                    originator: RouterId(originator),
                })
            },
        )
}

fn arb_change() -> impl Strategy<Value = ConfigChange> {
    prop_oneof![
        (arb_peer(), any::<u32>())
            .prop_map(|(peer, weight)| ConfigChange::SetWeight { peer, weight }),
        any::<bool>().prop_map(ConfigChange::SetAddPath),
    ]
}

fn arb_kind() -> impl Strategy<Value = IoKind> {
    prop_oneof![
        (
            arb_desc(),
            prop::option::of(arb_change()),
            prop::option::of(arb_change())
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
            prop::option::of(any::<u32>().prop_map(LinkId)),
            prop::option::of(any::<u32>().prop_map(ExtPeerId))
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
        (
            arb_prefix(),
            prop_oneof![
                any::<u32>().prop_map(|l| FibAction::Forward(LinkId(l))),
                any::<u32>().prop_map(|p| FibAction::Exit(ExtPeerId(p))),
                Just(FibAction::Local),
                Just(FibAction::Drop),
            ]
        )
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
        any::<u32>(),
        any::<u64>(),
        prop::option::of(any::<u64>()),
        arb_kind(),
    )
        .prop_map(|(id, router, time, arrived, kind)| IoEvent {
            id: EventId(id),
            router: RouterId(router),
            time: SimTime::from_nanos(time),
            arrived_at: arrived.map(SimTime::from_nanos),
            kind,
        })
}

/// Encodes `events`, numbered from 0, with one per-connection encoder.
fn encode(events: &[IoEvent]) -> Vec<u8> {
    let mut enc = EventEncoder::new(CodecVersion::V3);
    let mut stream = Vec::new();
    for (i, e) in events.iter().enumerate() {
        enc.encode_into(i as u64, e, &mut stream);
    }
    stream
}

/// Decodes an event stream back through one collector-side [`Decoder`],
/// asserting the sequence numbers arrive in order.
fn decode(stream: &[u8]) -> Vec<IoEvent> {
    let mut dec = Decoder::new();
    dec.feed(stream);
    let mut out = Vec::new();
    while let Some(msg) = dec.next_message(false) {
        match msg.expect("clean stream must decode").frame {
            Frame::Event { seq, event } => {
                assert_eq!(seq, out.len() as u64, "sequence order preserved");
                out.push(event);
            }
            Frame::Intern(_) => {}
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(dec.corrupt_frames(), 0);
    assert_eq!(dec.pending(), 0);
    out
}

/// The bytes on the wire do not depend on how a route is held in memory:
/// one hand-built event per route-bearing variant, in each event body —
/// the sender's v3 on a fresh connection, and the v2 JSON rendering old
/// journals hold (`encode_frame`'s legacy form; byte for byte what the
/// v2 sender wrote) — is pinned as `(stream length, FNV-1a 64)`: values
/// recorded on the commit before captured routes became shared
/// (`Option<Arc<BgpRoute>>`, was `Option<BgpRoute>`).
#[test]
fn route_bearing_events_keep_their_wire_bytes() {
    let prefix: Ipv4Prefix = "100.0.7.0/24".parse().unwrap();
    let route = Arc::new(BgpRoute {
        prefix,
        next_hop: NextHop::Router(RouterId(3)),
        local_pref: 200,
        as_path: vec![AsNum(65000), AsNum(100)],
        origin: Origin::Egp,
        med: 17,
        communities: BTreeSet::from([12, 65000]),
        originator: RouterId(3),
    });
    let proto = Proto::Bgp;
    let kinds = [
        IoKind::RecvAdvert {
            proto,
            prefix: Some(prefix),
            from: Some(PeerRef::Internal(RouterId(3))),
            route: Some(Arc::clone(&route)),
        },
        IoKind::RibInstall {
            proto,
            prefix,
            route: Some(Arc::clone(&route)),
        },
        IoKind::SendAdvert {
            proto,
            prefix: Some(prefix),
            to: Some(PeerRef::External(ExtPeerId(1))),
            route: Some(route),
        },
    ];
    let events: Vec<IoEvent> = (0u32..)
        .zip(kinds)
        .map(|(i, kind)| IoEvent {
            id: EventId(i),
            router: RouterId(2),
            time: SimTime::from_micros(1_000 + u64::from(i)),
            arrived_at: Some(SimTime::from_micros(1_500 + u64::from(i))),
            kind,
        })
        .collect();
    let v2: Vec<u8> = (0u64..)
        .zip(&events)
        .flat_map(|(seq, e)| {
            let event = e.clone();
            encode_frame(&Frame::Event { seq, event })
        })
        .collect();
    for (version, stream, want) in [
        ("v2", v2, (936usize, 2_092_260_921_727_305_870u64)),
        ("v3", encode(&events), (161, 11_849_076_264_737_931_050)),
    ] {
        let fnv = stream.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!((stream.len(), fnv), want, "{version} stream moved");
        assert_eq!(decode(&stream), events);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The oracle at the codec layer: every random event decodes back
    /// to itself, so the fold sees exactly what the tap captured. Like
    /// a real connection, each stream carries one router's tap — the
    /// encoder's intern table is connection-scoped and definitions are
    /// keyed by that router.
    #[test]
    fn events_roundtrip_to_the_identical_event(
        events in prop::collection::vec(arb_event(), 1..8),
        router in any::<u32>()
    ) {
        let events: Vec<IoEvent> = events
            .into_iter()
            .map(|mut e| {
                e.router = RouterId(router);
                e
            })
            .collect();
        prop_assert_eq!(&decode(&encode(&events)), &events);
    }

    /// The raw v3 body decoder on arbitrary bytes: typed error or valid
    /// event, never a panic — truncation, hostile lengths, and bad tags
    /// are all somebody else's CRC-passing garbage by the time this
    /// layer runs.
    #[test]
    fn v3_body_decoder_never_panics_on_garbage(
        bytes in prop::collection::vec(any::<u8>(), 0..256)
    ) {
        let _ = wire::decode_event(&bytes, &InternStore::new());
        let _ = wire::decode_intern_def(&bytes);
    }

    /// A valid v3 event body truncated at any point must produce an
    /// error, never a panic and never a different event.
    #[test]
    fn truncated_v3_bodies_error_cleanly(event in arb_event(), cut_frac in 0.0f64..1.0) {
        let mut enc = EventEncoder::new(CodecVersion::V3);
        let mut stream = Vec::new();
        enc.encode_into(5, &event, &mut stream);
        // Pull the event frame's body (the last frame) out of the
        // stream, and build the store the frames before it define, so
        // the only failure mode under test is the truncation itself.
        let mut dec = Decoder::new();
        dec.feed(&stream);
        let mut store = InternStore::new();
        let mut body = Vec::new();
        while let Some(msg) = dec.next_message(true) {
            let msg = msg.expect("clean stream");
            if let Frame::Intern(d) = &msg.frame {
                store.apply(d.router, d.space, d.symbol, &d.bytes);
            }
            body = msg.raw.expect("raw requested")[HEADER_LEN..].to_vec();
        }
        let cut = (body.len() as f64 * cut_frac) as usize;
        if cut < body.len() {
            prop_assert!(wire::decode_event(&body[..cut], &store).is_err());
        }
        // And the intact body still decodes to the original.
        let (seq, decoded) = wire::decode_event(&body, &store).expect("intact body");
        prop_assert_eq!(seq, 5);
        prop_assert_eq!(decoded, event);
    }

    /// A corrupted v3 frame in the middle of a stream is quarantined by
    /// the CRC/resync layer or rejected as a typed wire error; the
    /// surrounding frames decode unharmed either way.
    #[test]
    fn corrupted_v3_frames_are_quarantined(event in arb_event(), flip_byte in any::<u8>()) {
        let mut enc = EventEncoder::new(CodecVersion::V3);
        let mut stream = Vec::new();
        enc.encode_into(0, &event, &mut stream);
        let good_len = stream.len();
        enc.encode_into(1, &event, &mut stream);
        // Damage the second copy's payload tail.
        let last = stream.len() - 1;
        stream[last] ^= flip_byte | 1;
        let mut dec = Decoder::new();
        dec.feed(&stream[..good_len]);
        dec.feed(&stream[good_len..]);
        let mut seqs = Vec::new();
        loop {
            match dec.next_message(false) {
                Some(Ok(msg)) => {
                    if let Frame::Event { seq, event: e } = msg.frame {
                        prop_assert_eq!(&e, &event);
                        seqs.push(seq);
                    }
                }
                Some(Err(CodecError::Wire(_))) => {}
                Some(Err(e)) => panic!("unexpected decode error: {e}"),
                None => break,
            }
        }
        prop_assert!(seqs.contains(&0), "undamaged frame must survive: {seqs:?}");
        prop_assert!(!seqs.contains(&1), "damaged frame must not decode");
    }
}

/// Every binary body is strict at both ends: each proper prefix and each
/// one-byte extension of a well-formed body is an error — never a
/// panic, never a value. The bodies: a v3 event (a config change with
/// its JSON blob, and a route-bearing advert, each untraced and
/// traced), an intern definition, a repair record with and without its
/// trace trailer, the golden binary proof, and every fixed-size control
/// frame.
#[test]
fn every_binary_body_rejects_each_prefix_and_extension() {
    use cpvr_collector::codec::{append_frame_with, RepairRecord, RepairStage, VERSION};
    use cpvr_core::RepairProof;
    use cpvr_types::{Interns, TraceCtx};

    /// Asserts `decode` fails on every proper prefix of `body` (except
    /// the lengths in `valid_prefixes`) and on every one-byte extension.
    fn sweep<T: std::fmt::Debug, E>(
        what: &str,
        body: &[u8],
        valid_prefixes: &[usize],
        decode: impl Fn(&[u8]) -> Result<T, E>,
    ) {
        assert!(decode(body).is_ok(), "{what}: the intact body decodes");
        for cut in (0..body.len()).filter(|c| !valid_prefixes.contains(c)) {
            if let Ok(v) = decode(&body[..cut]) {
                panic!("{what}: the {cut}-byte prefix decoded to {v:?}");
            }
        }
        let mut longer = body.to_vec();
        longer.push(0);
        for b in 0..=u8::MAX {
            *longer.last_mut().unwrap() = b;
            if let Ok(v) = decode(&longer) {
                panic!("{what}: extension by {b:#04x} decoded to {v:?}");
            }
        }
    }

    let prefix: Ipv4Prefix = "10.1.0.0/16".parse().unwrap();
    let events = [
        IoEvent {
            id: EventId(3),
            router: RouterId(2),
            time: SimTime::from_nanos(1_234_567),
            arrived_at: Some(SimTime::from_nanos(1_300_000)),
            kind: IoKind::ConfigChange {
                desc: "set weight".into(),
                change: Some(ConfigChange::SetWeight {
                    peer: PeerRef::External(ExtPeerId(4)),
                    weight: 200,
                }),
                inverse: None,
            },
        },
        IoEvent {
            id: EventId(9),
            router: RouterId(2),
            time: SimTime::from_nanos(2_000_000),
            arrived_at: None,
            kind: IoKind::RecvAdvert {
                proto: Proto::Bgp,
                prefix: Some(prefix),
                from: Some(PeerRef::Internal(RouterId(1))),
                route: Some(Arc::new(BgpRoute {
                    prefix,
                    next_hop: NextHop::Router(RouterId(1)),
                    local_pref: 150,
                    as_path: vec![AsNum(65001), AsNum(65002)],
                    origin: Origin::Egp,
                    med: 7,
                    communities: [1u32, 300].into_iter().collect(),
                    originator: RouterId(1),
                })),
            },
        },
    ];
    let mut interns = Interns::new();
    let mut defs = Vec::new();
    let mut store = InternStore::new();
    for (i, event) in events.iter().enumerate() {
        for trace in [None, Some(TraceCtx::for_flight(5, i as u64))] {
            let mut body = Vec::new();
            wire::encode_event_traced(40, event, trace, &mut interns, &mut defs, &mut body);
            for d in defs.drain(..) {
                assert!(store.apply(d.router, d.space, d.symbol, &d.bytes));
                let mut payload = Vec::new();
                wire::encode_intern_def(&d, &mut payload);
                sweep("intern definition", &payload, &[], wire::decode_intern_def);
            }
            let what = format!("event {i} (traced: {})", trace.is_some());
            sweep(&what, &body, &[], |b| wire::decode_event_traced(b, &store));
        }
    }

    let record = RepairRecord {
        repair_id: 0xca3a_6b15_ec2e_e15f,
        stage: RepairStage::Gated,
        at: SimTime::from_millis(3),
        verdict: Some(1),
        proof: vec![3, 1, 4, 1, 5],
        trace: None,
    };
    let plain = record.encode_payload();
    sweep("repair record", &plain, &[], RepairRecord::decode_payload);
    let traced = RepairRecord {
        trace: Some(TraceCtx::for_repair(record.repair_id)),
        ..record.clone()
    };
    // The trailer carries no flag: the traced record cut right before it
    // is the untraced record, by design.
    let traced_bytes = traced.encode_payload();
    assert_eq!(
        RepairRecord::decode_payload(&traced_bytes[..plain.len()]).unwrap(),
        record
    );
    sweep(
        "traced repair record",
        &traced_bytes,
        &[plain.len()],
        RepairRecord::decode_payload,
    );

    // The golden vector of `golden_frames.rs`: `RepairProof::encode_binary`.
    let proof_hex = "\
        03c9017b22726f75746572223a302c22616374696f6e223a7b224e6f746966794f70657261746f72\
        223a22676f6c64656e20766563746f72227d2c22726f6f74223a7b226576656e74223a312c22726f\
        75746572223a302c2274696d65223a313030303030302c226b696e64223a7b22436f6e6669674368\
        616e6765223a7b226368616e6765223a6e756c6c2c22696e7665727365223a6e756c6c7d7d2c2263\
        6f6e666964656e6365223a312e307d2c22726174696f6e616c65223a22676f6c64656e2076656374\
        6f72227d029a9999999999e93f010100c0843d0df0ed5e0000000001138d08b15fc479cd00000000\
        000000000000000000";
    let proof: Vec<u8> = (0..proof_hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&proof_hex[i..i + 2], 16).unwrap())
        .collect();
    sweep("binary proof", &proof, &[], RepairProof::decode_binary);

    // Fixed-size control frames: each payload re-framed with a valid CRC,
    // so only the payload's length is wrong.
    for frame in [
        Frame::Watermark {
            t: SimTime::from_millis(9),
            frontier: 12,
        },
        Frame::Bye { frontier: 12 },
        Frame::Ack { upto: 12 },
        Frame::Heartbeat,
        Frame::Evict {
            source: RouterId(2),
        },
        Frame::Admit {
            source: RouterId(2),
        },
        Frame::Fin,
        Frame::MetricsReq { format: 1 },
        Frame::DumpReq,
    ] {
        let kind = frame.kind();
        let payload = encode_frame(&frame)[HEADER_LEN..].to_vec();
        sweep(&format!("{frame:?}"), &payload, &[], |p| {
            let mut record = Vec::new();
            append_frame_with(&mut record, VERSION, kind, |out| out.extend_from_slice(p));
            Decoder::new().decode_record(&record)
        });
    }
}
