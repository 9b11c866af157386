//! Peer-frame codec properties (federation wire surface, kinds 12–15).
//!
//! The collector↔collector frames — [`PeerHello`], [`FrontierExchange`],
//! [`BoundaryEdges`], [`PartialVerdict`] — ride the same 12-byte
//! header + CRC envelope as router traffic and are always v2 JSON.
//! These tests pin the adversarial corners: round-tripping frontiers,
//! fold records and digest sets with degenerate times and ids,
//! arbitrary chunk boundaries, truncation, line garbage, and in-flight
//! corruption. A peer frame must decode to exactly what was sent or be
//! cleanly quarantined by the CRC/resync layer — never panic, never a
//! silently different frame. Member journals written before boundary
//! batches carried records hold whole events, hostile descriptions
//! included; those bodies must decode to the events' records. And a
//! live member must drop a boundary record naming a router outside
//! its plan instead of folding it.

use cpvr_bgp::PeerRef;
use cpvr_collector::client::{scrape_snapshot, SocketSink};
use cpvr_collector::codec::{
    append_frame_with, encode_frame, BoundaryEdges, Decoder, Frame, FrontierExchange,
    PartialVerdict, PeerHello, VERSION,
};
use cpvr_collector::collector::{Collector, CollectorConfig};
use cpvr_collector::federation::FederationConfig;
use cpvr_collector::wal::{wait_for, TempDir, WalConfig};
use cpvr_core::rules::KindClass;
use cpvr_core::{ConvDigest, FederationPlan, FoldRecord};
use cpvr_dataplane::FibAction;
use cpvr_sim::{EventId, IoEvent, IoKind, Proto};
use cpvr_topo::{ExtPeerId, LinkId};
use cpvr_types::json::{ToJson, Value};
use cpvr_types::{Ipv4Prefix, RouterId, SimTime, TraceCtx};
use proptest::prelude::*;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// JSON metacharacters, escapes, multi-byte UTF-8, and control bytes —
/// the payloads that break hand-rolled JSON first.
const DESC_PALETTE: &[char] = &[
    'a', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\0', '\u{7f}', 'é', '中', '🦀', '\u{202e}',
];

fn arb_desc() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..DESC_PALETTE.len(), 0..12)
        .prop_map(|idxs| idxs.into_iter().map(|i| DESC_PALETTE[i]).collect())
}

/// Times that stress ordering and encoding: arbitrary, zero, and the
/// MAX sentinel a bye turns into.
fn arb_time() -> impl Strategy<Value = SimTime> {
    prop_oneof![
        any::<u64>().prop_map(SimTime::from_nanos),
        any::<u64>().prop_map(SimTime::from_nanos),
        Just(SimTime::ZERO),
        Just(SimTime::MAX),
    ]
}

fn arb_frontier() -> impl Strategy<Value = Vec<(RouterId, Option<SimTime>)>> {
    prop::collection::vec(
        (
            any::<u32>().prop_map(RouterId),
            prop::option::of(arb_time()),
        ),
        0..24,
    )
}

fn arb_proto() -> impl Strategy<Value = Proto> {
    prop_oneof![
        Just(Proto::Bgp),
        Just(Proto::Ospf),
        Just(Proto::Rip),
        Just(Proto::Eigrp)
    ]
}

fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(bits, len)| Ipv4Prefix::from_bits(bits, len))
}

fn arb_digest() -> impl Strategy<Value = ConvDigest> {
    (
        any::<u32>().prop_map(RouterId),
        any::<u32>().prop_map(RouterId),
        arb_proto(),
        prop::option::of(arb_prefix()),
        any::<bool>(),
        arb_time(),
    )
        .prop_map(|(a, b, proto, prefix, is_send, time)| ConvDigest {
            key: (a, b, proto, prefix),
            is_send,
            time,
        })
}

fn arb_class() -> impl Strategy<Value = KindClass> {
    use KindClass::*;
    const ALL: [KindClass; 11] = [
        Config, Soft, Link, RecvAd, RecvWd, RibIn, RibRm, FibIn, FibRm, SendAd, SendWd,
    ];
    (0..ALL.len()).prop_map(|i| ALL[i])
}

fn arb_action() -> impl Strategy<Value = FibAction> {
    prop_oneof![
        any::<u32>().prop_map(|l| FibAction::Forward(LinkId(l))),
        any::<u32>().prop_map(|p| FibAction::Exit(ExtPeerId(p))),
        Just(FibAction::Local),
        Just(FibAction::Drop),
    ]
}

/// Any fold record an eager boundary batch can carry, including ids,
/// routers and peers no plan holds.
fn arb_record() -> impl Strategy<Value = FoldRecord> {
    (
        (arb_time(), any::<u32>(), any::<u32>(), arb_class()),
        (
            prop::option::of(arb_proto()),
            prop::option::of(arb_prefix()),
            prop::option::of(any::<u32>().prop_map(RouterId)),
            arb_action(),
        ),
    )
        .prop_map(
            |((time, id, router, class), (proto, prefix, peer, action))| FoldRecord {
                time,
                id: EventId(id),
                router: RouterId(router),
                class,
                proto,
                prefix,
                peer,
                action,
            },
        )
}

/// A compact event strategy for the old eager batch body, which carried
/// whole events — the full event codec surface is pinned by
/// `cross_codec.rs`; here the event is cargo inside the peer-frame
/// container.
fn arb_event() -> impl Strategy<Value = IoEvent> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
        prop::option::of(any::<u64>()),
        prop_oneof![
            arb_desc().prop_map(|desc| IoKind::SoftReconfig { desc }),
            (arb_proto(), prop::option::of(arb_prefix())).prop_map(|(proto, prefix)| {
                IoKind::RecvAdvert {
                    proto,
                    prefix,
                    from: None,
                    route: None,
                }
            }),
            (arb_proto(), arb_prefix(), any::<u32>()).prop_map(|(proto, prefix, to)| {
                IoKind::SendAdvert {
                    proto,
                    prefix: Some(prefix),
                    to: Some(PeerRef::Internal(RouterId(to))),
                    route: None,
                }
            }),
            (arb_proto(), arb_prefix())
                .prop_map(|(proto, prefix)| IoKind::RibRemove { proto, prefix }),
        ],
    )
        .prop_map(|(id, router, time, arrived, kind)| IoEvent {
            id: EventId(id),
            router: RouterId(router),
            time: SimTime::from_nanos(time),
            arrived_at: arrived.map(SimTime::from_nanos),
            kind,
        })
}

/// Optional trace contexts, including the all-zero and all-ones
/// corners (absent = untraced, the v2 compatibility path).
fn arb_trace() -> impl Strategy<Value = Option<TraceCtx>> {
    prop::option::of(
        (any::<u64>(), any::<u32>()).prop_map(|(trace_id, parent)| TraceCtx { trace_id, parent }),
    )
}

fn arb_peer_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(|(member, members, n_routers, session, first_seq)| {
                Frame::PeerHello(PeerHello {
                    member,
                    members,
                    n_routers,
                    session,
                    first_seq,
                })
            }),
        (
            any::<u32>(),
            any::<u64>(),
            prop::option::of(arb_time()),
            arb_frontier()
        )
            .prop_map(|(member, seq, min, frontier)| {
                Frame::FrontierExchange(FrontierExchange {
                    member,
                    seq,
                    min,
                    frontier,
                })
            }),
        (
            any::<u32>(),
            any::<u64>(),
            prop::option::of(arb_time()),
            prop::collection::vec(arb_record(), 0..6),
            prop::collection::vec(arb_digest(), 0..12),
            arb_trace(),
        )
            .prop_map(|(member, seq, round, records, digests, trace)| {
                Frame::BoundaryEdges(BoundaryEdges {
                    member,
                    seq,
                    round,
                    records,
                    digests,
                    trace,
                })
            }),
        (
            any::<u32>(),
            any::<u64>(),
            arb_time(),
            prop::collection::vec(any::<u32>().prop_map(RouterId), 0..16),
            arb_trace(),
        )
            .prop_map(|(member, seq, round, missing, trace)| {
                Frame::PartialVerdict(PartialVerdict {
                    member,
                    seq,
                    round,
                    missing,
                    trace,
                })
            }),
    ]
}

/// A kind-14 frame as members wrote it before boundary batches carried
/// records: the same object with `events` — `(origin_seq, event)`
/// pairs — in place of `records`.
fn old_boundary_frame(
    member: u32,
    seq: u64,
    events: &[(u64, IoEvent)],
    digests: &[ConvDigest],
    trace: Option<TraceCtx>,
) -> Vec<u8> {
    let mut fields = vec![
        ("member".to_string(), member.to_json()),
        ("seq".to_string(), seq.to_json()),
        ("round".to_string(), Value::Null),
        ("events".to_string(), events.to_vec().to_json()),
        ("digests".to_string(), digests.to_vec().to_json()),
    ];
    fields.extend(trace.map(|t| ("trace".to_string(), t.to_json())));
    let body = Value::Object(fields).render_compact();
    let mut out = Vec::new();
    append_frame_with(&mut out, VERSION, 14, |p| {
        p.extend_from_slice(body.as_bytes())
    });
    out
}

fn drain(dec: &mut Decoder) -> Vec<Frame> {
    let mut out = Vec::new();
    while let Some(msg) = dec.next_message(false) {
        if let Ok(m) = msg {
            out.push(m.frame);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every peer frame round-trips bit-exactly through the wire
    /// envelope regardless of how TCP fragments the byte stream.
    #[test]
    fn peer_frames_roundtrip_under_any_chunking(
        frames in prop::collection::vec(arb_peer_frame(), 1..5),
        chunk in 1usize..64,
    ) {
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode_frame(f));
        }
        let mut dec = Decoder::new();
        let mut decoded = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.feed(piece);
            decoded.extend(drain(&mut dec));
        }
        prop_assert_eq!(&decoded, &frames);
        prop_assert_eq!(dec.corrupt_frames(), 0);
        prop_assert_eq!(dec.pending(), 0);
    }

    /// A peer frame cut off mid-flight is held as a pending partial
    /// frame: no panic, no output, and the remainder completes it.
    #[test]
    fn truncated_peer_frames_stay_pending(frame in arb_peer_frame(), cut_frac in 0.0f64..1.0) {
        let bytes = encode_frame(&frame);
        let cut = ((bytes.len() as f64 * cut_frac) as usize).min(bytes.len() - 1);
        let mut dec = Decoder::new();
        dec.feed(&bytes[..cut]);
        prop_assert!(drain(&mut dec).is_empty(), "truncated frame must not decode");
        prop_assert_eq!(dec.corrupt_frames(), 0);
        dec.feed(&bytes[cut..]);
        prop_assert_eq!(drain(&mut dec), vec![frame]);
    }

    /// Arbitrary line noise never panics the decoder, and a valid peer
    /// frame behind magic-free garbage is recovered by the resync scan.
    #[test]
    fn garbage_then_peer_frame_resyncs(
        garbage in prop::collection::vec(
            // Remap the frame magic away so the resync scan can never
            // mistake noise for a header start.
            any::<u8>().prop_map(|b| if b == b'C' { b'X' } else { b }),
            0..128
        ),
        frame in arb_peer_frame(),
    ) {
        // Pure noise first: must only ever skip or buffer.
        let mut noise_only = Decoder::new();
        noise_only.feed(&garbage);
        let _ = drain(&mut noise_only);

        let mut dec = Decoder::new();
        dec.feed(&garbage);
        dec.feed(&encode_frame(&frame));
        prop_assert_eq!(drain(&mut dec), vec![frame]);
        prop_assert_eq!(dec.skipped_bytes(), garbage.len() as u64);
    }

    /// An old-form eager batch — whole events, hostile descriptions
    /// included — decodes to the records `FoldRecord::of` gives for its
    /// events, in order, with every other member intact: member
    /// journals written before records replaced events still recover.
    #[test]
    fn old_boundary_bodies_decode_to_their_records(
        member in any::<u32>(),
        seq in any::<u64>(),
        events in prop::collection::vec((any::<u64>(), arb_event()), 0..6),
        digests in prop::collection::vec(arb_digest(), 0..4),
        trace in arb_trace(),
    ) {
        let bytes = old_boundary_frame(member, seq, &events, &digests, trace);
        let got = Decoder::new().decode_record(&bytes).expect("an old body decodes");
        let want = Frame::BoundaryEdges(BoundaryEdges {
            member,
            seq,
            round: None,
            records: events.iter().map(|(_, e)| FoldRecord::of(e)).collect(),
            digests,
            trace,
        });
        prop_assert_eq!(got, want);
    }

    /// A byte flipped inside a peer frame's payload fails the CRC and
    /// the frame is quarantined — the neighbouring frame decodes
    /// unharmed, and the damaged one never surfaces as a different
    /// value.
    #[test]
    fn corrupted_peer_frames_are_quarantined(
        frame in arb_peer_frame(),
        flip in any::<u8>(),
    ) {
        let good = encode_frame(&frame);
        let mut bad = encode_frame(&frame);
        let last = bad.len() - 1;
        bad[last] ^= flip | 1;
        let mut dec = Decoder::new();
        dec.feed(&good);
        dec.feed(&bad);
        let decoded = drain(&mut dec);
        prop_assert_eq!(decoded, vec![frame]);
        prop_assert!(
            dec.corrupt_frames() + dec.skipped_bytes() > 0,
            "damage must be accounted as quarantine or resync skip"
        );
    }
}

/// A boundary record comes from outside the process, and a cross
/// builder sizes its per-router cells by the ids it folds: a record
/// naming a router (or peer) outside the plan must be dropped on
/// receipt, not folded. Member 0 of a two-member federation over three
/// routers takes one good record and two hostile ones from a raw
/// connection speaking for member 1, counts only the good one, and then
/// folds a whole round to the end of time.
#[test]
fn a_record_naming_a_router_outside_the_plan_is_dropped() {
    const N: u32 = 3;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind member 0");
    let addr = listener.local_addr().unwrap();
    // Member 1's address: member 0 dials it, and nobody ever answers.
    let silent = TcpListener::bind("127.0.0.1:0").expect("bind member 1");
    let wal = TempDir::new("peer-hostile-record").unwrap();
    let cfg = CollectorConfig::new(N)
        .with_wal(WalConfig::new(wal.path()))
        .with_federation(FederationConfig {
            plan: FederationPlan::uniform(2),
            member: 0,
            peers: vec![addr, silent.local_addr().unwrap()],
        });
    let handle = Collector::start_on(cfg, listener).expect("start member 0");

    // Router 1 is member 1's; a recv there from router 0 about
    // 10.0.0.0/8 is a conversation member 0 judges.
    let good = FoldRecord {
        time: SimTime::from_millis(5),
        id: EventId(40),
        router: RouterId(1),
        class: KindClass::RecvAd,
        proto: Some(Proto::Bgp),
        prefix: Some("10.0.0.0/8".parse().unwrap()),
        peer: Some(RouterId(0)),
        action: FibAction::Drop,
    };
    let far_router = FoldRecord {
        id: EventId(41),
        router: RouterId(u32::MAX),
        ..good
    };
    let far_peer = FoldRecord {
        id: EventId(42),
        peer: Some(RouterId(7)),
        ..good
    };
    let end = SimTime::MAX;
    let frames = [
        Frame::PeerHello(PeerHello {
            member: 1,
            members: 2,
            n_routers: N,
            session: 0xfeed,
            first_seq: 1,
        }),
        Frame::BoundaryEdges(BoundaryEdges {
            member: 1,
            seq: 1,
            round: None,
            records: vec![far_router, good, far_peer],
            digests: Vec::new(),
            trace: None,
        }),
        Frame::FrontierExchange(FrontierExchange {
            member: 1,
            seq: 2,
            min: Some(end),
            frontier: vec![(RouterId(1), Some(end))],
        }),
        Frame::BoundaryEdges(BoundaryEdges {
            member: 1,
            seq: 3,
            round: Some(end),
            records: Vec::new(),
            digests: Vec::new(),
            trace: None,
        }),
        Frame::PartialVerdict(PartialVerdict {
            member: 1,
            seq: 4,
            round: end,
            missing: Vec::new(),
            trace: None,
        }),
    ];
    let mut peer = TcpStream::connect(addr).expect("connect as member 1");
    for f in &frames {
        peer.write_all(&encode_frame(f)).expect("write peer frame");
    }
    let received = || {
        scrape_snapshot(addr)
            .map(|s| s.counter_total("cpvr_boundary_events_received_total"))
            .unwrap_or(0)
    };
    assert!(
        wait_for(Duration::from_secs(10), || received() == 1),
        "member 0 accepted {} boundary records, expected 1",
        received()
    );

    // Member 0's own routers finish; the round at the end of time then
    // folds the accepted record.
    let sinks: Vec<SocketSink> = [0, 2]
        .into_iter()
        .map(|r| {
            let mut sink = SocketSink::connect(addr, RouterId(r), N).expect("connect source");
            sink.bye().expect("bye");
            sink
        })
        .collect();
    assert!(
        wait_for(Duration::from_secs(10), || handle.stats().watermark
            == Some(end)),
        "member 0 never completed the round: {:?}",
        handle.stats()
    );
    drop(sinks);
    drop(peer);
    let report = handle.shutdown().expect("clean shutdown");
    assert_eq!(report.pipeline.watermark(), Some(end));
    let snap = report.metrics.expect("shutdown snapshot");
    assert_eq!(snap.counter_total("cpvr_boundary_events_received_total"), 1);
}
