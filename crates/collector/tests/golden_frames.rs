//! Golden vectors: the exact bytes of every frame kind (0–19), one
//! framed WAL record and one binary repair proof.
//!
//! The hex below was **generated on the parent of PR 24** (commit
//! 0bd0c59) — with that commit's `encode_frame`, `EventEncoder` (v3),
//! `append_frame_with`, `Wal` and `RepairProof::encode_binary`, from the
//! same values this file builds — and pasted in unedited. PR 24 removed
//! the v2 sender and folded three header parsers into one; this file is
//! its proof that no encoding moved, and from here on the pin that none
//! does by accident. Each vector is checked both ways: the encoder
//! (where one exists) reproduces it byte for byte, and the one parser
//! decodes it back to the value.
//!
//! Never re-record to make a change pass. A deliberate format change
//! adds a vector and keeps the old one decoding (journals hold it).

use cpvr_bgp::{BgpRoute, NextHop, Origin};
use cpvr_collector::codec::{
    encode_frame, BoundaryEdges, CodecVersion, Decoder, EventEncoder, Frame, FrontierExchange,
    Hello, PartialVerdict, PeerHello, PeerRepairProof, RepairRecord, RepairStage,
};
use cpvr_collector::wal::{self, TempDir, Wal, WalConfig};
use cpvr_core::provenance::{RootCause, RootCauseKind};
use cpvr_core::repair::RepairAction;
use cpvr_core::rules::KindClass;
use cpvr_core::snapshot::ConvDigest;
use cpvr_core::{chain_over, FoldRecord, ProvenanceHop, RepairPlan, RepairProof};
use cpvr_dataplane::FibAction;
use cpvr_sim::wire::InternDef;
use cpvr_sim::{EventId, IoEvent, IoKind, Proto};
use cpvr_topo::LinkId;
use cpvr_types::{AsNum, RouterId, SimTime, TraceCtx};
use cpvr_verify::ReplayTranscript;
use std::collections::BTreeSet;
use std::sync::Arc;

// Kind 0. New hellos always say `"codec":3`; journals also hold hellos
// that say 2 and hellos from before the member existed.
const HELLO: &str = "\
     4357020048000000a73132157b22736f75726365223a312c226e5f726f7574657273223a332c2273\
     657373696f6e223a343237363939333737352c2266697273745f736571223a31372c22636f646563\
     223a337d";
const HELLO_CODEC_2: &str = "\
     4357020048000000e600290c7b22736f75726365223a312c226e5f726f7574657273223a332c2273\
     657373696f6e223a343237363939333737352c2266697273745f736571223a31372c22636f646563\
     223a327d";
const HELLO_NO_CODEC: &str = "\
     435702003e00000060dfb3977b22736f75726365223a312c226e5f726f7574657273223a332c2273\
     657373696f6e223a343237363939333737352c2266697273745f736571223a31377d";
// Kind 1, version 2: the JSON event body old journals hold.
const EVENT_V2: &str = "\
     435702016e0000009b56d29809000000000000007b226964223a372c22726f75746572223a322c22\
     74696d65223a34323030303030302c22617272697665645f6174223a34333030303030302c226b69\
     6e64223a7b2246696252656d6f7665223a7b22707265666978223a2231302e302e302e302f38227d\
     7d7d";
// Kinds 11 and 1, version 3, as one connection's stream: a link event
// behind its description symbol, a RIB install behind its two prefix
// symbols, and the same install again, traced (no new definitions).
const V3_STREAM: &str = "\
     4357030b110000001838accd0200000d67652d302f302f3120646f776e435703010e000000a0cb7e\
     6d00080280c6fd14000200000104004357030b09000000ad45fbb60201000518000700644357030b\
     090000005d13b32502010105100000006443570301220000006ed8b040010902c0caba150180cff7\
     1505000001010103c80102e8fb03640111020ce8fb0303435703012e000000ae11db9e020902c0ca\
     ba150380cff71505000001010103c80102e8fb03640111020ce8fb0303c1590dddac53cac7000000\
     00";
// Kinds 2–10.
const WATERMARK: &str = "4357020210000000a47e8fd87067de3a000000000a00000000000000";
const BYE: &str = "4357020308000000a334444e0a00000000000000";
const ACK: &str = "43570204080000006a59252a0a00000000000000";
const HEARTBEAT: &str = "4357020500000000021b68a2";
const EVICT: &str = "435702060400000036ca6be302000000";
const ADMIT: &str = "435702070400000086e30bde02000000";
const FIN: &str = "4357020800000000bf67d9dc";
const METRICS_REQ: &str = "435702090100000020991ce701";
const METRICS_RESP: &str = "4357020a0f000000c6b7d4e37b22636f756e74657273223a5b5d7d";
// Kind 11 on its own.
const INTERN: &str = "4357030b09000000f5885e7902010005080000000a";
// Kinds 12–15: the federation peer frames; 14 and 15 with and without
// the optional `trace` member. `BOUNDARY` and `BOUNDARY_TRACED` carry
// eager events in the `events` member the encoder no longer writes:
// they are decode-only, and `BOUNDARY_RECORDS*` (generated when the
// `records` member replaced them) are what the encoder writes.
const PEER_HELLO: &str = "\
     4357020c4900000089e122827b226d656d626572223a312c226d656d62657273223a332c226e5f72\
     6f7574657273223a362c2273657373696f6e223a333733353933313634362c2266697273745f7365\
     71223a347d";
const FRONTIER: &str = "\
     4357020d4600000092135c037b226d656d626572223a312c22736571223a352c226d696e223a3430\
     3030303030302c2266726f6e74696572223a5b5b322c34303030303030305d2c5b352c6e756c6c5d\
     5d7d";
const BOUNDARY: &str = "\
     4357020efc000000214c80357b226d656d626572223a322c22736571223a372c22726f756e64223a\
     34323030303030302c226576656e7473223a5b5b392c7b226964223a372c22726f75746572223a32\
     2c2274696d65223a34323030303030302c22617272697665645f6174223a34333030303030302c22\
     6b696e64223a7b2246696252656d6f7665223a7b22707265666978223a2231302e302e302e302f38\
     227d7d7d5d5d2c2264696765737473223a5b7b2266726f6d223a302c22746f223a342c2270726f74\
     6f223a22426770222c22707265666978223a2231302e302e302e302f38222c2269735f73656e6422\
     3a747275652c2274696d65223a34313030303030307d5d7d";
const BOUNDARY_TRACED: &str = "\
     4357020e31010000deb57b437b226d656d626572223a322c22736571223a372c22726f756e64223a\
     34323030303030302c226576656e7473223a5b5b392c7b226964223a372c22726f75746572223a32\
     2c2274696d65223a34323030303030302c22617272697665645f6174223a34333030303030302c22\
     6b696e64223a7b2246696252656d6f7665223a7b22707265666978223a2231302e302e302e302f38\
     227d7d7d5d5d2c2264696765737473223a5b7b2266726f6d223a302c22746f223a342c2270726f74\
     6f223a22426770222c22707265666978223a2231302e302e302e302f38222c2269735f73656e6422\
     3a747275652c2274696d65223a34313030303030307d5d2c227472616365223a7b2274726163655f\
     6964223a343237323832373635323835363832333837332c22706172656e74223a32307d7d";
const BOUNDARY_RECORDS: &str = "\
     4357020ef2010000ad7d31e07b226d656d626572223a322c22736571223a372c22726f756e64223a\
     34323030303030302c227265636f726473223a5b7b2274696d65223a34323030303030302c226964\
     223a372c22726f75746572223a322c22636c617373223a22466962526d222c2270726f746f223a6e\
     756c6c2c22707265666978223a2231302e302e302e302f38222c2270656572223a6e756c6c2c2261\
     6374696f6e223a2244726f70227d2c7b2274696d65223a34313030303030302c226964223a362c22\
     726f75746572223a302c22636c617373223a2253656e644164222c2270726f746f223a2242677022\
     2c22707265666978223a2231302e302e302e302f38222c2270656572223a342c22616374696f6e22\
     3a2244726f70227d2c7b2274696d65223a34313030303030302c226964223a31302c22726f757465\
     72223a302c22636c617373223a22466962496e222c2270726f746f223a6e756c6c2c227072656669\
     78223a2231302e302e302e302f38222c2270656572223a6e756c6c2c22616374696f6e223a7b2246\
     6f7277617264223a337d7d5d2c2264696765737473223a5b7b2266726f6d223a302c22746f223a34\
     2c2270726f746f223a22426770222c22707265666978223a2231302e302e302e302f38222c226973\
     5f73656e64223a747275652c2274696d65223a34313030303030307d5d7d";
const BOUNDARY_RECORDS_TRACED: &str = "\
     4357020e27020000b5f83c737b226d656d626572223a322c22736571223a372c22726f756e64223a\
     34323030303030302c227265636f726473223a5b7b2274696d65223a34323030303030302c226964\
     223a372c22726f75746572223a322c22636c617373223a22466962526d222c2270726f746f223a6e\
     756c6c2c22707265666978223a2231302e302e302e302f38222c2270656572223a6e756c6c2c2261\
     6374696f6e223a2244726f70227d2c7b2274696d65223a34313030303030302c226964223a362c22\
     726f75746572223a302c22636c617373223a2253656e644164222c2270726f746f223a2242677022\
     2c22707265666978223a2231302e302e302e302f38222c2270656572223a342c22616374696f6e22\
     3a2244726f70227d2c7b2274696d65223a34313030303030302c226964223a31302c22726f757465\
     72223a302c22636c617373223a22466962496e222c2270726f746f223a6e756c6c2c227072656669\
     78223a2231302e302e302e302f38222c2270656572223a6e756c6c2c22616374696f6e223a7b2246\
     6f7277617264223a337d7d5d2c2264696765737473223a5b7b2266726f6d223a302c22746f223a34\
     2c2270726f746f223a22426770222c22707265666978223a2231302e302e302e302f38222c226973\
     5f73656e64223a747275652c2274696d65223a34313030303030307d5d2c227472616365223a7b22\
     74726163655f6964223a343237323832373635323835363832333837332c22706172656e74223a32\
     307d7d";
const PARTIAL: &str = "\
     4357020f35000000173449897b226d656d626572223a302c22736571223a382c22726f756e64223a\
     34323030303030302c226d697373696e67223a5b312c335d7d";
const PARTIAL_TRACED: &str = "\
     4357020f6a000000369888637b226d656d626572223a302c22736571223a382c22726f756e64223a\
     34323030303030302c226d697373696e67223a5b312c335d2c227472616365223a7b227472616365\
     5f6964223a343237323832373635323835363832333837332c22706172656e74223a32327d7d";
// Kind 16, with and without the 12-byte trace trailer; kind 17 likewise
// with and without `trace`.
const REPAIR: &str = "43570210170000007586d36dbc0a0000000000000200639f0200000000010003010203";
const REPAIR_TRACED: &str = "\
     4357021023000000e875c995bc0a0000000000000200639f02000000000100030102034483f28ada\
     bc6ffd0b000000";
const PEER_PROOF: &str = "\
     435702115400000067c8b8377b226d656d626572223a312c22736571223a392c227265706169725f\
     6964223a323734382c22646967657374223a36353236312c2276657264696374223a302c2270726f\
     6f66223a227b5c22765c223a317d227d";
const PEER_PROOF_TRACED: &str = "\
     435702118a000000c32677877b226d656d626572223a312c22736571223a392c227265706169725f\
     6964223a323734382c22646967657374223a36353236312c2276657264696374223a302c2270726f\
     6f66223a227b5c22765c223a317d222c227472616365223a7b2274726163655f6964223a31383236\
     323032323636303833303639323136342c22706172656e74223a31367d7d";
// Kinds 18 and 19.
const DUMP_REQ: &str = "4357021200000000c59ebb21";
const DUMP_RESP: &str = "\
     435702132d0000006efbb5a77b226d656d626572223a302c22726561736f6e223a2264756d702d72\
     6571222c227265636f726473223a5b5d7d";
// `wal-00000000.seg` holding one record: the `ACK` frame above.
const WAL_SEGMENT: &str = "140000009242c26a43570204080000006a59252a0a00000000000000";
// `RepairProof::encode_binary` of `proof()`.
const PROOF_BINARY: &str = "\
     03c9017b22726f75746572223a302c22616374696f6e223a7b224e6f746966794f70657261746f72\
     223a22676f6c64656e20766563746f72227d2c22726f6f74223a7b226576656e74223a312c22726f\
     75746572223a302c2274696d65223a313030303030302c226b696e64223a7b22436f6e6669674368\
     616e6765223a7b226368616e6765223a6e756c6c2c22696e7665727365223a6e756c6c7d7d2c2263\
     6f6e666964656e6365223a312e307d2c22726174696f6e616c65223a22676f6c64656e2076656374\
     6f72227d029a9999999999e93f010100c0843d0df0ed5e0000000001138d08b15fc479cd00000000\
     000000000000000000";

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
        .collect()
}

fn hello() -> Frame {
    Frame::Hello(Hello {
        source: RouterId(1),
        n_routers: 3,
        session: 0xfeed_beef,
        first_seq: 17,
    })
}

fn fib_event() -> IoEvent {
    IoEvent {
        id: EventId(7),
        router: RouterId(2),
        time: SimTime::from_millis(42),
        arrived_at: Some(SimTime::from_millis(43)),
        kind: IoKind::FibRemove {
            prefix: "10.0.0.0/8".parse().unwrap(),
        },
    }
}

fn link_event() -> IoEvent {
    IoEvent {
        id: EventId(8),
        router: RouterId(2),
        time: SimTime::from_millis(44),
        arrived_at: None,
        kind: IoKind::LinkStatus {
            desc: "ge-0/0/1 down".into(),
            up: false,
            link: Some(LinkId(4)),
            peer: None,
        },
    }
}

/// An install whose route covers more than the installed prefix: two
/// prefix symbols in one event.
fn rib_event() -> IoEvent {
    IoEvent {
        id: EventId(9),
        router: RouterId(2),
        time: SimTime::from_millis(45),
        arrived_at: Some(SimTime::from_millis(46)),
        kind: IoKind::RibInstall {
            proto: Proto::Bgp,
            prefix: "100.0.7.0/24".parse().unwrap(),
            route: Some(Arc::new(BgpRoute {
                prefix: "100.0.0.0/16".parse().unwrap(),
                next_hop: NextHop::Router(RouterId(3)),
                local_pref: 200,
                as_path: vec![AsNum(65000), AsNum(100)],
                origin: Origin::Egp,
                med: 17,
                communities: BTreeSet::from([12, 65000]),
                originator: RouterId(3),
            })),
        },
    }
}

/// The records of a FIB removal, a BGP send to router 4 (the digest's
/// conversation below) and a FIB install forwarding over link 3.
fn records() -> Vec<FoldRecord> {
    let prefix = Some("10.0.0.0/8".parse().unwrap());
    let send = FoldRecord {
        time: SimTime::from_millis(41),
        id: EventId(6),
        router: RouterId(0),
        class: KindClass::SendAd,
        proto: Some(Proto::Bgp),
        prefix,
        peer: Some(RouterId(4)),
        action: FibAction::Drop,
    };
    let install = FoldRecord {
        id: EventId(10),
        class: KindClass::FibIn,
        proto: None,
        peer: None,
        action: FibAction::Forward(LinkId(3)),
        ..send
    };
    vec![FoldRecord::of(&fib_event()), send, install]
}

fn boundary(records: Vec<FoldRecord>, trace: Option<TraceCtx>) -> Frame {
    Frame::BoundaryEdges(BoundaryEdges {
        member: 2,
        seq: 7,
        round: Some(SimTime::from_millis(42)),
        records,
        digests: vec![ConvDigest {
            key: (
                RouterId(0),
                RouterId(4),
                Proto::Bgp,
                Some("10.0.0.0/8".parse().unwrap()),
            ),
            is_send: true,
            time: SimTime::from_millis(41),
        }],
        trace,
    })
}

fn partial(trace: Option<TraceCtx>) -> Frame {
    Frame::PartialVerdict(PartialVerdict {
        member: 0,
        seq: 8,
        round: SimTime::from_millis(42),
        missing: vec![RouterId(1), RouterId(3)],
        trace,
    })
}

fn repair(trace: Option<TraceCtx>) -> Frame {
    Frame::Repair(RepairRecord {
        repair_id: 0xabc,
        stage: RepairStage::Gated,
        at: SimTime::from_millis(44),
        verdict: Some(0),
        proof: vec![1, 2, 3],
        trace,
    })
}

fn peer_proof(trace: Option<TraceCtx>) -> Frame {
    Frame::PeerRepairProof(PeerRepairProof {
        member: 1,
        seq: 9,
        repair_id: 0xabc,
        digest: 0xfeed,
        verdict: 0,
        proof: "{\"v\":1}".to_string(),
        trace,
    })
}

fn proof() -> RepairProof {
    let hops = vec![ProvenanceHop {
        event: EventId(1),
        router: RouterId(0),
        time: SimTime::from_millis(1),
        digest: 0x5eed_f00d,
    }];
    let chain = chain_over(&hops);
    RepairProof {
        plan: RepairPlan {
            router: RouterId(0),
            action: RepairAction::NotifyOperator("golden vector".into()),
            root: RootCause {
                event: EventId(1),
                router: RouterId(0),
                time: SimTime::from_millis(1),
                kind: RootCauseKind::ConfigChange {
                    change: None,
                    inverse: None,
                },
                confidence: 1.0,
            },
            rationale: "golden vector".into(),
        },
        target: EventId(2),
        min_confidence: 0.8,
        provenance: hops,
        chain,
        predicted: Vec::new(),
        template: Vec::new(),
        transcript: ReplayTranscript {
            base_violations: Vec::new(),
            base_digest: 0,
            undo: Vec::new(),
            redo: Vec::new(),
        },
    }
}

/// Every vector the typed encoder writes, with the value it encodes.
fn typed_frames() -> Vec<(&'static str, Frame)> {
    let round = TraceCtx::for_round(SimTime::from_millis(42));
    let rep = TraceCtx::for_repair(0xabc);
    vec![
        (HELLO, hello()),
        (
            EVENT_V2,
            Frame::Event {
                seq: 9,
                event: fib_event(),
            },
        ),
        (
            WATERMARK,
            Frame::Watermark {
                t: SimTime::from_micros(987_654),
                frontier: 10,
            },
        ),
        (BYE, Frame::Bye { frontier: 10 }),
        (ACK, Frame::Ack { upto: 10 }),
        (HEARTBEAT, Frame::Heartbeat),
        (
            EVICT,
            Frame::Evict {
                source: RouterId(2),
            },
        ),
        (
            ADMIT,
            Frame::Admit {
                source: RouterId(2),
            },
        ),
        (FIN, Frame::Fin),
        (METRICS_REQ, Frame::MetricsReq { format: 1 }),
        (
            METRICS_RESP,
            Frame::MetricsResp {
                body: b"{\"counters\":[]}".to_vec(),
            },
        ),
        (
            INTERN,
            Frame::Intern(InternDef {
                router: 2,
                space: cpvr_types::intern::SPACE_PREFIX,
                symbol: 0,
                bytes: vec![8, 0, 0, 0, 10],
            }),
        ),
        (
            PEER_HELLO,
            Frame::PeerHello(PeerHello {
                member: 1,
                members: 3,
                n_routers: 6,
                session: 0xdead_cafe,
                first_seq: 4,
            }),
        ),
        (
            FRONTIER,
            Frame::FrontierExchange(FrontierExchange {
                member: 1,
                seq: 5,
                min: Some(SimTime::from_millis(40)),
                frontier: vec![
                    (RouterId(2), Some(SimTime::from_millis(40))),
                    (RouterId(5), None),
                ],
            }),
        ),
        (BOUNDARY_RECORDS, boundary(records(), None)),
        (
            BOUNDARY_RECORDS_TRACED,
            boundary(records(), Some(round.child(20))),
        ),
        (PARTIAL, partial(None)),
        (PARTIAL_TRACED, partial(Some(round.child(22)))),
        (REPAIR, repair(None)),
        (REPAIR_TRACED, repair(Some(rep.child(11)))),
        (PEER_PROOF, peer_proof(None)),
        (PEER_PROOF_TRACED, peer_proof(Some(rep.child(16)))),
        (DUMP_REQ, Frame::DumpReq),
        (
            DUMP_RESP,
            Frame::DumpResp {
                body: b"{\"member\":0,\"reason\":\"dump-req\",\"records\":[]}".to_vec(),
            },
        ),
    ]
}

#[test]
fn every_frame_kind_keeps_its_bytes() {
    let frames = typed_frames();
    let kinds: BTreeSet<u8> = frames.iter().map(|(_, f)| f.kind()).collect();
    for (vector, frame) in &frames {
        let bytes = unhex(vector);
        assert_eq!(encode_frame(frame), bytes, "encoding moved: {frame:?}");
        assert_eq!(
            &Decoder::new().decode_record(&bytes).unwrap(),
            frame,
            "decoding moved: {vector}"
        );
    }
    // Every kind there is (kind 1 here is the v2 body; the v3 stream
    // below is the other one).
    assert_eq!(kinds, (0..=19).collect());
}

#[test]
fn old_hellos_still_decode() {
    for vector in [HELLO_CODEC_2, HELLO_NO_CODEC] {
        let got = Decoder::new().decode_record(&unhex(vector)).unwrap();
        assert_eq!(got, hello());
    }
}

/// Kind-14 bodies written before eager batches carried fold records
/// hold `(origin_seq, event)` pairs; member journals keep them, so they
/// decode to the records of their events.
#[test]
fn old_boundary_bodies_still_decode() {
    let round = TraceCtx::for_round(SimTime::from_millis(42));
    let fib = vec![FoldRecord::of(&fib_event())];
    for (vector, trace) in [(BOUNDARY, None), (BOUNDARY_TRACED, Some(round.child(20)))] {
        let got = Decoder::new().decode_record(&unhex(vector)).unwrap();
        assert_eq!(got, boundary(fib.clone(), trace));
    }
}

#[test]
fn the_v3_event_stream_keeps_its_bytes() {
    let traced = TraceCtx::for_flight(0xfeed_beef, 2);
    let mut enc = EventEncoder::new(CodecVersion::V3);
    let mut stream = Vec::new();
    enc.encode_into(0, &link_event(), &mut stream);
    enc.encode_into(1, &rib_event(), &mut stream);
    enc.encode_into_traced(2, &rib_event(), Some(traced), &mut stream);
    assert_eq!(stream, unhex(V3_STREAM));

    let mut dec = Decoder::new();
    dec.feed(&unhex(V3_STREAM));
    let mut got = Vec::new();
    let mut defs = Vec::new();
    let mut def_bytes = Vec::new();
    while let Some(msg) = dec.next_message(true) {
        let msg = msg.unwrap();
        match msg.frame {
            Frame::Event { seq, event } => got.push((seq, event, msg.trace)),
            Frame::Intern(def) => {
                defs.push((got.len(), def.space));
                def_bytes.extend(msg.raw.unwrap());
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(
        got,
        vec![
            (0, link_event(), None),
            (1, rib_event(), None),
            (2, rib_event(), Some(traced)),
        ]
    );
    // One description symbol ahead of event 0, two prefix symbols ahead
    // of event 1, none ahead of its repeat.
    use cpvr_types::intern::{SPACE_PREFIX, SPACE_STRING};
    assert_eq!(
        defs,
        vec![(0, SPACE_STRING), (1, SPACE_PREFIX), (1, SPACE_PREFIX)]
    );
    // The reconnect replay is those frames, byte for byte.
    assert_eq!(enc.definition_frames(), def_bytes);
    assert_eq!((dec.corrupt_frames(), dec.pending()), (0, 0));
}

#[test]
fn a_wal_record_keeps_its_framing() {
    let record = unhex(ACK);
    let dir = TempDir::new("golden-wal").unwrap();
    let mut w = Wal::open(WalConfig::new(dir.path())).unwrap();
    w.append(&record).unwrap();
    w.close().unwrap();
    let segment = dir.path().join("wal-00000000.seg");
    assert_eq!(std::fs::read(&segment).unwrap(), unhex(WAL_SEGMENT));

    // And the committed bytes, written by nobody in this process,
    // replay to the record.
    std::fs::write(&segment, unhex(WAL_SEGMENT)).unwrap();
    let replayed = wal::replay(dir.path()).unwrap();
    assert!(!replayed.torn);
    assert_eq!(replayed.records, vec![record]);
}

#[test]
fn a_binary_repair_proof_keeps_its_bytes() {
    let proof = proof();
    let bytes = unhex(PROOF_BINARY);
    assert_eq!(proof.encode_binary(), bytes);
    assert_eq!(proof.repair_id(), 0xca3a_6b15_ec2e_e15f);
    assert_eq!(RepairProof::decode_binary(&bytes).unwrap(), proof);
}
