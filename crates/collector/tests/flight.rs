//! The flight recorder's end-to-end oracle: causal traces must span
//! every layer — a sampled event flight from the sink's trailer through
//! decode, journal, and fold; a repair lifecycle from `Proposed` on the
//! owning federation member through the proof broadcast to every peer's
//! independent re-validation — and every anomaly must freeze exactly
//! one black-box dump.

use cpvr_collector::codec::{RepairRecord, RepairStage};
use cpvr_collector::collector::{Collector, CollectorConfig, LeaseConfig};
use cpvr_collector::wal::{wait_for, TempDir, WalConfig};
use cpvr_collector::{dump_flight, SocketSink};
use cpvr_core::provenance::{RootCause, RootCauseKind};
use cpvr_core::repair::RepairAction;
use cpvr_core::{chain_over, FederationPlan, ProvenanceHop, RepairPlan, RepairProof};
use cpvr_federation::Federation;
use cpvr_obs::trace::stage;
use cpvr_obs::{chrome_trace, stitch, FlightDump};
use cpvr_sim::{EventId, IoEvent, IoKind};
use cpvr_types::json::from_str;
use cpvr_types::{RouterId, SimTime, TraceCtx};
use cpvr_verify::ReplayTranscript;
use std::time::Duration;

fn sample_event(id: u32, t_ms: u64) -> IoEvent {
    IoEvent {
        id: EventId(id),
        router: RouterId(0),
        time: SimTime::from_millis(t_ms),
        arrived_at: None,
        kind: IoKind::FibRemove {
            prefix: "10.0.0.0/8".parse().unwrap(),
        },
    }
}

/// A structurally valid proof with a consistent hash chain — enough
/// for `broadcast_repair` to decode, re-encode, and digest it, without
/// driving the full Fig. 2 scenario.
fn synthetic_proof() -> RepairProof {
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
            action: RepairAction::NotifyOperator("flight stitch test".into()),
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
            rationale: "flight stitch test".into(),
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

fn rec(id: u64, stage: RepairStage, at: u64, verdict: Option<u8>, proof: Vec<u8>) -> RepairRecord {
    RepairRecord {
        repair_id: id,
        stage,
        at: SimTime::from_millis(at),
        verdict,
        proof,
        trace: None,
    }
}

/// A sampled event flight leaves one causally chained record at every
/// hop: the reader records `decoded`, the session records `journaled`,
/// and the watermark advance that folds it records `folded` — all under
/// the same trace id, recoverable on demand over the wire via `DumpReq`.
/// The context is the one the sink minted into the event's trailer, or,
/// from a sink that does not trace, the same one minted by the reader
/// for sequence number 0 (its 1-in-64 sample).
#[test]
fn traced_flight_spans_sink_to_fold() {
    for shards in [1, 2] {
        for sink_traces in [true, false] {
            traced_flight_spans_sink_to_fold_at(shards, sink_traces);
        }
    }
}

fn traced_flight_spans_sink_to_fold_at(shards: u32, sink_traces: bool) {
    let dir = TempDir::new("flight-e2e").unwrap();
    let cfg = CollectorConfig::new(1)
        .with_wal(WalConfig::new(dir.path()))
        .with_shards(shards);
    let handle = Collector::start(cfg, "127.0.0.1:0").expect("bind loopback");
    let addr = handle.local_addr();

    let mut sink = SocketSink::connect(addr, RouterId(0), 1).expect("connect");
    if sink_traces {
        sink.set_trace_sampling(1);
    }
    let session = sink.session();
    for i in 0..4u32 {
        sink.send(&sample_event(i, u64::from(i) + 1)).expect("send");
    }
    sink.bye().expect("bye");
    assert!(sink.drain(Duration::from_secs(30)).expect("drain"));
    assert!(
        wait_for(Duration::from_secs(20), || {
            handle.stats().watermark == Some(SimTime::MAX)
        }),
        "fold never reached the bye promise: {:?}",
        handle.stats()
    );

    // On-demand dump over the wire: no hello, one request frame.
    let body = dump_flight(addr).expect("dump over the wire");
    let dump: FlightDump = from_str(&body).expect("dump body parses");
    assert_eq!(dump.reason, "dump-req");

    let want = TraceCtx::for_flight(session, 0).trace_id;
    let stages_of = |d: &FlightDump, id: u64| -> Vec<u32> {
        d.records
            .iter()
            .filter(|r| r.trace.map(|c| c.trace_id) == Some(id))
            .map(|r| r.stage)
            .collect()
    };
    let got = stages_of(&dump, want);
    for s in [stage::DECODED, stage::JOURNALED, stage::FOLDED] {
        assert!(
            got.contains(&s),
            "flight {want:#x} is missing stage {} (got {got:?})",
            stage::name(s)
        );
    }
    // The chain is causally ordered by parent stage: decoded's parent
    // is the sink send, journaled's is decoded, folded's is journaled.
    for r in &dump.records {
        if r.trace.map(|c| c.trace_id) != Some(want) {
            continue;
        }
        let parent = r.trace.unwrap().parent;
        match r.stage {
            s if s == stage::DECODED => assert_eq!(parent, stage::SINK_SEND),
            s if s == stage::JOURNALED => assert_eq!(parent, stage::DECODED),
            s if s == stage::FOLDED => assert_eq!(parent, stage::JOURNALED),
            _ => {}
        }
    }

    // The stitcher folds the dump into one timeline per sampled flight.
    let timelines = stitch(&[dump]);
    assert!(timelines.iter().any(|t| t.trace_id == want));

    handle.shutdown().expect("clean shutdown");
}

/// A repair gated on one federation member stitches to a single
/// connected timeline spanning propose → proof → gate verdict → peer
/// re-validation across all three members.
#[test]
fn repair_trace_stitches_across_the_federation() {
    let proof = synthetic_proof();
    let rid = proof.repair_id();
    let records = vec![
        rec(rid, RepairStage::Proposed, 1, None, Vec::new()),
        rec(rid, RepairStage::Proven, 2, None, proof.encode_binary()),
        rec(rid, RepairStage::Gated, 3, Some(0), Vec::new()),
        rec(rid, RepairStage::Applied, 4, Some(0), Vec::new()),
    ];

    let tmp = TempDir::new("flight-fed").unwrap();
    let mut fed = Federation::launch(FederationPlan::uniform(3), 3, tmp.path()).unwrap();

    for r in &records {
        fed.handle(0).journal_repair(r.clone()).expect("journal");
    }
    for peer in [1u32, 2] {
        let metrics = fed.handle(peer).metrics().expect("metrics on").clone();
        assert!(
            wait_for(Duration::from_secs(30), || {
                metrics.repair_peer_proofs.value() >= 1
            }),
            "member {peer} never received the proof broadcast"
        );
    }

    // Freeze each member's rings (the programmatic twin of DumpReq).
    let dumps: Vec<FlightDump> = (0..3u32)
        .map(|m| {
            fed.handle(m)
                .metrics()
                .expect("metrics on")
                .flight
                .snapshot("test")
        })
        .collect();
    for (m, d) in dumps.iter().enumerate() {
        assert_eq!(d.member, m as i64, "dumps carry the member id");
    }

    let want = TraceCtx::for_repair(rid).trace_id;
    let timelines = stitch(&dumps);
    let tl = timelines
        .iter()
        .find(|t| t.trace_id == want)
        .expect("the repair's trace stitched");

    // One timeline, all three members, the full lifecycle in causal
    // order on the owner plus a peer-verification hop per peer.
    let members: std::collections::BTreeSet<i64> = tl.records.iter().map(|(m, _)| *m).collect();
    assert_eq!(
        members.into_iter().collect::<Vec<_>>(),
        vec![0, 1, 2],
        "the stitched timeline spans every federation member"
    );
    let owner_stages: Vec<u32> = tl
        .records
        .iter()
        .filter(|(m, _)| *m == 0)
        .map(|(_, r)| r.stage)
        .collect();
    for s in [
        stage::REPAIR_PROPOSED,
        stage::REPAIR_PROVEN,
        stage::REPAIR_GATED,
        stage::REPAIR_APPLIED,
        stage::PROOF_BROADCAST,
    ] {
        assert!(
            owner_stages.contains(&s),
            "owner timeline missing {} (got {owner_stages:?})",
            stage::name(s)
        );
    }
    for peer in [1i64, 2] {
        assert!(
            tl.records
                .iter()
                .any(|(m, r)| *m == peer && r.stage == stage::PEER_PROOF_VERIFIED),
            "member {peer} did not stitch a peer-verification hop"
        );
    }

    // The Chrome export is one JSON document covering all members.
    let chrome = chrome_trace(&dumps);
    assert!(chrome.contains("\"traceEvents\""));
    for m in 0..3 {
        assert!(chrome.contains(&format!("\"pid\":{m}")));
    }

    for m in 0..3 {
        fed.stop_member(m).expect("stop member");
    }
}

/// A DIVERGED gate verdict freezes the flight recorder: exactly one
/// `flight-diverged-*.json` dump lands next to the WAL, carrying the
/// gate-anomaly marker chained to the repair's trace.
#[test]
fn diverged_gate_verdict_freezes_one_dump() {
    for shards in [1, 2] {
        diverged_gate_verdict_freezes_one_dump_at(shards);
    }
}

fn diverged_gate_verdict_freezes_one_dump_at(shards: u32) {
    let dir = TempDir::new("flight-diverged").unwrap();
    let cfg = CollectorConfig::new(1)
        .with_wal(WalConfig::new(dir.path()))
        .with_shards(shards);
    let handle = Collector::start(cfg, "127.0.0.1:0").expect("bind loopback");

    let rid = 0xd1f_f00d;
    for r in [
        rec(rid, RepairStage::Proposed, 1, None, Vec::new()),
        rec(rid, RepairStage::Proven, 2, None, b"proof".to_vec()),
        rec(rid, RepairStage::Gated, 3, Some(1), Vec::new()),
        rec(rid, RepairStage::Blocked, 4, Some(1), Vec::new()),
    ] {
        handle.journal_repair(r).expect("journal");
    }

    assert!(
        wait_for(Duration::from_secs(10), || {
            handle
                .metrics()
                .map(|m| m.flight.dumps_written() >= 1)
                .unwrap_or(false)
        }),
        "the DIVERGED verdict never froze a dump"
    );
    let m = handle.metrics().expect("metrics on");
    assert_eq!(m.flight.dumps_written(), 1, "exactly one dump per anomaly");
    assert_eq!(m.flight.last_reason(), Some("diverged".to_string()));

    let dumps: Vec<String> = std::fs::read_dir(dir.path())
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("flight-diverged-") && n.ends_with(".json"))
        .collect();
    assert_eq!(dumps.len(), 1, "one diverged dump on disk: {dumps:?}");

    // The dump parses and carries the gate anomaly chained onto the
    // repair's trace (minted from the repair id — no sink involved).
    let body = std::fs::read_to_string(dir.path().join(&dumps[0])).unwrap();
    let dump: FlightDump = from_str(&body).expect("dump parses");
    let want = TraceCtx::for_repair(rid).trace_id;
    assert!(
        dump.records.iter().any(|r| {
            r.stage == stage::GATE_ANOMALY && r.trace.map(|c| c.trace_id) == Some(want)
        }),
        "dump must contain the gate anomaly on the repair's trace"
    );

    handle.shutdown().expect("clean shutdown");
}

/// `journal_repair` returns only once the record is journaled *and*
/// folded: the ledger's counter and the flight ring show it at once,
/// with no waiting — at any shard count, since worker 0 signals the
/// caller behind the append.
#[test]
fn journal_repair_returns_after_the_fold() {
    for shards in [1, 2] {
        let dir = TempDir::new("flight-journal-repair").unwrap();
        let cfg = CollectorConfig::new(1)
            .with_wal(WalConfig::new(dir.path()))
            .with_shards(shards);
        let handle = Collector::start(cfg, "127.0.0.1:0").expect("bind loopback");
        let rid = 0x5afe_f01d;
        let want = TraceCtx::for_repair(rid).trace_id;
        for (n, (r, code)) in [
            (
                rec(rid, RepairStage::Proposed, 1, None, Vec::new()),
                stage::REPAIR_PROPOSED,
            ),
            (
                rec(rid, RepairStage::Proven, 2, None, b"proof".to_vec()),
                stage::REPAIR_PROVEN,
            ),
        ]
        .into_iter()
        .enumerate()
        {
            handle.journal_repair(r).expect("journal");
            assert_eq!(
                handle.stats().repair_records,
                n as u64 + 1,
                "shards {shards}"
            );
            let dump = handle
                .metrics()
                .expect("metrics on")
                .flight
                .snapshot("test");
            assert!(
                dump.records
                    .iter()
                    .any(|r| r.stage == code && r.trace.map(|c| c.trace_id) == Some(want)),
                "shards {shards}: {} not in the flight ring when journal_repair returned",
                stage::name(code)
            );
        }
        handle.shutdown().expect("clean shutdown");
    }
}

/// A withheld promise stalls the watermark while ingested events wait
/// behind it: past `stall_after` the watchdog freezes exactly one
/// `stall` dump however long the stall lasts, and re-arms once the
/// watermark moves — at any shard count, since the session loop owns
/// the watchdog.
#[test]
fn a_stalled_watermark_freezes_one_dump_and_rearms() {
    let dir = TempDir::new("flight-stall").unwrap();
    let cfg = CollectorConfig::new(2)
        .with_wal(WalConfig::new(dir.path()))
        .with_shards(2)
        .with_lease(LeaseConfig {
            stall_after: Duration::from_millis(100),
            ..LeaseConfig::disabled()
        });
    let handle = Collector::start(cfg, "127.0.0.1:0").expect("bind loopback");
    let addr = handle.local_addr();
    let stall_dumps = || {
        std::fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with("flight-stall-"))
            .count()
    };

    let mut talker = SocketSink::connect(addr, RouterId(0), 2).expect("connect");
    let mut silent = SocketSink::connect(addr, RouterId(1), 2).expect("connect");
    talker.send(&sample_event(0, 1)).expect("send");
    talker.watermark(SimTime::from_millis(1)).expect("promise");
    // Router 1 withholds its promise: the event waits behind the gate.
    assert!(
        wait_for(Duration::from_secs(10), || stall_dumps() == 1),
        "the stall never froze a dump"
    );
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(stall_dumps(), 1, "one dump per stall episode, not per tick");
    // The episode's marker is recorded once too: repeated markers would
    // overwrite the ring records a later dump needs to explain the stall.
    let live: FlightDump = from_str(&dump_flight(addr).expect("dump over the wire")).unwrap();
    let markers = live
        .records
        .iter()
        .filter(|r| r.stage == stage::WATERMARK_STALL)
        .count();
    assert_eq!(markers, 1, "one stall marker per episode, not per tick");

    // The promise arrives, the watermark moves, the watchdog re-arms...
    silent.watermark(SimTime::from_millis(1)).expect("promise");
    assert!(wait_for(Duration::from_secs(10), || {
        handle.stats().watermark == Some(SimTime::from_millis(1))
    }));
    // ...so a second stall is a second episode.
    talker.send(&sample_event(1, 2)).expect("send");
    talker.watermark(SimTime::from_millis(2)).expect("promise");
    assert!(
        wait_for(Duration::from_secs(10), || stall_dumps() == 2),
        "the re-armed watchdog never fired"
    );

    drop((talker, silent));
    handle.shutdown().expect("clean shutdown");
}

/// The stall clock starts when the first event waits behind a still
/// watermark, not when the watermark last moved: after an idle spell
/// twice `stall_after` long, the first event does not freeze a dump at
/// once — none within `stall_after / 2` — and exactly one lands once it
/// has waited `stall_after`.
#[test]
fn an_idle_spell_does_not_count_toward_a_stall() {
    let stall_after = Duration::from_millis(400);
    let dir = TempDir::new("flight-idle-stall").unwrap();
    let cfg = CollectorConfig::new(2)
        .with_wal(WalConfig::new(dir.path()))
        .with_lease(LeaseConfig {
            stall_after,
            ..LeaseConfig::disabled()
        });
    let handle = Collector::start(cfg, "127.0.0.1:0").expect("bind loopback");
    let addr = handle.local_addr();
    let stall_dumps = || {
        std::fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with("flight-stall-"))
            .count()
    };

    let mut talker = SocketSink::connect(addr, RouterId(0), 2).expect("connect");
    let silent = SocketSink::connect(addr, RouterId(1), 2).expect("connect");
    std::thread::sleep(stall_after * 2);
    let sent = std::time::Instant::now();
    talker.send(&sample_event(0, 1)).expect("send");
    // Router 1 withholds its promise: the event waits behind the gate.
    talker.watermark(SimTime::from_millis(1)).expect("promise");
    std::thread::sleep((stall_after / 2).saturating_sub(sent.elapsed()));
    assert_eq!(stall_dumps(), 0, "the idle spell counted toward the stall");
    assert!(
        wait_for(Duration::from_secs(10), || stall_dumps() == 1),
        "the stall never froze a dump"
    );
    assert!(sent.elapsed() >= stall_after, "the dump came early");
    std::thread::sleep(stall_after);
    assert_eq!(stall_dumps(), 1, "one dump per stall episode");

    drop((talker, silent));
    handle.shutdown().expect("clean shutdown");
}
