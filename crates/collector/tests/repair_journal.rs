//! The crash-safe repair journal's oracle: repair-lifecycle records
//! (Proposed → Proven → Gated → Applied/Blocked) journaled through the
//! collector must recover to a *bit-identical* decision from any crash
//! point — at `shards ∈ {1, 4}` and across a 3-member federation where
//! the owning member gates and its peers independently re-validate the
//! advertised proof.

use cpvr_collector::codec::{Decoder, Frame, RepairRecord, RepairStage};
use cpvr_collector::collector::{Collector, CollectorConfig};
use cpvr_collector::pipeline::{IngestPipeline, PipelineConfig};
use cpvr_collector::wal::{self, wait_for, TempDir, Wal, WalConfig};
use cpvr_collector::RepairLedger;
use cpvr_core::{
    gate_repair, infer_hbg, propose_repairs, propose_repairs_report, prove, root_causes,
    ConsistencyTracker, FederationPlan, InferConfig, RepairProof,
};
use cpvr_federation::Federation;
use cpvr_sim::scenario::paper_scenario;
use cpvr_sim::{CaptureProfile, IoKind, LatencyProfile};
use cpvr_types::{RouterId, SimTime};
use cpvr_verify::{IncrementalVerifier, Policy};
use std::time::Duration;

const N_ROUTERS: u32 = 3;

/// Drives the Fig. 2 misconfiguration to its settled violating state
/// and mints a real proof against it, exactly as the control loop
/// would (mirrors the gate oracle in `cpvr-core/tests/proof_gate.rs`).
struct Minted {
    verifier: IncrementalVerifier,
    proof: RepairProof,
}

fn mint(seed: u64) -> Minted {
    let mut s = paper_scenario(LatencyProfile::fast(), CaptureProfile::ideal(), seed);
    s.sim.start();
    s.sim.run_to_quiescence(100_000);
    s.sim
        .schedule_ext_announce(s.sim.now() + SimTime::from_millis(1), s.ext_r1, &[s.prefix]);
    s.sim
        .schedule_ext_announce(s.sim.now() + SimTime::from_millis(5), s.ext_r2, &[s.prefix]);
    s.sim.run_to_quiescence(100_000);
    let change = cpvr_bgp::ConfigChange::SetImport {
        peer: cpvr_bgp::PeerRef::External(s.ext_r2),
        map: cpvr_bgp::RouteMap::set_all(vec![cpvr_bgp::SetAction::LocalPref(10)]),
    };
    s.sim
        .schedule_config(s.sim.now() + SimTime::from_millis(20), RouterId(1), change);
    s.sim.run_to_quiescence(100_000);

    let policies = vec![Policy::PreferredExit {
        prefix: s.prefix,
        primary: s.ext_r2,
        backup: s.ext_r1,
    }];
    let horizon = s.sim.now();
    let n = s.sim.topology().num_routers();
    let tracker = ConsistencyTracker::recover(n, s.sim.trace().events.iter(), horizon);
    let verifier = IncrementalVerifier::new(
        s.sim.topology().clone(),
        tracker.dataplane().clone(),
        policies,
    );
    let report = verifier.report();
    assert!(
        !report.ok(),
        "the scenario must actually violate the policy"
    );
    let violated: Vec<_> = report
        .violations
        .iter()
        .map(|v| v.policy.prefix())
        .collect();
    let arrived = s.sim.trace().arrived_by(horizon);
    let bad_fib = arrived
        .iter()
        .filter(|e| {
            matches!(
                &e.kind,
                IoKind::FibInstall { prefix, .. } | IoKind::FibRemove { prefix }
                    if violated.iter().any(|vp| vp.overlaps(prefix))
            )
        })
        .max_by_key(|e| (e.time, e.id))
        .expect("a violating state implies a FIB event")
        .id;
    let cfg = InferConfig {
        rules: true,
        patterns: None,
        min_confidence: 0.8,
        proximate: false,
    };
    let hbg = infer_hbg(s.sim.trace(), &cfg);
    let causes = root_causes(s.sim.trace(), &hbg, bad_fib, 0.8);
    let plan = propose_repairs(&causes, 0.8)
        .into_iter()
        .find(|p| matches!(p.action, cpvr_core::repair::RepairAction::RevertConfig(_)))
        .expect("the misconfiguration must yield a revertible plan");
    let proof = prove(s.sim.trace(), &hbg, &verifier, &plan, bad_fib, 0.8);
    let skipped_at_high_bar = propose_repairs_report(&causes, 2.0)
        .skipped_low_confidence
        .len();
    assert!(
        skipped_at_high_bar > 0,
        "an impossible bar skips every cause"
    );
    Minted { verifier, proof }
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

/// The full lifecycle the control plane journals for one gated repair:
/// the terminal stage follows the verdict (0 → Applied, else Blocked).
fn lifecycle(proof: &RepairProof, verdict_code: u8) -> Vec<RepairRecord> {
    let id = proof.repair_id();
    let terminal = if verdict_code == 0 {
        RepairStage::Applied
    } else {
        RepairStage::Blocked
    };
    vec![
        rec(id, RepairStage::Proposed, 1, None, Vec::new()),
        rec(id, RepairStage::Proven, 2, None, proof.encode_binary()),
        rec(id, RepairStage::Gated, 3, Some(verdict_code), Vec::new()),
        rec(id, terminal, 4, Some(verdict_code), Vec::new()),
    ]
}

/// Folds the journal's kind-16 records into a fresh ledger — the
/// expected recovery state for a given durable prefix.
fn fold_prefix(records: &[Vec<u8>]) -> RepairLedger {
    let mut ledger = RepairLedger::new();
    let mut dec = Decoder::new();
    for bytes in records {
        if let Frame::Repair(r) = dec.decode_record(bytes).unwrap() {
            ledger.accept(&r);
        }
    }
    ledger
}

/// Crash the repair lifecycle at every record boundary (shards = 1):
/// the recovered ledger must equal the straight fold of the durable
/// prefix, and re-gating the recovered proof bytes must reach the very
/// verdict the live run journaled — for the genuine proof *and* for a
/// tampered one that was gated ERROR and blocked.
#[test]
fn repair_decision_recovers_bit_identical_from_any_boundary() {
    let m = mint(21);
    let live = gate_repair(&m.verifier, &m.proof);
    assert!(live.is_reproduced(), "fresh proof must gate REPRODUCED");

    // A second, tampered repair: one flipped chain bit gates ERROR and
    // the control plane journals it Blocked, never Applied.
    let mut forged = m.proof.clone();
    forged.chain[0] ^= 1;
    let forged_verdict = gate_repair(&m.verifier, &forged);
    assert_eq!(forged_verdict.label(), "error");
    assert_ne!(forged.repair_id(), m.proof.repair_id());

    let mut records: Vec<RepairRecord> = lifecycle(&m.proof, live.code());
    records.extend(lifecycle(&forged, forged_verdict.code()));

    let wal_dir = TempDir::new("repair-crash").unwrap();
    let reference = {
        let cfg = CollectorConfig::new(N_ROUTERS).with_wal(WalConfig::new(wal_dir.path()));
        let handle = Collector::start(cfg, "127.0.0.1:0").expect("bind loopback");
        for r in &records {
            handle.journal_repair(r.clone()).expect("journal");
        }
        let report = handle.shutdown().expect("clean shutdown");
        assert_eq!(report.stats.repair_records, records.len() as u64);
        report.pipeline.repairs().clone()
    };
    assert_eq!(reference.len(), 2);
    assert!(reference.in_flight().is_empty());

    let log = wal::replay(wal_dir.path()).unwrap();
    assert!(!log.torn);
    assert_eq!(log.records.len(), records.len());

    for cut in 0..=log.records.len() {
        let tmp = TempDir::new("repair-cut").unwrap();
        let mut w = Wal::open(WalConfig::new(tmp.path())).unwrap();
        for bytes in &log.records[..cut] {
            w.append(bytes).unwrap();
        }
        w.close().unwrap();

        let (pipeline, report) =
            IngestPipeline::recover(PipelineConfig::new(N_ROUTERS), tmp.path()).unwrap();
        assert_eq!(report.repairs_replayed, cut, "cut {cut}");
        assert_eq!(
            pipeline.repairs(),
            &fold_prefix(&log.records[..cut]),
            "cut {cut}: ledger must be the exact fold of the durable prefix"
        );
        if cut == log.records.len() {
            assert_eq!(pipeline.repairs(), &reference, "full log = live ledger");
        }

        // Crash between Proven and the decision: recovery holds the
        // repair in flight and re-gating the *recovered* proof bytes —
        // against the unchanged network state — reproduces the live
        // verdict bit for bit.
        for (entry, live_code) in [
            (pipeline.repairs().get(m.proof.repair_id()), live.code()),
            (
                pipeline.repairs().get(forged.repair_id()),
                forged_verdict.code(),
            ),
        ] {
            let Some(entry) = entry else { continue };
            if entry.proof.is_empty() {
                continue; // crashed before Proven was durable
            }
            let recovered = RepairProof::decode_binary(&entry.proof).expect("journaled bytes");
            let regated = gate_repair(&m.verifier, &recovered);
            assert_eq!(
                regated.code(),
                live_code,
                "cut {cut}: recovered verdict must match the live one"
            );
            if let Some((_, Some(v))) = pipeline.repairs().decision(entry.repair_id) {
                assert_eq!(v, live_code, "cut {cut}: journaled verdict agrees");
            }
        }
    }

    // The blocked repair never touched the data plane: the verifier's
    // state is still the violating one the proof was minted against.
    assert!(!m.verifier.report().ok(), "violation still present");
    assert_eq!(
        m.proof.transcript.digest_on(m.verifier.dataplane()),
        m.proof.transcript.base_digest,
        "blocked ⇒ state bit-identical to never-applied"
    );
}

/// The same journal recovered through the sharded fold (`shards = 4`)
/// must produce the identical ledger — repairs journal into shard 0's
/// WAL series and recover through `recover_parts` like every other
/// control record.
#[test]
fn sharded_restart_recovers_the_same_ledger() {
    let m = mint(23);
    let live = gate_repair(&m.verifier, &m.proof);
    let records = lifecycle(&m.proof, live.code());

    let wal_dir = TempDir::new("repair-shards").unwrap();
    let cfg = || {
        CollectorConfig::new(N_ROUTERS)
            .with_wal(WalConfig::new(wal_dir.path()))
            .with_shards(4)
    };
    let reference = {
        let handle = Collector::start(cfg(), "127.0.0.1:0").expect("bind loopback");
        for r in &records {
            handle.journal_repair(r.clone()).expect("journal");
        }
        let report = handle.shutdown().expect("clean shutdown");
        assert_eq!(report.pipeline.shards(), 4);
        report.pipeline.repairs().clone()
    };
    assert_eq!(reference.records(), records.len() as u64);

    // Restart over the same directory: recovery replays the series and
    // the coordinator starts from the recovered ledger.
    let handle = Collector::start(cfg(), "127.0.0.1:0").expect("restart");
    let recovered = handle.recovery().clone();
    assert_eq!(recovered.repairs_replayed, records.len());
    let report = handle.shutdown().expect("clean shutdown");
    assert_eq!(report.pipeline.repairs(), &reference);
    assert_eq!(
        report.pipeline.repairs().decision(m.proof.repair_id()),
        Some((RepairStage::Applied, Some(0)))
    );
}

/// Federated proof-carrying repair: the owning member journals the
/// lifecycle and, at `Gated`, broadcasts the proof; every peer
/// independently re-validates the hash chain and the content digest.
/// Crash-restarting the owner replays the journal to the same decision
/// and regenerates the broadcast, which the peers deduplicate.
#[test]
fn federated_peers_revalidate_the_gated_proof() {
    let m = mint(29);
    let live = gate_repair(&m.verifier, &m.proof);
    assert!(live.is_reproduced());
    let records = lifecycle(&m.proof, live.code());
    let rid = m.proof.repair_id();

    let tmp = TempDir::new("fed-repair").unwrap();
    let mut fed = Federation::launch(FederationPlan::uniform(3), N_ROUTERS, tmp.path()).unwrap();

    // Member 0 owns the repair: journal the full lifecycle through it.
    for r in &records {
        fed.handle(0).journal_repair(r.clone()).expect("journal");
    }
    // The Gated broadcast reaches both peers.
    for peer in [1u32, 2] {
        let metrics = fed.handle(peer).metrics().expect("metrics on").clone();
        assert!(
            wait_for(Duration::from_secs(30), || {
                metrics.repair_peer_proofs.value() >= 1
            }),
            "member {peer} never received the proof broadcast"
        );
    }

    // Crash the owner; its WAL is the crash artifact. Keep its live
    // ledger as the bit-identity reference.
    let stopped = fed.stop_member(0).expect("stop member 0");
    assert_eq!(stopped.stats.repair_records, records.len() as u64);
    let live_ledger = stopped
        .fold
        .expect("stop_member keeps the fold")
        .repairs()
        .clone();
    assert_eq!(
        live_ledger.decision(rid),
        Some((RepairStage::Applied, Some(0)))
    );

    // Recovery replays the lifecycle to the same decision and
    // regenerates the broadcast under a fresh session.
    fed.restart_member(0).expect("restart member 0");
    let recovered = fed.handle(0).recovery().clone();
    assert_eq!(recovered.repairs_replayed, records.len());

    // Stop every member individually so each fold stays inspectable
    // (the merged shutdown report folds them into one global view).
    let owner = fed.stop_member(0).expect("final stop");
    assert_eq!(owner.stats.repair_records, 0, "nothing re-journaled live");
    let owner_ledger = owner.fold.expect("fold").repairs().clone();
    assert_eq!(
        owner_ledger, live_ledger,
        "recovered ledger is bit-identical to the live one"
    );

    for peer in [1u32, 2] {
        let rep = fed.stop_member(peer).expect("stop peer");
        let fold = rep.fold.expect("fold");
        let fold = fold.member().expect("a peer reports a member fold");
        assert_eq!(
            fold.peer_repairs().len(),
            1,
            "the regenerated broadcast deduplicates by repair id"
        );
        let status = fold
            .peer_repairs()
            .get(&rid)
            .expect("peer recorded the advertised proof");
        assert_eq!(status.from, 0);
        assert_eq!(status.verdict, 0);
        assert!(status.chain_ok, "recomputed hash chain matches");
        assert!(status.digest_ok, "re-encoded digest matches");
        assert!(status.trusted_reproduced());
    }
}

/// Reads one counter family's folded total out of a metrics snapshot.
fn counter_total(snap: &cpvr_obs::Snapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .filter(|c| c.name == name)
        .map(|c| c.value)
        .sum()
}

/// Reads one gauge's value out of a metrics snapshot (0 if never set).
fn gauge_value(snap: &cpvr_obs::Snapshot, name: &str) -> i64 {
    snap.gauges
        .iter()
        .find(|g| g.name == name)
        .map(|g| g.value)
        .unwrap_or(0)
}

/// The repair-telemetry invariants every shutdown snapshot must hold:
/// the counters agree with what was journaled live, the verdict
/// counters agree with the ledger's gate outcomes, and the in-flight
/// gauge agrees with the ledger's undecided set.
fn assert_repair_telemetry(snap: &cpvr_obs::Snapshot, ledger: &RepairLedger, live_records: u64) {
    assert_eq!(
        counter_total(snap, "cpvr_repair_records_total"),
        live_records,
        "records counter counts live-journaled records"
    );
    let reproduced = counter_total(snap, "cpvr_repair_gate_reproduced_total");
    let diverged = counter_total(snap, "cpvr_repair_gate_diverged_total");
    let error = counter_total(snap, "cpvr_repair_gate_error_total");
    let gated_live: Vec<u8> = ledger.entries().filter_map(|e| e.verdict).collect();
    assert!(
        reproduced + diverged + error <= gated_live.len() as u64,
        "verdict counters never exceed the ledger's gated repairs"
    );
    assert_eq!(
        gauge_value(snap, "cpvr_repairs_in_flight"),
        ledger.in_flight().len() as i64,
        "in-flight gauge agrees with the ledger at quiescence"
    );
}

/// The `CHAOS_REPAIR` arm (env-gated like the federation partition
/// harness): crash the collector between every repair-lifecycle record
/// — with a torn half-written record at every other cut — restart the
/// *live* collector over the crash artifact, re-journal the lost tail
/// as a resuming control plane would, and require the final decision
/// bit-identical to the uninterrupted run with the repair telemetry
/// invariants holding at every stop.
#[test]
fn chaos_repair_crashes_between_lifecycle_records() {
    if std::env::var("CHAOS_REPAIR").is_err() {
        eprintln!("skipping: set CHAOS_REPAIR=1 to run the repair chaos arm");
        return;
    }
    let m = mint(31);
    let live = gate_repair(&m.verifier, &m.proof);
    assert!(live.is_reproduced());
    let mut forged = m.proof.clone();
    forged.chain[0] ^= 1;
    let forged_verdict = gate_repair(&m.verifier, &forged);
    assert_eq!(forged_verdict.code(), 2);
    let mut records = lifecycle(&m.proof, live.code());
    records.extend(lifecycle(&forged, forged_verdict.code()));

    // Uninterrupted reference run, telemetry included.
    let ref_dir = TempDir::new("chaos-repair-ref").unwrap();
    let (reference, ref_snap) = {
        let cfg = CollectorConfig::new(N_ROUTERS).with_wal(WalConfig::new(ref_dir.path()));
        let handle = Collector::start(cfg, "127.0.0.1:0").expect("bind loopback");
        for r in &records {
            handle.journal_repair(r.clone()).expect("journal");
        }
        let report = handle.shutdown().expect("clean shutdown");
        let snap = report.metrics.expect("metrics dump");
        (report.pipeline.repairs().clone(), snap)
    };
    assert!(reference.in_flight().is_empty());
    assert_repair_telemetry(&ref_snap, &reference, records.len() as u64);
    assert_eq!(
        counter_total(&ref_snap, "cpvr_repair_gate_reproduced_total"),
        1
    );
    assert_eq!(counter_total(&ref_snap, "cpvr_repair_gate_error_total"), 1);
    assert_eq!(
        counter_total(&ref_snap, "cpvr_repair_gate_diverged_total"),
        0
    );

    let log = wal::replay(ref_dir.path()).unwrap();
    assert_eq!(log.records.len(), records.len());

    for (ci, cut) in (0..=log.records.len()).enumerate() {
        // The crash artifact: the durable prefix, plus (every other
        // cut) a torn record promising more bytes than exist.
        let tmp = TempDir::new("chaos-repair-cut").unwrap();
        let mut w = Wal::open(WalConfig::new(tmp.path())).unwrap();
        for bytes in &log.records[..cut] {
            w.append(bytes).unwrap();
        }
        w.close().unwrap();
        let simulate_torn = ci % 2 == 1;
        if simulate_torn {
            let next = log
                .records
                .get(cut)
                .cloned()
                .unwrap_or_else(|| vec![0xab; 40]);
            let seg = std::fs::read_dir(tmp.path())
                .unwrap()
                .map(|e| e.unwrap().path())
                .max()
                .unwrap();
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new().append(true).open(seg).unwrap();
            f.write_all(&(next.len() as u32).to_le_bytes()).unwrap();
            f.write_all(&cpvr_types::crc32::checksum(&next).to_le_bytes())
                .unwrap();
            f.write_all(&next[..next.len() / 2 + 1]).unwrap();
        }

        // Restart the live collector over the artifact and let the
        // resuming control plane re-journal the lost tail (duplicate
        // lifecycle records are inert, so resending from any earlier
        // point would fold identically).
        let cfg = CollectorConfig::new(N_ROUTERS).with_wal(WalConfig::new(tmp.path()));
        let handle = Collector::start(cfg, "127.0.0.1:0").expect("restart");
        let recovered = handle.recovery().clone();
        assert_eq!(recovered.repairs_replayed, cut, "cut {cut}");
        assert_eq!(recovered.torn_tail, simulate_torn, "cut {cut}");
        for r in &records[cut..] {
            handle.journal_repair(r.clone()).expect("re-journal");
        }
        let report = handle.shutdown().expect("clean shutdown");
        assert_eq!(
            report.pipeline.repairs(),
            &reference,
            "cut {cut}: resumed ledger is bit-identical to the uninterrupted run"
        );
        let snap = report.metrics.expect("metrics dump");
        assert_repair_telemetry(
            &snap,
            report.pipeline.repairs(),
            (records.len() - cut) as u64,
        );
    }
}

/// The federated repair crash case with every member folding on two
/// workers: the owner journals the lifecycle into its series 0, a
/// restart scans both series and regenerates the `Gated` broadcast from
/// the replayed records, and the peers still hold one re-validated
/// proof.
#[test]
fn federated_repair_at_two_shards_recovers_the_same_ledger() {
    use cpvr_collector::FederationConfig;
    use std::net::TcpListener;
    let m = mint(37);
    let live = gate_repair(&m.verifier, &m.proof);
    assert!(live.is_reproduced());
    let records = lifecycle(&m.proof, live.code());
    let rid = m.proof.repair_id();

    let tmp = TempDir::new("fed-repair-shards").unwrap();
    let listeners: Vec<TcpListener> = (0..3)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let peers: Vec<std::net::SocketAddr> =
        listeners.iter().map(|l| l.local_addr().unwrap()).collect();
    let cfgs = (0..3)
        .map(|i| {
            CollectorConfig::new(N_ROUTERS)
                .with_shards(2)
                .with_wal(WalConfig::new(tmp.path().join(format!("member-{i}"))))
                .with_federation(FederationConfig {
                    plan: FederationPlan::uniform(3),
                    member: i,
                    peers: peers.clone(),
                })
        })
        .collect();
    let mut fed = Federation::launch_on(cfgs, listeners).unwrap();

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
    let stopped = fed.stop_member(0).expect("stop member 0");
    let live_ledger = stopped.fold.expect("fold").repairs().clone();
    assert_eq!(
        live_ledger.decision(rid),
        Some((RepairStage::Applied, Some(0)))
    );
    let series = wal::list_series(&tmp.path().join("member-0")).unwrap();
    assert_eq!(series, vec![Some(0), Some(1)], "one series per worker");

    fed.restart_member(0).expect("restart member 0");
    let recovered = fed.handle(0).recovery().clone();
    assert_eq!(recovered.repairs_replayed, records.len());
    let owner = fed.stop_member(0).expect("final stop");
    assert_eq!(owner.stats.repair_records, 0, "nothing re-journaled live");
    let fold = owner.fold.expect("fold");
    assert_eq!(fold.shards(), 2);
    assert_eq!(fold.repairs(), &live_ledger);

    for peer in [1u32, 2] {
        let rep = fed.stop_member(peer).expect("stop peer");
        let fold = rep.fold.expect("fold");
        let fold = fold.member().expect("a peer reports a member fold");
        assert_eq!(fold.peer_repairs().len(), 1);
        let status = fold.peer_repairs().get(&rid).expect("proof recorded");
        assert_eq!(status.from, 0);
        assert!(status.trusted_reproduced());
    }
}
