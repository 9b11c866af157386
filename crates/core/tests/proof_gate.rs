//! The gate oracle from the proof-carrying repair design: a proof minted
//! against the live violating state must gate REPRODUCED; any tampering
//! with its hash chain must gate ERROR; a proof re-gated after the world
//! moved on must gate DIVERGED. In every non-REPRODUCED case the live
//! verifier state stays bit-identical to never-applied — the tentative
//! apply is confined to a discarded shadow clone.

use cpvr_core::{
    gate_repair, infer_hbg, propose_repairs, prove, root_causes, InferConfig, RepairProof,
};
use cpvr_core::{ConsistencyTracker, RepairPlan};
use cpvr_sim::scenario::paper_scenario;
use cpvr_sim::{CaptureProfile, IoKind, LatencyProfile, Simulation};
use cpvr_types::json::FromJson;
use cpvr_types::{RouterId, SimTime};
use cpvr_verify::{IncrementalVerifier, Policy};

/// Drives the Fig. 2 misconfiguration to its settled violating state and
/// mints a real proof against it, exactly as the control loop would.
struct Minted {
    sim: Simulation,
    policies: Vec<Policy>,
    verifier: IncrementalVerifier,
    plan: RepairPlan,
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
    // The ill-considered change (Fig. 2a): prefer the backup uplink.
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
        policies.clone(),
    );
    let report = verifier.report();
    assert!(
        !report.ok(),
        "the scenario must actually violate the policy"
    );

    // Locate the problematic FIB update the same way the guard does.
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
    Minted {
        sim: s.sim,
        policies,
        verifier,
        plan,
        proof,
    }
}

#[test]
fn untampered_proof_gates_reproduced() {
    let m = mint(21);
    assert!(!m.proof.provenance.is_empty(), "proof carries its HBG path");
    assert_eq!(m.proof.chain.len(), m.proof.provenance.len());
    assert!(
        !m.proof.transcript.undo.is_empty(),
        "proof carries a replay"
    );
    let verdict = gate_repair(&m.verifier, &m.proof);
    assert!(
        verdict.is_reproduced(),
        "fresh proof against live state: {verdict:?}"
    );
}

#[test]
fn tampered_chain_gates_error_and_never_applies() {
    let m = mint(21);
    let before = m.proof.transcript.digest_on(m.verifier.dataplane());
    assert_eq!(before, m.proof.transcript.base_digest);
    for i in 0..m.proof.chain.len() {
        let mut forged = m.proof.clone();
        forged.chain[i] ^= 1; // one flipped bit anywhere in the chain
        let verdict = gate_repair(&m.verifier, &forged);
        assert_eq!(verdict.label(), "error", "chain[{i}] tamper: {verdict:?}");
        assert!(!verdict.is_reproduced());
    }
    // A forged provenance hop breaks the recomputed chain too.
    let mut forged = m.proof.clone();
    forged.provenance[0].digest ^= 0x8000_0000_0000_0000;
    assert_eq!(gate_repair(&m.verifier, &forged).label(), "error");
    // The gate only ever touched shadow clones: the live data plane is
    // bit-identical to never-applied.
    assert_eq!(m.proof.transcript.digest_on(m.verifier.dataplane()), before);
    assert!(!m.verifier.report().ok(), "violation still present");
}

#[test]
fn binary_byte_flip_in_chain_gates_error() {
    let m = mint(21);
    let bytes = m.proof.encode_binary();
    // Locate the chain's byte range by diffing against a re-encoding
    // with one chain digest flipped — digests are fixed-width, so the
    // encodings differ only inside that digest's 8 bytes.
    let mut flipped = m.proof.clone();
    flipped.chain[0] ^= 1;
    let flipped_bytes = flipped.encode_binary();
    assert_eq!(bytes.len(), flipped_bytes.len());
    let at = bytes
        .iter()
        .zip(&flipped_bytes)
        .position(|(a, b)| a != b)
        .expect("the tampered chain must change the wire image");
    let mut wire = bytes.clone();
    wire[at] ^= 1;
    let forged = RepairProof::decode_binary(&wire).expect("structurally valid");
    let verdict = gate_repair(&m.verifier, &forged);
    assert_eq!(verdict.label(), "error", "wire tamper: {verdict:?}");
    assert!(!verdict.is_reproduced(), "tampered proof must never apply");
}

#[test]
fn stale_proof_gates_diverged() {
    let mut m = mint(21);
    // The world moves on: the inverse config is applied and the network
    // reconverges, so the proof's base state no longer matches.
    let cpvr_core::repair::RepairAction::RevertConfig(inv) = &m.plan.action else {
        panic!("mint() only returns revertible plans");
    };
    m.sim
        .schedule_config(m.sim.now(), m.plan.router, inv.clone());
    m.sim.run_to_quiescence(100_000);
    let horizon = m.sim.now();
    let n = m.sim.topology().num_routers();
    let tracker = ConsistencyTracker::recover(n, m.sim.trace().events.iter(), horizon);
    let live = IncrementalVerifier::new(
        m.sim.topology().clone(),
        tracker.dataplane().clone(),
        m.policies.clone(),
    );
    assert!(live.report().ok(), "the repair fixed the network");
    let verdict = gate_repair(&live, &m.proof);
    assert_eq!(verdict.label(), "diverged", "stale proof: {verdict:?}");
    assert!(!verdict.is_reproduced());
}

#[test]
fn empty_provenance_gates_error() {
    let m = mint(21);
    let mut hollow = m.proof.clone();
    hollow.provenance.clear();
    hollow.chain.clear();
    assert_eq!(gate_repair(&m.verifier, &hollow).label(), "error");
}

#[test]
fn self_loop_provenance_gates_error() {
    let m = mint(21);
    // A path that revisits a hop with the original chain kept is plain
    // tampering: the chain no longer matches the hops.
    let mut looped = m.proof.clone();
    let first = looped.provenance[0].clone();
    looped.provenance.push(first);
    assert_eq!(gate_repair(&m.verifier, &looped).label(), "error");
    // Even with the chain recomputed over the looped path — internally
    // consistent — a provenance walk never revisits an event, so the
    // gate must still refuse with a defined verdict, never apply.
    looped.chain = cpvr_core::chain_over(&looped.provenance);
    let verdict = gate_repair(&m.verifier, &looped);
    assert_eq!(verdict.label(), "error", "self-loop: {verdict:?}");
    assert!(!verdict.is_reproduced());
}

#[test]
fn minted_proof_roundtrips_both_codecs() {
    let m = mint(21);
    // Hand-rolled JSON.
    let json = cpvr_types::json::to_string_compact(&m.proof);
    let parsed = cpvr_types::json::parse(&json).expect("valid JSON");
    let back = RepairProof::from_json(&parsed).expect("decodes");
    assert_eq!(back, m.proof);
    // v3 binary.
    let wire = m.proof.encode_binary();
    let back = RepairProof::decode_binary(&wire).expect("decodes");
    assert_eq!(back, m.proof);
    assert_eq!(back.repair_id(), m.proof.repair_id());
}

/// `prove` reconstructs the pre-consequence FIB state from the captured
/// stream but only needs the history of the pairs the root cause's
/// consequences touch: interleaving 50 000 FIB events on unrelated
/// prefixes (same routers, stamps spread across the whole capture) must
/// not move one byte of the proof — undo and redo included.
#[test]
fn unrelated_fib_history_does_not_change_the_proof() {
    use cpvr_dataplane::FibAction;
    use cpvr_sim::workload::prefix_block;
    use cpvr_sim::{EventId, IoEvent};

    let m = mint(21);
    assert!(
        !m.proof.transcript.redo.is_empty(),
        "the incident has FIB consequences"
    );
    let mut trace = m.sim.trace().clone();
    let span = m.sim.now().as_nanos();
    let unrelated = prefix_block(1024);
    const NOISE: u64 = 50_000;
    for i in 0..NOISE {
        let prefix = unrelated[(i * 7) as usize % unrelated.len()];
        let time = SimTime::from_nanos(span / NOISE * i);
        trace.events.push(IoEvent {
            id: EventId(trace.events.len() as u32),
            router: RouterId((i % 3) as u32),
            time,
            arrived_at: Some(time),
            kind: if (i / 3) % 2 == 0 {
                IoKind::FibInstall {
                    prefix,
                    action: FibAction::Drop,
                }
            } else {
                IoKind::FibRemove { prefix }
            },
        });
    }
    let cfg = InferConfig {
        rules: true,
        patterns: None,
        min_confidence: 0.8,
        proximate: false,
    };
    let hbg = infer_hbg(&trace, &cfg);
    let noisy = prove(&trace, &hbg, &m.verifier, &m.plan, m.proof.target, 0.8);
    assert_eq!(noisy.transcript.undo, m.proof.transcript.undo);
    assert_eq!(noisy.transcript.redo, m.proof.transcript.redo);
    assert_eq!(noisy, m.proof);
}
