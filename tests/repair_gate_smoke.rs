//! Tier-1 smoke over the repair gate, which no other root-level test
//! runs: on the paper triangle with the bad-localpref fault, the
//! provenance → plan → proof → gate chain says REPRODUCED and the revert
//! it licenses restores the policy; the same proof with one tampered
//! transcript step is blocked and leaves the resident verifier exactly
//! as it was. The exhaustive versions live in
//! `crates/core/tests/{proof_gate,prop_proof}.rs`.

use cpvr::bgp::{ConfigChange, PeerRef, RouteMap, SetAction};
use cpvr::core::repair::RepairAction;
use cpvr::core::{
    gate_repair, infer_hbg, propose_repairs, prove, root_causes, ConsistencyTracker, InferConfig,
};
use cpvr::dataplane::FibAction;
use cpvr::sim::scenario::paper_scenario;
use cpvr::sim::{CaptureProfile, IoKind, LatencyProfile};
use cpvr::types::{RouterId, SimTime};
use cpvr::verify::{verify, IncrementalVerifier, Policy};

const MAX_EVENTS: usize = 100_000;
const MIN_CONF: f64 = 0.8;

#[test]
fn a_fresh_proof_reproduces_and_a_tampered_one_never_applies() {
    let mut s = paper_scenario(LatencyProfile::fast(), CaptureProfile::ideal(), 21);
    s.sim.start();
    s.sim.run_to_quiescence(MAX_EVENTS);
    s.sim
        .schedule_ext_announce(s.sim.now() + SimTime::from_millis(1), s.ext_r1, &[s.prefix]);
    s.sim
        .schedule_ext_announce(s.sim.now() + SimTime::from_millis(5), s.ext_r2, &[s.prefix]);
    s.sim.run_to_quiescence(MAX_EVENTS);
    // Fig. 2a: R2 stops preferring its own uplink.
    let fault = ConfigChange::SetImport {
        peer: PeerRef::External(s.ext_r2),
        map: RouteMap::set_all(vec![SetAction::LocalPref(10)]),
    };
    s.sim
        .schedule_config(s.sim.now() + SimTime::from_millis(20), RouterId(1), fault);
    s.sim.run_to_quiescence(MAX_EVENTS);

    let policies = vec![Policy::PreferredExit {
        prefix: s.prefix,
        primary: s.ext_r2,
        backup: s.ext_r1,
    }];
    let n = s.sim.topology().num_routers();
    let tracker = ConsistencyTracker::recover(n, s.sim.trace().events.iter(), s.sim.now());
    let verifier = IncrementalVerifier::new(
        s.sim.topology().clone(),
        tracker.dataplane().clone(),
        policies.clone(),
    );
    let violating = verifier.report();
    assert!(!violating.ok(), "the fault must violate the policy");

    // The problematic FIB update: the last time anyone reprogrammed P.
    let bad_fib = s
        .sim
        .trace()
        .events
        .iter()
        .filter(|e| matches!(&e.kind, IoKind::FibInstall { prefix, .. } if *prefix == s.prefix))
        .max_by_key(|e| (e.time, e.id))
        .expect("the fault reprogrammed P")
        .id;
    let cfg = InferConfig {
        rules: true,
        patterns: None,
        min_confidence: MIN_CONF,
        proximate: false,
    };
    let hbg = infer_hbg(s.sim.trace(), &cfg);
    let causes = root_causes(s.sim.trace(), &hbg, bad_fib, MIN_CONF);
    let (plan, inverse) = propose_repairs(&causes, MIN_CONF)
        .into_iter()
        .find_map(|p| match &p.action {
            RepairAction::RevertConfig(inv) => Some((p.clone(), inv.clone())),
            _ => None,
        })
        .expect("the misconfiguration yields a revertible plan");
    let proof = prove(s.sim.trace(), &hbg, &verifier, &plan, bad_fib, MIN_CONF);

    let verdict = gate_repair(&verifier, &proof);
    assert!(verdict.is_reproduced(), "fresh proof: {verdict:?}");

    // One tampered transcript step: the gate blocks, and its tentative
    // apply never reached the resident verifier.
    let mut forged = proof.clone();
    forged.transcript.undo[0].action = FibAction::Drop;
    let verdict = gate_repair(&verifier, &forged);
    assert!(
        matches!(verdict.label(), "diverged" | "error"),
        "tampered proof: {verdict:?}"
    );
    let after = verifier.report();
    assert_eq!(after.violations, violating.violations);
    assert_eq!(after.ecs_checked, violating.ecs_checked);
    assert_eq!(after.traces_run, violating.traces_run);
    assert_eq!(
        proof.transcript.digest_on(verifier.dataplane()),
        proof.transcript.base_digest,
        "the resident data plane is untouched"
    );

    // Committing what the gate licensed: the revert restores the policy.
    s.sim.schedule_config(s.sim.now(), plan.router, inverse);
    s.sim.run_to_quiescence(MAX_EVENTS);
    let repaired = verify(s.sim.topology(), s.sim.dataplane(), &policies);
    assert!(repaired.ok(), "after revert: {:?}", repaired.violations);
}
