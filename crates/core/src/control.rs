//! The integrated loop of the paper's Fig. 3.
//!
//! `capture control-plane I/Os → consistent data-plane snapshot →
//! data-plane verifier → trace provenance → repair root cause`.
//!
//! [`Guard`] makes the loop's decision on a horizon it is handed: it
//! *waits* on a view that is not causally closed (§5), verifies a closed
//! one, and on a violation walks the HBG to the root causes (§6) and
//! licenses the inverse of a root-cause configuration change once its
//! proof gates REPRODUCED; other causes become operator notifications.
//! [`ControlLoop::run`] is its shell around a live [`Simulation`].

use crate::builder::HbgBuilder;
use crate::infer::InferConfig;
use crate::proof::{gate_repair, prove_in, RepairProof};
use crate::provenance::{input_of, root_causes_in, CaptureView, FibKey, RootCauseKind};
use crate::repair::{propose_repairs_report, RepairAction, RepairPlan};
use crate::rules::FoldRecord;
use crate::snapshot::{ConsistencyTracker, SnapshotStatus};
use cpvr_bgp::ConfigChange;
use cpvr_dataplane::FibUpdate;
use cpvr_sim::{EventId, IoEvent, Simulation};
use cpvr_topo::Topology;
use cpvr_types::{Ipv4Prefix, RouterId, SimTime};
use cpvr_verify::{verify, IncrementalVerifier, Policy, ReplayVerdict};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;

/// The topology state verification verdicts depend on: the up/down state
/// of every link and external peer. Traces consult nothing else, so an
/// unchanged signature means cached per-class verdicts stay valid.
fn topo_signature(topo: &Topology) -> Vec<bool> {
    topo.links()
        .iter()
        .map(|l| l.state.is_up())
        .chain(topo.ext_peers().iter().map(|p| p.state.is_up()))
        .collect()
}

/// One entry in the guard's timeline.
#[derive(Clone, Debug)]
pub enum GuardAction {
    /// The snapshot was not causally closed; the verifier waited for
    /// records from these routers.
    Waited {
        /// The routers whose records were outstanding.
        for_routers: Vec<RouterId>,
    },
    /// A consistent snapshot violated the policies.
    Detected {
        /// Number of violations.
        violations: usize,
    },
    /// A root cause was reverted — after its proof's replay gate
    /// returned REPRODUCED.
    Repaired {
        /// The plan that was applied.
        plan: RepairPlan,
    },
    /// A proposed repair was *blocked*: its proof's replay gate
    /// returned DIVERGED or ERROR, so the tentative apply was rolled
    /// back and nothing reached the network.
    Blocked {
        /// The plan that was not applied.
        plan: RepairPlan,
        /// Why the gate refused it.
        verdict: ReplayVerdict,
    },
    /// A non-revertible root cause was reported.
    Notified {
        /// The plan describing the notification.
        plan: RepairPlan,
    },
}

/// The outcome of a guarded run.
#[derive(Clone, Debug, Default)]
pub struct GuardReport {
    /// What happened, in order, with timestamps.
    pub timeline: Vec<(SimTime, GuardAction)>,
    /// Whether the live data plane satisfied every policy at the end.
    pub final_ok: bool,
    /// Every proof minted during the run, in mint order — applied and
    /// blocked alike, for auditing and journaling.
    pub(crate) proofs: Vec<RepairProof>,
}

impl GuardReport {
    fn count(&self, f: impl Fn(&GuardAction) -> bool) -> usize {
        self.timeline.iter().filter(|(_, a)| f(a)).count()
    }

    /// Number of repairs applied.
    pub fn repairs(&self) -> usize {
        self.count(|a| matches!(a, GuardAction::Repaired { .. }))
    }

    /// Number of wait decisions (false alarms avoided).
    pub fn waits(&self) -> usize {
        self.count(|a| matches!(a, GuardAction::Waited { .. }))
    }

    /// Renders the timeline for humans.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (t, a) in &self.timeline {
            let line = match a {
                GuardAction::Waited { for_routers } => {
                    format!("[{t}] snapshot inconsistent; waiting for {for_routers:?}")
                }
                GuardAction::Detected { violations } => {
                    format!("[{t}] VIOLATION: {violations} policy check(s) failed")
                }
                GuardAction::Repaired { plan } => format!("[{t}] REPAIR: {plan}"),
                GuardAction::Blocked { plan, verdict } => {
                    format!("[{t}] BLOCKED ({}): {plan} — {verdict:?}", verdict.label())
                }
                GuardAction::Notified { plan } => format!("[{t}] NOTIFY: {plan}"),
            };
            s = s + &line + "\n";
        }
        let verdict = if self.final_ok {
            "compliant"
        } else {
            "VIOLATING"
        };
        s + "final: " + verdict + "\n"
    }
}

/// The guard's view of the capture: records by id, the input table, and
/// each FIB key's records in `(time, id)` order.
#[derive(Clone, Default)]
struct FoldState {
    records: Vec<Option<FoldRecord>>,
    inputs: HashMap<EventId, RootCauseKind>,
    fibs: HashMap<FibKey, FibHistory>,
}

#[derive(Clone, Default)]
struct FibHistory {
    /// `(time, id, arrives)`: the tracker steps over a lost record.
    entries: Vec<(SimTime, EventId, bool)>,
    /// Entries the tracker has handed over or stepped past.
    handed: usize,
}

impl FoldState {
    fn ingest(&mut self, rec: FoldRecord, arrives: bool, input: Option<RootCauseKind>) {
        let i = rec.id.index();
        self.records.resize(self.records.len().max(i + 1), None);
        self.records[i] = Some(rec);
        self.inputs.extend(input.map(|input| (rec.id, input)));
        if let Some(u) = rec.fib_update() {
            let h = &mut self.fibs.entry((u.router, u.prefix)).or_default().entries;
            let at = h.partition_point(|(t, id, _)| (*t, *id) < rec.key());
            h.insert(at, (rec.time, rec.id, arrives));
        }
    }

    /// Notes one update the tracker applied: the next arriving record of
    /// its `(router, prefix)` — the tracker applies each router's records
    /// in `(time, id)` order, stepping over lost ones.
    fn handed(&mut self, u: &FibUpdate) {
        let h = self.fibs.get_mut(&(u.router, u.prefix)).expect("ingested");
        h.handed += 1 + h.entries[h.handed..].iter().take_while(|e| !e.2).count();
    }

    /// The problematic FIB update: the last record handed over on a
    /// prefix overlapping one of `violated`.
    fn last_handed(&self, violated: &[Ipv4Prefix]) -> Option<EventId> {
        let on = |p: &Ipv4Prefix| violated.iter().any(|v| v.overlaps(p));
        let last = self.fibs.iter().filter(|((_, p), h)| h.handed > 0 && on(p));
        let last = last.map(|(_, h)| h.entries[h.handed - 1]).max();
        last.map(|(_, id, _)| id)
    }
}

impl CaptureView for FoldState {
    fn record(&self, id: EventId) -> Option<FoldRecord> {
        *self.records.get(id.index())?
    }

    fn input(&self, id: EventId) -> Option<RootCauseKind> {
        self.inputs.get(&id).cloned()
    }

    fn fib_history(&self, keys: &BTreeSet<FibKey>, horizon: SimTime) -> Vec<FoldRecord> {
        let entries = keys.iter().filter_map(|k| self.fibs.get(k));
        let entries = entries
            .flat_map(|h| &h.entries)
            .filter(|(t, ..)| *t <= horizon);
        entries.filter_map(|(_, id, _)| self.record(*id)).collect()
    }
}

/// The loop's decision (Fig. 3), one horizon at a time, over the tracker,
/// the incremental HBG, the resident verifier and the guard's view of
/// the capture. Every shell feeds it captured events and asks it at each
/// horizon; it reads no clock, holds no simulation and applies nothing.
#[derive(Clone)]
pub struct Guard {
    policies: Vec<Policy>,
    min_confidence: f64,
    builder: HbgBuilder,
    tracker: ConsistencyTracker,
    state: FoldState,
    /// The resident verifier, with the topology signature it was built
    /// on: it mirrors the tracker's data plane via the FIB deltas each
    /// advance reports, and is rebuilt only when the topology state the
    /// verdicts depend on changes.
    verifier: Option<(Vec<bool>, IncrementalVerifier)>,
    repaired: BTreeSet<EventId>,
    notified: BTreeSet<EventId>,
    own_changes: Vec<ConfigChange>,
}

impl Guard {
    /// A guard enforcing `policies` on a network of `n_routers`, acting on
    /// HBRs of confidence ≥ `min_confidence`.
    pub fn new(policies: Vec<Policy>, min_confidence: f64, n_routers: usize) -> Self {
        let cfg = InferConfig {
            rules: true,
            min_confidence,
            ..Default::default()
        };
        Guard {
            policies,
            min_confidence,
            builder: HbgBuilder::new(&cfg),
            tracker: ConsistencyTracker::new(n_routers),
            state: FoldState::default(),
            verifier: None,
            repaired: BTreeSet::new(),
            notified: BTreeSet::new(),
            own_changes: Vec::new(),
        }
    }

    /// Takes one captured event into the builder, the tracker and the
    /// guard's view. Every event stamped ≤ a horizon must be handed over
    /// before [`decide`](Self::decide) is asked at it.
    pub fn ingest(&mut self, e: &IoEvent) {
        let rec = FoldRecord::of(e);
        self.builder.ingest_record(rec);
        self.tracker.ingest_record(rec, e.arrived_at);
        self.state
            .ingest(rec, e.arrived_at.is_some(), input_of(&e.kind));
    }

    /// Decides at horizon `t` over `topo`, appending what it did to
    /// `report`'s timeline and the proofs it minted to its proofs.
    /// Returns the revert it licenses — at most one a horizon — for the
    /// shell to apply on the named router.
    pub fn decide(
        &mut self,
        t: SimTime,
        topo: &Topology,
        report: &mut GuardReport,
    ) -> Option<(RouterId, ConfigChange)> {
        // Edges never point backward in time, so the graph over every
        // event stamped ≤ t is final once the watermark reaches t.
        self.builder.advance(t);
        let (timeline, proofs) = (&mut report.timeline, &mut report.proofs);
        let (state, verifier) = (&mut self.state, &mut self.verifier);
        // §5: only verify causally closed views.
        let status = self.tracker.advance_with(t, |u| {
            state.handed(&u);
            if let Some((_, v)) = verifier {
                v.apply(&u);
            }
        });
        if let SnapshotStatus::WaitFor(rs) = status {
            timeline.push((t, GuardAction::Waited { for_routers: rs }));
            return None;
        }
        // A topology-state change invalidates every cached verdict:
        // rebuild from the tracker's snapshot.
        let sig = topo_signature(topo);
        if self.verifier.as_ref().is_none_or(|(s, _)| *s != sig) {
            let dp = self.tracker.dataplane().clone();
            let v = IncrementalVerifier::new(topo.clone(), dp, self.policies.clone());
            self.verifier = Some((sig, v));
        }
        let (_, v) = self.verifier.as_ref().expect("just built");
        let vr = v.report();
        if vr.ok() {
            return None;
        }
        let violations = vr.violations.len();
        timeline.push((t, GuardAction::Detected { violations }));
        let violated: Vec<_> = vr.violations.iter().map(|v| v.policy.prefix()).collect();
        let bad_fib = self.state.last_handed(&violated)?;
        let (hbg, conf) = (self.builder.hbg(), self.min_confidence);
        let causes = root_causes_in(&self.state, hbg, bad_fib, conf);
        // Never "repair" our own repairs, and never repeat one.
        let fresh: Vec<_> = causes
            .into_iter()
            .filter(|c| !self.repaired.contains(&c.event))
            .filter(|c| match &c.kind {
                RootCauseKind::ConfigChange {
                    change: Some(ch), ..
                } => !self.own_changes.contains(ch),
                _ => true,
            })
            .collect();
        let mut revert = None;
        for plan in propose_repairs_report(&fresh, conf).plans {
            let (root, router) = (plan.root.event, plan.router);
            let action = match &plan.action {
                // One repair at a time; reassess after.
                RepairAction::RevertConfig(_) if revert.is_some() => continue,
                // Proof-carrying repair: mint the evidence and replay it
                // on a shadow of the resident verifier. Only REPRODUCED
                // commits; the tentative apply dies with the shadow.
                RepairAction::RevertConfig(inv) => {
                    let proof = prove_in(&self.state, hbg, v, &plan, bad_fib, conf);
                    let verdict = gate_repair(v, &proof);
                    proofs.push(proof);
                    if verdict.is_reproduced() {
                        self.own_changes.push(inv.clone());
                        self.repaired.insert(root);
                        revert = Some((router, inv.clone()));
                        GuardAction::Repaired { plan }
                    } else {
                        GuardAction::Blocked { plan, verdict }
                    }
                }
                RepairAction::NotifyOperator(_) => GuardAction::Notified { plan },
            };
            if matches!(action, GuardAction::Repaired { .. }) || self.notified.insert(root) {
                timeline.push((t, action));
            }
        }
        revert
    }
}

/// Configuration of the guarded verification/repair loop.
#[derive(Clone, Debug)]
pub struct ControlLoop {
    /// Policies to enforce.
    pub policies: Vec<Policy>,
    /// Minimum HBR confidence to act on (§4.2's thresholding).
    pub min_confidence: f64,
    /// Verification cadence.
    pub interval: SimTime,
}

impl ControlLoop {
    /// A loop with a sensible default cadence for the given policies.
    pub fn new(policies: Vec<Policy>) -> Self {
        ControlLoop {
            policies,
            min_confidence: 0.8,
            interval: SimTime::from_millis(50),
        }
    }

    /// Runs the guard for `budget` of simulated time, then drains the
    /// simulation and issues a final verdict against the live data plane:
    /// seeds a [`Guard`] with the history captured so far, taps the event
    /// sink into it, asks it every `interval`, and schedules each revert
    /// it licenses.
    pub fn run(&self, sim: &mut Simulation, budget: SimTime) -> GuardReport {
        let mut report = GuardReport::default();
        let n = sim.topology().num_routers();
        let guard = Guard::new(self.policies.clone(), self.min_confidence, n);
        let guard = Rc::new(RefCell::new(guard));
        for e in &sim.trace().events {
            guard.borrow_mut().ingest(e);
        }
        let tap = Rc::clone(&guard);
        sim.set_event_sink(Box::new(move |e: &IoEvent| tap.borrow_mut().ingest(e)));
        let end = sim.now() + budget;
        let mut t = sim.now();
        while t < end {
            t = (t + self.interval).min(end);
            sim.run_until(t);
            let revert = guard.borrow_mut().decide(t, sim.topology(), &mut report);
            if let Some((router, inv)) = revert {
                sim.schedule_config(sim.now(), router, inv);
            }
        }
        sim.run_to_quiescence(1_000_000);
        sim.clear_event_sink();
        report.final_ok = verify(sim.topology(), sim.dataplane(), &self.policies).ok();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpvr_bgp::{PeerRef, RouteMap, SetAction};
    use cpvr_sim::scenario::paper_scenario;
    use cpvr_sim::{CaptureProfile, LatencyProfile};

    /// The full paper story, end to end: misconfiguration → detection on
    /// a consistent snapshot → root cause → automatic rollback → policy
    /// holds again.
    #[test]
    fn fig2_violation_is_detected_and_repaired() {
        let mut s = paper_scenario(LatencyProfile::fast(), CaptureProfile::ideal(), 21);
        s.sim.start();
        s.sim.run_to_quiescence(100_000);
        s.sim
            .schedule_ext_announce(s.sim.now() + SimTime::from_millis(1), s.ext_r1, &[s.prefix]);
        s.sim.schedule_ext_announce(
            s.sim.now() + SimTime::from_millis(100),
            s.ext_r2,
            &[s.prefix],
        );
        s.sim.run_to_quiescence(100_000);
        // The ill-considered change (Fig. 2a).
        let change = cpvr_bgp::ConfigChange::SetImport {
            peer: PeerRef::External(s.ext_r2),
            map: RouteMap::set_all(vec![SetAction::LocalPref(10)]),
        };
        s.sim
            .schedule_config(s.sim.now() + SimTime::from_millis(20), RouterId(1), change);
        let guard = ControlLoop::new(vec![Policy::PreferredExit {
            prefix: s.prefix,
            primary: s.ext_r2,
            backup: s.ext_r1,
        }]);
        let report = guard.run(&mut s.sim, SimTime::from_secs(2));
        assert!(report.repairs() >= 1, "timeline:\n{}", report.render());
        assert!(report.final_ok, "timeline:\n{}", report.render());
        // The repair must be the inverse of the bad change: LP back to 30.
        let repaired = report
            .timeline
            .iter()
            .find_map(|(_, a)| match a {
                GuardAction::Repaired { plan } => Some(plan.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(repaired.router, RouterId(1));
        match &repaired.action {
            RepairAction::RevertConfig(cpvr_bgp::ConfigChange::SetImport { peer, map }) => {
                assert_eq!(*peer, PeerRef::External(s.ext_r2));
                assert_eq!(*map, RouteMap::set_all(vec![SetAction::LocalPref(30)]));
            }
            other => panic!("unexpected repair action {other:?}"),
        }
    }

    /// A compliant network stays untouched.
    #[test]
    fn no_violation_no_action() {
        let mut s = paper_scenario(LatencyProfile::fast(), CaptureProfile::ideal(), 22);
        s.sim.start();
        s.sim.run_to_quiescence(100_000);
        s.sim
            .schedule_ext_announce(s.sim.now() + SimTime::from_millis(1), s.ext_r1, &[s.prefix]);
        s.sim
            .schedule_ext_announce(s.sim.now() + SimTime::from_millis(5), s.ext_r2, &[s.prefix]);
        let guard = ControlLoop::new(vec![Policy::PreferredExit {
            prefix: s.prefix,
            primary: s.ext_r2,
            backup: s.ext_r1,
        }]);
        let report = guard.run(&mut s.sim, SimTime::from_secs(1));
        assert_eq!(report.repairs(), 0, "timeline:\n{}", report.render());
        assert!(report.final_ok);
    }

    /// An uplink failure is a hardware root cause: not revertible, the
    /// operator gets notified, and no bogus repair fires (§8 limitation).
    #[test]
    fn uplink_failure_notifies_instead_of_repairing() {
        let mut s = paper_scenario(LatencyProfile::fast(), CaptureProfile::ideal(), 23);
        s.sim.start();
        s.sim.run_to_quiescence(100_000);
        // Only R2's uplink has the route; when it dies, traffic blackholes
        // and nothing can be reverted.
        s.sim
            .schedule_ext_announce(s.sim.now() + SimTime::from_millis(1), s.ext_r2, &[s.prefix]);
        s.sim.run_to_quiescence(100_000);
        s.sim
            .schedule_ext_peer_change(s.sim.now() + SimTime::from_millis(30), s.ext_r2, false);
        let guard = ControlLoop::new(vec![Policy::Reachable { prefix: s.prefix }]);
        let report = guard.run(&mut s.sim, SimTime::from_secs(1));
        assert_eq!(report.repairs(), 0, "timeline:\n{}", report.render());
        let notified = report
            .timeline
            .iter()
            .any(|(_, a)| matches!(a, GuardAction::Notified { .. }));
        assert!(notified, "timeline:\n{}", report.render());
        assert!(!report.final_ok, "the route is genuinely gone");
    }

    /// With skewed capture, the guard waits instead of false-alarming.
    #[test]
    fn skewed_capture_causes_waits_not_false_repairs() {
        let mut s = paper_scenario(LatencyProfile::cisco(), CaptureProfile::syslog(), 24);
        s.sim.start();
        s.sim.run_to_quiescence(100_000);
        s.sim
            .schedule_ext_announce(s.sim.now() + SimTime::from_millis(1), s.ext_r1, &[s.prefix]);
        s.sim.schedule_ext_announce(
            s.sim.now() + SimTime::from_millis(200),
            s.ext_r2,
            &[s.prefix],
        );
        let guard = ControlLoop {
            policies: vec![Policy::PreferredExit {
                prefix: s.prefix,
                primary: s.ext_r2,
                backup: s.ext_r1,
            }],
            min_confidence: 0.8,
            interval: SimTime::from_millis(10),
        };
        let report = guard.run(&mut s.sim, SimTime::from_secs(1));
        assert_eq!(report.repairs(), 0, "timeline:\n{}", report.render());
        assert!(report.final_ok);
    }

    /// E3's network (Fig. 2a) with `flaps` announce/withdraw cycles of ten
    /// unrelated prefixes from R1's uplink first, converged with both
    /// uplinks announcing `P`; the local-pref fault is not yet scheduled.
    fn padded_triangle(flaps: u64) -> cpvr_sim::scenario::PaperScenario {
        let mut s = paper_scenario(LatencyProfile::fast(), CaptureProfile::ideal(), 21);
        s.sim.start();
        s.sim.run_to_quiescence(100_000);
        let noise = cpvr_sim::workload::prefix_block(10);
        for i in 0..flaps {
            let at = s.sim.now() + SimTime::from_millis(20 * i + 1);
            s.sim.schedule_ext_announce(at, s.ext_r1, &noise);
            let at = at + SimTime::from_millis(10);
            s.sim.schedule_ext_withdraw(at, s.ext_r1, &noise);
        }
        s.sim.run_to_quiescence(usize::MAX);
        let at = s.sim.now() + SimTime::from_millis(1);
        s.sim.schedule_ext_announce(at, s.ext_r1, &[s.prefix]);
        let at = at + SimTime::from_millis(5);
        s.sim.schedule_ext_announce(at, s.ext_r2, &[s.prefix]);
        s.sim.run_to_quiescence(100_000);
        s
    }

    /// E3's fault: R1 imports R2's uplink routes at local-pref 10.
    fn lp_fault(s: &mut cpvr_sim::scenario::PaperScenario) -> Policy {
        let change = ConfigChange::SetImport {
            peer: PeerRef::External(s.ext_r2),
            map: RouteMap::set_all(vec![SetAction::LocalPref(10)]),
        };
        let at = s.sim.now() + SimTime::from_millis(20);
        s.sim.schedule_config(at, RouterId(1), change);
        Policy::PreferredExit {
            prefix: s.prefix,
            primary: s.ext_r2,
            backup: s.ext_r1,
        }
    }

    /// Both views of E3's fault give one answer: the trace, read on
    /// demand, and the fold state built from the trace's `FoldRecord`s
    /// plus the input table pick the same problematic FIB update, walk
    /// to the same root causes and plans, and mint byte-identical proofs
    /// that gate alike — and the guard's own decision mints that proof.
    #[test]
    fn both_views_of_the_lp_fault_mint_the_same_proof() {
        use crate::infer::infer_hbg;
        use crate::snapshot::snapshot_arrived_by;
        let mut s = padded_triangle(0);
        let policy = lp_fault(&mut s);
        s.sim.run_to_quiescence(100_000);
        let (trace, t, topo) = (s.sim.trace(), s.sim.now(), s.sim.topology());
        let n = topo.num_routers();

        let mut fold = FoldState::default();
        for e in &trace.events {
            fold.ingest(FoldRecord::of(e), e.arrived_at.is_some(), input_of(&e.kind));
        }
        let dp = snapshot_arrived_by(trace, n, t);
        let verifier = IncrementalVerifier::new(topo.clone(), dp, vec![policy.clone()]);
        let report = verifier.report();
        assert!(!report.ok(), "the fault violates the policy");

        // The problematic FIB update, as the loop found it before the
        // guard: the last arrived FIB event on a violated prefix.
        let violated: Vec<_> = report
            .violations
            .iter()
            .map(|v| v.policy.prefix())
            .collect();
        let arrived = trace.arrived_by(t).into_iter().filter(|e| {
            let prefix = FoldRecord::of(e).fib_update().map(|u| u.prefix);
            prefix.is_some_and(|p| violated.iter().any(|v| v.overlaps(&p)))
        });
        let bad = arrived
            .max_by_key(|e| (e.time, e.id))
            .expect("a FIB event")
            .id;
        let mut tracker = ConsistencyTracker::new(n);
        for e in &trace.events {
            tracker.ingest(e);
        }
        tracker.advance_with(t, |u| fold.handed(&u));
        assert_eq!(fold.last_handed(&violated), Some(bad));

        let cfg = InferConfig {
            rules: true,
            patterns: None,
            min_confidence: 0.8,
            proximate: false,
        };
        let hbg = infer_hbg(trace, &cfg);
        let causes = root_causes_in(trace, &hbg, bad, 0.8);
        assert!(!causes.is_empty());
        assert_eq!(root_causes_in(&fold, &hbg, bad, 0.8), causes);
        let plans = propose_repairs_report(&causes, 0.8);
        let reverts: Vec<_> = plans
            .plans
            .iter()
            .filter(|p| matches!(p.action, RepairAction::RevertConfig(_)))
            .collect();
        assert_eq!(reverts.len(), 1, "plans: {:?}", plans.plans);
        let proof = prove_in(trace, &hbg, &verifier, reverts[0], bad, 0.8);
        let folded = prove_in(&fold, &hbg, &verifier, reverts[0], bad, 0.8);
        assert_eq!(folded.encode_binary(), proof.encode_binary());
        assert_eq!(
            gate_repair(&verifier, &folded),
            gate_repair(&verifier, &proof)
        );
        assert!(gate_repair(&verifier, &proof).is_reproduced());

        // The guard, handed the same events, decides the same.
        let mut guard = Guard::new(vec![policy], 0.8, n);
        for e in &trace.events {
            guard.ingest(e);
        }
        let mut decided = GuardReport::default();
        let revert = guard.decide(t, topo, &mut decided);
        assert_eq!(guard.builder.hbg().canonical_edges(), hbg.canonical_edges());
        assert_eq!(decided.proofs.len(), 1);
        assert_eq!(decided.proofs[0].encode_binary(), proof.encode_binary());
        let RepairAction::RevertConfig(inv) = &reverts[0].action else {
            unreachable!("filtered to reverts")
        };
        assert_eq!(revert, Some((reverts[0].router, inv.clone())));
    }

    /// The guard's CPU on a violating epoch follows the incident, not the
    /// history: on E3's fault behind ≈ 24k and 16× as many unrelated
    /// events, the violating epoch's `decide` costs within 2×. Run with
    /// `--release -- --include-ignored`.
    #[test]
    #[ignore]
    fn a_violating_epoch_costs_the_same_behind_a_long_history() {
        use std::time::{Duration, Instant};
        // The slowest violating epoch of one run, on the guard the loop
        // runs (a clone would pay a whole copy of its arrays on the first
        // growth), and the trace length it ran behind.
        let epoch_cost = |flaps: u64| {
            let mut s = padded_triangle(flaps);
            let policy = lp_fault(&mut s);
            let n = s.sim.topology().num_routers();
            let mut guard = Guard::new(vec![policy], 0.8, n);
            let (mut fed, mut report) = (0, GuardReport::default());
            let (mut t, mut cost) = (s.sim.now(), None::<Duration>);
            for _ in 0..40 {
                t += SimTime::from_millis(10);
                s.sim.run_until(t);
                for e in &s.sim.trace().events[fed..] {
                    guard.ingest(e);
                }
                fed = s.sim.trace().len();
                let before = report.timeline.len();
                let t0 = Instant::now();
                let revert = guard.decide(t, s.sim.topology(), &mut report);
                let took = t0.elapsed();
                let detected = report.timeline[before..]
                    .iter()
                    .any(|(_, a)| matches!(a, GuardAction::Detected { .. }));
                if detected {
                    cost = Some(cost.map_or(took, |c| c.max(took)));
                }
                if let Some((router, inv)) = revert {
                    s.sim.schedule_config(s.sim.now(), router, inv);
                }
            }
            assert!(
                report.final_ok || report.repairs() == 1,
                "{}",
                report.render()
            );
            (fed, cost.expect("the fault is detected"))
        };
        // The best of three runs each, against scheduler noise.
        let best = |flaps| {
            (0..3)
                .map(|_| epoch_cost(flaps))
                .min_by_key(|(_, c)| *c)
                .unwrap()
        };
        let (short_len, short) = best(100);
        let (long_len, long) = best(16 * 100);
        println!("violating epoch: {short:?} at {short_len} events, {long:?} at {long_len}");
        assert!((20_000..30_000).contains(&short_len), "{short_len} events");
        assert!(
            long_len >= 15 * short_len,
            "{long_len} vs {short_len} events"
        );
        assert!(
            long <= 2 * short,
            "{long:?} at {long_len} events vs {short:?} at {short_len}"
        );
    }
}
