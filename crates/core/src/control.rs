//! The integrated loop of the paper's Fig. 3.
//!
//! `capture control-plane I/Os → consistent data-plane snapshot →
//! data-plane verifier → trace provenance → repair root cause`.
//!
//! [`ControlLoop::run`] drives a live [`Simulation`] in fixed steps. At
//! each step it checks whether the verifier's view is causally closed
//! (§5); if not it *waits* — never raising alarms on inconsistent
//! snapshots. On a consistent view it verifies the policies; on a
//! violation it infers the HBG from the arrived records, walks to the
//! root causes (§6), and schedules the inverse of a root-cause
//! configuration change. Non-revertible causes become operator
//! notifications.

use crate::builder::HbgBuilder;
use crate::infer::InferConfig;
use crate::proof::{gate_repair, prove, RepairProof};
use crate::provenance::{root_causes, RootCauseKind};
use crate::repair::{propose_repairs_report, RepairAction, RepairPlan};
use crate::snapshot::{ConsistencyTracker, SnapshotStatus};
use cpvr_bgp::ConfigChange;
use cpvr_dataplane::FibUpdate;
use cpvr_sim::{EventId, IoKind, Simulation};
use cpvr_topo::Topology;
use cpvr_types::{RouterId, SimTime};
use cpvr_verify::{verify, IncrementalVerifier, Policy, ReplayVerdict};
use std::cell::RefCell;
use std::collections::BTreeSet;
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
    /// Root causes found but not acted on because their confidence fell
    /// below the loop's threshold (previously dropped silently).
    pub(crate) skipped_low_confidence: usize,
    /// Every proof minted during the run, in mint order — applied and
    /// blocked alike, for auditing and journaling.
    pub(crate) proofs: Vec<RepairProof>,
}

impl GuardReport {
    /// Number of repairs applied.
    pub fn repairs(&self) -> usize {
        self.timeline
            .iter()
            .filter(|(_, a)| matches!(a, GuardAction::Repaired { .. }))
            .count()
    }

    /// Number of wait decisions (false alarms avoided).
    pub fn waits(&self) -> usize {
        self.timeline
            .iter()
            .filter(|(_, a)| matches!(a, GuardAction::Waited { .. }))
            .count()
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
            s.push_str(&line);
            s.push('\n');
        }
        s.push_str(&format!(
            "final: {}\n",
            if self.final_ok {
                "compliant"
            } else {
                "VIOLATING"
            }
        ));
        s
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
    /// simulation and issues a final verdict against the live data plane.
    ///
    /// The guard consumes the capture *stream*, not the accumulated
    /// trace: it taps the simulator's event sink and feeds an
    /// incremental [`HbgBuilder`] and [`ConsistencyTracker`], so each
    /// verification epoch costs time proportional to the events that
    /// newly arrived — not to the whole history. Both produce
    /// bit-identical results to the batch paths they replace
    /// ([`crate::infer::infer_hbg`], [`crate::snapshot::consistency_check`],
    /// [`crate::snapshot::snapshot_arrived_by`]).
    pub fn run(&self, sim: &mut Simulation, budget: SimTime) -> GuardReport {
        let mut report = GuardReport::default();
        let mut repaired_roots: BTreeSet<EventId> = BTreeSet::new();
        let mut notified_roots: BTreeSet<EventId> = BTreeSet::new();
        let mut own_changes: Vec<ConfigChange> = Vec::new();
        let n = sim.topology().num_routers();
        let cfg = InferConfig {
            rules: true,
            patterns: None,
            min_confidence: self.min_confidence,
            proximate: false,
        };
        // Seed the incremental consumers with the history captured before
        // the guard attached, then tap the live stream.
        let builder = Rc::new(RefCell::new(HbgBuilder::new(&cfg)));
        let tracker = Rc::new(RefCell::new(ConsistencyTracker::new(n)));
        for e in &sim.trace().events {
            builder.borrow_mut().ingest(e);
            tracker.borrow_mut().ingest(e);
        }
        {
            let builder = Rc::clone(&builder);
            let tracker = Rc::clone(&tracker);
            sim.set_event_sink(Box::new(move |e: &cpvr_sim::IoEvent| {
                builder.borrow_mut().ingest(e);
                tracker.borrow_mut().ingest(e);
            }));
        }
        // The resident verifier mirrors the tracker's data plane via the
        // FIB deltas each advance reports; it is rebuilt only when the
        // topology state the verdicts depend on changes.
        let mut verifier: Option<IncrementalVerifier> = None;
        let mut deltas: Vec<FibUpdate> = Vec::new();
        let mut last_sig: Vec<bool> = Vec::new();
        let end = sim.now() + budget;
        let mut t = sim.now();
        while t < end {
            t = (t + self.interval).min(end);
            sim.run_until(t);
            // §5: only verify causally closed views.
            match tracker.borrow_mut().advance_with(t, |u| deltas.push(u)) {
                SnapshotStatus::WaitFor(rs) => {
                    report
                        .timeline
                        .push((t, GuardAction::Waited { for_routers: rs }));
                    continue;
                }
                SnapshotStatus::Consistent => {}
            }
            // Feed the deltas that arrived since the last consistent
            // epoch into the incremental engine (deltas accumulate
            // harmlessly across waits). A topology-state change
            // invalidates every cached verdict → rebuild from the
            // tracker's current snapshot instead (discarding the
            // deltas, which that snapshot already contains).
            let sig = topo_signature(sim.topology());
            match &mut verifier {
                Some(v) if sig == last_sig => {
                    for u in deltas.drain(..) {
                        v.apply(&u);
                    }
                }
                _ => {
                    deltas.clear();
                    verifier = Some(IncrementalVerifier::new(
                        sim.topology().clone(),
                        tracker.borrow().dataplane().clone(),
                        self.policies.clone(),
                    ));
                    last_sig = sig;
                }
            }
            let vr = verifier.as_ref().expect("just built").report();
            if vr.ok() {
                continue;
            }
            report.timeline.push((
                t,
                GuardAction::Detected {
                    violations: vr.violations.len(),
                },
            ));
            // Locate the problematic FIB update: the most recent arrived
            // FIB event touching a violated policy's prefix.
            let violated_prefixes: Vec<_> =
                vr.violations.iter().map(|v| v.policy.prefix()).collect();
            let arrived = sim.trace().arrived_by(t);
            let bad_fib = arrived
                .iter()
                .filter(|e| {
                    matches!(
                        &e.kind,
                        IoKind::FibInstall { prefix, .. } | IoKind::FibRemove { prefix }
                            if violated_prefixes.iter().any(|vp| vp.overlaps(prefix))
                    )
                })
                .max_by_key(|e| (e.time, e.id));
            let Some(bad_fib) = bad_fib.map(|e| e.id) else {
                continue;
            };
            // Fold everything stamped up to the verification horizon into
            // the incremental HBG, then walk to root causes. Edges never
            // point backward in time, so the ancestors of an event stamped
            // ≤ t are complete once the watermark reaches t — the walk
            // sees exactly the graph batch inference would produce.
            let mut b = builder.borrow_mut();
            b.advance(t);
            let causes = root_causes(sim.trace(), b.hbg(), bad_fib, self.min_confidence);
            drop(b);
            // Never "repair" our own repairs, and never repeat one.
            let fresh: Vec<_> = causes
                .into_iter()
                .filter(|c| !repaired_roots.contains(&c.event))
                .filter(|c| match &c.kind {
                    RootCauseKind::ConfigChange {
                        change: Some(ch), ..
                    } => !own_changes.contains(ch),
                    _ => true,
                })
                .collect();
            let planned = propose_repairs_report(&fresh, self.min_confidence);
            report.skipped_low_confidence += planned.skipped_low_confidence.len();
            let mut acted = false;
            for plan in planned.plans {
                match &plan.action {
                    RepairAction::RevertConfig(inv) => {
                        if acted {
                            continue; // one repair at a time; reassess after
                        }
                        // Proof-carrying repair: mint the evidence
                        // artifact and re-execute its replay transcript
                        // against the resident verifier's shadow state.
                        // Only REPRODUCED commits; DIVERGED and ERROR
                        // block the plan, and the tentative apply was
                        // confined to the discarded shadow.
                        let v = verifier.as_ref().expect("resident verifier");
                        let b = builder.borrow();
                        let proof =
                            prove(sim.trace(), b.hbg(), v, &plan, bad_fib, self.min_confidence);
                        drop(b);
                        let verdict = gate_repair(v, &proof);
                        report.proofs.push(proof);
                        if verdict.is_reproduced() {
                            sim.schedule_config(sim.now(), plan.router, inv.clone());
                            own_changes.push(inv.clone());
                            repaired_roots.insert(plan.root.event);
                            report.timeline.push((t, GuardAction::Repaired { plan }));
                            acted = true;
                        } else if notified_roots.insert(plan.root.event) {
                            report
                                .timeline
                                .push((t, GuardAction::Blocked { plan, verdict }));
                        }
                    }
                    RepairAction::NotifyOperator(_) => {
                        if notified_roots.insert(plan.root.event) {
                            report.timeline.push((t, GuardAction::Notified { plan }));
                        }
                    }
                }
            }
        }
        sim.run_to_quiescence(1_000_000);
        sim.clear_event_sink();
        let final_report = verify(sim.topology(), sim.dataplane(), &self.policies);
        report.final_ok = final_report.ok();
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
}
