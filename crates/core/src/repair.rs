//! Repairing policy violations (§6).
//!
//! The paper's first-line repair is "reverting the root cause event,
//! prior to installing any problematic FIB updates": walk the HBG to the
//! leaves, and if a leaf is a configuration change, apply its inverse and
//! report it to the operator. Some root causes are *not* revertible —
//! an external withdrawal because a provider link died cannot be undone
//! (§8's first limitation) — so plans distinguish revertible actions from
//! operator notifications.
//!
//! The module also quantifies why the naive alternative — blocking FIB
//! updates — is dangerous: [`blocking_divergence`] measures the
//! control/data-plane gap that blocking creates (the Fig. 2b hazard).

use crate::provenance::{RootCause, RootCauseKind};
use crate::snapshot::fib_updates;
use cpvr_bgp::ConfigChange;
use cpvr_dataplane::DataPlane;
use cpvr_sim::Trace;
use cpvr_types::{Ipv4Prefix, RouterId, SimTime};
use std::fmt;

/// What the repair engine wants done about one root cause.
#[derive(Clone, Debug, PartialEq)]
pub enum RepairAction {
    /// Apply this (inverse) configuration change on the router.
    RevertConfig(ConfigChange),
    /// Nothing can be reverted; tell the operator what happened. Used
    /// for hardware events, external routes, and config changes whose
    /// inverse is unknown.
    NotifyOperator(String),
}

/// A proposed repair for one root cause.
#[derive(Clone, Debug, PartialEq)]
pub struct RepairPlan {
    /// The router to act on.
    pub router: RouterId,
    /// The action.
    pub action: RepairAction,
    /// The root cause being addressed.
    pub root: RootCause,
    /// Why this plan follows from the root cause.
    pub rationale: String,
}

impl fmt::Display for RepairPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.action {
            RepairAction::RevertConfig(c) => {
                write!(
                    f,
                    "on {}: revert via `{c}` — {}",
                    self.router, self.rationale
                )
            }
            RepairAction::NotifyOperator(msg) => {
                write!(f, "notify operator about {}: {msg}", self.router)
            }
        }
    }
}

/// The outcome of turning root causes into plans: the plans, plus every
/// cause that was *not* planned because its confidence fell below the
/// threshold. Skipped causes used to be dropped silently, which left
/// operators unable to tell "no cause found" from "cause found but too
/// uncertain to act on" — now they ride along in
/// [`skipped_low_confidence`](Self::skipped_low_confidence).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct RepairReport {
    /// Actionable and notify plans, most-confident cause first.
    pub(crate) plans: Vec<RepairPlan>,
    /// Causes below the confidence threshold, in input order.
    pub skipped_low_confidence: Vec<RootCause>,
}

/// Turns root causes into repair plans, most-confident first. Root
/// causes below `min_confidence` are skipped (the §4.2 plan: only act
/// when confidence is high enough) — but surfaced, not swallowed.
pub fn propose_repairs_report(causes: &[RootCause], min_confidence: f64) -> RepairReport {
    let mut report = RepairReport::default();
    for root in causes {
        if root.confidence < min_confidence {
            report.skipped_low_confidence.push(root.clone());
            continue;
        }
        let plan = match &root.kind {
            RootCauseKind::ConfigChange { change, inverse } => match inverse {
                Some(inv) => RepairPlan {
                    router: root.router,
                    action: RepairAction::RevertConfig(inv.clone()),
                    root: root.clone(),
                    rationale: format!(
                        "configuration change `{}` is the root cause; rolling back",
                        change
                            .as_ref()
                            .map(|c| c.to_string())
                            .unwrap_or_else(|| "?".into())
                    ),
                },
                None => RepairPlan {
                    router: root.router,
                    action: RepairAction::NotifyOperator(
                        "root cause is a configuration change with no recorded inverse".into(),
                    ),
                    root: root.clone(),
                    rationale: "no version-system entry to roll back to".into(),
                },
            },
            RootCauseKind::Hardware { up, link, peer } => RepairPlan {
                router: root.router,
                action: RepairAction::NotifyOperator(format!(
                    "hardware event ({}{} went {}) cannot be reverted in software",
                    link.map(|l| l.to_string()).unwrap_or_default(),
                    peer.map(|p| p.to_string()).unwrap_or_default(),
                    if *up { "up" } else { "down" },
                )),
                root: root.clone(),
                rationale: "blocking a withdrawal caused by a dead link would blackhole traffic anyway (§8)".into(),
            },
            RootCauseKind::ExternalRoute { peer, prefix, withdraw } => RepairPlan {
                router: root.router,
                action: RepairAction::NotifyOperator(format!(
                    "external {} for {} from {} — outside our control",
                    if *withdraw { "withdrawal" } else { "announcement" },
                    prefix.map(|p| p.to_string()).unwrap_or_else(|| "?".into()),
                    peer.map(|p| p.to_string()).unwrap_or_else(|| "?".into()),
                )),
                root: root.clone(),
                rationale: "the Internet changed; adapt policy if intended".into(),
            },
            RootCauseKind::ProtocolStart | RootCauseKind::Unexplained => RepairPlan {
                router: root.router,
                action: RepairAction::NotifyOperator(
                    "root cause could not be attributed to an operator action".into(),
                ),
                root: root.clone(),
                rationale: "boot-time or unexplained provenance".into(),
            },
        };
        report.plans.push(plan);
    }
    report
}

/// Compatibility wrapper over [`propose_repairs_report`] returning the
/// plans alone.
pub fn propose_repairs(causes: &[RootCause], min_confidence: f64) -> Vec<RepairPlan> {
    propose_repairs_report(causes, min_confidence).plans
}

/// Measures the control-plane/data-plane divergence created by blocking:
/// entries where the *intended* FIB (what the control plane believes,
/// reconstructed from all captured FIB events up to `horizon` by event
/// time) differs from the *live* hardware FIB. Each divergent
/// `(router, prefix)` is a place where the Fig. 2b hazard is armed.
///
/// Defined (and non-panicking) on every input: an empty trace yields a
/// divergence entry per live FIB entry (the control plane believes in
/// an empty network), and trace events referencing routers the live
/// plane doesn't cover are diffed against an empty FIB rather than
/// indexing out of range.
pub fn blocking_divergence(
    trace: &Trace,
    live: &DataPlane,
    horizon: SimTime,
) -> Vec<(RouterId, Ipv4Prefix)> {
    let fibs = fib_updates(trace, horizon);
    // Cover every router either side mentions: captured FIB events may
    // reference routers the live snapshot doesn't carry (partial
    // capture), and those entries are divergent by definition.
    let n = fibs.iter().map(|u| u.router.index() + 1);
    let n = n.chain([live.num_routers()]).max().unwrap_or(0);
    let mut intended = DataPlane::new(n);
    for u in &fibs {
        intended.apply(u);
    }
    let action = |dp: &DataPlane, r: RouterId, p: &Ipv4Prefix| {
        (r.index() < dp.num_routers()).then(|| dp.fib(r).get(p).map(|e| e.action))?
    };
    let mut out = Vec::new();
    for rid in (0..n as u32).map(RouterId) {
        let mut prefixes: Vec<Ipv4Prefix> = intended.fib(rid).prefixes();
        if rid.index() < live.num_routers() {
            prefixes.extend(live.fib(rid).prefixes());
        }
        prefixes.sort();
        prefixes.dedup();
        let diverges = |p: &Ipv4Prefix| action(&intended, rid, p) != action(live, rid, p);
        out.extend(prefixes.into_iter().filter(diverges).map(|p| (rid, p)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpvr_dataplane::{FibAction, FibEntry};
    use cpvr_sim::{EventId, IoEvent, IoKind};

    fn root(kind: RootCauseKind, conf: f64) -> RootCause {
        RootCause {
            event: EventId(0),
            router: RouterId(1),
            time: SimTime::from_millis(5),
            kind,
            confidence: conf,
        }
    }

    #[test]
    fn config_root_yields_revert_plan() {
        let causes = vec![root(
            RootCauseKind::ConfigChange {
                change: Some(ConfigChange::SetAddPath(true)),
                inverse: Some(ConfigChange::SetAddPath(false)),
            },
            1.0,
        )];
        let plans = propose_repairs(&causes, 0.5);
        assert_eq!(plans.len(), 1);
        assert!(matches!(plans[0].action, RepairAction::RevertConfig(_)));
        assert_eq!(
            plans[0].action,
            RepairAction::RevertConfig(ConfigChange::SetAddPath(false))
        );
        assert_eq!(plans[0].router, RouterId(1));
    }

    #[test]
    fn hardware_and_external_roots_notify() {
        let causes = vec![
            root(
                RootCauseKind::Hardware {
                    up: false,
                    link: None,
                    peer: Some(cpvr_topo::ExtPeerId(1)),
                },
                1.0,
            ),
            root(
                RootCauseKind::ExternalRoute {
                    peer: Some(cpvr_topo::ExtPeerId(0)),
                    prefix: Some("8.8.8.0/24".parse().unwrap()),
                    withdraw: true,
                },
                1.0,
            ),
        ];
        let plans = propose_repairs(&causes, 0.5);
        assert_eq!(plans.len(), 2);
        assert!(plans
            .iter()
            .all(|p| !matches!(p.action, RepairAction::RevertConfig(_))));
    }

    #[test]
    fn low_confidence_roots_skipped() {
        let causes = vec![root(
            RootCauseKind::ConfigChange {
                change: Some(ConfigChange::SetAddPath(true)),
                inverse: Some(ConfigChange::SetAddPath(false)),
            },
            0.3,
        )];
        assert!(propose_repairs(&causes, 0.5).is_empty());
        assert_eq!(propose_repairs(&causes, 0.2).len(), 1);
    }

    #[test]
    fn skipped_causes_are_surfaced_not_swallowed() {
        let causes = vec![
            root(
                RootCauseKind::ConfigChange {
                    change: Some(ConfigChange::SetAddPath(true)),
                    inverse: Some(ConfigChange::SetAddPath(false)),
                },
                0.9,
            ),
            root(RootCauseKind::Unexplained, 0.3),
            root(RootCauseKind::ProtocolStart, 0.1),
        ];
        let report = propose_repairs_report(&causes, 0.5);
        assert_eq!(report.plans.len(), 1);
        assert_eq!(report.skipped_low_confidence.len(), 2);
        assert_eq!(report.skipped_low_confidence[0].confidence, 0.3);
        assert_eq!(report.skipped_low_confidence[1].confidence, 0.1);
        // The wrapper stays equivalent to the plans half.
        assert_eq!(propose_repairs(&causes, 0.5), report.plans);
    }

    #[test]
    fn missing_inverse_degrades_to_notification() {
        let causes = vec![root(
            RootCauseKind::ConfigChange {
                change: Some(ConfigChange::SetAddPath(true)),
                inverse: None,
            },
            1.0,
        )];
        let plans = propose_repairs(&causes, 0.5);
        assert!(!matches!(plans[0].action, RepairAction::RevertConfig(_)));
    }

    #[test]
    fn divergence_detects_blocked_updates() {
        let p: Ipv4Prefix = "8.8.8.0/24".parse().unwrap();
        let mut trace = Trace::default();
        trace.events.push(IoEvent {
            id: EventId(0),
            router: RouterId(0),
            time: SimTime::from_millis(10),
            arrived_at: Some(SimTime::from_millis(10)),
            kind: IoKind::FibInstall {
                prefix: p,
                action: FibAction::Drop,
            },
        });
        // Live data plane never got the update (it was blocked).
        let live = DataPlane::new(1);
        let div = blocking_divergence(&trace, &live, SimTime::from_millis(100));
        assert_eq!(div, vec![(RouterId(0), p)]);
        // With the update applied, no divergence.
        let mut live2 = DataPlane::new(1);
        live2.fib_mut(RouterId(0)).install(
            p,
            FibEntry {
                action: FibAction::Drop,
                installed_at: SimTime::from_millis(10),
            },
        );
        assert!(blocking_divergence(&trace, &live2, SimTime::from_millis(100)).is_empty());
    }

    #[test]
    fn divergence_on_empty_trace_is_defined() {
        // Empty provenance: no captured FIB events at all. The verdict
        // is defined — every live entry diverges from the (empty)
        // intended plane — and nothing panics.
        let p: Ipv4Prefix = "8.8.8.0/24".parse().unwrap();
        let trace = Trace::default();
        let empty_live = DataPlane::new(2);
        assert!(blocking_divergence(&trace, &empty_live, SimTime::from_millis(100)).is_empty());
        let mut live = DataPlane::new(2);
        live.fib_mut(RouterId(1)).install(
            p,
            FibEntry {
                action: FibAction::Drop,
                installed_at: SimTime::ZERO,
            },
        );
        let div = blocking_divergence(&trace, &live, SimTime::from_millis(100));
        assert_eq!(div, vec![(RouterId(1), p)]);
    }

    #[test]
    fn divergence_with_out_of_range_router_is_defined() {
        // A captured FIB event on a router the live plane doesn't cover
        // (partial capture) must not panic: the entry diverges against
        // an empty FIB.
        let p: Ipv4Prefix = "8.8.8.0/24".parse().unwrap();
        let mut trace = Trace::default();
        trace.events.push(IoEvent {
            id: EventId(0),
            router: RouterId(7),
            time: SimTime::from_millis(10),
            arrived_at: Some(SimTime::from_millis(10)),
            kind: IoKind::FibInstall {
                prefix: p,
                action: FibAction::Drop,
            },
        });
        let live = DataPlane::new(1);
        let div = blocking_divergence(&trace, &live, SimTime::from_millis(100));
        assert_eq!(div, vec![(RouterId(7), p)]);
    }

    #[test]
    fn divergence_respects_horizon() {
        let p: Ipv4Prefix = "8.8.8.0/24".parse().unwrap();
        let mut trace = Trace::default();
        trace.events.push(IoEvent {
            id: EventId(0),
            router: RouterId(0),
            time: SimTime::from_millis(500),
            arrived_at: Some(SimTime::from_millis(500)),
            kind: IoKind::FibInstall {
                prefix: p,
                action: FibAction::Drop,
            },
        });
        let live = DataPlane::new(1);
        assert!(blocking_divergence(&trace, &live, SimTime::from_millis(100)).is_empty());
    }
}

cpvr_types::impl_json_enum!(RepairAction {
    RevertConfig(change),
    NotifyOperator(msg),
});
cpvr_types::impl_json_struct!(RepairPlan {
    router,
    action,
    root,
    rationale,
});
