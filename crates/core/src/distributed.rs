//! Distributed HBG construction and analysis (§5, last paragraph).
//!
//! "Each router can store its own happens-before subgraph containing
//! that router's control plane I/Os. Partial paths through the HBG can
//! be passed to neighboring routers that can expand the paths based on
//! their happens-before subgraph."
//!
//! This module executes that scheme: the global trace is partitioned
//! into per-router subgraphs (each holding only its router's events and
//! the intra-router HBRs among them, plus the *names* of cross-router
//! dependencies from recv events); provenance then proceeds by message
//! passing — a partial path stops at a recv, a query goes to the sending
//! router, which extends the path through its own subgraph. The result
//! must equal the centralized walk; the interesting output is the
//! message count.

use crate::hbg::Hbr;
use crate::rules::match_rules;
use cpvr_sim::{EventId, IoEvent, IoKind, Trace};
use cpvr_types::RouterId;
use std::collections::BTreeSet;

/// One router's share of the happens-before graph.
pub struct RouterSubgraph {
    /// The owning router.
    pub router: RouterId,
    /// Ids of this router's events.
    pub events: Vec<EventId>,
    /// Intra-router HBRs (both endpoints on this router).
    pub edges: Vec<Hbr>,
    /// Cross-router dependencies: `(local recv event, sending router,
    /// remote send event)`.
    pub inbound: Vec<(EventId, RouterId, EventId)>,
}

/// Statistics of a distributed provenance query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DistProvenanceStats {
    /// Partial-path messages exchanged between routers.
    pub messages: usize,
    /// Distinct routers that participated.
    pub routers_involved: usize,
}

/// Partitions a trace's (rule-inferred) HBG into per-router subgraphs.
pub fn partition(trace: &Trace) -> Vec<RouterSubgraph> {
    let refs: Vec<&IoEvent> = trace.events.iter().collect();
    let hbrs = match_rules(&refs);
    let n_routers = trace
        .events
        .iter()
        .map(|e| e.router.index() + 1)
        .max()
        .unwrap_or(0);
    let mut subs: Vec<RouterSubgraph> = (0..n_routers)
        .map(|r| RouterSubgraph {
            router: RouterId(r as u32),
            events: Vec::new(),
            edges: Vec::new(),
            inbound: Vec::new(),
        })
        .collect();
    for e in &trace.events {
        subs[e.router.index()].events.push(e.id);
    }
    for h in hbrs {
        let rf = trace.events[h.from.index()].router;
        let rt = trace.events[h.to.index()].router;
        if rf == rt {
            subs[rf.index()].edges.push(h);
        } else {
            // Cross-router: recorded at the receiving side as an inbound
            // dependency. Sanity: cross edges are send→recv matches.
            debug_assert!(matches!(
                trace.events[h.to.index()].kind,
                IoKind::RecvAdvert { .. } | IoKind::RecvWithdraw { .. }
            ));
            subs[rt.index()].inbound.push((h.to, rf, h.from));
        }
    }
    subs
}

/// Distributed provenance: walks from `from` to the root causes using
/// only per-router subgraphs and explicit message passing. Returns the
/// roots (as event ids) plus messaging statistics.
pub fn distributed_root_events(
    trace: &Trace,
    subs: &[RouterSubgraph],
    from: EventId,
) -> (Vec<EventId>, DistProvenanceStats) {
    let mut stats = DistProvenanceStats::default();
    let mut involved: BTreeSet<RouterId> = BTreeSet::new();
    let mut visited: BTreeSet<EventId> = BTreeSet::new();
    let mut roots: BTreeSet<EventId> = BTreeSet::new();
    // Work items are (router, event) pairs; moving to a different router
    // costs a message.
    let mut stack: Vec<(RouterId, EventId)> = vec![(trace.events[from.index()].router, from)];
    let mut current_router = trace.events[from.index()].router;
    involved.insert(current_router);
    while let Some((router, ev)) = stack.pop() {
        if !visited.insert(ev) {
            continue;
        }
        if router != current_router {
            stats.messages += 1; // the partial path is shipped over
            current_router = router;
            involved.insert(router);
        }
        let sub = &subs[router.index()];
        let mut parents: Vec<(RouterId, EventId)> = sub
            .edges
            .iter()
            .filter(|h| h.to == ev)
            .map(|h| (router, h.from))
            .collect();
        for (recv, sender, send_ev) in &sub.inbound {
            if *recv == ev {
                parents.push((*sender, *send_ev));
            }
        }
        if parents.is_empty() {
            roots.insert(ev);
        } else {
            stack.extend(parents);
        }
    }
    stats.routers_involved = involved.len();
    (roots.into_iter().collect(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::{infer_hbg, InferConfig};
    use cpvr_bgp::{ConfigChange, PeerRef, RouteMap, SetAction};
    use cpvr_sim::scenario::paper_scenario;
    use cpvr_sim::{CaptureProfile, LatencyProfile};
    use cpvr_types::SimTime;

    fn fig2_trace() -> (Trace, EventId) {
        let mut s = paper_scenario(LatencyProfile::fast(), CaptureProfile::ideal(), 71);
        s.sim.start();
        s.sim.run_to_quiescence(200_000);
        s.sim
            .schedule_ext_announce(s.sim.now() + SimTime::from_millis(1), s.ext_r1, &[s.prefix]);
        s.sim.schedule_ext_announce(
            s.sim.now() + SimTime::from_millis(50),
            s.ext_r2,
            &[s.prefix],
        );
        s.sim.run_to_quiescence(200_000);
        let t_change = s.sim.now() + SimTime::from_millis(10);
        let change = ConfigChange::SetImport {
            peer: PeerRef::External(s.ext_r2),
            map: RouteMap::set_all(vec![SetAction::LocalPref(10)]),
        };
        s.sim.schedule_config(t_change, RouterId(1), change);
        s.sim.run_to_quiescence(200_000);
        let trace = s.sim.trace().clone();
        let bad = trace
            .events
            .iter()
            .filter(|e| e.router == RouterId(0) && e.time >= t_change)
            .filter(|e| matches!(&e.kind, IoKind::FibInstall { prefix, .. } if *prefix == s.prefix))
            .map(|e| e.id)
            .max()
            .expect("R1 reprogrammed P");
        (trace, bad)
    }

    #[test]
    fn partition_covers_every_event_once() {
        let (trace, _) = fig2_trace();
        let subs = partition(&trace);
        let total: usize = subs.iter().map(|s| s.events.len()).sum();
        assert_eq!(total, trace.len());
        for sub in &subs {
            for e in &sub.events {
                assert_eq!(trace.events[e.index()].router, sub.router);
            }
            for h in &sub.edges {
                assert_eq!(trace.events[h.from.index()].router, sub.router);
                assert_eq!(trace.events[h.to.index()].router, sub.router);
            }
        }
    }

    #[test]
    fn distributed_walk_matches_centralized_roots() {
        let (trace, bad) = fig2_trace();
        let subs = partition(&trace);
        let (dist_roots, stats) = distributed_root_events(&trace, &subs, bad);
        let g = infer_hbg(
            &trace,
            &InferConfig {
                rules: true,
                patterns: None,
                min_confidence: 0.0,
                proximate: false,
            },
        );
        let central: Vec<EventId> = g.root_ancestors(bad, 0.5);
        assert_eq!(
            dist_roots, central,
            "distributed and centralized roots must agree"
        );
        // The fault crossed routers (R2's config → R1's FIB), so messages
        // were exchanged and multiple routers participated.
        assert!(stats.messages > 0);
        assert!(stats.routers_involved >= 2);
    }

    #[test]
    fn local_fault_stays_local() {
        // Provenance of an event whose whole chain lives on one router
        // needs no messages.
        let (trace, _) = fig2_trace();
        let subs = partition(&trace);
        // An early IGP boot event on R3: its chain is R3-only.
        let boot_fib = trace
            .events
            .iter()
            .find(|e| e.router == RouterId(2) && matches!(e.kind, IoKind::FibInstall { .. }))
            .expect("R3 installed something at boot");
        let (_, stats) = distributed_root_events(&trace, &subs, boot_fib.id);
        assert_eq!(stats.messages, 0, "single-router chains need no messages");
        assert_eq!(stats.routers_involved, 1);
    }
}
