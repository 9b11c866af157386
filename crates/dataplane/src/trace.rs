//! Packet tracing across the assembled data plane.
//!
//! [`DataPlane::trace`] walks a packet hop by hop using each router's FIB
//! and the topology's link state, classifying the outcome. This is the
//! primitive the verifier builds on: a policy violation is, concretely, a
//! trace whose outcome differs from what the policy demands.

use crate::fib::{Fib, FibAction, FibUpdate};
use cpvr_topo::{ExtPeerId, Topology};
use cpvr_types::{Ipv4Prefix, PrefixTrie, RouterId, SimTime};
use std::fmt;
use std::net::Ipv4Addr;

/// One step of a forwarding trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hop {
    /// The router making the forwarding decision.
    pub router: RouterId,
    /// The FIB prefix that matched, if any.
    pub matched: Option<Ipv4Prefix>,
    /// The action taken.
    pub action: Option<FibAction>,
}

/// How a traced packet ended up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceOutcome {
    /// The packet exited the domain via this external peer.
    Exited(ExtPeerId),
    /// The packet was delivered locally at this router.
    DeliveredLocal(RouterId),
    /// The packet revisited a router: a forwarding loop. The field is the
    /// router at which the loop closed.
    Loop(RouterId),
    /// The packet was dropped: no FIB match, an explicit null route, or a
    /// next hop over a down link. The field is where it died.
    Blackhole(RouterId),
}

impl TraceOutcome {
    /// True if the packet reached *some* destination (exited or delivered).
    pub fn is_delivered(&self) -> bool {
        matches!(
            self,
            TraceOutcome::Exited(_) | TraceOutcome::DeliveredLocal(_)
        )
    }
}

impl fmt::Display for TraceOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceOutcome::Exited(p) => write!(f, "exited via {p}"),
            TraceOutcome::DeliveredLocal(r) => write!(f, "delivered at {r}"),
            TraceOutcome::Loop(r) => write!(f, "loop at {r}"),
            TraceOutcome::Blackhole(r) => write!(f, "blackhole at {r}"),
        }
    }
}

/// A full forwarding trace: the hop sequence and the outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceResult {
    /// Hops in order, starting at the ingress router.
    pub hops: Vec<Hop>,
    /// Final disposition.
    pub outcome: TraceOutcome,
}

impl TraceResult {
    /// The sequence of routers traversed.
    pub fn router_path(&self) -> Vec<RouterId> {
        self.hops.iter().map(|h| h.router).collect()
    }
}

/// All routers' FIBs, assembled for verification or simulation of traffic.
///
/// A `DataPlane` can be the *live* data plane maintained by the simulator
/// or a *snapshot* assembled by the verifier; the same tracing code serves
/// both, which is the point of data-plane verification (it operates on the
/// control plane's output, not a model).
///
/// ```
/// use cpvr_dataplane::{DataPlane, FibAction, FibEntry, TraceOutcome};
/// use cpvr_topo::builder::shapes;
/// use cpvr_types::{RouterId, SimTime};
///
/// let (topo, _e1, e2) = shapes::paper_triangle();
/// let mut dp = DataPlane::new(3);
/// let l12 = topo.link_between(RouterId(0), RouterId(1)).unwrap().id;
/// dp.fib_mut(RouterId(0)).install(
///     "8.8.8.0/24".parse().unwrap(),
///     FibEntry { action: FibAction::Forward(l12), installed_at: SimTime::ZERO },
/// );
/// dp.fib_mut(RouterId(1)).install(
///     "8.8.8.0/24".parse().unwrap(),
///     FibEntry { action: FibAction::Exit(e2), installed_at: SimTime::ZERO },
/// );
/// let t = dp.trace(&topo, RouterId(0), "8.8.8.8".parse().unwrap());
/// assert_eq!(t.outcome, TraceOutcome::Exited(e2));
/// ```
#[derive(Clone, Debug, Default)]
pub struct DataPlane {
    fibs: Vec<Fib>,
    /// Per-router capture time — meaningful for snapshots; `SimTime::ZERO`
    /// for live planes.
    taken_at: Vec<SimTime>,
}

impl DataPlane {
    /// An empty data plane for `n` routers.
    pub fn new(n: usize) -> Self {
        DataPlane {
            fibs: vec![Fib::new(); n],
            taken_at: vec![SimTime::ZERO; n],
        }
    }

    /// Number of routers.
    pub fn num_routers(&self) -> usize {
        self.fibs.len()
    }

    /// The FIB of one router.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn fib(&self, r: RouterId) -> &Fib {
        &self.fibs[r.index()]
    }

    /// Mutable access to one router's FIB.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn fib_mut(&mut self, r: RouterId) -> &mut Fib {
        &mut self.fibs[r.index()]
    }

    /// When router `r`'s FIB was captured (snapshots only).
    pub fn taken_at(&self, r: RouterId) -> SimTime {
        self.taken_at[r.index()]
    }

    /// Marks the capture time of router `r`'s FIB.
    pub fn set_taken_at(&mut self, r: RouterId, t: SimTime) {
        self.taken_at[r.index()] = t;
    }

    /// Applies a FIB update to the owning router's table.
    pub fn apply(&mut self, u: &FibUpdate) {
        self.fibs[u.router.index()].apply(u);
    }

    /// Traces a packet for destination `dst` injected at `ingress`.
    ///
    /// The trace honors link state: forwarding over a down link blackholes
    /// at the sending router (packets into a dead wire die), and exiting to
    /// a down external peer likewise blackholes — this is exactly the
    /// paper's Fig. 2b hazard, where stale FIB entries keep pointing at a
    /// withdrawn uplink.
    pub fn trace(&self, topo: &Topology, ingress: RouterId, dst: Ipv4Addr) -> TraceResult {
        let mut hops = Vec::new();
        let mut visited = vec![false; self.fibs.len()];
        let mut cur = ingress;
        loop {
            if visited[cur.index()] {
                hops.push(Hop {
                    router: cur,
                    matched: None,
                    action: None,
                });
                return TraceResult {
                    hops,
                    outcome: TraceOutcome::Loop(cur),
                };
            }
            visited[cur.index()] = true;
            let hit = self.fibs[cur.index()].lookup(dst);
            let (matched, entry) = match hit {
                Some((p, e)) => (Some(p), e),
                None => {
                    hops.push(Hop {
                        router: cur,
                        matched: None,
                        action: None,
                    });
                    return TraceResult {
                        hops,
                        outcome: TraceOutcome::Blackhole(cur),
                    };
                }
            };
            hops.push(Hop {
                router: cur,
                matched,
                action: Some(entry.action),
            });
            match entry.action {
                FibAction::Local => {
                    return TraceResult {
                        hops,
                        outcome: TraceOutcome::DeliveredLocal(cur),
                    };
                }
                FibAction::Drop => {
                    return TraceResult {
                        hops,
                        outcome: TraceOutcome::Blackhole(cur),
                    };
                }
                FibAction::Exit(p) => {
                    let outcome = if topo.ext_peer(p).state.is_up() {
                        TraceOutcome::Exited(p)
                    } else {
                        TraceOutcome::Blackhole(cur)
                    };
                    return TraceResult { hops, outcome };
                }
                FibAction::Forward(l) => {
                    let link = topo.link(l);
                    if !link.state.is_up() {
                        return TraceResult {
                            hops,
                            outcome: TraceOutcome::Blackhole(cur),
                        };
                    }
                    cur = link.other_end(cur).0;
                }
            }
        }
    }

    /// The union of all prefixes present in any FIB, deduplicated, in
    /// prefix order. This is the input to equivalence-class slicing.
    pub fn all_prefixes(&self) -> Vec<Ipv4Prefix> {
        self.prefix_union().prefixes().collect()
    }

    /// The union of all installed prefixes as a trie, each mapped to the
    /// number of routers holding an entry for it. This is the structure
    /// the trie-driven equivalence-class computation walks, and the one
    /// an incremental verifier keeps live across [`FibUpdate`]s (the
    /// refcount tells it when a prefix leaves the union entirely).
    pub fn prefix_union(&self) -> PrefixTrie<usize> {
        let mut t: PrefixTrie<usize> = PrefixTrie::new();
        for f in &self.fibs {
            for p in f.trie().prefixes() {
                match t.get_mut(&p) {
                    Some(c) => *c += 1,
                    None => {
                        t.insert(p, 1);
                    }
                }
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fib::{FibEntry, UpdateKind};
    use cpvr_topo::builder::shapes;
    use cpvr_topo::LinkState;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn entry(action: FibAction) -> FibEntry {
        FibEntry {
            action,
            installed_at: SimTime::ZERO,
        }
    }

    /// Line R1—R2—R3 with an exit at R3 for 8.8.8.0/24.
    fn line_dp() -> (cpvr_topo::Topology, DataPlane) {
        let (mut topo, _e1, e2) = shapes::two_exit_line(3);
        let _ = &mut topo;
        let mut dp = DataPlane::new(3);
        let l12 = topo.link_between(RouterId(0), RouterId(1)).unwrap().id;
        let l23 = topo.link_between(RouterId(1), RouterId(2)).unwrap().id;
        dp.fib_mut(RouterId(0))
            .install(p("8.8.8.0/24"), entry(FibAction::Forward(l12)));
        dp.fib_mut(RouterId(1))
            .install(p("8.8.8.0/24"), entry(FibAction::Forward(l23)));
        dp.fib_mut(RouterId(2))
            .install(p("8.8.8.0/24"), entry(FibAction::Exit(e2)));
        (topo, dp)
    }

    #[test]
    fn delivered_trace() {
        let (topo, dp) = line_dp();
        let t = dp.trace(&topo, RouterId(0), "8.8.8.8".parse().unwrap());
        assert!(t.outcome.is_delivered());
        assert_eq!(t.router_path(), vec![RouterId(0), RouterId(1), RouterId(2)]);
        match t.outcome {
            TraceOutcome::Exited(pid) => assert_eq!(pid.0, 1),
            o => panic!("unexpected outcome {o}"),
        }
    }

    #[test]
    fn no_match_blackholes() {
        let (topo, dp) = line_dp();
        let t = dp.trace(&topo, RouterId(0), "9.9.9.9".parse().unwrap());
        assert_eq!(t.outcome, TraceOutcome::Blackhole(RouterId(0)));
        assert_eq!(t.hops.len(), 1);
        assert!(t.hops[0].matched.is_none());
    }

    #[test]
    fn null_route_blackholes() {
        let (topo, mut dp) = line_dp();
        dp.fib_mut(RouterId(1))
            .install(p("8.8.8.0/24"), entry(FibAction::Drop));
        let t = dp.trace(&topo, RouterId(0), "8.8.8.8".parse().unwrap());
        assert_eq!(t.outcome, TraceOutcome::Blackhole(RouterId(1)));
    }

    #[test]
    fn loop_detected() {
        let (topo, mut dp) = line_dp();
        let l12 = topo.link_between(RouterId(0), RouterId(1)).unwrap().id;
        // R2 points back at R1: classic two-node loop.
        dp.fib_mut(RouterId(1))
            .install(p("8.8.8.0/24"), entry(FibAction::Forward(l12)));
        let t = dp.trace(&topo, RouterId(0), "8.8.8.8".parse().unwrap());
        assert_eq!(t.outcome, TraceOutcome::Loop(RouterId(0)));
        assert_eq!(t.router_path(), vec![RouterId(0), RouterId(1), RouterId(0)]);
    }

    #[test]
    fn down_link_blackholes() {
        let (mut topo, dp) = line_dp();
        let l23 = topo.link_between(RouterId(1), RouterId(2)).unwrap().id;
        topo.set_link_state(l23, LinkState::Down);
        let t = dp.trace(&topo, RouterId(0), "8.8.8.8".parse().unwrap());
        assert_eq!(t.outcome, TraceOutcome::Blackhole(RouterId(1)));
    }

    #[test]
    fn down_ext_peer_blackholes() {
        let (mut topo, dp) = line_dp();
        let e2 = topo.ext_peer_by_name("UplinkRight").unwrap().id;
        topo.set_ext_peer_state(e2, LinkState::Down);
        let t = dp.trace(&topo, RouterId(0), "8.8.8.8".parse().unwrap());
        assert_eq!(t.outcome, TraceOutcome::Blackhole(RouterId(2)));
    }

    #[test]
    fn local_delivery() {
        let (topo, mut dp) = line_dp();
        dp.fib_mut(RouterId(0))
            .install(p("10.255.0.1/32"), entry(FibAction::Local));
        let t = dp.trace(&topo, RouterId(0), "10.255.0.1".parse().unwrap());
        assert_eq!(t.outcome, TraceOutcome::DeliveredLocal(RouterId(0)));
    }

    #[test]
    fn apply_routes_to_right_router() {
        let mut dp = DataPlane::new(2);
        let u = FibUpdate {
            router: RouterId(1),
            prefix: p("8.8.8.0/24"),
            kind: UpdateKind::Install,
            action: FibAction::Drop,
            at: SimTime::from_millis(1),
        };
        dp.apply(&u);
        assert!(dp.fib(RouterId(0)).is_empty());
        assert_eq!(dp.fib(RouterId(1)).len(), 1);
    }

    #[test]
    fn all_prefixes_dedupes_and_sorts() {
        let (_, mut dp) = line_dp();
        dp.fib_mut(RouterId(0))
            .install(p("1.0.0.0/8"), entry(FibAction::Drop));
        let all = dp.all_prefixes();
        assert_eq!(all, vec![p("1.0.0.0/8"), p("8.8.8.0/24")]);
    }

    #[test]
    fn prefix_union_refcounts_installations() {
        let (_, mut dp) = line_dp();
        dp.fib_mut(RouterId(0))
            .install(p("1.0.0.0/8"), entry(FibAction::Drop));
        let u = dp.prefix_union();
        assert_eq!(u.get(&p("8.8.8.0/24")), Some(&3));
        assert_eq!(u.get(&p("1.0.0.0/8")), Some(&1));
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn snapshot_times() {
        let mut dp = DataPlane::new(2);
        dp.set_taken_at(RouterId(1), SimTime::from_millis(7));
        assert_eq!(dp.taken_at(RouterId(0)), SimTime::ZERO);
        assert_eq!(dp.taken_at(RouterId(1)), SimTime::from_millis(7));
    }
}
