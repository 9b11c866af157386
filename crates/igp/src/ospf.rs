//! OSPF-lite: a link-state IGP.
//!
//! Faithful to OSPF's architecture — LSA origination with sequence
//! numbers, reliable flooding, a link-state database, and SPF over the
//! database — while omitting ceremony that doesn't affect routing outcomes
//! in a point-to-point simulated network (hello adjacency forming, areas,
//! DR election). Adjacency comes directly from the hardware link-status
//! input, which is one of the paper's three control-plane input classes.
//!
//! Crucially, SPF runs over the *database*, not the real topology: a
//! router whose LSDB is stale computes stale routes, which is precisely
//! the transient-inconsistency behavior the paper's verifier must cope
//! with.

use crate::{diff_tables, IgpDelta, IgpOutputs, IgpRoute};
use cpvr_topo::{LinkId, Topology};
use cpvr_types::{Ipv4Prefix, RouterId};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// A router link-state advertisement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lsa {
    /// Originating router.
    pub origin: RouterId,
    /// Sequence number; higher wins.
    pub seq: u64,
    /// Adjacent routers and the cost to reach them, from the originator's
    /// perspective.
    pub links: Vec<(RouterId, u32)>,
    /// Prefixes attached to the originator (loopback, connected subnets)
    /// with their stub cost.
    pub stubs: Vec<(Ipv4Prefix, u32)>,
}

/// OSPF protocol messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OspfMsg {
    /// A flooded LSA.
    Flood(Lsa),
}

/// One router's OSPF instance.
#[derive(Clone, Debug)]
pub struct OspfInstance {
    me: RouterId,
    seq: u64,
    lsdb: BTreeMap<RouterId, Lsa>,
    table: BTreeMap<Ipv4Prefix, IgpRoute>,
}

impl OspfInstance {
    /// Creates an instance for router `me`. Call
    /// [`start`](OspfInstance::start) to originate the first LSA.
    pub fn new(me: RouterId) -> Self {
        OspfInstance {
            me,
            seq: 0,
            lsdb: BTreeMap::new(),
            table: BTreeMap::new(),
        }
    }

    /// The current route table (prefix → selected route).
    pub fn table(&self) -> &BTreeMap<Ipv4Prefix, IgpRoute> {
        &self.table
    }

    /// Builds this router's own LSA from its local view of the topology.
    fn originate(&mut self, topo: &Topology) -> Lsa {
        self.seq += 1;
        let mut links: Vec<(RouterId, u32)> = topo
            .up_neighbors(self.me)
            .into_iter()
            .map(|(nb, l)| (nb, topo.link(l).igp_cost))
            .collect();
        links.sort();
        links.dedup_by_key(|e| e.0); // parallel links: keep cheapest-by-id
        let me = topo.router(self.me);
        let mut stubs: Vec<(Ipv4Prefix, u32)> = vec![(Ipv4Prefix::host(me.loopback), 0)];
        for iface in &me.ifaces {
            stubs.push((iface.subnet, 0));
        }
        stubs.sort();
        stubs.dedup();
        Lsa {
            origin: self.me,
            seq: self.seq,
            links,
            stubs,
        }
    }

    /// Starts the instance: originates the initial LSA, floods it, and
    /// computes the initial table (which contains only local stubs until
    /// other LSAs arrive).
    pub fn start(&mut self, topo: &Topology) -> IgpOutputs<OspfMsg> {
        let lsa = self.originate(topo);
        self.lsdb.insert(self.me, lsa.clone());
        let mut out = self.recompute(topo);
        out.msgs = self.flood_targets(topo, None, lsa);
        out
    }

    /// Handles a local link-status change: re-originate and flood.
    pub fn link_change(&mut self, topo: &Topology) -> IgpOutputs<OspfMsg> {
        let lsa = self.originate(topo);
        self.lsdb.insert(self.me, lsa.clone());
        let mut out = self.recompute(topo);
        out.msgs = self.flood_targets(topo, None, lsa);
        out
    }

    /// Handles a flooded LSA from a neighbor.
    pub fn recv(&mut self, topo: &Topology, from: RouterId, msg: OspfMsg) -> IgpOutputs<OspfMsg> {
        let OspfMsg::Flood(lsa) = msg;
        let newer = match self.lsdb.get(&lsa.origin) {
            Some(have) => lsa.seq > have.seq,
            None => true,
        };
        if !newer {
            return IgpOutputs::empty();
        }
        // A higher-seq copy of our own LSA circulating means our state was
        // re-learned after a restart; re-originate above it (standard OSPF
        // self-LSA recovery).
        if lsa.origin == self.me {
            self.seq = lsa.seq;
            let fresh = self.originate(topo);
            self.lsdb.insert(self.me, fresh.clone());
            let mut out = self.recompute(topo);
            out.msgs = self.flood_targets(topo, None, fresh);
            return out;
        }
        self.lsdb.insert(lsa.origin, lsa.clone());
        let mut out = self.recompute(topo);
        out.msgs = self.flood_targets(topo, Some(from), lsa);
        out
    }

    /// All up neighbors except the one we received from.
    fn flood_targets(
        &self,
        topo: &Topology,
        except: Option<RouterId>,
        lsa: Lsa,
    ) -> Vec<(RouterId, OspfMsg)> {
        let mut nbs: Vec<RouterId> = topo
            .up_neighbors(self.me)
            .into_iter()
            .map(|(nb, _)| nb)
            .filter(|nb| Some(*nb) != except)
            .collect();
        nbs.sort();
        nbs.dedup();
        nbs.into_iter()
            .map(|nb| (nb, OspfMsg::Flood(lsa.clone())))
            .collect()
    }

    /// SPF over the LSDB and table rebuild; returns deltas.
    fn recompute(&mut self, topo: &Topology) -> IgpOutputs<OspfMsg> {
        let dist = self.spf();
        let mut new_table: BTreeMap<Ipv4Prefix, IgpRoute> = BTreeMap::new();
        // Map neighbor router → link used (lowest-id up link), for first
        // hops.
        let mut nb_link: BTreeMap<RouterId, LinkId> = BTreeMap::new();
        for (nb, l) in topo.up_neighbors(self.me) {
            nb_link.entry(nb).or_insert(l);
        }
        for (node, (d, first)) in &dist {
            let Some(lsa) = self.lsdb.get(node) else {
                continue;
            };
            let next_hop = match first {
                None => None,
                // If the first-hop link vanished between origination and
                // this recompute, the destination is unreachable until we
                // re-originate; skip rather than claim a local route.
                Some(f) => match nb_link.get(f) {
                    Some(l) => Some((*f, *l)),
                    None => continue,
                },
            };
            for (prefix, stub_cost) in &lsa.stubs {
                let metric = d + stub_cost;
                let cand = IgpRoute { metric, next_hop };
                match new_table.get(prefix) {
                    Some(best) if best.metric <= metric => {}
                    _ => {
                        new_table.insert(*prefix, cand);
                    }
                }
            }
        }
        let deltas: Vec<IgpDelta> = diff_tables(&self.table, &new_table);
        self.table = new_table;
        IgpOutputs {
            msgs: Vec::new(),
            deltas,
        }
    }

    /// Dijkstra over the LSDB with a bidirectionality check (an edge
    /// counts only if both endpoints advertise it), returning
    /// `node → (distance, first-hop neighbor)`.
    fn spf(&self) -> BTreeMap<RouterId, (u32, Option<RouterId>)> {
        let mut out: BTreeMap<RouterId, (u32, Option<RouterId>)> = BTreeMap::new();
        if !self.lsdb.contains_key(&self.me) {
            return out;
        }
        let mut heap: BinaryHeap<Reverse<(u32, u32, u32)>> = BinaryHeap::new();
        out.insert(self.me, (0, None));
        heap.push(Reverse((0, self.me.0, u32::MAX)));
        while let Some(Reverse((d, node, fh))) = heap.pop() {
            let node_id = RouterId(node);
            match out.get(&node_id) {
                Some((best, _)) if *best < d => continue,
                _ => {}
            }
            let Some(lsa) = self.lsdb.get(&node_id) else {
                continue;
            };
            for (nb, cost) in &lsa.links {
                // Bidirectional check: nb's LSA must list node back.
                let back = self
                    .lsdb
                    .get(nb)
                    .map(|l| l.links.iter().any(|(r, _)| *r == node_id))
                    .unwrap_or(false);
                if !back {
                    continue;
                }
                let nd = d + cost;
                let first = if node_id == self.me { nb.0 } else { fh };
                let better = match out.get(nb) {
                    None => true,
                    Some((old, _)) => nd < *old,
                };
                if better {
                    out.insert(
                        *nb,
                        (
                            nd,
                            if first == u32::MAX {
                                None
                            } else {
                                Some(RouterId(first))
                            },
                        ),
                    );
                    heap.push(Reverse((nd, nb.0, first)));
                }
            }
        }
        out
    }
}

/// Route-table views the unit tests check convergence through.
#[cfg(test)]
impl OspfInstance {
    /// Metric of the best path to another router's loopback, if reachable.
    fn metric_to(&self, topo: &Topology, other: RouterId) -> Option<u32> {
        let lb = Ipv4Prefix::host(topo.router(other).loopback);
        self.table.get(&lb).map(|r| r.metric)
    }

    /// First hop toward another router's loopback, if reachable and not
    /// local.
    fn next_hop_to(&self, topo: &Topology, other: RouterId) -> Option<(RouterId, LinkId)> {
        let lb = Ipv4Prefix::host(topo.router(other).loopback);
        self.table.get(&lb).and_then(|r| r.next_hop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpvr_topo::builder::shapes;
    use cpvr_topo::LinkState;

    /// Synchronously pumps messages until quiescence, round-robin. Returns
    /// total message count. Panics after a bound to catch non-termination.
    fn converge(topo: &Topology, insts: &mut [OspfInstance]) -> usize {
        let mut queue: Vec<(RouterId, RouterId, OspfMsg)> = Vec::new();
        for i in insts.iter_mut() {
            let me = i.me;
            let out = i.start(topo);
            for (to, m) in out.msgs {
                queue.push((me, to, m));
            }
        }
        pump(topo, insts, queue)
    }

    fn pump(
        topo: &Topology,
        insts: &mut [OspfInstance],
        mut queue: Vec<(RouterId, RouterId, OspfMsg)>,
    ) -> usize {
        let mut count = 0;
        while let Some((from, to, msg)) = queue.pop() {
            count += 1;
            assert!(count < 100_000, "OSPF flooding did not quiesce");
            let out = insts[to.index()].recv(topo, from, msg);
            for (nxt, m) in out.msgs {
                queue.push((to, nxt, m));
            }
        }
        count
    }

    #[test]
    fn line_converges_to_shortest_paths() {
        let topo = shapes::line(4);
        let mut insts: Vec<OspfInstance> = topo.router_ids().map(OspfInstance::new).collect();
        converge(&topo, &mut insts);
        // R1's metric to R4's loopback is 30 (3 hops * 10).
        assert_eq!(insts[0].metric_to(&topo, RouterId(3)), Some(30));
        assert_eq!(
            insts[0].next_hop_to(&topo, RouterId(3)).unwrap().0,
            RouterId(1)
        );
        // And symmetric.
        assert_eq!(insts[3].metric_to(&topo, RouterId(0)), Some(30));
    }

    #[test]
    fn all_pairs_reachable_on_ring() {
        let topo = shapes::ring(6);
        let mut insts: Vec<OspfInstance> = topo.router_ids().map(OspfInstance::new).collect();
        converge(&topo, &mut insts);
        for a in topo.router_ids() {
            for b in topo.router_ids() {
                if a != b {
                    assert!(
                        insts[a.index()].metric_to(&topo, b).is_some(),
                        "{a} cannot reach {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn spf_matches_topology_dijkstra() {
        let topo = shapes::grid(3, 3);
        let mut insts: Vec<OspfInstance> = topo.router_ids().map(OspfInstance::new).collect();
        converge(&topo, &mut insts);
        for src in topo.router_ids() {
            let truth = cpvr_topo::graph::dijkstra(&topo, src);
            for dst in topo.router_ids() {
                if src == dst {
                    continue;
                }
                assert_eq!(
                    insts[src.index()].metric_to(&topo, dst),
                    truth.dist[dst.index()],
                    "metric {src}→{dst}"
                );
            }
        }
    }

    #[test]
    fn link_failure_reroutes() {
        let mut topo = shapes::ring(4);
        let mut insts: Vec<OspfInstance> = topo.router_ids().map(OspfInstance::new).collect();
        converge(&topo, &mut insts);
        assert_eq!(insts[0].metric_to(&topo, RouterId(1)), Some(10));
        // Fail R1—R2; both endpoints notice and re-originate.
        let l = topo.link_between(RouterId(0), RouterId(1)).unwrap().id;
        topo.set_link_state(l, LinkState::Down);
        let mut queue = Vec::new();
        for r in [RouterId(0), RouterId(1)] {
            let out = insts[r.index()].link_change(&topo);
            for (to, m) in out.msgs {
                queue.push((r, to, m));
            }
        }
        pump(&topo, &mut insts, queue);
        // Now the path R1→R2 goes around: 0→3→2→1 = 30.
        assert_eq!(insts[0].metric_to(&topo, RouterId(1)), Some(30));
        assert_eq!(
            insts[0].next_hop_to(&topo, RouterId(1)).unwrap().0,
            RouterId(3)
        );
    }

    #[test]
    fn stale_lsdb_gives_stale_routes() {
        // Fail a link but only tell one endpoint: the other routers keep
        // their old (now wrong) routes — the transient the paper's
        // verifier must reason about.
        let mut topo = shapes::line(3);
        let mut insts: Vec<OspfInstance> = topo.router_ids().map(OspfInstance::new).collect();
        converge(&topo, &mut insts);
        let l = topo.link_between(RouterId(1), RouterId(2)).unwrap().id;
        topo.set_link_state(l, LinkState::Down);
        // Only R3 (index 2) reacts; its flood reaches nobody (its only
        // link is down). R1 still believes R3 is reachable.
        let out = insts[2].link_change(&topo);
        assert!(out.msgs.is_empty(), "R3 has no up neighbors to flood to");
        assert!(insts[0].metric_to(&topo, RouterId(2)).is_some());
        // R3 itself knows it lost everything beyond the failed link.
        assert_eq!(insts[2].metric_to(&topo, RouterId(0)), None);
    }

    #[test]
    fn duplicate_lsa_is_not_reflooded() {
        let topo = shapes::line(2);
        let mut insts: Vec<OspfInstance> = topo.router_ids().map(OspfInstance::new).collect();
        let out0 = insts[0].start(&topo);
        let (to, msg) = out0.msgs[0].clone();
        assert_eq!(to, RouterId(1));
        let first = insts[1].recv(&topo, RouterId(0), msg.clone());
        // First copy floods onward (to nobody else here, but deltas apply);
        // second identical copy must be ignored entirely.
        let second = insts[1].recv(&topo, RouterId(0), msg);
        assert!(second.msgs.is_empty());
        assert!(second.deltas.is_empty());
        let _ = first;
    }

    #[test]
    fn table_contains_connected_subnets() {
        let topo = shapes::line(2);
        let mut insts: Vec<OspfInstance> = topo.router_ids().map(OspfInstance::new).collect();
        converge(&topo, &mut insts);
        let link_subnet = topo.links()[0].subnet;
        assert!(insts[0].table().contains_key(&link_subnet));
        // Loopback of the far router is present with its metric.
        let lb = Ipv4Prefix::host(topo.router(RouterId(1)).loopback);
        assert_eq!(insts[0].table()[&lb].metric, 10);
    }

    #[test]
    fn deltas_fire_once_per_change() {
        let topo = shapes::line(2);
        let mut a = OspfInstance::new(RouterId(0));
        let mut b = OspfInstance::new(RouterId(1));
        let oa = a.start(&topo);
        assert!(!oa.deltas.is_empty(), "local stubs appear at start");
        let ob = b.start(&topo);
        let out = a.recv(&topo, RouterId(1), ob.msgs[0].1.clone());
        assert!(!out.deltas.is_empty(), "learning B's LSA changes A's table");
        // Receiving it again: no deltas.
        let out2 = a.recv(&topo, RouterId(1), ob.msgs[0].1.clone());
        assert!(out2.deltas.is_empty());
    }
}
