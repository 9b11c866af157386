//! Graph algorithms over a [`Topology`].
//!
//! Shortest paths (Dijkstra) and reachability over the *up* links. The IGP
//! crate uses these as its ground truth oracle in tests, and the verifier
//! uses them when reasoning about where traffic should flow.

use crate::topology::{LinkId, Topology};
use cpvr_types::RouterId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The result of a single-source shortest-path computation.
#[derive(Clone, Debug)]
pub struct ShortestPaths {
    /// Source router.
    pub source: RouterId,
    /// `dist[r]` = cost of the best path from `source` to `r`, or `None`
    /// if unreachable.
    pub dist: Vec<Option<u32>>,
    /// `first_hop[r]` = (neighbor, link) of the first hop on the best path
    /// from `source` to `r`. `None` for the source itself and unreachable
    /// routers. Ties are broken toward the lower router id, matching the
    /// deterministic tie-break used by the IGP.
    pub first_hop: Vec<Option<(RouterId, LinkId)>>,
}

/// Dijkstra over up links with deterministic tie-breaking (lower router id,
/// then lower link id, wins).
pub fn dijkstra(topo: &Topology, source: RouterId) -> ShortestPaths {
    let n = topo.num_routers();
    let mut dist: Vec<Option<u32>> = vec![None; n];
    let mut first_hop: Vec<Option<(RouterId, LinkId)>> = vec![None; n];
    // Heap entries: Reverse((cost, router, first_hop_key)) so the smallest
    // cost pops first; the extra keys make tie-breaking deterministic.
    let mut heap: BinaryHeap<Reverse<(u32, u32, u32, u32)>> = BinaryHeap::new();
    dist[source.index()] = Some(0);
    heap.push(Reverse((0, source.0, u32::MAX, u32::MAX)));
    while let Some(Reverse((d, r, fh_r, fh_l))) = heap.pop() {
        let r_id = RouterId(r);
        if dist[r_id.index()] != Some(d) {
            continue; // stale entry
        }
        // Record first hop when popping a settled node (skip the source).
        if r_id != source && first_hop[r_id.index()].is_none() && fh_r != u32::MAX {
            first_hop[r_id.index()] = Some((RouterId(fh_r), LinkId(fh_l)));
        }
        let mut neigh = topo.up_neighbors(r_id);
        neigh.sort();
        for (nb, link) in neigh {
            let cost = topo.link(link).igp_cost;
            let nd = d + cost;
            let better = match dist[nb.index()] {
                None => true,
                Some(old) => nd < old,
            };
            if better {
                dist[nb.index()] = Some(nd);
                first_hop[nb.index()] = None;
                // Propagate the first hop: if we're relaxing from the
                // source, the neighbor itself is the first hop.
                let (nfr, nfl) = if r_id == source {
                    (nb.0, link.0)
                } else {
                    (fh_r, fh_l)
                };
                heap.push(Reverse((nd, nb.0, nfr, nfl)));
            }
        }
    }
    ShortestPaths {
        source,
        dist,
        first_hop,
    }
}

/// True if every router can reach every other router over up links.
pub fn is_connected(topo: &Topology) -> bool {
    if topo.num_routers() == 0 {
        return true;
    }
    let sp = dijkstra(topo, RouterId(0));
    sp.dist.iter().all(|d| d.is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{shapes, TopologyBuilder};
    use crate::topology::LinkState;
    use cpvr_types::AsNum;

    #[test]
    fn line_distances() {
        let t = shapes::line(4);
        let sp = dijkstra(&t, RouterId(0));
        assert_eq!(sp.dist, vec![Some(0), Some(10), Some(20), Some(30)]);
        assert_eq!(sp.first_hop[3].unwrap().0, RouterId(1));
        assert_eq!(sp.first_hop[0], None);
    }

    #[test]
    fn ring_takes_shorter_side() {
        let t = shapes::ring(5);
        let sp = dijkstra(&t, RouterId(0));
        // R5 (index 4) is adjacent via the closing link.
        assert_eq!(sp.dist[4], Some(10));
        assert_eq!(sp.first_hop[4].unwrap().0, RouterId(4));
        // R3 (index 2) is two hops either way; tie-break picks lower id
        // neighbor first (R2 side).
        assert_eq!(sp.dist[2], Some(20));
        assert_eq!(sp.first_hop[2].unwrap().0, RouterId(1));
    }

    #[test]
    fn respects_costs() {
        let mut b = TopologyBuilder::new(AsNum(1));
        let r1 = b.router("R1");
        let r2 = b.router("R2");
        let r3 = b.router("R3");
        b.link(r1, r2, 100);
        b.link(r1, r3, 10);
        b.link(r3, r2, 10);
        let t = b.build();
        let sp = dijkstra(&t, r1);
        assert_eq!(sp.dist[r2.index()], Some(20));
        assert_eq!(sp.first_hop[r2.index()].unwrap().0, r3);
    }

    #[test]
    fn down_links_are_ignored() {
        let mut t = shapes::ring(4);
        let l = t.link_between(RouterId(0), RouterId(1)).unwrap().id;
        t.set_link_state(l, LinkState::Down);
        let sp = dijkstra(&t, RouterId(0));
        // Must now go the long way to R2 (index 1): 0→3→2→1 = 30.
        assert_eq!(sp.dist[1], Some(30));
        assert_eq!(sp.first_hop[1].unwrap().0, RouterId(3));
    }

    #[test]
    fn disconnection_detected() {
        let mut t = shapes::line(3);
        assert!(is_connected(&t));
        let l = t.link_between(RouterId(1), RouterId(2)).unwrap().id;
        t.set_link_state(l, LinkState::Down);
        assert!(!is_connected(&t));
        let sp = dijkstra(&t, RouterId(0));
        assert_eq!(sp.dist[2], None);
        assert_eq!(sp.first_hop[2], None);
    }

    #[test]
    fn empty_topology_is_connected() {
        let t = Topology::new();
        assert!(is_connected(&t));
    }
}
