//! Graph algorithms over a [`Topology`].
//!
//! Shortest paths (Dijkstra) and reachability over the *up* links. The IGP
//! crate uses these as its ground truth oracle in tests, and the verifier
//! uses them when reasoning about where traffic should flow.

use crate::topology::Topology;
use cpvr_types::RouterId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The result of a single-source shortest-path computation.
#[derive(Clone, Debug)]
pub struct ShortestPaths {
    /// `dist[r]` = cost of the best path from the source to `r`, or `None`
    /// if unreachable.
    pub dist: Vec<Option<u32>>,
}

/// Dijkstra over up links.
pub fn dijkstra(topo: &Topology, source: RouterId) -> ShortestPaths {
    let mut dist: Vec<Option<u32>> = vec![None; topo.num_routers()];
    let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
    dist[source.index()] = Some(0);
    heap.push(Reverse((0, source.0)));
    while let Some(Reverse((d, r))) = heap.pop() {
        let r_id = RouterId(r);
        if dist[r_id.index()] != Some(d) {
            continue; // stale entry
        }
        for (nb, link) in topo.up_neighbors(r_id) {
            let nd = d + topo.link(link).igp_cost;
            if dist[nb.index()].is_none_or(|old| nd < old) {
                dist[nb.index()] = Some(nd);
                heap.push(Reverse((nd, nb.0)));
            }
        }
    }
    ShortestPaths { dist }
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

    #[test]
    fn line_distances() {
        let t = shapes::line(4);
        let sp = dijkstra(&t, RouterId(0));
        assert_eq!(sp.dist, vec![Some(0), Some(10), Some(20), Some(30)]);
    }

    #[test]
    fn ring_takes_shorter_side() {
        let t = shapes::ring(5);
        let sp = dijkstra(&t, RouterId(0));
        // R5 (index 4) is adjacent via the closing link.
        assert_eq!(sp.dist[4], Some(10));
        // R3 (index 2) is two hops either way.
        assert_eq!(sp.dist[2], Some(20));
    }

    #[test]
    fn respects_costs() {
        let mut b = TopologyBuilder::new();
        let r1 = b.router("R1");
        let r2 = b.router("R2");
        let r3 = b.router("R3");
        b.link(r1, r2, 100);
        b.link(r1, r3, 10);
        b.link(r3, r2, 10);
        let t = b.build();
        let sp = dijkstra(&t, r1);
        assert_eq!(sp.dist[r2.index()], Some(20));
    }

    #[test]
    fn down_links_are_ignored() {
        let mut t = shapes::ring(4);
        let l = t.link_between(RouterId(0), RouterId(1)).unwrap().id;
        t.set_link_state(l, LinkState::Down);
        let sp = dijkstra(&t, RouterId(0));
        // Must now go the long way to R2 (index 1): 0→3→2→1 = 30.
        assert_eq!(sp.dist[1], Some(30));
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
    }

    #[test]
    fn empty_topology_is_connected() {
        let t = Topology::new();
        assert!(is_connected(&t));
    }
}
