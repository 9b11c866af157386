//! Fluent construction of [`Topology`] values.
//!
//! The builder hands out addresses automatically: loopbacks from
//! `10.255.0.0/24`, link subnets as `/30`s carved from `10.0.0.0/16`, and
//! external attachment subnets as `/30`s from `10.1.0.0/16`. Callers that
//! care about concrete addresses can query them back from the built
//! topology; nothing else in the workspace hard-codes them.

use crate::topology::{ExtPeerId, ExternalPeer, Iface, Link, LinkId, LinkState, Router, Topology};
use cpvr_types::{AsNum, IfaceId, Ipv4Prefix, RouterId};
use std::net::Ipv4Addr;

/// Incrementally builds a [`Topology`].
///
/// ```
/// use cpvr_topo::TopologyBuilder;
/// use cpvr_types::AsNum;
///
/// let mut b = TopologyBuilder::new();
/// let r1 = b.router("R1");
/// let r2 = b.router("R2");
/// b.link(r1, r2, 10);
/// b.external_peer("Provider", AsNum(174), r1);
/// let topo = b.build();
/// assert_eq!(topo.num_routers(), 2);
/// ```
pub struct TopologyBuilder {
    topo: Topology,
    next_link_net: u32,
    next_ext_net: u32,
}

impl Default for TopologyBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TopologyBuilder {
    /// Starts an empty builder.
    pub fn new() -> Self {
        TopologyBuilder {
            topo: Topology::new(),
            next_link_net: u32::from(Ipv4Addr::new(10, 0, 0, 0)),
            next_ext_net: u32::from(Ipv4Addr::new(10, 1, 0, 0)),
        }
    }

    /// Adds a router in the default AS. Names should be unique; lookups by
    /// name return the first match.
    pub fn router(&mut self, name: &str) -> RouterId {
        let id = RouterId(self.topo.num_routers() as u32);
        let loopback = Ipv4Addr::from(u32::from(Ipv4Addr::new(10, 255, 0, 1)) + id.0);
        self.topo.push_router(Router {
            name: name.to_string(),
            loopback,
            ifaces: Vec::new(),
        });
        id
    }

    fn add_iface(&mut self, r: RouterId, subnet: Ipv4Prefix) -> IfaceId {
        let router = self.topo.router_mut(r);
        let id = IfaceId(router.ifaces.len() as u32);
        router.ifaces.push(Iface { subnet });
        id
    }

    /// Connects two routers with a point-to-point link of the given IGP
    /// cost, assigning a fresh /30 subnet. Returns the new link's id.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (self-links are not meaningful here).
    pub fn link(&mut self, a: RouterId, b: RouterId, igp_cost: u32) -> LinkId {
        assert_ne!(a, b, "self-links are not supported");
        let net = self.next_link_net;
        self.next_link_net += 4;
        let subnet = Ipv4Prefix::from_bits(net, 30);
        let id = LinkId(self.topo.num_links() as u32);
        let ia = self.add_iface(a, subnet);
        let ib = self.add_iface(b, subnet);
        self.topo.push_link(Link {
            id,
            a: (a, ia),
            b: (b, ib),
            subnet,
            igp_cost,
            state: LinkState::Up,
        });
        id
    }

    /// Attaches an external peer (e.g. an upstream provider running eBGP)
    /// to router `r`, assigning a fresh /30 for the peering subnet.
    pub fn external_peer(&mut self, name: &str, asn: AsNum, r: RouterId) -> ExtPeerId {
        let net = self.next_ext_net;
        self.next_ext_net += 4;
        let subnet = Ipv4Prefix::from_bits(net, 30);
        let id = ExtPeerId(self.topo.num_ext_peers() as u32);
        let iface = self.add_iface(r, subnet);
        self.topo.push_ext_peer(ExternalPeer {
            id,
            name: name.to_string(),
            asn,
            attach: (r, iface),
            state: LinkState::Up,
        });
        id
    }

    /// Finishes construction.
    pub fn build(self) -> Topology {
        self.topo
    }
}

/// Ready-made topology shapes used by tests, examples, and benchmarks.
pub mod shapes {
    use super::*;

    /// The paper's running example (Figs. 1, 2, 5): three routers in one
    /// AS, full iBGP mesh fabric (triangle of links), with uplinks via R1
    /// and R2 to external peers announcing prefix `P`.
    ///
    /// Returns `(topology, ext_via_r1, ext_via_r2)`.
    pub fn paper_triangle() -> (Topology, ExtPeerId, ExtPeerId) {
        let mut b = TopologyBuilder::new();
        let r1 = b.router("R1");
        let r2 = b.router("R2");
        let r3 = b.router("R3");
        b.link(r1, r2, 10);
        b.link(r1, r3, 10);
        b.link(r2, r3, 10);
        let e1 = b.external_peer("UplinkViaR1", AsNum(100), r1);
        let e2 = b.external_peer("UplinkViaR2", AsNum(200), r2);
        (b.build(), e1, e2)
    }

    /// A line of `n` routers: R1 — R2 — … — Rn, unit cost.
    pub fn line(n: usize) -> Topology {
        let mut b = TopologyBuilder::new();
        let ids: Vec<RouterId> = (0..n).map(|i| b.router(&format!("R{}", i + 1))).collect();
        for w in ids.windows(2) {
            b.link(w[0], w[1], 10);
        }
        b.build()
    }

    /// A ring of `n ≥ 3` routers, unit cost.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    pub fn ring(n: usize) -> Topology {
        assert!(n >= 3, "a ring needs at least 3 routers");
        let mut b = TopologyBuilder::new();
        let ids: Vec<RouterId> = (0..n).map(|i| b.router(&format!("R{}", i + 1))).collect();
        for w in ids.windows(2) {
            b.link(w[0], w[1], 10);
        }
        b.link(ids[n - 1], ids[0], 10);
        b.build()
    }

    /// An `rows × cols` grid (mesh), unit cost. Router `R(r*cols+c+1)` is at
    /// `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn grid(rows: usize, cols: usize) -> Topology {
        assert!(rows > 0 && cols > 0);
        let mut b = TopologyBuilder::new();
        let mut ids = Vec::with_capacity(rows * cols);
        for i in 0..rows * cols {
            ids.push(b.router(&format!("R{}", i + 1)));
        }
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    b.link(ids[r * cols + c], ids[r * cols + c + 1], 10);
                }
                if r + 1 < rows {
                    b.link(ids[r * cols + c], ids[(r + 1) * cols + c], 10);
                }
            }
        }
        b.build()
    }

    /// A "two-exit" enterprise shape of `n` routers: a line fabric with
    /// external uplinks at both ends — a scaled generalization of the
    /// paper's example for benchmarks.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn two_exit_line(n: usize) -> (Topology, ExtPeerId, ExtPeerId) {
        assert!(n >= 2);
        let mut b = TopologyBuilder::new();
        let ids: Vec<RouterId> = (0..n).map(|i| b.router(&format!("R{}", i + 1))).collect();
        for w in ids.windows(2) {
            b.link(w[0], w[1], 10);
        }
        let e1 = b.external_peer("UplinkLeft", AsNum(100), ids[0]);
        let e2 = b.external_peer("UplinkRight", AsNum(200), ids[n - 1]);
        (b.build(), e1, e2)
    }
}

#[cfg(test)]
mod tests {
    use super::shapes;
    use super::*;

    #[test]
    fn loopbacks_are_unique() {
        let t = shapes::line(10);
        let mut addrs: Vec<Ipv4Addr> = t.router_ids().map(|r| t.router(r).loopback).collect();
        addrs.sort();
        addrs.dedup();
        assert_eq!(addrs.len(), 10);
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_panics() {
        let mut b = TopologyBuilder::new();
        let r1 = b.router("R1");
        b.link(r1, r1, 1);
    }

    #[test]
    fn paper_triangle_shape() {
        let (t, e1, e2) = shapes::paper_triangle();
        assert_eq!(t.num_routers(), 3);
        assert_eq!(t.num_links(), 3);
        assert_eq!(t.ext_peer(e1).attach.0, RouterId(0));
        assert_eq!(t.ext_peer(e2).attach.0, RouterId(1));
        // every pair of routers is directly linked
        for a in 0..3u32 {
            for b2 in (a + 1)..3u32 {
                assert!(t.link_between(RouterId(a), RouterId(b2)).is_some());
            }
        }
    }

    #[test]
    fn ring_closes() {
        let t = shapes::ring(5);
        assert_eq!(t.num_links(), 5);
        assert!(t.link_between(RouterId(0), RouterId(4)).is_some());
    }

    #[test]
    #[should_panic]
    fn tiny_ring_panics() {
        shapes::ring(2);
    }

    #[test]
    fn grid_link_count() {
        // rows*(cols-1) + cols*(rows-1)
        let t = shapes::grid(3, 4);
        assert_eq!(t.num_routers(), 12);
        assert_eq!(t.num_links(), 3 * 3 + 4 * 2);
    }

    #[test]
    fn two_exit_line_shape() {
        let (t, e1, e2) = shapes::two_exit_line(6);
        assert_eq!(t.num_routers(), 6);
        assert_eq!(t.num_links(), 5);
        assert_eq!(t.ext_peer(e1).attach.0, RouterId(0));
        assert_eq!(t.ext_peer(e2).attach.0, RouterId(5));
    }
}
