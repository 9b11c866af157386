//! Core topology data structures.

use cpvr_types::{AsNum, IfaceId, Ipv4Prefix, RouterId};
use std::fmt;
use std::net::Ipv4Addr;

/// Identifies a point-to-point link between two router interfaces.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Returns the id as a `usize`, for indexing per-link tables.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

impl fmt::Debug for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Identifies an external peer (an eBGP neighbor outside the domain).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExtPeerId(pub u32);

impl ExtPeerId {
    /// Returns the id as a `usize`, for indexing per-peer tables.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ExtPeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ext{}", self.0)
    }
}

impl fmt::Debug for ExtPeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ext{}", self.0)
    }
}

/// Administrative/operational state of a link or interface.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LinkState {
    /// Link is passing traffic.
    #[default]
    Up,
    /// Link is down (failed or administratively disabled).
    Down,
}

impl LinkState {
    /// True when the link is up.
    pub fn is_up(self) -> bool {
        self == LinkState::Up
    }
}

/// A router in the administrative domain.
#[derive(Clone, Debug)]
pub struct Router {
    /// Human-readable name (e.g. `"R1"`).
    pub name: String,
    /// A stable loopback address used as router-id / iBGP peering address.
    pub loopback: Ipv4Addr,
    /// Interfaces, indexed by [`IfaceId`].
    pub ifaces: Vec<Iface>,
}

/// One router interface.
#[derive(Clone, Debug)]
pub struct Iface {
    /// The connected subnet.
    pub subnet: Ipv4Prefix,
}

/// A point-to-point link between two in-domain routers.
#[derive(Clone, Debug)]
pub struct Link {
    /// The link id.
    pub id: LinkId,
    /// Endpoint A: (router, interface).
    pub a: (RouterId, IfaceId),
    /// Endpoint B: (router, interface).
    pub b: (RouterId, IfaceId),
    /// The link subnet.
    pub subnet: Ipv4Prefix,
    /// IGP cost of the link (symmetric).
    pub igp_cost: u32,
    /// Current state.
    pub state: LinkState,
}

impl Link {
    /// Given one endpoint router, returns the other endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not an endpoint of this link.
    pub fn other_end(&self, r: RouterId) -> (RouterId, IfaceId) {
        if self.a.0 == r {
            self.b
        } else if self.b.0 == r {
            self.a
        } else {
            panic!("{r} is not an endpoint of {}", self.id)
        }
    }
}

/// An eBGP neighbor outside the administrative domain (e.g. an upstream
/// provider). External peers originate routes into the domain and absorb
/// traffic forwarded to them; they are not simulated as full routers.
#[derive(Clone, Debug)]
pub struct ExternalPeer {
    /// The peer id.
    pub id: ExtPeerId,
    /// Human-readable name (e.g. `"ProviderA"`).
    pub(crate) name: String,
    /// The peer's AS.
    pub asn: AsNum,
    /// The in-domain router and interface it attaches to.
    pub attach: (RouterId, IfaceId),
    /// Current state of the attachment ("uplink up/down").
    pub state: LinkState,
}

/// The static network structure plus mutable link state.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    routers: Vec<Router>,
    links: Vec<Link>,
    ext_peers: Vec<ExternalPeer>,
}

impl Topology {
    /// Creates an empty topology; normally built via
    /// [`TopologyBuilder`](crate::TopologyBuilder).
    pub(crate) fn new() -> Self {
        Topology::default()
    }

    /// Number of routers.
    pub fn num_routers(&self) -> usize {
        self.routers.len()
    }

    /// Number of internal links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Number of external peers.
    pub fn num_ext_peers(&self) -> usize {
        self.ext_peers.len()
    }

    /// All router ids, in order.
    pub fn router_ids(&self) -> impl Iterator<Item = RouterId> + '_ {
        (0..self.routers.len() as u32).map(RouterId)
    }

    /// All links, in id order.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// All external peers, in id order.
    pub fn ext_peers(&self) -> &[ExternalPeer] {
        &self.ext_peers
    }

    /// Looks up a router.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn router(&self, id: RouterId) -> &Router {
        &self.routers[id.index()]
    }

    /// Looks up a link.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Looks up an external peer.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn ext_peer(&self, id: ExtPeerId) -> &ExternalPeer {
        &self.ext_peers[id.index()]
    }

    /// Looks up an external peer by name.
    pub fn ext_peer_by_name(&self, name: &str) -> Option<&ExternalPeer> {
        self.ext_peers.iter().find(|p| p.name == name)
    }

    /// The in-domain neighbors of `r` reachable over *up* links, with the
    /// link used, in link-id order.
    pub fn up_neighbors(&self, r: RouterId) -> Vec<(RouterId, LinkId)> {
        self.links
            .iter()
            .filter(|l| l.state.is_up() && (l.a.0 == r || l.b.0 == r))
            .map(|l| (l.other_end(r).0, l.id))
            .collect()
    }

    /// Finds the link between two routers, if one exists (first by id).
    pub fn link_between(&self, a: RouterId, b: RouterId) -> Option<&Link> {
        self.links
            .iter()
            .find(|l| (l.a.0 == a && l.b.0 == b) || (l.a.0 == b && l.b.0 == a))
    }

    /// Sets the state of an internal link.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn set_link_state(&mut self, id: LinkId, state: LinkState) {
        self.links[id.index()].state = state;
    }

    /// Sets the state of an external peer attachment (the "uplink").
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn set_ext_peer_state(&mut self, id: ExtPeerId, state: LinkState) {
        self.ext_peers[id.index()].state = state;
    }

    // -- construction (used by the builder) ------------------------------

    pub(crate) fn push_router(&mut self, r: Router) {
        self.routers.push(r);
    }

    pub(crate) fn push_link(&mut self, l: Link) {
        debug_assert_eq!(l.id.index(), self.links.len());
        self.links.push(l);
    }

    pub(crate) fn push_ext_peer(&mut self, p: ExternalPeer) {
        debug_assert_eq!(p.id.index(), self.ext_peers.len());
        self.ext_peers.push(p);
    }

    pub(crate) fn router_mut(&mut self, id: RouterId) -> &mut Router {
        &mut self.routers[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TopologyBuilder;

    fn triangle() -> Topology {
        let mut b = TopologyBuilder::new();
        let r1 = b.router("R1");
        let r2 = b.router("R2");
        let r3 = b.router("R3");
        b.link(r1, r2, 10);
        b.link(r2, r3, 10);
        b.link(r1, r3, 10);
        b.external_peer("ExtA", AsNum(100), r1);
        b.external_peer("ExtB", AsNum(200), r2);
        b.build()
    }

    #[test]
    fn counts() {
        let t = triangle();
        assert_eq!(t.num_routers(), 3);
        assert_eq!(t.num_links(), 3);
        assert_eq!(t.num_ext_peers(), 2);
    }

    #[test]
    fn lookup_by_name() {
        let t = triangle();
        assert_eq!(t.ext_peer_by_name("ExtB").unwrap().asn, AsNum(200));
    }

    #[test]
    fn neighbors_respect_link_state() {
        let mut t = triangle();
        let r1 = RouterId(0);
        assert_eq!(t.up_neighbors(r1).len(), 2);
        let l = t.link_between(r1, RouterId(1)).unwrap().id;
        t.set_link_state(l, LinkState::Down);
        let up: Vec<RouterId> = t.up_neighbors(r1).into_iter().map(|(r, _)| r).collect();
        assert_eq!(up, vec![RouterId(2)]);
    }

    #[test]
    fn link_other_end() {
        let t = triangle();
        let l = t.link_between(RouterId(0), RouterId(1)).unwrap();
        assert_eq!(l.other_end(RouterId(0)).0, RouterId(1));
        assert_eq!(l.other_end(RouterId(1)).0, RouterId(0));
    }

    #[test]
    #[should_panic(expected = "is not an endpoint")]
    fn other_end_panics_for_non_endpoint() {
        let t = triangle();
        let l = t.link_between(RouterId(0), RouterId(1)).unwrap();
        l.other_end(RouterId(2));
    }

    #[test]
    fn ext_peer_state_toggles() {
        let mut t = triangle();
        let p = t.ext_peer_by_name("ExtB").unwrap().id;
        assert!(t.ext_peer(p).state.is_up());
        t.set_ext_peer_state(p, LinkState::Down);
        assert!(!t.ext_peer(p).state.is_up());
    }

    #[test]
    fn subnets_are_disjoint() {
        let t = triangle();
        let mut subnets: Vec<Ipv4Prefix> = t.links().iter().map(|l| l.subnet).collect();
        subnets.extend(
            t.ext_peers()
                .iter()
                .map(|p| t.router(p.attach.0).ifaces[p.attach.1.index()].subnet),
        );
        for i in 0..subnets.len() {
            for j in (i + 1)..subnets.len() {
                assert!(
                    !subnets[i].overlaps(&subnets[j]),
                    "{} vs {}",
                    subnets[i],
                    subnets[j]
                );
            }
        }
    }
}

cpvr_types::impl_json_newtype!(crate::topology, LinkId);
cpvr_types::impl_json_newtype!(crate::topology, ExtPeerId);
