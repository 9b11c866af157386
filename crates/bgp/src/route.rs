//! BGP routes, peers, and update messages.

use cpvr_topo::ExtPeerId;
use cpvr_types::{AsNum, Ipv4Prefix, RouterId};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Identifies a BGP peer of some router: either another router in the
/// domain (iBGP) or an external neighbor (eBGP).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PeerRef {
    /// An iBGP peer inside the domain.
    Internal(RouterId),
    /// An eBGP peer outside the domain.
    External(ExtPeerId),
}

impl PeerRef {
    /// True for eBGP peers.
    pub fn is_external(&self) -> bool {
        matches!(self, PeerRef::External(_))
    }
}

impl fmt::Display for PeerRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PeerRef::Internal(r) => write!(f, "{r}"),
            PeerRef::External(p) => write!(f, "{p}"),
        }
    }
}

impl fmt::Debug for PeerRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// Where traffic for a route ultimately goes from the perspective of the
/// holding router.
///
/// We model next-hop-self at the border: when a border router propagates an
/// eBGP-learned route over iBGP, the next hop becomes that border router,
/// so internal routers resolve it through the IGP.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NextHop {
    /// Traffic exits the domain directly through this external peer
    /// (the route was learned on a local eBGP session).
    External(ExtPeerId),
    /// Traffic heads to this border router (iBGP-learned route with
    /// next-hop-self).
    Router(RouterId),
}

impl fmt::Display for NextHop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NextHop::External(p) => write!(f, "{p}"),
            NextHop::Router(r) => write!(f, "{r}"),
        }
    }
}

impl fmt::Debug for NextHop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// BGP origin attribute; lower is preferred.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum Origin {
    /// Route originated from an IGP (`i`).
    Igp,
    /// Route originated from EGP (`e`, historic).
    Egp,
    /// Origin unknown (`?`).
    Incomplete,
}

/// A BGP route: one path to one prefix, with the standard attributes.
///
/// Routes travel and rest as `Arc<BgpRoute>`: a route is allocated where
/// it is created or rewritten — an external announcement, a route-map
/// set action that fires, the next-hop-self / eBGP form of a best route
/// — and every holder after that (updates in flight, Adj-RIB-In,
/// Loc-RIB, Adj-RIB-Out, captured I/O events) keeps a reference count.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub struct BgpRoute {
    /// Destination prefix.
    pub prefix: Ipv4Prefix,
    /// Next hop (see [`NextHop`] for the next-hop-self convention).
    pub next_hop: NextHop,
    /// Local preference; higher is preferred. Meaningful within the AS.
    pub local_pref: u32,
    /// AS path, nearest AS first.
    pub as_path: Vec<AsNum>,
    /// Origin attribute.
    pub origin: Origin,
    /// Multi-exit discriminator; lower is preferred among routes from the
    /// same neighboring AS.
    pub med: u32,
    /// Community tags.
    pub communities: BTreeSet<u32>,
    /// The border router that injected the route into the domain. Equal to
    /// the router itself for locally learned eBGP routes. Used for iBGP
    /// tie-breaking and Add-Path identification.
    pub originator: RouterId,
}

/// Default local preference when none is set by policy (RFC-conventional).
pub(crate) const DEFAULT_LOCAL_PREF: u32 = 100;

impl BgpRoute {
    /// A minimal eBGP-learned route as it arrives from an external peer:
    /// default local-pref, the peer's AS path, origin IGP, MED 0.
    pub fn external(
        prefix: Ipv4Prefix,
        peer: ExtPeerId,
        peer_as: AsNum,
        learned_at: RouterId,
    ) -> Self {
        BgpRoute {
            prefix,
            next_hop: NextHop::External(peer),
            local_pref: DEFAULT_LOCAL_PREF,
            as_path: vec![peer_as],
            origin: Origin::Igp,
            med: 0,
            communities: BTreeSet::new(),
            originator: learned_at,
        }
    }

    /// The neighboring AS the route came through (first AS on the path),
    /// used for MED comparability.
    pub fn neighbor_as(&self) -> Option<AsNum> {
        self.as_path.first().copied()
    }
}

impl fmt::Display for BgpRoute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} via {} LP={} path={:?} med={}",
            self.prefix, self.next_hop, self.local_pref, self.as_path, self.med
        )
    }
}

/// A BGP update message: announcements plus withdrawals.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct BgpUpdate {
    /// Announced routes.
    pub announce: Vec<Arc<BgpRoute>>,
    /// Withdrawn prefixes. With Add-Path, a withdrawal names the
    /// originator whose path is withdrawn; without, the originator is the
    /// sender's best-path originator and receivers clear the whole
    /// adjacency entry for the prefix.
    pub withdraw: Vec<(Ipv4Prefix, Option<RouterId>)>,
}

impl BgpUpdate {
    /// True if the update carries nothing.
    pub(crate) fn is_empty(&self) -> bool {
        self.announce.is_empty() && self.withdraw.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn external_route_defaults() {
        let r = BgpRoute::external(p("8.8.8.0/24"), ExtPeerId(1), AsNum(100), RouterId(0));
        assert_eq!(r.local_pref, DEFAULT_LOCAL_PREF);
        assert_eq!(r.as_path, vec![AsNum(100)]);
        assert_eq!(r.neighbor_as(), Some(AsNum(100)));
        assert_eq!(r.next_hop, NextHop::External(ExtPeerId(1)));
        assert_eq!(r.origin, Origin::Igp);
    }

    #[test]
    fn origin_ordering_matches_preference() {
        assert!(Origin::Igp < Origin::Egp);
        assert!(Origin::Egp < Origin::Incomplete);
    }

    #[test]
    fn peer_ref_display() {
        assert_eq!(PeerRef::Internal(RouterId(0)).to_string(), "R1");
        assert_eq!(PeerRef::External(ExtPeerId(2)).to_string(), "Ext2");
        assert!(PeerRef::External(ExtPeerId(0)).is_external());
        assert!(!PeerRef::Internal(RouterId(0)).is_external());
    }

    #[test]
    fn empty_update() {
        assert!(BgpUpdate::default().is_empty());
        let u = BgpUpdate {
            withdraw: vec![(p("8.8.8.0/24"), None)],
            ..Default::default()
        };
        assert!(!u.is_empty());
    }

    #[test]
    fn route_display_is_readable() {
        let r = BgpRoute::external(p("8.8.8.0/24"), ExtPeerId(0), AsNum(100), RouterId(1));
        let s = r.to_string();
        assert!(s.contains("8.8.8.0/24"));
        assert!(s.contains("LP=100"));
    }
}

cpvr_types::impl_json_enum!(PeerRef {
    Internal(r),
    External(p),
});
cpvr_types::impl_json_enum!(NextHop {
    External(p),
    Router(r),
});
cpvr_types::impl_json_enum!(Origin {
    Igp,
    Egp,
    Incomplete,
});
cpvr_types::impl_json_struct!(BgpRoute {
    prefix,
    next_hop,
    local_pref,
    as_path,
    origin,
    med,
    communities,
    originator,
});
