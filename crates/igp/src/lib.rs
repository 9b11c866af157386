//! Interior gateway protocols.
//!
//! Three IGPs, each a *pure state machine*: inputs are protocol messages
//! and local link-status changes, outputs are messages to neighbors plus
//! IGP RIB deltas. No clocks, no sockets — the simulator owns time and
//! transport, which keeps every protocol run deterministic and lets the
//! capture layer observe exactly the control-plane I/Os the paper's §4.1
//! enumerates.
//!
//! * [`ospf`] — a link-state protocol: LSA origination, flooding with
//!   sequence numbers, and SPF (Dijkstra) over the link-state database.
//! * [`rip`] — a distance-vector protocol with split horizon and poisoned
//!   reverse, infinity = 16.
//! * [`eigrp`] — a DUAL-flavored distance-vector protocol with the
//!   feasibility condition. Included because the paper's §4.1 points out
//!   the happens-before rules *differ* for EIGRP: it advertises a route
//!   only after installing it in the FIB, whereas BGP advertises after the
//!   RIB install.
//!
//! The common vocabulary ([`IgpRoute`], [`IgpDelta`], [`IgpOutputs`]) lives
//! here at the crate root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eigrp;
pub mod ospf;
pub mod rip;

use cpvr_topo::LinkId;
use cpvr_types::{Ipv4Prefix, RouterId};
use std::collections::BTreeMap;

/// A route selected by an IGP.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IgpRoute {
    /// Total metric to the destination.
    pub metric: u32,
    /// First hop: the neighbor router and the link used to reach it.
    /// `None` means the destination is local (directly connected / self).
    pub next_hop: Option<(RouterId, LinkId)>,
}

/// One change to a router's IGP RIB.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IgpDelta {
    /// The affected prefix.
    pub prefix: Ipv4Prefix,
    /// The new route, or `None` if the prefix became unreachable.
    pub route: Option<IgpRoute>,
}

/// What a protocol instance emits in response to one input.
#[derive(Clone, Debug, Default)]
pub struct IgpOutputs<M> {
    /// Messages to send: `(neighbor, message)`. The simulator delivers
    /// them over the connecting link with appropriate latency.
    pub msgs: Vec<(RouterId, M)>,
    /// IGP RIB changes produced by this input.
    pub deltas: Vec<IgpDelta>,
}

impl<M> IgpOutputs<M> {
    /// No messages, no deltas.
    pub fn empty() -> Self {
        IgpOutputs {
            msgs: Vec::new(),
            deltas: Vec::new(),
        }
    }
}

/// Computes the deltas between an old and a new route table.
///
/// Shared by all three protocols: each recomputes its table from protocol
/// state and then diffs, which keeps "what changed" logic in one place.
pub(crate) fn diff_tables(
    old: &BTreeMap<Ipv4Prefix, IgpRoute>,
    new: &BTreeMap<Ipv4Prefix, IgpRoute>,
) -> Vec<IgpDelta> {
    let mut out = Vec::new();
    for (p, r) in new {
        if old.get(p) != Some(r) {
            out.push(IgpDelta {
                prefix: *p,
                route: Some(*r),
            });
        }
    }
    for p in old.keys() {
        if !new.contains_key(p) {
            out.push(IgpDelta {
                prefix: *p,
                route: None,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn r(metric: u32) -> IgpRoute {
        IgpRoute {
            metric,
            next_hop: Some((RouterId(1), LinkId(0))),
        }
    }

    #[test]
    fn diff_detects_add_change_remove() {
        let mut old = BTreeMap::new();
        old.insert(p("10.0.0.0/8"), r(10));
        old.insert(p("11.0.0.0/8"), r(20));
        let mut new = BTreeMap::new();
        new.insert(p("10.0.0.0/8"), r(15)); // changed
        new.insert(p("12.0.0.0/8"), r(5)); // added
                                           // 11.0.0.0/8 removed
        let mut d = diff_tables(&old, &new);
        d.sort_by_key(|d| d.prefix);
        assert_eq!(d.len(), 3);
        assert_eq!(
            d[0],
            IgpDelta {
                prefix: p("10.0.0.0/8"),
                route: Some(r(15))
            }
        );
        assert_eq!(
            d[1],
            IgpDelta {
                prefix: p("11.0.0.0/8"),
                route: None
            }
        );
        assert_eq!(
            d[2],
            IgpDelta {
                prefix: p("12.0.0.0/8"),
                route: Some(r(5))
            }
        );
    }

    #[test]
    fn diff_of_equal_tables_is_empty() {
        let mut t = BTreeMap::new();
        t.insert(p("10.0.0.0/8"), r(10));
        assert!(diff_tables(&t, &t.clone()).is_empty());
    }
}
