//! The policy language and violation reports.

use cpvr_topo::ExtPeerId;
use cpvr_types::{Ipv4Prefix, RouterId};
use std::fmt;

/// An operator intent the data plane must satisfy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Traffic for `prefix` injected at any router must reach *somewhere*
    /// (exit the domain or be delivered locally) — no loops, no
    /// blackholes.
    Reachable {
        /// The destination prefix.
        prefix: Ipv4Prefix,
    },
    /// Traffic for `prefix` must never loop, from any ingress.
    LoopFree {
        /// The destination prefix.
        prefix: Ipv4Prefix,
    },
    /// Traffic for `prefix` from any ingress must exit via this external
    /// peer.
    ExitsVia {
        /// The destination prefix.
        prefix: Ipv4Prefix,
        /// The required exit.
        peer: ExtPeerId,
    },
    /// The paper's running policy: exit via `primary` while its uplink is
    /// up; otherwise via `backup`.
    PreferredExit {
        /// The destination prefix.
        prefix: Ipv4Prefix,
        /// Preferred exit (R2's uplink in the paper).
        primary: ExtPeerId,
        /// Fallback exit (R1's uplink).
        backup: ExtPeerId,
    },
    /// Traffic for `prefix` from `from` must traverse `via` (e.g. a
    /// firewall router) before leaving the network.
    Waypoint {
        /// Ingress router.
        from: RouterId,
        /// The destination prefix.
        prefix: Ipv4Prefix,
        /// The router that must appear on the path.
        via: RouterId,
    },
    /// Traffic for `prefix` must never leave through this external peer
    /// (e.g. a peering link contractually barred from carrying transit).
    Isolation {
        /// The destination prefix.
        prefix: Ipv4Prefix,
        /// The forbidden exit.
        forbidden: ExtPeerId,
    },
}

impl Policy {
    /// The prefix the policy constrains (used for incremental
    /// verification scoping).
    pub fn prefix(&self) -> Ipv4Prefix {
        match self {
            Policy::Reachable { prefix }
            | Policy::LoopFree { prefix }
            | Policy::ExitsVia { prefix, .. }
            | Policy::PreferredExit { prefix, .. }
            | Policy::Waypoint { prefix, .. }
            | Policy::Isolation { prefix, .. } => *prefix,
        }
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Policy::Reachable { prefix } => write!(f, "{prefix} reachable"),
            Policy::LoopFree { prefix } => write!(f, "{prefix} loop-free"),
            Policy::ExitsVia { prefix, peer } => write!(f, "{prefix} exits via {peer}"),
            Policy::PreferredExit {
                prefix,
                primary,
                backup,
            } => {
                write!(f, "{prefix} exits via {primary} (else {backup})")
            }
            Policy::Waypoint { from, prefix, via } => {
                write!(f, "{prefix} from {from} waypoints {via}")
            }
            Policy::Isolation { prefix, forbidden } => {
                write!(f, "{prefix} never exits via {forbidden}")
            }
        }
    }
}

/// A detected policy violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Which policy (index into the checked policy list).
    pub(crate) policy_idx: usize,
    /// The policy itself, for self-contained reports.
    pub policy: Policy,
    /// The ingress router whose traffic violates it.
    pub(crate) ingress: RouterId,
    /// The representative destination that was traced.
    pub(crate) representative: std::net::Ipv4Addr,
    /// What actually happened.
    pub(crate) observed: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "VIOLATION [{}] from {}: {} (probe {})",
            self.policy, self.ingress, self.observed, self.representative
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn policy_prefix_extraction() {
        let pol = Policy::PreferredExit {
            prefix: p("8.8.8.0/24"),
            primary: ExtPeerId(1),
            backup: ExtPeerId(0),
        };
        assert_eq!(pol.prefix(), p("8.8.8.0/24"));
        assert_eq!(
            Policy::Reachable {
                prefix: p("9.9.9.0/24")
            }
            .prefix(),
            p("9.9.9.0/24")
        );
    }

    #[test]
    fn display_forms() {
        let pol = Policy::ExitsVia {
            prefix: p("8.8.8.0/24"),
            peer: ExtPeerId(1),
        };
        assert_eq!(pol.to_string(), "8.8.8.0/24 exits via Ext1");
        let w = Policy::Waypoint {
            from: RouterId(0),
            prefix: p("8.8.8.0/24"),
            via: RouterId(2),
        };
        assert_eq!(w.to_string(), "8.8.8.0/24 from R1 waypoints R3");
    }

    #[test]
    fn violation_display() {
        let v = Violation {
            policy_idx: 0,
            policy: Policy::LoopFree {
                prefix: p("8.8.8.0/24"),
            },
            ingress: RouterId(1),
            representative: "8.8.8.1".parse().unwrap(),
            observed: "loop at R1".into(),
        };
        let s = v.to_string();
        assert!(s.contains("VIOLATION"));
        assert!(s.contains("loop at R1"));
        assert!(s.contains("from R2"));
    }
}
