//! Forwarding information base.

use cpvr_topo::{ExtPeerId, LinkId};
use cpvr_types::{Ipv4Prefix, PrefixTrie, RouterId, SimTime};
use std::fmt;
use std::net::Ipv4Addr;

/// What a router does with a packet that matched a FIB entry.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FibAction {
    /// Forward to the neighbor across this link.
    Forward(LinkId),
    /// Hand off to an external peer (traffic exits the domain).
    Exit(ExtPeerId),
    /// Deliver locally (the destination is this router's own address).
    Local,
    /// Explicitly drop (null route).
    Drop,
}

impl fmt::Debug for FibAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FibAction::Forward(l) => write!(f, "fwd({l})"),
            FibAction::Exit(p) => write!(f, "exit({p})"),
            FibAction::Local => write!(f, "local"),
            FibAction::Drop => write!(f, "drop"),
        }
    }
}

impl fmt::Display for FibAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One FIB entry: the action plus bookkeeping for provenance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FibEntry {
    /// The forwarding action.
    pub action: FibAction,
    /// When the entry was installed (simulation time).
    pub installed_at: SimTime,
}

/// Install or remove?
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum UpdateKind {
    /// The entry was installed or replaced.
    Install,
    /// The entry was removed.
    Remove,
}

/// A single FIB delta — the unit of data-plane change the paper's verifier
/// gates on before letting it reach hardware.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FibUpdate {
    /// The router whose FIB changed.
    pub router: RouterId,
    /// The affected prefix.
    pub prefix: Ipv4Prefix,
    /// Install or remove.
    pub kind: UpdateKind,
    /// The new action for installs; the removed action for removes.
    pub action: FibAction,
    /// When the update was produced.
    pub at: SimTime,
}

/// One router's forwarding table.
#[derive(Clone, Debug, Default)]
pub struct Fib {
    entries: PrefixTrie<FibEntry>,
}

impl Fib {
    /// An empty FIB.
    pub fn new() -> Self {
        Fib {
            entries: PrefixTrie::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the FIB has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Installs (or replaces) an entry, returning the previous one if any.
    pub fn install(&mut self, prefix: Ipv4Prefix, entry: FibEntry) -> Option<FibEntry> {
        self.entries.insert(prefix, entry)
    }

    /// Removes the entry for `prefix`, returning it if present.
    pub fn remove(&mut self, prefix: &Ipv4Prefix) -> Option<FibEntry> {
        self.entries.remove(prefix)
    }

    /// The entry exactly at `prefix`.
    pub fn get(&self, prefix: &Ipv4Prefix) -> Option<&FibEntry> {
        self.entries.get(prefix)
    }

    /// Longest-prefix-match lookup for a destination address.
    pub fn lookup(&self, dst: Ipv4Addr) -> Option<(Ipv4Prefix, FibEntry)> {
        self.entries.longest_match(dst).map(|(p, e)| (p, *e))
    }

    /// All entries in prefix order.
    pub fn entries(&self) -> Vec<(Ipv4Prefix, FibEntry)> {
        self.entries.iter().map(|(p, e)| (p, *e)).collect()
    }

    /// All prefixes with an entry, in prefix order.
    pub fn prefixes(&self) -> Vec<Ipv4Prefix> {
        self.entries.prefixes().collect()
    }

    /// The underlying prefix trie, for callers that want to walk the
    /// table structurally (equivalence-class slicing) without collecting
    /// intermediate vectors.
    pub fn trie(&self) -> &PrefixTrie<FibEntry> {
        &self.entries
    }

    /// Applies a [`FibUpdate`] to this table. The update's router field is
    /// not checked; callers route updates to the right FIB.
    pub fn apply(&mut self, u: &FibUpdate) {
        match u.kind {
            UpdateKind::Install => {
                self.install(
                    u.prefix,
                    FibEntry {
                        action: u.action,
                        installed_at: u.at,
                    },
                );
            }
            UpdateKind::Remove => {
                self.remove(&u.prefix);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn e(action: FibAction) -> FibEntry {
        FibEntry {
            action,
            installed_at: SimTime::ZERO,
        }
    }

    #[test]
    fn install_lookup_remove() {
        let mut f = Fib::new();
        assert!(f.is_empty());
        f.install(p("10.0.0.0/8"), e(FibAction::Forward(LinkId(0))));
        let (pre, entry) = f.lookup("10.1.2.3".parse().unwrap()).unwrap();
        assert_eq!(pre, p("10.0.0.0/8"));
        assert_eq!(entry.action, FibAction::Forward(LinkId(0)));
        assert!(f.remove(&p("10.0.0.0/8")).is_some());
        assert!(f.lookup("10.1.2.3".parse().unwrap()).is_none());
    }

    #[test]
    fn lpm_prefers_specific() {
        let mut f = Fib::new();
        f.install(p("10.0.0.0/8"), e(FibAction::Forward(LinkId(0))));
        f.install(p("10.1.0.0/16"), e(FibAction::Exit(ExtPeerId(0))));
        assert_eq!(
            f.lookup("10.1.9.9".parse().unwrap()).unwrap().1.action,
            FibAction::Exit(ExtPeerId(0))
        );
        assert_eq!(
            f.lookup("10.2.0.1".parse().unwrap()).unwrap().1.action,
            FibAction::Forward(LinkId(0))
        );
    }

    #[test]
    fn replace_returns_old() {
        let mut f = Fib::new();
        f.install(p("10.0.0.0/8"), e(FibAction::Drop));
        let old = f.install(p("10.0.0.0/8"), e(FibAction::Local)).unwrap();
        assert_eq!(old.action, FibAction::Drop);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn apply_updates() {
        let mut f = Fib::new();
        let u1 = FibUpdate {
            router: RouterId(0),
            prefix: p("10.0.0.0/8"),
            kind: UpdateKind::Install,
            action: FibAction::Forward(LinkId(3)),
            at: SimTime::from_millis(5),
        };
        f.apply(&u1);
        assert_eq!(
            f.get(&p("10.0.0.0/8")).unwrap().installed_at,
            SimTime::from_millis(5)
        );
        let u2 = FibUpdate {
            kind: UpdateKind::Remove,
            ..u1
        };
        f.apply(&u2);
        assert!(f.is_empty());
    }

    #[test]
    fn action_display() {
        assert_eq!(FibAction::Forward(LinkId(2)).to_string(), "fwd(L2)");
        assert_eq!(FibAction::Exit(ExtPeerId(1)).to_string(), "exit(Ext1)");
        assert_eq!(FibAction::Local.to_string(), "local");
        assert_eq!(FibAction::Drop.to_string(), "drop");
    }
}

cpvr_types::impl_json_enum!(FibAction {
    Forward(l),
    Exit(p),
    Local,
    Drop,
});

cpvr_types::impl_json_enum!(UpdateKind { Install, Remove });

cpvr_types::impl_json_struct!(FibUpdate {
    router,
    prefix,
    kind,
    action,
    at,
});
