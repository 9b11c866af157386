//! The BGP RIB: one ordered table, one record per prefix.
//!
//! [`Rib`] maps each prefix to a `PrefixRib` record holding everything the
//! speaker knows about it — the Adj-RIB-In paths, the Loc-RIB selection,
//! the Adj-RIB-Out records and the shadow of the FIB entry — so
//! re-evaluating a prefix is one lookup, and no per-prefix operation ever
//! looks at another prefix's state.
//!
//! The Adj-RIB-In stores routes **as received**, before import policy.
//! That is what makes *soft reconfiguration* possible: when a policy
//! changes, the router re-runs the decision process over the stored raw
//! routes without needing the peers to re-advertise — the 25-second "soft
//! reconfiguration" event in the paper's Fig. 5 feasibility study is
//! exactly this. It is one in-order walk of the table.
//!
//! Inside a record, paths and advertisement records are keyed by `(peer,
//! originator)` so that BGP Add-Path (multiple paths per prefix per peer,
//! distinguished by originating border router) uses the same structure;
//! without Add-Path each peer simply never contributes more than one
//! entry per prefix. Iteration is therefore in `(prefix, peer,
//! originator)` order table-wide and `(peer, originator)` order per
//! prefix, which is the order the decision process sees candidates in.
//!
//! Cost, with `n` prefixes in the table and `k` paths (or advertisement
//! records) held for the prefix in question:
//!
//! | operation | cost |
//! |---|---|
//! | [`announce`](Rib::announce), [`withdraw`](Rib::withdraw), [`paths_for`](Rib::paths_for), [`originators`](Rib::originators) | O(log n + k) |
//! | re-evaluating one prefix (`BgpInstance`) | O(log n + k + peers that hear something) |
//! | soft reconfiguration, IGP change | one walk: O(n · (k + peers that hear something)) |
//! | [`drop_peer`](Rib::drop_peer), [`drop_sent_to`](Rib::drop_sent_to), [`sent_to`](Rib::sent_to) (session teardown, inspection) | O(n · k) |

use crate::route::{BgpRoute, PeerRef};
use cpvr_dataplane::FibAction;
use cpvr_types::{Ipv4Prefix, RouterId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The best route selected for a prefix, with its provenance.
#[derive(Clone, Debug)]
pub(crate) struct Selected {
    /// The route, after import policy: the Adj-RIB-In's own allocation
    /// unless the policy rewrote it.
    pub(crate) route: Arc<BgpRoute>,
    /// The peer it was learned from.
    pub(crate) from: PeerRef,
}

/// Everything the speaker holds for one prefix.
#[derive(Clone, Debug, Default)]
pub(crate) struct PrefixRib {
    /// Adj-RIB-In: raw routes by `(peer, originator)`, each with its
    /// arrival sequence number.
    pub(crate) paths: BTreeMap<(PeerRef, RouterId), (Arc<BgpRoute>, u64)>,
    /// Loc-RIB: the selected best route (post-import-policy).
    pub(crate) best: Option<Selected>,
    /// Adj-RIB-Out: what has been advertised, by `(peer, originator)`.
    /// Needed to emit precise withdrawals and suppress duplicate
    /// announcements.
    pub(crate) sent: BTreeMap<(PeerRef, RouterId), Arc<BgpRoute>>,
    /// Shadow of what the FIB has been asked to hold.
    pub(crate) fib: Option<FibAction>,
}

impl PrefixRib {
    /// True once nothing is held for the prefix; such records are pruned
    /// at the end of the pass that emptied them.
    pub(crate) fn is_empty(&self) -> bool {
        self.paths.is_empty() && self.best.is_none() && self.sent.is_empty() && self.fib.is_none()
    }
}

/// The per-prefix table. See the module docs for layout and costs.
#[derive(Clone, Debug, Default)]
pub struct Rib {
    pub(crate) table: BTreeMap<Ipv4Prefix, PrefixRib>,
    next_seq: u64,
}

impl Rib {
    /// An empty table.
    pub fn new() -> Self {
        Rib::default()
    }

    /// Records an announcement from `peer`. If `add_path` is false, any
    /// other paths for the prefix from this peer are implicitly replaced.
    /// Returns the arrival sequence number.
    pub fn announce(&mut self, peer: PeerRef, route: Arc<BgpRoute>, add_path: bool) -> u64 {
        let paths = &mut self.table.entry(route.prefix).or_default().paths;
        if !add_path {
            paths.retain(|(pr, _), _| *pr != peer);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        paths.insert((peer, route.originator), (route, seq));
        seq
    }

    /// Removes paths for `prefix` from `peer`. With `originator` given,
    /// only that path; otherwise all of the peer's paths for the prefix.
    /// Returns how many entries were removed.
    pub fn withdraw(
        &mut self,
        peer: PeerRef,
        prefix: Ipv4Prefix,
        originator: Option<RouterId>,
    ) -> usize {
        let Some(rec) = self.table.get_mut(&prefix) else {
            return 0;
        };
        let before = rec.paths.len();
        match originator {
            Some(o) => {
                rec.paths.remove(&(peer, o));
            }
            None => rec.paths.retain(|(pr, _), _| *pr != peer),
        }
        before - rec.paths.len()
    }

    /// Drops every path learned from `peer` (session teardown). Returns
    /// the prefixes affected, sorted.
    pub fn drop_peer(&mut self, peer: PeerRef) -> Vec<Ipv4Prefix> {
        let mut affected = Vec::new();
        for (prefix, rec) in &mut self.table {
            let before = rec.paths.len();
            rec.paths.retain(|(pr, _), _| *pr != peer);
            if rec.paths.len() != before {
                affected.push(*prefix);
            }
        }
        affected
    }

    /// Forgets everything advertised to `peer` (its session is gone, so
    /// the peer has discarded it too).
    pub fn drop_sent_to(&mut self, peer: PeerRef) {
        for rec in self.table.values_mut() {
            rec.sent.retain(|(pr, _), _| *pr != peer);
        }
    }

    /// All paths for `prefix`, in key order: `(peer, route, seq)`.
    pub fn paths_for(&self, prefix: Ipv4Prefix) -> Vec<(PeerRef, &BgpRoute, u64)> {
        self.table
            .get(&prefix)
            .into_iter()
            .flat_map(|rec| &rec.paths)
            .map(|((pr, _), (route, seq))| (*pr, &**route, *seq))
            .collect()
    }

    /// Everything currently advertised to `peer`, in `(prefix,
    /// originator)` order.
    pub fn sent_to(&self, peer: PeerRef) -> Vec<&BgpRoute> {
        self.table
            .values()
            .flat_map(|rec| &rec.sent)
            .filter(|((pr, _), _)| *pr == peer)
            .map(|(_, r)| &**r)
            .collect()
    }

    /// Advertised originators for `(peer, prefix)`.
    pub fn originators(&self, peer: PeerRef, prefix: Ipv4Prefix) -> Vec<RouterId> {
        self.table
            .get(&prefix)
            .into_iter()
            .flat_map(|rec| rec.sent.keys())
            .filter(|(pr, _)| *pr == peer)
            .map(|(_, o)| *o)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{NextHop, Origin};
    use cpvr_topo::ExtPeerId;
    use cpvr_types::AsNum;
    use std::collections::BTreeSet;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn route(prefix: &str, originator: u32) -> Arc<BgpRoute> {
        Arc::new(BgpRoute {
            prefix: p(prefix),
            next_hop: NextHop::Router(RouterId(originator)),
            local_pref: 100,
            as_path: vec![AsNum(100)],
            origin: Origin::Igp,
            med: 0,
            communities: BTreeSet::new(),
            originator: RouterId(originator),
        })
    }

    fn ext(n: u32) -> PeerRef {
        PeerRef::External(ExtPeerId(n))
    }

    fn int(n: u32) -> PeerRef {
        PeerRef::Internal(RouterId(n))
    }

    /// Records `route` as advertised to `peer`, as the speaker would.
    fn record(rib: &mut Rib, peer: PeerRef, route: Arc<BgpRoute>) {
        let rec = rib.table.entry(route.prefix).or_default();
        rec.sent.insert((peer, route.originator), route);
    }

    #[test]
    fn announce_replaces_without_add_path() {
        let mut rib = Rib::new();
        rib.announce(ext(0), route("8.8.8.0/24", 0), false);
        rib.announce(ext(0), route("8.8.8.0/24", 1), false);
        let paths = rib.paths_for(p("8.8.8.0/24"));
        assert_eq!(
            paths.len(),
            1,
            "non-add-path peers hold one path per prefix"
        );
        assert_eq!(paths[0].1.originator, RouterId(1));
    }

    #[test]
    fn announce_accumulates_with_add_path() {
        let mut rib = Rib::new();
        rib.announce(int(1), route("8.8.8.0/24", 0), true);
        rib.announce(int(1), route("8.8.8.0/24", 1), true);
        assert_eq!(rib.paths_for(p("8.8.8.0/24")).len(), 2);
    }

    #[test]
    fn seq_is_monotonic() {
        let mut rib = Rib::new();
        let s1 = rib.announce(ext(0), route("8.8.8.0/24", 0), false);
        let s2 = rib.announce(ext(1), route("9.9.9.0/24", 1), false);
        assert!(s2 > s1, "one arrival counter across prefixes");
    }

    #[test]
    fn withdraw_specific_and_all() {
        let mut rib = Rib::new();
        rib.announce(int(1), route("8.8.8.0/24", 0), true);
        rib.announce(int(1), route("8.8.8.0/24", 1), true);
        assert_eq!(rib.withdraw(int(1), p("8.8.8.0/24"), Some(RouterId(0))), 1);
        assert_eq!(rib.paths_for(p("8.8.8.0/24")).len(), 1);
        assert_eq!(rib.withdraw(int(1), p("8.8.8.0/24"), None), 1);
        assert!(rib.paths_for(p("8.8.8.0/24")).is_empty());
        assert_eq!(rib.withdraw(int(1), p("8.8.8.0/24"), None), 0);
        assert_eq!(rib.withdraw(int(1), p("7.7.7.0/24"), None), 0);
    }

    #[test]
    fn drop_peer_reports_affected_prefixes() {
        let mut rib = Rib::new();
        rib.announce(int(1), route("9.9.9.0/24", 0), false);
        rib.announce(int(1), route("8.8.8.0/24", 0), false);
        rib.announce(int(2), route("8.8.8.0/24", 1), false);
        rib.announce(int(2), route("7.7.7.0/24", 1), false);
        let affected = rib.drop_peer(int(1));
        assert_eq!(affected, vec![p("8.8.8.0/24"), p("9.9.9.0/24")]);
        assert_eq!(rib.paths_for(p("8.8.8.0/24")).len(), 1);
        assert!(rib.paths_for(p("9.9.9.0/24")).is_empty());
    }

    #[test]
    fn paths_for_is_per_prefix_in_peer_order() {
        let mut rib = Rib::new();
        rib.announce(int(2), route("8.8.8.0/24", 1), false);
        rib.announce(ext(0), route("8.8.8.0/24", 0), false);
        rib.announce(int(1), route("8.8.8.0/24", 0), false);
        rib.announce(int(2), route("9.9.9.0/24", 1), false);
        let peers: Vec<PeerRef> = rib
            .paths_for(p("8.8.8.0/24"))
            .iter()
            .map(|(pr, _, _)| *pr)
            .collect();
        assert_eq!(peers, vec![int(1), int(2), ext(0)]);
        assert_eq!(rib.paths_for(p("9.9.9.0/24")).len(), 1);
    }

    #[test]
    fn sent_records_are_listed_per_peer_and_dropped_with_it() {
        let mut rib = Rib::new();
        record(&mut rib, int(1), route("9.9.9.0/24", 0));
        record(&mut rib, int(1), route("8.8.8.0/24", 1));
        record(&mut rib, int(1), route("8.8.8.0/24", 0));
        record(&mut rib, int(2), route("9.9.9.0/24", 0));
        let sent: Vec<(Ipv4Prefix, RouterId)> = rib
            .sent_to(int(1))
            .iter()
            .map(|r| (r.prefix, r.originator))
            .collect();
        assert_eq!(
            sent,
            vec![
                (p("8.8.8.0/24"), RouterId(0)),
                (p("8.8.8.0/24"), RouterId(1)),
                (p("9.9.9.0/24"), RouterId(0)),
            ]
        );
        assert_eq!(
            rib.originators(int(1), p("8.8.8.0/24")),
            vec![RouterId(0), RouterId(1)]
        );
        assert!(rib.sent_to(int(3)).is_empty());
        rib.drop_sent_to(int(1));
        assert!(rib.sent_to(int(1)).is_empty());
        assert!(rib.originators(int(1), p("8.8.8.0/24")).is_empty());
        assert_eq!(rib.sent_to(int(2)).len(), 1);
    }
}
