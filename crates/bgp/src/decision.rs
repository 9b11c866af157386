//! The BGP best-path decision process, with vendor variants.
//!
//! The paper (§2) argues that model-based control-plane verifiers miss
//! "differences in BGP path selection rules across vendors", citing the
//! Cisco and Juniper documentation. This module makes those differences
//! explicit and testable: the selection pipeline is shared, and a
//! [`VendorProfile`] switches the vendor-specific steps on and off —
//! Cisco's administrative `weight` (step 0) and oldest-eBGP-route
//! tie-break versus the standard/Juniper lowest-router-id tie-break.

use crate::route::{BgpRoute, PeerRef};
use std::sync::Arc;

/// Which vendor's decision process to emulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum VendorProfile {
    /// RFC 4271 baseline: no weight, tie-break on originator router id
    /// then peer.
    #[default]
    Standard,
    /// Cisco IOS: administrative weight first; prefers the *oldest* eBGP
    /// route before comparing router ids.
    Cisco,
    /// Junos: no weight; router-id tie-break (like standard — the
    /// difference from Cisco is the *absence* of the oldest-route rule and
    /// of weight).
    Juniper,
}

/// One candidate path for a prefix, as seen by the decision process.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The route, after import policy — shared with the Adj-RIB-In when
    /// the policy left it as received.
    pub route: Arc<BgpRoute>,
    /// Which peer it was learned from.
    pub from: PeerRef,
    /// Cisco weight assigned by session config (0 otherwise).
    pub weight: u32,
    /// Arrival sequence number (monotonic per router); lower = older.
    pub seq: u64,
    /// IGP metric to the route's next hop; `None` = unreachable (the
    /// candidate is ineligible). Local eBGP routes have metric 0.
    pub igp_metric: Option<u32>,
    /// Was the route learned over an eBGP session? (External peers
    /// always; internal peers in another AS too.)
    pub ebgp: bool,
}

impl Candidate {
    fn is_ebgp(&self) -> bool {
        self.ebgp
    }
}

/// Runs the decision process; returns the index of the best candidate in
/// `cands`, or `None` if no candidate is eligible (e.g. all next hops
/// unreachable).
///
/// The selection steps, in order (following the Cisco documentation the
/// paper cites, with vendor-specific steps gated):
///
/// 1. highest weight (Cisco only)
/// 2. highest local preference
/// 3. shortest AS path
/// 4. lowest origin (IGP < EGP < Incomplete)
/// 5. lowest MED, compared only among routes from the same neighboring AS
/// 6. eBGP-learned over iBGP-learned
/// 7. lowest IGP metric to the next hop
/// 8. oldest route, if both are eBGP (Cisco only)
/// 9. lowest originator router id
/// 10. lowest peer reference (final deterministic tie-break)
pub fn best_path(vendor: VendorProfile, cands: &[Candidate]) -> Option<usize> {
    // The survivors so far, as indices into `cands` in input order. Held
    // on the stack for any realistic path count; the heap only beyond.
    const INLINE: usize = 32;
    let (mut inline, mut spilled) = ([0usize; INLINE], Vec::new());
    let slots: &mut [usize] = if cands.len() <= INLINE {
        &mut inline
    } else {
        spilled.resize(cands.len(), 0);
        &mut spilled
    };
    let mut alive = Survivors { slots, len: 0 };
    for i in (0..cands.len()).filter(|&i| cands[i].igp_metric.is_some()) {
        alive.slots[alive.len] = i;
        alive.len += 1;
    }

    if vendor == VendorProfile::Cisco {
        alive.keep_max_by(|i| cands[i].weight);
    }
    alive.keep_max_by(|i| cands[i].route.local_pref);
    alive.keep_max_by(|i| std::cmp::Reverse(cands[i].route.as_path.len()));
    alive.keep_max_by(|i| std::cmp::Reverse(cands[i].route.origin));

    // MED: eliminate any candidate beaten by another from the same
    // neighboring AS with a lower MED. Judging each against those kept so
    // far and those not yet judged is judging it against them all: one
    // that beats another is itself beaten only by a still lower MED from
    // the same AS, and the lowest are never removed.
    alive.retain(|i, kept, unjudged| {
        !kept.iter().chain(unjudged).any(|&j| {
            cands[j].route.neighbor_as() == cands[i].route.neighbor_as()
                && cands[j].route.med < cands[i].route.med
        })
    });

    alive.keep_max_by(|i| cands[i].is_ebgp());
    alive.keep_max_by(|i| std::cmp::Reverse(cands[i].igp_metric));

    if vendor == VendorProfile::Cisco && alive.iter().all(|i| cands[i].is_ebgp()) {
        alive.keep_max_by(|i| std::cmp::Reverse(cands[i].seq));
    }

    alive.keep_max_by(|i| std::cmp::Reverse(cands[i].route.originator));
    alive.keep_max_by(|i| std::cmp::Reverse(cands[i].from));

    alive.slots[..alive.len].first().copied()
}

/// The candidates still in the running: `slots[..len]`, in input order.
struct Survivors<'a> {
    slots: &'a mut [usize],
    len: usize,
}

impl Survivors<'_> {
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots[..self.len].iter().copied()
    }

    /// Filters in place. `keep` sees the survivor, those kept before it
    /// and those after it.
    fn retain(&mut self, keep: impl Fn(usize, &[usize], &[usize]) -> bool) {
        let mut kept = 0;
        for at in 0..self.len {
            let i = self.slots[at];
            if keep(i, &self.slots[..kept], &self.slots[at + 1..self.len]) {
                self.slots[kept] = i;
                kept += 1;
            }
        }
        self.len = kept;
    }

    /// Keeps the survivors whose `key` is the maximum. One survivor (or
    /// none) is already decided: no step can remove it.
    fn keep_max_by<K: Ord>(&mut self, key: impl Fn(usize) -> K) {
        if self.len < 2 {
            return;
        }
        let best = self.iter().map(&key).max().expect("two or more survivors");
        self.retain(|i, _, _| key(i) == best);
    }
}

/// A deterministic multipath variant: all candidates that tie with the
/// best through step 7 (used with Add-Path to expose every equally good
/// exit). Returns indices in input order.
pub fn best_paths_multipath(vendor: VendorProfile, cands: &[Candidate]) -> Vec<usize> {
    let Some(best) = best_path(vendor, cands) else {
        return Vec::new();
    };
    let b = &cands[best];
    (0..cands.len())
        .filter(|&i| {
            let c = &cands[i];
            c.igp_metric.is_some()
                && (vendor != VendorProfile::Cisco || c.weight == b.weight)
                && c.route.local_pref == b.route.local_pref
                && c.route.as_path.len() == b.route.as_path.len()
                && c.route.origin == b.route.origin
                && c.route.med == b.route.med
                && c.is_ebgp() == b.is_ebgp()
                && c.igp_metric == b.igp_metric
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{NextHop, Origin};
    use cpvr_topo::ExtPeerId;
    use cpvr_types::{AsNum, Ipv4Prefix, RouterId};
    use std::collections::BTreeSet;

    fn base_route() -> BgpRoute {
        BgpRoute {
            prefix: "8.8.8.0/24".parse::<Ipv4Prefix>().unwrap(),
            next_hop: NextHop::Router(RouterId(0)),
            local_pref: 100,
            as_path: vec![AsNum(100)],
            origin: Origin::Igp,
            med: 0,
            communities: BTreeSet::new(),
            originator: RouterId(0),
        }
    }

    fn cand(route: BgpRoute, from: PeerRef) -> Candidate {
        Candidate {
            route: Arc::new(route),
            from,
            weight: 0,
            seq: 0,
            igp_metric: Some(0),
            ebgp: from.is_external(),
        }
    }

    fn internal(r: u32) -> PeerRef {
        PeerRef::Internal(RouterId(r))
    }

    fn external(p: u32) -> PeerRef {
        PeerRef::External(ExtPeerId(p))
    }

    #[test]
    fn local_pref_dominates() {
        let mut a = cand(base_route(), internal(1));
        Arc::make_mut(&mut a.route).local_pref = 20;
        let mut b = cand(base_route(), internal(2));
        Arc::make_mut(&mut b.route).local_pref = 30;
        Arc::make_mut(&mut b.route).as_path = vec![AsNum(1), AsNum(2), AsNum(3)]; // longer, but LP wins
        assert_eq!(best_path(VendorProfile::Standard, &[a, b]), Some(1));
    }

    #[test]
    fn as_path_length_breaks_lp_tie() {
        let mut a = cand(base_route(), internal(1));
        Arc::make_mut(&mut a.route).as_path = vec![AsNum(1), AsNum(2)];
        let mut b = cand(base_route(), internal(2));
        Arc::make_mut(&mut b.route).as_path = vec![AsNum(3)];
        assert_eq!(best_path(VendorProfile::Standard, &[a, b]), Some(1));
    }

    #[test]
    fn origin_breaks_path_tie() {
        let mut a = cand(base_route(), internal(1));
        Arc::make_mut(&mut a.route).origin = Origin::Incomplete;
        let b = cand(base_route(), internal(2));
        assert_eq!(best_path(VendorProfile::Standard, &[a, b]), Some(1));
    }

    #[test]
    fn med_compared_within_same_neighbor_as_only() {
        // Same neighbor AS: lower MED wins.
        let mut a = cand(base_route(), internal(1));
        Arc::make_mut(&mut a.route).med = 50;
        let mut b = cand(base_route(), internal(2));
        Arc::make_mut(&mut b.route).med = 10;
        assert_eq!(
            best_path(VendorProfile::Standard, &[a.clone(), b.clone()]),
            Some(1)
        );
        // Different neighbor AS: MED ignored; falls to later tie-breaks
        // (lower originator wins).
        Arc::make_mut(&mut a.route).as_path = vec![AsNum(300)];
        Arc::make_mut(&mut a.route).originator = RouterId(0);
        Arc::make_mut(&mut b.route).originator = RouterId(1);
        assert_eq!(best_path(VendorProfile::Standard, &[a, b]), Some(0));
    }

    #[test]
    fn ebgp_beats_ibgp() {
        let a = cand(base_route(), internal(1));
        let b = cand(base_route(), external(0));
        assert_eq!(best_path(VendorProfile::Standard, &[a, b]), Some(1));
    }

    #[test]
    fn igp_metric_breaks_tie() {
        let mut a = cand(base_route(), internal(1));
        a.igp_metric = Some(30);
        let mut b = cand(base_route(), internal(2));
        b.igp_metric = Some(10);
        assert_eq!(best_path(VendorProfile::Standard, &[a, b]), Some(1));
    }

    #[test]
    fn unreachable_next_hop_is_ineligible() {
        let mut a = cand(base_route(), internal(1));
        a.igp_metric = None;
        assert_eq!(best_path(VendorProfile::Standard, &[a.clone()]), None);
        let b = cand(base_route(), internal(2));
        assert_eq!(best_path(VendorProfile::Standard, &[a, b]), Some(1));
    }

    #[test]
    fn cisco_weight_wins_over_everything() {
        let mut a = cand(base_route(), external(0));
        a.weight = 100;
        Arc::make_mut(&mut a.route).local_pref = 10;
        Arc::make_mut(&mut a.route).as_path = vec![AsNum(1); 5];
        let mut b = cand(base_route(), external(1));
        Arc::make_mut(&mut b.route).local_pref = 200;
        // Cisco: weight decides.
        assert_eq!(
            best_path(VendorProfile::Cisco, &[a.clone(), b.clone()]),
            Some(0)
        );
        // Standard ignores weight: local-pref decides.
        assert_eq!(best_path(VendorProfile::Standard, &[a, b]), Some(1));
    }

    #[test]
    fn cisco_prefers_oldest_ebgp_standard_prefers_lowest_id() {
        // Two equal eBGP routes; a arrived later (seq 5) but has the lower
        // originator id; b arrived first (seq 1) with higher id.
        let mut a = cand(base_route(), external(0));
        a.seq = 5;
        Arc::make_mut(&mut a.route).originator = RouterId(0);
        let mut b = cand(base_route(), external(1));
        b.seq = 1;
        Arc::make_mut(&mut b.route).originator = RouterId(1);
        // This is the paper's vendor-divergence scenario: same inputs,
        // different vendor, different selected route.
        assert_eq!(
            best_path(VendorProfile::Cisco, &[a.clone(), b.clone()]),
            Some(1)
        );
        assert_eq!(
            best_path(VendorProfile::Standard, &[a.clone(), b.clone()]),
            Some(0)
        );
        assert_eq!(best_path(VendorProfile::Juniper, &[a, b]), Some(0));
    }

    #[test]
    fn cisco_oldest_rule_skipped_when_ibgp_present() {
        let mut a = cand(base_route(), internal(1));
        a.seq = 5;
        Arc::make_mut(&mut a.route).originator = RouterId(0);
        let mut b = cand(base_route(), internal(2));
        b.seq = 1;
        Arc::make_mut(&mut b.route).originator = RouterId(1);
        // Both iBGP → oldest rule does not apply even on Cisco.
        assert_eq!(best_path(VendorProfile::Cisco, &[a, b]), Some(0));
    }

    #[test]
    fn deterministic_final_tiebreak_on_peer() {
        let a = cand(base_route(), internal(2));
        let b = cand(base_route(), internal(1));
        assert_eq!(best_path(VendorProfile::Standard, &[a, b]), Some(1));
    }

    #[test]
    fn empty_candidates() {
        assert_eq!(best_path(VendorProfile::Standard, &[]), None);
    }

    #[test]
    fn multipath_returns_equal_best_set() {
        let mut a = cand(base_route(), external(0));
        Arc::make_mut(&mut a.route).originator = RouterId(0);
        let mut b = cand(base_route(), external(1));
        Arc::make_mut(&mut b.route).originator = RouterId(1);
        let mut c = cand(base_route(), external(2));
        Arc::make_mut(&mut c.route).local_pref = 10; // worse
        Arc::make_mut(&mut c.route).originator = RouterId(2);
        let mp = best_paths_multipath(VendorProfile::Standard, &[a, b, c]);
        assert_eq!(mp, vec![0, 1]);
    }
}
