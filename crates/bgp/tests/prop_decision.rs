//! Property-based tests of the BGP decision process: the invariants that
//! must hold for *any* candidate set, which unit tests on hand-picked
//! cases cannot guarantee.

use cpvr_bgp::decision::{best_path, best_paths_multipath, Candidate};
use cpvr_bgp::{BgpRoute, NextHop, Origin, PeerRef, VendorProfile};
use cpvr_topo::ExtPeerId;
use cpvr_types::{AsNum, Ipv4Prefix, RouterId};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

fn arb_vendor() -> impl Strategy<Value = VendorProfile> {
    prop_oneof![
        Just(VendorProfile::Standard),
        Just(VendorProfile::Cisco),
        Just(VendorProfile::Juniper),
    ]
}

prop_compose! {
    fn arb_candidate()(
        lp in 0u32..300,
        path_len in 1usize..5,
        origin in 0u8..3,
        med in 0u32..50,
        neighbor_as in 100u32..104,
        originator in 0u32..4,
        ext in any::<bool>(),
        peer in 0u32..4,
        weight in 0u32..3,
        seq in 0u64..100,
        metric in prop::option::of(0u32..100),
    ) -> Candidate {
        let mut as_path = vec![AsNum(neighbor_as)];
        as_path.extend(std::iter::repeat_n(AsNum(999), path_len - 1));
        Candidate {
            ebgp: ext,
            route: Arc::new(BgpRoute {
                prefix: "8.8.8.0/24".parse::<Ipv4Prefix>().unwrap(),
                next_hop: NextHop::Router(RouterId(originator)),
                local_pref: lp,
                as_path,
                origin: match origin {
                    0 => Origin::Igp,
                    1 => Origin::Egp,
                    _ => Origin::Incomplete,
                },
                med,
                communities: BTreeSet::new(),
                originator: RouterId(originator),
            }),
            from: if ext {
                PeerRef::External(ExtPeerId(peer))
            } else {
                PeerRef::Internal(RouterId(peer))
            },
            weight,
            seq,
            igp_metric: metric,
        }
    }
}

/// A content key that identifies a candidate independent of its index.
fn key(c: &Candidate) -> (u32, usize, PeerRef, u64, Option<u32>, RouterId, u32) {
    (
        c.route.local_pref,
        c.route.as_path.len(),
        c.from,
        c.seq,
        c.igp_metric,
        c.route.originator,
        c.weight,
    )
}

/// The decision process as first written — a `Vec` of survivors filtered
/// step by step, the MED step against a copy of the set — kept as the
/// oracle for the allocation-free [`best_path`].
fn reference_best_path(vendor: VendorProfile, cands: &[Candidate]) -> Option<usize> {
    use std::cmp::Reverse;
    fn keep_max_by<K: Ord>(alive: &mut Vec<usize>, key: impl Fn(usize) -> K) {
        if let Some(best) = alive.iter().map(|&i| key(i)).max() {
            alive.retain(|&i| key(i) == best);
        }
    }
    let eligible = (0..cands.len()).filter(|&i| cands[i].igp_metric.is_some());
    let mut alive: Vec<usize> = eligible.collect();
    if vendor == VendorProfile::Cisco {
        keep_max_by(&mut alive, |i| cands[i].weight);
    }
    keep_max_by(&mut alive, |i| cands[i].route.local_pref);
    keep_max_by(&mut alive, |i| Reverse(cands[i].route.as_path.len()));
    keep_max_by(&mut alive, |i| Reverse(cands[i].route.origin));
    let meds = alive.clone();
    alive.retain(|&i| {
        !meds.iter().any(|&j| {
            cands[j].route.neighbor_as() == cands[i].route.neighbor_as()
                && cands[j].route.med < cands[i].route.med
        })
    });
    keep_max_by(&mut alive, |i| cands[i].ebgp);
    keep_max_by(&mut alive, |i| Reverse(cands[i].igp_metric));
    if vendor == VendorProfile::Cisco && alive.iter().all(|&i| cands[i].ebgp) {
        keep_max_by(&mut alive, |i| Reverse(cands[i].seq));
    }
    keep_max_by(&mut alive, |i| Reverse(cands[i].route.originator));
    keep_max_by(&mut alive, |i| Reverse(cands[i].from));
    alive.first().copied()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn agrees_with_the_reference_process(vendor in arb_vendor(), cands in prop::collection::vec(arb_candidate(), 0..48)) {
        // Up to 48 paths: past the 32 the survivors hold on the stack.
        prop_assert_eq!(best_path(vendor, &cands), reference_best_path(vendor, &cands));
    }

    #[test]
    fn winner_is_always_eligible(vendor in arb_vendor(), cands in prop::collection::vec(arb_candidate(), 0..8)) {
        match best_path(vendor, &cands) {
            Some(i) => {
                prop_assert!(i < cands.len());
                prop_assert!(cands[i].igp_metric.is_some(), "winner must have a reachable next hop");
            }
            None => {
                prop_assert!(cands.iter().all(|c| c.igp_metric.is_none()),
                    "None only when no candidate is eligible");
            }
        }
    }

    #[test]
    fn selection_is_order_independent(vendor in arb_vendor(), cands in prop::collection::vec(arb_candidate(), 1..8), rot in 0usize..8) {
        // The decision must depend on candidate *content*, never on input
        // order (arrival order is captured in `seq`, a content field).
        let a = best_path(vendor, &cands).map(|i| key(&cands[i]));
        let mut rotated = cands.clone();
        rotated.rotate_left(rot % cands.len());
        let b = best_path(vendor, &rotated).map(|i| key(&rotated[i]));
        prop_assert_eq!(a, b);
    }

    #[test]
    fn winner_maximizes_local_pref_after_weight(vendor in arb_vendor(), cands in prop::collection::vec(arb_candidate(), 1..8)) {
        if let Some(i) = best_path(vendor, &cands) {
            let eligible: Vec<&Candidate> = cands.iter().filter(|c| c.igp_metric.is_some()).collect();
            let stage: Vec<&&Candidate> = if vendor == VendorProfile::Cisco {
                let wmax = eligible.iter().map(|c| c.weight).max().unwrap();
                eligible.iter().filter(|c| c.weight == wmax).collect()
            } else {
                eligible.iter().collect()
            };
            let lp_max = stage.iter().map(|c| c.route.local_pref).max().unwrap();
            prop_assert_eq!(cands[i].route.local_pref, lp_max,
                "winner must carry the maximal local-pref of its weight class");
        }
    }

    #[test]
    fn ebgp_preferred_when_tied_through_med(cands in prop::collection::vec(arb_candidate(), 1..8)) {
        // Normalize the attributes that precede the eBGP step so the rule
        // is actually decisive, then check it.
        let mut cands = cands;
        for c in &mut cands {
            let route = Arc::make_mut(&mut c.route);
            route.local_pref = 100;
            route.as_path = vec![AsNum(100)];
            route.origin = Origin::Igp;
            route.med = 0;
            c.weight = 0;
        }
        if let Some(i) = best_path(VendorProfile::Standard, &cands) {
            let any_ebgp = cands.iter().any(|c| c.igp_metric.is_some() && c.from.is_external());
            if any_ebgp {
                prop_assert!(cands[i].from.is_external());
            }
        }
    }

    #[test]
    fn multipath_contains_the_best(vendor in arb_vendor(), cands in prop::collection::vec(arb_candidate(), 0..8)) {
        let best = best_path(vendor, &cands);
        let mp = best_paths_multipath(vendor, &cands);
        match best {
            Some(i) => prop_assert!(mp.contains(&i)),
            None => prop_assert!(mp.is_empty()),
        }
    }

    #[test]
    fn juniper_equals_standard(cands in prop::collection::vec(arb_candidate(), 0..8)) {
        // Our Juniper profile differs from Cisco (no weight, no oldest
        // rule) but matches the standard baseline.
        prop_assert_eq!(
            best_path(VendorProfile::Standard, &cands),
            best_path(VendorProfile::Juniper, &cands)
        );
    }

    #[test]
    fn removing_a_loser_never_changes_the_winner(vendor in arb_vendor(), cands in prop::collection::vec(arb_candidate(), 2..8), victim in 0usize..8) {
        // Independence of irrelevant alternatives for the non-MED steps:
        // only test when all candidates share a neighbor AS (so the MED
        // elimination is total and IIA holds).
        let mut cands = cands;
        for c in &mut cands {
            Arc::make_mut(&mut c.route).as_path[0] = AsNum(100);
        }
        if let Some(i) = best_path(vendor, &cands) {
            let victim = victim % cands.len();
            if victim != i {
                let winner_key = key(&cands[i]);
                let mut reduced = cands.clone();
                reduced.remove(victim);
                let j = best_path(vendor, &reduced);
                prop_assert_eq!(j.map(|j| key(&reduced[j])), Some(winner_key));
            }
        }
    }
}
