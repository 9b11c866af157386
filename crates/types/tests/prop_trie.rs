//! Property-based tests: the prefix table must behave exactly like a
//! model that answers every query by scanning all stored entries.

use cpvr_types::{Ipv4Prefix, PrefixTrie};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Strategy producing an arbitrary prefix; half of them draw their bits
/// from a few positions only, so that long masks nest too and containment
/// relationships actually occur at every depth.
fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (any::<u32>(), any::<bool>(), 0u8..=32).prop_map(|(bits, dense, len)| {
        let bits = if dense { bits & 0xc030_0c03 } else { bits };
        Ipv4Prefix::from_bits(bits, len)
    })
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Ipv4Prefix, u32),
    Remove(Ipv4Prefix),
    Lookup(u32),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_prefix(), any::<u32>()).prop_map(|(p, v)| Op::Insert(p, v)),
        arb_prefix().prop_map(Op::Remove),
        any::<u32>().prop_map(Op::Lookup),
    ]
}

/// Model LPM: scan all entries, keep the longest containing prefix.
fn model_lpm(model: &BTreeMap<Ipv4Prefix, u32>, addr: Ipv4Addr) -> Option<(Ipv4Prefix, u32)> {
    model
        .iter()
        .filter(|(p, _)| p.contains_addr(addr))
        .max_by_key(|(p, _)| p.len())
        .map(|(p, v)| (*p, *v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn trie_matches_model(ops in prop::collection::vec(arb_op(), 1..200)) {
        let mut trie = PrefixTrie::new();
        let mut model: BTreeMap<Ipv4Prefix, u32> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(p, v) => {
                    prop_assert_eq!(trie.insert(p, v), model.insert(p, v));
                }
                Op::Remove(p) => {
                    prop_assert_eq!(trie.remove(&p), model.remove(&p));
                }
                Op::Lookup(bits) => {
                    let addr = Ipv4Addr::from(bits);
                    let got = trie.longest_match(addr).map(|(p, v)| (p, *v));
                    prop_assert_eq!(got, model_lpm(&model, addr));
                }
            }
            prop_assert_eq!(trie.len(), model.len());
        }
    }

    #[test]
    fn iter_matches_sorted_model(entries in prop::collection::btree_map(arb_prefix(), any::<u32>(), 0..64)) {
        let trie: PrefixTrie<u32> = entries.iter().map(|(p, v)| (*p, *v)).collect();
        let got: Vec<(Ipv4Prefix, u32)> = trie.iter().map(|(p, v)| (p, *v)).collect();
        // Iteration order is the sorted `(bits, len)` order — spelled out,
        // not borrowed from `Ipv4Prefix: Ord`, which the table relies on.
        let mut want: Vec<(Ipv4Prefix, u32)> = entries.into_iter().collect();
        want.sort_by_key(|(p, _)| (p.bits(), p.len()));
        prop_assert_eq!(&got, &want);
        let keys: Vec<Ipv4Prefix> = trie.prefixes().collect();
        prop_assert_eq!(keys, want.iter().map(|(p, _)| *p).collect::<Vec<_>>());
    }

    #[test]
    fn covered_by_is_the_stored_subtree(
        entries in prop::collection::btree_map(arb_prefix(), any::<u32>(), 0..64),
        root in arb_prefix(),
    ) {
        let trie: PrefixTrie<u32> = entries.iter().map(|(p, v)| (*p, *v)).collect();
        // `root` is usually not stored; sometimes make it so.
        let roots = [Some(root), entries.keys().next().copied()];
        for root in roots.into_iter().flatten() {
            let got: Vec<(Ipv4Prefix, u32)> = trie.covered_by(&root).map(|(p, v)| (p, *v)).collect();
            let want: Vec<(Ipv4Prefix, u32)> = entries
                .iter()
                .filter(|(q, _)| root.covers(q))
                .map(|(q, v)| (*q, *v))
                .collect();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn matches_agrees_with_lpm(entries in prop::collection::btree_map(arb_prefix(), any::<u32>(), 1..64), bits in any::<u32>()) {
        let trie: PrefixTrie<u32> = entries.iter().map(|(p, v)| (*p, *v)).collect();
        let addr = Ipv4Addr::from(bits);
        let all = trie.matches(addr);
        // Every stored prefix containing the address is reported, in
        // increasing specificity, and the last one is the LPM result.
        let want: Vec<Ipv4Prefix> = entries.keys().filter(|p| p.contains_addr(addr)).copied().collect();
        prop_assert_eq!(all.iter().map(|(p, _)| *p).collect::<Vec<_>>(), want);
        for w in all.windows(2) {
            prop_assert!(w[0].0.len() < w[1].0.len());
        }
        for (p, _) in &all {
            prop_assert!(p.contains_addr(addr));
        }
        prop_assert_eq!(
            all.last().map(|(p, v)| (*p, **v)),
            trie.longest_match(addr).map(|(p, v)| (p, *v))
        );
    }

    #[test]
    fn children_of_are_maximal_proper_descendants(
        entries in prop::collection::btree_map(arb_prefix(), any::<u32>(), 0..64),
        root in arb_prefix(),
    ) {
        let trie: PrefixTrie<u32> = entries.iter().map(|(p, v)| (*p, *v)).collect();
        // A random root is almost never stored; its stored ancestors and
        // the default route (whose last child may end the address space)
        // are the roots the verifier actually asks about.
        let mut roots = vec![root, Ipv4Prefix::DEFAULT];
        roots.extend(entries.keys().next().and_then(|q| q.parent()));
        roots.extend(entries.keys().next_back());
        for root in roots {
            let kids: Vec<Ipv4Prefix> = trie.children_of(&root).map(|(p, _)| p).collect();
            // Model: stored q strictly under root with no stored r
            // strictly between root and q.
            let model: Vec<Ipv4Prefix> = entries
                .keys()
                .filter(|q| root.covers(q) && **q != root)
                .filter(|q| {
                    !entries
                        .keys()
                        .any(|r| *r != root && r != *q && root.covers(r) && r.covers(q))
                })
                .copied()
                .collect();
            prop_assert_eq!(&kids, &model);
            // Maximal children are pairwise disjoint and ascend by range.
            for w in kids.windows(2) {
                prop_assert!(!w[0].overlaps(&w[1]));
                prop_assert!(w[0].last_addr() < w[1].first_addr());
            }
        }
    }

    #[test]
    fn covers_is_consistent_with_contains(p1 in arb_prefix(), p2 in arb_prefix()) {
        // If p1 covers p2, then p1 contains both endpoints of p2.
        if p1.covers(&p2) {
            prop_assert!(p1.contains_addr(p2.first_addr()));
            prop_assert!(p1.contains_addr(p2.last_addr()));
        }
        // covers is a partial order: reflexive + antisymmetric.
        prop_assert!(p1.covers(&p1));
        if p1.covers(&p2) && p2.covers(&p1) {
            prop_assert_eq!(p1, p2);
        }
    }

    #[test]
    fn parent_covers_child(p in arb_prefix()) {
        if let Some(parent) = p.parent() {
            prop_assert!(parent.covers(&p));
        }
        if let Some((l, r)) = p.children() {
            prop_assert!(p.covers(&l));
            prop_assert!(p.covers(&r));
            prop_assert!(!l.overlaps(&r));
        }
    }
}
