//! Property-based tests: a FIB is an exact-match table that answers
//! longest-prefix match by probing each stored length, so it must behave
//! exactly like an ordered [`PrefixTrie`] holding the same entries —
//! whatever lengths are mixed, the default and host routes included.

use cpvr_dataplane::{DataPlane, FibAction, FibEntry};
use cpvr_topo::{ExtPeerId, LinkId};
use cpvr_types::{Ipv4Prefix, PrefixTrie, RouterId, SimTime};
use proptest::prelude::*;
use std::net::Ipv4Addr;

const ROUTERS: u32 = 3;

/// A prefix of any length /0–/32. Most draw their bits from a few
/// positions only, so prefixes nest at every depth and removes hit
/// installed entries; a tenth are the default route or a host route.
fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (any::<u32>(), 0u8..10, 0u8..=32).prop_map(|(bits, shape, len)| match shape {
        0 => Ipv4Prefix::DEFAULT,
        1 => Ipv4Prefix::from_bits(bits & 0xc030_0c03, 32),
        2..=6 => Ipv4Prefix::from_bits(bits & 0xc030_0c03, len),
        _ => Ipv4Prefix::from_bits(bits, len),
    })
}

fn arb_entry() -> impl Strategy<Value = FibEntry> {
    (0u8..4, 0u32..8, any::<u64>()).prop_map(|(kind, id, at)| FibEntry {
        action: match kind {
            0 => FibAction::Forward(LinkId(id)),
            1 => FibAction::Exit(ExtPeerId(id)),
            2 => FibAction::Local,
            _ => FibAction::Drop,
        },
        installed_at: SimTime::from_nanos(at),
    })
}

#[derive(Debug, Clone)]
enum Op {
    /// Install or replace.
    Install(u32, Ipv4Prefix, FibEntry),
    Remove(u32, Ipv4Prefix),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..ROUTERS, arb_prefix(), arb_entry()).prop_map(|(r, p, e)| Op::Install(r, p, e)),
        (0..ROUTERS, arb_prefix(), arb_entry()).prop_map(|(r, p, e)| Op::Install(r, p, e)),
        (0..ROUTERS, arb_prefix()).prop_map(|(r, p)| Op::Remove(r, p)),
    ]
}

/// The per-prefix counting loop `prefix_union` replaced: insert each
/// router's prefixes one at a time, bumping the count of those present.
fn counted_union(models: &[PrefixTrie<FibEntry>]) -> Vec<(Ipv4Prefix, usize)> {
    let mut t: PrefixTrie<usize> = PrefixTrie::new();
    for m in models {
        for p in m.prefixes() {
            match t.get_mut(&p) {
                Some(c) => *c += 1,
                None => {
                    t.insert(p, 1);
                }
            }
        }
    }
    t.iter().map(|(p, c)| (p, *c)).collect()
}

fn assert_matches_model(dp: &DataPlane, models: &[PrefixTrie<FibEntry>], probes: &[u32]) {
    for (r, model) in models.iter().enumerate() {
        let fib = dp.fib(RouterId(r as u32));
        prop_assert_eq!(fib.len(), model.len());
        prop_assert_eq!(fib.is_empty(), model.is_empty());

        let entries = fib.entries();
        let want: Vec<(Ipv4Prefix, FibEntry)> = model.iter().map(|(p, e)| (p, *e)).collect();
        prop_assert_eq!(&entries, &want);
        prop_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        let prefixes = fib.prefixes();
        prop_assert_eq!(prefixes, model.prefixes().collect::<Vec<_>>());

        // Each stored prefix's edges: the first and last address are the
        // ones a length probe gets wrong if it masks off a bit too many
        // or too few.
        let edges = model
            .prefixes()
            .flat_map(|p| [p.first_addr(), p.last_addr()]);
        let random = probes.iter().map(|b| Ipv4Addr::from(*b));
        for addr in edges.chain(random) {
            let got = fib.lookup(addr);
            let want = model.longest_match(addr).map(|(p, e)| (p, *e));
            prop_assert_eq!(got, want, "lookup {} at R{}", addr, r);
        }
        for (p, e) in model.iter() {
            prop_assert_eq!(fib.get(&p), Some(e));
        }
    }

    let union = dp.prefix_union();
    let got: Vec<(Ipv4Prefix, usize)> = union.iter().map(|(p, c)| (p, *c)).collect();
    let want = counted_union(models);
    prop_assert_eq!(&got, &want);
    let all: Vec<Ipv4Prefix> = want.iter().map(|(p, _)| *p).collect();
    prop_assert_eq!(dp.all_prefixes(), all);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fib_matches_trie_model(
        ops in prop::collection::vec(arb_op(), 1..160),
        probes in prop::collection::vec(any::<u32>(), 16),
    ) {
        let mut dp = DataPlane::new(ROUTERS as usize);
        let mut models: Vec<PrefixTrie<FibEntry>> =
            (0..ROUTERS).map(|_| PrefixTrie::new()).collect();
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Install(r, p, e) => {
                    let got = dp.fib_mut(RouterId(r)).install(p, e);
                    prop_assert_eq!(got, models[r as usize].insert(p, e));
                }
                Op::Remove(r, p) => {
                    let got = dp.fib_mut(RouterId(r)).remove(&p);
                    prop_assert_eq!(got, models[r as usize].remove(&p));
                    prop_assert_eq!(dp.fib(RouterId(r)).get(&p), None);
                }
            }
            if i % 16 == 15 {
                assert_matches_model(&dp, &models, &probes);
            }
        }
        assert_matches_model(&dp, &models, &probes);
    }
}
