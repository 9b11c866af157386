//! A prefix-keyed ordered map with longest-prefix-match lookup.
//!
//! This is the ordered structure behind the verifier's installed-prefix
//! union and its equivalence-class slicing, where order is the point (a
//! FIB, which never reads order, is an exact-match hash table instead).
//! [`Ipv4Prefix`] orders by `(network, length)`, which is exactly a
//! binary trie's depth-first order: a prefix sorts immediately before
//! everything it covers, and the addresses it covers form one contiguous
//! key range. So the table is a
//! `BTreeMap<Ipv4Prefix, V>` — a subtree is a range scan, the maximal
//! descendants are "first key in the range, skip past what it covers,
//! repeat", and longest-prefix-match is a predecessor walk — and costs
//! what it stores: one key and one value per prefix, no path nodes.

use crate::prefix::Ipv4Prefix;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::ops::Bound::{Excluded, Included};

/// A map from [`Ipv4Prefix`] to `V` supporting longest-prefix-match.
///
/// ```
/// use cpvr_types::{Ipv4Prefix, PrefixTrie};
///
/// let mut t = PrefixTrie::new();
/// t.insert("10.0.0.0/8".parse().unwrap(), "coarse");
/// t.insert("10.1.0.0/16".parse().unwrap(), "fine");
/// let (p, v) = t.longest_match("10.1.2.3".parse().unwrap()).unwrap();
/// assert_eq!(*v, "fine");
/// assert_eq!(p.to_string(), "10.1.0.0/16");
/// ```
#[derive(Clone, Debug)]
pub struct PrefixTrie<V> {
    map: BTreeMap<Ipv4Prefix, V>,
}

impl<V> Default for PrefixTrie<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> PrefixTrie<V> {
    /// Creates an empty table.
    pub fn new() -> Self {
        PrefixTrie {
            map: BTreeMap::new(),
        }
    }

    /// The number of prefixes stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Inserts `value` at `prefix`, returning the previous value if any.
    pub fn insert(&mut self, prefix: Ipv4Prefix, value: V) -> Option<V> {
        self.map.insert(prefix, value)
    }

    /// Returns the value stored exactly at `prefix`.
    pub fn get(&self, prefix: &Ipv4Prefix) -> Option<&V> {
        self.map.get(prefix)
    }

    /// Returns a mutable reference to the value stored exactly at `prefix`.
    pub fn get_mut(&mut self, prefix: &Ipv4Prefix) -> Option<&mut V> {
        self.map.get_mut(prefix)
    }

    /// Removes and returns the value at `prefix`.
    pub fn remove(&mut self, prefix: &Ipv4Prefix) -> Option<V> {
        self.map.remove(prefix)
    }

    /// The most specific entry containing `addr` among those of length
    /// at most `max_len`.
    ///
    /// Every such entry sorts at or before `probe`, the would-be entry
    /// of length `max_len`, and a longer one sorts after a shorter one,
    /// so if `probe`'s predecessor contains `addr` it is the answer. If
    /// it does not, it parts from `addr` at some bit `d < max_len` where
    /// it has a 0 and `addr` a 1 — an entry containing `addr` and longer
    /// than `d` would have that 1 and sort after it — so the search
    /// resumes at length `d`: at most 33 rounds, one or two in practice.
    fn match_up_to(&self, addr: Ipv4Addr, max_len: u8) -> Option<(Ipv4Prefix, &V)> {
        let mut probe = Ipv4Prefix::new(addr, max_len);
        loop {
            let (hit, v) = self.map.range(..=probe).next_back()?;
            if hit.contains_addr(addr) {
                return Some((*hit, v));
            }
            let parted = (hit.bits() ^ u32::from(addr)).leading_zeros();
            probe = Ipv4Prefix::new(addr, parted as u8);
        }
    }

    /// Longest-prefix-match: the most specific entry containing `addr`.
    pub fn longest_match(&self, addr: Ipv4Addr) -> Option<(Ipv4Prefix, &V)> {
        self.match_up_to(addr, 32)
    }

    /// All entries whose prefix contains `addr`, least specific first.
    pub fn matches(&self, addr: Ipv4Addr) -> Vec<(Ipv4Prefix, &V)> {
        let mut out = Vec::new();
        let mut max_len = Some(32);
        while let Some(hit) = max_len.and_then(|l| self.match_up_to(addr, l)) {
            max_len = hit.0.len().checked_sub(1);
            out.push(hit);
        }
        out.reverse();
        out
    }

    /// The *maximal* stored proper descendants of `prefix`: every stored
    /// prefix strictly covered by `prefix` that has no stored ancestor
    /// strictly between itself and `prefix`. Their address ranges are
    /// pairwise disjoint and yielded in ascending order, which is
    /// exactly what equivalence-class slicing needs to find the space a
    /// prefix owns itself. `prefix` itself need not be stored.
    ///
    /// Each step is one ordered lookup — the first key after everything
    /// the previous child covers — so a child's own subtree is never
    /// visited, and a caller that stops early pays only for what it took.
    ///
    /// ```
    /// use cpvr_types::{Ipv4Prefix, PrefixTrie};
    ///
    /// let mut t = PrefixTrie::new();
    /// for s in ["10.0.0.0/8", "10.0.0.0/16", "10.0.1.0/24", "10.128.0.0/9"] {
    ///     t.insert(s.parse::<Ipv4Prefix>().unwrap(), s);
    /// }
    /// let kids: Vec<String> = t
    ///     .children_of(&"10.0.0.0/8".parse().unwrap())
    ///     .map(|(p, _)| p.to_string())
    ///     .collect();
    /// // The /24 is hidden behind the /16; the /8 itself is excluded.
    /// assert_eq!(kids, vec!["10.0.0.0/16", "10.128.0.0/9"]);
    /// ```
    pub fn children_of(&self, prefix: &Ipv4Prefix) -> impl Iterator<Item = (Ipv4Prefix, &V)> {
        // A prefix's subtree ends at the host route of its last address,
        // so "past everything `p` covers" is a bound, not `last + 1`.
        let end = Ipv4Prefix::host(prefix.last_addr());
        let mut after = *prefix;
        std::iter::from_fn(move || {
            let (p, v) = self.map.range((Excluded(after), Included(end))).next()?;
            after = Ipv4Prefix::host(p.last_addr());
            Some((*p, v))
        })
    }

    /// All stored entries covered by `root` (including `root` itself),
    /// in depth-first prefix order.
    pub fn covered_by(&self, root: &Ipv4Prefix) -> impl Iterator<Item = (Ipv4Prefix, &V)> {
        let end = Ipv4Prefix::host(root.last_addr());
        self.map.range(*root..=end).map(|(p, v)| (*p, v))
    }

    /// Every entry in depth-first prefix order.
    pub fn iter(&self) -> impl Iterator<Item = (Ipv4Prefix, &V)> {
        self.map.iter().map(|(p, v)| (*p, v))
    }

    /// All stored prefixes in depth-first prefix order.
    pub fn prefixes(&self) -> impl Iterator<Item = Ipv4Prefix> + '_ {
        self.map.keys().copied()
    }
}

impl<V> FromIterator<(Ipv4Prefix, V)> for PrefixTrie<V> {
    fn from_iter<T: IntoIterator<Item = (Ipv4Prefix, V)>>(iter: T) -> Self {
        PrefixTrie {
            map: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn a(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn kids(t: &PrefixTrie<()>, root: &str) -> Vec<Ipv4Prefix> {
        t.children_of(&p(root)).map(|(c, _)| c).collect()
    }

    #[test]
    fn insert_get_remove() {
        let mut t = PrefixTrie::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&2));
        assert_eq!(t.remove(&p("10.0.0.0/8")), Some(2));
        assert!(t.is_empty());
        assert_eq!(t.remove(&p("10.0.0.0/8")), None);
    }

    #[test]
    fn lpm_picks_most_specific() {
        let mut t = PrefixTrie::new();
        t.insert(p("0.0.0.0/0"), "default");
        t.insert(p("10.0.0.0/8"), "eight");
        t.insert(p("10.1.0.0/16"), "sixteen");
        let (pre, v) = t.longest_match(a("10.1.2.3")).unwrap();
        assert_eq!(*v, "sixteen");
        assert_eq!(pre, p("10.1.0.0/16"));
        let (pre, v) = t.longest_match(a("10.9.0.1")).unwrap();
        assert_eq!(*v, "eight");
        assert_eq!(pre, p("10.0.0.0/8"));
        let (pre, v) = t.longest_match(a("192.0.2.1")).unwrap();
        assert_eq!(*v, "default");
        assert_eq!(pre, Ipv4Prefix::DEFAULT);
    }

    #[test]
    fn lpm_miss_without_default() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), ());
        assert!(t.longest_match(a("11.0.0.1")).is_none());
    }

    #[test]
    fn matches_orders_least_specific_first() {
        let mut t = PrefixTrie::new();
        t.insert(p("0.0.0.0/0"), 0);
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.1.0.0/16"), 16);
        t.insert(p("10.2.0.0/16"), 99);
        let m: Vec<u8> = t
            .matches(a("10.1.2.3"))
            .into_iter()
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(m, vec![0, 8, 16]);
    }

    #[test]
    fn remove_prunes_but_keeps_siblings() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/9"), 'l');
        t.insert(p("10.128.0.0/9"), 'r');
        assert_eq!(t.remove(&p("10.0.0.0/9")), Some('l'));
        assert_eq!(t.get(&p("10.128.0.0/9")), Some(&'r'));
        assert_eq!(t.longest_match(a("10.200.0.1")).map(|(_, v)| *v), Some('r'));
    }

    #[test]
    fn remove_keeps_ancestor_values() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.1.0.0/16"), 16);
        t.remove(&p("10.1.0.0/16"));
        assert_eq!(t.longest_match(a("10.1.2.3")).map(|(_, v)| *v), Some(8));
    }

    #[test]
    fn iter_is_prefix_ordered() {
        let mut t = PrefixTrie::new();
        for s in ["10.128.0.0/9", "10.0.0.0/8", "0.0.0.0/0", "10.0.0.0/9"] {
            t.insert(p(s), s.to_string());
        }
        let order: Vec<Ipv4Prefix> = t.prefixes().collect();
        assert_eq!(
            order,
            vec![
                p("0.0.0.0/0"),
                p("10.0.0.0/8"),
                p("10.0.0.0/9"),
                p("10.128.0.0/9")
            ]
        );
    }

    #[test]
    fn covered_by_scopes_subtree() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), 1);
        t.insert(p("10.1.0.0/16"), 2);
        t.insert(p("11.0.0.0/8"), 3);
        let sub: Vec<i32> = t.covered_by(&p("10.0.0.0/8")).map(|(_, v)| *v).collect();
        assert_eq!(sub, vec![1, 2]);
        assert_eq!(t.covered_by(&p("12.0.0.0/8")).count(), 0);
        // A root that is not stored still scopes its subtree, and a
        // stored ancestor with the same network address stays outside.
        let sub: Vec<i32> = t.covered_by(&p("10.0.0.0/9")).map(|(_, v)| *v).collect();
        assert_eq!(sub, vec![2]);
    }

    #[test]
    fn default_route_value_at_root() {
        let mut t = PrefixTrie::new();
        t.insert(Ipv4Prefix::DEFAULT, 42);
        assert_eq!(t.get(&Ipv4Prefix::DEFAULT), Some(&42));
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(&Ipv4Prefix::DEFAULT), Some(42));
        assert!(t.is_empty());
    }

    #[test]
    fn children_of_returns_maximal_descendants() {
        let mut t = PrefixTrie::new();
        for s in [
            "10.0.0.0/8",
            "10.0.0.0/16",
            "10.0.0.0/24",
            "10.64.0.0/16",
            "10.128.0.0/9",
            "11.0.0.0/8",
        ] {
            t.insert(p(s), ());
        }
        // The /24 is shadowed by the /16; 11/8 is outside; ranges ascend.
        assert_eq!(
            kids(&t, "10.0.0.0/8"),
            vec![p("10.0.0.0/16"), p("10.64.0.0/16"), p("10.128.0.0/9")]
        );
        // A prefix with nothing stored below it has no children.
        assert!(kids(&t, "12.0.0.0/8").is_empty());
        assert!(kids(&t, "10.0.0.0/24").is_empty());
        // Children of a prefix that is not stored itself still work.
        assert_eq!(kids(&t, "10.0.0.0/12"), vec![p("10.0.0.0/16")]);
    }

    /// Skipping past a child that ends at 255.255.255.255 must end the
    /// scan, not wrap around to 0.0.0.0.
    #[test]
    fn children_of_at_the_top_of_the_address_space() {
        let mut t = PrefixTrie::new();
        for s in ["0.0.0.0/0", "128.0.0.0/1", "255.255.255.255/32"] {
            t.insert(p(s), ());
        }
        assert_eq!(kids(&t, "0.0.0.0/0"), vec![p("128.0.0.0/1")]);
        assert_eq!(kids(&t, "128.0.0.0/1"), vec![p("255.255.255.255/32")]);
        assert!(kids(&t, "255.255.255.255/32").is_empty());
        t.remove(&p("128.0.0.0/1"));
        assert_eq!(kids(&t, "0.0.0.0/0"), vec![p("255.255.255.255/32")]);
        let all: Vec<Ipv4Prefix> = t.covered_by(&Ipv4Prefix::DEFAULT).map(|(c, _)| c).collect();
        assert_eq!(all, vec![p("0.0.0.0/0"), p("255.255.255.255/32")]);
    }

    /// The address's predecessor in key order is a more-specific sibling
    /// that does not contain it, so the probe has to shorten — twice
    /// here — before it lands on the covering entry.
    #[test]
    fn lpm_walks_back_past_more_specific_siblings() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.1.0.0/16"), 16);
        t.insert(p("10.1.2.0/24"), 24);
        t.insert(p("10.1.2.4/30"), 30);
        let lpm = |s: &str| t.longest_match(a(s)).map(|(pre, v)| (pre, *v));
        // Predecessor of 10.1.3.9 is the /30, then the /24; the /16 holds it.
        assert_eq!(lpm("10.1.3.9"), Some((p("10.1.0.0/16"), 16)));
        // Predecessor of 10.2.0.1 is the /30 again; only the /8 holds it.
        assert_eq!(lpm("10.2.0.1"), Some((p("10.0.0.0/8"), 8)));
        assert_eq!(lpm("10.1.2.9"), Some((p("10.1.2.0/24"), 24)));
        assert_eq!(lpm("10.1.2.5"), Some((p("10.1.2.4/30"), 30)));
        // Every predecessor parts from the address; nothing holds it.
        assert_eq!(lpm("11.0.0.1"), None);
        assert_eq!(lpm("9.255.255.255"), None);
        let all: Vec<i32> = t.matches(a("10.1.2.5")).into_iter().map(|m| *m.1).collect();
        assert_eq!(all, vec![8, 16, 24, 30]);
    }

    #[test]
    fn from_iterator() {
        let t: PrefixTrie<i32> = vec![(p("10.0.0.0/8"), 1), (p("11.0.0.0/8"), 2)]
            .into_iter()
            .collect();
        assert_eq!(t.len(), 2);
    }
}
