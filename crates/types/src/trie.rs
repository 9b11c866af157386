//! A binary prefix trie with longest-prefix-match lookup.
//!
//! This is the workhorse structure for RIBs, FIBs, and the verifier's
//! equivalence-class slicing. It is a plain (non-compressed) binary trie
//! over prefix bits, arena-allocated for cache friendliness and so removal
//! never invalidates other nodes' indices. Simplicity over cleverness, per
//! the workspace guides: no path compression, no unsafe.

use crate::prefix::Ipv4Prefix;
use std::net::Ipv4Addr;

const NO_NODE: u32 = u32::MAX;

#[derive(Clone, Debug)]
struct Node<V> {
    children: [u32; 2],
    value: Option<V>,
}

impl<V> Node<V> {
    fn new() -> Self {
        Node {
            children: [NO_NODE, NO_NODE],
            value: None,
        }
    }
}

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
    nodes: Vec<Node<V>>,
    free: Vec<u32>,
    len: usize,
}

impl<V> Default for PrefixTrie<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> PrefixTrie<V> {
    /// Creates an empty trie.
    pub fn new() -> Self {
        PrefixTrie {
            nodes: vec![Node::new()],
            free: Vec::new(),
            len: 0,
        }
    }

    /// The number of prefixes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.nodes.push(Node::new());
        self.free.clear();
        self.len = 0;
    }

    fn alloc(&mut self) -> u32 {
        if let Some(i) = self.free.pop() {
            self.nodes[i as usize] = Node::new();
            i
        } else {
            self.nodes.push(Node::new());
            (self.nodes.len() - 1) as u32
        }
    }

    /// Inserts `value` at `prefix`, returning the previous value if any.
    pub fn insert(&mut self, prefix: Ipv4Prefix, value: V) -> Option<V> {
        let mut node = 0u32;
        for i in 0..prefix.len() {
            let b = prefix.bit(i) as usize;
            let child = self.nodes[node as usize].children[b];
            node = if child == NO_NODE {
                let new = self.alloc();
                self.nodes[node as usize].children[b] = new;
                new
            } else {
                child
            };
        }
        let old = self.nodes[node as usize].value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Walks to the node for `prefix`, returning its index if the path
    /// exists.
    fn find_node(&self, prefix: &Ipv4Prefix) -> Option<u32> {
        let mut node = 0u32;
        for i in 0..prefix.len() {
            let b = prefix.bit(i) as usize;
            let child = self.nodes[node as usize].children[b];
            if child == NO_NODE {
                return None;
            }
            node = child;
        }
        Some(node)
    }

    /// Returns the value stored exactly at `prefix`.
    pub fn get(&self, prefix: &Ipv4Prefix) -> Option<&V> {
        self.find_node(prefix)
            .and_then(|n| self.nodes[n as usize].value.as_ref())
    }

    /// Returns a mutable reference to the value stored exactly at `prefix`.
    pub fn get_mut(&mut self, prefix: &Ipv4Prefix) -> Option<&mut V> {
        self.find_node(prefix)
            .and_then(|n| self.nodes[n as usize].value.as_mut())
    }

    /// True if a value is stored exactly at `prefix`.
    pub fn contains(&self, prefix: &Ipv4Prefix) -> bool {
        self.get(prefix).is_some()
    }

    /// Removes and returns the value at `prefix`, pruning now-empty nodes.
    pub fn remove(&mut self, prefix: &Ipv4Prefix) -> Option<V> {
        // Record the path (root plus at most 32 bits, on the stack) so
        // empty leaves can be pruned afterwards.
        let mut path = [0u32; 33];
        let mut node = 0u32;
        for i in 0..prefix.len() {
            let b = prefix.bit(i) as usize;
            let child = self.nodes[node as usize].children[b];
            if child == NO_NODE {
                return None;
            }
            node = child;
            path[i as usize + 1] = node;
        }
        let removed = self.nodes[node as usize].value.take()?;
        self.len -= 1;
        // Prune empty leaf nodes bottom-up (never the root).
        for i in (1..=prefix.len() as usize).rev() {
            let n = path[i];
            let nd = &self.nodes[n as usize];
            if nd.value.is_some() || nd.children[0] != NO_NODE || nd.children[1] != NO_NODE {
                break;
            }
            let parent = path[i - 1];
            let b = prefix.bit((i - 1) as u8) as usize;
            self.nodes[parent as usize].children[b] = NO_NODE;
            self.free.push(n);
        }
        Some(removed)
    }

    /// Longest-prefix-match: the most specific entry containing `addr`.
    pub fn longest_match(&self, addr: Ipv4Addr) -> Option<(Ipv4Prefix, &V)> {
        let bits = u32::from(addr);
        let mut node = 0u32;
        let mut best: Option<(u8, &V)> = None;
        if let Some(v) = self.nodes[0].value.as_ref() {
            best = Some((0, v));
        }
        for depth in 0..32u8 {
            let b = ((bits >> (31 - depth)) & 1) as usize;
            let child = self.nodes[node as usize].children[b];
            if child == NO_NODE {
                break;
            }
            node = child;
            if let Some(v) = self.nodes[node as usize].value.as_ref() {
                best = Some((depth + 1, v));
            }
        }
        best.map(|(len, v)| (Ipv4Prefix::new(addr, len), v))
    }

    /// All entries whose prefix contains `addr`, least specific first.
    pub fn matches(&self, addr: Ipv4Addr) -> Vec<(Ipv4Prefix, &V)> {
        let bits = u32::from(addr);
        let mut out = Vec::new();
        let mut node = 0u32;
        if let Some(v) = self.nodes[0].value.as_ref() {
            out.push((Ipv4Prefix::DEFAULT, v));
        }
        for depth in 0..32u8 {
            let b = ((bits >> (31 - depth)) & 1) as usize;
            let child = self.nodes[node as usize].children[b];
            if child == NO_NODE {
                break;
            }
            node = child;
            if let Some(v) = self.nodes[node as usize].value.as_ref() {
                out.push((Ipv4Prefix::new(addr, depth + 1), v));
            }
        }
        out
    }

    /// The *maximal* stored proper descendants of `prefix`: every stored
    /// prefix strictly covered by `prefix` that has no stored ancestor
    /// strictly between itself and `prefix`. Their address ranges are
    /// pairwise disjoint and returned in ascending order, which is
    /// exactly what equivalence-class slicing needs to find the space a
    /// prefix owns itself.
    ///
    /// Each trie node below `prefix` is visited at most once and descent
    /// stops at the first stored value, so a full sweep calling this for
    /// every stored prefix costs O(nodes) = O(n·W) total, not O(n²).
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
    ///     .into_iter()
    ///     .map(|(p, _)| p.to_string())
    ///     .collect();
    /// // The /24 is hidden behind the /16; the /8 itself is excluded.
    /// assert_eq!(kids, vec!["10.0.0.0/16", "10.128.0.0/9"]);
    /// ```
    pub fn children_of(&self, prefix: &Ipv4Prefix) -> Vec<(Ipv4Prefix, &V)> {
        let Some(start) = self.find_node(prefix) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        if let Some((l, r)) = prefix.children() {
            let nd = &self.nodes[start as usize];
            if nd.children[0] != NO_NODE {
                self.walk_maximal(nd.children[0], l, &mut out);
            }
            if nd.children[1] != NO_NODE {
                self.walk_maximal(nd.children[1], r, &mut out);
            }
        }
        out
    }

    fn walk_maximal<'a>(
        &'a self,
        node: u32,
        prefix: Ipv4Prefix,
        out: &mut Vec<(Ipv4Prefix, &'a V)>,
    ) {
        let nd = &self.nodes[node as usize];
        if let Some(v) = nd.value.as_ref() {
            out.push((prefix, v));
            return; // maximal: never descend past a stored prefix
        }
        if let Some((l, r)) = prefix.children() {
            if nd.children[0] != NO_NODE {
                self.walk_maximal(nd.children[0], l, out);
            }
            if nd.children[1] != NO_NODE {
                self.walk_maximal(nd.children[1], r, out);
            }
        }
    }

    /// Lazily iterates over every stored entry whose prefix contains
    /// `addr`, least specific first — the allocation-free sibling of
    /// [`matches`](Self::matches), for hot paths that usually stop early
    /// (e.g. collecting the stored ancestors of an updated prefix).
    ///
    /// ```
    /// use cpvr_types::{Ipv4Prefix, PrefixTrie};
    ///
    /// let mut t = PrefixTrie::new();
    /// t.insert("0.0.0.0/0".parse::<Ipv4Prefix>().unwrap(), 0u8);
    /// t.insert("10.0.0.0/8".parse().unwrap(), 8);
    /// t.insert("10.1.0.0/16".parse().unwrap(), 16);
    /// t.insert("11.0.0.0/8".parse().unwrap(), 99);
    /// let lens: Vec<u8> = t.covering("10.1.2.3".parse().unwrap()).map(|(_, v)| *v).collect();
    /// assert_eq!(lens, vec![0, 8, 16]);
    /// ```
    pub fn covering(&self, addr: Ipv4Addr) -> Covering<'_, V> {
        Covering {
            trie: self,
            bits: u32::from(addr),
            node: 0,
            depth: 0,
        }
    }

    /// All stored entries covered by `root` (including `root` itself),
    /// in depth-first prefix order.
    pub fn covered_by(&self, root: &Ipv4Prefix) -> Vec<(Ipv4Prefix, &V)> {
        let Some(start) = self.find_node(root) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        self.walk(start, *root, &mut |p, v| out.push((p, v)));
        out
    }

    /// Visits every entry in depth-first prefix order.
    pub fn iter(&self) -> Vec<(Ipv4Prefix, &V)> {
        let mut out = Vec::new();
        self.walk(0, Ipv4Prefix::DEFAULT, &mut |p, v| out.push((p, v)));
        out
    }

    /// All stored prefixes in depth-first prefix order.
    pub fn prefixes(&self) -> Vec<Ipv4Prefix> {
        self.iter().into_iter().map(|(p, _)| p).collect()
    }

    fn walk<'a>(&'a self, node: u32, prefix: Ipv4Prefix, f: &mut impl FnMut(Ipv4Prefix, &'a V)) {
        let nd = &self.nodes[node as usize];
        if let Some(v) = nd.value.as_ref() {
            f(prefix, v);
        }
        if prefix.len() < 32 {
            if let Some((l, r)) = prefix.children() {
                if nd.children[0] != NO_NODE {
                    self.walk(nd.children[0], l, f);
                }
                if nd.children[1] != NO_NODE {
                    self.walk(nd.children[1], r, f);
                }
            }
        }
    }
}

/// Iterator over the stored entries containing one address, least
/// specific first. Created by [`PrefixTrie::covering`].
pub struct Covering<'a, V> {
    trie: &'a PrefixTrie<V>,
    bits: u32,
    /// The next node to examine; `NO_NODE` when exhausted.
    node: u32,
    depth: u8,
}

impl<'a, V> Iterator for Covering<'a, V> {
    type Item = (Ipv4Prefix, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        while self.node != NO_NODE {
            let nd = &self.trie.nodes[self.node as usize];
            let depth = self.depth;
            // Step down along the address's bit path before yielding, so
            // the cursor is already positioned for the next call.
            if depth < 32 {
                let b = ((self.bits >> (31 - depth)) & 1) as usize;
                self.node = nd.children[b];
                self.depth = depth + 1;
            } else {
                self.node = NO_NODE;
            }
            if let Some(v) = nd.value.as_ref() {
                return Some((Ipv4Prefix::new(Ipv4Addr::from(self.bits), depth), v));
            }
        }
        None
    }
}

impl<V> FromIterator<(Ipv4Prefix, V)> for PrefixTrie<V> {
    fn from_iter<T: IntoIterator<Item = (Ipv4Prefix, V)>>(iter: T) -> Self {
        let mut t = PrefixTrie::new();
        for (p, v) in iter {
            t.insert(p, v);
        }
        t
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
        let order: Vec<Ipv4Prefix> = t.prefixes();
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
        let sub: Vec<i32> = t
            .covered_by(&p("10.0.0.0/8"))
            .into_iter()
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(sub, vec![1, 2]);
        assert!(t.covered_by(&p("12.0.0.0/8")).is_empty());
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
    fn free_list_reuse() {
        let mut t = PrefixTrie::new();
        for i in 0..100u32 {
            t.insert(Ipv4Prefix::from_bits(i << 8, 24), i);
        }
        let cap = t.nodes.len();
        for i in 0..100u32 {
            t.remove(&Ipv4Prefix::from_bits(i << 8, 24));
        }
        for i in 0..100u32 {
            t.insert(Ipv4Prefix::from_bits(i << 8, 24), i);
        }
        assert_eq!(t.nodes.len(), cap, "freed nodes should be reused");
        assert_eq!(t.len(), 100);
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
        let kids: Vec<Ipv4Prefix> = t
            .children_of(&p("10.0.0.0/8"))
            .into_iter()
            .map(|(c, _)| c)
            .collect();
        // The /24 is shadowed by the /16; 11/8 is outside; ranges ascend.
        assert_eq!(
            kids,
            vec![p("10.0.0.0/16"), p("10.64.0.0/16"), p("10.128.0.0/9")]
        );
        // A prefix with no stored path below it has no children.
        assert!(t.children_of(&p("12.0.0.0/8")).is_empty());
        // Children of a non-stored prefix on a stored path still work.
        let kids: Vec<Ipv4Prefix> = t
            .children_of(&p("10.0.0.0/12"))
            .into_iter()
            .map(|(c, _)| c)
            .collect();
        assert_eq!(kids, vec![p("10.0.0.0/16")]);
    }

    #[test]
    fn covering_iterates_lazily_and_matches_matches() {
        let mut t = PrefixTrie::new();
        t.insert(p("0.0.0.0/0"), 0u32);
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.1.0.0/16"), 16);
        t.insert(p("10.2.0.0/16"), 99);
        let addr = a("10.1.2.3");
        let lazy: Vec<(Ipv4Prefix, u32)> = t.covering(addr).map(|(c, v)| (c, *v)).collect();
        let eager: Vec<(Ipv4Prefix, u32)> =
            t.matches(addr).into_iter().map(|(c, v)| (c, *v)).collect();
        assert_eq!(lazy, eager);
        // Early termination is cheap: take(1) yields the default route.
        assert_eq!(
            t.covering(addr).next().map(|(c, _)| c),
            Some(p("0.0.0.0/0"))
        );
        // No covering entries at all.
        let empty: PrefixTrie<()> = PrefixTrie::new();
        assert_eq!(empty.covering(addr).count(), 0);
    }

    #[test]
    fn from_iterator() {
        let t: PrefixTrie<i32> = vec![(p("10.0.0.0/8"), 1), (p("11.0.0.0/8"), 2)]
            .into_iter()
            .collect();
        assert_eq!(t.len(), 2);
    }
}
