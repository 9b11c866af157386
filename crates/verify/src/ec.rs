//! Equivalence classes of the destination address space.
//!
//! Two notions, both from the literature the paper builds on:
//!
//! 1. **Forwarding equivalence classes** ([`equivalence_classes`]):
//!    VeriFlow-style atoms. Every FIB is a set of prefixes; the union of
//!    all prefixes partitions the address space into regions where the
//!    set of covering prefixes — and therefore every router's LPM result —
//!    is constant. Verifying one representative address per class is
//!    exhaustive.
//! 2. **Behavioral classes** ([`behavior_classes`]): group the *prefixes*
//!    by their network-wide forwarding vector (what every router does
//!    with them). This is the §6 observation (citing \[7\]) that large
//!    networks treat most destinations identically — <15 classes for
//!    100K prefixes — which makes outcome prediction for early blocking
//!    feasible.

use cpvr_dataplane::{DataPlane, FibUpdate};
use cpvr_types::{Ipv4Prefix, PrefixTrie, RouterId};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// One forwarding equivalence class.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EquivClass {
    /// The owning prefix: the most specific prefix covering the class.
    pub prefix: Ipv4Prefix,
    /// A representative destination address inside the class.
    pub representative: Ipv4Addr,
}

/// Computes the forwarding equivalence classes of a set of prefixes.
///
/// Each input prefix `p` contributes one class for the part of its
/// address space not covered by any more-specific input prefix (if that
/// part is non-empty). Addresses covered by no prefix at all form no
/// class — they are uniformly unroutable and never interesting to a
/// policy keyed on known prefixes.
///
/// Implemented by inserting the prefixes into a [`PrefixTrie`] and
/// walking it (`equivalence_classes_in`) — one ordered lookup per
/// class boundary, O(n log n) for n prefixes, replacing the all-pairs
/// `covers()` scan this crate started with.
pub fn equivalence_classes_of(prefixes: &[Ipv4Prefix]) -> Vec<EquivClass> {
    let trie: PrefixTrie<()> = prefixes.iter().map(|p| (*p, ())).collect();
    equivalence_classes_in(&trie)
}

/// The trie-driven core shared by the batch and incremental paths: each
/// stored prefix owns one class for the space its maximal stored
/// descendants leave uncovered. Stored order is prefix order, so the
/// output matches [`equivalence_classes_of`] on the same prefix set.
pub(crate) fn equivalence_classes_in<V>(trie: &PrefixTrie<V>) -> Vec<EquivClass> {
    trie.prefixes().filter_map(|p| class_of(trie, p)).collect()
}

/// The class owned by `prefix` given the prefixes stored in `trie`, or
/// `None` when its maximal stored descendants cover it entirely.
/// `prefix` itself need not be stored — a policy scope gets its class
/// the same way.
pub(crate) fn class_of<V>(trie: &PrefixTrie<V>, prefix: Ipv4Prefix) -> Option<EquivClass> {
    // children_of yields maximal descendants: pairwise disjoint ranges
    // in ascending order, exactly what the cursor sweep needs — and the
    // sweep stops asking at the first gap.
    let ranges = trie
        .children_of(&prefix)
        .map(|(c, _)| (u32::from(c.first_addr()), u32::from(c.last_addr())));
    uncovered_address(prefix, ranges).map(|rep| EquivClass {
        prefix,
        representative: rep,
    })
}

/// Equivalence classes of everything installed anywhere in the data
/// plane.
pub fn equivalence_classes(dp: &DataPlane) -> Vec<EquivClass> {
    equivalence_classes_in(&dp.prefix_union())
}

/// Finds the lowest address in `p` not covered by any of the disjoint,
/// ascending `[start, end]` ranges (all inside `p`).
fn uncovered_address(p: Ipv4Prefix, ranges: impl Iterator<Item = (u32, u32)>) -> Option<Ipv4Addr> {
    let mut cursor = u32::from(p.first_addr());
    let end = u32::from(p.last_addr());
    for (s, e) in ranges {
        if s > cursor {
            return Some(Ipv4Addr::from(cursor));
        }
        cursor = cursor.max(e.checked_add(1)?);
        if cursor > end {
            return None;
        }
    }
    if cursor <= end {
        Some(Ipv4Addr::from(cursor))
    } else {
        None
    }
}

/// Groups every installed prefix by its behavior vector. The map's size
/// is the number of behavioral classes.
pub fn behavior_classes(dp: &DataPlane) -> BTreeMap<Vec<String>, Vec<Ipv4Prefix>> {
    let mut out: BTreeMap<Vec<String>, Vec<Ipv4Prefix>> = BTreeMap::new();
    for prefix in dp.all_prefixes() {
        out.entry(behavior_vector(dp, prefix))
            .or_default()
            .push(prefix);
    }
    out
}

/// The network-wide behavior vector of one prefix, probed at its first
/// address: what each router's LPM does with traffic to it.
fn behavior_vector(dp: &DataPlane, prefix: Ipv4Prefix) -> Vec<String> {
    let probe = prefix.first_addr();
    (0..dp.num_routers())
        .map(|r| match dp.fib(RouterId(r as u32)).lookup(probe) {
            Some((_, e)) => format!("{:?}", e.action),
            None => "none".to_string(),
        })
        .collect()
}

/// A cache over [`behavior_classes`] with dirty-region invalidation.
///
/// A [`FibUpdate`] to prefix `u` can only change the behavior vector of
/// installed prefixes whose probe address `u` could match — i.e. prefixes
/// overlapping `u`. [`BehaviorCache::invalidate`] records `u` as a dirty
/// region; the next [`BehaviorCache::classes`] call recomputes vectors
/// only inside dirty regions and reuses everything else.
#[derive(Clone, Debug, Default)]
pub(crate) struct BehaviorCache {
    /// Cached behavior vector per installed prefix.
    vectors: BTreeMap<Ipv4Prefix, Vec<String>>,
    /// Address regions touched by updates since the last refresh.
    dirty: BTreeSet<Ipv4Prefix>,
    /// False until the first full computation.
    primed: bool,
}

impl BehaviorCache {
    /// An empty, unprimed cache; the first [`classes`](Self::classes)
    /// call computes everything.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Marks the address region touched by `update` dirty.
    pub(crate) fn invalidate(&mut self, update: &FibUpdate) {
        self.invalidate_region(update.prefix);
    }

    /// Marks every cached prefix overlapping `region` for recomputation.
    pub(crate) fn invalidate_region(&mut self, region: Ipv4Prefix) {
        self.dirty.insert(region);
    }

    /// Drops everything; the next refresh recomputes from scratch.
    pub(crate) fn clear(&mut self) {
        self.vectors.clear();
        self.dirty.clear();
        self.primed = false;
    }

    /// The current behavior classes, refreshing only dirty regions.
    pub(crate) fn classes(&mut self, dp: &DataPlane) -> BTreeMap<Vec<String>, Vec<Ipv4Prefix>> {
        self.refresh(dp);
        let mut out: BTreeMap<Vec<String>, Vec<Ipv4Prefix>> = BTreeMap::new();
        for (prefix, vector) in &self.vectors {
            out.entry(vector.clone()).or_default().push(*prefix);
        }
        out
    }

    fn refresh(&mut self, dp: &DataPlane) {
        if !self.primed {
            self.vectors = dp
                .all_prefixes()
                .into_iter()
                .map(|p| (p, behavior_vector(dp, p)))
                .collect();
            self.dirty.clear();
            self.primed = true;
            return;
        }
        if self.dirty.is_empty() {
            return;
        }
        let dirty: Vec<Ipv4Prefix> = std::mem::take(&mut self.dirty).into_iter().collect();
        // Drop cached vectors inside any dirty region (covers removals),
        // then recompute vectors for installed prefixes in those regions
        // (covers installs and reroutes).
        self.vectors
            .retain(|p, _| !dirty.iter().any(|d| d.overlaps(p)));
        for prefix in dp.all_prefixes() {
            if dirty.iter().any(|d| d.overlaps(&prefix)) {
                self.vectors.insert(prefix, behavior_vector(dp, prefix));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpvr_dataplane::{FibAction, FibEntry};
    use cpvr_topo::LinkId;
    use cpvr_types::SimTime;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn disjoint_prefixes_one_class_each() {
        let ecs = equivalence_classes_of(&[p("10.0.0.0/8"), p("11.0.0.0/8")]);
        assert_eq!(ecs.len(), 2);
        assert_eq!(
            ecs[0].representative,
            "10.0.0.0".parse::<Ipv4Addr>().unwrap()
        );
    }

    #[test]
    fn nested_prefix_splits_class() {
        let ecs = equivalence_classes_of(&[p("10.0.0.0/8"), p("10.0.0.0/16")]);
        assert_eq!(ecs.len(), 2);
        // The /8's own class must have a representative outside the /16.
        let coarse = ecs.iter().find(|e| e.prefix == p("10.0.0.0/8")).unwrap();
        assert!(!p("10.0.0.0/16").contains_addr(coarse.representative));
        assert!(p("10.0.0.0/8").contains_addr(coarse.representative));
    }

    #[test]
    fn fully_covered_parent_has_no_class() {
        let ecs = equivalence_classes_of(&[p("10.0.0.0/8"), p("10.0.0.0/9"), p("10.128.0.0/9")]);
        // The /8 is fully covered by its two /9 children.
        assert_eq!(ecs.len(), 2);
        assert!(ecs.iter().all(|e| e.prefix != p("10.0.0.0/8")));
    }

    #[test]
    fn duplicates_and_order_do_not_matter() {
        let a = equivalence_classes_of(&[p("10.0.0.0/8"), p("10.1.0.0/16")]);
        let b = equivalence_classes_of(&[p("10.1.0.0/16"), p("10.0.0.0/8"), p("10.0.0.0/8")]);
        assert_eq!(a, b);
    }

    #[test]
    fn deep_nesting_chain() {
        let ecs = equivalence_classes_of(&[
            p("10.0.0.0/8"),
            p("10.0.0.0/16"),
            p("10.0.0.0/24"),
            p("10.0.0.0/32"),
        ]);
        assert_eq!(ecs.len(), 4);
        // Each representative must match exactly its owner under LPM.
        for ec in &ecs {
            for other in &ecs {
                if other.prefix.len() > ec.prefix.len() {
                    assert!(!other.prefix.contains_addr(ec.representative));
                }
            }
        }
    }

    #[test]
    fn default_route_class() {
        let ecs = equivalence_classes_of(&[Ipv4Prefix::DEFAULT, p("10.0.0.0/8")]);
        assert_eq!(ecs.len(), 2);
        let default_ec = ecs
            .iter()
            .find(|e| e.prefix == Ipv4Prefix::DEFAULT)
            .unwrap();
        assert!(!p("10.0.0.0/8").contains_addr(default_ec.representative));
    }

    #[test]
    fn empty_input() {
        assert!(equivalence_classes_of(&[]).is_empty());
    }

    #[test]
    fn behavior_classes_group_identically_treated_prefixes() {
        let mut dp = DataPlane::new(2);
        let act = FibAction::Forward(LinkId(0));
        let entry = FibEntry {
            action: act,
            installed_at: SimTime::ZERO,
        };
        // Three prefixes, two behaviors: first two identical everywhere.
        for s in ["20.0.0.0/24", "20.0.1.0/24"] {
            dp.fib_mut(RouterId(0)).install(p(s), entry);
            dp.fib_mut(RouterId(1)).install(p(s), entry);
        }
        dp.fib_mut(RouterId(0)).install(
            p("20.0.2.0/24"),
            FibEntry {
                action: FibAction::Drop,
                installed_at: SimTime::ZERO,
            },
        );
        let classes = behavior_classes(&dp);
        assert_eq!(classes.len(), 2);
        let sizes: Vec<usize> = classes.values().map(|v| v.len()).collect();
        assert!(sizes.contains(&2) && sizes.contains(&1));
    }

    #[test]
    fn behavior_cache_tracks_batch_under_invalidation() {
        use cpvr_dataplane::UpdateKind;
        let mut dp = DataPlane::new(2);
        let entry = FibEntry {
            action: FibAction::Forward(LinkId(0)),
            installed_at: SimTime::ZERO,
        };
        for s in ["30.0.0.0/24", "30.0.1.0/24", "40.0.0.0/16"] {
            dp.fib_mut(RouterId(0)).install(p(s), entry);
            dp.fib_mut(RouterId(1)).install(p(s), entry);
        }
        let mut cache = BehaviorCache::new();
        assert_eq!(cache.classes(&dp), behavior_classes(&dp));
        // Reroute one prefix on one router; invalidate only that region.
        let u = FibUpdate {
            router: RouterId(1),
            prefix: p("30.0.1.0/24"),
            kind: UpdateKind::Install,
            action: FibAction::Drop,
            at: SimTime::ZERO,
        };
        dp.fib_mut(u.router).apply(&u);
        cache.invalidate(&u);
        assert_eq!(cache.classes(&dp), behavior_classes(&dp));
        // Remove a prefix entirely — cached vector must disappear.
        let r = FibUpdate {
            router: RouterId(0),
            prefix: p("40.0.0.0/16"),
            kind: UpdateKind::Remove,
            action: FibAction::Forward(LinkId(0)),
            at: SimTime::ZERO,
        };
        dp.fib_mut(r.router).apply(&r);
        let r2 = FibUpdate {
            router: RouterId(1),
            ..r
        };
        dp.fib_mut(r2.router).apply(&r2);
        cache.invalidate(&r);
        cache.invalidate(&r2);
        assert_eq!(cache.classes(&dp), behavior_classes(&dp));
    }

    #[test]
    fn behavior_classes_scale_with_policy_not_prefix_count() {
        // 1000 prefixes, 3 distinct behaviors → 3 classes.
        let mut dp = DataPlane::new(3);
        for i in 0..1000u32 {
            let prefix =
                Ipv4Prefix::from_bits(u32::from_be_bytes([100, (i >> 8) as u8, i as u8, 0]), 24);
            let class = i % 3;
            for r in 0..3u32 {
                let action = match class {
                    0 => FibAction::Forward(LinkId(0)),
                    1 => FibAction::Forward(LinkId(1)),
                    _ => FibAction::Drop,
                };
                dp.fib_mut(RouterId(r)).install(
                    prefix,
                    FibEntry {
                        action,
                        installed_at: SimTime::ZERO,
                    },
                );
            }
        }
        assert_eq!(behavior_classes(&dp).len(), 3);
    }
}
