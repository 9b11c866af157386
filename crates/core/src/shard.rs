//! Shard assignment for the partitioned merger fold.
//!
//! The collector's sharded pipeline partitions verification state across
//! worker threads. A [`ShardPlan`] is the single deterministic routing
//! authority all parties agree on:
//!
//! - **Routers** are assigned round-robin ([`of_router`](ShardPlan::of_router)):
//!   a router's export stream is FIFO and the tracker's arrival clamp
//!   couples every record of the stream, so a stream is indivisible and
//!   must live whole on one shard.
//! - **Conversations** (send→recv pairs, the only cross-router coupling
//!   in the fold) are assigned by **prefix range**
//!   ([`of_prefix`](ShardPlan::of_prefix)): the address space is split
//!   into `shards` contiguous ranges, either uniformly or balanced over
//!   the prefixes observed in a [`cpvr_types::PrefixTrie`] (e.g. the
//!   data plane's union trie). Conversations with no prefix fall back
//!   to the addressee router's shard — EC affinity, so repeated traffic
//!   for one equivalence class lands on one shard.
//!
//! The plan is pure data (a boundary table); every thread can hold a
//! copy and route without coordination.

use cpvr_types::{Ipv4Prefix, PrefixTrie, RouterId};

/// Deterministic shard routing for routers, prefixes, and conversations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    shards: u32,
    /// Upper bounds (exclusive) of each shard's address range, as
    /// `u64` so the final bound `1 << 32` is representable.
    bounds: Vec<u64>,
}

impl ShardPlan {
    /// A plan splitting the IPv4 address space into `shards` equal
    /// contiguous ranges. `shards` is clamped to at least 1.
    pub fn uniform(shards: u32) -> Self {
        let shards = shards.max(1);
        let bounds = (1..=shards as u64)
            .map(|k| (k << 32) / shards as u64)
            .collect();
        ShardPlan { shards, bounds }
    }

    /// A plan whose range boundaries balance the given observed
    /// prefixes: each shard owns (as close as possible) an equal count
    /// of them. Falls back to [`uniform`](Self::uniform) when fewer
    /// prefixes than shards are given.
    pub fn from_prefixes(prefixes: &[Ipv4Prefix], shards: u32) -> Self {
        let shards = shards.max(1);
        let mut addrs: Vec<u64> = prefixes.iter().map(|p| p.bits() as u64).collect();
        addrs.sort_unstable();
        addrs.dedup();
        if addrs.len() < shards as usize {
            return Self::uniform(shards);
        }
        let mut bounds: Vec<u64> = Vec::with_capacity(shards as usize);
        for k in 1..shards as u64 {
            // First address of shard k: the boundary is exclusive for
            // shard k-1.
            let idx = (k as usize * addrs.len()) / shards as usize;
            bounds.push(addrs[idx]);
        }
        bounds.push(1 << 32);
        ShardPlan { shards, bounds }
    }

    /// A plan balanced over the prefixes present in a union trie (the
    /// collector uses the data plane's
    /// [`prefix_union`](cpvr_dataplane::DataPlane::prefix_union)).
    pub fn from_union_trie<V>(trie: &PrefixTrie<V>, shards: u32) -> Self {
        Self::from_prefixes(&trie.prefixes().collect::<Vec<_>>(), shards)
    }

    /// Number of shards in the plan.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The shard owning a router's export stream.
    pub fn of_router(&self, r: RouterId) -> u32 {
        r.index() as u32 % self.shards
    }

    /// The shard owning a prefix (by its network address range).
    pub fn of_prefix(&self, p: &Ipv4Prefix) -> u32 {
        let addr = p.bits() as u64;
        self.bounds.partition_point(|b| *b <= addr) as u32
    }

    /// The shard owning a conversation `(sender, addressee, proto,
    /// prefix)`: by prefix range when the conversation carries a
    /// prefix, otherwise the addressee router's shard (EC affinity).
    pub fn of_conv(&self, key: &crate::snapshot::ConvKey) -> u32 {
        match &key.3 {
            Some(p) => self.of_prefix(p),
            None => self.of_router(key.1),
        }
    }
}

/// Ownership routing for a *federation* of collector processes: the
/// cross-process analogue of [`ShardPlan`]. Member `k` of an `members`-way
/// federation owns exactly the routers and conversations the inner plan
/// assigns to shard `k` — the same indivisible-stream and
/// conversation-affinity arguments apply, only the "shards" are now
/// separate collectors exchanging peer frames over TCP instead of worker
/// threads exchanging messages over channels.
///
/// Every member holds an identical copy (it is pure data), so routing
/// decisions — which member a router's stream belongs to, which member
/// judges a conversation — never need coordination.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FederationPlan {
    inner: ShardPlan,
}

impl FederationPlan {
    /// A federation of `members` collectors splitting the address space
    /// uniformly. `members` is clamped to at least 1.
    pub fn uniform(members: u32) -> Self {
        FederationPlan {
            inner: ShardPlan::uniform(members),
        }
    }

    /// A federation whose conversation ranges balance the given observed
    /// prefixes (see [`ShardPlan::from_prefixes`]).
    pub fn from_prefixes(prefixes: &[Ipv4Prefix], members: u32) -> Self {
        FederationPlan {
            inner: ShardPlan::from_prefixes(prefixes, members),
        }
    }

    /// Number of members in the federation.
    pub fn members(&self) -> u32 {
        self.inner.shards()
    }

    /// The member owning a router's export stream.
    pub fn of_router(&self, r: RouterId) -> u32 {
        self.inner.of_router(r)
    }

    /// The member owning (judging) a conversation.
    pub fn of_conv(&self, key: &crate::snapshot::ConvKey) -> u32 {
        self.inner.of_conv(key)
    }

    /// The underlying shard plan — what a member hands to its
    /// [`TrackerSlice`](crate::snapshot::TrackerSlice), whose slice
    /// index is the member index.
    pub fn as_shard_plan(&self) -> &ShardPlan {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pfx(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn uniform_covers_whole_space() {
        for shards in [1u32, 2, 3, 4, 8] {
            let plan = ShardPlan::uniform(shards);
            assert_eq!(plan.of_prefix(&pfx("0.0.0.0/0")), 0);
            assert_eq!(plan.of_prefix(&pfx("255.255.255.255/32")), shards - 1);
            // Every assignment is in range.
            for a in [0u32, 1 << 16, 1 << 24, u32::MAX / 3, u32::MAX] {
                let p = Ipv4Prefix::from_bits(a, 32);
                assert!(plan.of_prefix(&p) < shards);
            }
        }
    }

    #[test]
    fn one_shard_owns_everything() {
        let plan = ShardPlan::uniform(1);
        assert_eq!(plan.of_router(RouterId(17)), 0);
        assert_eq!(plan.of_prefix(&pfx("203.0.113.0/24")), 0);
    }

    #[test]
    fn from_prefixes_balances_counts() {
        let prefixes: Vec<Ipv4Prefix> = (0..64u32)
            .map(|i| Ipv4Prefix::from_bits(i << 24, 24))
            .collect();
        let plan = ShardPlan::from_prefixes(&prefixes, 4);
        let mut per = [0usize; 4];
        for p in &prefixes {
            per[plan.of_prefix(p) as usize] += 1;
        }
        assert_eq!(per, [16, 16, 16, 16]);
    }

    #[test]
    fn conv_without_prefix_uses_addressee() {
        let plan = ShardPlan::uniform(4);
        let key = (RouterId(0), RouterId(3), cpvr_sim::Proto::Bgp, None);
        assert_eq!(plan.of_conv(&key), plan.of_router(RouterId(3)));
    }

    #[test]
    fn federation_plan_mirrors_its_shard_plan() {
        let fed = FederationPlan::uniform(3);
        let shards = ShardPlan::uniform(3);
        assert_eq!(fed.members(), 3);
        for r in 0..12u32 {
            assert_eq!(fed.of_router(RouterId(r)), shards.of_router(RouterId(r)));
        }
        for a in [0u32, 1 << 20, u32::MAX / 2, u32::MAX] {
            let key = (
                RouterId(0),
                RouterId(1),
                cpvr_sim::Proto::Bgp,
                Some(Ipv4Prefix::from_bits(a, 32)),
            );
            assert_eq!(fed.of_conv(&key), shards.of_conv(&key));
        }
        assert_eq!(fed.as_shard_plan(), &shards);
    }
}
