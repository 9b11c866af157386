//! Workload generators for benchmarks and large-scale experiments.

use crate::engine::Simulation;
use crate::router::{IgpKind, RouterConfig};
use cpvr_bgp::{BgpConfig, PeerRef, SessionCfg};
use cpvr_topo::builder::TopologyBuilder;
use cpvr_topo::{ExtPeerId, Topology};
use cpvr_types::{AsNum, Ipv4Prefix, RouterId, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `n` disjoint /24 prefixes — a synthetic external routing table. The
/// first 2^16 fill `100.0.0.0/8`; larger tables spill into the /8s that
/// follow, up to `223.0.0.0/8`.
pub fn prefix_block(n: usize) -> Vec<Ipv4Prefix> {
    assert!(n <= 124 << 16, "only 124 unicast /8s from 100.0.0.0 up");
    (0..n as u32)
        .map(|i| Ipv4Prefix::from_bits((100 << 24) + (i << 8), 24))
        .collect()
}

/// Assigns each prefix to one of `classes` policy classes. Prefixes in
/// the same class receive identical treatment everywhere, so the
/// verifier's equivalence-class slicing should discover ≈`classes`
/// classes — the §6 observation (citing \[7\]) that even 100K-prefix
/// networks have <15 ECs.
///
/// Returns `class_of[prefix_index] ∈ 0..classes`, assigned with a skewed
/// distribution (most prefixes in few classes, like real policy data).
pub fn policy_classes(n_prefixes: usize, classes: usize, seed: u64) -> Vec<usize> {
    assert!(classes >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_prefixes)
        .map(|_| {
            // Geometric-ish skew: class k gets ~2^-k of the mass.
            let mut k = 0;
            while k + 1 < classes && rng.gen_bool(0.5) {
                k += 1;
            }
            k
        })
        .collect()
}

/// A random connected topology: a uniform spanning tree plus `extra`
/// random additional links, with `uplinks` external peers attached to
/// random routers. Unit IGP costs.
pub fn random_topology(
    n: usize,
    extra: usize,
    uplinks: usize,
    seed: u64,
) -> (Topology, Vec<ExtPeerId>) {
    assert!(n >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = TopologyBuilder::new(AsNum(65000));
    let ids: Vec<RouterId> = (0..n).map(|i| b.router(&format!("R{}", i + 1))).collect();
    // Random spanning tree: attach each new node to a random earlier one.
    for i in 1..n {
        let j = rng.gen_range(0..i);
        b.link(ids[i], ids[j], 10);
    }
    // Extra links between distinct random pairs (skip duplicates
    // opportunistically; parallel links are legal but unhelpful here).
    let mut added = 0;
    let mut guard = 0;
    while added < extra && guard < extra * 20 + 20 {
        guard += 1;
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        if i != j {
            b.link(ids[i], ids[j], 10);
            added += 1;
        }
    }
    let peers: Vec<ExtPeerId> = (0..uplinks)
        .map(|k| {
            let r = ids[rng.gen_range(0..n)];
            b.external_peer(&format!("Up{k}"), AsNum(100 + k as u32), r)
        })
        .collect();
    (b.build(), peers)
}

/// A deterministic churn plan: a sequence of `(time offset in ms, peer
/// index, prefix index, announce?)` tuples for stress runs.
pub fn churn_plan(
    events: usize,
    n_peers: usize,
    n_prefixes: usize,
    seed: u64,
) -> Vec<(u64, usize, usize, bool)> {
    assert!(n_peers > 0 && n_prefixes > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0u64;
    (0..events)
        .map(|_| {
            t += rng.gen_range(1..50);
            (
                t,
                rng.gen_range(0..n_peers),
                rng.gen_range(0..n_prefixes),
                rng.gen_bool(0.7),
            )
        })
        .collect()
}

/// How [`ibgp_configs`] lays out the iBGP sessions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IbgpShape {
    /// Every router peers with every other: `n - 1` sessions per speaker.
    FullMesh,
    /// Router 0 reflects between all the others, its clients (RFC 4456):
    /// `n - 1` sessions at the reflector, one at every client.
    ReflectorStar,
}

/// One OSPF router configuration per router of `topo`, all in AS 65000:
/// the iBGP sessions of `shape` in ascending peer order, then an eBGP
/// session for every one of `uplinks` attached at the router — the
/// session order the ledger's `bgp-merger` generator configures.
pub fn ibgp_configs(topo: &Topology, uplinks: &[ExtPeerId], shape: IbgpShape) -> Vec<RouterConfig> {
    let n = topo.num_routers() as u32;
    let hub = RouterId(0);
    (0..n)
        .map(|r| {
            let me = RouterId(r);
            let mut bgp = BgpConfig::new(me, AsNum(65000));
            for other in (0..n).map(RouterId).filter(|o| *o != me) {
                bgp.sessions.extend(match shape {
                    IbgpShape::FullMesh => Some(SessionCfg::new(PeerRef::Internal(other))),
                    IbgpShape::ReflectorStar if me == hub => Some(SessionCfg::ibgp_client(other)),
                    IbgpShape::ReflectorStar if other == hub => {
                        Some(SessionCfg::new(PeerRef::Internal(hub)))
                    }
                    IbgpShape::ReflectorStar => None,
                });
            }
            for up in uplinks {
                if topo.ext_peer(*up).attach.0 == me {
                    bgp.sessions.push(SessionCfg::new(PeerRef::External(*up)));
                }
            }
            RouterConfig {
                bgp,
                igp: IgpKind::Ospf,
            }
        })
        .collect()
}

/// Schedules [`churn_plan`]`(items, …, seed)` on `sim`, starting at its
/// current time: each item has one of `uplinks` announce or withdraw one
/// of `prefixes`.
pub fn schedule_churn(
    sim: &mut Simulation,
    uplinks: &[ExtPeerId],
    prefixes: &[Ipv4Prefix],
    items: usize,
    seed: u64,
) {
    let base = sim.now();
    for (t_ms, peer, prefix, announce) in churn_plan(items, uplinks.len(), prefixes.len(), seed) {
        let at = base + SimTime::from_millis(t_ms);
        if announce {
            sim.schedule_ext_announce(at, uplinks[peer], &[prefixes[prefix]]);
        } else {
            sim.schedule_ext_withdraw(at, uplinks[peer], &[prefixes[prefix]]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ibgp_shapes_configure_the_expected_sessions() {
        let (topo, peers) = random_topology(6, 3, 2, 1);
        let mesh = ibgp_configs(&topo, &peers, IbgpShape::FullMesh);
        let star = ibgp_configs(&topo, &peers, IbgpShape::ReflectorStar);
        let ibgp = |c: &RouterConfig| c.bgp.sessions.iter().filter(|s| !s.ebgp).count();
        let ebgp = |cs: &[RouterConfig]| -> usize {
            cs.iter().map(|c| c.bgp.sessions.len() - ibgp(c)).sum()
        };
        assert!(mesh.iter().all(|c| ibgp(c) == 5));
        assert_eq!(ibgp(&star[0]), 5);
        assert!(star[0].bgp.sessions.iter().all(|s| s.ebgp || s.rr_client));
        assert!(star[1..].iter().all(|c| ibgp(c) == 1));
        assert_eq!((ebgp(&mesh), ebgp(&star)), (2, 2));
    }

    #[test]
    fn prefix_block_disjoint() {
        let ps = prefix_block(300);
        assert_eq!(ps.len(), 300);
        for w in ps.windows(2) {
            assert!(!w[0].overlaps(&w[1]));
        }
        // All under 100.0.0.0/8.
        let root: Ipv4Prefix = "100.0.0.0/8".parse().unwrap();
        assert!(ps.iter().all(|p| root.covers(p)));
    }

    #[test]
    fn prefix_block_spills_into_following_slash_eights() {
        let ps = prefix_block(65_536 + 300);
        assert_eq!(ps[65_535].to_string(), "100.255.255.0/24");
        assert_eq!(ps[65_536].to_string(), "101.0.0.0/24");
        assert_eq!(ps[65_536 + 299].to_string(), "101.1.43.0/24");
        assert!(ps.windows(2).all(|w| w[0] < w[1] && !w[0].overlaps(&w[1])));
    }

    #[test]
    fn policy_classes_in_range_and_skewed() {
        let classes = policy_classes(10_000, 8, 42);
        assert_eq!(classes.len(), 10_000);
        assert!(classes.iter().all(|c| *c < 8));
        // Class 0 should hold roughly half the prefixes.
        let c0 = classes.iter().filter(|c| **c == 0).count();
        assert!((4000..6000).contains(&c0), "skew off: {c0}");
    }

    #[test]
    fn random_topology_is_connected() {
        for seed in 0..5 {
            let (topo, peers) = random_topology(20, 10, 3, seed);
            assert_eq!(topo.num_routers(), 20);
            assert_eq!(peers.len(), 3);
            assert!(cpvr_topo::graph::is_connected(&topo));
        }
    }

    #[test]
    fn churn_plan_is_monotonic_and_deterministic() {
        let a = churn_plan(100, 2, 50, 7);
        let b = churn_plan(100, 2, 50, 7);
        assert_eq!(a, b);
        for w in a.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    #[should_panic]
    fn too_many_prefixes_panics() {
        prefix_block((124 << 16) + 1);
    }
}
