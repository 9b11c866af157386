//! RIP: a distance-vector IGP.
//!
//! Implements the parts of RIP that determine routing outcomes: full-table
//! advertisements to neighbors, hop-count-style metrics with
//! infinity = 16, split horizon with poisoned reverse, and triggered
//! updates carrying explicit metric-16 poisons when routes die. Periodic
//! refresh and garbage-collection timers are not modelled, which keeps
//! this state machine clock-free and deterministic.

use crate::{diff_tables, IgpOutputs, IgpRoute};
use cpvr_topo::{LinkId, Topology};
use cpvr_types::{Ipv4Prefix, RouterId};
use std::collections::BTreeMap;

/// RIP's infinity: destinations at this metric are unreachable.
pub const INFINITY: u32 = 16;

/// A RIP route advertisement: `(prefix, metric)` pairs. Metric 16 is a
/// poison (withdrawal).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RipMsg {
    /// Advertised vectors.
    pub routes: Vec<(Ipv4Prefix, u32)>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct RipEntry {
    /// `INFINITY` marks a tombstone: the route is dead but must still be
    /// advertised once (poisoned) so downstream routers withdraw it.
    metric: u32,
    /// Learning source; `None` for locally connected prefixes.
    via: Option<(RouterId, LinkId)>,
}

/// One router's RIP instance.
#[derive(Clone, Debug)]
pub struct RipInstance {
    me: RouterId,
    entries: BTreeMap<Ipv4Prefix, RipEntry>,
    table: BTreeMap<Ipv4Prefix, IgpRoute>,
}

impl RipInstance {
    /// Creates an instance for router `me`.
    pub fn new(me: RouterId) -> Self {
        RipInstance {
            me,
            entries: BTreeMap::new(),
            table: BTreeMap::new(),
        }
    }

    /// The current route table.
    pub fn table(&self) -> &BTreeMap<Ipv4Prefix, IgpRoute> {
        &self.table
    }

    /// Starts the instance: installs connected prefixes and announces them.
    pub fn start(&mut self, topo: &Topology) -> IgpOutputs<RipMsg> {
        let me = topo.router(self.me);
        self.entries.insert(
            Ipv4Prefix::host(me.loopback),
            RipEntry {
                metric: 0,
                via: None,
            },
        );
        for iface in &me.ifaces {
            self.entries.insert(
                iface.subnet,
                RipEntry {
                    metric: 0,
                    via: None,
                },
            );
        }
        let mut out = self.rebuild();
        out.msgs = self.advertisements(topo);
        out
    }

    /// Handles a local link-status change: poison routes learned over dead
    /// links and send triggered updates.
    pub fn link_change(&mut self, topo: &Topology) -> IgpOutputs<RipMsg> {
        let live: Vec<LinkId> = topo
            .up_neighbors(self.me)
            .into_iter()
            .map(|(_, l)| l)
            .collect();
        for e in self.entries.values_mut() {
            if let Some((_, l)) = e.via {
                if !live.contains(&l) {
                    e.metric = INFINITY;
                }
            }
        }
        let mut out = self.rebuild();
        out.msgs = self.advertisements(topo);
        self.purge_tombstones();
        out
    }

    /// Handles an advertisement from a neighbor.
    pub fn recv(&mut self, topo: &Topology, from: RouterId, msg: RipMsg) -> IgpOutputs<RipMsg> {
        // Identify the link to the sender (lowest-id up link).
        let Some((_, link)) = topo
            .up_neighbors(self.me)
            .into_iter()
            .find(|(nb, _)| *nb == from)
        else {
            // Sender is no longer a live neighbor; stale message.
            return IgpOutputs::empty();
        };
        let mut changed = false;
        for (prefix, adv_metric) in &msg.routes {
            let metric = (adv_metric + 1).min(INFINITY);
            let via = Some((from, link));
            match self.entries.get(prefix) {
                // Update from the current successor: always accept (it may
                // be a poison / worsening).
                Some(e) if e.via == via && e.metric < INFINITY && e.metric != metric => {
                    self.entries.insert(*prefix, RipEntry { metric, via });
                    changed = true;
                }
                Some(e) if e.via == via && e.metric < INFINITY => {}
                // Better than what we have (tombstones count as INFINITY):
                // switch.
                Some(e) if metric < e.metric => {
                    self.entries.insert(*prefix, RipEntry { metric, via });
                    changed = true;
                }
                Some(_) => {}
                None if metric < INFINITY => {
                    self.entries.insert(*prefix, RipEntry { metric, via });
                    changed = true;
                }
                None => {}
            }
        }
        let mut out = self.rebuild();
        if changed {
            out.msgs = self.advertisements(topo); // triggered update
        }
        self.purge_tombstones();
        out
    }

    /// Builds per-neighbor advertisements with split horizon + poisoned
    /// reverse: routes learned from a neighbor are advertised back to it
    /// with metric 16. Tombstoned routes are advertised at 16 to everyone.
    fn advertisements(&self, topo: &Topology) -> Vec<(RouterId, RipMsg)> {
        let mut nbs: Vec<RouterId> = topo
            .up_neighbors(self.me)
            .into_iter()
            .map(|(nb, _)| nb)
            .collect();
        nbs.sort();
        nbs.dedup();
        nbs.into_iter()
            .map(|nb| {
                let routes = self
                    .entries
                    .iter()
                    .map(|(p, e)| {
                        let poisoned = matches!(e.via, Some((v, _)) if v == nb);
                        (*p, if poisoned { INFINITY } else { e.metric })
                    })
                    .collect();
                (nb, RipMsg { routes })
            })
            .collect()
    }

    /// Drops tombstones once they have been advertised.
    fn purge_tombstones(&mut self) {
        self.entries.retain(|_, e| e.metric < INFINITY);
    }

    /// Rebuilds the public table from live entries and diffs.
    fn rebuild(&mut self) -> IgpOutputs<RipMsg> {
        let new_table: BTreeMap<Ipv4Prefix, IgpRoute> = self
            .entries
            .iter()
            .filter(|(_, e)| e.metric < INFINITY)
            .map(|(p, e)| {
                (
                    *p,
                    IgpRoute {
                        metric: e.metric,
                        next_hop: e.via,
                    },
                )
            })
            .collect();
        let deltas = diff_tables(&self.table, &new_table);
        self.table = new_table;
        IgpOutputs {
            msgs: Vec::new(),
            deltas,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpvr_topo::builder::shapes;
    use cpvr_topo::{LinkState, Topology};

    fn converge(topo: &Topology, insts: &mut [RipInstance]) {
        let mut queue: Vec<(RouterId, RouterId, RipMsg)> = Vec::new();
        for i in insts.iter_mut() {
            let me = i.me;
            for (to, m) in i.start(topo).msgs {
                queue.push((me, to, m));
            }
        }
        pump(topo, insts, queue);
    }

    fn pump(
        topo: &Topology,
        insts: &mut [RipInstance],
        mut queue: Vec<(RouterId, RouterId, RipMsg)>,
    ) {
        let mut n = 0;
        while let Some((from, to, msg)) = queue.pop() {
            n += 1;
            assert!(n < 200_000, "RIP did not quiesce");
            for (nxt, m) in insts[to.index()].recv(topo, from, msg).msgs {
                queue.push((to, nxt, m));
            }
        }
    }

    fn loopback(topo: &Topology, r: RouterId) -> Ipv4Prefix {
        Ipv4Prefix::host(topo.router(r).loopback)
    }

    #[test]
    fn line_converges_with_hop_counts() {
        let topo = shapes::line(4);
        let mut insts: Vec<RipInstance> = topo.router_ids().map(RipInstance::new).collect();
        converge(&topo, &mut insts);
        let lb3 = loopback(&topo, RouterId(3));
        let r = insts[0].table()[&lb3];
        assert_eq!(r.metric, 3);
        assert_eq!(r.next_hop.unwrap().0, RouterId(1));
    }

    #[test]
    fn split_horizon_poisons_reverse() {
        let topo = shapes::line(2);
        let mut insts: Vec<RipInstance> = topo.router_ids().map(RipInstance::new).collect();
        converge(&topo, &mut insts);
        // R2's advert back to R1 must poison R1's own loopback route.
        let ads = insts[1].advertisements(&topo);
        let (to, msg) = &ads[0];
        assert_eq!(*to, RouterId(0));
        let lb1 = loopback(&topo, RouterId(0));
        let m = msg.routes.iter().find(|(p, _)| *p == lb1).unwrap().1;
        assert_eq!(m, INFINITY);
    }

    #[test]
    fn link_failure_withdraws_via_poison() {
        let mut topo = shapes::line(3);
        let mut insts: Vec<RipInstance> = topo.router_ids().map(RipInstance::new).collect();
        converge(&topo, &mut insts);
        let lb3 = loopback(&topo, RouterId(2));
        assert!(insts[0].table().contains_key(&lb3));
        // Fail R2—R3; notify both ends, pump triggered updates.
        let l = topo.link_between(RouterId(1), RouterId(2)).unwrap().id;
        topo.set_link_state(l, LinkState::Down);
        let mut queue = Vec::new();
        for r in [RouterId(1), RouterId(2)] {
            for (to, m) in insts[r.index()].link_change(&topo).msgs {
                queue.push((r, to, m));
            }
        }
        pump(&topo, &mut insts, queue);
        assert!(
            !insts[0].table().contains_key(&lb3),
            "R1 must lose the route to R3's loopback"
        );
    }

    #[test]
    fn infinity_caps_metric() {
        // A route advertised at metric 15 becomes 16 on receipt → dropped.
        let topo = shapes::line(2);
        let mut a = RipInstance::new(RouterId(0));
        let _ = a.start(&topo);
        let msg = RipMsg {
            routes: vec![("99.0.0.0/8".parse().unwrap(), 15)],
        };
        let out = a.recv(&topo, RouterId(1), msg);
        assert!(out.deltas.is_empty());
        assert!(!a.table().contains_key(&"99.0.0.0/8".parse().unwrap()));
    }

    #[test]
    fn better_metric_wins_worse_is_ignored() {
        let topo = shapes::ring(3);
        let mut a = RipInstance::new(RouterId(0));
        let _ = a.start(&topo);
        let p: Ipv4Prefix = "99.0.0.0/8".parse().unwrap();
        let _ = a.recv(
            &topo,
            RouterId(1),
            RipMsg {
                routes: vec![(p, 5)],
            },
        );
        assert_eq!(a.table()[&p].metric, 6);
        // Worse offer from another neighbor: ignored.
        let _ = a.recv(
            &topo,
            RouterId(2),
            RipMsg {
                routes: vec![(p, 9)],
            },
        );
        assert_eq!(a.table()[&p].metric, 6);
        assert_eq!(a.table()[&p].next_hop.unwrap().0, RouterId(1));
        // Better offer: switch.
        let _ = a.recv(
            &topo,
            RouterId(2),
            RipMsg {
                routes: vec![(p, 2)],
            },
        );
        assert_eq!(a.table()[&p].metric, 3);
        assert_eq!(a.table()[&p].next_hop.unwrap().0, RouterId(2));
    }

    #[test]
    fn successor_worsening_is_accepted() {
        let topo = shapes::line(2);
        let mut a = RipInstance::new(RouterId(0));
        let _ = a.start(&topo);
        let p: Ipv4Prefix = "99.0.0.0/8".parse().unwrap();
        let _ = a.recv(
            &topo,
            RouterId(1),
            RipMsg {
                routes: vec![(p, 2)],
            },
        );
        assert_eq!(a.table()[&p].metric, 3);
        let _ = a.recv(
            &topo,
            RouterId(1),
            RipMsg {
                routes: vec![(p, 7)],
            },
        );
        assert_eq!(
            a.table()[&p].metric,
            8,
            "current successor may worsen the route"
        );
    }

    #[test]
    fn poison_from_successor_withdraws_and_propagates() {
        let topo = shapes::line(2);
        let mut a = RipInstance::new(RouterId(0));
        let _ = a.start(&topo);
        let p: Ipv4Prefix = "99.0.0.0/8".parse().unwrap();
        let _ = a.recv(
            &topo,
            RouterId(1),
            RipMsg {
                routes: vec![(p, 2)],
            },
        );
        assert!(a.table().contains_key(&p));
        let out = a.recv(
            &topo,
            RouterId(1),
            RipMsg {
                routes: vec![(p, INFINITY)],
            },
        );
        assert!(!a.table().contains_key(&p));
        // The triggered update must carry the poison onward.
        let poisons: Vec<u32> = out
            .msgs
            .iter()
            .flat_map(|(_, m)| m.routes.iter())
            .filter(|(pp, _)| *pp == p)
            .map(|(_, m)| *m)
            .collect();
        assert!(!poisons.is_empty());
        assert!(poisons.iter().all(|m| *m == INFINITY));
        // Tombstone is gone afterwards: next advert omits the prefix.
        let ads = a.advertisements(&topo);
        assert!(ads
            .iter()
            .all(|(_, m)| m.routes.iter().all(|(pp, _)| *pp != p)));
    }

    #[test]
    fn message_from_dead_neighbor_ignored() {
        let mut topo = shapes::line(2);
        let mut a = RipInstance::new(RouterId(0));
        let _ = a.start(&topo);
        let l = topo.link_between(RouterId(0), RouterId(1)).unwrap().id;
        topo.set_link_state(l, LinkState::Down);
        let out = a.recv(
            &topo,
            RouterId(1),
            RipMsg {
                routes: vec![("99.0.0.0/8".parse().unwrap(), 1)],
            },
        );
        assert!(out.msgs.is_empty());
        assert!(out.deltas.is_empty());
    }
}
