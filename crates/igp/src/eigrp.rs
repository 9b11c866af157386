//! EIGRP-lite: a DUAL distance-vector IGP.
//!
//! Implements the DUAL machinery that changes *routing outcomes and event
//! ordering*: per-neighbor reported distances, the feasibility condition
//! (a neighbor is a feasible successor iff its reported distance is
//! strictly below our feasible distance, guaranteeing loop freedom),
//! passive/active route states, and query/reply diffusing computations.
//! The simplification relative to full EIGRP: we do not count outstanding
//! replies — a route in active state revives as soon as the first usable
//! reply or update arrives, and the feasible distance resets at that
//! moment (which is exactly when full DUAL would reset it, just without
//! the synchronization barrier). Composite metrics are reduced to additive
//! link costs.
//!
//! Why EIGRP is here at all: the paper's §4.1 notes that EIGRP's
//! happens-before rule differs from BGP's — `[R install P in FIB] → [R
//! send EIGRP advertisement for P]`, i.e. EIGRP advertises only after the
//! FIB install, not after the RIB install. The simulator emits I/O events
//! in exactly that order for EIGRP instances, giving the inference engine
//! a protocol with genuinely different rules to learn.

use crate::{diff_tables, IgpOutputs, IgpRoute};
use cpvr_topo::{LinkId, Topology};
use cpvr_types::{Ipv4Prefix, RouterId};
use std::collections::BTreeMap;

/// Metric representing unreachability in advertisements and replies.
pub const UNREACHABLE: u32 = u32::MAX;

/// EIGRP protocol messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EigrpMsg {
    /// A (triggered) update: `(prefix, reported distance)` pairs. A
    /// reported distance of [`UNREACHABLE`] is a poison.
    Update {
        /// Advertised vectors.
        routes: Vec<(Ipv4Prefix, u32)>,
    },
    /// The sender lost its route for `prefix` and is asking for ours. A
    /// query also implies the sender's route is unreachable (EIGRP queries
    /// carry the route as unreachable).
    Query {
        /// The prefix in question.
        prefix: Ipv4Prefix,
    },
    /// Answer to a [`EigrpMsg::Query`]: the responder's own distance.
    Reply {
        /// The prefix in question.
        prefix: Ipv4Prefix,
        /// The responder's current distance, or [`UNREACHABLE`].
        rd: u32,
    },
}

/// Per-prefix DUAL state.
#[derive(Clone, Debug, Default)]
struct DualState {
    /// Reported distance per neighbor. Absent = never advertised or
    /// poisoned.
    reported: BTreeMap<RouterId, u32>,
    /// Feasible distance while the route is passive; `None` while active
    /// (or never had a route).
    fd: Option<u32>,
    /// True while a diffusing computation is outstanding (prevents query
    /// storms).
    active: bool,
    /// Locally connected cost, if this prefix is ours.
    local: Option<u32>,
}

/// One router's EIGRP instance.
#[derive(Clone, Debug)]
pub struct EigrpInstance {
    me: RouterId,
    state: BTreeMap<Ipv4Prefix, DualState>,
    table: BTreeMap<Ipv4Prefix, IgpRoute>,
}

impl EigrpInstance {
    /// Creates an instance for router `me`.
    pub fn new(me: RouterId) -> Self {
        EigrpInstance {
            me,
            state: BTreeMap::new(),
            table: BTreeMap::new(),
        }
    }

    /// The current route table.
    pub fn table(&self) -> &BTreeMap<Ipv4Prefix, IgpRoute> {
        &self.table
    }

    /// Starts the instance: installs connected prefixes and advertises.
    pub fn start(&mut self, topo: &Topology) -> IgpOutputs<EigrpMsg> {
        let me = topo.router(self.me);
        self.state
            .entry(Ipv4Prefix::host(me.loopback))
            .or_default()
            .local = Some(0);
        for iface in &me.ifaces {
            self.state.entry(iface.subnet).or_default().local = Some(0);
        }
        let (mut out, queries) = self.rebuild(topo);
        out.msgs = self.full_update_msgs(topo);
        self.append_queries(topo, queries, &mut out);
        out
    }

    /// Handles a local link-status change.
    pub fn link_change(&mut self, topo: &Topology) -> IgpOutputs<EigrpMsg> {
        let live: Vec<RouterId> = topo
            .up_neighbors(self.me)
            .into_iter()
            .map(|(nb, _)| nb)
            .collect();
        for st in self.state.values_mut() {
            st.reported.retain(|nb, _| live.contains(nb));
        }
        let before = self.table.clone();
        let (mut out, queries) = self.rebuild(topo);
        if self.table != before {
            out.msgs = self.full_update_msgs(topo);
        }
        self.append_queries(topo, queries, &mut out);
        out
    }

    /// Handles a message from a neighbor.
    pub fn recv(&mut self, topo: &Topology, from: RouterId, msg: EigrpMsg) -> IgpOutputs<EigrpMsg> {
        if !topo.up_neighbors(self.me).iter().any(|(nb, _)| *nb == from) {
            return IgpOutputs::empty();
        }
        match msg {
            EigrpMsg::Update { routes } => {
                for (prefix, rd) in &routes {
                    let st = self.state.entry(*prefix).or_default();
                    if *rd == UNREACHABLE {
                        st.reported.remove(&from);
                    } else {
                        st.reported.insert(from, *rd);
                    }
                }
                let before = self.table.clone();
                let (mut out, queries) = self.rebuild(topo);
                if self.table != before {
                    out.msgs = self.full_update_msgs(topo);
                }
                self.append_queries(topo, queries, &mut out);
                out
            }
            EigrpMsg::Query { prefix } => {
                // The querier has no route; its reported distance is gone.
                self.state.entry(prefix).or_default().reported.remove(&from);
                let before = self.table.clone();
                let (mut out, queries) = self.rebuild(topo);
                if self.table != before {
                    out.msgs = self.full_update_msgs(topo);
                }
                self.append_queries(topo, queries, &mut out);
                // Always answer with our own (post-rebuild) distance.
                out.msgs.push((
                    from,
                    EigrpMsg::Reply {
                        prefix,
                        rd: self.own_distance(&prefix),
                    },
                ));
                out
            }
            EigrpMsg::Reply { prefix, rd } => {
                let st = self.state.entry(prefix).or_default();
                if rd == UNREACHABLE {
                    st.reported.remove(&from);
                } else {
                    st.reported.insert(from, rd);
                }
                let before = self.table.clone();
                let (mut out, queries) = self.rebuild(topo);
                if self.table != before {
                    out.msgs = self.full_update_msgs(topo);
                }
                self.append_queries(topo, queries, &mut out);
                out
            }
        }
    }

    /// Distance this router would advertise for `prefix`, or
    /// [`UNREACHABLE`].
    fn own_distance(&self, prefix: &Ipv4Prefix) -> u32 {
        self.table
            .get(prefix)
            .map(|r| r.metric)
            .unwrap_or(UNREACHABLE)
    }

    /// Recomputes successors under DUAL. Returns the outputs (deltas only)
    /// plus the prefixes that entered active state and need queries.
    fn rebuild(&mut self, topo: &Topology) -> (IgpOutputs<EigrpMsg>, Vec<Ipv4Prefix>) {
        let mut nb_cost: BTreeMap<RouterId, (u32, LinkId)> = BTreeMap::new();
        for (nb, l) in topo.up_neighbors(self.me) {
            nb_cost.entry(nb).or_insert((topo.link(l).igp_cost, l));
        }
        let mut new_table: BTreeMap<Ipv4Prefix, IgpRoute> = BTreeMap::new();
        let mut to_query: Vec<Ipv4Prefix> = Vec::new();
        let mut dead: Vec<Ipv4Prefix> = Vec::new();
        for (prefix, st) in self.state.iter_mut() {
            // Local routes win outright and are always passive.
            if let Some(c) = st.local {
                st.fd = Some(c);
                st.active = false;
                new_table.insert(
                    *prefix,
                    IgpRoute {
                        metric: c,
                        next_hop: None,
                    },
                );
                continue;
            }
            // Candidate distances via each live neighbor.
            let candidates: Vec<(u32, RouterId, LinkId, u32)> = st
                .reported
                .iter()
                .filter_map(|(nb, rd)| {
                    nb_cost
                        .get(nb)
                        .map(|(cost, link)| (rd.saturating_add(*cost), *nb, *link, *rd))
                })
                .collect();
            match st.fd {
                // Passive: only feasible successors (RD < FD) may be used.
                Some(fd) => {
                    let best_fs = candidates
                        .iter()
                        .filter(|(_, _, _, rd)| *rd < fd)
                        .min_by_key(|(d, nb, _, _)| (*d, *nb));
                    match best_fs {
                        Some(&(dist, nb, link, _)) => {
                            st.fd = Some(fd.min(dist));
                            new_table.insert(
                                *prefix,
                                IgpRoute {
                                    metric: dist,
                                    next_hop: Some((nb, link)),
                                },
                            );
                        }
                        None => {
                            // No feasible successor: go active and query.
                            st.fd = None;
                            if !st.active {
                                st.active = true;
                                to_query.push(*prefix);
                            }
                        }
                    }
                }
                // Active (or fresh): the first usable answer re-seats the
                // route and resets FD, ending the diffusing computation.
                None => {
                    let best = candidates.iter().min_by_key(|(d, nb, _, _)| (*d, *nb));
                    match best {
                        Some(&(dist, nb, link, _)) => {
                            st.fd = Some(dist);
                            st.active = false;
                            new_table.insert(
                                *prefix,
                                IgpRoute {
                                    metric: dist,
                                    next_hop: Some((nb, link)),
                                },
                            );
                        }
                        None => {
                            if st.reported.is_empty() && !st.active {
                                dead.push(*prefix);
                            }
                        }
                    }
                }
            }
        }
        for p in dead {
            self.state.remove(&p);
        }
        let deltas = diff_tables(&self.table, &new_table);
        self.table = new_table;
        (
            IgpOutputs {
                msgs: Vec::new(),
                deltas,
            },
            to_query,
        )
    }

    /// Appends Query messages for newly active prefixes, to all up
    /// neighbors.
    fn append_queries(
        &self,
        topo: &Topology,
        queries: Vec<Ipv4Prefix>,
        out: &mut IgpOutputs<EigrpMsg>,
    ) {
        let mut nbs: Vec<RouterId> = topo
            .up_neighbors(self.me)
            .into_iter()
            .map(|(nb, _)| nb)
            .collect();
        nbs.sort();
        nbs.dedup();
        for prefix in queries {
            for nb in &nbs {
                out.msgs.push((*nb, EigrpMsg::Query { prefix }));
            }
        }
    }

    /// Per-neighbor full-table updates with split horizon + poisoned
    /// reverse.
    fn full_update_msgs(&self, topo: &Topology) -> Vec<(RouterId, EigrpMsg)> {
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
                    .state
                    .keys()
                    .map(|p| {
                        let through_nb = matches!(
                            self.table.get(p).and_then(|r| r.next_hop),
                            Some((v, _)) if v == nb
                        );
                        let d = if through_nb {
                            UNREACHABLE
                        } else {
                            self.own_distance(p)
                        };
                        (*p, d)
                    })
                    .collect();
                (nb, EigrpMsg::Update { routes })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpvr_topo::builder::{shapes, TopologyBuilder};
    use cpvr_topo::{LinkState, Topology};

    fn converge(topo: &Topology, insts: &mut [EigrpInstance]) {
        let mut queue: Vec<(RouterId, RouterId, EigrpMsg)> = Vec::new();
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
        insts: &mut [EigrpInstance],
        mut queue: Vec<(RouterId, RouterId, EigrpMsg)>,
    ) {
        let mut n = 0;
        while let Some((from, to, msg)) = queue.pop() {
            n += 1;
            assert!(n < 500_000, "EIGRP did not quiesce");
            for (nxt, m) in insts[to.index()].recv(topo, from, msg).msgs {
                queue.push((to, nxt, m));
            }
        }
    }

    fn loopback(topo: &Topology, r: RouterId) -> Ipv4Prefix {
        Ipv4Prefix::host(topo.router(r).loopback)
    }

    #[test]
    fn line_converges_with_costs() {
        let topo = shapes::line(4);
        let mut insts: Vec<EigrpInstance> = topo.router_ids().map(EigrpInstance::new).collect();
        converge(&topo, &mut insts);
        let lb = loopback(&topo, RouterId(3));
        let r = insts[0].table()[&lb];
        assert_eq!(r.metric, 30);
        assert_eq!(r.next_hop.unwrap().0, RouterId(1));
    }

    #[test]
    fn feasible_successor_used_after_failure() {
        // Triangle with costs: R1-R2 = 10, R1-R3 = 25, R2-R3 = 10.
        // R1's successor to R3's loopback is via R2 (20); direct R3 (25)
        // has RD 0 < FD 20, so it IS a feasible successor. Failing R1—R2
        // must repair locally to the direct path.
        let mut b = TopologyBuilder::new();
        let r1 = b.router("R1");
        let r2 = b.router("R2");
        let r3 = b.router("R3");
        b.link(r1, r2, 10);
        b.link(r1, r3, 25);
        b.link(r2, r3, 10);
        let mut topo = b.build();
        let mut insts: Vec<EigrpInstance> = topo.router_ids().map(EigrpInstance::new).collect();
        converge(&topo, &mut insts);
        let lb3 = loopback(&topo, r3);
        assert_eq!(insts[0].table()[&lb3].metric, 20);
        assert_eq!(insts[0].table()[&lb3].next_hop.unwrap().0, r2);
        let l = topo.link_between(r1, r2).unwrap().id;
        topo.set_link_state(l, LinkState::Down);
        let mut queue = Vec::new();
        for r in [r1, r2] {
            for (to, m) in insts[r.index()].link_change(&topo).msgs {
                queue.push((r, to, m));
            }
        }
        pump(&topo, &mut insts, queue);
        assert_eq!(insts[0].table()[&lb3].metric, 25);
        assert_eq!(insts[0].table()[&lb3].next_hop.unwrap().0, r3);
    }

    #[test]
    fn poison_withdraws_routes() {
        let topo = shapes::line(3);
        let mut insts: Vec<EigrpInstance> = topo.router_ids().map(EigrpInstance::new).collect();
        converge(&topo, &mut insts);
        let lb3 = loopback(&topo, RouterId(2));
        assert!(insts[0].table().contains_key(&lb3));
        // R2 poisons the route toward R1 explicitly.
        let out = insts[0].recv(
            &topo,
            RouterId(1),
            EigrpMsg::Update {
                routes: vec![(lb3, UNREACHABLE)],
            },
        );
        assert!(!insts[0].table().contains_key(&lb3));
        assert!(out
            .deltas
            .iter()
            .any(|d| d.prefix == lb3 && d.route.is_none()));
        // With no alternatives, the prefix went active: queries go out.
        assert!(out
            .msgs
            .iter()
            .any(|(_, m)| matches!(m, EigrpMsg::Query { prefix } if *prefix == lb3)));
    }

    #[test]
    fn query_gets_reply_with_distance() {
        let topo = shapes::line(3);
        let mut insts: Vec<EigrpInstance> = topo.router_ids().map(EigrpInstance::new).collect();
        converge(&topo, &mut insts);
        let lb1 = loopback(&topo, RouterId(0));
        // R3 queries R2 for R1's loopback; R2 still has it at distance 10.
        let out = insts[1].recv(&topo, RouterId(2), EigrpMsg::Query { prefix: lb1 });
        let reply = out
            .msgs
            .iter()
            .find(|(to, m)| *to == RouterId(2) && matches!(m, EigrpMsg::Reply { .. }))
            .expect("a reply must be sent");
        match &reply.1 {
            EigrpMsg::Reply { prefix, rd } => {
                assert_eq!(*prefix, lb1);
                assert_eq!(*rd, 10);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn split_horizon_poisons_successor_direction() {
        let topo = shapes::line(3);
        let mut insts: Vec<EigrpInstance> = topo.router_ids().map(EigrpInstance::new).collect();
        converge(&topo, &mut insts);
        let ads = insts[1].full_update_msgs(&topo);
        let lb1 = loopback(&topo, RouterId(0));
        for (to, msg) in ads {
            let EigrpMsg::Update { routes } = msg else {
                panic!()
            };
            let d = routes.iter().find(|(p, _)| *p == lb1).unwrap().1;
            if to == RouterId(0) {
                assert_eq!(d, UNREACHABLE);
            } else {
                assert_eq!(d, 10);
            }
        }
    }

    #[test]
    fn unreachable_when_no_feasible_successor() {
        let topo = shapes::line(3);
        let mut insts: Vec<EigrpInstance> = topo.router_ids().map(EigrpInstance::new).collect();
        converge(&topo, &mut insts);
        let lb1 = loopback(&topo, RouterId(0));
        // R3's only path to R1's loopback is via R2; poison it.
        let _ = insts[2].recv(
            &topo,
            RouterId(1),
            EigrpMsg::Update {
                routes: vec![(lb1, UNREACHABLE)],
            },
        );
        assert!(!insts[2].table().contains_key(&lb1));
        // A fresh advertisement later is accepted (active state accepts
        // any candidate and resets FD).
        let _ = insts[2].recv(
            &topo,
            RouterId(1),
            EigrpMsg::Update {
                routes: vec![(lb1, 10)],
            },
        );
        assert_eq!(insts[2].table()[&lb1].metric, 20);
    }

    #[test]
    fn fd_blocks_infeasible_detour() {
        // The FC must reject a neighbor whose RD is not below our FD, even
        // if that neighbor offers the only remaining path (count-to-
        // infinity protection): the route goes active instead of looping.
        let topo = shapes::ring(3);
        let mut a = EigrpInstance::new(RouterId(0));
        let _ = a.start(&topo);
        let p: Ipv4Prefix = "99.0.0.0/8".parse().unwrap();
        let _ = a.recv(
            &topo,
            RouterId(1),
            EigrpMsg::Update {
                routes: vec![(p, 0)],
            },
        );
        assert_eq!(a.table()[&p].metric, 10); // FD = 10
                                              // R3 claims RD 50 ≥ FD → not feasible.
        let _ = a.recv(
            &topo,
            RouterId(2),
            EigrpMsg::Update {
                routes: vec![(p, 50)],
            },
        );
        assert_eq!(a.table()[&p].next_hop.unwrap().0, RouterId(1));
        let out = a.recv(
            &topo,
            RouterId(1),
            EigrpMsg::Update {
                routes: vec![(p, UNREACHABLE)],
            },
        );
        assert!(
            !a.table().contains_key(&p),
            "infeasible successor must not be used synchronously"
        );
        // It queried instead; a reply from R3 re-seats the route cleanly.
        assert!(out
            .msgs
            .iter()
            .any(|(_, m)| matches!(m, EigrpMsg::Query { prefix } if *prefix == p)));
        let _ = a.recv(&topo, RouterId(2), EigrpMsg::Reply { prefix: p, rd: 50 });
        assert_eq!(a.table()[&p].metric, 60);
        assert_eq!(a.table()[&p].next_hop.unwrap().0, RouterId(2));
    }

    #[test]
    fn better_path_adopted_even_after_fd_ratchet() {
        // Regression test: a strictly better total distance must always be
        // adopted (its RD is necessarily < current FD when link costs are
        // positive).
        let topo = shapes::ring(3);
        let mut a = EigrpInstance::new(RouterId(0));
        let _ = a.start(&topo);
        let p: Ipv4Prefix = "99.0.0.0/8".parse().unwrap();
        let _ = a.recv(
            &topo,
            RouterId(1),
            EigrpMsg::Update {
                routes: vec![(p, 40)],
            },
        );
        assert_eq!(a.table()[&p].metric, 50);
        let _ = a.recv(
            &topo,
            RouterId(2),
            EigrpMsg::Update {
                routes: vec![(p, 5)],
            },
        );
        assert_eq!(a.table()[&p].metric, 15);
        assert_eq!(a.table()[&p].next_hop.unwrap().0, RouterId(2));
    }

    #[test]
    fn all_pairs_on_grid_match_dijkstra() {
        let topo = shapes::grid(3, 3);
        let mut insts: Vec<EigrpInstance> = topo.router_ids().map(EigrpInstance::new).collect();
        converge(&topo, &mut insts);
        for src in topo.router_ids() {
            let truth = cpvr_topo::graph::dijkstra(&topo, src);
            for dst in topo.router_ids() {
                if src == dst {
                    continue;
                }
                let lb = loopback(&topo, dst);
                assert_eq!(
                    insts[src.index()].table().get(&lb).map(|r| r.metric),
                    truth.dist[dst.index()],
                    "{src}→{dst}"
                );
            }
        }
    }

    #[test]
    fn link_failure_reroutes_on_grid() {
        let mut topo = shapes::grid(2, 3);
        let mut insts: Vec<EigrpInstance> = topo.router_ids().map(EigrpInstance::new).collect();
        converge(&topo, &mut insts);
        let l = topo.link_between(RouterId(0), RouterId(1)).unwrap().id;
        topo.set_link_state(l, LinkState::Down);
        let mut queue = Vec::new();
        for r in [RouterId(0), RouterId(1)] {
            for (to, m) in insts[r.index()].link_change(&topo).msgs {
                queue.push((r, to, m));
            }
        }
        pump(&topo, &mut insts, queue);
        for src in topo.router_ids() {
            let truth = cpvr_topo::graph::dijkstra(&topo, src);
            for dst in topo.router_ids() {
                if src == dst {
                    continue;
                }
                let lb = loopback(&topo, dst);
                assert_eq!(
                    insts[src.index()].table().get(&lb).map(|r| r.metric),
                    truth.dist[dst.index()],
                    "post-failure {src}→{dst}"
                );
            }
        }
    }
}
