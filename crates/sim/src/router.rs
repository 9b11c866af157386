//! The per-router bundle: a BGP speaker plus one IGP instance.

use crate::io::Proto;
use cpvr_bgp::{BgpConfig, BgpInstance, IgpView};
use cpvr_igp::eigrp::{EigrpInstance, EigrpMsg};
use cpvr_igp::ospf::{OspfInstance, OspfMsg};
use cpvr_igp::rip::{RipInstance, RipMsg};
use cpvr_igp::{IgpOutputs, IgpRoute};
use cpvr_topo::{LinkId, Topology};
use cpvr_types::{Ipv4Prefix, RouterId};
use std::collections::BTreeMap;

/// Which IGP a router runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum IgpKind {
    /// OSPF-lite (link-state). The default.
    #[default]
    Ospf,
    /// RIP (distance-vector).
    Rip,
    /// EIGRP-lite (DUAL). Note its different happens-before rule: it
    /// advertises only after the FIB install (§4.1).
    Eigrp,
}

/// Static configuration for one simulated router.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// BGP configuration (sessions, policies, vendor profile, Add-Path).
    pub bgp: BgpConfig,
    /// Which IGP to run.
    pub igp: IgpKind,
}

/// A unified IGP protocol message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum IgpMsg {
    /// An OSPF message.
    Ospf(OspfMsg),
    /// A RIP message.
    Rip(RipMsg),
    /// An EIGRP message.
    Eigrp(EigrpMsg),
}

impl IgpMsg {
    /// `(prefix, is_withdraw)` pairs this message conveys, for I/O
    /// capture. OSPF LSAs are not per-prefix and yield a single
    /// `(None, false)` entry.
    pub(crate) fn captured_prefixes(
        &self,
    ) -> impl Iterator<Item = (Option<Ipv4Prefix>, bool)> + '_ {
        // A message is one entry, or the vectors of a distance-vector
        // update, which withdraw from some metric up.
        type Vectors = [(Ipv4Prefix, u32)];
        let (one, vectors, dead_from): (_, &Vectors, u32) = match self {
            IgpMsg::Ospf(_) => (Some((None, false)), &[], 0),
            IgpMsg::Rip(m) => (None, &m.routes, cpvr_igp::rip::INFINITY),
            IgpMsg::Eigrp(EigrpMsg::Update { routes }) => {
                (None, routes, cpvr_igp::eigrp::UNREACHABLE)
            }
            IgpMsg::Eigrp(EigrpMsg::Query { prefix }) => (Some((Some(*prefix), true)), &[], 0),
            IgpMsg::Eigrp(EigrpMsg::Reply { prefix, rd }) => {
                let dead = *rd == cpvr_igp::eigrp::UNREACHABLE;
                (Some((Some(*prefix), dead)), &[], 0)
            }
        };
        let vectors = vectors
            .iter()
            .map(move |(p, m)| (Some(*p), *m >= dead_from));
        one.into_iter().chain(vectors)
    }
}

/// One router's IGP instance, protocol-erased.
#[derive(Clone, Debug)]
pub(crate) enum IgpRunner {
    /// OSPF-lite.
    Ospf(OspfInstance),
    /// RIP.
    Rip(RipInstance),
    /// EIGRP-lite.
    Eigrp(EigrpInstance),
}

fn wrap<M>(out: IgpOutputs<M>, f: impl Fn(M) -> IgpMsg) -> IgpOutputs<IgpMsg> {
    IgpOutputs {
        msgs: out.msgs.into_iter().map(|(to, m)| (to, f(m))).collect(),
        deltas: out.deltas,
    }
}

impl IgpRunner {
    /// Creates the chosen IGP for router `me`.
    pub(crate) fn new(kind: IgpKind, me: RouterId) -> Self {
        match kind {
            IgpKind::Ospf => IgpRunner::Ospf(OspfInstance::new(me)),
            IgpKind::Rip => IgpRunner::Rip(RipInstance::new(me)),
            IgpKind::Eigrp => IgpRunner::Eigrp(EigrpInstance::new(me)),
        }
    }

    /// Which protocol this is, for I/O event tagging.
    pub(crate) fn proto(&self) -> Proto {
        match self {
            IgpRunner::Ospf(_) => Proto::Ospf,
            IgpRunner::Rip(_) => Proto::Rip,
            IgpRunner::Eigrp(_) => Proto::Eigrp,
        }
    }

    /// Does this protocol advertise only after the FIB install (EIGRP)?
    /// Determines the happens-before structure of emitted send events.
    pub(crate) fn adverts_after_fib(&self) -> bool {
        matches!(self, IgpRunner::Eigrp(_))
    }

    /// Starts the instance.
    pub(crate) fn start(&mut self, topo: &Topology) -> IgpOutputs<IgpMsg> {
        match self {
            IgpRunner::Ospf(i) => wrap(i.start(topo), IgpMsg::Ospf),
            IgpRunner::Rip(i) => wrap(i.start(topo), IgpMsg::Rip),
            IgpRunner::Eigrp(i) => wrap(i.start(topo), IgpMsg::Eigrp),
        }
    }

    /// Reacts to a local link status change.
    pub(crate) fn link_change(&mut self, topo: &Topology) -> IgpOutputs<IgpMsg> {
        match self {
            IgpRunner::Ospf(i) => wrap(i.link_change(topo), IgpMsg::Ospf),
            IgpRunner::Rip(i) => wrap(i.link_change(topo), IgpMsg::Rip),
            IgpRunner::Eigrp(i) => wrap(i.link_change(topo), IgpMsg::Eigrp),
        }
    }

    /// Handles a protocol message from a neighbor. Messages of the wrong
    /// protocol are ignored (cannot happen in a well-formed simulation).
    pub(crate) fn recv(
        &mut self,
        topo: &Topology,
        from: RouterId,
        msg: IgpMsg,
    ) -> IgpOutputs<IgpMsg> {
        match (self, msg) {
            (IgpRunner::Ospf(i), IgpMsg::Ospf(m)) => wrap(i.recv(topo, from, m), IgpMsg::Ospf),
            (IgpRunner::Rip(i), IgpMsg::Rip(m)) => wrap(i.recv(topo, from, m), IgpMsg::Rip),
            (IgpRunner::Eigrp(i), IgpMsg::Eigrp(m)) => wrap(i.recv(topo, from, m), IgpMsg::Eigrp),
            _ => IgpOutputs::empty(),
        }
    }

    /// The current IGP route table.
    pub(crate) fn table(&self) -> &BTreeMap<Ipv4Prefix, IgpRoute> {
        match self {
            IgpRunner::Ospf(i) => i.table(),
            IgpRunner::Rip(i) => i.table(),
            IgpRunner::Eigrp(i) => i.table(),
        }
    }
}

/// Adapts an IGP route table to the [`IgpView`] BGP consumes: loopback
/// reachability is looked up as a /32 host route.
pub(crate) struct IgpTableView<'a> {
    table: &'a BTreeMap<Ipv4Prefix, IgpRoute>,
    topo: &'a Topology,
}

impl<'a> IgpTableView<'a> {
    /// Wraps a table and its topology.
    pub(crate) fn new(table: &'a BTreeMap<Ipv4Prefix, IgpRoute>, topo: &'a Topology) -> Self {
        IgpTableView { table, topo }
    }
}

impl IgpView for IgpTableView<'_> {
    fn metric_to(&self, r: RouterId) -> Option<u32> {
        let lb = Ipv4Prefix::host(self.topo.router(r).loopback);
        self.table.get(&lb).map(|route| route.metric)
    }
    fn next_hop_to(&self, r: RouterId) -> Option<(RouterId, LinkId)> {
        let lb = Ipv4Prefix::host(self.topo.router(r).loopback);
        self.table.get(&lb).and_then(|route| route.next_hop)
    }
}

/// One simulated router: control plane instances. Its FIB lives in the
/// simulation's shared [`DataPlane`](cpvr_dataplane::DataPlane).
#[derive(Clone, Debug)]
pub struct SimRouter {
    /// The BGP speaker.
    pub bgp: BgpInstance,
    /// The IGP instance.
    pub(crate) igp: IgpRunner,
}

impl SimRouter {
    /// Builds a router from its configuration.
    pub(crate) fn new(cfg: &RouterConfig) -> Self {
        let me = cfg.bgp.router;
        SimRouter {
            bgp: BgpInstance::new(cfg.bgp.clone()),
            igp: IgpRunner::new(cfg.igp, me),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpvr_topo::builder::shapes;
    use cpvr_types::AsNum;

    #[test]
    fn runner_dispatch_and_proto_tags() {
        let topo = shapes::line(2);
        for (kind, proto, after_fib) in [
            (IgpKind::Ospf, Proto::Ospf, false),
            (IgpKind::Rip, Proto::Rip, false),
            (IgpKind::Eigrp, Proto::Eigrp, true),
        ] {
            let mut r = IgpRunner::new(kind, RouterId(0));
            assert_eq!(r.proto(), proto);
            assert_eq!(r.adverts_after_fib(), after_fib);
            let out = r.start(&topo);
            assert!(
                !out.deltas.is_empty(),
                "{kind:?} must install local prefixes"
            );
            assert!(!r.table().is_empty());
        }
    }

    #[test]
    fn wrong_protocol_message_ignored() {
        let topo = shapes::line(2);
        let mut r = IgpRunner::new(IgpKind::Ospf, RouterId(0));
        let _ = r.start(&topo);
        let out = r.recv(&topo, RouterId(1), IgpMsg::Rip(RipMsg { routes: vec![] }));
        assert!(out.msgs.is_empty() && out.deltas.is_empty());
    }

    #[test]
    fn table_view_resolves_loopbacks() {
        let topo = shapes::line(2);
        let mut a = IgpRunner::new(IgpKind::Ospf, RouterId(0));
        let mut b = IgpRunner::new(IgpKind::Ospf, RouterId(1));
        let oa = a.start(&topo);
        let ob = b.start(&topo);
        // Exchange initial LSAs directly.
        for (_, m) in ob.msgs {
            let _ = a.recv(&topo, RouterId(1), m);
        }
        for (_, m) in oa.msgs {
            let _ = b.recv(&topo, RouterId(0), m);
        }
        let view = IgpTableView::new(a.table(), &topo);
        assert_eq!(view.metric_to(RouterId(1)), Some(10));
        assert_eq!(view.next_hop_to(RouterId(1)).unwrap().0, RouterId(1));
        assert_eq!(
            view.metric_to(RouterId(0)),
            Some(0),
            "self loopback is local"
        );
    }

    #[test]
    fn captured_prefixes_classify_withdrawals() {
        let p: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        let m = IgpMsg::Rip(RipMsg {
            routes: vec![(p, 3), (p, cpvr_igp::rip::INFINITY)],
        });
        let captured = |m: &IgpMsg| m.captured_prefixes().collect::<Vec<_>>();
        assert_eq!(captured(&m), vec![(Some(p), false), (Some(p), true)]);
        let q = IgpMsg::Eigrp(EigrpMsg::Query { prefix: p });
        assert_eq!(captured(&q), vec![(Some(p), true)]);
        let poison = IgpMsg::Eigrp(EigrpMsg::Update {
            routes: vec![(p, 7), (p, cpvr_igp::eigrp::UNREACHABLE)],
        });
        assert_eq!(captured(&poison), vec![(Some(p), false), (Some(p), true)]);
        let lsa_like = IgpMsg::Ospf(OspfMsg::Flood(cpvr_igp::ospf::Lsa {
            origin: RouterId(0),
            seq: 1,
            links: vec![],
            stubs: vec![],
        }));
        assert_eq!(captured(&lsa_like), vec![(None, false)]);
    }

    #[test]
    fn sim_router_bundles_instances() {
        let cfg = RouterConfig {
            bgp: BgpConfig::new(RouterId(0), AsNum(65000)),
            igp: IgpKind::Ospf,
        };
        let r = SimRouter::new(&cfg);
        assert_eq!(r.bgp.router(), RouterId(0));
        assert_eq!(r.igp.proto(), Proto::Ospf);
    }
}
