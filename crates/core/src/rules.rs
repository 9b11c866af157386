//! Protocol rule matching (§4.1 + §4.2 "Rule matching").
//!
//! The paper lists generic happens-before rules that all common routing
//! protocols obey, plus protocol-specific ones:
//!
//! * `[R recv C advert P] → [R install P in C RIB]`
//! * `[R install P in C RIB] → [R install P in FIB]`
//! * BGP: `[R install P in BGP RIB] → [R send BGP advert P]`
//! * EIGRP: `[R install P in FIB] → [R send EIGRP advert P]`
//! * `[R' send C advert P to R] → [R recv C advert P from R']`
//! * `[R config change] → [R soft reconfiguration] → outputs`
//! * `[R hardware status change] → outputs`
//!
//! Given an I/O that matches a rule's right-hand side, the matcher
//! searches the timestamp- and prefix-filtered stream for the most recent
//! I/O matching the left-hand side (the paper's prefix and timestamp
//! techniques are exactly these filters — necessary but not sufficient,
//! so they only scope the search). The implementation is a single
//! forward sweep over the time-sorted trace with nearest-match maps, so
//! inference is O(events).

use crate::hbg::{Hbr, HbrSource};
use cpvr_bgp::PeerRef;
use cpvr_sim::{EventId, IoEvent, IoKind, Proto, Trace};
use cpvr_types::{Ipv4Prefix, RouterId, SimTime};
use std::collections::HashMap;

/// Coarse event classes used by rule matching and pattern mining.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum KindClass {
    /// Configuration input.
    Config,
    /// Soft-reconfiguration marker.
    Soft,
    /// Hardware status input.
    Link,
    /// Received advertisement.
    RecvAd,
    /// Received withdrawal.
    RecvWd,
    /// RIB install/update.
    RibIn,
    /// RIB removal.
    RibRm,
    /// FIB install/update.
    FibIn,
    /// FIB removal.
    FibRm,
    /// Sent advertisement.
    SendAd,
    /// Sent withdrawal.
    SendWd,
}

/// The (class, protocol) signature of an event.
pub fn sig(e: &IoEvent) -> (KindClass, Option<Proto>) {
    match &e.kind {
        IoKind::ConfigChange { .. } => (KindClass::Config, None),
        IoKind::SoftReconfig { .. } => (KindClass::Soft, None),
        IoKind::LinkStatus { .. } => (KindClass::Link, None),
        IoKind::RecvAdvert { proto, .. } => (KindClass::RecvAd, Some(*proto)),
        IoKind::RecvWithdraw { proto, .. } => (KindClass::RecvWd, Some(*proto)),
        IoKind::RibInstall { proto, .. } => (KindClass::RibIn, Some(*proto)),
        IoKind::RibRemove { proto, .. } => (KindClass::RibRm, Some(*proto)),
        IoKind::FibInstall { .. } => (KindClass::FibIn, None),
        IoKind::FibRemove { .. } => (KindClass::FibRm, None),
        IoKind::SendAdvert { proto, .. } => (KindClass::SendAd, Some(*proto)),
        IoKind::SendWithdraw { proto, .. } => (KindClass::SendWd, Some(*proto)),
    }
}

/// A "most recent occurrence" cell: all event ids sharing the latest
/// timestamp for a key (batched I/Os share timestamps, e.g. the
/// announcements of one BGP update message). The first id lives inline;
/// only a same-timestamp batch spills to the heap.
#[derive(Clone, Debug, Default)]
struct Latest {
    time: SimTime,
    /// `None` until the first [`note`](Self::note).
    first: Option<EventId>,
    rest: Vec<EventId>,
}

impl Latest {
    fn note(&mut self, id: EventId, t: SimTime) {
        if self.first.is_none() || t > self.time {
            self.time = t;
            self.first = Some(id);
            self.rest.clear();
        } else if t == self.time {
            self.rest.push(id);
        }
    }

    fn ids(&self) -> impl Iterator<Item = EventId> + '_ {
        self.first.into_iter().chain(self.rest.iter().copied())
    }
}

/// Nearest-match state maintained during the sweep.
#[derive(Clone, Default)]
struct Maps {
    /// (router, proto, prefix?) → latest recv (advert or withdraw).
    recv: HashMap<(RouterId, Proto, Option<Ipv4Prefix>), Latest>,
    /// (router, proto) → latest recv of any prefix (for OSPF-style and
    /// fallback matching).
    recv_any: HashMap<(RouterId, Proto), Latest>,
    /// (router, proto, prefix) → latest RIB event.
    rib: HashMap<(RouterId, Proto, Ipv4Prefix), Latest>,
    /// router → latest IGP RIB event of any prefix (BGP next-hop
    /// resolution fallback).
    igp_rib_any: HashMap<RouterId, Latest>,
    /// (router, prefix) → latest FIB event.
    fib: HashMap<(RouterId, Ipv4Prefix), Latest>,
    /// (sender, addressee, proto, prefix?) → latest send.
    send: HashMap<(RouterId, RouterId, Proto, Option<Ipv4Prefix>), Latest>,
    /// router → latest soft reconfiguration.
    soft: HashMap<RouterId, Latest>,
    /// router → latest hardware status change.
    link: HashMap<RouterId, Latest>,
    /// router → latest configuration input.
    config: HashMap<RouterId, Latest>,
}

/// The candidate antecedent cells of one consequent, each with the rule
/// that proposed it: borrowed from the [`Maps`], on the stack. No arm of
/// [`RuleSweep::step`] proposes more than six.
#[derive(Default)]
struct Candidates<'a> {
    cells: [Option<(&'a Latest, &'static str)>; 6],
    len: usize,
}

impl<'a> Candidates<'a> {
    fn push(&mut self, cell: Option<&'a Latest>, rule: &'static str, before: SimTime) {
        if let Some(l) = cell.filter(|l| l.first.is_some() && l.time <= before) {
            self.cells[self.len] = Some((l, rule));
            self.len += 1;
        }
    }

    fn iter(&self) -> impl Iterator<Item = (&'a Latest, &'static str)> + '_ {
        self.cells[..self.len].iter().flatten().copied()
    }
}

/// Which rule classes a [`RuleSweep`] applies — the knob that makes rule
/// matching shardable.
///
/// Every rule except send→recv relates two events *on the same router*
/// (all its candidate maps are keyed by the consequent's router and
/// populated only by that router's events). The send→recv rule is the
/// sole cross-router rule, and it is the *only* rule that ever fires for
/// a recv consequent. Splitting on that line lets per-router shards and
/// per-(proto, prefix) shards each reproduce their half of the sequential
/// output exactly — including the proximate-cause filter, which never
/// mixes candidates across the two halves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RuleScope {
    /// Apply every rule (the sequential batch and incremental paths).
    All,
    /// Router-local rules only; the send→recv rule is skipped. Feed one
    /// router's events.
    LocalOnly,
    /// The send→recv rule only. Feed the send/recv events of one
    /// (proto, prefix) group — the send map is keyed by
    /// `(sender, addressee, proto, prefix)`, so lookups never leave the
    /// group.
    CrossOnly,
}

/// A resumable rule-matching sweep.
///
/// Feed events in `(time, id)` order via [`step`](RuleSweep::step); each
/// call appends the HBRs whose consequent is that event. This is the one
/// code path shared by [`match_rules`] (batch), the parallel shards of
/// [`infer_hbg_parallel`](crate::infer::infer_hbg_parallel), and the
/// incremental [`HbgBuilder`](crate::builder::HbgBuilder).
#[derive(Clone, Default)]
pub struct RuleSweep {
    maps: Maps,
}

impl RuleSweep {
    /// A fresh sweep with empty nearest-match state.
    pub fn new() -> Self {
        RuleSweep::default()
    }

    /// Processes one event: appends the matched HBRs (consequent `e`) to
    /// `out`, then folds `e` into the nearest-match maps. Events must be
    /// fed in `(time, id)` order.
    pub fn step(&mut self, e: &IoEvent, scope: RuleScope, out: &mut Vec<Hbr>) {
        let maps = &self.maps;
        let mut cands = Candidates::default();
        let r = e.router;
        let t = e.time;
        let local = scope != RuleScope::CrossOnly;
        let cross = scope != RuleScope::LocalOnly;
        match &e.kind {
            IoKind::ConfigChange { .. } | IoKind::LinkStatus { .. } => {
                // Inputs from outside the control plane: roots.
            }
            IoKind::SoftReconfig { .. } if local => {
                cands.push(maps.config.get(&r), "config->soft", t);
            }
            IoKind::RecvAdvert {
                proto,
                prefix,
                from,
                ..
            }
            | IoKind::RecvWithdraw {
                proto,
                prefix,
                from,
                ..
            } if cross => {
                // [R' send P to R] → [R recv P from R'].
                if let Some(PeerRef::Internal(sender)) = from {
                    cands.push(
                        maps.send.get(&(*sender, r, *proto, *prefix)),
                        "send->recv",
                        t,
                    );
                }
            }
            IoKind::RibInstall { proto, prefix, .. } | IoKind::RibRemove { proto, prefix }
                if local =>
            {
                // [recv advert P] → [install P in RIB], plus the
                // non-message triggers: soft reconfig, hardware change,
                // and (for BGP) IGP RIB changes that re-resolve next hops.
                cands.push(maps.recv.get(&(r, *proto, Some(*prefix))), "recv->rib", t);
                if *proto != Proto::Bgp {
                    // Link-state and DV protocols update many prefixes per
                    // message; the message is not per-prefix (OSPF) or may
                    // batch (RIP/EIGRP).
                    cands.push(maps.recv_any.get(&(r, *proto)), "recv*->rib", t);
                }
                cands.push(maps.soft.get(&r), "soft->rib", t);
                cands.push(maps.link.get(&r), "link->rib", t);
                cands.push(maps.config.get(&r), "config->rib", t);
                if *proto == Proto::Bgp {
                    cands.push(maps.igp_rib_any.get(&r), "igprib->bgprib", t);
                }
            }
            IoKind::FibInstall { prefix, .. } | IoKind::FibRemove { prefix } if local => {
                // [install P in RIB] → [install P in FIB], any protocol.
                for proto in [Proto::Bgp, Proto::Ospf, Proto::Rip, Proto::Eigrp] {
                    cands.push(maps.rib.get(&(r, proto, *prefix)), "rib->fib", t);
                }
            }
            IoKind::SendAdvert { proto, prefix, .. }
            | IoKind::SendWithdraw { proto, prefix, .. }
                if local =>
            {
                match proto {
                    Proto::Eigrp => {
                        // EIGRP: [install P in FIB] → [send P] (§4.1).
                        if let Some(p) = prefix {
                            cands.push(maps.fib.get(&(r, *p)), "fib->send", t);
                        }
                        cands.push(maps.recv_any.get(&(r, Proto::Eigrp)), "recv*->send", t);
                    }
                    Proto::Bgp => {
                        // BGP: [install P in BGP RIB] → [send P].
                        if let Some(p) = prefix {
                            cands.push(maps.rib.get(&(r, Proto::Bgp, *p)), "rib->send", t);
                            cands.push(maps.recv.get(&(r, Proto::Bgp, Some(*p))), "recv->send", t);
                        }
                        cands.push(maps.soft.get(&r), "soft->send", t);
                    }
                    Proto::Ospf | Proto::Rip => {
                        if let Some(p) = prefix {
                            cands.push(maps.rib.get(&(r, *proto, *p)), "rib->send", t);
                        }
                        // Flooding: a send is usually triggered directly
                        // by the message (or hardware event) that carried
                        // the news.
                        cands.push(maps.recv_any.get(&(r, *proto)), "recv*->send", t);
                        cands.push(maps.link.get(&r), "link->send", t);
                        cands.push(maps.config.get(&r), "config->send", t);
                    }
                }
            }
            _ => {}
        }
        // The most recent candidate class wins (causes are proximate);
        // ties across classes all count.
        if let Some(best_t) = cands.iter().map(|(l, _)| l.time).max() {
            for (l, rule) in cands.iter().filter(|(l, _)| l.time == best_t) {
                out.extend(l.ids().filter(|id| *id != e.id).map(|id| Hbr {
                    from: id,
                    to: e.id,
                    confidence: 1.0,
                    source: HbrSource::Rule(rule),
                }));
            }
        }
        // Update the maps with this event.
        let maps = &mut self.maps;
        let id = e.id;
        match &e.kind {
            IoKind::ConfigChange { .. } => maps.config.entry(r).or_default().note(id, t),
            IoKind::SoftReconfig { .. } => maps.soft.entry(r).or_default().note(id, t),
            IoKind::LinkStatus { .. } => maps.link.entry(r).or_default().note(id, t),
            IoKind::RecvAdvert { proto, prefix, .. }
            | IoKind::RecvWithdraw { proto, prefix, .. } => {
                maps.recv
                    .entry((r, *proto, *prefix))
                    .or_default()
                    .note(id, t);
                maps.recv_any.entry((r, *proto)).or_default().note(id, t);
            }
            IoKind::RibInstall { proto, prefix, .. } | IoKind::RibRemove { proto, prefix } => {
                maps.rib
                    .entry((r, *proto, *prefix))
                    .or_default()
                    .note(id, t);
                if *proto != Proto::Bgp {
                    maps.igp_rib_any.entry(r).or_default().note(id, t);
                }
            }
            IoKind::FibInstall { prefix, .. } | IoKind::FibRemove { prefix } => {
                maps.fib.entry((r, *prefix)).or_default().note(id, t);
            }
            IoKind::SendAdvert {
                proto, prefix, to, ..
            }
            | IoKind::SendWithdraw { proto, prefix, to } => {
                if let Some(PeerRef::Internal(addressee)) = to {
                    maps.send
                        .entry((r, *addressee, *proto, *prefix))
                        .or_default()
                        .note(id, t);
                }
            }
        }
    }
}

/// Runs rule matching over a set of events (must be from the same trace;
/// typically either all events or only those that have arrived at the
/// verifier). Returns the inferred HBRs.
pub fn match_rules(events: &[&IoEvent]) -> Vec<Hbr> {
    let mut sorted: Vec<&IoEvent> = events.to_vec();
    sorted.sort_by_key(|e| (e.time, e.id));
    let mut sweep = RuleSweep::new();
    let mut out = Vec::new();
    for e in &sorted {
        sweep.step(e, RuleScope::All, &mut out);
    }
    out
}

/// Convenience: rule matching over a whole trace.
pub fn match_rules_on(trace: &Trace) -> Vec<Hbr> {
    let refs: Vec<&IoEvent> = trace.events.iter().collect();
    match_rules(&refs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpvr_sim::IoEvent;

    fn pfx(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    struct TB {
        events: Vec<IoEvent>,
    }

    impl TB {
        fn new() -> Self {
            TB { events: Vec::new() }
        }
        fn ev(&mut self, router: u32, t_us: u64, kind: IoKind) -> EventId {
            let id = EventId(self.events.len() as u32);
            self.events.push(IoEvent {
                id,
                router: RouterId(router),
                time: SimTime::from_micros(t_us),
                arrived_at: Some(SimTime::from_micros(t_us)),
                kind,
            });
            id
        }
        fn run(&self) -> Vec<Hbr> {
            let refs: Vec<&IoEvent> = self.events.iter().collect();
            match_rules(&refs)
        }
    }

    fn has_edge(hbrs: &[Hbr], from: EventId, to: EventId) -> bool {
        hbrs.iter().any(|h| h.from == from && h.to == to)
    }

    #[test]
    fn recv_to_rib_to_fib_to_send_chain() {
        let mut b = TB::new();
        let p = pfx("8.8.8.0/24");
        let recv = b.ev(
            0,
            0,
            IoKind::RecvAdvert {
                proto: Proto::Bgp,
                prefix: Some(p),
                from: Some(PeerRef::Internal(RouterId(1))),
                route: None,
            },
        );
        let rib = b.ev(
            0,
            10,
            IoKind::RibInstall {
                proto: Proto::Bgp,
                prefix: p,
                route: None,
            },
        );
        let fib = b.ev(
            0,
            20,
            IoKind::FibInstall {
                prefix: p,
                action: cpvr_dataplane::FibAction::Drop,
            },
        );
        let send = b.ev(
            0,
            30,
            IoKind::SendAdvert {
                proto: Proto::Bgp,
                prefix: Some(p),
                to: Some(PeerRef::Internal(RouterId(2))),
                route: None,
            },
        );
        let hbrs = b.run();
        assert!(has_edge(&hbrs, recv, rib));
        assert!(has_edge(&hbrs, rib, fib));
        assert!(has_edge(&hbrs, rib, send), "BGP sends after RIB install");
        assert!(
            !has_edge(&hbrs, fib, send),
            "BGP send must not hang off the FIB"
        );
    }

    #[test]
    fn eigrp_send_hangs_off_fib() {
        let mut b = TB::new();
        let p = pfx("10.0.0.0/8");
        let _rib = b.ev(
            0,
            10,
            IoKind::RibInstall {
                proto: Proto::Eigrp,
                prefix: p,
                route: None,
            },
        );
        let fib = b.ev(
            0,
            20,
            IoKind::FibInstall {
                prefix: p,
                action: cpvr_dataplane::FibAction::Local,
            },
        );
        let send = b.ev(
            0,
            30,
            IoKind::SendAdvert {
                proto: Proto::Eigrp,
                prefix: Some(p),
                to: Some(PeerRef::Internal(RouterId(1))),
                route: None,
            },
        );
        let hbrs = b.run();
        assert!(
            has_edge(&hbrs, fib, send),
            "EIGRP advertises after the FIB install (§4.1)"
        );
    }

    #[test]
    fn cross_router_send_recv() {
        let mut b = TB::new();
        let p = pfx("8.8.8.0/24");
        let send = b.ev(
            1,
            0,
            IoKind::SendAdvert {
                proto: Proto::Bgp,
                prefix: Some(p),
                to: Some(PeerRef::Internal(RouterId(0))),
                route: None,
            },
        );
        let recv = b.ev(
            0,
            8000,
            IoKind::RecvAdvert {
                proto: Proto::Bgp,
                prefix: Some(p),
                from: Some(PeerRef::Internal(RouterId(1))),
                route: None,
            },
        );
        let hbrs = b.run();
        assert!(has_edge(&hbrs, send, recv));
    }

    #[test]
    fn external_recv_is_root() {
        let mut b = TB::new();
        let p = pfx("8.8.8.0/24");
        let recv = b.ev(
            0,
            0,
            IoKind::RecvAdvert {
                proto: Proto::Bgp,
                prefix: Some(p),
                from: Some(PeerRef::External(cpvr_topo::ExtPeerId(0))),
                route: None,
            },
        );
        let hbrs = b.run();
        assert!(
            hbrs.iter().all(|h| h.to != recv),
            "external recv has no antecedent"
        );
    }

    #[test]
    fn config_soft_rib_chain() {
        let mut b = TB::new();
        let p = pfx("8.8.8.0/24");
        let cfg = b.ev(
            1,
            0,
            IoKind::ConfigChange {
                desc: "lp".into(),
                change: None,
                inverse: None,
            },
        );
        let soft = b.ev(1, 25_000_000, IoKind::SoftReconfig { desc: "lp".into() });
        let rib = b.ev(
            1,
            25_004_000,
            IoKind::RibInstall {
                proto: Proto::Bgp,
                prefix: p,
                route: None,
            },
        );
        let hbrs = b.run();
        assert!(has_edge(&hbrs, cfg, soft));
        assert!(has_edge(&hbrs, soft, rib));
        assert!(
            !has_edge(&hbrs, cfg, rib),
            "rib hangs off the soft reconfig, not the config"
        );
    }

    #[test]
    fn proximate_cause_beats_stale_recv() {
        // An old recv for P exists, but a fresher soft-reconfig is the
        // proximate trigger of the RIB change.
        let mut b = TB::new();
        let p = pfx("8.8.8.0/24");
        let old_recv = b.ev(
            0,
            0,
            IoKind::RecvAdvert {
                proto: Proto::Bgp,
                prefix: Some(p),
                from: Some(PeerRef::External(cpvr_topo::ExtPeerId(0))),
                route: None,
            },
        );
        let soft = b.ev(0, 1_000_000, IoKind::SoftReconfig { desc: "x".into() });
        let rib = b.ev(
            0,
            1_004_000,
            IoKind::RibInstall {
                proto: Proto::Bgp,
                prefix: p,
                route: None,
            },
        );
        let hbrs = b.run();
        assert!(has_edge(&hbrs, soft, rib));
        assert!(!has_edge(&hbrs, old_recv, rib));
    }

    #[test]
    fn batched_recvs_share_the_edge() {
        // Withdraw + announce in one update (same timestamp) both parent
        // the RIB change.
        let mut b = TB::new();
        let p = pfx("8.8.8.0/24");
        let wd = b.ev(
            0,
            100,
            IoKind::RecvWithdraw {
                proto: Proto::Bgp,
                prefix: Some(p),
                from: Some(PeerRef::Internal(RouterId(1))),
            },
        );
        let ad = b.ev(
            0,
            100,
            IoKind::RecvAdvert {
                proto: Proto::Bgp,
                prefix: Some(p),
                from: Some(PeerRef::Internal(RouterId(1))),
                route: None,
            },
        );
        let rib = b.ev(
            0,
            110,
            IoKind::RibInstall {
                proto: Proto::Bgp,
                prefix: p,
                route: None,
            },
        );
        let hbrs = b.run();
        assert!(has_edge(&hbrs, wd, rib));
        assert!(has_edge(&hbrs, ad, rib));
    }

    #[test]
    fn ospf_rib_matches_prefixless_recv() {
        let mut b = TB::new();
        let p = pfx("10.255.0.2/32");
        let recv = b.ev(
            0,
            0,
            IoKind::RecvAdvert {
                proto: Proto::Ospf,
                prefix: None,
                from: Some(PeerRef::Internal(RouterId(1))),
                route: None,
            },
        );
        let rib = b.ev(
            0,
            10,
            IoKind::RibInstall {
                proto: Proto::Ospf,
                prefix: p,
                route: None,
            },
        );
        let hbrs = b.run();
        assert!(has_edge(&hbrs, recv, rib));
    }

    #[test]
    fn antecedent_must_not_be_later() {
        let mut b = TB::new();
        let p = pfx("8.8.8.0/24");
        let rib = b.ev(
            0,
            0,
            IoKind::RibInstall {
                proto: Proto::Bgp,
                prefix: p,
                route: None,
            },
        );
        let _late_recv = b.ev(
            0,
            10,
            IoKind::RecvAdvert {
                proto: Proto::Bgp,
                prefix: Some(p),
                from: Some(PeerRef::Internal(RouterId(1))),
                route: None,
            },
        );
        let hbrs = b.run();
        assert!(hbrs.iter().all(|h| h.to != rib));
    }
}
