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
use crate::snapshot::ConvKey;
use cpvr_bgp::PeerRef;
use cpvr_dataplane::{FibAction, FibUpdate, UpdateKind};
use cpvr_sim::{EventId, IoEvent, IoKind, Proto};
use cpvr_types::hash::WordMap;
use cpvr_types::{Ipv4Prefix, RouterId, SimTime};

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

/// What the fold keeps of one captured event: the interface every local
/// check reads — rule and pattern matching, the pending queue, the
/// tracker's export streams, conversation routing. It is derived from
/// the [`IoEvent`] once, by [`of`](Self::of), the only place the fold
/// looks at an [`IoKind`]; descriptions, config payloads and BGP routes
/// stay behind in the event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FoldRecord {
    /// The router-local time of the event.
    pub time: SimTime,
    /// Capture id.
    pub id: EventId,
    /// The router the event occurred on.
    pub router: RouterId,
    /// Coarse event class.
    pub class: KindClass,
    /// Protocol, for RIB, send and recv events.
    pub proto: Option<Proto>,
    /// The prefix the event concerns, if any (as [`IoKind::prefix`]).
    pub prefix: Option<Ipv4Prefix>,
    /// The in-domain peer of a send (its addressee) or recv (its
    /// sender); `None` for external or unidentified peers.
    pub peer: Option<RouterId>,
    /// The action of a FIB install; [`FibAction::Drop`] otherwise.
    pub action: FibAction,
}

const _: () = assert!(std::mem::size_of::<FoldRecord>() <= 48);

impl FoldRecord {
    /// Classifies `e`.
    pub fn of(e: &IoEvent) -> Self {
        use KindClass::*;
        let (class, peer, action) = match &e.kind {
            IoKind::ConfigChange { .. } => (Config, &None, FibAction::Drop),
            IoKind::SoftReconfig { .. } => (Soft, &None, FibAction::Drop),
            IoKind::LinkStatus { .. } => (Link, &None, FibAction::Drop),
            IoKind::RecvAdvert { from, .. } => (RecvAd, from, FibAction::Drop),
            IoKind::RecvWithdraw { from, .. } => (RecvWd, from, FibAction::Drop),
            IoKind::RibInstall { .. } => (RibIn, &None, FibAction::Drop),
            IoKind::RibRemove { .. } => (RibRm, &None, FibAction::Drop),
            IoKind::FibInstall { action, .. } => (FibIn, &None, *action),
            IoKind::FibRemove { .. } => (FibRm, &None, FibAction::Drop),
            IoKind::SendAdvert { to, .. } => (SendAd, to, FibAction::Drop),
            IoKind::SendWithdraw { to, .. } => (SendWd, to, FibAction::Drop),
        };
        FoldRecord {
            time: e.time,
            id: e.id,
            router: e.router,
            class,
            proto: e.kind.proto(),
            prefix: e.kind.prefix(),
            peer: match peer {
                Some(PeerRef::Internal(r)) => Some(*r),
                _ => None,
            },
            action,
        }
    }

    /// The (class, protocol) signature.
    pub fn sig(&self) -> (KindClass, Option<Proto>) {
        (self.class, self.proto)
    }

    /// The fold order: `(time, id)`.
    pub fn key(&self) -> (SimTime, EventId) {
        (self.time, self.id)
    }

    /// `Some((key, is_send))` when this is one side of an internal
    /// conversation — a send to, or recv from, an in-domain peer.
    pub fn conv(&self) -> Option<(ConvKey, bool)> {
        let (peer, proto) = (self.peer?, self.proto?);
        match self.class {
            KindClass::SendAd | KindClass::SendWd => {
                Some(((self.router, peer, proto, self.prefix), true))
            }
            // Only sends and recvs have a peer.
            _ => Some(((peer, self.router, proto, self.prefix), false)),
        }
    }

    /// The data-plane delta of a FIB event.
    pub fn fib_update(&self) -> Option<FibUpdate> {
        let kind = match self.class {
            KindClass::FibIn => UpdateKind::Install,
            KindClass::FibRm => UpdateKind::Remove,
            _ => return None,
        };
        Some(FibUpdate {
            router: self.router,
            prefix: self.prefix?,
            kind,
            action: self.action,
            at: self.time,
        })
    }
}

/// A "most recent occurrence" cell: all event ids sharing the latest
/// timestamp for a key (batched I/Os share timestamps, e.g. the
/// announcements of one BGP update message). The first id lives inline;
/// only a same-timestamp batch spills to the heap, behind one pointer so
/// that the cell stays 24 bytes.
#[derive(Clone, Debug, Default)]
struct Latest {
    time: SimTime,
    /// `None` until the first [`note`](Self::note).
    first: Option<EventId>,
    #[allow(clippy::box_collection)] // a thin pointer, not a 24-byte Vec
    rest: Option<Box<Vec<EventId>>>,
}

impl Latest {
    fn note(&mut self, id: EventId, t: SimTime) {
        if self.first.is_none() || t > self.time {
            self.time = t;
            self.first = Some(id);
            if let Some(rest) = &mut self.rest {
                rest.clear();
            }
        } else if t == self.time {
            self.rest.get_or_insert_default().push(id);
        }
    }

    fn ids(&self) -> impl Iterator<Item = EventId> + '_ {
        let rest = self.rest.as_deref().map_or(&[][..], |r| &r[..]);
        self.first.into_iter().chain(rest.iter().copied())
    }
}

/// One router's cells. [`Maps::routers`] is indexed by [`RouterId`], so
/// reaching the router-scoped ones hashes nothing, and everything about
/// one of its prefixes sits behind one keyed lookup.
#[derive(Clone, Default)]
struct RouterCells {
    /// Latest configuration input.
    config: Latest,
    /// Latest soft reconfiguration.
    soft: Latest,
    /// Latest hardware status change.
    link: Latest,
    /// Latest IGP RIB event of any prefix (BGP next-hop resolution
    /// fallback).
    igp_rib_any: Latest,
    /// Per protocol, the latest recv (advert or withdraw) of any prefix
    /// (for OSPF-style and fallback matching).
    recv_any: [Latest; 4],
    prefixes: WordMap<Ipv4Prefix, PrefixCell>,
}

/// Everything the sweep remembers about one prefix of one router. A
/// FIB-only prefix costs the 32 bytes of this cell; the per-protocol
/// sub-cells appear with the prefix's first RIB or recv event. (Nine
/// `Latest`s inline — 360 bytes — made the FIB-churn fold three times
/// slower: the cells, not the hashing, were the working set.)
#[derive(Clone, Default)]
struct PrefixCell {
    /// Latest FIB event.
    fib: Latest,
    protos: Option<Box<[ProtoCells; 4]>>,
}

const _: () = assert!(std::mem::size_of::<PrefixCell>() <= 64);

#[derive(Clone, Default)]
struct ProtoCells {
    /// Latest RIB event.
    rib: Latest,
    /// Latest recv (advert or withdraw).
    recv: Latest,
}

/// Nearest-match state maintained during the sweep, keyed by what a
/// consequent looks up: a router's cells by index, and the one
/// cross-router cell — the latest send of a conversation — by its key.
/// A FIB or RIB event costs one keyed lookup; a send or recv two.
#[derive(Clone, Default)]
struct Maps {
    routers: Vec<RouterCells>,
    send: WordMap<ConvKey, Latest>,
}

/// The candidate antecedent cells of one consequent, each with the rule
/// that proposed it: borrowed from the [`Maps`], on the stack. No arm of
/// [`RuleSweep::step_record`] proposes more than six.
#[derive(Default)]
struct Candidates<'a> {
    cells: [Option<(&'a Latest, &'static str)>; 6],
    len: usize,
}

impl<'a> Candidates<'a> {
    fn push(&mut self, cell: &'a Latest, rule: &'static str, before: SimTime) {
        if cell.first.is_some() && cell.time <= before {
            self.cells[self.len] = Some((cell, rule));
            self.len += 1;
        }
    }

    fn iter(&self) -> impl Iterator<Item = (&'a Latest, &'static str)> + '_ {
        self.cells[..self.len].iter().flatten().copied()
    }

    /// Appends the HBRs into `to`: the most recent candidate class wins
    /// (causes are proximate); ties across classes all count.
    fn emit(&self, to: EventId, out: &mut Vec<Hbr>) {
        let Some(best_t) = self.iter().map(|(l, _)| l.time).max() else {
            return;
        };
        for (l, rule) in self.iter().filter(|(l, _)| l.time == best_t) {
            out.extend(l.ids().filter(|id| *id != to).map(|id| Hbr {
                from: id,
                to,
                confidence: 1.0,
                source: HbrSource::Rule(rule),
            }));
        }
    }
}

/// Which rule classes a [`RuleSweep`] applies — the knob that makes rule
/// matching shardable.
///
/// Every rule except send→recv relates two events *on the same router*
/// (all its candidate cells are keyed by the consequent's router and
/// populated only by that router's events). The send→recv rule is the
/// sole cross-router rule, and it is the *only* rule that ever fires for
/// a recv consequent. Splitting on that line lets per-router shards and
/// per-(proto, prefix) shards each reproduce their half of the sequential
/// output exactly — including the proximate-cause filter, which never
/// mixes candidates across the two halves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RuleScope {
    /// Apply every rule (the batch oracle and the unsharded builder).
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
/// code path shared by [`match_rules`] (the batch oracle) and the
/// incremental [`HbgBuilder`](crate::builder::HbgBuilder), whole or
/// scoped per fold shard.
#[derive(Clone, Default)]
pub struct RuleSweep {
    maps: Maps,
}

impl RuleSweep {
    /// A fresh sweep with empty nearest-match state.
    pub fn new() -> Self {
        RuleSweep::default()
    }

    /// [`step_record`](Self::step_record) over a freshly classified `e`.
    pub fn step(&mut self, e: &IoEvent, scope: RuleScope, out: &mut Vec<Hbr>) {
        self.step_record(&FoldRecord::of(e), scope, out);
    }

    /// Processes one event: appends the matched HBRs (consequent `e`) to
    /// `out`, then folds `e` into the nearest-match cells its scope
    /// reads. Events must be fed in `(time, id)` order.
    pub fn step_record(&mut self, e: &FoldRecord, scope: RuleScope, out: &mut Vec<Hbr>) {
        use KindClass::*;
        let Maps { routers, send } = &mut self.maps;
        let (r, t, id) = (e.router, e.time, e.id);
        let local = scope != RuleScope::CrossOnly;
        let cross = scope != RuleScope::LocalOnly;
        if routers.len() <= r.index() {
            routers.resize_with(r.index() + 1, RouterCells::default);
        }
        let RouterCells {
            config,
            soft,
            link,
            igp_rib_any,
            recv_any,
            prefixes,
        } = &mut routers[r.index()];
        let mut cands = Candidates::default();
        match (e.class, e.proto, e.prefix) {
            // Inputs from outside the control plane: roots.
            (Config, ..) => config.note(id, t),
            (Link, ..) => link.note(id, t),
            (Soft, ..) => {
                if local {
                    cands.push(config, "config->soft", t);
                    cands.emit(id, out);
                }
                soft.note(id, t);
            }
            (RecvAd | RecvWd, Some(proto), prefix) => {
                // [R' send P to R] → [R recv P from R'].
                if let Some(l) = e
                    .peer
                    .filter(|_| cross)
                    .and_then(|s| send.get(&(s, r, proto, prefix)))
                {
                    cands.push(l, "send->recv", t);
                    cands.emit(id, out);
                }
                if local {
                    // A prefixless recv is only ever matched through
                    // `recv_any`.
                    if let Some(p) = prefix {
                        let cell = prefixes.entry(p).or_default();
                        cell.protos.get_or_insert_default()[proto as usize]
                            .recv
                            .note(id, t);
                    }
                    recv_any[proto as usize].note(id, t);
                }
            }
            (RibIn | RibRm, Some(proto), Some(p)) if local => {
                // [recv advert P] → [install P in RIB], plus the
                // non-message triggers: soft reconfig, hardware change,
                // and (for BGP) IGP RIB changes that re-resolve next hops.
                let cell = prefixes.entry(p).or_default();
                let pc = &mut cell.protos.get_or_insert_default()[proto as usize];
                cands.push(&pc.recv, "recv->rib", t);
                if proto != Proto::Bgp {
                    // Link-state and DV protocols update many prefixes per
                    // message; the message is not per-prefix (OSPF) or may
                    // batch (RIP/EIGRP).
                    cands.push(&recv_any[proto as usize], "recv*->rib", t);
                }
                cands.push(soft, "soft->rib", t);
                cands.push(link, "link->rib", t);
                cands.push(config, "config->rib", t);
                if proto == Proto::Bgp {
                    cands.push(igp_rib_any, "igprib->bgprib", t);
                }
                cands.emit(id, out);
                pc.rib.note(id, t);
                if proto != Proto::Bgp {
                    igp_rib_any.note(id, t);
                }
            }
            (FibIn | FibRm, _, Some(p)) if local => {
                // [install P in RIB] → [install P in FIB], any protocol.
                let cell = prefixes.entry(p).or_default();
                for pc in cell.protos.iter().flat_map(|b| b.iter()) {
                    cands.push(&pc.rib, "rib->fib", t);
                }
                cands.emit(id, out);
                cell.fib.note(id, t);
            }
            (SendAd | SendWd, Some(proto), prefix) => {
                if local {
                    let cell = prefix.and_then(|p| prefixes.get(&p));
                    let pc = cell
                        .and_then(|c| c.protos.as_deref())
                        .map(|b| &b[proto as usize]);
                    match proto {
                        Proto::Eigrp => {
                            // EIGRP: [install P in FIB] → [send P] (§4.1).
                            if let Some(c) = cell {
                                cands.push(&c.fib, "fib->send", t);
                            }
                            cands.push(&recv_any[proto as usize], "recv*->send", t);
                        }
                        Proto::Bgp => {
                            // BGP: [install P in BGP RIB] → [send P].
                            if let Some(pc) = pc {
                                cands.push(&pc.rib, "rib->send", t);
                                cands.push(&pc.recv, "recv->send", t);
                            }
                            cands.push(soft, "soft->send", t);
                        }
                        Proto::Ospf | Proto::Rip => {
                            if let Some(pc) = pc {
                                cands.push(&pc.rib, "rib->send", t);
                            }
                            // Flooding: a send is usually triggered directly
                            // by the message (or hardware event) that carried
                            // the news.
                            cands.push(&recv_any[proto as usize], "recv*->send", t);
                            cands.push(link, "link->send", t);
                            cands.push(config, "config->send", t);
                        }
                    }
                    cands.emit(id, out);
                }
                if let Some(addressee) = e.peer.filter(|_| cross) {
                    send.entry((r, addressee, proto, prefix))
                        .or_default()
                        .note(id, t);
                }
            }
            // A `CrossOnly` sweep neither reads nor feeds the RIB and FIB
            // cells; `FoldRecord::of` builds no other shape.
            _ => {}
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

    /// Every shape of every [`IoKind`] variant the fold can tell apart.
    fn every_kind() -> Vec<IoKind> {
        let p = pfx("10.1.2.0/24");
        let peers = [
            None,
            Some(PeerRef::Internal(RouterId(7))),
            Some(PeerRef::External(cpvr_topo::ExtPeerId(7))),
        ];
        let mut kinds = vec![
            IoKind::ConfigChange {
                desc: "c".into(),
                change: None,
                inverse: None,
            },
            IoKind::SoftReconfig { desc: "s".into() },
            IoKind::LinkStatus {
                desc: "l".into(),
                up: true,
                link: None,
                peer: None,
            },
            IoKind::FibInstall {
                prefix: p,
                action: cpvr_dataplane::FibAction::Exit(cpvr_topo::ExtPeerId(3)),
            },
            IoKind::FibRemove { prefix: p },
        ];
        for proto in [Proto::Bgp, Proto::Ospf, Proto::Rip, Proto::Eigrp] {
            kinds.push(IoKind::RibInstall {
                proto,
                prefix: p,
                route: None,
            });
            kinds.push(IoKind::RibRemove { proto, prefix: p });
            for prefix in [None, Some(p)] {
                for peer in peers {
                    kinds.extend([
                        IoKind::RecvAdvert {
                            proto,
                            prefix,
                            from: peer,
                            route: None,
                        },
                        IoKind::RecvWithdraw {
                            proto,
                            prefix,
                            from: peer,
                        },
                        IoKind::SendAdvert {
                            proto,
                            prefix,
                            to: peer,
                            route: None,
                        },
                        IoKind::SendWithdraw {
                            proto,
                            prefix,
                            to: peer,
                        },
                    ]);
                }
            }
        }
        kinds
    }

    type Sig = (KindClass, Option<Proto>);

    /// The classification the fold ran on before it had a record, kept
    /// here as the reference: the event's signature and its side of an
    /// internal conversation, matched straight off the [`IoKind`].
    fn reference(e: &IoEvent) -> (Sig, Option<(ConvKey, bool)>) {
        use KindClass::*;
        let internal = |p: &Option<PeerRef>| match p {
            Some(PeerRef::Internal(r)) => Some(*r),
            _ => None,
        };
        match &e.kind {
            IoKind::ConfigChange { .. } => ((Config, None), None),
            IoKind::SoftReconfig { .. } => ((Soft, None), None),
            IoKind::LinkStatus { .. } => ((Link, None), None),
            IoKind::RibInstall { proto, .. } => ((RibIn, Some(*proto)), None),
            IoKind::RibRemove { proto, .. } => ((RibRm, Some(*proto)), None),
            IoKind::FibInstall { .. } => ((FibIn, None), None),
            IoKind::FibRemove { .. } => ((FibRm, None), None),
            IoKind::RecvAdvert {
                proto,
                prefix,
                from,
                ..
            } => (
                (RecvAd, Some(*proto)),
                internal(from).map(|f| ((f, e.router, *proto, *prefix), false)),
            ),
            IoKind::RecvWithdraw {
                proto,
                prefix,
                from,
            } => (
                (RecvWd, Some(*proto)),
                internal(from).map(|f| ((f, e.router, *proto, *prefix), false)),
            ),
            IoKind::SendAdvert {
                proto, prefix, to, ..
            } => (
                (SendAd, Some(*proto)),
                internal(to).map(|t| ((e.router, t, *proto, *prefix), true)),
            ),
            IoKind::SendWithdraw { proto, prefix, to } => (
                (SendWd, Some(*proto)),
                internal(to).map(|t| ((e.router, t, *proto, *prefix), true)),
            ),
        }
    }

    #[test]
    fn record_agrees_with_the_event_it_classifies() {
        let mut b = TB::new();
        let kinds = every_kind();
        assert_eq!(kinds.len(), 5 + 4 * (2 + 2 * 3 * 4));
        for (i, kind) in kinds.into_iter().enumerate() {
            b.ev(3, 10 * i as u64, kind);
        }
        let mut classes = std::collections::BTreeSet::new();
        for e in &b.events {
            let rec = FoldRecord::of(e);
            let (sig, conv) = reference(e);
            assert_eq!((rec.time, rec.id, rec.router), (e.time, e.id, e.router));
            assert_eq!(rec.sig(), sig, "{e}");
            assert_eq!(rec.proto, e.kind.proto(), "{e}");
            assert_eq!(rec.prefix, e.kind.prefix(), "{e}");
            assert_eq!(rec.conv(), conv, "{e}");
            assert_eq!(rec.peer.is_some(), conv.is_some(), "{e}");
            assert_eq!(crate::snapshot::classify_conv(e), conv, "{e}");
            match &e.kind {
                IoKind::FibInstall { prefix, action } => {
                    let u = rec.fib_update().expect("a FIB event");
                    assert_eq!((u.kind, u.action), (UpdateKind::Install, *action));
                    assert_eq!((u.router, u.prefix, u.at), (e.router, *prefix, e.time));
                }
                IoKind::FibRemove { .. } => {
                    let u = rec.fib_update().expect("a FIB event");
                    assert_eq!((u.kind, u.action), (UpdateKind::Remove, FibAction::Drop));
                }
                _ => assert_eq!(rec.fib_update(), None, "{e}"),
            }
            classes.insert(rec.class);
        }
        assert_eq!(classes.len(), 11, "every class was exercised");
    }

    /// The record and the prefix cell are held to their bounds at compile
    /// time, next to their definitions; this is the cell both are made of.
    #[test]
    fn a_latest_cell_is_three_words() {
        assert_eq!(std::mem::size_of::<Latest>(), 24);
        assert_eq!(std::mem::size_of::<PrefixCell>(), 32);
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
