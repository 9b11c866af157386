//! The discrete-event simulation engine.
//!
//! [`Simulation`] owns the topology, the per-router control planes, the
//! live data plane, and the event queue. Scenario code schedules external
//! stimuli (announcements, config changes, link failures); the engine
//! processes them, captures every control-plane I/O with realistic
//! timestamps, and applies FIB updates to the live data plane — unless a
//! *FIB gate* (the verifier's interposition point, Fig. 3) blocks them.

use crate::io::{EventId, IoEvent, IoKind, Proto, Trace};
use crate::latency::{CaptureProfile, LatencyProfile};
use crate::router::{IgpMsg, IgpTableView, RouterConfig, SimRouter};
use crate::sink::EventSink;
use cpvr_bgp::{BgpOutputs, BgpUpdate, ConfigChange, PeerRef};
use cpvr_dataplane::{DataPlane, FibAction, FibUpdate, UpdateKind};
use cpvr_igp::IgpOutputs;
use cpvr_topo::{ExtPeerId, LinkId, LinkState, Topology};
use cpvr_types::{Ipv4Prefix, RouterId, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Decides whether a FIB update may reach the hardware. Returning `false`
/// blocks it: the control plane believes the update happened, the data
/// plane stays stale — the exact inconsistency the paper's Fig. 2b warns
/// naive blocking causes.
pub type FibGate = Box<dyn FnMut(&FibUpdate) -> bool>;

/// An event scheduled for execution.
struct Scheduled {
    at: SimTime,
    seq: u64,
    ev: SimEvent,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    // Reversed: BinaryHeap becomes a min-heap on (at, seq).
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

enum SimEvent {
    /// An IGP message arrives.
    DeliverIgp {
        from: RouterId,
        to: RouterId,
        msg: IgpMsg,
        causes: Vec<EventId>,
    },
    /// A BGP update arrives. Cause ids align with the update's announce /
    /// withdraw vectors (None = external origin, outside the capture
    /// domain).
    DeliverBgp {
        from: PeerRef,
        to: RouterId,
        update: BgpUpdate,
        announce_causes: Vec<Option<EventId>>,
        withdraw_causes: Vec<Option<EventId>>,
    },
    /// An operator enters a configuration change (e.g. on the console).
    ConfigEntered {
        router: RouterId,
        change: ConfigChange,
    },
    /// The control plane begins applying a previously entered change
    /// (soft reconfiguration).
    ApplyConfig {
        router: RouterId,
        change: ConfigChange,
        cause: Option<EventId>,
    },
    /// An internal link changes state.
    LinkChange { link: LinkId, up: bool },
    /// An external peer attachment (uplink) changes state.
    ExtPeerChange { peer: ExtPeerId, up: bool },
    /// A FIB update reaches the hardware (or the gate).
    FibApply { update: FibUpdate },
}

/// The simulation: see the module docs.
pub struct Simulation {
    topo: Topology,
    routers: Vec<SimRouter>,
    dataplane: DataPlane,
    queue: BinaryHeap<Scheduled>,
    seq: u64,
    time: SimTime,
    rng: StdRng,
    latency: LatencyProfile,
    capture: CaptureProfile,
    trace: Trace,
    fib_gate: Option<FibGate>,
    blocked: Vec<FibUpdate>,
    sink: Option<Box<dyn EventSink>>,
}

impl Simulation {
    /// Builds a simulation. `configs[i]` configures router `i`; the
    /// vector's length must equal the topology's router count.
    ///
    /// # Panics
    ///
    /// Panics if the lengths disagree.
    pub fn new(
        topo: Topology,
        configs: Vec<RouterConfig>,
        latency: LatencyProfile,
        capture: CaptureProfile,
        seed: u64,
    ) -> Self {
        assert_eq!(topo.num_routers(), configs.len(), "one config per router");
        let n = topo.num_routers();
        let routers = configs.iter().map(SimRouter::new).collect();
        Simulation {
            topo,
            routers,
            dataplane: DataPlane::new(n),
            queue: BinaryHeap::new(),
            seq: 0,
            time: SimTime::ZERO,
            rng: StdRng::seed_from_u64(seed),
            latency,
            capture,
            trace: Trace::default(),
            fib_gate: None,
            blocked: Vec::new(),
            sink: None,
        }
    }

    /// Installs a sink that observes every subsequently captured event
    /// (replacing any previous sink). Events already in the trace are not
    /// replayed; seed the consumer from [`trace`](Self::trace) first if
    /// it needs history. Any `FnMut(&IoEvent)` closure is a valid sink.
    pub fn set_event_sink(&mut self, sink: Box<dyn EventSink>) {
        self.sink = Some(sink);
    }

    /// Removes the event sink, if any, and returns it (flushed).
    pub fn clear_event_sink(&mut self) -> Option<Box<dyn EventSink>> {
        let mut sink = self.sink.take();
        if let Some(s) = &mut sink {
            s.flush();
        }
        sink
    }

    // ---- accessors ------------------------------------------------------

    /// The topology (including current link state).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The live (hardware) data plane.
    pub fn dataplane(&self) -> &DataPlane {
        &self.dataplane
    }

    /// The captured trace so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// One router's control plane, for inspection.
    pub fn router(&self, r: RouterId) -> &SimRouter {
        &self.routers[r.index()]
    }

    /// FIB updates the gate blocked, in order.
    pub fn blocked_updates(&self) -> &[FibUpdate] {
        &self.blocked
    }

    /// Installs a FIB gate (the verifier's interposition point). Replaces
    /// any existing gate.
    pub fn set_fib_gate(&mut self, gate: FibGate) {
        self.fib_gate = Some(gate);
    }

    /// Removes the FIB gate.
    pub fn clear_fib_gate(&mut self) {
        self.fib_gate = None;
    }

    // ---- scheduling -----------------------------------------------------

    fn push(&mut self, at: SimTime, ev: SimEvent) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled { at, seq, ev });
    }

    /// Boots every router's IGP at the current time. Each boot is rooted
    /// at a synthetic "igp start" config input so that all subsequent
    /// events have ancestors.
    pub fn start(&mut self) {
        let now = self.time;
        for r in 0..self.routers.len() {
            let rid = RouterId(r as u32);
            let root = self.emit(
                rid,
                now,
                IoKind::ConfigChange {
                    desc: format!("start {} instance", self.routers[r].igp.proto()),
                    change: None,
                    inverse: None,
                },
                None,
            );
            let out = self.routers[r].igp.start(&self.topo);
            self.process_igp_outputs(rid, now, out, vec![root]);
        }
    }

    /// Schedules a configuration change entered at `at`.
    pub fn schedule_config(&mut self, at: SimTime, router: RouterId, change: ConfigChange) {
        self.push(at, SimEvent::ConfigEntered { router, change });
    }

    /// Schedules an external peer announcing `prefixes` at `at`.
    pub fn schedule_ext_announce(&mut self, at: SimTime, peer: ExtPeerId, prefixes: &[Ipv4Prefix]) {
        let p = self.topo.ext_peer(peer);
        let (router, _) = p.attach;
        let asn = p.asn;
        let announce: Vec<_> = prefixes
            .iter()
            .map(|px| Arc::new(cpvr_bgp::BgpRoute::external(*px, peer, asn, router)))
            .collect();
        let n = announce.len();
        let prop = self.latency.link_prop.sample(&mut self.rng);
        self.push(
            at + prop,
            SimEvent::DeliverBgp {
                from: PeerRef::External(peer),
                to: router,
                update: BgpUpdate {
                    announce,
                    withdraw: vec![],
                },
                announce_causes: vec![None; n],
                withdraw_causes: vec![],
            },
        );
    }

    /// Schedules an external peer withdrawing `prefixes` at `at`.
    pub fn schedule_ext_withdraw(&mut self, at: SimTime, peer: ExtPeerId, prefixes: &[Ipv4Prefix]) {
        let p = self.topo.ext_peer(peer);
        let (router, _) = p.attach;
        let withdraw: Vec<_> = prefixes.iter().map(|px| (*px, None)).collect();
        let n = withdraw.len();
        let prop = self.latency.link_prop.sample(&mut self.rng);
        self.push(
            at + prop,
            SimEvent::DeliverBgp {
                from: PeerRef::External(peer),
                to: router,
                update: BgpUpdate {
                    announce: vec![],
                    withdraw,
                },
                announce_causes: vec![],
                withdraw_causes: vec![None; n],
            },
        );
    }

    /// Schedules an internal link state change.
    pub fn schedule_link_change(&mut self, at: SimTime, link: LinkId, up: bool) {
        self.push(at, SimEvent::LinkChange { link, up });
    }

    /// Schedules an uplink (external peer attachment) state change.
    pub fn schedule_ext_peer_change(&mut self, at: SimTime, peer: ExtPeerId, up: bool) {
        self.push(at, SimEvent::ExtPeerChange { peer, up });
    }

    // ---- running --------------------------------------------------------

    /// Processes events until the queue is empty or `max_events` have been
    /// handled. Returns the number processed.
    pub fn run_to_quiescence(&mut self, max_events: usize) -> usize {
        let mut n = 0;
        while n < max_events {
            let Some(s) = self.queue.pop() else { break };
            self.time = s.at;
            self.dispatch(s.ev, s.at);
            n += 1;
        }
        n
    }

    /// Processes all events scheduled at or before `t`, then advances the
    /// clock to `t`.
    pub fn run_until(&mut self, t: SimTime) -> usize {
        let mut n = 0;
        while let Some(head) = self.queue.peek() {
            if head.at > t {
                break;
            }
            let s = self.queue.pop().expect("peeked");
            self.time = s.at;
            self.dispatch(s.ev, s.at);
            n += 1;
        }
        self.time = t;
        n
    }

    /// True if no events remain.
    pub fn is_quiescent(&self) -> bool {
        self.queue.is_empty()
    }

    // ---- internals ------------------------------------------------------

    /// Captures one I/O event and its truth edges; returns the new id.
    fn emit(
        &mut self,
        router: RouterId,
        time: SimTime,
        kind: IoKind,
        parents: impl IntoIterator<Item = EventId>,
    ) -> EventId {
        let id = EventId(self.trace.events.len() as u32);
        let arrived_at = self.capture.sample(time, &mut self.rng);
        self.trace.events.push(IoEvent {
            id,
            router,
            time,
            arrived_at,
            kind,
        });
        if let Some(sink) = &mut self.sink {
            sink.on_event(self.trace.events.last().expect("just pushed"));
        }
        let edges = parents.into_iter().map(|p| (p, id));
        self.trace.truth_edges.extend(edges);
        id
    }

    fn dispatch(&mut self, ev: SimEvent, t: SimTime) {
        match ev {
            SimEvent::DeliverIgp {
                from,
                to,
                msg,
                causes,
            } => {
                let proto = self.routers[to.index()].igp.proto();
                let mut recv_ids = Vec::new();
                for (prefix, is_withdraw) in msg.captured_prefixes() {
                    let kind = if is_withdraw {
                        IoKind::RecvWithdraw {
                            proto,
                            prefix,
                            from: Some(PeerRef::Internal(from)),
                        }
                    } else {
                        IoKind::RecvAdvert {
                            proto,
                            prefix,
                            from: Some(PeerRef::Internal(from)),
                            route: None,
                        }
                    };
                    recv_ids.push(self.emit(to, t, kind, causes.iter().copied()));
                }
                let out = self.routers[to.index()].igp.recv(&self.topo, from, msg);
                self.process_igp_outputs(to, t, out, recv_ids);
            }
            SimEvent::DeliverBgp {
                from,
                to,
                update,
                announce_causes,
                withdraw_causes,
            } => {
                // Emit recv events, tracking parents per prefix.
                let mut recv_ids =
                    Vec::with_capacity(update.withdraw.len() + update.announce.len());
                for (i, (prefix, _orig)) in update.withdraw.iter().enumerate() {
                    let cause = withdraw_causes.get(i).copied().flatten();
                    let id = self.emit(
                        to,
                        t,
                        IoKind::RecvWithdraw {
                            proto: Proto::Bgp,
                            prefix: Some(*prefix),
                            from: Some(from),
                        },
                        cause,
                    );
                    recv_ids.push((*prefix, id));
                }
                for (i, route) in update.announce.iter().enumerate() {
                    let cause = announce_causes.get(i).copied().flatten();
                    let id = self.emit(
                        to,
                        t,
                        IoKind::RecvAdvert {
                            proto: Proto::Bgp,
                            prefix: Some(route.prefix),
                            from: Some(from),
                            route: Some(Arc::clone(route)),
                        },
                        cause,
                    );
                    recv_ids.push((route.prefix, id));
                }
                // Stable: a prefix's recv events stay in emission order.
                recv_ids.sort_by_key(|(prefix, _)| *prefix);
                let out = {
                    let router = &mut self.routers[to.index()];
                    let view = IgpTableView::new(router.igp.table(), &self.topo);
                    router.bgp.recv_update(from, update, &view)
                };
                self.process_bgp_outputs(to, t, out, &recv_ids, &[]);
            }
            SimEvent::ConfigEntered { router, change } => {
                // Compute the inverse against the configuration currently
                // in force (the "version system" the paper leans on).
                let inverse = change.inverse(self.routers[router.index()].bgp.config());
                let id = self.emit(
                    router,
                    t,
                    IoKind::ConfigChange {
                        desc: change.to_string(),
                        change: Some(change.clone()),
                        inverse,
                    },
                    None,
                );
                let delay = self.latency.config_apply.sample(&mut self.rng);
                self.push(
                    t + delay,
                    SimEvent::ApplyConfig {
                        router,
                        change,
                        cause: Some(id),
                    },
                );
            }
            SimEvent::ApplyConfig {
                router,
                change,
                cause,
            } => {
                let soft = self.emit(
                    router,
                    t,
                    IoKind::SoftReconfig {
                        desc: change.to_string(),
                    },
                    cause,
                );
                let out = {
                    let r = &mut self.routers[router.index()];
                    let view = IgpTableView::new(r.igp.table(), &self.topo);
                    r.bgp.apply_config(&change, &view)
                };
                self.process_bgp_outputs(router, t, out, &[], &[soft]);
            }
            SimEvent::LinkChange { link, up } => {
                let state = if up { LinkState::Up } else { LinkState::Down };
                self.topo.set_link_state(link, state);
                let l = self.topo.link(link);
                let ends = [l.a.0, l.b.0];
                for r in ends {
                    let notify = self.latency.link_notify.sample(&mut self.rng);
                    let t_n = t + notify;
                    let id = self.emit(
                        r,
                        t_n,
                        IoKind::LinkStatus {
                            desc: format!("{link} {}", if up { "up" } else { "down" }),
                            up,
                            link: Some(link),
                            peer: None,
                        },
                        None,
                    );
                    let out = self.routers[r.index()].igp.link_change(&self.topo);
                    self.process_igp_outputs(r, t_n, out, vec![id]);
                }
            }
            SimEvent::ExtPeerChange { peer, up } => {
                let state = if up { LinkState::Up } else { LinkState::Down };
                self.topo.set_ext_peer_state(peer, state);
                let (router, _) = self.topo.ext_peer(peer).attach;
                let notify = self.latency.link_notify.sample(&mut self.rng);
                let t_n = t + notify;
                let id = self.emit(
                    router,
                    t_n,
                    IoKind::LinkStatus {
                        desc: format!("{peer} {}", if up { "up" } else { "down" }),
                        up,
                        link: None,
                        peer: Some(peer),
                    },
                    None,
                );
                if !up {
                    let out = {
                        let r = &mut self.routers[router.index()];
                        let view = IgpTableView::new(r.igp.table(), &self.topo);
                        r.bgp.peer_down(PeerRef::External(peer), &view)
                    };
                    self.process_bgp_outputs(router, t_n, out, &[], &[id]);
                }
            }
            SimEvent::FibApply { update } => {
                let allowed = match self.fib_gate.as_mut() {
                    Some(gate) => gate(&update),
                    None => true,
                };
                if allowed {
                    self.dataplane.apply(&update);
                } else {
                    self.blocked.push(update);
                }
            }
        }
    }

    /// Emits RIB / FIB / send events for one router's IGP outputs and
    /// schedules the consequences. `parents` are the causes of this whole
    /// batch (e.g. the recv or link-status events).
    fn process_igp_outputs(
        &mut self,
        router: RouterId,
        t: SimTime,
        out: IgpOutputs<IgpMsg>,
        parents: Vec<EventId>,
    ) {
        let proto = self.routers[router.index()].igp.proto();
        let after_fib = self.routers[router.index()].igp.adverts_after_fib();
        let t_rib = t + self.latency.decision.sample(&mut self.rng);
        let mut rib_ids: BTreeMap<Ipv4Prefix, EventId> = BTreeMap::new();
        let mut fib_ids: BTreeMap<Ipv4Prefix, EventId> = BTreeMap::new();
        let mut t_fib_max = t_rib;
        let had_deltas = !out.deltas.is_empty();
        for d in &out.deltas {
            let kind = match d.route {
                Some(_) => IoKind::RibInstall {
                    proto,
                    prefix: d.prefix,
                    route: None,
                },
                None => IoKind::RibRemove {
                    proto,
                    prefix: d.prefix,
                },
            };
            let id = self.emit(router, t_rib, kind, parents.iter().copied());
            rib_ids.insert(d.prefix, id);
            // IGP routes are installed in the FIB too.
            let t_fib = t_rib + self.latency.fib_install.sample(&mut self.rng);
            t_fib_max = t_fib_max.max(t_fib);
            let (kind, action) = match d.route {
                Some(r) => {
                    let action = match r.next_hop {
                        None => FibAction::Local,
                        Some((_, link)) => FibAction::Forward(link),
                    };
                    (
                        IoKind::FibInstall {
                            prefix: d.prefix,
                            action,
                        },
                        Some(action),
                    )
                }
                None => (IoKind::FibRemove { prefix: d.prefix }, None),
            };
            let fid = self.emit(router, t_fib, kind, Some(id));
            fib_ids.insert(d.prefix, fid);
            let update = FibUpdate {
                router,
                prefix: d.prefix,
                kind: if action.is_some() {
                    UpdateKind::Install
                } else {
                    UpdateKind::Remove
                },
                action: action.unwrap_or(FibAction::Drop),
                at: t_fib,
            };
            self.push(t_fib, SimEvent::FibApply { update });
        }
        // Messages. EIGRP advertises only after the FIB install (§4.1).
        let send_base = if after_fib { t_fib_max } else { t_rib };
        for (to, msg) in out.msgs {
            let t_send = send_base + self.latency.advert_send.sample(&mut self.rng);
            let mut send_ids = Vec::new();
            for (prefix, is_withdraw) in msg.captured_prefixes() {
                // Parent: the RIB (or FIB for EIGRP) event for this
                // prefix when one exists, otherwise the batch parents.
                let ids = if after_fib { &fib_ids } else { &rib_ids };
                let own = prefix.and_then(|p| ids.get(&p)).copied();
                let batch: &[EventId] = if own.is_some() { &[] } else { &parents };
                let own = own.into_iter().chain(batch.iter().copied());
                let kind = if is_withdraw {
                    IoKind::SendWithdraw {
                        proto,
                        prefix,
                        to: Some(PeerRef::Internal(to)),
                    }
                } else {
                    IoKind::SendAdvert {
                        proto,
                        prefix,
                        to: Some(PeerRef::Internal(to)),
                        route: None,
                    }
                };
                send_ids.push(self.emit(router, t_send, kind, own));
            }
            let prop = self.latency.link_prop.sample(&mut self.rng);
            self.push(
                t_send + prop,
                SimEvent::DeliverIgp {
                    from: router,
                    to,
                    msg,
                    causes: send_ids,
                },
            );
        }
        // IGP table changed → BGP must re-resolve next hops.
        if had_deltas {
            let out = {
                let r = &mut self.routers[router.index()];
                let view = IgpTableView::new(r.igp.table(), &self.topo);
                r.bgp.igp_changed(&view)
            };
            if !out.is_empty() {
                let rib_parents: Vec<EventId> = rib_ids.values().copied().collect();
                self.process_bgp_outputs(router, t_rib, out, &[], &rib_parents);
            }
        }
    }

    /// Emits RIB / FIB / send events for one router's BGP outputs and
    /// schedules message deliveries. Parents for a prefix come from
    /// `recv_ids` (sorted by prefix), falling back to `default_parents`.
    fn process_bgp_outputs(
        &mut self,
        router: RouterId,
        t: SimTime,
        out: BgpOutputs,
        recv_ids: &[(Ipv4Prefix, EventId)],
        default_parents: &[EventId],
    ) {
        let t_rib = t + self.latency.decision.sample(&mut self.rng);
        // Sorted by prefix, because `rib_changes` is.
        let mut rib_ids: Vec<(Ipv4Prefix, EventId)> = Vec::with_capacity(out.rib_changes.len());
        for c in out.rib_changes {
            let kind = match c.route {
                Some(r) => IoKind::RibInstall {
                    proto: Proto::Bgp,
                    prefix: c.prefix,
                    route: Some(r),
                },
                None => IoKind::RibRemove {
                    proto: Proto::Bgp,
                    prefix: c.prefix,
                },
            };
            let id = self.emit(
                router,
                t_rib,
                kind,
                parents_of(c.prefix, &[], recv_ids, default_parents),
            );
            debug_assert!(rib_ids.last().is_none_or(|(p, _)| *p < c.prefix));
            rib_ids.push((c.prefix, id));
        }
        for c in &out.fib_changes {
            let t_fib = t_rib + self.latency.fib_install.sample(&mut self.rng);
            let kind = match c.action {
                Some(a) => IoKind::FibInstall {
                    prefix: c.prefix,
                    action: a,
                },
                None => IoKind::FibRemove { prefix: c.prefix },
            };
            self.emit(
                router,
                t_fib,
                kind,
                parents_of(c.prefix, &rib_ids, recv_ids, default_parents),
            );
            let update = FibUpdate {
                router,
                prefix: c.prefix,
                kind: if c.action.is_some() {
                    UpdateKind::Install
                } else {
                    UpdateKind::Remove
                },
                action: c.action.unwrap_or(FibAction::Drop),
                at: t_fib,
            };
            self.push(t_fib, SimEvent::FibApply { update });
        }
        // BGP advertises after the RIB install ([R install P in BGP RIB] →
        // [R send BGP advertisement for P], §4.1).
        for (peer, update) in out.msgs {
            let t_send = t_rib + self.latency.advert_send.sample(&mut self.rng);
            let mut withdraw_causes: Vec<Option<EventId>> = Vec::new();
            for (prefix, _orig) in &update.withdraw {
                let id = self.emit(
                    router,
                    t_send,
                    IoKind::SendWithdraw {
                        proto: Proto::Bgp,
                        prefix: Some(*prefix),
                        to: Some(peer),
                    },
                    parents_of(*prefix, &rib_ids, recv_ids, default_parents),
                );
                withdraw_causes.push(Some(id));
            }
            let mut announce_causes: Vec<Option<EventId>> = Vec::new();
            for route in &update.announce {
                let id = self.emit(
                    router,
                    t_send,
                    IoKind::SendAdvert {
                        proto: Proto::Bgp,
                        prefix: Some(route.prefix),
                        to: Some(peer),
                        route: Some(Arc::clone(route)),
                    },
                    parents_of(route.prefix, &rib_ids, recv_ids, default_parents),
                );
                announce_causes.push(Some(id));
            }
            if let PeerRef::Internal(to) = peer {
                let prop = self.latency.link_prop.sample(&mut self.rng);
                self.push(
                    t_send + prop,
                    SimEvent::DeliverBgp {
                        from: PeerRef::Internal(router),
                        to,
                        update,
                        announce_causes,
                        withdraw_causes,
                    },
                );
            }
        }
    }
}

/// The events a BGP output for `prefix` hangs off: the prefix's RIB event
/// when its batch has one ([R install P in BGP RIB] → …, §4.1), else the
/// recv events for the prefix, else the batch's `fallback` parents. Both
/// id lists are sorted by prefix.
fn parents_of<'a>(
    prefix: Ipv4Prefix,
    rib_ids: &'a [(Ipv4Prefix, EventId)],
    recv_ids: &'a [(Ipv4Prefix, EventId)],
    fallback: &'a [EventId],
) -> impl Iterator<Item = EventId> + 'a {
    let run = |sorted: &'a [(Ipv4Prefix, EventId)]| {
        let lo = sorted.partition_point(|(p, _)| *p < prefix);
        let n = sorted[lo..].partition_point(|(p, _)| *p == prefix);
        &sorted[lo..lo + n]
    };
    let mut ids = run(rib_ids);
    if ids.is_empty() {
        ids = run(recv_ids);
    }
    let fallback = if ids.is_empty() { fallback } else { &[] };
    let ids = ids.iter().map(|(_, id)| *id);
    ids.chain(fallback.iter().copied())
}
