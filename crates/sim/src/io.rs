//! Captured control-plane I/O events and traces.
//!
//! An [`IoEvent`] is one line of the (idealized) router log: a control
//! plane input or output, stamped with the router's local time and with
//! the time the record reached the central verifier. A [`Trace`] is the
//! full capture of a simulation run plus the simulator's ground-truth
//! dependency edges.

use cpvr_bgp::{BgpRoute, PeerRef};
use cpvr_dataplane::{DataPlane, FibAction, FibUpdate, UpdateKind};
use cpvr_types::{Ipv4Prefix, RouterId, SimTime};
use std::fmt;
use std::sync::Arc;

/// Index of an event in its [`Trace`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub u32);

impl EventId {
    /// The id as a `usize` for indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Debug for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Which protocol an event belongs to.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum Proto {
    /// Border Gateway Protocol.
    Bgp,
    /// OSPF-lite link-state IGP.
    Ospf,
    /// RIP distance-vector IGP.
    Rip,
    /// EIGRP-lite DUAL IGP.
    Eigrp,
}

impl fmt::Display for Proto {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Proto::Bgp => write!(f, "BGP"),
            Proto::Ospf => write!(f, "OSPF"),
            Proto::Rip => write!(f, "RIP"),
            Proto::Eigrp => write!(f, "EIGRP"),
        }
    }
}

/// The I/O classes of the paper's §4.1.
///
/// Inputs: [`ConfigChange`](IoKind::ConfigChange),
/// [`LinkStatus`](IoKind::LinkStatus), [`RecvAdvert`](IoKind::RecvAdvert),
/// [`RecvWithdraw`](IoKind::RecvWithdraw).
/// Outputs: [`RibInstall`](IoKind::RibInstall) /
/// [`RibRemove`](IoKind::RibRemove), [`FibInstall`](IoKind::FibInstall) /
/// [`FibRemove`](IoKind::FibRemove), [`SendAdvert`](IoKind::SendAdvert),
/// [`SendWithdraw`](IoKind::SendWithdraw). [`SoftReconfig`] is the
/// processing marker the paper's Fig. 5 shows between a TTY config change
/// and the routes it produces.
///
/// [`SoftReconfig`]: IoKind::SoftReconfig
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IoKind {
    /// Input: a configuration change was entered (e.g. on the console).
    ConfigChange {
        /// Human-readable description, e.g. `"set import[Ext1] LP=10"`.
        desc: String,
        /// The structured change, when it targets BGP (repair needs it to
        /// compute the inverse). Synthetic roots (e.g. protocol start)
        /// carry `None`.
        change: Option<cpvr_bgp::ConfigChange>,
        /// The inverse change, computed against the configuration in
        /// force when the change was entered — the capture-side analogue
        /// of the configuration version system the paper's §7 says makes
        /// rollback easy.
        inverse: Option<cpvr_bgp::ConfigChange>,
    },
    /// Marker: the control plane began applying a configuration change
    /// (BGP soft reconfiguration — re-running the decision process over
    /// stored routes).
    SoftReconfig {
        /// Description of what is being recomputed.
        desc: String,
    },
    /// Input: a hardware status change (link or uplink up/down).
    LinkStatus {
        /// What changed, e.g. `"L2 down"` or `"Ext1 up"`.
        desc: String,
        /// New state.
        up: bool,
        /// The internal link, when the change concerns one.
        link: Option<cpvr_topo::LinkId>,
        /// The external peer attachment, when the change concerns one.
        peer: Option<cpvr_topo::ExtPeerId>,
    },
    /// Input: a route advertisement arrived.
    RecvAdvert {
        /// Protocol.
        proto: Proto,
        /// The advertised prefix, when the protocol message is
        /// per-prefix (BGP, RIP, EIGRP). OSPF LSAs carry `None`.
        prefix: Option<Ipv4Prefix>,
        /// Sending peer, if identifiable.
        from: Option<PeerRef>,
        /// The BGP route carried, for BGP advertisements: a reference to
        /// the speaker's own allocation (`Arc`, because captured events
        /// are read on other threads — sinks, senders, the collector).
        route: Option<Arc<BgpRoute>>,
    },
    /// Input: a route withdrawal arrived.
    RecvWithdraw {
        /// Protocol.
        proto: Proto,
        /// The withdrawn prefix.
        prefix: Option<Ipv4Prefix>,
        /// Sending peer, if identifiable.
        from: Option<PeerRef>,
    },
    /// Output: a route was installed or replaced in a protocol RIB.
    RibInstall {
        /// Protocol.
        proto: Proto,
        /// The prefix.
        prefix: Ipv4Prefix,
        /// The BGP route installed, for BGP RIB events (shared, as in
        /// [`IoKind::RecvAdvert`]).
        route: Option<Arc<BgpRoute>>,
    },
    /// Output: a route left a protocol RIB.
    RibRemove {
        /// Protocol.
        proto: Proto,
        /// The prefix.
        prefix: Ipv4Prefix,
    },
    /// Output: a FIB entry was installed or replaced.
    FibInstall {
        /// The prefix.
        prefix: Ipv4Prefix,
        /// The forwarding action.
        action: FibAction,
    },
    /// Output: a FIB entry was removed.
    FibRemove {
        /// The prefix.
        prefix: Ipv4Prefix,
    },
    /// Output: a route advertisement was sent.
    SendAdvert {
        /// Protocol.
        proto: Proto,
        /// The advertised prefix (see [`IoKind::RecvAdvert`]).
        prefix: Option<Ipv4Prefix>,
        /// Destination peer.
        to: Option<PeerRef>,
        /// The BGP route carried, for BGP advertisements (shared, as in
        /// [`IoKind::RecvAdvert`]).
        route: Option<Arc<BgpRoute>>,
    },
    /// Output: a route withdrawal was sent.
    SendWithdraw {
        /// Protocol.
        proto: Proto,
        /// The withdrawn prefix.
        prefix: Option<Ipv4Prefix>,
        /// Destination peer.
        to: Option<PeerRef>,
    },
}

impl IoKind {
    /// True for control-plane inputs (configs, hardware, received
    /// routes).
    pub fn is_input(&self) -> bool {
        matches!(
            self,
            IoKind::ConfigChange { .. }
                | IoKind::LinkStatus { .. }
                | IoKind::RecvAdvert { .. }
                | IoKind::RecvWithdraw { .. }
        )
    }

    /// The prefix the event concerns, if any.
    pub fn prefix(&self) -> Option<Ipv4Prefix> {
        match self {
            IoKind::RecvAdvert { prefix, .. }
            | IoKind::RecvWithdraw { prefix, .. }
            | IoKind::SendAdvert { prefix, .. }
            | IoKind::SendWithdraw { prefix, .. } => *prefix,
            IoKind::RibInstall { prefix, .. }
            | IoKind::RibRemove { prefix, .. }
            | IoKind::FibInstall { prefix, .. }
            | IoKind::FibRemove { prefix, .. } => Some(*prefix),
            IoKind::ConfigChange { .. }
            | IoKind::SoftReconfig { .. }
            | IoKind::LinkStatus { .. } => None,
        }
    }

    /// The protocol the event belongs to, if protocol-specific.
    pub fn proto(&self) -> Option<Proto> {
        match self {
            IoKind::RecvAdvert { proto, .. }
            | IoKind::RecvWithdraw { proto, .. }
            | IoKind::SendAdvert { proto, .. }
            | IoKind::SendWithdraw { proto, .. }
            | IoKind::RibInstall { proto, .. }
            | IoKind::RibRemove { proto, .. } => Some(*proto),
            _ => None,
        }
    }

    /// Short label for display and HBG rendering.
    pub fn label(&self) -> String {
        match self {
            IoKind::ConfigChange { desc, .. } => format!("config: {desc}"),
            IoKind::SoftReconfig { desc } => format!("soft-reconfig: {desc}"),
            IoKind::LinkStatus { desc, .. } => format!("link: {desc}"),
            IoKind::RecvAdvert {
                proto,
                prefix,
                from,
                ..
            } => format!(
                "recv {proto} advert {} from {}",
                opt_pfx(prefix),
                opt_disp(from)
            ),
            IoKind::RecvWithdraw {
                proto,
                prefix,
                from,
            } => format!(
                "recv {proto} withdraw {} from {}",
                opt_pfx(prefix),
                opt_disp(from)
            ),
            IoKind::RibInstall {
                proto,
                prefix,
                route,
            } => match route {
                Some(r) => format!(
                    "install {prefix} LP={} via {} in {proto} RIB",
                    r.local_pref, r.next_hop
                ),
                None => format!("install {prefix} in {proto} RIB"),
            },
            IoKind::RibRemove { proto, prefix } => format!("remove {prefix} from {proto} RIB"),
            IoKind::FibInstall { prefix, action } => format!("install {prefix} -> {action} in FIB"),
            IoKind::FibRemove { prefix } => format!("remove {prefix} from FIB"),
            IoKind::SendAdvert {
                proto, prefix, to, ..
            } => format!(
                "send {proto} advert {} to {}",
                opt_pfx(prefix),
                opt_disp(to)
            ),
            IoKind::SendWithdraw { proto, prefix, to } => format!(
                "send {proto} withdraw {} to {}",
                opt_pfx(prefix),
                opt_disp(to)
            ),
        }
    }
}

fn opt_pfx(p: &Option<Ipv4Prefix>) -> String {
    match p {
        Some(p) => p.to_string(),
        None => "*".to_string(),
    }
}

fn opt_disp<T: fmt::Display>(v: &Option<T>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "?".to_string(),
    }
}

/// One captured control-plane I/O.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IoEvent {
    /// Capture id (index in the trace).
    pub id: EventId,
    /// The router the event occurred on.
    pub router: RouterId,
    /// The router-local time of the event.
    pub time: SimTime,
    /// When the record reached the central verifier; `None` = the log
    /// record was lost.
    pub arrived_at: Option<SimTime>,
    /// What happened.
    pub kind: IoKind,
}

// The ledger sorts and clones captured traces and every sink and queue
// moves events by value: a byte here is a byte per captured I/O.
const _: () = assert!(std::mem::size_of::<IoEvent>() <= 136);

impl fmt::Display for IoEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} @{}] {} {}",
            self.id,
            self.time,
            self.router,
            self.kind.label()
        )
    }
}

/// The full capture of a run: every I/O event plus the simulator's
/// ground-truth causal edges (used only for evaluating inference, never by
/// the inference itself).
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// All events; `events[i].id == EventId(i)`.
    pub events: Vec<IoEvent>,
    /// Ground truth: `(cause, effect)` pairs.
    pub truth_edges: Vec<(EventId, EventId)>,
}

impl Trace {
    /// Number of captured events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events sorted by router-local time (stable: ties keep capture
    /// order).
    pub fn by_time(&self) -> Vec<&IoEvent> {
        let mut v: Vec<&IoEvent> = self.events.iter().collect();
        v.sort_by_key(|e| (e.time, e.id));
        v
    }

    /// Events of one router, in capture order.
    pub fn of_router(&self, r: RouterId) -> Vec<&IoEvent> {
        self.events.iter().filter(|e| e.router == r).collect()
    }

    /// Effective capture arrival times under per-router FIFO export: a
    /// router ships its log records in local-time order (syslog over a
    /// stream), so a record cannot arrive before any earlier record of
    /// the same router. Computed as a per-router running maximum over the
    /// raw sampled arrivals; lost records stay lost.
    pub fn effective_arrivals(&self) -> Vec<Option<SimTime>> {
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by_key(|&i| (self.events[i].time, self.events[i].id));
        let mut high: std::collections::BTreeMap<cpvr_types::RouterId, SimTime> =
            std::collections::BTreeMap::new();
        let mut out = vec![None; self.events.len()];
        for i in order {
            let e = &self.events[i];
            if let Some(a) = e.arrived_at {
                let eff = match high.get(&e.router) {
                    Some(h) => a.max(*h),
                    None => a,
                };
                high.insert(e.router, eff);
                out[i] = Some(eff);
            }
        }
        out
    }

    /// Events whose record had *arrived at the verifier* by `t` (under
    /// the FIFO export model of [`effective_arrivals`](Self::effective_arrivals)),
    /// i.e. the verifier's view of the network at wall-clock `t`.
    pub fn arrived_by(&self, t: SimTime) -> Vec<&IoEvent> {
        let eff = self.effective_arrivals();
        self.events
            .iter()
            .filter(|e| matches!(eff[e.id.index()], Some(a) if a <= t))
            .collect()
    }

    /// Reconstructs the FIB-only data-plane state as seen by applying, for
    /// each router `r`, the FIB events with `time <= cutoffs[r]`. This is
    /// how a (possibly skewed) distributed snapshot is assembled.
    ///
    /// # Panics
    ///
    /// Panics if `cutoffs.len()` is smaller than the largest router index
    /// in the trace.
    pub fn fib_snapshot(&self, cutoffs: &[SimTime]) -> DataPlane {
        let mut dp = DataPlane::new(cutoffs.len());
        for (r, t) in cutoffs.iter().enumerate() {
            dp.set_taken_at(RouterId(r as u32), *t);
        }
        for e in self.by_time() {
            let cutoff = cutoffs[e.router.index()];
            if e.time > cutoff {
                continue;
            }
            match &e.kind {
                IoKind::FibInstall { prefix, action } => {
                    dp.apply(&FibUpdate {
                        router: e.router,
                        prefix: *prefix,
                        kind: UpdateKind::Install,
                        action: *action,
                        at: e.time,
                    });
                }
                IoKind::FibRemove { prefix } => {
                    dp.apply(&FibUpdate {
                        router: e.router,
                        prefix: *prefix,
                        kind: UpdateKind::Remove,
                        // Action is irrelevant for removals.
                        action: FibAction::Drop,
                        at: e.time,
                    });
                }
                _ => {}
            }
        }
        dp
    }

    /// A uniform snapshot: every router cut at the same instant.
    pub fn fib_snapshot_at(&self, n_routers: usize, t: SimTime) -> DataPlane {
        self.fib_snapshot(&vec![t; n_routers])
    }

    /// The ground-truth ancestors of `e` (transitive closure over
    /// `truth_edges`).
    pub fn truth_ancestors(&self, e: EventId) -> Vec<EventId> {
        let mut seen = vec![false; self.events.len()];
        let mut stack = vec![e];
        let mut out = Vec::new();
        while let Some(cur) = stack.pop() {
            for (a, b) in &self.truth_edges {
                if *b == cur && !seen[a.index()] {
                    seen[a.index()] = true;
                    out.push(*a);
                    stack.push(*a);
                }
            }
        }
        out.sort();
        out
    }

    /// A summary of the trace: `(class label, count)` per event class,
    /// in a stable order — handy for reports and sanity checks.
    pub fn stats(&self) -> Vec<(&'static str, usize)> {
        let mut counts = [0usize; 9];
        for e in &self.events {
            let idx = match &e.kind {
                IoKind::ConfigChange { .. } => 0,
                IoKind::SoftReconfig { .. } => 1,
                IoKind::LinkStatus { .. } => 2,
                IoKind::RecvAdvert { .. } => 3,
                IoKind::RecvWithdraw { .. } => 4,
                IoKind::RibInstall { .. } | IoKind::RibRemove { .. } => 5,
                IoKind::FibInstall { .. } | IoKind::FibRemove { .. } => 6,
                IoKind::SendAdvert { .. } => 7,
                IoKind::SendWithdraw { .. } => 8,
            };
            counts[idx] += 1;
        }
        const LABELS: [&str; 9] = [
            "config",
            "soft-reconfig",
            "link-status",
            "recv-advert",
            "recv-withdraw",
            "rib",
            "fib",
            "send-advert",
            "send-withdraw",
        ];
        LABELS.iter().copied().zip(counts).collect()
    }

    /// Renders the trace as a human-readable log.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for e in self.by_time() {
            s.push_str(&e.to_string());
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpvr_topo::LinkId;

    fn pfx(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn ev(id: u32, router: u32, t_ms: u64, kind: IoKind) -> IoEvent {
        IoEvent {
            id: EventId(id),
            router: RouterId(router),
            time: SimTime::from_millis(t_ms),
            arrived_at: Some(SimTime::from_millis(t_ms + 1)),
            kind,
        }
    }

    #[test]
    fn kind_classification() {
        assert!(IoKind::ConfigChange {
            desc: "x".into(),
            change: None,
            inverse: None
        }
        .is_input());
        assert!(!IoKind::FibRemove {
            prefix: pfx("8.8.8.0/24")
        }
        .is_input());
        assert_eq!(
            IoKind::FibRemove {
                prefix: pfx("8.8.8.0/24")
            }
            .prefix(),
            Some(pfx("8.8.8.0/24"))
        );
        assert_eq!(IoKind::SoftReconfig { desc: "x".into() }.prefix(), None);
        assert_eq!(
            IoKind::RibRemove {
                proto: Proto::Bgp,
                prefix: pfx("8.8.8.0/24")
            }
            .proto(),
            Some(Proto::Bgp)
        );
    }

    #[test]
    fn trace_time_ordering() {
        let mut tr = Trace::default();
        tr.events
            .push(ev(0, 0, 10, IoKind::SoftReconfig { desc: "a".into() }));
        tr.events
            .push(ev(1, 1, 5, IoKind::SoftReconfig { desc: "b".into() }));
        let order: Vec<u32> = tr.by_time().iter().map(|e| e.id.0).collect();
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn arrived_by_respects_loss_and_delay() {
        let mut tr = Trace::default();
        tr.events
            .push(ev(0, 0, 10, IoKind::SoftReconfig { desc: "a".into() }));
        let mut lost = ev(1, 0, 12, IoKind::SoftReconfig { desc: "b".into() });
        lost.arrived_at = None;
        tr.events.push(lost);
        tr.events
            .push(ev(2, 0, 100, IoKind::SoftReconfig { desc: "c".into() }));
        let got: Vec<u32> = tr
            .arrived_by(SimTime::from_millis(50))
            .iter()
            .map(|e| e.id.0)
            .collect();
        assert_eq!(got, vec![0]);
    }

    #[test]
    fn snapshot_applies_cutoffs_per_router() {
        let mut tr = Trace::default();
        let act = FibAction::Forward(LinkId(0));
        tr.events.push(ev(
            0,
            0,
            10,
            IoKind::FibInstall {
                prefix: pfx("8.8.8.0/24"),
                action: act,
            },
        ));
        tr.events.push(ev(
            1,
            1,
            20,
            IoKind::FibInstall {
                prefix: pfx("8.8.8.0/24"),
                action: act,
            },
        ));
        // Cut router 0 at 15ms (sees its install), router 1 at 15ms (does
        // not).
        let dp = tr.fib_snapshot(&[SimTime::from_millis(15), SimTime::from_millis(15)]);
        assert_eq!(dp.fib(RouterId(0)).len(), 1);
        assert_eq!(dp.fib(RouterId(1)).len(), 0);
        // Uniform later snapshot sees both.
        let dp = tr.fib_snapshot_at(2, SimTime::from_millis(30));
        assert_eq!(dp.fib(RouterId(1)).len(), 1);
    }

    #[test]
    fn snapshot_applies_removals() {
        let mut tr = Trace::default();
        let act = FibAction::Forward(LinkId(0));
        tr.events.push(ev(
            0,
            0,
            10,
            IoKind::FibInstall {
                prefix: pfx("8.8.8.0/24"),
                action: act,
            },
        ));
        tr.events.push(ev(
            1,
            0,
            20,
            IoKind::FibRemove {
                prefix: pfx("8.8.8.0/24"),
            },
        ));
        let dp = tr.fib_snapshot_at(1, SimTime::from_millis(30));
        assert_eq!(dp.fib(RouterId(0)).len(), 0);
    }

    #[test]
    fn truth_ancestors_transitive() {
        let mut tr = Trace::default();
        for i in 0..4 {
            tr.events.push(ev(
                i,
                0,
                i as u64,
                IoKind::SoftReconfig {
                    desc: String::new(),
                },
            ));
        }
        tr.truth_edges.push((EventId(0), EventId(1)));
        tr.truth_edges.push((EventId(1), EventId(2)));
        tr.truth_edges.push((EventId(3), EventId(2)));
        let anc = tr.truth_ancestors(EventId(2));
        assert_eq!(anc, vec![EventId(0), EventId(1), EventId(3)]);
        assert!(tr.truth_ancestors(EventId(0)).is_empty());
    }

    #[test]
    fn display_renders_labels() {
        let e = ev(
            0,
            1,
            25_000,
            IoKind::SendAdvert {
                proto: Proto::Bgp,
                prefix: Some(pfx("8.8.8.0/24")),
                to: Some(PeerRef::Internal(RouterId(0))),
                route: None,
            },
        );
        let s = e.to_string();
        assert!(s.contains("R2"), "{s}");
        assert!(s.contains("send BGP advert 8.8.8.0/24 to R1"), "{s}");
        assert!(s.contains("25s"), "{s}");
    }

    #[test]
    fn stats_count_event_classes() {
        let mut tr = Trace::default();
        tr.events
            .push(ev(0, 0, 1, IoKind::SoftReconfig { desc: "a".into() }));
        tr.events.push(ev(
            1,
            0,
            2,
            IoKind::FibRemove {
                prefix: pfx("8.8.8.0/24"),
            },
        ));
        tr.events.push(ev(
            2,
            0,
            3,
            IoKind::FibInstall {
                prefix: pfx("8.8.8.0/24"),
                action: FibAction::Drop,
            },
        ));
        let stats = tr.stats();
        let get = |label: &str| stats.iter().find(|(l, _)| *l == label).unwrap().1;
        assert_eq!(get("soft-reconfig"), 1);
        assert_eq!(get("fib"), 2);
        assert_eq!(get("config"), 0);
        assert_eq!(stats.iter().map(|(_, c)| c).sum::<usize>(), 3);
    }
}

cpvr_types::impl_json_newtype!(crate::io, EventId);
cpvr_types::impl_json_enum!(Proto {
    Bgp,
    Ospf,
    Rip,
    Eigrp,
});
cpvr_types::impl_json_enum!(IoKind {
    ConfigChange { desc, change, inverse },
    SoftReconfig { desc },
    LinkStatus { desc, up, link, peer },
    RecvAdvert { proto, prefix, from, route },
    RecvWithdraw { proto, prefix, from },
    RibInstall { proto, prefix, route },
    RibRemove { proto, prefix },
    FibInstall { prefix, action },
    FibRemove { prefix },
    SendAdvert { proto, prefix, to, route },
    SendWithdraw { proto, prefix, to },
});
cpvr_types::impl_json_struct!(IoEvent {
    id,
    router,
    time,
    arrived_at,
    kind,
});
cpvr_types::impl_json_struct!(Trace {
    events,
    truth_edges
});
