//! Provenance: tracing problematic I/Os back to their root causes (§6,
//! Fig. 4).
//!
//! "By traversing the HBG starting from a problematic FIB update, we can
//! determine the sequence of I/Os that led to the policy violation. Any
//! leaf nodes we encounter represent the root cause(s) of the event."

use crate::hbg::Hbg;
use cpvr_bgp::{ConfigChange, PeerRef};
use cpvr_sim::{EventId, IoKind, Trace};
use cpvr_topo::{ExtPeerId, LinkId};
use cpvr_types::{Ipv4Prefix, RouterId, SimTime};
use std::fmt;

/// Classification of a root-cause event.
#[derive(Clone, Debug, PartialEq)]
pub enum RootCauseKind {
    /// An operator configuration change — revertible if the inverse is
    /// known.
    ConfigChange {
        /// The change, when structured information was captured.
        change: Option<ConfigChange>,
        /// Its inverse against the pre-change configuration.
        inverse: Option<ConfigChange>,
    },
    /// A hardware status change.
    Hardware {
        /// New state.
        up: bool,
        /// Affected internal link, if any.
        link: Option<LinkId>,
        /// Affected uplink, if any.
        peer: Option<ExtPeerId>,
    },
    /// A route learned from outside the domain (nothing to revert — the
    /// Internet did it).
    ExternalRoute {
        /// The announcing peer.
        peer: Option<ExtPeerId>,
        /// The prefix.
        prefix: Option<Ipv4Prefix>,
        /// Whether it was a withdrawal.
        withdraw: bool,
    },
    /// Protocol startup (synthetic boot root).
    ProtocolStart,
    /// A leaf that should have had antecedents — usually a sign of
    /// imperfect HBR inference or lost capture records.
    Unexplained,
}

/// One root cause of a traced event.
#[derive(Clone, Debug, PartialEq)]
pub struct RootCause {
    /// The leaf event.
    pub event: EventId,
    /// Where it happened.
    pub router: RouterId,
    /// When it happened.
    pub time: SimTime,
    /// What it was.
    pub kind: RootCauseKind,
    /// Bottleneck confidence of the best path from this leaf to the
    /// traced event (1.0 when every HBR on the path is a rule match).
    pub confidence: f64,
}

impl fmt::Display for RootCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match &self.kind {
            RootCauseKind::ConfigChange { change, .. } => match change {
                Some(c) => format!("config change: {c}"),
                None => "config change".to_string(),
            },
            RootCauseKind::Hardware { up, link, peer } => {
                let target = match (link, peer) {
                    (Some(l), _) => l.to_string(),
                    (_, Some(p)) => p.to_string(),
                    _ => "?".to_string(),
                };
                format!("hardware: {target} {}", if *up { "up" } else { "down" })
            }
            RootCauseKind::ExternalRoute {
                peer,
                prefix,
                withdraw,
            } => format!(
                "external {} of {} from {}",
                if *withdraw { "withdrawal" } else { "route" },
                prefix.map(|p| p.to_string()).unwrap_or_else(|| "?".into()),
                peer.map(|p| p.to_string()).unwrap_or_else(|| "?".into()),
            ),
            RootCauseKind::ProtocolStart => "protocol start".to_string(),
            RootCauseKind::Unexplained => "unexplained leaf".to_string(),
        };
        write!(
            f,
            "{} @{} on {}: {} (conf {:.2})",
            self.event, self.time, self.router, what, self.confidence
        )
    }
}

/// Classifies a trace event as a root-cause kind.
fn classify(kind: &IoKind) -> RootCauseKind {
    match kind {
        IoKind::ConfigChange {
            change, inverse, ..
        } => match change {
            Some(_) => RootCauseKind::ConfigChange {
                change: change.clone(),
                inverse: inverse.clone(),
            },
            None => RootCauseKind::ProtocolStart,
        },
        IoKind::LinkStatus { up, link, peer, .. } => RootCauseKind::Hardware {
            up: *up,
            link: *link,
            peer: *peer,
        },
        IoKind::RecvAdvert { prefix, from, .. } => RootCauseKind::ExternalRoute {
            peer: match from {
                Some(PeerRef::External(p)) => Some(*p),
                _ => None,
            },
            prefix: *prefix,
            withdraw: false,
        },
        IoKind::RecvWithdraw { prefix, from, .. } => RootCauseKind::ExternalRoute {
            peer: match from {
                Some(PeerRef::External(p)) => Some(*p),
                _ => None,
            },
            prefix: *prefix,
            withdraw: true,
        },
        _ => RootCauseKind::Unexplained,
    }
}

/// Traces the root causes of `from` through the HBG, classifying each
/// leaf. Results are sorted by descending confidence, then by time
/// (most recent first) — the likeliest culprits lead.
pub fn root_causes(trace: &Trace, hbg: &Hbg, from: EventId, min_conf: f64) -> Vec<RootCause> {
    let leaves = hbg.root_ancestors(from, min_conf);
    let mut out: Vec<RootCause> = leaves
        .into_iter()
        .map(|leaf| {
            let e = &trace.events[leaf.index()];
            RootCause {
                event: leaf,
                router: e.router,
                time: e.time,
                kind: classify(&e.kind),
                confidence: bottleneck_confidence(hbg, leaf, from, min_conf),
            }
        })
        .collect();
    out.sort_by(|a, b| {
        b.confidence
            .total_cmp(&a.confidence)
            .then(b.time.cmp(&a.time))
    });
    out
}

/// The widest-path (maximum bottleneck) confidence from `leaf` down to
/// `target`, considering only edges ≥ `min_conf`. Returns 0.0 if no path
/// exists (shouldn't happen for a reported leaf), 1.0 when
/// `leaf == target`.
pub fn bottleneck_confidence(hbg: &Hbg, leaf: EventId, target: EventId, min_conf: f64) -> f64 {
    match widest_path(hbg, leaf, target, min_conf) {
        Some((conf, _)) => conf,
        None => 0.0,
    }
}

/// The widest-path node sequence from `leaf` down to `target`
/// (inclusive on both ends), considering only edges ≥ `min_conf` — the
/// provenance path a repair proof carries as evidence.
///
/// Defined for every input, never panicking: `leaf == target` yields
/// the one-node path `[leaf]` (a self-loop provenance path carries no
/// edges), an out-of-range id or an unreachable target yields an empty
/// path.
pub fn provenance_path(hbg: &Hbg, leaf: EventId, target: EventId, min_conf: f64) -> Vec<EventId> {
    match widest_path(hbg, leaf, target, min_conf) {
        Some((_, path)) => path,
        None => Vec::new(),
    }
}

/// Widest-path (maximum bottleneck) search from `leaf` to `target`:
/// the shared engine behind [`bottleneck_confidence`] and
/// [`provenance_path`]. Returns the bottleneck confidence and the node
/// sequence, or `None` when no path exists or an id is out of range.
fn widest_path(
    hbg: &Hbg,
    leaf: EventId,
    target: EventId,
    min_conf: f64,
) -> Option<(f64, Vec<EventId>)> {
    use std::cmp::Ordering;
    use std::collections::{BinaryHeap, HashMap};

    #[derive(PartialEq)]
    struct Entry(f64, EventId);
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
        }
    }

    let n = hbg.num_events();
    if leaf.index() >= n || target.index() >= n {
        return None;
    }
    // Best bottleneck so far and the node it was reached from, for the
    // nodes the search touched only: the cost is that of the subgraph
    // below `leaf`, whatever else the graph holds.
    let mut best: HashMap<EventId, (f64, EventId)> = HashMap::from([(leaf, (1.0, leaf))]);
    let mut heap = BinaryHeap::from([Entry(1.0, leaf)]);
    while let Some(Entry(conf, node)) = heap.pop() {
        if node == target {
            let mut path = vec![target];
            let mut cur = target;
            while cur != leaf {
                cur = best[&cur].1;
                path.push(cur);
            }
            path.reverse();
            return Some((conf, path));
        }
        if conf < best[&node].0 {
            continue;
        }
        for h in hbg.out_edges(node).filter(|h| h.confidence >= min_conf) {
            let nc = conf.min(h.confidence);
            if nc > best.get(&h.to).map_or(0.0, |(c, _)| *c) {
                best.insert(h.to, (nc, node));
                heap.push(Entry(nc, h.to));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hbg::{Hbr, HbrSource};
    use cpvr_sim::IoEvent;

    fn mk_trace(kinds: Vec<IoKind>) -> Trace {
        let mut t = Trace::default();
        for (i, kind) in kinds.into_iter().enumerate() {
            t.events.push(IoEvent {
                id: EventId(i as u32),
                router: RouterId(i as u32 % 3),
                time: SimTime::from_millis(i as u64),
                arrived_at: Some(SimTime::from_millis(i as u64)),
                kind,
            });
        }
        t
    }

    fn fib(p: &str) -> IoKind {
        IoKind::FibInstall {
            prefix: p.parse().unwrap(),
            action: cpvr_dataplane::FibAction::Drop,
        }
    }

    #[test]
    fn fig4_shape_config_change_is_the_root() {
        // e0 config change (R1) → e1 soft reconfig → e2 rib → e3 fib.
        let trace = mk_trace(vec![
            IoKind::ConfigChange {
                desc: "lp 10".into(),
                change: Some(ConfigChange::SetAddPath(true)),
                inverse: Some(ConfigChange::SetAddPath(false)),
            },
            IoKind::SoftReconfig {
                desc: "lp 10".into(),
            },
            IoKind::RibInstall {
                proto: cpvr_sim::Proto::Bgp,
                prefix: "8.8.8.0/24".parse().unwrap(),
                route: None,
            },
            fib("8.8.8.0/24"),
        ]);
        let mut g = Hbg::new(4);
        for (a, b) in [(0u32, 1u32), (1, 2), (2, 3)] {
            g.add(Hbr {
                from: EventId(a),
                to: EventId(b),
                confidence: 1.0,
                source: HbrSource::Rule("t"),
            });
        }
        let causes = root_causes(&trace, &g, EventId(3), 0.5);
        assert_eq!(causes.len(), 1);
        assert!(matches!(
            causes[0].kind,
            RootCauseKind::ConfigChange {
                inverse: Some(ConfigChange::SetAddPath(false)),
                ..
            }
        ));
        assert_eq!(causes[0].confidence, 1.0);
    }

    /// Root-causing an incident costs what its own provenance subgraph
    /// costs: 200 000 unrelated edges over 400 000 unrelated events
    /// change neither the answer nor, beyond allocator noise, the time.
    /// (Scanning the edge list per expansion, or sizing the search's
    /// scratch by the graph, made this a millisecond per call.)
    #[test]
    fn unrelated_history_does_not_slow_root_causes() {
        use std::time::{Duration, Instant};
        const NOISE: u32 = 200_000;
        let incident = |pad: u32| {
            let mut kinds = vec![
                IoKind::ConfigChange {
                    desc: "lp 10".into(),
                    change: Some(ConfigChange::SetAddPath(true)),
                    inverse: Some(ConfigChange::SetAddPath(false)),
                },
                IoKind::SoftReconfig {
                    desc: "lp 10".into(),
                },
                fib("8.8.8.0/24"),
            ];
            kinds.extend((0..2 * pad).map(|_| fib("9.9.9.0/24")));
            let trace = mk_trace(kinds);
            let mut g = Hbg::new(trace.len());
            let noise = (0..pad).map(|i| (3 + 2 * i, 4 + 2 * i));
            for (a, b) in [(0u32, 1u32), (1, 2)].into_iter().chain(noise) {
                g.add(Hbr {
                    from: EventId(a),
                    to: EventId(b),
                    confidence: 1.0,
                    source: HbrSource::Rule("t"),
                });
            }
            (trace, g)
        };
        let time = |(trace, g): &(Trace, Hbg)| {
            let t0 = Instant::now();
            let mut causes = Vec::new();
            for _ in 0..100 {
                causes = root_causes(trace, g, EventId(2), 0.5);
            }
            (causes, t0.elapsed())
        };
        let (clean, clean_time) = time(&incident(0));
        let (noisy, noisy_time) = time(&incident(NOISE));
        assert_eq!(noisy, clean);
        assert_eq!(clean[0].event, EventId(0));
        assert!(
            noisy_time < 20 * clean_time + Duration::from_millis(50),
            "100 root-cause queries took {noisy_time:?} beside unrelated history, {clean_time:?} alone"
        );
    }

    #[test]
    fn external_and_hardware_roots_classified() {
        let trace = mk_trace(vec![
            IoKind::RecvAdvert {
                proto: cpvr_sim::Proto::Bgp,
                prefix: Some("8.8.8.0/24".parse().unwrap()),
                from: Some(PeerRef::External(ExtPeerId(1))),
                route: None,
            },
            IoKind::LinkStatus {
                desc: "L0 down".into(),
                up: false,
                link: Some(LinkId(0)),
                peer: None,
            },
            fib("8.8.8.0/24"),
        ]);
        let mut g = Hbg::new(3);
        g.add(Hbr {
            from: EventId(0),
            to: EventId(2),
            confidence: 1.0,
            source: HbrSource::Rule("t"),
        });
        g.add(Hbr {
            from: EventId(1),
            to: EventId(2),
            confidence: 1.0,
            source: HbrSource::Rule("t"),
        });
        let causes = root_causes(&trace, &g, EventId(2), 0.5);
        assert_eq!(causes.len(), 2);
        assert!(causes.iter().any(|c| matches!(
            c.kind,
            RootCauseKind::ExternalRoute {
                peer: Some(ExtPeerId(1)),
                withdraw: false,
                ..
            }
        )));
        assert!(causes.iter().any(|c| matches!(
            c.kind,
            RootCauseKind::Hardware {
                up: false,
                link: Some(LinkId(0)),
                ..
            }
        )));
    }

    #[test]
    fn confidence_is_bottleneck_of_best_path() {
        // Two paths from leaf 0 to target 3: via 1 (min 0.9) and via 2
        // (min 0.4). Report 0.9.
        let trace = mk_trace(vec![
            IoKind::SoftReconfig {
                desc: "root".into(),
            },
            IoKind::SoftReconfig { desc: "a".into() },
            IoKind::SoftReconfig { desc: "b".into() },
            fib("8.8.8.0/24"),
        ]);
        let mut g = Hbg::new(4);
        g.add(Hbr {
            from: EventId(0),
            to: EventId(1),
            confidence: 0.9,
            source: HbrSource::Pattern,
        });
        g.add(Hbr {
            from: EventId(1),
            to: EventId(3),
            confidence: 0.95,
            source: HbrSource::Pattern,
        });
        g.add(Hbr {
            from: EventId(0),
            to: EventId(2),
            confidence: 0.4,
            source: HbrSource::Pattern,
        });
        g.add(Hbr {
            from: EventId(2),
            to: EventId(3),
            confidence: 1.0,
            source: HbrSource::Pattern,
        });
        let causes = root_causes(&trace, &g, EventId(3), 0.1);
        assert_eq!(causes.len(), 1);
        assert!((causes[0].confidence - 0.9).abs() < 1e-9);
    }

    #[test]
    fn rootless_target_is_its_own_cause() {
        let trace = mk_trace(vec![IoKind::ConfigChange {
            desc: "boot".into(),
            change: None,
            inverse: None,
        }]);
        let g = Hbg::new(1);
        let causes = root_causes(&trace, &g, EventId(0), 0.5);
        assert_eq!(causes.len(), 1);
        assert_eq!(causes[0].kind, RootCauseKind::ProtocolStart);
        assert_eq!(causes[0].confidence, 1.0);
    }

    #[test]
    fn low_confidence_edges_ignored_at_threshold() {
        let trace = mk_trace(vec![
            IoKind::SoftReconfig {
                desc: "weak root".into(),
            },
            fib("8.8.8.0/24"),
        ]);
        let mut g = Hbg::new(2);
        g.add(Hbr {
            from: EventId(0),
            to: EventId(1),
            confidence: 0.2,
            source: HbrSource::Pattern,
        });
        let causes = root_causes(&trace, &g, EventId(1), 0.5);
        // At threshold 0.5 the edge vanishes: the FIB event is its own
        // (unexplained) root.
        assert_eq!(causes.len(), 1);
        assert_eq!(causes[0].event, EventId(1));
        assert_eq!(causes[0].kind, RootCauseKind::Unexplained);
    }
}

cpvr_types::impl_json_enum!(RootCauseKind {
    ConfigChange { change, inverse },
    Hardware { up, link, peer },
    ExternalRoute { peer, prefix, withdraw },
    ProtocolStart,
    Unexplained,
});
cpvr_types::impl_json_struct!(RootCause {
    event,
    router,
    time,
    kind,
    confidence,
});
