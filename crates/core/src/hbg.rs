//! The happens-before graph (§4.3).
//!
//! Vertices are captured control-plane I/Os (identified by their
//! [`EventId`]); directed edges are happens-before relationships, each
//! carrying a confidence score and a record of which inference technique
//! produced it. The paper's §4.2 proposes acting on a violation only when
//! the supporting HBRs clear a confidence threshold, so confidence is a
//! first-class field and every traversal takes a threshold.

use cpvr_sim::{EventId, Trace};
use std::fmt;

/// Which technique asserted an HBR.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HbrSource {
    /// Matched a protocol rule (§4.1/§4.2 "rule matching").
    Rule(&'static str),
    /// Mined from I/O patterns in compliant traces (§4.2 "pattern
    /// matching").
    Pattern,
    /// Taken from the simulator's ground truth (testing/oracle only).
    Truth,
}

impl fmt::Display for HbrSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HbrSource::Rule(name) => {
                f.write_str("rule:")?;
                f.write_str(name)
            }
            HbrSource::Pattern => f.write_str("pattern"),
            HbrSource::Truth => f.write_str("truth"),
        }
    }
}

/// One happens-before relationship: `from` happened before (and may have
/// caused) `to`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hbr {
    /// The antecedent event.
    pub from: EventId,
    /// The consequent event.
    pub to: EventId,
    /// Statistical confidence in `0.0..=1.0`. Rule matches carry 1.0;
    /// mined patterns carry their observed frequency.
    pub confidence: f64,
    /// Which technique produced the edge.
    pub source: HbrSource,
}

/// The happens-before graph over a trace's events.
///
/// ```
/// use cpvr_core::hbg::{Hbg, Hbr, HbrSource};
/// use cpvr_sim::EventId;
///
/// // config(e0) → rib(e1) → fib(e2)
/// let mut g = Hbg::new(3);
/// g.add(Hbr { from: EventId(0), to: EventId(1), confidence: 1.0, source: HbrSource::Rule("recv->rib") });
/// g.add(Hbr { from: EventId(1), to: EventId(2), confidence: 1.0, source: HbrSource::Rule("rib->fib") });
/// assert_eq!(g.root_ancestors(EventId(2), 0.5), vec![EventId(0)]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Hbg {
    edges: Vec<Hbr>,
    /// Edge indices by source event and by target event.
    outs: Adjacency,
    ins: Adjacency,
}

/// "No edge" in the adjacency threading.
const NIL: u32 = u32::MAX;

/// One direction's adjacency lists, threaded through flat arrays in
/// insertion order: a vertex costs one fixed-size `(head, tail)` cell
/// and an edge one `next` index — no per-vertex heap allocation.
#[derive(Clone, Debug, Default)]
struct Adjacency {
    ends: Vec<(u32, u32)>,
    next: Vec<u32>,
}

impl Adjacency {
    fn grow_to(&mut self, n: usize) {
        if n > self.ends.len() {
            self.ends.resize(n, (NIL, NIL));
        }
    }

    /// Appends the newest edge, `idx == next.len()`, to `v`'s list.
    fn push(&mut self, v: EventId, idx: u32) {
        self.next.push(NIL);
        let (head, tail) = &mut self.ends[v.index()];
        match *tail {
            NIL => *head = idx,
            last => self.next[last as usize] = idx,
        }
        *tail = idx;
    }

    /// The edge indices on `v`'s list, in insertion order.
    fn of(&self, v: EventId) -> impl Iterator<Item = usize> + '_ {
        let mut i = self.ends[v.index()].0;
        std::iter::from_fn(move || {
            let cur = i as usize;
            // `NIL` is past the end of `next` (`Hbg::add` caps the edge
            // count below it), so it ends the walk.
            i = *self.next.get(cur)?;
            Some(cur)
        })
    }
}

impl Hbg {
    /// An empty graph over `n` events.
    pub fn new(n: usize) -> Self {
        let mut g = Hbg::default();
        g.grow_to(n);
        g
    }

    fn in_edges(&self, e: EventId) -> impl Iterator<Item = &Hbr> {
        self.ins.of(e).map(|i| &self.edges[i])
    }

    /// The edges out of `e`, in insertion order.
    pub fn out_edges(&self, e: EventId) -> impl Iterator<Item = &Hbr> {
        self.outs.of(e).map(|i| &self.edges[i])
    }

    /// Number of events the graph covers.
    pub fn num_events(&self) -> usize {
        self.outs.ends.len()
    }

    /// All edges.
    pub fn edges(&self) -> &[Hbr] {
        &self.edges
    }

    /// Adds an edge. Duplicate `(from, to)` pairs keep the higher
    /// confidence (and its source).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add(&mut self, hbr: Hbr) {
        let n = self.num_events();
        assert!(
            hbr.from.index() < n && hbr.to.index() < n,
            "event out of range"
        );
        // In-lists are short (one consequent's antecedents); out-lists
        // are not (a soft reconfiguration parents every RIB change).
        let dup = self
            .ins
            .of(hbr.to)
            .find(|&i| self.edges[i].from == hbr.from);
        if let Some(i) = dup {
            if self.edges[i].confidence < hbr.confidence {
                self.edges[i] = hbr;
            }
            return;
        }
        let idx = u32::try_from(self.edges.len())
            .ok()
            .filter(|i| *i != NIL)
            .expect("under 2^32 - 1 edges");
        self.edges.push(hbr);
        self.outs.push(hbr.from, idx);
        self.ins.push(hbr.to, idx);
    }

    /// Extends the graph to cover `n` events (no-op if it already does).
    /// The incremental builder grows the graph as events are ingested,
    /// before their edges are inferred.
    pub fn grow_to(&mut self, n: usize) {
        self.outs.grow_to(n);
        self.ins.grow_to(n);
    }

    /// The edges in canonical order — sorted by `(from, to)`, which is
    /// unique per pair by construction ([`add`](Self::add) dedups). Two
    /// graphs built from the same trace by different strategies
    /// (sequential, sharded-parallel, incremental) compare equal exactly
    /// when their canonical edge lists compare equal.
    pub fn canonical_edges(&self) -> Vec<Hbr> {
        let mut out = self.edges.clone();
        out.sort_by_key(|h| (h.from, h.to));
        out
    }

    /// Direct antecedents of `e` with confidence ≥ `min_conf`.
    pub fn parents(&self, e: EventId, min_conf: f64) -> Vec<EventId> {
        self.in_edges(e)
            .filter(|h| h.confidence >= min_conf)
            .map(|h| h.from)
            .collect()
    }

    /// Direct consequents of `e` with confidence ≥ `min_conf`.
    pub fn children(&self, e: EventId, min_conf: f64) -> Vec<EventId> {
        self.out_edges(e)
            .filter(|h| h.confidence >= min_conf)
            .map(|h| h.to)
            .collect()
    }

    /// All transitive antecedents of `e` (sorted, deduplicated).
    pub fn ancestors(&self, e: EventId, min_conf: f64) -> Vec<EventId> {
        self.closure(e, min_conf, true)
    }

    /// All transitive consequents of `e` (sorted, deduplicated).
    pub fn descendants(&self, e: EventId, min_conf: f64) -> Vec<EventId> {
        self.closure(e, min_conf, false)
    }

    fn closure(&self, e: EventId, min_conf: f64, up: bool) -> Vec<EventId> {
        let mut seen = vec![false; self.num_events()];
        let mut stack = vec![e];
        let mut out = Vec::new();
        while let Some(cur) = stack.pop() {
            let step = if up {
                self.parents(cur, min_conf)
            } else {
                self.children(cur, min_conf)
            };
            for nxt in step {
                if !seen[nxt.index()] {
                    seen[nxt.index()] = true;
                    out.push(nxt);
                    stack.push(nxt);
                }
            }
        }
        out.sort();
        out
    }

    /// The leaf ancestors of `e`: transitive antecedents that themselves
    /// have no antecedents — the candidate root causes (§6).
    pub fn root_ancestors(&self, e: EventId, min_conf: f64) -> Vec<EventId> {
        let anc = self.ancestors(e, min_conf);
        if anc.is_empty() {
            // e itself is a root.
            return vec![e];
        }
        let roots: Vec<EventId> = anc
            .iter()
            .copied()
            .filter(|a| self.parents(*a, min_conf).is_empty())
            .collect();
        if roots.is_empty() {
            anc // defensive: cyclic confidence filtering; return everything
        } else {
            roots
        }
    }

    /// Renders the graph against its trace as an indented event list with
    /// edge annotations — the textual analogue of the paper's Fig. 4/5
    /// drawings.
    pub fn render(&self, trace: &Trace, min_conf: f64) -> String {
        let mut s = String::new();
        for e in trace.by_time() {
            s.push_str(&format!("{e}\n"));
            for edge in self.in_edges(e.id).filter(|h| h.confidence >= min_conf) {
                s.push_str(&format!(
                    "    <- {} ({} conf {:.2})\n",
                    trace.events[edge.from.index()],
                    edge.source,
                    edge.confidence
                ));
            }
        }
        s
    }

    /// Precision/recall of this graph's edges against the trace's ground
    /// truth, considering only edges with confidence ≥ `min_conf`.
    /// Returns `(precision, recall, true_positives)`.
    pub fn score_against_truth(&self, trace: &Trace, min_conf: f64) -> (f64, f64, usize) {
        use std::collections::BTreeSet;
        let truth: BTreeSet<(EventId, EventId)> = trace.truth_edges.iter().copied().collect();
        let mine: BTreeSet<(EventId, EventId)> = self
            .edges
            .iter()
            .filter(|h| h.confidence >= min_conf)
            .map(|h| (h.from, h.to))
            .collect();
        let tp = mine.intersection(&truth).count();
        let precision = if mine.is_empty() {
            1.0
        } else {
            tp as f64 / mine.len() as f64
        };
        let recall = if truth.is_empty() {
            1.0
        } else {
            tp as f64 / truth.len() as f64
        };
        (precision, recall, tp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> Hbg {
        let mut g = Hbg::new(n);
        for i in 1..n {
            g.add(Hbr {
                from: EventId(i as u32 - 1),
                to: EventId(i as u32),
                confidence: 1.0,
                source: HbrSource::Rule("test"),
            });
        }
        g
    }

    #[test]
    fn parents_children() {
        let g = chain(3);
        assert_eq!(g.parents(EventId(1), 0.5), vec![EventId(0)]);
        assert_eq!(g.children(EventId(1), 0.5), vec![EventId(2)]);
        assert!(g.parents(EventId(0), 0.5).is_empty());
    }

    #[test]
    fn ancestors_descendants_transitive() {
        let g = chain(4);
        assert_eq!(
            g.ancestors(EventId(3), 0.5),
            vec![EventId(0), EventId(1), EventId(2)]
        );
        assert_eq!(
            g.descendants(EventId(0), 0.5),
            vec![EventId(1), EventId(2), EventId(3)]
        );
    }

    #[test]
    fn confidence_threshold_filters_edges() {
        let mut g = Hbg::new(3);
        g.add(Hbr {
            from: EventId(0),
            to: EventId(1),
            confidence: 0.9,
            source: HbrSource::Pattern,
        });
        g.add(Hbr {
            from: EventId(1),
            to: EventId(2),
            confidence: 0.3,
            source: HbrSource::Pattern,
        });
        assert_eq!(g.ancestors(EventId(2), 0.5), vec![]);
        assert_eq!(g.ancestors(EventId(2), 0.2), vec![EventId(0), EventId(1)]);
    }

    #[test]
    fn duplicate_edge_keeps_higher_confidence() {
        let mut g = Hbg::new(2);
        g.add(Hbr {
            from: EventId(0),
            to: EventId(1),
            confidence: 0.4,
            source: HbrSource::Pattern,
        });
        g.add(Hbr {
            from: EventId(0),
            to: EventId(1),
            confidence: 0.9,
            source: HbrSource::Rule("r"),
        });
        assert_eq!(g.edges().len(), 1);
        assert_eq!(g.edges()[0].confidence, 0.9);
        assert_eq!(g.edges()[0].source, HbrSource::Rule("r"));
        // Lower-confidence re-add does not downgrade.
        g.add(Hbr {
            from: EventId(0),
            to: EventId(1),
            confidence: 0.1,
            source: HbrSource::Pattern,
        });
        assert_eq!(g.edges()[0].confidence, 0.9);
    }

    #[test]
    fn root_ancestors_finds_leaves() {
        // Diamond: 0 -> 1 -> 3, 2 -> 3; plus isolated root 2.
        let mut g = Hbg::new(4);
        for (a, b) in [(0u32, 1u32), (1, 3), (2, 3)] {
            g.add(Hbr {
                from: EventId(a),
                to: EventId(b),
                confidence: 1.0,
                source: HbrSource::Rule("t"),
            });
        }
        assert_eq!(
            g.root_ancestors(EventId(3), 0.5),
            vec![EventId(0), EventId(2)]
        );
        assert_eq!(
            g.root_ancestors(EventId(0), 0.5),
            vec![EventId(0)],
            "a root is its own root"
        );
    }

    #[test]
    fn grow_to_extends_range() {
        let mut g = Hbg::new(1);
        g.grow_to(3);
        assert_eq!(g.num_events(), 3);
        g.add(Hbr {
            from: EventId(0),
            to: EventId(2),
            confidence: 1.0,
            source: HbrSource::Truth,
        });
        g.grow_to(2); // shrinking is a no-op
        assert_eq!(g.num_events(), 3);
        assert_eq!(g.parents(EventId(2), 0.5), vec![EventId(0)]);
    }

    #[test]
    fn canonical_edges_sorted_by_endpoints() {
        let mut g = Hbg::new(3);
        g.add(Hbr {
            from: EventId(2),
            to: EventId(0),
            confidence: 1.0,
            source: HbrSource::Truth,
        });
        g.add(Hbr {
            from: EventId(0),
            to: EventId(1),
            confidence: 0.5,
            source: HbrSource::Pattern,
        });
        let canon: Vec<(u32, u32)> = g
            .canonical_edges()
            .iter()
            .map(|h| (h.from.0, h.to.0))
            .collect();
        assert_eq!(canon, vec![(0, 1), (2, 0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut g = Hbg::new(1);
        g.add(Hbr {
            from: EventId(0),
            to: EventId(5),
            confidence: 1.0,
            source: HbrSource::Truth,
        });
    }

    #[test]
    fn scoring_against_truth() {
        let mut trace = Trace::default();
        // Three fake events (content irrelevant for scoring).
        for i in 0..3u32 {
            trace.events.push(cpvr_sim::IoEvent {
                id: EventId(i),
                router: cpvr_types::RouterId(0),
                time: cpvr_types::SimTime::from_millis(i as u64),
                arrived_at: None,
                kind: cpvr_sim::IoKind::SoftReconfig {
                    desc: String::new(),
                },
            });
        }
        trace.truth_edges = vec![(EventId(0), EventId(1)), (EventId(1), EventId(2))];
        let mut g = Hbg::new(3);
        g.add(Hbr {
            from: EventId(0),
            to: EventId(1),
            confidence: 1.0,
            source: HbrSource::Rule("t"),
        });
        g.add(Hbr {
            from: EventId(0),
            to: EventId(2),
            confidence: 1.0,
            source: HbrSource::Rule("t"),
        }); // false positive
        let (p, r, tp) = g.score_against_truth(&trace, 0.5);
        assert_eq!(tp, 1);
        assert!((p - 0.5).abs() < 1e-9);
        assert!((r - 0.5).abs() < 1e-9);
    }
}
