//! Incremental HBG construction.
//!
//! The batch pipeline ([`infer_hbg`](crate::infer::infer_hbg)) re-sweeps
//! the whole trace every time the control loop wants a graph — O(trace)
//! work per verification epoch, which the paper's §7 calls out as the
//! obstacle to running verification *inside* the control plane. The
//! [`HbgBuilder`] instead ingests [`IoEvent`]s as the network emits them
//! and keeps the graph current in O(new events): the same sweep state
//! the batch matchers use (`RuleSweep`, `SweepState`) is simply kept
//! alive between epochs instead of being rebuilt.
//!
//! ## Watermarks
//!
//! Capture is not causal: a router may emit an event stamped slightly in
//! the future (RIB/FIB/send processing delays), so the builder cannot
//! fold an event into the sweep the moment it is ingested — a
//! lower-stamped event may still arrive. Ingested events are therefore
//! buffered and folded in `(time, id)` order only up to an explicit
//! **watermark** the caller advances ([`advance`](HbgBuilder::advance)).
//! The simulator guarantees that after running to time `t` every event
//! stamped ≤ `t` has been emitted, so the control loop advances the
//! watermark to its verification horizon and gets exactly the graph the
//! batch path would infer over the same events — bit-for-bit, per
//! [`canonical_edges`](crate::hbg::Hbg::canonical_edges).
//!
//! ## The pending queue holds records and pays only for disorder
//!
//! What waits for the watermark is the event's 48-byte [`FoldRecord`],
//! classified once at ingest — not the 136-byte [`IoEvent`] with its
//! description, config payload or BGP route — and the sweeps match on
//! the record. A caller that also feeds a tracker classifies once for
//! both ([`ingest_record`](HbgBuilder::ingest_record)).
//!
//! Capture streams arrive *nearly* in `(time, id)` order: one router's
//! export is in order, and routers interleave within a batch. The
//! buffer is one queue holding a sorted run followed by an unsorted tail
//! (`Pending`, below): a record that extends the run costs a push and a
//! pop, nothing else; stragglers are sorted — adaptively, so their own
//! in-order stretches are merged rather than re-sorted — once per
//! advance, together with only the part of the run they interleave with.
//! The queue and the graph's per-vertex adjacency cells grow by fixed
//! blocks (`BlockQueue`, in `blocks.rs`): a backlog is never copied, and a
//! queue that streams reuses one spare block instead of allocating.
//! Folding an event allocates nothing: the per-event edge buffer, the
//! sort scratch and the graph's edge arrays grow geometrically and are
//! reused, and the rule cells keep their first id inline
//! ([`rules`](crate::rules)).

use crate::blocks::BlockQueue;
use crate::hbg::{Hbg, Hbr, HbrSource};
use crate::infer::{Cand, InferConfig, PatternEngine, SweepState};
use crate::rules::{FoldRecord, RuleScope, RuleSweep};
use cpvr_sim::{EventId, IoEvent};
use cpvr_types::SimTime;
use std::collections::BTreeMap;

/// Ingested events awaiting the watermark: `queue[..sorted]` is a
/// `(time, id)`-sorted run that [`pop_through`](Self::pop_through) drains
/// from the front; `queue[sorted..]` is the tail of arrivals that sorted
/// before the run's last event (or behind another straggler), in arrival
/// order. The queue grows by fixed blocks, so a backlog is never copied.
#[derive(Clone, Default)]
struct Pending {
    queue: BlockQueue<FoldRecord>,
    sorted: usize,
    /// What [`settle`](Self::settle) sorts; kept to reuse its allocation.
    scratch: Vec<FoldRecord>,
}

impl Pending {
    fn push(&mut self, e: FoldRecord) {
        if self.sorted == self.queue.len() && self.queue.back().is_none_or(|b| b.key() <= e.key()) {
            self.sorted += 1;
        }
        self.queue.push_back(e);
    }

    /// Folds the tail into the run. Only the suffix of the run that some
    /// straggler sorts into is touched, and the sort is stable-adaptive:
    /// it finds that suffix and the tail's in-order stretches as
    /// already-sorted runs and merges them.
    fn settle(&mut self) {
        self.queue
            .sort_tail(self.sorted, FoldRecord::key, &mut self.scratch);
        self.sorted = self.queue.len();
    }

    /// Removes and returns the earliest event of the run if it is
    /// stamped at or before `watermark`. Call [`settle`](Self::settle)
    /// first: the tail is not looked at.
    fn pop_through(&mut self, watermark: SimTime) -> Option<FoldRecord> {
        if self.queue.front()?.time > watermark {
            return None;
        }
        self.sorted -= 1;
        self.queue.pop_front()
    }
}

/// Maintains a happens-before graph incrementally as events stream in.
///
/// ```
/// use cpvr_core::builder::HbgBuilder;
/// use cpvr_core::infer::InferConfig;
/// use cpvr_types::SimTime;
///
/// let cfg = InferConfig { rules: true, patterns: None, min_confidence: 0.0, proximate: false };
/// let mut b = HbgBuilder::new(&cfg);
/// // ... b.ingest(&event) as the capture stream delivers records ...
/// b.advance(SimTime::MAX);
/// let _graph = b.hbg();
/// ```
#[derive(Clone)]
pub struct HbgBuilder {
    rules: Option<RuleSweep>,
    /// Which rule family this builder folds — [`RuleScope::All`] for
    /// the monolithic pipeline; a sharded pipeline splits one builder
    /// into a `LocalOnly` builder per router slice plus a `CrossOnly`
    /// builder per conversation slice, whose edge union equals the
    /// monolithic graph.
    scope: RuleScope,
    patterns: Option<(PatternEngine, bool)>,
    state: SweepState,
    pending: Pending,
    /// `None` until the first [`advance`](Self::advance).
    watermark: Option<SimTime>,
    /// `(time, id)` of the last event folded into the sweep. New ingests
    /// must sort after it — otherwise they were needed by sweeps that
    /// have already run.
    last_folded: Option<(SimTime, EventId)>,
    processed: usize,
    /// Edges offered to the graph per [`HbrSource`] — the per-rule
    /// attribution a scrape turns into labeled gauges. A handful of
    /// distinct sources, so a scanned list.
    edge_counts: Vec<(HbrSource, u64)>,
    /// One event's inferred edges; kept to reuse its allocation.
    out: Vec<Hbr>,
    g: Hbg,
}

impl HbgBuilder {
    /// A builder applying the same techniques `cfg` selects for the batch
    /// path. The pattern miner, if any, is compiled once up front; later
    /// training of the original miner does not affect this builder.
    pub fn new(cfg: &InferConfig<'_>) -> Self {
        Self::new_scoped(cfg, RuleScope::All)
    }

    /// A builder whose rule sweep only fires the given scope's rules.
    /// Used by the sharded fold: each shard runs a `LocalOnly` builder
    /// over its routers' events and a `CrossOnly` builder over its
    /// conversations' send/recv events; the union of edges across all
    /// such builders equals a single [`RuleScope::All`] builder over
    /// the whole stream.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` selects patterns and `scope` is not
    /// [`RuleScope::All`]: the pattern engine is not scoped, so each
    /// shard builder would emit pattern edges over its partial event
    /// set.
    pub fn new_scoped(cfg: &InferConfig<'_>, scope: RuleScope) -> Self {
        assert!(
            scope == RuleScope::All || cfg.patterns.is_none(),
            "pattern inference cannot be scoped: a {scope:?} builder sees only part of the stream",
        );
        HbgBuilder {
            rules: cfg.rules.then(RuleSweep::new),
            scope,
            patterns: cfg
                .patterns
                .map(|m| (PatternEngine::compile(m, cfg.min_confidence), cfg.proximate)),
            state: SweepState::default(),
            pending: Pending::default(),
            watermark: None,
            last_folded: None,
            processed: 0,
            edge_counts: Vec::new(),
            out: Vec::new(),
            g: Hbg::new(0),
        }
    }

    /// Classifies and buffers one captured event:
    /// [`ingest_record`](Self::ingest_record) of its [`FoldRecord`].
    pub fn ingest(&mut self, e: &IoEvent) {
        self.ingest_record(FoldRecord::of(e));
    }

    /// Buffers one classified event. Cheap (a push); no inference happens
    /// until [`advance`](Self::advance).
    ///
    /// # Panics
    ///
    /// Panics if the event sorts at or before the last folded event in
    /// `(time, id)` order — such an event was needed by sweeps already
    /// run, so accepting it silently would corrupt the graph. A live tap
    /// never trips this: the simulator emits everything stamped ≤ `t`
    /// before its clock passes `t`, and event ids increase with emission
    /// order.
    pub fn ingest_record(&mut self, e: FoldRecord) {
        if let Some(frontier) = self.last_folded {
            assert!(
                e.key() > frontier,
                "event {} at {} ingested behind the fold frontier {frontier:?}",
                e.id,
                e.time,
            );
        }
        self.g.grow_to(e.id.index() + 1);
        self.pending.push(e);
    }

    /// Folds every buffered event stamped ≤ `watermark` into the graph,
    /// in `(time, id)` order, and returns how many were folded. The
    /// watermark never moves backwards.
    pub fn advance(&mut self, watermark: SimTime) -> usize {
        let mut folded = 0;
        self.pending.settle();
        while let Some(e) = self.pending.pop_through(watermark) {
            if let Some(sweep) = &mut self.rules {
                sweep.step_record(&e, self.scope, &mut self.out);
            }
            if let Some((engine, proximate)) = &self.patterns {
                let mut cands: Vec<Cand> = Vec::new();
                engine.collect(&e, &self.state, &mut cands);
                if *proximate {
                    PatternEngine::retain_proximate(&mut cands);
                }
                self.out.extend(cands.into_iter().map(|(_, _, h)| h));
                self.state.note(&e);
            }
            for h in self.out.drain(..) {
                match self.edge_counts.iter_mut().find(|(s, _)| *s == h.source) {
                    Some((_, n)) => *n += 1,
                    None => self.edge_counts.push((h.source, 1)),
                }
                self.g.add(h);
            }
            self.last_folded = Some(e.key());
            folded += 1;
        }
        self.processed += folded;
        self.watermark = Some(self.watermark.map_or(watermark, |w| w.max(watermark)));
        folded
    }

    /// The graph over every event folded so far. Events ingested but not
    /// yet past the watermark are present as vertices with no edges.
    pub fn hbg(&self) -> &Hbg {
        &self.g
    }

    /// How many events have been folded into the graph.
    pub fn processed(&self) -> usize {
        self.processed
    }

    /// How many ingested events are still waiting for the watermark.
    pub fn pending(&self) -> usize {
        self.pending.queue.len()
    }

    /// Edges *offered* to the graph so far per [`HbrSource`], in the
    /// order the sources first fired; entries are only ever appended.
    pub fn edge_tallies(&self) -> &[(HbrSource, u64)] {
        &self.edge_counts
    }

    /// [`edge_tallies`](Self::edge_tallies) keyed by the rendering of
    /// the source (`"rule:<name>"`, `"pattern"`), which is built on each
    /// call. Offers, not residents: the graph keeps at most one edge per
    /// target and prefers higher confidence, so the sum here can exceed
    /// [`hbg`](Self::hbg)`().edges().len()`.
    pub fn edge_counts(&self) -> BTreeMap<String, u64> {
        self.edge_counts
            .iter()
            .map(|(source, n)| (source.to_string(), *n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::{infer_hbg, PatternMiner};
    use cpvr_sim::scenario::paper_scenario;
    use cpvr_sim::{CaptureProfile, LatencyProfile, Trace};

    fn sample_trace(seed: u64) -> Trace {
        let mut s = paper_scenario(LatencyProfile::fast(), CaptureProfile::ideal(), seed);
        s.sim.start();
        s.sim.run_to_quiescence(100_000);
        s.sim
            .schedule_ext_announce(s.sim.now() + SimTime::from_millis(5), s.ext_r1, &[s.prefix]);
        s.sim.schedule_ext_announce(
            s.sim.now() + SimTime::from_millis(400),
            s.ext_r2,
            &[s.prefix],
        );
        s.sim.run_to_quiescence(100_000);
        s.sim.trace().clone()
    }

    fn assert_matches_batch(cfg: &InferConfig<'_>, trace: &Trace, steps: usize) {
        let batch = infer_hbg(trace, cfg);
        let mut b = HbgBuilder::new(cfg);
        for e in &trace.events {
            b.ingest(e);
        }
        assert_eq!(b.pending(), trace.len());
        // Advance in `steps` strides over the observed time range, then
        // to infinity; intermediate advances must not change the end
        // state.
        let end = trace
            .events
            .iter()
            .map(|e| e.time)
            .max()
            .unwrap_or(SimTime::ZERO);
        for i in 1..=steps {
            b.advance(SimTime::from_nanos(
                end.as_nanos() / steps as u64 * i as u64,
            ));
        }
        b.advance(SimTime::MAX);
        assert_eq!(b.pending(), 0);
        assert_eq!(b.processed(), trace.len());
        assert_eq!(batch.canonical_edges(), b.hbg().canonical_edges());
    }

    #[test]
    fn rules_match_batch_inference() {
        let trace = sample_trace(5);
        let cfg = InferConfig {
            rules: true,
            patterns: None,
            min_confidence: 0.0,
            proximate: false,
        };
        assert_matches_batch(&cfg, &trace, 1);
        assert_matches_batch(&cfg, &trace, 7);
    }

    #[test]
    fn patterns_match_batch_inference() {
        let mut miner = PatternMiner::new(SimTime::from_millis(5), 3);
        miner.train(&sample_trace(1));
        let trace = sample_trace(9);
        for proximate in [false, true] {
            let cfg = InferConfig {
                rules: true,
                patterns: Some(&miner),
                min_confidence: 0.6,
                proximate,
            };
            assert_matches_batch(&cfg, &trace, 5);
        }
    }

    #[test]
    fn interleaved_ingest_and_advance() {
        let trace = sample_trace(3);
        let cfg = InferConfig {
            rules: true,
            patterns: None,
            min_confidence: 0.0,
            proximate: false,
        };
        let batch = infer_hbg(&trace, &cfg);
        let mut b = HbgBuilder::new(&cfg);
        // Deliver in (time, id) order — as a live capture stream would —
        // advancing the watermark behind each delivery.
        let mut sorted: Vec<&IoEvent> = trace.events.iter().collect();
        sorted.sort_by_key(|e| (e.time, e.id));
        let mut prev = SimTime::ZERO;
        for e in sorted {
            if e.time > prev {
                b.advance(prev);
                prev = e.time;
            }
            b.ingest(e);
        }
        b.advance(SimTime::MAX);
        assert_eq!(batch.canonical_edges(), b.hbg().canonical_edges());
    }

    #[test]
    #[should_panic(expected = "behind the fold frontier")]
    fn late_event_panics() {
        let trace = sample_trace(3);
        let cfg = InferConfig {
            rules: true,
            patterns: None,
            min_confidence: 0.0,
            proximate: false,
        };
        let mut b = HbgBuilder::new(&cfg);
        let mut sorted: Vec<&IoEvent> = trace.events.iter().collect();
        sorted.sort_by_key(|e| (e.time, e.id));
        b.ingest(sorted[1]);
        b.advance(SimTime::MAX);
        b.ingest(sorted[0]);
    }

    #[test]
    #[should_panic(expected = "pattern inference cannot be scoped")]
    fn scoped_builder_rejects_patterns() {
        let miner = PatternMiner::new(SimTime::from_millis(5), 3);
        let cfg = InferConfig {
            rules: true,
            patterns: Some(&miner),
            min_confidence: 0.6,
            proximate: false,
        };
        HbgBuilder::new_scoped(&cfg, RuleScope::LocalOnly);
    }

    #[test]
    fn empty_builder_yields_empty_graph() {
        let cfg = InferConfig {
            rules: true,
            patterns: None,
            min_confidence: 0.0,
            proximate: false,
        };
        let mut b = HbgBuilder::new(&cfg);
        assert_eq!(b.advance(SimTime::MAX), 0);
        assert_eq!(b.hbg().edges().len(), 0);
        assert_eq!(b.processed(), 0);
    }
}
