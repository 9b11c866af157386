//! HBR inference: combining the §4.2 techniques.
//!
//! * **Prefix** and **timestamp** filtering are implemented inside both
//!   matchers — they scope candidate antecedents, exactly as the paper
//!   prescribes ("can only be used to filter").
//! * **Rule matching** ([`crate::rules`]) encodes protocol knowledge and
//!   yields confidence-1.0 edges.
//! * **Pattern mining** ([`PatternMiner`]) learns ordering statistics
//!   from *policy-compliant* training traces with no protocol knowledge
//!   at all, and emits edges with statistical confidence — the paper's
//!   fully automated alternative, including its failure modes (missed
//!   HBRs that never occurred in training, spurious ones from
//!   coincidental timing).
//!
//! [`infer_hbg`] combines any subset; [`InferStats`] grades the result
//! against the simulator's ground truth for experiment A2.

use crate::hbg::{Hbg, Hbr, HbrSource};
use crate::rules::{match_rules, FoldRecord, KindClass};
use cpvr_sim::{EventId, IoEvent, Proto, Trace};
use cpvr_types::{Ipv4Prefix, RouterId, SimTime};
use std::collections::HashMap;

pub(crate) type Sig = (KindClass, Option<Proto>);

/// A candidate pattern edge for some consequent: `(antecedent time,
/// relation rank, edge)` — the key [`PatternEngine::retain_proximate`]
/// maximizes over.
pub(crate) type Cand = (SimTime, u8, Hbr);

/// How an antecedent relates to its consequent.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub(crate) enum Relation {
    /// Same router, any prefix.
    SameRouter,
    /// Same router, same prefix (prefix filtering, §4.2).
    SameRouterPrefix,
    /// Different router, same prefix.
    CrossRouter,
}

/// A mined ordering pattern: events of signature `cons` are usually
/// preceded (within the window, under `rel`) by an event of signature
/// `ante`.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Pattern {
    ante: Sig,
    cons: Sig,
    rel: Relation,
    /// Fraction of `cons` occurrences in training that had such a
    /// predecessor.
    pub(crate) confidence: f64,
}

/// Statistical pattern miner (§4.2 "Pattern matching").
#[derive(Clone, Debug)]
pub struct PatternMiner {
    window: SimTime,
    min_support: usize,
    counts: HashMap<(Sig, Sig, Relation), usize>,
    totals: HashMap<Sig, usize>,
}

impl PatternMiner {
    /// A miner considering predecessors within `window`. Patterns seen
    /// fewer than `min_support` times are discarded.
    pub fn new(window: SimTime, min_support: usize) -> Self {
        PatternMiner {
            window,
            min_support,
            counts: HashMap::new(),
            totals: HashMap::new(),
        }
    }

    /// Learns from one (policy-compliant) trace. Call repeatedly to pool
    /// training data.
    pub fn train(&mut self, trace: &Trace) {
        let mut state = SweepState::default();
        for e in &records(&trace.events) {
            let s_b = e.sig();
            *self.totals.entry(s_b).or_insert(0) += 1;
            for (s_a, rel) in state.predecessor_sigs(e, self.window) {
                *self.counts.entry((s_a, s_b, rel)).or_insert(0) += 1;
            }
            state.note(e);
        }
    }

    /// The learned patterns with their confidences, sorted by descending
    /// confidence (ties broken by signature, so the order — and
    /// everything downstream of it — is fully deterministic).
    pub(crate) fn patterns(&self) -> Vec<Pattern> {
        let mut out: Vec<Pattern> = self
            .counts
            .iter()
            .filter(|(_, c)| **c >= self.min_support)
            .map(|((a, b, rel), c)| Pattern {
                ante: *a,
                cons: *b,
                rel: *rel,
                confidence: *c as f64 / self.totals[b] as f64,
            })
            .collect();
        out.sort_by(|x, y| {
            y.confidence
                .total_cmp(&x.confidence)
                .then_with(|| (x.ante, x.cons, x.rel).cmp(&(y.ante, y.cons, y.rel)))
        });
        out
    }

    /// Applies the learned patterns to a target trace, emitting HBR edges
    /// for patterns with confidence ≥ `min_conf`.
    ///
    /// With `proximate_only`, each event keeps only the antecedent(s)
    /// closest in time among all matched patterns — the same
    /// proximate-cause heuristic the rule matcher uses. This trades a
    /// little recall for a large precision gain (experiment A2), at no
    /// cost in protocol knowledge.
    pub(crate) fn apply_with(
        &self,
        events: &[&IoEvent],
        min_conf: f64,
        proximate_only: bool,
    ) -> Vec<Hbr> {
        let engine = PatternEngine::compile(self, min_conf);
        let mut state = SweepState::default();
        let mut out = Vec::new();
        let mut cands: Vec<Cand> = Vec::new();
        for e in &records(events.iter().copied()) {
            cands.clear();
            engine.collect(e, &state, &mut cands);
            if proximate_only {
                PatternEngine::retain_proximate(&mut cands);
            }
            out.extend(cands.drain(..).map(|(_, _, h)| h));
            state.note(e);
        }
        out
    }
}

/// The fold records of `events`, in `(time, id)` order.
fn records<'a>(events: impl IntoIterator<Item = &'a IoEvent>) -> Vec<FoldRecord> {
    let mut out: Vec<FoldRecord> = events.into_iter().map(FoldRecord::of).collect();
    out.sort_by_key(FoldRecord::key);
    out
}

/// A miner's patterns compiled for application: filtered by confidence
/// and indexed by consequent signature. One compiled engine is shared by
/// the batch sweep and the incremental builder.
#[derive(Clone)]
pub(crate) struct PatternEngine {
    window: SimTime,
    by_cons: HashMap<Sig, Vec<Pattern>>,
}

impl PatternEngine {
    /// Compiles `miner`'s patterns with confidence ≥ `min_conf`.
    pub(crate) fn compile(miner: &PatternMiner, min_conf: f64) -> Self {
        let mut by_cons: HashMap<Sig, Vec<Pattern>> = HashMap::new();
        for p in miner
            .patterns()
            .into_iter()
            .filter(|p| p.confidence >= min_conf)
        {
            by_cons.entry(p.cons).or_default().push(p);
        }
        PatternEngine {
            window: miner.window,
            by_cons,
        }
    }

    /// Specificity rank: prefix-scoped relations beat the unscoped
    /// same-router relation (prefix filtering, §4.2).
    fn rank(r: Relation) -> u8 {
        match r {
            Relation::SameRouterPrefix | Relation::CrossRouter => 1,
            Relation::SameRouter => 0,
        }
    }

    /// Collects the pattern candidates whose consequent is `e`, as
    /// `(antecedent time, specificity rank, edge)` triples.
    pub(crate) fn collect(&self, e: &FoldRecord, state: &SweepState, out: &mut Vec<Cand>) {
        let Some(pats) = self.by_cons.get(&e.sig()) else {
            return;
        };
        for p in pats {
            let Some((t, ids)) = state.latest_matching(e, p.ante, p.rel, self.window) else {
                continue;
            };
            for id in ids.iter().copied().filter(|id| *id != e.id) {
                out.push((
                    t,
                    Self::rank(p.rel),
                    Hbr {
                        from: id,
                        to: e.id,
                        confidence: p.confidence,
                        source: HbrSource::Pattern,
                    },
                ));
            }
        }
    }

    /// The proximate-cause filter over one consequent's candidates:
    /// specificity first (a prefix-scoped match is a far stronger causal
    /// signal than mere adjacency in the log), recency second.
    pub(crate) fn retain_proximate(cands: &mut Vec<Cand>) {
        if let Some(best) = cands.iter().map(|(t, r, _)| (*r, *t)).max() {
            cands.retain(|(t, r, _)| (*r, *t) == best);
        }
    }
}

/// Latest occurrence per key during the sweep.
#[derive(Clone, Default)]
pub(crate) struct SweepState {
    /// (router, sig) → latest (time, ids).
    same: HashMap<(RouterId, Sig), (SimTime, Vec<cpvr_sim::EventId>)>,
    /// (router, prefix, sig) → latest (time, ids).
    same_prefix: HashMap<(RouterId, Ipv4Prefix, Sig), (SimTime, Vec<cpvr_sim::EventId>)>,
    /// (prefix, sig) → latest (time, ids, router).
    cross: HashMap<(Ipv4Prefix, Sig), (SimTime, Vec<cpvr_sim::EventId>, RouterId)>,
}

impl SweepState {
    pub(crate) fn note(&mut self, e: &FoldRecord) {
        let s = e.sig();
        let cell = self
            .same
            .entry((e.router, s))
            .or_insert((e.time, Vec::new()));
        if e.time > cell.0 {
            *cell = (e.time, vec![e.id]);
        } else {
            cell.1.push(e.id);
        }
        if let Some(p) = e.prefix {
            let cell = self
                .same_prefix
                .entry((e.router, p, s))
                .or_insert((e.time, Vec::new()));
            if e.time > cell.0 {
                *cell = (e.time, vec![e.id]);
            } else {
                cell.1.push(e.id);
            }
            let cell = self
                .cross
                .entry((p, s))
                .or_insert((e.time, Vec::new(), e.router));
            if e.time > cell.0 || cell.2 != e.router {
                *cell = (e.time, vec![e.id], e.router);
            } else {
                cell.1.push(e.id);
            }
        }
    }

    /// Signatures of the nearest predecessors of `e` under each relation
    /// (for training).
    fn predecessor_sigs(&self, e: &FoldRecord, window: SimTime) -> Vec<(Sig, Relation)> {
        let mut out = Vec::new();
        let horizon = e.time.saturating_sub(window);
        for ((router, s), (t, ids)) in &self.same {
            if *router == e.router && !ids.is_empty() && *t >= horizon && *t <= e.time {
                out.push((*s, Relation::SameRouter));
            }
        }
        if let Some(p) = e.prefix {
            for ((router, prefix, s), (t, ids)) in &self.same_prefix {
                if *router == e.router
                    && *prefix == p
                    && !ids.is_empty()
                    && *t >= horizon
                    && *t <= e.time
                {
                    out.push((*s, Relation::SameRouterPrefix));
                }
            }
            for ((prefix, s), (t, ids, router)) in &self.cross {
                if *prefix == p
                    && *router != e.router
                    && !ids.is_empty()
                    && *t >= horizon
                    && *t <= e.time
                {
                    out.push((*s, Relation::CrossRouter));
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// The nearest predecessor(s) of `e` with signature `ante` under
    /// `rel` (for application): their shared time and their ids, `e`'s
    /// own possibly among them.
    pub(crate) fn latest_matching(
        &self,
        e: &FoldRecord,
        ante: Sig,
        rel: Relation,
        window: SimTime,
    ) -> Option<(SimTime, &[EventId])> {
        let (t, ids) = match rel {
            Relation::SameRouter => {
                let (t, ids) = self.same.get(&(e.router, ante))?;
                (*t, ids)
            }
            Relation::SameRouterPrefix => {
                let (t, ids) = self.same_prefix.get(&(e.router, e.prefix?, ante))?;
                (*t, ids)
            }
            Relation::CrossRouter => {
                let (t, ids, router) = self.cross.get(&(e.prefix?, ante))?;
                if *router == e.router {
                    return None;
                }
                (*t, ids)
            }
        };
        (t >= e.time.saturating_sub(window) && t <= e.time).then_some((t, &ids[..]))
    }
}

/// Which techniques to combine.
#[derive(Default)]
pub struct InferConfig<'a> {
    /// Use protocol rule matching (confidence 1.0 edges).
    pub rules: bool,
    /// Use a trained pattern miner.
    pub patterns: Option<&'a PatternMiner>,
    /// Minimum pattern confidence to emit an edge.
    pub min_confidence: f64,
    /// Restrict pattern edges to the nearest-in-time antecedents (the
    /// proximate-cause heuristic).
    pub proximate: bool,
}

/// Accuracy of an inferred HBG against the simulator's ground truth.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InferStats {
    /// Fraction of inferred edges that are true.
    pub precision: f64,
    /// Fraction of true edges that were inferred.
    pub recall: f64,
    /// Correct edges.
    pub(crate) true_positives: usize,
    /// Total inferred edges (at the evaluation threshold).
    pub edges: usize,
}

/// Infers a happens-before graph for a trace.
pub fn infer_hbg(trace: &Trace, cfg: &InferConfig<'_>) -> Hbg {
    let mut g = Hbg::new(trace.len());
    let refs: Vec<&IoEvent> = trace.events.iter().collect();
    if cfg.rules {
        for h in match_rules(&refs) {
            g.add(h);
        }
    }
    if let Some(miner) = cfg.patterns {
        for h in miner.apply_with(&refs, cfg.min_confidence, cfg.proximate) {
            g.add(h);
        }
    }
    g
}

/// Grades a graph against ground truth at a confidence threshold.
pub fn evaluate(g: &Hbg, trace: &Trace, min_conf: f64) -> InferStats {
    let (precision, recall, tp) = g.score_against_truth(trace, min_conf);
    let edges = g
        .edges()
        .iter()
        .filter(|h| h.confidence >= min_conf)
        .count();
    InferStats {
        precision,
        recall,
        true_positives: tp,
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpvr_sim::scenario::paper_scenario;
    use cpvr_sim::{CaptureProfile, LatencyProfile};
    use cpvr_types::SimTime;

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

    #[test]
    fn rule_inference_has_high_accuracy_on_real_trace() {
        let trace = sample_trace(5);
        let g = infer_hbg(
            &trace,
            &InferConfig {
                rules: true,
                patterns: None,
                min_confidence: 0.0,
                proximate: false,
            },
        );
        let stats = evaluate(&g, &trace, 0.5);
        assert!(stats.recall > 0.85, "rule recall too low: {stats:?}");
        assert!(stats.precision > 0.75, "rule precision too low: {stats:?}");
    }

    #[test]
    fn pattern_miner_learns_orderings() {
        let mut miner = PatternMiner::new(SimTime::from_millis(5), 3);
        miner.train(&sample_trace(1));
        miner.train(&sample_trace(2));
        let pats = miner.patterns();
        assert!(!pats.is_empty());
        // The rib→fib ordering must be discovered. Patterns are keyed per
        // protocol (a BGP RIB install and an OSPF RIB install are
        // different signatures), so sum the confidences across protocols:
        // together they must explain nearly every FIB install.
        let rib_fib: Vec<&Pattern> = pats
            .iter()
            .filter(|p| {
                p.ante.0 == KindClass::RibIn
                    && p.cons.0 == KindClass::FibIn
                    && p.rel == Relation::SameRouter
            })
            .collect();
        assert!(!rib_fib.is_empty(), "rib->fib pattern not mined: {pats:?}");
        let total: f64 = rib_fib.iter().map(|p| p.confidence).sum();
        assert!(total > 0.8, "combined rib->fib confidence {total}");
    }

    #[test]
    fn pattern_inference_scores_lower_precision_than_rules() {
        let mut miner = PatternMiner::new(SimTime::from_millis(5), 3);
        miner.train(&sample_trace(1));
        miner.train(&sample_trace(2));
        let target = sample_trace(9);
        let rules_g = infer_hbg(
            &target,
            &InferConfig {
                rules: true,
                patterns: None,
                min_confidence: 0.0,
                proximate: false,
            },
        );
        let pat_g = infer_hbg(
            &target,
            &InferConfig {
                rules: false,
                patterns: Some(&miner),
                min_confidence: 0.6,
                proximate: false,
            },
        );
        let rs = evaluate(&rules_g, &target, 0.5);
        let ps = evaluate(&pat_g, &target, 0.5);
        assert!(ps.edges > 0, "patterns must produce edges");
        assert!(
            ps.recall > 0.3,
            "patterns must recover a fair share: {ps:?}"
        );
        assert!(
            rs.precision >= ps.precision,
            "rules should be at least as precise: rules {rs:?} vs patterns {ps:?}"
        );
    }

    #[test]
    fn combined_beats_patterns_alone_on_recall() {
        let mut miner = PatternMiner::new(SimTime::from_millis(5), 3);
        miner.train(&sample_trace(1));
        let target = sample_trace(9);
        let pat_g = infer_hbg(
            &target,
            &InferConfig {
                rules: false,
                patterns: Some(&miner),
                min_confidence: 0.6,
                proximate: false,
            },
        );
        let both_g = infer_hbg(
            &target,
            &InferConfig {
                rules: true,
                patterns: Some(&miner),
                min_confidence: 0.6,
                proximate: false,
            },
        );
        let ps = evaluate(&pat_g, &target, 0.0);
        let bs = evaluate(&both_g, &target, 0.0);
        assert!(bs.recall >= ps.recall);
    }

    #[test]
    fn min_support_prunes_rare_patterns() {
        let mut strict = PatternMiner::new(SimTime::from_millis(5), 1_000_000);
        strict.train(&sample_trace(1));
        assert!(strict.patterns().is_empty());
    }

    #[test]
    fn empty_trace_infers_empty_graph() {
        let trace = Trace::default();
        let g = infer_hbg(
            &trace,
            &InferConfig {
                rules: true,
                patterns: None,
                min_confidence: 0.0,
                proximate: false,
            },
        );
        assert_eq!(g.edges().len(), 0);
        let stats = evaluate(&g, &trace, 0.5);
        assert_eq!(stats.precision, 1.0);
        assert_eq!(stats.recall, 1.0);
    }
}
