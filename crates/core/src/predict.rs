//! Predicting control-plane outcomes from past behavior (§6, "Reverting
//! the root cause event, early on in the computation").
//!
//! The paper's insight: "control plane computations tend to be highly
//! repetitive across prefixes" — large networks treat 100K prefixes as
//! fewer than 15 equivalence classes — so a model of outcomes can be
//! *learned from observation* instead of built from protocol semantics.
//!
//! [`OutcomePredictor`] does exactly that: from a training trace (plus
//! the HBG linking inputs to their consequences), it learns, per input
//! signature, the template of FIB changes the network produced. Facing a
//! fresh input with a known signature, it predicts the FIB-change
//! template *before the updates land*, letting the guard evaluate the
//! would-be state and block/revert the root cause early.

use crate::hbg::Hbg;
use crate::rules::{FoldRecord, KindClass};
use cpvr_dataplane::{DataPlane, FibAction, FibEntry};
use cpvr_sim::{IoEvent, IoKind, Proto, Trace};
use cpvr_topo::Topology;
use cpvr_types::{RouterId, SimTime};
use cpvr_verify::{verify_incremental, Policy};
use std::collections::{BTreeMap, HashMap};

/// The signature of an input event: where it happened, what class it
/// was, which protocol, and (for BGP routes) the advertised
/// local-preference — the attribute the decision process keys on in the
/// paper's scenarios.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub struct InputSig {
    /// Router the input arrived at.
    pub router: RouterId,
    /// Coarse event class.
    pub class: KindClass,
    /// Protocol, when applicable.
    pub proto: Option<Proto>,
    /// Local preference carried by a BGP advertisement, if any.
    pub local_pref: Option<u32>,
}

/// What the network did in response for the input's prefix: each
/// router's final FIB action (`None` = entry removed / absent), sorted
/// by router.
pub type OutcomeTemplate = Vec<(RouterId, Option<FibAction>)>;

fn input_sig(e: &IoEvent) -> Option<InputSig> {
    if !e.kind.is_input() {
        return None;
    }
    let (class, proto) = FoldRecord::of(e).sig();
    let local_pref = match &e.kind {
        IoKind::RecvAdvert { route: Some(r), .. } => Some(r.local_pref),
        _ => None,
    };
    Some(InputSig {
        router: e.router,
        class,
        proto,
        local_pref,
    })
}

/// Learns input → FIB-outcome templates from traces.
#[derive(Clone, Debug, Default)]
pub struct OutcomePredictor {
    /// signature → template → occurrence count.
    model: HashMap<InputSig, BTreeMap<OutcomeTemplate, usize>>,
}

impl OutcomePredictor {
    /// An empty predictor.
    pub fn new() -> Self {
        OutcomePredictor::default()
    }

    /// Learns from a trace and the HBG inferred over it (so the
    /// association between inputs and consequences is itself learned, not
    /// given). `window` bounds how far consequences are attributed.
    pub fn train(&mut self, trace: &Trace, hbg: &Hbg, window: SimTime, min_conf: f64) {
        for e in &trace.events {
            let Some(sig) = input_sig(e) else { continue };
            let horizon = e.time + window;
            let template = fib_template(trace, hbg, e, horizon, min_conf);
            *self
                .model
                .entry(sig)
                .or_default()
                .entry(template)
                .or_insert(0) += 1;
        }
    }

    /// Number of distinct input signatures learned.
    pub fn signatures(&self) -> usize {
        self.model.len()
    }

    /// Predicts the FIB-change template for a fresh input event, with the
    /// empirical confidence of the majority template. `None` if the
    /// signature was never seen.
    pub fn predict(&self, e: &IoEvent) -> Option<(OutcomeTemplate, f64)> {
        let sig = input_sig(e)?;
        let templates = self.model.get(&sig)?;
        let total: usize = templates.values().sum();
        let (best, count) = templates.iter().max_by_key(|(_, c)| **c)?;
        Some((best.clone(), *count as f64 / total as f64))
    }

    /// Measures prediction accuracy on a held-out trace: the fraction of
    /// known-signature inputs whose actual template (per the HBG) matches
    /// the prediction. Returns `(hits, misses, unknown)`.
    pub fn evaluate(
        &self,
        trace: &Trace,
        hbg: &Hbg,
        window: SimTime,
        min_conf: f64,
    ) -> (usize, usize, usize) {
        let mut hits = 0;
        let mut misses = 0;
        let mut unknown = 0;
        for e in &trace.events {
            if input_sig(e).is_none() {
                continue;
            }
            let Some((predicted, _)) = self.predict(e) else {
                unknown += 1;
                continue;
            };
            let horizon = e.time + window;
            let actual = fib_template(trace, hbg, e, horizon, min_conf);
            if actual == predicted {
                hits += 1;
            } else {
                misses += 1;
            }
        }
        (hits, misses, unknown)
    }
}

/// The *final* FIB action per router, among the consequences of `e`
/// within the window (later events override earlier ones). Public
/// because repair proofs embed this template as the predicted
/// consequence set the repair reverts (see [`crate::proof`]).
pub fn fib_template(
    trace: &Trace,
    hbg: &Hbg,
    e: &IoEvent,
    horizon: SimTime,
    min_conf: f64,
) -> OutcomeTemplate {
    let mut latest: BTreeMap<RouterId, (SimTime, Option<FibAction>)> = BTreeMap::new();
    for d in hbg.descendants(e.id, min_conf) {
        let ev = &trace.events[d.index()];
        if ev.time > horizon {
            continue;
        }
        let entry = match &ev.kind {
            IoKind::FibInstall { action, .. } => Some((ev.time, Some(*action))),
            IoKind::FibRemove { .. } => Some((ev.time, None)),
            _ => None,
        };
        if let Some((t, act)) = entry {
            match latest.get(&ev.router) {
                Some((old_t, _)) if *old_t >= t => {}
                _ => {
                    latest.insert(ev.router, (t, act));
                }
            }
        }
    }
    latest.into_iter().map(|(r, (_, act))| (r, act)).collect()
}

impl OutcomePredictor {
    /// The §6 early check: predict the FIB outcome of a *fresh input*
    /// (before its updates land), apply the predicted template for the
    /// input's prefix to a copy of the current data plane, and verify.
    ///
    /// Returns `Some(true)` when the prediction says the input will
    /// violate policy (block/revert it now), `Some(false)` when it
    /// predicts compliance, and `None` when the input's signature is
    /// unknown or carries no prefix.
    pub fn would_violate(
        &self,
        e: &IoEvent,
        current: &DataPlane,
        topo: &Topology,
        policies: &[Policy],
    ) -> Option<bool> {
        let prefix = e.kind.prefix()?;
        let (template, _conf) = self.predict(e)?;
        let mut predicted = current.clone();
        for (router, action) in &template {
            match action {
                Some(a) => {
                    predicted.fib_mut(*router).install(
                        prefix,
                        FibEntry {
                            action: *a,
                            installed_at: e.time,
                        },
                    );
                }
                None => {
                    predicted.fib_mut(*router).remove(&prefix);
                }
            }
        }
        let report = verify_incremental(topo, &predicted, policies, &[prefix]);
        Some(!report.ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::{infer_hbg, InferConfig};
    use cpvr_sim::scenario::two_exit_scenario;
    use cpvr_sim::workload::prefix_block;
    use cpvr_sim::{CaptureProfile, LatencyProfile};

    /// Announce many prefixes through the same uplink: all inputs share a
    /// signature and should produce the same outcome template.
    fn multi_prefix_trace(n_prefixes: usize, seed: u64) -> Trace {
        let (mut sim, left, _right) =
            two_exit_scenario(3, LatencyProfile::fast(), CaptureProfile::ideal(), seed);
        sim.start();
        sim.run_to_quiescence(200_000);
        let prefixes = prefix_block(n_prefixes);
        for (i, p) in prefixes.iter().enumerate() {
            sim.schedule_ext_announce(
                sim.now() + SimTime::from_millis(10 * (i as u64 + 1)),
                left,
                std::slice::from_ref(p),
            );
        }
        sim.run_to_quiescence(500_000);
        sim.trace().clone()
    }

    #[test]
    fn repetition_across_prefixes_collapses_to_few_signatures() {
        let trace = multi_prefix_trace(30, 31);
        let hbg = infer_hbg(
            &trace,
            &InferConfig {
                rules: true,
                patterns: None,
                min_confidence: 0.0,
                proximate: false,
            },
        );
        let mut pred = OutcomePredictor::new();
        pred.train(&trace, &hbg, SimTime::from_millis(5), 0.5);
        // 30 prefixes, but the model stays small — the §6 equivalence-
        // class observation.
        assert!(
            pred.signatures() < 15,
            "expected few signatures, got {}",
            pred.signatures()
        );
    }

    #[test]
    fn predicts_outcomes_for_unseen_prefixes_of_same_class() {
        let train = multi_prefix_trace(20, 32);
        let hbg_train = infer_hbg(
            &train,
            &InferConfig {
                rules: true,
                patterns: None,
                min_confidence: 0.0,
                proximate: false,
            },
        );
        let mut pred = OutcomePredictor::new();
        pred.train(&train, &hbg_train, SimTime::from_millis(5), 0.5);
        // Held-out run with different prefixes and timing seed.
        let test = multi_prefix_trace(10, 77);
        let hbg_test = infer_hbg(
            &test,
            &InferConfig {
                rules: true,
                patterns: None,
                min_confidence: 0.0,
                proximate: false,
            },
        );
        let (hits, misses, _unknown) =
            pred.evaluate(&test, &hbg_test, SimTime::from_millis(5), 0.5);
        assert!(hits > 0);
        let accuracy = hits as f64 / (hits + misses).max(1) as f64;
        assert!(
            accuracy > 0.7,
            "accuracy {accuracy} (hits {hits}, misses {misses})"
        );
    }

    #[test]
    fn unknown_signature_returns_none() {
        let pred = OutcomePredictor::new();
        let e = IoEvent {
            id: cpvr_sim::EventId(0),
            router: RouterId(0),
            time: SimTime::ZERO,
            arrived_at: None,
            kind: IoKind::LinkStatus {
                desc: "x".into(),
                up: false,
                link: None,
                peer: None,
            },
        };
        assert!(pred.predict(&e).is_none());
    }

    #[test]
    fn outputs_are_not_inputs() {
        let e = IoEvent {
            id: cpvr_sim::EventId(0),
            router: RouterId(0),
            time: SimTime::ZERO,
            arrived_at: None,
            kind: IoKind::FibRemove {
                prefix: "8.8.8.0/24".parse().unwrap(),
            },
        };
        assert!(input_sig(&e).is_none());
    }

    #[test]
    fn early_violation_prediction_blocks_before_fib_updates() {
        // §6 "reverting the root cause event, early on in the
        // computation": learn what announcements on the left uplink do to
        // the FIBs, then judge a FRESH announcement before its updates
        // land.
        let train = multi_prefix_trace(20, 35);
        let hbg = infer_hbg(
            &train,
            &InferConfig {
                rules: true,
                patterns: None,
                min_confidence: 0.0,
                proximate: false,
            },
        );
        let mut pred = OutcomePredictor::new();
        pred.train(&train, &hbg, SimTime::from_millis(5), 0.5);

        // Rebuild the converged network state (same scenario family).
        let (mut sim, left, right) =
            two_exit_scenario(3, LatencyProfile::fast(), CaptureProfile::ideal(), 36);
        sim.start();
        sim.run_to_quiescence(200_000);
        let current = sim.dataplane().clone();
        let topo = sim.topology().clone();

        // A fresh prefix announced on the LEFT uplink (same input class
        // as training).
        let new_prefix: cpvr_types::Ipv4Prefix = "100.200.0.0/24".parse().unwrap();
        let route =
            cpvr_bgp::BgpRoute::external(new_prefix, left, cpvr_types::AsNum(100), RouterId(0));
        let incoming = IoEvent {
            id: cpvr_sim::EventId(0),
            router: RouterId(0),
            time: SimTime::from_secs(10),
            arrived_at: Some(SimTime::from_secs(10)),
            kind: IoKind::RecvAdvert {
                proto: Proto::Bgp,
                prefix: Some(new_prefix),
                from: Some(cpvr_bgp::PeerRef::External(left)),
                route: Some(route.into()),
            },
        };
        // Against a policy demanding the RIGHT exit, the input is
        // predicted to violate — before any FIB update exists.
        let must_exit_right = Policy::ExitsVia {
            prefix: new_prefix,
            peer: right,
        };
        assert_eq!(
            pred.would_violate(&incoming, &current, &topo, &[must_exit_right]),
            Some(true),
            "the early check must flag the violating announcement"
        );
        // Against plain reachability it predicts compliance.
        let reachable = Policy::Reachable { prefix: new_prefix };
        assert_eq!(
            pred.would_violate(&incoming, &current, &topo, &[reachable]),
            Some(false)
        );
        // Unknown signature (different router) → no prediction.
        let mut foreign = incoming.clone();
        foreign.router = RouterId(2);
        assert_eq!(pred.would_violate(&foreign, &current, &topo, &[]), None);
    }
}
