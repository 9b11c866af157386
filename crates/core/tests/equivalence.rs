//! Equivalence of the production fold and its batch oracles.
//!
//! The incremental builder ([`HbgBuilder`]) — whole, or split into the
//! scoped per-shard builders the collector's fold shards run — promises
//! **bit-identical** output to batch inference ([`infer_hbg`]): same
//! edge set, same confidences, same sources. These properties pin that
//! promise down on adversarial inputs: randomized traces with clustered
//! timestamps (plenty of ties), shared prefixes across routers, events
//! with and without prefixes, and every I/O kind — far messier than any
//! simulator run.

use cpvr_bgp::PeerRef;
use cpvr_core::builder::HbgBuilder;
use cpvr_core::infer::{infer_hbg, InferConfig, PatternMiner};
use cpvr_core::rules::RuleScope;
use cpvr_core::snapshot::{classify_conv, snapshot_arrived_by};
use cpvr_core::{consistency_check, ConsistencyTracker, Hbg, ShardPlan};
use cpvr_dataplane::FibAction;
use cpvr_sim::scenario::two_exit_scenario;
use cpvr_sim::{CaptureProfile, EventId, IoEvent, IoKind, LatencyProfile, Proto, Trace};
use cpvr_types::{Ipv4Prefix, RouterId, SimTime};
use proptest::prelude::*;

const ROUTERS: u32 = 4;

fn prefix_pool() -> Vec<Ipv4Prefix> {
    ["8.8.8.0/24", "10.0.0.0/8", "192.168.1.0/24"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect()
}

const PROTOS: [Proto; 4] = [Proto::Bgp, Proto::Ospf, Proto::Rip, Proto::Eigrp];

/// One random event row: `(router, time µs, kind, prefix idx, proto idx,
/// peer)`. Times are drawn from a small range so ties and near-ties are
/// common — the regime where ordering bugs live.
type Row = (u32, u64, usize, usize, usize, u32);

fn build_trace(rows: Vec<Row>) -> Trace {
    let pool = prefix_pool();
    let mut trace = Trace::default();
    for (i, (router, t_us, kind_sel, pidx, proto_idx, peer)) in rows.into_iter().enumerate() {
        let proto = PROTOS[proto_idx % PROTOS.len()];
        // Recv/send prefixes are optional on the wire (OSPF LSAs carry
        // none); index 2 maps to `None` to exercise that path.
        let opt_prefix = if pidx == 2 {
            None
        } else {
            Some(pool[pidx % pool.len()])
        };
        let prefix = pool[pidx % pool.len()];
        let from = Some(PeerRef::Internal(RouterId(peer % ROUTERS)));
        let kind = match kind_sel % 11 {
            0 => IoKind::ConfigChange {
                desc: "cfg".into(),
                change: None,
                inverse: None,
            },
            1 => IoKind::SoftReconfig {
                desc: "soft".into(),
            },
            2 => IoKind::LinkStatus {
                desc: "link".into(),
                up: kind_sel % 2 == 0,
                link: None,
                peer: None,
            },
            3 => IoKind::RecvAdvert {
                proto,
                prefix: opt_prefix,
                from,
                route: None,
            },
            4 => IoKind::RecvWithdraw {
                proto,
                prefix: opt_prefix,
                from,
            },
            5 => IoKind::RibInstall {
                proto,
                prefix,
                route: None,
            },
            6 => IoKind::RibRemove { proto, prefix },
            7 => IoKind::FibInstall {
                prefix,
                action: FibAction::Drop,
            },
            8 => IoKind::FibRemove { prefix },
            9 => IoKind::SendAdvert {
                proto,
                prefix: opt_prefix,
                to: from,
                route: None,
            },
            _ => IoKind::SendWithdraw {
                proto,
                prefix: opt_prefix,
                to: from,
            },
        };
        let time = SimTime::from_micros(t_us);
        trace.events.push(IoEvent {
            id: EventId(i as u32),
            router: RouterId(router % ROUTERS),
            time,
            arrived_at: Some(time),
            kind,
        });
    }
    trace
}

fn arb_rows(max_len: usize) -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(
        (
            0u32..ROUTERS,
            0u64..2000,
            0usize..11,
            0usize..3,
            0usize..4,
            0u32..ROUTERS,
        ),
        0..max_len,
    )
}

fn assert_same(a: &Hbg, b: &Hbg, what: &str) {
    assert_eq!(a.canonical_edges(), b.canonical_edges(), "{what}");
}

/// Builds incrementally: ingest everything, then advance through
/// `steps` intermediate watermarks before the final infinite one.
fn incremental(trace: &Trace, cfg: &InferConfig<'_>, steps: u64) -> Hbg {
    let mut b = HbgBuilder::new(cfg);
    for e in &trace.events {
        b.ingest(e);
    }
    let end = trace
        .events
        .iter()
        .map(|e| e.time)
        .max()
        .unwrap_or(SimTime::ZERO);
    for i in 1..=steps {
        b.advance(SimTime::from_nanos(end.as_nanos() / steps * i));
    }
    b.advance(SimTime::MAX);
    assert_eq!(b.pending(), 0);
    assert_eq!(b.processed(), trace.len());
    b.hbg().clone()
}

/// Folds the way the collector's fold shards do: under a uniform plan
/// each shard runs a `LocalOnly` builder over its routers' events and a
/// `CrossOnly` builder over its conversations' send/recv events. Returns
/// the union of every builder's edges.
fn scoped_union(trace: &Trace, cfg: &InferConfig<'_>, shards: u32) -> Hbg {
    let plan = ShardPlan::uniform(shards);
    let scoped = |scope| -> Vec<HbgBuilder> {
        (0..shards)
            .map(|_| HbgBuilder::new_scoped(cfg, scope))
            .collect()
    };
    let (mut locals, mut crosses) = (scoped(RuleScope::LocalOnly), scoped(RuleScope::CrossOnly));
    for e in &trace.events {
        locals[plan.of_router(e.router) as usize].ingest(e);
        if let Some((key, _)) = classify_conv(e) {
            crosses[plan.of_conv(&key) as usize].ingest(e);
        }
    }
    let mut merged = Hbg::new(0);
    for b in locals.iter_mut().chain(crosses.iter_mut()) {
        b.advance(SimTime::MAX);
        merged.grow_to(b.hbg().num_events());
        for h in b.hbg().edges() {
            merged.add(*h);
        }
    }
    let local_events: usize = locals.iter().map(HbgBuilder::processed).sum();
    assert_eq!(local_events, trace.len(), "every event has one home shard");
    merged
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Rules only: batch, the scoped per-shard builders at two plans, and
    /// incremental (single and stepped watermarks) all agree.
    #[test]
    fn rules_all_strategies_agree(rows in arb_rows(120)) {
        let trace = build_trace(rows);
        let cfg = InferConfig { rules: true, patterns: None, min_confidence: 0.0, proximate: false };
        let seq = infer_hbg(&trace, &cfg);
        for shards in [2u32, 3] {
            assert_same(&seq, &scoped_union(&trace, &cfg, shards), "scoped shard builders");
        }
        assert_same(&seq, &incremental(&trace, &cfg, 1), "incremental");
        assert_same(&seq, &incremental(&trace, &cfg, 9), "incremental stepped");
    }

    /// Rules + mined patterns, with and without the proximate-cause
    /// filter: the builder produces the batch graph.
    #[test]
    fn patterns_all_strategies_agree(
        train in arb_rows(120),
        target in arb_rows(90),
        proximate in any::<bool>(),
    ) {
        let mut miner = PatternMiner::new(SimTime::from_micros(500), 2);
        miner.train(&build_trace(train));
        let trace = build_trace(target);
        let cfg = InferConfig {
            rules: true,
            patterns: Some(&miner),
            min_confidence: 0.3,
            proximate,
        };
        let seq = infer_hbg(&trace, &cfg);
        assert_same(&seq, &incremental(&trace, &cfg, 1), "incremental");
        assert_same(&seq, &incremental(&trace, &cfg, 7), "incremental stepped");
    }

    /// The builder is insensitive to *when* the watermark advances
    /// relative to ingestion, as long as events are delivered in stream
    /// order: advancing behind a live (time, id)-ordered delivery gives
    /// the same graph as one big advance at the end.
    #[test]
    fn interleaved_delivery_agrees(rows in arb_rows(100)) {
        let trace = build_trace(rows);
        let cfg = InferConfig { rules: true, patterns: None, min_confidence: 0.0, proximate: false };
        let seq = infer_hbg(&trace, &cfg);
        let mut b = HbgBuilder::new(&cfg);
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
        assert_same(&seq, b.hbg(), "interleaved");
    }

    /// The fold is insensitive to the *order* events are ingested in, as
    /// long as it respects the fold frontier — which is all a collector
    /// merging skewed router streams can promise. Each router's records
    /// are delivered in its own order but `skew` late relative to the
    /// others; at random points the watermark advances to just below
    /// the earliest stamp still undelivered (the min-over-sources rule).
    /// At every such point the tracker's verdict and data plane equal
    /// the batch check over the whole trace, and at the end the graph
    /// equals batch inference. Capture delays (and losses) are random,
    /// so the tracker really waits.
    #[test]
    fn frontier_consistent_orders_agree(
        rows in arb_rows(120),
        capture in prop::collection::vec(prop::option::of(0u64..600), 120),
        skew in prop::collection::vec(0u64..400, ROUTERS as usize),
        advance_at in prop::collection::vec(any::<bool>(), 120),
    ) {
        let mut trace = build_trace(rows);
        for (e, delay) in trace.events.iter_mut().zip(&capture) {
            e.arrived_at = delay.map(|d| e.time + SimTime::from_micros(d));
        }
        let cfg = InferConfig { rules: true, patterns: None, min_confidence: 0.0, proximate: false };
        let n = ROUTERS as usize;
        let mut delivery: Vec<&IoEvent> = trace.events.iter().collect();
        delivery.sort_by_key(|e| {
            (e.time + SimTime::from_micros(skew[e.router.index()]), e.time, e.id)
        });
        let mut b = HbgBuilder::new(&cfg);
        let mut tracker = ConsistencyTracker::new(n);
        let check = |tracker: &ConsistencyTracker, status, h: SimTime| {
            assert_eq!(status, consistency_check(&trace, h), "verdict at {h}");
            let (got, want) = (tracker.dataplane(), snapshot_arrived_by(&trace, n, h));
            for r in (0..n as u32).map(RouterId) {
                assert_eq!(got.fib(r).entries(), want.fib(r).entries(), "{r} at {h}");
                assert_eq!(got.taken_at(r), want.taken_at(r), "{r} at {h}");
            }
        };
        for (k, e) in delivery.iter().enumerate() {
            b.ingest(e);
            tracker.ingest(e);
            if advance_at[k] {
                let undelivered = delivery[k + 1..].iter().map(|e| e.time).min();
                let Some(h) = undelivered.and_then(|t| t.as_nanos().checked_sub(1)) else {
                    continue;
                };
                let h = SimTime::from_nanos(h);
                b.advance(h);
                let status = tracker.advance(h);
                check(&tracker, status, h);
            }
        }
        b.advance(SimTime::MAX);
        let status = tracker.advance(SimTime::MAX);
        check(&tracker, status, SimTime::MAX);
        assert_same(&infer_hbg(&trace, &cfg), b.hbg(), "frontier-consistent order");
    }

    /// The same equivalences on real simulator traces (with the miner
    /// trained on a different seed), where event structure is causal
    /// rather than adversarial.
    #[test]
    fn real_traces_agree(seed in 0u64..12) {
        let run = |seed: u64| {
            let (mut sim, left, right) =
                two_exit_scenario(3, LatencyProfile::fast(), CaptureProfile::ideal(), seed);
            sim.start();
            sim.run_to_quiescence(200_000);
            let p: Ipv4Prefix = "8.8.8.0/24".parse().unwrap();
            sim.schedule_ext_announce(sim.now() + SimTime::from_millis(1), left, &[p]);
            sim.schedule_ext_announce(sim.now() + SimTime::from_millis(30), right, &[p]);
            sim.run_to_quiescence(200_000);
            sim.trace().clone()
        };
        let mut miner = PatternMiner::new(SimTime::from_millis(5), 3);
        miner.train(&run(seed + 100));
        let trace = run(seed);
        for (patterns, proximate) in [(None, false), (Some(&miner), false), (Some(&miner), true)] {
            let cfg = InferConfig { rules: true, patterns, min_confidence: 0.5, proximate };
            let seq = infer_hbg(&trace, &cfg);
            prop_assert!(
                patterns.is_none() || !seq.edges().is_empty(),
                "sanity: real traces must produce edges"
            );
            assert_same(&seq, &incremental(&trace, &cfg, 5), "incremental");
        }
    }
}
