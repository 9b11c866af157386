//! Incremental vs batch HBG maintenance cost.
//!
//! The control loop verifies at every epoch; what matters there is the
//! cost of absorbing the *new* events since the last epoch, not of
//! rebuilding the whole graph. `incremental_tail` measures ingesting and
//! folding only the trailing K events into a pre-warmed [`HbgBuilder`];
//! `batch_rerun` is what the old pipeline paid at the same point — a
//! full [`infer_hbg`] over the entire trace. The gap between the two is
//! the point of the builder: tail cost stays O(K) while the rerun grows
//! with the trace.
//!
//! `fib_churn_fold` is the shape the ledger's `churn-sharded` workload
//! measures (`collector.pipeline.reference_fold_s`): router-local FIB
//! installs and removes with no conversations and no edges, ingested in
//! stamp order through [`IngestPipeline`] and folded at a few horizons,
//! so per-event overhead of the builder and the tracker is all there is.

use cpvr_bench::scaled_scenario;
use cpvr_collector::{IngestPipeline, PipelineConfig};
use cpvr_core::builder::HbgBuilder;
use cpvr_core::infer::{infer_hbg, InferConfig};
use cpvr_dataplane::FibAction;
use cpvr_sim::workload::prefix_block;
use cpvr_sim::{EventId, IoEvent, IoKind};
use cpvr_types::{RouterId, SimTime};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const TAIL: usize = 50;

/// `n` local FIB events over `routers` routers in lockstep rounds, each
/// router toggling install/remove over its own walk of a 2 048-prefix
/// window.
fn fib_churn(routers: u32, n: usize) -> Vec<IoEvent> {
    let prefixes = prefix_block(2048);
    let mut installed = vec![false; routers as usize * prefixes.len()];
    (0..n)
        .map(|i| {
            let r = i as u32 % routers;
            let p = (i / routers as usize * 31 + r as usize * 7) % prefixes.len();
            let slot = &mut installed[r as usize * prefixes.len() + p];
            *slot = !*slot;
            let time = SimTime::from_nanos(i as u64 * 100);
            IoEvent {
                id: EventId(i as u32),
                router: RouterId(r),
                time,
                arrived_at: Some(time),
                kind: if *slot {
                    IoKind::FibInstall {
                        prefix: prefixes[p],
                        action: FibAction::Local,
                    }
                } else {
                    IoKind::FibRemove {
                        prefix: prefixes[p],
                    }
                },
            }
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("incremental_hbg");
    g.sample_size(10);
    let cfg = InferConfig {
        rules: true,
        patterns: None,
        min_confidence: 0.0,
        proximate: false,
    };
    for (n, k) in [(3usize, 50usize), (6, 100), (10, 200)] {
        let sim = scaled_scenario(n, k, 4);
        let mut events = sim.trace().events.clone();
        events.sort_by_key(|e| (e.time, e.id));
        let split = events.len().saturating_sub(TAIL);
        // Warm a builder over everything except the tail; each iteration
        // clones it and pays only for the tail.
        let mut warm = HbgBuilder::new(&cfg);
        for e in &events[..split] {
            warm.ingest(e);
        }
        if let Some(last) = events[..split].last() {
            warm.advance(last.time);
        }
        let tail = &events[split..];
        g.bench_with_input(
            BenchmarkId::new("incremental_tail", format!("{}ev", events.len())),
            &(&warm, tail),
            |b, (warm, tail)| {
                b.iter(|| {
                    let mut builder = (*warm).clone();
                    for e in *tail {
                        builder.ingest(e);
                    }
                    builder.advance(SimTime::MAX);
                    builder.hbg().edges().len()
                })
            },
        );
        let trace = sim.trace().clone();
        g.bench_with_input(
            BenchmarkId::new("batch_rerun", format!("{}ev", events.len())),
            &trace,
            |b, t| b.iter(|| infer_hbg(t, &cfg).edges().len()),
        );
    }
    for n in [20_000usize, 100_000] {
        let events = fib_churn(12, n);
        g.bench_with_input(
            BenchmarkId::new("fib_churn_fold", format!("{n}ev")),
            &events,
            |b, events| {
                b.iter(|| {
                    let mut p = IngestPipeline::new(PipelineConfig::new(12));
                    for e in events {
                        p.ingest(e);
                    }
                    for quarter in 1..=4 {
                        p.advance(events[events.len() * quarter / 4 - 1].time);
                    }
                    p.builder().processed()
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
