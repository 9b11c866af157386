//! A4: HBG construction and provenance traversal vs trace size and
//! churn.

use cpvr_bench::scaled_scenario;
use cpvr_core::infer::{infer_hbg, InferConfig};
use cpvr_sim::IoKind;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("hbg_scaling");
    g.sample_size(10);
    for (n, k) in [(3usize, 50usize), (6, 100), (10, 200)] {
        let sim = scaled_scenario(n, k, 4);
        let trace = sim.trace().clone();
        let hbg = infer_hbg(
            &trace,
            &InferConfig {
                rules: true,
                patterns: None,
                min_confidence: 0.0,
                proximate: false,
            },
        );
        let last_fib = trace
            .events
            .iter()
            .rev()
            .find(|e| matches!(e.kind, IoKind::FibInstall { .. }))
            .map(|e| e.id)
            .expect("has fib events");
        g.bench_with_input(
            BenchmarkId::new("construct", format!("{}ev", trace.len())),
            &trace,
            |b, t| {
                b.iter(|| {
                    infer_hbg(
                        t,
                        &InferConfig {
                            rules: true,
                            patterns: None,
                            min_confidence: 0.0,
                            proximate: false,
                        },
                    )
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("root_ancestors", format!("{}ev", trace.len())),
            &hbg,
            |b, hbg| b.iter(|| hbg.root_ancestors(last_fib, 0.5)),
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
