//! A1 machinery: equivalence-class computation vs prefix count, plus the
//! verifier itself — the batch oracle and the resident incremental
//! engine's cost per single FIB delta.

use cpvr_bench::scaled_scenario;
use cpvr_dataplane::{DataPlane, FibUpdate, UpdateKind};
use cpvr_types::{Ipv4Prefix, RouterId, SimTime};
use cpvr_verify::ec::{behavior_classes, equivalence_classes};
use cpvr_verify::{verify, IncrementalVerifier, Policy};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// One `Reachable` policy for every 10th installed prefix — enough
/// scopes that per-EC checks dominate, like a real policy set.
fn policies_for(dp: &DataPlane) -> Vec<Policy> {
    dp.all_prefixes()
        .into_iter()
        .step_by(10)
        .map(|prefix| Policy::Reachable { prefix })
        .collect()
}

/// An install of a more-specific /28 under the first installed prefix
/// (reusing the covering entry's action so forwarding stays coherent),
/// and its inverse remove.
fn one_update(dp: &DataPlane) -> (FibUpdate, FibUpdate) {
    let parent = dp.all_prefixes()[0];
    let router = RouterId(0);
    let entry = dp
        .fib(router)
        .get(&parent)
        .copied()
        .expect("scaled_scenario installs the block at every router");
    let child = Ipv4Prefix::from_bits(u32::from(parent.first_addr()), 28);
    let install = FibUpdate {
        router,
        prefix: child,
        kind: UpdateKind::Install,
        action: entry.action,
        at: SimTime::ZERO,
    };
    let remove = FibUpdate {
        kind: UpdateKind::Remove,
        ..install
    };
    (install, remove)
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ec_scaling");
    g.sample_size(10);
    for k in [50usize, 200, 1000] {
        let sim = scaled_scenario(3, k, 2);
        let dp = sim.dataplane().clone();
        let topo = sim.topology().clone();
        let policies = policies_for(&dp);

        g.bench_with_input(BenchmarkId::new("forwarding_ecs", k), &dp, |b, dp| {
            b.iter(|| equivalence_classes(dp))
        });
        g.bench_with_input(BenchmarkId::new("behavior_classes", k), &dp, |b, dp| {
            b.iter(|| behavior_classes(dp))
        });

        // Full batch verification.
        g.bench_with_input(BenchmarkId::new("verify", k), &dp, |b, dp| {
            b.iter(|| verify(&topo, dp, &policies))
        });

        // Incremental: one FIB delta (install a /28, then undo it) against
        // a resident verifier — the steady-state cost per update. Each
        // iteration is two `apply` calls, so per-update cost is half the
        // reported time.
        let (install, remove) = one_update(&dp);
        let mut iv = IncrementalVerifier::new(topo.clone(), dp.clone(), policies.clone());
        g.bench_function(BenchmarkId::new("ec_incremental", k), |b| {
            b.iter(|| {
                iv.apply(&install);
                iv.apply(&remove)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
