//! A7: networked ingest throughput — how fast the TCP collector can
//! move captured events from 8 concurrent router connections through
//! the codec, the (optional) WAL, and the incremental verification
//! pipeline. One "session" is the full life cycle: start a collector on
//! loopback, stream the events across the connections with periodic
//! watermarks, drain to the final watermark, shut down.
//!
//! A9 extends the sweep along the `--shards` axis: the same WAL-backed
//! session folded by 1, 2, 4, and 8 shard workers (per-shard segment
//! series, group-committed fsyncs).
//!
//! Every connection speaks the one event codec (binary v3); A10's
//! v2-vs-v3 arms went with the v2 sender (EXPERIMENTS.md keeps their
//! table).
//!
//! The workload itself lives in `cpvr_bench::ingest`.

use cpvr_bench::ingest::IngestSession;
use cpvr_collector::wal::{FsyncPolicy, TempDir, WalConfig};
use criterion::{criterion_group, criterion_main, Criterion};

fn run_session(wal: Option<WalConfig>, metrics: bool) -> u64 {
    IngestSession {
        wal,
        metrics,
        ..IngestSession::default()
    }
    .run()
}

fn bench(c: &mut Criterion) {
    // Headline numbers for EXPERIMENTS.md A7: one timed session per
    // configuration, reported as events/second. Metrics stay on — the
    // default deployment shape; A8 isolates their cost below.
    for (name, wal) in [
        ("no-wal", None),
        ("wal-everyn", Some(FsyncPolicy::EveryN(256))),
        ("wal-never", Some(FsyncPolicy::Never)),
    ] {
        let tmp = TempDir::new("ingest-bench").unwrap();
        let wal = wal.map(|fsync| {
            let mut w = WalConfig::new(tmp.path());
            w.fsync = fsync;
            w
        });
        let session = IngestSession {
            wal,
            ..IngestSession::default()
        };
        let (moved, dt) = session.run_timed();
        println!(
            "[A7 {name}] {moved} events / {} conns in {dt:.3}s = {:.0} events/sec",
            session.n_conns,
            moved as f64 / dt
        );
    }

    // A8: telemetry overhead, A/B over otherwise identical sessions.
    // Interleaved pairs so machine drift hits both arms equally.
    let mut on = 0.0f64;
    let mut off = 0.0f64;
    const ROUNDS: u32 = 3;
    for _ in 0..ROUNDS {
        for (metrics, acc) in [(false, &mut off), (true, &mut on)] {
            let session = IngestSession {
                metrics,
                ..IngestSession::default()
            };
            let (moved, dt) = session.run_timed();
            *acc += moved as f64 / dt;
        }
    }
    let (on, off) = (on / f64::from(ROUNDS), off / f64::from(ROUNDS));
    println!(
        "[A8 obs-overhead] metrics-on {on:.0} events/sec vs metrics-off {off:.0} events/sec \
         ({:+.1}% overhead)",
        (off - on) / off * 100.0
    );

    // A9: fold-shard scaling under a durable WAL. Same workload and
    // the same engine at every point (per-shard segment series,
    // group-committed fsyncs); only the worker count and fsync cadence
    // move. Best of three rounds per point to shave scheduler noise.
    for (cadence, fsync) in [
        ("always", FsyncPolicy::Always),
        ("everyn-256", FsyncPolicy::EveryN(256)),
    ] {
        for shards in [1u32, 2, 4, 8] {
            let mut best = 0.0f64;
            for _ in 0..3 {
                let tmp = TempDir::new("ingest-bench-shards").unwrap();
                let mut w = WalConfig::new(tmp.path());
                w.fsync = fsync;
                let session = IngestSession {
                    shards,
                    wal: Some(w),
                    ..IngestSession::default()
                };
                let (moved, dt) = session.run_timed();
                best = best.max(moved as f64 / dt);
            }
            println!("[A9 {cadence} shards={shards}] best-of-3 = {best:.0} events/sec");
        }
    }

    let mut g = c.benchmark_group("ingest_throughput");
    g.sample_size(10);
    g.bench_function("loopback-8conns-no-wal", |b| {
        b.iter(|| run_session(None, true))
    });
    g.bench_function("loopback-8conns-no-metrics", |b| {
        b.iter(|| run_session(None, false))
    });
    g.bench_function("loopback-8conns-wal", |b| {
        // Fresh directory per session so replay-at-start stays empty.
        b.iter(|| {
            let tmp = TempDir::new("ingest-bench-wal").unwrap();
            run_session(Some(WalConfig::new(tmp.path())), true)
        })
    });
    g.bench_function("loopback-8conns-wal-4shards", |b| {
        b.iter(|| {
            let tmp = TempDir::new("ingest-bench-wal4").unwrap();
            IngestSession {
                shards: 4,
                wal: Some(WalConfig::new(tmp.path())),
                ..IngestSession::default()
            }
            .run()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
