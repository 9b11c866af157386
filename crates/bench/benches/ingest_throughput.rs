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
//! A10 adds the codec axis: every session shape A/B'd between the v2
//! (JSON) and v3 (binary/interned) event codecs, interleaved so machine
//! drift hits both arms equally.
//!
//! The workload itself lives in `cpvr_bench::ingest`.

use cpvr_bench::ingest::IngestSession;
use cpvr_collector::wal::{FsyncPolicy, TempDir, WalConfig};
use cpvr_collector::CodecVersion;
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

    // A10: wire-codec A/B. The same session shapes as A7/A9, each run
    // with the v2 (JSON) arm and the v3 (binary/interned) arm
    // interleaved round by round; the ratio column is the headline
    // number.
    for (name, shards, fsync) in [
        ("no-wal shards=1", 1u32, None),
        ("no-wal shards=4", 4, None),
        ("wal-everyn-256 shards=4", 4, Some(FsyncPolicy::EveryN(256))),
    ] {
        let mut v2 = 0.0f64;
        let mut v3 = 0.0f64;
        const ROUNDS: u32 = 3;
        for _ in 0..ROUNDS {
            for (codec, acc) in [(CodecVersion::V2, &mut v2), (CodecVersion::V3, &mut v3)] {
                let tmp = TempDir::new("ingest-bench-codec").unwrap();
                let wal = fsync.map(|f| {
                    let mut w = WalConfig::new(tmp.path());
                    w.fsync = f;
                    w
                });
                let session = IngestSession {
                    shards,
                    wal,
                    codec,
                    ..IngestSession::default()
                };
                let (moved, dt) = session.run_timed();
                *acc = acc.max(moved as f64 / dt);
            }
        }
        println!(
            "[A10 {name}] v2 {v2:.0} events/sec vs v3 {v3:.0} events/sec (v3/v2 = {:.2}x)",
            v3 / v2
        );
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
    g.bench_function("loopback-8conns-no-wal-v3", |b| {
        b.iter(|| {
            IngestSession {
                codec: CodecVersion::V3,
                ..IngestSession::default()
            }
            .run()
        })
    });
    g.bench_function("loopback-8conns-wal-4shards-v3", |b| {
        b.iter(|| {
            let tmp = TempDir::new("ingest-bench-wal4v3").unwrap();
            IngestSession {
                shards: 4,
                wal: Some(WalConfig::new(tmp.path())),
                codec: CodecVersion::V3,
                ..IngestSession::default()
            }
            .run()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
