//! Fold-shard equivalence and durability tests.
//!
//! The in-process [`IngestPipeline`] is the oracle: every shard count —
//! one included, it runs the same engine — must reproduce its events,
//! HBG edge multiset, snapshot verdicts, wait accounting, and assembled
//! data plane on the same trace. The WAL side gets the same treatment:
//! an N-series log must replay to the same state whether recovered with
//! 1 thread or N, and the group-commit protocol must keep "acked ⇒
//! durable" honest even when the sync thread dies mid-run.

mod common;

use common::{
    assert_same_fold, dataplane_fingerprint, events_for, reference_pipeline, sample_events,
    sample_events_with, N_ROUTERS,
};
use cpvr_collector::collector::{Collector, CollectorConfig, CollectorHandle, CollectorReport};
use cpvr_collector::pipeline::{IngestPipeline, PipelineConfig};
use cpvr_collector::wal::{wait_for, FsyncPolicy, TempDir, WalConfig};
use cpvr_collector::SocketSink;
use cpvr_sim::{CaptureProfile, IoEvent};
use cpvr_types::{RouterId, SimTime};
use std::collections::BTreeSet;
use std::time::Duration;

/// The horizon grid `run_phased` steps through: fine, and reaching past
/// the last capture *arrival* — WaitFor verdicts live in arrival-time
/// windows (a recv exported quickly while its send is still in capture
/// transit), so coarse event-time steps would only ever see Consistent.
fn phased_grid(events: &[IoEvent]) -> Vec<SimTime> {
    let end = events
        .iter()
        .map(|e| e.arrived_at.unwrap_or(e.time))
        .max()
        .unwrap();
    let step = SimTime::from_millis(2);
    let mut grid = Vec::new();
    let mut t = SimTime::ZERO;
    while t < end + step {
        t += step;
        grid.push(t);
    }
    grid
}

/// Streams the whole trace in *phases*: every connection sends and
/// drains all of its events first, then the watermark is stepped in
/// lockstep across all sources (each step fully folded before the
/// next is promised). This pins down the exact barrier sequence, so
/// order-sensitive observables — wait-accounting transitions above
/// all — are bit-comparable across shard counts.
fn run_phased(events: &[IoEvent], shards: u32) -> CollectorReport {
    let cfg = CollectorConfig::new(N_ROUTERS).with_shards(shards);
    let handle = Collector::start(cfg, "127.0.0.1:0").expect("bind loopback");
    let addr = handle.local_addr();
    let mut sinks: Vec<SocketSink> = (0..N_ROUTERS)
        .map(|r| SocketSink::connect(addr, RouterId(r), N_ROUTERS).expect("connect"))
        .collect();
    for sink in &mut sinks {
        for e in events_for(events, sink.source()) {
            sink.send(&e).expect("send");
        }
        assert!(
            sink.drain(Duration::from_secs(30)).expect("drain"),
            "router {} left events unacked",
            sink.source().0
        );
    }
    for t in phased_grid(events) {
        for sink in &mut sinks {
            sink.watermark(t).expect("watermark");
        }
        assert!(
            wait_for(Duration::from_secs(30), || {
                handle.stats().watermark == Some(t)
            }),
            "shards={shards}: watermark never reached {t:?}: {:?}",
            handle.stats()
        );
    }
    for sink in &mut sinks {
        sink.bye().expect("bye");
    }
    assert!(
        wait_for(Duration::from_secs(30), || {
            handle.stats().watermark == Some(SimTime::MAX)
        }),
        "shards={shards}: byes never pushed the watermark to MAX"
    );
    drop(sinks);
    handle.shutdown().expect("clean shutdown")
}

/// Streams the trace with per-router threads and interleaved watermark
/// steps (the loopback/chaos shape), then waits for the full fold.
fn stream_trace(handle: &CollectorHandle, events: &[IoEvent]) {
    let addr = handle.local_addr();
    let end = events.iter().map(|e| e.time).max().unwrap();
    let steps: Vec<SimTime> = (1..=16)
        .map(|i| SimTime::from_nanos(end.as_nanos() / 16 * i))
        .collect();
    let mut handles = Vec::new();
    for r in 0..N_ROUTERS {
        let mine = events_for(events, RouterId(r));
        let steps = steps.clone();
        handles.push(std::thread::spawn(move || {
            let mut sink = SocketSink::connect(addr, RouterId(r), N_ROUTERS).expect("connect");
            let mut next = 0usize;
            for &t in &steps {
                while next < mine.len() && mine[next].time <= t {
                    sink.send(&mine[next]).expect("send");
                    next += 1;
                }
                sink.watermark(t).expect("watermark");
            }
            while next < mine.len() {
                sink.send(&mine[next]).expect("send");
                next += 1;
            }
            sink.bye().expect("bye");
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let total = events.len() as u64;
    assert!(
        wait_for(Duration::from_secs(30), || {
            let s = handle.stats();
            s.events == total && s.watermark == Some(SimTime::MAX)
        }),
        "collector never folded the full stream: {:?}",
        handle.stats()
    );
}

/// The identity that makes any `--shards N` safe to deploy: on the same
/// trace, every shard count produces the in-process pipeline's state —
/// down to the §4.3 wait counters, which only compare under a
/// deterministic barrier schedule (hence the phased streaming).
#[test]
fn every_shard_count_folds_to_the_in_process_reference() {
    // Syslog-skewed capture: records reach the verifier tens of
    // milliseconds after their event times, so intermediate horizons
    // genuinely cut conversations open and the tracker issues WaitFor.
    let events = sample_events_with(CaptureProfile::syslog(), 17);
    assert!(events.len() > 100, "scenario should produce a real trace");
    let mut grid = phased_grid(&events);
    grid.push(SimTime::MAX);
    let reference = reference_pipeline(&events, &grid);
    assert!(
        reference.tracker().wait_stats().0 > 0,
        "the stepped schedule should issue real WaitFor verdicts, \
         otherwise the wait-accounting comparison below is vacuous"
    );
    for shards in [1u32, 2, 4] {
        let got = run_phased(&events, shards);
        assert_eq!(got.pipeline.shards(), shards);
        assert_eq!(got.stats.events, reference.events(), "shards={shards}");
        assert_eq!(got.pipeline.pending(), 0, "shards={shards}");
        assert_same_fold(&got.pipeline, &reference, &format!("shards={shards}"));
        assert_eq!(
            got.pipeline.wait_stats(),
            reference.tracker().wait_stats(),
            "shards={shards}: wait accounting must survive sharding"
        );
    }
}

/// An N-series WAL directory replays to the same pipeline whether the
/// segments are read by one recovery thread or one per series.
#[test]
fn parallel_wal_recovery_matches_serial_replay() {
    let events = sample_events(19);
    let dir = TempDir::new("sharded-recovery").unwrap();
    let cfg = CollectorConfig::new(N_ROUTERS)
        .with_shards(4)
        .with_wal(WalConfig::new(dir.path()));
    let handle = Collector::start(cfg, "127.0.0.1:0").expect("bind loopback");
    stream_trace(&handle, &events);
    let live = handle.shutdown().expect("clean shutdown");

    let (serial, serial_report, serial_events) =
        IngestPipeline::recover_parts(PipelineConfig::new(N_ROUTERS), dir.path(), 1).unwrap();
    let (parallel, parallel_report, parallel_events) =
        IngestPipeline::recover_parts(PipelineConfig::new(N_ROUTERS), dir.path(), 4).unwrap();

    assert_eq!(serial_report.events_replayed, events.len());
    assert_eq!(
        serial_report.events_replayed,
        parallel_report.events_replayed
    );
    assert_eq!(serial_report.watermark, parallel_report.watermark);
    assert_eq!(serial_events.len(), parallel_events.len());

    assert_eq!(serial.events(), parallel.events());
    assert_eq!(serial.watermark(), parallel.watermark());
    assert_eq!(serial.builder().processed(), parallel.builder().processed());
    assert_eq!(
        serial.builder().hbg().canonical_edges(),
        parallel.builder().hbg().canonical_edges(),
        "replay thread count must not change the HBG"
    );
    assert_eq!(serial.status(), parallel.status());
    assert_eq!(
        dataplane_fingerprint(serial.tracker().dataplane()),
        dataplane_fingerprint(parallel.tracker().dataplane())
    );

    // ...and both equal the live sharded fold they were journaled by.
    assert_eq!(
        serial.builder().hbg().canonical_edges(),
        live.pipeline.canonical_edges()
    );
    assert_eq!(serial.status(), live.pipeline.status());
}

/// Group-commit crash fault: under `FsyncPolicy::Always` an ack means
/// the record hit disk, so every event acked *before* the sync thread
/// dies must survive into replay — and the fault itself must surface
/// as a shutdown error, never be swallowed.
#[test]
fn events_acked_before_group_commit_crash_are_durable() {
    for shards in [1, 2] {
        acked_before_group_commit_crash_are_durable(shards);
    }
}

fn acked_before_group_commit_crash_are_durable(shards: u32) {
    let events = sample_events(23);
    let dir = TempDir::new("gc-crash").unwrap();
    let mut wal_cfg = WalConfig::new(dir.path());
    wal_cfg.fsync = FsyncPolicy::Always;
    let cfg = CollectorConfig::new(N_ROUTERS)
        .with_shards(shards)
        .with_wal(wal_cfg);
    let handle = Collector::start(cfg, "127.0.0.1:0").expect("bind loopback");
    let addr = handle.local_addr();

    let mut sinks: Vec<SocketSink> = (0..N_ROUTERS)
        .map(|r| SocketSink::connect(addr, RouterId(r), N_ROUTERS).expect("connect"))
        .collect();
    let mut acked_before_crash: BTreeSet<(u32, u32)> = BTreeSet::new();
    for sink in &mut sinks {
        let mine = events_for(&events, sink.source());
        for e in &mine[..mine.len() / 2] {
            sink.send(e).expect("send");
            acked_before_crash.insert((e.router.0, e.id.0));
        }
        assert!(
            sink.drain(Duration::from_secs(30)).expect("drain"),
            "pre-crash events must all be acked"
        );
    }
    assert!(!acked_before_crash.is_empty());

    // Kill the sync thread exactly as an I/O fault would. The fold
    // keeps running degraded: later events still fold and ack, but
    // durability is gone and shutdown has to say so.
    handle
        .group_commit()
        .expect("WAL => group-commit handle")
        .crash();

    for sink in &mut sinks {
        let mine = events_for(&events, sink.source());
        for e in &mine[mine.len() / 2..] {
            sink.send(e).expect("send");
        }
        sink.bye().expect("bye");
        assert!(
            sink.drain(Duration::from_secs(30)).expect("drain"),
            "degraded fold must still ack"
        );
    }
    let total = events.len() as u64;
    assert!(
        wait_for(Duration::from_secs(30), || {
            let s = handle.stats();
            s.events == total && s.watermark == Some(SimTime::MAX)
        }),
        "collector never folded the full stream: {:?}",
        handle.stats()
    );
    drop(sinks);
    match handle.shutdown() {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::Other, "{e}"),
        Ok(_) => panic!("shutdown must surface the group-commit crash"),
    }

    // Everything acked before the crash is in the log.
    let (_, report, replayed) =
        IngestPipeline::recover_parts(PipelineConfig::new(N_ROUTERS), dir.path(), shards as usize)
            .unwrap();
    let on_disk: BTreeSet<(u32, u32)> = replayed.iter().map(|e| (e.router.0, e.id.0)).collect();
    for key in &acked_before_crash {
        assert!(
            on_disk.contains(key),
            "event {key:?} was acked under Always but is missing from the log"
        );
    }
    assert!(report.events_replayed >= acked_before_crash.len());
}

/// Under `FsyncPolicy::Always` an ack means *fsynced*, at every shard
/// count: each acked batch must have been preceded by a sync of its own
/// (the worker waits on a group-commit ticket before writing the ack).
#[test]
fn an_ack_under_always_follows_an_fsync() {
    for shards in [1u32, 2] {
        let events = sample_events(31);
        let dir = TempDir::new("always-fsync").unwrap();
        let mut wal_cfg = WalConfig::new(dir.path());
        wal_cfg.fsync = FsyncPolicy::Always;
        let cfg = CollectorConfig::new(N_ROUTERS)
            .with_shards(shards)
            .with_wal(wal_cfg);
        let handle = Collector::start(cfg, "127.0.0.1:0").expect("bind loopback");
        let syncs = || {
            let m = handle.metrics().expect("metrics on by default");
            m.snapshot().counter_total("cpvr_wal_syncs_total")
        };
        let router = RouterId(0);
        let mut sink =
            SocketSink::connect(handle.local_addr(), router, N_ROUTERS).expect("connect");
        for e in events_for(&events, router).iter().take(8) {
            let before = syncs();
            sink.send(e).expect("send");
            assert!(sink.drain(Duration::from_secs(30)).expect("drain"));
            assert!(
                syncs() > before,
                "shards={shards}: event {:?} was acked without an fsync",
                e.id
            );
        }
        drop(sink);
        handle.shutdown().expect("clean shutdown");
    }
}

/// `EveryN` group commit across per-shard segment rotation: tiny
/// segments force every series through multiple rotations (each one
/// re-registering the new active file with the sync thread), and the
/// rotated log must still replay to the live fold's exact state.
#[test]
fn group_commit_survives_per_shard_segment_rotation() {
    const SHARDS: u32 = 2;
    let events = sample_events(29);
    let dir = TempDir::new("gc-rotate").unwrap();
    let mut wal_cfg = WalConfig::new(dir.path());
    // A binary event record is a few dozen bytes, so each series is a
    // couple of KiB in all.
    wal_cfg.segment_bytes = 512;
    wal_cfg.fsync = FsyncPolicy::EveryN(4);
    let cfg = CollectorConfig::new(N_ROUTERS)
        .with_shards(SHARDS)
        .with_wal(wal_cfg);
    let handle = Collector::start(cfg, "127.0.0.1:0").expect("bind loopback");
    stream_trace(&handle, &events);
    let live = handle.shutdown().expect("clean shutdown");

    // Every shard's series rotated at least once.
    for k in 0..SHARDS {
        let prefix = format!("wal-s{k}-");
        let segments = std::fs::read_dir(dir.path())
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .starts_with(&prefix)
            })
            .count();
        assert!(
            segments >= 2,
            "series {k} should have rotated, found {segments} segment(s)"
        );
    }

    let (recovered, report, _) =
        IngestPipeline::recover_parts(PipelineConfig::new(N_ROUTERS), dir.path(), SHARDS as usize)
            .unwrap();
    assert_eq!(report.events_replayed, events.len());
    assert!(!report.torn_tail);
    assert_eq!(
        recovered.builder().hbg().canonical_edges(),
        live.pipeline.canonical_edges(),
        "rotated per-shard log must replay to the live HBG"
    );
    assert_eq!(recovered.status(), live.pipeline.status());
    assert_eq!(recovered.watermark(), live.pipeline.watermark());
    assert_eq!(
        dataplane_fingerprint(recovered.tracker().dataplane()),
        dataplane_fingerprint(live.pipeline.dataplane())
    );
}
