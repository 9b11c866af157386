//! Crash-recovery equivalence: stream a real trace through a
//! WAL-enabled collector, then simulate a crash at *every sampled
//! record boundary* of the resulting log — recover from the truncated
//! WAL, feed the remainder of the stream, and require the final
//! verification state (HBG edges, watermark, snapshot verdict, data
//! plane) to be bit-identical to the uninterrupted run. A torn trailing
//! record (crash mid-append) is thrown in at every other cut point.

mod common;

use common::{dataplane_fingerprint, events_for, sample_events, N_ROUTERS};
use cpvr_collector::codec::{Decoder, Frame};
use cpvr_collector::collector::{Collector, CollectorConfig};
use cpvr_collector::pipeline::{IngestPipeline, PipelineConfig};
use cpvr_collector::wal::{self, wait_for, TempDir, Wal, WalConfig};
use cpvr_collector::{FoldReport, SocketSink};
use cpvr_sim::IoEvent;
use cpvr_types::{RouterId, SimTime};
use std::time::Duration;

/// Streams `events` through a fresh collector journaling into `dir` and
/// returns the final fold once everything is folded.
fn stream_through_collector(events: &[IoEvent], dir: &std::path::Path) -> FoldReport {
    let cfg = CollectorConfig::new(N_ROUTERS).with_wal(WalConfig::new(dir));
    let handle = Collector::start(cfg, "127.0.0.1:0").expect("bind loopback");
    let addr = handle.local_addr();
    let end = events.iter().map(|e| e.time).max().unwrap();
    let steps: Vec<SimTime> = (1..=16)
        .map(|i| SimTime::from_nanos(end.as_nanos() / 16 * i))
        .collect();
    let mut handles = Vec::new();
    for r in 0..N_ROUTERS {
        let router = RouterId(r);
        let mine = events_for(events, router);
        let steps = steps.clone();
        handles.push(std::thread::spawn(move || {
            let mut sink = SocketSink::connect(addr, router, N_ROUTERS).expect("connect");
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
    handle.shutdown().expect("clean shutdown").pipeline
}

#[test]
fn recovery_from_any_record_boundary_is_bit_identical() {
    let events = sample_events(11);
    let wal_dir = TempDir::new("crash-src").unwrap();
    let reference = stream_through_collector(&events, wal_dir.path());

    // The durable log the collector produced: events + global
    // watermarks, in merge order.
    let log = wal::replay(wal_dir.path()).unwrap();
    assert!(!log.torn);
    let records = log.records;
    assert!(
        records.len() > events.len(),
        "log should hold every event plus watermark records"
    );
    // One decoder over the whole series, as recovery uses: an event's
    // symbols are defined by the intern records ahead of it.
    let mut dec = Decoder::new();
    let frames: Vec<Frame> = records
        .iter()
        .map(|rec| dec.decode_record(rec).unwrap())
        .collect();

    // Crash points: every boundary for small logs, else ~48 samples
    // always including the empty log, a single record, and both ends.
    let n = records.len();
    let mut cuts: Vec<usize> = if n <= 48 {
        (0..=n).collect()
    } else {
        let mut c: Vec<usize> = (0..=48).map(|i| i * n / 48).collect();
        c.extend([1, n - 1]);
        c.sort_unstable();
        c.dedup();
        c
    };
    cuts.dedup();

    for (ci, &cut) in cuts.iter().enumerate() {
        // Rebuild a WAL holding only the records that made it to disk
        // before the "crash"; every other cut also gets a torn tail
        // (half-written record) that replay must discard.
        let tmp = TempDir::new("crash-cut").unwrap();
        let mut w = Wal::open(WalConfig::new(tmp.path())).unwrap();
        for rec in &records[..cut] {
            w.append(rec).unwrap();
        }
        w.close().unwrap();
        let simulate_torn = ci % 2 == 1;
        if simulate_torn {
            let next = records.get(cut).cloned().unwrap_or_else(|| vec![0xab; 40]);
            let half: Vec<u8> = next[..next.len() / 2 + 1].to_vec();
            let seg = std::fs::read_dir(tmp.path())
                .unwrap()
                .map(|e| e.unwrap().path())
                .max()
                .unwrap();
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new().append(true).open(seg).unwrap();
            // A record header promising more bytes than exist.
            f.write_all(&(next.len() as u32).to_le_bytes()).unwrap();
            f.write_all(&cpvr_types::crc32::checksum(&next).to_le_bytes())
                .unwrap();
            f.write_all(&half).unwrap();
        }

        let (mut pipeline, report) =
            IngestPipeline::recover(PipelineConfig::new(N_ROUTERS), tmp.path()).unwrap();
        assert_eq!(report.torn_tail, simulate_torn, "cut {cut}");
        assert_eq!(report.corrupt_records, 0, "cut {cut}");

        // The recovered watermark must equal the last watermark record
        // in the durable prefix — exactly what the crashed merger had
        // advanced to.
        let mut last_wm = None;
        for frame in &frames[..cut] {
            if let Frame::Watermark { t, .. } = frame {
                last_wm = Some(*t);
            }
        }
        assert_eq!(pipeline.watermark(), last_wm, "cut {cut}");
        assert_eq!(report.watermark, last_wm, "cut {cut}");

        // Resume: feed the not-yet-durable remainder of the stream,
        // exactly as reconnecting routers would re-send it.
        for frame in &frames[cut..] {
            match frame {
                Frame::Event { event, .. } => pipeline.ingest(event),
                Frame::Watermark { t, .. } => {
                    pipeline.advance(*t);
                }
                // Session bookkeeping doesn't affect the fold.
                Frame::Hello(_) | Frame::Intern(_) | Frame::Evict { .. } | Frame::Admit { .. } => {}
                other => panic!("unexpected frame in log: {other:?}"),
            }
        }

        assert_eq!(pipeline.events(), reference.events(), "cut {cut}");
        assert_eq!(
            pipeline.watermark(),
            reference.watermark(),
            "cut {cut}: final watermark"
        );
        assert_eq!(
            pipeline.builder().processed(),
            reference.processed(),
            "cut {cut}: folded event count"
        );
        assert_eq!(
            pipeline.builder().hbg().canonical_edges(),
            reference.canonical_edges(),
            "cut {cut}: HBG must be bit-identical"
        );
        assert_eq!(pipeline.status(), reference.status(), "cut {cut}: verdict");
        assert_eq!(
            dataplane_fingerprint(pipeline.tracker().dataplane()),
            dataplane_fingerprint(reference.dataplane()),
            "cut {cut}: data plane"
        );
    }
}

#[test]
fn collector_restart_resumes_from_recovered_watermark() {
    // A collector started on an existing WAL must come up with the
    // recovered pipeline and keep journaling into a fresh segment.
    let events = sample_events(13);
    let wal_dir = TempDir::new("crash-restart").unwrap();
    let reference = stream_through_collector(&events, wal_dir.path());
    let before = wal::replay(wal_dir.path()).unwrap();

    // Restart over the same directory, stream nothing, shut down.
    let cfg = CollectorConfig::new(N_ROUTERS).with_wal(WalConfig::new(wal_dir.path()));
    let handle = Collector::start(cfg, "127.0.0.1:0").expect("restart");
    let recovered = handle
        .recovery()
        .expect("wal configured => recovery report")
        .clone();
    assert_eq!(recovered.events_replayed, events.len());
    assert_eq!(recovered.watermark, Some(SimTime::MAX));
    assert!(!recovered.torn_tail);
    let report = handle.shutdown().expect("clean shutdown");
    assert_eq!(
        report.pipeline.canonical_edges(),
        reference.canonical_edges()
    );
    assert_eq!(report.pipeline.status(), reference.status());

    // The restart added an (empty) segment but no records.
    let after = wal::replay(wal_dir.path()).unwrap();
    assert_eq!(after.records.len(), before.records.len());
    assert_eq!(after.segments, before.segments + 1);
}

/// On-disk compatibility: `tests/fixtures/inline-merger-wal` is the WAL
/// directory the collector wrote at `shards = 1` *before* it ran the
/// one ingest engine (the inline merger, commit 3bb7120): the paper
/// scenario, seed 41, every event up to the trace's midpoint from a
/// mixed v2/v3 fleet, folded to a watermark at the midpoint, no byes.
/// Today's one-shard collector must recover it to the same state, keep
/// journaling into the same unnumbered series, and finish the stream.
#[test]
fn a_journal_written_by_the_inline_merger_recovers_and_keeps_ingesting() {
    let events = sample_events(41);
    let end = events.iter().map(|e| e.time).max().unwrap();
    let mid = SimTime::from_nanos(end.as_nanos() / 2);
    let journaled = events.iter().filter(|e| e.time <= mid).count();
    assert!(0 < journaled && journaled < events.len());

    let dir = TempDir::new("crash-fixture").unwrap();
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/inline-merger-wal"
    );
    for entry in std::fs::read_dir(fixture).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.path().join(entry.file_name())).unwrap();
    }

    let cfg = CollectorConfig::new(N_ROUTERS).with_wal(WalConfig::new(dir.path()));
    let handle = Collector::start(cfg, "127.0.0.1:0").expect("start over the fixture");
    let recovered = handle.recovery().expect("wal configured").clone();
    assert_eq!(recovered.events_replayed, journaled);
    assert_eq!(recovered.watermark, Some(mid));
    assert_eq!(recovered.corrupt_records, 0);
    assert!(!recovered.torn_tail);
    assert!(wait_for(Duration::from_secs(10), || {
        handle.stats().watermark == Some(mid)
    }));

    // The routers come back as fresh sessions and send the rest.
    let addr = handle.local_addr();
    for r in (0..N_ROUTERS).map(RouterId) {
        let mut sink = SocketSink::connect(addr, r, N_ROUTERS).expect("connect");
        for e in events_for(&events, r).iter().filter(|e| e.time > mid) {
            sink.send(e).expect("send");
        }
        sink.bye().expect("bye");
        assert!(sink.drain(Duration::from_secs(30)).expect("drain"));
    }
    assert!(
        wait_for(Duration::from_secs(30), || {
            handle.stats().watermark == Some(SimTime::MAX)
        }),
        "the resumed stream never finished: {:?}",
        handle.stats()
    );
    let report = handle.shutdown().expect("clean shutdown");
    assert_eq!(report.stats.late_events, 0);
    let reference = common::reference_pipeline(&events, &[SimTime::MAX]);
    common::assert_same_fold(&report.pipeline, &reference, "fixture");

    // Still one unnumbered series, which a third start recovers whole.
    assert_eq!(wal::list_series(dir.path()).unwrap(), vec![None]);
    let (again, _) = IngestPipeline::recover(PipelineConfig::new(N_ROUTERS), dir.path()).unwrap();
    assert_eq!(again.events(), events.len() as u64);
    assert_eq!(again.watermark(), Some(SimTime::MAX));
}

/// Sinks that outlive their collector. The first start journals the
/// first half of each router's stream — and with it every symbol
/// definition, which the sinks then prune from their replay buffers
/// along with the acked events that carried them. The second start gets
/// the same sinks' reconnects, so its part of the journal can only be
/// decoded by itself because a reconnect re-sends `definition_frames()`
/// wholesale: recovered alone, the post-restart segments are the fold of
/// the second half.
#[test]
fn a_reconnect_after_a_restart_leaves_a_self_contained_journal() {
    let events = sample_events(17);
    let end = events.iter().map(|e| e.time).max().unwrap();
    let mid = SimTime::from_nanos(end.as_nanos() / 2);
    let (first, second): (Vec<IoEvent>, Vec<IoEvent>) =
        events.iter().cloned().partition(|e| e.time <= mid);
    assert!(!first.is_empty() && !second.is_empty());

    let dir = TempDir::new("crash-reconnect").unwrap();
    let segments = || -> Vec<std::path::PathBuf> {
        let mut s: Vec<_> = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "seg"))
            .collect();
        s.sort();
        s
    };
    let cfg = || CollectorConfig::new(N_ROUTERS).with_wal(WalConfig::new(dir.path()));
    let handle = Collector::start(cfg(), "127.0.0.1:0").expect("bind loopback");
    let addr = handle.local_addr();
    let mut sinks: Vec<SocketSink> = (0..N_ROUTERS)
        .map(|r| SocketSink::connect(addr, RouterId(r), N_ROUTERS).expect("connect"))
        .collect();
    for sink in &mut sinks {
        for e in events_for(&first, sink.source()) {
            sink.send(&e).expect("send");
        }
        sink.watermark(mid).expect("watermark");
        assert!(sink.drain(Duration::from_secs(30)).expect("drain"));
        assert_eq!(sink.unacked(), 0, "nothing left to replay");
    }
    assert!(wait_for(Duration::from_secs(30), || {
        handle.stats().watermark == Some(mid)
    }));
    handle.shutdown().expect("clean shutdown");
    let before_restart = segments();

    // Same address, same directory: the sinks find the new collector by
    // reconnecting, and it journals into a fresh segment.
    let handle = Collector::start(cfg(), addr).expect("restart on the same port");
    assert_eq!(handle.recovery().unwrap().events_replayed, first.len());
    for sink in &mut sinks {
        for e in events_for(&second, sink.source()) {
            sink.send(&e).expect("send");
        }
        sink.bye().expect("bye");
        assert!(sink.drain(Duration::from_secs(30)).expect("drain"));
        assert!(sink.reconnects() >= 1);
    }
    assert!(wait_for(Duration::from_secs(30), || {
        handle.stats().watermark == Some(SimTime::MAX)
    }));
    let report = handle.shutdown().expect("clean shutdown");
    assert_eq!(report.stats.decode_errors, 0);
    let whole = common::reference_pipeline(&events, &[SimTime::MAX]);
    common::assert_same_fold(&report.pipeline, &whole, "across the restart");

    // The second start's segments, alone.
    let alone = TempDir::new("crash-reconnect-alone").unwrap();
    let after_restart: Vec<_> = segments()
        .into_iter()
        .filter(|p| !before_restart.contains(p))
        .collect();
    assert!(!after_restart.is_empty());
    for seg in &after_restart {
        std::fs::copy(seg, alone.path().join(seg.file_name().unwrap())).unwrap();
    }
    let (recovered, rr) =
        IngestPipeline::recover(PipelineConfig::new(N_ROUTERS), alone.path()).unwrap();
    assert_eq!(rr.corrupt_records, 0, "every symbol was defined again");
    assert_eq!(rr.events_replayed, second.len());
    let reference = common::reference_pipeline(&second, &[SimTime::MAX]);
    assert_eq!(
        recovered.builder().hbg().canonical_edges(),
        reference.builder().hbg().canonical_edges()
    );
    assert_eq!(recovered.status(), reference.status());
    assert_eq!(recovered.watermark(), reference.watermark());
    assert_eq!(
        dataplane_fingerprint(recovered.tracker().dataplane()),
        dataplane_fingerprint(reference.tracker().dataplane())
    );
}
