//! End-to-end loopback test: stream a real simulation trace through the
//! TCP collector — one concurrent connection per router, stepped
//! watermarks — and require the resulting verification state to be
//! bit-identical to an in-process run over the same events.

mod common;

use common::{dataplane_fingerprint, sample_events, N_ROUTERS};
use cpvr_collector::client::{scrape, scrape_snapshot, SocketSink};
use cpvr_collector::collector::{Collector, CollectorConfig};
use cpvr_collector::pipeline::{IngestPipeline, PipelineConfig};
use cpvr_collector::wal::{wait_for, TempDir, WalConfig};
use cpvr_obs::ExpoFormat;
use cpvr_sim::IoEvent;
use cpvr_types::{RouterId, SimTime};
use std::time::Duration;

#[test]
fn concurrent_streams_match_in_process_pipeline() {
    let events = sample_events(7);
    assert!(events.len() > 100, "scenario should produce a real trace");

    // Reference: the uninterrupted in-process pipeline.
    let mut reference = IngestPipeline::new(PipelineConfig::new(N_ROUTERS));
    for e in &events {
        reference.ingest(e);
    }
    let ref_status = reference.advance(SimTime::MAX);

    // Collector under test (journaling, so sampled flights have a
    // journal hop to time).
    let wal_dir = TempDir::new("loopback").unwrap();
    let cfg = CollectorConfig::new(N_ROUTERS).with_wal(WalConfig::new(wal_dir.path()));
    let handle = Collector::start(cfg, "127.0.0.1:0").expect("bind loopback");
    let addr = handle.local_addr();

    // One client thread per router, each stepping through the shared
    // schedule independently: send everything stamped within the step,
    // then promise the step boundary. No cross-client synchronization —
    // the collector's min-watermark merge must absorb the skew.
    let end = events.iter().map(|e| e.time).max().unwrap();
    let steps: Vec<SimTime> = (1..=20)
        .map(|i| SimTime::from_nanos(end.as_nanos() / 20 * i))
        .collect();
    let mut handles = Vec::new();
    for r in 0..N_ROUTERS {
        let router = RouterId(r);
        let mut mine: Vec<IoEvent> = events
            .iter()
            .filter(|e| e.router == router)
            .cloned()
            .collect();
        mine.sort_by_key(|e| (e.time, e.id));
        let steps = steps.clone();
        handles.push(std::thread::spawn(move || {
            let mut sink =
                SocketSink::connect(addr, router, N_ROUTERS).expect("connect to collector");
            let mut next = 0usize;
            for &t in &steps {
                while next < mine.len() && mine[next].time <= t {
                    sink.send(&mine[next]).expect("send event");
                    next += 1;
                }
                sink.watermark(t).expect("send watermark");
            }
            while next < mine.len() {
                sink.send(&mine[next]).expect("send event");
                next += 1;
            }
            sink.bye().expect("send bye");
            sink.sent()
        }));
    }
    let sent: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(sent as usize, events.len());

    // Wait until the merger has folded everything (the Byes push every
    // source watermark, and hence the global one, to MAX).
    assert!(
        wait_for(Duration::from_secs(30), || {
            let s = handle.stats();
            s.events == sent && s.watermark == Some(SimTime::MAX)
        }),
        "collector did not reach the final watermark: {:?}",
        handle.stats()
    );

    // Live scrape over the same TCP port, no hello: the registry must
    // agree with the pipeline exactly once everything has folded.
    let snap = scrape_snapshot(addr).expect("scrape JSON snapshot");
    assert_eq!(snap.counter_total("cpvr_events_received_total"), sent);
    assert_eq!(snap.gauge("cpvr_events_folded", &[]), Some(sent as i64));
    assert_eq!(snap.gauge("cpvr_events_pending", &[]), Some(0));
    // The scrape's own connection is the +1: probes are connections too.
    assert_eq!(
        snap.counter_total("cpvr_connections_total"),
        u64::from(N_ROUTERS) + 1
    );
    assert_eq!(snap.counter_total("cpvr_frames_corrupt_total"), 0);
    // One event in 64 is followed through the pipeline; at the final
    // (consistent) watermark every such flight has completed and left
    // one observation per transition.
    let flights = snap.counter_total("cpvr_flights_started_total");
    assert!(flights > 0, "sampled event flights should have opened");
    assert_eq!(snap.counter_total("cpvr_flights_completed_total"), flights);
    assert_eq!(snap.counter_total("cpvr_flights_dropped_total"), 0);
    for h in [
        "cpvr_flight_received_to_journaled_nanos",
        "cpvr_flight_journaled_to_acked_nanos",
        "cpvr_flight_received_to_folded_nanos",
        "cpvr_flight_folded_to_consistent_nanos",
    ] {
        assert_eq!(
            snap.histogram(h, &[]).map(|h| h.count),
            Some(flights),
            "{h}"
        );
    }
    // The same numbers in Prometheus text, for anything that speaks it.
    let prom = scrape(addr, ExpoFormat::Prometheus).expect("scrape Prometheus");
    assert!(prom.contains("# TYPE cpvr_events_received_total counter"));
    assert!(prom.contains(&format!("cpvr_events_received_total {sent}")));
    assert!(prom.contains(&format!("cpvr_events_folded {sent}")));

    let report = handle.shutdown().expect("clean shutdown");
    // Router streams plus the two scrape probes above.
    assert_eq!(report.stats.connections, u64::from(N_ROUTERS) + 2);
    assert_eq!(report.stats.events, sent);
    assert_eq!(report.stats.decode_errors, 0);
    assert_eq!(report.stats.late_events, 0);
    assert_eq!(report.stats.corrupt_frames, 0);
    assert_eq!(report.stats.duplicate_events, 0);
    assert_eq!(report.stats.gap_events, 0);
    assert_eq!(report.stats.evictions, 0);
    assert!(report.stalled.is_empty(), "every source promised MAX");

    // Bit-identical verification state.
    let got = report.pipeline;
    assert_eq!(got.events(), reference.events());
    assert_eq!(got.processed(), reference.builder().processed());
    assert_eq!(got.pending(), 0);
    assert_eq!(
        got.canonical_edges(),
        reference.builder().hbg().canonical_edges(),
        "HBG must match the in-process run edge for edge"
    );
    assert_eq!(got.status(), ref_status);
    assert_eq!(
        dataplane_fingerprint(got.dataplane()),
        dataplane_fingerprint(reference.tracker().dataplane()),
        "assembled data plane must match"
    );

    // The shutdown metrics dump tells the same story bit-for-bit: what
    // came over the wire is what the fold consumed.
    let m = report.metrics.expect("metrics are on by default");
    assert_eq!(m.counter_total("cpvr_events_received_total"), sent);
    assert_eq!(
        m.gauge("cpvr_events_folded", &[]),
        Some(got.events() as i64)
    );
    assert_eq!(
        m.counter_total("cpvr_events_received_total"),
        got.events(),
        "wire-received events must equal folded pipeline events"
    );
}

#[test]
fn hello_mismatch_is_rejected_without_poisoning_the_collector() {
    use cpvr_collector::codec::{encode_frame, Frame, Hello};
    use std::io::{Read, Write};

    let handle =
        Collector::start(CollectorConfig::new(N_ROUTERS), "127.0.0.1:0").expect("bind loopback");
    let addr = handle.local_addr();

    // Wrong n_routers: the collector must drop the connection. A raw
    // stream (not a `SocketSink`, which would dutifully reconnect and
    // re-offend) keeps the counters deterministic.
    let mut bad = std::net::TcpStream::connect(addr).expect("tcp connect");
    bad.write_all(&encode_frame(&Frame::Hello(Hello {
        source: RouterId(0),
        n_routers: N_ROUTERS + 1,
        session: 0xbad,
        first_seq: 0,
    })))
    .expect("write bad hello");
    assert!(
        wait_for(Duration::from_secs(10), || handle.stats().decode_errors > 0),
        "mismatched hello was not rejected"
    );
    // ...and the peer observes the close (EOF, never an ack).
    bad.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut scratch = [0u8; 64];
    assert_eq!(bad.read(&mut scratch).expect("read until close"), 0);

    // A well-formed client still works afterwards.
    let mut good = SocketSink::connect(addr, RouterId(1), N_ROUTERS).expect("tcp connect");
    good.watermark(SimTime::from_millis(1)).expect("watermark");
    good.bye().expect("bye");
    // `connect` only needs the listener backlog, so wait until the
    // accept thread has actually picked the connection up before
    // shutting down.
    assert!(
        wait_for(Duration::from_secs(10), || handle.stats().connections == 2),
        "second connection was never accepted"
    );
    drop(good);
    drop(bad);

    let report = handle.shutdown().expect("clean shutdown");
    assert_eq!(report.stats.connections, 2);
    assert_eq!(report.stats.decode_errors, 1);
    // Only one of three sources ever reported, so nothing was folded.
    assert_eq!(report.stats.watermark, None);
    assert_eq!(report.pipeline.events(), 0);
}
