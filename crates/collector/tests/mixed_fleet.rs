//! Mixed-fleet codec negotiation: half the routers speak v2 (JSON),
//! half speak v3 (binary/interned), all into one sharded collector —
//! and the codec must be invisible to the fold. The final verification
//! state has to be bit-identical to an all-v2 run over the same trace,
//! and the WAL (which journals the original wire bytes, so the log is
//! a *mixed-format* journal) must replay to that same state after a
//! crash.

mod common;

use common::{dataplane_fingerprint, events_for, sample_events, N_ROUTERS};
use cpvr_collector::collector::{Collector, CollectorConfig, CollectorReport};
use cpvr_collector::pipeline::{IngestPipeline, PipelineConfig};
use cpvr_collector::wal::{wait_for, TempDir, WalConfig};
use cpvr_collector::{CodecVersion, ReconnectPolicy, SocketSink};
use cpvr_sim::IoEvent;
use cpvr_types::{RouterId, SimTime};
use std::path::Path;
use std::time::Duration;

const SHARDS: u32 = 2;

/// Streams the trace with one thread per router, `codec_of(r)` choosing
/// each connection's event codec, into a collector with `SHARDS` shards
/// (and a WAL when `wal_dir` is given). The watermark schedule is
/// phased identically across runs so states are bit-comparable.
fn run_fleet(
    events: &[IoEvent],
    codec_of: impl Fn(u32) -> CodecVersion,
    wal_dir: Option<&Path>,
) -> CollectorReport {
    let mut cfg = CollectorConfig::new(N_ROUTERS).with_shards(SHARDS);
    if let Some(dir) = wal_dir {
        cfg = cfg.with_wal(WalConfig::new(dir));
    }
    let handle = Collector::start(cfg, "127.0.0.1:0").expect("bind loopback");
    let addr = handle.local_addr();
    let end = events.iter().map(|e| e.time).max().unwrap();
    let steps: Vec<SimTime> = (1..=16)
        .map(|i| SimTime::from_nanos(end.as_nanos() / 16 * i))
        .collect();
    let mut handles = Vec::new();
    for r in 0..N_ROUTERS {
        let mine = events_for(events, RouterId(r));
        let steps = steps.clone();
        let codec = codec_of(r);
        handles.push(std::thread::spawn(move || {
            let mut sink = SocketSink::connect_with_codec(
                addr,
                RouterId(r),
                N_ROUTERS,
                ReconnectPolicy::default(),
                codec,
            )
            .expect("connect");
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
    handle.shutdown().expect("clean shutdown")
}

fn assert_same_state(got: &CollectorReport, base: &CollectorReport, what: &str) {
    assert_eq!(got.stats.events, base.stats.events, "{what}: event count");
    assert_eq!(got.stats.decode_errors, 0, "{what}: decode errors");
    assert_eq!(got.stats.corrupt_frames, 0, "{what}: corrupt frames");
    assert_eq!(got.pipeline.events(), base.pipeline.events(), "{what}");
    assert_eq!(
        got.pipeline.processed(),
        base.pipeline.processed(),
        "{what}: folded event count"
    );
    assert_eq!(got.pipeline.pending(), 0, "{what}");
    assert_eq!(
        got.pipeline.canonical_edges(),
        base.pipeline.canonical_edges(),
        "{what}: HBG must be bit-identical across codecs"
    );
    assert_eq!(
        got.pipeline.status(),
        base.pipeline.status(),
        "{what}: snapshot verdict"
    );
    assert_eq!(
        got.pipeline.watermark(),
        base.pipeline.watermark(),
        "{what}"
    );
    assert_eq!(
        dataplane_fingerprint(got.pipeline.dataplane()),
        dataplane_fingerprint(base.pipeline.dataplane()),
        "{what}: assembled data plane"
    );
}

/// The deployment story for the v3 rollout: upgrade routers one at a
/// time, never all at once. A fleet where even routers speak v3 and odd
/// routers still speak v2 must fold to exactly the all-v2 state — and
/// an all-v3 fleet too.
#[test]
fn mixed_codec_fleet_matches_all_v2_fold() {
    let events = sample_events(31);
    assert!(events.len() > 100, "scenario should produce a real trace");

    let base = run_fleet(&events, |_| CodecVersion::V2, None);
    let mixed = run_fleet(
        &events,
        |r| {
            if r % 2 == 0 {
                CodecVersion::V3
            } else {
                CodecVersion::V2
            }
        },
        None,
    );
    let all_v3 = run_fleet(&events, |_| CodecVersion::V3, None);

    assert_same_state(&mixed, &base, "mixed v2/v3 fleet");
    assert_same_state(&all_v3, &base, "all-v3 fleet");
}

/// The WAL journals original wire bytes, so a mixed fleet leaves a
/// journal whose records alternate between JSON and binary frames (with
/// the v3 routers' intern definitions journaled ahead of first use in
/// the same per-shard series). Replaying that mixed-format journal must
/// rebuild the live fold's exact state.
#[test]
fn mixed_format_wal_replays_to_the_live_state() {
    let events = sample_events(37);
    let dir = TempDir::new("mixed-fleet-wal").unwrap();
    let live = run_fleet(
        &events,
        |r| {
            if r % 2 == 0 {
                CodecVersion::V3
            } else {
                CodecVersion::V2
            }
        },
        Some(dir.path()),
    );

    // Recover as a crashed collector would: parallel per-series replay.
    let (recovered, report, replayed) =
        IngestPipeline::recover_parts(PipelineConfig::new(N_ROUTERS), dir.path(), SHARDS as usize)
            .unwrap();
    assert_eq!(report.events_replayed, events.len());
    assert!(!report.torn_tail);
    assert_eq!(replayed.len(), events.len());
    assert_eq!(
        recovered.builder().hbg().canonical_edges(),
        live.pipeline.canonical_edges(),
        "mixed-format journal must replay to the live HBG"
    );
    assert_eq!(recovered.status(), live.pipeline.status());
    assert_eq!(recovered.watermark(), live.pipeline.watermark());
    assert_eq!(
        dataplane_fingerprint(recovered.tracker().dataplane()),
        dataplane_fingerprint(live.pipeline.dataplane())
    );

    // And the journal genuinely is mixed-format: both frame versions
    // appear on disk (byte 2 of each wire record's header).
    let mut saw = [false; 4];
    for entry in std::fs::read_dir(dir.path()).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("seg") {
            continue;
        }
        let bytes = std::fs::read(&path).unwrap();
        let mut pos = 0usize;
        // WAL record framing: u32 LE length + u32 CRC + payload (the
        // original wire frame, whose header starts `C W version`).
        while pos + 8 <= bytes.len() {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            let rec = &bytes[pos + 8..(pos + 8 + len).min(bytes.len())];
            if rec.len() > 2 && rec[0] == b'C' && rec[1] == b'W' {
                if let Some(s) = saw.get_mut(rec[2] as usize) {
                    *s = true;
                }
            }
            pos += 8 + len;
        }
    }
    assert!(saw[2], "journal should contain v2 frames");
    assert!(saw[3], "journal should contain v3 frames");
}
