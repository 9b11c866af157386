//! Chaos: stream the paper scenario through a deterministically faulty
//! network and require the collector to end up **bit-identical** to a
//! fault-free run — and to a WAL recovery of itself.
//!
//! Every client talks to the collector through a [`ChaosProxy`] driving
//! a seeded [`FaultPlan`]: bytes are dropped, bit-flipped, duplicated,
//! delayed, and connections are torn down mid-stream, all on a schedule
//! that is a pure function of the seed. The protocol machinery under
//! test — CRC quarantine, sequence-number dedup, gap detection,
//! go-back-N replay on reconnect, frontier-gated watermarks — must turn
//! that mess back into exactly-once, in-order ingestion.
//!
//! The default run covers a fixed seed matrix (CI pins one seed per
//! job via `CHAOS_SEED`); the `#[ignore]`d variant runs a wider
//! randomized sweep for soak testing.

mod common;

use common::{assert_same_fold, dataplane_fingerprint, events_for, sample_events, N_ROUTERS};
use cpvr_collector::client::{ReconnectPolicy, SocketSink};
use cpvr_collector::collector::{Collector, CollectorConfig, CollectorReport, LeaseConfig};
use cpvr_collector::fault::{ChaosProxy, FaultPlan};
use cpvr_collector::pipeline::{IngestPipeline, PipelineConfig};
use cpvr_collector::wal::{wait_for, TempDir, WalConfig};
use cpvr_sim::IoEvent;
use cpvr_types::{RouterId, SimTime};
use std::time::Duration;

/// The fault-free truth every chaotic run must reproduce exactly.
fn reference_pipeline(events: &[IoEvent]) -> IngestPipeline {
    common::reference_pipeline(events, &[SimTime::MAX])
}

/// An aggressive client: reconnect fast and treat short ack stalls as
/// loss, so the test exercises go-back-N replay often and finishes
/// quickly.
fn chaos_policy() -> ReconnectPolicy {
    ReconnectPolicy {
        max_attempts: 40,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(100),
        stall_after: Duration::from_millis(150),
        ..ReconnectPolicy::default()
    }
}

/// Streams `events` to a WAL-backed collector with every client behind
/// a seeded chaos proxy; returns the final report plus the WAL dir.
fn run_chaotic(events: &[IoEvent], seed: u64, dir: &TempDir) -> CollectorReport {
    // Leases stay disabled: under pure network chaos every source is
    // still alive (just mistreated), and the run must converge without
    // the eviction escape hatch — that path gets its own scripted test.
    let cfg = CollectorConfig::new(N_ROUTERS)
        .with_wal(WalConfig::new(dir.path()))
        .with_lease(LeaseConfig::disabled())
        .with_shards(chaos_shards());
    let handle = Collector::start(cfg, "127.0.0.1:0").expect("bind loopback");
    let addr = handle.local_addr();

    let end = events.iter().map(|e| e.time).max().unwrap();
    let steps: Vec<SimTime> = (1..=12)
        .map(|i| SimTime::from_nanos(end.as_nanos() / 12 * i))
        .collect();

    let mut proxies = Vec::new();
    let mut threads = Vec::new();
    for r in 0..N_ROUTERS {
        let router = RouterId(r);
        // Per-router plan, derived from the matrix seed: the horizon
        // roughly covers the encoded stream, so faults land throughout.
        let plan = FaultPlan::from_seed(
            seed.wrapping_mul(0x9e37_79b9).wrapping_add(u64::from(r)),
            60_000,
            30,
        );
        let proxy = ChaosProxy::start(addr, plan).expect("start proxy");
        let proxy_addr = proxy.local_addr();
        proxies.push(proxy);

        let mine = events_for(events, router);
        let steps = steps.clone();
        threads.push(std::thread::spawn(move || {
            let mut sink = SocketSink::connect_with(proxy_addr, router, N_ROUTERS, chaos_policy())
                .expect("connect through proxy");
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
            // Delivery is only *guaranteed* once every event is acked
            // (acked ⇒ journaled): drain retransmits across the faulty
            // pipe until the collector has everything.
            let drained = sink.drain(Duration::from_secs(120)).expect("drain");
            assert!(drained, "router {router:?} never fully acked");
            (sink.sent(), sink.reconnects())
        }));
    }

    let mut sent = 0u64;
    let mut reconnects = 0u64;
    for t in threads {
        let (s, r) = t.join().unwrap();
        sent += s;
        reconnects += r;
    }
    assert_eq!(sent as usize, events.len());

    assert!(
        wait_for(Duration::from_secs(60), || {
            let s = handle.stats();
            s.events == sent && s.watermark == Some(SimTime::MAX)
        }),
        "collector did not converge: {:?}",
        handle.stats()
    );

    let injected: u64 = proxies.iter().map(|p| p.stats().injected).sum();
    let flipped: u64 = proxies.iter().map(|p| p.stats().flipped).sum();
    for p in proxies {
        p.shutdown();
    }
    let report = handle.shutdown().expect("clean shutdown");
    assert_telemetry_invariants(&report, sent, flipped, seed);
    // The plans are dense enough that a silent pass-through run would
    // be a test bug, not a lucky network.
    assert!(injected > 0, "seed {seed}: no faults fired");
    // Protocol-fatal errors *can* happen under chaos (a Duplicate
    // fault can replay the hello, which is a violation that rightly
    // kills the connection) — what must never happen is event loss:
    // with leases disabled nothing is ever folded past, so no event
    // may arrive behind the watermark.
    assert_eq!(report.stats.late_events, 0, "seed {seed}");
    assert!(
        report.recovery.is_some(),
        "WAL run carries a recovery report"
    );
    eprintln!(
        "seed {seed}: {injected} faults injected, {reconnects} reconnects, \
         {} corrupt frames quarantined, {} dups, {} gaps",
        report.stats.corrupt_frames, report.stats.duplicate_events, report.stats.gap_events
    );
    report
}

/// Telemetry invariants that must hold after *every* seeded run, no
/// matter which faults fired: the metrics registry is an independent
/// account of the run, and it must agree with the protocol counters,
/// with durability ordering, and with the damage the proxies dealt.
fn assert_telemetry_invariants(report: &CollectorReport, sent: u64, flipped: u64, seed: u64) {
    let m = report.metrics.as_ref().expect("metrics are on by default");

    // The registry and the lock-free stats path count independently;
    // they must tell the same story.
    assert_eq!(
        m.counter_total("cpvr_events_received_total"),
        report.stats.events,
        "seed {seed}: registry vs stats (events)"
    );
    assert_eq!(
        m.counter_total("cpvr_frames_corrupt_total"),
        report.stats.corrupt_frames,
        "seed {seed}: registry vs stats (corrupt frames)"
    );
    assert_eq!(
        m.counter_total("cpvr_events_duplicate_total"),
        report.stats.duplicate_events,
        "seed {seed}: registry vs stats (duplicates)"
    );
    assert_eq!(
        m.counter_total("cpvr_events_gap_total"),
        report.stats.gap_events,
        "seed {seed}: registry vs stats (gaps)"
    );
    assert_eq!(
        m.counter_total("cpvr_events_late_total"),
        0,
        "seed {seed}: no event may arrive behind the watermark"
    );

    // Exactly-once, telemetrically: everything sent was received
    // exactly once and everything received was folded.
    assert_eq!(
        m.counter_total("cpvr_events_received_total"),
        sent,
        "seed {seed}: received == sent"
    );
    assert_eq!(
        m.gauge("cpvr_events_folded", &[]),
        Some(sent as i64),
        "seed {seed}: folded == sent"
    );
    assert_eq!(
        m.gauge("cpvr_events_pending", &[]),
        Some(0),
        "seed {seed}: nothing left buffered"
    );

    // Durability ordering: an ack is only ever counted for events that
    // were journaled first, so acked can never outrun journaled.
    let journaled = m.counter_total("cpvr_events_journaled_total");
    let acked = m.counter_total("cpvr_events_acked_total");
    assert!(
        journaled >= acked,
        "seed {seed}: journaled ({journaled}) must cover acked ({acked})"
    );
    assert_eq!(
        journaled, sent,
        "seed {seed}: every fresh event was journaled"
    );
    // Every journaled event is a WAL append (plus watermarks, hellos,
    // evictions — hence >=).
    assert!(
        m.counter_total("cpvr_wal_appends_total") >= journaled,
        "seed {seed}: WAL appends cover journaled events"
    );

    // Every flip that damaged a forwarded byte is guaranteed visible
    // (`mask | 1`), and damage can only surface as a CRC quarantine or
    // a header resync — one of the two counters must have moved.
    if flipped > 0 {
        let quarantined = m.counter_total("cpvr_frames_corrupt_total");
        let resynced = m.counter_total("cpvr_decoder_resync_bytes_total");
        assert!(
            quarantined + resynced > 0,
            "seed {seed}: {flipped} bytes flipped in flight but the decoder \
             neither quarantined nor resynced"
        );
    }
}

fn chaos_seeds() -> Vec<u64> {
    // CI pins one seed per matrix job; locally the whole default matrix
    // runs back to back.
    match std::env::var("CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("CHAOS_SEED must be a u64")],
        Err(_) => vec![1, 2, 3],
    }
}

/// How many fold shards the chaos collector runs. CI's matrix crosses
/// the seeds with `CHAOS_SHARDS` ∈ {1, 2, 4}; locally it defaults to
/// one.
fn chaos_shards() -> u32 {
    match std::env::var("CHAOS_SHARDS") {
        Ok(s) => s.parse().expect("CHAOS_SHARDS must be a u32"),
        Err(_) => 1,
    }
}

#[test]
fn chaotic_ingestion_is_bit_identical_to_fault_free() {
    let events = sample_events(7);
    let reference = reference_pipeline(&events);
    for seed in chaos_seeds() {
        let dir = TempDir::new(&format!("chaos-{seed}")).unwrap();
        let report = run_chaotic(&events, seed, &dir);
        assert_same_fold(&report.pipeline, &reference, &format!("seed {seed}"));

        // And the durable log must reconstruct the same state again:
        // crash-after-chaos is still exactly-once.
        let (mut recovered, rr) =
            IngestPipeline::recover(PipelineConfig::new(N_ROUTERS), dir.path()).unwrap();
        assert_eq!(rr.corrupt_records, 0, "seed {seed}: WAL is clean");
        recovered.advance(SimTime::MAX);
        assert_eq!(
            recovered.builder().hbg().canonical_edges(),
            reference.builder().hbg().canonical_edges(),
            "seed {seed}: recovery must be bit-identical"
        );
        assert_eq!(recovered.status(), reference.status(), "seed {seed}");
        assert_eq!(
            dataplane_fingerprint(recovered.tracker().dataplane()),
            dataplane_fingerprint(reference.tracker().dataplane()),
            "seed {seed}: recovered data plane"
        );
    }
}

/// Soak variant: a wider randomized seed sweep. Run explicitly with
/// `cargo test -p cpvr-collector --test chaos -- --ignored`.
#[test]
#[ignore = "long randomized soak; run with --ignored"]
fn chaotic_ingestion_soak() {
    let events = sample_events(7);
    let reference = reference_pipeline(&events);
    // Derive the sweep from time-of-day so soak runs explore, while one
    // eprintln'd base seed keeps any failure reproducible via CHAOS_SEED.
    let base = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_secs();
    eprintln!("soak base seed: {base} (reproduce any failure with CHAOS_SEED=<base+i>)");
    for i in 0..16 {
        let seed = base + i;
        let dir = TempDir::new(&format!("chaos-soak-{seed}")).unwrap();
        let report = run_chaotic(&events, seed, &dir);
        assert_same_fold(&report.pipeline, &reference, &format!("soak seed {seed}"));
    }
}

/// The eviction path, scripted: a straggler goes silent at a natural
/// gap in the trace, the lease evicts it, the fold **provably resumes**
/// (the watermark advances past the straggler's stale promise), and a
/// reconnect re-admits it with no loss of bit-identity.
#[test]
fn eviction_unblocks_the_fold_and_readmission_restores_identity() {
    let events = sample_events(7);
    let reference = reference_pipeline(&events);
    let end = events.iter().map(|e| e.time).max().unwrap();
    // The straggler hands over everything below the midpoint *without*
    // promising it, then goes silent: its delivered-but-unpromised
    // events sit in the reorder buffer while its missing promise gates
    // the fold — exactly the paper's stuck-verifier scenario.
    let mid = SimTime::from_nanos(end.as_nanos() / 2);

    let straggler = RouterId(0);
    let lease = LeaseConfig {
        lagging_after: Duration::from_millis(100),
        evict_after: Duration::from_millis(300),
        sweep_interval: Duration::from_millis(25),
        stall_after: Duration::from_secs(30),
    };
    let dir = TempDir::new("chaos-evict").unwrap();
    let cfg = CollectorConfig::new(N_ROUTERS)
        .with_wal(WalConfig::new(dir.path()))
        .with_lease(lease)
        .with_shards(chaos_shards());
    let handle = Collector::start(cfg, "127.0.0.1:0").expect("bind loopback");
    let addr = handle.local_addr();

    // The healthy routers deliver and promise everything up to `mid`,
    // then keep heartbeating (alive, nothing new to say yet).
    let mut healthy = Vec::new();
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    for r in 1..N_ROUTERS {
        let router = RouterId(r);
        let sorted = events_for(&events, router);
        let stop = std::sync::Arc::clone(&stop);
        healthy.push(std::thread::spawn(move || {
            let mut sink = SocketSink::connect(addr, router, N_ROUTERS).expect("connect");
            let split = sorted.partition_point(|e| e.time <= mid);
            for e in &sorted[..split] {
                sink.send(e).expect("send");
            }
            sink.watermark(mid).expect("watermark");
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                sink.heartbeat().expect("heartbeat");
                std::thread::sleep(Duration::from_millis(20));
            }
            // Phase 2: the rest of the stream.
            for e in &sorted[split..] {
                sink.send(e).expect("send");
            }
            sink.bye().expect("bye");
            assert!(sink.drain(Duration::from_secs(60)).expect("drain"));
        }));
    }

    // The straggler: deliver everything ≤ mid (and get it acked — acked
    // ⇒ journaled ⇒ ingested), promise nothing, fall silent.
    let strag = events_for(&events, straggler);
    let split = strag.partition_point(|e| e.time <= mid);
    let mut sink = SocketSink::connect(addr, straggler, N_ROUTERS).expect("connect straggler");
    for e in &strag[..split] {
        sink.send(e).expect("send");
    }
    assert!(
        sink.drain(Duration::from_secs(30))
            .expect("drain straggler"),
        "straggler's phase-1 events were never acked"
    );
    // ... silence. The fold is gated: nobody has heard a promise from
    // the straggler, so the watermark cannot move.
    assert_eq!(handle.stats().watermark, None);

    // The lease must evict the straggler and the fold must resume: the
    // global watermark jumps to the healthy routers' promise.
    assert!(
        wait_for(Duration::from_secs(20), || {
            let s = handle.stats();
            s.evictions >= 1 && s.watermark == Some(mid)
        }),
        "eviction never released the fold: {:?}",
        handle.stats()
    );

    // The straggler comes back: its next frame rides a torn-down
    // connection, so the sink reconnects, re-hellos, and the collector
    // re-admits it (journaled). Then it finishes its stream.
    for e in &strag[split..] {
        sink.send(e).expect("send after readmission");
    }
    sink.bye().expect("straggler bye");
    assert!(
        sink.drain(Duration::from_secs(60))
            .expect("drain readmitted"),
        "readmitted straggler never fully acked"
    );
    assert!(
        wait_for(Duration::from_secs(20), || handle.stats().readmissions >= 1),
        "straggler was never re-admitted: {:?}",
        handle.stats()
    );

    // Release the healthy routers' phase 2.
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    for h in healthy {
        h.join().unwrap();
    }

    let total = events.len() as u64;
    assert!(
        wait_for(Duration::from_secs(60), || {
            let s = handle.stats();
            s.events == total && s.watermark == Some(SimTime::MAX)
        }),
        "collector did not converge after readmission: {:?}",
        handle.stats()
    );

    let report = handle.shutdown().expect("clean shutdown");
    assert!(report.stats.evictions >= 1);
    assert!(report.stats.readmissions >= 1);

    // Every eviction froze the flight recorder into exactly one
    // anomaly dump next to the WAL — the black-box record of *why* the
    // fold was stuck when the lease fired.
    let eviction_dumps = std::fs::read_dir(dir.path())
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.starts_with("flight-eviction-") && name.ends_with(".json")
        })
        .count() as u64;
    assert_eq!(
        eviction_dumps, report.stats.evictions,
        "expected exactly one flight dump per eviction"
    );
    // The straggler's phase-1 events were delivered (and journaled)
    // before the eviction, and its phase-2 events are all above `mid`,
    // so nothing was folded past — identity survives the eviction.
    assert_eq!(report.stats.late_events, 0);
    assert_same_fold(&report.pipeline, &reference, "eviction");

    // The journaled Evict/Admit pair is part of the durable history.
    let (_, rr) = IngestPipeline::recover(PipelineConfig::new(N_ROUTERS), dir.path()).unwrap();
    assert!(
        rr.evicted.is_empty(),
        "re-admission must clear the recovered eviction: {:?}",
        rr.evicted
    );
}

/// Sanity: a transparent proxy (empty plan) changes nothing — the
/// harness itself is not a source of divergence.
#[test]
fn transparent_proxy_is_invisible() {
    let events = sample_events(7);
    let reference = reference_pipeline(&events);
    let handle =
        Collector::start(CollectorConfig::new(N_ROUTERS), "127.0.0.1:0").expect("bind loopback");
    let addr = handle.local_addr();

    let mut proxies = Vec::new();
    let mut threads = Vec::new();
    for r in 0..N_ROUTERS {
        let router = RouterId(r);
        let proxy = ChaosProxy::start(addr, FaultPlan::none()).expect("start proxy");
        let proxy_addr = proxy.local_addr();
        proxies.push(proxy);
        let sorted = events_for(&events, router);
        threads.push(std::thread::spawn(move || {
            let mut sink = SocketSink::connect(proxy_addr, router, N_ROUTERS).expect("connect");
            for e in &sorted {
                sink.send(e).expect("send");
            }
            sink.bye().expect("bye");
            assert!(sink.drain(Duration::from_secs(60)).expect("drain"));
            assert_eq!(sink.reconnects(), 0, "nothing should have failed");
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    let total = events.len() as u64;
    assert!(wait_for(Duration::from_secs(30), || {
        let s = handle.stats();
        s.events == total && s.watermark == Some(SimTime::MAX)
    }));
    let report = handle.shutdown().expect("clean shutdown");
    assert_eq!(report.stats.corrupt_frames, 0);
    assert_eq!(report.stats.duplicate_events, 0);
    for p in proxies {
        assert_eq!(p.shutdown().injected, 0);
    }
    assert_same_fold(&report.pipeline, &reference, "transparent proxy");
}
