//! `collectord` — a runnable demonstration of the networked ingestion
//! path: a collector daemon with a write-ahead log on one side, the
//! paper-scenario simulation acting as three routers streaming their
//! capture taps over real TCP sockets on the other, and a
//! crash-recovery replay at the end.
//!
//! ```text
//! cargo run --release -p cpvr-collector --example collectord \
//!     [--metrics-interval SECS] [--shards N] [--federate N] \
//!     [--trace-every N] [WAL_DIR]
//! ```
//!
//! Without a `WAL_DIR` argument the log lives in a temp directory that
//! is removed on exit; with one, the directory persists and re-running
//! the example demonstrates recovery across *process* lifetimes.
//!
//! `--metrics-interval SECS` starts a reporter thread that scrapes the
//! daemon's own `/metrics`-style endpoint (a `MetricsReq` frame over
//! the same TCP port) every SECS seconds and prints one-line summaries:
//! ingest rate, worst per-source watermark lag, worst per-peer frontier
//! lag (federated mode), WAL fsync p99, and the flight recorder's
//! state (anomaly dumps written so far and the watermark-stall gauge).
//!
//! The collector's flight recorder follows one event in 64 per router
//! on its own, chaining decode → journal → fold hops under one trace
//! id. `--trace-every N` makes the *sinks* sample every Nth event
//! instead, stamping those frames with a `TraceCtx` trailer, so the
//! sample is denser and starts at the sender. Dumps written on an
//! anomaly (or fetched with `DumpReq`) stitch into causal timelines
//! with `cpvr-trace`.
//!
//! `--shards N` shards the merger fold across N worker threads (each
//! with its own WAL segment series and group-committed fsyncs); the
//! final state is provably identical to the single-merger default.
//!
//! `--federate N` runs N peer-connected collector *processes-worth* of
//! members instead of one daemon: each member owns a router subset,
//! folds only its owners' streams, and exchanges frontiers, boundary
//! edges, and partial verdicts over the same TCP codec. The shutdown
//! merge is provably identical to the single collector. With `--shards`
//! too, every member folds its subset on that many worker threads.

use cpvr_collector::client::scrape_snapshot;
use cpvr_collector::collector::{Collector, CollectorConfig, CollectorStats};
use cpvr_collector::pipeline::{IngestPipeline, PipelineConfig};
use cpvr_collector::wal::{wait_for, TempDir, WalConfig};
use cpvr_collector::SocketSink;
use cpvr_core::FederationPlan;
use cpvr_federation::Federation;
use cpvr_sim::scenario::paper_scenario;
use cpvr_sim::{CaptureProfile, EventSink, IoEvent, LatencyProfile, RouterShardSink};
use cpvr_types::{RouterId, SimTime};
use std::cell::RefCell;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N_ROUTERS: u32 = 3;

/// The error `main` exits with when a collector did not drain in time.
fn drain_timeout(who: &str, stats: CollectorStats) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::TimedOut,
        format!("{who} did not drain in time: {stats:?}"),
    )
}

fn main() -> std::io::Result<()> {
    let mut wal_arg: Option<PathBuf> = None;
    let mut metrics_interval: Option<Duration> = None;
    let mut fold_shards: u32 = 1;
    let mut federate: u32 = 0;
    let mut trace_every: u64 = 0;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "-h" | "--help" => {
                println!(
                    "usage: collectord [--metrics-interval SECS] [--shards N] \
                     [--federate N] [--trace-every N] [WAL_DIR]\n\n\
                     \x20 --metrics-interval SECS  scrape the daemon(s) every SECS seconds and\n\
                     \x20                          print ingest rate, lag, wal fsync p99, and\n\
                     \x20                          flight-recorder state (dumps written, stall)\n\
                     \x20 --shards N               shard the merger fold across N workers\n\
                     \x20 --federate N             run N peer-connected members (each on --shards N)\n\
                     \x20 --trace-every N          sample every Nth event per router for causal\n\
                     \x20                          tracing (v3 trailer; stitch dumps with cpvr-trace)\n\
                     \x20 WAL_DIR                  persist the write-ahead log here (default: temp)"
                );
                return Ok(());
            }
            "--metrics-interval" => {
                let secs: u64 = args
                    .next()
                    .expect("--metrics-interval takes a number of seconds")
                    .parse()
                    .expect("--metrics-interval takes a number of seconds");
                metrics_interval = Some(Duration::from_secs(secs.max(1)));
            }
            "--shards" => {
                fold_shards = args
                    .next()
                    .expect("--shards takes a worker count")
                    .parse()
                    .expect("--shards takes a worker count");
            }
            "--federate" => {
                federate = args
                    .next()
                    .expect("--federate takes a member count")
                    .parse()
                    .expect("--federate takes a member count");
            }
            "--trace-every" => {
                trace_every = args
                    .next()
                    .expect("--trace-every takes a sampling period")
                    .parse()
                    .expect("--trace-every takes a sampling period");
            }
            _ => wal_arg = Some(PathBuf::from(a)),
        }
    }
    // Keep the temp dir alive (and thus undeleted) until we are done.
    let mut _tmp_guard: Option<TempDir> = None;
    let wal_dir: PathBuf = match wal_arg {
        Some(dir) => dir,
        None => {
            let tmp = TempDir::new("collectord")?;
            let p = tmp.path().to_path_buf();
            _tmp_guard = Some(tmp);
            p
        }
    };

    // --- the daemon(s) ----------------------------------------------------
    // Either one collector, or a federation of N members each owning a
    // router subset — either way on `fold_shards` worker threads each.
    let mut single: Option<_> = None;
    let mut fed: Option<Federation> = None;
    if federate > 1 {
        let base = CollectorConfig::new(N_ROUTERS).with_shards(fold_shards);
        let f = Federation::launch_with(FederationPlan::uniform(federate), base, &wal_dir)?;
        println!(
            "collectord federation of {federate} members ({fold_shards} fold shard(s) each), \
             wal root {}",
            wal_dir.display()
        );
        for m in 0..f.members() {
            let owned: Vec<u32> = (0..N_ROUTERS)
                .filter(|&r| f.plan().of_router(RouterId(r)) == m)
                .collect();
            println!(
                "  member {m} listening on {} owns routers {owned:?}",
                f.addr(m)
            );
            if let Some(r) = f.handle(m).recovery() {
                println!(
                    "  member {m} recovered from wal: {} events, watermark {:?}, {} segment(s){}",
                    r.events_replayed,
                    r.watermark,
                    r.segments,
                    if r.torn_tail {
                        ", torn tail discarded"
                    } else {
                        ""
                    },
                );
            }
        }
        fed = Some(f);
    } else {
        let cfg = CollectorConfig::new(N_ROUTERS)
            .with_wal(WalConfig::new(&wal_dir))
            .with_shards(fold_shards);
        let handle = Collector::start(cfg, "127.0.0.1:0")?;
        println!(
            "collectord listening on {} ({fold_shards} fold shard(s)), wal at {}",
            handle.local_addr(),
            wal_dir.display()
        );
        if let Some(r) = handle.recovery() {
            println!(
                "recovered from wal: {} events, watermark {:?}, {} segment(s){}",
                r.events_replayed,
                r.watermark,
                r.segments,
                if r.torn_tail {
                    ", torn tail discarded"
                } else {
                    ""
                },
            );
        }
        single = Some(handle);
    }
    let scrape_addrs: Vec<SocketAddr> = match (&single, &fed) {
        (Some(h), _) => vec![h.local_addr()],
        (_, Some(f)) => (0..f.members()).map(|m| f.addr(m)).collect(),
        _ => unreachable!(),
    };
    let addr_of_router = |r: RouterId| -> SocketAddr {
        match (&single, &fed) {
            (Some(h), _) => h.local_addr(),
            (_, Some(f)) => f.addr_of_router(r),
            _ => unreachable!(),
        }
    };

    // --- periodic metrics reporter ---------------------------------------
    // A scrape client like any other: connects to each daemon's port,
    // sends a MetricsReq, reads the snapshot. Everything it prints is
    // derived from the wire responses, not from in-process state.
    let reporter_stop = Arc::new(AtomicBool::new(false));
    let reporter = metrics_interval.map(|every| {
        let stop = Arc::clone(&reporter_stop);
        let addrs = scrape_addrs.clone();
        let members = federate.max(1);
        std::thread::spawn(move || {
            let mut last_events = 0u64;
            let mut last_at = Instant::now();
            let mut next_report = Instant::now() + every;
            let mut stopping = false;
            while !stopping {
                stopping = stop.load(Ordering::SeqCst);
                if !stopping {
                    std::thread::sleep(Duration::from_millis(25));
                    if Instant::now() < next_report {
                        continue;
                    }
                    next_report += every;
                }
                // On stop, one last scrape so short runs still show the
                // lag picture before shutdown tears the ports down.
                let mut events = 0u64;
                let mut worst_src = -1i64;
                let mut worst_peer = -1i64;
                let mut fsync_p99 = 0u64;
                let mut flight_dumps = 0u64;
                let mut worst_stall = 0i64;
                let mut scraped = 0usize;
                for &addr in &addrs {
                    match scrape_snapshot(addr) {
                        Ok(snap) => {
                            scraped += 1;
                            events += snap.counter_total("cpvr_events_received_total");
                            for r in 0..N_ROUTERS {
                                if let Some(l) = snap
                                    .gauge("cpvr_source_lag_nanos", &[("router", &r.to_string())])
                                {
                                    worst_src = worst_src.max(l);
                                }
                            }
                            for p in 0..members {
                                if let Some(l) =
                                    snap.gauge("cpvr_peer_lag_nanos", &[("peer", &p.to_string())])
                                {
                                    worst_peer = worst_peer.max(l);
                                }
                            }
                            fsync_p99 = fsync_p99.max(
                                snap.histogram("cpvr_wal_fsync_nanos", &[])
                                    .map_or(0, |h| h.p99()),
                            );
                            flight_dumps += snap.counter_total("cpvr_flight_dumps_total");
                            if let Some(s) = snap.gauge("cpvr_watermark_stall_seconds", &[]) {
                                worst_stall = worst_stall.max(s);
                            }
                        }
                        Err(e) => eprintln!("[metrics] scrape of {addr} failed: {e}"),
                    }
                }
                if scraped == 0 {
                    continue;
                }
                let rate =
                    events.saturating_sub(last_events) as f64 / last_at.elapsed().as_secs_f64();
                last_events = events;
                last_at = Instant::now();
                if members > 1 {
                    println!(
                        "[metrics] {rate:.0} ev/s, worst source lag {worst_src} ns, \
                         worst peer lag {worst_peer} ns, wal fsync p99 {fsync_p99} ns, \
                         {flight_dumps} flight dump(s), worst stall {worst_stall} s"
                    );
                } else {
                    println!(
                        "[metrics] {rate:.0} ev/s, worst source lag {worst_src} ns, \
                         wal fsync p99 {fsync_p99} ns, {flight_dumps} flight dump(s), \
                         worst stall {worst_stall} s"
                    );
                }
            }
        })
    });

    // --- three "routers": the simulation with per-router socket taps -----
    let mut s = paper_scenario(LatencyProfile::fast(), CaptureProfile::ideal(), 42);
    let sinks: Vec<Rc<RefCell<SocketSink>>> = (0..N_ROUTERS)
        .map(|r| {
            SocketSink::connect(addr_of_router(RouterId(r)), RouterId(r), N_ROUTERS).map(|mut s| {
                s.set_trace_sampling(trace_every);
                Rc::new(RefCell::new(s))
            })
        })
        .collect::<std::io::Result<_>>()?;
    let shards: Vec<Box<dyn EventSink>> = sinks
        .iter()
        .map(|sink| {
            let sink = Rc::clone(sink);
            Box::new(move |e: &IoEvent| sink.borrow_mut().on_event(e)) as Box<dyn EventSink>
        })
        .collect();
    s.sim.set_event_sink(Box::new(RouterShardSink::new(shards)));

    s.sim.start();
    s.sim
        .schedule_ext_announce(SimTime::from_millis(5), s.ext_r1, &[s.prefix]);
    s.sim
        .schedule_ext_announce(SimTime::from_millis(400), s.ext_r2, &[s.prefix]);

    // Stepped live run: after `run_until(t)` the simulator guarantees
    // every event stamped ≤ t has been emitted, so each router can
    // safely promise the watermark t.
    let step = SimTime::from_millis(50);
    let mut sent_all = false;
    while !sent_all {
        let t = s.sim.now() + step;
        s.sim.run_until(t);
        sent_all = s.sim.is_quiescent() && t >= SimTime::from_millis(400);
        for sink in &sinks {
            sink.borrow_mut().watermark(t)?;
        }
    }
    let mut streamed = 0;
    for sink in &sinks {
        let mut sink = sink.borrow_mut();
        sink.bye()?;
        // Delivery is only guaranteed once every event is acked (acked
        // ⇒ journaled); drain retransmits across reconnects if needed.
        if !sink.drain(Duration::from_secs(30))? {
            eprintln!(
                "router {}: drain timed out with {} events unacked",
                sink.source().0,
                sink.unacked()
            );
        }
        if let Some(e) = sink.take_error() {
            eprintln!("router {} tap shed its stream: {e}", sink.source().0);
        }
        if sink.reconnects() > 0 {
            println!(
                "router {}: survived {} reconnect(s)",
                sink.source().0,
                sink.reconnects()
            );
        }
        streamed += sink.sent();
    }
    drop(sinks);
    println!("streamed {streamed} events from {N_ROUTERS} routers");

    // --- drain, report, and (single mode) crash-recovery demo -------------
    if let Some(f) = fed {
        for m in 0..f.members() {
            if !wait_for(Duration::from_secs(30), || {
                f.handle(m).stats().watermark == Some(SimTime::MAX)
            }) {
                let stats = f.handle(m).stats();
                return Err(drain_timeout(&format!("member {m}"), stats));
            }
        }
        reporter_stop.store(true, Ordering::SeqCst);
        if let Some(h) = reporter {
            let _ = h.join();
        }
        let report = f.shutdown()?;
        for (m, member) in report.members.iter().enumerate() {
            let (sent, bytes) = member.metrics.as_ref().map_or((0, 0), |s| {
                (
                    s.counter_total("cpvr_boundary_events_sent_total"),
                    s.counter_total("cpvr_boundary_bytes_sent_total"),
                )
            });
            println!(
                "member {m}: {} conns, {} local events, {sent} boundary events out ({bytes} B)",
                member.stats.connections, member.stats.events,
            );
        }
        let g = &report.global;
        println!(
            "merged fold: watermark {:?}, {} events folded, {} HBG edges, verdict {:?}",
            g.watermark(),
            g.processed(),
            g.canonical_edges().len(),
            g.status(),
        );
        return Ok(());
    }

    let handle = single.expect("not federated");
    // Every streamed event ends up folded fresh, dropped as a duplicate,
    // or — on a rerun over a WAL whose recovered watermark is already
    // the end of time — dropped as late. Recovered events are not
    // counted at all.
    if !wait_for(Duration::from_secs(30), || {
        let st = handle.stats();
        st.events + st.duplicate_events + st.late_events >= streamed
            && st.watermark == Some(SimTime::MAX)
    }) {
        return Err(drain_timeout("collector", handle.stats()));
    }
    reporter_stop.store(true, Ordering::SeqCst);
    if let Some(h) = reporter {
        let _ = h.join();
    }
    // Flight-recorder state lives on the in-process handle; read it
    // before shutdown tears the metrics registry down.
    let flight = handle
        .metrics()
        .map(|m| (m.flight.dumps_written(), m.flight.last_reason()));
    let report = handle.shutdown()?;
    println!(
        "collector: {} conns, {} events, {} bytes, {} late, {} decode errors",
        report.stats.connections,
        report.stats.events,
        report.stats.bytes,
        report.stats.late_events,
        report.stats.decode_errors,
    );
    println!(
        "fault tolerance: {} corrupt frames quarantined, {} duplicates, {} gaps, \
         {} evictions, {} readmissions",
        report.stats.corrupt_frames,
        report.stats.duplicate_events,
        report.stats.gap_events,
        report.stats.evictions,
        report.stats.readmissions,
    );
    if !report.stalled.is_empty() {
        println!(
            "sources still gating the watermark at shutdown: {:?}",
            report.stalled
        );
    }
    let p = &report.pipeline;
    println!(
        "pipeline: watermark {:?}, {} events folded, {} HBG edges, verdict {:?}",
        p.watermark(),
        p.processed(),
        p.canonical_edges().len(),
        p.status(),
    );
    if let Some(m) = &report.metrics {
        println!(
            "telemetry: {} journaled >= {} acked, {} scrapes served, wal fsync p99 {} ns, \
             {} event flights sampled ({} completed)",
            m.counter_total("cpvr_events_journaled_total"),
            m.counter_total("cpvr_events_acked_total"),
            m.counter_total("cpvr_metrics_scrapes_total"),
            m.histogram("cpvr_wal_fsync_nanos", &[])
                .map_or(0, |h| h.p99()),
            m.counter_total("cpvr_flights_started_total"),
            m.counter_total("cpvr_flights_completed_total"),
        );
        let trace_bytes = m.counter_total("cpvr_trace_bytes_total");
        match &flight {
            Some((dumps, Some(reason))) => println!(
                "flight recorder: {dumps} dump(s) written (last: {reason}), \
                 {trace_bytes} trace trailer bytes"
            ),
            Some((dumps, None)) => println!(
                "flight recorder: {dumps} dump(s) written, {trace_bytes} trace trailer bytes"
            ),
            None => {}
        }
    }

    // --- crash-recovery demo ---------------------------------------------
    // Rebuild the same state from nothing but the bytes on disk — with
    // one replay thread per shard series when the fold was sharded.
    let (recovered, rr, _) = IngestPipeline::recover_parts(
        PipelineConfig::new(N_ROUTERS),
        &wal_dir,
        fold_shards.max(1) as usize,
    )?;
    println!(
        "replayed wal: {} events over {} segment(s) -> watermark {:?}, {} HBG edges, verdict {:?}",
        rr.events_replayed,
        rr.segments,
        recovered.watermark(),
        recovered.builder().hbg().canonical_edges().len(),
        recovered.status(),
    );
    assert_eq!(
        recovered.builder().hbg().canonical_edges(),
        p.canonical_edges(),
        "recovered HBG must be bit-identical to the live one"
    );
    assert_eq!(recovered.status(), p.status());
    println!("recovered state is bit-identical to the live pipeline");
    Ok(())
}
