//! Shared networked-ingest workload: the synthetic event stream and
//! collector session used by the A7–A9 throughput experiments
//! (`benches/ingest_throughput.rs`) and the codec benches
//! (`benches/obs_overhead.rs`).

use cpvr_collector::collector::{Collector, CollectorConfig};
use cpvr_collector::wal::{wait_for, WalConfig};
use cpvr_collector::SocketSink;
use cpvr_dataplane::FibAction;
use cpvr_sim::{EventId, IoEvent, IoKind};
use cpvr_types::{Ipv4Prefix, RouterId, SimTime};
use std::time::Duration;

/// Default connection count for the ingest workload.
pub const DEFAULT_CONNS: u32 = 8;
/// Default total event count for the ingest workload.
pub const DEFAULT_EVENTS: usize = 40_000;
/// A watermark is promised after every this many events per connection.
pub const WATERMARK_EVERY: usize = 500;

/// The synthetic per-router event stream: FIB churn over a rolling
/// prefix set, ids globally unique, times strictly increasing.
pub fn synthetic_events(conn: u32, n_conns: u32, total_events: usize) -> Vec<IoEvent> {
    let per = total_events / n_conns as usize;
    (0..per)
        .map(|j| {
            let time = SimTime::from_micros(10 * (j as u64 + 1));
            let prefix: Ipv4Prefix = format!("10.{}.{}.0/24", j % 256, conn)
                .parse()
                .expect("valid prefix");
            IoEvent {
                id: EventId((j as u32) * n_conns + conn),
                router: RouterId(conn),
                time,
                arrived_at: Some(time),
                kind: if j % 7 == 6 {
                    IoKind::FibRemove { prefix }
                } else {
                    IoKind::FibInstall {
                        prefix,
                        action: FibAction::Local,
                    }
                },
            }
        })
        .collect()
}

/// One ingest session, ready to run: start a collector on loopback,
/// stream the synthetic events across `n_conns` concurrent connections
/// with periodic watermarks, drain to the final watermark, shut down.
#[derive(Clone, Debug)]
pub struct IngestSession {
    /// Concurrent router connections.
    pub n_conns: u32,
    /// Total events across all connections.
    pub total_events: usize,
    /// Fold shards (`1` = the legacy single merger).
    pub shards: u32,
    /// Journal configuration; `None` streams without a WAL.
    pub wal: Option<WalConfig>,
    /// Whether the telemetry registry is live during the session.
    pub metrics: bool,
}

impl Default for IngestSession {
    fn default() -> Self {
        IngestSession {
            n_conns: DEFAULT_CONNS,
            total_events: DEFAULT_EVENTS,
            shards: 1,
            wal: None,
            metrics: true,
        }
    }
}

impl IngestSession {
    /// Runs the session and returns the number of events moved — the
    /// caller times the call to turn it into a throughput figure.
    pub fn run(&self) -> u64 {
        let mut cfg = CollectorConfig::new(self.n_conns).with_shards(self.shards);
        cfg.wal = self.wal.clone();
        cfg.metrics = self.metrics;
        let handle = Collector::start(cfg, "127.0.0.1:0").expect("bind loopback");
        let addr = handle.local_addr();
        let mut threads = Vec::new();
        for conn in 0..self.n_conns {
            let (n_conns, total) = (self.n_conns, self.total_events);
            threads.push(std::thread::spawn(move || {
                let mut sink = SocketSink::connect(addr, RouterId(conn), n_conns).expect("connect");
                for (j, e) in synthetic_events(conn, n_conns, total).iter().enumerate() {
                    sink.send(e).expect("send");
                    if (j + 1) % WATERMARK_EVERY == 0 {
                        sink.watermark(e.time).expect("watermark");
                    }
                }
                sink.bye().expect("bye");
                // Delivery is only guaranteed once every event is acked
                // (acked ⇒ journaled); under a slow durability policy
                // the unacked tail would otherwise be dropped with the
                // socket and the session could never drain.
                assert!(
                    sink.drain(Duration::from_secs(60)).expect("drain"),
                    "conn {conn}: events left unacked"
                );
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        let total = (self.total_events / self.n_conns as usize * self.n_conns as usize) as u64;
        assert!(
            wait_for(Duration::from_secs(60), || {
                let s = handle.stats();
                s.events == total && s.watermark == Some(SimTime::MAX)
            }),
            "collector did not drain: {:?}",
            handle.stats()
        );
        let report = handle.shutdown().expect("shutdown");
        assert_eq!(report.stats.decode_errors, 0);
        report.stats.events
    }

    /// Runs the session once and returns `(events_moved, seconds)`.
    pub fn run_timed(&self) -> (u64, f64) {
        let t0 = std::time::Instant::now();
        let moved = self.run();
        (moved, t0.elapsed().as_secs_f64())
    }
}
