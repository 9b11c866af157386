//! The threaded TCP collector: accepts one connection per router, turns
//! the per-router frame streams into typed messages, and hands them to
//! the one ingest engine (`session`).
//!
//! ## Threading model
//!
//! Plain `std` threads, no async runtime:
//!
//! - an **accept thread** blocks in `accept` and spawns one **reader
//!   thread** per connection, which blocks in `read` on its socket.
//!   Nothing polls a stop flag: [`CollectorHandle::shutdown`] wakes the
//!   acceptor with one connect of its own, and the acceptor then shuts
//!   down every reader's socket, which ends the reader's `read`;
//! - every thread is a shell that reads the clock once per wake and
//!   hands that `now` to the code that decides (DESIGN.md §6 "One clock
//!   for every collector thread"); what a reader or a worker writes
//!   back goes to the connection's `Wire`;
//! - reader threads decode frames through the resynchronizing
//!   [`Decoder`] (the CPU-heavy parse happens here, in parallel across
//!   connections) and push typed messages into a **bounded** channel —
//!   when the session falls behind, readers block, TCP windows fill, and
//!   backpressure reaches the senders. A corrupt frame is *quarantined*
//!   (counted, skipped, the reader resynchronizes); only protocol
//!   violations (bad hello, garbage that passed its CRC) kill a
//!   connection;
//! - one **session thread** runs the session loop: it owns the
//!   `SourceTable`, deduplicates events by per-source sequence number,
//!   applies frontier-gated watermark promises, runs the **liveness
//!   leases** (a source silent past [`LeaseConfig::lagging_after`] is
//!   flagged, one silent past [`LeaseConfig::evict_after`] is evicted
//!   from the watermark gate — journaled, and re-admitted on its next
//!   handshake — so one dead router cannot stall verification forever),
//!   and lets the fold advance only up to the *minimum* applied promise
//!   over all non-evicted sources, the merge point at which the global
//!   `(time, id)` order is known — the precondition for
//!   [`HbgBuilder::advance`]'s deterministic sweep;
//! - behind the session, one engine folds: `shards` **fold workers**
//!   (`crate::shard`; each journals its routers' events into its own
//!   WAL series, folds them, and writes [`Frame::Ack`] frames back so
//!   clients can prune their replay buffers) plus one **group-commit
//!   thread** for their fsyncs. On a federation member the same
//!   workers fold the member's slice of the plan, and the other
//!   members' shards take part in each barrier round over peer links
//!   ([`crate::federation`]). `shards = 1` is one worker, not a
//!   different program, and a member is a collector, not a different
//!   program either.
//!
//! Every thread counts into one `CollectorMetrics` registry, which is
//! always on; [`CollectorHandle::stats`] is a view of it.
//!
//! ## Durability ordering
//!
//! An event's wire frame is appended to the WAL *before* the event is
//! ingested, a (global) watermark frame *before* the fold advances to
//! it, and an eviction/re-admission frame *before* the gate changes —
//! and an ack is only sent *after* the events it covers were journaled.
//! The log is therefore always at least as complete as the in-memory
//! state, so replaying it — [`Collector::start`] scans the journal
//! (`WalScan::read`) and seeds the fold workers from the scan
//! (`Shards::start`) — reconstructs the pre-crash fold exactly:
//! at-least-once logging plus sequence deduplication plus a
//! deterministic fold is effectively exactly-once recovery.
//! [`IngestPipeline::recover`] folds the same scan in-process, as the
//! oracle the recovered fold is tested against.
//!
//! [`HbgBuilder::advance`]: cpvr_core::builder::HbgBuilder::advance
//! [`Decoder`]: crate::codec::Decoder
//! [`IngestPipeline::recover`]: crate::pipeline::IngestPipeline::recover

use crate::codec::{
    encode_frame, CodecError, DecodedMsg, Decoder, Frame, Hello, PeerHello, RepairRecord,
};
use crate::federation::{CollectorRole, FederationConfig};
use crate::group_commit::GroupCommitHandle;
use crate::metrics::CollectorMetrics;
use crate::pipeline::{PipelineConfig, RecoveryReport, WalScan};
use crate::session;
use crate::shard::{FoldReport, Shards};
use crate::wal::WalConfig;
use cpvr_core::FoldRecord;
use cpvr_obs::trace::stage;
use cpvr_obs::{RingHandle, Snapshot};
use cpvr_sim::IoEvent;
use cpvr_types::trace::TRACE_CTX_WIRE_LEN;
use cpvr_types::{RouterId, SimTime, TraceCtx};
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Liveness-lease thresholds. Each fires exactly when it runs out: the
/// session loop sleeps until the earliest `last heard + threshold` (or
/// the stall watchdog's next step), and with none pending, indefinitely.
#[derive(Clone, Copy, Debug)]
pub struct LeaseConfig {
    /// A source silent this long is marked `SourceState::Lagging`
    /// (diagnostic only — it still gates the watermark).
    pub lagging_after: Duration,
    /// A source silent this long is evicted from the watermark gate so
    /// the fold can resume without it. Must exceed `lagging_after`.
    pub evict_after: Duration,
    /// Watermark-stall watchdog: if an event has waited this long behind
    /// a global min-watermark that has not advanced since it arrived, the
    /// `cpvr_watermark_stall_seconds` gauge keeps climbing and the
    /// flight recorder takes a one-shot `stall` dump (re-armed when the
    /// watermark next moves). Diagnostic only — never evicts anything.
    pub stall_after: Duration,
}

impl Default for LeaseConfig {
    fn default() -> Self {
        LeaseConfig {
            lagging_after: Duration::from_secs(15),
            evict_after: Duration::from_secs(60),
            stall_after: Duration::from_secs(30),
        }
    }
}

impl LeaseConfig {
    /// Leases that never fire (for workloads where a stalled source
    /// must stall the fold — the paper's strict §5 discipline).
    pub fn disabled() -> Self {
        LeaseConfig {
            lagging_after: Duration::MAX,
            evict_after: Duration::MAX,
            stall_after: Duration::MAX,
        }
    }
}

/// Collector tuning knobs.
#[derive(Clone, Debug)]
pub struct CollectorConfig {
    /// Deployment shape handed to the pipeline; also the number of
    /// distinct sources that must report before any event is folded.
    pub(crate) pipeline: PipelineConfig,
    /// Liveness-lease thresholds for marking sources lagging and
    /// evicting them from the watermark gate.
    pub(crate) lease: LeaseConfig,
    /// Where to journal frames. Required: [`Collector::start`] refuses a
    /// config without one (set it with [`with_wal`](Self::with_wal)).
    pub(crate) wal: Option<WalConfig>,
    /// How many fold workers run behind the session loop (default
    /// `1`). Routers and conversations are partitioned across the
    /// workers by [`ShardPlan::uniform`](cpvr_core::ShardPlan::uniform),
    /// which are joined by a barrier round (see [`crate::shard`]); each
    /// has its own WAL segment series, and one group-commit thread
    /// fsyncs them all. Every count runs the same code and folds to the
    /// same state — on a federation member too, where the workers split
    /// the member's slot of the federation plan.
    pub(crate) shards: u32,
    /// Runs this collector as one member of a federation: it folds only
    /// the routers its [`FederationPlan`](cpvr_core::FederationPlan)
    /// assigns to it and exchanges frontiers, boundary edges, and
    /// partial verdicts with its peers (see [`crate::federation`]).
    pub federation: Option<FederationConfig>,
}

impl CollectorConfig {
    /// A config for `n_routers` with default tuning. It names no WAL
    /// yet, and every collector journals: add one with
    /// [`with_wal`](Self::with_wal) before [`Collector::start`].
    pub fn new(n_routers: u32) -> Self {
        CollectorConfig {
            pipeline: PipelineConfig::new(n_routers),
            lease: LeaseConfig::default(),
            wal: None,
            shards: 1,
            federation: None,
        }
    }

    /// Sets the WAL every event, watermark and control record is
    /// journaled to before it takes effect (required).
    pub fn with_wal(mut self, wal: WalConfig) -> Self {
        self.wal = Some(wal);
        self
    }

    /// Overrides the liveness leases.
    pub fn with_lease(mut self, lease: LeaseConfig) -> Self {
        self.lease = lease;
        self
    }

    /// Folds on `shards` worker threads.
    pub fn with_shards(mut self, shards: u32) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Runs this collector as one federation member (see
    /// [`crate::federation`]), folding its slot of the federation plan
    /// on `shards` workers. A member recovers by replaying its journal,
    /// which regenerates its outbound peer traffic.
    pub fn with_federation(mut self, fed: FederationConfig) -> Self {
        self.federation = Some(fed);
        self
    }

    /// How many fold workers this collector runs.
    pub(crate) fn fold_shards(&self) -> u32 {
        self.shards.max(1)
    }
}

/// A point-in-time copy of the collector's counters: a view of the
/// telemetry registry (`CollectorMetrics::stats`), which is where the
/// collector counts everything.
#[derive(Clone, Copy, Debug, Default)]
pub struct CollectorStats {
    /// Connections accepted over the collector's lifetime.
    pub connections: u64,
    /// Events ingested into the pipeline.
    pub events: u64,
    /// Raw bytes received across all connections.
    pub bytes: u64,
    /// Fatal protocol errors (bad handshake, undecodable payload behind
    /// a valid CRC); each one closes its connection.
    pub decode_errors: u64,
    /// Frames quarantined by the resynchronizing decoder (damaged in
    /// flight); these do *not* close the connection — the sequence
    /// layer recovers the loss by retransmission.
    pub corrupt_frames: u64,
    /// Events dropped as already-accepted duplicates (reconnect
    /// replays).
    pub duplicate_events: u64,
    /// Events dropped for arriving ahead of sequence (something before
    /// them was lost; they will be retransmitted in order).
    pub gap_events: u64,
    /// Events dropped for arriving at or behind the advanced watermark
    /// (only possible for sources re-admitted after eviction).
    pub late_events: u64,
    /// Sources evicted from the watermark gate by the liveness lease.
    pub evictions: u64,
    /// Evicted sources re-admitted after reconnecting.
    pub readmissions: u64,
    /// Repair-lifecycle records journaled through
    /// [`CollectorHandle::journal_repair`] (duplicates excluded).
    pub repair_records: u64,
    /// The last globally advanced watermark. Published after every
    /// gauge and flight record of its advance, so a caller that sees it
    /// may read those.
    pub watermark: Option<SimTime>,
}

/// One decoded event, classified once into its fold record, carrying
/// its wire encoding for the WAL (re-encoding downstream would
/// serialize the cost); a WAL-recovered event carries none, being
/// durable already.
pub(crate) struct EventRec {
    pub(crate) seq: u64,
    pub(crate) rec: FoldRecord,
    pub(crate) arrived_at: Option<SimTime>,
    pub(crate) raw: Option<Vec<u8>>,
    /// Set on a sampled flight: the trace context its hops are recorded
    /// under — the one the frame's trailer carried, or the one the
    /// reader minted for it — and when the reader decoded it.
    pub(crate) trace: Option<(TraceCtx, Instant)>,
}

impl EventRec {
    /// Classifies `event`: the fold, and every shard or member it
    /// crosses to, needs nothing but the record.
    pub(crate) fn new(seq: u64, event: &IoEvent) -> Self {
        EventRec {
            seq,
            rec: FoldRecord::of(event),
            arrived_at: event.arrived_at,
            raw: None,
            trace: None,
        }
    }
}

/// What a reader thread hands to the session loop.
///
/// Events travel in batches: nothing is folded until the next
/// watermark anyway, so a reader may hold events back until the read
/// chunk is drained (or the batch cap) with zero semantic cost — and
/// the channel carries far fewer messages than one per event, which is
/// what keeps the one session thread from becoming the contention point.
pub(crate) enum Msg {
    Hello {
        conn: u64,
        hello: Hello,
        /// A write handle to the connection, for acks. `None` if the
        /// clone failed (the client then simply never sees acks on
        /// this connection and will reconnect on stall).
        ack: Option<Box<dyn Wire>>,
    },
    /// A batch of events, with the original wire bytes of the v3 intern
    /// definitions that arrived alongside them. The worker journals the
    /// definitions ahead of the events, into the series that journals
    /// the events using them, so a per-series replay sees
    /// define-before-use.
    Events {
        conn: u64,
        batch: Vec<EventRec>,
        defs: Vec<Vec<u8>>,
    },
    Watermark {
        conn: u64,
        t: SimTime,
        frontier: u64,
    },
    Heartbeat {
        conn: u64,
    },
    Bye {
        conn: u64,
        frontier: u64,
    },
    /// A federation peer's handshake (only from another member of the
    /// collector's federation plan; the reader kills the connection
    /// otherwise).
    PeerHello {
        conn: u64,
        hello: PeerHello,
        /// A write handle to the connection, for go-back-N acks back to
        /// the sending member.
        ack: Option<Box<dyn Wire>>,
    },
    /// A frontier / boundary-edge / partial-verdict / repair-proof
    /// frame from a federation peer, with its original wire bytes for
    /// the journal.
    Peer {
        conn: u64,
        frame: Frame,
        raw: Vec<u8>,
    },
    /// A repair-lifecycle record submitted through
    /// [`CollectorHandle::journal_repair`]. The session journals it
    /// (kind 16) before folding it into the ledger, then has `done`
    /// signalled behind the append — so the caller returns only once
    /// the record is durable and folded.
    Repair {
        record: RepairRecord,
        done: Option<std::sync::mpsc::SyncSender<()>>,
    },
    Closed {
        conn: u64,
    },
}

/// Capacity of the reader → session and session → worker channels.
/// Full channel = blocked readers = TCP backpressure.
pub(crate) const CHANNEL_CAPACITY: usize = 1024;

/// A connection silent this long past the reader's last wake is
/// dropped. (Its source is the lease's business — a heartbeating client
/// never trips this.)
pub(crate) const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// How long the acceptor backs off after a failed `accept` (and a
/// shutdown after a failed wake-up connect) before trying again.
pub(crate) const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Cap on events per channel message; bounds session-side latency and
/// channel memory (capacity × batch × event size).
const EVENT_BATCH_MAX: usize = 256;

/// How long an ack write may block before the connection is given up
/// for congested (the client reconnects on ack stall).
const ACK_WRITE_TIMEOUT: Duration = Duration::from_millis(50);

/// Flight-recorder ring capacity of a reader thread: one decode stamp
/// per sampled flight plus anomaly markers.
const READER_RING_SLOTS: usize = 128;

/// Flight sampling stride: an event that arrives without a trace trailer
/// is followed through the pipeline anyway when its sequence number is a
/// multiple of this.
const FLIGHT_SAMPLE: u64 = 64;

/// Quarantined frames on one connection within one burst window before
/// the reader takes a `crc-burst` flight dump.
const CRC_BURST_THRESHOLD: u64 = 32;

/// One connection's write half, as the collector writes it: a reader's
/// probe answers, a worker's acks, a peer link's first sends. A socket
/// in a deployment; a test may stand a buffer in for one.
pub(crate) trait Wire: Write + Send {
    /// A second handle on the same connection, for the worker that acks
    /// it (`None` if none can be made: that connection is never acked,
    /// and its sender replays on the stall).
    fn handle(&self) -> Option<Box<dyn Wire>>;
    /// Ends the connection both ways: its reader sees the end.
    fn hang_up(&self);
}

impl Wire for TcpStream {
    fn handle(&self) -> Option<Box<dyn Wire>> {
        let ack = self.try_clone().ok()?;
        let _ = ack.set_write_timeout(Some(ACK_WRITE_TIMEOUT));
        Some(Box::new(ack))
    }

    fn hang_up(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

/// The final accounting returned by [`CollectorHandle::shutdown`].
pub struct CollectorReport {
    /// The verification state at shutdown: the fold shards' merged
    /// view.
    pub pipeline: FoldReport,
    /// Final counters.
    pub stats: CollectorStats,
    /// Sources that were still holding the watermark back at shutdown —
    /// routers that never connected, never promised, or whose promise
    /// is parked behind lost events. Empty for a fully drained run.
    pub stalled: Vec<RouterId>,
    /// What WAL recovery found at startup.
    pub recovery: RecoveryReport,
    /// The final metrics snapshot, taken after the session drained —
    /// the shutdown `dump`. Always `Some`: metrics are always on; the
    /// `Option` stays because the benchmark ledger names the type.
    pub metrics: Option<Snapshot>,
    /// Whether this collector ran standalone or as a federation member
    /// — and, for a member, the final per-peer frontier summary.
    pub role: CollectorRole,
}

/// A running collector. Dropping the handle without calling
/// [`shutdown`](Self::shutdown) detaches the threads (the acceptor
/// keeps accepting, and each reader stops when its connection closes);
/// call `shutdown` to stop deterministically and collect the state.
pub struct CollectorHandle {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    session: Option<JoinHandle<(FoldReport, Option<io::Error>)>>,
    recovery: RecoveryReport,
    metrics: Arc<CollectorMetrics>,
    group_commit: GroupCommitHandle,
    /// Local channel into the session for repair-lifecycle records;
    /// dropped in `shutdown` so the session's receive loop can end.
    tx: Option<SyncSender<Msg>>,
}

/// The collector entry point.
pub struct Collector;

impl Collector {
    /// Binds `addr`, recovers from the WAL, and starts the accept,
    /// session and fold threads. A config without a WAL is refused with
    /// `InvalidInput`: every collector journals.
    pub fn start(cfg: CollectorConfig, addr: impl ToSocketAddrs) -> io::Result<CollectorHandle> {
        Self::start_on(cfg, TcpListener::bind(addr)?)
    }

    /// Like [`start`](Self::start), on a pre-bound listener. Federation
    /// launchers use this to bind every member's listener *first*, so
    /// each member's config can carry the full peer address list before
    /// any member runs.
    pub fn start_on(cfg: CollectorConfig, listener: TcpListener) -> io::Result<CollectorHandle> {
        let local = listener.local_addr()?;
        let bad = |why: &str| Err(io::Error::new(io::ErrorKind::InvalidInput, why));
        let Some(wal_cfg) = &cfg.wal else {
            return bad("a collector requires a WAL: set one with CollectorConfig::with_wal");
        };
        if let Some(fed) = &cfg.federation {
            if fed.member >= fed.plan.members() {
                return bad("federation member index out of range for the plan");
            }
            if fed.peers.len() != fed.plan.members() as usize {
                return bad(
                    "federation peer list must have one address per member (self included)",
                );
            }
        }
        let workers = cfg.fold_shards();
        let members = cfg.federation.as_ref().map_or(0, |f| f.plan.members());
        let metrics = Arc::new(CollectorMetrics::new(
            cfg.pipeline.n_routers,
            workers,
            members,
        ));
        // Anomaly dumps land next to the WAL, tagged with the member id so
        // cpvr-trace can stitch dumps across a federation.
        metrics.flight.arm(&wal_cfg.dir);
        if let Some(fed) = &cfg.federation {
            metrics.flight.set_member(i64::from(fed.member));
        }

        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::sync_channel::<Msg>(CHANNEL_CAPACITY);

        // The journal scan yields the source table, the repair ledger,
        // the recovered watermark and (on a member) the peer and round
        // records to replay; the workers fold the scanned events
        // themselves, once.
        let mut scan = WalScan::read(cfg.pipeline, &wal_cfg.dir, workers as usize)?;
        let now = Instant::now();
        let mut shards = Shards::start(&cfg, wal_cfg, &mut scan, &metrics, now)?;
        if let Some(p) = shards.peers.as_mut() {
            p.dial_out(&metrics);
        }
        let group_commit = shards.group_commit();
        let recovered = (scan.sources, scan.repairs);
        let session = session::spawn(rx, shards, recovered, &cfg, &metrics, now)?;
        let recovery = scan.report;

        let handle_tx = tx.clone();
        let accept = {
            let stop = Arc::clone(&stop);
            let cfg = cfg.clone();
            let metrics = Arc::clone(&metrics);
            thread::Builder::new()
                .name("cpvr-accept".into())
                .spawn(move || accept_loop(listener, tx, stop, cfg, metrics))?
        };

        Ok(CollectorHandle {
            addr: local,
            stop,
            accept: Some(accept),
            session: Some(session),
            recovery,
            metrics,
            group_commit,
            tx: Some(handle_tx),
        })
    }
}

impl CollectorHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// A snapshot of the live counters, read from the registry.
    pub fn stats(&self) -> CollectorStats {
        self.metrics.stats()
    }

    /// The fold workers' group-commit handle. Exposed as a
    /// fault-injection hook: `GroupCommitHandle::crash` kills the sync
    /// thread as an I/O fault would, after which `shutdown` must surface
    /// the error while every event acked *before* the crash stays
    /// replayable.
    pub fn group_commit(&self) -> &GroupCommitHandle {
        &self.group_commit
    }

    /// What WAL recovery found at startup.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The live telemetry bundle. Scraping over the wire
    /// (`Frame::MetricsReq`) sees the same registry. Always `Some`:
    /// metrics are always on; the `Option` stays because the benchmark
    /// ledger names the type.
    pub fn metrics(&self) -> Option<&Arc<CollectorMetrics>> {
        Some(&self.metrics)
    }

    /// Journals one repair-lifecycle record through the session,
    /// blocking until the record has been appended to the WAL and
    /// folded into the ledger — so the control plane may act on a
    /// stage only after it is durable, and a crash between any two
    /// stages recovers to the same decision.
    pub fn journal_repair(&self, record: RepairRecord) -> io::Result<()> {
        let tx = self
            .tx
            .as_ref()
            .ok_or_else(|| io::Error::other("collector is shut down"))?;
        let (done_tx, done_rx) = std::sync::mpsc::sync_channel(1);
        tx.send(Msg::Repair {
            record,
            done: Some(done_tx),
        })
        .map_err(|_| io::Error::other("collector session is gone"))?;
        done_rx
            .recv()
            .map_err(|_| io::Error::other("collector session dropped the repair record"))
    }

    /// Stops accepting, drains every connection, closes the WAL, and
    /// returns the final pipeline state.
    pub fn shutdown(mut self) -> io::Result<CollectorReport> {
        self.stop.store(true, Ordering::SeqCst);
        drop(self.tx.take());
        if let Some(h) = self.accept.take() {
            wake_acceptor(self.addr, &h);
            let _ = h.join();
        }
        let (pipeline, wal_err) = match self.session.take() {
            Some(h) => h
                .join()
                .map_err(|_| io::Error::other("session thread panicked"))?,
            None => unreachable!("shutdown consumes self"),
        };
        if let Some(e) = wal_err {
            return Err(e);
        }
        let stalled = pipeline.stalled_sources();
        let role = pipeline
            .member()
            .map_or(CollectorRole::Standalone, |m| m.role());
        // Read after the session joined: these are the final values,
        // nothing is still incrementing.
        Ok(CollectorReport {
            pipeline,
            stats: self.metrics.stats(),
            stalled,
            role,
            recovery: self.recovery,
            metrics: Some(self.metrics.snapshot()),
        })
    }
}

fn accept_loop(
    listener: TcpListener,
    tx: SyncSender<Msg>,
    stop: Arc<AtomicBool>,
    cfg: CollectorConfig,
    metrics: Arc<CollectorMetrics>,
) {
    let cfg = Arc::new(cfg);
    // Each reader with a second handle to its connection: shutting that
    // handle down is what ends the reader's blocking read.
    let mut readers: Vec<(JoinHandle<()>, TcpStream)> = Vec::new();
    let mut next_conn: u64 = 0;
    for stream in listener.incoming() {
        // `shutdown` sets the flag, then connects to wake this `accept`.
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(stream) => stream,
            Err(_) => {
                thread::sleep(ACCEPT_BACKOFF);
                continue;
            }
        };
        // Without a second handle its reader could not be stopped.
        let Ok(keep) = stream.try_clone() else {
            continue;
        };
        let conn = next_conn;
        next_conn += 1;
        metrics.connections.inc();
        let tx = tx.clone();
        let (cfg, metrics) = (Arc::clone(&cfg), Arc::clone(&metrics));
        let h = thread::Builder::new()
            .name(format!("cpvr-reader-{conn}"))
            .spawn(move || reader_loop(stream, conn, tx, &cfg, &metrics))
            .expect("spawn reader thread");
        readers.retain(|(h, _)| !h.is_finished());
        readers.push((h, keep));
    }
    for (_, conn) in &readers {
        let _ = conn.shutdown(Shutdown::Both);
    }
    for (h, _) in readers {
        let _ = h.join();
    }
    // `tx` drops here; once every reader's clone is gone the session's
    // receive loop ends and it returns the fold.
}

/// Wakes a thread blocked in `accept` on `addr` by connecting to it;
/// retries only while the connect fails and the thread still runs.
pub(crate) fn wake_acceptor(mut addr: SocketAddr, acceptor: &JoinHandle<()>) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    while !acceptor.is_finished() && TcpStream::connect(addr).is_err() {
        thread::sleep(ACCEPT_BACKOFF);
    }
}

/// What processing one decoded frame decided about the connection.
enum FrameOutcome {
    /// Keep reading.
    Continue,
    /// Close the connection: a protocol violation (counted by
    /// [`Reader::fatal`]), a probe answer that could not be written, or
    /// the session hung up.
    Close,
}

/// One connection's reader state: its decoder, the protocol state
/// machine [`on_frame`](Self::on_frame) drives, the events batched for
/// the session, and the decoder counters already published. It decides
/// on the `now` each wake hands it — [`feed`](Self::feed) — and
/// [`reader_loop`] is its socket shell; `out` is the connection's write
/// half, for probe answers and the ack handle.
pub(crate) struct Reader<'a, W> {
    conn: u64,
    out: W,
    dec: Decoder,
    tx: SyncSender<Msg>,
    cfg: &'a CollectorConfig,
    metrics: &'a CollectorMetrics,
    /// This connection's flight-recorder ring (decode-stage records and
    /// the CRC-burst anomaly trigger).
    flight: RingHandle,
    greeted: bool,
    /// The router and session a router hello named: the session
    /// sequences this connection's events under that router, so an
    /// event naming any other is a protocol violation.
    source: Option<(RouterId, u64)>,
    is_peer: bool,
    batch: Vec<EventRec>,
    /// Raw intern definitions that arrived since the last flush.
    defs: Vec<Vec<u8>>,
    reported_corrupt: u64,
    reported_skipped: u64,
    /// The quarantined-frame count the next `crc-burst` dump counts from.
    crc_burst_base: u64,
    /// When the connection closes for silence: `IDLE_TIMEOUT` past the
    /// last wake.
    idle_at: Option<Instant>,
}

impl<'a, W: Wire> Reader<'a, W> {
    /// A reader for connection `conn`, accepted at `now`.
    pub(crate) fn new(
        out: W,
        conn: u64,
        tx: SyncSender<Msg>,
        cfg: &'a CollectorConfig,
        metrics: &'a CollectorMetrics,
        now: Instant,
    ) -> Self {
        Reader {
            conn,
            out,
            dec: Decoder::new(),
            tx,
            cfg,
            metrics,
            flight: metrics
                .flight
                .register(&format!("reader-{conn}"), READER_RING_SLOTS),
            greeted: false,
            source: None,
            is_peer: false,
            batch: Vec::new(),
            defs: Vec::new(),
            reported_corrupt: 0,
            reported_skipped: 0,
            crc_burst_base: 0,
            idle_at: now.checked_add(IDLE_TIMEOUT),
        }
    }

    /// When the connection closes for silence (`None`: never).
    pub(crate) fn deadline(&self) -> Option<Instant> {
        self.idle_at
    }

    /// One wake's bytes, received at `now`: decodes every complete
    /// frame, hands the results to the session, and publishes the
    /// decoder's counters. `false` means: close the connection.
    pub(crate) fn feed(&mut self, bytes: &[u8], now: Instant) -> bool {
        self.idle_at = now.checked_add(IDLE_TIMEOUT);
        self.metrics.bytes.add(bytes.len() as u64);
        self.dec.feed(bytes);
        // Decode happens here, on the (parallel) reader thread — in
        // place out of the read buffer for v3.
        while let Some(msg) = self.dec.next_message(true) {
            if let FrameOutcome::Close = self.handle(msg, now) {
                return false;
            }
        }
        // Quarantined frames accumulate in the decoder; publish the
        // delta so the counter tracks live.
        let corrupt = self.publish_decoder();
        // A burst of quarantined frames on one connection is an anomaly
        // worth a black-box dump (one per burst; the base re-arms so a
        // persistently noisy link produces one dump per threshold run,
        // not one per frame).
        if corrupt.saturating_sub(self.crc_burst_base) >= CRC_BURST_THRESHOLD {
            self.flight
                .record(now, stage::CRC_BURST, None, self.conn, corrupt);
            self.metrics.flight_dump("crc-burst");
            self.crc_burst_base = corrupt;
        }
        // Flush per read chunk: acks go out per batch, and a
        // client's replay-buffer pruning is only as fresh as its acks.
        self.flush()
    }

    /// The connection ended at `now`: whatever is still buffered is all
    /// there will ever be — the decoder fishes out any complete frames.
    pub(crate) fn finish(&mut self, now: Instant) {
        for msg in self.dec.finish() {
            if let FrameOutcome::Close = self.handle(msg, now) {
                break;
            }
        }
    }

    /// Hands the session what is left and the close, and hangs up.
    pub(crate) fn close(mut self) {
        self.publish_decoder();
        self.flush();
        let _ = self.tx.send(Msg::Closed { conn: self.conn });
        // The acceptor holds a second handle to this socket: close it
        // here, or the peer would not see the connection end.
        self.out.hang_up();
    }

    /// A protocol violation: counted, and the connection closes.
    fn fatal(&self) -> FrameOutcome {
        self.metrics.decode_errors.inc();
        FrameOutcome::Close
    }

    /// The handshake check both hellos share: a connection greets once,
    /// for a network of the configured size. Returns the ack handle the
    /// session replies on.
    fn greet(&mut self, n_routers: u32) -> Result<Option<Box<dyn Wire>>, FrameOutcome> {
        if self.greeted || n_routers != self.cfg.pipeline.n_routers {
            return Err(self.fatal());
        }
        self.greeted = true;
        Ok(self.out.handle())
    }

    /// Hands the batched events and definitions to the session; `false`
    /// once it is gone.
    fn flush(&mut self) -> bool {
        if self.batch.is_empty() && self.defs.is_empty() {
            return true;
        }
        let msg = Msg::Events {
            conn: self.conn,
            batch: std::mem::take(&mut self.batch),
            defs: std::mem::take(&mut self.defs),
        };
        self.tx.send(msg).is_ok()
    }

    /// Handles one decoder result. A decode error behind a valid CRC
    /// means these bytes are what the peer actually sent: a peer bug,
    /// not line noise — fatal.
    fn handle(&mut self, msg: Result<DecodedMsg, CodecError>, now: Instant) -> FrameOutcome {
        match msg {
            Ok(msg) => self.on_frame(msg, now),
            Err(_) => self.fatal(),
        }
    }

    /// Handles one decoded frame, received at `now`: validates the
    /// protocol state machine and forwards typed messages to the session.
    fn on_frame(&mut self, msg: DecodedMsg, now: Instant) -> FrameOutcome {
        let (conn, metrics) = (self.conn, self.metrics);
        let DecodedMsg {
            frame, raw, trace, ..
        } = msg;
        // Pending events must land before the control frame that follows
        // them — a watermark's promise covers them, and an ack solicited
        // by a heartbeat must account for them. Definitions ride in the
        // batch, so they do not split it.
        if !matches!(frame, Frame::Event { .. } | Frame::Intern(_)) && !self.flush() {
            return FrameOutcome::Close;
        }
        let msg = match frame {
            Frame::Hello(hello) => {
                let ack = match self.greet(hello.n_routers) {
                    Ok(ack) => ack,
                    Err(fatal) => return fatal,
                };
                // A router outside the network it names.
                if hello.source.0 >= hello.n_routers {
                    return self.fatal();
                }
                self.source = Some((hello.source, hello.session));
                Msg::Hello { conn, hello, ack }
            }
            // A scrape is answered inline by the reader thread — the
            // registry is shared, so no session round-trip — and is legal
            // before (or entirely without) a hello: a monitoring probe is
            // not an event source and owes the collector no handshake.
            Frame::MetricsReq { format } => {
                let body = metrics.render(format);
                if self
                    .out
                    .write_all(&encode_frame(&Frame::MetricsResp { body }))
                    .is_err()
                {
                    return FrameOutcome::Close;
                }
                return FrameOutcome::Continue;
            }
            // Responses flow collector → client; inbound ones are noise.
            Frame::MetricsResp { .. } => return FrameOutcome::Continue,
            // An on-demand flight-recorder snapshot, answered inline like a
            // scrape (and, like one, legal without a hello — a debugging
            // probe owes no handshake).
            Frame::DumpReq => {
                let dump = metrics.flight.snapshot("dump-req");
                let body = cpvr_types::json::to_string_compact(&dump).into_bytes();
                if self
                    .out
                    .write_all(&encode_frame(&Frame::DumpResp { body }))
                    .is_err()
                {
                    return FrameOutcome::Close;
                }
                return FrameOutcome::Continue;
            }
            Frame::DumpResp { .. } => return FrameOutcome::Continue,
            // A peer collector's handshake: only meaningful on a federation
            // member, from another member of its plan, and — like a router
            // hello — only as the connection's first frame.
            Frame::PeerHello(hello) => {
                let fed = self.cfg.federation.as_ref();
                if !fed.is_some_and(|f| f.admits(&hello)) {
                    return self.fatal();
                }
                let ack = match self.greet(hello.n_routers) {
                    Ok(ack) => ack,
                    Err(fatal) => return fatal,
                };
                self.is_peer = true;
                Msg::PeerHello { conn, hello, ack }
            }
            _ if !self.greeted => return self.fatal(),
            // Peer traffic is only legal on a connection a PeerHello opened;
            // a router client sending it is a peer bug, not line noise.
            Frame::FrontierExchange(_)
            | Frame::BoundaryEdges(_)
            | Frame::PartialVerdict(_)
            | Frame::PeerRepairProof(_)
                if !self.is_peer =>
            {
                return self.fatal();
            }
            peer @ (Frame::FrontierExchange(_)
            | Frame::BoundaryEdges(_)
            | Frame::PartialVerdict(_)
            | Frame::PeerRepairProof(_)) => Msg::Peer {
                conn,
                frame: peer,
                raw: raw.expect("the reader keeps every frame's bytes"),
            },
            Frame::Event { seq, event } => {
                // An event must name its connection's router, and a peer
                // connection carries none.
                let session = match self.source {
                    Some((r, session)) if r == event.router => session,
                    _ => return self.fatal(),
                };
                if trace.is_some() {
                    metrics.trace_bytes.add(TRACE_CTX_WIRE_LEN as u64);
                }
                // The one place a flight is sampled: a sender that traces
                // chose this event itself; otherwise every `FLIGHT_SAMPLE`-th
                // sequence number gets the context that sender would have
                // minted, so the hops below read the same either way. The
                // flight opens here, the earliest point the event exists
                // inside the collector process.
                let sampled = seq.is_multiple_of(FLIGHT_SAMPLE);
                let trace = trace
                    .or_else(|| sampled.then(|| TraceCtx::for_flight(session, seq)))
                    .map(|ctx| (ctx, now));
                if let Some((ctx, _)) = trace {
                    self.flight.record(
                        now,
                        stage::DECODED,
                        Some(ctx.child(stage::SINK_SEND)),
                        u64::from(event.router.0),
                        seq,
                    );
                }
                // `raw` is the frame's original wire bytes: the journal
                // holds them byte-for-byte instead of re-encoding.
                self.batch.push(EventRec {
                    raw,
                    trace,
                    ..EventRec::new(seq, &event)
                });
                if self.batch.len() >= EVENT_BATCH_MAX && !self.flush() {
                    return FrameOutcome::Close;
                }
                return FrameOutcome::Continue;
            }
            Frame::Watermark { t, frontier } => Msg::Watermark { conn, t, frontier },
            Frame::Heartbeat => Msg::Heartbeat { conn },
            Frame::Bye { frontier } => Msg::Bye { conn, frontier },
            // The reader's decoder already absorbed the definition; all that
            // is left is to journal its original bytes with the batch.
            Frame::Intern(_) => {
                self.defs.extend(raw);
                return FrameOutcome::Continue;
            }
            // Acks/fins flow collector → client; evictions/admissions and
            // repair-lifecycle records exist only in the journal (repairs
            // enter through [`CollectorHandle::journal_repair`], not the
            // wire). Arriving over the wire they are meaningless — ignore
            // rather than kill, in the spirit of resynchronization.
            Frame::Ack { .. }
            | Frame::Fin
            | Frame::Evict { .. }
            | Frame::Admit { .. }
            | Frame::Repair(_) => return FrameOutcome::Continue,
        };
        if self.tx.send(msg).is_err() {
            return FrameOutcome::Close;
        }
        FrameOutcome::Continue
    }

    /// Publishes the decoder's quarantine and resync counters' growth;
    /// returns the quarantined-frame total.
    fn publish_decoder(&mut self) -> u64 {
        let (corrupt, skipped) = (self.dec.corrupt_frames(), self.dec.skipped_bytes());
        self.metrics
            .frames_corrupt
            .add(corrupt - self.reported_corrupt);
        self.metrics
            .resync_bytes
            .add(skipped - self.reported_skipped);
        (self.reported_corrupt, self.reported_skipped) = (corrupt, skipped);
        corrupt
    }
}

/// A reader's socket shell: reads the clock once per wake and hands
/// the reader what arrived, until the connection ends, the reader closes
/// it, or it sat idle past the reader's deadline — which a fixed read
/// timeout implements, as every wake restarts it.
fn reader_loop(
    stream: TcpStream,
    conn: u64,
    tx: SyncSender<Msg>,
    cfg: &CollectorConfig,
    metrics: &CollectorMetrics,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IDLE_TIMEOUT));
    let mut rd = Reader::new(stream, conn, tx, cfg, metrics, Instant::now());
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let got = (&rd.out).read(&mut buf);
        let now = Instant::now();
        match got {
            Ok(0) => {
                rd.finish(now);
                break;
            }
            Ok(n) if rd.feed(&buf[..n], now) => {}
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) && rd.deadline().is_none_or(|t| t > now) => {}
            Err(_) => break,
        }
    }
    rd.close();
}

/// Whether a read ended on its socket timeout.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}
