//! The threaded TCP collector: accepts one connection per router, turns
//! the per-router frame streams into typed messages, and hands them to
//! the one ingest engine (`session`).
//!
//! ## Threading model
//!
//! Plain `std` threads, no async runtime:
//!
//! - an **accept thread** polls a nonblocking listener and spawns one
//!   **reader thread** per connection;
//! - reader threads decode frames through the resynchronizing
//!   [`Decoder`] (the CPU-heavy parse happens here, in parallel across
//!   connections) and push typed messages into a **bounded** channel —
//!   when the session falls behind, readers block, TCP windows fill, and
//!   backpressure reaches the senders. A corrupt frame is *quarantined*
//!   (counted, skipped, the reader resynchronizes); only protocol
//!   violations (bad hello, garbage that passed its CRC) kill a
//!   connection;
//! - one **session thread** runs the session loop: it owns the
//!   [`SourceTable`], deduplicates events by per-source sequence number,
//!   applies frontier-gated watermark promises, runs the **liveness
//!   leases** (a source silent past [`LeaseConfig::lagging_after`] is
//!   flagged, one silent past [`LeaseConfig::evict_after`] is evicted
//!   from the watermark gate — journaled, and re-admitted on its next
//!   handshake — so one dead router cannot stall verification forever),
//!   and lets the fold advance only up to the *minimum* applied promise
//!   over all non-evicted sources, the merge point at which the global
//!   `(time, id)` order is known — the precondition for
//!   [`HbgBuilder::advance`]'s deterministic sweep;
//! - behind the session, a backend folds: `shards` **fold workers**
//!   ([`crate::shard`]; each journals its routers' events into its own
//!   WAL series, folds them, and writes [`Frame::Ack`] frames back so
//!   clients can prune their replay buffers) plus one **group-commit
//!   thread** for their fsyncs — or, on a federation member, the
//!   session thread itself, with the other shards remote
//!   ([`crate::federation`]). `shards = 1` is one worker, not a
//!   different program.
//!
//! ## Durability ordering
//!
//! An event's wire frame is appended to the WAL *before* the event is
//! ingested, a (global) watermark frame *before* the fold advances to
//! it, and an eviction/re-admission frame *before* the gate changes —
//! and an ack is only sent *after* the events it covers were journaled.
//! The log is therefore always at least as complete as the in-memory
//! state, so replaying it (see [`IngestPipeline::recover`]) reconstructs
//! the pre-crash fold exactly: at-least-once logging plus sequence
//! deduplication plus a deterministic fold is effectively exactly-once
//! recovery.
//!
//! [`HbgBuilder::advance`]: cpvr_core::builder::HbgBuilder::advance
//! [`SourceTable`]: crate::pipeline::SourceTable
//! [`Decoder`]: crate::codec::Decoder
//! [`IngestPipeline::recover`]: crate::pipeline::IngestPipeline::recover

use crate::codec::{
    encode_frame, DecodedMsg, Decoder, Frame, Hello, PeerHello, RepairRecord, ACCEPTED_VERSIONS,
};
use crate::federation::{recover_member, CollectorRole, FederationConfig, PeerFrame};
use crate::group_commit::GroupCommitHandle;
use crate::metrics::CollectorMetrics;
use crate::pipeline::{PipelineConfig, RecoveryReport, WalScan};
use crate::session;
use crate::shard::{FoldReport, Shards};
use crate::wal::{Wal, WalConfig};
use cpvr_core::ShardPlan;
use cpvr_obs::trace::stage;
use cpvr_obs::{ExpoFormat, FlightDump, RingHandle, Snapshot};
use cpvr_sim::IoEvent;
use cpvr_types::trace::TRACE_CTX_WIRE_LEN;
use cpvr_types::{RouterId, SimTime, TraceCtx};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Liveness-lease thresholds for the session loop's sweep.
#[derive(Clone, Copy, Debug)]
pub struct LeaseConfig {
    /// A source silent this long is marked [`SourceState::Lagging`](crate::pipeline::SourceState::Lagging)
    /// (diagnostic only — it still gates the watermark).
    pub lagging_after: Duration,
    /// A source silent this long is evicted from the watermark gate so
    /// the fold can resume without it. Must exceed `lagging_after`.
    pub evict_after: Duration,
    /// How often the session loop sweeps the leases (also the
    /// granularity of its `recv` timeout).
    pub sweep_interval: Duration,
    /// Watermark-stall watchdog: if events have been ingested but the
    /// global min-watermark has not advanced for this long, the
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
            sweep_interval: Duration::from_millis(500),
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
            sweep_interval: Duration::from_secs(1),
            stall_after: Duration::MAX,
        }
    }
}

/// Collector tuning knobs.
#[derive(Clone, Debug)]
pub struct CollectorConfig {
    /// Deployment shape handed to the pipeline; also the number of
    /// distinct sources that must report before any event is folded.
    pub pipeline: PipelineConfig,
    /// Bounded channel capacity between readers and the session. Full
    /// channel = blocked readers = TCP backpressure.
    pub channel_capacity: usize,
    /// A connection that stays silent this long is dropped. (The
    /// *source* behind it is governed separately by `lease` — a
    /// heartbeating client never trips this.)
    pub idle_timeout: Duration,
    /// Poll tick for the nonblocking accept loop and reader-side stop /
    /// idle checks.
    pub poll_interval: Duration,
    /// Liveness-lease thresholds for marking sources lagging and
    /// evicting them from the watermark gate.
    pub lease: LeaseConfig,
    /// Where to journal frames; `None` runs without durability.
    pub wal: Option<WalConfig>,
    /// Whether to run the telemetry registry (default on; the cost on
    /// the ingest path is a handful of relaxed atomics per event).
    pub metrics: bool,
    /// How many fold workers run behind the session loop (default
    /// `1`). Routers and conversations are partitioned across the
    /// workers, which are joined by a two-phase watermark barrier (see
    /// [`crate::shard`]); each has its own WAL segment series, and one
    /// group-commit thread fsyncs them all. Every count runs the same
    /// code and folds to the same state.
    pub shards: u32,
    /// The partition to shard by. `None` uses
    /// [`ShardPlan::uniform`]`(shards)`; deployments that know their
    /// prefix layout should pass
    /// [`ShardPlan::from_union_trie`]/[`ShardPlan::from_prefixes`] so
    /// conversation ownership follows prefix ranges.
    pub plan: Option<ShardPlan>,
    /// Runs this collector as one member of a federation: it folds only
    /// the routers its [`FederationPlan`](cpvr_core::FederationPlan)
    /// assigns to it and exchanges frontiers, boundary edges, and
    /// partial verdicts with its peers (see [`crate::federation`]).
    /// Requires a WAL and `shards == 1`.
    pub federation: Option<FederationConfig>,
}

impl CollectorConfig {
    /// A config for `n_routers` with default tuning and no WAL.
    pub fn new(n_routers: u32) -> Self {
        CollectorConfig {
            pipeline: PipelineConfig::new(n_routers),
            channel_capacity: 1024,
            idle_timeout: Duration::from_secs(30),
            poll_interval: Duration::from_millis(10),
            lease: LeaseConfig::default(),
            wal: None,
            metrics: true,
            shards: 1,
            plan: None,
            federation: None,
        }
    }

    /// Enables the WAL.
    pub fn with_wal(mut self, wal: WalConfig) -> Self {
        self.wal = Some(wal);
        self
    }

    /// Overrides the liveness leases.
    pub fn with_lease(mut self, lease: LeaseConfig) -> Self {
        self.lease = lease;
        self
    }

    /// Folds on `shards` worker threads (uniform
    /// router partition unless [`Self::with_plan`] overrides it).
    pub fn with_shards(mut self, shards: u32) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Partitions the fold by an explicit [`ShardPlan`] (e.g. built
    /// from the deployment's union prefix trie).
    pub fn with_plan(mut self, plan: ShardPlan) -> Self {
        self.shards = plan.shards();
        self.plan = Some(plan);
        self
    }

    /// Runs this collector as one federation member (see
    /// [`crate::federation`]). [`Collector::start`] rejects the config
    /// unless a WAL is configured and `shards == 1` — a member *is* a
    /// shard of the federation, and its durability story (regenerating
    /// outbound peer traffic on recovery) requires the journal.
    pub fn with_federation(mut self, fed: FederationConfig) -> Self {
        self.federation = Some(fed);
        self
    }
}

/// Live counters, observable while the collector runs. Shared with the
/// sharded coordinator in [`crate::shard`].
#[derive(Default)]
pub(crate) struct SharedStats {
    pub(crate) connections: AtomicU64,
    pub(crate) events: AtomicU64,
    pub(crate) bytes: AtomicU64,
    pub(crate) decode_errors: AtomicU64,
    pub(crate) corrupt_frames: AtomicU64,
    pub(crate) duplicate_events: AtomicU64,
    pub(crate) gap_events: AtomicU64,
    pub(crate) late_events: AtomicU64,
    pub(crate) evictions: AtomicU64,
    pub(crate) readmissions: AtomicU64,
    pub(crate) repair_records: AtomicU64,
    /// Nanos of the last globally advanced watermark; only meaningful
    /// once `watermark_set` is true (zero is a valid watermark, so it
    /// cannot double as the "never advanced" sentinel).
    watermark_nanos: AtomicU64,
    watermark_set: AtomicBool,
}

impl SharedStats {
    pub(crate) fn set_watermark(&self, wm: SimTime) {
        self.watermark_nanos.store(wm.as_nanos(), Ordering::Relaxed);
        self.watermark_set.store(true, Ordering::Release);
    }
}

/// A point-in-time copy of the collector's counters.
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
    /// [`CollectorHandle::journal_repair`].
    pub repair_records: u64,
    /// The last globally advanced watermark.
    pub watermark: Option<SimTime>,
}

impl SharedStats {
    fn snapshot(&self) -> CollectorStats {
        let watermark = self
            .watermark_set
            .load(Ordering::Acquire)
            .then(|| SimTime::from_nanos(self.watermark_nanos.load(Ordering::Relaxed)));
        CollectorStats {
            connections: self.connections.load(Ordering::Relaxed),
            events: self.events.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            corrupt_frames: self.corrupt_frames.load(Ordering::Relaxed),
            duplicate_events: self.duplicate_events.load(Ordering::Relaxed),
            gap_events: self.gap_events.load(Ordering::Relaxed),
            late_events: self.late_events.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            readmissions: self.readmissions.load(Ordering::Relaxed),
            repair_records: self.repair_records.load(Ordering::Relaxed),
            watermark,
        }
    }
}

/// One decoded event, carrying its wire encoding for the WAL when one
/// is configured (re-encoding downstream would serialize the cost).
pub(crate) struct EventRec {
    pub(crate) seq: u64,
    pub(crate) event: IoEvent,
    pub(crate) raw: Option<Vec<u8>>,
    /// Set on a sampled flight: the trace context its hops are recorded
    /// under — the one the frame's trailer carried, or the one the
    /// reader minted for it — and when the reader decoded it.
    pub(crate) trace: Option<(TraceCtx, Instant)>,
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
        ack: Option<TcpStream>,
    },
    Events {
        conn: u64,
        batch: Vec<EventRec>,
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
    /// A v3 intern definition frame, forwarded for journaling only (the
    /// reader's decoder already absorbed it). Sent only when a WAL is
    /// configured; always *after* the events that preceded it on the
    /// stream, so the journal preserves define-before-use order.
    Intern {
        /// The defining router, for shard routing (the definition must
        /// land in the same WAL series as the events that use it).
        router: u32,
        /// The definition frame's original wire bytes.
        raw: Vec<u8>,
    },
    /// A federation peer's handshake (only on federated collectors; the
    /// reader kills the connection otherwise).
    PeerHello {
        conn: u64,
        hello: PeerHello,
        /// A write handle to the connection, for go-back-N acks back to
        /// the sending member.
        ack: Option<TcpStream>,
    },
    /// A frontier / boundary-edge / partial-verdict frame from a
    /// federation peer, with its original wire bytes for the journal
    /// (`None` on a WAL-less collector — which `start` rejects for
    /// members, so in practice always `Some`).
    Peer {
        conn: u64,
        frame: PeerFrame,
        raw: Option<Vec<u8>>,
    },
    /// A repair-lifecycle record submitted through
    /// [`CollectorHandle::journal_repair`]. The session journals it
    /// (kind 16) before folding it into the ledger, then signals
    /// `done` — so the caller returns only once the record is durable.
    Repair {
        record: RepairRecord,
        done: Option<std::sync::mpsc::SyncSender<()>>,
    },
    Closed {
        conn: u64,
    },
}

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
    /// What WAL recovery found at startup (`Some` iff a WAL was
    /// configured).
    pub recovery: Option<RecoveryReport>,
    /// The final metrics snapshot, taken after the session drained
    /// (`Some` iff metrics were enabled) — the shutdown `dump`.
    pub metrics: Option<Snapshot>,
    /// Whether this collector ran standalone or as a federation member
    /// — and, for a member, the final per-peer frontier summary.
    pub role: CollectorRole,
}

/// A running collector. Dropping the handle without calling
/// [`shutdown`](Self::shutdown) detaches the threads (they stop once
/// every connection closes and the handle's stop flag is never set);
/// call `shutdown` to stop deterministically and collect the state.
pub struct CollectorHandle {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<SharedStats>,
    accept: Option<JoinHandle<()>>,
    session: Option<JoinHandle<(FoldReport, Option<io::Error>)>>,
    recovery: Option<RecoveryReport>,
    metrics: Option<Arc<CollectorMetrics>>,
    group_commit: Option<GroupCommitHandle>,
    /// Local channel into the session for repair-lifecycle records;
    /// dropped in `shutdown` so the session's receive loop can end.
    tx: Option<SyncSender<Msg>>,
}

/// The collector entry point.
pub struct Collector;

impl Collector {
    /// Binds `addr`, recovers from the WAL if one is configured, and
    /// starts the accept, session and fold threads.
    pub fn start(cfg: CollectorConfig, addr: impl ToSocketAddrs) -> io::Result<CollectorHandle> {
        Self::start_on(cfg, TcpListener::bind(addr)?)
    }

    /// Like [`start`](Self::start), on a pre-bound listener. Federation
    /// launchers use this to bind every member's listener *first*, so
    /// each member's config can carry the full peer address list before
    /// any member runs.
    pub fn start_on(cfg: CollectorConfig, listener: TcpListener) -> io::Result<CollectorHandle> {
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;

        let shards = cfg.shards.max(1);
        if let Some(fed) = &cfg.federation {
            let bad = |why: &str| Err(io::Error::new(io::ErrorKind::InvalidInput, why));
            if shards != 1 {
                return bad(
                    "a federation member is itself one shard of the federation; shards must be 1",
                );
            }
            if cfg.wal.is_none() {
                return bad(
                    "federation requires a WAL: recovery regenerates peer traffic from the journal",
                );
            }
            if fed.member >= fed.plan.members() {
                return bad("federation member index out of range for the plan");
            }
            if fed.peers.len() != fed.plan.members() as usize {
                return bad(
                    "federation peer list must have one address per member (self included)",
                );
            }
        }
        // A federation member folds one shard on its session thread;
        // the per-shard series belong to worker threads.
        let workers = cfg.plan.as_ref().map_or(shards, ShardPlan::shards);
        let (worker_series, members) = match &cfg.federation {
            Some(fed) => (0, fed.plan.members()),
            None => (workers, 0),
        };
        let metrics = cfg.metrics.then(|| {
            Arc::new(CollectorMetrics::new_federated(
                cfg.pipeline.n_routers,
                worker_series,
                members,
            ))
        });
        if let Some(m) = &metrics {
            // Anomaly dumps land next to the WAL (a WAL-less collector
            // keeps recording but never dumps), tagged with the member
            // id so cpvr-trace can stitch dumps across a federation.
            if let Some(wal_cfg) = &cfg.wal {
                m.flight.arm(&wal_cfg.dir);
            }
            if let Some(fed) = &cfg.federation {
                m.flight.set_member(i64::from(fed.member));
            }
        }

        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(SharedStats::default());
        let (tx, rx) = std::sync::mpsc::sync_channel::<Msg>(cfg.channel_capacity.max(1));

        // Recover, build the backend, and hand both to the one session
        // loop. The two backends differ in how a watermark becomes a
        // verdict, and therefore in what their journals must replay.
        let mut group_commit = None;
        let (session, recovery) = if let Some(fed) = &cfg.federation {
            // Recovery replays the journal through the same apply path
            // the live member uses, *regenerating* every outbound peer
            // frame from genesis under a fresh session (peers dedup
            // semantically), so no outbound state needs journaling
            // beyond this member's own frontier history.
            let wal_cfg = cfg.wal.clone().expect("validated above");
            let (mut member, sources, repairs, report) = recover_member(&cfg, fed, &wal_cfg)?;
            let mut wal = Wal::open(wal_cfg)?;
            if let Some(m) = &metrics {
                wal.set_metrics(m.wal_metrics());
            }
            member.go_live(wal, metrics.clone());
            let session = session::spawn(rx, member, sources, repairs, &cfg, &stats, &metrics)?;
            (session, Some(report))
        } else {
            // The journal scan yields the source table, the repair
            // ledger and the recovered watermark; the workers fold the
            // scanned events themselves, once.
            let scan = match &cfg.wal {
                Some(wal_cfg) => WalScan::read(cfg.pipeline, &wal_cfg.dir, workers as usize)?,
                None => WalScan::empty(cfg.pipeline),
            };
            let backend = Shards::start(&cfg, scan.report.watermark, scan.events, metrics.clone())?;
            group_commit = backend.group_commit();
            let session = session::spawn(
                rx,
                backend,
                scan.sources,
                scan.repairs,
                &cfg,
                &stats,
                &metrics,
            )?;
            (session, cfg.wal.is_some().then_some(scan.report))
        };

        let handle_tx = tx.clone();
        let accept = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            let cfg = cfg.clone();
            let metrics = metrics.clone();
            thread::Builder::new()
                .name("cpvr-accept".into())
                .spawn(move || accept_loop(listener, tx, stop, stats, cfg, metrics))?
        };

        Ok(CollectorHandle {
            addr: local,
            stop,
            stats,
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

    /// A snapshot of the live counters.
    pub fn stats(&self) -> CollectorStats {
        self.stats.snapshot()
    }

    /// The fold workers' group-commit handle, when one is running (any
    /// shard count with a WAL; a federation member journals inline and
    /// has none). Exposed as a fault-injection hook:
    /// [`crash`](GroupCommitHandle::crash) kills the sync thread as an
    /// I/O fault would, after which `shutdown` must surface the error
    /// while every event acked *before* the crash stays replayable.
    pub fn group_commit(&self) -> Option<&GroupCommitHandle> {
        self.group_commit.as_ref()
    }

    /// What WAL recovery found at startup, if a WAL was configured.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The live telemetry bundle, if metrics are enabled. Scraping over
    /// the wire (`Frame::MetricsReq`) sees the same registry.
    pub fn metrics(&self) -> Option<&Arc<CollectorMetrics>> {
        self.metrics.as_ref()
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
        Ok(CollectorReport {
            pipeline,
            stats: self.stats.snapshot(),
            stalled,
            role,
            recovery: self.recovery.take(),
            // Snapshot after the session joined: these are the final
            // values, nothing is still incrementing.
            metrics: self.metrics.take().map(|m| m.snapshot()),
        })
    }
}

fn accept_loop(
    listener: TcpListener,
    tx: SyncSender<Msg>,
    stop: Arc<AtomicBool>,
    stats: Arc<SharedStats>,
    cfg: CollectorConfig,
    metrics: Option<Arc<CollectorMetrics>>,
) {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    let mut next_conn: u64 = 0;
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn = next_conn;
                next_conn += 1;
                stats.connections.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = &metrics {
                    m.connections.inc();
                }
                let tx = tx.clone();
                let stop = Arc::clone(&stop);
                let stats = Arc::clone(&stats);
                let metrics = metrics.clone();
                let idle = cfg.idle_timeout;
                let poll = cfg.poll_interval;
                let expect_n = cfg.pipeline.n_routers;
                let wal_enabled = cfg.wal.is_some();
                let federated = cfg.federation.is_some();
                let h = thread::Builder::new()
                    .name(format!("cpvr-reader-{conn}"))
                    .spawn(move || {
                        reader_loop(
                            stream,
                            conn,
                            tx,
                            stop,
                            stats,
                            idle,
                            poll,
                            expect_n,
                            wal_enabled,
                            federated,
                            metrics,
                        )
                    })
                    .expect("spawn reader thread");
                readers.push(h);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(cfg.poll_interval);
            }
            Err(_) => thread::sleep(cfg.poll_interval),
        }
        readers.retain(|h| !h.is_finished());
    }
    for h in readers {
        let _ = h.join();
    }
    // `tx` drops here; once every reader's clone is gone the session's
    // receive loop ends and it returns the fold.
}

/// A `Read` adapter over a nonblocking-timeout socket that turns
/// `WouldBlock` ticks into stop-flag and idle-deadline checks, so
/// reads can block "interruptibly".
struct PollingReader<'a> {
    stream: &'a TcpStream,
    stop: &'a AtomicBool,
    idle: Duration,
    last_data: Instant,
}

impl Read for PollingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return Err(io::Error::other("collector shutting down"));
            }
            match self.stream.read(buf) {
                Ok(0) => return Ok(0),
                Ok(n) => {
                    self.last_data = Instant::now();
                    return Ok(n);
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if self.last_data.elapsed() >= self.idle {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "connection idle past the timeout",
                        ));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// What processing one decoded frame decided about the connection.
enum FrameOutcome {
    /// Keep reading.
    Continue,
    /// Protocol violation: close the connection (already counted).
    Fatal(String),
    /// The session hung up; nothing left to report to.
    SessionGone,
}

/// Handles one decoded frame from a connection: validates the protocol
/// state machine and forwards typed messages to the session.
#[allow(clippy::too_many_arguments)]
fn on_frame(
    msg: DecodedMsg,
    conn: u64,
    stream: &TcpStream,
    tx: &SyncSender<Msg>,
    stats: &SharedStats,
    greeted: &mut bool,
    session: &mut Option<u64>,
    is_peer: &mut bool,
    batch: &mut Vec<EventRec>,
    expect_n_routers: u32,
    federated: bool,
    metrics: Option<&CollectorMetrics>,
    flight: Option<&RingHandle>,
) -> FrameOutcome {
    let fatal_decode = |stats: &SharedStats, why: String| {
        stats.decode_errors.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = metrics {
            m.decode_errors.inc();
        }
        FrameOutcome::Fatal(why)
    };
    let DecodedMsg {
        frame, raw, trace, ..
    } = msg;
    let flush_before = !matches!(frame, Frame::Event { .. });
    if flush_before && !batch.is_empty() {
        // Pending events must land before the control frame that
        // follows them — a watermark's promise covers them, and an ack
        // solicited by a heartbeat must account for them.
        let msg = Msg::Events {
            conn,
            batch: std::mem::take(batch),
        };
        if tx.send(msg).is_err() {
            return FrameOutcome::SessionGone;
        }
    }
    let msg = match frame {
        Frame::Hello(hello) => {
            if *greeted {
                return fatal_decode(stats, "duplicate hello".into());
            }
            if hello.n_routers != expect_n_routers {
                return fatal_decode(
                    stats,
                    format!(
                        "peer believes the network has {} routers, collector is configured for {} \
                         (this build reads protocol versions {ACCEPTED_VERSIONS:?})",
                        hello.n_routers, expect_n_routers
                    ),
                );
            }
            if hello.source.0 >= expect_n_routers {
                return fatal_decode(
                    stats,
                    format!(
                        "peer claims to be router {} of a {expect_n_routers}-router network",
                        hello.source.0
                    ),
                );
            }
            *greeted = true;
            *session = Some(hello.session);
            let ack = stream.try_clone().ok();
            if let Some(a) = &ack {
                let _ = a.set_write_timeout(Some(ACK_WRITE_TIMEOUT));
            }
            Msg::Hello { conn, hello, ack }
        }
        // A scrape is answered inline by the reader thread — the
        // registry is shared, so no session round-trip — and is legal
        // before (or entirely without) a hello: a monitoring probe is
        // not an event source and owes the collector no handshake.
        Frame::MetricsReq { format } => {
            let body = match metrics {
                Some(m) => m.render(format),
                // Metrics disabled: an empty snapshot in the requested
                // format, not a dead connection — probes stay cheap.
                None => ExpoFormat::from_byte(format)
                    .unwrap_or(ExpoFormat::Json)
                    .render(&Snapshot::default())
                    .into_bytes(),
            };
            let mut w = stream;
            if w.write_all(&encode_frame(&Frame::MetricsResp { body }))
                .is_err()
            {
                return FrameOutcome::Fatal("metrics response write failed".into());
            }
            return FrameOutcome::Continue;
        }
        // Responses flow collector → client; inbound ones are noise.
        Frame::MetricsResp { .. } => return FrameOutcome::Continue,
        // An on-demand flight-recorder snapshot, answered inline like a
        // scrape (and, like one, legal without a hello — a debugging
        // probe owes no handshake). Metrics disabled means there is no
        // recorder; an empty dump keeps the probe protocol total.
        Frame::DumpReq => {
            let dump = match metrics {
                Some(m) => m.flight.snapshot("dump-req"),
                None => FlightDump {
                    member: -1,
                    reason: "dump-req".into(),
                    records: Vec::new(),
                },
            };
            let body = cpvr_types::json::to_string_compact(&dump).into_bytes();
            let mut w = stream;
            if w.write_all(&encode_frame(&Frame::DumpResp { body }))
                .is_err()
            {
                return FrameOutcome::Fatal("dump response write failed".into());
            }
            return FrameOutcome::Continue;
        }
        Frame::DumpResp { .. } => return FrameOutcome::Continue,
        // A peer collector's handshake: only meaningful on a federation
        // member, and — like a router hello — only as the connection's
        // first frame.
        Frame::PeerHello(hello) => {
            if !federated {
                return fatal_decode(
                    stats,
                    "peer hello on a collector that is not a federation member".into(),
                );
            }
            if *greeted {
                return fatal_decode(stats, "duplicate hello".into());
            }
            if hello.n_routers != expect_n_routers {
                return fatal_decode(
                    stats,
                    format!(
                        "peer member believes the network has {} routers, collector is \
                         configured for {}",
                        hello.n_routers, expect_n_routers
                    ),
                );
            }
            *greeted = true;
            *is_peer = true;
            let ack = stream.try_clone().ok();
            if let Some(a) = &ack {
                let _ = a.set_write_timeout(Some(ACK_WRITE_TIMEOUT));
            }
            Msg::PeerHello { conn, hello, ack }
        }
        _ if !*greeted => {
            return fatal_decode(stats, "first frame was not a hello".into());
        }
        // Peer traffic is only legal on a connection a PeerHello opened;
        // a router client sending it is a peer bug, not line noise.
        Frame::FrontierExchange(_)
        | Frame::BoundaryEdges(_)
        | Frame::PartialVerdict(_)
        | Frame::PeerRepairProof(_)
            if !*is_peer =>
        {
            return fatal_decode(stats, "peer frame on a router connection".into());
        }
        Frame::FrontierExchange(f) => Msg::Peer {
            conn,
            frame: PeerFrame::Frontier(f),
            raw,
        },
        Frame::BoundaryEdges(b) => Msg::Peer {
            conn,
            frame: PeerFrame::Boundary(b),
            raw,
        },
        Frame::PartialVerdict(p) => Msg::Peer {
            conn,
            frame: PeerFrame::Partial(p),
            raw,
        },
        Frame::PeerRepairProof(p) => Msg::Peer {
            conn,
            frame: PeerFrame::Repair(p),
            raw,
        },
        Frame::Event { seq, event } => {
            if let (Some(_), Some(m)) = (trace, metrics) {
                m.trace_bytes.add(TRACE_CTX_WIRE_LEN as u64);
            }
            // The one place a flight is sampled: a sender that traces
            // chose this event itself; otherwise every `FLIGHT_SAMPLE`-th
            // sequence number gets the context that sender would have
            // minted, so the hops below read the same either way. The
            // flight opens here, the earliest point the event exists
            // inside the collector process.
            let sampled = flight.is_some() && seq.is_multiple_of(FLIGHT_SAMPLE);
            let trace = trace
                .or_else(|| {
                    (*session)
                        .filter(|_| sampled)
                        .map(|s| TraceCtx::for_flight(s, seq))
                })
                .map(|ctx| (ctx, Instant::now()));
            if let (Some((ctx, _)), Some(f)) = (trace, flight) {
                f.record(
                    stage::DECODED,
                    Some(ctx.child(stage::SINK_SEND)),
                    u64::from(event.router.0),
                    seq,
                );
            }
            // `raw` is the frame's original wire bytes (captured only
            // when a WAL is configured): the journal holds them
            // byte-for-byte instead of re-encoding.
            batch.push(EventRec {
                seq,
                event,
                raw,
                trace,
            });
            if batch.len() >= EVENT_BATCH_MAX {
                let msg = Msg::Events {
                    conn,
                    batch: std::mem::take(batch),
                };
                if tx.send(msg).is_err() {
                    return FrameOutcome::SessionGone;
                }
            }
            return FrameOutcome::Continue;
        }
        Frame::Watermark { t, frontier } => Msg::Watermark { conn, t, frontier },
        Frame::Heartbeat => Msg::Heartbeat { conn },
        Frame::Bye { frontier } => Msg::Bye { conn, frontier },
        // The reader's decoder already absorbed the definition; all the
        // session does with it is journal the original bytes, so there
        // is nothing to forward on a WAL-less collector.
        Frame::Intern(def) => match raw {
            Some(raw) => Msg::Intern {
                router: def.router,
                raw,
            },
            None => return FrameOutcome::Continue,
        },
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
    if tx.send(msg).is_err() {
        return FrameOutcome::SessionGone;
    }
    FrameOutcome::Continue
}

#[allow(clippy::too_many_arguments)]
fn reader_loop(
    stream: TcpStream,
    conn: u64,
    tx: SyncSender<Msg>,
    stop: Arc<AtomicBool>,
    stats: Arc<SharedStats>,
    idle: Duration,
    poll: Duration,
    expect_n_routers: u32,
    wal_enabled: bool,
    federated: bool,
    metrics: Option<Arc<CollectorMetrics>>,
) {
    let metrics = metrics.as_deref();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(poll));
    let mut r = PollingReader {
        stream: &stream,
        stop: &stop,
        idle,
        last_data: Instant::now(),
    };
    let mut dec = Decoder::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut greeted = false;
    let mut session: Option<u64> = None;
    let mut is_peer = false;
    let mut batch: Vec<EventRec> = Vec::new();
    let mut reported_corrupt = 0u64;
    let mut reported_skipped = 0u64;
    // This connection's flight-recorder ring (decode-stage records and
    // the CRC-burst anomaly trigger).
    let flight = metrics.map(|m| {
        m.flight
            .register(&format!("reader-{conn}"), READER_RING_SLOTS)
    });
    let flight = flight.as_ref();
    let mut crc_burst_base = 0u64;
    // The loop's break value describes why the connection ended; it is
    // currently only useful to a debugger, but the plumbing keeps the
    // failure paths honest about what went wrong.
    let _why_closed: Option<String> = 'conn: loop {
        let n = match r.read(&mut buf) {
            Ok(0) => {
                // EOF: whatever is still buffered is all we will ever
                // get — let the decoder fish out any complete frames.
                for msg in dec.finish(wal_enabled) {
                    let msg = match msg {
                        Ok(m) => m,
                        Err(e) => {
                            stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                            if let Some(m) = metrics {
                                m.decode_errors.inc();
                            }
                            break 'conn Some(e.to_string());
                        }
                    };
                    match on_frame(
                        msg,
                        conn,
                        &stream,
                        &tx,
                        &stats,
                        &mut greeted,
                        &mut session,
                        &mut is_peer,
                        &mut batch,
                        expect_n_routers,
                        federated,
                        metrics,
                        flight,
                    ) {
                        FrameOutcome::Continue => {}
                        FrameOutcome::Fatal(why) => break 'conn Some(why),
                        FrameOutcome::SessionGone => return,
                    }
                }
                break None;
            }
            Ok(n) => n,
            Err(e) => break Some(e.to_string()),
        };
        stats.bytes.fetch_add(n as u64, Ordering::Relaxed);
        if let Some(m) = metrics {
            m.bytes.add(n as u64);
        }
        dec.feed(&buf[..n]);
        loop {
            // Decode happens here, on the (parallel) reader thread —
            // in place out of the read buffer for v3 — and the decode
            // histogram times exactly this step.
            let t0 = Instant::now();
            let Some(msg) = dec.next_message(wal_enabled) else {
                break;
            };
            if let Some(m) = metrics {
                m.decode_nanos.observe_since(t0);
            }
            let msg = match msg {
                Ok(m) => m,
                Err(e) => {
                    // The CRC was valid, so these bytes are what the
                    // peer actually sent: a peer bug, not line noise.
                    // Fatal.
                    stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                    if let Some(m) = metrics {
                        m.decode_errors.inc();
                    }
                    break 'conn Some(e.to_string());
                }
            };
            match on_frame(
                msg,
                conn,
                &stream,
                &tx,
                &stats,
                &mut greeted,
                &mut session,
                &mut is_peer,
                &mut batch,
                expect_n_routers,
                federated,
                metrics,
                flight,
            ) {
                FrameOutcome::Continue => {}
                FrameOutcome::Fatal(why) => break 'conn Some(why),
                FrameOutcome::SessionGone => return,
            }
        }
        // Quarantined frames accumulate in the decoder; publish the
        // delta so the counter tracks live.
        let corrupt = dec.corrupt_frames();
        if corrupt > reported_corrupt {
            stats
                .corrupt_frames
                .fetch_add(corrupt - reported_corrupt, Ordering::Relaxed);
            if let Some(m) = metrics {
                m.frames_corrupt.add(corrupt - reported_corrupt);
            }
            reported_corrupt = corrupt;
        }
        // A burst of quarantined frames on one connection is an anomaly
        // worth a black-box dump (one per burst; the base re-arms so a
        // persistently noisy link produces one dump per threshold run,
        // not one per frame).
        if corrupt.saturating_sub(crc_burst_base) >= CRC_BURST_THRESHOLD {
            if let Some(f) = flight {
                f.record(stage::CRC_BURST, None, conn, corrupt);
            }
            if let Some(m) = metrics {
                m.flight_dump("crc-burst");
            }
            crc_burst_base = corrupt;
        }
        let skipped = dec.skipped_bytes();
        if skipped > reported_skipped {
            if let Some(m) = metrics {
                m.resync_bytes.add(skipped - reported_skipped);
            }
            reported_skipped = skipped;
        }
        // Flush per read chunk: acks go out per batch, and a
        // client's replay-buffer pruning is only as fresh as its acks.
        if !batch.is_empty()
            && tx
                .send(Msg::Events {
                    conn,
                    batch: std::mem::take(&mut batch),
                })
                .is_err()
        {
            return;
        }
    };
    let corrupt = dec.corrupt_frames();
    if corrupt > reported_corrupt {
        stats
            .corrupt_frames
            .fetch_add(corrupt - reported_corrupt, Ordering::Relaxed);
        if let Some(m) = metrics {
            m.frames_corrupt.add(corrupt - reported_corrupt);
        }
    }
    let skipped = dec.skipped_bytes();
    if skipped > reported_skipped {
        if let Some(m) = metrics {
            m.resync_bytes.add(skipped - reported_skipped);
        }
    }
    if !batch.is_empty() {
        let _ = tx.send(Msg::Events { conn, batch });
    }
    let _ = tx.send(Msg::Closed { conn });
}
