//! The sharded merger fold: prefix-range partitioning of the pipeline
//! across worker threads, with a cross-shard digest barrier.
//!
//! ## Topology
//!
//! `shards = 1` runs the legacy single-merger path untouched (the
//! byte-for-byte oracle). For `shards = N > 1` the merger thread
//! becomes a **coordinator** that keeps everything connection- and
//! protocol-shaped — the [`SourceTable`] (dedup, promises, leases), the
//! late-event gate, and the wait-transition accounting — while `N`
//! **fold workers** own the expensive per-event state:
//!
//! - a [`RuleScope::LocalOnly`] [`HbgBuilder`] over the routers the
//!   shard owns (`ShardPlan::of_router`),
//! - a [`RuleScope::CrossOnly`] [`HbgBuilder`] over the send/recv
//!   events of the *conversations* the shard owns
//!   (`ShardPlan::of_conv` — prefix range, with the addressee-router
//!   fallback for events that carry no prefix),
//! - a [`TrackerSlice`] over the owned router streams,
//! - its own WAL segment series (`wal-s<K>-NNNNNNNN.seg`), flushed per
//!   batch and fsynced by the shared group-commit thread, and
//! - the connections' ack sockets, so an ack is written strictly after
//!   the worker journaled the events it covers.
//!
//! ## The barrier
//!
//! A watermark advance is a two-phase barrier driven synchronously by
//! the coordinator over the workers' bounded inboxes:
//!
//! 1. `Advance { wm }`: every worker journals the watermark to its own
//!    series, folds its builders to `wm`, and replays its tracker
//!    streams ([`TrackerSlice::advance_collect`]) — conversation sides
//!    owned by *other* shards (the recv-advert → send-advert HBRs that
//!    span shards) come back to the coordinator as [`ConvDigest`]
//!    outboxes.
//! 2. `Deliver { digests }`: the coordinator regroups the outboxes in
//!    origin-shard order and forwards each shard its foreign digests;
//!    workers absorb them and report their missing sets plus fold
//!    counters.
//!
//! The coordinator merges the missing sets into the global verdict —
//! provably equal to the monolithic [`ConsistencyTracker`] verdict at
//! the same horizon (see the equivalence tests in `cpvr-core`) — and
//! counts wait transitions on the merged sequence, so §4.3 wait
//! statistics are shard-count-invariant.
//!
//! [`SourceTable`]: crate::pipeline::SourceTable
//! [`RuleScope::LocalOnly`]: cpvr_core::rules::RuleScope
//! [`HbgBuilder`]: cpvr_core::builder::HbgBuilder
//! [`TrackerSlice`]: cpvr_core::snapshot::TrackerSlice
//! [`ConsistencyTracker`]: cpvr_core::snapshot::ConsistencyTracker

use crate::codec::{encode_frame, Frame};
use crate::collector::{CollectorConfig, EventRec, LeaseConfig, Msg, SharedStats};
use crate::group_commit::{GroupCommit, GroupCommitHandle};
use crate::metrics::CollectorMetrics;
use crate::pipeline::{IngestPipeline, Offer, SourceState, SourceTable};
use crate::repair_journal::RepairLedger;
use crate::wal::{FsyncPolicy, Wal};
use cpvr_core::builder::HbgBuilder;
use cpvr_core::hbg::{Hbg, Hbr};
use cpvr_core::rules::RuleScope;
use cpvr_core::snapshot::{ConvDigest, SnapshotStatus, TrackerSlice};
use cpvr_core::{FoldRecord, ShardPlan};
use cpvr_dataplane::DataPlane;
use cpvr_obs::Stage;
use cpvr_sim::IoEvent;
use cpvr_types::{RouterId, SimTime};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// The fold state a collector hands back at shutdown: either the legacy
/// single-merger [`IngestPipeline`], or the materialized merge of all
/// shard workers. Accessors expose the quantities the two shapes share
/// — and the bit-identical-recovery invariant is that every one of them
/// is equal at `shards = N` and `shards = 1` on the same trace.
pub enum FoldReport {
    /// The unsharded pipeline, exactly as the legacy merger left it.
    /// Boxed so the enum stays pointer-sized through thread joins.
    Single(Box<IngestPipeline>),
    /// The merged result of a sharded fold.
    Sharded(Box<ShardedFold>),
    /// One federation member's fold slice (see [`crate::federation`]):
    /// a *partial* view — its HBG holds only the member's local and
    /// owned-conversation edges, its data plane only the owned routers.
    /// [`merge_members`](crate::federation::merge_members) combines the
    /// members of one federation into a [`ShardedFold`]-shaped global
    /// state for comparison against a single collector.
    Member(Box<crate::federation::MemberFold>),
}

/// The materialized merge of every shard worker's state at shutdown.
pub struct ShardedFold {
    pub(crate) shards: u32,
    pub(crate) events: u64,
    pub(crate) processed: usize,
    pub(crate) pending: usize,
    pub(crate) hbg: Hbg,
    pub(crate) edge_counts: BTreeMap<String, u64>,
    pub(crate) status: SnapshotStatus,
    pub(crate) waits: (u64, u64),
    pub(crate) dataplane: DataPlane,
    pub(crate) watermark: Option<SimTime>,
    pub(crate) stalled: Vec<RouterId>,
    pub(crate) repairs: RepairLedger,
}

impl FoldReport {
    /// How many shards folded this state (1 for the legacy path).
    pub fn shards(&self) -> u32 {
        match self {
            FoldReport::Single(_) => 1,
            FoldReport::Sharded(s) => s.shards,
            FoldReport::Member(_) => 1,
        }
    }

    /// Total events ingested (including WAL-recovered ones).
    pub fn events(&self) -> u64 {
        match self {
            FoldReport::Single(p) => p.events(),
            FoldReport::Sharded(s) => s.events,
            FoldReport::Member(m) => m.events,
        }
    }

    /// Events folded into the HBG (summed over local builders — cross
    /// builders fold copies and are deliberately not counted).
    pub fn processed(&self) -> usize {
        match self {
            FoldReport::Single(p) => p.builder().processed(),
            FoldReport::Sharded(s) => s.processed,
            FoldReport::Member(m) => m.local.processed(),
        }
    }

    /// Ingested events still buffered behind the watermark.
    pub fn pending(&self) -> usize {
        match self {
            FoldReport::Single(p) => p.builder().pending(),
            FoldReport::Sharded(s) => s.pending,
            FoldReport::Member(m) => m.local.pending(),
        }
    }

    /// The canonical happens-before edge set — the bit-identity oracle.
    pub fn canonical_edges(&self) -> Vec<Hbr> {
        match self {
            FoldReport::Single(p) => p.builder().hbg().canonical_edges(),
            FoldReport::Sharded(s) => s.hbg.canonical_edges(),
            FoldReport::Member(m) => m.partial_hbg().canonical_edges(),
        }
    }

    /// Edges offered per inference rule, merged across builders.
    pub fn edge_counts(&self) -> BTreeMap<String, u64> {
        match self {
            FoldReport::Single(p) => p.builder().edge_counts(),
            FoldReport::Sharded(s) => s.edge_counts.clone(),
            FoldReport::Member(m) => m.edge_counts(),
        }
    }

    /// The snapshot verdict at the final watermark.
    pub fn status(&self) -> SnapshotStatus {
        match self {
            FoldReport::Single(p) => p.status(),
            FoldReport::Sharded(s) => s.status.clone(),
            FoldReport::Member(m) => m.status.clone(),
        }
    }

    /// `(issued, resolved)` wait transitions of the fold's verdict.
    pub fn wait_stats(&self) -> (u64, u64) {
        match self {
            FoldReport::Single(p) => p.tracker().wait_stats(),
            FoldReport::Sharded(s) => s.waits,
            FoldReport::Member(m) => m.waits,
        }
    }

    /// The data plane assembled from the arrived FIB records (merged
    /// from the owning shard of each router).
    pub fn dataplane(&self) -> &DataPlane {
        match self {
            FoldReport::Single(p) => p.tracker().dataplane(),
            FoldReport::Sharded(s) => &s.dataplane,
            FoldReport::Member(m) => m.slice.dataplane(),
        }
    }

    /// The last advanced watermark.
    pub fn watermark(&self) -> Option<SimTime> {
        match self {
            FoldReport::Single(p) => p.watermark(),
            FoldReport::Sharded(s) => s.watermark,
            FoldReport::Member(m) => m.watermark,
        }
    }

    /// Sources that were still gating the watermark at shutdown.
    pub fn stalled_sources(&self) -> Vec<RouterId> {
        match self {
            FoldReport::Single(p) => p.stalled_sources(),
            FoldReport::Sharded(s) => s.stalled.clone(),
            FoldReport::Member(m) => m.stalled.clone(),
        }
    }

    /// The repair-lifecycle ledger folded from the journal's kind-16
    /// records — same fold on every shape, so the bit-identity oracle
    /// extends to repair decisions.
    pub fn repairs(&self) -> &RepairLedger {
        match self {
            FoldReport::Single(p) => p.repairs(),
            FoldReport::Sharded(s) => &s.repairs,
            FoldReport::Member(m) => &m.repairs,
        }
    }

    /// The underlying pipeline, when this is a single-merger fold.
    pub fn as_single(&self) -> Option<&IngestPipeline> {
        match self {
            FoldReport::Single(p) => Some(p.as_ref()),
            FoldReport::Sharded(_) | FoldReport::Member(_) => None,
        }
    }
}

/// What the coordinator sends a fold worker. Bounded channel; the
/// coordinator blocks when a worker falls behind, which is the same
/// backpressure story as the reader → merger channel.
pub(crate) enum WorkerMsg {
    /// A handshake for a source this worker owns: journal it, adopt the
    /// ack socket, and ack the current cursor.
    Hello {
        conn: u64,
        journal: Option<Vec<u8>>,
        ack: Option<TcpStream>,
        upto: u64,
        fin: bool,
    },
    /// Fresh, in-order, non-late events for an owned router: journal,
    /// ingest, then ack `upto`.
    Ingest {
        conn: u64,
        source: RouterId,
        batch: Vec<EventRec>,
        upto: u64,
        fin: bool,
    },
    /// Records of events whose conversations this worker owns but whose
    /// routers it does not — feed for the cross-scope builder only.
    IngestCross { records: Vec<FoldRecord> },
    /// WAL-recovered events for owned routers: ingest without
    /// journaling or acking (they are already durable).
    Seed { events: Vec<IoEvent> },
    /// Journal a control record (hello/evict/admit/repair) without
    /// acking; `done` (repair records only) is signalled once the
    /// append is flushed, as the submitter's durability barrier.
    Journal {
        bytes: Vec<u8>,
        done: Option<SyncSender<()>>,
    },
    /// Write an ack (and fin, if the source finished) on a connection.
    Ack { conn: u64, upto: u64, fin: bool },
    /// Drop (and hang up) a connection's ack socket.
    DropConn { conn: u64 },
    /// Barrier phase 1: journal the watermark (unless seeding from
    /// recovery), fold to `wm`, reply with foreign-conversation digests.
    Advance { wm: SimTime, journal: bool },
    /// Barrier phase 2: absorb foreign digests, reply with the missing
    /// set and fold counters.
    Deliver { digests: Vec<ConvDigest> },
    /// Close the WAL and hand the whole worker state back.
    Shutdown,
}

/// What a fold worker sends back to the coordinator.
pub(crate) enum Reply {
    /// Barrier phase 1 result: per-destination-shard digest outboxes.
    Phase1 {
        shard: u32,
        outboxes: Vec<Vec<ConvDigest>>,
    },
    /// Barrier phase 2 result: the shard's verdict inputs and counters.
    Phase2 {
        missing: Vec<RouterId>,
        processed: usize,
        pending: usize,
        edges: usize,
    },
    /// Shutdown result: the worker's entire fold state.
    Done(Box<WorkerDone>),
}

/// A worker's final state, moved back to the coordinator at shutdown.
pub(crate) struct WorkerDone {
    shard: u32,
    local: HbgBuilder,
    cross: HbgBuilder,
    slice: TrackerSlice,
    events: u64,
    wal_err: Option<io::Error>,
}

/// One fold worker: owns a shard's builders, tracker slice, WAL series,
/// and ack sockets.
struct Worker {
    shard: u32,
    plan: ShardPlan,
    local: HbgBuilder,
    cross: HbgBuilder,
    slice: TrackerSlice,
    wal: Option<Wal>,
    gc: Option<GroupCommitHandle>,
    fsync: FsyncPolicy,
    last_segment: u64,
    wal_err: Option<io::Error>,
    acks: HashMap<u64, TcpStream>,
    events: u64,
    metrics: Option<Arc<CollectorMetrics>>,
    reply: Sender<Reply>,
}

impl Worker {
    /// Appends one record to the shard's WAL series, latching the first
    /// error (the fold keeps running degraded, exactly like the legacy
    /// merger).
    fn journal(&mut self, bytes: &[u8]) -> bool {
        if self.wal_err.is_some() {
            return false;
        }
        let Some(w) = self.wal.as_mut() else {
            return false;
        };
        if let Err(e) = w.append(bytes) {
            self.wal_err = Some(e);
            return false;
        }
        true
    }

    /// Flushes the batch and hands durability to the group-commit
    /// thread: a cadence credit under `EveryN`/`Never`, a blocking
    /// ticket under `Always` (so the subsequent ack implies fsynced).
    fn commit(&mut self, appended: u32) {
        if self.wal_err.is_some() || appended == 0 {
            return;
        }
        let Some(w) = self.wal.as_mut() else { return };
        if let Err(e) = w.flush() {
            self.wal_err = Some(e);
            return;
        }
        // A rotation opened a new active file; the group-commit thread
        // must fsync that one from now on.
        if w.segment_index() != self.last_segment {
            self.last_segment = w.segment_index();
            match w.active_file() {
                Ok(f) => {
                    if let Some(gc) = &self.gc {
                        if !gc.register(self.shard, f) {
                            self.wal_err = Some(io::Error::other("group-commit thread is gone"));
                            return;
                        }
                    }
                }
                Err(e) => {
                    self.wal_err = Some(e);
                    return;
                }
            }
        }
        if let Some(gc) = &self.gc {
            let ok = match self.fsync {
                FsyncPolicy::Always => match gc.sync_now() {
                    Ok(()) => true,
                    Err(e) => {
                        self.wal_err = Some(e);
                        false
                    }
                },
                FsyncPolicy::EveryN(_) | FsyncPolicy::Never => gc.appended(appended),
            };
            if !ok && self.wal_err.is_none() {
                self.wal_err = Some(io::Error::other("group-commit thread is gone"));
            }
        }
    }

    /// Writes an ack (and fin) on a connection, forfeiting the handle on
    /// failure. Returns whether the ack went out.
    fn send_ack(&mut self, conn: u64, upto: u64, fin: bool) -> bool {
        let Some(s) = self.acks.get_mut(&conn) else {
            return false;
        };
        if s.write_all(&encode_frame(&Frame::Ack { upto })).is_err() {
            self.acks.remove(&conn);
            return false;
        }
        if fin {
            if let Some(s) = self.acks.get_mut(&conn) {
                if s.write_all(&encode_frame(&Frame::Fin)).is_err() {
                    self.acks.remove(&conn);
                }
            }
        }
        true
    }

    /// Classifies one owned-router event and buffers the record into
    /// the local builder, the tracker slice, and (when this shard also
    /// owns its conversation) the cross builder.
    fn ingest(&mut self, e: &IoEvent) {
        let rec = FoldRecord::of(e);
        self.local.ingest_record(rec);
        self.slice.ingest_record(rec, e.arrived_at);
        if rec
            .conv()
            .is_some_and(|(key, _)| self.plan.of_conv(&key) == self.shard)
        {
            self.cross.ingest_record(rec);
        }
        self.events += 1;
    }

    fn run(mut self, rx: Receiver<WorkerMsg>) {
        while let Ok(msg) = rx.recv() {
            match msg {
                WorkerMsg::Hello {
                    conn,
                    journal,
                    ack,
                    upto,
                    fin,
                } => {
                    if let Some(bytes) = journal {
                        if self.journal(&bytes) {
                            self.commit(1);
                        }
                    }
                    if let Some(a) = ack {
                        self.acks.insert(conn, a);
                    }
                    self.send_ack(conn, upto, fin);
                }
                WorkerMsg::Ingest {
                    conn,
                    source,
                    batch,
                    upto,
                    fin,
                } => {
                    let mut journaled = 0u32;
                    for rec in &batch {
                        if let Some(raw) = rec.raw.as_ref() {
                            if self.journal(raw) {
                                journaled += 1;
                                if let Some(m) = &self.metrics {
                                    m.spans.stamp(source.0, rec.seq, Stage::Journaled);
                                    m.spans.stamp_shard(source.0, rec.seq, self.shard);
                                }
                            }
                        }
                    }
                    self.commit(journaled);
                    for rec in &batch {
                        self.ingest(&rec.event);
                        if let Some(m) = &self.metrics {
                            m.spans
                                .event_time(source.0, rec.seq, rec.event.time.as_nanos());
                        }
                    }
                    if let Some(m) = &self.metrics {
                        m.events_journaled.add(u64::from(journaled));
                    }
                    // Ack only after the batch was journaled *and*
                    // committed per policy: acked ⇒ durable.
                    let acked = self.send_ack(conn, upto, fin);
                    if acked {
                        if let Some(m) = &self.metrics {
                            m.events_acked.add(batch.len() as u64);
                            for rec in &batch {
                                m.spans.stamp(source.0, rec.seq, Stage::Acked);
                            }
                        }
                    }
                }
                WorkerMsg::IngestCross { records } => {
                    for rec in records {
                        self.cross.ingest_record(rec);
                    }
                }
                WorkerMsg::Seed { events } => {
                    for e in &events {
                        self.ingest(e);
                    }
                }
                WorkerMsg::Journal { bytes, done } => {
                    if self.journal(&bytes) {
                        self.commit(1);
                    }
                    if let Some(done) = done {
                        let _ = done.send(());
                    }
                }
                WorkerMsg::Ack { conn, upto, fin } => {
                    self.send_ack(conn, upto, fin);
                }
                WorkerMsg::DropConn { conn } => {
                    if let Some(s) = self.acks.remove(&conn) {
                        let _ = s.shutdown(std::net::Shutdown::Both);
                    }
                }
                WorkerMsg::Advance { wm, journal } => {
                    if journal {
                        // The watermark record precedes the fold in this
                        // series, which is what makes the recovered
                        // min-over-series-of-max watermark sound.
                        if self.journal(&encode_frame(&Frame::Watermark { t: wm, frontier: 0 })) {
                            self.commit(1);
                        }
                    }
                    self.local.advance(wm);
                    self.cross.advance(wm);
                    let mut outboxes: Vec<Vec<ConvDigest>> =
                        (0..self.plan.shards()).map(|_| Vec::new()).collect();
                    self.slice.advance_collect(wm, &mut outboxes);
                    if let Some(m) = &self.metrics {
                        if let Some(g) = m.shard_frontier.get(self.shard as usize) {
                            g.set(wm.as_nanos() as i64);
                        }
                    }
                    if self
                        .reply
                        .send(Reply::Phase1 {
                            shard: self.shard,
                            outboxes,
                        })
                        .is_err()
                    {
                        return;
                    }
                }
                WorkerMsg::Deliver { digests } => {
                    for d in &digests {
                        self.slice.absorb(d);
                    }
                    if let Some(m) = &self.metrics {
                        if let Some(g) = m.shard_fold_lag.get(self.shard as usize) {
                            g.set(self.local.pending() as i64);
                        }
                    }
                    if self
                        .reply
                        .send(Reply::Phase2 {
                            missing: self.slice.missing(),
                            processed: self.local.processed(),
                            pending: self.local.pending(),
                            edges: self.local.hbg().edges().len() + self.cross.hbg().edges().len(),
                        })
                        .is_err()
                    {
                        return;
                    }
                }
                WorkerMsg::Shutdown => {
                    if let Some(w) = self.wal.take() {
                        if let (Err(e), None) = (w.close(), &self.wal_err) {
                            self.wal_err = Some(e);
                        }
                    }
                    let _ = self.reply.send(Reply::Done(Box::new(WorkerDone {
                        shard: self.shard,
                        local: self.local,
                        cross: self.cross,
                        slice: self.slice,
                        events: self.events,
                        wal_err: self.wal_err,
                    })));
                    return;
                }
            }
        }
    }
}

/// One shard's live handle held by the coordinator.
struct ShardHandle {
    tx: SyncSender<WorkerMsg>,
    join: JoinHandle<()>,
}

/// Everything the coordinator tracks across barrier rounds.
struct Barrier {
    round: u64,
    waits_issued: u64,
    waits_resolved: u64,
    waiting: bool,
    status: SnapshotStatus,
    processed: usize,
    pending: usize,
    edges: usize,
}

impl Barrier {
    fn new() -> Self {
        Barrier {
            round: 0,
            waits_issued: 0,
            waits_resolved: 0,
            waiting: false,
            status: SnapshotStatus::Consistent,
            processed: 0,
            pending: 0,
            edges: 0,
        }
    }
}

/// The sharded counterpart of the legacy merger loop. Owns the source
/// table and the protocol state; routes events to the fold workers;
/// drives the two-phase watermark barrier.
#[allow(clippy::too_many_arguments)]
pub(crate) fn coordinator_loop(
    rx: Receiver<Msg>,
    cfg: CollectorConfig,
    plan: ShardPlan,
    mut sources: SourceTable,
    recovered_wm: Option<SimTime>,
    recovered_events: Vec<IoEvent>,
    recovered_repairs: RepairLedger,
    wals: Vec<Wal>,
    gc: Option<GroupCommit>,
    stats: &SharedStats,
    metrics: Option<Arc<CollectorMetrics>>,
) -> (FoldReport, Option<io::Error>) {
    let shards = plan.shards();
    let mut repairs = recovered_repairs;
    let n_routers = cfg.pipeline.n_routers;
    let lease = cfg.lease;
    let infer = cfg.pipeline.infer();
    let fsync = cfg.wal.as_ref().map_or(FsyncPolicy::Never, |w| w.fsync);

    // Spawn the fold workers.
    let (reply_tx, reply_rx) = std::sync::mpsc::channel::<Reply>();
    let mut wals = wals.into_iter();
    let mut workers: Vec<ShardHandle> = Vec::with_capacity(shards as usize);
    for k in 0..shards {
        let (tx, wrx) = std::sync::mpsc::sync_channel::<WorkerMsg>(cfg.channel_capacity.max(1));
        let mut wal = wals.next();
        let mut last_segment = 0;
        let mut wal_err = None;
        if let (Some(w), Some(gc)) = (wal.as_mut(), gc.as_ref()) {
            last_segment = w.segment_index();
            match w.active_file() {
                Ok(f) => {
                    gc.handle().register(k, f);
                }
                Err(e) => wal_err = Some(e),
            }
        }
        let worker = Worker {
            shard: k,
            plan: plan.clone(),
            local: HbgBuilder::new_scoped(&infer, RuleScope::LocalOnly),
            cross: HbgBuilder::new_scoped(&infer, RuleScope::CrossOnly),
            slice: TrackerSlice::new(n_routers as usize, plan.clone(), k),
            wal,
            gc: gc.as_ref().map(GroupCommit::handle),
            fsync,
            last_segment,
            wal_err,
            acks: HashMap::new(),
            events: 0,
            metrics: metrics.clone(),
            reply: reply_tx.clone(),
        };
        let join = thread::Builder::new()
            .name(format!("cpvr-fold-{k}"))
            .spawn(move || worker.run(wrx))
            .expect("spawn fold worker");
        workers.push(ShardHandle { tx, join });
    }

    let mut conn_source: HashMap<u64, RouterId> = HashMap::new();
    let mut advanced: Option<SimTime> = recovered_wm;
    let mut barrier = Barrier::new();

    // Seed the workers with the WAL-recovered events (already durable:
    // no re-journaling, no acks), then run a round-0 barrier at the
    // recovered watermark so verdict and wait accounting match a
    // monolithic recovery exactly.
    if !recovered_events.is_empty() {
        let mut seeds: Vec<Vec<IoEvent>> = (0..shards).map(|_| Vec::new()).collect();
        let mut crosses: Vec<Vec<FoldRecord>> = (0..shards).map(|_| Vec::new()).collect();
        for e in recovered_events {
            let owner = plan.of_router(e.router);
            cross_route(&plan, owner, &e, &mut crosses);
            seeds[owner as usize].push(e);
        }
        for (k, events) in seeds.into_iter().enumerate() {
            if !events.is_empty() {
                let _ = workers[k].tx.send(WorkerMsg::Seed { events });
            }
        }
        send_crosses(&workers, crosses);
    }
    if let Some(wm) = recovered_wm {
        run_barrier(
            &workers,
            &reply_rx,
            wm,
            false,
            &mut barrier,
            metrics.as_deref(),
        );
        stats.set_watermark(wm);
    }
    if let Some(m) = &metrics {
        publish(m, &barrier, &sources, advanced, stats);
    }

    let mut last_heard: Vec<Instant> = vec![Instant::now(); n_routers as usize];
    let mut last_sweep = Instant::now();
    let tick = lease
        .sweep_interval
        .min(std::time::Duration::from_secs(3600));

    loop {
        let msg = match rx.recv_timeout(tick) {
            Ok(m) => Some(m),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        if let Some(msg) = msg {
            match msg {
                Msg::Hello { conn, hello, ack } => {
                    let source = hello.source;
                    let owner = plan.of_router(source) as usize;
                    last_heard[source.0 as usize] = Instant::now();
                    if sources.state(source) == SourceState::Evicted {
                        let _ = workers[owner].tx.send(WorkerMsg::Journal {
                            bytes: encode_frame(&Frame::Admit { source }),
                            done: None,
                        });
                        sources.admit(source);
                        stats.readmissions.fetch_add(1, Ordering::Relaxed);
                        if let Some(m) = &metrics {
                            m.readmissions.inc();
                        }
                    }
                    sources.hello(source, hello.session, hello.first_seq);
                    conn_source.insert(conn, source);
                    let codec = hello.codec;
                    let journal = cfg
                        .wal
                        .is_some()
                        .then(|| encode_frame(&Frame::Hello(hello)));
                    let _ = workers[owner].tx.send(WorkerMsg::Hello {
                        conn,
                        journal,
                        ack,
                        upto: sources.next_seq(source),
                        fin: sources.finished(source),
                    });
                    if let Some(m) = &metrics {
                        m.set_source_codec(source.0, codec);
                        m.publish_sources(&sources);
                    }
                }
                Msg::Events { conn, batch } => {
                    let Some(&source) = conn_source.get(&conn) else {
                        continue;
                    };
                    let owner = plan.of_router(source) as usize;
                    last_heard[source.0 as usize] = Instant::now();
                    sources.refresh(source);
                    let mut fresh: Vec<EventRec> = Vec::with_capacity(batch.len());
                    let mut late = 0u64;
                    let mut dups = 0u64;
                    let mut gaps = 0u64;
                    for rec in batch {
                        match sources.offer(source, rec.seq) {
                            Offer::Duplicate => dups += 1,
                            Offer::Gap => gaps += 1,
                            Offer::Fresh => {
                                if advanced.is_some_and(|wm| rec.event.time <= wm) {
                                    late += 1;
                                    continue;
                                }
                                fresh.push(rec);
                            }
                        }
                    }
                    let ingested = fresh.len() as u64;
                    stats.events.fetch_add(ingested, Ordering::Relaxed);
                    if late > 0 {
                        stats.late_events.fetch_add(late, Ordering::Relaxed);
                    }
                    if dups > 0 {
                        stats.duplicate_events.fetch_add(dups, Ordering::Relaxed);
                    }
                    if gaps > 0 {
                        stats.gap_events.fetch_add(gaps, Ordering::Relaxed);
                    }
                    if let Some(m) = &metrics {
                        m.events_received.add(ingested);
                        m.events_duplicate.add(dups);
                        m.events_gap.add(gaps);
                        m.events_late.add(late);
                    }
                    // Cross-conversation copies go out *before* the
                    // owner's batch can trigger any later barrier, so a
                    // shard's cross builder always has both sides of an
                    // HBR by the time the watermark folds it.
                    let mut crosses: Vec<Vec<FoldRecord>> =
                        (0..shards).map(|_| Vec::new()).collect();
                    for rec in &fresh {
                        cross_route(&plan, owner as u32, &rec.event, &mut crosses);
                    }
                    send_crosses(&workers, crosses);
                    let _ = workers[owner].tx.send(WorkerMsg::Ingest {
                        conn,
                        source,
                        batch: fresh,
                        upto: sources.next_seq(source),
                        fin: sources.finished(source),
                    });
                    try_advance(
                        &workers,
                        &reply_rx,
                        &sources,
                        &mut advanced,
                        &mut barrier,
                        stats,
                        metrics.as_deref(),
                    );
                }
                Msg::Watermark { conn, t, frontier } => {
                    let Some(&source) = conn_source.get(&conn) else {
                        continue;
                    };
                    last_heard[source.0 as usize] = Instant::now();
                    sources.refresh(source);
                    sources.promise(source, t, frontier);
                    try_advance(
                        &workers,
                        &reply_rx,
                        &sources,
                        &mut advanced,
                        &mut barrier,
                        stats,
                        metrics.as_deref(),
                    );
                    ack_via_worker(&workers, &plan, &sources, conn, source);
                }
                Msg::Heartbeat { conn } => {
                    let Some(&source) = conn_source.get(&conn) else {
                        continue;
                    };
                    last_heard[source.0 as usize] = Instant::now();
                    sources.refresh(source);
                    ack_via_worker(&workers, &plan, &sources, conn, source);
                }
                Msg::Bye { conn, frontier } => {
                    let Some(&source) = conn_source.get(&conn) else {
                        continue;
                    };
                    last_heard[source.0 as usize] = Instant::now();
                    sources.refresh(source);
                    sources.bye(source, frontier);
                    try_advance(
                        &workers,
                        &reply_rx,
                        &sources,
                        &mut advanced,
                        &mut barrier,
                        stats,
                        metrics.as_deref(),
                    );
                    ack_via_worker(&workers, &plan, &sources, conn, source);
                }
                Msg::Intern { router, raw } => {
                    // A symbol definition journals into the *owning
                    // shard's* WAL series — the same series that will
                    // journal the events using it — so a per-series
                    // replay sees define-before-use, and a definition
                    // is never stranded in a series whose events cannot
                    // resolve it.
                    let owner = plan.of_router(RouterId(router)) as usize;
                    let _ = workers[owner].tx.send(WorkerMsg::Journal {
                        bytes: raw,
                        done: None,
                    });
                }
                Msg::Repair { record, done } => {
                    // Repairs are global, not per-router: shard 0's
                    // series is their one canonical home, so a replay
                    // reassembles the same lifecycle order. The caller's
                    // `done` ack rides the worker's append — the
                    // durability barrier crosses both channels.
                    repairs.accept(&record);
                    stats.repair_records.fetch_add(1, Ordering::Relaxed);
                    if let Some(m) = &metrics {
                        m.publish_repair(&record, repairs.in_flight().len());
                    }
                    let bytes = encode_frame(&Frame::Repair(record));
                    let _ = workers[0].tx.send(WorkerMsg::Journal { bytes, done });
                }
                // Peer frames exist only on federated collectors, whose
                // member loop replaces this one; on_frame kills any
                // connection that sends them here first.
                Msg::PeerHello { .. } | Msg::Peer { .. } => {}
                Msg::Closed { conn } => {
                    if let Some(source) = conn_source.remove(&conn) {
                        let owner = plan.of_router(source) as usize;
                        let _ = workers[owner].tx.send(WorkerMsg::DropConn { conn });
                    }
                }
            }
        }
        if last_sweep.elapsed() >= tick {
            sweep_leases(
                &workers,
                &reply_rx,
                &plan,
                &mut sources,
                &mut advanced,
                &mut barrier,
                &last_heard,
                &lease,
                &mut conn_source,
                stats,
                metrics.as_deref(),
            );
            last_sweep = Instant::now();
        }
    }

    // Shutdown: collect every worker's state, then the group-commit
    // thread's verdict.
    for w in &workers {
        let _ = w.tx.send(WorkerMsg::Shutdown);
    }
    let mut dones: Vec<Option<WorkerDone>> = (0..shards).map(|_| None).collect();
    let mut remaining = shards;
    while remaining > 0 {
        match reply_rx.recv() {
            Ok(Reply::Done(d)) => {
                let k = d.shard as usize;
                dones[k] = Some(*d);
                remaining -= 1;
            }
            Ok(_) => {}
            Err(_) => break,
        }
    }
    for w in workers {
        let _ = w.join.join();
    }
    let mut wal_err: Option<io::Error> = None;
    if let Some(gc) = gc {
        if let (Err(e), None) = (gc.stop(), &wal_err) {
            wal_err = Some(e);
        }
    }

    // Merge the workers into the final report.
    let mut hbg = Hbg::new(0);
    let mut edge_counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut dataplane = DataPlane::new(n_routers as usize);
    let mut events = 0u64;
    let mut processed = 0usize;
    let mut pending = 0usize;
    for d in dones.iter_mut().map(|d| d.take().expect("worker reply")) {
        if wal_err.is_none() {
            wal_err = d.wal_err;
        }
        events += d.events;
        processed += d.local.processed();
        pending += d.local.pending();
        for b in [&d.local, &d.cross] {
            hbg.grow_to(b.hbg().num_events());
            for h in b.hbg().edges() {
                hbg.add(*h);
            }
            for (rule, n) in b.edge_counts() {
                *edge_counts.entry(rule).or_default() += n;
            }
        }
        // Per-router state lives wholly with the owning shard.
        let dp = d.slice.dataplane();
        for r in 0..n_routers {
            let router = RouterId(r);
            if plan.of_router(router) == d.shard {
                for (prefix, entry) in dp.fib(router).entries() {
                    dataplane.fib_mut(router).install(prefix, entry);
                }
                dataplane.set_taken_at(router, dp.taken_at(router));
            }
        }
    }

    let report = FoldReport::Sharded(Box::new(ShardedFold {
        shards,
        events,
        processed,
        pending,
        hbg,
        edge_counts,
        status: barrier.status.clone(),
        waits: (barrier.waits_issued, barrier.waits_resolved),
        dataplane,
        watermark: advanced,
        stalled: sources.stalled(),
        repairs,
    }));
    (report, wal_err)
}

/// Stages the fold record of `e` for the shard owning its conversation,
/// when that is not `owner`, the shard owning its router.
fn cross_route(plan: &ShardPlan, owner: u32, e: &IoEvent, crosses: &mut [Vec<FoldRecord>]) {
    let rec = FoldRecord::of(e);
    if let Some((key, _)) = rec.conv() {
        let conv_owner = plan.of_conv(&key);
        if conv_owner != owner {
            crosses[conv_owner as usize].push(rec);
        }
    }
}

fn send_crosses(workers: &[ShardHandle], crosses: Vec<Vec<FoldRecord>>) {
    for (k, records) in crosses.into_iter().enumerate() {
        if !records.is_empty() {
            let _ = workers[k].tx.send(WorkerMsg::IngestCross { records });
        }
    }
}

/// Sends an ack through the owning worker's socket, mirroring the
/// legacy `acknowledge` (ack the contiguous cursor, fin once finished).
fn ack_via_worker(
    workers: &[ShardHandle],
    plan: &ShardPlan,
    sources: &SourceTable,
    conn: u64,
    source: RouterId,
) {
    let owner = plan.of_router(source) as usize;
    let _ = workers[owner].tx.send(WorkerMsg::Ack {
        conn,
        upto: sources.next_seq(source),
        fin: sources.finished(source),
    });
}

/// Runs one two-phase barrier at `wm` across all workers and merges the
/// verdict. `journal` is false only for the recovery round (the
/// watermark is already durable in every series that folded to it).
fn run_barrier(
    workers: &[ShardHandle],
    reply_rx: &Receiver<Reply>,
    wm: SimTime,
    journal: bool,
    barrier: &mut Barrier,
    metrics: Option<&CollectorMetrics>,
) {
    let shards = workers.len();
    barrier.round += 1;
    let start = Instant::now();
    for w in workers {
        let _ = w.tx.send(WorkerMsg::Advance { wm, journal });
    }
    // Phase 1: collect every shard's foreign-digest outboxes.
    let mut outboxes: Vec<Option<Vec<Vec<ConvDigest>>>> = (0..shards).map(|_| None).collect();
    let mut remaining = shards;
    while remaining > 0 {
        match reply_rx.recv() {
            Ok(Reply::Phase1 {
                shard,
                outboxes: out,
            }) => {
                if let Some(m) = metrics {
                    if let Some(h) = m.shard_barrier_stall.get(shard as usize) {
                        h.observe_since(start);
                    }
                }
                outboxes[shard as usize] = Some(out);
                remaining -= 1;
            }
            Ok(_) => {}
            Err(_) => return,
        }
    }
    // Regroup per destination, in origin-shard order: digests for one
    // conversation side all originate from a single stream on a single
    // shard, so this concatenation preserves stream order.
    let mut deliver: Vec<Vec<ConvDigest>> = (0..shards).map(|_| Vec::new()).collect();
    for origin in outboxes.iter_mut().map(|o| o.take().expect("phase 1")) {
        for (dest, digests) in origin.into_iter().enumerate() {
            deliver[dest].extend(digests);
        }
    }
    for (dest, digests) in deliver.into_iter().enumerate() {
        let _ = workers[dest].tx.send(WorkerMsg::Deliver { digests });
    }
    // Phase 2: merge the missing sets into the global verdict.
    let mut missing: Vec<RouterId> = Vec::new();
    let mut processed = 0usize;
    let mut pending = 0usize;
    let mut edges = 0usize;
    let mut remaining = shards;
    while remaining > 0 {
        match reply_rx.recv() {
            Ok(Reply::Phase2 {
                missing: m,
                processed: p,
                pending: pd,
                edges: e,
                ..
            }) => {
                missing.extend(m);
                processed += p;
                pending += pd;
                edges += e;
                remaining -= 1;
            }
            Ok(_) => {}
            Err(_) => return,
        }
    }
    missing.sort_unstable();
    missing.dedup();
    barrier.status = if missing.is_empty() {
        SnapshotStatus::Consistent
    } else {
        SnapshotStatus::WaitFor(missing)
    };
    barrier.processed = processed;
    barrier.pending = pending;
    barrier.edges = edges;
    // The wait accounting the monolithic tracker keeps, replayed on the
    // merged verdict sequence — shard-count-invariant by construction.
    match (barrier.waiting, barrier.status.is_consistent()) {
        (false, false) => {
            barrier.waits_issued += 1;
            barrier.waiting = true;
        }
        (true, true) => {
            barrier.waits_resolved += 1;
            barrier.waiting = false;
        }
        _ => {}
    }
    if let Some(m) = metrics {
        m.barrier_rounds.inc();
    }
}

/// Advances the fold to the source table's global minimum promise, if
/// it moved — the sharded analogue of the legacy `try_advance`.
fn try_advance(
    workers: &[ShardHandle],
    reply_rx: &Receiver<Reply>,
    sources: &SourceTable,
    advanced: &mut Option<SimTime>,
    barrier: &mut Barrier,
    stats: &SharedStats,
    metrics: Option<&CollectorMetrics>,
) {
    let Some(global) = sources.global_min() else {
        return;
    };
    if advanced.is_some_and(|wm| global <= wm) {
        return;
    }
    let folded_before = barrier.processed;
    let start = Instant::now();
    run_barrier(workers, reply_rx, global, true, barrier, metrics);
    *advanced = Some(global);
    stats.set_watermark(global);
    if let Some(m) = metrics {
        m.fold_nanos.observe_since(start);
        m.fold_batch
            .observe(barrier.processed.saturating_sub(folded_before) as u64);
        m.spans
            .fold_up_to(global.as_nanos(), barrier.status.is_consistent());
        publish(m, barrier, sources, *advanced, stats);
    }
}

/// Publishes the fold-side gauges from the coordinator's merged view —
/// the sharded analogue of `CollectorMetrics::publish_pipeline`.
fn publish(
    m: &CollectorMetrics,
    barrier: &Barrier,
    sources: &SourceTable,
    advanced: Option<SimTime>,
    _stats: &SharedStats,
) {
    m.events_folded.set(barrier.processed as i64);
    m.events_pending.set(barrier.pending as i64);
    m.hbg_edges.set(barrier.edges as i64);
    m.waits_issued.set(barrier.waits_issued as i64);
    m.waits_resolved.set(barrier.waits_resolved as i64);
    m.snapshot_consistent
        .set(barrier.status.is_consistent() as i64);
    if let Some(wm) = advanced {
        m.watermark_nanos.set(wm.as_nanos() as i64);
    }
    m.publish_sources(sources);
}

/// One pass of the liveness leases — identical policy to the legacy
/// sweep, with journaling and hangups routed through the owning worker.
#[allow(clippy::too_many_arguments)]
fn sweep_leases(
    workers: &[ShardHandle],
    reply_rx: &Receiver<Reply>,
    plan: &ShardPlan,
    sources: &mut SourceTable,
    advanced: &mut Option<SimTime>,
    barrier: &mut Barrier,
    last_heard: &[Instant],
    lease: &LeaseConfig,
    conn_source: &mut HashMap<u64, RouterId>,
    stats: &SharedStats,
    metrics: Option<&CollectorMetrics>,
) {
    let now = Instant::now();
    let mut evicted_any = false;
    for (i, heard) in last_heard.iter().enumerate() {
        let r = RouterId(i as u32);
        if sources.state(r) == SourceState::Evicted || sources.finished(r) {
            continue;
        }
        let silent = now.saturating_duration_since(*heard);
        if silent >= lease.evict_after {
            let owner = plan.of_router(r) as usize;
            // Journal the eviction (to the owner's series) before
            // widening the gate: the worker's inbox orders it ahead of
            // any barrier watermark the eviction releases.
            let _ = workers[owner].tx.send(WorkerMsg::Journal {
                bytes: encode_frame(&Frame::Evict { source: r }),
                done: None,
            });
            sources.evict(r);
            stats.evictions.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = metrics {
                m.evictions.inc();
            }
            evicted_any = true;
            let conns: Vec<u64> = conn_source
                .iter()
                .filter(|&(_, s)| *s == r)
                .map(|(&c, _)| c)
                .collect();
            for c in conns {
                conn_source.remove(&c);
                let _ = workers[owner].tx.send(WorkerMsg::DropConn { conn: c });
            }
        } else if silent >= lease.lagging_after {
            sources.set_lagging(r);
        }
    }
    if evicted_any {
        try_advance(
            workers, reply_rx, sources, advanced, barrier, stats, metrics,
        );
    }
    if let Some(m) = metrics {
        m.publish_sources(sources);
    }
}
