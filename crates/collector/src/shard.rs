//! The fold shard, and the `Shards` backend that runs `N ≥ 1` of them
//! on worker threads behind a cross-shard digest barrier.
//!
//! ## One fold-shard type
//!
//! A `FoldShard` is the unit of fold state, whoever runs it — a
//! worker thread here, or a federation member
//! ([`crate::federation`]). Shard `k` of a [`ShardPlan`] holds:
//!
//! - a [`RuleScope::LocalOnly`] [`HbgBuilder`] over the routers the
//!   shard owns (`ShardPlan::of_router`),
//! - a [`RuleScope::CrossOnly`] [`HbgBuilder`] over the send/recv
//!   events of the *conversations* the shard owns
//!   (`ShardPlan::of_conv` — prefix range, with the addressee-router
//!   fallback for events that carry no prefix),
//! - a [`TrackerSlice`] over the owned router streams.
//!
//! The shards of a plan are edge-disjoint by scope and their union is
//! the monolithic fold — for one shard trivially so — which is what
//! [`FoldReport`] materializes and what every equivalence test compares
//! against the in-process [`IngestPipeline`].
//!
//! ## Topology
//!
//! The session loop (`session`) keeps everything connection- and
//! protocol-shaped. Behind it, each **fold worker** owns one
//! `FoldShard` plus what must stay ordered with it:
//!
//! - its own WAL segment series (`wal-s<K>-NNNNNNNN.seg`; a one-shard
//!   collector writes the unnumbered `wal-NNNNNNNN.seg` series),
//!   flushed per batch and fsynced by the shared group-commit thread,
//!   and
//! - the ack sockets of the routers it owns, so an ack is written
//!   strictly after the worker journaled the events it covers.
//!
//! ## The barrier
//!
//! A watermark advance is a two-phase barrier driven synchronously
//! over the workers' bounded inboxes:
//!
//! 1. `Advance { wm }`: every worker journals the watermark to its own
//!    series, folds its builders to `wm`, and replays its tracker
//!    streams ([`TrackerSlice::advance_collect`]) — conversation sides
//!    owned by *other* shards (the recv-advert → send-advert HBRs that
//!    span shards) come back as [`ConvDigest`] outboxes.
//! 2. `Deliver { digests }`: the outboxes are regrouped in origin-shard
//!    order and each shard is forwarded its foreign digests; workers
//!    absorb them and report their missing sets plus fold counters.
//!
//! The missing sets merge into the global `Verdict` — provably equal
//! to the monolithic [`ConsistencyTracker`] verdict at the same horizon
//! (see the equivalence tests in `cpvr-core`) — and wait transitions
//! are counted on the merged sequence, so §4.3 wait statistics are
//! shard-count-invariant.
//!
//! [`RuleScope::LocalOnly`]: cpvr_core::rules::RuleScope
//! [`ConsistencyTracker`]: cpvr_core::snapshot::ConsistencyTracker

use crate::codec::{encode_frame, Frame};
use crate::collector::{CollectorConfig, EventRec};
use crate::federation::MemberFold;
use crate::group_commit::{GroupCommit, GroupCommitHandle};
use crate::metrics::CollectorMetrics;
use crate::pipeline::{IngestPipeline, PipelineConfig, SourceTable};
use crate::repair_journal::RepairLedger;
use crate::session::{AckSockets, Backend};
use crate::wal::{FsyncPolicy, Wal};
use cpvr_core::builder::HbgBuilder;
use cpvr_core::hbg::{Hbg, Hbr};
use cpvr_core::rules::RuleScope;
use cpvr_core::snapshot::{ConvDigest, SnapshotStatus, TrackerSlice};
use cpvr_core::{FoldRecord, HbrSource, ShardPlan};
use cpvr_dataplane::DataPlane;
use cpvr_sim::IoEvent;
use cpvr_types::{RouterId, SimTime};
use std::collections::BTreeMap;
use std::io;
use std::net::TcpStream;
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::{Arc, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// One shard of the fold: the per-event state of the routers and
/// conversations a [`ShardPlan`] assigns to shard `shard`.
pub(crate) struct FoldShard {
    shard: u32,
    plan: ShardPlan,
    local: HbgBuilder,
    cross: HbgBuilder,
    slice: TrackerSlice,
    events: u64,
}

impl FoldShard {
    pub(crate) fn new(pipeline: &PipelineConfig, plan: ShardPlan, shard: u32) -> Self {
        let infer = pipeline.infer();
        FoldShard {
            shard,
            local: HbgBuilder::new_scoped(&infer, RuleScope::LocalOnly),
            cross: HbgBuilder::new_scoped(&infer, RuleScope::CrossOnly),
            slice: TrackerSlice::new(pipeline.n_routers as usize, plan.clone(), shard),
            plan,
            events: 0,
        }
    }

    /// Classifies one owned-router event and buffers the record into
    /// the local builder, the tracker slice, and (when this shard also
    /// owns its conversation) the cross builder. Returns the shard that
    /// owns the conversation when that is another one — it needs the
    /// record too, through [`ingest_cross`](Self::ingest_cross).
    pub(crate) fn ingest(&mut self, e: &IoEvent) -> Option<u32> {
        let rec = FoldRecord::of(e);
        self.local.ingest_record(rec);
        self.slice.ingest_record(rec, e.arrived_at);
        self.events += 1;
        let owner = self.plan.of_conv(&rec.conv()?.0);
        if owner != self.shard {
            return Some(owner);
        }
        self.cross.ingest_record(rec);
        None
    }

    /// Buffers a record whose conversation this shard owns but whose
    /// router it does not — feed for the cross-scope builder only.
    pub(crate) fn ingest_cross(&mut self, rec: FoldRecord) {
        self.cross.ingest_record(rec);
    }

    /// Folds both builders and the tracker slice to `wm`; returns, per
    /// destination shard, the digests of conversation sides that shard
    /// owns.
    pub(crate) fn advance_collect(&mut self, wm: SimTime) -> Vec<Vec<ConvDigest>> {
        self.local.advance(wm);
        self.cross.advance(wm);
        let mut outboxes = vec![Vec::new(); self.plan.shards() as usize];
        self.slice.advance_collect(wm, &mut outboxes);
        outboxes
    }

    /// Applies the digests other shards collected for this one.
    pub(crate) fn absorb(&mut self, digests: &[ConvDigest]) {
        for d in digests {
            self.slice.absorb(d);
        }
    }

    /// The routers this shard's part of the snapshot still waits for.
    pub(crate) fn missing(&self) -> Vec<RouterId> {
        self.slice.missing()
    }

    pub(crate) fn gauges(&self) -> FoldGauges {
        let mut g = FoldGauges {
            processed: self.local.processed(),
            pending: self.local.pending(),
            ..FoldGauges::default()
        };
        for b in [&self.local, &self.cross] {
            g.edges += b.hbg().edges().len();
            g.offer(b.edge_tallies());
        }
        g
    }
}

/// Fold counters, summed over shards (events are counted by the local
/// builders only — cross builders fold copies).
#[derive(Clone, Debug, Default)]
pub(crate) struct FoldGauges {
    pub(crate) processed: usize,
    pub(crate) pending: usize,
    pub(crate) edges: usize,
    /// Edges offered per inference rule.
    pub(crate) offered: Vec<(HbrSource, u64)>,
}

impl FoldGauges {
    fn offer(&mut self, tallies: &[(HbrSource, u64)]) {
        for (source, n) in tallies {
            match self.offered.iter_mut().find(|(s, _)| s == source) {
                Some((_, total)) => *total += n,
                None => self.offered.push((*source, *n)),
            }
        }
    }

    fn add(&mut self, other: &FoldGauges) {
        self.processed += other.processed;
        self.pending += other.pending;
        self.edges += other.edges;
        self.offer(&other.offered);
    }
}

/// The global snapshot verdict and its wait accounting: the merge of
/// every shard's missing set at one horizon, and the §4.3 transitions
/// the monolithic tracker would have counted on that verdict sequence.
#[derive(Clone, Debug)]
pub(crate) struct Verdict {
    status: SnapshotStatus,
    waiting: bool,
    issued: u64,
    resolved: u64,
}

impl Default for Verdict {
    fn default() -> Self {
        Verdict {
            status: SnapshotStatus::Consistent,
            waiting: false,
            issued: 0,
            resolved: 0,
        }
    }
}

impl Verdict {
    /// Lands the verdict of one horizon from the concatenated missing
    /// sets of every shard.
    pub(crate) fn merge(&mut self, mut missing: Vec<RouterId>) {
        missing.sort_unstable();
        missing.dedup();
        self.status = if missing.is_empty() {
            SnapshotStatus::Consistent
        } else {
            SnapshotStatus::WaitFor(missing)
        };
        match (self.waiting, self.status.is_consistent()) {
            (false, false) => {
                self.issued += 1;
                self.waiting = true;
            }
            (true, true) => {
                self.resolved += 1;
                self.waiting = false;
            }
            _ => {}
        }
    }

    pub(crate) fn status(&self) -> &SnapshotStatus {
        &self.status
    }

    /// `(issued, resolved)` wait transitions.
    pub(crate) fn waits(&self) -> (u64, u64) {
        (self.issued, self.resolved)
    }
}

/// The fold state a collector hands back at shutdown: its fold shards
/// and the verdict they reached. Accessors expose the merged view —
/// and the bit-identity invariant is that every one of them is equal
/// at every shard count, across a federation, and to the in-process
/// [`IngestPipeline`] on the same trace.
///
/// A federation member's report is a *partial* view (its HBG holds only
/// the member's local and owned-conversation edges, its data plane only
/// the owned routers) with the member extras beside it;
/// [`merge_members`](crate::federation::merge_members) combines the
/// members of one federation into the global report.
pub struct FoldReport {
    pub(crate) parts: Vec<FoldShard>,
    merged: OnceLock<Merged>,
    pub(crate) status: SnapshotStatus,
    pub(crate) waits: (u64, u64),
    pub(crate) watermark: Option<SimTime>,
    pub(crate) stalled: Vec<RouterId>,
    pub(crate) repairs: RepairLedger,
    pub(crate) member: Option<Box<MemberFold>>,
}

/// The union of a report's shards, materialized on first use.
struct Merged {
    hbg: Hbg,
    edge_counts: BTreeMap<String, u64>,
    dataplane: DataPlane,
}

/// Unions fold shards: every builder's edges into one HBG, per-rule
/// offers summed, and each router's FIB taken from the shard that owns
/// it (per-router state lives wholly with the owner).
fn merge(parts: &[FoldShard]) -> Merged {
    let n_routers = parts[0].slice.dataplane().num_routers();
    let mut merged = Merged {
        hbg: Hbg::new(0),
        edge_counts: BTreeMap::new(),
        dataplane: DataPlane::new(n_routers),
    };
    for p in parts {
        for b in [&p.local, &p.cross] {
            merged.hbg.grow_to(b.hbg().num_events());
            for h in b.hbg().edges() {
                merged.hbg.add(*h);
            }
            for (rule, n) in b.edge_counts() {
                *merged.edge_counts.entry(rule).or_default() += n;
            }
        }
        let dp = p.slice.dataplane();
        for router in (0..n_routers as u32).map(RouterId) {
            if p.plan.of_router(router) == p.shard {
                for (prefix, entry) in dp.fib(router).entries() {
                    merged.dataplane.fib_mut(router).install(prefix, entry);
                }
                merged.dataplane.set_taken_at(router, dp.taken_at(router));
            }
        }
    }
    merged
}

impl FoldReport {
    pub(crate) fn new(
        parts: Vec<FoldShard>,
        verdict: &Verdict,
        watermark: Option<SimTime>,
        stalled: Vec<RouterId>,
        repairs: RepairLedger,
    ) -> Self {
        FoldReport {
            parts,
            merged: OnceLock::new(),
            status: verdict.status.clone(),
            waits: verdict.waits(),
            watermark,
            stalled,
            repairs,
            member: None,
        }
    }

    fn merged(&self) -> &Merged {
        self.merged.get_or_init(|| merge(&self.parts))
    }

    /// How many fold shards this state was folded by.
    pub fn shards(&self) -> u32 {
        self.parts.len() as u32
    }

    /// Total events ingested (including WAL-recovered ones).
    pub fn events(&self) -> u64 {
        self.parts.iter().map(|p| p.events).sum()
    }

    /// Events folded into the HBG.
    pub fn processed(&self) -> usize {
        self.parts.iter().map(|p| p.local.processed()).sum()
    }

    /// Ingested events still buffered behind the watermark.
    pub fn pending(&self) -> usize {
        self.parts.iter().map(|p| p.local.pending()).sum()
    }

    /// The canonical happens-before edge set — the bit-identity oracle.
    pub fn canonical_edges(&self) -> Vec<Hbr> {
        self.merged().hbg.canonical_edges()
    }

    /// Edges offered per inference rule, merged across builders.
    pub fn edge_counts(&self) -> BTreeMap<String, u64> {
        self.merged().edge_counts.clone()
    }

    /// The snapshot verdict at the final watermark.
    pub fn status(&self) -> SnapshotStatus {
        self.status.clone()
    }

    /// `(issued, resolved)` wait transitions of the fold's verdict.
    pub fn wait_stats(&self) -> (u64, u64) {
        self.waits
    }

    /// The data plane assembled from the arrived FIB records (merged
    /// from the owning shard of each router).
    pub fn dataplane(&self) -> &DataPlane {
        &self.merged().dataplane
    }

    /// The last advanced watermark.
    pub fn watermark(&self) -> Option<SimTime> {
        self.watermark
    }

    /// Sources that were still gating the watermark at shutdown.
    pub fn stalled_sources(&self) -> Vec<RouterId> {
        self.stalled.clone()
    }

    /// The repair-lifecycle ledger folded from the journal's kind-16
    /// records — the bit-identity oracle extends to repair decisions.
    pub fn repairs(&self) -> &RepairLedger {
        &self.repairs
    }

    /// The federation-member extras, when a member folded this state.
    pub fn member(&self) -> Option<&MemberFold> {
        self.member.as_deref()
    }

    /// Always `None`: no collector folds into an [`IngestPipeline`].
    /// Kept because the benchmark ledger's pinned sources call it.
    #[doc(hidden)]
    pub fn as_single(&self) -> Option<&IngestPipeline> {
        None
    }
}

/// What the session thread sends a fold worker. Bounded channel; the
/// session blocks when a worker falls behind, which is the same
/// backpressure story as the reader → session channel.
enum WorkerMsg {
    /// Fresh, in-order, non-late events for an owned router: journal,
    /// ingest, then ack `upto`.
    Ingest {
        conn: u64,
        batch: Vec<EventRec>,
        upto: u64,
        fin: bool,
    },
    /// Records of events whose conversations this worker owns but whose
    /// routers it does not.
    IngestCross { records: Vec<FoldRecord> },
    /// WAL-recovered events for owned routers: ingest without
    /// journaling or acking (they are already durable).
    Seed { events: Vec<IoEvent> },
    /// Journal a control record (hello/evict/admit/intern/repair);
    /// `done` (repair records only) is signalled once the append is
    /// flushed, as the submitter's durability barrier.
    Journal {
        bytes: Vec<u8>,
        done: Option<SyncSender<()>>,
    },
    /// Adopt a greeted connection's ack socket.
    Adopt { conn: u64, ack: Option<TcpStream> },
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
    /// Close the WAL and hand the fold shard back.
    Shutdown,
}

/// What a fold worker sends back.
enum Reply {
    /// Barrier phase 1 result: per-destination-shard digest outboxes.
    Phase1 {
        shard: u32,
        outboxes: Vec<Vec<ConvDigest>>,
    },
    /// Barrier phase 2 result: the shard's verdict inputs and counters.
    Phase2 {
        missing: Vec<RouterId>,
        gauges: FoldGauges,
    },
    /// Shutdown result: the worker's fold shard.
    Done(Box<(FoldShard, Option<io::Error>)>),
}

/// One fold worker: owns a fold shard, its WAL series, and the ack
/// sockets of its routers.
struct Worker {
    fold: FoldShard,
    wal: Option<Wal>,
    gc: Option<GroupCommitHandle>,
    fsync: FsyncPolicy,
    last_segment: u64,
    wal_err: Option<io::Error>,
    acks: AckSockets,
    metrics: Option<Arc<CollectorMetrics>>,
    reply: Sender<Reply>,
}

impl Worker {
    /// Appends one record to the shard's WAL series, latching the first
    /// error (the fold keeps running degraded rather than dropping the
    /// in-memory state on a full disk).
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
        let (Some(w), Some(gc)) = (self.wal.as_mut(), &self.gc) else {
            return;
        };
        let gone = || io::Error::other("group-commit thread is gone");
        let committed = w.flush().and_then(|()| {
            // A rotation opened a new active file; the group-commit
            // thread must fsync that one from now on.
            if w.segment_index() != self.last_segment {
                self.last_segment = w.segment_index();
                if !gc.register(self.fold.shard, w.active_file()?) {
                    return Err(gone());
                }
            }
            match self.fsync {
                FsyncPolicy::Always => gc.sync_now(),
                FsyncPolicy::EveryN(_) | FsyncPolicy::Never => {
                    gc.appended(appended).then_some(()).ok_or_else(gone)
                }
            }
        });
        self.wal_err = committed.err();
    }

    fn run(mut self, rx: Receiver<WorkerMsg>) {
        let shard = self.fold.shard;
        while let Ok(msg) = rx.recv() {
            match msg {
                WorkerMsg::Ingest {
                    conn,
                    batch,
                    upto,
                    fin,
                } => {
                    // Sampled flights in the batch, by when each was
                    // appended to the journal.
                    let mut flights: Vec<Instant> = Vec::new();
                    let mut journaled = 0u32;
                    for rec in &batch {
                        if let Some(raw) = rec.raw.as_ref() {
                            if self.journal(raw) {
                                journaled += 1;
                                if let (Some(m), Some((_, received))) = (&self.metrics, rec.trace) {
                                    m.flight_received_to_journaled.observe_since(received);
                                    flights.push(Instant::now());
                                }
                            }
                        }
                    }
                    self.commit(journaled);
                    for rec in &batch {
                        self.fold.ingest(&rec.event);
                    }
                    if let Some(m) = &self.metrics {
                        m.events_journaled.add(u64::from(journaled));
                    }
                    // Ack only after the batch was journaled *and*
                    // committed per policy: acked ⇒ durable. Count only
                    // an ack that actually went out.
                    if self.acks.ack(conn, upto, fin) {
                        if let Some(m) = &self.metrics {
                            m.events_acked.add(batch.len() as u64);
                            for appended in flights {
                                m.flight_journaled_to_acked.observe_since(appended);
                            }
                        }
                    }
                }
                WorkerMsg::IngestCross { records } => {
                    for rec in records {
                        self.fold.ingest_cross(rec);
                    }
                }
                WorkerMsg::Seed { events } => {
                    for e in &events {
                        self.fold.ingest(e);
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
                WorkerMsg::Adopt { conn, ack } => self.acks.adopt(conn, ack),
                WorkerMsg::Ack { conn, upto, fin } => {
                    self.acks.ack(conn, upto, fin);
                }
                WorkerMsg::DropConn { conn } => self.acks.drop_conn(conn),
                WorkerMsg::Advance { wm, journal } => {
                    // The watermark record precedes the fold in this
                    // series, which is what makes the recovered
                    // min-over-series-of-max watermark sound. The
                    // frontier field is meaningless for a global
                    // watermark; zero by convention.
                    if journal
                        && self.journal(&encode_frame(&Frame::Watermark { t: wm, frontier: 0 }))
                    {
                        self.commit(1);
                    }
                    let outboxes = self.fold.advance_collect(wm);
                    if let Some(m) = &self.metrics {
                        if let Some(g) = m.shard_frontier.get(shard as usize) {
                            g.set(wm.as_nanos() as i64);
                        }
                    }
                    if self.reply.send(Reply::Phase1 { shard, outboxes }).is_err() {
                        return;
                    }
                }
                WorkerMsg::Deliver { digests } => {
                    self.fold.absorb(&digests);
                    let gauges = self.fold.gauges();
                    if let Some(m) = &self.metrics {
                        if let Some(g) = m.shard_fold_lag.get(shard as usize) {
                            g.set(gauges.pending as i64);
                        }
                    }
                    let missing = self.fold.missing();
                    if self.reply.send(Reply::Phase2 { missing, gauges }).is_err() {
                        return;
                    }
                }
                WorkerMsg::Shutdown => {
                    if let Some(w) = self.wal.take() {
                        if let (Err(e), None) = (w.close(), &self.wal_err) {
                            self.wal_err = Some(e);
                        }
                    }
                    let _ = self
                        .reply
                        .send(Reply::Done(Box::new((self.fold, self.wal_err))));
                    return;
                }
            }
        }
    }
}

/// One shard's live handle held by the session thread.
struct ShardHandle {
    tx: SyncSender<WorkerMsg>,
    join: JoinHandle<()>,
}

/// The in-process backend: `plan.shards()` fold workers, the two-phase
/// channel barrier, and one group-commit thread for all their WAL
/// series.
pub(crate) struct Shards {
    plan: ShardPlan,
    workers: Vec<ShardHandle>,
    replies: Receiver<Reply>,
    gc: Option<GroupCommit>,
    /// The last barrier's horizon: late gate and verdict watermark.
    advanced: Option<SimTime>,
    verdict: Verdict,
    gauges: FoldGauges,
    metrics: Option<Arc<CollectorMetrics>>,
}

impl Shards {
    /// Opens one WAL series per shard (when `cfg.wal` is set), starts
    /// the group-commit thread and the workers, seeds them with the
    /// WAL-recovered `events` (already durable: no re-journaling, no
    /// acks), and runs a barrier at the recovered watermark so verdict
    /// and wait accounting match a monolithic recovery exactly.
    pub(crate) fn start(
        cfg: &CollectorConfig,
        recovered_wm: Option<SimTime>,
        events: Vec<IoEvent>,
        metrics: Option<Arc<CollectorMetrics>>,
    ) -> io::Result<Shards> {
        let plan = cfg
            .plan
            .clone()
            .unwrap_or_else(|| ShardPlan::uniform(cfg.shards.max(1)));
        let shards = plan.shards();
        let fsync = cfg.wal.as_ref().map_or(FsyncPolicy::Never, |w| w.fsync);
        // Cadence: `EveryN(n)` syncs once per `n` appends across all
        // series; `Always` syncs via per-batch tickets; `Never` only on
        // rotation/close/stop.
        let gc = cfg.wal.is_some().then(|| {
            let cadence = match fsync {
                FsyncPolicy::EveryN(n) => n.max(1),
                FsyncPolicy::Always | FsyncPolicy::Never => u32::MAX,
            };
            let gc_metrics = metrics.as_ref().map(|m| {
                (
                    m.registry.counter("cpvr_wal_syncs_total"),
                    m.registry.histogram("cpvr_wal_fsync_nanos"),
                )
            });
            GroupCommit::start(cadence, gc_metrics)
        });

        let (reply_tx, replies) = std::sync::mpsc::channel::<Reply>();
        let mut workers = Vec::with_capacity(shards as usize);
        for k in 0..shards {
            let mut wal = None;
            let mut last_segment = 0;
            if let (Some(wal_cfg), Some(gc)) = (&cfg.wal, &gc) {
                // A one-shard collector keeps the unnumbered series, so
                // its directory reads like any single journal's.
                let mut series_cfg = wal_cfg.clone();
                if shards > 1 {
                    series_cfg = series_cfg.for_series(k);
                }
                series_cfg.deferred_sync = true;
                let mut w = Wal::open(series_cfg)?;
                if let Some(m) = &metrics {
                    w.set_metrics(m.wal_metrics());
                }
                last_segment = w.segment_index();
                gc.handle().register(k, w.active_file()?);
                wal = Some(w);
            }
            let worker = Worker {
                fold: FoldShard::new(&cfg.pipeline, plan.clone(), k),
                wal,
                gc: gc.as_ref().map(GroupCommit::handle),
                fsync,
                last_segment,
                wal_err: None,
                acks: AckSockets::default(),
                metrics: metrics.clone(),
                reply: reply_tx.clone(),
            };
            let (tx, rx) = std::sync::mpsc::sync_channel(cfg.channel_capacity.max(1));
            let join = thread::Builder::new()
                .name(format!("cpvr-fold-{k}"))
                .spawn(move || worker.run(rx))?;
            workers.push(ShardHandle { tx, join });
        }
        let mut this = Shards {
            plan,
            workers,
            replies,
            gc,
            advanced: recovered_wm,
            verdict: Verdict::default(),
            gauges: FoldGauges::default(),
            metrics,
        };
        if !events.is_empty() {
            let mut seeds: Vec<Vec<IoEvent>> = vec![Vec::new(); shards as usize];
            let mut crosses = vec![Vec::new(); shards as usize];
            for e in events {
                let owner = this.plan.of_router(e.router);
                this.cross_route(owner, &e, &mut crosses);
                seeds[owner as usize].push(e);
            }
            for (w, events) in this.workers.iter().zip(seeds) {
                if !events.is_empty() {
                    let _ = w.tx.send(WorkerMsg::Seed { events });
                }
            }
            this.send_crosses(crosses);
        }
        if let Some(wm) = recovered_wm {
            // Not journaled: the watermark is already durable in every
            // series that folded to it.
            this.barrier(wm, false);
        }
        Ok(this)
    }

    /// The group-commit thread's handle, when a WAL is configured.
    pub(crate) fn group_commit(&self) -> Option<GroupCommitHandle> {
        self.gc.as_ref().map(GroupCommit::handle)
    }

    fn owner(&self, r: RouterId) -> &SyncSender<WorkerMsg> {
        &self.workers[self.plan.of_router(r) as usize].tx
    }

    /// Stages the fold record of `e` for the shard owning its
    /// conversation, when that is not `owner`, the shard owning its
    /// router.
    fn cross_route(&self, owner: u32, e: &IoEvent, crosses: &mut [Vec<FoldRecord>]) {
        let rec = FoldRecord::of(e);
        if let Some((key, _)) = rec.conv() {
            let conv_owner = self.plan.of_conv(&key);
            if conv_owner != owner {
                crosses[conv_owner as usize].push(rec);
            }
        }
    }

    fn send_crosses(&self, crosses: Vec<Vec<FoldRecord>>) {
        for (w, records) in self.workers.iter().zip(crosses) {
            if !records.is_empty() {
                let _ = w.tx.send(WorkerMsg::IngestCross { records });
            }
        }
    }

    /// Runs one two-phase barrier at `wm` across all workers and merges
    /// the verdict.
    fn barrier(&mut self, wm: SimTime, journal: bool) {
        let shards = self.workers.len();
        let start = Instant::now();
        for w in &self.workers {
            let _ = w.tx.send(WorkerMsg::Advance { wm, journal });
        }
        // Phase 1: collect every shard's foreign-digest outboxes.
        let mut outboxes: Vec<Vec<Vec<ConvDigest>>> = vec![Vec::new(); shards];
        for _ in 0..shards {
            let Ok(Reply::Phase1 {
                shard,
                outboxes: out,
            }) = self.replies.recv()
            else {
                return;
            };
            if let Some(m) = &self.metrics {
                if let Some(h) = m.shard_barrier_stall.get(shard as usize) {
                    h.observe_since(start);
                }
            }
            outboxes[shard as usize] = out;
        }
        // Regroup per destination, in origin-shard order: digests for one
        // conversation side all originate from a single stream on a single
        // shard, so this concatenation preserves stream order.
        let mut deliver: Vec<Vec<ConvDigest>> = vec![Vec::new(); shards];
        for origin in outboxes {
            for (dest, digests) in origin.into_iter().enumerate() {
                deliver[dest].extend(digests);
            }
        }
        for (w, digests) in self.workers.iter().zip(deliver) {
            let _ = w.tx.send(WorkerMsg::Deliver { digests });
        }
        // Phase 2: merge the missing sets into the global verdict.
        let mut missing: Vec<RouterId> = Vec::new();
        let mut gauges = FoldGauges::default();
        for _ in 0..shards {
            let Ok(Reply::Phase2 {
                missing: m,
                gauges: g,
            }) = self.replies.recv()
            else {
                return;
            };
            missing.extend(m);
            gauges.add(&g);
        }
        self.verdict.merge(missing);
        self.gauges = gauges;
        if let Some(m) = &self.metrics {
            m.barrier_rounds.inc();
        }
    }
}

impl Backend for Shards {
    fn owns(&self, _r: RouterId) -> bool {
        true
    }

    fn gate(&self) -> Option<SimTime> {
        self.advanced
    }

    fn watermark(&self) -> Option<SimTime> {
        self.advanced
    }

    fn verdict(&self) -> &Verdict {
        &self.verdict
    }

    fn gauges(&self) -> FoldGauges {
        self.gauges.clone()
    }

    /// Repairs are global, not per-router: shard 0's series is their
    /// one canonical home, so a replay reassembles the same lifecycle
    /// order.
    fn journal(&mut self, home: Option<RouterId>, bytes: Vec<u8>, done: Option<SyncSender<()>>) {
        let tx = home.map_or(&self.workers[0].tx, |r| self.owner(r));
        let _ = tx.send(WorkerMsg::Journal { bytes, done });
    }

    fn ingest(&mut self, conn: u64, source: RouterId, batch: Vec<EventRec>, upto: u64, fin: bool) {
        // Cross-conversation copies go out *before* the owner's batch
        // can trigger any later barrier, so a shard's cross builder
        // always has both sides of an HBR by the time the watermark
        // folds it.
        let owner = self.plan.of_router(source);
        let mut crosses = vec![Vec::new(); self.workers.len()];
        for rec in &batch {
            self.cross_route(owner, &rec.event, &mut crosses);
        }
        self.send_crosses(crosses);
        let _ = self.workers[owner as usize].tx.send(WorkerMsg::Ingest {
            conn,
            batch,
            upto,
            fin,
        });
    }

    fn adopt(&mut self, conn: u64, source: RouterId, ack: Option<TcpStream>) {
        let _ = self.owner(source).send(WorkerMsg::Adopt { conn, ack });
    }

    fn ack(&mut self, conn: u64, source: RouterId, upto: u64, fin: bool) {
        let _ = self.owner(source).send(WorkerMsg::Ack { conn, upto, fin });
    }

    fn drop_conn(&mut self, conn: u64, source: Option<RouterId>) {
        // A connection that never greeted has no socket anywhere.
        if let Some(source) = source {
            let _ = self.owner(source).send(WorkerMsg::DropConn { conn });
        }
    }

    fn gate_moved(&mut self, sources: &SourceTable) {
        let global = sources.global_min();
        if let Some(wm) = global.filter(|_| global > self.advanced) {
            self.barrier(wm, true);
            self.advanced = Some(wm);
        }
    }

    fn finish(
        self,
        stalled: Vec<RouterId>,
        repairs: RepairLedger,
    ) -> (FoldReport, Option<io::Error>) {
        for w in &self.workers {
            let _ = w.tx.send(WorkerMsg::Shutdown);
        }
        let mut parts: Vec<Option<FoldShard>> = self.workers.iter().map(|_| None).collect();
        let mut wal_err: Option<io::Error> = None;
        while parts.iter().any(Option::is_none) {
            match self.replies.recv() {
                Ok(Reply::Done(done)) => {
                    let (part, err) = *done;
                    wal_err = wal_err.or(err);
                    let k = part.shard as usize;
                    parts[k] = Some(part);
                }
                Ok(_) => {}
                Err(_) => break,
            }
        }
        for w in self.workers {
            let _ = w.join.join();
        }
        // The group-commit thread's verdict outranks a worker's: it is
        // the first to know when durability was lost.
        if let Some(Err(e)) = self.gc.map(GroupCommit::stop) {
            wal_err = Some(e);
        }
        let parts = parts
            .into_iter()
            .map(|p| p.expect("every fold worker hands its shard back"))
            .collect();
        (
            FoldReport::new(parts, &self.verdict, self.advanced, stalled, repairs),
            wal_err,
        )
    }
}
