//! The fold shard, and `Shards` — the one ingest engine behind the
//! session loop: `N ≥ 1` fold shards on worker threads, joined by a
//! barrier round whose participants are those workers plus, on a
//! federation member, the other members' shards.
//!
//! ## One fold-shard type
//!
//! Shard `k` of a [`ShardPlan`] holds a [`RuleScope::LocalOnly`]
//! [`HbgBuilder`] over the routers it owns (`of_router`), a
//! [`RuleScope::CrossOnly`] one over the send/recv events of the
//! *conversations* it owns (`of_conv` — prefix range, with the
//! addressee-router fallback for events that carry no prefix), and a
//! [`TrackerSlice`] over the owned router streams. The shards of a plan
//! are edge-disjoint by scope and their union is the monolithic fold,
//! which is what [`FoldReport`] materializes and what every equivalence
//! test compares against the in-process [`IngestPipeline`]. A
//! federation member's shards are its slice
//! ([`FederationPlan::shard_plan`]) of one global plan, so the members'
//! reports merge the same way.
//!
//! ## Topology
//!
//! Each **fold worker** owns one `FoldShard`, its own WAL segment series
//! (`wal-s<K>-NNNNNNNN.seg`; a one-shard collector writes the unnumbered
//! `wal-NNNNNNNN.seg` series), flushed per batch and fsynced by the
//! shared group-commit thread, and the ack sockets of what it journals,
//! so an ack is written strictly after the events it covers. The reader
//! classified each event once ([`FoldRecord`]); the engine only routes
//! the record — to its router's worker, and to the global shard owning
//! its conversation when that is another: over the worker's channel
//! when the shard is this collector's, in one eager boundary frame per
//! batch to the member whose shard it is otherwise.
//!
//! ## The barrier round
//!
//! A watermark advance to horizon `f` is one round. *Phase 1*: every
//! worker journals the watermark to its own series, folds to `f`, and
//! returns as [`ConvDigest`] outboxes the conversation sides other
//! shards own ([`TrackerSlice::advance_collect`]); a peer's ship to it,
//! and each peer's own arrive. *Deliver*: each own shard gets its
//! foreign digests in origin order (the peers' after the own, in member
//! order). *Phase 2*: workers report their missing sets, which a member
//! ships to the peers as its partial verdict while theirs arrive.
//! *Merge*: every missing set merges into the global [`Verdict`] —
//! provably equal to the monolithic [`ConsistencyTracker`] verdict — and
//! wait transitions are counted on the merged sequence, so §4.3 wait
//! statistics are shard- and member-count-invariant. With no peers
//! nothing waits and a round runs in one call; a member's round pauses
//! wherever a peer's contribution is missing and resumes when the
//! session loop hands it over.
//!
//! [`RuleScope::LocalOnly`]: cpvr_core::rules::RuleScope
//! [`RuleScope::CrossOnly`]: cpvr_core::rules::RuleScope
//! [`ConsistencyTracker`]: cpvr_core::snapshot::ConsistencyTracker
//! [`FederationPlan::shard_plan`]: cpvr_core::FederationPlan::shard_plan

use crate::codec::{encode_frame, Frame, RepairStage};
use crate::collector::{CollectorConfig, EventRec, Wire, CHANNEL_CAPACITY};
use crate::federation::{MemberFold, Peers};
use crate::group_commit::{GroupCommit, GroupCommitHandle};
use crate::metrics::CollectorMetrics;
use crate::pipeline::{IngestPipeline, PipelineConfig, SourceTable, WalScan};
use crate::repair_journal::RepairLedger;
use crate::wal::{Wal, WalConfig};
use cpvr_core::builder::HbgBuilder;
use cpvr_core::hbg::{Hbg, Hbr};
use cpvr_core::infer::InferConfig;
use cpvr_core::rules::RuleScope;
use cpvr_core::snapshot::{ConvDigest, SnapshotStatus, TrackerSlice, Verdict};
use cpvr_core::{FoldRecord, ShardPlan};
use cpvr_dataplane::DataPlane;
use cpvr_sim::IoEvent;
use cpvr_types::{RouterId, SimTime};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::{Arc, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// The networked fold's inference, sharded or not: protocol rules only.
/// Patterns need a trained miner, which lives with the offline tooling,
/// so no confidence threshold applies.
pub(crate) const RULES: InferConfig<'static> = InferConfig {
    rules: true,
    patterns: None,
    min_confidence: 0.0,
    proximate: false,
};

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
        FoldShard {
            shard,
            local: HbgBuilder::new_scoped(&RULES, RuleScope::LocalOnly),
            cross: HbgBuilder::new_scoped(&RULES, RuleScope::CrossOnly),
            slice: TrackerSlice::new(pipeline.n_routers as usize, plan.clone(), shard),
            plan,
            events: 0,
        }
    }

    /// Buffers one owned-router event's record (with its raw arrival)
    /// into the local builder, the tracker slice, and — when this shard
    /// also owns its conversation — the cross builder (the shard that
    /// does gets it as a `WorkerMsg::IngestCross` record).
    pub(crate) fn ingest(&mut self, rec: FoldRecord, arrived_at: Option<SimTime>) {
        self.local.ingest_record(rec);
        self.slice.ingest_record(rec, arrived_at);
        self.events += 1;
        if rec
            .conv()
            .is_some_and(|(key, _)| self.plan.of_conv(&key) == self.shard)
        {
            self.cross.ingest_record(rec);
        }
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

    pub(crate) fn gauges(&self) -> FoldGauges {
        FoldGauges {
            processed: self.local.processed(),
            pending: self.local.pending(),
        }
    }
}

/// Fold counters, summed over shards (events are counted by the local
/// builders only — cross builders fold copies).
#[derive(Clone, Debug, Default)]
pub(crate) struct FoldGauges {
    pub(crate) processed: usize,
    pub(crate) pending: usize,
}

impl FoldGauges {
    fn add(&mut self, other: &FoldGauges) {
        self.processed += other.processed;
        self.pending += other.pending;
    }
}

/// The fold state a collector hands back at shutdown: its fold shards
/// and the verdict they reached. Accessors expose the merged view —
/// and the bit-identity invariant is that every one of them is equal
/// at every shard count, across a federation, and to the in-process
/// [`IngestPipeline`] on the same trace.
///
/// A federation member's report is a *partial* view (its HBG holds only
/// its shards' local and owned-conversation edges, its data plane only
/// the owned routers) with the member extras beside it;
/// [`merge_members`](crate::federation::merge_members) combines the
/// members of one federation into the global report.
pub struct FoldReport {
    pub(crate) parts: Vec<FoldShard>,
    pub(crate) merged: OnceLock<Merged>,
    pub(crate) status: SnapshotStatus,
    pub(crate) waits: (u64, u64),
    pub(crate) watermark: Option<SimTime>,
    pub(crate) stalled: Vec<RouterId>,
    pub(crate) repairs: RepairLedger,
    pub(crate) member: Option<Box<MemberFold>>,
}

/// The union of a report's shards, materialized on first use.
pub(crate) struct Merged {
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
    pub(crate) fn stalled_sources(&self) -> Vec<RouterId> {
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
pub(crate) enum WorkerMsg {
    /// Fresh, in-order, non-late, classified events for an owned
    /// router: journal the intern definitions that arrived with them,
    /// then the events' wire bytes (WAL-recovered events carry none —
    /// they are durable already), ingest, then ack `(conn, upto, fin)`.
    /// Definitions are idempotent on replay, so one whose events were
    /// dropped as duplicates is harmless. `at` is when the session handed
    /// the batch over: the journaled hop of its sampled flights.
    Ingest {
        batch: Vec<EventRec>,
        defs: Vec<Vec<u8>>,
        ack: Option<(u64, u64, bool)>,
        at: Instant,
    },
    /// Records of events whose conversations this worker owns but whose
    /// routers it does not.
    IngestCross { records: Vec<FoldRecord> },
    /// Journal a control record.
    Journal { bytes: Vec<u8> },
    /// Signal the sender: everything queued to this worker before it
    /// has been handled (the barrier `journal_repair` waits on).
    Done(SyncSender<()>),
    /// Adopt a greeted connection's ack handle.
    Adopt {
        conn: u64,
        ack: Option<Box<dyn Wire>>,
    },
    /// Write an ack (and fin, if the source finished) on a connection.
    Ack { conn: u64, upto: u64, fin: bool },
    /// Drop (and hang up) a connection's ack socket.
    DropConn { conn: u64 },
    /// Barrier phase 1: journal the watermark (unless recovering), fold
    /// to `wm`, reply with foreign-conversation digests.
    Advance { wm: SimTime, journal: bool },
    /// Barrier phase 2: absorb foreign digests, reply with the missing
    /// set and fold counters.
    Deliver { digests: Vec<ConvDigest> },
    /// Close the WAL and hand the fold shard back.
    Shutdown,
}

/// What a fold worker sends back.
enum Reply {
    Phase1 {
        local: usize,
        outboxes: Vec<Vec<ConvDigest>>,
    },
    Phase2 {
        missing: Vec<RouterId>,
        gauges: FoldGauges,
    },
    Done(Box<(usize, FoldShard, Option<io::Error>)>),
}

/// One fold worker: owns a fold shard, its WAL series, and the ack
/// sockets of what it journals — its routers' connections, and on
/// worker 0 the inbound peer links'.
struct Worker {
    /// This worker's index among the collector's own shards (also its
    /// WAL series and metric label).
    local: usize,
    fold: FoldShard,
    wal: Wal,
    gc: GroupCommitHandle,
    last_segment: u64,
    wal_err: Option<io::Error>,
    acks: HashMap<u64, Box<dyn Wire>>,
    metrics: Arc<CollectorMetrics>,
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
        if let Err(e) = self.wal.append(bytes) {
            self.wal_err = Some(e);
            return false;
        }
        true
    }

    /// Flushes the batch and commits it to the group-commit thread,
    /// which applies the fsync policy (under `Always` the commit returns
    /// fsynced, so the subsequent ack implies durable).
    fn commit(&mut self, appended: u32) {
        if self.wal_err.is_some() || appended == 0 {
            return;
        }
        let (w, gc) = (&mut self.wal, &self.gc);
        let committed = w.flush().and_then(|()| {
            // A rotation opened a new active file; the group-commit
            // thread must fsync that one from now on.
            if w.segment_index() != self.last_segment {
                self.last_segment = w.segment_index();
                gc.register(self.local as u32, w.active_file()?)?;
            }
            gc.commit(appended)
        });
        self.wal_err = committed.err();
    }

    /// Acks the contiguous prefix below `upto` and, once the source's
    /// bye promise has been *applied* (`fin`), confirms end-of-stream
    /// with a fin: byes carry no sequence number, so the fin is the only
    /// way a draining client can know its bye was not lost in flight. A
    /// failed or timed-out write forfeits the handle (the client
    /// reconnects on ack stall). Returns whether the ack went out —
    /// callers that count acked events must not count a forfeited write.
    fn ack(&mut self, conn: u64, upto: u64, fin: bool) -> bool {
        let Some(s) = self.acks.get_mut(&conn) else {
            return false;
        };
        if s.write_all(&encode_frame(&Frame::Ack { upto })).is_err() {
            self.acks.remove(&conn);
            return false;
        }
        if fin && s.write_all(&encode_frame(&Frame::Fin)).is_err() {
            self.acks.remove(&conn);
        }
        true
    }

    /// The worker's shell: reads the clock once per message and hands
    /// both to [`on_msg`](Self::on_msg), until the shutdown, which hands
    /// the fold shard back.
    fn run(mut self, rx: Receiver<WorkerMsg>) {
        while let Ok(msg) = rx.recv() {
            if let WorkerMsg::Shutdown = msg {
                let closed = self.wal.close();
                let wal_err = self.wal_err.or(closed.err());
                let done = Box::new((self.local, self.fold, wal_err));
                let _ = self.reply.send(Reply::Done(done));
                return;
            }
            if !self.on_msg(msg, Instant::now()) {
                return;
            }
        }
    }

    /// One message, taken up at `now`; `false` once the engine is gone.
    fn on_msg(&mut self, msg: WorkerMsg, now: Instant) -> bool {
        let (local, m) = (self.local, Arc::clone(&self.metrics));
        match msg {
            WorkerMsg::Ingest {
                batch,
                defs,
                ack,
                at,
            } => {
                let defined = defs.iter().filter(|d| self.journal(d)).count() as u32;
                let (mut journaled, mut flights) = (0u32, 0u64);
                for rec in &batch {
                    // A WAL-recovered event carries no bytes: it is
                    // durable already.
                    if let Some(raw) = rec.raw.as_ref() {
                        if self.journal(raw) {
                            journaled += 1;
                            flights += u64::from(rec.trace.is_some());
                        }
                    }
                }
                self.commit(defined + journaled);
                for rec in &batch {
                    self.fold.ingest(rec.rec, rec.arrived_at);
                }
                m.events_journaled.add(u64::from(journaled));
                // Ack only after the batch was journaled *and* committed
                // per policy, so the ack survives a killed process (and,
                // under `Always`, a power loss). Count only an ack that
                // actually went out.
                let Some((conn, upto, fin)) = ack else {
                    return true;
                };
                if self.ack(conn, upto, fin) {
                    m.events_acked.add(batch.len() as u64);
                    let waited = now.saturating_duration_since(at).as_nanos() as u64;
                    for _ in 0..flights {
                        m.flight_journaled_to_acked.observe(waited);
                    }
                }
            }
            // Records whose conversations this shard owns but whose
            // routers it does not: cross-builder feed only.
            WorkerMsg::IngestCross { records } => {
                for rec in records {
                    self.fold.cross.ingest_record(rec);
                }
            }
            WorkerMsg::Journal { bytes } => {
                if self.journal(&bytes) {
                    self.commit(1);
                }
            }
            WorkerMsg::Done(done) => {
                let _ = done.send(());
            }
            WorkerMsg::Adopt { conn, ack } => {
                if let Some(a) = ack {
                    self.acks.insert(conn, a);
                }
            }
            WorkerMsg::Ack { conn, upto, fin } => {
                self.ack(conn, upto, fin);
            }
            WorkerMsg::DropConn { conn } => {
                if let Some(a) = self.acks.remove(&conn) {
                    a.hang_up();
                }
            }
            WorkerMsg::Advance { wm, journal } => {
                // The watermark record precedes the fold in this series,
                // which is what makes the recovered min-over-series-of-max
                // watermark sound. The frontier field is meaningless for
                // a global watermark; zero by convention.
                if journal && self.journal(&encode_frame(&Frame::Watermark { t: wm, frontier: 0 }))
                {
                    self.commit(1);
                }
                let outboxes = self.fold.advance_collect(wm);
                return self.reply.send(Reply::Phase1 { local, outboxes }).is_ok();
            }
            WorkerMsg::Deliver { digests } => {
                for d in &digests {
                    self.fold.slice.absorb(d);
                }
                let gauges = self.fold.gauges();
                let missing = self.fold.slice.missing();
                return self.reply.send(Reply::Phase2 { missing, gauges }).is_ok();
            }
            WorkerMsg::Shutdown => unreachable!("the shell hands the shard back"),
        }
        true
    }
}

/// The one barrier round in flight, at horizon `at`.
struct Round {
    at: SimTime,
    /// Phase-1 digests regrouped per own destination shard, in origin
    /// order; the peers' join them at delivery.
    deliver: Vec<Vec<ConvDigest>>,
    /// The own shards' missing sets, once phase 2 ran.
    missing: Option<Vec<RouterId>>,
    opened: Instant,
}

/// The ingest engine behind the session loop: the collector's own fold
/// workers, one group-commit thread for their WAL series, and — on a
/// federation member — the [`Peers`] standing in for the other members'
/// shards in every barrier round.
pub(crate) struct Shards {
    plan: ShardPlan,
    /// The global index of this collector's first shard (`member · n`
    /// on a federation member, 0 otherwise).
    base: u32,
    workers: Vec<SyncSender<WorkerMsg>>,
    joins: Vec<JoinHandle<()>>,
    replies: Receiver<Reply>,
    gc: GroupCommit,
    /// The horizon of the open (or last opened) round: the late gate. A
    /// fresh event at or behind it can no longer be folded in order.
    pub(crate) advanced: Option<SimTime>,
    /// The horizon of the last merged verdict, which the session
    /// publishes: a member whose rounds stop landing is stalled even if
    /// its own sources stay chatty.
    pub(crate) completed: Option<SimTime>,
    /// The verdict at `completed` and its wait accounting.
    pub(crate) verdict: Verdict,
    /// Fold counters as of the last round.
    pub(crate) gauges: FoldGauges,
    round: Option<Round>,
    /// The other members' shards, on a federation member.
    pub(crate) peers: Option<Peers>,
    /// The registry the round counts into — `None` only while a
    /// federation member replays its journal in [`Shards::start`]: the
    /// live run already counted the rounds the replay regenerates.
    metrics: Option<Arc<CollectorMetrics>>,
}

impl Shards {
    /// Opens one WAL series per own shard in `wal`'s directory, starts
    /// the group-commit thread and the workers, and seeds them
    /// with the WAL-recovered events in `scan` (already durable: no
    /// re-journaling, no acks). A standalone collector then runs one
    /// barrier at the recovered watermark, so verdict and wait
    /// accounting match a monolithic recovery exactly; a federation
    /// member instead replays its journaled peer and round records
    /// through the live apply path, which regenerates its rounds, its
    /// verdict history and every outbound peer frame. `now` stamps what
    /// the recovery hands on.
    pub(crate) fn start(
        cfg: &CollectorConfig,
        wal: &WalConfig,
        scan: &mut WalScan,
        metrics: &Arc<CollectorMetrics>,
        now: Instant,
    ) -> io::Result<Shards> {
        let shards = cfg.fold_shards();
        let fed = cfg.federation.as_ref();
        let base = fed.map_or(0, |f| f.member * shards);
        let plan = match fed {
            Some(f) => f.plan.shard_plan(shards),
            None => ShardPlan::uniform(shards),
        };
        let wm = metrics.wal_metrics();
        let gc = GroupCommit::start(wal.fsync, (wm.syncs.clone(), wm.fsync_nanos.clone()));

        let (reply_tx, replies) = std::sync::mpsc::channel::<Reply>();
        let (mut workers, mut joins) = (Vec::new(), Vec::new());
        for k in 0..shards {
            // A one-shard collector keeps the unnumbered series, so its
            // directory reads like any single journal's.
            let mut series_cfg = wal.clone();
            series_cfg.series = (shards > 1).then_some(k);
            let w = Wal::open_with(series_cfg, Some(wm.clone()))?;
            gc.handle().register(k, w.active_file()?)?;
            let worker = Worker {
                local: k as usize,
                fold: FoldShard::new(&cfg.pipeline, plan.clone(), base + k),
                last_segment: w.segment_index(),
                wal: w,
                gc: gc.handle(),
                wal_err: None,
                acks: HashMap::new(),
                metrics: Arc::clone(metrics),
                reply: reply_tx.clone(),
            };
            let (tx, rx) = std::sync::mpsc::sync_channel(CHANNEL_CAPACITY);
            workers.push(tx);
            joins.push(
                thread::Builder::new()
                    .name(format!("cpvr-fold-{k}"))
                    .spawn(move || worker.run(rx))?,
            );
        }
        let mut this = Shards {
            plan,
            base,
            workers,
            joins,
            replies,
            gc,
            advanced: None,
            completed: None,
            verdict: Verdict::default(),
            gauges: FoldGauges::default(),
            round: None,
            peers: fed.map(|f| Peers::new(cfg, f)),
            metrics: Some(Arc::clone(metrics)),
        };
        this.seed(std::mem::take(&mut scan.events), now);
        if this.peers.is_none() {
            if let Some(wm) = scan.report.watermark {
                // Not journaled: the watermark is already durable in
                // every series that folded to it.
                this.open(wm, false, now);
                this.try_complete(now);
            }
            return Ok(this);
        }
        for r in (0..cfg.pipeline.n_routers).map(RouterId) {
            if !this.owns(r) {
                // Non-owned routers never gate this member's frontier —
                // the plan, not the lease, says they are someone else's
                // responsibility. Plan-derived, so never journaled.
                scan.sources.evict(r);
            }
        }
        // The replay leaves no telemetry: the live run already counted
        // what it regenerates.
        this.metrics.take();
        let durable = scan.report.watermark;
        for frame in std::mem::take(&mut scan.peer_log) {
            // A marker some series lacks (`> durable`, the min over series
            // of their last marker) opened a round whose events in that
            // series may be lost; the live run reopens it.
            if !matches!(frame, Frame::Watermark { t, .. } if Some(t) > durable) {
                this.replay(frame, &scan.sources, &scan.repairs, now);
            }
        }
        scan.report.watermark = this.completed;
        this.metrics = Some(Arc::clone(metrics));
        let series0 = this.workers[0].clone();
        if let Some(p) = this.peers.as_mut() {
            p.go_live(series0, metrics);
        }
        Ok(this)
    }

    /// The group-commit thread's handle.
    pub(crate) fn group_commit(&self) -> GroupCommitHandle {
        self.gc.handle()
    }

    /// The index among this collector's workers of global shard `g`, if
    /// it is one of them.
    fn local(&self, g: u32) -> Option<usize> {
        g.checked_sub(self.base)
            .map(|k| k as usize)
            .filter(|k| *k < self.workers.len())
    }

    /// The worker journaling `home`'s stream: its owner — or worker 0,
    /// for records with no home (repairs, whose one canonical home is
    /// series 0, so a replay reassembles the same lifecycle order) and
    /// for routers this member does not own.
    fn worker(&self, home: Option<RouterId>) -> &SyncSender<WorkerMsg> {
        let k = home.and_then(|r| self.local(self.plan.of_router(r)));
        &self.workers[k.unwrap_or(0)]
    }

    /// Hands `home`'s worker one message (see [`worker`](Self::worker)).
    pub(crate) fn send(&self, home: Option<RouterId>, msg: WorkerMsg) {
        let _ = self.worker(home).send(msg);
    }

    /// Appends one control record to the series journaling `home`'s
    /// stream.
    pub(crate) fn journal(&self, home: Option<RouterId>, bytes: Vec<u8>) {
        self.send(home, WorkerMsg::Journal { bytes });
    }

    /// One empty group per global shard, for [`route_cross`](Self::route_cross).
    fn cross_groups(&self) -> Vec<Vec<FoldRecord>> {
        vec![Vec::new(); self.plan.shards() as usize]
    }

    /// Groups `rec` under the global shard owning its conversation when
    /// that is not the shard owning its router (which feeds its own
    /// cross builder on ingest).
    fn route_cross(&self, rec: FoldRecord, crosses: &mut [Vec<FoldRecord>]) {
        if let Some((key, _)) = rec.conv() {
            let g = self.plan.of_conv(&key);
            if g != self.plan.of_router(rec.router) {
                crosses[g as usize].push(rec);
            }
        }
    }

    /// Hands every group to its shard: an own shard's worker as one
    /// `IngestCross`, another member's shards as one eager boundary frame
    /// to that member. Cross records go out *before* the owner's batch can
    /// trigger any later barrier (on a peer link, before any frontier
    /// advertisement that covers them), so a shard's cross builder always
    /// has both sides of an HBR by the time the watermark folds it.
    fn send_crosses(&mut self, crosses: Vec<Vec<FoldRecord>>, now: Instant) {
        let mut remote = vec![Vec::new(); self.peers.as_ref().map_or(0, |p| p.members as usize)];
        for (g, records) in (0..).zip(crosses) {
            if records.is_empty() {
                continue;
            }
            match self.local(g) {
                Some(k) => {
                    let _ = self.workers[k].send(WorkerMsg::IngestCross { records });
                }
                None => remote[self.plan.member_of(g) as usize].extend(records),
            }
        }
        if let Some(p) = self.peers.as_mut() {
            for (j, records) in remote.into_iter().enumerate() {
                if !records.is_empty() {
                    p.forward(j, records, now);
                }
            }
        }
    }

    /// Hands WAL-recovered events to their owning workers.
    fn seed(&mut self, events: Vec<(u64, IoEvent)>, now: Instant) {
        let mut seeds: Vec<Vec<EventRec>> = self.workers.iter().map(|_| Vec::new()).collect();
        let mut crosses = self.cross_groups();
        for (seq, event) in events {
            // Already durable, never traced.
            let rec = EventRec::new(seq, &event);
            let owner = self.plan.of_router(rec.rec.router);
            self.route_cross(rec.rec, &mut crosses);
            seeds[self.local(owner).unwrap_or(0)].push(rec);
        }
        self.send_crosses(crosses, now);
        for (w, batch) in self.workers.iter().zip(seeds) {
            if !batch.is_empty() {
                let _ = w.send(WorkerMsg::Ingest {
                    batch,
                    defs: Vec::new(),
                    ack: None,
                    at: now,
                });
            }
        }
    }

    /// Journals `defs` and a batch of fresh events from `source`, handed
    /// over at `now`, buffers the events, then acks `upto` (and `fin`)
    /// on `conn`.
    pub(crate) fn ingest(
        &mut self,
        conn: u64,
        source: RouterId,
        batch: Vec<EventRec>,
        defs: Vec<Vec<u8>>,
        (upto, fin): (u64, bool),
        now: Instant,
    ) {
        let mut crosses = self.cross_groups();
        for rec in &batch {
            self.route_cross(rec.rec, &mut crosses);
        }
        self.send_crosses(crosses, now);
        let (ack, at) = (Some((conn, upto, fin)), now);
        self.send(
            Some(source),
            WorkerMsg::Ingest {
                batch,
                defs,
                ack,
                at,
            },
        );
    }

    /// Phase 1 of the round at `f`, opened at `now`: every own worker
    /// journals the watermark (unless recovering), folds to it, and
    /// returns its foreign-conversation digests — regrouped here per own
    /// destination shard, and shipped per member to the peers.
    fn open(&mut self, f: SimTime, journal: bool, now: Instant) {
        self.advanced = Some(f);
        // The barrier-stall histogram times each worker's phase 1 on the
        // wall clock; no decision reads it.
        let started = Instant::now();
        for w in &self.workers {
            let _ = w.send(WorkerMsg::Advance { wm: f, journal });
        }
        let mut outboxes: Vec<Vec<Vec<ConvDigest>>> = vec![Vec::new(); self.workers.len()];
        for _ in 0..self.workers.len() {
            let Ok(Reply::Phase1 {
                local,
                outboxes: out,
            }) = self.replies.recv()
            else {
                return;
            };
            if let Some(h) = self
                .metrics
                .as_ref()
                .and_then(|m| m.shard_barrier_stall.get(local))
            {
                h.observe_since(started);
            }
            outboxes[local] = out;
        }
        // Regroup per destination, in origin-shard order: digests for one
        // conversation side all originate from a single stream on a single
        // shard, so this concatenation preserves stream order.
        let mut deliver = vec![Vec::new(); self.workers.len()];
        let mut remote = vec![Vec::new(); self.peers.as_ref().map_or(0, |p| p.members as usize)];
        for origin in outboxes {
            for (g, digests) in (0..).zip(origin) {
                match self.local(g) {
                    Some(k) => deliver[k].extend(digests),
                    None => remote[self.plan.member_of(g) as usize].extend(digests),
                }
            }
        }
        if let Some(p) = self.peers.as_mut() {
            p.open_round(f, remote, now);
        }
        self.round = Some(Round {
            at: f,
            deliver,
            missing: None,
            opened: now,
        });
    }

    /// The rest of the open round, as far as the peers' contributions
    /// allow (without peers nothing waits): deliver the own and every
    /// peer's digests, phase 2 (the own shards' missing sets, shipped to
    /// the peers as this member's partial verdict), then one merge of
    /// every missing set into the global verdict, at `now`. Returns
    /// whether the round completed.
    fn try_complete(&mut self, now: Instant) -> bool {
        let Some(mut round) = self.round.take() else {
            return false;
        };
        if round.missing.is_none() {
            let Some(from_peers) = self
                .peers
                .as_mut()
                .map_or(Some(Vec::new()), |p| p.take_digests(round.at))
            else {
                self.round = Some(round);
                return false;
            };
            for d in from_peers {
                if let Some(k) = self.local(self.plan.of_conv(&d.key)) {
                    round.deliver[k].push(d);
                }
            }
            for (w, digests) in self.workers.iter().zip(std::mem::take(&mut round.deliver)) {
                let _ = w.send(WorkerMsg::Deliver { digests });
            }
            let (mut missing, mut gauges) = (Vec::new(), FoldGauges::default());
            for _ in 0..self.workers.len() {
                let Ok(Reply::Phase2 {
                    missing: m,
                    gauges: g,
                }) = self.replies.recv()
                else {
                    return false;
                };
                missing.extend(m);
                gauges.add(&g);
            }
            self.gauges = gauges;
            if let Some(p) = self.peers.as_mut() {
                p.send_partial(round.at, &missing, now);
            }
            round.missing = Some(missing);
        }
        let Some(from_peers) = self
            .peers
            .as_mut()
            .map_or(Some(Vec::new()), |p| p.take_partials(round.at))
        else {
            self.round = Some(round);
            return false;
        };
        let mut missing = round.missing.unwrap_or_default();
        missing.extend(from_peers);
        self.verdict.merge(missing);
        self.completed = Some(round.at);
        if let Some(m) = &self.metrics {
            m.barrier_rounds.inc();
        }
        if let Some(p) = self.peers.as_mut() {
            p.round_complete(round.at, self.verdict.status(), round.opened, now);
        }
        true
    }

    /// Drives the round machine: completes the open round as far as it
    /// can, then opens the next horizon — the source table's minimum, or
    /// on a member the next value of the federation's round grid the
    /// federated minimum has reached — until something waits.
    fn pump(&mut self, sources: &SourceTable, now: Instant) {
        loop {
            if self.round.is_some() && !self.try_complete(now) {
                return;
            }
            let next = match self.peers.as_mut() {
                Some(p) => p.next_horizon(sources, self.advanced),
                None => sources.global_min().filter(|wm| Some(*wm) > self.advanced),
            };
            let Some(f) = next else { return };
            self.open(f, true, now);
        }
    }

    /// Applies one in-sequence peer frame, live or replayed, at `now`.
    fn apply_peer(&mut self, frame: Frame, sources: &SourceTable, now: Instant) {
        let Some(p) = self.peers.as_mut() else { return };
        match frame {
            Frame::FrontierExchange(f) => p.frontier(f, sources),
            Frame::BoundaryEdges(b) => match b.round {
                None => {
                    let fresh = p.boundary_events(b.records, self.advanced);
                    let mut crosses = self.cross_groups();
                    for rec in fresh {
                        self.route_cross(rec, &mut crosses);
                    }
                    return self.send_crosses(crosses, now);
                }
                // A round contribution at or behind the completed
                // horizon is a recovering peer's replay.
                Some(t) if Some(t) > self.completed => p.file_digests(t, b.member, b.digests),
                Some(_) => return,
            },
            Frame::PartialVerdict(v) if Some(v.round) > self.completed => {
                p.file_partial(v.round, v.member, v.missing);
            }
            Frame::PeerRepairProof(r) => return p.check_proof(&r, now),
            _ => return,
        }
        self.pump(sources, now);
    }

    /// Replays one journaled record of series 0 through the live apply
    /// path, with journaling off.
    fn replay(
        &mut self,
        frame: Frame,
        sources: &SourceTable,
        repairs: &RepairLedger,
        now: Instant,
    ) {
        let Some(p) = self.peers.as_mut() else { return };
        match frame {
            // A round marker is the sole authority on which horizons
            // opened before the crash. Serial rounds: the previous one
            // completed before this marker was journaled.
            Frame::Watermark { t, .. } => {
                p.supersede(t);
                if Some(t) > self.advanced {
                    self.open(t, false, now);
                }
                self.pump(sources, now);
            }
            Frame::PeerHello(h) => {
                p.greet(&h);
            }
            Frame::Repair(r) if r.stage == RepairStage::Gated => {
                p.broadcast_repair(repairs, r.repair_id, now);
            }
            Frame::FrontierExchange(f) if f.member == p.member => p.replay_own_frontier(f, now),
            other => {
                if p.in_sequence(&other) {
                    self.apply_peer(other, sources, now);
                }
            }
        }
    }

    /// Whether this collector folds `r`'s stream (a federation member
    /// folds only the routers its plan assigns it).
    pub(crate) fn owns(&self, r: RouterId) -> bool {
        self.peers.as_ref().is_none_or(|p| p.owns(r))
    }

    /// Forgets `conn` and hangs up on it (`source` is `None` for a
    /// connection that never greeted as a router: a peer's, whose
    /// socket worker 0 holds, or one with no socket anywhere).
    pub(crate) fn drop_conn(&mut self, conn: u64, source: Option<RouterId>) {
        let peer = self.peers.as_mut().is_some_and(|p| p.forget(conn));
        if source.is_some() || peer {
            self.send(source, WorkerMsg::DropConn { conn });
        }
    }

    /// The source table's minimum promise may have moved at `now`:
    /// advertise it to the peers and advance the fold as far as it
    /// allows.
    pub(crate) fn gate_moved(&mut self, sources: &SourceTable, now: Instant) {
        if let Some(p) = self.peers.as_mut() {
            p.advertise(sources, now);
        }
        self.pump(sources, now);
    }

    /// A sibling member's frame, received at `now`; may complete rounds.
    pub(crate) fn peer_frame(
        &mut self,
        conn: u64,
        frame: Frame,
        raw: Vec<u8>,
        sources: &SourceTable,
        now: Instant,
    ) {
        if self
            .peers
            .as_mut()
            .is_some_and(|p| p.receive(conn, &frame, raw))
        {
            self.apply_peer(frame, sources, now);
        }
    }

    /// Closes the journal and hands the fold state back.
    pub(crate) fn finish(
        self,
        stalled: Vec<RouterId>,
        repairs: RepairLedger,
    ) -> (FoldReport, Option<io::Error>) {
        for w in &self.workers {
            let _ = w.send(WorkerMsg::Shutdown);
        }
        let mut parts: Vec<Option<FoldShard>> = self.workers.iter().map(|_| None).collect();
        let mut wal_err: Option<io::Error> = None;
        while parts.iter().any(Option::is_none) {
            match self.replies.recv() {
                Ok(Reply::Done(done)) => {
                    let (k, part, err) = *done;
                    wal_err = wal_err.or(err);
                    parts[k] = Some(part);
                }
                Ok(_) => {}
                Err(_) => break,
            }
        }
        for j in self.joins {
            let _ = j.join();
        }
        // The group-commit thread's verdict outranks a worker's: it is
        // the first to know when durability was lost.
        if let Err(e) = self.gc.stop() {
            wal_err = Some(e);
        }
        let parts = parts
            .into_iter()
            .map(|p| p.expect("every fold worker hands its shard back"))
            .collect();
        let report = FoldReport {
            parts,
            merged: OnceLock::new(),
            waits: self.verdict.waits(),
            status: self.verdict.status().clone(),
            watermark: self.completed,
            stalled,
            repairs,
            member: self.peers.map(|p| Box::new(p.into_fold())),
        };
        (report, wal_err)
    }
}

#[cfg(test)]
impl Shards {
    /// Waits until every worker has handled everything queued to it.
    pub(crate) fn quiesce(&self) {
        let done: Vec<_> = (self.workers.iter())
            .map(|w| {
                let (tx, rx) = std::sync::mpsc::sync_channel(1);
                let _ = w.send(WorkerMsg::Done(tx));
                rx
            })
            .collect();
        for rx in done {
            let _ = rx.recv();
        }
    }
}
